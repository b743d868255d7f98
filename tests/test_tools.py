"""Tests for the comparison utilities and the command-line interface."""

import io

import pytest

from repro.lang.kinds import ARCH_ALIASES, Arch
from repro.litmus import get_test
from repro.tools import compare_models, observables
from repro.tools.cli import build_parser, main


class TestCompare:
    def test_observables_cover_program_registers_and_locations(self):
        test = get_test("MP")
        regs, locs = observables(test.program)
        assert regs[1] == ["r1", "r2"]
        assert len(locs) == 2

    def test_compare_promising_and_axiomatic(self):
        comparison = compare_models(get_test("MP+dmb+addr").program, Arch.ARM)
        assert comparison.promising_equals_axiomatic is True
        assert "==" in comparison.describe()

    def test_compare_with_naive_and_flat(self):
        comparison = compare_models(
            get_test("SB").program,
            Arch.ARM,
            include_axiomatic=False,
            include_flat=True,
            include_naive=True,
        )
        assert comparison.promising_equals_naive is True
        assert comparison.flat_subset_of_promising is True
        assert comparison.promising_equals_axiomatic is None


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--test", "MP"])
        assert args.command == "run" and args.test == "MP"
        args = parser.parse_args(["agreement", "--max-tests", "5"])
        assert args.max_tests == 5

    def test_parser_serve_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "4",
                                  "--batch-delay-ms", "2.5", "--cache-dir", "/tmp/c"])
        assert args.command == "serve" and args.port == 0
        assert args.workers == 4 and args.batch_delay_ms == 2.5
        assert args.cache_dir == "/tmp/c" and args.lru_capacity == 4096

    def test_unknown_arch_is_rejected(self, capsys):
        # Never a silent fallback to ARM: argparse exits 2 with the spellings.
        with pytest.raises(SystemExit) as exc:
            main(["--arch", "bogus", "run", "--test", "MP"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown arch 'bogus'" in err and all(name in err for name in ARCH_ALIASES)

    def test_retired_and_out_of_range_flags_are_rejected(self):
        # A retired flag must fail loudly rather than be silently ignored,
        # and --loop-bound takes the service's lower bound of 1.
        for argv in (
            ["--strategy", "bfs", "run", "--test", "MP"],
            ["--no-dedup", "run", "--test", "MP"],
            ["--no-cert-memo", "run", "--test", "MP"],
            ["--loop-bound", "0", "run", "--test", "MP"],
            ["--loop-bound", "-1", "run", "--test", "MP"],
            # A non-positive deadline would silently mean "no deadline".
            ["agreement", "--max-tests", "1", "--timeout", "0"],
            ["sweep", "--max-tests", "1", "--timeout", "-1"],
            ["fuzz", "--max-per-family", "1", "--timeout", "0"],
            ["fuzz", "--max-per-family", "1", "--timeout", "nan"],
            ["sweep", "--max-tests", "1", "--distributed", "--stall-timeout", "0"],
            ["fuzz", "--max-per-family", "1", "--distributed", "--stall-timeout", "-5"],
            ["--samples", "0", "run", "--test", "MP"],
            ["--seed", "1.5", "run", "--test", "MP"],
            ["--log-level", "bogus", "run", "--test", "MP"],
            # A negative --max-tests would slice off the battery's tail.
            ["sweep", "--max-tests", "-3"],
            ["agreement", "--max-tests", "0"],
            ["fuzz", "--max-tests", "0"],
            ["fuzz", "--max-per-family", "-1"],
            ["sweep", "--max-tests", "1", "--workers", "-2"],
            ["agreement", "--max-tests", "1", "--workers", "-1"],
            # A negative poll would crash time.sleep after the first empty claim.
            ["work", "--backend-url", "memory://q", "--poll-seconds", "-1", "--idle-exit", "1"],
            ["work", "--backend-url", "memory://q", "--poll-seconds", "0", "--idle-exit", "1"],
            ["work", "--backend-url", "memory://q", "--lease-seconds", "0", "--idle-exit", "1"],
            ["work", "--backend-url", "memory://q", "--lease-seconds", "nan", "--idle-exit", "1"],
            ["work", "--backend-url", "memory://q", "--idle-exit", "-1"],
            ["work", "--backend-url", "memory://q", "--max-jobs", "0", "--idle-exit", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        # serve's default deadline takes the service's own (0, 600] rule,
        # and its sizing flags the ServiceConfig bounds; parsed only, so a
        # regression cannot start a server here.
        for argv in (
            *(["serve", "--timeout", timeout] for timeout in ("0", "-1", "600.5", "inf")),
            # 0 made the dispatch loop spin without ever yielding.
            ["serve", "--batch-max-size", "0"],
            # -1 answered every request with 429.
            ["serve", "--max-pending-jobs", "-1"],
            ["serve", "--lru-capacity", "0"],
            ["serve", "--quota-refill", "0"],
            ["serve", "--quota-tokens", "0"],
            ["serve", "--batch-delay-ms", "-1"],
            ["serve", "--workers", "-1"],
            ["serve", "--port", "-1"],
            ["serve", "--port", "65536"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
        assert build_parser().parse_args(["serve", "--timeout", "600"]).timeout == 600.0
        assert build_parser().parse_args(["sweep", "--timeout", "0.5"]).timeout == 0.5
        assert build_parser().parse_args(["serve", "--port", "65535"]).port == 65535
        assert build_parser().parse_args(["--log-level", "DEBUG", "run"]).log_level == "debug"
        work = ["work", "--backend-url", "memory://q", "--idle-exit", "0"]
        assert build_parser().parse_args(work).idle_exit == 0.0

    def test_arch_aliases_resolve_at_parse_time(self):
        args = build_parser().parse_args(["--arch", "RISC-V", "run"])
        assert args.arch is Arch.RISCV

    def test_run_command(self, capsys):
        assert main(["run", "--test", "MP+dmbs", "--axiomatic"]) == 0
        out = capsys.readouterr().out
        assert "forbidden" in out and "agree" in out

    def test_catalogue_command(self, capsys):
        assert main(["catalogue"]) == 0
        out = capsys.readouterr().out
        assert "MP+dmb+addr" in out

    def test_agreement_command(self, capsys):
        assert main(["agreement", "--max-tests", "6"]) == 0
        out = capsys.readouterr().out
        assert "agree" in out

    def test_interactive_command(self, monkeypatch, capsys):
        # Scripted stdin: take transition 0 (T0's store), undo it, quit.
        monkeypatch.setattr("sys.stdin", io.StringIO("0\nundo\nq\n"))
        assert main(["interactive", "--test", "MP"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("interactive exploration of MP (ARM)")
        menus = out.split("enabled transitions:")[1:]
        assert len(menus) == 3  # initial, after the step, after the undo
        assert "[0] T0: store [0] := 1 @t1" in menus[0]
        assert "[3] T1: r1 := load [8] = 0 @t0" in menus[0]
        assert "memory: [1:<[0]:=1>@T0]" in out
        assert "[0] T0: store [8] := 1 @t2" in menus[1]
        assert menus[2].split("step>")[0] == menus[0].split("step>")[0]

    def test_interactive_bad_commands_keep_the_session(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("undo\n99\nwat\n0\n"))
        assert main(["interactive", "--test", "MP"]) == 0
        out = capsys.readouterr().out
        assert "nothing to undo" in out
        assert "transition index 99 out of range (0..3)" in out
        assert "unknown command 'wat'" in out
        assert "memory: [1:<[0]:=1>@T0]" in out  # the session went on

    def test_run_litmus_file(self, tmp_path, capsys):
        litmus = tmp_path / "mp.litmus"
        litmus.write_text(
            "AArch64 MP-file\n"
            "{ 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x; }\n"
            " P0          | P1          ;\n"
            " MOV W0,#1   | LDR W0,[X1] ;\n"
            " STR W0,[X1] | LDR W2,[X3] ;\n"
            " STR W0,[X3] |             ;\n"
            "exists (1:X0=1 /\\ 1:X2=0)\n"
        )
        assert main(["run", "--file", str(litmus)]) == 0
        out = capsys.readouterr().out
        assert "MP-file" in out and "allowed" in out
