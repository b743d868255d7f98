"""Tests for the comparison utilities and the command-line interface."""

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
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

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
