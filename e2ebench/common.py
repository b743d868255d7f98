"""What every workload shares: the byte-compiled build, child processes,
host reference loop and memory readings."""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Sequence

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Byte-compiled copy of ``src/`` that every run imports the program from.
BUILD = ROOT / ".e2ebench_build"
BUILD_SRC = BUILD / "src"

#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7

#: The console script ``promising-arm`` as an installed package runs it.
CONSOLE_SCRIPT = "import sys; from repro.tools.cli import main; sys.exit(main())"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no sources, a child that hangs)."""


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def build() -> None:
    """Copy ``src/`` beside the checkout and byte-compile it, once per source.

    Users import an installed package whose bytecode is on disk; reading
    sources cold (as ``PYTHONDONTWRITEBYTECODE`` forces on an
    uncompiled tree) would more than double every import figure.
    ``compileall`` runs in a child so the benchmark process's own peak
    memory never includes it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    key = _source_digest()
    stamp = BUILD / "stamp"
    if stamp.is_file() and stamp.read_text() == key and BUILD_SRC.is_dir():
        return
    shutil.rmtree(BUILD, ignore_errors=True)
    shutil.copytree(SRC, BUILD_SRC, ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(BUILD_SRC)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    stamp.write_text(key)


def use_build() -> None:
    """Import the program from the byte-compiled build in this process."""
    sys.path.insert(0, str(BUILD_SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(BUILD_SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: Sequence[str], timeout: float = 120.0) -> tuple[int, str, float, float]:
    """Run ``python <args>`` to its end.

    Returns ``(exit code, stdout, wall seconds, peak RSS in MB)``; the
    peak is the child's own, read from ``wait4``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        raise BenchError(f"child {list(args[:2])} killed after {timeout:.0f}s")
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def timed_child(code: str) -> float:
    """Seconds a fresh interpreter spends running ``code``.

    The child times ``code`` itself, so interpreter start and exit stay
    out of the figure.
    """
    timed = f"import time\n_t0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - _t0)"
    status, out, _, _ = run_child(["-c", timed])
    if status != 0:
        raise BenchError(f"set-up child exited {status}")
    return float(out.split()[-1])


def setup_median(sample) -> float:
    """Median of :data:`SETUP_SAMPLES` calls of ``sample()`` (seconds each)."""
    return stats.median(sample() for _ in range(SETUP_SAMPLES))


def host_ref_ms() -> float:
    """Best of five timings of a fixed pure-Python loop: host speed, not ours."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def line_counts() -> dict[str, int]:
    """Python line counts of ``src/`` and ``scripts/`` (context, never gated)."""
    counts = {}
    for name in ("src", "scripts"):
        counts[name] = sum(
            len(path.read_bytes().splitlines()) for path in (ROOT / name).rglob("*.py")
        )
    return counts
