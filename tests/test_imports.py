"""Import-footprint laws: a cold ``promising-arm run`` loads only its own path.

The paper's tool runs one litmus test per process, so imports are most of
what a user waits for.  Each law runs in a fresh interpreter (this test
process has long since imported everything) and checks ``sys.modules``
only: no timing, so the laws hold on any machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a promising ``run`` never executes, so must never import.
NOT_ON_THE_RUN_PATH = (
    "repro.flat",
    "repro.axiomatic",
    "repro.harness.scheduler",
    "repro.harness.sweep",
    "repro.harness.fuzz",
    "repro.litmus.cycles",
    "repro.litmus.format",
    "repro.isa.armv8",
    "repro.service",
    "repro.distrib",
    "multiprocessing",
    "uuid",
)

LAZY_PACKAGES = ("repro.harness", "repro.litmus", "repro.isa", "repro.tools")


def loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_cli(*argv: str) -> str:
    return (
        "import contextlib, io\n"
        "from repro.tools.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def test_cold_run_loads_only_the_promising_path():
    loaded = loaded_after(run_cli("run", "--test", "MP"))
    assert "repro.promising.exhaustive" in loaded  # it really explored
    assert sorted(loaded & set(NOT_ON_THE_RUN_PATH)) == []


def test_run_axiomatic_loads_the_axiomatic_model():
    # Positive control: the law above is not vacuous.
    loaded = loaded_after(run_cli("run", "--test", "MP", "--axiomatic"))
    assert "repro.axiomatic" in loaded
    assert "repro.flat" not in loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    code = (
        f"import {package} as pkg\n"
        "assert len(set(pkg.__all__)) == len(pkg.__all__)\n"
        "for name in pkg.__all__:\n"
        "    exec(f'from {pkg.__name__} import {name}')\n"
        "    assert name in dir(pkg)\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown names must raise AttributeError')\n"
    )
    loaded_after(code)


def test_service_imports_the_explorers_before_its_pool_forks():
    # Forked workers inherit the parent's modules: whatever the service has
    # not imported by then, every worker pays inside its first cold job.
    code = (
        "import asyncio, sys\n"
        "from repro.service import ExplorationService, ServiceConfig\n"
        "assert 'repro.backend' not in sys.modules\n"
        "async def lifecycle():\n"
        "    service = ExplorationService(ServiceConfig(workers=1))\n"
        "    await service.start()\n"
        "    await service.stop()\n"
        "asyncio.run(lifecycle())\n"
    )
    loaded = loaded_after(code)
    assert {"repro.backend.packed", "repro.isa.compile", "repro.flat.explorer"} <= loaded
