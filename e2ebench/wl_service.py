"""``service``: one ``promising-arm serve`` at shipped defaults, one client.

A closed loop over one keep-alive connection.  A key is (catalogue test,
arch, model set); requests draw keys Zipf-skewed from those already
introduced, and every ``interval``-th request introduces the next key of
a seeded order.  So cold computes are a fixed share of requests however
fast the server answers, and every run computes each key exactly once.
LRU hits set the median (HTTP, normalisation, admission); cold computes
set the tail (dispatch queue, worker pool) and fill the cache.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import subprocess
import sys
import time

import common
import stats
from spans import Tracer
from stats import Tally

#: Disjoint model sets, so a new key computes every one of its rows.
MODEL_SETS = (("promising", "axiomatic"), ("promising-naive",), ("flat",))
ARCHS = ("arm", "riscv")
ZIPF_S = 1.1
#: Requests per second of ``--seconds``, which set the new-key interval.
#: The reference host answers about 150 a second.
REQUESTS_PER_SECOND = 165.0
HOST = "127.0.0.1"
REFUSED = (429, 503)


def _keys() -> list[tuple[str, str, tuple[str, ...]]]:
    from repro.litmus import all_tests

    names = sorted(t.name for t in all_tests())
    return list(itertools.product(names, ARCHS, MODEL_SETS))


def _plan(seed: int, seconds: float) -> list[tuple[tuple, bool]]:
    """``(key, is new)`` per request."""
    rng = random.Random(seed)
    keys = _keys()
    rng.shuffle(keys)
    interval = max(2, round(seconds * REQUESTS_PER_SECOND / len(keys)))
    cum = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))))
    plan = []
    for index in range(interval * len(keys)):
        introduced = index // interval + 1
        if index % interval == 0:
            plan.append((keys[introduced - 1], True))
        else:
            key = rng.choices(keys[:introduced], cum_weights=cum[:introduced])[0]
            plan.append((key, False))
    return plan


def _reference() -> dict[str, str]:
    """Outcome digest per (test, arch, model) from in-process ``execute_job``.

    Kept beside the build, which is keyed by the sources, so it is
    computed once per program version.
    """
    path = common.BUILD / "service-reference.json"
    if path.is_file():
        return json.loads(path.read_text())
    from repro.harness import Job, execute_job, outcome_set_digest
    from repro.lang.kinds import parse_arch
    from repro.litmus import get_test

    digests = {}
    for name, arch, models in _keys():
        for model in models:
            result = execute_job(Job(test=get_test(name), model=model, arch=parse_arch(arch)))
            digests[f"{name}/{arch}/{model}"] = outcome_set_digest(result.outcomes)
    path.write_text(json.dumps(digests))
    return digests


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """A ``promising-arm serve`` child, stopped and reaped on exit."""

    def __init__(self) -> None:
        from repro.service.client import ServiceClient

        self.started = time.perf_counter()
        port = _free_port()
        with open(common.BUILD / "serve.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", common.CONSOLE_SCRIPT, "serve", "--port", str(port)],
                env=common.child_env(),
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.client = ServiceClient(HOST, port, timeout=60.0)

    def wait_ready(self) -> float:
        """Seconds from spawning until ``/v1/healthz`` answers."""
        from repro.service.client import ServiceClientError

        deadline = self.started + 60.0
        while True:
            try:
                self.client.healthz()
                return time.perf_counter() - self.started
            except (OSError, ServiceClientError):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise common.BenchError("serve never answered /v1/healthz") from None
                time.sleep(0.002)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()


def _spawn_until_healthy() -> float:
    with Server() as server:
        return server.wait_ready()


class _Loop:
    """Sends the plan and gates every response against the reference."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.reference = _reference()
        self.hit_ms: list[float] = []
        self.cold_ms: list[float] = []
        self.front_ms: list[float] = []
        self.queue_ms: list[float] = []
        self.compute_ms: list[float] = []
        self.samples: list[float] = []
        self.rejected = 0

    def send(self, client, key) -> float:
        """One request; returns its client-side seconds."""
        from repro.service.client import ServiceClientError

        name, arch, models = key
        start = time.perf_counter()
        try:
            response = client.explore(test=name, arch=arch, models=list(models), retry=False)
        except ServiceClientError as exc:
            elapsed = time.perf_counter() - start
            if exc.status in REFUSED:
                self.rejected += 1
            self.samples.append(elapsed)
            self.tally.fail(f"{key}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self._gate(key, response, elapsed * 1000.0)
        return elapsed

    def _gate(self, key, response: dict, ms: float) -> None:
        name, arch, _ = key
        for row in response["results"]:
            if row["status"] != "ok" or row["truncated"]:
                self.tally.fail(f"{key} {row['model']}: {row['status']}, {row['warning']}")
                return
            if row["outcome_digest"] != self.reference[f"{name}/{arch}/{row['model']}"]:
                self.tally.fail(f"{key} {row['model']}: digest differs", wrong=True)
                return
        self.tally.ok()
        cost = response["cost"]
        self.front_ms.append(ms - cost["queue_ms"] - cost["compute_ms"])
        if set(cost["served_from"]) == {"lru"}:
            self.hit_ms.append(ms)
        else:
            self.cold_ms.append(ms)
            self.queue_ms.append(cost["queue_ms"])
            self.compute_ms.append(cost["compute_ms"])


def measure(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup = common.setup_median(_spawn_until_healthy)
    loop = _Loop(tally)
    plan = _plan(seed, seconds)
    with Server() as server:
        server.wait_ready()
        start = time.perf_counter()
        for key, _ in plan:
            loop.send(server.client, key)
        wall = time.perf_counter() - start
        peak = common.proc_peak_rss_mb(server.proc.pid)
    return {
        "setup_s": setup,
        **stats.latency_metrics(loop.samples, wall),
        "peak_rss_mb": peak,
    }


def trace(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    """Server layers read from the response cost blocks; spans wrap requests.

    Alternate hit requests are sent inside a span, so the ratio of their
    median latencies is the tracing overhead.
    """
    loop = _Loop(tally)
    tracer = Tracer()
    plain_s, traced_s = [], []
    with Server() as server:
        server.wait_ready()
        for key, new in _plan(seed, seconds):
            if new:
                loop.send(server.client, key)
            elif len(plain_s) > len(traced_s):
                with tracer.span("service.request"):
                    traced_s.append(loop.send(server.client, key))
            else:
                plain_s.append(loop.send(server.client, key))
    ok = len(loop.hit_ms) + len(loop.cold_ms)

    def p50(values: list[float]) -> float:
        return stats.median(values) if values else 0.0

    return {
        "service.hit_ms.p50": p50(loop.hit_ms),
        "service.front_ms.p50": p50(loop.front_ms),
        "service.cold_ms.p50": p50(loop.cold_ms),
        "service.queue_ms.p50": p50(loop.queue_ms),
        "service.compute_ms.p50": p50(loop.compute_ms),
        "service.lru_hit_ratio": stats.ratio(len(loop.hit_ms), ok),
        "service.computed_ratio": stats.ratio(len(loop.cold_ms), ok),
        "service.rejected": float(loop.rejected),
        "obs.trace_overhead": p50(traced_s) / p50(plain_s),
    }
