"""Pooled keep-alive HTTP client for the exploration service (API v1).

Used by the test suite, the CI smoke jobs, ``scripts/bench_service.py``,
and — through :class:`~repro.distrib.http_backend.HttpWorkBackend` — by
every ``promising-arm work`` fleet member on an HTTP queue.  Pure stdlib
(``http.client``), with three properties the one-shot PR 4 client lacked:

* **connection pooling** — responses are read to completion and their
  connections parked in a bounded LIFO pool, so sequential requests ride
  one TCP connection (the server's keep-alive path) and concurrent
  threads each get their own;
* **bounded retries with jitter** — ``429``/``503`` answers are retried
  up to ``max_retries`` times with exponential backoff, honouring the
  server's ``Retry-After`` header when present (never sleeping less than
  it asks);
* **stale-connection recovery** — a parked connection the server closed
  while idle fails fast on reuse and is transparently replaced, never
  surfacing to the caller.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from typing import Optional, Sequence, Union

#: Version prefix of every endpoint (unversioned paths answer 404).
API_PREFIX = "/v1"

#: Statuses that mean "try again later", not "you are wrong".
RETRYABLE_STATUSES = (429, 503)


class ServiceClientError(Exception):
    """A request the service rejected (carries the HTTP status).

    ``retry_after`` is the server's ``Retry-After`` suggestion in seconds
    (``None`` when the response carried none).
    """

    def __init__(
        self, message: str, status: int = 0, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds)


class ServiceClient:
    """Talk to a running ``promising-arm serve`` instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 120.0,
        *,
        client_id: Optional[str] = None,
        pool_size: int = 8,
        max_retries: int = 4,
        retry_base_delay: float = 0.05,
        retry_max_delay: float = 5.0,
        rng: Optional[random.Random] = None,
        keep_alive: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Sent as ``X-Client-Id`` — the identity the server's per-client
        #: token quotas key on (``None`` = the shared anonymous bucket).
        self.client_id = client_id
        #: ``False`` = pre-v2 behaviour: every request carries
        #: ``Connection: close`` and pays a fresh TCP handshake.  Kept as
        #: an explicit mode so the benchmark can measure both policies
        #: side by side on the same machine.
        self.keep_alive = keep_alive
        self.pool_size = pool_size
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self._rng = rng or random.Random()
        self._pool: list[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        #: ``X-Request-Id`` echoed by the most recent response (the
        #: correlation handle for the service's structured logs).
        self.last_request_id: Optional[str] = None
        #: Observable retry accounting (asserted by the conformance tests).
        self.retries = 0

    # -- connection pool -----------------------------------------------------
    def _acquire(self) -> tuple[http.client.HTTPConnection, bool]:
        """A connection plus whether it is fresh (never used before)."""
        with self._pool_lock:
            if self._pool:
                return self._pool.pop(), False
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout), True

    def _release(self, connection: http.client.HTTPConnection) -> None:
        with self._pool_lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Drop every pooled connection (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------
    def _retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        delay = self.retry_base_delay * (2**attempt)
        if retry_after is not None:
            delay = max(delay, retry_after)
        delay = min(delay, self.retry_max_delay)
        # Full jitter on the backoff share only: never sleep *less* than
        # the server's Retry-After, never stampede in lockstep either.
        return delay + self._rng.uniform(0, self.retry_base_delay)

    def _send_once(
        self, method: str, path: str, body: Optional[str], headers: dict
    ) -> tuple[int, dict, bytes]:
        """One request over a pooled or fresh connection.

        A parked connection the server already closed raises immediately
        on reuse; those are discarded and the send repeats on the next
        connection (fresh ones do not get this grace — their failure is
        the caller's error).
        """
        while True:
            connection, fresh = self._acquire()
            try:
                if fresh:
                    # http.client writes headers and body as two separate
                    # sends; with Nagle on, the body segment can stall
                    # behind the headers' ACK.  The server side already
                    # runs with TCP_NODELAY (asyncio's default).
                    connection.connect()
                    connection.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (ConnectionError, socket.error, http.client.HTTPException) as exc:
                connection.close()
                if not fresh:
                    continue
                raise ServiceClientError(
                    f"request to {self.host}:{self.port} failed: {exc}"
                ) from exc
            response_headers = {k.lower(): v for k, v in response.getheaders()}
            if response.will_close:
                connection.close()
            else:
                self._release(connection)
            return response.status, response_headers, raw

    def _raw_request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        request_id: Optional[str] = None,
        *,
        retry: bool = True,
    ) -> tuple[int, dict, bytes]:
        """One request (plus retries); returns ``(status, headers, body)``."""
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        if not self.keep_alive:
            headers["Connection"] = "close"
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        attempt = 0
        while True:
            status, response_headers, raw = self._send_once(method, path, body, headers)
            self.last_request_id = response_headers.get("x-request-id")
            if retry and status in RETRYABLE_STATUSES and attempt < self.max_retries:
                retry_after = _parse_retry_after(response_headers.get("retry-after"))
                time.sleep(self._retry_delay(attempt, retry_after))
                attempt += 1
                self.retries += 1
                continue
            return status, response_headers, raw

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        request_id: Optional[str] = None,
        *,
        retry: bool = True,
    ) -> dict:
        status, headers, raw = self._raw_request(
            method, path, payload, request_id, retry=retry
        )
        data = json.loads(raw.decode() or "null")
        if status >= 400:
            error = (data or {}).get("error", f"HTTP {status}")
            raise ServiceClientError(
                error,
                status=status,
                retry_after=_parse_retry_after(headers.get("retry-after")),
            )
        return data

    def wait_until_ready(self, deadline: float = 30.0, interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the service answers (or raise)."""
        end = time.monotonic() + deadline
        last_error: Optional[Exception] = None
        while time.monotonic() < end:
            try:
                health = self.healthz()
                if health.get("status") == "ok":
                    return health
            except (ConnectionError, socket.error, ServiceClientError) as exc:
                last_error = exc
            time.sleep(interval)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not ready after {deadline}s: {last_error}"
        )

    # -- endpoints -----------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", f"{API_PREFIX}/healthz", retry=False)

    def stats(self) -> dict:
        return self._request("GET", f"{API_PREFIX}/stats")

    def metrics_text(self) -> str:
        """The raw ``GET /metrics`` payload (Prometheus text format)."""
        status, _headers, raw = self._raw_request("GET", f"{API_PREFIX}/metrics")
        if status >= 400:
            raise ServiceClientError(f"HTTP {status}", status=status)
        return raw.decode()

    def explore(
        self,
        *,
        test: Optional[str] = None,
        source: Optional[str] = None,
        arch: Optional[str] = None,
        models: Union[str, Sequence[str], None] = None,
        options: Optional[dict] = None,
        request_id: Optional[str] = None,
        retry: bool = True,
    ) -> dict:
        """Run one litmus test; mirrors the ``POST /v1/explore`` body.

        ``request_id`` (optional) is sent as ``X-Request-Id``; the
        service echoes it on the response header and in its logs.
        ``retry=False`` surfaces 429/503 immediately instead of backing
        off (what admission-control probes want).
        """
        payload: dict = {}
        if test is not None:
            payload["test"] = test
        if source is not None:
            payload["source"] = source
        if arch is not None:
            payload["arch"] = arch
        if models is not None:
            payload["models"] = list(models) if not isinstance(models, str) else models
        if options is not None:
            payload["options"] = options
        return self._request(
            "POST", f"{API_PREFIX}/explore", payload, request_id=request_id, retry=retry
        )

    def queue_op(self, op: str, payload: dict, *, retry: bool = True) -> dict:
        """One ``POST /v1/queue/<op>`` — the fleet protocol's wire call."""
        return self._request("POST", f"{API_PREFIX}/queue/{op}", payload, retry=retry)

    def shutdown(self) -> dict:
        """Ask the service to drain and stop; tolerates the connection dropping."""
        try:
            return self._request("POST", f"{API_PREFIX}/shutdown", retry=False)
        except ServiceClientError as exc:
            if exc.status:  # a real HTTP rejection, not a dropped connection
                raise
            return {"ok": True, "stopping": True}
        finally:
            self.close()


__all__ = ["API_PREFIX", "RETRYABLE_STATUSES", "ServiceClient", "ServiceClientError"]
