"""Small stdlib HTTP client for the service API.

:class:`ServiceClient` is what the ``submit`` CLI subcommand uses, and
the reference consumer for anyone scripting against the service: submit
a grid, poll its job hash, block until done (a long-poll that returns
as soon as the job finishes), fetch the records.  Errors
come back as :class:`ServiceError` carrying the HTTP status and the
server's JSON payload — never a raw ``urllib`` traceback.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: Jobs in one of these states have nothing left to wait for.
FINISHED_STATES = ("done", "failed")


class ServiceError(RuntimeError):
    """A non-2xx service response (or no response at all)."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        self.status = status
        self.payload = payload
        message = payload.get("error") or str(payload)
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """Talk to a running ``repro serve`` daemon.

    .. code-block:: python

        client = ServiceClient("http://127.0.0.1:8732")
        job = client.submit({"algorithms": ["randomized"],
                             "families": ["ring"], "sizes": [16],
                             "seeds": 3})
        final = client.wait(job["job"])
        records = client.fetch(job["job"])["records"]
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        trace_id: Optional[str] = None,
        retries: int = 5,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        #: Sent as ``X-Trace-Id`` on every request when set, so a whole
        #: client session correlates in the daemon's access log.
        self.trace_id = trace_id
        #: Transient-connection retry policy used by :meth:`wait` — a
        #: daemon hiccup (restart, listen-queue overflow) mid-poll
        #: shouldn't abandon a job that is still running fine.
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: Per-thread long-poll hold that :meth:`wait` sets around each
        #: :meth:`poll` call (``None`` outside ``wait``).
        self._holding = threading.local()

    # -- transport -----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        data = None
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.trace_id:
            headers["X-Trace-Id"] = self.trace_id
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers=headers,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.status, self._decode(response.read())
        except urllib.error.HTTPError as error:
            return error.code, self._decode(error.read())
        except urllib.error.URLError as error:
            raise ServiceError(
                0, {"error": f"service unreachable: {error.reason}"}
            ) from error

    def _request_text(self, path: str) -> str:
        """GET a non-JSON endpoint (``/metrics``) as raw text."""
        request = urllib.request.Request(
            f"{self.base_url}{path}", method="GET"
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.read().decode("utf-8", "replace")
        except urllib.error.HTTPError as error:
            raise ServiceError(error.code, self._decode(error.read()))
        except urllib.error.URLError as error:
            raise ServiceError(
                0, {"error": f"service unreachable: {error.reason}"}
            ) from error

    @staticmethod
    def _decode(body: bytes) -> Dict[str, Any]:
        try:
            decoded = json.loads(body or b"{}")
        except ValueError:
            return {"error": body.decode("utf-8", "replace")}
        if isinstance(decoded, dict):
            return decoded
        return {"value": decoded}

    def _checked(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        status, body = self._request(method, path, payload)
        if status >= 400:
            raise ServiceError(status, body)
        return body

    # -- API -----------------------------------------------------------

    def submit(self, grid: Mapping[str, Any]) -> Dict[str, Any]:
        """POST a grid; returns the job snapshot (with ``coalesced``)."""
        return self._checked("POST", "/jobs", grid)

    def poll(self, job: str) -> Dict[str, Any]:
        """GET one job's status/progress snapshot.

        Called from inside :meth:`wait`, the request is a long-poll
        (``?wait=S``) that the daemon holds until the job finishes or
        ``S`` seconds pass.
        """
        hold_s = getattr(self._holding, "seconds", None)
        if hold_s is None:
            return self._checked("GET", f"/jobs/{job}")
        return self._checked("GET", f"/jobs/{job}?wait={hold_s:.3f}")

    def fetch(self, job: str) -> Dict[str, Any]:
        """GET a finished job's summary and records (409 while running)."""
        return self._checked("GET", f"/jobs/{job}/result")

    def events(self, job: str) -> Dict[str, Any]:
        """GET the job's flight-recorder lifecycle events."""
        return self._checked("GET", f"/jobs/{job}/events")

    def healthz(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._checked("GET", "/stats")

    def metrics_text(self) -> str:
        """GET ``/metrics`` — the raw Prometheus text page."""
        return self._request_text("/metrics")

    def wait(
        self,
        job: str,
        timeout_s: Optional[float] = None,
        interval_s: float = 0.2,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Block until the job finishes; returns the final snapshot.

        Each request is a long-poll, ``GET /jobs/<hash>?wait=<interval_s>``:
        the daemon answers as soon as the job finishes, so ``wait``
        returns without sleeping out a poll interval.  ``on_progress``
        receives every snapshot, at least one per ``interval_s`` (the
        CLI uses it to stream progress lines).  A reply that comes back
        early with the job unfinished (an older daemon that ignores
        ``wait``) is followed by sleeping out the rest of the interval,
        never by a tight loop.  No hold outlives the deadline; raises
        ``TimeoutError`` once it passes.

        Transient connection failures (``ServiceError`` with status 0 —
        the daemon restarting, a dropped socket) are retried with capped
        exponential backoff (``backoff_s`` doubling up to
        ``backoff_cap_s``) for up to ``retries`` consecutive failures;
        HTTP error responses (status >= 400) still raise immediately.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        failures = 0
        while True:
            started = time.monotonic()
            # Half the socket timeout, so a held reply always arrives.
            hold_s = min(interval_s, self.timeout_s / 2)
            if deadline is not None:
                hold_s = min(hold_s, deadline - started)
            self._holding.seconds = max(0.0, hold_s)
            try:
                snapshot = self.poll(job)
            except ServiceError as error:
                if error.status != 0 or failures >= self.retries:
                    raise
                failures += 1
                delay = min(
                    self.backoff_cap_s,
                    self.backoff_s * (2 ** (failures - 1)),
                )
                if deadline is not None and (
                    time.monotonic() + delay >= deadline
                ):
                    raise TimeoutError(
                        f"job {job} unreachable after {timeout_s}s: {error}"
                    ) from error
                time.sleep(delay)
                continue
            finally:
                self._holding.seconds = None
            failures = 0
            if on_progress is not None:
                on_progress(snapshot)
            if snapshot.get("status") in FINISHED_STATES:
                return snapshot
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise TimeoutError(
                    f"job {job} still {snapshot.get('status')} "
                    f"after {timeout_s}s"
                )
            rest = interval_s - (now - started)
            if deadline is not None:
                rest = min(rest, deadline - now)
            if rest > 0:
                time.sleep(rest)

    def wait_until_up(
        self, timeout_s: float = 10.0, interval_s: float = 0.1
    ) -> Dict[str, Any]:
        """Block until ``/healthz`` answers ok (daemon start-up handshake)."""
        deadline = time.monotonic() + timeout_s
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except ServiceError as error:
                last_error = error
                time.sleep(interval_s)
        raise ServiceError(
            0,
            {
                "error": (
                    f"service at {self.base_url} not up after {timeout_s}s: "
                    f"{last_error}"
                )
            },
        )
