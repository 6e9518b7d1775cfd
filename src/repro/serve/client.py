"""A resilient client for the ``repro-sim serve`` daemon.

Stdlib-only (``urllib``), so any script — or another machine on the
network — can submit sweep batches and read results without installing
anything:

    client = ServeClient("http://127.0.0.1:8787")
    job = client.submit_specs(figure5_suite("tiny"))
    status = client.wait(job["job"])
    entry = client.result(status["cells"][0]["key"])

Resilience:

* Every route retries connection-level failures with capped exponential
  backoff and deterministic jitter; a daemon that stays unreachable
  raises :class:`ServeUnavailable` (a ``ConnectionError``), which the
  ``run_many(backend="serve")`` path catches to fall back to local
  execution.  HTTP-level errors (4xx/5xx) raise :class:`ServeError`
  immediately — retrying a rejected request would just re-reject.
* :meth:`wait` polls with capped exponential backoff instead of a fixed
  interval, so short jobs resolve quickly and long jobs don't hammer
  the daemon.
* :meth:`run_many` executes a whole sweep remotely and rebuilds
  fingerprint-verified :class:`~repro.experiments.parallel.RunOutcome`
  objects, making a remote daemon a drop-in execution backend.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.parallel import (
    RunError,
    RunOutcome,
    RunSpec,
    backoff_delay,
    result_fingerprint,
)
from repro.experiments.store import result_from_json, spec_key, spec_to_json
from repro.obs import metrics as obs_metrics
from repro.obs.log import log_event, new_correlation_id

#: Failures worth retrying: the request may never have reached the
#: daemon, or the response was cut off.  (HTTPError subclasses URLError,
#: so it must be handled *before* this tuple is consulted.)
_CONNECTION_ERRORS = (
    urllib.error.URLError,
    http.client.HTTPException,
    ConnectionError,
    socket.timeout,
    TimeoutError,
    OSError,
)


class ServeError(RuntimeError):
    """A non-2xx response from the daemon (carries the decoded body)."""

    def __init__(self, status: int, body: Any) -> None:
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class ServeUnavailable(ConnectionError):
    """The daemon stayed unreachable through every retry."""


def _error_body(exc: urllib.error.HTTPError) -> Any:
    """The most useful rendering of an HTTP error's payload.

    Prefer the decoded JSON body; fall back to the *raw* body text (a
    traceback or proxy page says far more than a status line), and only
    then to the bare reason phrase.
    """
    try:
        raw = exc.read().decode(errors="replace")
    except Exception:
        raw = ""
    if raw:
        try:
            return json.loads(raw)
        except ValueError:
            return raw.strip()
    return exc.reason


#: Requests re-sent after a connection-level failure (global registry).
_RETRIES = obs_metrics.counter(
    "repro_client_retries_total",
    "Requests re-sent after a connection-level failure.")


class ServeClient:
    """Talk to one ExperimentServer over HTTP, retrying transient faults."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        retries: int = 4,
        cid: str = "",
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        #: Correlation id stamped on submitted jobs (minted per submit
        #: when empty), so client/server/worker logs line up.
        self.cid = cid

    # -- raw transport -------------------------------------------------

    def _open(self, request: "urllib.request.Request", attempt: int, label: str):
        """One urlopen try; counts + backs off before signalling a retry."""
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError:
            raise
        except _CONNECTION_ERRORS as exc:
            if attempt <= self.retries:
                _RETRIES.inc()
                time.sleep(backoff_delay(attempt, key=f"{self.base_url}:{label}"))
            raise exc

    def _request_raw(
        self, method: str, path: str, data: Optional[bytes] = None
    ) -> bytes:
        """Send one request with retries; returns the raw response body."""
        last: Optional[BaseException] = None
        for attempt in range(1, self.retries + 2):
            request = urllib.request.Request(
                self.base_url + path,
                data=data,
                method=method,
                headers={"Content-Type": "application/json"} if data is not None else {},
            )
            try:
                with self._open(request, attempt, f"{method} {path}") as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                raise ServeError(exc.code, _error_body(exc)) from None
            except _CONNECTION_ERRORS as exc:
                last = exc
        raise ServeUnavailable(
            f"{method} {self.base_url}{path} failed after "
            f"{self.retries + 1} attempt(s): {last}"
        ) from last

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = json.dumps(body).encode() if body is not None else None
        return json.loads(self._request_raw(method, path, data).decode())

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (``GET /metrics``)."""
        return self._request_raw("GET", "/metrics").decode()

    def submit(self, spec_docs: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Submit wire-form spec dicts; returns the initial job status."""
        cid = self.cid or new_correlation_id("job")
        status = self._request(
            "POST", "/jobs", {"specs": spec_docs, "cid": cid}
        )
        log_event("client", "job_submitted", cid=cid, job=status.get("job"),
                  specs=len(spec_docs), url=self.base_url)
        return status

    def submit_specs(self, specs: Sequence[RunSpec]) -> Dict[str, Any]:
        """Submit RunSpec objects (serialized for the wire here)."""
        return self.submit([spec_to_json(spec) for spec in specs])

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job: its not-yet-running unshared cells are abandoned."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def result(self, key: str) -> Dict[str, Any]:
        """The stored entry (spec, fingerprint, result payload) for a key."""
        return self._request("GET", f"/results/{key}")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.05,
        poll_cap: float = 1.0,
    ) -> Dict[str, Any]:
        """Poll until the job completes; returns its final status.

        The poll interval starts at ``poll`` and doubles up to
        ``poll_cap``: fast jobs resolve within milliseconds, long jobs
        cost the daemon at most one status request per second.
        """
        deadline = time.monotonic() + timeout
        interval = poll
        while True:
            status = self.job(job_id)
            if status["complete"]:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} incomplete after {timeout}s: "
                    f"{status['finished']}/{status['total']} cells"
                )
            time.sleep(min(interval, max(0.0, deadline - time.monotonic())))
            interval = min(interval * 2, poll_cap)

    # -- sweep backend -------------------------------------------------

    def run_many(
        self, specs: Sequence[RunSpec], timeout: float = 600.0
    ) -> List[RunOutcome]:
        """Execute a sweep on the daemon; outcomes line up with ``specs``.

        Each finished cell's stored entry is fetched once (duplicates
        share it), its result rebuilt, and its fingerprint re-verified
        locally — a served outcome is byte-identical to local execution
        or it comes back as a ``FingerprintMismatch`` error.  Failed and
        cancelled cells become structured :class:`RunError` outcomes
        carrying the server's error and attempt count.
        """
        specs = list(specs)
        job = self.submit_specs(specs)
        status = self.wait(job["job"], timeout=timeout)
        entries: Dict[str, Optional[Dict[str, Any]]] = {}
        outcomes: List[RunOutcome] = []
        for spec, cell in zip(specs, status["cells"]):
            key = cell["key"]
            if cell["status"] in ("done", "cached"):
                if key not in entries:
                    try:
                        entries[key] = self.result(key)
                    except ServeError:
                        entries[key] = None
                entry = entries[key]
                verified = False
                if entry is not None:
                    try:
                        result = result_from_json(entry["result"])
                        verified = (
                            result_fingerprint(result) == entry["fingerprint"]
                        )
                    except Exception:
                        verified = False
                if verified:
                    outcomes.append(RunOutcome(
                        spec=spec,
                        result=result,
                        wall_time=entry.get("wall_time_s", 0.0),
                        cached=True,
                    ))
                    continue
                outcomes.append(RunOutcome(spec=spec, error=RunError(
                    exc_type="FingerprintMismatch",
                    message=(
                        f"served entry for {spec_key(spec)[:12]} failed local "
                        f"fingerprint verification"
                    ),
                    traceback="",
                    workload=spec.workload,
                    policy=spec.policy.name,
                    seed=spec.seed,
                )))
                continue
            exc_type = (
                "ServeCellCancelled" if cell["status"] == "cancelled"
                else "ServeCellFailed"
            )
            outcomes.append(RunOutcome(spec=spec, error=RunError(
                exc_type=exc_type,
                message=cell.get("error") or f"cell status {cell['status']!r}",
                traceback="",
                workload=spec.workload,
                policy=spec.policy.name,
                seed=spec.seed,
                attempts=cell.get("attempts", 1) or 1,
            )))
        return outcomes
