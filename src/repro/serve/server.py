"""The ``repro-sim serve`` daemon: HTTP job queue over the result store.

Dependency-free by design (the simulator has no third-party runtime
deps, and its job server should not be the thing that changes that):
asyncio streams plus a minimal HTTP/1.1 request parser — enough for the
JSON API below, not a general web server.

API
---

``GET    /healthz``            liveness + worker/cache configuration
``POST   /jobs``               submit a batch: ``{"specs": [<spec>, ...]}``
                               (spec wire form: ``store.spec_to_json``;
                               ``"policy"``/``"consistency"`` accept
                               shorthand names).  Response: job id plus one
                               cell record per spec — already-cached cells
                               resolve instantly, duplicates (within the
                               batch or against other clients' in-flight
                               cells) attach to the existing cell.
``GET    /jobs/<id>``          job status: per-cell state, counts and the
                               job's correlation id; clients poll it
``DELETE /jobs/<id>``          cancel: queued/backoff cells not shared
                               with another live job are abandoned;
                               running cells finish (their work is kept)
``GET    /results/<key>``      the stored entry (spec, fingerprint, result)
``GET    /stats``              cache stats + scheduler/resilience counters
``GET    /metrics``            Prometheus text exposition (version 0.0.4)

Every request is counted per route in ``repro_http_requests_total`` and
timed into ``repro_http_request_seconds``; job/cell lifecycle, requeues,
timeouts, crashes and fault kills feed the ``repro_serve_*`` series (see
:mod:`repro.obs.metrics`).  ``/stats`` reads its counters from the same
registry, so the two views cannot disagree.  Each server owns a fresh
:class:`~repro.obs.metrics.MetricsRegistry` unless one is passed in
(``repro-sim serve`` passes the process-global one, so its ``/metrics``
also carries the result-store series).  ``POST /jobs`` accepts an
optional ``"cid"`` correlation id which is stored per job/cell and bound
around worker execution, so structured logs thread client -> server ->
worker.

Scheduling & resilience
-----------------------

Cold cells run through a :class:`~repro.experiments.parallel.CellExecutor`
— the executor ``run_many`` uses — with ``workers`` processes: a cell is
only marked ``running`` when it actually occupies a worker, and a dead
worker or a blown ``cell_timeout`` rebuilds the pool once per failure
wave and requeues the cell after deterministic backoff, up to
``max_attempts`` before it fails terminally with the attempt count in its
:class:`~repro.experiments.parallel.RunError`.  The server adds only cell
status, dedupe, cancellation and fault-kill bookkeeping.  Every unique
cell executes at most once no matter how many jobs reference it — the
dedupe map is keyed by the same content address the store uses.  A
:class:`~repro.serve.faults.ServeFaultPlan` makes the recovery paths
chaos-testable with seeded worker kills.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.experiments.parallel import CellExecutor, RunOutcome, RunSpec
from repro.experiments.store import ResultStore, spec_from_json, spec_key
from repro.obs import metrics as obs_metrics
from repro.obs.log import log_event
from repro.serve.faults import ServeFaultPlan

SERVE_SCHEMA = "repro-serve/1"

#: Request body ceiling (a sweep of ~10k cells fits comfortably).
MAX_BODY_BYTES = 32 * 1024 * 1024


class BadRequest(ValueError):
    """Client error: reported as a 400 with the message as the reason."""


@dataclass
class Cell:
    """One unique sweep cell and its lifecycle on this server."""

    key: str
    spec: RunSpec
    status: str  # queued | running | backoff | done | cached | failed | cancelled
    done: asyncio.Event
    outcome: Optional[RunOutcome] = None
    #: How many submitted specs (across all jobs) resolved to this cell.
    refs: int = 0
    #: Execution attempts consumed (crash/timeout requeues increment it).
    attempts: int = 0
    #: The cancellation reason.
    last_error: str = ""
    #: Correlation id of the job that first created this cell.
    cid: str = ""

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "key": self.key,
            "label": self.spec.label,
            "status": self.status,
            "refs": self.refs,
            "attempts": self.attempts,
        }
        if self.outcome is not None and self.outcome.error is not None:
            doc["error"] = str(self.outcome.error)
        elif self.status == "cancelled" and self.last_error:
            doc["error"] = self.last_error
        return doc


@dataclass
class Job:
    """One submitted batch: an ordered list of cell keys."""

    id: str
    keys: List[str] = field(default_factory=list)
    cancelled: bool = False
    finished: bool = False
    #: Correlation id supplied by the submitting client ("" if none).
    cid: str = ""


class ExperimentServer:
    """The asyncio job-queue daemon."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        cell_timeout: Optional[float] = None,
        max_attempts: int = 3,
        faults: Optional[ServeFaultPlan] = None,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.workers = max(1, workers)
        self.host = host
        self.port = port
        self.faults = faults
        self.cells: Dict[str, Cell] = {}
        self.jobs: Dict[str, Job] = {}
        self._job_counter = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set["asyncio.Task[Any]"] = set()
        self.registry = registry if registry is not None else obs_metrics.MetricsRegistry()
        self._init_metrics()
        self.executor = CellExecutor(
            self.workers,
            timeout=cell_timeout,
            max_attempts=max_attempts,
            metrics={
                "requeues": self._m_requeues,
                "timeouts": self._m_timeouts,
                "crashes": self._m_worker_crashes,
                "rebuilds": self._m_executor_rebuilds,
            },
            component="serve",
        )

    @property
    def requeues(self) -> int:
        """Cells requeued after a crash or timeout (from the registry)."""
        return int(self._m_requeues.value)

    def _init_metrics(self) -> None:
        """Declare the daemon's instrument set on ``self.registry``.

        Get-or-create semantics make this idempotent; gauges use scrape-time
        callbacks bound to this instance.
        """
        reg = self.registry
        self._m_http_requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by method and route pattern.",
            labelnames=("method", "route"),
        )
        self._m_http_errors = reg.counter(
            "repro_http_errors_total",
            "HTTP requests that ended in a 4xx/5xx, by route pattern.",
            labelnames=("route",),
        )
        self._m_http_seconds = reg.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds spent handling one HTTP request.",
            labelnames=("route",),
            buckets=(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
        )
        self._m_jobs_submitted = reg.counter(
            "repro_serve_jobs_submitted_total", "Jobs accepted via POST /jobs.")
        self._m_jobs_finished = reg.counter(
            "repro_serve_jobs_finished_total", "Jobs whose cells all reached a terminal state.")
        self._m_jobs_cancelled = reg.counter(
            "repro_serve_jobs_cancelled_total", "Jobs cancelled by DELETE.")
        self._m_specs_submitted = reg.counter(
            "repro_serve_specs_submitted_total", "Specs received across all jobs.")
        self._m_specs_deduped = reg.counter(
            "repro_serve_specs_deduped_total",
            "Specs that attached to an existing in-flight or cached cell.")
        self._m_cells_terminal = reg.counter(
            "repro_serve_cells_total",
            "Cells that reached a terminal state, by status.",
            labelnames=("status",),
        )
        self._m_cell_attempts = reg.counter(
            "repro_serve_cell_attempts_total", "Execution attempts started on workers.")
        self._m_cell_seconds = reg.histogram(
            "repro_serve_cell_seconds",
            "Wall-clock seconds of one freshly simulated cell.",
        )
        self._m_requeues = reg.counter(
            "repro_serve_requeues_total", "Cells requeued after a crash or timeout.")
        self._m_timeouts = reg.counter(
            "repro_serve_timeouts_total", "Attempts that blew the per-cell deadline.")
        self._m_worker_crashes = reg.counter(
            "repro_serve_worker_crashes_total",
            "Attempts lost to a dead worker (BrokenProcessPool and kin).")
        self._m_executor_rebuilds = reg.counter(
            "repro_serve_executor_rebuilds_total",
            "Process-pool rebuilds after a failure wave.")
        self._m_fault_kills = reg.counter(
            "repro_serve_fault_kills_total",
            "Worker kills injected by the ServeFaultPlan.")

        def count_cells(*statuses: str) -> int:
            return sum(1 for c in self.cells.values() if c.status in statuses)

        reg.gauge("repro_serve_workers", "Configured worker-pool width.").set_function(
            lambda: self.workers)
        reg.gauge(
            "repro_serve_cells_running", "Cells currently occupying a worker.",
        ).set_function(lambda: count_cells("running"))
        reg.gauge(
            "repro_serve_cells_queued",
            "Cells waiting for a worker (queued or in backoff).",
        ).set_function(lambda: count_cells("queued", "backoff"))
        reg.gauge(
            "repro_serve_jobs_open", "Jobs with a cell not yet terminal.",
        ).set_function(lambda: sum(1 for j in self.jobs.values() if not j.finished))
        reg.gauge(
            "repro_serve_executor_generation",
            "Process-pool generation (increments on every rebuild).",
        ).set_function(lambda: self.executor.generation)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (the worker pool starts on first use).

        ``port=0`` picks an ephemeral port; ``self.port`` is updated to
        the bound one either way.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        self.executor.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- scheduling ----------------------------------------------------

    def submit(self, spec_docs: List[Dict[str, Any]], cid: str = "") -> Job:
        """Register a batch; returns the job with one cell per spec."""
        if not isinstance(spec_docs, list) or not spec_docs:
            raise BadRequest('body must be {"specs": [<spec>, ...]}')
        self._job_counter += 1
        job = Job(id=f"job-{self._job_counter}", cid=str(cid or ""))
        self._m_jobs_submitted.inc()
        for doc in spec_docs:
            try:
                spec = spec_from_json(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise BadRequest(f"bad spec {doc!r}: {exc}") from None
            self._m_specs_submitted.inc()
            key = spec_key(spec)
            cell = self.cells.get(key)
            if cell is None:
                cell = Cell(key=key, spec=spec, status="queued",
                            done=asyncio.Event(), cid=job.cid)
                self.cells[key] = cell
                cached = self.store.fetch(spec)
                if cached is not None:
                    cell.status = "cached"
                    cell.outcome = cached
                    cell.done.set()
                    self._m_cells_terminal.labels(status="cached").inc()
                else:
                    self._spawn(self._run_cell(cell))
            elif cell.status == "cancelled":
                # Revive: a new job wants a cell an earlier job abandoned.
                cell.status = "queued"
                cell.done = asyncio.Event()
                cell.outcome = None
                cell.attempts = 0
                cell.last_error = ""
                cell.cid = job.cid
                self._spawn(self._run_cell(cell))
            else:
                # The dedupe path: an identical cell is already cached,
                # queued, or running on behalf of another submission.
                self._m_specs_deduped.inc()
            cell.refs += 1
            job.keys.append(key)
        self.jobs[job.id] = job
        log_event("serve", "job_submitted", job=job.id, cid=job.cid or None,
                  specs=len(job.keys))
        self._spawn(self._record_job(job))
        return job

    async def _run_cell(self, cell: Cell) -> None:
        """Drive one cell to a terminal state through the executor.

        ``done`` identifies this run of the cell: a cancelled-then-revived
        cell gets a fresh event, so a stale run abandons itself.
        """
        done = cell.done

        def on_state(state: str, attempt: int) -> bool:
            if cell.status == "cancelled" or cell.done is not done:
                return False
            cell.status, cell.attempts = state, attempt
            if state == "running":
                self._m_cell_attempts.inc()
                if self.faults is not None and self.faults.should_kill(
                    cell.key, attempt
                ):
                    self._m_fault_kills.inc()
                    self._spawn(self._fault_kill(cell, attempt))
            return True

        outcome = await self.executor.run(cell.spec, cell.cid, on_state)
        if outcome is None:
            return
        if outcome.wall_time:
            self._m_cell_seconds.observe(outcome.wall_time)
        cell.outcome = outcome
        if outcome.ok:
            self.store.put(outcome)
            cell.status = "done"
        else:
            cell.status = "failed"
        self._m_cells_terminal.labels(status=cell.status).inc()
        log_event("serve", "cell_done" if outcome.ok else "cell_failed",
                  level="info" if outcome.ok else "error",
                  cell=cell.key, cid=cell.cid or None, attempts=cell.attempts,
                  status=cell.status,
                  error=str(outcome.error) if outcome.error else None)
        cell.done.set()

    async def _fault_kill(self, cell: Cell, attempt: int) -> None:
        """ServeFaultPlan hook: kill one live worker during ``attempt``."""
        assert self.faults is not None
        await asyncio.sleep(self.faults.kill_delay)
        # The pool spawns processes lazily on first submit; poll briefly
        # so the kill lands even when it races the spawn.
        for _ in range(50):
            if cell.status != "running" or cell.attempts != attempt:
                return
            workers = self.executor.live_workers()
            if workers:
                workers[0].kill()
                return
            await asyncio.sleep(0.01)

    # -- job tracking --------------------------------------------------

    async def _record_job(self, job: Job) -> None:
        """Mark the job finished once every one of its cells is terminal."""
        try:
            await asyncio.gather(*(
                self.cells[key].done.wait() for key in dict.fromkeys(job.keys)
            ))
        finally:
            job.finished = True
            self._m_jobs_finished.inc()
            log_event("serve", "job_finished", job=job.id, cid=job.cid or None,
                      total=len(job.keys), cancelled=job.cancelled)

    def cancel_job(self, job: Job, reason: str = "cancelled by client") -> None:
        """Abandon the job's not-yet-running cells (unless shared).

        Running cells complete normally — their simulation work is kept
        and cached.  Queued/backoff cells referenced by another live job
        keep running for that job; the rest go terminal as ``cancelled``
        (a later submission revives them).
        """
        if job.cancelled or job.finished:
            return
        job.cancelled = True
        self._m_jobs_cancelled.inc()
        log_event("serve", "job_cancelled", level="warning", job=job.id,
                  cid=job.cid or None, reason=reason)
        shared: Set[str] = set()
        for other in self.jobs.values():
            if other.id != job.id and not other.cancelled:
                shared.update(other.keys)
        for key in dict.fromkeys(job.keys):
            cell = self.cells[key]
            if key in shared or cell.status not in ("queued", "backoff"):
                continue
            cell.status = "cancelled"
            cell.last_error = reason
            self._m_cells_terminal.labels(status="cancelled").inc()
            cell.done.set()

    # -- status documents ----------------------------------------------

    def job_status(self, job: Job) -> Dict[str, Any]:
        cells = [self.cells[key].to_json() for key in job.keys]
        counts: Dict[str, int] = {}
        for cell in cells:
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        finished = sum(
            counts.get(status, 0)
            for status in ("done", "cached", "failed", "cancelled")
        )
        return {
            "schema": SERVE_SCHEMA,
            "job": job.id,
            "total": len(cells),
            "finished": finished,
            "complete": finished == len(cells),
            "cancelled": job.cancelled,
            "cid": job.cid,
            "counts": counts,
            "cells": cells,
        }

    def stats(self) -> Dict[str, Any]:
        """The status document; every counter is read from the registry."""

        def count(counter: obs_metrics.Counter) -> int:
            return int(counter.value)

        by_status: Dict[str, int] = {}
        for cell in self.cells.values():
            by_status[cell.status] = by_status.get(cell.status, 0) + 1
        doc = {
            "schema": SERVE_SCHEMA,
            "workers": self.workers,
            "jobs": len(self.jobs),
            "cells": len(self.cells),
            "cells_by_status": by_status,
            "specs_submitted": count(self._m_specs_submitted),
            "specs_deduped": count(self._m_specs_deduped),
            "cache": self.store.summary(),
            "scheduler": {
                "requeues": count(self._m_requeues),
                "timeouts": count(self._m_timeouts),
                "worker_crashes": count(self._m_worker_crashes),
                "executor_rebuilds": count(self._m_executor_rebuilds),
                "cancelled_jobs": count(self._m_jobs_cancelled),
                "fault_kills": count(self._m_fault_kills),
            },
            "resilience": {
                "cell_timeout": self.executor.timeout,
                "max_attempts": self.executor.max_attempts,
            },
        }
        if self.faults is not None:
            doc["faults"] = self.faults.to_json()
        return doc

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            try:
                method, path, body = await _read_request(reader)
            except BadRequest as exc:
                await _respond_json(writer, 400, {"error": str(exc)})
                return
            route = _route_label(method, path)
            self._m_http_requests.labels(method=method, route=route).inc()
            started = loop.time()
            try:
                await self._route(method, path, body, writer)
            except BadRequest as exc:
                self._m_http_errors.labels(route=route).inc()
                await _respond_json(writer, 400, {"error": str(exc)})
            except (ConnectionError, OSError):
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                self._m_http_errors.labels(route=route).inc()
                try:
                    await _respond_json(writer, 500, {"error": repr(exc)})
                except (ConnectionError, OSError):
                    pass
            finally:
                self._m_http_seconds.labels(route=route).observe(
                    loop.time() - started
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [part for part in path.partition("?")[0].split("/") if part]
        if method == "GET" and parts == ["healthz"]:
            await _respond_json(
                writer, 200,
                {"ok": True, "schema": SERVE_SCHEMA, "workers": self.workers,
                 "cache_dir": str(self.store.root)},
            )
        elif method == "GET" and parts == ["stats"]:
            await _respond_json(writer, 200, self.stats())
        elif method == "GET" and parts == ["metrics"]:
            await _respond_bytes(
                writer, 200, self.registry.exposition().encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "POST" and parts == ["jobs"]:
            try:
                doc = json.loads(body or b"{}")
            except ValueError:
                raise BadRequest("body is not valid JSON") from None
            job = self.submit(doc.get("specs"), cid=doc.get("cid") or "")
            await _respond_json(writer, 200, self.job_status(job))
        elif method in ("GET", "DELETE") and len(parts) == 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                await _respond_json(writer, 404, {"error": f"no job {parts[1]!r}"})
                return
            if method == "DELETE":
                self.cancel_job(job)
            await _respond_json(writer, 200, self.job_status(job))
        elif method == "GET" and len(parts) == 2 and parts[0] == "results":
            entry = self.store.load_entry(parts[1])
            if entry is None:
                await _respond_json(
                    writer, 404, {"error": f"no result {parts[1]!r}"}
                )
                return
            await _respond_json(writer, 200, entry)
        else:
            await _respond_json(
                writer, 404, {"error": f"no route {method} /{'/'.join(parts)}"}
            )


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: (method, path, body)."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, OSError):
        raise BadRequest("connection dropped") from None
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise BadRequest(f"malformed request line {request_line!r}") from None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise BadRequest(f"body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, body


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error"}


def _route_label(method: str, path: str) -> str:
    """Collapse a concrete path to its route pattern for metric labels.

    ``/jobs/job-3`` -> ``/jobs/{id}``; unknown shapes map to
    ``/other`` so label cardinality stays bounded no matter what clients
    throw at the socket.
    """
    raw_path = path.partition("?")[0]
    parts = [part for part in raw_path.split("/") if part]
    if not parts:
        return "/"
    head = parts[0]
    if head in ("healthz", "stats", "metrics") and len(parts) == 1:
        return f"/{head}"
    if head == "jobs":
        if len(parts) == 1:
            return "/jobs"
        if len(parts) == 2:
            return "/jobs/{id}"
    if head == "results" and len(parts) == 2:
        return "/results/{key}"
    return "/other"


async def _respond_bytes(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str = "application/octet-stream",
) -> None:
    writer.write(
        (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
    )
    writer.write(payload)
    await writer.drain()


async def _respond_json(
    writer: asyncio.StreamWriter, status: int, doc: Dict[str, Any]
) -> None:
    payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
    await _respond_bytes(writer, status, payload, content_type="application/json")


async def run_server(
    store: ResultStore,
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    cell_timeout: Optional[float] = None,
    max_attempts: int = 3,
    faults: Optional[ServeFaultPlan] = None,
) -> None:
    """Start a server and block until cancelled (the CLI entry point).

    The daemon reports on the process-global registry, so its
    ``/metrics`` also carries the result store's series.  SIGTERM
    cancels the serving task like Ctrl-C does, so ``close`` still runs
    and kills the pool's workers.
    """
    server = ExperimentServer(
        store,
        workers=workers,
        host=host,
        port=port,
        cell_timeout=cell_timeout,
        max_attempts=max_attempts,
        faults=faults,
        registry=obs_metrics.REGISTRY,
    )
    await server.start()
    resilience = f"max_attempts={server.executor.max_attempts}"
    if cell_timeout is not None:
        resilience += f", cell_timeout={cell_timeout}s"
    if faults is not None:
        resilience += ", FAULT INJECTION ON"
    print(
        f"repro-sim serve: http://{server.host}:{server.port} "
        f"({server.workers} workers, cache {store.root}, {resilience})",
        flush=True,
    )
    current = asyncio.current_task()
    assert current is not None
    with contextlib.suppress(NotImplementedError):  # no signal API (Windows)
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, current.cancel)
    try:
        await server.serve_forever()
    finally:
        await server.close()
