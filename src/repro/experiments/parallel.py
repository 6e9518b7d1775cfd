"""Parallel experiment execution: fan independent runs out over processes.

The paper's evaluation sweeps every workload under both protocols across
many machine configurations (Figures 5-6, Tables 3-4).  Each simulation
is an independent, deterministic, pure-Python event loop, so the natural
unit of parallelism is one whole run: this module describes a run as a
picklable :class:`RunSpec`, executes batches of them with
:func:`run_many`, and returns :class:`RunOutcome` objects in the exact
order the specs were given regardless of completion order.

Design points:

* **Processes, not threads.**  A run is CPU-bound Python; the pool uses
  a :class:`concurrent.futures.ProcessPoolExecutor` (``fork`` where
  available, the platform default otherwise).
* **Deterministic ordering.**  Results are re-indexed by submission
  order, so ``run_many(specs, workers=8)`` is byte-identical to
  ``run_many(specs, workers=1)``.
* **Per-run error capture.**  A failing run produces a structured
  :class:`RunError` inside its outcome instead of killing the pool; the
  other runs complete normally.
* **One cell executor.**  Pooled cells go through :class:`CellExecutor`,
  the same executor the ``repro-sim serve`` daemon drives: at most
  ``workers`` cells in flight, an optional per-cell wall-clock
  ``timeout``, and one failure rule — a dead worker and a blown deadline
  both rebuild the pool (killing live workers) and requeue the cell
  after deterministic backoff, until ``max_attempts`` are spent and the
  cell fails with a ``WorkerCrash`` or ``CellTimeout`` :class:`RunError`.
  The serial inline path cannot preempt a run and ignores ``timeout``.
* **Serial inline path.**  ``workers=1`` or a single spec runs inline
  in this process (no pool, no pickling).
* **Pool reuse.**  The process pool persists across :func:`run_many`
  calls (sweeps are many small phases; rebuilding a pool per phase costs
  more than the fan-out saves on short batches).
* **Result-cache consultation.**  ``run_many(..., store=...)`` serves
  previously computed cells from a
  :class:`~repro.experiments.store.ResultStore` and populates it with
  fresh ones; cached outcomes are fingerprint-verified and byte-identical
  to recomputation.  Every finished cell is stored even when the sweep
  is interrupted (Ctrl-C), so rerunning the same sweep over the same
  store is a resume: only the cold cells are simulated.
* **Remote execution.**  ``run_many(..., backend="serve")`` ships the
  cold cells to a ``repro-sim serve`` daemon
  (:class:`~repro.serve.client.ServeClient`) and falls back to local
  execution when the daemon is unreachable.
"""

from __future__ import annotations

import asyncio
import atexit
import concurrent.futures
import multiprocessing
import os
import random
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy
from repro.machine.config import MachineConfig
from repro.machine.system import RunResult
from repro.obs import metrics as obs_metrics
from repro.obs.log import correlation_scope, log_event, new_correlation_id

#: Tags marking frozen containers inside ``RunSpec.overrides`` so the
#: original value shape survives the hashable round trip.  (A workload
#: override whose *literal value* collides with a tag tuple would thaw
#: wrongly; no simulator knob looks like that.)
_DICT_TAG = "__frozen-dict__"
_SET_TAG = "__frozen-set__"

#: ``RunError.exc_type`` for a cell that exceeded its wall-clock deadline.
CELL_TIMEOUT = "CellTimeout"
#: ``RunError.exc_type`` for a cell whose worker died on its last attempt.
WORKER_CRASH = "WorkerCrash"

#: Environment override for the default ``backend="serve"`` daemon URL.
SERVE_URL_ENV = "REPRO_SIM_SERVE"
_DEFAULT_SERVE_URL = "http://127.0.0.1:8787"

#: Sweep-runner instruments on the global registry.
_RUNMANY_METRICS: Dict[str, Any] = {
    "sweeps": obs_metrics.counter(
        "repro_runmany_sweeps_total", "run_many batches executed."),
    "cell_seconds": obs_metrics.histogram(
        "repro_runmany_cell_seconds",
        "Wall-clock seconds of one freshly simulated sweep cell."),
    "requeues": obs_metrics.counter(
        "repro_runmany_retries_total",
        "Cells requeued after a worker crash or a blown deadline."),
    "timeouts": obs_metrics.counter(
        "repro_runmany_timeouts_total",
        "Attempts that blew the per-cell wall-clock deadline."),
    "crashes": obs_metrics.counter(
        "repro_runmany_worker_crashes_total",
        "Attempts lost to a dead worker."),
    "rebuilds": obs_metrics.counter(
        "repro_runmany_pool_rebuilds_total",
        "Process-pool rebuilds after a failure wave."),
}


def backoff_delay(
    attempt: int, *, base: float = 0.05, cap: float = 2.0, key: str = ""
) -> float:
    """Capped exponential backoff with deterministic jitter.

    The delay for attempt ``n`` is ``min(cap, base * 2**(n-1))`` scaled
    by a jitter factor in [0.5, 1.0) drawn from a stream seeded by
    ``(key, attempt)`` — so retries of different cells desynchronize,
    but the same (key, attempt) always waits the same amount, keeping
    retry schedules reproducible.
    """
    if attempt <= 0:
        return 0.0
    jitter = random.Random(f"{key}:{attempt}").uniform(0.5, 1.0)
    return min(cap, base * (2 ** (attempt - 1))) * jitter


def freeze_value(value: Any) -> Any:
    """Recursively convert ``value`` into an equivalent hashable form.

    Dicts become ``(_DICT_TAG, ((key, frozen_value), ...))`` with keys
    sorted, so two dicts that differ only in insertion order freeze — and
    therefore hash and cache-key — identically.  Lists and tuples become
    tuples of frozen elements; sets become tag-marked sorted tuples.
    """
    if isinstance(value, dict):
        return (
            _DICT_TAG,
            tuple((key, freeze_value(value[key])) for key in sorted(value)),
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return (_SET_TAG, tuple(sorted(freeze_value(item) for item in value)))
    return value


def thaw_value(value: Any) -> Any:
    """Invert :func:`freeze_value` far enough to call a workload with.

    Dicts and sets are rebuilt exactly; frozen lists come back as tuples
    (every workload knob treats the two interchangeably).
    """
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _DICT_TAG and isinstance(value[1], tuple):
            return {key: thaw_value(item) for key, item in value[1]}
        if len(value) == 2 and value[0] == _SET_TAG and isinstance(value[1], tuple):
            return {thaw_value(item) for item in value[1]}
        return tuple(thaw_value(item) for item in value)
    return value


@dataclass(frozen=True)
class RunSpec:
    """One independent (workload, policy, consistency, config, seed) run.

    ``overrides`` holds workload parameter overrides as a sorted tuple of
    pairs so the spec stays hashable and picklable; build specs with
    :meth:`make` to pass them as keywords.  :meth:`make` recursively
    freezes dict/list/set override values (see :func:`freeze_value`), so
    ``hash(spec)`` works — and is insertion-order independent — for any
    JSON-shaped override.
    """

    workload: str
    policy: ProtocolPolicy
    preset: str = "default"
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY
    config: Optional[MachineConfig] = None
    check_coherence: bool = True
    seed: int = 42
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Free-form label for callers to map outcomes back to their sweep
    #: coordinates (e.g. "mp3d/AD" or "4x4/small-cache").
    tag: str = ""

    @staticmethod
    def make(
        workload: str,
        policy: ProtocolPolicy,
        *,
        preset: str = "default",
        consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
        config: Optional[MachineConfig] = None,
        check_coherence: bool = True,
        seed: int = 42,
        tag: str = "",
        **workload_overrides,
    ) -> "RunSpec":
        return RunSpec(
            workload=workload,
            policy=policy,
            preset=preset,
            consistency=consistency,
            config=config,
            check_coherence=check_coherence,
            seed=seed,
            overrides=tuple(
                sorted((key, freeze_value(value))
                       for key, value in workload_overrides.items())
            ),
            tag=tag,
        )

    @property
    def label(self) -> str:
        return self.tag or f"{self.workload}/{self.policy.name}"

    def override_kwargs(self) -> Dict[str, Any]:
        """The workload overrides thawed back to call-ready values."""
        return {key: thaw_value(value) for key, value in self.overrides}


@dataclass(frozen=True)
class RunError:
    """A structured record of one failed run.

    Carries everything needed to triage a failure without re-running it:
    the exception type and message, the worker-side traceback, the sweep
    coordinates (workload/policy/seed) of the failing spec, how many
    execution attempts the cell consumed (crash-recovery retries), and —
    when the exception was a :class:`~repro.sim.engine.SimulationError`
    with an attached :class:`~repro.faults.diagnostics.DiagnosticDump` —
    the dump itself as a JSON-compatible dict (dataclass fields must
    pickle cleanly across the process boundary, hence the dict form;
    rebuild with :meth:`diagnostic_dump`).
    """

    exc_type: str
    message: str
    traceback: str
    workload: str = ""
    policy: str = ""
    seed: int = 0
    dump: Optional[dict] = None
    attempts: int = 1

    def __str__(self) -> str:
        where = f" [{self.workload}/{self.policy} seed={self.seed}]" if self.workload else ""
        return f"{self.exc_type}{where}: {self.message}"

    def diagnostic_dump(self):
        """The attached DiagnosticDump, rebuilt from its dict form (or None)."""
        if self.dump is None:
            return None
        from repro.faults.diagnostics import DiagnosticDump

        return DiagnosticDump.from_json(self.dump)


@dataclass
class RunOutcome:
    """Result (or captured failure) of executing one :class:`RunSpec`."""

    spec: RunSpec
    result: Optional[RunResult] = None
    error: Optional[RunError] = None
    #: Host wall-clock seconds spent inside the run.
    wall_time: float = 0.0
    #: True when the result was served from a ResultStore (or a remote
    #: daemon's store) instead of being simulated in this call
    #: (``wall_time`` is then the fetch cost, not the simulation cost).
    cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> RunResult:
        """The RunResult, or re-raise the captured failure."""
        if self.error is not None:
            raise RuntimeError(
                f"run {self.spec.label!r} failed: {self.error}\n{self.error.traceback}"
            )
        assert self.result is not None
        return self.result


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Execute one spec in this process, capturing any failure."""
    # Imported here so a forked/spawned worker resolves it at call time
    # (and to avoid a module-level import cycle with runner.py).
    from repro.experiments.runner import run_workload

    start = time.perf_counter()
    try:
        result = run_workload(
            spec.workload,
            spec.policy,
            preset=spec.preset,
            consistency=spec.consistency,
            config=spec.config,
            check_coherence=spec.check_coherence,
            seed=spec.seed,
            **spec.override_kwargs(),
        )
    except Exception as exc:  # noqa: BLE001 - the pool must survive any run
        dump = getattr(exc, "dump", None)
        return RunOutcome(
            spec=spec,
            error=RunError(
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                workload=spec.workload,
                policy=spec.policy.name,
                seed=spec.seed,
                dump=dump.to_json() if dump is not None else None,
            ),
            wall_time=time.perf_counter() - start,
        )
    return RunOutcome(spec=spec, result=result, wall_time=time.perf_counter() - start)


def execute_spec_with_cid(spec: RunSpec, cid: str = "") -> RunOutcome:
    """Worker entry point that binds a correlation id around the run.

    :class:`CellExecutor` submits cells through this so a worker's
    structured log lines (``REPRO_LOG`` is inherited across the process
    boundary) carry the ``cid`` of the job or sweep.
    """
    with correlation_scope(cid):
        log_event("worker", "run_started", cell=spec.label, pid=os.getpid())
        outcome = execute_spec(spec)
        log_event(
            "worker",
            "run_finished" if outcome.ok else "run_failed",
            level="info" if outcome.ok else "error",
            cell=spec.label,
            wall_time_s=round(outcome.wall_time, 6),
            error=str(outcome.error) if outcome.error else None,
        )
    return outcome


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """``fork`` where available (workers inherit registered workloads),
    else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _reset_worker_signals() -> None:
    """Pool initializer: give a forked worker default SIGTERM handling.

    A worker forked from ``repro-sim serve`` inherits the daemon's
    SIGTERM handler and the asyncio wakeup fd it writes to, so a SIGTERM
    meant for the worker (a broken pool terminates its survivors) would
    wake the daemon's loop and shut the daemon down instead.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def default_workers() -> int:
    """A sensible worker count for this host (>= 1)."""
    return max(1, multiprocessing.cpu_count() or 1)


class CellExecutor:
    """The one cell executor behind :func:`run_many` and ``repro-sim serve``.

    It owns a process pool of ``workers`` processes and a generation
    counter.  :meth:`run` drives one cell to a terminal outcome: it waits
    for a free worker, applies the per-cell ``timeout``, and treats a
    blown deadline exactly like a dead worker — the pool is rebuilt once
    per failure wave (live workers killed, so a stuck cell gives its CPU
    back) and the cell is requeued after :func:`backoff_delay` until
    ``max_attempts`` are spent, when it fails with a ``CellTimeout`` or
    ``WorkerCrash`` :class:`RunError`.  The deadline is wall-clock time
    and host speed drifts, so a retry of a timed-out cell can succeed.

    ``metrics`` maps ``requeues``/``timeouts``/``crashes``/``rebuilds``
    to counters on the front-end's registry; ``component`` names the
    front-end in structured log lines.
    """

    def __init__(
        self,
        workers: int,
        *,
        timeout: Optional[float] = None,
        max_attempts: int = 3,
        metrics: Dict[str, Any],
        component: str,
    ) -> None:
        self.workers = max(1, workers)
        self.timeout = timeout
        self.max_attempts = max(1, max_attempts)
        self.metrics = metrics
        self.component = component
        self.generation = 0
        self.pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._slots_loop: Optional[asyncio.AbstractEventLoop] = None

    def _current_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        """The live pool, built on first use or after a break."""
        if self.pool is not None and getattr(self.pool, "_broken", False):
            self._rebuild(self.generation)  # a worker died between calls
        if self.pool is None:
            self.pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pool_context(),
                initializer=_reset_worker_signals,
            )
        return self.pool

    def live_workers(self) -> List[Any]:
        """The pool's worker processes that are still alive."""
        processes = (getattr(self.pool, "_processes", None) or {}).values()
        return [process for process in processes if process.is_alive()]

    def close(self) -> None:
        """Discard the pool, killing its live (possibly stuck) workers."""
        if self.pool is None:
            return
        pool, live = self.pool, self.live_workers()
        self.pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        for process in live:
            process.kill()

    def _rebuild(self, generation: int) -> None:
        """Replace the pool once per failure wave.

        Every cell of a wave saw the same ``generation``; the first one
        through discards the pool (the next attempt builds a fresh one)
        and the rest find the counter already moved on.
        """
        if generation != self.generation:
            return
        self.generation += 1
        self.metrics["rebuilds"].inc()
        log_event(self.component, "executor_rebuilt", level="warning",
                  generation=self.generation)
        self.close()

    async def run(
        self,
        spec: RunSpec,
        cid: str = "",
        on_state: Optional[Callable[[str, int], bool]] = None,
    ) -> Optional[RunOutcome]:
        """Execute ``spec`` to a terminal outcome (None if abandoned).

        ``on_state(state, attempt)`` is called with ``"running"`` as an
        attempt takes a worker and ``"backoff"`` as a failed one is
        requeued; returning False abandons the cell.
        """
        loop = asyncio.get_running_loop()
        if self._slots_loop is not loop:
            self._slots, self._slots_loop = asyncio.Semaphore(self.workers), loop
        assert self._slots is not None
        attempts = crashes = 0
        while True:
            async with self._slots:
                if on_state is not None and not on_state("running", attempts + 1):
                    return None
                attempts += 1
                generation = self.generation
                try:
                    future = loop.run_in_executor(
                        self._current_pool(), execute_spec_with_cid, spec, cid
                    )
                    return await asyncio.wait_for(future, self.timeout)
                except asyncio.TimeoutError:
                    self.metrics["timeouts"].inc()
                    kind = CELL_TIMEOUT
                    detail = f"exceeded the {self.timeout}s per-cell deadline"
                except Exception:  # BrokenProcessPool, pickling failure, ...
                    self.metrics["crashes"].inc()
                    crashes += 1
                    kind = WORKER_CRASH
                    detail = f"worker process died {crashes} time(s)"
                self._rebuild(generation)
            if attempts >= self.max_attempts:
                return RunOutcome(spec=spec, error=RunError(
                    exc_type=kind,
                    message=f"{detail} (gave up after {attempts} attempt(s))",
                    traceback="",
                    workload=spec.workload,
                    policy=spec.policy.name,
                    seed=spec.seed,
                    attempts=attempts,
                ))
            self.metrics["requeues"].inc()
            log_event(self.component, "cell_requeued", level="warning",
                      cell=spec.label, cid=cid or None, attempts=attempts,
                      error=f"{kind}: {detail}")
            if on_state is not None and not on_state("backoff", attempts):
                return None
            await asyncio.sleep(backoff_delay(attempts, key=spec.label))


#: The executor behind :func:`run_many`, kept alive across calls with its
#: pool.  A sweep is many small phases (one per table row/figure bar);
#: forking a pool per phase used to cost more than short batches saved.
#: :func:`shutdown_pool` is registered atexit.
_LOCAL: Optional[CellExecutor] = None


def shutdown_pool() -> None:
    """Tear down the shared worker pool, killing any hung workers."""
    if _LOCAL is not None:
        _LOCAL.close()


atexit.register(shutdown_pool)


def _run_pooled(
    pending: List[Tuple[int, RunSpec]],
    workers: int,
    timeout: Optional[float],
    max_attempts: int,
    cid: str,
    on_result: Callable[[int, RunOutcome], None],
) -> None:
    """Drive the pending cells through the shared executor.

    Outcomes reach ``on_result(index, outcome)`` once the batch drains,
    so store writes do not compete with busy workers for CPU; an
    interrupt still delivers every cell that finished.
    """
    global _LOCAL
    if _LOCAL is None or _LOCAL.workers != workers:
        shutdown_pool()
        _LOCAL = CellExecutor(workers, metrics=_RUNMANY_METRICS,
                              component="run_many")
    executor = _LOCAL
    executor.timeout, executor.max_attempts = timeout, max(1, max_attempts)
    finished: Dict[int, RunOutcome] = {}

    async def one(index: int, spec: RunSpec) -> None:
        outcome = await executor.run(spec, cid)
        assert outcome is not None
        finished[index] = outcome

    async def drive() -> None:
        await asyncio.gather(*(one(index, spec) for index, spec in pending))

    try:
        asyncio.run(drive())
    finally:
        for index in sorted(finished):
            on_result(index, finished[index])


def _run_via_serve(
    specs: List[RunSpec], serve_url: Optional[str], cid: str = ""
) -> Optional[List[RunOutcome]]:
    """Execute specs against a remote daemon, or None if it's unreachable."""
    from repro.serve.client import ServeClient, ServeUnavailable

    url = serve_url or os.environ.get(SERVE_URL_ENV) or _DEFAULT_SERVE_URL
    client = ServeClient(url, retries=2, cid=cid)
    try:
        return client.run_many(specs)
    except ServeUnavailable as exc:
        obs_metrics.counter(
            "repro_client_fallbacks_total",
            "backend=serve sweeps that fell back to local execution.",
        ).inc()
        log_event("run_many", "serve_fallback", level="warning",
                  url=url, error=str(exc))
        print(
            f"serve backend unreachable ({exc}); falling back to local execution",
            file=sys.stderr,
        )
        return None


def run_many(
    specs: Sequence[RunSpec],
    workers: int = 1,
    store: Optional[Any] = None,
    *,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backend: str = "local",
    serve_url: Optional[str] = None,
) -> List[RunOutcome]:
    """Execute every spec and return outcomes in submission order.

    ``workers=1`` (or a single spec) runs serially in this process;
    otherwise the shared :class:`CellExecutor` runs the batch on a
    persistent pool of ``workers`` processes.  Either way the returned
    list lines up index-for-index with ``specs`` and parallel results are
    identical to serial ones (each run is a self-contained deterministic
    simulation).

    ``store`` (a :class:`~repro.experiments.store.ResultStore`) is
    consulted per spec before simulating — hits come back as cached
    outcomes with verified fingerprints — and populated with every fresh
    successful result afterwards.  Failed runs are never cached.  Cells
    that finished before an interrupt are stored before it propagates.

    Resilience knobs:

    * ``timeout`` — per-cell wall-clock deadline in seconds (pooled
      execution only); a stuck cell is requeued like a crashed one
      instead of hanging the sweep.
    * ``max_attempts`` — attempts per cell before a crash or timeout
      becomes a terminal ``WorkerCrash``/``CellTimeout`` error.
    * ``backend="serve"`` — execute cold cells on a remote ``repro-sim
      serve`` daemon (``serve_url``, ``$REPRO_SIM_SERVE``, or
      localhost:8787), falling back to local execution when the daemon
      is unreachable.  Remote results are fingerprint-verified and used
      to warm the local ``store``.
    """
    specs = list(specs)
    if not specs:
        return []
    metrics = _RUNMANY_METRICS
    metrics["sweeps"].inc()
    sweep_cid = new_correlation_id("sweep")
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)

    def record(index: int, outcome: RunOutcome, put: bool) -> None:
        outcomes[index] = outcome
        if not outcome.cached and outcome.wall_time:
            metrics["cell_seconds"].observe(outcome.wall_time)
        if put and store is not None and outcome.ok:
            store.put(outcome)

    pending: List[Tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        hit = store.fetch(spec) if store is not None else None
        if hit is not None:
            record(index, hit, put=False)
        else:
            pending.append((index, spec))

    log_event("run_many", "sweep_started", cid=sweep_cid, cells=len(specs),
              cold=len(pending), workers=workers, backend=backend)
    with correlation_scope(sweep_cid):
        if pending and backend == "serve":
            served = _run_via_serve(
                [spec for _, spec in pending], serve_url, cid=sweep_cid
            )
            if served is not None:
                for (index, _), outcome in zip(pending, served):
                    record(index, outcome, put=True)
                pending = []
        if pending:
            if workers > 1 and len(pending) > 1:
                _run_pooled(
                    pending, workers, timeout, max_attempts, sweep_cid,
                    lambda index, outcome: record(
                        index, outcome, put=not outcome.cached
                    ),
                )
            else:
                # Record cell by cell so an interrupt keeps finished work.
                for index, spec in pending:
                    outcome = execute_spec(spec)
                    record(index, outcome, put=not outcome.cached)
    log_event("run_many", "sweep_finished", cid=sweep_cid, cells=len(specs),
              failed=sum(1 for o in outcomes if o is not None and not o.ok))
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]


def result_fingerprint(result: RunResult) -> dict:
    """Every deterministic observable of a run, for equality checks.

    Two runs of the same spec must produce identical fingerprints whether
    they executed serially or in a worker process.
    """
    return {
        "execution_time": result.execution_time,
        "counters": result.counters.as_dict(),
        "network_bits": result.network_bits,
        "network_messages": result.network_messages,
        "bits_by_kind": result.bits_by_kind,
        "count_by_kind": result.count_by_kind,
        "events_processed": result.events_processed,
        "policy": result.policy_name,
        "consistency": result.consistency_name,
    }


def run_pairs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    store: Optional[Any] = None,
    **run_kwargs,
) -> List[Tuple[RunResult, RunResult]]:
    """Execute an even list of specs and unwrap them as (even, odd) pairs.

    Convenience for W-I/AD sweeps: callers interleave the two protocol
    specs per sweep point and get back one result pair per point.
    """
    if len(specs) % 2:
        raise ValueError(f"run_pairs needs an even spec count, got {len(specs)}")
    outcomes = run_many(specs, workers=workers, store=store, **run_kwargs)
    return [
        (outcomes[i].unwrap(), outcomes[i + 1].unwrap())
        for i in range(0, len(outcomes), 2)
    ]
