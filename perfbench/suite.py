"""The four benchmark workloads and one timed pass of each.

A *pass* is one closed-loop iteration of a workload: a single caller runs
every cell of the workload in order and the next pass starts only after
the previous one has finished.  Every pass returns a :class:`PassResult`
with its host timings and the simulated outputs that ``oracle.py`` checks.

The workloads call into the program only through public entry points,
looked up on their modules at call time (``workloads.make_workload``,
``parallel.run_many``, ``checker.explore``), so the traced run in
``layers.py`` can patch those attributes and see every call.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_exit
from pathlib import Path
from time import perf_counter, process_time, thread_time
from typing import Callable, Dict, List, Optional, Tuple

import repro.workloads as workloads
from repro.consistency.models import SEQUENTIAL_CONSISTENCY
from repro.cpu.ops import OP_READ, OP_WRITE
from repro.experiments import parallel
from repro.experiments.parallel import RunOutcome, RunSpec, result_fingerprint
from repro.experiments.store import ResultStore
from repro.machine.config import MachineConfig
from repro.machine.system import Machine, RunResult
from repro.protocols import default_policies, policy_for
from repro.serve import ExperimentServer, ServeClient
from repro.verify import checker as verify_checker
from repro.verify.model import ProtocolModel

#: Machine builds per cell per pass; ``setup_s`` takes their median so one
#: garbage-collector pause does not decide the figure.
SIM_SETUP_REPS = 3
#: Model constructions per exploration per pass, timed in batches because
#: one takes a few microseconds, about what reading a CPU clock costs;
#: ``setup_s`` takes the median batch's time per construction.
MODEL_SETUP_BATCHES = 5
MODEL_SETUP_BATCH = 40
#: Protocols and sizes explored by ``model-check``: the paper's AD at the
#: size the repo's validation uses, plus the write-update family at one op.
MODEL_CHECKS: Tuple[Tuple[str, int, int], ...] = (
    ("AD", 3, 2),
    ("MESI", 3, 1),
    ("Dragon", 3, 1),
    ("Hybrid", 3, 1),
)
#: Called with each cell's label as a pass starts it (the traced run's hook).
OnCell = Optional[Callable[[str], None]]
#: Seconds a served sweep may take before the client gives up on it.
SERVE_TIMEOUT_S = 120.0
#: Seconds a stopped worker process gets to exit before it is killed.
CHILD_EXIT_S = 5.0


@dataclass(frozen=True)
class Cell:
    """One simulated (workload, protocol) run of a benchmark workload."""

    workload: str
    protocol: str
    preset: str
    check_coherence: bool
    seed: int

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.protocol}"

    def spec(self) -> RunSpec:
        return RunSpec.make(
            self.workload, policy_for(self.protocol), preset=self.preset,
            check_coherence=self.check_coherence, seed=self.seed,
            tag=self.label,
        )


def workload_cells(name: str, seed: int) -> List[Cell]:
    """The simulated cells of a workload, in pass order."""
    if name == "fig5-default":
        return [
            Cell(bench, protocol, "default", False, seed)
            for bench in workloads.PAPER_BENCHMARKS
            for protocol in ("W-I", "AD")
        ]
    if name == "update-mix":
        return [
            Cell(wl, protocol, "default", True, seed)
            for wl in ("random-mix", "producer-consumer", "migratory-counters")
            for protocol in ("MESI", "Dragon", "Hybrid")
        ]
    if name == "sweep":
        return [
            Cell(bench, policy.name, "tiny", True, seed)
            for bench in workloads.PAPER_BENCHMARKS
            for policy in default_policies()
        ]
    return []


def model_label(protocol: str, caches: int, ops: int) -> str:
    return f"{protocol}/{caches}x{ops}"


def count_refs(cell: Cell) -> int:
    """Read+Write ops the cell's programs issue, counted without simulating.

    Programs are plain op generators with no feedback from the machine, so
    draining a fresh copy gives exactly the ops the processors retire.
    """
    wl = workloads.make_workload(
        cell.workload, MachineConfig.dash_default().num_nodes, cell.preset,
        seed=cell.seed,
    )
    return sum(
        1 for program in wl.programs() for code, _ in program
        if code == OP_READ or code == OP_WRITE
    )


def cell_output(result: RunResult) -> dict:
    """A run's checked outputs: its fingerprint without the event count,
    plus the aggregate stall breakdown."""
    out = result_fingerprint(result)
    del out["events_processed"]
    b = result.aggregate_breakdown
    out["breakdown"] = {
        "busy": b.busy, "sync_stall": b.sync_stall,
        "read_stall": b.read_stall, "write_stall": b.write_stall,
    }
    return out


def exploration_output(result) -> dict:
    """An exploration's checked outputs."""
    return {
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "final_states": result.final_states,
        "max_depth": result.max_depth,
    }


def build_cell(cell: Cell):
    """Machine build + workload construction: the set-up before event one."""
    cfg = MachineConfig.dash_default().with_(
        policy=policy_for(cell.protocol), consistency=SEQUENTIAL_CONSISTENCY,
        check_coherence=cell.check_coherence,
    )
    machine = Machine(cfg)
    wl = workloads.make_workload(
        cell.workload, cfg.num_nodes, cell.preset, seed=cell.seed
    )
    return machine, wl.programs()


@dataclass
class PassResult:
    """Host timings and simulated outputs of one pass.

    ``cpu_s`` and ``setup_s`` are CPU seconds of the benchmark process:
    of its main thread on the in-process workloads, of all its threads
    but the host-speed gauge's on ``sweep``.  Worker processes are not
    counted; what they run is the simulator the in-process workloads time.
    """

    wall_s: float
    setup_s: float
    #: label -> checked output (``cell_output`` form, or model-check counts).
    outputs: Dict[str, dict]
    cpu_s: float = 0.0
    #: ``perf_counter`` at the pass's start and end.
    start: float = 0.0
    end: float = 0.0
    #: label -> error text for cells that raised.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Simulator events processed (reported, never checked).
    events: int = 0
    #: Workload-specific figures (sweep front-end times, daemon requeues).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Sweep only: phase -> outcomes, for the cross-front-end checks.
    phases: Dict[str, List[RunOutcome]] = field(default_factory=dict)


def _timed(fn, *args):
    """``(wall seconds, main-thread CPU seconds, value)`` of one call."""
    start, cpu = perf_counter(), thread_time()
    value = fn(*args)
    return perf_counter() - start, thread_time() - cpu, value


class SimSuite:
    """``fig5-default`` / ``update-mix``: cells simulated serially in-process."""

    def __init__(self, name: str, seed: int) -> None:
        self.cells = workload_cells(name, seed)
        self.labels = [cell.label for cell in self.cells]

    def run_pass(self, on_cell: OnCell = None) -> PassResult:
        res = PassResult(wall_s=0.0, setup_s=0.0, outputs={}, start=perf_counter())
        for cell in self.cells:
            if on_cell is not None:
                on_cell(cell.label)
            # Collect the previous cell's cyclic garbage outside the timed
            # region, so its cost does not land in a random later cell.
            gc.collect()
            try:
                builds = [_timed(build_cell, cell) for _ in range(SIM_SETUP_REPS)]
                res.setup_s += statistics.median(cpu for _, cpu, _ in builds)
                build_s, build_cpu, (machine, programs) = builds[-1]
                del builds
                run_s, run_cpu, result = _timed(machine.run, programs)
            except Exception as exc:  # noqa: BLE001 - counted as a failed cell
                res.errors[cell.label] = f"{type(exc).__name__}: {exc}"
                continue
            res.wall_s += build_s + run_s
            res.cpu_s += build_cpu + run_cpu
            res.events += result.events_processed
            res.outputs[cell.label] = cell_output(result)
        res.end = perf_counter()
        return res

    def close(self) -> None:
        pass


def _build_models(caches: int, ops: int, policy) -> None:
    for _ in range(MODEL_SETUP_BATCH):
        ProtocolModel(caches, ops, policy)


class ModelCheckSuite:
    """``model-check``: exhaustive exploration of the protocol models."""

    def __init__(self) -> None:
        # Exploration is exhaustive, so no seed selects anything here.
        self.labels = [model_label(*check) for check in MODEL_CHECKS]

    def run_pass(self, on_cell: OnCell = None) -> PassResult:
        res = PassResult(wall_s=0.0, setup_s=0.0, outputs={}, start=perf_counter())
        for protocol, caches, ops in MODEL_CHECKS:
            label = model_label(protocol, caches, ops)
            if on_cell is not None:
                on_cell(label)
            gc.collect()
            policy = policy_for(protocol)
            try:
                batches = [
                    _timed(_build_models, caches, ops, policy)
                    for _ in range(MODEL_SETUP_BATCHES)
                ]
                res.setup_s += statistics.median(
                    cpu for _, cpu, _ in batches) / MODEL_SETUP_BATCH
                build_s, build_cpu, model = _timed(ProtocolModel, caches, ops, policy)
                run_s, run_cpu, result = _timed(verify_checker.explore, model)
            except Exception as exc:  # noqa: BLE001 - counted as a failed cell
                res.errors[label] = f"{type(exc).__name__}: {exc}"
                continue
            res.wall_s += build_s + run_s
            res.cpu_s += build_cpu + run_cpu
            res.outputs[label] = exploration_output(result)
        res.end = perf_counter()
        return res

    def close(self) -> None:
        pass


class Daemon:
    """An ExperimentServer on an ephemeral port, its loop in a thread."""

    def __init__(self, store: ResultStore, workers: int) -> None:
        self.server = ExperimentServer(store, workers=workers, port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: List[BaseException] = []

        def main() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failure.append(exc)
                started.set()
                return
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=main, daemon=True)
        self.thread.start()
        if not started.wait(30) or failure:
            raise RuntimeError(f"serve daemon failed to start: {failure}")
        self.url = f"http://127.0.0.1:{self.server.port}"

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


class SweepSuite:
    """``sweep``: the tiny 20-cell sweep cold then warm through each front-end.

    Every pass starts from an empty store and a fresh daemon, and tears
    down the shared local pool first, so "cold" includes forking workers.
    ``cpu_clock`` reads the CPU seconds the pass is charged: those of this
    process, where pool dispatch, result unpickling, the stores, the HTTP
    daemon and the client run.
    """

    def __init__(self, seed: int, work_dir: Path, workers: int,
                 cpu_clock: Callable[[], float] = process_time) -> None:
        self.cells = workload_cells("sweep", seed)
        self.labels = [cell.label for cell in self.cells]
        self.specs = [cell.spec() for cell in self.cells]
        self.workers = workers
        self.cpu_clock = cpu_clock
        self.work_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=work_dir))
        self.passes = 0
        #: pids of worker processes still running after their pool stopped.
        self.stragglers: List[int] = []

    def run_pass(self, on_cell: OnCell = None) -> PassResult:
        self.stop_pool()
        gc.collect()
        self.passes += 1
        root = self.work_dir / f"pass{self.passes}"
        start, cpu = perf_counter(), self.cpu_clock()
        local_store = ResultStore(root / "local")
        daemon = Daemon(ResultStore(root / "serve"), self.workers)
        try:
            client = ServeClient(daemon.url)
            client.healthz()
            setup_s = perf_counter() - start
            setup_cpu = self.cpu_clock() - cpu
            runs = {
                "local-cold": lambda: parallel.run_many(
                    self.specs, workers=self.workers, store=local_store),
                "local-warm": lambda: parallel.run_many(
                    self.specs, workers=self.workers, store=local_store),
                "serve-cold": lambda: client.run_many(
                    self.specs, timeout=SERVE_TIMEOUT_S),
                "serve-warm": lambda: client.run_many(
                    self.specs, timeout=SERVE_TIMEOUT_S),
            }
            phases: Dict[str, List[RunOutcome]] = {}
            seconds: Dict[str, float] = {}
            for phase, run in runs.items():
                if on_cell is not None:
                    on_cell(phase)
                seconds[phase], _, phases[phase] = _timed(run)
            requeues = daemon.server.requeues
            cpu_s, end = self.cpu_clock() - cpu, perf_counter()
        finally:
            daemon.close()
        shutil.rmtree(root, ignore_errors=True)
        local_s = seconds["local-cold"] + seconds["local-warm"]
        serve_s = seconds["serve-cold"] + seconds["serve-warm"]
        res = PassResult(
            wall_s=setup_s + local_s + serve_s, setup_s=setup_cpu, outputs={},
            cpu_s=cpu_s, start=start, end=end,
            extra={"local_sweep_s": local_s, "serve_sweep_s": serve_s,
                   "serve_requeues": float(requeues)},
            phases=phases,
        )
        for cell, outcome in zip(self.cells, phases["local-cold"]):
            if outcome.ok:
                res.outputs[cell.label] = cell_output(outcome.result)
                res.events += outcome.result.events_processed
            else:
                res.errors[cell.label] = str(outcome.error)
        return res

    def serial_outputs(self) -> Dict[str, dict]:
        """The same cells run serially in this process, for the cross-check."""
        outputs = {}
        for cell, spec in zip(self.cells, self.specs):
            outcome = parallel.execute_spec(spec)
            outputs[cell.label] = (
                cell_output(outcome.result) if outcome.ok
                else {"error": str(outcome.error)}
            )
        return outputs

    def stop_pool(self) -> None:
        """Stop the shared local pool and wait for its workers to end.

        ``shutdown_pool`` kills the workers without waiting; they are
        joined here so that none lingers into the next pass competing for
        a core.
        """
        parallel.shutdown_pool()
        self.stragglers.extend(end_children())

    def close(self) -> None:
        self.stop_pool()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def end_children(timeout: float = CHILD_EXIT_S) -> List[int]:
    """Wait for every child process to exit, killing any still running.

    Waits on each child's sentinel, which is ready once the process has
    exited even when another thread (a pool's manager thread) reaped it
    first; ``Process.is_alive`` would then report a dead worker as alive.
    Returns the pids that had to be killed.
    """
    killed = []
    for child in multiprocessing.active_children():
        if not wait_for_exit([child.sentinel], timeout):
            killed.append(child.pid)
            child.kill()
            wait_for_exit([child.sentinel], timeout)
    return killed


def make_suite(name: str, seed: int, work_dir: Path, workers: int,
               cpu_clock: Callable[[], float] = process_time):
    if name in ("fig5-default", "update-mix"):
        return SimSuite(name, seed)
    if name == "model-check":
        return ModelCheckSuite()
    if name == "sweep":
        return SweepSuite(seed, work_dir, workers, cpu_clock)
    raise ValueError(f"unknown workload {name!r}")
