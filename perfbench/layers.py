"""The traced run: spans at every layer boundary, from outside the program.

:class:`Tracer` patches the public entry points of each layer (class
attributes, and the module-level functions the workloads call through
their modules) before a pass builds its machine, and restores every one
afterwards.  It also wraps ``Simulator.schedule``/``schedule_at`` so each
callback the engine dispatches runs inside a span named after the layer
of the module that defined it.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, cell).  Self time, each span minus
the time its child spans cover, is summed per layer as spans close; the
first ``MAX_SPANS_PER_CELL`` spans of each cell are also kept in memory
and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import repro.workloads as workloads_mod
from repro.coherence.cache_ctrl import CacheController
from repro.coherence.checker import CoherenceChecker
from repro.coherence.directory import DirectoryController
from repro.coherence.messages import MsgKind
from repro.coherence.transport import Transport
from repro.cpu.ops import OP_READ, OP_WRITE
from repro.cpu.processor import Processor
from repro.experiments import parallel
from repro.experiments.store import ResultStore
from repro.machine.system import Machine
from repro.memory.bus import LocalBus
from repro.memory.cache import CacheArray
from repro.memory.dram import MemoryModule
from repro.network.mesh import Mesh
from repro.serve import ExperimentServer, ServeClient
from repro.sim.engine import Simulator
from repro.verify import checker as verify_checker
from repro.verify.model import ProtocolModel

MAX_SPANS_PER_CELL = 20_000

#: Module prefix -> layer, longest prefix first.  Layers are named after
#: the repo's modules; ``core.detection`` is folded into the directory,
#: which is its only caller.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.coherence.transport", "coherence.transport"),
    ("repro.coherence.messages", "coherence.transport"),
    ("repro.coherence._messages_impl", "coherence.transport"),
    ("repro.coherence.cache_ctrl", "coherence.cache_ctrl"),
    ("repro.coherence.directory", "coherence.directory"),
    ("repro.core.detection", "coherence.directory"),
    ("repro.coherence.checker", "coherence.checker"),
    ("repro.experiments.parallel", "experiments.parallel"),
    ("repro.experiments.store", "experiments.store"),
    ("repro.sim", "sim"),
    ("repro.network", "network"),
    ("repro.memory", "memory"),
    ("repro.cpu", "cpu"),
    ("repro.workloads", "workloads"),
    ("repro.machine", "machine"),
    ("repro.serve", "serve"),
    ("repro.verify", "verify"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanLog:
    """Spans in memory: per-layer self time plus the first spans of each cell."""

    def __init__(self, max_spans_per_cell: int = MAX_SPANS_PER_CELL) -> None:
        self.max_spans_per_cell = max_spans_per_cell
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: thread id -> seconds inside that thread's top-level spans.
        self.covered_s: Dict[int, float] = defaultdict(float)
        self.cell_labels: List[str] = [""]
        self.spans_total = 0
        #: Kept spans as (index, name, start, end, parent index, cell) tuples:
        #: atoms only, so the garbage collector stops tracking them.
        self.kept: List[tuple] = []
        self._kept_in_cell = 0
        self._next_index = 0
        self._stacks: Dict[int, list] = {}

    def begin_cell(self, label: str) -> None:
        self.cell_labels.append(label)
        self._kept_in_cell = 0

    def enter(self, name: str) -> list:
        stack = self._stacks.get(threading.get_ident())
        if stack is None:
            stack = self._stacks[threading.get_ident()] = []
        index = -1
        if self._kept_in_cell < self.max_spans_per_cell:
            self._kept_in_cell += 1
            index = self._next_index
            self._next_index += 1
        self.spans_total += 1
        # [name, start, child time, kept index (-1: not kept), stack]
        frame = [name, 0.0, 0.0, index, stack]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        name, start, child, index, stack = frame
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if stack:
            stack[-1][2] += duration
        else:
            self.covered_s[threading.get_ident()] += duration
        if index >= 0:
            self.kept.append((index, name, start, end,
                              stack[-1][3] if stack else -1,
                              len(self.cell_labels) - 1))

    def span(self, name: str, fn: Callable, count: str = "") -> Callable:
        """``fn`` wrapped so every call is one span named ``name``."""
        enter, leave, calls = self.enter, self.leave, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                calls[count] += 1
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def write(self, path: Path) -> int:
        """Write the kept spans as gzipped CSV; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("index,name,start_s,end_s,parent,cell\n")
            for index, name, start, end, parent, cell in sorted(self.kept):
                out.write(f"{index},{name},{start:.9f},{end:.9f},{parent},"
                          f"{self.cell_labels[cell]}\n")
        return len(self.kept)


class Patches:
    """Attribute replacements that are undone exactly, in reverse order."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, log: SpanLog, name: str, owner: object, attr: str,
             count: str = "") -> None:
        self.set(owner, attr, log.span(name, owner.__dict__[attr], count))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def _timed_program(log: SpanLog, program):
    """Yield ``program``'s ops, timing each ``next`` as a workloads span."""
    enter, leave, calls = log.enter, log.leave, log.calls
    iterator = iter(program)
    while True:
        frame = enter("workloads")
        try:
            op = next(iterator)
        except StopIteration:
            return
        finally:
            leave(frame)
        calls["workloads.ops_generated"] += 1
        if op[0] == OP_READ or op[0] == OP_WRITE:
            calls["cpu.ops"] += 1
        yield op


def patch_simulator(log: SpanLog, patches: Patches) -> None:
    """Engine layers: every layer a simulated cell runs through."""
    enter, leave = log.enter, log.leave
    layers: Dict[str, str] = {}

    def layer_of(callback) -> str:
        module = getattr(callback, "__module__", None) or type(callback).__module__
        layer = layers.get(module)
        if layer is None:
            layer = layers[module] = layer_of_module(module)
        return layer

    def dispatch(layer, callback, args):
        frame = enter(layer)
        try:
            callback(*args)
        finally:
            leave(frame)

    schedule = Simulator.__dict__["schedule"]
    schedule_at = Simulator.__dict__["schedule_at"]

    @functools.wraps(schedule)
    def traced_schedule(self, delay, callback, *args):
        frame = enter("sim")
        try:
            schedule(self, delay, dispatch, layer_of(callback), callback, args)
        finally:
            leave(frame)

    @functools.wraps(schedule_at)
    def traced_schedule_at(self, time, callback, *args):
        frame = enter("sim")
        try:
            schedule_at(self, time, dispatch, layer_of(callback), callback, args)
        finally:
            leave(frame)

    patches.set(Simulator, "schedule", traced_schedule)
    patches.set(Simulator, "schedule_at", traced_schedule_at)
    patches.wrap(log, "sim", Simulator, "run")
    patches.wrap(log, "coherence.transport", Transport, "send",
                 "coherence.transport.sends")
    patches.wrap(log, "network", Mesh, "send", "network.sends")
    patches.wrap(log, "memory", LocalBus, "transact", "memory.bus_transactions")
    patches.wrap(log, "memory", MemoryModule, "access", "memory.dram_accesses")
    patches.wrap(log, "memory", MemoryModule, "directory_access")
    patches.wrap(log, "memory", CacheArray, "find", "memory.cache_lookups")
    for attr in ("read", "write", "prefetch_exclusive"):
        patches.wrap(log, "coherence.cache_ctrl", CacheController, attr,
                     "coherence.cache_ctrl.accesses")
    patches.wrap(log, "coherence.cache_ctrl", CacheController, "handle",
                 "coherence.cache_ctrl.msgs")

    directory_handle = DirectoryController.__dict__["handle"]
    nak = MsgKind.NAK
    calls = log.calls

    @functools.wraps(directory_handle)
    def traced_directory_handle(self, msg):
        calls["coherence.directory.msgs"] += 1
        if msg.kind is nak:
            calls["coherence.directory.naks"] += 1
        frame = enter("coherence.directory")
        try:
            return directory_handle(self, msg)
        finally:
            leave(frame)

    patches.set(DirectoryController, "handle", traced_directory_handle)
    for attr in ("on_read", "on_write", "acquire_writable", "release_writable"):
        patches.wrap(log, "coherence.checker", CoherenceChecker, attr,
                     "coherence.checker.calls")

    processor_start = Processor.__dict__["start"]

    @functools.wraps(processor_start)
    def traced_start(self, program):
        frame = enter("cpu")
        try:
            return processor_start(self, _timed_program(log, program))
        finally:
            leave(frame)

    patches.set(Processor, "start", traced_start)
    patches.wrap(log, "workloads", workloads_mod, "make_workload")
    patches.wrap(log, "machine.build", Machine, "__init__")
    patches.wrap(log, "machine", Machine, "run")


def patch_harness(log: SpanLog, patches: Patches) -> None:
    """Sweep front-ends: pool runner, result store, serve client/daemon."""
    patches.wrap(log, "experiments.parallel", parallel, "run_many")
    fetch = ResultStore.__dict__["fetch"]
    enter, leave, calls = log.enter, log.leave, log.calls

    @functools.wraps(fetch)
    def traced_fetch(self, spec):
        calls["experiments.store.fetches"] += 1
        frame = enter("experiments.store.fetch")
        try:
            hit = fetch(self, spec)
        finally:
            leave(frame)
        if hit is not None:
            calls["experiments.store.hits"] += 1
        return hit

    patches.set(ResultStore, "fetch", traced_fetch)
    patches.wrap(log, "experiments.store.put", ResultStore, "put",
                 "experiments.store.puts")
    patches.wrap(log, "serve.submit", ServeClient, "submit_specs", "serve.jobs")
    patches.wrap(log, "serve.wait", ServeClient, "wait")
    patches.wrap(log, "serve.poll", ServeClient, "job", "serve.polls")
    patches.wrap(log, "serve.results", ServeClient, "result")
    patches.wrap(log, "serve.client", ServeClient, "run_many")
    patches.wrap(log, "serve.daemon", ExperimentServer, "submit")


def patch_verify(log: SpanLog, patches: Patches) -> None:
    """Model checker: the search loop and the successor function."""
    patches.wrap(log, "verify.search", verify_checker, "explore")
    successors = ProtocolModel.__dict__["successors"]
    enter, leave = log.enter, log.leave

    @functools.wraps(successors)
    def traced_successors(self, state):
        # Drained inside the span: the original is a generator, so its
        # work happens while the caller iterates, not when it is called.
        frame = enter("verify.successors")
        try:
            return list(successors(self, state))
        finally:
            leave(frame)

    patches.set(ProtocolModel, "successors", traced_successors)


PATCHERS = {
    "fig5-default": patch_simulator,
    "update-mix": patch_simulator,
    "sweep": patch_harness,
    "model-check": patch_verify,
}


class Tracer:
    """Install the workload's patches for the duration of a ``with`` block."""

    def __init__(self, workload: str, log: SpanLog) -> None:
        self.workload = workload
        self.log = log
        self.patches = Patches()

    def __enter__(self) -> "Tracer":
        try:
            PATCHERS[self.workload](self.log, self.patches)
        except BaseException:
            self.patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.patches.restore()


def patch_targets() -> List[Tuple[object, str]]:
    """Every (owner, attribute) any workload's tracer replaces."""
    targets = []
    for patcher in PATCHERS.values():
        patches = Patches()
        patcher(SpanLog(0), patches)
        targets.extend((owner, attr) for owner, attr, _ in patches.saved)
        patches.restore()
    return targets
