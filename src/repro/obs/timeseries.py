"""Periodic machine-metrics sampling into a bounded ring buffer.

A :class:`MetricsSampler` is a self-rescheduling simulation event: every
``interval`` pclocks it snapshots queue depths (MSHRs, directory pending
lists, in-flight messages, the event queue itself) and windowed resource
occupancy (local buses, memory modules, both meshes) into a
:class:`MetricsRing`.  The ring is bounded (``deque(maxlen=...)``), so a
long run keeps the most recent ``capacity`` samples and counts the rest
as dropped.

Termination: the sampler must not keep the event queue alive forever, or
runs would never drain (and real deadlocks would spin instead of raising
:class:`~repro.sim.engine.DeadlockError`).  At each tick it compares the
engine's ``events_processed`` against the previous tick; if at most one
event fired in the window — i.e. only the sampler itself is alive — it
stops rescheduling and lets the queue drain.
"""

from __future__ import annotations

import json
from collections import deque
from typing import List, Optional, Sequence, Tuple

#: Column order of every sample row.
COLUMNS = (
    "time",              # pclock of the sample
    "events_queued",     # simulator queue size
    "mshrs",             # outstanding MSHRs across all cache controllers
    "dir_pending",       # queued + in-flight transactions at all directories
    "msgs_inflight",     # coherence messages between injection and dispatch
    "bus_util",          # mean local-bus occupancy over the window [0..1+]
    "mem_util",          # mean memory-module occupancy over the window
    "req_net_util",      # mean request-mesh link occupancy over the window
    "reply_net_util",    # mean reply-mesh link occupancy over the window
    "updates_sent",      # cumulative Upd fan-out (write-update protocols)
    "uacks_sent",        # cumulative Uack acknowledgements
    "update_fallbacks",  # cumulative hybrid update->invalidate fallbacks
)


class MetricsRing:
    """Bounded ring of metric samples with CSV/JSON export."""

    def __init__(
        self, columns: Sequence[str] = COLUMNS, capacity: int = 4096
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.columns: Tuple[str, ...] = tuple(columns)
        self.capacity = capacity
        self._rows: deque = deque(maxlen=capacity)
        #: Samples ever appended (``total_samples - len(self)`` were evicted).
        self.total_samples = 0

    def append(self, row: Sequence) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} fields, expected {len(self.columns)}"
            )
        self._rows.append(tuple(row))
        self.total_samples += 1

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[tuple]:
        """The retained samples, oldest first."""
        return list(self._rows)

    @property
    def dropped(self) -> int:
        """Samples evicted by the capacity bound."""
        return self.total_samples - len(self._rows)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self._rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())

    def to_json(self) -> dict:
        return {
            "schema": "repro-metrics/1",
            "columns": list(self.columns),
            "capacity": self.capacity,
            "samples": self.total_samples,
            "dropped": self.dropped,
            "rows": [list(row) for row in self._rows],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class MetricsSampler:
    """Samples a :class:`~repro.machine.system.Machine` every ``interval``.

    The sampler only reads component state the machine already keeps
    (queue sizes, ``Resource.busy_time``), so attaching one perturbs
    neither protocol behaviour nor timing: its events interleave with the
    machine's at tick boundaries but mutate nothing.
    """

    def __init__(self, machine, interval: int, capacity: int = 4096) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.machine = machine
        self.interval = interval
        self.ring = MetricsRing(capacity=capacity)
        self._stopped = False
        self._last_events = 0
        self._last_time = 0
        # Windowed occupancy baselines (cumulative busy_time at last tick).
        self._last_busy = [0, 0, 0, 0]  # bus, mem, request mesh, reply mesh

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling (call before ``machine.run``)."""
        self._stopped = False
        sim = self.machine.sim
        self._last_events = sim.events_processed
        self._last_time = sim.now
        self._last_busy = list(self._busy_totals())
        sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Stop sampling after the currently scheduled tick fires."""
        self._stopped = True

    # ------------------------------------------------------------------
    def _busy_totals(self) -> Tuple[int, int, int, int]:
        m = self.machine
        bus = sum(b.resource.busy_time for b in m.buses)
        mem = sum(mod.resource.busy_time for mod in m.memories)
        req = sum(l.busy_time for l in m.fabric.request_mesh.links.values())
        rep = sum(l.busy_time for l in m.fabric.reply_mesh.links.values())
        return bus, mem, req, rep

    def _tick(self) -> None:
        m = self.machine
        sim = m.sim
        now = sim.now
        counters = m.counters
        window = now - self._last_time
        busy = self._busy_totals()
        n_bus = len(m.buses) or 1
        n_mem = len(m.memories) or 1
        n_req = len(m.fabric.request_mesh.links) or 1
        n_rep = len(m.fabric.reply_mesh.links) or 1
        if window > 0:
            utils = [
                (busy[0] - self._last_busy[0]) / (window * n_bus),
                (busy[1] - self._last_busy[1]) / (window * n_mem),
                (busy[2] - self._last_busy[2]) / (window * n_req),
                (busy[3] - self._last_busy[3]) / (window * n_rep),
            ]
        else:
            utils = [0.0, 0.0, 0.0, 0.0]
        self.ring.append(
            (
                now,
                sim.pending(),
                sum(len(c.mshrs) for c in m.caches),
                sum(
                    len(e.pending) + (e.inflight is not None)
                    for d in m.directories
                    for e in d.entries.values()
                ),
                len(m.transport.introspect()),
                utils[0],
                utils[1],
                utils[2],
                utils[3],
                counters.get("updates_sent"),
                counters.get("uacks_sent"),
                counters.get("update_fallbacks"),
            )
        )
        events = sim.events_processed
        # Quiescence test: if at most one event (this tick itself) fired
        # since the previous tick, the machine is done or deadlocked —
        # stop rescheduling so the queue can drain and the run terminate.
        quiescent = self._last_time != 0 and events - self._last_events <= 1
        self._last_events = events
        self._last_time = now
        self._last_busy = list(busy)
        if not self._stopped and not quiescent:
            sim.schedule(self.interval, self._tick)
