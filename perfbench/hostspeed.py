"""The host-speed gauge: a fixed reference chunk timed beside every pass.

On a shared host the same pass can take up to twice as long while other
tenants load the machine's cores and caches, and that drift lasts tens of
seconds, so no amount of work inside one run averages it out; moving from
wall to CPU time does not help either, because the slowdown is in every
instruction, not in time taken away.  The gauge measures that speed beside
the workload: a thread wakes every ``PERIOD_S``, runs a fixed chunk of
pure-Python work (pointer chasing through slotted objects and dict
lookups, the simulator's own mix of operations) and times it by its own
CPU clock.  The gated timings of a pass are its CPU seconds times
``NOMINAL_S`` over the mean chunk time during the pass, so they read as
CPU seconds on a host where the chunk takes ``NOMINAL_S``.

The chunk calls none of the program's code, so a change to the program
moves the scaled figures as much as the raw ones.  Its price is the
chunk's share of the main thread's time (5-10% of ``wall_s``: the GIL
hands over once per chunk), which falls outside the main thread's CPU
clock, and its 8 MB in ``peak_rss_mb``.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from time import perf_counter, thread_time
from typing import List, Tuple

#: Seconds between two chunks.
PERIOD_S = 0.06
#: Pointer-chasing steps per chunk (3.5-6 ms of CPU on a 2.1 GHz Xeon).
CHUNK_STEPS = 30_000
#: Objects the chunk walks: about 8 MB with their dict, more than a core's
#: L2 holds.
RECORDS = 40_000
#: Chunk CPU seconds a scaled figure is expressed at: a round figure; on
#: the 2-vCPU, 2.1 GHz Xeon host the benchmark was defined on, the chunk
#: took 3.5-6 ms as other tenants' load came and went.
NOMINAL_S = 0.003
#: Fewest chunks a factor is taken over; a shorter pass borrows the latest.
MIN_SAMPLES = 5


class _Record:
    __slots__ = ("value", "flag", "next")


def _build(seed: int = 7):
    """The chunk's data: a random cycle of records and a dict onto them."""
    rng = random.Random(seed)
    records = [_Record() for _ in range(RECORDS)]
    order = list(range(RECORDS))
    rng.shuffle(order)
    for index, record in enumerate(records):
        record.value = index
        record.flag = 0
        record.next = records[order[index]]
    table = {index: records[order[index]] for index in range(RECORDS)}
    return records[0], table


def chunk(start, table, steps: int = CHUNK_STEPS) -> int:
    """The reference work.  It allocates no container, so it never starts
    a garbage collection of the program's heap."""
    record, acc = start, 0
    for _ in range(steps):
        record = record.next
        acc ^= record.value
        record = table[acc % RECORDS]
        record.flag ^= 1
    return acc


class HostSpeed:
    """A thread timing the reference chunk until :meth:`stop`.

    ``samples`` holds one ``(perf_counter at the chunk's end, chunk CPU
    seconds)`` pair per chunk.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[Tuple[float, float]] = []
        self._start, self._table = _build()
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-hostspeed", daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join()

    def _loop(self) -> None:
        # The first chunk only warms the data into the caches.
        chunk(self._start, self._table)
        while not self._stopping.wait(self.period_s):
            began = thread_time()
            chunk(self._start, self._table)
            self.samples.append((perf_counter(), thread_time() - began))

    def cpu_s(self) -> float:
        """CPU seconds the gauge's thread has used, for subtracting from
        a process-wide CPU clock."""
        return time.clock_gettime(time.pthread_getcpuclockid(self._thread.ident))

    def factor(self, start: float, end: float) -> float:
        """Mean chunk time over ``[start, end]`` (``perf_counter`` seconds)
        relative to ``NOMINAL_S``; above 1 on a host slower than nominal."""
        window = [d for t, d in self.samples if start <= t <= end]
        if len(window) < MIN_SAMPLES:
            window = [d for _, d in self.samples[-MIN_SAMPLES:]]
        if not window:
            raise RuntimeError("host-speed gauge has no sample yet")
        return statistics.fmean(window) / NOMINAL_S
