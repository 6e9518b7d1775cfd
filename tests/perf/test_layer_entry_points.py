"""Every call still reaches the public entry point of its layer.

The benchmark's traced run (``perfbench/layers.py``) measures each layer
by wrapping its public entry points as class attributes before a machine
is built: ``Transport.send``, ``Mesh.send``, ``LocalBus.transact``,
``CacheController.handle``, ``DirectoryController.handle`` and the
engine's ``schedule``/``schedule_at``.  A hot-path shortcut that routes
around one of them (a transport calling a bound method cached before the
patch, a mesh scheduling into the calendar directly) keeps every result
identical and silently drops calls from the traced table.

This test wraps the same attributes the same way, runs one tiny cell,
and pins the number of calls that reached each one.  The counts are
whole-run totals (warm-up included), so they do not move with the
end-of-warm-up statistics reset.

Like the traced benchmark run, it needs the pure-Python simulator:
patching cannot reach the classes of a mypyc-compiled engine.  On a
compiled install it is skipped, and the ``REPRO_FORCE_PURE=1`` pass of
the same suite runs it.
"""

from collections import Counter

import pytest

from repro.coherence.cache_ctrl import CacheController
from repro.coherence.directory import DirectoryController
from repro.coherence.transport import Transport
from repro.core.policy import ProtocolPolicy
from repro.experiments.runner import run_workload
from repro.fastpath import fast_path_variant
from repro.memory.bus import LocalBus
from repro.network.mesh import Mesh
from repro.sim.engine import Simulator

ENTRY_POINTS = (
    (Transport, "send"),
    (Mesh, "send"),
    (LocalBus, "transact"),
    (CacheController, "handle"),
    (DirectoryController, "handle"),
    (Simulator, "schedule"),
    (Simulator, "schedule_at"),
)

#: Calls per entry point for mp3d/AD at preset ``tiny``, seed 42.
EXPECTED_CALLS = {
    "Transport.send": 8542,
    "Mesh.send": 8048,
    "LocalBus.transact": 10160,
    "CacheController.handle": 5107,
    "DirectoryController.handle": 3451,
    "Simulator.schedule": 8161,
    "Simulator.schedule_at": 21681,
}


def _counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.skipif(
    fast_path_variant() != "pure",
    reason="patching cannot reach compiled classes; "
    "the REPRO_FORCE_PURE=1 run checks this",
)
def test_patched_entry_points_see_every_call(monkeypatch):
    calls: Counter = Counter()
    for owner, attr in ENTRY_POINTS:
        name = f"{owner.__name__}.{attr}"
        original = owner.__dict__[attr]
        monkeypatch.setattr(owner, attr, _counting(calls, name, original))
    result = run_workload(
        "mp3d", ProtocolPolicy.adaptive_default(), preset="tiny", seed=42
    )
    assert dict(calls) == EXPECTED_CALLS
    # Every event the engine fired was queued through the two patched
    # scheduling calls, so the traced engine wrapper saw all of them.
    assert result.events_processed == (
        calls["Simulator.schedule"] + calls["Simulator.schedule_at"]
    )
