"""Workloads: the paper's four benchmarks (synthetic models) and
micro sharing patterns.

``WORKLOADS`` maps benchmark names to factories; ``make_workload`` builds
one with the default (bench-scale) or paper-scale parameters.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.workloads.base import Workload, fresh_programs
from repro.workloads.cholesky import Cholesky
from repro.workloads.lu import LU
from repro.workloads.mp3d import MP3D
from repro.workloads.synthetic import (
    MigratoryCounters,
    ProducerConsumer,
    ReadOnlySharing,
    UnsynchronizedMix,
)
from repro.workloads.water import Water

WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "mp3d": MP3D,
    "cholesky": Cholesky,
    "water": Water,
    "lu": LU,
    "migratory-counters": MigratoryCounters,
    "producer-consumer": ProducerConsumer,
    "read-only": ReadOnlySharing,
    "random-mix": UnsynchronizedMix,
}

#: Benchmark-scale parameter presets.  "default" is sized so a full
#: 16-node simulation takes seconds in pure Python; "paper" approaches
#: the paper's input sizes (minutes per run).
PRESETS: Dict[str, Dict[str, Dict[str, int]]] = {
    "mp3d": {
        "tiny": {"particles": 128, "steps": 3, "cells": 32},
        "default": {"particles": 512, "steps": 5, "cells": 64},
        "paper": {"particles": 10_000, "steps": 10, "cells": 1024},
    },
    "cholesky": {
        "tiny": {"supernodes": 24, "max_lines": 4},
        "default": {"supernodes": 48, "max_lines": 6},
        "paper": {"supernodes": 420, "max_lines": 12},
    },
    "water": {
        "tiny": {"molecules": 16, "steps": 2},
        "default": {"molecules": 32, "steps": 3},
        "paper": {"molecules": 288, "steps": 4},
    },
    "lu": {
        "tiny": {"columns": 16, "lines_per_column": 2},
        "default": {"columns": 32, "lines_per_column": 4},
        "paper": {"columns": 200, "lines_per_column": 13},
    },
}

PAPER_BENCHMARKS = ("mp3d", "cholesky", "water", "lu")


def make_workload(
    name: str, num_processors: int, preset: str = "default", **overrides
) -> Workload:
    """Build a workload by name with a named parameter preset.

    Micro workloads have no preset table and ignore ``preset``.
    """
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    presets = PRESETS.get(name, {})
    if presets and preset not in presets:
        raise ValueError(
            f"unknown preset {preset!r} for {name}; available: {sorted(presets)}"
        )
    params = dict(presets.get(preset, {}))
    params.update(overrides)
    return factory(num_processors, **params)


__all__ = [
    "Cholesky",
    "LU",
    "MP3D",
    "MigratoryCounters",
    "PAPER_BENCHMARKS",
    "PRESETS",
    "ProducerConsumer",
    "ReadOnlySharing",
    "UnsynchronizedMix",
    "WORKLOADS",
    "Water",
    "Workload",
    "fresh_programs",
    "make_workload",
]
