"""Exhaustive model checking of the coherence protocol."""

from repro.verify.checker import (
    ExplorationResult,
    StateLimitExceeded,
    StuckStateError,
    explore,
)
from repro.verify.model import ProtocolModel, ProtocolViolation, State

__all__ = [
    "ExplorationResult",
    "ProtocolModel",
    "ProtocolViolation",
    "State",
    "StateLimitExceeded",
    "StuckStateError",
    "explore",
]
