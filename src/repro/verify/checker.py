"""Exhaustive state-space exploration of the protocol model.

Breadth-first search over every reachable state of
:class:`~repro.verify.model.ProtocolModel`, checking in each state:

* **single writer** — at most one cache holds the block Dirty/Migrating;
* **value coherence** — a writable copy carries the latest committed
  version (so the next write cannot lose an update; committing itself
  re-checks);
* **directory sanity** — a Dirty/Migratory-Dirty directory entry has an
  owner; Uncached/Migratory-Uncached means no cache holds a writable
  copy and home's version is the latest (unless messages are still in
  flight);
* **no stuck states** — every non-final state has at least one enabled
  transition, and every final (quiescent) state is *clean*: channels
  empty, no MSHRs, home not busy, the latest version resides where the
  directory says it should, and every Shared copy holds it.

Exploration is exhaustive for the bounded model (N caches, K ops each),
which covers every message interleaving the channel semantics allow —
including the races the timed test suite can only sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Set, Tuple

from repro.verify.model import (
    D,
    DR,
    M,
    MD,
    MU,
    ProtocolModel,
    ProtocolViolation,
    S,
    SR,
    State,
    U,
)


@dataclass
class ExplorationResult:
    states_explored: int
    transitions: int
    final_states: int
    max_depth: int
    #: Reachable (directory state, sorted cache line states) combinations —
    #: used to cross-check the timed simulator's reachable set.
    state_shapes: Set[Tuple[str, Tuple[str, ...]]] = field(default_factory=set)

    def summary(self) -> str:
        return (
            f"{self.states_explored} states, {self.transitions} transitions, "
            f"{self.final_states} quiescent, depth {self.max_depth}, "
            f"{len(self.state_shapes)} protocol shapes"
        )


class StuckStateError(ProtocolViolation):
    """A non-quiescent state has no enabled transitions (deadlock)."""


class StateLimitExceeded(Exception):
    """The search reached ``max_states`` before it finished.

    Not a :class:`ProtocolViolation`: it says the bounded model is larger
    than the cap, not that the protocol is wrong, and it gives no verdict.
    """

    def __init__(self, max_states: int) -> None:
        super().__init__(f"state space exceeded {max_states} states")
        self.max_states = max_states


def _check_state(state: State) -> None:
    owners = [n for n, c in enumerate(state.caches) if c.line in (D, M)]
    if len(owners) > 1:
        raise ProtocolViolation(f"multiple writable copies: caches {owners}")
    for node in owners:
        cache = state.caches[node]
        if cache.version != state.latest:
            raise ProtocolViolation(
                f"cache {node} owns the block at version {cache.version}, "
                f"latest is {state.latest}"
            )
    home = state.home
    if home.dir in (DR, MD) and home.owner == -2 and not home.busy:
        raise ProtocolViolation(f"{home.dir} with no owner")


def _is_quiescent(state: State) -> bool:
    if state.channels or state.home.busy or state.home.pending:
        return False
    return all(
        c.mshr is None and c.ops_left == 0 and c.wb == 0 and not c.deferred
        for c in state.caches
    )


def _check_quiescent(state: State) -> None:
    """A drained machine must store the latest version where the
    directory claims it lives, and every shared copy must hold it."""
    home = state.home
    # Every Shared copy, listed by home or not: a copy an invalidation
    # missed is not in home's sharer set.
    for node, cache in enumerate(state.caches):
        if cache.line == S and cache.version != state.latest:
            raise ProtocolViolation(
                f"quiescent sharer {node} at stale version {cache.version}"
            )
    if home.dir in (U, SR, MU):
        if home.version != state.latest:
            raise ProtocolViolation(
                f"quiescent {home.dir}: home holds version {home.version}, "
                f"latest is {state.latest}"
            )
    else:
        owner_cache = state.caches[home.owner]
        if owner_cache.line not in (D, M):
            raise ProtocolViolation(
                f"quiescent {home.dir}: owner {home.owner} has {owner_cache.line}"
            )
        if owner_cache.version != state.latest:
            raise ProtocolViolation(
                f"quiescent owner at version {owner_cache.version}, "
                f"latest {state.latest}"
            )


def explore(
    model: ProtocolModel, max_states: int = 2_000_000
) -> ExplorationResult:
    """BFS over the full reachable state space; raises on any violation.

    Raises :class:`StateLimitExceeded` if more than ``max_states`` states
    are reachable.
    """
    initial = model.initial()
    seen: Set[State] = {initial}
    frontier: deque = deque([(initial, 0)])
    transitions = 0
    final_states = 0
    max_depth = 0
    shapes: Set[Tuple[str, Tuple[str, ...]]] = set()

    while frontier:
        state, depth = frontier.popleft()
        max_depth = depth  # BFS pops states in nondecreasing depth
        _check_state(state)
        shapes.add(
            (state.home.dir, tuple(sorted([c.line for c in state.caches])))
        )
        successors = list(model.successors(state))
        if not successors:
            if not _is_quiescent(state):
                raise StuckStateError(
                    f"stuck non-quiescent state at depth {depth}: {state}"
                )
            _check_quiescent(state)
            final_states += 1
            continue
        transitions += len(successors)
        for _label, nxt in successors:
            # Tuples do not cache their hash, so hash each successor once:
            # the set grew iff ``nxt`` is new.
            size = len(seen)
            seen.add(nxt)
            if len(seen) > size:
                if size >= max_states:
                    raise StateLimitExceeded(max_states)
                frontier.append((nxt, depth + 1))

    return ExplorationResult(
        states_explored=len(seen),
        transitions=transitions,
        final_states=final_states,
        max_depth=max_depth,
        state_shapes=shapes,
    )
