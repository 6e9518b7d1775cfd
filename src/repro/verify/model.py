"""Untimed protocol model for exhaustive state-space exploration.

The timed simulator exercises the protocol along whichever interleavings
its (deterministic) event order produces; this module re-states the same
protocol family — W-I base, the adaptive extension, MESI exclusive
grants, Dragon write-update, and the competitive hybrid — as a
nondeterministic transition system over ONE memory block, a home
directory, and N caches, so that *every* reachable interleaving can be
enumerated and checked (:mod:`repro.verify.checker`).

Faithfulness to the implementation:

* messages travel on FIFO channels per (src, dst, network), matching the
  mesh's point-to-point ordering;
* the home serializes transactions per block with a busy latch + queue,
  NAKs forwards that miss, and retries after the writeback lands;
* caches acknowledge invalidations immediately (consume-once shared
  fills), defer forwards behind their own outstanding transaction unless
  a writeback is in flight, and hold migrated lines unreplaceable until
  home's MIack;
* update protocols (Dragon/hybrid) commit stores at the home: a Wu in
  SR bumps home's version, replies Wup to the writer (who stays a
  sharer) and Upd to every other sharer, each acked with Uack; the
  hybrid falls back to the invalidate flow once the per-line update
  counter passes the policy threshold, and a consumer read resets it.

Every state is an immutable tuple, so the checker can hash and dedupe.
Processor behaviour is bounded: each cache may nondeterministically
issue up to ``ops`` operations from {read, write, evict}, which keeps
the space finite (sequential consistency: one outstanding op per cache).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import FrozenSet, Iterator, NamedTuple, Optional, Tuple

from repro.core.detection import should_nominate
from repro.core.policy import ProtocolPolicy
from repro.protocols import behavior_for

# ----------------------------------------------------------------------
# Message and state vocabulary (mirrors repro.coherence.messages/states)
# ----------------------------------------------------------------------
RR, RXQ, FWD_RR, FWD_RXQ, MR, RP, RXP, MACK, INV, IACK = (
    "Rr", "Rxq", "FwdRr", "FwdRxq", "Mr", "Rp", "Rxp", "Mack", "Inv", "Iack",
)
SW, DT, XFER, NOMIG, NAK, WB, WACK, MIACK = (
    "Sw", "DT", "Xfer", "NoMig", "Nak", "Wb", "Wack", "MIack",
)
WU, WUP, UPD, UACK = "Wu", "Wup", "Upd", "Uack"

REPLY_NET = frozenset({RP, RXP, MACK, IACK, SW, NOMIG, WB, NAK, WUP, UACK})

U, SR, DR, MD, MU = "U", "SR", "DR", "MD", "MU"  # directory states
I, S, D, M = "I", "S", "D", "M"  # cache line states

HOME = -1  # node id of the home directory


class Msg(NamedTuple):
    kind: str
    src: int
    dst: int
    requester: int
    version: int = 0
    n_invals: int = 0
    for_write: bool = False
    miack_needed: bool = True

    @property
    def network(self) -> str:
        return "reply" if self.kind in REPLY_NET else "request"


class Mshr(NamedTuple):
    is_write: bool
    data: bool = False
    fill: str = ""          # line state granted by the fill
    version: int = 0
    acks_expected: int = -1  # -1: unknown until Rxp arrives
    acks_got: int = 0
    inval_on_fill: bool = False
    miack_needed: bool = False
    miack_got: bool = False
    committed: bool = False  # write already serialized at home (Wup fill)
    upd_version: int = 0     # newest Upd that raced the fill


class CacheSt(NamedTuple):
    line: str = I
    version: int = 0
    locked: bool = False            # replace_locked (MIack pending)
    mshr: Optional[Mshr] = None
    wb: int = 0                     # writebacks in flight
    deferred: Tuple[Msg, ...] = ()
    ops_left: int = 0


class HomeSt(NamedTuple):
    # The directory entry proper...
    dir: str = U
    sharers: FrozenSet[int] = frozenset()
    owner: int = -2                 # -2: none
    lw: int = -2                    # -2: invalid pointer
    version: int = 0
    # ...then the per-block transaction latch.
    busy: bool = False
    awaiting_wb: bool = False
    inflight: Tuple = ()            # (kind, requester, demote) or ()
    pending: Tuple = ()             # queued (kind, requester)
    upd_count: int = 0              # unconsumed updates (hybrid fallback)


class State(NamedTuple):
    home: HomeSt
    caches: Tuple[CacheSt, ...]
    #: FIFO channels: sorted tuple of ((src, dst, net), (msg, ...)).
    channels: Tuple = ()
    #: Globally latest committed version (the write-serialization oracle).
    latest: int = 0


class ProtocolViolation(Exception):
    """An invariant failed in some reachable state."""


# ----------------------------------------------------------------------
# Positional construction
# ----------------------------------------------------------------------
# The search builds millions of state tuples, and ``NamedTuple._replace``
# pays for a keyword dict, ``map`` and ``_make`` on every call.  The
# transition relation instead unpacks a state into locals and rebuilds it
# from all of its fields in declaration order; a partial of
# ``tuple.__new__`` does that in one C call.
_state = partial(tuple.__new__, State)
_home = partial(tuple.__new__, HomeSt)
_cache = partial(tuple.__new__, CacheSt)
_mshr = partial(tuple.__new__, Mshr)

#: The MSHR a processor op allocates (tuples are immutable, so one
#: instance of each serves every miss).
_READ_MISS = Mshr(is_write=False)
_WRITE_MISS = Mshr(is_write=True)

#: Field positions for the single-field updates made with :func:`_with`.
_ACKS_GOT, _INVAL_ON_FILL, _MIACK_GOT, _UPD_VERSION = map(
    Mshr._fields.index, ("acks_got", "inval_on_fill", "miack_got", "upd_version")
)
_UPD_COUNT = HomeSt._fields.index("upd_count")


def _with(record: tuple, field: int, value) -> tuple:
    """``record`` with the field at position ``field`` set to ``value``."""
    return tuple.__new__(
        type(record), record[:field] + (value,) + record[field + 1:]
    )


def _entry(home: HomeSt, dir: str, sharers: FrozenSet[int], owner: int,
           lw: int, version: int) -> HomeSt:
    """``home`` with its directory-entry fields (the first five) replaced."""
    return _home((dir, sharers, owner, lw, version) + home[5:])


def _latch(home: HomeSt, busy: bool, awaiting_wb: bool, inflight: Tuple,
           pending: Tuple) -> HomeSt:
    """``home`` with its transaction-latch fields replaced."""
    return _home(home[:5] + (busy, awaiting_wb, inflight, pending, home.upd_count))


def _set_home(state: State, home: HomeSt, *msgs: Msg) -> State:
    """``state`` with ``home`` installed, then ``msgs`` appended to their
    channels in order."""
    _old, caches, channels, latest = state
    for msg in msgs:
        channels = push(channels, msg)
    return _state((home, caches, channels, latest))


def _set_cache(state: State, node: int, cache: CacheSt, *msgs: Msg) -> State:
    """``state`` with cache ``node`` replaced, then ``msgs`` sent."""
    home, caches, channels, latest = state
    for msg in msgs:
        channels = push(channels, msg)
    caches = caches[:node] + (cache,) + caches[node + 1:]
    return _state((home, caches, channels, latest))


# ----------------------------------------------------------------------
# Channel helpers
# ----------------------------------------------------------------------
# ``channels`` stays sorted by key, so a message is inserted or removed
# in place: ``(key,)`` sorts before ``(key, queue)`` and after every
# smaller key, so ``bisect_left`` finds the key's slot.
def push(channels: Tuple, msg: Msg) -> Tuple:
    key = (msg.src, msg.dst, msg.network)
    index = bisect_left(channels, (key,))
    if index < len(channels) and channels[index][0] == key:
        queue = channels[index][1] + (msg,)
        return channels[:index] + ((key, queue),) + channels[index + 1:]
    return channels[:index] + ((key, (msg,)),) + channels[index:]


def pop(channels: Tuple, key) -> Tuple[Msg, Tuple]:
    index = bisect_left(channels, (key,))
    if index == len(channels) or channels[index][0] != key:
        raise KeyError(key)
    return _pop_at(channels, index)


def _pop_at(channels: Tuple, index: int) -> Tuple[Msg, Tuple]:
    """The head of the ``index``-th channel, and the table without it."""
    key, queue = channels[index]
    if len(queue) > 1:
        return queue[0], channels[:index] + ((key, queue[1:]),) + channels[index + 1:]
    return queue[0], channels[:index] + channels[index + 1:]


# ----------------------------------------------------------------------
# The transition relation
# ----------------------------------------------------------------------
class ProtocolModel:
    """Enumerates successors of a protocol state."""

    def __init__(self, num_caches: int = 3, ops: int = 2,
                 policy: Optional[ProtocolPolicy] = None) -> None:
        self.num_caches = num_caches
        self.ops = ops
        self.policy = policy or ProtocolPolicy.adaptive_default()
        self.protocol = behavior_for(self.policy)
        self._grant_exclusive = self.protocol.grant_exclusive_on_read
        self._clean_exclusive = self.protocol.clean_exclusive
        self._is_update = self.protocol.is_update

    # ------------------------------------------------------------------
    def initial(self) -> State:
        return State(
            home=HomeSt(),
            caches=tuple(CacheSt(ops_left=self.ops) for _ in range(self.num_caches)),
        )

    def successors(self, state: State) -> Iterator[Tuple[str, State]]:
        """Yield (label, next_state) for every enabled transition."""
        home, caches, channels, latest = state
        # 1. Processor actions.
        for node, cache in enumerate(caches):
            if cache.ops_left <= 0 or cache.mshr is not None:
                continue
            yield from self._processor_actions(state, node, cache)
        # 2. Message deliveries (one per channel head).
        for index in range(len(channels)):
            msg, rest = _pop_at(channels, index)
            base = _state((home, caches, rest, latest))
            if msg.dst == HOME:
                yield f"home<-{msg.kind}@{msg.src}", self._home_handle(base, msg)
            else:
                yield (
                    f"c{msg.dst}<-{msg.kind}",
                    self._cache_handle(base, msg.dst, msg),
                )

    # ------------------------------------------------------------------
    # Processor actions
    # ------------------------------------------------------------------
    def _processor_actions(self, state, node, cache):
        line, version, locked, _mshr_none, wb, deferred, ops_left = cache
        ops_left -= 1
        # Read.
        if line in (S, D, M):
            spent = _cache((line, version, locked, None, wb, deferred, ops_left))
            yield f"c{node}.read-hit", _set_cache(state, node, spent)
        else:
            miss = _cache((line, version, locked, _READ_MISS, wb, deferred, ops_left))
            yield f"c{node}.read-miss", _set_cache(
                state, node, miss, Msg(RR, node, HOME, node)
            )
        # Write.
        if line in (D, M):
            home, caches, channels, latest = state
            latest = self._commit_write(node, version, latest)
            written = _cache((D, latest, locked, None, wb, deferred, ops_left))
            caches = caches[:node] + (written,) + caches[node + 1:]
            yield f"c{node}.write-hit", _state((home, caches, channels, latest))
        else:
            store_kind = WU if self._is_update else RXQ
            miss = _cache((line, version, locked, _WRITE_MISS, wb, deferred, ops_left))
            yield f"c{node}.write-miss", _set_cache(
                state, node, miss, Msg(store_kind, node, HOME, node)
            )
        # Eviction (replacement): silent for shared, writeback for owned.
        if line == S:
            evicted = _cache((I, 0, locked, None, wb, deferred, ops_left))
            yield f"c{node}.evict-s", _set_cache(state, node, evicted)
        elif line in (D, M) and not locked:
            evicted = _cache((I, 0, locked, None, wb + 1, deferred, ops_left))
            yield f"c{node}.evict-d", _set_cache(
                state, node, evicted, Msg(WB, node, HOME, node, version=version)
            )

    def _commit_write(self, node: int, old_version: int, latest: int) -> int:
        """Serialize a write of ``node`` on ``old_version``; the new latest."""
        if old_version != latest:
            raise ProtocolViolation(
                f"lost update: cache {node} wrote on version {old_version}, "
                f"latest is {latest}"
            )
        return latest + 1

    # ------------------------------------------------------------------
    # Home directory (mirrors repro.coherence.directory)
    # ------------------------------------------------------------------
    def _home_handle(self, state: State, msg: Msg) -> State:
        home = state.home
        kind = msg.kind
        if kind in (RR, RXQ, WU):
            if home.busy:
                pending = home.pending + ((kind, msg.requester),)
                return _set_home(
                    state,
                    _latch(home, home.busy, home.awaiting_wb, home.inflight, pending),
                )
            return self._home_process(state, kind, msg.requester)
        if kind == SW:
            sharers = frozenset({msg.src, msg.requester})
            return self._home_complete(
                state, _entry(home, SR, sharers, -2, home.lw, msg.version)
            )
        if kind == XFER:
            requester = msg.requester
            home = _entry(home, DR, frozenset(), requester, requester, home.version)
            return self._home_complete(
                state, home, Msg(MIACK, HOME, requester, requester)
            )
        if kind == DT:
            _k, requester, demote = home.inflight
            if demote:
                home = _entry(home, DR, frozenset(), requester, requester, home.version)
            else:
                home = _entry(home, MD, frozenset(), requester, home.lw, home.version)
            return self._home_complete(
                state, home, Msg(MIACK, HOME, requester, requester)
            )
        if kind == NOMIG:
            sharers = frozenset({msg.src, msg.requester})
            return self._home_complete(
                state, _entry(home, SR, sharers, -2, -2, msg.version)
            )
        if kind == NAK:
            inflight_kind, requester, _demote = home.inflight
            pending = ((inflight_kind, requester),) + home.pending
            if home.dir in (U, SR, MU):
                home = _latch(home, False, home.awaiting_wb, (), pending)
                return self._home_drain(_set_home(state, home))
            return _set_home(state, _latch(home, home.busy, True, (), pending))
        if kind == WB:
            if home.owner != msg.src:
                raise ProtocolViolation(
                    f"writeback from {msg.src} but owner is {home.owner}"
                )
            home = _entry(
                home, MU if home.dir == MD else U, home.sharers, -2, home.lw,
                msg.version,
            )
            wack = Msg(WACK, HOME, msg.src, msg.src)
            if home.busy and home.awaiting_wb:
                home = _latch(home, False, False, home.inflight, home.pending)
                return self._home_drain(_set_home(state, home, wack))
            return _set_home(state, home, wack)
        raise ProtocolViolation(f"home got unexpected {msg}")

    def _home_process(self, state: State, kind: str, requester: int) -> State:
        home = state.home
        if kind == WU:
            return self._home_process_wu(state, requester)
        if kind == RR:
            # A consumer read resets the hybrid's unconsumed-update count.
            if self._is_update and home.upd_count:
                home = _with(home, _UPD_COUNT, 0)
                state = _set_home(state, home)
            if home.dir == U and self._grant_exclusive:
                home = _entry(home, DR, frozenset(), requester, requester, home.version)
                return _set_home(
                    state, home,
                    Msg(MACK, HOME, requester, requester,
                        version=home.version, miack_needed=False),
                )
            if home.dir in (U, SR):
                sharers = home.sharers | {requester}
                lw = -2 if len(sharers) > 2 else home.lw
                home = _entry(home, SR, sharers, home.owner, lw, home.version)
                return _set_home(
                    state, home,
                    Msg(RP, HOME, requester, requester, version=home.version),
                )
            if home.dir == MU:
                home = _entry(home, MD, frozenset(), requester, home.lw, home.version)
                return _set_home(
                    state, home,
                    Msg(MACK, HOME, requester, requester,
                        version=home.version, miack_needed=False),
                )
            if home.dir == DR:
                if home.owner == requester:
                    return self._wait_wb(state, kind, requester)
                return self._forward(state, FWD_RR, requester, demote=False)
            if home.dir == MD:
                if home.owner == requester:
                    return self._wait_wb(state, kind, requester)
                return self._forward(state, MR, requester, demote=False)
        else:  # RXQ
            if home.dir == U:
                home = _entry(home, DR, frozenset(), requester, requester, home.version)
                return _set_home(
                    state, home,
                    Msg(RXP, HOME, requester, requester,
                        version=home.version, n_invals=0, miack_needed=False),
                )
            if home.dir == SR:
                others = home.sharers - {requester}
                lw_value = None if home.lw == -2 else home.lw
                nominate = self.policy.adaptive and should_nominate(
                    len(home.sharers), requester, lw_value
                )
                home = _entry(
                    home, MD if nominate else DR, frozenset(), requester,
                    requester, home.version,
                )
                return _set_home(
                    state, home,
                    Msg(RXP, HOME, requester, requester,
                        version=home.version, n_invals=len(others),
                        miack_needed=False),
                    *[Msg(INV, HOME, s, requester) for s in sorted(others)],
                )
            if home.dir == MU:
                if self.policy.rxq_reverts_to_ordinary:
                    home = _entry(home, DR, frozenset(), requester, requester,
                                  home.version)
                else:
                    home = _entry(home, MD, frozenset(), requester, home.lw,
                                  home.version)
                return _set_home(
                    state, home,
                    Msg(RXP, HOME, requester, requester,
                        version=home.version, n_invals=0, miack_needed=False),
                )
            if home.dir == DR:
                if home.owner == requester:
                    return self._wait_wb(state, kind, requester)
                return self._forward(state, FWD_RXQ, requester, demote=False)
            if home.dir == MD:
                if home.owner == requester:
                    return self._wait_wb(state, kind, requester)
                return self._forward(
                    state, MR, requester,
                    demote=self.policy.rxq_reverts_to_ordinary, for_write=True,
                )
        raise ProtocolViolation(f"unhandled {kind} in {home.dir}")

    def _home_process_wu(self, state: State, requester: int) -> State:
        """A write under an update protocol: commit at home and push
        updates, or (hybrid past its threshold) fall back to invalidate."""
        home, caches, channels, latest = state
        if home.dir == SR:
            others = home.sharers - {requester}
            if others and self.protocol.use_update(len(others), home.upd_count):
                if home.version != latest:
                    raise ProtocolViolation(
                        f"update commit on stale home version {home.version}, "
                        f"latest is {latest}"
                    )
                version = latest + 1
                home = _home((
                    home.dir, home.sharers | {requester}, home.owner, home.lw,
                    version, home.busy, home.awaiting_wb, home.inflight,
                    home.pending, home.upd_count + 1,
                ))
                channels = push(
                    channels,
                    Msg(WUP, HOME, requester, requester,
                        version=version, n_invals=len(others)),
                )
                for s in sorted(others):
                    channels = push(
                        channels, Msg(UPD, HOME, s, requester, version=version)
                    )
                return _state((home, caches, channels, version))
            if others:
                # Threshold exceeded: reset and take the invalidate flow.
                state = _set_home(state, _with(home, _UPD_COUNT, 0))
        # Uncached, sole-sharer upgrade, or owned elsewhere: the ordinary
        # read-exclusive flow handles every one of those cases.
        return self._home_process(state, RXQ, requester)

    def _forward(self, state, fwd_kind, requester, demote, for_write=False):
        home = state.home
        return _set_home(
            state,
            _latch(home, True, home.awaiting_wb, (fwd_kind, requester, demote),
                   home.pending),
            Msg(fwd_kind, HOME, home.owner, requester, for_write=for_write),
        )

    def _wait_wb(self, state, kind, requester):
        home = state.home
        pending = ((kind, requester),) + home.pending
        return _set_home(state, _latch(home, True, True, (), pending))

    def _home_complete(self, state: State, home: HomeSt, *msgs: Msg) -> State:
        """Install ``home``, send ``msgs``, end the transaction and drain."""
        home = _latch(home, False, home.awaiting_wb, (), home.pending)
        return self._home_drain(_set_home(state, home, *msgs))

    def _home_drain(self, state: State) -> State:
        home = state.home
        while home.pending and not home.busy:
            (kind, requester), rest = home.pending[0], home.pending[1:]
            state = _set_home(
                state, _latch(home, home.busy, home.awaiting_wb, home.inflight, rest)
            )
            state = self._home_process(state, kind, requester)
            home = state.home
        return state

    # ------------------------------------------------------------------
    # Cache controller (mirrors repro.coherence.cache_ctrl)
    # ------------------------------------------------------------------
    def _cache_handle(self, state: State, node: int, msg: Msg) -> State:
        cache = state.caches[node]
        kind = msg.kind
        if kind in (RP, RXP, MACK, WUP):
            # A data fill: record it in the MSHR, then retire if complete.
            m = cache.mshr
            acks_expected, miack_needed, committed = (
                m.acks_expected, m.miack_needed, m.committed
            )
            if kind == RP:
                fill = S
            elif kind == RXP:
                fill, acks_expected = D, msg.n_invals
                miack_needed = msg.miack_needed
            elif kind == MACK:
                fill, acks_expected = (D if m.is_write else M), 0
                miack_needed = msg.miack_needed
            else:  # WUP: the store already committed at home
                fill, acks_expected, committed = S, msg.n_invals, True
            mshr = _mshr((
                m.is_write, True, fill, msg.version, acks_expected, m.acks_got,
                m.inval_on_fill, miack_needed, m.miack_got, committed,
                m.upd_version,
            ))
            return self._maybe_retire(state, node, cache, mshr)
        line, version, locked, mshr, wb, deferred, ops_left = cache
        if kind == UPD:
            if line == S:
                if msg.version > version:
                    version = msg.version
            elif line in (D, M) and msg.version > version:
                raise ProtocolViolation(
                    f"update v{msg.version} hit writable line at cache {node}"
                )
            if mshr is not None and msg.version > mshr.upd_version:
                mshr = _with(mshr, _UPD_VERSION, msg.version)
            return _set_cache(
                state, node,
                _cache((line, version, locked, mshr, wb, deferred, ops_left)),
                Msg(UACK, node, msg.requester, msg.requester),
            )
        if kind in (IACK, UACK):
            mshr = _with(mshr, _ACKS_GOT, mshr.acks_got + 1)
            return self._maybe_retire(state, node, cache, mshr)
        if kind == MIACK:
            if mshr is not None:
                mshr = _with(mshr, _MIACK_GOT, True)
            else:
                locked = False
            return _set_cache(
                state, node,
                _cache((line, version, locked, mshr, wb, deferred, ops_left)),
            )
        if kind == INV:
            if line == S:
                line, version = I, 0
            elif line in (D, M):
                raise ProtocolViolation(f"Inv hit owned line at cache {node}")
            if mshr is not None and (not mshr.is_write or self._is_update):
                mshr = _with(mshr, _INVAL_ON_FILL, True)
            return _set_cache(
                state, node,
                _cache((line, version, locked, mshr, wb, deferred, ops_left)),
                Msg(IACK, node, msg.requester, msg.requester),
            )
        if kind in (FWD_RR, FWD_RXQ, MR):
            return self._serve_forward(state, node, msg)
        if kind == WACK:
            if wb <= 0:
                raise ProtocolViolation(f"Wack with no writeback at cache {node}")
            return _set_cache(
                state, node,
                _cache((line, version, locked, mshr, wb - 1, deferred, ops_left)),
            )
        raise ProtocolViolation(f"cache {node} got unexpected {msg}")

    def _serve_forward(self, state: State, node: int, msg: Msg) -> State:
        line, version, locked, mshr, wb, deferred, ops_left = state.caches[node]
        if wb > 0:
            return _set_home(state, state.home, Msg(NAK, node, HOME, msg.requester))
        if mshr is not None:
            deferred = deferred + (msg,)
            return _set_cache(
                state, node,
                _cache((line, version, locked, mshr, wb, deferred, ops_left)),
            )
        if line == I:
            raise ProtocolViolation(
                f"forward {msg.kind} to cache {node} with no copy or writeback"
            )
        owned = (D, M) if self._clean_exclusive else (D,)
        requester = msg.requester
        if msg.kind == FWD_RR:
            if line not in owned:
                raise ProtocolViolation(f"FwdRr hit {line} at {node}")
            msgs = (
                Msg(RP, node, requester, requester, version=version),
                Msg(SW, node, HOME, requester, version=version),
            )
            line = S
        elif msg.kind == FWD_RXQ:
            if line not in owned:
                raise ProtocolViolation(f"FwdRxq hit {line} at {node}")
            msgs = (
                Msg(RXP, node, requester, requester, version=version, n_invals=0),
                Msg(XFER, node, HOME, requester),
            )
            line, version = I, 0
        else:  # MR
            if line == M and not msg.for_write and self.policy.nomig_enabled:
                msgs = (
                    Msg(RP, node, requester, requester, version=version),
                    Msg(NOMIG, node, HOME, requester, version=version),
                )
                line, locked = S, False
            elif line in (D, M):
                msgs = (
                    Msg(MACK, node, requester, requester,
                        version=version, miack_needed=True),
                    Msg(DT, node, HOME, requester),
                )
                line, version, locked = I, 0, False
            else:
                raise ProtocolViolation(f"Mr hit {line} at {node}")
        return _set_cache(
            state, node,
            _cache((line, version, locked, mshr, wb, deferred, ops_left)),
            *msgs,
        )

    def _maybe_retire(self, state: State, node: int, cache: CacheSt,
                      mshr: Mshr) -> State:
        """Install ``mshr`` on ``cache``; retire the op if it is complete."""
        line, version, locked, _old, wb, deferred, ops_left = cache
        if not mshr.data or (
            mshr.is_write
            and (mshr.acks_expected < 0 or mshr.acks_got < mshr.acks_expected)
        ):
            # No data yet, or a write still counting acks (-1: unknown
            # until the Rxp arrives).
            return _set_cache(
                state, node,
                _cache((line, version, locked, mshr, wb, deferred, ops_left)),
            )
        # Retire.  A raced Upd can carry a newer version than the fill;
        # versions only move forward.
        home, caches, channels, latest = state
        if mshr.inval_on_fill and mshr.fill == S:
            line, version = I, 0  # consume once
        else:
            line = mshr.fill
            version = max(mshr.version, mshr.upd_version)
            locked = mshr.miack_needed and not mshr.miack_got
            if mshr.is_write and not mshr.committed:
                latest = self._commit_write(node, version, latest)
                version = latest
        retired = _cache((line, version, locked, None, wb, (), ops_left))
        caches = caches[:node] + (retired,) + caches[node + 1:]
        state = _state((home, caches, channels, latest))
        # Serve deferred forwards in order.
        for fwd in deferred:
            state = self._serve_forward(state, node, fwd)
        return state
