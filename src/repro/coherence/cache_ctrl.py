"""Cache controller: the processor-side protocol engine.

Handles processor reads/writes against the local cache array, issues
read-miss (Rr) and read-exclusive (Rxq) transactions to home directories,
services forwarded requests (FwdRr / FwdRxq / Mr) as an owner, and
collects invalidation acknowledgements as a requester (DASH style).

Race handling (see DESIGN.md Section 3.1):

* Externally forwarded requests that hit a line with an outstanding MSHR
  are deferred until the fill completes; fills never depend on deferred
  service, so this cannot deadlock.
* Invalidations are *never* deferred: they are acknowledged immediately,
  and a pending read fill is marked consume-once (deliver the value to
  the processor, do not install) — the read is globally ordered before
  the invalidating write because its transaction reached home first.
* A forward that arrives after the line was written back is NAKed while
  the writeback buffer entry exists (until home's Wack).
* A line received through migration (Mack) may not be replaced until
  home's MIack arrives (``replace_locked``); evictions needing a locked
  frame wait for the MIack.

Hot-path layout: processor accesses and fills work on the cache array's
struct-of-arrays columns through frame indices and integer state codes
(``STATE_D``/``STATE_M`` are the top codes, so "writable" is one
comparison); message handling dispatches through a kind-indexed table
(``_dispatch[kind.index]``) instead of an if/elif chain.  The state-code
trick and view objects are documented in :mod:`repro.memory.cache`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.coherence.checker import CoherenceChecker
from repro.coherence.messages import NUM_KINDS, CoherenceMessage, MsgKind
from repro.coherence.transport import Transport
from repro.core.policy import ProtocolPolicy
from repro.protocols import behavior_for
from repro.memory.cache import (
    STATE_D,
    STATE_I,
    STATE_M,
    STATE_S,
    STATES_BY_CODE,
    CacheArray,
    CacheState,
)
from repro.sim.engine import SimulationError, Simulator
from repro.stats.counters import Counters

DoneCallback = Callable[[], None]


class MSHR:
    """Miss status holding register for one outstanding block transaction.

    ``fill_state`` is an integer state code (see ``STATE_*`` in
    :mod:`repro.memory.cache`), or None before data arrives.
    """

    __slots__ = (
        "block",
        "is_write",
        "is_upgrade",
        "is_prefetch",
        "data_received",
        "version",
        "fill_state",
        "acks_expected",
        "acks_received",
        "invalidate_on_fill",
        "miack_needed",
        "miack_received",
        "committed",
        "update_version",
        "waiters",
        "deferred",
        "issued_at",
        "trace",
    )

    def __init__(self, block: int, is_write: bool, is_upgrade: bool, now: int) -> None:
        self.block = block
        self.is_write = is_write
        self.is_upgrade = is_upgrade
        self.is_prefetch = False
        self.data_received = False
        self.version = 0
        self.fill_state: Optional[int] = None
        self.acks_expected: Optional[int] = None
        self.acks_received = 0
        self.invalidate_on_fill = False
        self.miack_needed = False
        self.miack_received = False
        #: Write-update protocols: home committed this write (Wup fill);
        #: retirement installs Shared and must not version the write again.
        self.committed = False
        #: Highest version delivered by an Upd that raced this fill.
        self.update_version = 0
        #: Local processor operations queued behind this miss (WO mode):
        #: list of ("r" | "w", callback).
        self.waiters: List[Tuple[str, DoneCallback]] = []
        #: External forwards deferred until this transaction retires.
        self.deferred: List[CoherenceMessage] = []
        self.issued_at = now
        #: Observability span id (0 = untraced).
        self.trace = 0


class CacheController:
    """One node's cache + its coherence engine."""

    def __init__(
        self,
        node: int,
        sim: Simulator,
        transport: Transport,
        cache: CacheArray,
        home_of: Callable[[int], int],
        policy: ProtocolPolicy,
        checker: CoherenceChecker,
        counters: Counters,
        service_delay: int = 4,
        faults=None,
        tracer=None,
    ) -> None:
        self.node = node
        self.sim = sim
        self.transport = transport
        self.cache = cache
        self.home_of = home_of
        self.policy = policy
        #: Behavior object supplying the protocol-specific decisions
        #: (see :mod:`repro.protocols.base` for the hook contract).
        self.protocol = behavior_for(policy)
        self._store_kind = self.protocol.store_kind
        self._clean_exclusive = self.protocol.clean_exclusive
        self._update_protocol = self.protocol.is_update
        self.checker = checker
        self.counters = counters
        # Pre-resolved integer-slot counter handles (hot path: no string
        # hashing per processor reference).
        self._c_read_hits = counters.handle("read_hits")
        self._c_read_misses = counters.handle("read_misses")
        self._c_write_hits = counters.handle("write_hits")
        self._c_write_misses = counters.handle("write_misses")
        self._c_write_upgrades = counters.handle("write_upgrades")
        self._c_migrating_promotions = counters.handle("migrating_promotions")
        self._c_prefetches_issued = counters.handle("prefetches_issued")
        self._c_cold_misses = counters.handle("cold_misses")
        self._c_coherence_misses = counters.handle("coherence_misses")
        self._c_replacement_misses = counters.handle("replacement_misses")
        self._c_writebacks = counters.handle("writebacks")
        self._c_evictions_clean = counters.handle("evictions_clean")
        self._c_iacks_sent = counters.handle("iacks_sent")
        self._c_updates_applied = counters.handle("updates_applied")
        self._c_uacks_sent = counters.handle("uacks_sent")
        #: Tag check + data-array read time when servicing a forward.
        self.service_delay = service_delay
        #: Optional :class:`~repro.faults.plan.FaultPlan` consulted when a
        #: forward arrives (forced spurious-eviction NAKs).
        self.faults = faults
        #: Optional :class:`~repro.obs.tracer.TransactionTracer`; when set,
        #: every miss/upgrade/prefetch opens a span closed at retirement.
        self.tracer = tracer
        self.mshrs: Dict[int, MSHR] = {}
        #: Dirty data in flight to home: block -> outstanding writeback count.
        self.wb_buffer: Dict[int, int] = {}
        #: Retirements waiting for a replace_locked frame to unlock.
        self._miack_waiters: List[Callable[[], None]] = []
        #: Version observed by the most recent completed processor read
        #: (consumed by consistency litmus tests).
        self.last_read_version = 0
        # Miss classification state.
        self._seen: Set[int] = set()
        self._lost_to_inv: Set[int] = set()
        # Kind-indexed message dispatch table (None = protocol error).
        table: List[Optional[Callable[[CoherenceMessage], None]]] = [None] * NUM_KINDS
        table[MsgKind.RP.index] = self._on_rp
        table[MsgKind.RXP.index] = self._on_rxp
        table[MsgKind.MACK.index] = self._on_mack
        table[MsgKind.IACK.index] = self._on_iack
        table[MsgKind.MIACK.index] = self._on_miack
        table[MsgKind.INV.index] = self._on_invalidate
        table[MsgKind.FWD_RR.index] = self._on_fwd_rr
        table[MsgKind.FWD_RXQ.index] = self._on_fwd_rxq
        table[MsgKind.MR.index] = self._serve_migratory
        table[MsgKind.WACK.index] = self._on_wack
        table[MsgKind.WUP.index] = self._on_wup
        table[MsgKind.UPD.index] = self._on_update
        table[MsgKind.UACK.index] = self._on_iack
        self._dispatch = table
        transport.register_cache(node, self.handle)

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def read(self, addr: int, done: DoneCallback) -> None:
        """Perform a processor read; ``done()`` fires when it completes."""
        cache = self.cache
        block = addr // cache.line_bytes
        mshr = self.mshrs.get(block)
        if mshr is not None:
            mshr.waiters.append(("r", done))
            return
        index = cache.find(block)
        if index >= 0:
            cache._tick += 1
            cache.lru[index] = cache._tick
            self._c_read_hits.inc()
            version = cache.versions[index]
            self.checker.on_read(self.node, block, version)
            self.last_read_version = version
            done()
            return
        self._c_read_misses.inc()
        self._classify_miss(block)
        self._start_miss(block, is_write=False, is_upgrade=False, done=done)

    def write(self, addr: int, done: DoneCallback) -> None:
        """Perform a processor write; ``done()`` fires when it performs."""
        cache = self.cache
        block = addr // cache.line_bytes
        mshr = self.mshrs.get(block)
        if mshr is not None:
            mshr.waiters.append(("w", done))
            return
        index = cache.find(block)
        if index >= 0:
            code = cache.states[index]
            if code >= STATE_D:  # Dirty or Migrating: writable locally.
                if code == STATE_M:
                    # The adaptive protocol's payoff: the write that would
                    # have been a read-exclusive request happens entirely
                    # locally.
                    self._c_migrating_promotions.inc()
                    cache.states[index] = STATE_D
                cache._tick += 1
                cache.lru[index] = cache._tick
                self._c_write_hits.inc()
                cache.versions[index] = self.checker.on_write(
                    self.node, block, cache.versions[index]
                )
                done()
                return
            # Shared: upgrade.
            self._c_write_upgrades.inc()
            self._start_miss(block, is_write=True, is_upgrade=True, done=done)
            return
        self._c_write_misses.inc()
        self._classify_miss(block)
        self._start_miss(block, is_write=True, is_upgrade=False, done=done)

    def prefetch_exclusive(self, addr: int) -> bool:
        """Non-binding read-exclusive prefetch (paper Section 6).

        Requests ownership of the block without blocking the processor.
        Dropped (returns False) when the line is already writable or a
        transaction for the block is outstanding.
        """
        block = self.cache.block_of(addr)
        if block in self.mshrs:
            return False
        index = self.cache.find(block)
        if index >= 0 and self.cache.states[index] >= STATE_D:
            return False
        self._c_prefetches_issued.inc()
        is_upgrade = index >= 0
        mshr = MSHR(block, True, is_upgrade, self.sim.now)
        mshr.is_prefetch = True
        self.mshrs[block] = mshr
        home = self.home_of(block)
        if self.tracer is not None:
            mshr.trace = self.tracer.open(
                self.node, block, home, "prefetch", self.sim.now
            )
        self.transport.send(
            CoherenceMessage(
                src=self.node, dst=home, kind=MsgKind.RXQ,
                block=block, requester=self.node, src_is_cache=True,
                trace=mshr.trace,
            )
        )
        return True

    def outstanding(self) -> int:
        """Number of in-flight transactions (for weak-ordering fences)."""
        return len(self.mshrs)

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _start_miss(
        self, block: int, *, is_write: bool, is_upgrade: bool, done: DoneCallback
    ) -> None:
        mshr = MSHR(block, is_write, is_upgrade, self.sim.now)
        mshr.waiters.append(("w" if is_write else "r", done))
        self.mshrs[block] = mshr
        kind = self._store_kind if is_write else MsgKind.RR
        home = self.home_of(block)
        if self.tracer is not None:
            op = "upgrade" if is_upgrade else ("write" if is_write else "read")
            mshr.trace = self.tracer.open(self.node, block, home, op, self.sim.now)
        self.transport.send(
            CoherenceMessage(
                src=self.node, dst=home, kind=kind,
                block=block, requester=self.node, src_is_cache=True,
                trace=mshr.trace,
            )
        )

    def _classify_miss(self, block: int) -> None:
        if block not in self._seen:
            self._seen.add(block)
            self._c_cold_misses.inc()
        elif block in self._lost_to_inv:
            self._c_coherence_misses.inc()
        else:
            self._c_replacement_misses.inc()
        self._lost_to_inv.discard(block)

    def _ensure_frame(self, block: int) -> bool:
        """Free the frame ``block`` will occupy.  False if blocked on MIack."""
        cache = self.cache
        index = cache.victim_index(block)
        code = cache.states[index]
        if not code:
            return True
        if cache.locked[index]:
            return False
        victim_block = cache.block_from(
            cache.tags[index], index // cache.associativity
        )
        if code >= STATE_D:  # Dirty or Migrating: write back.
            self._c_writebacks.inc()
            self.wb_buffer[victim_block] = self.wb_buffer.get(victim_block, 0) + 1
            version = cache.versions[index]
            self.checker.release_writable(self.node, victim_block)
            self.transport.send(
                CoherenceMessage(
                    src=self.node, dst=self.home_of(victim_block), kind=MsgKind.WB,
                    block=victim_block, requester=self.node,
                    version=version, src_is_cache=True,
                )
            )
        else:
            self._c_evictions_clean.inc()
        cache.states[index] = STATE_I
        cache.tags[index] = -1
        cache.versions[index] = 0
        cache.locked[index] = 0
        return True

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMessage) -> None:
        handler = self._dispatch[msg.kind.index]
        if handler is None:
            raise SimulationError(f"cache {self.node} got unexpected {msg!r}")
        handler(msg)

    def _mshr_for(self, msg: CoherenceMessage) -> MSHR:
        mshr = self.mshrs.get(msg.block)
        if mshr is None:
            raise SimulationError(f"cache {self.node}: no MSHR for {msg!r}")
        return mshr

    def _send_after_service(self, msg: CoherenceMessage) -> None:
        """Send a response after the tag-check/data-array service delay."""
        self.sim.schedule(self.service_delay, self.transport.send, msg)

    # ------------------------------------------------------------------
    # Fills and completion
    # ------------------------------------------------------------------
    def _on_rp(self, msg: CoherenceMessage) -> None:
        self._on_fill(msg, STATE_S)

    def _on_rxp(self, msg: CoherenceMessage) -> None:
        mshr = self._mshr_for(msg)
        mshr.acks_expected = msg.n_invals
        # An RXP from another cache (forwarded Rxq) transfers ownership
        # behind home's back: hold the line until home's MIack.
        mshr.miack_needed = msg.miack_needed
        self._on_fill(msg, STATE_D)

    def _on_mack(self, msg: CoherenceMessage) -> None:
        mshr = self._mshr_for(msg)
        mshr.miack_needed = msg.miack_needed
        self._on_fill(msg, STATE_D if mshr.is_write else STATE_M)

    def _on_iack(self, msg: CoherenceMessage) -> None:
        mshr = self._mshr_for(msg)
        mshr.acks_received += 1
        self._maybe_complete(mshr)

    def _on_wup(self, msg: CoherenceMessage) -> None:
        """Wup: home committed our write; collect Uacks, then install Shared."""
        mshr = self._mshr_for(msg)
        mshr.acks_expected = msg.n_invals
        mshr.committed = True
        self._on_fill(msg, STATE_S)

    def _on_update(self, msg: CoherenceMessage) -> None:
        """Upd: another writer's commit updates our shared copy in place.

        Never deferred (like Inv: deferring the Uack behind our own miss
        could deadlock the writer).  Versions only move forward — a late
        Upd that lost a race against a newer fill or a fallback
        invalidation is dropped; one that claims to be *newer* than a
        writable copy would be real incoherence and raises.
        """
        block = msg.block
        cache = self.cache
        index = cache.find(block)
        if index >= 0:
            code = cache.states[index]
            if code == STATE_S:
                if msg.version > cache.versions[index]:
                    cache.versions[index] = msg.version
                    self._c_updates_applied.inc()
            elif msg.version > cache.versions[index]:
                raise SimulationError(
                    f"cache {self.node}: Upd v{msg.version} for "
                    f"{STATES_BY_CODE[code]} line at "
                    f"v{cache.versions[index]}, block {block}"
                )
        mshr = self.mshrs.get(block)
        if mshr is not None and msg.version > mshr.update_version:
            # Apply at fill time (the fill may carry an older version).
            mshr.update_version = msg.version
        self._c_uacks_sent.inc()
        self.transport.send(
            CoherenceMessage(
                src=self.node, dst=msg.requester, kind=MsgKind.UACK,
                block=block, requester=msg.requester, src_is_cache=True,
                trace=msg.trace,
            )
        )

    def _on_fill(self, msg: CoherenceMessage, state_code: int) -> None:
        mshr = self._mshr_for(msg)
        mshr.data_received = True
        mshr.version = msg.version
        mshr.fill_state = state_code
        self._maybe_complete(mshr)

    def _maybe_complete(self, mshr: MSHR) -> None:
        if not mshr.data_received:
            return
        if (
            mshr.is_write
            and mshr.acks_expected is not None
            and mshr.acks_received < mshr.acks_expected
        ):
            # Still collecting invalidation acks (Rxp fills) or update
            # acks (Wup fills).  (Data from an owner — forwarded Rxq or
            # migration — arrives with acks_expected None and completes
            # immediately.)
            return
        self._retire(mshr)

    def _retire(self, mshr: MSHR) -> None:
        block = mshr.block
        cache = self.cache
        # An invalidation observed while the fill was in flight only voids
        # a *shared* fill: a fill that grants ownership (Rxp/Mack, or a
        # forwarded exclusive reply) was serialized at home after the
        # invalidating write, so it is fresh — and home has recorded us as
        # owner, so we must install it.
        consume_once = mshr.invalidate_on_fill and mshr.fill_state == STATE_S
        # An Upd that overtook the fill (write-update protocols race the
        # Wup against later writers' Upds across meshes) carries the newer
        # version; installs only ever move versions forward.
        fill_version = (
            mshr.version
            if mshr.version >= mshr.update_version
            else mshr.update_version
        )
        if not consume_once:
            fill_code = mshr.fill_state
            index = cache.find(block)
            if index < 0:
                if not self._ensure_frame(block):
                    # Victim frame awaits its MIack; retry when it arrives.
                    self._miack_waiters.append(lambda: self._retire(mshr))
                    return
                index = cache.install_index(block, fill_code, fill_version)
            else:
                # Upgrade: promote the (still valid) Shared copy in place.
                cache.states[index] = fill_code
                if fill_version > cache.versions[index]:
                    cache.versions[index] = fill_version
                cache._tick += 1
                cache.lru[index] = cache._tick
            if fill_code >= STATE_D:
                self.checker.acquire_writable(self.node, block)
            if mshr.miack_needed and not mshr.miack_received:
                cache.locked[index] = 1
            if mshr.is_prefetch:
                pass  # ownership acquired, but no access performed yet
            elif mshr.is_write:
                if not mshr.committed:
                    cache.versions[index] = self.checker.on_write(
                        self.node, block, cache.versions[index]
                    )
                # else: home already committed and versioned this write
                # (Wup fill); the Shared copy installed above is current.
            else:
                version = cache.versions[index]
                self.checker.on_read(self.node, block, version)
                self.last_read_version = version
        else:
            # Consume-once fill: the value is delivered to the processor but
            # an invalidation arrived while the fill was in flight.
            if not mshr.is_write:
                self.checker.on_read(self.node, block, mshr.version)
                self.last_read_version = mshr.version
            # (A committed write consumed this way already performed at
            # home; the later writer's invalidation voids only the copy.)
            self._lost_to_inv.add(block)

        if mshr.trace:
            self.tracer.close_span(
                mshr.trace,
                self.sim.now,
                None if consume_once else STATES_BY_CODE[mshr.fill_state].name,
            )
        del self.mshrs[block]

        # Wake local processor operations first (program order), then any
        # deferred external forwards (which see the just-installed line).
        waiters = mshr.waiters
        deferred = mshr.deferred
        line_bytes = cache.line_bytes
        for waiter_index, (op, callback) in enumerate(waiters):
            if waiter_index == 0 and not mshr.is_prefetch:
                # The operation that started the miss performed as part of
                # the fill above (or consumed the one-shot fill value).
                callback()
                continue
            # Later waiters (and every waiter queued behind a prefetch,
            # which performs no access itself) re-execute against the
            # freshly installed line.
            if op == "r":
                self.read(block * line_bytes, callback)
            else:
                self.write(block * line_bytes, callback)
        for fwd in deferred:
            # The MSHR owned this forward; handling may re-defer it onto a
            # new MSHR (re-retaining it), otherwise recycle it.
            fwd.retained = False
            self.handle(fwd)
            if not fwd.retained:
                fwd.release()

    # ------------------------------------------------------------------
    # External requests
    # ------------------------------------------------------------------
    def _on_invalidate(self, msg: CoherenceMessage) -> None:
        block = msg.block
        cache = self.cache
        mshr = self.mshrs.get(block)
        index = cache.find(block)
        if index >= 0:
            code = cache.states[index]
            if code != STATE_S:
                raise SimulationError(
                    f"cache {self.node}: Inv for {STATES_BY_CODE[code]} line, "
                    f"block {block}"
                )
            cache.states[index] = STATE_I
            cache.tags[index] = -1
            cache.versions[index] = 0
            cache.locked[index] = 0
            self._lost_to_inv.add(block)
            if self.tracer is not None and msg.trace:
                self.tracer.transition(
                    msg.trace, self.sim.now, f"cache{self.node}",
                    "SHARED", "INVALID",
                )
        if mshr is not None and (not mshr.is_write or self._update_protocol):
            # The pending read was ordered before the invalidating write;
            # deliver its value once, but do not cache it.  Under a
            # write-update protocol the same applies to a pending Wu: if
            # home commits it (Wup, a Shared fill) the invalidation that
            # beat the fill voids the copy-to-be, so it must not install.
            mshr.invalidate_on_fill = True
        # Acknowledge straight to the writing requester (never deferred:
        # deferring an Iack behind our own miss could deadlock).
        self._c_iacks_sent.inc()
        self.transport.send(
            CoherenceMessage(
                src=self.node, dst=msg.requester, kind=MsgKind.IACK,
                block=block, requester=msg.requester, src_is_cache=True,
                trace=msg.trace,
            )
        )

    def _on_fwd_rr(self, msg: CoherenceMessage) -> None:
        self._serve_forward(msg, exclusive=False)

    def _on_fwd_rxq(self, msg: CoherenceMessage) -> None:
        self._serve_forward(msg, exclusive=True)

    def _serve_forward(self, msg: CoherenceMessage, *, exclusive: bool) -> None:
        block = msg.block
        cache = self.cache
        # A writeback in flight means this forward targets the ownership we
        # already gave up: NAK before considering any new MSHR we may have
        # opened for the same block (deferring would deadlock — our own
        # fill is queued at home behind this very transaction).
        if self.wb_buffer.get(block, 0) > 0:
            self._nak(msg)
            return
        mshr = self.mshrs.get(block)
        if mshr is not None:
            msg.retained = True
            mshr.deferred.append(msg)
            return
        index = cache.find(block)
        if index < 0:
            self._nak(msg)
            return
        code = cache.states[index]
        if code != STATE_D and not (self._clean_exclusive and code == STATE_M):
            # MESI owners may hold the line clean-exclusive (E, reusing
            # the MIGRATING code); a forward then downgrades or transfers
            # it exactly like a Dirty line.
            raise SimulationError(
                f"cache {self.node}: forward for {STATES_BY_CODE[code]} line, "
                f"block {block}"
            )
        if (
            self.faults is not None
            and not cache.locked[index]
            and self.faults.force_nak()
        ):
            self._fault_evict_and_nak(block, cache.view(index), msg)
            return
        if self.tracer is not None and msg.trace:
            self.tracer.transition(
                msg.trace, self.sim.now, f"cache{self.node}",
                STATES_BY_CODE[code].name, "INVALID" if exclusive else "SHARED",
            )
        version = cache.versions[index]
        if exclusive:
            self._send_after_service(
                CoherenceMessage(
                    src=self.node, dst=msg.requester, kind=MsgKind.RXP,
                    block=block, requester=msg.requester,
                    version=version, n_invals=0, src_is_cache=True,
                    trace=msg.trace,
                )
            )
            self._send_after_service(
                CoherenceMessage(
                    src=self.node, dst=self.home_of(block), kind=MsgKind.XFER,
                    block=block, requester=msg.requester, src_is_cache=True,
                    trace=msg.trace,
                )
            )
            self.checker.release_writable(self.node, block)
            cache.states[index] = STATE_I
            cache.tags[index] = -1
            cache.versions[index] = 0
            cache.locked[index] = 0
            self._lost_to_inv.add(block)
        else:
            self._send_after_service(
                CoherenceMessage(
                    src=self.node, dst=msg.requester, kind=MsgKind.RP,
                    block=block, requester=msg.requester,
                    version=version, src_is_cache=True,
                    trace=msg.trace,
                )
            )
            self._send_after_service(
                CoherenceMessage(
                    src=self.node, dst=self.home_of(block), kind=MsgKind.SW,
                    block=block, requester=msg.requester,
                    version=version, src_is_cache=True,
                    trace=msg.trace,
                )
            )
            self.checker.release_writable(self.node, block)
            cache.states[index] = STATE_S

    def _serve_migratory(self, msg: CoherenceMessage) -> None:
        block = msg.block
        cache = self.cache
        if self.wb_buffer.get(block, 0) > 0:
            self._nak(msg)
            return
        mshr = self.mshrs.get(block)
        if mshr is not None:
            msg.retained = True
            mshr.deferred.append(msg)
            return
        index = cache.find(block)
        if index < 0:
            self._nak(msg)
            return
        code = cache.states[index]
        if (
            self.faults is not None
            and code >= STATE_D
            and not cache.locked[index]
            and self.faults.force_nak()
        ):
            self._fault_evict_and_nak(block, cache.view(index), msg)
            return
        if code == STATE_M and not msg.for_write and self.policy.nomig_enabled:
            # NoMig (Section 3.4): this processor never wrote the block —
            # the sharing is read-only, so refuse migration, answer like an
            # ordinary dirty read, and revert the block at home.
            cache.states[index] = STATE_S
            cache.locked[index] = 0
            self.checker.release_writable(self.node, block)
            if self.tracer is not None and msg.trace:
                self.tracer.transition(
                    msg.trace, self.sim.now, f"cache{self.node}",
                    "MIGRATING", "SHARED",
                )
            version = cache.versions[index]
            self._send_after_service(
                CoherenceMessage(
                    src=self.node, dst=msg.requester, kind=MsgKind.RP,
                    block=block, requester=msg.requester,
                    version=version, src_is_cache=True,
                    trace=msg.trace,
                )
            )
            self._send_after_service(
                CoherenceMessage(
                    src=self.node, dst=self.home_of(block), kind=MsgKind.NOMIG,
                    block=block, requester=msg.requester,
                    version=version, src_is_cache=True,
                    trace=msg.trace,
                )
            )
            return
        if code < STATE_D:
            raise SimulationError(
                f"cache {self.node}: Mr for {STATES_BY_CODE[code]} line, "
                f"block {block}"
            )
        # Give up ownership: data to the requester, dirty-transfer to home.
        if self.tracer is not None and msg.trace:
            self.tracer.transition(
                msg.trace, self.sim.now, f"cache{self.node}",
                STATES_BY_CODE[code].name, "INVALID",
            )
        version = cache.versions[index]
        self._send_after_service(
            CoherenceMessage(
                src=self.node, dst=msg.requester, kind=MsgKind.MACK,
                block=block, requester=msg.requester,
                version=version, miack_needed=True, src_is_cache=True,
                trace=msg.trace,
            )
        )
        self._send_after_service(
            CoherenceMessage(
                src=self.node, dst=self.home_of(block), kind=MsgKind.DT,
                block=block, requester=msg.requester, src_is_cache=True,
                trace=msg.trace,
            )
        )
        self.checker.release_writable(self.node, block)
        cache.states[index] = STATE_I
        cache.tags[index] = -1
        cache.versions[index] = 0
        cache.locked[index] = 0
        self._lost_to_inv.add(block)

    def _fault_evict_and_nak(
        self, block: int, line, msg: CoherenceMessage
    ) -> None:
        """Injected fault: behave as if we evicted just before the forward.

        This is exactly the legal writeback-vs-forward race of DESIGN.md
        §3.1, provoked on demand: write the dirty line back, then NAK the
        forward so home's re-queue/retry path runs.  Timing changes;
        coherence does not (the retried request is served from the fresh
        memory copy once the writeback lands).
        """
        self._c_writebacks.inc()
        self.wb_buffer[block] = self.wb_buffer.get(block, 0) + 1
        self.checker.release_writable(self.node, block)
        self.transport.send(
            CoherenceMessage(
                src=self.node, dst=self.home_of(block), kind=MsgKind.WB,
                block=block, requester=self.node,
                version=line.version, src_is_cache=True,
            )
        )
        line.invalidate()
        self._nak(msg)

    def _nak(self, msg: CoherenceMessage) -> None:
        if self.wb_buffer.get(msg.block, 0) <= 0:
            raise SimulationError(
                f"cache {self.node}: forward {msg!r} for a block we neither "
                "hold nor are writing back"
            )
        self._send_after_service(
            CoherenceMessage(
                src=self.node, dst=self.home_of(msg.block), kind=MsgKind.NAK,
                block=msg.block, requester=msg.requester, src_is_cache=True,
                trace=msg.trace,
            )
        )

    def _on_miack(self, msg: CoherenceMessage) -> None:
        block = msg.block
        mshr = self.mshrs.get(block)
        if mshr is not None:
            mshr.miack_received = True
        index = self.cache.find(block)
        if index >= 0:
            self.cache.locked[index] = 0
        waiters, self._miack_waiters = self._miack_waiters, []
        for retry in waiters:
            retry()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def introspect(self) -> dict:
        """Transient state snapshot for diagnostic dumps."""
        now = self.sim.now
        return {
            "node": self.node,
            "mshrs": [
                {
                    "node": self.node,
                    "block": m.block,
                    "op": "write" if m.is_write else "read",
                    "upgrade": m.is_upgrade,
                    "prefetch": m.is_prefetch,
                    "data_received": m.data_received,
                    "acks_expected": m.acks_expected,
                    "acks_received": m.acks_received,
                    "miack_needed": m.miack_needed,
                    "miack_received": m.miack_received,
                    "committed": m.committed,
                    "update_version": m.update_version,
                    "waiters": len(m.waiters),
                    "deferred": len(m.deferred),
                    "issued_at": m.issued_at,
                    "age": now - m.issued_at,
                }
                for m in self.mshrs.values()
            ],
            "writebacks_in_flight": dict(self.wb_buffer),
            "miack_waiters": len(self._miack_waiters),
        }

    def _on_wack(self, msg: CoherenceMessage) -> None:
        count = self.wb_buffer.get(msg.block, 0)
        if count <= 0:
            raise SimulationError(
                f"cache {self.node}: Wack for block {msg.block} with no "
                "writeback outstanding"
            )
        if count == 1:
            del self.wb_buffer[msg.block]
        else:
            self.wb_buffer[msg.block] = count - 1
