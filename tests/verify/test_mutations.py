"""Mutation tests for the exhaustive search.

Each model below plants one protocol bug, one per invariant family the
checker asserts.  ``explore`` must reject every one of them: a search
that got faster by skipping states or checks would let some through.
"""

import pytest

from repro.core.policy import ProtocolPolicy
from repro.verify import ProtocolModel, ProtocolViolation, StuckStateError, explore
from repro.verify.model import FWD_RXQ, INV, IACK, RXP, S, UPD, UACK, XFER, Msg, push

INVALIDATE_POLICIES = [
    ProtocolPolicy.write_invalidate(),
    ProtocolPolicy.adaptive_default(),
    ProtocolPolicy.mesi(),
]


def _without(state, kind):
    """``state`` with every in-flight message of ``kind`` dropped."""
    channels = ((key, tuple(m for m in queue if m.kind != kind))
                for key, queue in state.channels)
    return state._replace(channels=tuple((k, q) for k, q in channels if q))


def _with_cache(state, node, **changes):
    caches = list(state.caches)
    caches[node] = caches[node]._replace(**changes)
    return state._replace(caches=tuple(caches))


class OwnerDropsXfer(ProtocolModel):
    """The owner hands the line over on FwdRxq but never tells home, so
    home waits for the Xfer forever (no stuck states)."""

    def _serve_forward(self, state, node, msg):
        new = super()._serve_forward(state, node, msg)
        return _without(new, XFER) if msg.kind == FWD_RXQ else new


class OwnerKeepsCopy(ProtocolModel):
    """The owner supplies the line on FwdRxq but keeps its own writable
    copy (single writer)."""

    def _serve_forward(self, state, node, msg):
        new = super()._serve_forward(state, node, msg)
        old = state.caches[node]
        if msg.kind == FWD_RXQ and old.line != new.caches[node].line:
            new = _with_cache(new, node, line=old.line, version=old.version)
        return new


class OwnerSendsStaleData(ProtocolModel):
    """The owner's Rxp to a forwarded writer carries an old version, so
    the writer's store lands on stale data (value coherence)."""

    def _serve_forward(self, state, node, msg):
        new = super()._serve_forward(state, node, msg)
        if msg.kind != FWD_RXQ:
            return new
        channels = tuple(
            (key, tuple(m._replace(version=m.version - 1)
                        if m.kind == RXP and m.src == node else m
                        for m in queue))
            for key, queue in new.channels
        )
        return new._replace(channels=channels)


class XferForgetsOwner(ProtocolModel):
    """Home records the ownership transfer without the new owner
    (directory sanity)."""

    def _home_handle(self, state, msg):
        new = super()._home_handle(state, msg)
        if msg.kind == XFER and new.home.owner == msg.requester:
            new = new._replace(home=new.home._replace(owner=-2))
        return new


class InvAcksWithoutInvalidating(ProtocolModel):
    """A sharer acknowledges an Inv but keeps its copy, which goes stale
    once the writer commits (quiescent state is not clean)."""

    def _cache_handle(self, state, node, msg):
        if msg.kind == INV:
            ack = Msg(IACK, node, msg.requester, msg.requester)
            return state._replace(channels=push(state.channels, ack))
        return super()._cache_handle(state, node, msg)


class UpdAcksWithoutApplying(ProtocolModel):
    """Under write-update, a sharer acknowledges an Upd but keeps the old
    value (quiescent state is not clean)."""

    def _cache_handle(self, state, node, msg):
        if msg.kind == UPD and state.caches[node].line == S:
            ack = Msg(UACK, node, msg.requester, msg.requester)
            return state._replace(channels=push(state.channels, ack))
        return super()._cache_handle(state, node, msg)


@pytest.mark.parametrize("policy", INVALIDATE_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize(
    "mutant,caches,ops,error,match",
    [
        (OwnerDropsXfer, 2, 2, StuckStateError, "stuck non-quiescent"),
        (OwnerKeepsCopy, 3, 1, ProtocolViolation, "multiple writable copies"),
        (OwnerSendsStaleData, 2, 2, ProtocolViolation, "lost update"),
        (XferForgetsOwner, 2, 2, ProtocolViolation, "with no owner"),
        (InvAcksWithoutInvalidating, 2, 2, ProtocolViolation, "stale version"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_planted_bug_is_caught(mutant, caches, ops, error, match, policy):
    # Sanity: the unmutated model explores clean at the same bound.
    assert explore(ProtocolModel(caches, ops, policy)).final_states > 0
    with pytest.raises(error, match=match):
        explore(mutant(caches, ops, policy))


@pytest.mark.parametrize(
    "policy", [ProtocolPolicy.dragon(), ProtocolPolicy.hybrid()],
    ids=lambda p: p.name,
)
def test_update_that_is_not_applied_is_caught(policy):
    with pytest.raises(ProtocolViolation, match="stale version"):
        explore(UpdAcksWithoutApplying(2, 2, policy))
