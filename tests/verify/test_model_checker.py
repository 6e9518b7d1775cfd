"""Model-checker tests: exhaustive exploration + cross-validation.

These cover the protocol far beyond what timed simulation can sample:
every message interleaving of the bounded model is enumerated, and the
set of reachable protocol shapes is cross-checked against what the timed
machine actually visits.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import ProtocolPolicy
from repro.verify import (
    ProtocolModel,
    ProtocolViolation,
    StateLimitExceeded,
    explore,
)
from repro.verify.model import (
    D,
    DR,
    HOME,
    M,
    MD,
    MU,
    REPLY_NET,
    Msg,
    RXP,
    S,
    SR,
    State,
    U,
    pop,
    push,
)


def test_wi_small_exploration_clean():
    result = explore(ProtocolModel(2, 2, ProtocolPolicy.write_invalidate()))
    assert result.states_explored > 500
    assert result.final_states > 0
    # W-I never reaches migratory directory states.
    assert all(shape[0] in (U, SR, DR) for shape in result.state_shapes)
    # And never creates a Migrating cache line.
    assert all(M not in shape[1] for shape in result.state_shapes)


def test_ad_small_exploration_clean():
    result = explore(ProtocolModel(2, 2, ProtocolPolicy.adaptive_default()))
    shapes = result.state_shapes
    # The migratory states are actually reachable...
    assert any(shape[0] == MD for shape in shapes)
    assert any(M in shape[1] for shape in shapes)
    # ...and a Migrating line only exists under a migratory directory
    # state or transiently while home processes the handoff.
    for dir_state, lines in shapes:
        if lines.count(M) + lines.count(D) > 1:
            pytest.fail(f"two writable copies in shape {dir_state}/{lines}")


def test_ad_three_ops_reaches_migratory_uncached():
    """Nomination takes four operations; the eviction that produces
    Migratory-Uncached is the fifth, so it needs the 2-cache 3-op bound."""
    result = explore(ProtocolModel(2, 3, ProtocolPolicy.adaptive_default()))
    assert any(shape[0] == MU for shape in result.state_shapes)


@pytest.fixture(scope="module")
def ad_three_by_two():
    """AD at 3 caches x 2 ops, explored once for every test that reads it."""
    return explore(ProtocolModel(3, 2, ProtocolPolicy.adaptive_default()))


def test_ad_three_caches_exploration_clean(ad_three_by_two):
    result = ad_three_by_two
    assert result.states_explored > 50_000
    assert result.final_states > 0


#: (states, transitions, quiescent, depth, shapes), recorded with the
#: reference explorer (dict-and-sort channels, ``_replace`` everywhere).
#: Any change to the transition relation or the search shows up here.
PINNED_COUNTS = [
    (ProtocolPolicy.write_invalidate(), 2, 2, (1110, 2218, 50, 18, 8)),
    (ProtocolPolicy.adaptive_default(), 2, 2, (1230, 2428, 58, 19, 13)),
    (ProtocolPolicy.mesi(), 2, 2, (1235, 2506, 58, 18, 9)),
    (ProtocolPolicy.dragon(), 2, 2, (1644, 3620, 66, 18, 8)),
    (ProtocolPolicy.hybrid(), 2, 2, (1644, 3620, 66, 18, 8)),
    (ProtocolPolicy.adaptive_default(), 4, 1, (35116, 114300, 98, 21, 16)),
]


@pytest.mark.parametrize(
    "policy,caches,ops,expected",
    PINNED_COUNTS,
    ids=[f"{p.name}-{c}x{o}" for p, c, o, _ in PINNED_COUNTS],
)
def test_exploration_counts_are_pinned(policy, caches, ops, expected):
    result = explore(ProtocolModel(caches, ops, policy))
    assert (
        result.states_explored,
        result.transitions,
        result.final_states,
        result.max_depth,
        len(result.state_shapes),
    ) == expected


def test_state_cap_is_not_a_protocol_violation():
    model = ProtocolModel(2, 2, ProtocolPolicy.adaptive_default())
    with pytest.raises(StateLimitExceeded) as info:
        explore(model, max_states=100)
    assert not isinstance(info.value, ProtocolViolation)
    assert info.value.max_states == 100
    # The cap counts states, so the exact size fits and one less does not.
    assert explore(model, max_states=1230).states_explored == 1230
    with pytest.raises(StateLimitExceeded):
        explore(model, max_states=1229)


@pytest.mark.parametrize(
    "policy",
    [
        ProtocolPolicy(adaptive=True, rxq_reverts_to_ordinary=True),
        ProtocolPolicy(adaptive=True, nomig_enabled=False),
    ],
    ids=["rxq-revert", "no-nomig"],
)
def test_policy_variants_explore_clean(policy):
    result = explore(ProtocolModel(2, 3, policy))
    assert result.final_states > 0


def test_channels_are_fifo():
    channels = ()
    a = Msg(RXP, HOME, 0, 0, version=1)
    b = Msg(RXP, HOME, 0, 0, version=2)
    channels = push(channels, a)
    channels = push(channels, b)
    key = (HOME, 0, "reply")
    first, channels = pop(channels, key)
    second, channels = pop(channels, key)
    assert first.version == 1
    assert second.version == 2
    assert channels == ()


def _reference_push(channels, msg):
    """The original channel insert: rebuild the table, then sort it."""
    table = dict(channels)
    key = (msg.src, msg.dst, msg.network)
    table[key] = table.get(key, ()) + (msg,)
    return tuple(sorted(table.items()))


def _reference_pop(channels, key):
    table = dict(channels)
    queue = table[key]
    msg, rest = queue[0], queue[1:]
    if rest:
        table[key] = rest
    else:
        del table[key]
    return msg, tuple(sorted(table.items()))


_KINDS = sorted(REPLY_NET) + ["Rr", "Rxq", "FwdRr", "FwdRxq", "Mr", "Inv",
                              "DT", "Xfer", "Wack", "MIack", "Wu", "Upd"]
_NODES = st.sampled_from([HOME, 0, 1, 2])
_PUSH = st.builds(
    lambda kind, src, dst, version: ("push", Msg(kind, src, dst, src, version=version)),
    st.sampled_from(_KINDS), _NODES, _NODES, st.integers(0, 3),
)
_POP = st.builds(lambda pick: ("pop", pick), st.integers(0, 1000))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_PUSH, _POP), max_size=40))
def test_channel_ops_match_reference(ops):
    """push/pop edit the sorted table in place; on any message sequence
    they must equal the rebuild-and-sort reference, step by step."""
    channels = reference = ()
    for op, arg in ops:
        if op == "push":
            channels = push(channels, arg)
            reference = _reference_push(reference, arg)
        elif reference:
            key = reference[arg % len(reference)][0]
            msg, channels = pop(channels, key)
            ref_msg, reference = _reference_pop(reference, key)
            assert msg == ref_msg
        assert channels == reference


def test_pop_of_missing_channel_raises_key_error():
    channels = push((), Msg(RXP, HOME, 0, 0))
    with pytest.raises(KeyError):
        pop(channels, (HOME, 1, "reply"))


def test_violation_detected_in_corrupted_state():
    """Planting two dirty copies must trip the single-writer check."""
    from repro.verify.checker import _check_state
    from repro.verify.model import CacheSt, HomeSt

    bad = State(
        home=HomeSt(dir=DR, owner=0),
        caches=(CacheSt(line=D, version=0), CacheSt(line=D, version=0)),
    )
    with pytest.raises(ProtocolViolation, match="multiple writable"):
        _check_state(bad)


def test_stale_owner_version_detected():
    from repro.verify.checker import _check_state
    from repro.verify.model import CacheSt, HomeSt

    bad = State(
        home=HomeSt(dir=DR, owner=0),
        caches=(CacheSt(line=D, version=1), CacheSt()),
        latest=2,
    )
    with pytest.raises(ProtocolViolation, match="version"):
        _check_state(bad)


def test_timed_simulation_shapes_subset_of_model(ad_three_by_two):
    """Cross-validation: every (directory state, line states) combination
    the timed machine visits must be reachable in the abstract model.

    We sample final states of many small timed runs over ONE block and
    compare against the exhaustively computed shape set.
    """
    import random

    from repro import Machine, MachineConfig
    from repro.cpu.ops import Read, Write

    # The protocol shape set saturates at the 2-op bound (verified: the
    # 3-op exploration reaches the same 16 shapes), so the cheap bound
    # suffices as the reference.
    model_shapes = ad_three_by_two.state_shapes

    for seed in range(8):
        rng = random.Random(seed)
        config = MachineConfig(
            mesh_width=2,
            mesh_height=2,
            policy=ProtocolPolicy.adaptive_default(),
        )
        machine = Machine(config)

        def program(n, rng=rng):
            ops = []
            for _ in range(rng.randrange(4)):
                ops.append(Write(0) if rng.random() < 0.5 else Read(0))
            return iter(ops)

        machine.run([program(n) for n in range(4)])
        entry = machine.directories[0].entries.get(0)
        if entry is None:
            continue
        lines = []
        for cache in machine.caches[:3]:
            line = cache.cache.lookup(0)
            lines.append(line.state.value if line else "I")
        shape = (entry.state.value, tuple(sorted(lines)))
        assert shape in model_shapes, shape
