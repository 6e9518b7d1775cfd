"""Unit tests for the message transport layer."""

import pytest

from repro.coherence.messages import CoherenceMessage, MsgKind
from repro.coherence.transport import Transport
from repro.core.policy import ProtocolPolicy
from repro.faults.plan import FaultConfig
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.memory.bus import LocalBus
from repro.network.interface import Fabric
from repro.sim.engine import SimulationError, Simulator
from repro.workloads import make_workload


def make_transport():
    sim = Simulator()
    fabric = Fabric(sim, 2, 2)
    buses = [LocalBus(sim, name=f"bus{n}") for n in range(4)]
    transport = Transport(sim, fabric, buses)
    return sim, transport


def register_all(transport, log):
    for node in range(4):
        transport.register_cache(
            node, lambda msg, node=node: log.append(("cache", node, msg.kind))
        )
        transport.register_directory(
            node, lambda msg, node=node: log.append(("dir", node, msg.kind))
        )


def test_directory_kinds_reach_directory_handler():
    sim, transport = make_transport()
    log = []
    register_all(transport, log)
    transport.send(CoherenceMessage(src=0, dst=1, kind=MsgKind.RR, block=3))
    sim.run()
    assert log == [("dir", 1, MsgKind.RR)]


def test_cache_kinds_reach_cache_handler():
    sim, transport = make_transport()
    log = []
    register_all(transport, log)
    transport.send(
        CoherenceMessage(src=1, dst=2, kind=MsgKind.RP, block=3, src_is_cache=False)
    )
    sim.run()
    assert log == [("cache", 2, MsgKind.RP)]


def test_local_message_skips_mesh():
    sim, transport = make_transport()
    log = []
    register_all(transport, log)
    transport.send(CoherenceMessage(src=2, dst=2, kind=MsgKind.RR, block=3))
    sim.run()
    assert log == [("dir", 2, MsgKind.RR)]
    assert transport.network_messages == 0
    assert transport.count_of(MsgKind.RR) == 1  # still counted


def test_remote_message_counts_network_traffic():
    sim, transport = make_transport()
    log = []
    register_all(transport, log)
    transport.send(CoherenceMessage(src=0, dst=3, kind=MsgKind.WB, block=1))
    sim.run()
    assert transport.network_messages == 1
    assert transport.network_bits == 168
    assert transport.total_bits == 168


def test_missing_handler_raises():
    sim, transport = make_transport()
    transport.register_directory(1, lambda msg: None)
    transport.send(CoherenceMessage(src=0, dst=1, kind=MsgKind.RP, block=0))
    with pytest.raises(SimulationError, match="cache handler"):
        sim.run()


def test_reset_stats_clears_accounting():
    sim, transport = make_transport()
    log = []
    register_all(transport, log)
    transport.send(CoherenceMessage(src=0, dst=1, kind=MsgKind.RR, block=0))
    sim.run()
    transport.reset_stats()
    assert transport.network_bits == 0
    assert transport.total_bits == 0
    assert transport.count_of(MsgKind.RR) == 0


def test_point_to_point_fifo_same_kind():
    """Two same-kind messages between one (src, dst) pair stay ordered."""
    sim, transport = make_transport()
    order = []
    for node in range(4):
        transport.register_directory(node, lambda msg: order.append(msg.block))
        transport.register_cache(node, lambda msg: None)
    transport.send(CoherenceMessage(src=0, dst=3, kind=MsgKind.RR, block=1))
    transport.send(CoherenceMessage(src=0, dst=3, kind=MsgKind.RR, block=2))
    sim.run()
    assert order == [1, 2]


@pytest.mark.parametrize(
    "faults", [None, FaultConfig(seed=3, intensity=1.0)], ids=["clean", "faults"]
)
def test_census_lists_exactly_the_messages_in_flight(faults):
    """The census read off the pending events equals a send/dispatch
    ledger kept beside the transport, mid-run and after the run, and the
    sampler's ``msgs_inflight`` column counts the same messages."""
    config = MachineConfig.dash_default(
        policy=ProtocolPolicy.adaptive_default(), metrics_interval=50,
        faults=faults,
    )
    machine = Machine(config)
    transport, sim = machine.transport, machine.sim
    ledger = {}
    send, dispatch = transport.send, transport._dispatch

    def ledger_send(msg):
        ledger[id(msg)] = msg
        send(msg)

    def ledger_dispatch(msg):
        del ledger[id(msg)]
        dispatch(msg)

    transport.send, transport._dispatch = ledger_send, ledger_dispatch

    def census():
        return sorted(
            (m["kind"], m["src"], m["dst"], m["block"], m["requester"])
            for m in transport.introspect()
        )

    def expected():
        return sorted(
            (m.kind.value, m.src, m.dst, m.block, m.requester)
            for m in ledger.values()
        )

    workload = make_workload("migratory-counters", config.num_nodes, "tiny", seed=42)
    for processor, program in zip(machine.processors, workload.programs()):
        processor.start(program)
    machine.metrics.start()
    busiest = 0
    for until in range(37, 4000, 97):
        sim.run(until=until)
        assert census() == expected(), f"t={until}"
        busiest = max(busiest, len(ledger))
    assert busiest > 0, "no message was ever caught in flight"

    machine.metrics._tick()
    row = dict(zip(machine.metrics.ring.columns, machine.metrics.ring.rows[-1]))
    assert row["msgs_inflight"] == len(ledger)

    sim.run()
    assert all(processor.done for processor in machine.processors)
    assert ledger == {}
    assert transport.introspect() == []
