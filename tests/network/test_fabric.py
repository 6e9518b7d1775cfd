"""Tests for the two-mesh fabric."""

from repro.network import Fabric, NetworkMessage, REPLY, REQUEST
from repro.sim import Simulator


def make_fabric(**kwargs):
    sim = Simulator()
    return sim, Fabric(sim, 2, 2, **kwargs)


def test_networks_are_independent_resources():
    sim, fabric = make_fabric()
    arrivals = {}

    def deliver(m):
        arrivals.setdefault(id(m), sim.now)

    a = NetworkMessage(src=0, dst=1, bits=168)
    b = NetworkMessage(src=0, dst=1, bits=168)
    fabric.request_mesh.send(a, deliver)
    fabric.reply_mesh.send(b, deliver)  # rides the other mesh: no queueing behind a
    sim.run()
    assert arrivals[id(a)] == arrivals[id(b)]


def test_aggregate_statistics():
    sim, fabric = make_fabric()
    fabric.request_mesh.send(NetworkMessage(src=0, dst=1, bits=40), lambda m: None)
    fabric.reply_mesh.send(NetworkMessage(src=1, dst=0, bits=168), lambda m: None)
    sim.run()
    assert fabric.messages_sent == 2
    assert fabric.bits_sent == 208
    fabric.reset_stats()
    assert fabric.messages_sent == 0


def test_unloaded_latency_delegates_per_network():
    _, fabric = make_fabric()
    assert fabric.unloaded_latency(0, 3, 40, REQUEST) == fabric.unloaded_latency(
        0, 3, 40, REPLY
    )
    assert fabric.unloaded_latency(0, 0, 40) < fabric.unloaded_latency(0, 3, 40)
