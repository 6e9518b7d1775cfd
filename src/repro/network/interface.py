"""Network fabric: the pair of meshes.

The DASH interconnect is two independent meshes — one carrying requests,
one carrying replies — to break request/reply protocol deadlock.  The
:class:`Fabric` owns both and aggregates their statistics; senders pick a
mesh and pass their own delivery callback to :meth:`Mesh.send`.
"""

from __future__ import annotations

from repro.network.mesh import Mesh
from repro.sim.engine import Simulator

REQUEST = "request"
REPLY = "reply"


class Fabric:
    """The two-mesh interconnect of the machine."""

    def __init__(
        self,
        sim: Simulator,
        width: int,
        height: int,
        *,
        link_bits: int = 16,
        fall_through: int = 3,
        interface_delay: int = 1,
        infinite_bandwidth: bool = False,
    ) -> None:
        self.sim = sim
        self.request_mesh = Mesh(
            sim,
            width,
            height,
            link_bits=link_bits,
            fall_through=fall_through,
            interface_delay=interface_delay,
            infinite_bandwidth=infinite_bandwidth,
            name="request-mesh",
        )
        self.reply_mesh = Mesh(
            sim,
            width,
            height,
            link_bits=link_bits,
            fall_through=fall_through,
            interface_delay=interface_delay,
            infinite_bandwidth=infinite_bandwidth,
            name="reply-mesh",
        )
        self.num_nodes = self.request_mesh.num_nodes

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def bits_sent(self) -> int:
        return self.request_mesh.bits_sent + self.reply_mesh.bits_sent

    @property
    def messages_sent(self) -> int:
        return self.request_mesh.messages_sent + self.reply_mesh.messages_sent

    def unloaded_latency(self, src: int, dst: int, bits: int, network: str = REQUEST) -> int:
        mesh = self.request_mesh if network == REQUEST else self.reply_mesh
        return mesh.unloaded_latency(src, dst, bits)

    def reset_stats(self) -> None:
        self.request_mesh.reset_stats()
        self.reply_mesh.reset_stats()
