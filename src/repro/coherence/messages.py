"""Stable import surface for the coherence message vocabulary.

The implementation lives in :mod:`repro.coherence._messages_impl` (see
that module's docstring for message semantics and sizes).  Like
:mod:`repro.sim.engine`, it may be compiled with mypyc (the ``fast``
extra); this loader picks whichever variant is installed and honors
``REPRO_FORCE_PURE=1``.  ``FAST_PATH_COMPILED`` reports which variant
actually loaded.
"""

from __future__ import annotations

from repro.fastpath import load_impl

_impl, FAST_PATH_COMPILED = load_impl("repro.coherence._messages_impl")

REQUEST_NET = _impl.REQUEST_NET
REPLY_NET = _impl.REPLY_NET
REQUEST_NET_IDX = _impl.REQUEST_NET_IDX
REPLY_NET_IDX = _impl.REPLY_NET_IDX
MsgKind = _impl.MsgKind
DATA_KINDS = _impl.DATA_KINDS
DIRECTORY_KINDS = _impl.DIRECTORY_KINDS
REPLY_NET_KINDS = _impl.REPLY_NET_KINDS
NUM_KINDS = _impl.NUM_KINDS
KINDS_BY_INDEX = _impl.KINDS_BY_INDEX
message_bits = _impl.message_bits
CoherenceMessage = _impl.CoherenceMessage

__all__ = [
    "CoherenceMessage",
    "DATA_KINDS",
    "DIRECTORY_KINDS",
    "FAST_PATH_COMPILED",
    "KINDS_BY_INDEX",
    "MsgKind",
    "NUM_KINDS",
    "REPLY_NET",
    "REPLY_NET_IDX",
    "REPLY_NET_KINDS",
    "REQUEST_NET",
    "REQUEST_NET_IDX",
    "message_bits",
]
