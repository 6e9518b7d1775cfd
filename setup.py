"""Build script with an optional mypyc-compiled fast path.

The default build (``pip install .``) is pure Python everywhere.  Set
``REPRO_BUILD_FAST=1`` (and have mypyc available, e.g. via the ``fast``
extra: ``pip install 'repro[fast]'``) to additionally compile the two
hot-core implementation modules:

* ``repro.sim._engine_impl`` — the event loop;
* ``repro.coherence._messages_impl`` — the message vocabulary.

Their loader modules (``repro.sim.engine`` / ``repro.coherence.messages``)
pick up the compiled extensions automatically at import time and fall back
to the ``.py`` sources when the extensions are absent or when
``REPRO_FORCE_PURE=1`` is set, so a compiled install always retains the
pure-Python reference path.  Results are byte-identical either way — the
compiled modules are the same source, just translated.

If ``REPRO_BUILD_FAST`` is set but mypyc is missing or fails, the build
degrades to pure Python with a warning rather than erroring: the fast
path is an optimization, never a requirement.
"""

import os
import sys

from setuptools import setup

ext_modules = []
if os.environ.get("REPRO_BUILD_FAST", "") not in ("", "0"):
    try:
        from mypyc.build import mypycify

        ext_modules = mypycify(
            [
                "src/repro/sim/_engine_impl.py",
                "src/repro/coherence/_messages_impl.py",
            ],
            opt_level="3",
        )
    except Exception as exc:  # mypyc absent or compilation failed
        print(
            f"warning: REPRO_BUILD_FAST requested but mypyc build failed ({exc}); "
            "falling back to a pure-Python build",
            file=sys.stderr,
        )
        ext_modules = []

setup(ext_modules=ext_modules)
