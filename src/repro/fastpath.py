"""Loader utilities for the optional compiled fast path.

The two hottest modules (:mod:`repro.sim._engine_impl` and
:mod:`repro.coherence._messages_impl`) can be compiled with mypyc via the
``fast`` extra (see ``pyproject.toml`` and ``setup.py``).  When a compiled
extension is present it shadows the ``.py`` source on import, so the
normal import already picks the fast variant.  This module adds the two
pieces the build can't provide:

* ``REPRO_FORCE_PURE=1`` — load the pure-Python source even when a
  compiled extension exists (CI runs the tier-1 suite, goldens included,
  with it on a compiled install, so both variants are checked against
  the same numbers);
* detection of which variant actually loaded, surfaced as the
  ``FAST_PATH_COMPILED`` flag on each loader module and summarized by
  :func:`fast_path_variant` for perfbench result records.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from types import ModuleType
from typing import Tuple

#: Environment variable that forces the pure-Python implementation even
#: when a compiled extension is installed.  Any value other than empty or
#: "0" counts as set.  Read at import time of each loader module.
ENV_FORCE_PURE = "REPRO_FORCE_PURE"


def force_pure() -> bool:
    """True when ``REPRO_FORCE_PURE`` requests the pure-Python variant."""
    return os.environ.get(ENV_FORCE_PURE, "") not in ("", "0")


def load_impl(module_name: str) -> Tuple[ModuleType, bool]:
    """Import an implementation module, honoring ``REPRO_FORCE_PURE``.

    Returns ``(module, compiled)`` where ``compiled`` is True when a
    compiled extension (mypyc ``.so``/``.pyd``) was loaded.  Under
    ``REPRO_FORCE_PURE`` the ``.py`` source next to the extension is
    loaded explicitly (registered in ``sys.modules`` under
    ``<module_name>_pure`` so repeated loads share one module object).
    """
    if force_pure():
        spec = importlib.util.find_spec(module_name)
        origin = spec.origin if spec is not None else None
        if origin is None or origin.endswith(".py"):
            # No compiled build in the way; the plain import is pure.
            return importlib.import_module(module_name), False
        source = os.path.join(
            os.path.dirname(origin), module_name.rsplit(".", 1)[1] + ".py"
        )
        if not os.path.exists(source):
            # Compiled-only install (no source shipped): nothing to force.
            return importlib.import_module(module_name), True
        pure_name = module_name + "_pure"
        cached = sys.modules.get(pure_name)
        if cached is not None:
            return cached, False
        pure_spec = importlib.util.spec_from_file_location(pure_name, source)
        assert pure_spec is not None and pure_spec.loader is not None
        module = importlib.util.module_from_spec(pure_spec)
        sys.modules[pure_name] = module
        pure_spec.loader.exec_module(module)
        return module, False
    module = importlib.import_module(module_name)
    origin = getattr(module, "__file__", None)
    compiled = bool(origin) and not str(origin).endswith(".py")
    return module, compiled


def fast_path_variant() -> str:
    """The active fast-path variant: ``"compiled"``, ``"pure"`` or ``"mixed"``.

    Recorded in perfbench result records so timing deltas across
    versions are attributable.
    """
    from repro.coherence import messages
    from repro.sim import engine

    flags = (engine.FAST_PATH_COMPILED, messages.FAST_PATH_COMPILED)
    if all(flags):
        return "compiled"
    if not any(flags):
        return "pure"
    return "mixed"
