"""Reachability logic on finite orders and polyhedra.

The language extends basic modal logic with a binary reachability
connective: ``gamma(f, g)`` holds at a point when a zigzag of comparable
points leads from it, through points satisfying ``f``, to one satisfying
``g``.  Models are finite preorders, posets, or simplicial complexes read
through their face posets.

Import from the submodules: ``formulas``, ``kripke``, ``geometry``,
``transforms`` and ``soundness``.  The package registers each of them in
``sys.modules`` at once but runs its code only on first attribute access,
so a process pays for the submodules it uses, while a tool that looks
them up in ``sys.modules`` (such as bench/tracing.py) still finds all five.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


for _name in ("formulas", "kripke", "geometry", "transforms", "soundness"):
    _register_lazily(_name)
