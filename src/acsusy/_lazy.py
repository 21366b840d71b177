"""Modules and names that load on first use.

numpy and scipy take most of a cold start, and several commands
(susy-status, constants) never call them. The package's modules import
the proxies below instead, e.g. ``from ._lazy import np``: the first
attribute lookup imports the real module, and every attribute read is
then cached on the proxy.

The package's own layers (radial, oracle, zeromode, slab, specfun) load
on first use too: ``acsusy`` and ``acsusy.cli`` name them through a
module ``__getattr__`` (PEP 562) built by ``load_on_first_use`` from the
package's one export table, ``acsusy._EXPORTS`` (``cli`` takes the
entries of those five layers), so importing either and reading a config
compiles only cli, fields, units and errors.
"""

from __future__ import annotations

import importlib


class LazyModule:
    """Stand-in for a module that is imported on first attribute use."""

    def __init__(self, name: str) -> None:
        self._lazy_name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._lazy_name), attr)
        setattr(self, attr, value)
        return value


def load_on_first_use(namespace: dict, homes: dict):
    """A module ``__getattr__`` that imports each name in `homes` when first read.

    `homes` maps a name to the package submodule that defines it; a name
    that maps to itself is that submodule. The value is stored in
    `namespace` (the module's globals), so later reads find it there,
    and a caller that rebinds the module attribute rebinds that entry.
    """
    package = namespace["__package__"]

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home}")
        value = module if home == name else getattr(module, name)
        namespace[name] = value
        return value

    return __getattr__


np = LazyModule("numpy")
special = LazyModule("scipy.special")
linalg = LazyModule("scipy.linalg")
optimize = LazyModule("scipy.optimize")
