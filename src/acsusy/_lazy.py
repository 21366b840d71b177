"""Modules that load on first attribute use.

numpy and scipy take most of a cold start, and several commands
(susy-status, constants) never call them. The package's modules import
the proxies below instead, e.g. ``from ._lazy import np``: the first
attribute lookup imports the real module, and every attribute read is
then cached on the proxy.
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


np = LazyModule("numpy")
special = LazyModule("scipy.special")
linalg = LazyModule("scipy.linalg")
