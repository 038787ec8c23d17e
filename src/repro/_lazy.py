"""Lazy package exports (PEP 562), shared by the ``repro`` subpackages.

A package lists its public names as ``{name: submodule}`` and hands the
table to :func:`attach`::

    from repro import _lazy

    __getattr__, __dir__, __all__ = _lazy.attach(__name__, {"Simulator": "simulator"})

Importing the package then loads none of its submodules. The first read of
``package.Simulator`` (including ``from package import Simulator``)
imports ``package.simulator`` and caches the value in the package
namespace, so later reads are plain attribute lookups. A program that
imports ``repro.net.simulator`` therefore loads that module and what it
imports, not every sibling the package re-exports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def attach(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each public name to the submodule (relative to
    ``package``) that defines it; ``__all__`` lists the names in table
    order.
    """

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__, list(exports)
