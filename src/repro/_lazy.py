"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that eagerly imports every public name makes
``import repro.<anything>`` pay for the whole package: ``repro.runner``
used to load the engine, every baseline and (through the oracle) scipy
before a warm ``repro run`` could answer from its cache.  Instead, each
package lists where its names live and binds :func:`lazy_exports`'s
pair as its module-level ``__getattr__`` / ``__dir__``; a name's module
is imported the first time the name is looked up, and the value is
then cached in the package namespace so later lookups are plain
attribute reads.  ``from repro import NovaSystem`` keeps working.

Every package ``__init__`` follows this one rule: it exports through
:func:`lazy_exports` and imports no submodule of its own.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module name to the names it provides.  A name
    equal to a submodule's own last component (``"io"`` for
    ``repro.graph.io``) exports the submodule itself.
    """
    owners = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module_name = owners.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(module_name)
        if module_name == f"{package}.{name}":
            value = module
        else:
            value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__
