"""Graph specifiers: the one-string graph recipes every front end takes.

::

    rmat:SCALE[:EDGE_FACTOR]      e.g. rmat:16:16
    urand:VERTICES:EDGES          e.g. urand:100000:3000000
    powerlaw:VERTICES:AVG_DEGREE  e.g. powerlaw:100000:35
    road:WIDTH:HEIGHT             e.g. road:300:300
    suite:NAME                    Table III stand-in (road/twitter/...)
    PATH                          .npz / .txt edge list / .gr DIMACS

``repro run --graph``, ``repro generate --kind``, sweep grids, service
jobs and :meth:`repro.runner.spec.GraphSpec.build_uncached` all resolve
their specifier here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


#: Generator specifiers: kind -> (expected form, one parser per field,
#: number of required fields).  The generators check the ranges.
_GENERATOR_FORMS = {
    "rmat": ("rmat:SCALE[:EDGE_FACTOR]", (int, int), 1),
    "urand": ("urand:VERTICES:EDGES", (int, int), 2),
    "powerlaw": ("powerlaw:VERTICES:AVG_DEGREE", (int, _finite_float), 2),
    "road": ("road:WIDTH:HEIGHT", (int, int), 2),
}


def _generator_args(spec: str) -> list:
    """Parse a generator specifier's fields, or raise naming its form."""
    kind, _, rest = spec.partition(":")
    form, parsers, required = _GENERATOR_FORMS[kind]
    fields = rest.split(":") if rest else []
    try:
        if not required <= len(fields) <= len(parsers):
            raise ValueError
        return [parse(text) for parse, text in zip(parsers, fields)]
    except ValueError:
        raise ReproError(
            f"malformed graph specifier {spec!r}; expected {form}"
        ) from None


def build_graph(
    spec: str, seed: int = 42, scale: Optional[float] = None
) -> "CSRGraph":
    """Resolve a graph specifier (see module docstring).

    ``scale`` applies to ``suite:`` specifiers only (``None`` is the
    suite default); other specifiers ignore it.
    """
    if ":" not in spec:
        from repro.graph import io as graph_io

        if spec.endswith(".npz"):
            return graph_io.load_npz(spec)
        if spec.endswith(".gr"):
            return graph_io.load_dimacs(spec)
        if spec.endswith(".txt") or spec.endswith(".el"):
            return graph_io.load_edge_list(spec)
        raise ReproError(f"unrecognized graph specifier: {spec!r}")
    kind, _, rest = spec.partition(":")
    if kind in _GENERATOR_FORMS:
        from repro.graph import generators

        args = _generator_args(spec)
        generator = {
            "rmat": generators.rmat,
            "urand": generators.uniform_random,
            "powerlaw": generators.power_law,
            "road": generators.road_grid,
        }[kind]
        return generator(*args, seed=seed)
    if kind == "suite":
        from repro.graph import suites

        if scale is None:
            scale = suites.DEFAULT_SCALE
        return suites.build_graph(rest, scale=scale, seed=seed)
    raise ReproError(f"unknown graph kind: {kind!r}")
