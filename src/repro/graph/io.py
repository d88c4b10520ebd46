"""Graph serialization: binary (npz), edge-list text, and DIMACS .gr.

The binary format is the working format (fast, exact).  The text formats
exist so externally produced graphs (e.g. the real RoadUSA in DIMACS
challenge-9 format) can be dropped in without code changes.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

_MAGIC = "repro-csr-v1"


def save_npz(graph: CSRGraph, path: str) -> None:
    """Save a graph in the package's binary format."""
    arrays = {
        "magic": np.array(_MAGIC),
        "row_ptr": graph.row_ptr,
        "col_idx": graph.col_idx,
    }
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(path, **arrays)


def load_npz(path: str) -> CSRGraph:
    """Load a graph saved by :func:`save_npz`.

    Every failure mode of a corrupt or truncated file -- an unreadable
    zip container, missing arrays, wrong dimensionality, a
    non-monotonic ``row_ptr``, out-of-range ``col_idx`` -- surfaces as
    :class:`GraphFormatError` naming the file, instead of a zlib/zipfile
    exception here or an index error deep inside a workload later.
    """
    if not os.path.exists(path):
        raise GraphFormatError(f"no such file: {path}")
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception as exc:  # BadZipFile, zlib.error, ValueError, ...
        raise GraphFormatError(
            f"{path} is not a readable npz archive: {exc}"
        ) from exc
    with archive as data:
        if "magic" not in data or str(data["magic"]) != _MAGIC:
            raise GraphFormatError(f"{path} is not a {_MAGIC} file")
        try:
            row_ptr = data["row_ptr"]
            col_idx = data["col_idx"]
            weights = data["weights"] if "weights" in data else None
        except KeyError as exc:
            raise GraphFormatError(
                f"{path} is missing the {exc.args[0]} array"
            ) from None
        except Exception as exc:  # truncated member: zlib error mid-read
            raise GraphFormatError(
                f"{path} has a corrupt or truncated array: {exc}"
            ) from exc
        try:
            # CSRGraph re-checks row_ptr monotonicity/length and col_idx
            # bounds; funnel its verdict through the file name.
            return CSRGraph(row_ptr, col_idx, weights)
        except GraphFormatError as exc:
            raise GraphFormatError(f"{path}: {exc}") from None


def _text_lines(path: str) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped line)`` of a text graph file.

    A missing or unreadable file, or one that is not ASCII, raises
    :class:`GraphFormatError` naming the file.
    """
    try:
        handle = open(path, "r", encoding="ascii")
    except FileNotFoundError:
        raise GraphFormatError(f"no such file: {path}") from None
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc.strerror or exc}") from None
    with handle:
        try:
            yield from enumerate((line.strip() for line in handle), start=1)
        except UnicodeDecodeError:
            raise GraphFormatError(f"{path}: not ASCII text") from None


@contextlib.contextmanager
def _fields_of(path: str, line_no: int) -> Iterator[None]:
    """Turn a field that does not parse as a number into one error."""
    try:
        yield
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{line_no}: {exc}") from None


def save_edge_list(graph: CSRGraph, path: str) -> None:
    """Write ``src dst [weight]`` lines, one per edge."""
    src = graph.edge_sources()
    with open(path, "w", encoding="ascii") as handle:
        if graph.weights is not None:
            for s, d, w in zip(src, graph.col_idx, graph.weights):
                handle.write(f"{s} {d} {w:g}\n")
        else:
            for s, d in zip(src, graph.col_idx):
                handle.write(f"{s} {d}\n")


def load_edge_list(
    path: str, num_vertices: Optional[int] = None, dedup: bool = False
) -> CSRGraph:
    """Read ``src dst [weight]`` lines.  Lines starting with '#' are skipped."""
    src_list, dst_list, weight_list = [], [], []
    saw_weights = False
    for line_no, line in _text_lines(path):
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"{path}:{line_no}: expected 2 or 3 fields")
        weighted = len(parts) == 3
        if src_list and weighted != saw_weights:
            raise GraphFormatError(f"{path}:{line_no}: inconsistent weights")
        saw_weights = weighted
        with _fields_of(path, line_no):
            src_list.append(int(parts[0]))
            dst_list.append(int(parts[1]))
            if weighted:
                weight_list.append(float(parts[2]))
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    weights = np.asarray(weight_list) if saw_weights else None
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        if num_vertices <= 0:
            raise GraphFormatError(f"{path}: no edges and no vertex count given")
    return CSRGraph.from_edges(src, dst, num_vertices, weights=weights, dedup=dedup)


def save_dimacs(graph: CSRGraph, path: str) -> None:
    """Write DIMACS shortest-path (.gr) format: 1-based, integer weights."""
    src = graph.edge_sources()
    weights = graph.weights
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for i, (s, d) in enumerate(zip(src, graph.col_idx)):
            w = int(weights[i]) if weights is not None else 1
            handle.write(f"a {s + 1} {d + 1} {w}\n")


def load_dimacs(path: str) -> CSRGraph:
    """Read DIMACS shortest-path (.gr) format."""
    num_vertices = None
    src_list, dst_list, weight_list = [], [], []
    for line_no, line in _text_lines(path):
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphFormatError(f"{path}:{line_no}: bad problem line")
            with _fields_of(path, line_no):
                num_vertices = int(parts[2])
        elif parts[0] == "a":
            if len(parts) != 4:
                raise GraphFormatError(f"{path}:{line_no}: bad arc line")
            with _fields_of(path, line_no):
                src_list.append(int(parts[1]) - 1)
                dst_list.append(int(parts[2]) - 1)
                weight_list.append(float(parts[3]))
        else:
            raise GraphFormatError(f"{path}:{line_no}: unknown record {parts[0]}")
    if num_vertices is None:
        raise GraphFormatError(f"{path}: missing problem line")
    return CSRGraph.from_edges(
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        num_vertices,
        weights=np.asarray(weight_list),
    )
