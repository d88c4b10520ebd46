"""The vertex-program interface shared by all workloads and both engines.

A workload is described by two functions (Section II-A):

- **reduce** -- given a message ``<u, delta>`` and vertex ``u``'s current
  property, produce the new property (e.g. ``min`` for SSSP).
- **propagate** -- given an active vertex's property and an edge weight,
  produce the update sent to the edge's destination.

The engines (NOVA and the PolyGraph baseline) own all scheduling, queue,
and timing behaviour; programs are pure batch semantics over numpy
arrays.  This split is what lets one workload implementation drive both
accelerators and both execution modes (asynchronous and BSP).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph


@dataclass
class ProgramState:
    """Mutable per-run state: the graph plus named property arrays."""

    graph: CSRGraph
    source: Optional[int]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.arrays[name] = value


@dataclass
class ReduceOutcome:
    """Result of applying one batch of messages.

    Attributes:
        useful_messages: messages that changed state (the rest were
            redundant work -- e.g. a worse distance arriving late).
        improved: unique ids of vertices whose value improved and which
            therefore (re)need propagation.  The engine intersects this
            with its active flags to count *new* activations vs messages
            that **coalesced** into an already-pending activation.
    """

    useful_messages: int
    improved: np.ndarray


class VertexProgram(ABC):
    """Batch semantics of one graph workload."""

    #: Workload short name (paper abbreviation).
    name: str = "abstract"
    #: "async" (message-driven) or "bsp" (bulk-synchronous).
    mode: str = "async"
    #: Whether edges must carry weights.
    needs_weights: bool = False
    #: How two messages to the same vertex combine ("min" or "sum").
    #: Used by replica/coalescing structures (e.g. PolyGraph's on-chip
    #: replica tables) that merge messages before the reduce proper.
    combine: str = "min"

    @property
    def combine_ufunc(self) -> np.ufunc:
        return np.minimum if self.combine == "min" else np.add

    @property
    def combine_identity(self) -> float:
        return np.inf if self.combine == "min" else 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @abstractmethod
    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        """Allocate property arrays and record scalars for one run."""

    @abstractmethod
    def initial_active(self, state: ProgramState) -> np.ndarray:
        """Vertices active at time zero (e.g. the BFS/SSSP source)."""

    # ------------------------------------------------------------------
    # Reduction (Message Processing Unit)
    # ------------------------------------------------------------------

    @abstractmethod
    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        """Apply a batch of messages to the vertex properties."""

    # ------------------------------------------------------------------
    # Propagation (Message Generation Unit)
    # ------------------------------------------------------------------

    @abstractmethod
    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        """Property values captured into active-buffer entries.

        This is the ``alpha`` member of the ``<alpha, start, end>`` active
        buffer entry: the value propagation will use, frozen at the
        moment the vertex is pulled from the vertex set.
        """

    @abstractmethod
    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-edge message values from expanded source values."""

    def propagation_graph(self, state: ProgramState) -> CSRGraph:
        """CSR whose edges propagation expands (BC overrides per phase)."""
        return state.graph

    # ------------------------------------------------------------------
    # BSP hook
    # ------------------------------------------------------------------

    def superstep_end(self, state: ProgramState) -> np.ndarray:
        """Commit a BSP superstep; return the next superstep's active ids.

        Async programs never reach this; the default raises to catch
        engine/mode mismatches early.
        """
        raise WorkloadError(f"{self.name} is an async program; no supersteps")

    # ------------------------------------------------------------------
    # Results and references
    # ------------------------------------------------------------------

    @abstractmethod
    def result(self, state: ProgramState) -> np.ndarray:
        """The final per-vertex answer."""

    @abstractmethod
    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        """Sequential oracle: (answer, edges a sequential algorithm traverses).

        The edge count is the numerator of the paper's *work efficiency*
        metric (Section II-A).
        """

    def check_graph(self, graph: CSRGraph) -> None:
        """Validate workload prerequisites (weights etc.)."""
        if self.needs_weights and not graph.has_weights:
            raise WorkloadError(f"{self.name} requires edge weights")


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer id array, as ``np.unique``.

    One sort plus a neighbour compare: numpy >= 2.3's ``np.unique``
    hashes the values first and then sorts the result anyway, which is
    several times slower on the engines' per-quantum id batches.
    """
    ids = np.sort(ids, axis=None)
    keep = np.empty(ids.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def expand_edges(
    graph: CSRGraph, vertices: np.ndarray, starts: Optional[np.ndarray] = None,
    ends: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Vectorized CSR expansion of (possibly partial) edge ranges.

    Args:
        graph: the CSR to expand.
        vertices: source vertex per range.
        starts, ends: absolute edge-array offsets; default to each
            vertex's full range.

    Returns:
        (edge_index, destinations, weights) where ``edge_index`` maps each
        expanded edge back to its position in ``vertices``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if starts is None:
        starts = graph.row_ptr[vertices]
    if ends is None:
        ends = graph.row_ptr[vertices + 1]
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    counts = ends - starts
    if (counts < 0).any():
        raise WorkloadError("edge ranges must have end >= start")
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, (np.empty(0) if graph.weights is not None else None)
    # Edge offsets: for each range, starts[i] + 0..counts[i]-1, i.e. each
    # edge's output position shifted by its range's start minus the
    # output position of the range's first edge (one repeat).
    owner = np.repeat(np.arange(vertices.shape[0], dtype=np.int64), counts)
    offsets = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts
    )
    dests = graph.col_idx[offsets]
    weights = graph.weights[offsets] if graph.weights is not None else None
    return owner, dests, weights
