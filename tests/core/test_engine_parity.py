"""Golden equivalence: vectorized engine vs the scalar reference.

The flat-batched :class:`~repro.core.engine.NovaEngine` must be
*bit-identical* to :class:`~repro.core.engine_scalar.ScalarNovaEngine`
-- same simulated time, same quanta count, same counters, same vertex
state -- on every workload and graph shape.  These tests compare full
runs across traversal (bfs, sssp) and iterative (pr) workloads on
power-law, grid, and uniform-random graphs, from 1 GPN up to 8 (64
PEs), and check that instrumenting a run does not change it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import NovaSystem
from repro.graph.generators import rmat, with_uniform_weights
from repro.obs import ObsConfig, make_recorder
from repro.sim.config import scaled_config


def run_both(config, graph, workload, source=None, **kwargs):
    runs = []
    for engine in ("scalar", "vectorized"):
        system = NovaSystem(config, graph, placement="random", engine=engine)
        runs.append(
            system.run(workload, source=source, **kwargs)
        )
    return runs


def assert_identical(scalar, vectorized):
    assert vectorized.elapsed_seconds == scalar.elapsed_seconds
    assert vectorized.quanta == scalar.quanta
    assert np.array_equal(vectorized.result, scalar.result)
    assert vectorized.messages_sent == scalar.messages_sent
    assert vectorized.messages_processed == scalar.messages_processed
    assert vectorized.useful_messages == scalar.useful_messages
    assert vectorized.redundant_messages == scalar.redundant_messages
    assert vectorized.coalesced_messages == scalar.coalesced_messages
    assert vectorized.activations == scalar.activations
    assert vectorized.edges_traversed == scalar.edges_traversed
    assert vectorized.breakdown == scalar.breakdown
    assert vectorized.traffic == scalar.traffic
    assert vectorized.utilization == scalar.utilization


GRAPHS = ("rmat_graph", "grid_graph", "random_graph")


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_bfs_parity(request, two_gpn_config, graph_name):
    graph = request.getfixturevalue(graph_name)
    source = int(np.argmax(graph.out_degrees()))
    scalar, vectorized = run_both(two_gpn_config, graph, "bfs", source=source)
    assert_identical(scalar, vectorized)


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_sssp_parity(request, two_gpn_config, graph_name):
    graph = with_uniform_weights(request.getfixturevalue(graph_name), seed=7)
    source = int(np.argmax(graph.out_degrees()))
    scalar, vectorized = run_both(two_gpn_config, graph, "sssp", source=source)
    assert_identical(scalar, vectorized)


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_pr_parity(request, two_gpn_config, graph_name):
    graph = request.getfixturevalue(graph_name)
    scalar, vectorized = run_both(
        two_gpn_config, graph, "pr", max_supersteps=3
    )
    assert_identical(scalar, vectorized)


def test_bfs_parity_single_gpn_spill_heavy(small_config, rmat_graph):
    """The 1-GPN small config spills aggressively -- covers the FIFO path."""
    source = int(np.argmax(rmat_graph.out_degrees()))
    scalar, vectorized = run_both(small_config, rmat_graph, "bfs", source=source)
    assert_identical(scalar, vectorized)


def test_fifo_vmu_mode_parity(two_gpn_config, rmat_graph):
    """The fifo VMU ablation keeps its own (scalar) supply path."""
    config = two_gpn_config.with_updates(vmu_mode="fifo")
    source = int(np.argmax(rmat_graph.out_degrees()))
    scalar, vectorized = run_both(config, rmat_graph, "bfs", source=source)
    assert_identical(scalar, vectorized)


def test_vectorized_answers_match_reference_oracle(two_gpn_config, rmat_graph):
    """Beyond engine-vs-engine: the vectorized answer is *correct*."""
    source = int(np.argmax(rmat_graph.out_degrees()))
    system = NovaSystem(
        two_gpn_config, rmat_graph, placement="random", engine="vectorized"
    )
    system.run("bfs", source=source, compute_reference=True)


@pytest.mark.parametrize(
    "workload, scale, source, kwargs",
    [("bfs", 13, 0, {}), ("pr", 12, None, {"max_supersteps": 20})],
    ids=["bfs_rmat13", "pr_rmat12"],
)
def test_eight_gpn_parity_and_instrumented_run(workload, scale, source, kwargs):
    """64 PEs: scalar == vectorized, and a vectorized run with the
    timeline recorder and phase profiler attached == the plain run."""
    config = scaled_config(num_gpns=8, scale=1.0 / 256.0)
    graph = rmat(scale, 8, seed=5)
    scalar, vectorized = run_both(config, graph, workload, source, **kwargs)
    assert_identical(scalar, vectorized)
    recorder = make_recorder(ObsConfig(timeline=True, phases=True))
    system = NovaSystem(config, graph, placement="random", engine="vectorized")
    instrumented = system.run(
        workload, source=source, recorder=recorder, **kwargs
    )
    assert instrumented.timeline is not None
    assert_identical(vectorized, instrumented)


@pytest.mark.parametrize(
    "workload, num_gpns, config_scale, graph_scale",
    [("bfs", 33, None, 10), ("cc", 8, 1.0, 12)],
    ids=["bfs_264_pes", "cc_full_size_cache"],
)
def test_wide_key_parity(workload, num_gpns, config_scale, graph_scale):
    """Where the vectorized engine's narrow sort keys widen: 264 PEs need
    a 16-bit owner key, and 64 full-size caches (2048 sets each) have
    2**17 sets in all, so grouping a batch by set takes two radix passes."""
    if config_scale is None:
        config = scaled_config(num_gpns=num_gpns)
    else:
        config = scaled_config(num_gpns=num_gpns, scale=config_scale)
    sets = config.num_pes * config.cache_bytes_per_pe // config.cache_line_bytes
    assert config.num_pes > 256 or sets > 1 << 16
    graph = rmat(graph_scale, 8, seed=5)
    source = None
    if workload == "cc":
        graph = graph.symmetrized()
    else:
        source = int(np.argmax(graph.out_degrees()))
    scalar, vectorized = run_both(config, graph, workload, source)
    assert vectorized.quanta >= 3
    assert vectorized.edges_traversed > graph.num_edges // 2
    assert_identical(scalar, vectorized)
