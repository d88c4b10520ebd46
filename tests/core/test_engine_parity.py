"""Golden equivalence: vectorized engine vs the scalar reference.

The flat-batched :class:`~repro.core.engine.NovaEngine` must be
*bit-identical* to :class:`~repro.core.engine_scalar.ScalarNovaEngine`
-- same simulated time, same quanta count, same counters, same vertex
state -- on every workload and graph shape.  These tests compare full
runs across traversal (bfs, sssp) and iterative (pr) workloads on
power-law, grid, and uniform-random graphs, from 1 GPN up to 33 (264
PEs), in both of Table I's spilling modes, and check that instrumenting
a run does not change it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queues import PooledPendingWork, PooledQueue
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


WORKLOADS = ("bfs", "sssp", "cc", "pr")


def workload_run_both(config, graph, workload):
    """Both engines on ``workload``, with the graph variant it needs."""
    kwargs = {}
    if workload == "sssp":
        graph = with_uniform_weights(graph, seed=7)
    if workload == "cc":
        graph = graph.symmetrized()
    elif workload == "pr":
        kwargs["max_supersteps"] = 3
    else:
        kwargs["source"] = int(np.argmax(graph.out_degrees()))
    scalar, vectorized = run_both(config, graph, workload, **kwargs)
    if config.vmu_mode == "fifo":
        # FIFO retrieval reads spilled copies in order: no superblock scans.
        assert vectorized.traffic["hbm_wasteful_read_bytes"] == 0
    assert vectorized.activations > 0
    assert_identical(scalar, vectorized)


def test_fifo_vmu_mode_parity(two_gpn_config, rmat_graph):
    """The pooled spill buffers (one push and one write charge per
    spill, one budgeted pop per retrieval) match the scalar engine's
    per-PE FIFOs on every workload."""
    config = two_gpn_config.with_updates(vmu_mode="fifo")
    for workload in WORKLOADS:
        workload_run_both(config, rmat_graph, workload)


def spy_pops(monkeypatch):
    """Spy on the vectorized engine's pooled-queue pops.

    Returns two lists that fill as runs pop: one flag per active-buffer
    pop, set when it split an entry, and one per FIFO retrieval, set
    when a waiting PE got budget 0 while another waiting PE retrieved.
    """
    splits, mixed = [], []
    pop_edges_all = PooledPendingWork.pop_edges_all
    pop_all = PooledQueue.pop_all

    def spy_edges(self, budget):
        before = self.sizes.copy()
        out = pop_edges_all(self, budget)
        # A split row is returned but stays queued.
        splits.append(bool((out[0] > before - self.sizes).any()))
        return out

    def spy_rows(self, budget):
        if np.ndim(budget):  # a per-PE budget: FIFO retrieval
            waiting = self.sizes > 0
            mixed.append(
                bool((waiting & (budget == 0)).any())
                and bool((waiting & (budget > 0)).any())
            )
        return pop_all(self, budget)

    monkeypatch.setattr(PooledPendingWork, "pop_edges_all", spy_edges)
    monkeypatch.setattr(PooledQueue, "pop_all", spy_rows)
    return splits, mixed


@pytest.mark.parametrize("vmu_mode", ("tracker", "fifo"))
def test_split_heavy_parity_eight_gpns(vmu_mode, monkeypatch):
    """64 PEs with one propagate FU per GPN: the MGU takes 500 edges per
    PE per quantum (the default 24,000 splits nothing on test-sized
    graphs), so hubs' edge ranges split across quanta.  In FIFO mode a
    hub's PE then sits at its supply target, and retrieval pops with
    budget 0 for it while other PEs retrieve."""
    splits, mixed = spy_pops(monkeypatch)
    config = scaled_config(num_gpns=8, scale=1.0 / 256.0).with_updates(
        propagate_fus_per_gpn=1, vmu_mode=vmu_mode
    )
    graph = rmat(13, 16, seed=5)
    for workload in WORKLOADS:
        workload_run_both(config, graph, workload)
    assert sum(splits) >= 10
    if vmu_mode == "fifo":
        assert sum(mixed) >= 10


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
