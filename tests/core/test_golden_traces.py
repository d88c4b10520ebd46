"""Golden-trace regression tests.

Four fixed, fully deterministic runs -- async BFS on a road grid, BSP
PageRank on an R-MAT graph, async CC on a symmetrized R-MAT graph and
async SSSP on a weighted road grid -- are checked against timeline
fixtures committed under ``tests/fixtures/``.  Any change to engine
timing, counter accounting, or the timeline export schema shows up as a
diff against the golden JSON, turning silent semantic drift into a test
failure.

The timeline cannot show write-backs: the HBM vertex channel is duplex
and a PE writes back at most one line per miss it reads, so writes
never set a quantum's duration.  Each run's cache hits, misses and
write-backs and its HBM write bytes are therefore pinned as well, in
``golden_run_counters.json``.  The BFS and PageRank runs never evict a
dirty line; the CC and SSSP runs write back thousands, so these
counters pin the cache model's eviction logic.

To regenerate after an *intentional* change::

    PYTHONPATH=src python -m tests.core.test_golden_traces

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.system import NovaSystem
from repro.graph.generators import rmat, road_grid, with_uniform_weights
from repro.obs import ObsConfig, make_recorder
from repro.sim.config import scaled_config

FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures"
)

#: name -> (fixture file, run recipe).  Interleave placement keeps the
#: runs free of placement RNG; the graph generators are seeded.
GOLDEN_RUNS = {
    "bfs_grid": "golden_bfs_grid_timeline.json",
    "pr_rmat": "golden_pr_rmat_timeline.json",
    "cc_rmat": "golden_cc_rmat_timeline.json",
    "sssp_grid": "golden_sssp_grid_timeline.json",
}

#: Run-level counters of every golden run, keyed by run name.
COUNTERS_FIXTURE = "golden_run_counters.json"

#: Goldens whose runs must keep evicting dirty lines.
WRITEBACK_RUNS = ("cc_rmat", "sssp_grid")


def execute_golden(name, engine="vectorized"):
    if name == "bfs_grid":
        graph = road_grid(8, 8, diagonal_fraction=0.0)
        config = scaled_config(num_gpns=1, scale=1 / 1024)
        workload, source, kwargs = "bfs", 0, {}
    elif name == "pr_rmat":
        graph = rmat(9, 8, seed=5)
        config = scaled_config(num_gpns=2, scale=1 / 1024)
        workload, source, kwargs = "pr", None, {"max_supersteps": 3}
    elif name == "cc_rmat":
        graph = rmat(11, 8, seed=5).symmetrized()
        config = scaled_config(num_gpns=2, scale=1 / 1024)
        workload, source, kwargs = "cc", None, {}
    elif name == "sssp_grid":
        graph = with_uniform_weights(
            road_grid(40, 40, diagonal_fraction=0.0), seed=7
        )
        config = scaled_config(num_gpns=1, scale=1 / 1024)
        workload, source, kwargs = "sssp", 0, {}
    else:
        raise KeyError(name)
    recorder = make_recorder(ObsConfig(timeline=True, timeline_capacity=512))
    system = NovaSystem(config, graph, placement="interleave", engine=engine)
    return system.run(workload, source=source, recorder=recorder, **kwargs)


def run_counters(run):
    cache = run.stats.child("cache")
    return {
        "cache_hits": cache.get("hits"),
        "cache_misses": cache.get("misses"),
        "cache_writebacks": cache.get("writebacks"),
        "hbm_write_bytes": run.traffic["hbm_write_bytes"],
    }


def load_fixture(name):
    with open(os.path.join(FIXTURE_DIR, GOLDEN_RUNS[name]), encoding="utf-8") as f:
        return json.load(f)


def load_counters(name):
    with open(os.path.join(FIXTURE_DIR, COUNTERS_FIXTURE), encoding="utf-8") as f:
        return json.load(f)[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_timeline_matches_golden_fixture(name):
    run = execute_golden(name)
    assert run.timeline == load_fixture(name), (
        f"{name}: timeline drifted from the committed golden trace; if "
        "the change is intentional, regenerate with "
        "`python -m tests.core.test_golden_traces` and review the diff"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_scalar_engine_matches_golden_fixture(name):
    """The goldens pin *both* engines, not just the vectorized one."""
    run = execute_golden(name, engine="scalar")
    assert run.timeline == load_fixture(name)


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_counters_match_golden_fixture(name, engine):
    assert run_counters(execute_golden(name, engine=engine)) == load_counters(name)


@pytest.mark.parametrize("name", WRITEBACK_RUNS)
def test_golden_run_exercises_writebacks(name):
    """A resized recipe must not silently drop the eviction coverage."""
    assert load_counters(name)["cache_writebacks"] > 0


def test_fixture_roundtrips_exactly():
    """json.dump/json.load is lossless for the timeline export."""
    run = execute_golden("bfs_grid")
    assert json.loads(json.dumps(run.timeline)) == run.timeline


def regenerate():
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    counters = {}
    for name, filename in GOLDEN_RUNS.items():
        run = execute_golden(name)
        counters[name] = run_counters(run)
        path = os.path.join(FIXTURE_DIR, filename)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(run.timeline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {path} ({run.quanta} quanta)")
    path = os.path.join(FIXTURE_DIR, COUNTERS_FIXTURE)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(counters, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
