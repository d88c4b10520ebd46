"""``repro sweep --resume`` and ``repro report`` count what finished in
the run cache.

A cached sweep keeps one empty marker, ``<cache>/sweeps/<id>.jsonl``,
from its start until it finishes with no failure; the marker says only
that the sweep did not finish.  Which runs finished is read from the
run cache, so runs that another sweep cached count, and runs the cache
lost do not.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.cli import main
from repro.runner import RunCache
from repro.runner import execute

#: A three-run grid: bfs from two sampled sources, and pr.
GRID = ["--graph", "rmat:9:8", "--gpns", "1", "--sources", "2"]


def sweep(cache, workloads, *extra):
    return main([
        "sweep", *GRID, "--workloads", workloads, "--workers", "1",
        "--no-progress", "--cache-dir", str(cache), *extra,
    ])


def report(cache, workloads):
    return main([
        "report", *GRID, "--workloads", workloads, "--cache-dir", str(cache),
    ])


def markers(cache):
    root = cache / "sweeps"
    return sorted(os.listdir(root)) if root.exists() else []


def test_resume_recomputes_runs_the_cache_lost(tmp_path, monkeypatch, capsys):
    run_nova = execute._SYSTEM_EXECUTORS["nova"]

    def broken_pr(spec):
        if spec.workload == "pr":
            raise RuntimeError("pr is broken")
        return run_nova(spec)

    # Forked sweep children inherit the patched executor.
    monkeypatch.setitem(execute._SYSTEM_EXECUTORS, "nova", broken_pr)
    assert sweep(tmp_path, "bfs,pr") == 1
    out = capsys.readouterr().out
    assert "3 runs: 0 cached, 2 computed, 1 failed" in out
    assert "rerun with --resume" in out
    assert len(markers(tmp_path)) == 1

    # The two bfs runs finished, but the cache no longer holds them.
    monkeypatch.setitem(execute._SYSTEM_EXECUTORS, "nova", run_nova)
    assert RunCache(str(tmp_path)).prune(0) == 2
    assert sweep(tmp_path, "bfs,pr", "--resume") == 0
    out = capsys.readouterr().out
    assert "0/3 runs already cached" in out
    assert "3 runs: 0 cached, 3 computed" in out
    assert markers(tmp_path) == []


def test_resume_counts_runs_another_sweep_cached(tmp_path, capsys):
    assert sweep(
        tmp_path, "bfs,pr", "--timeout", "0.000001", "--retries", "0"
    ) == 1
    assert "3 failed" in capsys.readouterr().out
    assert list(RunCache(str(tmp_path)).entries()) == []
    assert len(markers(tmp_path)) == 1

    # A bfs-only sweep of the same graph caches two of the grid's runs.
    assert sweep(tmp_path, "bfs") == 0
    assert "2 runs: 0 cached, 2 computed" in capsys.readouterr().out

    assert report(tmp_path, "bfs,pr") == 0
    assert "note: 2/3 runs of this grid are cached" in capsys.readouterr().err

    assert sweep(tmp_path, "bfs,pr", "--resume") == 0
    out = capsys.readouterr().out
    assert "2/3 runs already cached" in out
    assert "3 runs: 2 cached, 1 computed" in out
    assert markers(tmp_path) == []


def test_report_notes_a_partial_grid_without_a_marker(tmp_path, capsys):
    assert sweep(tmp_path, "bfs") == 0
    assert markers(tmp_path) == []
    capsys.readouterr()

    assert report(tmp_path, "bfs,pr") == 0
    assert "note: 2/3 runs of this grid are cached" in capsys.readouterr().err
    assert report(tmp_path, "bfs") == 0
    assert "note:" not in capsys.readouterr().err


def test_a_sweep_leaves_nothing_but_cache_entries(tmp_path, capsys):
    assert sweep(tmp_path, "bfs,pr") == 0
    assert markers(tmp_path) == []
    names = {name for _, _, files in os.walk(tmp_path) for name in files}
    assert len(names) == 3
    assert all(name.endswith(".pkl") for name in names)


def test_a_manifest_from_the_per_key_journal_still_resumes(tmp_path, capsys):
    """The marker keeps the path of the per-key journal it replaced:
    SHA-256 over the sweep's sorted unique keys, one per line."""
    assert sweep(tmp_path, "bfs,pr") == 0
    capsys.readouterr()
    keys = sorted(
        os.path.basename(path)[: -len(".pkl")]
        for path, _, _ in RunCache(str(tmp_path)).entries()
    )
    ident = hashlib.sha256(
        "".join(key + "\n" for key in keys).encode()
    ).hexdigest()
    manifest = tmp_path / "sweeps" / (ident + ".jsonl")
    records = [{"schema": 1, "total": 3}] + [{"key": key} for key in keys[:1]]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))

    assert sweep(tmp_path, "bfs,pr", "--resume") == 0
    out = capsys.readouterr().out
    assert f"resuming sweep {ident[:12]}: 3/3 runs already cached" in out
    assert not manifest.exists()
