"""Command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError, ReproError
from repro.graph import io as graph_io
from repro.graph.generators import rmat
from repro.graph.specifier import _GENERATOR_FORMS, build_graph
from repro.obs.report import REPORT_SCHEMA
from repro.units import KiB, MiB, parse_size


class TestParseSize:
    def test_units(self):
        assert parse_size("64KiB") == 64 * KiB
        assert parse_size("1.5MiB") == int(1.5 * MiB)
        assert parse_size("4096") == 4096
        assert parse_size("2b") == 2

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            parse_size("lots")

    @pytest.mark.parametrize("text", ["12XB", "", " ", "nan", "infKiB"])
    def test_bad_size_names_the_form(self, text):
        with pytest.raises(ConfigError, match="optional B, KiB, MiB or GiB"):
            parse_size(text)


class TestGraphSpecs:
    @pytest.mark.parametrize(
        "spec, form",
        [
            ("rmat:", "rmat:SCALE[:EDGE_FACTOR]"),
            ("rmat:4:4:4", "rmat:SCALE[:EDGE_FACTOR]"),
            ("urand:10", "urand:VERTICES:EDGES"),
            ("powerlaw:10:x", "powerlaw:VERTICES:AVG_DEGREE"),
            ("powerlaw:10:nan", "powerlaw:VERTICES:AVG_DEGREE"),
            ("road:3:", "road:WIDTH:HEIGHT"),
        ],
    )
    def test_malformed_generator_specifier_names_its_form(self, spec, form):
        with pytest.raises(ReproError, match=re.escape(f"expected {form}")):
            build_graph(spec)

    def test_rmat(self):
        g = build_graph("rmat:8:4", seed=1)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_urand(self):
        g = build_graph("urand:100:500", seed=1)
        assert (g.num_vertices, g.num_edges) == (100, 500)

    def test_powerlaw(self):
        g = build_graph("powerlaw:200:8", seed=1)
        assert g.num_vertices == 200

    def test_road(self):
        g = build_graph("road:5:4", seed=1)
        assert g.num_vertices == 20

    def test_suite(self):
        g = build_graph("suite:road")
        assert g.num_vertices > 1000

    def test_file_roundtrip(self, tmp_path):
        g = rmat(6, 4, seed=2)
        path = str(tmp_path / "g.npz")
        graph_io.save_npz(g, path)
        loaded = build_graph(path)
        assert loaded.num_edges == g.num_edges

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            build_graph("torus:3:3")
        with pytest.raises(ReproError):
            build_graph("mystery")

    @pytest.mark.parametrize(
        "verb",
        [("run",), ("sweep",), ("report",), ("profile",), ("submit",),
         ("stream", "session"), ("graph", "build")],
        ids=" ".join,
    )
    def test_graph_help_names_every_specifier_form(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*verb, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "see --help header" not in text
        forms = [form for form, _, _ in _GENERATOR_FORMS.values()]
        for form in forms + ["suite:NAME", ".npz/.txt/.el/.gr"]:
            assert form in text


class TestCommands:
    def test_run_nova(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--workload", "bfs",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "nova/bfs" in out
        assert "verified" in out

    def test_run_polygraph(self, tmp_path, capsys):
        assert main(["run", "--system", "polygraph", "--graph", "rmat:10:8",
                     "--onchip", "2KiB",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "polygraph/bfs" in capsys.readouterr().out

    def test_run_ligra(self, tmp_path, capsys):
        assert main(["run", "--system", "ligra", "--graph", "rmat:10:8",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "ligra/bfs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "system, extra", [("polygraph", ["--onchip", "2KiB"]), ("ligra", [])]
    )
    def test_run_baseline_verify(self, system, extra, tmp_path, capsys):
        assert main(["run", "--system", system, "--graph", "rmat:10:8",
                     *extra, "--verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{system}/bfs" in out
        assert "workeff=" in out
        assert "verified" in out
        assert not any(tmp_path.iterdir())  # --verify stores nothing

    def test_run_uses_the_run_cache(self, tmp_path, capsys):
        args = ["run", "--graph", "rmat:9:8", "--workload", "bfs",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache miss" in first
        # The repeat answers from the cache with the identical report.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_old_format_entry_is_recomputed_with_the_same_lines(
        self, tmp_path, capsys
    ):
        import hashlib
        import pickle

        from repro.runner.cache import RunCache

        args = ["run", "--graph", "rmat:9:8", "--workload", "sssp",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        # Rewrite the entry as code before summary headers wrote it.
        cache = RunCache(str(tmp_path))
        ((path, _, _),) = list(cache.entries())
        key = path.rsplit("/", 1)[1][: -len(".pkl")]
        payload = pickle.dumps(cache.load(key))
        with open(path, "wb") as f:
            f.write(b"RNC1" + hashlib.sha256(payload).digest() + payload)
        assert main(args) == 0
        second = capsys.readouterr().out
        assert second.startswith(f"cache miss {key[:12]}")
        assert first.splitlines()[1:] == second.splitlines()[1:]
        with open(path, "rb") as f:
            assert f.read(4) == b"RNC2"  # recomputed and rewritten

    def test_unusable_graph_store(self, tmp_path, capsys, monkeypatch):
        """A store directory under a regular file: a run builds in
        memory and prints what a usable store prints; ``graph build``,
        whose job is to publish, fails with one error line."""
        from repro.obs.counters import FAULT_COUNTERS
        from repro.runner.spec import _GRAPH_MEMO

        def run(store_dir, cache_dir):
            monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", store_dir)
            _GRAPH_MEMO.clear()
            assert main(["run", "--workload", "bfs", "--graph", "rmat:8:4",
                         "--cache-dir", cache_dir]) == 0
            return capsys.readouterr().out

        usable = run(str(tmp_path / "graphs"), str(tmp_path / "c1"))
        (tmp_path / "file").write_text("")
        unusable = str(tmp_path / "file" / "graphs")
        before = FAULT_COUNTERS.get("graph_store.put_errors")
        assert run(unusable, str(tmp_path / "c2")) == usable
        assert FAULT_COUNTERS.get("graph_store.put_errors") > before
        assert usable.startswith("cache miss ")

        assert main(["graph", "build", "--graph", "rmat:8:4",
                     "--store-dir", unusable]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: rmat:8:4 was built but not published: cannot write "
            f"to the graph store at {unusable}\n"
        )

    def test_graph_verify(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "graphs")
        assert main(["graph", "build", "--graph", "rmat:8:4",
                     "--workloads", "bfs,sssp", "--store-dir", store]) == 0
        capsys.readouterr()
        assert main(["graph", "verify", "--store-dir", store]) == 0
        assert capsys.readouterr().out == (
            f"verified 2 artifact(s), evicted 0 ({store})\n"
        )
        # Tamper with one recorded digest: verify evicts it and fails.
        manifest = next((tmp_path / "graphs").glob("*/*/manifest.json"))
        data = json.loads(manifest.read_text())
        data["csr_digest"] = "0" * 64
        manifest.write_text(json.dumps(data))
        assert main(["graph", "verify", "--store-dir", store]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"evicted {data['digest'][:12]} rmat:8:4: csr_digest mismatch"
        )
        assert lines[1] == f"verified 2 artifact(s), evicted 1 ({store})"
        assert not manifest.exists()
        assert main(["graph", "verify", "--store-dir", store]) == 0
        assert "verified 1 artifact(s), evicted 0" in capsys.readouterr().out

    def test_run_no_cache_bypasses(self, tmp_path, capsys):
        assert main(["run", "--graph", "rmat:9:8", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache miss" not in out and "cache hit" not in out
        assert not any(tmp_path.iterdir())  # nothing stored either

    def test_run_seed_is_part_of_the_key(self, tmp_path, capsys):
        base = ["run", "--graph", "rmat:9:8", "--cache-dir", str(tmp_path)]
        assert main(base + ["--seed", "1"]) == 0
        assert "cache miss" in capsys.readouterr().out
        # A different graph seed is a different run, not a cache hit.
        assert main(base + ["--seed", "2"]) == 0
        assert "cache miss" in capsys.readouterr().out
        assert main(base + ["--seed", "1"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_run_scales_suite_graphs(self, tmp_path, capsys):
        # --scale sizes the suite graph along with the capacities:
        # road at 1/1024 is a 153 x 153 grid (V=93,636 at 1/256).
        assert main(["run", "--workload", "bfs", "--graph", "suite:road",
                     "--scale", "0.0009765625",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "V=23,409 " in capsys.readouterr().out

    def test_run_sssp_auto_weights(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--workload", "sssp",
                     "--verify"]) == 0

    def test_run_cc_auto_symmetrize(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--workload", "cc",
                     "--verify"]) == 0

    def test_run_fifo_mode(self, capsys):
        assert main(["run", "--graph", "rmat:10:8", "--vmu-mode", "fifo",
                     "--verify"]) == 0

    def test_generate(self, tmp_path, capsys):
        out = str(tmp_path / "g.npz")
        assert main(["generate", "--kind", "rmat:8:4", "--out", out]) == 0
        g = graph_io.load_npz(out)
        assert g.num_vertices == 256

    def test_generate_weighted_edgelist(self, tmp_path):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "--kind", "road:4:4", "--out", out,
                     "--weights"]) == 0
        g = graph_io.load_edge_list(out)
        assert g.has_weights

    def test_info(self, capsys):
        assert main(["info", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.50 MiB" in out  # the paper's on-chip budget per GPN

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "NOVA" in out and "Dalorex" in out

    def test_error_path(self, capsys):
        assert main(["run", "--graph", "nope:1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graph", ["rmat:", "powerlaw:10", "rmat:x", "rmat:5:x", "road:a:b"]
    )
    def test_malformed_generator_specifier_is_one_error_line(
        self, graph, tmp_path, capsys
    ):
        argvs = (
            ["run", "--workload", "bfs", "--graph", graph, "--no-cache"],
            ["generate", "--kind", graph, "--out", str(tmp_path / "g.npz")],
        )
        for argv in argvs:
            assert main(argv) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: malformed graph specifier '{graph}'")

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("missing.gr", None, "no such file: "),
            ("missing.txt", None, "no such file: "),
            ("bad.gr", "p sp 3 2\na 1 2 x\n", "bad.gr:2: "),
            ("bad.txt", "0 1\n1 q\n", "bad.txt:2: "),
            ("bad.txt", "0 1 1.5\n1 2 w\n", "bad.txt:2: "),
            ("mixed.txt", "0 1 1.5\n1 2\n", "mixed.txt:2: inconsistent weights"),
            ("mixed.txt", "0 1\n1 2 1.5\n", "mixed.txt:2: inconsistent weights"),
            ("bad.gr", "p sp x 2\n", "bad.gr:1: "),
            ("bad.txt", "0 1\n1 \u00ff\n", "bad.txt: not ASCII text"),
        ],
    )
    def test_unreadable_graph_file_is_one_error_line(
        self, name, content, message, tmp_path, capsys
    ):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        assert main(["run", "--graph", str(path), "--no-cache"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    @pytest.mark.parametrize("onchip", ["12XB", ""])
    def test_bad_onchip_size_is_one_error_line(self, onchip, tmp_path, capsys):
        assert main(["run", "--system", "polygraph", "--graph", "rmat:6:4",
                     "--onchip", onchip, "--cache-dir", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: bad size {onchip!r}; expected")

    @pytest.mark.parametrize("extra", [[], ["--workloads", "bfs,sssp"]])
    def test_graph_build_refuses_scale_on_a_non_suite_graph(
        self, extra, tmp_path, capsys
    ):
        assert main(["graph", "build", "--graph", "rmat:8:4", "--scale", "0.5",
                     "--store-dir", str(tmp_path)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: GraphSpec.scale only applies to suite: graphs"
        ]

    @pytest.mark.parametrize("verb", [["sweep"], ["graph", "build"]],
                             ids=" ".join)
    def test_unknown_workload_is_one_error_line(self, verb, tmp_path, capsys):
        assert main([*verb, "--graph", "rmat:6:4", "--workloads", "bfs,bfss",
                     "--store-dir" if verb[0] == "graph" else "--cache-dir",
                     str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: unknown workload 'bfss'; choose from bfs, cc, sssp, pr, bc"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--weighted", "--symmetrized"])
    def test_graph_build_names_variants_only_by_workload(self, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["graph", "build", "--graph", "rmat:6:4", flag])
        assert exit_info.value.code == 2

    def test_status_unreachable_service(self, capsys):
        # Nothing listens on a reserved port: a clean error, not a dump.
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_profile(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "profile.json")
        assert main(["profile", "--graph", "rmat:9:8", "--workload", "bfs",
                     "--json", out]) == 0
        text = capsys.readouterr().out
        assert "by class:" in text and "by resource:" in text
        assert "phase profile" in text
        with open(out, encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["timeline"]["schema"] == 1
        assert payload["timeline"]["quanta"] > 0
        assert payload["report"]["dominant_class"] in (
            "bandwidth", "compute", "queue"
        )
        assert payload["phases"]["quanta_sampled"] > 0

    def test_profile_scalar_engine_no_phases(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "profile.json")
        assert main(["profile", "--graph", "rmat:8:8", "--workload", "pr",
                     "--engine", "scalar", "--pr-supersteps", "3",
                     "--no-phases", "--json", out]) == 0
        with open(out, encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["phases"] is None
        assert payload["timeline"]["quanta"] > 0

    def test_sweep(self, tmp_path, capsys):
        args = ["sweep", "--graph", "rmat:9:8", "--workloads", "bfs,pr",
                "--gpns", "1,2", "--sources", "2", "--workers", "1",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "6 runs: 0 cached, 6 computed" in first
        # Same sweep again: everything resolves from the cache.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "6 runs: 6 cached, 0 computed" in second
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_sweep_resume_requires_a_checkpoint(self, tmp_path, capsys):
        args = ["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                "--gpns", "1", "--sources", "1", "--workers", "1",
                "--cache-dir", str(tmp_path)]
        # Nothing was ever interrupted: --resume has nothing to pick up.
        assert main(args + ["--resume"]) == 1
        assert "no interrupted sweep to resume" in capsys.readouterr().err

        # A clean sweep removes its checkpoint, so --resume still errors.
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 1
        assert "no interrupted sweep to resume" in capsys.readouterr().err

    def test_sweep_fault_line_shows_only_sweep_counters(
        self, tmp_path, capsys
    ):
        # rmat:9:8 maps a graph-store artifact, so keying its cells hits
        # the graph-digest memo: a registry counter, not a sweep fault.
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "2", "--workers", "1",
                     "--timeout", "0.000001", "--retries", "0",
                     "--no-progress", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        (line,) = [
            line for line in out.splitlines()
            if line.startswith("fault counters:")
        ]
        assert "cache.digest_memo_hits" not in line
        assert "sweep.timeouts=2" in line
        names = [item.split("=")[0] for item in line.split()[2:]]
        assert names and all(name.startswith("sweep.") for name in names)

    @pytest.mark.parametrize("verb", ["sweep", "report"])
    @pytest.mark.parametrize(
        "grid, form",
        [
            (["--gpns", "1,x"], "expected comma-separated positive GPN"),
            (["--gpns", "2,0"], "expected comma-separated positive GPN"),
            (["--workloads", ","], "--workloads needs at least one of"),
        ],
    )
    def test_malformed_grid_is_one_error_line(
        self, verb, grid, form, tmp_path, capsys
    ):
        assert main([verb, "--graph", "rmat:6:4", *grid,
                     "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert form in lines[0]

    @pytest.mark.parametrize("source", ["999999", "64", "-1"])
    def test_out_of_range_source_is_refused_before_keying(
        self, source, tmp_path, capsys
    ):
        # rmat:6:4 has 64 vertices.  The refusal comes from lowering
        # the run, before its key: no "cache miss" line is printed.
        assert main(["run", "--graph", "rmat:6:4", "--source", source,
                     "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: source {source} out of range")
        assert not any(tmp_path.iterdir())

    def test_sweep_resume_rejects_no_cache(self, capsys):
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1", "--workers", "1",
                     "--no-cache", "--resume"]) == 1
        assert "--resume needs the run cache" in capsys.readouterr().err

    def test_sweep_progress_on_stderr(self, tmp_path, capsys):
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "2", "--workers", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "sweep 2/2" in captured.err  # live telemetry, stderr only
        assert "sweep 2/2" not in captured.out

    def test_sweep_no_progress_silences_monitor(self, tmp_path, capsys):
        assert main(["sweep", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1", "--workers", "1",
                     "--no-progress", "--cache-dir", str(tmp_path)]) == 0
        assert "sweep 1/1" not in capsys.readouterr().err

    def test_profile_json_stdout(self, capsys):
        import json

        # Bare --json streams the report to stdout; the rendered view
        # moves to stderr so stdout stays machine-parseable.
        assert main(["profile", "--graph", "rmat:8:8", "--workload", "bfs",
                     "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["dominant_class"] in ("bandwidth", "compute", "queue")
        assert payload["quanta"] > 0
        assert "class_shares" in payload
        assert "by class:" in captured.err

    def test_report_after_timeline_sweep(self, tmp_path, capsys):
        grid = ["--graph", "rmat:9:8", "--workloads", "bfs,pr",
                "--gpns", "1,2", "--sources", "2", "--timeline",
                "--cache-dir", str(tmp_path)]
        assert main(["sweep"] + grid + ["--workers", "1",
                                        "--no-progress"]) == 0
        capsys.readouterr()

        json_a = str(tmp_path / "a.json")
        md_path = str(tmp_path / "a.md")
        assert main(["report"] + grid + ["--json", json_a,
                                         "--md", md_path]) == 0
        first = capsys.readouterr().out
        assert first.startswith("# Sweep report")
        assert "workload=bfs, graph=rmat:9:8, gpns=1" in first
        assert "## Bottleneck shares" in first

        # Same cache, second invocation: byte-identical everywhere.
        json_b = str(tmp_path / "b.json")
        assert main(["report"] + grid + ["--json", json_b]) == 0
        second = capsys.readouterr().out
        assert first == second
        with open(json_a, "rb") as fa, open(json_b, "rb") as fb:
            assert fa.read() == fb.read()
        with open(md_path, encoding="utf-8") as f:
            assert f.read() == first

    def test_report_groups_failures(self, tmp_path, capsys):
        import json

        grid = ["--graph", "rmat:9:8", "--workloads", "bfs",
                "--gpns", "1", "--sources", "2",
                "--cache-dir", str(tmp_path)]
        assert main(["sweep"] + grid + ["--workers", "1",
                                        "--no-progress"]) == 0
        capsys.readouterr()
        out_json = str(tmp_path / "r.json")
        assert main(["report"] + grid + ["--json", out_json]) == 0
        payload = json.load(open(out_json, encoding="utf-8"))
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["totals"]["ok"] == 2
        # Uninstrumented sweep: no timelines joined, no bottleneck cells.
        assert payload["totals"]["with_timeline"] == 0

    def test_report_empty_cache_errors(self, tmp_path, capsys):
        assert main(["report", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "no cached runs found" in capsys.readouterr().err

    def test_report_rejects_bad_group_by(self, tmp_path, capsys):
        assert main(["report", "--graph", "rmat:9:8", "--workloads", "bfs",
                     "--gpns", "1", "--sources", "1",
                     "--cache-dir", str(tmp_path),
                     "--group-by", "seed"]) == 1
        assert "error:" in capsys.readouterr().err
