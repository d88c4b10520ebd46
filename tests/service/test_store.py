"""Job store: state machine, journal durability, compaction, recovery."""

from __future__ import annotations

import json
import os

import pytest

from repro import journal
from repro.errors import (
    ConfigError,
    JobSpecError,
    JobStateError,
    UnknownJobError,
)
from repro.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SUBMITTED,
    TRANSITIONS,
    Job,
    JobSpec,
    JobStore,
)


def make_spec(**overrides):
    defaults = dict(workload="bfs", graph="rmat:6:4", source=0)
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_roundtrip(self):
        spec = make_spec(gpns=2, timeline=True,
                         workload_kwargs={"max_supersteps": 3})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(JobSpecError, match="unknown job-spec field"):
            JobSpec.from_dict({"workload": "bfs", "graph": "rmat:6:4",
                               "frobnicate": 1})

    def test_missing_required(self):
        with pytest.raises(JobSpecError, match="workload"):
            JobSpec.from_dict({"graph": "rmat:6:4"})

    def test_bad_workload(self):
        with pytest.raises(JobSpecError, match="unknown workload"):
            make_spec(workload="mystery")

    def test_bad_placement(self):
        with pytest.raises(JobSpecError, match="placement"):
            make_spec(placement="alphabetical")

    def test_bad_shape(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict("not an object")
        with pytest.raises(JobSpecError):
            make_spec(gpns=0)
        with pytest.raises(JobSpecError):
            make_spec(scale=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gpns", 2.0),
            ("gpns", True),
            ("seed", 4.0),
            ("placement_seed", 1.5),
            ("max_quanta", 10.0),
            ("source", 0.0),
            ("source", False),
            ("seed", "4"),
        ],
    )
    def test_non_integer_fields_rejected(self, field, value):
        """JSON floats and booleans are not counts: a float ``gpns``
        used to fail only in the run, and ``max_quanta: 10.0`` keyed
        apart from ``10``."""
        data = {"workload": "bfs", "graph": "rmat:6:4", field: value}
        with pytest.raises(JobSpecError, match=f"{field} must be an integer"):
            JobSpec.from_dict(data)

    def test_integer_fields_and_null_source_admitted(self):
        spec = JobSpec.from_dict(
            {"workload": "bfs", "graph": "rmat:6:4", "gpns": 2, "seed": 4,
             "placement_seed": 3, "max_quanta": 10, "source": None}
        )
        assert (spec.gpns, spec.seed, spec.max_quanta) == (2, 4, 10)

    def test_lowering_matches_sweep_keys(self, tmp_path):
        """A job spec digests to the same key as the equivalent RunSpec,
        and run, sweep and submit of the same inputs share one key."""
        from repro.cli import main, make_parser
        from repro.commands.service import _job_spec_from_args
        from repro.commands.sweep import _sweep_grid
        from repro.runner.cache import RunCache, spec_key
        from repro.runner.spec import GraphSpec, RunSpec
        from repro.sim.config import scaled_config

        spec = make_spec(gpns=2, scale=1.0 / 1024.0)
        lowered = spec.to_run_spec()
        manual = RunSpec(
            "bfs",
            GraphSpec("rmat:6:4", seed=42),
            config=scaled_config(num_gpns=2, scale=1.0 / 1024.0),
            source=0,
        )
        assert spec_key(lowered) == spec_key(manual)

        parser = make_parser()
        inputs = ["--graph", "rmat:6:4", "--gpns", "2"]
        for workload in ("bfs", "cc", "sssp", "pr", "bc"):
            specs, _ = _sweep_grid(parser.parse_args(
                ["sweep", "--workloads", workload, "--sources", "1"] + inputs
            ))
            source = [] if specs[0].source is None else [
                "--source", str(specs[0].source)
            ]
            cache = tmp_path / workload
            argv = ["--workload", workload] + inputs + source
            assert main(["run", "--cache-dir", str(cache)] + argv) == 0
            (path, _, _), = RunCache(str(cache)).entries()
            run_key = os.path.basename(path)[: -len(".pkl")]
            job = JobSpec.from_dict(_job_spec_from_args(
                parser.parse_args(["submit"] + argv)
            ))
            assert spec_key(specs[0]) == run_key, workload
            assert spec_key(job.to_run_spec()) == run_key, workload

        # The baselines: PolyGraph at its scaled default on-chip size
        # and at an explicit one, and Ligra.
        run_keys = set()
        for system, run_extra, job_extra in (
            ("polygraph", [], {}),
            ("polygraph", ["--onchip", "2KiB"], {"onchip": "2KiB"}),
            ("ligra", [], {}),
        ):
            argv = ["--system", system, "--workload", "bfs",
                    "--source", "1"] + inputs
            cache = tmp_path / f"{system}{len(run_keys)}"
            assert main(
                ["run", "--cache-dir", str(cache)] + argv + run_extra
            ) == 0
            (path, _, _), = RunCache(str(cache)).entries()
            run_key = os.path.basename(path)[: -len(".pkl")]
            job = JobSpec.from_dict({
                **_job_spec_from_args(parser.parse_args(["submit"] + argv)),
                **job_extra,
            })
            assert spec_key(job.to_run_spec()) == run_key, (system, job_extra)
            run_keys.add(run_key)
        assert len(run_keys) == 3

    def test_suite_scale_reaches_the_graph(self):
        """A suite graph is built at the job's scale, as ``repro run``
        builds it; other graphs keep ignoring scale."""
        from repro.runner.spec import GraphSpec

        suite = make_spec(graph="suite:road", scale=1.0 / 1024.0)
        assert suite.to_run_spec().graph == GraphSpec(
            "suite:road", scale=1.0 / 1024.0
        )
        assert make_spec(scale=1.0 / 1024.0).to_run_spec().graph.scale is None

    def test_default_source_resolves_deterministically(self):
        a = make_spec(source=None).to_run_spec()
        b = make_spec(source=None).to_run_spec()
        assert a.source is not None
        assert a.source == b.source

    @pytest.mark.parametrize("source", [64, 999999, -1])
    def test_out_of_range_source_is_refused_at_lowering(self, source):
        # rmat:6:4 has 64 vertices.  Lowering refuses the source, so
        # the service rejects the job at admission instead of queueing
        # and forking a run that fails.
        with pytest.raises(ConfigError, match=f"source {source} out of range"):
            make_spec(source=source).to_run_spec()
        assert make_spec(source=63).to_run_spec().source == 63

    def test_sourceless_workload_drops_source(self):
        spec = make_spec(workload="pr", source=3)
        assert spec.to_run_spec().source is None

    def test_unknown_system_rejected(self):
        # A retired system key (numba's nova-jit) is refused at
        # admission, before any graph build or queue wait.
        with pytest.raises(JobSpecError, match="unknown system"):
            make_spec(system="nova-jit")
        with pytest.raises(JobSpecError, match="unknown system"):
            JobSpec.from_dict({"workload": "bfs", "graph": "rmat:6:4",
                               "system": "nova-jit"})

    @pytest.mark.parametrize("onchip", ["12x", ""])
    def test_bad_onchip_size_names_the_form(self, onchip):
        spec = make_spec(system="polygraph", onchip=onchip)
        with pytest.raises(ConfigError, match=f"bad size {onchip!r}; expected"):
            spec.to_run_spec()
        assert make_spec(system="polygraph", onchip="2KiB").to_run_spec(
        ).config.onchip_bytes == 2048


class TestStateMachine:
    def test_happy_path(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create(make_spec())
        assert job.state == SUBMITTED
        job.transition(QUEUED)
        job.transition(RUNNING)
        job.transition(DONE)
        assert job.terminal

    def test_cache_hit_shortcut(self, tmp_path):
        job = JobStore(str(tmp_path)).create(make_spec())
        job.transition(DONE)  # submitted -> done is legal

    def test_crash_requeue(self, tmp_path):
        job = JobStore(str(tmp_path)).create(make_spec())
        job.transition(QUEUED)
        job.transition(RUNNING)
        job.transition(QUEUED)  # running -> queued is the crash requeue

    def test_illegal_transitions(self, tmp_path):
        job = JobStore(str(tmp_path)).create(make_spec())
        with pytest.raises(JobStateError):
            job.transition(RUNNING)  # must be queued first
        job.transition(QUEUED)
        job.transition(CANCELLED)
        for state in (QUEUED, RUNNING, DONE, FAILED):
            with pytest.raises(JobStateError):
                job.transition(state)

    def test_unknown_state(self, tmp_path):
        job = JobStore(str(tmp_path)).create(make_spec())
        with pytest.raises(JobStateError):
            job.transition("paused")

    def test_terminal_states_have_no_exits(self):
        for state in (DONE, FAILED, CANCELLED):
            assert TRANSITIONS[state] == ()


class TestJournal:
    def test_persistence_roundtrip(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create(make_spec(), client="alice", priority=3)
        job.transition(QUEUED)
        store.put(job)

        again = JobStore(str(tmp_path))
        loaded = again.get(job.id)
        assert loaded.state == QUEUED
        assert loaded.client == "alice"
        assert loaded.priority == 3
        assert loaded.spec == job.spec

    def test_last_record_wins(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create(make_spec())
        job.transition(QUEUED)
        store.put(job)
        job.transition(RUNNING)
        store.put(job)
        job.transition(DONE)
        store.put(job)
        assert JobStore(str(tmp_path)).get(job.id).state == DONE

    def test_unknown_job(self, tmp_path):
        with pytest.raises(UnknownJobError):
            JobStore(str(tmp_path)).get("j-nope")

    def test_replay_keeps_records_older_code_admitted(self, tmp_path):
        """Older code journaled jobs with integral floats (and bools) in
        integer fields; replay reads them back as ints, keeping each
        job's state and key.  A non-integral value, which could only
        fail its run, is refused like any malformed record."""
        store = JobStore(str(tmp_path))
        legacy = {
            "j-gpns": ({"gpns": 2.0}, FAILED, None),
            "j-seed": ({"seed": 4.0}, FAILED, None),
            "j-quanta": ({"max_quanta": 10.0}, DONE, "k-quanta"),
            "j-bool": ({"gpns": True}, FAILED, None),
            "j-half": ({"placement_seed": 1.5}, FAILED, None),
        }
        with open(store.path, "a", encoding="utf-8") as f:
            for seq, (job_id, (fields, state, key)) in enumerate(
                legacy.items(), start=1
            ):
                record = store.mint(make_spec()).to_dict()
                record.update(id=job_id, seq=seq, state=state, key=key)
                record["spec"].update(fields)
                f.write(json.dumps({"op": "job", "job": record}) + "\n")

        again = JobStore(str(tmp_path))
        assert again.get("j-gpns").spec.gpns == 2
        assert again.get("j-seed").spec.seed == 4
        quanta = again.get("j-quanta")
        assert (quanta.spec.max_quanta, quanta.state, quanta.key) == (
            10, DONE, "k-quanta"
        )
        assert again.get("j-bool").spec.gpns == 1
        for job_id in ("j-gpns", "j-seed", "j-quanta", "j-bool"):
            spec = again.get(job_id).spec
            for name in ("gpns", "seed", "max_quanta"):
                assert type(getattr(spec, name)) is int
        with pytest.raises(UnknownJobError):
            again.get("j-half")

    def test_replay_keeps_records_fleet_era_code_wrote(self, tmp_path):
        """Job records once carried ``worker`` and ``requeues``; a
        journal holding them still loads, and its interrupted job is
        requeued."""
        spec = make_spec().to_dict()
        records = [
            {"id": "j-done", "seq": 1, "state": DONE, "key": "k-done",
             "attempts": 1, "requeues": 1, "worker": "w-1"},
            {"id": "j-running", "seq": 2, "state": RUNNING,
             "key": "k-running", "attempts": 1, "requeues": 0,
             "worker": "w-2"},
        ]
        with open(tmp_path / "jobs.jsonl", "w", encoding="utf-8") as f:
            f.write(json.dumps({"op": "header", "schema": 1}) + "\n")
            for fields in records:
                record = {
                    "spec": spec, "client": "anonymous", "priority": 0,
                    "created_at": 1.0, "updated_at": 2.0, "cached": False,
                    "error_kind": None, "error_type": None,
                    "error_message": None, **fields,
                }
                f.write(json.dumps({"op": "job", "job": record}) + "\n")

        store = JobStore(str(tmp_path))
        for fields in records:
            job = store.get(fields["id"])
            assert (job.state, job.key, job.seq) == (
                fields["state"], fields["key"], fields["seq"]
            )
            assert "worker" not in job.to_dict()
            assert "requeues" not in job.to_dict()
        assert [j.id for j in store.recover()] == ["j-running"]
        assert store.get("j-running").state == QUEUED
        assert store.get("j-done").state == DONE

    def test_torn_trailing_line_tolerated(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create(make_spec())
        with open(store.path, "a", encoding="utf-8") as f:
            f.write('{"op": "job", "job": {"id": "j-torn", "sp')
        again = JobStore(str(tmp_path))
        assert again.get(job.id).id == job.id
        with pytest.raises(UnknownJobError):
            again.get("j-torn")

    def test_compaction_shrinks_journal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal, "COMPACT_MIN_RECORDS", 8)
        store = JobStore(str(tmp_path))
        job = store.create(make_spec())
        job.transition(QUEUED)
        store.put(job)
        job.transition(RUNNING)
        store.put(job)
        for _ in range(20):
            store.put(job)  # superseded records pile up
        with open(store.path, encoding="utf-8") as f:
            lines = [line for line in f if line.strip()]
        # Auto-compaction bounds the journal near the live-record count
        # (threshold: max(COMPACT_MIN_RECORDS, 4x live)) instead of the
        # 23 records written.
        assert len(lines) <= 1 + journal.COMPACT_MIN_RECORDS
        store.compact()
        with open(store.path, encoding="utf-8") as f:
            lines = [line for line in f if line.strip()]
        assert len(lines) == 2  # header + one live record
        assert json.loads(lines[0])["op"] == "header"
        assert JobStore(str(tmp_path)).get(job.id).state == RUNNING

    def test_compaction_is_atomic_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal, "COMPACT_MIN_RECORDS", 4)
        store = JobStore(str(tmp_path))
        jobs = [store.create(make_spec(source=i)) for i in range(5)]
        store.compact()
        again = JobStore(str(tmp_path))
        assert [j.id for j in again.jobs()] == [j.id for j in jobs]


class TestRecovery:
    def test_running_jobs_requeue(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create(make_spec())
        job.transition(QUEUED)
        job.transition(RUNNING)
        store.put(job)

        fresh = JobStore(str(tmp_path))
        resumable = fresh.recover()
        assert [j.id for j in resumable] == [job.id]
        assert fresh.get(job.id).state == QUEUED

    def test_submitted_stragglers_requeue(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create(make_spec())  # crashed before enqueue
        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [job.id]
        assert fresh.get(job.id).state == QUEUED

    def test_terminal_jobs_untouched(self, tmp_path):
        store = JobStore(str(tmp_path))
        done = store.create(make_spec())
        done.transition(DONE)
        store.put(done)
        queued = store.create(make_spec(source=1))
        queued.transition(QUEUED)
        store.put(queued)

        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [queued.id]
        assert fresh.get(done.id).state == DONE

    def test_recovery_order_is_submission_order(self, tmp_path):
        store = JobStore(str(tmp_path))
        jobs = []
        for i in range(4):
            job = store.create(make_spec(source=i))
            job.transition(QUEUED)
            if i % 2:
                job.transition(RUNNING)
            store.put(job)
            jobs.append(job)
        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [j.id for j in jobs]
