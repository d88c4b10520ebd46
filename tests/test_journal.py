"""The durable journal: crash replay at every byte offset, fsync policy.

A hard kill can cut a journal file at any byte.  For every cut, replay
must return exactly the records whose lines (newline included) lie
before the cut, and the next append must survive the next replay --
it must never be written onto a torn last line.  The same contract is
checked through each owner of a journal.
"""

from __future__ import annotations

import os
import stat
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, List

import pytest

from repro import journal
from repro.graph import store as graph_store
from repro.journal import Journal
from repro.runner.spec import GraphSpec
from repro.service.store import QUEUED, RUNNING, JobSpec, JobStore
from repro.stream.delta import EdgeDeltaBatch
from repro.stream.session import SessionManager, SessionStore

HEADER = {"op": "header", "schema": 1}

#: One record of each owner's shape.
RECORDS = [
    {"op": "job", "job": {"id": "j-1", "state": "submitted", "seq": 1}},
    {"op": "session", "session": {"id": "s-1", "version_digest": "v0"}},
    {"op": "delta", "session": "s-1", "seq": 1,
     "batch": {"inserts": [[0, 1]], "deletes": []}, "version": "v1"},
    {"op": "delta", "session": "s-1", "seq": 2,
     "batch": {"inserts": [], "deletes": [[2, 3]]}, "version": "v2"},
    {"key": "a" * 64},
    {"schema": 1, "sha": "abc", "ts": 1.0, "metrics": {"m": 1.0}},
]

EXTRA = {"op": "job", "job": {"id": "j-2", "state": "queued", "seq": 2}}


def line_ends(data: bytes) -> List[int]:
    """Offset just past each newline: where each line ends."""
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


def truncated_copy(data: bytes, k: int, path: str) -> None:
    with open(path, "wb") as f:
        f.write(data[:k])


class TestJournalCrashReplay:
    def test_every_byte_offset(self, tmp_path):
        source = Journal(str(tmp_path / "src.jsonl"), header=HEADER)
        for record in RECORDS:
            source.append(record)
        with open(source.path, "rb") as f:
            data = f.read()
        ends = line_ends(data)
        assert len(ends) == 1 + len(RECORDS)
        written = [HEADER] + RECORDS

        path = str(tmp_path / "copy.jsonl")
        for k in range(len(data) + 1):
            truncated_copy(data, k, path)
            expected = [r for r, end in zip(written, ends) if end <= k]
            assert Journal(path, header=HEADER).replay() == expected, k

            Journal(path, header=HEADER).append(EXTRA)
            again = Journal(path, header=HEADER).replay()
            assert again == (expected or [HEADER]) + [EXTRA], k

    def test_replay_skips_blank_and_garbage_and_counts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"a":1}\n\n  \nnot json\n[1,2]\n{"b":2}\n{"c":')
        j = Journal(str(path))
        assert j.replay() == [{"a": 1}, {"b": 2}]
        assert j.records_on_disk == 2

    def test_missing_file_replays_empty(self, tmp_path):
        assert Journal(str(tmp_path / "none" / "j.jsonl")).replay() == []

    def test_line_format(self, tmp_path):
        j = Journal(str(tmp_path / "d" / "j.jsonl"), header=HEADER)
        j.append({"b": 1, "a": [1, 2]})
        with open(j.path, "rb") as f:
            assert f.read() == (
                b'{"op":"header","schema":1}\n{"a":[1,2],"b":1}\n'
            )


# ----------------------------------------------------------------------
# fsync policy
# ----------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Every fsync as ``"dir"`` or the synced file's inode."""
    calls: List[Any] = []
    real = os.fsync

    def spy(fd):
        st = os.fstat(fd)
        calls.append("dir" if stat.S_ISDIR(st.st_mode) else st.st_ino)
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return calls


class TestFsync:
    def test_once_per_append_and_dir_once(self, tmp_path, fsyncs):
        j = Journal(str(tmp_path / "j.jsonl"), header=HEADER)
        j.append({"n": 0})
        inode = os.stat(j.path).st_ino
        assert fsyncs == [inode, "dir"]  # a fresh file's name is durable
        for n in range(1, 4):
            j.append({"n": n})
        assert fsyncs == [inode, "dir", inode, inode, inode]

    def test_switch_interval_lowered_only_during_fsync(
        self, tmp_path, monkeypatch
    ):
        seen = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (seen.append(sys.getswitchinterval()), real(fd)),
        )
        before = sys.getswitchinterval()
        j = Journal(str(tmp_path / "j.jsonl"), header=HEADER)
        j.append({"n": 0})
        j.append({"n": 1})
        # Two appends plus the new file's directory.
        assert seen == [pytest.approx(journal.FSYNC_SWITCH_INTERVAL)] * 3
        assert sys.getswitchinterval() == before

    def test_concurrent_fsyncs_restore_switch_interval(self, tmp_path):
        before = sys.getswitchinterval()
        journals = [
            Journal(str(tmp_path / f"j{i}.jsonl")) for i in range(4)
        ]

        def hammer(j: Journal) -> None:
            for n in range(25):
                j.append({"n": n})

        threads = [
            threading.Thread(target=hammer, args=(j,)) for j in journals
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert sys.getswitchinterval() == before
        for j in journals:
            records = Journal(j.path).replay()
            assert [r["n"] for r in records] == list(range(25))

    def test_failed_fsync_reopens_before_next_append(
        self, tmp_path, monkeypatch
    ):
        j = Journal(str(tmp_path / "j.jsonl"), header=HEADER)
        j.append({"n": 0})
        real = os.fsync

        def fail(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError):
            j.append({"n": 1})
        monkeypatch.setattr(os, "fsync", real)
        with open(j.path, "ab") as f:
            f.write(b'{"n":')  # the rest of a line the failure cut short
        j.append({"n": 2})
        assert Journal(j.path).replay() == [
            HEADER, {"n": 0}, {"n": 1}, {"n": 2}
        ]

    def test_compaction_syncs_temp_file_then_dir(
        self, tmp_path, fsyncs, monkeypatch
    ):
        monkeypatch.setattr(journal, "COMPACT_MIN_RECORDS", 4)
        live = [{"n": 0}]
        j = Journal(
            str(tmp_path / "j.jsonl"),
            header=HEADER,
            live_count=lambda: len(live),
            live_records=lambda: list(live),
        )
        for _ in range(7):
            j.append({"n": 0})
        old = os.stat(j.path).st_ino
        del fsyncs[:]
        j.append({"n": 0})  # 9 records on disk > max(4, 4 * 2 live)
        new = os.stat(j.path).st_ino
        assert new != old
        assert fsyncs == [old, new, "dir"]
        assert Journal(j.path).replay() == [HEADER, {"n": 0}]
        assert j.records_on_disk == 2

        del fsyncs[:]
        j.compact()
        assert fsyncs == [os.stat(j.path).st_ino, "dir"]
        assert not [n for n in os.listdir(tmp_path) if n != "j.jsonl"]


# ----------------------------------------------------------------------
# Owners
# ----------------------------------------------------------------------


@dataclass
class Owner:
    """A journal owner driven through a scripted crash check."""

    #: root directory -> owner object.
    open: Callable[[str], Any]
    #: root directory -> the owner's journal file.
    path: Callable[[str], str]
    #: The scripted API calls, in order.
    calls: List[Callable[[Any], None]]
    #: owner -> comparable view of its durable state.
    state: Callable[[Any], Any]
    #: One more API call after a crash.
    extra: Callable[[Any], None]


def check_owner(owner: Owner, tmp_path) -> None:
    root = str(tmp_path / "src")
    live = owner.open(root)
    sizes = [0]
    states = [owner.state(live)]
    for call in owner.calls:
        call(live)
        sizes.append(os.path.getsize(owner.path(root)))
        states.append(owner.state(live))
    with open(owner.path(root), "rb") as f:
        data = f.read()
    assert sizes[-1] == len(data)

    offsets = set()
    for end in line_ends(data):
        offsets.update((end, end - 1, end + 1))  # boundary, short, past
    copy = str(tmp_path / "copy")
    os.makedirs(copy)
    for k in sorted(o for o in offsets if 0 <= o <= len(data)):
        truncated_copy(data, k, owner.path(copy))
        expected = states[max(i for i, s in enumerate(sizes) if s <= k)]
        assert owner.state(owner.open(copy)) == expected, k

        writer = owner.open(copy)
        owner.extra(writer)
        assert owner.state(owner.open(copy)) == owner.state(writer), k
        assert owner.state(writer) != expected, k


def make_job_spec(source: int) -> JobSpec:
    return JobSpec(workload="bfs", graph="rmat:6:4", source=source)


def job_state(store: JobStore):
    return {job.id: job.to_dict() for job in store.jobs()}


def advance(state: str):
    def call(store: JobStore) -> None:
        job = store.jobs()[0]
        job.transition(state)
        store.put(job)

    return call


def test_job_store(tmp_path):
    check_owner(
        Owner(
            open=JobStore,
            path=lambda root: os.path.join(root, "jobs.jsonl"),
            calls=[
                lambda s: s.create(make_job_spec(0)),
                advance(QUEUED),
                lambda s: s.create(make_job_spec(1)),
                advance(RUNNING),
            ],
            state=job_state,
            extra=lambda s: s.create(make_job_spec(2)),
        ),
        tmp_path,
    )


def batch(n: int) -> dict:
    return EdgeDeltaBatch(inserts=[(n, n + 1)]).to_dict()


def session_state(store: SessionStore):
    return {
        s.id: (s.to_dict(), store.deltas(s.id)) for s in store.sessions()
    }


def test_session_store(tmp_path):
    def first(store: SessionStore) -> str:
        return store.sessions()[0].id

    def delta(seq: int):
        return lambda s: s.append_delta(first(s), seq, batch(seq), f"v{seq}")

    check_owner(
        Owner(
            open=SessionStore,
            path=lambda root: os.path.join(root, "sessions.jsonl"),
            calls=[
                lambda s: s.create("rmat:6:4", base_digest="v0"),
                delta(1),
                delta(2),
                lambda s: s.put(s.sessions()[0]),
                lambda s: s.create("rmat:6:4", base_digest="w0"),
                lambda s: s.remove(s.sessions()[1].id),
                delta(3),
            ],
            state=session_state,
            extra=lambda s: s.create("rmat:6:4", base_digest="x0"),
        ),
        tmp_path,
    )


@pytest.fixture
def session_manager(monkeypatch):
    """Session managers whose pins vanish with the test."""
    monkeypatch.setattr(graph_store, "_PROTECTED_DIGESTS", {})
    return lambda root: SessionManager(SessionStore(root))


def test_session_manager_overlay(tmp_path, session_manager):
    base = GraphSpec("rmat:6:4").build()
    vertices = set(range(base.num_vertices))
    absent = [
        (u, v)
        for u in sorted(vertices)
        for v in sorted(vertices - set(base.neighbors(u).tolist()) - {u})
    ]

    def apply(n: int):
        def call(manager: SessionManager) -> None:
            sid = manager.store.sessions()[0].id
            manager.apply(sid, EdgeDeltaBatch(inserts=absent[2 * n:2 * n + 2]))

        return call

    def overlays(manager: SessionManager):
        out = {}
        for session in manager.store.sessions():
            overlay = manager.overlay(session.id)  # replays the journal
            out[session.id] = (
                overlay.version_digest,
                overlay.delta_seq,
                overlay.num_edges,
                session.version_digest,
            )
        return out

    check_owner(
        Owner(
            open=session_manager,
            path=lambda root: os.path.join(root, "sessions.jsonl"),
            calls=[
                lambda m: m.create("rmat:6:4"),
                apply(0),
                apply(1),
                apply(2),
            ],
            state=overlays,
            extra=lambda m: m.create("rmat:6:4", client="late"),
        ),
        tmp_path,
    )
