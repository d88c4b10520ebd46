"""The durable JSONL journal behind every log the program keeps.

The job store, the session store and sweep checkpoints each persist
their state as a :class:`Journal`, and ``benchmarks/record.py``
appends the committed benchmark history through one.  The journal
owns the line format and its durability; each owner keeps only its
record semantics (last record wins, a key set) and its own lock -- a
journal is not thread-safe by itself.

The contract (DESIGN.md, "Journal"):

- One record per line, ``json.dumps(record, sort_keys=True,
  separators=(",", ":"))`` plus a newline.  :meth:`Journal.append`
  writes the line and calls ``os.fsync`` before it returns, and a
  record counts once its newline is on disk.
- A fresh file gets the owner's header line first, and its directory
  is fsynced once so the new name is durable too.
- Torn tail: a hard kill can leave an unterminated last line.  Replay
  ignores it, and the append that opens the file first truncates it
  back to its last newline, so a new record never joins a torn one.
- Replay skips blank and unparseable lines and counts the records it
  read.
- Compaction writes the owner's header and live records to a temporary
  file in the same directory, fsyncs it, moves it over the journal with
  ``os.replace`` and fsyncs the directory.  An append triggers it once
  the records on disk exceed ``max(COMPACT_MIN_RECORDS, COMPACT_SLACK *
  live)``.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Journals never compact below this many records on disk.
COMPACT_MIN_RECORDS = 256

#: Compact once the records on disk outnumber the live ones this often.
COMPACT_SLACK = 4

#: Interpreter switch interval while an fsync is in flight (seconds).
FSYNC_SWITCH_INTERVAL = 1e-4

Record = Dict[str, Any]

# The switch interval is one per interpreter, so its save/restore
# bookkeeping is too: the lowered value stays while any thread fsyncs.
_switch_lock = threading.Lock()
_switch_users = 0
_switch_saved = 0.0


def _line(record: Record) -> bytes:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _fsync(fd: int) -> None:
    """``os.fsync`` that takes the interpreter lock back promptly.

    fsync releases the interpreter lock for the length of a disk flush.
    A thread running Python code (a simulation in one of ``repro
    serve``'s executor threads) takes it meanwhile and keeps it for a
    whole switch interval, 5 ms by default, before the fsyncing thread
    may go on: that wait, not the flush, dominated an append.  While
    any fsync is in flight the interval is ``FSYNC_SWITCH_INTERVAL``,
    so the waiting thread asks for the lock back almost at once.
    """
    global _switch_users, _switch_saved
    with _switch_lock:
        if _switch_users == 0:
            _switch_saved = sys.getswitchinterval()
            sys.setswitchinterval(FSYNC_SWITCH_INTERVAL)
        _switch_users += 1
    try:
        os.fsync(fd)
    finally:
        with _switch_lock:
            _switch_users -= 1
            if _switch_users == 0:
                sys.setswitchinterval(_switch_saved)


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


class Journal:
    """An append-only, fsynced JSONL file with torn-tail-safe replay.

    ``header`` is written as the first line of a fresh or compacted
    file.  An owner that compacts passes ``live_count`` (cheap, called
    after every append) and ``live_records`` (its live records in
    replay order, built only when compaction runs).

    The file stays open from the first append until :meth:`close` or a
    compaction, so an append costs one ``write`` and one ``fsync``:
    every blocking call releases the interpreter lock (see
    :func:`_fsync`).
    """

    def __init__(
        self,
        path: str,
        header: Optional[Record] = None,
        live_count: Optional[Callable[[], int]] = None,
        live_records: Optional[Callable[[], Iterable[Record]]] = None,
    ) -> None:
        self.path = path
        self.header = header
        self._live_count = live_count
        self._live_records = live_records
        #: Records on the file: counted by replay, then kept by appends.
        self.records_on_disk = 0
        self._file: Optional[io.FileIO] = None

    @property
    def _directory(self) -> str:
        return os.path.dirname(self.path) or "."

    def replay(self) -> List[Record]:
        """Every complete record on disk, oldest first."""
        try:
            with open(self.path, "rb") as f:
                data = f.read()
        except OSError:
            data = b""
        records: List[Record] = []
        # What follows the last newline is empty or a torn record.
        for line in data.split(b"\n")[:-1]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        self.records_on_disk = len(records)
        return records

    def append(self, record: Record) -> None:
        """Durably append one record (compacting when due)."""
        fresh = self._file is None and self._open()
        records = [record]
        if fresh and self.header is not None:
            records.insert(0, self.header)
        try:
            view = memoryview(b"".join(_line(r) for r in records))
            while view:
                view = view[self._file.write(view):]
            _fsync(self._file.fileno())
        except BaseException:
            self.close()  # reopening cuts whatever part of the line landed
            raise
        if fresh:
            _fsync_dir(self._directory)
        self.records_on_disk += len(records)
        if self._live_count is not None and self._compaction_due():
            self.compact()

    def _compaction_due(self) -> bool:
        live = self._live_count() + (self.header is not None)
        return self.records_on_disk > max(
            COMPACT_MIN_RECORDS, COMPACT_SLACK * live
        )

    def _open(self) -> bool:
        """Open the file for appending; return whether it is empty.

        An unterminated last line is cut back to the last newline
        first, so the next record never joins a torn one.
        """
        try:
            with open(self.path, "rb+") as f:
                end = pos = f.seek(0, os.SEEK_END)
                while pos > 0:
                    step = min(pos, 4096)
                    f.seek(pos - step)
                    newline = f.read(step).rfind(b"\n")
                    if newline >= 0:
                        pos += newline + 1 - step
                        break
                    pos -= step
                if pos < end:
                    f.truncate(pos)
        except FileNotFoundError:
            os.makedirs(self._directory, exist_ok=True)
        self._file = open(self.path, "ab", buffering=0)
        return self._file.tell() == 0

    def close(self) -> None:
        """Close the file; the next append reopens it."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def compact(self) -> None:
        """Atomically rewrite the file to the header plus live records."""
        records = list(self._live_records())
        if self.header is not None:
            records.insert(0, self.header)
        os.makedirs(self._directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self._directory,
            prefix="." + os.path.basename(self.path) + "-",
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(b"".join(_line(r) for r in records))
                f.flush()
                _fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(self._directory)
        self.close()  # its file was replaced
        self.records_on_disk = len(records)
