"""``repro stream``: resident graph sessions over a running service."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ReproError


def _parse_edge_list(text: Optional[str]) -> list:
    """``"1:2,3:4"`` -> ``[[1, 2], [3, 4]]`` (empty/None -> ``[]``)."""
    if not text:
        return []
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            src, dst = part.split(":")
            edges.append([int(src), int(dst)])
        except ValueError:
            raise ReproError(
                f"bad edge {part!r}: expected src:dst, e.g. 1:2"
            ) from None
    return edges


def _print_session(record: dict) -> None:
    print(
        f"session {record['id']}: {record['state']} {record['graph']} "
        f"seed={record['seed']} version={record['version_digest'][:12]} "
        f"deltas={record['delta_seq']}"
    )


def cmd_stream_session(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.create_session(
        args.graph, seed=args.seed, client=args.client
    )
    _print_session(record)
    return 0


def cmd_stream_ls(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    records = client.sessions()
    if not records:
        print("no sessions")
        return 0
    print(f"{'id':>16} {'state':>7} {'graph':>20} {'version':>12} "
          f"{'deltas':>6}  client")
    for record in records:
        print(
            f"{record['id']:>16} {record['state']:>7} "
            f"{record['graph']:>20} {record['version_digest'][:12]:>12} "
            f"{record['delta_seq']:>6}  {record['client']}"
        )
    return 0


def cmd_stream_apply(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    inserts = _parse_edge_list(args.insert)
    deletes = _parse_edge_list(args.delete)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            payload = json.load(f)
        inserts.extend(payload.get("inserts", []))
        deletes.extend(payload.get("deletes", []))
    if not inserts and not deletes:
        print("error: empty delta -- pass --insert/--delete/--file",
              file=sys.stderr)
        return 1
    client = ServiceClient(args.url)
    record = client.apply_delta(
        args.session, inserts=inserts, deletes=deletes
    )
    print(
        f"applied +{len(inserts)}/-{len(deletes)} edge(s): ",
        end="",
    )
    _print_session(record)
    return 0


def cmd_stream_query(args: argparse.Namespace) -> int:
    import json

    from repro.service import TERMINAL_STATES
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    job = client.session_submit(
        args.session,
        workload=args.workload,
        mode=args.mode,
        source=args.source,
        client=args.client,
        priority=args.priority,
    )
    suffix = " (served from cache)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['state']}{suffix}")
    if args.wait and job["state"] not in TERMINAL_STATES:
        job = client.wait(job["id"], timeout=args.wait_timeout)
        print(f"job {job['id']}: {job['state']}")
    if job["state"] == "done" and (args.wait or job.get("cached")):
        payload = client.result(job["id"])
        print(payload["result"]["summary"])
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(json.dumps(payload, indent=2, sort_keys=True))
            print(f"wrote {args.json}", file=sys.stderr)
    if job["state"] == "failed":
        print(
            f"error: {job.get('error_type')}: {job.get('error_message')}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_stream_compact(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.compact_session(args.session)
    print("compacted: ", end="")
    _print_session(record)
    return 0


def cmd_stream_close(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.close_session(args.session)
    _print_session(record)
    return 0
