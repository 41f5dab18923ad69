"""Correctness gate: what a run measured must match what WhoWas
measured when the reference was recorded.

The digest covers every round's record count and summary counters, an
order-insensitive checksum of its base rows, and checksums of the two
read models the serve layer answers from (per-IP history and the
per-column aggregates), plus the §5 clustering funnel.  A change that
alters what the platform measures therefore fails the benchmark
instead of looking faster.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.store import AGGREGATE_COLUMNS
from repro.core.store.base import rows_checksum


REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Enough rows to return every distinct value of an aggregate column.
_ALL = 1 << 30


def verify_rounds(store) -> list[str]:
    """``verify_round`` on every round; the describe-line of each
    failing round (empty when all pass)."""
    problems = []
    for info in store.rounds():
        report = store.verify_round(info.round_id)
        if not report.ok:
            problems.append(report.describe())
    return problems


def row_bytes(rows: list[dict]) -> int:
    """Size of *rows* in the canonical JSON that ``rows_checksum``
    hashes: what the store holds, independent of how it stores it."""
    return sum(
        len(json.dumps(row, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False).encode("utf-8"))
        for row in rows
    )


def store_digest(store, clustering) -> dict:
    """Per-round counts and checksums, plus the clustering funnel and
    the rows' canonical JSON size (``row_bytes``, not compared with
    references: it follows from the rows checksum)."""
    rounds = []
    ips: set[int] = set()
    total_bytes = 0
    for info in store.rounds():
        rows = [record.to_row() for record in store.records(info.round_id)]
        ips.update(row["ip"] for row in rows)
        total_bytes += row_bytes(rows)
        aggregates = [
            {"column": column, "value": value, "n": n}
            for column in sorted(AGGREGATE_COLUMNS)
            for value, n in store.aggregate_column(
                info.round_id, column, limit=_ALL
            )
        ]
        rounds.append({
            "round": info.round_id,
            "day": info.timestamp,
            "status": info.status,
            "records": len(rows),
            "stats": store.round_stats(info.round_id),
            "rows": rows_checksum(rows),
            "cluster_agg": rows_checksum(aggregates),
        })
    history: dict[int, list[dict]] = {}
    for ip in sorted(ips):
        for row in store.ip_history_rows(ip):
            history.setdefault(row["round_id"], []).append(row)
    for entry in rounds:
        entry["ip_history"] = rows_checksum(history.get(entry["round"], []))
    funnel = asdict(clustering.stats)
    funnel["threshold"] = clustering.threshold
    return {"rounds": rounds, "funnel": funnel, "row_bytes": total_bytes}


def compare(digest: dict, reference: dict) -> list[str]:
    """Human-readable differences between two digests."""
    problems = []
    got, want = digest["rounds"], reference["rounds"]
    if len(got) != len(want):
        problems.append(f"{len(got)} rounds, reference has {len(want)}")
    for mine, theirs in zip(got, want):
        for key in theirs:
            if mine.get(key) != theirs[key]:
                problems.append(
                    f"round {theirs['round']} {key}: {mine.get(key)!r} "
                    f"!= reference {theirs[key]!r}"
                )
    if digest["funnel"] != reference["funnel"]:
        problems.append(
            f"clustering funnel {digest['funnel']} != reference "
            f"{reference['funnel']}"
        )
    return problems


def reference_key(workload: str, seed: int, scale: float) -> str:
    return f"{workload}/seed={seed}/scale={scale:g}"


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def save_reference(key: str, digest: dict) -> None:
    references = load_references()
    references[key] = digest
    REFERENCES.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
