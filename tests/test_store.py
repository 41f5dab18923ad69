"""Tests for the per-round measurement store."""

from __future__ import annotations

import pytest

from repro.core.records import (
    FetchResult,
    FetchStatus,
    PageFeatures,
    ProbeOutcome,
    ProbeStatus,
)
from repro.core.records import RoundRecord
from repro.core.store import MeasurementStore
from repro.core.store.base import IP_HISTORY_COLUMNS, ShardPayload, light_row


def record(ip: int, round_id: int, timestamp: int, title: str = "t") -> RoundRecord:
    return RoundRecord(
        ip=ip,
        round_id=round_id,
        timestamp=timestamp,
        probe=ProbeOutcome(
            ip=ip, status=ProbeStatus.RESPONSIVE, open_ports=frozenset({80})
        ),
        fetch=FetchResult(
            ip=ip, status=FetchStatus.OK, url=f"http://{ip}/",
            status_code=200, headers={"Content-Type": "text/html"},
            body=f"<title>{title}</title>",
        ),
        features=PageFeatures(title=title, simhash=ip * 7),
    )


class TestMeasurementStore:
    def test_write_and_read_round(self):
        store = MeasurementStore()
        info = store.write_round(1, 0, 100, [record(1, 1, 0), record(2, 1, 0)])
        assert info.responsive_count == 2
        assert info.targets_probed == 100
        records = list(store.records(1))
        assert {r.ip for r in records} == {1, 2}
        assert records[0].features is not None

    def test_one_table_per_round(self):
        """§4: each round of scanning uses a distinct table with the
        round's timestamp in its name."""
        store = MeasurementStore()
        store.write_round(1, 0, 10, [record(1, 1, 0)])
        store.write_round(2, 3, 10, [record(1, 2, 3)])
        tables = {info.table_name for info in store.rounds()}
        assert tables == {"round_00000", "round_00003"}

    def test_rounds_sorted_by_timestamp(self):
        store = MeasurementStore()
        store.write_round(2, 9, 10, [])
        store.write_round(1, 3, 10, [])
        assert [info.timestamp for info in store.rounds()] == [3, 9]

    def test_history_lookup(self):
        """The core WhoWas query: an IP's status over time."""
        store = MeasurementStore()
        store.write_round(1, 0, 10, [record(5, 1, 0, "a")])
        store.write_round(2, 3, 10, [])                      # unresponsive
        store.write_round(3, 6, 10, [record(5, 3, 6, "b")])
        history = store.history(5)
        assert [r.timestamp for r in history] == [0, 6]
        assert [r.features.title for r in history] == ["a", "b"]

    def test_record_lookup(self):
        store = MeasurementStore()
        store.write_round(1, 0, 10, [record(5, 1, 0)])
        assert store.record(1, 5) is not None
        assert store.record(1, 6) is None

    def test_missing_round(self):
        store = MeasurementStore()
        with pytest.raises(KeyError):
            store.round_info(9)

    def test_responsive_ips(self):
        store = MeasurementStore()
        store.write_round(1, 0, 10, [record(1, 1, 0), record(9, 1, 0)])
        assert store.responsive_ips(1) == {1, 9}

    def test_rewrite_round_replaces(self):
        store = MeasurementStore()
        store.write_round(1, 0, 10, [record(1, 1, 0)])
        store.write_round(1, 0, 10, [record(2, 1, 0)])
        assert store.responsive_ips(1) == {2}

    def test_context_manager(self):
        with MeasurementStore() as store:
            store.write_round(1, 0, 1, [])
        with pytest.raises(Exception):
            store.rounds()

    def test_file_backed(self, tmp_path):
        path = str(tmp_path / "whowas.sqlite")
        store = MeasurementStore(path)
        store.write_round(1, 0, 10, [record(3, 1, 0)])
        store.close()
        reopened = MeasurementStore(path)
        assert reopened.responsive_ips(1) == {3}
        reopened.close()


class TestRoundIsolation:
    """§4: one table per round — later writes never disturb earlier
    rounds' lookups."""

    def test_writing_round_n_never_mutates_round_n_minus_1(self):
        store = MeasurementStore()
        store.write_round(1, 0, 10, [record(5, 1, 0, "before")])
        baseline = store.record(1, 5)
        baseline_rows = list(store.records(1))

        # Round 2 re-observes the same IP with different content, adds a
        # new IP, and drops nothing from round 1.
        store.write_round(2, 3, 10, [record(5, 2, 3, "after"),
                                     record(6, 2, 3, "new")])

        assert store.record(1, 5) == baseline
        assert list(store.records(1)) == baseline_rows
        assert store.responsive_ips(1) == {5}
        assert store.record(1, 6) is None
        assert store.record(2, 5).features.title == "after"

    def test_many_rounds_stay_isolated(self):
        store = MeasurementStore()
        for n in range(1, 6):
            store.write_round(n, n * 3, 10, [record(ip, n, n * 3, f"r{n}")
                                             for ip in range(n)])
        for n in range(1, 6):
            rows = list(store.records(n))
            assert {r.ip for r in rows} == set(range(n))
            assert all(r.features.title == f"r{n}" for r in rows)

    def test_round_info_ordering_is_stable(self):
        """Rounds written out of chronological order come back sorted
        by timestamp, with round_id as a deterministic tiebreak."""
        store = MeasurementStore()
        for round_id, ts in ((3, 6), (1, 0), (2, 3)):
            store.write_round(round_id, ts, 10, [])
        assert [i.round_id for i in store.rounds()] == [1, 2, 3]
        # Re-listing gives the identical sequence every time.
        assert store.rounds() == store.rounds()

    def test_degraded_flag_round_trips(self):
        store = MeasurementStore()
        store.write_round(1, 0, 10, [], degraded=False)
        store.write_round(2, 3, 10, [], degraded=True, error_count=7)
        infos = store.rounds()
        assert [i.degraded for i in infos] == [False, True]
        assert infos[1].error_count == 7
        assert store.round_info(2).degraded is True

    def test_degraded_flag_survives_reopen(self, tmp_path):
        path = str(tmp_path / "chaos.sqlite")
        store = MeasurementStore(path)
        store.write_round(1, 0, 10, [], degraded=True, error_count=3)
        store.close()
        reopened = MeasurementStore(path)
        info = reopened.round_info(1)
        assert info.degraded is True and info.error_count == 3
        reopened.close()

    def test_migrates_pre_resilience_database(self, tmp_path):
        """A rounds table from before the degraded/error_count columns
        existed is upgraded in place on open."""
        import sqlite3

        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE rounds ("
            "  round_id INTEGER PRIMARY KEY,"
            "  timestamp INTEGER NOT NULL,"
            "  targets_probed INTEGER NOT NULL,"
            "  responsive_count INTEGER NOT NULL"
            ")"
        )
        conn.execute("INSERT INTO rounds VALUES (1, 0, 10, 0)")
        conn.commit()
        conn.close()

        store = MeasurementStore(path)
        info = store.round_info(1)
        assert info.degraded is False and info.error_count == 0
        store.close()


class TestViewFold:
    """The per-IP-history read model is :func:`light_row` of each base
    row, folded in the shard commit."""

    def test_write_shards_folds_light_rows(self):
        bodiless = RoundRecord(
            ip=9, round_id=1, timestamp=0,
            probe=ProbeOutcome(
                ip=9, status=ProbeStatus.RESPONSIVE,
                open_ports=frozenset({22, 443}),
            ),
            fetch=FetchResult(
                ip=9, status=FetchStatus.NOT_ATTEMPTED, url="",
                headers={"Server": "nginx"},
            ),
            features=PageFeatures(title="kept?", server="nginx",
                                  template="wp"),
        )
        records = [record(1, 1, 0, "a"), record(2, 1, 0, "b"), bodiless]
        store = MeasurementStore()
        store.begin_round(1, 0, 10, shard_size=2)
        store.write_shards(1, [
            ShardPayload(shard_index=0, records=tuple(records[:2])),
            ShardPayload(shard_index=1, records=tuple(records[2:])),
        ])
        store.finalize_round(1)
        table = store.round_info(1).table_name
        base = {
            row["ip"]: dict(row)
            for row in store._conn.execute(f"SELECT * FROM {table}")
        }
        columns = ", ".join(IP_HISTORY_COLUMNS)
        view = {
            row[0]: dict(zip(IP_HISTORY_COLUMNS, row))
            for row in store._conn.execute(
                f"SELECT {columns} FROM view_ip_history"
            )
        }
        assert view == {ip: light_row(row) for ip, row in base.items()}
        assert base[9]["body"] is None
        assert base[9]["server"] == "nginx"
        assert view[9]["server"] is None
        assert view[9]["title"] is None
        assert view[9]["template"] is None
        assert view[1]["title"] == "a"
        assert store.ip_history_rows(9) == [view[9]]
        store.close()


class TestReadonlyStore:
    """`open_readonly`: the query tools' connection can never write."""

    def _seeded(self, tmp_path, rounds=1, per_round=8):
        path = str(tmp_path / "ro.sqlite")
        store = MeasurementStore(path)
        for round_id in range(1, rounds + 1):
            store.write_round(
                round_id, round_id - 1, per_round,
                [record(ip, round_id, round_id - 1)
                 for ip in range(1, per_round + 1)],
            )
        store.close()
        return path

    def test_reads_work(self, tmp_path):
        path = self._seeded(tmp_path, rounds=2)
        reader = MeasurementStore.open_readonly(path)
        assert reader.readonly is True
        assert [i.round_id for i in reader.rounds()] == [1, 2]
        assert len(list(reader.records(1))) == 8
        assert len(reader.history(3)) == 2
        reader.close()

    def test_cannot_mutate(self, tmp_path):
        import sqlite3

        path = self._seeded(tmp_path)
        reader = MeasurementStore.open_readonly(path)
        with pytest.raises(sqlite3.OperationalError):
            reader.set_meta("k", "v")
        with pytest.raises(sqlite3.OperationalError):
            reader.write_round(9, 9, 1, [record(1, 9, 9)])
        reader.close()
        # ... and nothing leaked through.
        writer = MeasurementStore(path)
        assert writer.get_meta("k") is None
        assert len(writer.rounds()) == 1
        writer.close()

    def test_missing_database_never_created(self, tmp_path):
        import os
        import sqlite3

        path = str(tmp_path / "absent.sqlite")
        with pytest.raises(sqlite3.OperationalError):
            MeasurementStore.open_readonly(path)
        assert not os.path.exists(path)

    def test_memory_store_rejected(self):
        with pytest.raises(ValueError):
            MeasurementStore.open_readonly(":memory:")

    def test_reader_does_not_block_concurrent_writer(self, tmp_path):
        """A reader holding an open cursor must not stop the campaign
        writer from committing (WAL + mode=ro: no write locks)."""
        path = self._seeded(tmp_path)
        reader = MeasurementStore.open_readonly(path)
        cursor = reader._conn.execute("SELECT * FROM rounds")
        cursor.fetchone()  # cursor now holds a read snapshot open
        writer = MeasurementStore(path, busy_timeout_ms=500)
        writer.write_round(2, 1, 4, [record(1, 2, 1)])
        assert [i.round_id for i in writer.rounds()] == [1, 2]
        cursor.close()
        writer.close()
        reader.close()


class TestReadDeadline:
    """`read_deadline`: deadline budgets propagate into sqlite."""

    def _big_store(self, tmp_path):
        path = str(tmp_path / "big.sqlite")
        store = MeasurementStore(path)
        store.write_round(
            1, 0, 3000, [record(ip, 1, 0) for ip in range(1, 2501)]
        )
        store.close()
        return MeasurementStore.open_readonly(path)

    def test_expired_deadline_interrupts_scan(self, tmp_path):
        import time

        from repro.core.store import is_interrupted

        store = self._big_store(tmp_path)
        with pytest.raises(Exception) as excinfo:
            with store.read_deadline(time.monotonic() - 1.0, tick=4):
                store._conn.execute(
                    "SELECT COUNT(*) FROM round_00000 a, round_00000 b"
                ).fetchone()
        assert is_interrupted(excinfo.value)
        store.close()

    def test_generous_deadline_lets_reads_finish(self, tmp_path):
        import time

        store = self._big_store(tmp_path)
        with store.read_deadline(time.monotonic() + 60.0):
            assert len(list(store.records(1))) == 2500
        store.close()

    def test_handler_cleared_after_exit(self, tmp_path):
        import time

        store = self._big_store(tmp_path)
        with pytest.raises(Exception):
            with store.read_deadline(time.monotonic() - 1.0, tick=4):
                store._conn.execute(
                    "SELECT COUNT(*) FROM round_00000 a, round_00000 b"
                ).fetchone()
        # Once the context exits, reads run unbounded again.
        assert len(list(store.records(1))) == 2500
        store.close()

    def test_none_deadline_is_noop(self):
        store = MeasurementStore()
        with store.read_deadline(None):
            store.write_round(1, 0, 1, [record(1, 1, 0)])
        assert len(store.rounds()) == 1

    def test_interrupted_classifier(self):
        import sqlite3

        from repro.core.store import is_interrupted

        assert is_interrupted(sqlite3.OperationalError("interrupted"))
        assert not is_interrupted(sqlite3.OperationalError("locked"))
        assert not is_interrupted(ValueError("interrupted"))


class TestConnectHelper:
    """Pin the one connection-setup path both open modes now share
    (writer constructor and read-only opens used to duplicate it)."""

    def test_writer_connection_pragmas(self, tmp_path):
        from repro.core.store.sqlite import _connect

        conn = _connect(str(tmp_path / "w.sqlite"))
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 5000
            assert conn.execute("PRAGMA query_only").fetchone()[0] == 0
            row = conn.execute("SELECT 1 AS one").fetchone()
            assert row["one"] == 1          # Row factory installed
        finally:
            conn.close()

    def test_readonly_connection_refuses_writes(self, tmp_path):
        import sqlite3

        from repro.core.store.sqlite import _connect

        path = str(tmp_path / "r.sqlite")
        _connect(path).close()              # create the file
        conn = _connect(path, readonly=True)
        try:
            assert conn.execute("PRAGMA query_only").fetchone()[0] == 1
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("CREATE TABLE t (x)")
        finally:
            conn.close()

    def test_readonly_memory_rejected(self):
        from repro.core.store.sqlite import _connect

        with pytest.raises(ValueError, match="in-memory"):
            _connect(":memory:", readonly=True)

    def test_busy_timeout_is_configurable(self, tmp_path):
        from repro.core.store.sqlite import _connect

        conn = _connect(str(tmp_path / "t.sqlite"), busy_timeout_ms=123)
        try:
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 123
        finally:
            conn.close()
