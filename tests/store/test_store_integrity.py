"""Store integrity: verify, gc, corruption recompute and failing writes."""

import os
import sqlite3

import pytest

from repro.api import BatchRunner, CampaignRunner, ExperimentSpec, execute_spec
from repro.service import ExperimentService
from repro.store import ResultStore, StoreError

from .test_store import make_spec


def populate(store, seeds=(0, 1, 2)):
    records = [execute_spec(make_spec(seed=s)) for s in seeds]
    store.put_many(records)
    return records


def tamper(store, sql, *params):
    """Edit the store's file behind its back, from another connection."""
    conn = sqlite3.connect(os.path.join(store.root, "index.sqlite"))
    with conn:
        changed = conn.execute(sql, params).rowcount
    conn.close()
    return changed


def flip_payload_byte(store, spec):
    """Change one character of ``spec``'s stored payload (its sha stays)."""
    return tamper(
        store,
        "UPDATE records SET payload = replace(payload, '\"terminated\"', '\"terminatex\"') "
        "WHERE spec_id = ?",
        spec.spec_id,
    )


class TestVerify:
    def test_clean_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = populate(store)
        report = store.verify()
        assert report.clean
        assert report.records_checked == len(records)
        assert report.corrupt_records == [] and report.corrupt_rows == []

    def test_flipped_byte_is_reported(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = populate(store)
        assert flip_payload_byte(store, records[1].spec) == 1
        report = store.verify()
        assert not report.clean
        assert report.corrupt_records == [store.key_for(records[1].spec)]
        assert report.to_dict()["corrupt_records"] == [list(store.key_for(records[1].spec))]

    def test_unparseable_payload_is_reported(self, tmp_path):
        import hashlib

        store = ResultStore(str(tmp_path / "store"))
        [record] = populate(store, seeds=(0,))
        # hash-consistent but not a record: still refused
        text = '{"not": "a record"}'
        tamper(
            store,
            "UPDATE records SET payload = ?, sha256 = ?",
            text,
            hashlib.sha256(text.encode()).hexdigest(),
        )
        assert store.verify().corrupt_records == [store.key_for(record.spec)]
        assert store.get(record.spec) is None
        assert store.verify().clean


class TestGc:
    def test_gc_deletes_corrupt_records_only(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = populate(store)
        flip_payload_byte(store, records[0].spec)
        report = store.gc()
        assert report.removed_records == 1 and report.kept_records == 2
        assert store.verify().clean
        assert store.get(records[0].spec) is None
        assert store.get(records[1].spec) is not None  # live records survive

    def test_keep_days_expires_old_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = populate(store)
        # age every record well past the cutoff
        tamper(store, "UPDATE records SET created_at = created_at - 40 * 86400")
        report = store.gc(keep_days=30)
        assert report.removed_records == len(records)
        assert store.stats().records == 0

    def test_keep_days_zero_empties_and_vacuum_shrinks(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        populate(store, seeds=range(40))
        report = store.gc(keep_days=0)
        assert report.removed_records == 40 and report.kept_records == 0
        assert store.stats().records == 0
        assert report.bytes_after < report.bytes_before
        index = tmp_path / "store" / "index.sqlite"
        assert index.stat().st_size == report.bytes_after  # log checkpointed away

    def test_gc_noop_on_clean_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        populate(store)
        report = store.gc()
        assert report.removed_records == 0 and report.kept_records == 3
        assert store.verify().clean


class TestCorruptionRecompute:
    """A damaged record is a miss that recomputes and heals — never a crash."""

    def test_flipped_byte_recomputes_that_spec_alone(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        specs = [make_spec(seed=s) for s in range(3)]
        originals = BatchRunner(parallel=False, store=store).run(specs)
        victim = originals[1]
        flip_payload_byte(store, victim.spec)
        assert not store.verify().clean

        runner = BatchRunner(parallel=False, store=ResultStore(root))
        records = runner.run(specs, resume=True)
        # every record comes back correct...
        for fresh, original in zip(records, originals):
            assert fresh.comparable_dict() == original.comparable_dict()
        # ...and exactly the victim was re-executed
        assert runner.stats.executed == 1
        assert runner.stats.store_hits == 2

        # the store heals: the recomputed record is stored and verify is clean
        healed = ResultStore(root)
        assert healed.verify().clean
        assert healed.get(victim.spec).comparable_dict() == victim.comparable_dict()

    def test_deleted_row_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = populate(store)
        tamper(store, "DELETE FROM records WHERE spec_id = ?", records[0].spec.spec_id)
        assert store.get(records[0].spec) is None  # a miss, not an exception
        assert not store.contains(records[0].spec)
        assert set(store.get_many([r.spec for r in records])) == {
            r.spec.spec_id for r in records[1:]
        }
        assert store.verify().clean


class _FullDisk:
    """A sqlite connection on which every write fails like a full disk."""

    def __init__(self, conn):
        self._conn = conn

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def _check(self, sql):
        if not sql.lstrip().upper().startswith("SELECT"):
            raise sqlite3.OperationalError("database or disk is full")

    def execute(self, sql, *args):
        self._check(sql)
        return self._conn.execute(sql, *args)

    def executemany(self, sql, *args):
        self._check(sql)
        return self._conn.executemany(sql, *args)


@pytest.fixture()
def full_store(tmp_path, monkeypatch):
    """An opened store on which every later write fails, from every thread."""
    store = ResultStore(str(tmp_path / "store"))
    real = ResultStore._connection
    monkeypatch.setattr(ResultStore, "_connection", lambda self: _FullDisk(real(self)))
    return store


def tiny_campaign():
    return ExperimentSpec(
        name="full-disk",
        base={
            "graph": "random-grounded-tree",
            "graph_params": {"num_internal": 8},
            "protocol": "tree-broadcast",
        },
        axes={"seed": [0, 1, 2]},
    )


class TestFailingWrites:
    """A store that refuses writes must not abort a run: results come back
    uncached and the failure is counted."""

    def test_put_many_raises_store_error(self, full_store):
        record = execute_spec(make_spec(seed=0))
        with pytest.raises(StoreError, match="database or disk is full"):
            full_store.put_many([record])
        with pytest.raises(StoreError, match="database or disk is full"):
            full_store.put_rows("d", {"total": 0, "rows": []})

    def test_batch_run_finishes_uncached(self, full_store):
        specs = [make_spec(seed=s) for s in range(5)]
        runner = BatchRunner(parallel=False, store=full_store)
        records = runner.run(specs)
        plain = BatchRunner(parallel=False).run(specs)
        assert [r.comparable_dict() for r in records] == [r.comparable_dict() for r in plain]
        assert runner.stats.store_write_errors > 0
        assert full_store.stats().records == 0

    def test_campaign_finishes_uncached(self, full_store):
        result = CampaignRunner(store=full_store).run(tiny_campaign())
        plain = CampaignRunner().run(tiny_campaign())
        assert result.rows == plain.rows and not result.rows_cached
        assert result.stats.store_write_errors == 2  # the records, then the rows
        assert full_store.stats().records == 0 and full_store.stats().row_entries == 0

    def test_service_job_summary_counts_failures(self, full_store):
        service = ExperimentService(store=full_store, parallel=False)
        try:
            job, _ = service.submit({"experiment": "e01", "quick": True})
            assert job.wait(timeout=300)
            snapshot = job.snapshot()
        finally:
            service.close()
        assert snapshot["state"] == "completed"
        assert snapshot["summary"]["store_write_errors"] > 0
