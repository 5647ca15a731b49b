"""Two processes sharing one store: no lost records, no duplicated index rows.

The store's concurrency contract (one WAL-mode sqlite file, ``INSERT OR
IGNORE`` puts) is exercised the way it will actually be stressed: two
independent ``BatchRunner`` processes executing *overlapping* spec grids
against the same store root, concurrently.  Afterwards every spec must be
retrievable and intact, the store must hold exactly one row per key (both
processes race on the overlap; the first put wins), and ``verify`` must
be clean.
"""

import json
import os
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.store import ResultStore

from .test_store import make_spec

_WORKER = """
import json, sys
from repro.api import BatchRunner, RunSpec
from repro.store import ResultStore

root, start, stop = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
specs = [
    RunSpec(
        graph="random-grounded-tree",
        graph_params={"num_internal": 8},
        protocol="tree-broadcast",
        seed=seed,
    )
    for seed in range(start, stop)
]
store = ResultStore(root)
runner = BatchRunner(parallel=False, store=store)
records = runner.run(specs, resume=True)
print(json.dumps({"count": len(records), "executed": runner.stats.executed}))
"""


def test_two_processes_share_one_store(tmp_path):
    root = str(tmp_path / "store")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")

    # overlapping grids: seeds 0..11 and 6..17 race on 6..11
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, root, str(start), str(stop)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        for start, stop in ((0, 12), (6, 18))
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"worker failed: {err}"
        outputs.append(json.loads(out.strip().splitlines()[-1]))

    assert outputs[0]["count"] == 12 and outputs[1]["count"] == 12

    store = ResultStore(root)
    all_specs = [make_spec(seed=s) for s in range(18)]
    fetched = store.get_many(all_specs)
    # no lost records: every spec either process ran is retrievable
    assert len(fetched) == 18
    # no duplicated rows: one per key
    assert store.stats().records == 18
    # nothing the racing overlap wrote is corrupt
    report = store.verify()
    assert report.clean and report.records_checked == 18
    # records parse and carry the right specs
    for spec in all_specs:
        assert fetched[spec.spec_id].spec.spec_id == spec.spec_id


def test_interleaved_writers_in_one_process(tmp_path):
    """Same contract, deterministic interleaving: two store handles, alternating puts."""
    from repro.api import execute_spec

    root = str(tmp_path / "store")
    store_a, store_b = ResultStore(root), ResultStore(root)
    records = [execute_spec(make_spec(seed=s)) for s in range(6)]
    for i, record in enumerate(records):
        (store_a if i % 2 == 0 else store_b).put(record)
        # both handles racing on the same record: second put is a no-op
        (store_b if i % 2 == 0 else store_a).put(record)
    assert store_a.stats().records == 6
    assert len(store_b.get_many([r.spec for r in records])) == 6
    assert store_a.verify().clean


def test_close_closes_every_thread_connection(tmp_path):
    """``close()`` reaches the connections other threads opened, and the
    store keeps working afterwards on fresh ones."""
    store = ResultStore(str(tmp_path / "store"))
    record = make_spec(seed=0).run()
    store.put(record)
    opened = [store._connection()]

    def reader():
        assert store.get(record.spec) is not None
        opened.append(store._connection())

    thread = threading.Thread(target=reader)
    thread.start()
    thread.join()
    assert opened[0] is not opened[1]
    store.close()
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")
    assert store.get(record.spec) is not None  # a fresh connection
    store.close()


def test_opening_waits_out_a_writer_on_a_fresh_index(tmp_path):
    """While another connection holds the write lock of a fresh (not yet
    WAL) index, sqlite refuses the WAL switch at once instead of waiting;
    two processes opening one new store hit this.  Opening must wait."""
    root = tmp_path / "store"
    root.mkdir()
    holder = sqlite3.connect(
        str(root / "index.sqlite"), isolation_level=None, check_same_thread=False
    )
    holder.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.3, holder.execute, ("COMMIT",))
    release.start()
    try:
        store = ResultStore(str(root))
    finally:
        release.join()
        holder.close()
    assert store.stats().records == 0
    store.close()
