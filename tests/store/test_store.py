"""ResultStore core: keying, round-trips, layout, resolution."""

import hashlib
import io
import os
import sqlite3

import pytest

from repro.api import BatchRunner, RunSpec, execute_spec
from repro.cli import main
from repro.store import (
    STORE_ENV_VAR,
    ResultStore,
    StoreError,
    StoreKey,
    current_code_version,
    resolve_store,
)


def make_spec(seed=0, n=8, engine=None, label=None):
    kwargs = {}
    if engine is not None:
        kwargs["engine"] = engine
    if label is not None:
        kwargs["label"] = label
    return RunSpec(
        graph="random-grounded-tree",
        graph_params={"num_internal": n},
        protocol="tree-broadcast",
        seed=seed,
        **kwargs,
    )


class TestKeys:
    def test_key_fields_mirror_spec(self):
        spec = make_spec(seed=7, engine="fastpath")
        key = StoreKey.for_spec(spec)
        assert key.spec_id == spec.spec_id
        assert key.seed == 7
        assert key.engine == "fastpath"
        assert key.code_version == current_code_version()

    def test_label_does_not_change_key(self):
        assert (
            StoreKey.for_spec(make_spec(label="a")).spec_id
            == StoreKey.for_spec(make_spec(label="b")).spec_id
        )

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CODE_VERSION", "test-override")
        assert current_code_version() == "test-override"

    def test_seedless_keys_stay_unique(self, tmp_path):
        # seed is stored as JSON text: NULL would make every key distinct
        assert StoreKey.for_spec(make_spec(seed=None)).seed_text == "null"
        store = ResultStore(str(tmp_path / "store"))
        record = execute_spec(make_spec(seed=None))
        assert store.put_many([record, record]) == 1
        assert store.put(record) and store.stats().records == 1

    @pytest.mark.parametrize("seed", [0, -1, 2**70, None, True, 1.5, "7"])
    def test_seed_text_is_the_seed_as_json(self, seed, tmp_path):
        import json

        key = StoreKey.for_spec(make_spec(seed=seed))
        assert key.seed_text == json.dumps(seed)
        store = ResultStore(str(tmp_path / "store"))
        store.put(execute_spec(make_spec(seed=seed)))
        assert store.contains_many_keys([key]) == {key: store.ls()[0]["sha256"]}
        assert store.get(make_spec(seed=seed)).spec.seed == seed


    def test_keys_sharing_a_spec_id_match_only_exactly(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"), code_version="1.0")
        key = store.put(execute_spec(make_spec(seed=3)))
        variants = {
            "seed": key._replace(seed=4),
            "engine": key._replace(engine="fastpath"),
            "code_version": key._replace(code_version="2.0"),
        }
        # Rows a spec-derived key never produces: the same spec_id filed
        # under another seed, engine or code version, each with its own sha.
        conn = sqlite3.connect(os.path.join(store.root, "index.sqlite"))
        with conn:
            sha, payload, created_at, nbytes = conn.execute(
                "SELECT sha256, payload, created_at, nbytes FROM records"
            ).fetchone()
            conn.executemany(
                "INSERT INTO records VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (other.spec_id, other.seed_text, other.engine, other.code_version,
                     name, payload, created_at, nbytes)
                    for name, other in variants.items()
                ],
            )
        conn.close()
        everything = [key, *variants.values()]
        assert store.contains_many_keys(everything) == {
            key: sha, **{other: name for name, other in variants.items()}
        }
        for name, other in variants.items():
            assert store.contains_many_keys([other]) == {other: name}
            assert store.contains_many_keys([other._replace(seed=5)]) == {}
        assert store.contains_many_keys([key]) == {key: sha}
        assert store.get(make_spec(seed=3)).spec.seed == 3
        assert store.contains_many([make_spec(seed=3)]) == {key.spec_id}


class TestRoundTrip:
    def test_put_get_exact_json(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        record = execute_spec(make_spec(seed=1))
        store.put(record)
        fetched = store.get(record.spec)
        assert fetched is not None
        # byte-identical, timing fields included — the store returns the
        # stored record, it does not re-execute
        assert fetched.to_json() == record.to_json()

    def test_payload_is_the_canonical_record_json(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = [execute_spec(make_spec(seed=seed)) for seed in (None, 1, 2)]
        store.put_many(records)
        store.gc()  # vacuuming rewrites the file; payloads must not change
        conn = sqlite3.connect(str(tmp_path / "store" / "index.sqlite"))
        for record in records:
            key = store.key_for(record.spec)
            payload, sha, nbytes = conn.execute(
                "SELECT payload, sha256, nbytes FROM records "
                "WHERE spec_id = ? AND seed = ? AND engine = ? AND code_version = ?",
                (key.spec_id, key.seed_text, key.engine, key.code_version),
            ).fetchone()
            assert payload == record.to_json()
            assert sha == hashlib.sha256(payload.encode("utf-8")).hexdigest()
            assert nbytes == len(payload.encode("utf-8"))
        conn.close()

    def test_get_missing_is_none(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        assert store.get(make_spec(seed=99)) is None
        assert not store.contains(make_spec(seed=99))

    def test_put_many_counts_and_dedupes(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = [execute_spec(make_spec(seed=s)) for s in range(3)]
        assert store.put_many(records + records) == 3  # intra-batch dupes skipped
        assert store.put_many(records) == 0  # already stored
        assert store.stats().records == 3

    def test_code_version_partitions_records(self, tmp_path):
        record = execute_spec(make_spec(seed=1))
        store_a = ResultStore(str(tmp_path / "store"), code_version="1.0")
        store_a.put(record)
        store_b = ResultStore(str(tmp_path / "store"), code_version="2.0")
        assert store_b.get(record.spec) is None  # old results invalidated
        assert store_a.get(record.spec) is not None

    def test_ls_prefix(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        record = execute_spec(make_spec(seed=1))
        store.put(record)
        rows = store.ls(record.spec.spec_id[:4])
        assert len(rows) == 1
        assert rows[0]["spec_id"] == record.spec.spec_id
        with pytest.raises(StoreError):
            store.ls("not-hex!")

    def test_layout_on_disk(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put(execute_spec(make_spec(seed=1)))
        # one sqlite file (plus sqlite's own WAL side files), nothing else
        assert {p.name for p in root.iterdir()} <= {
            "index.sqlite",
            "index.sqlite-wal",
            "index.sqlite-shm",
        }
        conn = sqlite3.connect(str(root / "index.sqlite"))
        assert conn.execute("SELECT value FROM meta WHERE key = 'layout'").fetchone() == ("2",)
        assert conn.execute("SELECT COUNT(*) FROM records").fetchone() == (1,)
        conn.close()


def make_layout1_store(root):
    """An index as layout 1 wrote it: key + shard columns, no payloads."""
    os.makedirs(root)
    conn = sqlite3.connect(os.path.join(root, "index.sqlite"))
    conn.execute("PRAGMA journal_mode=WAL")
    with conn:
        conn.executescript(
            """
            CREATE TABLE records (
                spec_id TEXT NOT NULL, seed TEXT NOT NULL, engine TEXT NOT NULL,
                code_version TEXT NOT NULL, shard TEXT NOT NULL, sha256 TEXT NOT NULL,
                created_at REAL NOT NULL, nbytes INTEGER NOT NULL,
                PRIMARY KEY (spec_id, seed, engine, code_version)
            );
            CREATE INDEX records_by_shard ON records(shard);
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            INSERT INTO meta VALUES ('layout', '1');
            INSERT INTO records VALUES ('ab12', '0', 'async', 'v', 'ab.jsonl', 'f00', 0, 10);
            """
        )
    conn.close()
    return os.path.join(root, "index.sqlite")


class TestOldLayout:
    def test_layout1_store_is_refused_untouched(self, tmp_path):
        index = make_layout1_store(str(tmp_path / "old"))
        before = open(index, "rb").read()
        with pytest.raises(StoreError, match="predates layout 2"):
            ResultStore(str(tmp_path / "old"))
        assert open(index, "rb").read() == before

    def test_layout1_store_is_a_one_line_cli_exit(self, tmp_path):
        index = make_layout1_store(str(tmp_path / "old"))
        before = open(index, "rb").read()
        for argv in (
            ["store", "stats", "--store", str(tmp_path / "old")],
            ["experiment", "e01", "--quick", "--serial", "--store", str(tmp_path / "old")],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv, stream=io.StringIO())
            message = exc.value.code
            assert isinstance(message, str) and "\n" not in message
            assert "predates layout 2" in message and "fresh store directory" in message
        assert open(index, "rb").read() == before


class TestResolveStore:
    def test_no_store_wins(self, tmp_path):
        assert (
            resolve_store(str(tmp_path), no_store=True, env={STORE_ENV_VAR: str(tmp_path)})
            is None
        )

    def test_explicit_path_beats_env(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        store = resolve_store(str(a), env={STORE_ENV_VAR: str(b)})
        assert store is not None and store.root == str(a)

    def test_env_fallback(self, tmp_path):
        store = resolve_store(env={STORE_ENV_VAR: str(tmp_path / "envstore")})
        assert store is not None and store.root == str(tmp_path / "envstore")

    def test_nothing_resolves_to_none(self):
        assert resolve_store(env={}) is None


class TestDifferentialStoreVsFresh:
    """Acceptance bar: fetched records are JSON-identical to fresh execution."""

    @pytest.mark.parametrize("engine", ["async", "fastpath"])
    def test_grid_identical_modulo_timing(self, tmp_path, engine):
        specs = [
            make_spec(seed=seed, n=n, engine=engine)
            for seed in (0, 1, 2)
            for n in (6, 10)
        ]
        store = ResultStore(str(tmp_path / "store"))
        originals = BatchRunner(parallel=False, store=store).run(specs)
        fetched = store.get_many(specs)
        assert len(fetched) == len(specs)
        for original in originals:
            stored = fetched[original.spec.spec_id]
            # exact: the stored bytes are the executed record's bytes
            assert stored.to_json() == original.to_json()
            # and a fresh execution agrees on everything but timing
            assert (
                execute_spec(original.spec).comparable_dict()
                == stored.comparable_dict()
            )
