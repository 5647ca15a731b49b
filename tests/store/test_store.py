"""ResultStore core: keying, round-trips, resolution, backends."""

import json
import os

import pytest

from repro.api import BatchRunner, RunSpec, execute_spec
from repro.store import (
    STORE_ENV_VAR,
    LocalBackend,
    ResultStore,
    StoreError,
    StoreKey,
    current_code_version,
    resolve_store,
    shard_name,
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

    def test_shard_is_spec_id_prefix(self):
        spec = make_spec()
        assert StoreKey.for_spec(spec).shard == shard_name(spec.spec_id)
        assert shard_name(spec.spec_id) == f"{spec.spec_id[:2]}.jsonl"

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CODE_VERSION", "test-override")
        assert current_code_version() == "test-override"

    def test_round_trips_through_list(self):
        key = StoreKey.for_spec(make_spec(seed=3))
        assert StoreKey.from_list(key.to_list()) == key


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

    def test_envelope_lines_are_canonical_json(self, tmp_path):
        import hashlib

        store = ResultStore(str(tmp_path / "store"))
        records = [execute_spec(make_spec(seed=seed)) for seed in (None, 1, 2)]
        store.put_many(records)
        store.gc()  # compaction rewrites the shards; lines must not change
        for record in records:
            key = store.key_for(record.spec)
            lines = (tmp_path / "store" / "shards" / key.shard).read_bytes().splitlines()
            line = next(l for l in lines if json.loads(l)["key"] == key.to_list())
            record_json = record.to_json()
            sha = hashlib.sha256(record_json.encode("utf-8")).hexdigest()
            envelope = {"key": key.to_list(), "record": json.loads(record_json), "sha256": sha}
            assert line.decode("utf-8") == json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            )

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
        record = execute_spec(make_spec(seed=1))
        store.put(record)
        assert (root / "index.sqlite").exists()
        shard = root / "shards" / shard_name(record.spec.spec_id)
        assert shard.exists()
        envelope = json.loads(shard.read_text().splitlines()[0])
        assert set(envelope) == {"key", "record", "sha256"}


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


class TestBackends:
    def test_store_accepts_backend_instance(self, tmp_path):
        backend = LocalBackend(str(tmp_path / "shards-home"))
        store = ResultStore(str(tmp_path / "store"), backend=backend)
        assert store.backend is backend
        record = execute_spec(make_spec(seed=2))
        store.put(record)
        assert store.get(record.spec) is not None
        assert backend.list_shards()

    def test_store_rejects_backend_name(self, tmp_path):
        with pytest.raises(StoreError, match="StoreBackend"):
            ResultStore(str(tmp_path / "store"), backend="local")


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
