"""The content-addressed result store: sqlite index + JSONL record shards.

A :class:`ResultStore` makes a computed :class:`~repro.api.spec.RunRecord`
an *artifact you fetch* instead of an execution you repeat.  Records are
keyed by :class:`~repro.store.keys.StoreKey` —
``(spec_id, seed, engine, code_version)`` — and live in two places:

* **shards** (``shards/<xx>.jsonl`` through the pluggable
  :class:`~repro.store.backend.StoreBackend`): append-only JSONL files,
  one *envelope* line per record —
  ``{"key": [...], "record": {...}, "sha256": "..."}`` — fanned out over
  the first two hex digits of the spec_id;
* **the index** (``index.sqlite``): one row per key with the shard name,
  the record's content hash and its creation time, so ``contains`` /
  ``stats`` / resume lookups never touch a shard.  Its ``rows`` table is
  the campaign row cache: one sha256-checked JSON payload per digest
  (:meth:`ResultStore.get_rows` / :meth:`ResultStore.put_rows`), which
  is how a warm campaign returns its rows without running anything.

Durability order is *shard first, index second*: a crash between the two
leaves an orphan line (harmless, compacted by :meth:`ResultStore.gc`),
never an index row pointing at missing bytes.  Corruption that does
arise — a truncated shard from a killed writer, a hand-edited file — is
detected on read by re-hashing the envelope; a shard whose indexed
records cannot be served is **quarantined** (moved aside, its index rows
purged) so the affected specs recompute instead of crashing the run.

Concurrency: multiple processes may share one store.  Sqlite serialises
index writes (WAL mode, busy-timeout), shard appends are atomic whole
lines (see :class:`~repro.store.backend.LocalBackend`), and duplicate
puts of the same key are benign — the index points at the winning line,
older duplicates become orphans.  :meth:`ResultStore.gc` compaction is
the one maintenance operation that assumes no concurrent writers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.spec import RunRecord, RunSpec
from .backend import LocalBackend, StoreBackend, StoreBackendError
from .keys import StoreKey, current_code_version

__all__ = [
    "StoreError",
    "StoreStats",
    "VerifyReport",
    "GcReport",
    "ResultStore",
    "open_store",
    "resolve_store",
]

#: Environment variable naming the default store directory.
STORE_ENV_VAR = "REPRO_STORE"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    spec_id TEXT NOT NULL,
    seed TEXT NOT NULL,
    engine TEXT NOT NULL,
    code_version TEXT NOT NULL,
    shard TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    created_at REAL NOT NULL,
    nbytes INTEGER NOT NULL,
    PRIMARY KEY (spec_id, seed, engine, code_version)
);
CREATE INDEX IF NOT EXISTS records_by_shard ON records(shard);
CREATE INDEX IF NOT EXISTS records_by_created ON records(created_at);
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS rows (
    digest TEXT PRIMARY KEY,
    code_version TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL
);
"""

#: Bump when the on-disk layout changes incompatibly.
LAYOUT_VERSION = "1"


class StoreError(RuntimeError):
    """The store is misconfigured or an operation cannot proceed."""


def _record_sha(record_json: str) -> str:
    return hashlib.sha256(record_json.encode("utf-8")).hexdigest()


def _envelope(key: StoreKey, record_json: str, sha: str) -> str:
    """One shard line: ``{"key": [...], "record": {...}, "sha256": "..."}``.

    Spliced from the record's canonical JSON rather than re-dumped: the
    keys are already in sorted order and every part is compact JSON, so
    the bytes equal ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
    of the parsed envelope.
    """
    key_json = json.dumps(key.to_list(), separators=(",", ":"))
    return f'{{"key":{key_json},"record":{record_json},"sha256":"{sha}"}}'


@dataclass(frozen=True)
class StoreStats:
    """Aggregate index statistics (no shard I/O)."""

    records: int
    shards: int
    total_bytes: int
    by_engine: Dict[str, int]
    by_code_version: Dict[str, int]
    oldest: Optional[float]
    newest: Optional[float]
    row_entries: int = 0
    row_entries_by_code_version: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``repro store stats`` and the service."""
        return {
            "records": self.records,
            "shards": self.shards,
            "total_bytes": self.total_bytes,
            "by_engine": dict(self.by_engine),
            "by_code_version": dict(self.by_code_version),
            "oldest": self.oldest,
            "newest": self.newest,
            "row_entries": self.row_entries,
            "row_entries_by_code_version": dict(self.row_entries_by_code_version),
        }


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of re-hashing every shard against the index."""

    shards_checked: int
    records_checked: int
    missing: List[Tuple[StoreKey, str]] = field(default_factory=list)
    mismatched: List[Tuple[StoreKey, str]] = field(default_factory=list)
    orphan_lines: int = 0
    corrupt_lines: int = 0
    corrupt_rows: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every indexed record is served by an intact line
        and every row entry matches its hash."""
        return not self.missing and not self.mismatched and not self.corrupt_rows

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``repro store verify``."""
        return {
            "shards_checked": self.shards_checked,
            "records_checked": self.records_checked,
            "missing": [[list(key), shard] for key, shard in self.missing],
            "mismatched": [[list(key), shard] for key, shard in self.mismatched],
            "orphan_lines": self.orphan_lines,
            "corrupt_lines": self.corrupt_lines,
            "corrupt_rows": list(self.corrupt_rows),
            "clean": self.clean,
        }


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    removed_records: int
    kept_records: int
    dropped_lines: int
    shards_compacted: int
    shards_deleted: int
    bytes_before: int
    bytes_after: int
    removed_rows: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``repro store gc``."""
        return {
            "removed_records": self.removed_records,
            "removed_rows": self.removed_rows,
            "kept_records": self.kept_records,
            "dropped_lines": self.dropped_lines,
            "shards_compacted": self.shards_compacted,
            "shards_deleted": self.shards_deleted,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }


class ResultStore:
    """A shared cache of executed runs, addressed by content.

    Parameters
    ----------
    root:
        Directory holding ``index.sqlite`` plus the default backend's
        shard files.  Created if missing.
    backend:
        A :class:`~repro.store.backend.StoreBackend` instance (default: a
        :class:`~repro.store.backend.LocalBackend` rooted at ``root``).
    code_version:
        The version stamped onto stored records and required of fetched
        ones; defaults to
        :func:`~repro.store.keys.current_code_version`, a fingerprint of
        the sources.  Records and cached rows written under a different
        code version are invisible (not deleted) — that is the
        invalidation rule.
    """

    def __init__(
        self,
        root: str,
        *,
        backend: Optional[Any] = None,
        code_version: Optional[str] = None,
    ) -> None:
        root = os.path.abspath(os.path.expanduser(root))
        if os.path.exists(root) and not os.path.isdir(root):
            raise StoreError(f"store root {root!r} exists and is not a directory")
        os.makedirs(root, exist_ok=True)
        self.root = root
        if backend is None:
            backend = LocalBackend(root)
        if not isinstance(backend, StoreBackend):
            raise StoreError(f"backend must be a StoreBackend, got {backend!r}")
        self.backend = backend
        self.code_version = code_version or current_code_version()
        self._index_path = os.path.join(root, "index.sqlite")
        self._local = threading.local()
        self._init_schema()

    # ------------------------------------------------------------------
    # sqlite plumbing
    # ------------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """A per-(process, thread) connection — sqlite's safe sharing unit."""
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == pid:
            return conn
        conn = sqlite3.connect(self._index_path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        self._local.conn = conn
        self._local.pid = pid
        return conn

    def _init_schema(self) -> None:
        conn = self._connection()
        with conn:
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('layout', ?)",
                (LAYOUT_VERSION,),
            )
        row = conn.execute("SELECT value FROM meta WHERE key = 'layout'").fetchone()
        if row and row[0] != LAYOUT_VERSION:
            raise StoreError(
                f"store at {self.root!r} uses layout {row[0]!r}; this build "
                f"speaks layout {LAYOUT_VERSION!r}"
            )

    def close(self) -> None:
        """Close this thread's index connection (other threads' stay open)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "ResultStore":
        """Context-manager support: ``with ResultStore(dir) as store:``."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close the calling thread's connection on exit."""
        self.close()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def key_for(self, spec: RunSpec) -> StoreKey:
        """The :class:`StoreKey` this store files ``spec``'s record under."""
        return StoreKey.for_spec(spec, self.code_version)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, record: RunRecord, *, replace: bool = False) -> StoreKey:
        """Store one record; a no-op if its key is already present.

        Shard append happens before the index insert, so a crash between
        the two leaves an orphan line, never a dangling index row.  With
        ``replace=True`` an existing entry is superseded (the old line
        becomes an orphan until the next :meth:`gc`).
        """
        self.put_many([record], replace=replace)
        return self.key_for(record.spec)

    def put_many(self, records: Iterable[RunRecord], *, replace: bool = False) -> int:
        """Store many records in one index transaction; return how many were new.

        Which keys already exist is one batched index query, not one
        lookup per record; the first record of a key repeated within the
        batch wins.
        """
        conn = self._connection()
        new = 0
        by_key: Dict[StoreKey, RunRecord] = {}
        for record in records:
            by_key.setdefault(self.key_for(record.spec), record)
        existing = {} if replace else self.contains_many_keys(list(by_key))
        pending: List[Tuple[StoreKey, str, int]] = []
        for key, record in by_key.items():
            if key in existing:
                continue
            record_json = record.to_json()
            sha = _record_sha(record_json)
            data = (_envelope(key, record_json, sha) + "\n").encode("utf-8")
            self.backend.append_line(key.shard, data)
            pending.append((key, sha, len(data)))
        if pending:
            now = time.time()
            with conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO records "
                    "(spec_id, seed, engine, code_version, shard, sha256, created_at, nbytes) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            key.spec_id,
                            key.seed_text,
                            key.engine,
                            key.code_version,
                            key.shard,
                            sha,
                            now,
                            nbytes,
                        )
                        for key, sha, nbytes in pending
                    ],
                )
            new = len(pending)
        return new

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _lookup(self, key: StoreKey) -> Optional[Tuple[str, str]]:
        """Index row for ``key`` as ``(shard, sha256)``, or ``None``."""
        row = self._connection().execute(
            "SELECT shard, sha256 FROM records "
            "WHERE spec_id = ? AND seed = ? AND engine = ? AND code_version = ?",
            (key.spec_id, key.seed_text, key.engine, key.code_version),
        ).fetchone()
        return (row[0], row[1]) if row else None

    def contains(self, spec: RunSpec) -> bool:
        """Whether a record for ``spec`` is indexed (no shard I/O)."""
        return self._lookup(self.key_for(spec)) is not None

    def contains_many(self, specs: Iterable[RunSpec]) -> set:
        """The subset of ``specs``' spec_ids that are indexed (one query per chunk)."""
        keys = [self.key_for(spec) for spec in specs]
        found: set = set()
        conn = self._connection()
        chunk = 200
        for start in range(0, len(keys), chunk):
            part = keys[start : start + chunk]
            clause = " OR ".join(
                ["(spec_id = ? AND seed = ? AND engine = ? AND code_version = ?)"]
                * len(part)
            )
            params: List[Any] = []
            for key in part:
                params.extend([key.spec_id, key.seed_text, key.engine, key.code_version])
            for row in conn.execute(
                f"SELECT spec_id FROM records WHERE {clause}", params
            ):
                found.add(row[0])
        return found

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        """The stored record for ``spec``, or ``None`` (a cache miss).

        A miss is returned — never an exception — when the key is not
        indexed, when its shard was truncated or corrupted (the shard is
        quarantined and its index rows purged so the affected specs
        recompute), or when the backend itself fails.
        """
        fetched = self.get_many([spec])
        return fetched.get(spec.spec_id)

    def get_many(self, specs: Iterable[RunSpec]) -> Dict[str, RunRecord]:
        """Fetch every stored record among ``specs``, keyed by spec_id.

        Index lookups are batched and each needed shard is read exactly
        once, so a warm campaign resume costs one sqlite query round plus
        one file read per distinct spec_id prefix — independent of how
        many records the artifact JSONL (or the store) holds overall.
        """
        unique: Dict[str, StoreKey] = {}
        for spec in specs:
            sid = spec.spec_id
            if sid not in unique:
                unique[sid] = self.key_for(spec)
        if not unique:
            return {}
        indexed = self.contains_many_keys(list(unique.values()))
        wanted_by_shard: Dict[str, List[StoreKey]] = {}
        for sid, key in unique.items():
            sha = indexed.get(key)
            if sha is None:
                continue
            wanted_by_shard.setdefault(key.shard, []).append(key)
        results: Dict[str, RunRecord] = {}
        for shard, keys in wanted_by_shard.items():
            served = self._read_shard(shard, {key: indexed[key] for key in keys})
            results.update(served)
        return results

    def contains_many_keys(self, keys: Sequence[StoreKey]) -> Dict[StoreKey, str]:
        """Indexed subset of ``keys`` mapped to their recorded sha256."""
        conn = self._connection()
        found: Dict[StoreKey, str] = {}
        chunk = 200
        for start in range(0, len(keys), chunk):
            part = keys[start : start + chunk]
            clause = " OR ".join(
                ["(spec_id = ? AND seed = ? AND engine = ? AND code_version = ?)"]
                * len(part)
            )
            params: List[Any] = []
            for key in part:
                params.extend([key.spec_id, key.seed_text, key.engine, key.code_version])
            rows = conn.execute(
                "SELECT spec_id, seed, engine, code_version, sha256 "
                f"FROM records WHERE {clause}",
                params,
            ).fetchall()
            for spec_id, seed_text, engine, code_version, sha in rows:
                found[StoreKey(spec_id, json.loads(seed_text), engine, code_version)] = sha
        return found

    def _read_shard(
        self, shard: str, wanted: Dict[StoreKey, str]
    ) -> Dict[str, RunRecord]:
        """Serve ``wanted`` (key → indexed sha) from one shard scan.

        A shard that cannot serve every wanted indexed record is
        quarantined: some writer died mid-line, or the file was damaged.
        Lines are verified by re-hashing before anything is parsed into
        a :class:`RunRecord`, so a flipped bit never masquerades as data.
        """
        try:
            blob = self.backend.read_bytes(shard)
        except StoreBackendError:
            return {}
        by_sha: Dict[Tuple[StoreKey, str], Dict[str, Any]] = {}
        by_key: Dict[StoreKey, Dict[str, Any]] = {}
        for raw in blob.split(b"\n"):
            if not raw.strip():
                continue
            try:
                envelope = json.loads(raw.decode("utf-8"))
                key = StoreKey.from_list(envelope["key"])
                record_json = json.dumps(
                    envelope["record"], sort_keys=True, separators=(",", ":")
                )
                if _record_sha(record_json) != envelope["sha256"]:
                    continue  # self-inconsistent line: treat as absent
            except (ValueError, KeyError, TypeError):
                continue  # truncated/garbled line: treat as absent
            by_sha[(key, envelope["sha256"])] = envelope["record"]
            by_key[key] = envelope["record"]  # last writer wins for sha-less fallback
        served: Dict[str, RunRecord] = {}
        damaged = False
        for key, sha in wanted.items():
            payload = by_sha.get((key, sha))
            if payload is None:
                # Index/shard divergence for the exact sha (e.g. a racing
                # duplicate put): any intact line for the key still serves.
                payload = by_key.get(key)
            if payload is None:
                damaged = True
                continue
            try:
                served[key.spec_id] = RunRecord.from_dict(payload)
            except (ValueError, KeyError, TypeError):
                damaged = True
        if damaged:
            self._quarantine(shard)
            # Anything already parsed is still good data — keep serving it.
        return served

    def _quarantine(self, shard: str) -> None:
        """Move a damaged shard aside and purge its index rows."""
        try:
            self.backend.quarantine(shard)
        except StoreBackendError:
            pass
        conn = self._connection()
        with conn:
            conn.execute("DELETE FROM records WHERE shard = ?", (shard,))

    # ------------------------------------------------------------------
    # the row cache
    # ------------------------------------------------------------------

    def put_rows(self, digest: str, payload: Dict[str, Any]) -> bool:
        """Cache ``payload`` under ``digest``, replacing any entry; return
        whether it was stored.

        ``payload`` is kept as compact JSON in key insertion order (row
        columns keep their order).  A payload that does not survive a
        JSON round trip unchanged — tuples, non-string keys, NaN, objects
        — is not stored, so :meth:`get_rows` only ever returns a value
        equal to what was put.
        """
        try:
            text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
        except (TypeError, ValueError):
            return False
        if json.loads(text) != payload:
            return False
        conn = self._connection()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO rows "
                "(digest, code_version, sha256, payload, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (digest, self.code_version, _record_sha(text), text, time.time()),
            )
        return True

    def get_rows(self, digest: str) -> Optional[Dict[str, Any]]:
        """The payload cached under ``digest``, or ``None`` (a miss).

        The payload is re-hashed on every read; an entry that no longer
        matches its hash is deleted and reported as a miss, so the rows
        are recomputed instead of served damaged.
        """
        conn = self._connection()
        row = conn.execute(
            "SELECT sha256, payload FROM rows WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            return None
        sha, text = row
        if _record_sha(text) == sha:
            try:
                return json.loads(text)
            except ValueError:
                pass
        with conn:
            conn.execute("DELETE FROM rows WHERE digest = ?", (digest,))
        return None

    def _corrupt_rows(self) -> List[str]:
        """The row-cache digests whose payload fails its hash."""
        return [
            digest
            for digest, sha, text in self._connection().execute(
                "SELECT digest, sha256, payload FROM rows ORDER BY digest"
            )
            if _record_sha(text) != sha
        ]

    # ------------------------------------------------------------------
    # operations: stats / ls / verify / gc
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Aggregate counts from the index alone (cheap, no shard I/O)."""
        conn = self._connection()
        total, nbytes, oldest, newest = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), MIN(created_at), "
            "MAX(created_at) FROM records"
        ).fetchone()
        shards = conn.execute("SELECT COUNT(DISTINCT shard) FROM records").fetchone()[0]
        by_engine = dict(
            conn.execute("SELECT engine, COUNT(*) FROM records GROUP BY engine")
        )
        by_code_version = dict(
            conn.execute("SELECT code_version, COUNT(*) FROM records GROUP BY code_version")
        )
        rows_by_code_version = dict(
            conn.execute("SELECT code_version, COUNT(*) FROM rows GROUP BY code_version")
        )
        return StoreStats(
            records=total,
            shards=shards,
            total_bytes=nbytes,
            by_engine=by_engine,
            by_code_version=by_code_version,
            oldest=oldest,
            newest=newest,
            row_entries=sum(rows_by_code_version.values()),
            row_entries_by_code_version=rows_by_code_version,
        )

    def ls(self, spec_id_prefix: str = "") -> List[Dict[str, Any]]:
        """Index rows whose spec_id starts with ``spec_id_prefix`` (hex).

        Returns plain dicts (JSON-safe) ordered newest-first; an empty
        prefix lists everything.  Spec ids are lowercase hex, so the
        prefix is validated before it reaches a ``LIKE`` pattern.
        """
        prefix = spec_id_prefix.strip().lower()
        if prefix and not all(c in "0123456789abcdef" for c in prefix):
            raise StoreError(f"spec_id prefix must be hex, got {spec_id_prefix!r}")
        rows = self._connection().execute(
            "SELECT spec_id, seed, engine, code_version, shard, sha256, "
            "created_at, nbytes FROM records WHERE spec_id LIKE ? "
            "ORDER BY created_at DESC, spec_id",
            (f"{prefix}%",),
        ).fetchall()
        return [
            {
                "spec_id": spec_id,
                "seed": json.loads(seed_text),
                "engine": engine,
                "code_version": code_version,
                "shard": shard,
                "sha256": sha,
                "created_at": created_at,
                "nbytes": nbytes,
            }
            for spec_id, seed_text, engine, code_version, shard, sha, created_at, nbytes in rows
        ]

    def _index_by_shard(self) -> Dict[str, Dict[StoreKey, str]]:
        """Every index row, grouped by shard, as ``key → sha256``."""
        grouped: Dict[str, Dict[StoreKey, str]] = {}
        for spec_id, seed_text, engine, code_version, shard, sha in self._connection().execute(
            "SELECT spec_id, seed, engine, code_version, shard, sha256 FROM records"
        ):
            key = StoreKey(spec_id, json.loads(seed_text), engine, code_version)
            grouped.setdefault(shard, {})[key] = sha
        return grouped

    def _scan_shard_lines(
        self, shard: str
    ) -> Tuple[List[Tuple[StoreKey, str, str]], int]:
        """All intact envelope lines of a shard plus the corrupt-line count."""
        lines: List[Tuple[StoreKey, str, str]] = []
        corrupt = 0
        for raw in self.backend.read_bytes(shard).split(b"\n"):
            if not raw.strip():
                continue
            try:
                envelope = json.loads(raw.decode("utf-8"))
                key = StoreKey.from_list(envelope["key"])
                record_json = json.dumps(
                    envelope["record"], sort_keys=True, separators=(",", ":")
                )
                if _record_sha(record_json) != envelope["sha256"]:
                    corrupt += 1
                    continue
                lines.append((key, envelope["sha256"], record_json))
            except (ValueError, KeyError, TypeError):
                corrupt += 1
        return lines, corrupt

    def verify(self) -> VerifyReport:
        """Re-hash every shard against the index; report divergence.

        ``missing`` — indexed records with no intact line for their key;
        ``mismatched`` — the key exists but never with the indexed hash;
        ``orphan_lines`` — intact lines no index row points at (crash
        leftovers and superseded duplicates; reclaimed by :meth:`gc`);
        ``corrupt_lines`` — lines that fail to parse or re-hash;
        ``corrupt_rows`` — row-cache digests whose payload fails its hash.
        """
        index = self._index_by_shard()
        shard_names = sorted(set(index) | set(self.backend.list_shards()))
        missing: List[Tuple[StoreKey, str]] = []
        mismatched: List[Tuple[StoreKey, str]] = []
        orphans = 0
        corrupt = 0
        checked = 0
        for shard in shard_names:
            lines, shard_corrupt = self._scan_shard_lines(shard)
            corrupt += shard_corrupt
            present = {(key, sha) for key, sha, _ in lines}
            present_keys = {key for key, _, _ in lines}
            wanted = index.get(shard, {})
            checked += len(wanted)
            for key, sha in wanted.items():
                if (key, sha) in present:
                    continue
                if key in present_keys:
                    mismatched.append((key, shard))
                else:
                    missing.append((key, shard))
            indexed_pairs = {(key, sha) for key, sha in wanted.items()}
            orphans += sum(1 for key, sha, _ in lines if (key, sha) not in indexed_pairs)
        return VerifyReport(
            shards_checked=len(shard_names),
            records_checked=checked,
            missing=missing,
            mismatched=mismatched,
            orphan_lines=orphans,
            corrupt_lines=corrupt,
            corrupt_rows=self._corrupt_rows(),
        )

    def gc(self, keep_days: Optional[float] = None) -> GcReport:
        """Expire old records and row entries, and compact every shard.

        ``keep_days`` (finite, ``>= 0``) drops records and row-cache
        entries created more than that many days ago (``None`` keeps
        everything and only compacts).  Compaction rewrites each shard to
        exactly its live indexed lines, reclaiming orphans, superseded
        duplicates and corrupt bytes, deletes shards left empty, and
        deletes row entries that fail their hash.  Run it without
        concurrent writers — a line appended mid-compaction could be
        dropped by the rewrite.
        """
        conn = self._connection()
        removed = removed_rows = 0
        if keep_days is not None:
            keep_days = float(keep_days)
            if not math.isfinite(keep_days) or keep_days < 0:
                raise StoreError(
                    f"keep_days must be a finite number >= 0, got {keep_days!r}"
                )
            cutoff = time.time() - keep_days * 86400.0
            with conn:
                cursor = conn.execute(
                    "DELETE FROM records WHERE created_at < ?", (cutoff,)
                )
                removed = cursor.rowcount
                cursor = conn.execute("DELETE FROM rows WHERE created_at < ?", (cutoff,))
                removed_rows = cursor.rowcount
        corrupt_rows = self._corrupt_rows()
        if corrupt_rows:
            with conn:
                conn.executemany(
                    "DELETE FROM rows WHERE digest = ?", [(d,) for d in corrupt_rows]
                )
            removed_rows += len(corrupt_rows)
        index = self._index_by_shard()
        shard_names = sorted(set(index) | set(self.backend.list_shards()))
        dropped_lines = 0
        compacted = 0
        deleted = 0
        bytes_before = 0
        bytes_after = 0
        kept = 0
        for shard in shard_names:
            original = self.backend.read_bytes(shard)
            bytes_before += len(original)
            lines, corrupt = self._scan_shard_lines(shard)
            wanted = index.get(shard, {})
            keep: List[str] = []
            seen: set = set()
            for key, sha, record_json in lines:
                if wanted.get(key) == sha and (key, sha) not in seen:
                    seen.add((key, sha))
                    keep.append(_envelope(key, record_json, sha))
            dropped_lines += (len(lines) + corrupt) - len(keep)
            kept += len(keep)
            if not keep:
                self.backend.delete(shard)
                deleted += 1
                continue
            data = ("\n".join(keep) + "\n").encode("utf-8")
            if data != original:
                self.backend.replace(shard, data)
                compacted += 1
            bytes_after += len(data)
        return GcReport(
            removed_records=removed,
            kept_records=kept,
            dropped_lines=dropped_lines,
            shards_compacted=compacted,
            shards_deleted=deleted,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
            removed_rows=removed_rows,
        )


def open_store(
    root: str,
    *,
    backend: Optional[Any] = None,
    code_version: Optional[str] = None,
) -> ResultStore:
    """Open (creating if needed) the :class:`ResultStore` at ``root``."""
    return ResultStore(root, backend=backend, code_version=code_version)


def resolve_store(
    path: Optional[str] = None,
    *,
    no_store: bool = False,
    env: Optional[Dict[str, str]] = None,
) -> Optional[ResultStore]:
    """The store a CLI invocation should use, or ``None``.

    Resolution order: ``no_store`` wins (the escape hatch), then an
    explicit ``path`` (``--store DIR``), then the :data:`STORE_ENV_VAR`
    environment variable; with none of them set there is no store and
    callers fall back to JSONL-only behaviour.
    """
    if no_store:
        return None
    environ = os.environ if env is None else env
    root = path or environ.get(STORE_ENV_VAR)
    if not root:
        return None
    return ResultStore(root)
