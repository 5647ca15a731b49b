"""The content-addressed result store: one sqlite file.

A :class:`ResultStore` makes a computed :class:`~repro.api.spec.RunRecord`
an *artifact you fetch* instead of an execution you repeat.  Everything
lives in ``<root>/index.sqlite``:

* **records** — one row per :class:`~repro.store.keys.StoreKey`
  (``(spec_id, seed, engine, code_version)``) holding the record's
  canonical JSON (:meth:`~repro.api.spec.RunRecord.to_json`), the sha256
  of exactly that text and its creation time;
* **rows** — the campaign row cache: one sha256-checked JSON payload per
  digest (:meth:`ResultStore.get_rows` / :meth:`ResultStore.put_rows`),
  which is how a warm campaign returns its rows without running anything.

A key and its payload commit in one transaction, so nothing can point
at missing bytes.  Every read re-hashes the stored text before parsing
it; a record or row entry that fails its hash or does not parse is
deleted and reported as a miss, so the affected specs recompute instead
of serving damaged data or crashing the run.

Concurrency: multiple processes may share one store.  Sqlite serialises
writes (WAL mode, busy-timeout), and duplicate puts of the same key are
benign — the first one wins, later ones are ignored.
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.spec import RunRecord, RunSpec
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
    sha256 TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL,
    nbytes INTEGER NOT NULL,
    PRIMARY KEY (spec_id, seed, engine, code_version)
);
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

#: Bump when the on-disk layout changes incompatibly.  Layout 1 kept the
#: record payloads in files outside ``index.sqlite``.
LAYOUT_VERSION = "2"

#: Keys matched per query (four bound parameters each).
_KEY_CHUNK = 200
_KEY_MATCH = "(spec_id = ? AND seed = ? AND engine = ? AND code_version = ?)"

#: How long a connection waits for another's lock before giving up.
_BUSY_SECONDS = 30.0


class StoreError(RuntimeError):
    """The store is misconfigured or an operation cannot proceed."""


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Put the index in WAL mode.  When two processes open a fresh index
    at once, sqlite answers the second switch with "database is locked"
    at once instead of waiting, so the switch is retried until
    :data:`_BUSY_SECONDS` have passed."""
    deadline = time.monotonic() + _BUSY_SECONDS
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_checked(text: str, sha: str, parse: Callable[[str], Any]) -> Optional[Any]:
    """``parse(text)`` if ``text`` still hashes to ``sha`` and parses, else ``None``."""
    if _sha(text) != sha:
        return None
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError):
        return None


@dataclass(frozen=True)
class StoreStats:
    """Aggregate index statistics (no payload is read)."""

    records: int
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
    """Outcome of re-hashing every record and row-cache payload."""

    records_checked: int
    corrupt_records: List[StoreKey] = field(default_factory=list)
    corrupt_rows: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every record and row entry matches its hash and parses."""
        return not self.corrupt_records and not self.corrupt_rows

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``repro store verify``."""
        return {
            "records_checked": self.records_checked,
            "corrupt_records": [list(key) for key in self.corrupt_records],
            "corrupt_rows": list(self.corrupt_rows),
            "clean": self.clean,
        }


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    removed_records: int
    kept_records: int
    bytes_before: int
    bytes_after: int
    removed_rows: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``repro store gc``."""
        return {
            "removed_records": self.removed_records,
            "removed_rows": self.removed_rows,
            "kept_records": self.kept_records,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }


class ResultStore:
    """A shared cache of executed runs, addressed by content.

    Parameters
    ----------
    root:
        Directory holding ``index.sqlite`` (and the ``schedules/`` and
        ``traces/`` artifacts some commands drop beside it).  Created if
        missing.
    code_version:
        The version stamped onto stored records and required of fetched
        ones; defaults to
        :func:`~repro.store.keys.current_code_version`, a fingerprint of
        the sources.  Records and cached rows written under a different
        code version are invisible (not deleted) — that is the
        invalidation rule.

    Opening raises :class:`StoreError` when ``index.sqlite`` is not a
    sqlite database or was written in another layout (which is then left
    untouched).
    """

    def __init__(self, root: str, *, code_version: Optional[str] = None) -> None:
        root = os.path.abspath(os.path.expanduser(root))
        if os.path.exists(root) and not os.path.isdir(root):
            raise StoreError(f"store root {root!r} exists and is not a directory")
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.code_version = code_version or current_code_version()
        self._index_path = os.path.join(root, "index.sqlite")
        self._local = threading.local()
        #: Every open connection with its opening pid; :meth:`close` bumps
        #: the generation, retiring the threads' cached connections.
        self._connections: List[Tuple[int, sqlite3.Connection]] = []
        self._connections_lock = threading.Lock()
        self._generation = 0
        try:
            self._init_schema()
        except sqlite3.DatabaseError as exc:
            self.close()
            raise StoreError(f"{self._index_path} is not a usable store index: {exc}") from None

    # ------------------------------------------------------------------
    # sqlite plumbing
    # ------------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """A per-(process, thread) connection — sqlite's safe sharing unit
        (``check_same_thread`` is off only so :meth:`close` may close it)."""
        pid = os.getpid()
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None and local.pid == pid and local.generation == self._generation:
            return conn
        conn = sqlite3.connect(
            self._index_path, timeout=_BUSY_SECONDS, check_same_thread=False
        )
        with self._connections_lock:
            self._connections.append((pid, conn))
            local.generation = self._generation
        _enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        local.conn = conn
        local.pid = pid
        return conn

    def _init_schema(self) -> None:
        """Create the tables — after checking the layout, so that an index
        this build cannot speak is refused without being written to."""
        conn = self._connection()
        found = None
        tables = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        if ("meta",) in tables.fetchall():
            row = conn.execute("SELECT value FROM meta WHERE key = 'layout'").fetchone()
            found = row[0] if row else None
        if found not in (None, LAYOUT_VERSION):
            self.close()
            hint = (
                "it predates layout 2; its records are recomputed into a fresh store directory"
                if found == "1"
                else f"this build speaks layout {LAYOUT_VERSION}"
            )
            raise StoreError(f"store at {self.root} uses layout {found}: {hint}")
        with conn:
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('layout', ?)",
                (LAYOUT_VERSION,),
            )

    def _write(self, sql: str, params: Iterable[Sequence[Any]]) -> int:
        """Run ``sql`` once per parameter tuple in one transaction; return
        the number of rows changed.

        A failed write — disk full, read-only file, lock timeout, all
        sqlite ``OperationalError``\\ s — rolls back and raises
        :class:`StoreError`.
        """
        conn = self._connection()
        try:
            with conn:
                before = conn.total_changes
                conn.executemany(sql, params)
                return conn.total_changes - before
        except sqlite3.OperationalError as exc:
            raise StoreError(f"cannot write to the store at {self.root}: {exc}") from None

    def _discard(self, sql: str, params: Iterable[Sequence[Any]]) -> None:
        """Delete damaged entries; if even that fails they stay misses."""
        try:
            self._write(sql, params)
        except StoreError:
            pass

    def close(self) -> None:
        """Close every index connection this process opened, on any thread
        (a fork's inherited ones are only forgotten); later calls reopen."""
        pid = os.getpid()
        with self._connections_lock:
            connections, self._connections = self._connections, []
            self._generation += 1
        for owner, conn in connections:
            if owner == pid:
                conn.close()

    def __enter__(self) -> "ResultStore":
        """Context-manager support: ``with ResultStore(dir) as store:``."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close every connection on exit."""
        self.close()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def key_for(self, spec: RunSpec) -> StoreKey:
        """The :class:`StoreKey` this store files ``spec``'s record under."""
        return StoreKey.for_spec(spec, self.code_version)

    def _select_keys(self, columns: str, keys: Sequence[StoreKey]) -> List[Tuple[Any, ...]]:
        """``columns`` of every stored record whose key is among ``keys``
        (one indexed query per :data:`_KEY_CHUNK` keys)."""
        conn = self._connection()
        found: List[Tuple[Any, ...]] = []
        for start in range(0, len(keys), _KEY_CHUNK):
            part = keys[start : start + _KEY_CHUNK]
            params = [
                value
                for key in part
                for value in (key.spec_id, key.seed_text, key.engine, key.code_version)
            ]
            clause = " OR ".join([_KEY_MATCH] * len(part))
            found.extend(conn.execute(f"SELECT {columns} FROM records WHERE {clause}", params))
        return found

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, record: RunRecord, *, replace: bool = False) -> StoreKey:
        """Store one record (see :meth:`put_many`); return its key."""
        self.put_many([record], replace=replace)
        return self.key_for(record.spec)

    def put_many(self, records: Iterable[RunRecord], *, replace: bool = False) -> int:
        """Store many records in one transaction; return how many were written.

        A key already stored keeps its record unless ``replace=True``;
        the first record of a key repeated within the batch wins.  A
        failed write raises :class:`StoreError` and stores nothing.
        """
        now = time.time()
        rows: Dict[StoreKey, Tuple[Any, ...]] = {}
        for record in records:
            key = self.key_for(record.spec)
            if key not in rows:
                payload = record.to_json()  # ASCII: its length is its size in bytes
                rows[key] = (
                    key.spec_id,
                    key.seed_text,
                    key.engine,
                    key.code_version,
                    _sha(payload),
                    payload,
                    now,
                    len(payload),
                )
        if not rows:
            return 0
        return self._write(
            f"INSERT OR {'REPLACE' if replace else 'IGNORE'} INTO records "
            "(spec_id, seed, engine, code_version, sha256, payload, created_at, nbytes) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows.values(),
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def contains(self, spec: RunSpec) -> bool:
        """Whether a record for ``spec`` is stored (its payload is not read)."""
        return bool(self._select_keys("1", [self.key_for(spec)]))

    def contains_many(self, specs: Iterable[RunSpec]) -> set:
        """The subset of ``specs``' spec_ids that are stored."""
        keys = [self.key_for(spec) for spec in specs]
        return {spec_id for (spec_id,) in self._select_keys("spec_id", keys)}

    def contains_many_keys(self, keys: Sequence[StoreKey]) -> Dict[StoreKey, str]:
        """Stored subset of ``keys`` mapped to their recorded sha256."""
        return {
            StoreKey(spec_id, json.loads(seed_text), engine, code_version): sha
            for spec_id, seed_text, engine, code_version, sha in self._select_keys(
                "spec_id, seed, engine, code_version, sha256", list(keys)
            )
        }

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        """The stored record for ``spec``, or ``None`` (a cache miss)."""
        return self.get_many([spec]).get(spec.spec_id)

    def get_many(self, specs: Iterable[RunSpec]) -> Dict[str, RunRecord]:
        """Fetch every stored record among ``specs``, keyed by spec_id.

        Only the wanted payloads are selected, and each is re-hashed
        before it is parsed.  A record that fails its hash or does not
        parse is deleted and left out, so its spec recomputes (and is
        stored again) instead of being served damaged.
        """
        unique: Dict[str, StoreKey] = {}
        for spec in specs:
            if spec.spec_id not in unique:
                unique[spec.spec_id] = self.key_for(spec)
        found: Dict[str, RunRecord] = {}
        damaged: List[Tuple[int]] = []
        for rowid, spec_id, sha, payload in self._select_keys(
            "rowid, spec_id, sha256, payload", list(unique.values())
        ):
            record = _load_checked(payload, sha, RunRecord.from_json)
            if record is None:
                damaged.append((rowid,))
            else:
                found[spec_id] = record
        if damaged:
            self._discard("DELETE FROM records WHERE rowid = ?", damaged)
        return found

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
        equal to what was put.  A failed write raises :class:`StoreError`.
        """
        try:
            text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
        except (TypeError, ValueError):
            return False
        if json.loads(text) != payload:
            return False
        self._write(
            "INSERT OR REPLACE INTO rows "
            "(digest, code_version, sha256, payload, created_at) "
            "VALUES (?, ?, ?, ?, ?)",
            [(digest, self.code_version, _sha(text), text, time.time())],
        )
        return True

    def get_rows(self, digest: str) -> Optional[Dict[str, Any]]:
        """The payload cached under ``digest``, or ``None`` (a miss).

        Checked like a record: an entry that fails its hash or does not
        parse is deleted and reported as a miss, so the rows are
        recomputed instead of served damaged.
        """
        row = self._connection().execute(
            "SELECT sha256, payload FROM rows WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            return None
        payload = _load_checked(row[1], row[0], json.loads)
        if payload is None:
            self._discard("DELETE FROM rows WHERE digest = ?", [(digest,)])
        return payload

    # ------------------------------------------------------------------
    # operations: stats / ls / verify / gc
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Aggregate counts from the key columns alone (cheap)."""
        conn = self._connection()
        total, nbytes, oldest, newest = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), MIN(created_at), "
            "MAX(created_at) FROM records"
        ).fetchone()
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
            total_bytes=nbytes,
            by_engine=by_engine,
            by_code_version=by_code_version,
            oldest=oldest,
            newest=newest,
            row_entries=sum(rows_by_code_version.values()),
            row_entries_by_code_version=rows_by_code_version,
        )

    def ls(self, spec_id_prefix: str = "") -> List[Dict[str, Any]]:
        """Records whose spec_id starts with ``spec_id_prefix`` (hex).

        Returns plain dicts (JSON-safe) ordered newest-first; an empty
        prefix lists everything.  Spec ids are lowercase hex, so the
        prefix is validated before it reaches a ``LIKE`` pattern.
        """
        prefix = spec_id_prefix.strip().lower()
        if prefix and not all(c in "0123456789abcdef" for c in prefix):
            raise StoreError(f"spec_id prefix must be hex, got {spec_id_prefix!r}")
        rows = self._connection().execute(
            "SELECT spec_id, seed, engine, code_version, sha256, "
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
                "sha256": sha,
                "created_at": created_at,
                "nbytes": nbytes,
            }
            for spec_id, seed_text, engine, code_version, sha, created_at, nbytes in rows
        ]

    def _damaged(self) -> Tuple[int, List[Tuple[int, StoreKey]], List[str]]:
        """Check every payload: ``(records checked, damaged records as
        (rowid, key), damaged row-cache digests)``."""
        conn = self._connection()
        checked = 0
        records: List[Tuple[int, StoreKey]] = []
        for rowid, spec_id, seed_text, engine, code_version, sha, payload in conn.execute(
            "SELECT rowid, spec_id, seed, engine, code_version, sha256, payload "
            "FROM records ORDER BY spec_id, seed, engine, code_version"
        ):
            checked += 1
            if _load_checked(payload, sha, RunRecord.from_json) is None:
                key = StoreKey(spec_id, json.loads(seed_text), engine, code_version)
                records.append((rowid, key))
        rows = [
            digest
            for digest, sha, payload in conn.execute(
                "SELECT digest, sha256, payload FROM rows ORDER BY digest"
            )
            if _load_checked(payload, sha, json.loads) is None
        ]
        return checked, records, rows

    def verify(self) -> VerifyReport:
        """Re-hash and parse every record and row-cache payload.

        ``corrupt_records`` / ``corrupt_rows`` name the entries a read
        would refuse (and delete); :meth:`gc` deletes them all.
        """
        checked, records, rows = self._damaged()
        return VerifyReport(
            records_checked=checked,
            corrupt_records=[key for _, key in records],
            corrupt_rows=rows,
        )

    def _index_bytes(self) -> int:
        """Size of ``index.sqlite`` plus its write-ahead log."""
        paths = (self._index_path, self._index_path + "-wal")
        return sum(os.path.getsize(path) for path in paths if os.path.exists(path))

    def gc(self, keep_days: Optional[float] = None) -> GcReport:
        """Expire old entries, delete damaged ones, then ``VACUUM``.

        ``keep_days`` (finite, ``>= 0``) drops records and row-cache
        entries created more than that many days ago (``None`` expires
        nothing).  Records and row entries that fail their hash or do
        not parse are deleted either way (and counted as removed).
        ``VACUUM`` then hands the freed pages back to the file system;
        ``bytes_before`` / ``bytes_after`` measure ``index.sqlite`` with
        its write-ahead log.
        """
        cutoff = None
        if keep_days is not None:
            keep_days = float(keep_days)
            if not math.isfinite(keep_days) or keep_days < 0:
                raise StoreError(
                    f"keep_days must be a finite number >= 0, got {keep_days!r}"
                )
            cutoff = time.time() - keep_days * 86400.0
        bytes_before = self._index_bytes()
        removed = removed_rows = 0
        if cutoff is not None:
            removed = self._write("DELETE FROM records WHERE created_at < ?", [(cutoff,)])
            removed_rows = self._write("DELETE FROM rows WHERE created_at < ?", [(cutoff,)])
        _, records, rows = self._damaged()
        removed += self._write(
            "DELETE FROM records WHERE rowid = ?", [(rowid,) for rowid, _ in records]
        )
        removed_rows += self._write("DELETE FROM rows WHERE digest = ?", [(d,) for d in rows])
        conn = self._connection()
        try:
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.OperationalError as exc:
            raise StoreError(f"cannot vacuum the store at {self.root}: {exc}") from None
        kept = conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
        return GcReport(
            removed_records=removed,
            kept_records=kept,
            bytes_before=bytes_before,
            bytes_after=self._index_bytes(),
            removed_rows=removed_rows,
        )


def open_store(root: str, *, code_version: Optional[str] = None) -> ResultStore:
    """Open (creating if needed) the :class:`ResultStore` at ``root``."""
    return ResultStore(root, code_version=code_version)


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
