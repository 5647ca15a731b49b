"""Content-addressed keys for stored run records and the code version.

Every :class:`~repro.api.spec.RunRecord` in a
:class:`~repro.store.store.ResultStore` is addressed by a
:class:`StoreKey` — the four fields that determine whether a cached
record may stand in for a fresh execution:

* ``spec_id`` — the :attr:`~repro.api.spec.RunSpec.spec_id` content hash
  (which already covers graph, protocol, scheduler, engine, seed, fault
  model and every other semantic field of the spec);
* ``seed`` / ``engine`` — denormalised out of the spec so the index can
  be queried by them directly (``repro store ls``, per-engine stats)
  without parsing record payloads;
* ``code_version`` — a fingerprint of the code that produced the record
  (:func:`source_fingerprint`).  Experiments are pure functions of
  ``(spec, seed)`` *for a fixed implementation*, so any edit to a module
  that can decide a result — a kernel, a protocol, an aggregator —
  changes the fingerprint and invalidates every cached record and row at
  once, with or without a version bump (see docs/STORE.md).

The fingerprint is a sha256 over the source of every ``*.py`` file of
the :mod:`repro` package, cut to 16 hex digits like a ``spec_id`` (it is
stored in every key).  It skips :data:`UNFINGERPRINTED`, a fixed list of
modules that cannot change a result (the CLI, the HTTP service, the
store itself, benchmark and report rendering).  The list names what is
*left out*, so a module nobody thought about is fingerprinted: a
forgotten entry costs an extra invalidation, never a stale hit.

The key is deliberately redundant — ``spec_id`` alone determines ``seed``
and ``engine`` — but the redundancy is what makes the store's sqlite
table answer operational questions (how many fastpath records? which
seeds of this spec are cached?) without parsing a record payload.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from typing import Any, NamedTuple, Optional

__all__ = [
    "StoreKey",
    "UNFINGERPRINTED",
    "current_code_version",
    "fingerprinted",
    "source_fingerprint",
]

#: The :mod:`repro` package directory, the tree :func:`source_fingerprint`
#: hashes by default.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules left out of the fingerprint, as paths relative to the package
#: root (a trailing ``/`` names a whole subpackage).  None of them can
#: change a run record or a campaign row.
UNFINGERPRINTED = (
    "cli.py",
    "__main__.py",
    "service/",
    "store/",
    "analysis/benchmark.py",
    "analysis/report.py",
    "analysis/figures.py",
    "analysis/visualize.py",
)


def _skipped(relpath: str) -> bool:
    return any(
        relpath.startswith(entry) if entry.endswith("/") else relpath == entry
        for entry in UNFINGERPRINTED
    )


def source_fingerprint(root: str = PACKAGE_ROOT) -> str:
    """sha256 over the fingerprinted sources under ``root`` (16 hex digits).

    Files are taken in sorted relative-path order, each framed by its
    path and byte length, so a rename or a byte moved across a file
    boundary changes the digest too.  ``root`` is a parameter so a copy
    of the tree can be fingerprinted (tests do).
    """
    files = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                relpath = os.path.relpath(os.path.join(dirpath, name), root)
                files.append(relpath.replace(os.sep, "/"))
    digest = hashlib.sha256()
    for relpath in sorted(f for f in files if not _skipped(f)):
        with open(os.path.join(root, relpath), "rb") as handle:
            source = handle.read()
        digest.update(f"{relpath}\0{len(source)}\0".encode("utf-8"))
        digest.update(source)
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _package_fingerprint() -> str:
    return source_fingerprint()


def current_code_version() -> str:
    """The code version stamped onto (and required of) store records and rows.

    Defaults to :func:`source_fingerprint` of the running package,
    computed once per process (one pass over the sources takes a few
    milliseconds); the ``REPRO_STORE_CODE_VERSION`` environment variable
    overrides it — the escape hatch for sharing a warm store across an
    edit that is known not to change run semantics (docs/STORE.md).
    """
    override = os.environ.get("REPRO_STORE_CODE_VERSION")
    if override:
        return override
    return _package_fingerprint()


def fingerprinted(obj: Any) -> bool:
    """Whether ``obj`` (a function or class) is defined in a fingerprinted module.

    Code defined elsewhere — a user's own aggregator or driver, or a
    module in :data:`UNFINGERPRINTED` — can change without changing
    :func:`current_code_version`, so results it decides must not be
    cached under it.
    """
    module = sys.modules.get(getattr(obj, "__module__", None) or "")
    path = getattr(module, "__file__", None)
    if not path:
        return False
    relpath = os.path.relpath(os.path.abspath(path), PACKAGE_ROOT).replace(os.sep, "/")
    return not relpath.startswith("../") and not _skipped(relpath)


class StoreKey(NamedTuple):
    """The identity of one stored record: ``(spec_id, seed, engine, code_version)``."""

    spec_id: str
    seed: Optional[int]
    engine: str
    code_version: str

    @classmethod
    def for_spec(cls, spec, code_version: Optional[str] = None) -> "StoreKey":
        """The key under which ``spec``'s record is stored (or looked up)."""
        return cls(
            spec_id=spec.spec_id,
            seed=spec.seed,
            engine=spec.engine,
            code_version=code_version or current_code_version(),
        )

    @property
    def seed_text(self) -> str:
        """The seed as canonical JSON text (``"7"`` / ``"null"``).

        Sqlite composite primary keys treat ``NULL`` values as pairwise
        distinct, which would let seedless specs collide into duplicate
        records; storing the JSON text keeps the uniqueness constraint
        honest for every seed value.
        """
        return json.dumps(self.seed)
