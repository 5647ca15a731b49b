"""Content-addressed result store: computed runs become fetchable artifacts.

Every experiment in this repository is a pure function of its
:class:`~repro.api.spec.RunSpec` (which embeds the seed and engine), so a
:class:`~repro.api.spec.RunRecord` computed once — by any campaign, user
or CI run — never needs computing again.  This package is the shared
cache that makes that true in practice:

* :class:`ResultStore` — sqlite index + append-only JSONL shards under a
  store directory, records keyed by
  ``(spec_id, seed, engine, code_version)`` with get/put/contains/stats/
  verify/gc (see :mod:`repro.store.store`);
* :class:`StoreKey` / :func:`current_code_version` — the keying and
  invalidation rules (:mod:`repro.store.keys`);
* :class:`~repro.store.backend.StoreBackend` — the pluggable byte layer,
  with the :class:`~repro.store.backend.LocalBackend` filesystem default
  (:mod:`repro.store.backend`).

Typical use::

    from repro.api import BatchRunner, RunSpec
    from repro.store import ResultStore

    store = ResultStore("~/.cache/repro-store")
    runner = BatchRunner(store=store)
    records = runner.run(specs)          # hits cost a lookup, not a run
    print(runner.stats.store_hits, runner.stats.store_misses)

Or from a shell: ``repro experiment all --quick --store DIR`` (or set
``REPRO_STORE``); ``repro store stats`` / ``ls`` / ``verify`` / ``gc``
operate on the store itself, and ``repro serve`` exposes the whole
pipeline over HTTP (see :mod:`repro.service`).
"""

from .backend import (
    LocalBackend,
    StoreBackend,
    StoreBackendError,
)
from .keys import StoreKey, current_code_version, shard_name
from .store import (
    GcReport,
    ResultStore,
    STORE_ENV_VAR,
    StoreError,
    StoreStats,
    VerifyReport,
    open_store,
    resolve_store,
)

__all__ = [
    # keys
    "StoreKey",
    "current_code_version",
    "shard_name",
    # backends
    "StoreBackend",
    "LocalBackend",
    "StoreBackendError",
    # the store
    "ResultStore",
    "StoreStats",
    "VerifyReport",
    "GcReport",
    "StoreError",
    "STORE_ENV_VAR",
    "open_store",
    "resolve_store",
]
