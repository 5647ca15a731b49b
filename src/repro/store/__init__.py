"""Content-addressed result store: computed runs become fetchable artifacts.

Every experiment in this repository is a pure function of its
:class:`~repro.api.spec.RunSpec` (which embeds the seed and engine), so a
:class:`~repro.api.spec.RunRecord` computed once — by any campaign, user
or CI run — never needs computing again.  This package is the shared
cache that makes that true in practice:

* :class:`ResultStore` — one sqlite file (``index.sqlite``) under a
  store directory holding sha256-checked records keyed by
  ``(spec_id, seed, engine, code_version)`` with get/put/contains/stats/
  verify/gc, plus the campaign row cache (``get_rows`` / ``put_rows``)
  (see :mod:`repro.store.store`);
* :class:`StoreKey` / :func:`current_code_version` — the keying and
  invalidation rules; the code version is a fingerprint of the sources
  that decide results (:mod:`repro.store.keys`).

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

from .keys import StoreKey, current_code_version
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
