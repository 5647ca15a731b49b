"""Engine-side trace capture: from ``RunSpec.trace`` policies to ``.rtrace``.

A :class:`TraceCapture` is the ``trace_sink`` both engines thread through
their delivery loops.  It owns the whole recording pipeline for one run:
policy → sampler → writer → finalized artifact, plus the counters
(``trace_events`` / ``trace_sampled`` / ``trace_bytes``) the engines fold
into :attr:`~repro.api.spec.RunRecord.metrics` exactly like PR 5's fault
counters.

Where the bytes go is resolved per-run by :func:`open_capture`:

1. an explicit file set by :func:`capture_traces(file=...) <capture_traces>`
   (the CLI's ``--trace-out``),
2. a directory set by :func:`capture_traces(directory=...) <capture_traces>`
   or the ``REPRO_TRACE_DIR`` environment variable (inherited by
   ``BatchRunner`` worker processes), laid out as
   ``<dir>/<spec_id>/<seed>-<engine>.rtrace`` beside the result store,
3. otherwise a null sink: events are still counted, sampled and hashed —
   so metrics stay identical — but no file is produced.

Identity is the engine-neutral :func:`workload_id`: the spec hash with
``engine`` *and* ``trace`` excluded (on top of spec_id's label/faults
rules).  Excluding the engine is what lets async and fastpath write
byte-identical files; excluding the trace policy is what lets
``repro trace replay FILE --spec original.json`` accept the spec file the
recording was launched from, before any ``--trace`` override.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Union

from .format import (
    KIND_DEFER,
    KIND_DELIVER,
    TraceWriter,
    states_digest,
)
from .policy import sample_k
from .sampler import TraceSampler

__all__ = [
    "TRACE_DIR_ENV",
    "TraceCapture",
    "capture_traces",
    "open_capture",
    "trace_artifact_path",
    "workload_id",
    "result_summary",
]

#: Environment variable naming the trace artifact directory.  Set (also)
#: by :func:`capture_traces` so BatchRunner worker processes inherit it.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

# Session-scoped destination overrides (see capture_traces).
_ACTIVE_FILE: Optional[Union[str, BinaryIO]] = None
_ACTIVE_DIR: Optional[str] = None


def workload_id(spec: Any) -> str:
    """Engine- and policy-neutral identity of a traced run.

    sha256[:16] over the canonical spec dict with ``label``, ``engine``,
    ``trace`` and ``observe`` always excluded and ``faults`` excluded when
    ``None`` (the :attr:`~repro.api.spec.RunSpec.spec_id` conventions,
    minus the fields that must not distinguish recordings of the same run:
    ``observe`` only reads the final states).
    """
    payload = spec.to_dict()
    for key in ("label", "engine", "trace", "observe"):
        payload.pop(key, None)
    if payload.get("faults") is None:
        payload.pop("faults", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def trace_artifact_path(root: str, spec: Any) -> str:
    """Canonical artifact location: ``<root>/<spec_id>/<seed>-<engine>.rtrace``."""
    seed = "none" if spec.seed is None else str(spec.seed)
    return os.path.join(root, spec.spec_id, f"{seed}-{spec.engine}.rtrace")


@contextlib.contextmanager
def capture_traces(
    directory: Optional[str] = None,
    file: Optional[Union[str, BinaryIO]] = None,
) -> Iterator[None]:
    """Route trace artifacts for the duration of the ``with`` block.

    ``file`` pins every capture to one destination (single-run use:
    ``repro run --trace-out``); ``directory`` spreads runs over the
    ``trace_artifact_path`` layout and is exported via ``REPRO_TRACE_DIR``
    so spawned worker processes capture to the same place.
    """
    global _ACTIVE_FILE, _ACTIVE_DIR
    if directory is not None and file is not None:
        raise ValueError("capture_traces takes a directory or a file, not both")
    prev_file, prev_dir = _ACTIVE_FILE, _ACTIVE_DIR
    prev_env = os.environ.get(TRACE_DIR_ENV)
    _ACTIVE_FILE, _ACTIVE_DIR = file, directory
    if directory is not None:
        os.environ[TRACE_DIR_ENV] = directory
    try:
        yield
    finally:
        _ACTIVE_FILE, _ACTIVE_DIR = prev_file, prev_dir
        if directory is not None:
            if prev_env is None:
                os.environ.pop(TRACE_DIR_ENV, None)
            else:
                os.environ[TRACE_DIR_ENV] = prev_env


def _resolve_destination(spec: Any) -> Optional[Union[str, BinaryIO]]:
    if _ACTIVE_FILE is not None:
        return _ACTIVE_FILE
    root = _ACTIVE_DIR if _ACTIVE_DIR is not None else os.environ.get(TRACE_DIR_ENV)
    if root:
        return trace_artifact_path(root, spec)
    return None


def open_capture(spec: Any, network: Any) -> Optional["TraceCapture"]:
    """The run's :class:`TraceCapture`, or ``None`` when tracing is off."""
    if spec.trace is None:
        return None
    return TraceCapture(spec, network, _resolve_destination(spec))


def result_summary(result: Any) -> Dict[str, Any]:
    """The footer's verification summary of a finished run.

    Everything replay compares bit-for-bit: the outcome, the full metrics
    block, and a canonical digest of the final per-vertex states (states
    themselves are arbitrary Python objects, so they travel as a digest).
    """
    return {
        "outcome": result.outcome.value,
        "terminated": result.terminated,
        "metrics": asdict(result.metrics),
        "states_sha256": states_digest(result.states),
    }


class _NullSink:
    """Discards bytes; lets the writer count/hash without an artifact."""

    def write(self, data: bytes) -> int:
        return len(data)

    def flush(self) -> None:
        pass


class TraceCapture:
    """One run's trace sink: sampling, interning, streaming, counters.

    The engines call :meth:`record` once per delivery and :meth:`defer`
    once per fault-deferred pop, then :meth:`finalize` with the finished
    :class:`~repro.network.simulator.RunResult` (or :meth:`abort` on
    failure, which removes the partial artifact).  Deferral events are
    recorded content-free — ``(step, -1, -1, KIND_DEFER, 0, -1)`` — the
    fault RNG, not the deferred message, is the reproducible quantity.
    """

    def __init__(
        self,
        spec: Any,
        network: Any,
        destination: Optional[Union[str, BinaryIO]],
    ) -> None:
        if spec.trace is None:
            raise ValueError("TraceCapture needs a spec with a trace policy")
        self.spec = spec
        self.policy: str = spec.trace
        self.workload_id = workload_id(spec)
        k = sample_k(self.policy)
        self._sampler: Optional[TraceSampler] = (
            TraceSampler(self.workload_id, k) if k is not None else None
        )
        # Head vertex per edge, precomputed: record() sits on the hot path.
        self._edge_head: List[int] = [
            network.edge_head(eid) for eid in range(network.num_edges)
        ]
        self._seen = 0
        self._tmp_path: Optional[str] = None
        self.path: Optional[str] = None
        if isinstance(destination, str):
            self.path = destination
            parent = os.path.dirname(destination)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._tmp_path = destination + ".tmp"
            target: Union[str, BinaryIO] = self._tmp_path
        elif destination is None:
            target = _NullSink()  # type: ignore[assignment]
        else:
            target = destination
        header = {
            "workload_id": self.workload_id,
            "spec": self._neutral_spec_dict(spec),
            "seed": spec.seed,
            "policy": self.policy,
            "sample_k": k,
        }
        self._writer = TraceWriter(target, header=header)

    @staticmethod
    def _neutral_spec_dict(spec: Any) -> Dict[str, Any]:
        payload = spec.to_dict()
        payload.pop("engine", None)  # engine-byte-identical files
        return payload

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def record(self, step: int, edge_id: int, payload: Any, bits: int) -> None:
        """One delivered message (called at the engines' delivery site)."""
        index = self._seen
        self._seen += 1
        if self._sampler is not None and not self._sampler.keep(index):
            return
        self._writer.append(
            step,
            edge_id,
            self._edge_head[edge_id],
            KIND_DELIVER,
            bits,
            self._writer.intern(payload),
        )

    def defer(self, step: int) -> None:
        """One fault-deferred pop (content-free; see class docstring)."""
        index = self._seen
        self._seen += 1
        if self._sampler is not None and not self._sampler.keep(index):
            return
        self._writer.append(step, -1, -1, KIND_DEFER, 0, -1)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def finalize(self, result: Any) -> None:
        """Seal the artifact: footer with counts, checksum, run summary."""
        self._writer.finalize(
            events_seen=self._seen, result=result_summary(result)
        )
        if self._tmp_path is not None and self.path is not None:
            os.replace(self._tmp_path, self.path)
            self._tmp_path = None

    def abort(self) -> None:
        """Drop a partial recording after an engine failure."""
        self._writer.close()
        if self._tmp_path is not None:
            with contextlib.suppress(OSError):
                os.remove(self._tmp_path)
            self._tmp_path = None

    def counters(self) -> Dict[str, int]:
        """Engine-extras block for :attr:`RunRecord.metrics`."""
        return {
            "trace_events": self._seen,
            "trace_sampled": self._writer.events_written,
            "trace_bytes": self._writer.bytes_written,
        }
