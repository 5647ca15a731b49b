"""Deterministic replay: a recorded trace as an executable certificate.

``replay_trace(spec, trace)`` re-executes a recording and verifies it bit
for bit.  Two modes, chosen by the recorded policy:

* **scripted** (``full`` traces) — the delivery rows become the schedule:
  a :class:`ReplayScheduler` hands the engine exactly the recorded
  delivery sequence, so the trace itself is the adversary.  This is the
  ROADMAP's "replayable schedule artifact": any full trace — however its
  schedule was originally found — is an independently checkable
  certificate of the execution it claims.
* **re-executed** (``sample:k`` traces) — a sampled trace cannot script
  the gaps, but the run is deterministic given the spec, so the replay
  re-runs it under the spec's own scheduler and samples again.

Either way the replay records itself through a fresh in-memory
:class:`~repro.tracing.capture.TraceCapture` and the two recordings are
compared structurally: header, every column, the payload intern table,
and the footer (event counts, metrics, final-states digest, data
checksum).  Equality of the footer ``data_sha256`` alone implies the
files are byte-identical; the column-level comparison exists to say
*where* a divergence happened, not just that it did.

Fault interplay (why scripted replay stays deterministic): the injector's
RNG is consumed once per emission (``send_copies``) and once per pop
(``should_defer``), and a scripted run performs the same emissions and
the same number of pops with the same in-flight counts as the recording —
so the draw sequence, and therefore every drop/duplicate/defer decision,
reproduces exactly.  Deferral events are content-free in the format
because *which* message a scheduler hands back for deferral differs under
scripting; the decision sequence is the reproducible quantity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .capture import TraceCapture, workload_id
from .format import (
    COLUMNS,
    KIND_DELIVER,
    TraceFormatError,
    TraceReader,
    canonical_repr,
)
from .policy import sample_k

__all__ = ["ReplayError", "ReplayReport", "ReplayScheduler", "replay_trace"]


class ReplayError(RuntimeError):
    """Replay cannot proceed: wrong spec, or the execution diverged."""


@dataclass
class ReplayReport:
    """Outcome of one replay verification."""

    ok: bool
    mode: str  # "scripted" | "re-executed"
    policy: str
    workload_id: str
    events_seen: int
    events_written: int
    outcome: Optional[str] = None
    failures: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One line for the CLI."""
        if self.ok:
            return (
                f"REPLAY OK [{self.mode}] workload={self.workload_id} "
                f"policy={self.policy} events={self.events_written}/"
                f"{self.events_seen} outcome={self.outcome}"
            )
        return (
            f"REPLAY FAILED [{self.mode}] workload={self.workload_id}: "
            + "; ".join(self.failures)
        )


class ReplayScheduler:
    """Delivers exactly a recorded delivery sequence.

    The script is the trace's delivery rows: parallel lists of edge ids
    and canonical payload strings.  ``pop`` returns the in-flight message
    matching the next scripted row (earliest send order among equals —
    fault duplicates are interchangeable); a pop the script cannot
    satisfy raises :class:`ReplayError`, which is precisely the
    regression signal ("this executable no longer produces the recorded
    execution").  A fault deferral pushes the popped event object back;
    that re-entry rewinds the script pointer instead of registering a new
    send, so deferral decisions replay at the recorded positions.
    """

    name = "replay"

    def __init__(self, edges: List[int], payload_texts: List[str]) -> None:
        if len(edges) != len(payload_texts):
            raise ValueError("edge and payload scripts must have equal length")
        self._edges = edges
        self._texts = payload_texts
        self._pos = 0
        self._inflight: List[Tuple[Any, str]] = []
        self._last: Optional[Any] = None
        self._last_text = ""

    def bind(self, network: Any) -> None:
        pass

    def push(self, event: Any) -> None:
        if event is self._last:
            # Fault deferral re-entry: the engine is handing back the
            # event it just popped, not sending a new message.
            self._pos -= 1
            self._inflight.append((event, self._last_text))
            self._last = None
            return
        self._inflight.append((event, canonical_repr(event.payload)))

    def pop(self) -> Any:
        if not self._inflight:
            raise IndexError("pop from empty ReplayScheduler")
        if self._pos >= len(self._edges):
            raise ReplayError(
                f"execution diverged: run wants delivery "
                f"#{self._pos + 1} but the recording holds only "
                f"{len(self._edges)} deliveries"
            )
        want_edge = self._edges[self._pos]
        want_text = self._texts[self._pos]
        best = -1
        for i, (event, text) in enumerate(self._inflight):
            if event.edge_id == want_edge and text == want_text:
                if best < 0 or event.seq < self._inflight[best][0].seq:
                    best = i
        if best < 0:
            raise ReplayError(
                f"execution diverged at delivery #{self._pos + 1}: the "
                f"recording expects payload {want_text} on edge "
                f"{want_edge}, but no matching message is in flight"
            )
        event, text = self._inflight.pop(best)
        self._pos += 1
        self._last = event
        self._last_text = text
        return event

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def script_consumed(self) -> bool:
        """Whether every recorded delivery was replayed."""
        return self._pos == len(self._edges)


def _delivery_script(reader: TraceReader) -> Tuple[List[int], List[str]]:
    kind = np.asarray(reader.column("kind"))
    mask = kind == KIND_DELIVER
    edges = [int(e) for e in np.asarray(reader.column("edge"))[mask]]
    payload_ids = np.asarray(reader.column("payload"))[mask]
    table = reader.payloads
    texts = [table[i] for i in payload_ids]
    return edges, texts


def _compare_recordings(original: TraceReader, replayed: TraceReader) -> List[str]:
    """Structural bit-for-bit comparison; returns human-readable failures."""
    failures: List[str] = []
    if original.header != replayed.header:
        keys = sorted(set(original.header) | set(replayed.header))
        diff = [
            k
            for k in keys
            if original.header.get(k) != replayed.header.get(k)
        ]
        failures.append(f"header differs in field(s): {', '.join(diff)}")
    for name in COLUMNS:
        a = original.column(name)
        b = replayed.column(name)
        if len(a) != len(b):
            failures.append(
                f"column {name!r} length differs: recorded {len(a)}, "
                f"replayed {len(b)}"
            )
        elif not np.array_equal(a, b):
            idx = int(np.flatnonzero(a != b)[0])
            failures.append(
                f"column {name!r} diverges at event {idx}: recorded "
                f"{a[idx]}, replayed {b[idx]}"
            )
    if original.payloads != replayed.payloads:
        failures.append("payload intern tables differ")
    orig_footer, rep_footer = original.footer, replayed.footer
    for key in ("events_seen", "events_written", "payload_count"):
        if orig_footer.get(key) != rep_footer.get(key):
            failures.append(
                f"footer {key} differs: recorded {orig_footer.get(key)}, "
                f"replayed {rep_footer.get(key)}"
            )
    orig_result = orig_footer.get("result") or {}
    rep_result = rep_footer.get("result") or {}
    for key in ("outcome", "terminated", "states_sha256"):
        if orig_result.get(key) != rep_result.get(key):
            failures.append(
                f"result {key} differs: recorded {orig_result.get(key)!r}, "
                f"replayed {rep_result.get(key)!r}"
            )
    orig_metrics = orig_result.get("metrics") or {}
    rep_metrics = rep_result.get("metrics") or {}
    if orig_metrics != rep_metrics:
        keys = sorted(set(orig_metrics) | set(rep_metrics))
        diff = [k for k in keys if orig_metrics.get(k) != rep_metrics.get(k)]
        failures.append(f"metrics differ in field(s): {', '.join(diff)}")
    if not failures and orig_footer.get("data_sha256") != rep_footer.get(
        "data_sha256"
    ):
        # Structurally equal but hash-unequal would mean a format-layer
        # bug; surface it rather than declare victory.
        failures.append("data_sha256 differs despite equal structure")
    return failures


def replay_trace(
    spec: Optional[Any],
    trace: Union[str, TraceReader],
) -> ReplayReport:
    """Re-execute a recording and verify it bit for bit.

    ``spec`` is an optional cross-check: when given, its engine-neutral
    :func:`~repro.tracing.capture.workload_id` must match the recording's
    (a mismatch raises :class:`ReplayError` — replaying against the wrong
    spec is a usage error, not a divergence).  The executed spec always
    comes from the trace header, on the reference ``async`` engine: the
    differential suites prove all engines result-identical, so verifying
    against ``async`` verifies the recording regardless of which engine
    produced it.

    Returns a :class:`ReplayReport`; ``ok=False`` covers both checksum
    tampering and genuine divergence, with the failure list saying which.
    A recorded spec this code can no longer parse or build (a removed
    field or registry name) raises
    :class:`~repro.api.spec.SpecError` or
    :class:`~repro.api.registry.UnknownNameError`.
    """
    owns_reader = isinstance(trace, str)
    reader = TraceReader(trace) if isinstance(trace, str) else trace
    try:
        return _replay_with_reader(spec, reader)
    finally:
        if owns_reader:
            reader.close()


def _replay_with_reader(spec: Optional[Any], reader: TraceReader) -> ReplayReport:
    header = reader.header
    recorded_workload = header.get("workload_id", "?")
    policy = header.get("policy", "full")
    if spec is not None:
        caller_workload = workload_id(spec)
        if caller_workload != recorded_workload:
            raise ReplayError(
                f"trace was recorded for workload {recorded_workload} but "
                f"the given spec is workload {caller_workload}"
            )
    report = ReplayReport(
        ok=False,
        mode="scripted" if sample_k(policy) is None else "re-executed",
        policy=policy,
        workload_id=recorded_workload,
        events_seen=reader.footer.get("events_seen", 0),
        events_written=reader.footer.get("events_written", 0),
    )
    try:
        reader.verify_checksum()
    except TraceFormatError as exc:
        report.failures.append(str(exc))
        return report

    run_spec = reader.spec()
    network = run_spec.build_graph()
    protocol = run_spec.build_protocol()
    faults = run_spec.build_faults(network)
    scheduler: Any
    replay_scheduler: Optional[ReplayScheduler] = None
    if report.mode == "scripted":
        edges, texts = _delivery_script(reader)
        replay_scheduler = ReplayScheduler(edges, texts)
        scheduler = replay_scheduler
    else:
        scheduler = run_spec.build_scheduler(network)

    from ..network.simulator import run_protocol

    buffer = io.BytesIO()
    recapture = TraceCapture(run_spec, network, buffer)
    try:
        result = run_protocol(
            network,
            protocol,
            scheduler,
            max_steps=run_spec.max_steps,
            record_trace=run_spec.record_trace,
            track_state_bits=run_spec.track_state_bits,
            stop_at_termination=run_spec.stop_at_termination,
            faults=faults,
            trace_sink=recapture,
        )
    except ReplayError as exc:
        recapture.abort()
        report.failures.append(str(exc))
        return report
    recapture.finalize(result)
    report.outcome = result.outcome.value

    if replay_scheduler is not None and not replay_scheduler.script_consumed:
        report.failures.append(
            f"execution ended after {replay_scheduler._pos} of "
            f"{len(replay_scheduler._edges)} recorded deliveries"
        )
    replayed = TraceReader(buffer)
    report.failures.extend(_compare_recordings(reader, replayed))
    report.ok = not report.failures
    return report
