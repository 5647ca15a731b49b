"""Replayable worst-case schedule certificates.

A :class:`ScheduleCertificate` is the guided search's output made
*independently checkable*: a JSON document carrying the workload (a
:class:`~repro.api.spec.RunSpec` restricted to its graph/protocol
fields), the objective searched under, the claimed execution aggregates
(steps, bits, outcome, objective value) and — the part that makes the
claim falsifiable — the full delivery script, one ``(edge_id, canonical
payload repr)`` pair per delivery.

The checker, :func:`verify_certificate`, never trusts the search: it
rebuilds the workload from the registries, hands the script to a
:class:`~repro.tracing.replay.ReplayScheduler` and re-executes it on the
reference ``async`` engine (:func:`~repro.network.simulator.run_protocol`).
The scheduler delivers *exactly* the scripted sequence and raises
:class:`~repro.tracing.replay.ReplayError` the moment the live execution
diverges from it; afterwards the replayed step count, delivered bits and
outcome are compared against the claims.  Any tampering — an edited
payload, a reordered delivery, an inflated step count, even a corrected
digest — either breaks the replay or breaks the claim comparison, so a
verified certificate is bit-for-bit evidence that the claimed execution
exists.

Certificates produced by campaign ``e19`` land under
``<store>/schedules/<cert_id>.json`` next to the store's ``traces/``
artifacts; ``repro schedule search|info|replay`` is the CLI surface.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .guided import GuidedSearchResult, extract_schedule, get_objective, search_schedules

__all__ = [
    "CERTIFICATE_VERSION",
    "CertificateError",
    "CertificateReport",
    "ScheduleCertificate",
    "certificate_path",
    "load_certificate",
    "search_and_certify",
    "store_certificate",
    "verify_certificate",
]

CERTIFICATE_VERSION = 1


class CertificateError(ValueError):
    """A certificate is structurally unusable (not merely unverified)."""


def _canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ScheduleCertificate:
    """A worst-case schedule claim plus the script that proves it."""

    #: The workload, as a :class:`~repro.api.spec.RunSpec` dict reduced to
    #: its graph/protocol/seed identity (scheduler/engine are irrelevant —
    #: the certificate's schedule *is* the scheduler).
    workload: Dict[str, Any]
    #: The :data:`~repro.lowerbounds.guided.OBJECTIVES` name searched under.
    objective: str
    #: Claimed objective value of the certified execution.
    value: float
    #: Claimed delivery count (== len(deliveries)).
    steps: int
    #: Claimed total delivered bits.
    total_bits: int
    #: Claimed outcome: "terminated" or "quiescent".
    outcome: str
    #: The delivery script: (edge_id, canonical payload repr) per step.
    deliveries: Tuple[Tuple[int, str], ...]
    #: Search provenance (nodes, truncation, walk mode, table counters…).
    search: Dict[str, Any] = field(default_factory=dict)
    #: Format version.
    version: int = CERTIFICATE_VERSION
    #: The digest recorded in the serialized form this object was loaded
    #: from; None for freshly built certificates.  Compared against the
    #: recomputed digest during verification.
    stored_digest: Optional[str] = None

    def payload_dict(self) -> Dict[str, Any]:
        """The digest-covered content (everything except the digest)."""
        return {
            "version": self.version,
            "workload": self.workload,
            "objective": self.objective,
            "value": self.value,
            "steps": self.steps,
            "total_bits": self.total_bits,
            "outcome": self.outcome,
            "deliveries": [[edge, text] for edge, text in self.deliveries],
            "search": self.search,
        }

    def digest(self) -> str:
        """sha256 over the canonical JSON of :meth:`payload_dict`."""
        return hashlib.sha256(
            _canonical_json(self.payload_dict()).encode("utf-8")
        ).hexdigest()

    @property
    def cert_id(self) -> str:
        """Short content id (first 16 hex chars of the digest)."""
        return self.digest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        payload = self.payload_dict()
        payload["digest"] = self.digest()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScheduleCertificate":
        try:
            deliveries = tuple(
                (int(edge), str(text)) for edge, text in payload["deliveries"]
            )
            return cls(
                workload=dict(payload["workload"]),
                objective=str(payload["objective"]),
                value=float(payload["value"]),
                steps=int(payload["steps"]),
                total_bits=int(payload["total_bits"]),
                outcome=str(payload["outcome"]),
                deliveries=deliveries,
                search=dict(payload.get("search", {})),
                version=int(payload.get("version", CERTIFICATE_VERSION)),
                stored_digest=payload.get("digest"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed schedule certificate: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ScheduleCertificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CertificateError("certificate JSON must be an object")
        return cls.from_dict(payload)


@dataclass
class CertificateReport:
    """Outcome of one certificate verification."""

    ok: bool
    cert_id: str
    objective: str
    claimed_steps: int
    claimed_outcome: str
    failures: List[str] = field(default_factory=list)
    replayed_steps: Optional[int] = None
    replayed_bits: Optional[int] = None
    replayed_outcome: Optional[str] = None

    def summary(self) -> str:
        """One line for the CLI."""
        if self.ok:
            return (
                f"CERTIFICATE OK [{self.objective}] id={self.cert_id} "
                f"steps={self.replayed_steps} outcome={self.replayed_outcome} "
                f"bits={self.replayed_bits}"
            )
        return (
            f"CERTIFICATE FAILED [{self.objective}] id={self.cert_id}: "
            + "; ".join(self.failures)
        )


def _workload_dict(spec: Any) -> Dict[str, Any]:
    """Reduce a RunSpec to the fields a certificate's claim depends on."""
    from ..api.spec import RunSpec

    return RunSpec(
        graph=spec.graph,
        graph_params=dict(spec.graph_params),
        graph_transforms=tuple(spec.graph_transforms),
        protocol=spec.protocol,
        protocol_params=dict(spec.protocol_params),
        seed=spec.seed,
    ).to_dict()


def search_and_certify(
    spec: Any,
    *,
    objective: str = "max-steps",
    max_nodes: int = 200_000,
    use_kernel: Optional[bool] = None,
    digest: Optional[Any] = None,
) -> Tuple[GuidedSearchResult, Optional[ScheduleCertificate]]:
    """Run the guided search and package the incumbent as a certificate.

    Only the spec's graph/protocol fields matter (the search *is* the
    scheduler).  Returns ``(result, certificate)``; the certificate is
    ``None`` when the search observed no complete execution (nothing to
    certify).  The
    certified aggregates come from re-walking the incumbent path through
    the live protocol objects (:func:`~repro.lowerbounds.guided.extract_schedule`),
    not from the search bookkeeping — a kernel/object divergence would
    surface here as a :class:`CertificateError` instead of an unreplayable
    artifact.
    """
    chosen = get_objective(objective)
    network = spec.build_graph()
    result = search_schedules(
        network,
        spec.build_protocol,
        objective=objective,
        max_nodes=max_nodes,
        use_kernel=use_kernel,
        digest=digest,
    )
    if result.best_path is None:
        return result, None
    extracted = extract_schedule(network, spec.build_protocol, result.best_path)
    if extracted.steps != result.best_depth or extracted.outcome != result.best_outcome:
        raise CertificateError(
            "incumbent path does not re-execute to the searched leaf "
            f"(searched depth={result.best_depth} outcome={result.best_outcome}, "
            f"extracted steps={extracted.steps} outcome={extracted.outcome}); "
            "kernel and object walks disagree — this is a bug, not a bad input"
        )
    certificate = ScheduleCertificate(
        workload=_workload_dict(spec),
        objective=objective,
        value=chosen.leaf_value(
            extracted.steps, extracted.total_bits, extracted.outcome
        ),
        steps=extracted.steps,
        total_bits=extracted.total_bits,
        outcome=extracted.outcome,
        deliveries=tuple(extracted.deliveries),
        search={
            "nodes": result.nodes,
            "nodes_at_best": result.nodes_at_best,
            "executions": result.executions,
            "truncated": result.truncated,
            "mode": result.mode,
            "outcomes": sorted(result.outcomes),
            "table": dict(result.table),
        },
    )
    return result, certificate


def verify_certificate(certificate: ScheduleCertificate) -> CertificateReport:
    """Independently re-execute a certificate and check every claim.

    The replay is driven by the reference ``async`` engine under a
    :class:`~repro.tracing.replay.ReplayScheduler` carrying the
    certificate's delivery script; divergence, an unconsumed script, a
    digest mismatch, or any claim/replay disagreement fails the report.
    """
    report = CertificateReport(
        ok=False,
        cert_id=certificate.cert_id,
        objective=certificate.objective,
        claimed_steps=certificate.steps,
        claimed_outcome=certificate.outcome,
    )
    if certificate.stored_digest is not None:
        recomputed = certificate.digest()
        if certificate.stored_digest != recomputed:
            report.failures.append(
                "digest mismatch: the certificate was modified after issue"
            )
    if certificate.outcome not in ("terminated", "quiescent"):
        report.failures.append(
            f"unknown claimed outcome {certificate.outcome!r}"
        )
        return report
    if certificate.steps != len(certificate.deliveries):
        report.failures.append(
            f"claimed steps={certificate.steps} but the script holds "
            f"{len(certificate.deliveries)} deliveries"
        )

    from ..api.spec import RunSpec, ensure_registered
    from ..network.simulator import Outcome, run_protocol
    from ..tracing.replay import ReplayError, ReplayScheduler

    ensure_registered()
    try:
        spec = RunSpec.from_dict(certificate.workload)
        network = spec.build_graph()
        protocol = spec.build_protocol()
    except Exception as exc:  # registry/param errors are verification failures
        report.failures.append(f"workload does not rebuild: {exc}")
        return report

    edges = [edge for edge, _text in certificate.deliveries]
    texts = [text for _edge, text in certificate.deliveries]
    scheduler = ReplayScheduler(edges, texts)
    try:
        result = run_protocol(
            network,
            protocol,
            scheduler,
            max_steps=len(edges) + 8,
            stop_at_termination=certificate.outcome == "terminated",
        )
    except ReplayError as exc:
        report.failures.append(str(exc))
        return report

    if not scheduler.script_consumed:
        report.failures.append(
            f"execution ended after {scheduler._pos} of "
            f"{len(edges)} scripted deliveries"
        )
    outcome_names = {
        Outcome.TERMINATED: "terminated",
        Outcome.QUIESCENT: "quiescent",
    }
    replayed_outcome = outcome_names.get(result.outcome, result.outcome.value)
    report.replayed_steps = result.metrics.steps
    report.replayed_bits = result.metrics.total_bits
    report.replayed_outcome = replayed_outcome
    if replayed_outcome != certificate.outcome:
        report.failures.append(
            f"claimed outcome {certificate.outcome!r} but the replay "
            f"reached {replayed_outcome!r}"
        )
    if result.metrics.steps != certificate.steps:
        report.failures.append(
            f"claimed {certificate.steps} steps but the replay delivered "
            f"{result.metrics.steps}"
        )
    if result.metrics.total_bits != certificate.total_bits:
        report.failures.append(
            f"claimed {certificate.total_bits} total bits but the replay "
            f"delivered {result.metrics.total_bits}"
        )
    report.ok = not report.failures
    return report


# ----------------------------------------------------------------------
# store layout
# ----------------------------------------------------------------------


def _store_root(store_or_root: Any) -> str:
    root = getattr(store_or_root, "root", store_or_root)
    if not isinstance(root, str):
        raise TypeError(
            "expected a ResultStore or a directory path, got "
            f"{type(store_or_root).__name__}"
        )
    return root


def certificate_path(store_or_root: Any, certificate: ScheduleCertificate) -> str:
    """Where a certificate lives under a result store: ``<store>/schedules/``."""
    return os.path.join(
        _store_root(store_or_root), "schedules", f"{certificate.cert_id}.json"
    )


def store_certificate(store_or_root: Any, certificate: ScheduleCertificate) -> str:
    """Write a certificate under ``<store>/schedules/``; return its path.

    Content-addressed like the rest of the store: the filename is the
    certificate's ``cert_id``, so re-running a campaign re-writes the
    identical file instead of accumulating duplicates.
    """
    path = certificate_path(store_or_root, certificate)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(certificate.to_json() + "\n")
    os.replace(tmp, path)
    return path


def load_certificate(path: str) -> ScheduleCertificate:
    """Read a certificate JSON file (:class:`CertificateError` on junk)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CertificateError(f"cannot read certificate {path!r}: {exc}") from exc
    return ScheduleCertificate.from_json(text)
