"""The benchmark workloads: seeded inputs, timed cycles, correctness checks.

Each workload drives the program through its public API only
(``RunSpec``/``execute_spec``, ``BatchRunner``, ``CampaignRunner``,
``ResultStore`` and ``repro serve`` over HTTP).  A workload provides:

* ``inputs(seed, size)`` -- the generated inputs (same seed, same inputs);
* ``prepare(inputs)`` -- the first topology build/compile, the last step of
  set-up (the fresh-interpreter probe runs it too);
* ``cycle(inputs, scratch)`` -- one cold pass against an empty result
  store, then the same work answered from that store;
* ``verify(inputs, scratch, cycles)`` -- the correctness gate: pinned
  digests of seed-independent work plus, for spec-sweep, a re-execution
  slice checking async ≡ fastpath ≡ batch.

Spec-sweep also has ``pool_passes(inputs, scratch)``, the untraced serial
and pooled passes behind the runner layer of the ledger.  Every mismatch,
exception or non-2xx HTTP answer counts as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import queue
import random
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    EXPERIMENTS,
    TIMING_FIELDS,
    BatchRunner,
    CampaignRunner,
    ExperimentSpec,
    RunSpec,
    clear_topology_cache,
    ensure_registered,
    execute_spec,
    topology_cache_stats,
)
from repro.store import ResultStore

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Paper-facing metrics of a record: the paper's cost measure (messages and
#: bits) plus the delivery count.  Deterministic per (spec, seed).
PAPER_METRICS = ("steps", "total_messages", "total_bits", "max_message_bits")

#: Row keys left out of row digests: certificate ids hash a format version
#: and certificate paths name the store directory.
UNSTABLE_ROW_KEYS = frozenset(("certificate", "certificate_path")) | frozenset(TIMING_FIELDS)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_facts(record: Any) -> List[Any]:
    """The paper-facing fields of one record (engine-independent)."""
    return [record.outcome, record.terminated] + [record.metrics.get(k) for k in PAPER_METRICS]


def records_digest(records: Sequence[Any]) -> str:
    """sha256 over spec identity plus paper-facing fields, in input order."""
    return _sha([[r.spec.spec_id] + record_facts(r) for r in records])


def _stable_rows(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _stable_rows(v) for k, v in value.items() if k not in UNSTABLE_ROW_KEYS}
    if isinstance(value, list):
        return [_stable_rows(v) for v in value]
    return value


def rows_digest(rows: Any) -> str:
    """sha256 over campaign rows minus timing and location-stamped keys."""
    return _sha(_stable_rows(rows))


def mismatches(left: Sequence[Any], right: Sequence[Any]) -> int:
    """Records whose paper-facing fields differ (a length gap counts too)."""
    gap = abs(len(left) - len(right))
    return gap + sum(record_facts(a) != record_facts(b) for a, b in zip(left, right))


def load_pinned() -> Dict[str, Any]:
    with open(os.path.join(HERE, "pinned.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


class Scratch:
    """Per-process scratch directories inside the checkout, removed on close."""

    def __init__(self) -> None:
        self.root = os.path.join(OUT, f"tmp-{os.getpid()}")
        self._count = 0

    def fresh(self) -> str:
        self._count += 1
        path = os.path.join(self.root, str(self._count))
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


#: A reference time this recent (seconds) is not taken again.
REFERENCE_REUSE_S = 0.5
#: Every reference time taken by this process (see :func:`take_reference`).
REFERENCES: List[float] = []
_last_reference_at = float("-inf")


def take_reference() -> None:
    """Time a fixed pure-Python loop that does not touch the program.

    It builds, serialises, hashes and sorts a dict of records, the kind of
    work the program's orchestration does.  On a shared machine whose speed
    drifts by tens of percent over seconds to minutes, its time tracks that
    drift; the run divides its medians by the median of these times.  The
    time is appended to ``REFERENCES`` unless one was taken less than
    ``REFERENCE_REUSE_S`` ago.
    """
    global _last_reference_at
    if time.perf_counter() - _last_reference_at < REFERENCE_REUSE_S:
        return
    gc.collect()
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        key = str(i * 7919 % 100003)
        table[key] = {"i": i, "key": key, "pair": [i, key]}
    text = json.dumps(table, sort_keys=True)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    sorted(json.loads(text).items())
    REFERENCES.append(time.perf_counter() - start)
    _last_reference_at = time.perf_counter()


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``fn()`` and its wall time, timed from a freshly collected heap.

    A reference time is taken first, so that reference times interleave
    with the timed work.
    """
    take_reference()
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@dataclass
class Cycle:
    """What one cold+warm cycle measured and how many operations it checked."""

    #: Metric name -> the timed passes of this cycle (seconds each).
    samples: Dict[str, List[float]]
    attempted: int
    failed: int
    digest: str
    #: Measurements for the per-layer ledger (records, store bytes, ...).
    extra: Dict[str, Any] = field(default_factory=dict)


def _ipc_bytes(specs: Sequence[RunSpec], records: Sequence[Any]) -> int:
    """Pickled size of what a pool pass ships: spec payloads out, records back."""
    out = sum(len(pickle.dumps(spec.to_dict())) for spec in specs)
    back = sum(len(pickle.dumps({"record": r.to_dict()})) for r in records)
    return out + back


# ----------------------------------------------------------------------
# spec-sweep: many small specs through BatchRunner
# ----------------------------------------------------------------------


#: (protocol, graph) pairs of spec-sweep; each run terminates or goes
#: quiescent on these families, so no operation fails by design.
SWEEP_PAIRS = (
    ("tree-broadcast", "random-grounded-tree"),
    ("flooding", "random-grounded-tree"),
    ("flooding", "random-dag"),
    ("dag-broadcast", "random-dag"),
)


class SpecSweep:
    """Orchestration-bound: thousands of small specs plus batched seed-groups.

    A cycle runs the whole spec list serially through ``BatchRunner``: the
    cold pass against an empty ``ResultStore`` (compute plus publishing
    records), then ``warm_repeats`` warm passes answered from that store.
    """

    name = "spec-sweep"
    warm_repeats = 3
    #: Every cycle sees the same inputs, so their digests must agree.
    repeatable = True
    #: The program runs in this process, so traced spans must cover it.
    in_process = True
    #: size -> (fastpath specs, batch seed-groups, seeds per group)
    SIZES = {"full": (1800, 40, 16), "tiny": (48, 4, 8)}

    def inputs(self, seed: int, size: str) -> List[RunSpec]:
        singles, groups, group_size = self.SIZES[size]
        rng = random.Random(f"spec-sweep:{seed}")
        specs: List[RunSpec] = []
        for index in range(singles):
            protocol, graph = SWEEP_PAIRS[index % len(SWEEP_PAIRS)]
            specs.append(
                RunSpec(
                    graph=graph,
                    graph_params={"num_internal": rng.randint(4, 24)},
                    protocol=protocol,
                    engine="fastpath",
                    seed=rng.randrange(10**9),
                )
            )
        for index in range(groups):
            protocol, graph = SWEEP_PAIRS[index % len(SWEEP_PAIRS)]
            shape = RunSpec(
                graph=graph,
                graph_params={"num_internal": rng.randint(8, 24), "seed": rng.randrange(10**6)},
                protocol=protocol,
                scheduler="random",
                engine="batch",
            )
            first = rng.randrange(10**9)
            specs.extend(shape.with_seed(first + k) for k in range(group_size))
        return specs

    def reference_slice(self, specs: List[RunSpec]) -> List[RunSpec]:
        singles = [s for s in specs if s.engine == "fastpath"][:8]
        grouped = [s for s in specs if s.engine == "batch"][:4]
        return singles + grouped

    def prepare(self, inputs: List[RunSpec]) -> None:
        execute_spec(inputs[0])

    def cycle(self, specs: List[RunSpec], scratch: Scratch) -> Cycle:
        clear_topology_cache()
        failed = 0
        with ResultStore(scratch.fresh()) as store:
            cold, cold_s = timed(lambda: BatchRunner(parallel=False, store=store).run(specs))
            warm_times = []
            for _ in range(self.warm_repeats):
                runner = BatchRunner(parallel=False, store=store)
                warm, warm_s = timed(lambda: runner.run(specs))
                warm_times.append(warm_s)
                failed += runner.stats.executed + mismatches(cold, warm)
            store_bytes = store.stats().total_bytes
        return Cycle(
            samples={"cold_store_s": [cold_s], "warm_store_s": warm_times},
            attempted=len(specs) * (1 + self.warm_repeats),
            failed=failed,
            digest=records_digest(cold),
            extra={"records": len(specs), "store_bytes": store_bytes, "cache": topology_cache_stats()},
        )

    def pool_passes(self, specs: List[RunSpec], scratch: Scratch) -> Cycle:
        """Serial and pooled passes without a store, for the runner layer."""
        serial, serial_s = timed(lambda: BatchRunner(parallel=False).run(specs))
        workers = os.cpu_count() or 1
        pooled, pool_s = timed(lambda: BatchRunner(max_workers=workers).run(specs))
        return Cycle(
            samples={},
            attempted=2 * len(specs),
            failed=mismatches(serial, pooled),
            digest=records_digest(serial),
            extra={
                "records": len(specs),
                "serial_s": serial_s,
                "pool_s": pool_s,
                "workers": workers,
                "ipc_bytes": _ipc_bytes(specs, pooled),
            },
        )

    def verify(self, inputs: List[RunSpec], scratch: Scratch, cycles: Sequence[Cycle]) -> Tuple[int, int]:
        """Pinned canary digest, then async ≡ fastpath ≡ batch on a slice."""
        canary = [execute_spec(spec) for spec in self.inputs(0, "tiny")]
        attempted = len(canary)
        failed = len(canary) if records_digest(canary) != load_pinned()[self.name] else 0
        for spec in self.reference_slice(inputs):
            expected = record_facts(execute_spec(spec))
            for engine in ("fastpath", "async"):
                if engine != spec.engine:
                    attempted += 1
                    other = RunSpec.from_dict({**spec.to_dict(), "engine": engine})
                    failed += record_facts(execute_spec(other)) != expected
        return attempted, failed


# ----------------------------------------------------------------------
# campaigns: the paper's experiments through CampaignRunner
# ----------------------------------------------------------------------


class Campaigns:
    """The registered experiments at quick scale, serial, cold then warm.

    Grid campaigns, white-box grids and driver experiments (the ``e14``
    exhaustive schedule walk and the ``e19`` guided search among them) run
    through one serial ``CampaignRunner`` per pass, first against an empty
    ``ResultStore``, then again on it: the warm pass serves grid specs from
    the store and re-executes white-box grids and drivers.  The four longest
    plain spec grids (``LEFT_OUT``) are left out: their layers are
    spec-sweep's, and without them a run holds several cycles, so that a
    pass slowed by the machine does not set the run's median.
    """

    name = "campaigns"
    warm_repeats = 2
    #: The quick grids are fixed, so every cycle's rows must agree.
    repeatable = True
    in_process = True
    LEFT_OUT = ("e08", "e13", "e15", "e16")
    #: size -> experiment names (None = every registered one not LEFT_OUT)
    SIZES: Dict[str, Optional[Tuple[str, ...]]] = {"full": None, "tiny": ("e01", "e05", "e14")}

    def inputs(self, seed: int, size: str) -> List[str]:
        # The paper's quick grids are fixed, so the seed changes nothing:
        # an order drawn from it would let the topology cache, shared
        # between campaigns, vary the cold pass from seed to seed.
        ensure_registered()
        return list(self.SIZES[size] or (name for name in EXPERIMENTS.names() if name not in self.LEFT_OUT))

    def prepare(self, names: List[str]) -> None:
        for name in names:
            experiment = EXPERIMENTS.get(name)
            if isinstance(experiment, ExperimentSpec):
                execute_spec(experiment.expand(scale="quick")[0])
                return

    @staticmethod
    def run_pass(names: List[str], store: Any) -> Dict[str, Any]:
        runner = CampaignRunner(scale="quick", parallel=False, store=store)
        return {name: runner.run(name).rows for name in names}

    def cycle(self, names: List[str], scratch: Scratch) -> Cycle:
        clear_topology_cache()
        with ResultStore(scratch.fresh()) as store:
            cold, cold_s = timed(lambda: self.run_pass(names, store))
            warms = [timed(lambda: self.run_pass(names, store)) for _ in range(self.warm_repeats)]
            stats = store.stats()
        digests = {name: rows_digest(cold[name]) for name in names}
        failed = sum(digests[name] != rows_digest(warm[name]) for warm, _ in warms for name in names)
        return Cycle(
            samples={"cold_store_s": [cold_s], "warm_store_s": [warm_s for _, warm_s in warms]},
            attempted=(1 + self.warm_repeats) * len(names),
            failed=failed,
            digest=_sha(digests),
            extra={
                "records": stats.records,
                "store_bytes": stats.total_bytes,
                "cache": topology_cache_stats(),
                "digests": digests,
            },
        )

    def verify(self, names: List[str], scratch: Scratch, cycles: Sequence[Cycle]) -> Tuple[int, int]:
        """The quick rows are seed-independent: each experiment's digest is pinned."""
        pinned = load_pinned()[self.name]
        checked = [cycle.extra["digests"][name] == pinned[name] for cycle in cycles for name in names]
        return len(checked), checked.count(False)


# ----------------------------------------------------------------------
# serve-mix: `repro serve --serial` over HTTP, closed loop
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve --serial --port 0`` subprocess; always torn down."""

    def __init__(self, store_dir: str, timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--serial", "--store", store_dir],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        # A reader thread hands stdout lines over and keeps draining the pipe
        # afterwards, so the server never blocks on a full pipe.
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.url = self._await_ready(timeout)
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _await_ready(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if not line:
                break
            if line.startswith("SERVE_READY "):
                address = json.loads(line[len("SERVE_READY "):])
                return f"http://{address['host']}:{address['port']}"
        raise RuntimeError("repro serve did not announce SERVE_READY")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _http(method: str, url: str, payload: Any = None) -> Tuple[int, Any]:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, None


TERMINAL_STATES = ("completed", "failed")


def _watch_until_done(job_url: str) -> Dict[str, Any]:
    """Follow the job's NDJSON status stream; return the terminal snapshot.

    The stream can close after a non-terminal snapshot when the job finishes
    between the server's last snapshot and its terminal check; the status
    is then polled until it is terminal.
    """
    snapshot: Dict[str, Any] = {}
    with urllib.request.urlopen(f"{job_url}?watch=1", timeout=120) as response:
        for line in response:
            snapshot = json.loads(line)
    deadline = time.monotonic() + 120
    while snapshot.get("state") not in TERMINAL_STATES and time.monotonic() < deadline:
        time.sleep(0.002)
        status, snapshot = _http("GET", job_url)
        if status != 200 or not snapshot:
            return {}
    return snapshot


@dataclass
class JobOutcome:
    """One submit → result round trip as the client saw it."""

    ok: bool
    latency_s: float = 0.0
    submit_s: float = 0.0
    digest: str = ""
    snapshot: Dict[str, Any] = field(default_factory=dict)


def run_job(base_url: str, payload: Dict[str, Any]) -> JobOutcome:
    """Submit one payload, wait for its job, fetch the result."""
    start = time.perf_counter()
    status, snapshot = _http("POST", f"{base_url}/experiments", payload)
    submit_s = time.perf_counter() - start
    if status not in (200, 202) or not snapshot:
        return JobOutcome(False)
    job_url = f"{base_url}/experiments/{snapshot['job']}"
    final = _watch_until_done(job_url)
    if final.get("state") != "completed":
        return JobOutcome(False)
    status, result = _http("GET", f"{job_url}/result")
    latency_s = time.perf_counter() - start
    if status != 200 or not result:
        return JobOutcome(False)
    rows = [experiment["rows"] for experiment in result["experiments"]]
    return JobOutcome(True, latency_s, submit_s, rows_digest(rows), final)


def closed_loop(base_url: str, payloads: Sequence[Dict[str, Any]], clients: int) -> List[JobOutcome]:
    """``clients`` threads; each submits its next job once its last one returned."""
    outcomes: List[JobOutcome] = [JobOutcome(False)] * len(payloads)
    lock = threading.Lock()
    cursor = iter(range(len(payloads)))

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                outcomes[index] = run_job(base_url, payloads[index])
            except (OSError, ValueError):
                outcomes[index] = JobOutcome(False)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


#: Job shapes of serve-mix: (protocol, graph, n values).
SERVE_SHAPES = (
    ("tree-broadcast", "random-grounded-tree", (8, 16)),
    ("dag-broadcast", "random-dag", (8, 16)),
    ("flooding", "random-dag", (8, 16)),
)


def serve_payload(shape: int, first_seed: int, seeds: int) -> Dict[str, Any]:
    """An inline ExperimentSpec job: one shape over a seed range."""
    protocol, graph, ns = SERVE_SHAPES[shape % len(SERVE_SHAPES)]
    spec = ExperimentSpec(
        name=f"mix-{protocol}",
        base={"graph": graph, "protocol": protocol, "engine": "fastpath"},
        axes={
            "graph_params.num_internal": list(ns),
            "seed": list(range(first_seed, first_seed + seeds)),
        },
    )
    return {"spec": spec.to_dict()}


class ServeMix:
    """A closed loop of HTTP clients against a ``repro serve`` subprocess.

    Each cycle starts a server on an empty store, so that every cycle sees
    the same store and job table.  The cold pass submits jobs over fresh
    seed ranges (they execute and write the store); the warm pass resubmits
    the same payloads, which the service answers from the store.
    """

    name = "serve-mix"
    clients = min(2, os.cpu_count() or 1)
    #: Each cycle draws fresh seed ranges, so cycle digests differ.
    repeatable = False
    #: The program runs in the server subprocess, which is not traced.
    in_process = False
    #: size -> (jobs per pass, seeds per job)
    SIZES = {"full": (150, 5), "tiny": (4, 2)}

    def __init__(self) -> None:
        self._cycles = 0

    def inputs(self, seed: int, size: str) -> Dict[str, Any]:
        jobs, seeds = self.SIZES[size]
        return {"seed": seed, "jobs": jobs, "seeds": seeds}

    def payloads(self, inputs: Dict[str, Any], cycle: int) -> List[Dict[str, Any]]:
        """Fresh seed ranges per cycle, drawn from the workload seed."""
        rng = random.Random(f"serve-mix:{inputs['seed']}:{cycle}")
        return [
            serve_payload(index, rng.randrange(10**9), inputs["seeds"])
            for index in range(inputs["jobs"])
        ]

    def prepare(self, inputs: Dict[str, Any]) -> None:
        self.payloads(inputs, 0)

    def cycle(self, inputs: Dict[str, Any], scratch: Scratch) -> Cycle:
        self._cycles += 1
        payloads = self.payloads(inputs, self._cycles)
        with Server(scratch.fresh()) as server:
            cold, cold_s = timed(lambda: closed_loop(server.url, payloads, self.clients))
            warm, warm_s = timed(lambda: closed_loop(server.url, payloads, self.clients))
            rss_mb = server.peak_rss_mb()
        failed = sum(not o.ok for o in cold + warm)
        failed += sum(a.ok and b.ok and a.digest != b.digest for a, b in zip(cold, warm))
        failed += sum(o.ok and o.snapshot["summary"]["executed"] != 0 for o in warm)
        return Cycle(
            samples={"cold_store_s": [cold_s], "warm_store_s": [warm_s]},
            attempted=len(cold) + len(warm),
            failed=failed,
            digest=_sha([o.digest for o in cold]),
            extra={"jobs": cold + warm, "wall_s": cold_s + warm_s, "rss_mb": rss_mb},
        )

    def verify(self, inputs: Dict[str, Any], scratch: Scratch, cycles: Sequence[Cycle]) -> Tuple[int, int]:
        """A fixed canary job whose rows digest is pinned."""
        with Server(scratch.fresh()) as server:
            outcome = run_job(server.url, serve_payload(0, 0, 4))
        return 1, int(not (outcome.ok and outcome.digest == load_pinned()[self.name]))


WORKLOADS = {
    workload.name: workload
    for workload in (SpecSweep(), Campaigns(), ServeMix())
}
