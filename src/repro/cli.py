"""Command-line interface: run experiments and spec batches from a shell.

Usage::

    python -m repro list                 # show the experiment index
    python -m repro run E5               # run one experiment, print its table
    python -m repro run all              # run all nineteen
    python -m repro run E1 E9 --out report.txt
    python -m repro run --spec spec.json # execute one RunSpec file
    python -m repro batch specs.json -o out.jsonl   # parallel batch + resume
    python -m repro experiment e05 --engine fastpath  # registered campaign
    python -m repro experiment all --quick --out artifacts/
    python -m repro registry             # list spec-addressable names
    python -m repro bench --quick        # engine throughput -> BENCH_engines.json
    python -m repro experiment all --quick --store ~/.cache/repro-store
    python -m repro store stats --store ~/.cache/repro-store
    python -m repro serve --port 8642 --store ~/.cache/repro-store

``run --spec`` and ``batch`` drive the :mod:`repro.api` run-spec layer;
``experiment`` drives the campaign layer on top of it — registered
:class:`~repro.api.campaign.ExperimentSpec` grids executed with
spec_id-keyed resume and per-experiment artifacts.  The experiment index
(``list``) is derived from the :data:`~repro.api.registry.EXPERIMENTS`
registry, so a registered experiment can never be missing from the
listing.  ``run E5`` and ``report`` run the same registered campaigns on
a serial :class:`~repro.api.campaign.CampaignRunner` at their default
(full) scale, without a store, and print the rows as tables.

``--store DIR`` (or the ``REPRO_STORE`` environment variable) attaches a
content-addressed :class:`~repro.store.store.ResultStore` to ``run
--spec``, ``batch`` and ``experiment``: any record computed before — in
any campaign, by any user of the store — is a cache hit, and the summary
lines grow ``store_hits`` / ``store_misses`` / ``store_hit_rate``
fields.  ``repro store`` inspects and maintains a store; ``repro serve``
exposes campaign submission over HTTP (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple

from .analysis.report import render_table
from .api import (
    ENGINES,
    EXPERIMENTS,
    BatchRunner,
    CampaignRequest,
    CampaignRunner,
    RunRecord,
    RunSpec,
    SpecError,
    UnknownNameError,
    all_registries,
    check_registered_names,
    ensure_registered,
    load_specs,
)
from .api.campaign import campaign_summary
from .store import STORE_ENV_VAR, ResultStore, StoreError, resolve_store

__all__ = ["main", "build_parser"]


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--store`` / ``--no-store`` pair (batch, experiment, run, serve)."""
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed result store directory (default: the "
        f"{STORE_ENV_VAR} environment variable, if set); previously computed "
        "records are served from the store instead of re-executed",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help=f"ignore --store and {STORE_ENV_VAR}; run without a result store",
    )


def _store_or_die(args) -> Optional[ResultStore]:
    """Resolve the CLI store flags, mapping defects to one-line exits."""
    try:
        return resolve_store(path=args.store, no_store=args.no_store)
    except StoreError as exc:
        raise SystemExit(f"cannot open result store: {exc}") from None


def _load_or_die(path: str, loader, noun: str):
    """Read a spec/experiment file, mapping every defect to a one-line exit.

    A typo'd path, malformed JSON, or an invalid payload (unknown field,
    bad ``faults`` model, unregistered engine) must produce a clear
    single-line error and a nonzero exit — never a traceback.
    """
    try:
        return loader(path)
    except OSError as exc:
        raise SystemExit(f"cannot read {noun} file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"malformed JSON in {noun} file {path!r}: {exc}") from None
    except SpecError as exc:
        raise SystemExit(f"invalid {noun} in {path!r}: {exc}") from None


def _load_specs_or_die(path: str) -> List[RunSpec]:
    """:func:`_load_or_die` for spec files, with every registry name checked.

    A typo'd graph, protocol, scheduler or graph transform would otherwise
    surface as an ``UnknownNameError`` traceback mid-run; here it is a
    one-line exit, before anything executes, listing the registered names.
    """
    specs = _load_or_die(path, load_specs, "spec")
    try:
        check_registered_names(specs)
    except UnknownNameError as exc:
        raise SystemExit(f"invalid spec in {path!r}: {exc}") from None
    return specs


def _legacy_id(name: str) -> str:
    """Registry name → the historical experiment id (``"e01"`` → ``"E1"``)."""
    match = re.fullmatch(r"e(\d+)", name)
    return f"E{int(match.group(1))}" if match else name


def _request_or_die(payload: Dict) -> CampaignRequest:
    """:meth:`CampaignRequest.parse`, mapping a defect to a one-line exit."""
    try:
        return CampaignRequest.parse(payload)
    except SpecError as exc:
        raise SystemExit(str(exc)) from None


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction experiments for 'Distributed Broadcasting and "
            "Mapping Protocols in Directed Anonymous Networks' (PODC 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiments and what they reproduce")

    run = sub.add_parser(
        "run", help="run experiments (or one spec file) and print results"
    )
    run.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (E1..E19, e01..e19) or 'all'",
    )
    run.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="execute the RunSpec in this JSON file instead of an experiment",
    )
    run.add_argument(
        "--out",
        default=None,
        help="also append the output to this file",
    )
    run.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help="override the execution engine of the --spec run",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="POLICY",
        help="record a durable .rtrace of the --spec run: 'full' or "
        "'sample:k' (overrides the spec's own trace field)",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="where to write the .rtrace (default: the spec file name with "
        "an .rtrace extension)",
    )
    _add_store_flags(run)

    batch = sub.add_parser(
        "batch", help="execute a JSON file of RunSpecs in parallel, with resume"
    )
    batch.add_argument("specs", help="JSON list (or JSONL) of RunSpec objects")
    batch.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help="JSONL output; if it already holds records, matching specs are "
        "reused instead of re-executed",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: cpu count)",
    )
    batch.add_argument(
        "--serial",
        action="store_true",
        help="run in-process instead of a process pool",
    )
    batch.add_argument(
        "--no-resume",
        action="store_true",
        help="re-execute every spec even if the output file has its record",
    )
    batch.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help="override the execution engine for every spec in the file",
    )
    _add_store_flags(batch)

    experiment = sub.add_parser(
        "experiment",
        help="run registered experiment campaigns (ExperimentSpec grids) with resume",
    )
    experiment.add_argument(
        "names",
        nargs="*",
        help="experiment names (e01..e19, E1..E19) or 'all'",
    )
    experiment.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="run the ExperimentSpec in this JSON file instead of registered ones",
    )
    experiment.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help="override the execution engine for every expanded run "
        "(ignored by engine-locked campaigns such as e13)",
    )
    experiment.add_argument(
        "--scale",
        default=None,
        metavar="NAME",
        help="named axis override from the campaign's scales (e.g. 'quick')",
    )
    experiment.add_argument(
        "--trace",
        default=None,
        metavar="POLICY",
        help="record every expanded run: 'full' or 'sample:k'; with "
        "--store the .rtrace artifacts land under <store>/traces/",
    )
    experiment.add_argument(
        "--quick", action="store_true", help="shorthand for --scale quick"
    )
    experiment.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory: per experiment a <name>.runs.jsonl resume "
        "file and a <name>.rows.json table",
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: cpu count)",
    )
    experiment.add_argument(
        "--serial",
        action="store_true",
        help="run in-process instead of a process pool",
    )
    experiment.add_argument(
        "--no-resume",
        action="store_true",
        help="re-execute every run even if the artifact dir has its record",
    )
    _add_store_flags(experiment)

    store = sub.add_parser(
        "store",
        help="inspect and maintain a content-addressed result store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="store statistics: record and row counts, bytes, engines"
    )
    store_ls = store_sub.add_parser(
        "ls", help="list stored records for a spec_id (hex prefix match)"
    )
    store_ls.add_argument(
        "spec_id",
        nargs="?",
        default="",
        help="spec_id or hex prefix (empty lists everything, newest first)",
    )
    store_ls.add_argument(
        "--limit",
        type=int,
        default=50,
        help="maximum rows to print (default: 50)",
    )
    store_verify = store_sub.add_parser(
        "verify", help="re-hash every stored record and cached row, report corruption"
    )
    store_gc = store_sub.add_parser(
        "gc", help="expire old entries, delete corrupt ones, vacuum the file"
    )
    store_gc.add_argument(
        "--keep-days",
        type=float,
        default=None,
        metavar="N",
        help="drop records and cached rows older than N days, N >= 0 "
        "(default: expire nothing)",
    )
    for store_cmd in (store_stats, store_ls, store_verify, store_gc):
        _add_store_flags(store_cmd)

    serve = sub.add_parser(
        "serve",
        help="HTTP experiment service: POST campaigns, poll status, fetch results",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (default: 8642; 0 picks a free port)",
    )
    serve.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory; each job writes under <DIR>/<job-id>/",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per job (default: cpu count)",
    )
    serve.add_argument(
        "--serial",
        action="store_true",
        help="execute each job's runs in-process instead of a process pool",
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="concurrent jobs (default: 1)",
    )
    _add_store_flags(serve)

    sub.add_parser(
        "registry",
        help="list the registered protocol, graph, transform, scheduler, "
        "engine, aggregator and experiment names",
    )

    trace = sub.add_parser(
        "trace",
        help="record, inspect, profile and deterministically replay "
        ".rtrace execution traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", help="execute a RunSpec file and write its .rtrace"
    )
    trace_record.add_argument("spec", help="RunSpec JSON file to execute")
    trace_record.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help=".rtrace output (default: the spec file name with an .rtrace "
        "extension)",
    )
    trace_record.add_argument(
        "--trace",
        default="full",
        metavar="POLICY",
        help="capture policy: 'full' (default) or 'sample:k'",
    )
    trace_record.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help="override the spec's execution engine",
    )
    trace_info = trace_sub.add_parser(
        "info", help="print a trace's header and footer as JSON"
    )
    trace_info.add_argument("trace", help=".rtrace file")
    trace_profile = trace_sub.add_parser(
        "profile",
        help="histogram profile (message sizes, per-edge/-vertex load, "
        "deferral depth) of one or more traces",
    )
    trace_profile.add_argument("traces", nargs="+", help=".rtrace file(s)")
    trace_replay = trace_sub.add_parser(
        "replay",
        help="re-execute a recording and verify it bit for bit "
        "(exit 0 iff the execution reproduces)",
    )
    trace_replay.add_argument("trace", help=".rtrace file")
    trace_replay.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="cross-check the trace against this RunSpec file's workload "
        "before replaying",
    )

    schedule = sub.add_parser(
        "schedule",
        help="guided worst-case schedule search and replayable certificates",
    )
    schedule_sub = schedule.add_subparsers(dest="schedule_command", required=True)
    schedule_search = schedule_sub.add_parser(
        "search",
        help="search a RunSpec's schedule space for the objective's worst "
        "execution and emit a replayable certificate",
    )
    schedule_search.add_argument("spec", help="RunSpec JSON file (the workload)")
    schedule_search.add_argument(
        "--objective",
        default="max-steps",
        metavar="NAME",
        help="search objective (default: max-steps; see `repro schedule "
        "search --list-objectives`)",
    )
    schedule_search.add_argument(
        "--list-objectives",
        action="store_true",
        help="list the registered objectives and exit",
    )
    schedule_search.add_argument(
        "--max-nodes",
        type=int,
        default=200_000,
        metavar="N",
        help="search node budget (default: 200000)",
    )
    schedule_search.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help="write the certificate JSON here (default: stdout summary only, "
        "or under <store>/schedules/ when a store is given)",
    )
    _add_store_flags(schedule_search)
    schedule_info = schedule_sub.add_parser(
        "info", help="print a certificate's claims and search provenance"
    )
    schedule_info.add_argument("certificate", help="certificate JSON file")
    schedule_replay = schedule_sub.add_parser(
        "replay",
        help="independently re-execute a certificate and verify every claim "
        "bit for bit (exit 0 iff it checks out)",
    )
    schedule_replay.add_argument("certificate", help="certificate JSON file")

    bench = sub.add_parser(
        "bench",
        help="measure engine throughput (steps/sec) and write BENCH_engines.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small size sweep with fewer repeats (the CI configuration)",
    )
    bench.add_argument(
        "--out",
        default="BENCH_engines.json",
        metavar="FILE",
        help="JSON output path (default: BENCH_engines.json)",
    )
    bench.add_argument(
        "--floors",
        default=None,
        metavar="FILE",
        help="floors JSON (benchmarks/floors.json); exit non-zero on violation",
    )

    report = sub.add_parser(
        "report", help="run all experiments and write a markdown report"
    )
    report.add_argument(
        "--out",
        default="experiment_report.md",
        help="markdown file to write (default: experiment_report.md)",
    )
    return parser


def _emit(text: str, stream: IO[str], extra: Optional[IO[str]]) -> None:
    print(text, file=stream)
    if extra is not None:
        print(text, file=extra)


def _record_summary(record: RunRecord) -> str:
    spec = record.spec
    tag = spec.label or f"{spec.protocol} on {spec.graph}"
    metrics = record.metrics
    return (
        f"{tag}: {record.outcome}  V={record.num_vertices} E={record.num_edges}  "
        f"messages={metrics.get('total_messages')} total_bits={metrics.get('total_bits')}"
    )


def _override_engine(specs, engine: Optional[str]):
    """Re-target loaded specs at ``engine`` (``--engine`` flag), or die.

    Engine capability mismatches (an unregistered name, a fault model on
    an engine whose :class:`~repro.api.engines.EngineInfo` lacks
    ``supports_faults``) surface here as the usual one-line errors.
    """
    if engine is None:
        return specs
    ensure_registered()
    if engine not in ENGINES:
        raise SystemExit(
            f"unknown engine {engine!r}; registered: {', '.join(ENGINES.names())}"
        )
    import dataclasses

    try:
        return [dataclasses.replace(spec, engine=engine) for spec in specs]
    except SpecError as exc:
        raise SystemExit(f"cannot apply --engine {engine}: {exc}") from None


def _apply_trace_policy(specs, trace: Optional[str]):
    """Re-target loaded specs at a ``--trace`` capture policy, or die."""
    if trace is None:
        return specs
    import dataclasses

    try:
        return [dataclasses.replace(spec, trace=trace) for spec in specs]
    except SpecError as exc:
        raise SystemExit(f"cannot apply --trace {trace}: {exc}") from None


def _cmd_run_spec(
    path: str,
    stream: IO[str],
    extra: Optional[IO[str]],
    store: Optional[ResultStore] = None,
    engine: Optional[str] = None,
    trace: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> int:
    specs = _override_engine(_load_specs_or_die(path), engine)
    if len(specs) != 1:
        raise SystemExit(
            f"--spec expects exactly one RunSpec in {path!r}, found {len(specs)}; "
            "use 'repro batch' for many"
        )
    specs = _apply_trace_policy(specs, trace)
    spec = specs[0]
    traced = spec.trace is not None
    recording = contextlib.nullcontext()
    if traced:
        from .tracing import capture_traces

        destination = trace_out or os.path.splitext(path)[0] + ".rtrace"
        recording = capture_traces(file=destination)
    runner = BatchRunner(parallel=False, store=store)
    try:
        with recording:
            # Recording is the point of a traced run: never serve it from
            # the store (a cache hit would produce no artifact).
            (record,) = runner.run(specs, resume=not traced)
    except SpecError as exc:
        # defects only detectable at build time (fault vertex out of range,
        # unregistered adversary) get the same one-line treatment
        raise SystemExit(f"cannot execute spec in {path!r}: {exc}") from None
    if runner.stats.store_write_errors:
        _emit("(record not stored: the result store refused the write)", stream, extra)
    served = "(served from store) " if runner.stats.store_hits else ""
    _emit(served + _record_summary(record), stream, extra)
    if traced:
        metrics = record.metrics
        _emit(
            f"trace written to {destination} "
            f"(policy={spec.trace}, events={metrics.get('trace_events')}, "
            f"sampled={metrics.get('trace_sampled')}, "
            f"bytes={metrics.get('trace_bytes')})",
            stream,
            extra,
        )
    _emit(json.dumps(record.to_dict(), sort_keys=True, indent=2), stream, extra)
    return 0


def _store_traces(store: Optional[ResultStore]):
    """Route traced runs' ``.rtrace`` artifacts beside the result store.

    Keyed (spec_id, seed, engine) under ``<store>/traces``; untraced runs
    are unaffected, and without a store this is a no-op.
    """
    if store is None:
        return contextlib.nullcontext()
    from .tracing import capture_traces

    return capture_traces(directory=os.path.join(store.root, "traces"))


def _cmd_batch(args, stream: IO[str]) -> int:
    specs = _override_engine(_load_specs_or_die(args.specs), args.engine)
    if not specs:
        raise SystemExit(f"no specs found in {args.specs!r}")
    store = _store_or_die(args)
    runner = BatchRunner(max_workers=args.workers, parallel=not args.serial, store=store)

    def progress(done: int, total: int, record: RunRecord) -> None:
        print(f"[{done}/{total}] {_record_summary(record)}", file=stream)

    start = time.time()
    try:
        with _store_traces(store):
            records = runner.run(
                specs,
                output_path=args.out,
                resume=not args.no_resume,
                progress=progress,
            )
    except SpecError as exc:
        raise SystemExit(f"cannot execute batch {args.specs!r}: {exc}") from None
    elapsed = time.time() - start
    stats = runner.stats
    terminated = sum(1 for r in records if r.terminated)
    print(
        f"{stats.total} specs: {stats.executed} executed, {stats.reused} reused "
        f"({terminated} terminated) in {elapsed:.1f}s"
        + (f" -> {args.out}" if args.out else ""),
        file=stream,
    )
    # Stable machine-readable summary for CI and scripting: one line, fixed
    # prefix, JSON payload with sorted keys.  The prose line above may be
    # reworded freely; this one is an interface.
    summary = {
        **stats.counters(),
        "terminated": terminated,
        "store": store.root if store is not None else None,
        "store_hit_rate": (
            round(stats.store_hits / stats.total, 4)
            if store is not None and stats.total
            else None
        ),
        "elapsed_seconds": round(elapsed, 3),
        "output": args.out,
    }
    print("BATCH_SUMMARY " + json.dumps(summary, sort_keys=True), file=stream)
    return 0


def _cmd_bench(args, stream: IO[str]) -> int:
    from .analysis.benchmark import (
        BENCH_SUITES,
        bench_environment,
        check_floors,
        load_floors,
        render_bench_table,
        write_benchmarks,
    )

    payload = {"environment": bench_environment()}
    for name, measure in BENCH_SUITES.items():
        print(f"benchmarking {name} ...", file=stream, flush=True)
        payload[name] = measure(args.quick)
        print(render_bench_table({name: payload[name]}) + "\n", file=stream)
    write_benchmarks(payload, args.out)
    print(f"benchmarks written to {args.out}", file=stream)

    if args.floors is not None:
        violations = check_floors(payload, load_floors(args.floors))
        if violations:
            for violation in violations:
                print(f"FLOOR VIOLATION: {violation}", file=stream)
            return 1
        print(f"all floors in {args.floors} hold", file=stream)
    return 0


def _cmd_registry(stream: IO[str]) -> int:
    ensure_registered()
    for kind, registry in all_registries().items():
        print(f"{kind}:", file=stream)
        for name in registry.names():
            entry = registry.get(name)
            caps = getattr(entry, "capabilities", None)
            if callable(caps):
                # Engines are EngineInfo capability contracts; print what
                # each one actually supports next to its name.
                print(f"  {name}  [{', '.join(caps())}]", file=stream)
            else:
                print(f"  {name}", file=stream)
    return 0


def _run_tables(names: Sequence[str]) -> Iterator[Tuple[str, str, List[Dict], float]]:
    """Run registered experiments for ``run``/``report``.

    ``names`` are resolved like ``repro experiment``'s.  Serial, at the
    default (full) scale and without a store.  Yields ``(legacy id,
    title, rows, seconds)`` per experiment, in order.
    """
    request = _request_or_die({"experiments": list(names)})
    runner = CampaignRunner(parallel=False)
    for experiment in request.experiments:
        start = time.time()
        rows = runner.run(experiment).rows
        name = _legacy_id(experiment.name)
        yield name, experiment.title or experiment.name, rows, time.time() - start


def _cmd_experiment(args, stream: IO[str]) -> int:
    payload = {
        "experiments": args.names or None,
        "scale": args.scale,
        "quick": args.quick,
        "engine": args.engine,
    }
    if args.spec is not None:
        payload["spec"] = _load_or_die(args.spec, _read_json, "experiment")
        if payload["spec"] is None:
            # The request parser reads a null field as absent, not as a spec.
            raise SystemExit("invalid experiment spec: experiment payload must be a dict, got null")
    request = _request_or_die(payload)

    def progress(done: int, total: int, record: RunRecord) -> None:
        print(f"[{done}/{total}] {_record_summary(record)}", file=stream)

    if args.trace is not None:
        from .tracing import TracePolicyError, normalize_policy

        try:
            args.trace = normalize_policy(args.trace)
        except TracePolicyError as exc:
            raise SystemExit(f"cannot apply --trace {args.trace}: {exc}") from None

    store = _store_or_die(args)
    runner = CampaignRunner(
        engine=request.engine,
        scale=request.scale,
        trace=args.trace,
        out_dir=args.out,
        resume=not args.no_resume,
        parallel=not args.serial,
        max_workers=args.workers,
        progress=progress,
        store=store,
    )

    start = time.time()
    results = []
    # Same convention as `repro batch`: campaign runs that carry a trace
    # policy write their .rtrace beside the result store.
    with _store_traces(store):
        for experiment in request.experiments:
            exp_start = time.time()
            try:
                result = runner.run(experiment)
            except SpecError as exc:
                # e.g. an engine override a campaign's fault model rejects:
                # surface it as a one-line error, not a mid-campaign traceback.
                raise SystemExit(f"experiment {experiment.name!r}: {exc}") from None
            results.append(result)
            title = (
                f"== {experiment.name} — {experiment.title or 'experiment'} "
                f"({time.time() - exp_start:.1f}s) =="
            )
            print(render_table(result.rows, title=title), file=stream)
            print(file=stream)

    # Stable machine-readable summary for CI and scripting: one line, fixed
    # prefix, JSON payload with sorted keys (the campaign twin of
    # BATCH_SUMMARY).  The tables above may be reworded freely; this line
    # is an interface.
    summary = campaign_summary(runner, results, time.time() - start)
    print("EXPERIMENT_SUMMARY " + json.dumps(summary, sort_keys=True), file=stream)
    return 0


def _open_trace_or_die(path: str):
    """Open an ``.rtrace`` file, mapping every defect to a one-line exit.

    A missing file, a non-trace file (bad magic), a future format version
    or a truncated/garbled frame stream must all print one clear line and
    exit non-zero — never a traceback.
    """
    from .tracing import TraceFormatError, TraceReader

    try:
        return TraceReader(path)
    except OSError as exc:
        raise SystemExit(f"cannot read trace file {path!r}: {exc}") from None
    except TraceFormatError as exc:
        raise SystemExit(f"invalid trace file {path!r}: {exc}") from None


def _cmd_trace(args, stream: IO[str]) -> int:
    from .tracing import ReplayError, TraceProfiler, replay_trace

    if args.trace_command == "record":
        return _cmd_run_spec(
            args.spec,
            stream,
            None,
            store=None,
            engine=args.engine,
            trace=args.trace,
            trace_out=args.out,
        )

    if args.trace_command == "info":
        reader = _open_trace_or_die(args.trace)
        try:
            info = {
                "header": reader.header,
                "footer": reader.footer,
                "num_events": reader.num_events,
                "distinct_payloads": len(reader.payloads),
            }
        finally:
            reader.close()
        print(json.dumps(info, sort_keys=True, indent=2), file=stream)
        return 0

    if args.trace_command == "profile":
        for path in args.traces:
            reader = _open_trace_or_die(path)
            try:
                profile = TraceProfiler.from_reader(reader).profile()
            finally:
                reader.close()
            print(f"== {path} ==", file=stream)
            print(json.dumps(profile.to_dict(), sort_keys=True, indent=2), file=stream)
        return 0

    # trace_command == "replay"
    reader = _open_trace_or_die(args.trace)
    try:
        if args.spec is not None:
            specs = _load_specs_or_die(args.spec)
            if len(specs) != 1:
                raise SystemExit(
                    f"--spec expects exactly one RunSpec in {args.spec!r}, "
                    f"found {len(specs)}"
                )
            spec = specs[0]
        else:
            spec = reader.spec()
        try:
            report = replay_trace(spec, reader)
        except ReplayError as exc:
            raise SystemExit(f"cannot replay {args.trace!r}: {exc}") from None
    finally:
        reader.close()
    print(report.summary(), file=stream)
    return 0 if report.ok else 1


def _cmd_schedule(args, stream: IO[str]) -> int:
    from .lowerbounds.certificates import (
        CertificateError,
        load_certificate,
        search_and_certify,
        store_certificate,
        verify_certificate,
    )
    from .lowerbounds.guided import OBJECTIVES, get_objective

    if args.schedule_command == "search":
        if args.list_objectives:
            for name in sorted(OBJECTIVES):
                print(f"{name:20s} {OBJECTIVES[name].description}", file=stream)
            return 0
        try:
            get_objective(args.objective)
        except KeyError:
            raise SystemExit(
                f"unknown objective {args.objective!r}; registered: "
                f"{', '.join(sorted(OBJECTIVES))}"
            ) from None
        specs = _load_specs_or_die(args.spec)
        if len(specs) != 1:
            raise SystemExit(
                f"schedule search expects exactly one RunSpec in {args.spec!r}, "
                f"found {len(specs)}"
            )
        result, certificate = search_and_certify(
            specs[0],
            objective=args.objective,
            max_nodes=args.max_nodes,
        )
        print(result.summary(), file=stream)
        if certificate is None:
            print(
                "no complete execution found within the node budget — "
                "nothing to certify (raise --max-nodes)",
                file=stream,
            )
            return 1
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(certificate.to_json() + "\n")
            print(f"certificate written to {args.out}", file=stream)
        store = _store_or_die(args)
        if store is not None:
            path = store_certificate(store, certificate)
            print(f"certificate stored at {path}", file=stream)
        if args.out is None and store is None:
            print(
                f"certificate {certificate.cert_id} not persisted "
                "(give -o FILE or --store DIR)",
                file=stream,
            )
        return 0

    try:
        certificate = load_certificate(args.certificate)
    except CertificateError as exc:
        raise SystemExit(str(exc)) from None

    if args.schedule_command == "info":
        info = certificate.to_dict()
        # The script can run to thousands of deliveries; info summarises it.
        info["deliveries"] = len(certificate.deliveries)
        info["cert_id"] = certificate.cert_id
        print(json.dumps(info, sort_keys=True, indent=2), file=stream)
        return 0

    # schedule_command == "replay"
    report = verify_certificate(certificate)
    print(report.summary(), file=stream)
    return 0 if report.ok else 1


def _cmd_store(args, stream: IO[str]) -> int:
    if args.store_command == "ls" and args.limit < 0:
        raise SystemExit(f"store ls: --limit must be >= 0, got {args.limit}")
    store = _store_or_die(args)
    if store is None:
        raise SystemExit(
            f"no result store: give --store DIR or set {STORE_ENV_VAR} "
            "(--no-store makes no sense here)"
        )
    try:
        if args.store_command == "stats":
            print(json.dumps(store.stats().to_dict(), indent=2, sort_keys=True), file=stream)
        elif args.store_command == "ls":
            rows = store.ls(args.spec_id)
            for row in rows[: args.limit]:
                print(json.dumps(row, sort_keys=True), file=stream)
            if len(rows) > args.limit:
                print(f"... {len(rows) - args.limit} more (raise --limit)", file=stream)
            print(f"{len(rows)} record(s) match {args.spec_id!r}", file=stream)
        elif args.store_command == "verify":
            report = store.verify()
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=stream)
            if not report.clean:
                print("STORE VERIFY: corruption detected", file=stream)
                return 1
            print(
                f"store at {store.root} is clean "
                f"({report.records_checked} records)",
                file=stream,
            )
        else:  # gc
            report = store.gc(keep_days=args.keep_days)
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=stream)
            reclaimed = report.bytes_before - report.bytes_after
            print(
                f"gc: removed {report.removed_records} record(s), kept "
                f"{report.kept_records}, reclaimed {reclaimed} bytes",
                file=stream,
            )
    except StoreError as exc:
        raise SystemExit(f"store {args.store_command} failed: {exc}") from None
    return 0


def _cmd_serve(args, stream: IO[str]) -> int:
    from .service import ExperimentService, make_server, serve_forever

    ensure_registered()
    store = _store_or_die(args)
    service = ExperimentService(
        store=store,
        out_dir=args.out,
        parallel=not args.serial,
        max_workers=args.workers,
        job_workers=args.job_workers,
    )
    try:
        server = make_server(args.host, args.port, service)
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}") from None
    print(
        f"serving experiments on http://{server.server_address[0]}:"
        f"{server.server_address[1]} "
        + (f"(store: {store.root})" if store is not None else "(no store)"),
        file=stream,
    )
    try:
        serve_forever(server)
    except KeyboardInterrupt:
        print("shutting down", file=stream)
    finally:
        service.close()
    return 0


def main(argv: Optional[Sequence[str]] = None, stream: IO[str] = sys.stdout) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        # Derived from the EXPERIMENTS registry: registering an experiment
        # is what puts it in this listing, so the two can never drift.
        ensure_registered()
        for name in EXPERIMENTS.names():
            experiment = EXPERIMENTS.get(name)
            title = getattr(experiment, "title", "") or ""
            print(f"{_legacy_id(name):4s} {title}  [{name}]", file=stream)
        return 0

    if args.command == "registry":
        return _cmd_registry(stream)

    if args.command == "experiment":
        return _cmd_experiment(args, stream)

    if args.command == "batch":
        return _cmd_batch(args, stream)

    if args.command == "store":
        return _cmd_store(args, stream)

    if args.command == "serve":
        return _cmd_serve(args, stream)

    if args.command == "trace":
        return _cmd_trace(args, stream)

    if args.command == "schedule":
        return _cmd_schedule(args, stream)

    if args.command == "bench":
        return _cmd_bench(args, stream)

    if args.command == "report":
        lines: List[str] = [
            "# Experiment report",
            "",
            "Generated by `python -m repro report`; one section per experiment",
            "(see the Campaigns section of README.md for what each one reproduces).",
            "",
        ]
        for name, title, rows, elapsed in _run_tables(["all"]):
            lines.append(f"## {name} — {title.strip()}")
            lines.append("")
            lines.append("```")
            lines.append(render_table(rows))
            lines.append("```")
            lines.append(f"_{len(rows)} rows, {elapsed:.1f}s_")
            lines.append("")
            print(f"{name} done ({elapsed:.1f}s)", file=stream)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        print(f"report written to {args.out}", file=stream)
        return 0

    # command == "run"
    if args.spec is not None and args.experiments:
        raise SystemExit("give either experiment ids or --spec, not both")
    extra: Optional[IO[str]] = None
    if args.out is not None:
        extra = open(args.out, "a", encoding="utf-8")
    try:
        if args.spec is not None:
            return _cmd_run_spec(
                args.spec,
                stream,
                extra,
                store=_store_or_die(args),
                engine=args.engine,
                trace=args.trace,
                trace_out=args.trace_out,
            )
        if args.engine is not None:
            raise SystemExit(
                "--engine applies to --spec runs; for registered campaigns "
                "use 'repro experiment --engine'"
            )
        if args.trace is not None or args.trace_out is not None:
            raise SystemExit(
                "--trace applies to --spec runs; use 'repro trace record' "
                "for a spec file"
            )
        if not args.experiments:
            raise SystemExit("nothing to run: give experiment ids or --spec FILE")
        for name, title, rows, elapsed in _run_tables(args.experiments):
            header = f"== {name} — {title} ({elapsed:.1f}s) =="
            _emit(render_table(rows, title=header), stream, extra)
            _emit("", stream, extra)
    finally:
        if extra is not None:
            extra.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
