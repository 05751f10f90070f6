"""Command-line interface: ``domino-repro``.

Subcommands::

    domino-repro list                     # workloads, prefetchers, experiments
    domino-repro run fig11 [--quick] [--workloads oltp,web_apache] [--n 200000]
    domino-repro run all [--quick] [--jobs 4] [--no-cache]
    domino-repro run fig11 --trace-events t.jsonl [--profile] [--log-level debug]
    domino-repro run all --run-id nightly [--retries 3] [--timeout-s 600]
    domino-repro run all --resume nightly # continue a killed run
    domino-repro compare --workload oltp [--degree 4] [--n 200000]
    domino-repro trace --workload oltp --n 100000 --out oltp.npz
    domino-repro cache stats|clear|gc     # artifact-store maintenance
    domino-repro obs summary t.jsonl      # render a run's telemetry
    domino-repro serve --socket /tmp/d.sock --slots 2   # experiment server
    domino-repro loadgen unix:/tmp/d.sock --tenants 4   # drive + measure it

``run`` goes through the cell runner (see docs/RUNNER.md): ``--jobs N``
fans independent simulation cells across a worker pool and the
content-addressed cache under ``.domino-cache/`` makes repeated and
overlapping runs incremental.  ``--no-cache`` forces re-execution;
``--cache-dir`` (or ``DOMINO_CACHE_DIR``) relocates the store.

Runs are fault tolerant (see docs/ROBUSTNESS.md): a crashed or hung
cell is retried ``--retries`` times with exponential backoff, bounded
by ``--timeout-s``; cells that exhaust the budget are reported as
failed, the surviving cells still render, and the process exits with
code 3 (``EXIT_PARTIAL``) instead of aborting.  ``--run-id NAME``
journals completed cells so ``--resume NAME`` restarts a killed run
where it left off, bit-identically.  The hidden ``--inject-faults``
flag drives the deterministic chaos harness in :mod:`repro.faults`.

``serve`` turns the evaluator into a long-running multi-tenant server
(see docs/SERVING.md): clients submit job specs over a Unix or TCP
socket, a fair-queueing scheduler multiplexes tenants onto worker
slots, and admission control sheds load with retry-after hints when
saturated.  ``loadgen`` is the matching measurement harness: seeded
Poisson-arrival clients plus a BENCH-style JSON report (throughput,
latency percentiles, shed rate, Jain fairness index).

``--trace-events PATH`` turns on the telemetry layer (see
docs/OBSERVABILITY.md): engine, EIT, and scheduler events are collected
— in worker processes too — and written to ``PATH`` as JSONL, together
with a final metrics snapshot.  ``--profile`` adds a per-cell cProfile
pass; ``obs summary`` renders either artifact.  Telemetry never changes
simulation results — only observes them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .config import SystemConfig
from .obs import names as obs_names
from .experiments import ExperimentOptions, experiment_ids, run_experiment
from .prefetchers.registry import PAPER_PREFETCHERS, make_prefetcher, prefetcher_names
from .sim.engine import simulate_trace
from .sim.trace import save_trace
from .workloads import default_suite, get_workload, workload_names
from .workloads.synthetic import generate_trace


#: Exit codes: 0 = success, 1 = unexpected error, 2 = usage/config
#: error, 3 = run completed but some cells failed (partial results).
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _options_from_args(args: argparse.Namespace) -> ExperimentOptions:
    options = ExperimentOptions.quick() if args.quick else ExperimentOptions()
    overrides = {}
    if args.n:
        overrides["n_accesses"] = args.n
    if args.workloads:
        overrides["workloads"] = tuple(args.workloads.split(","))
    if args.seed is not None:
        overrides["seed"] = args.seed
    return options.scaled(**overrides) if overrides else options


def _cmd_list(args: argparse.Namespace) -> int:
    print("workloads:   " + ", ".join(workload_names()))
    print("prefetchers: " + ", ".join(prefetcher_names()))
    print("experiments: " + ", ".join(experiment_ids()))
    return 0


def _configure_obs(args: argparse.Namespace) -> bool:
    """Turn telemetry on when a run asks for it; True if enabled."""
    from . import obs

    if not (args.trace_events or args.profile):
        return False
    obs.configure(level=obs.parse_level(args.log_level),
                  sample_every=args.trace_sample,
                  ring=args.trace_ring,
                  profile=args.profile)
    return True


def _write_trace(path: str) -> None:
    """Serialise the collected telemetry (events + spans + snapshot) to
    JSONL.  Reads the base state explicitly: a capture still open on
    some other context must not leak into the run's trace file."""
    from . import obs

    st = obs.base_state()
    if st is None:  # pragma: no cover - guarded by caller
        return
    records = st.trace.events()
    spans = st.spans.spans()
    records.extend(spans)
    records.append({"level": "info", "component": "obs",
                    "event": obs_names.EVT_TRACE_INFO,
                    "events": len(records), "dropped": st.trace.dropped,
                    "sampled_out": st.trace.sampled_out,
                    "spans": len(spans), "spans_dropped": st.spans.dropped})
    records.append({"level": "info", "component": "obs",
                    "event": obs_names.EVT_METRICS_SNAPSHOT,
                    "metrics": st.registry.snapshot()})
    n = obs.write_jsonl(path, records)
    print(f"[obs] wrote {n} events to {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    from . import obs
    from .errors import CheckpointError, ConfigError
    from .faults import parse_fault_spec
    from .obs.trace import span
    from .runner import ExecutionPolicy, set_policy
    from .stats.reporting import bar_chart, render_manifest, to_csv, to_markdown

    if args.resume and args.run_id:
        print("error: --resume already names the run; drop --run-id",
              file=sys.stderr)
        return EXIT_USAGE
    run_id = args.resume or args.run_id
    if run_id and args.no_cache:
        print("error: --run-id/--resume need the artifact cache "
              "(remove --no-cache)", file=sys.stderr)
        return EXIT_USAGE
    try:
        faults = (parse_fault_spec(args.inject_faults)
                  if args.inject_faults else None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    set_policy(ExecutionPolicy(jobs=args.jobs,
                               use_cache=not args.no_cache,
                               cache_dir=args.cache_dir,
                               retries=args.retries,
                               timeout_s=args.timeout_s,
                               keep_going=True,
                               run_id=run_id,
                               resume=bool(args.resume),
                               faults=faults))
    tracing = _configure_obs(args)
    run_scope = obs.scope("cli.run")
    options = _options_from_args(args)
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    failed_cells = 0
    try:
        for experiment_id in ids:
            start = time.time()
            run_scope.info(obs_names.EVT_EXPERIMENT_START, experiment=experiment_id)
            with span(obs_names.SPAN_EXPERIMENT, experiment=experiment_id), \
                    obs.timed(f"experiment.{experiment_id}", emit=False):
                result = run_experiment(experiment_id, options)
            if args.format == "md":
                print(to_markdown(result.headers, result.rows, title=result.title))
            elif args.format == "csv":
                print(to_csv(result.headers, result.rows), end="")
            else:
                print(result.render())
            if args.chart:
                try:
                    values = [float(v) for v in result.column(args.chart)]
                except (ValueError, TypeError):
                    print(f"(column {args.chart!r} is not numeric; no chart)")
                else:
                    labels = [str(row[0]) for row in result.rows]
                    print(bar_chart(labels, values, title=f"{args.chart}:"))
            if result.manifest is not None:
                failed_cells += result.manifest.failed
                print(render_manifest(result.manifest))
                run_scope.info(obs_names.EVT_MANIFEST, experiment=experiment_id,
                               manifest=result.manifest.to_dict())
            run_scope.info(obs_names.EVT_EXPERIMENT_END, experiment=experiment_id,
                           wall_s=round(time.time() - start, 3))
            print(f"({time.time() - start:.1f}s)\n")
        if tracing:
            if args.profile:
                from .obs.summary import profile_rows

                st = obs.state()
                ranked = profile_rows(st.trace.events() if st else [], top=5)
                for func, cum_s, ncalls in ranked:
                    print(f"[profile] {cum_s:8.3f}s {ncalls:>10} {func}")
            if args.trace_events:
                _write_trace(args.trace_events)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        obs.disable()
    if failed_cells:
        print(f"warning: {failed_cells} cell(s) failed after retries; "
              "results above are partial (exit code 3)", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    options = _options_from_args(args)
    config = SystemConfig()
    suite = default_suite(seed=options.seed)
    trace = suite.trace(args.workload, options.n_accesses)
    print(f"workload {args.workload}: {len(trace)} accesses, "
          f"{trace.footprint_blocks} distinct blocks")
    for name in PAPER_PREFETCHERS:
        prefetcher = make_prefetcher(name, config, degree=args.degree)
        result = simulate_trace(trace, config, prefetcher,
                                warmup=options.warmup)
        print(f"  {result.summary()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    config = get_workload(args.workload)
    seed = args.seed if args.seed is not None else 1234
    trace = generate_trace(config, args.n, seed=seed)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} accesses to {args.out}")
    return 0


def _read_trace_or_fail(path: str) -> list[dict] | None:
    from .obs import read_jsonl

    try:
        events = read_jsonl(path)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if not events:
        print(f"error: {path} is empty (no events)", file=sys.stderr)
        return None
    return events


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .obs import render_summary
    from .obs.summary import summary_json

    events = _read_trace_or_fail(args.trace)
    if events is None:
        return 1
    if args.obs_command == "spans":
        return _cmd_obs_spans(args, events)
    if args.format == "json":
        print(json.dumps(summary_json(events, top=args.top),
                         indent=2, sort_keys=True))
    else:
        print(render_summary(events, top=args.top))
    return 0


def _cmd_obs_spans(args: argparse.Namespace, events: list[dict]) -> int:
    import json

    from .obs.trace import (chrome_trace, critical_path, read_spans,
                            render_span_tree, validate_forest)

    spans = read_spans(events)
    if not spans:
        print(f"error: {args.trace} carries no span records "
              "(was the run traced with this repo version?)", file=sys.stderr)
        return 1
    problems = validate_forest(spans)
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(spans), fh, indent=1)
        print(f"[obs] wrote {len(spans)} spans to {args.chrome_trace} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    elif args.critical_path:
        for chain in critical_path(spans)[:args.top]:
            root = chain[0]
            total = (float(root.get("end_s", 0.0))
                     - float(root.get("start_s", 0.0)))
            print(f"trace {root.get('trace')}  {total * 1e3:.3f} ms")
            for record in chain:
                dur = (float(record.get("end_s", 0.0))
                       - float(record.get("start_s", 0.0)))
                share = dur / total if total > 0 else 0.0
                print(f"  {record.get('name'):<20} {dur * 1e3:9.3f} ms "
                      f"({share:5.1%})")
    else:
        print(render_span_tree(spans, top=args.top))
    if problems:
        print(f"warning: span forest has {len(problems)} problem(s):",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analyze import main as analyze_main

    forwarded = list(args.paths)
    forwarded += ["--format", args.format]
    if args.select:
        forwarded += ["--select", args.select]
    if args.ignore:
        forwarded += ["--ignore", args.ignore]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.write_baseline:
        forwarded.append("--write-baseline")
    if args.changed:
        forwarded.append("--changed")
    if args.list_rules:
        forwarded.append("--list-rules")
    return analyze_main(forwarded)


def _cmd_cache(args: argparse.Namespace) -> int:
    from .runner import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        print(store.stats().render())
    elif args.action == "clear":
        print(f"removed {store.clear()} artifacts")
    else:  # gc
        removed = store.gc(keep=args.keep)
        print(f"removed {removed} artifacts, kept newest {args.keep}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from .errors import ReproError
    from .faults import parse_fault_spec
    from .serve import AdmissionConfig, ExperimentServer, ServeConfig

    try:
        faults = (parse_fault_spec(args.inject_net_faults)
                  if args.inject_net_faults else None)
        config = ServeConfig(
            host=args.host, port=args.port, path=args.socket,
            slots=args.slots, retries=args.retries, timeout_s=args.timeout_s,
            use_cache=not args.no_cache, cache_dir=args.cache_dir,
            admission=AdmissionConfig(
                max_queued_total=args.max_queued,
                max_queued_per_tenant=args.max_queued_per_tenant,
                max_in_flight_per_tenant=args.max_in_flight),
            max_cells_per_job=args.max_cells,
            allow_remote_shutdown=not args.no_remote_shutdown,
            cancel_on_disconnect=args.cancel_on_disconnect,
            cancel_check_every=args.cancel_check,
            faults=faults)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tracing = _configure_obs(args)
    server = ExperimentServer(config)

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        drains = 0

        def _on_signal() -> None:
            # First signal drains gracefully; a second one cancels all
            # in-flight jobs (terminal `cancelled`/server_shutdown
            # frames) and exits as soon as the slots notice.
            nonlocal drains
            drains += 1
            if drains == 1:
                loop.create_task(server.request_shutdown())
            else:
                loop.create_task(server.shutdown_now())

        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, _on_signal)
        print(f"serving on {server.address} "
              f"({config.slots} slots; ctrl-c drains, twice cancels)",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    finally:
        if tracing and args.trace_events:
            _write_trace(args.trace_events)
        from . import obs

        obs.disable()
    print("drained; bye")
    return EXIT_OK


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .serve.loadgen import LoadGenConfig, run_loadgen

    try:
        degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    except ValueError:
        print(f"error: --degrees {args.degrees!r} is not a comma-separated "
              "list of integers", file=sys.stderr)
        return EXIT_USAGE
    spec = {"workload": args.workload, "prefetcher": args.prefetcher,
            "kind": "trace", "degrees": degrees, "n_accesses": args.n}
    try:
        config = LoadGenConfig(
            address=args.address, tenants=args.tenants,
            jobs_per_tenant=args.jobs_per_tenant, rate_hz=args.rate,
            spec=spec, seed=args.seed if args.seed is not None else 1234,
            job_timeout_s=args.job_timeout_s)
        report = run_loadgen(config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot reach {args.address}: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.out}")
    print(text)
    return EXIT_PARTIAL if report["errors"] or report["failed"] else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domino-repro",
        description="Domino Temporal Data Prefetcher (HPCA 2018) reproduction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads/prefetchers/experiments")

    run_p = sub.add_parser("run", help="run a paper experiment by id")
    run_p.add_argument("experiment", help="e.g. fig11, table1, or 'all'")
    run_p.add_argument("--quick", action="store_true",
                       help="small sizes / three workloads")
    run_p.add_argument("--n", type=int, default=None, help="accesses per trace")
    run_p.add_argument("--workloads", default=None,
                       help="comma-separated workload names")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--format", choices=["table", "md", "csv"],
                       default="table", help="output format")
    run_p.add_argument("--chart", default=None, metavar="COLUMN",
                       help="append an ASCII bar chart of COLUMN")
    run_p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes for cell execution (default 1)")
    run_p.add_argument("--no-cache", action="store_true",
                       help="bypass the artifact cache (always re-execute)")
    run_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache root (default .domino-cache)")
    run_p.add_argument("--retries", type=_nonnegative_int, default=2,
                       metavar="N", help="retry budget per cell, with "
                                         "exponential backoff (default 2)")
    run_p.add_argument("--timeout-s", type=_positive_float, default=None,
                       metavar="S", help="per-cell wall-clock timeout; hung "
                                         "cells are killed and retried")
    run_p.add_argument("--run-id", default=None, metavar="ID",
                       help="journal completed cells under ID so the run "
                            "can be resumed after a crash")
    run_p.add_argument("--resume", default=None, metavar="RUN_ID",
                       help="resume a journaled run: completed cells are "
                            "served from the cache, bit-identically")
    run_p.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help=argparse.SUPPRESS)  # chaos harness; see repro.faults
    run_p.add_argument("--trace-events", default=None, metavar="PATH",
                       help="enable telemetry and write the JSONL event "
                            "trace to PATH (see docs/OBSERVABILITY.md)")
    run_p.add_argument("--log-level", default="debug",
                       choices=["debug", "info", "warning", "error"],
                       help="minimum severity collected into the event "
                            "trace (default debug)")
    run_p.add_argument("--trace-sample", type=_positive_int, default=1,
                       metavar="N", help="keep every Nth event per "
                                         "(component, event) pair (default 1)")
    run_p.add_argument("--trace-ring", type=_positive_int, default=100_000,
                       metavar="N", help="max buffered events per process "
                                         "and per cell (default 100000)")
    run_p.add_argument("--profile", action="store_true",
                       help="cProfile each executed cell; top functions go "
                            "to stdout and into the event trace")

    cmp_p = sub.add_parser("compare", help="compare prefetchers on one workload")
    cmp_p.add_argument("--workload", required=True, choices=workload_names())
    cmp_p.add_argument("--degree", type=int, default=4)
    cmp_p.add_argument("--quick", action="store_true")
    cmp_p.add_argument("--n", type=int, default=None)
    cmp_p.add_argument("--workloads", default=None, help=argparse.SUPPRESS)
    cmp_p.add_argument("--seed", type=int, default=None)

    trace_p = sub.add_parser("trace", help="generate and save a trace")
    trace_p.add_argument("--workload", required=True, choices=workload_names())
    trace_p.add_argument("--n", type=int, default=100_000)
    trace_p.add_argument("--out", required=True)
    trace_p.add_argument("--seed", type=int, default=None)

    cache_p = sub.add_parser("cache", help="inspect/maintain the artifact cache")
    cache_p.add_argument("action", choices=["stats", "clear", "gc"])
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="artifact cache root (default .domino-cache)")
    cache_p.add_argument("--keep", type=_nonnegative_int, default=1024, metavar="N",
                         help="gc: newest artifacts to keep (default 1024)")

    analyze_p = sub.add_parser(
        "analyze", help="run the AST invariant linter (see docs/ANALYSIS.md)")
    analyze_p.add_argument("paths", nargs="*", default=["src"],
                           help="files or directories (default: src)")
    analyze_p.add_argument("--format", choices=["text", "json", "sarif"],
                           default="text", help="report format (default text)")
    analyze_p.add_argument("--select", default=None, metavar="CODES",
                           help="comma-separated rule codes to run")
    analyze_p.add_argument("--ignore", default=None, metavar="CODES",
                           help="comma-separated rule codes to skip")
    analyze_p.add_argument("--baseline", default=None, metavar="PATH",
                           help="baseline file of grandfathered findings")
    analyze_p.add_argument("--write-baseline", action="store_true",
                           help="regenerate --baseline from this run")
    analyze_p.add_argument("--changed", action="store_true",
                           help="report only findings in files changed "
                                "vs git HEAD")
    analyze_p.add_argument("--list-rules", action="store_true",
                           help="print the rule registry and exit")

    serve_p = sub.add_parser(
        "serve", help="run the multi-tenant experiment server "
                      "(see docs/SERVING.md)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=_nonnegative_int, default=0,
                         help="TCP port (default 0 = ephemeral)")
    serve_p.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a Unix socket instead of TCP")
    serve_p.add_argument("--slots", type=_positive_int, default=2,
                         help="concurrent worker slots (default 2)")
    serve_p.add_argument("--retries", type=_nonnegative_int, default=1,
                         metavar="N", help="retry budget per served cell")
    serve_p.add_argument("--timeout-s", type=_positive_float, default=None,
                         metavar="S", help="per-cell wall-clock timeout")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="bypass the shared artifact cache")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="artifact cache root (default .domino-cache)")
    serve_p.add_argument("--max-queued", type=_positive_int, default=64,
                         metavar="N", help="global admission queue bound")
    serve_p.add_argument("--max-queued-per-tenant", type=_positive_int,
                         default=8, metavar="N")
    serve_p.add_argument("--max-in-flight", type=_positive_int, default=2,
                         metavar="N", help="per-tenant concurrent-job cap")
    serve_p.add_argument("--max-cells", type=_positive_int, default=16,
                         metavar="N", help="largest job (in cells) accepted")
    serve_p.add_argument("--cancel-on-disconnect", action="store_true",
                         help="cancel a tenant's jobs when its submitting "
                         "connection drops (submits may override)")
    serve_p.add_argument("--cancel-check", type=_positive_int, default=4096,
                         metavar="N", help="engine checks its cancel token "
                         "every N simulated accesses")
    serve_p.add_argument("--inject-net-faults", default=None, metavar="SPEC",
                         help="seeded network partition at the server's "
                         "write boundary, e.g. 'partition:0.5,net_tenants:t0'")
    serve_p.add_argument("--no-remote-shutdown", action="store_true",
                         help="ignore client shutdown requests")
    serve_p.add_argument("--trace-events", default=None, metavar="PATH",
                         help="write the server's JSONL telemetry trace on "
                              "shutdown (see docs/OBSERVABILITY.md)")
    serve_p.add_argument("--log-level", default="debug",
                         choices=["debug", "info", "warning", "error"])
    serve_p.add_argument("--trace-sample", type=_positive_int, default=1,
                         metavar="N", help=argparse.SUPPRESS)
    serve_p.add_argument("--trace-ring", type=_positive_int, default=100_000,
                         metavar="N", help=argparse.SUPPRESS)
    serve_p.set_defaults(profile=False)

    loadgen_p = sub.add_parser(
        "loadgen", help="drive a running server with seeded Poisson "
                        "multi-tenant load and report BENCH JSON")
    loadgen_p.add_argument("address", help="unix:<path> or host:port")
    loadgen_p.add_argument("--tenants", type=_positive_int, default=4)
    loadgen_p.add_argument("--jobs-per-tenant", type=_positive_int, default=8)
    loadgen_p.add_argument("--rate", type=_positive_float, default=2.0,
                           metavar="HZ", help="per-tenant Poisson arrival "
                                              "rate (default 2/s)")
    loadgen_p.add_argument("--seed", type=int, default=None)
    loadgen_p.add_argument("--workload", default="sat_solver",
                           choices=workload_names())
    loadgen_p.add_argument("--prefetcher", default="domino",
                           choices=prefetcher_names())
    loadgen_p.add_argument("--n", type=_positive_int, default=1_000,
                           help="accesses per job trace (default 1000)")
    loadgen_p.add_argument("--degrees", default="1",
                           help="comma-separated degrees per job (default 1)")
    loadgen_p.add_argument("--job-timeout-s", type=_positive_float,
                           default=120.0, metavar="S")
    loadgen_p.add_argument("--out", default=None, metavar="PATH",
                           help="also write the JSON report to PATH")

    obs_p = sub.add_parser("obs", help="inspect run telemetry")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    summary_p = obs_sub.add_parser(
        "summary", help="render event counts, percentiles, and per-cell "
                        "timings from a --trace-events JSONL file")
    summary_p.add_argument("trace", help="JSONL trace written by run --trace-events")
    summary_p.add_argument("--top", type=_positive_int, default=10, metavar="N",
                           help="rows per ranking table (default 10)")
    summary_p.add_argument("--format", choices=["text", "json"], default="text",
                           help="text tables or one machine-readable JSON "
                                "document (default text)")
    spans_p = obs_sub.add_parser(
        "spans", help="render the causal span forest of a traced run")
    spans_p.add_argument("trace", help="JSONL trace written by --trace-events")
    spans_p.add_argument("--top", type=_positive_int, default=20, metavar="N",
                         help="traces rendered / chains printed (default 20)")
    spans_p.add_argument("--chrome-trace", default=None, metavar="PATH",
                         help="write Chrome traceEvents JSON to PATH instead "
                              "(chrome://tracing, ui.perfetto.dev)")
    spans_p.add_argument("--critical-path", action="store_true",
                         help="print the slowest root-to-leaf chain per trace")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run,
                "compare": _cmd_compare, "trace": _cmd_trace,
                "cache": _cmd_cache, "obs": _cmd_obs,
                "analyze": _cmd_analyze, "serve": _cmd_serve,
                "loadgen": _cmd_loadgen}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (`obs spans t.jsonl | head`); exit
        # quietly instead of tracebacking, pointing stdout at devnull so
        # the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
