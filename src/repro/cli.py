"""Command-line interface for the SymPLFIED reproduction.

The CLI mirrors how the paper's tool is used: feed it a program (SymPLFIED
assembly, a minic source file, a MIPS file or the name of a bundled
workload), optionally a detector file in the ``det(...)`` format, pick a
fault model and an outcome query, and it either runs the program, runs a
concrete fault-injection campaign, or runs the symbolic campaign and reports
every error that evades detection.

Examples::

    python -m repro run --workload factorial --input 5
    python -m repro analyze --workload factorial --fault-model register \
        --query err-output --max-injections 20
    python -m repro concrete --workload tcas --max-injections 50
    python -m repro analyze --program prog.asm --detectors dets.txt \
        --query wrong-final-value --expected 1
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .analysis import campaign_outcome_summary, format_witnesses
from .concrete import ConcreteCampaign, printed_value_labeler
from .core import SymbolicCampaign, witnesses_from_campaign
from .core.campaign import SerialExecutionStrategy
from .detectors import DetectorSet, EMPTY_DETECTORS
from .faults import FAULT_MODELS, fault_model
from .frontend import generate_query, translate_mips
from .isa import assemble
from .lang import compile_source
from .machine import ExecutionConfig, run_concrete
from .programs import WORKLOADS, load_workload
from .programs.base import Workload


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") \
            from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") \
            from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _load_detectors(path: Optional[str]) -> DetectorSet:
    if path is None:
        return EMPTY_DETECTORS
    with open(path, "r", encoding="utf-8") as handle:
        return DetectorSet.parse(handle.read())


def _load_workload(args: argparse.Namespace) -> Workload:
    """Build the workload from --workload / --program / --minic / --mips."""
    sources = [name for name in ("workload", "program", "minic", "mips")
               if getattr(args, name, None)]
    if len(sources) != 1:
        raise SystemExit("exactly one of --workload, --program, --minic, --mips "
                         "must be given")
    detectors = _load_detectors(getattr(args, "detectors", None))
    input_values = tuple(getattr(args, "input", ()) or ())

    if args.workload:
        workload = load_workload(args.workload)
        if input_values:
            workload.default_input = input_values
        if len(detectors):
            workload.detectors = detectors
    elif args.program:
        with open(args.program, "r", encoding="utf-8") as handle:
            program = assemble(handle.read(), name=args.program)
        workload = Workload(name=args.program, program=program,
                            detectors=detectors, default_input=input_values,
                            recommended_max_steps=args.max_steps)
    elif args.minic:
        with open(args.minic, "r", encoding="utf-8") as handle:
            compiled = compile_source(handle.read(), name=args.minic)
        workload = Workload(name=args.minic, program=compiled.program,
                            data_segment=compiled.initial_memory(),
                            detectors=detectors, default_input=input_values,
                            compiled=compiled,
                            recommended_max_steps=args.max_steps)
    else:
        with open(args.mips, "r", encoding="utf-8") as handle:
            program = translate_mips(handle.read(), name=args.mips)
        workload = Workload(name=args.mips, program=program,
                            detectors=detectors, default_input=input_values,
                            recommended_max_steps=args.max_steps)
    isa = getattr(args, "isa", None)
    if isa is not None:
        # Registry lookup (not argparse choices=) so runtime-registered
        # frontends work; unknown names exit with the registry's one-liner.
        try:
            workload = workload.retargeted(isa)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return workload


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="name of a bundled workload")
    parser.add_argument("--program", help="path to a SymPLFIED assembly file")
    parser.add_argument("--minic", help="path to a minic source file")
    parser.add_argument("--mips", help="path to a MIPS assembly file")
    parser.add_argument("--isa", default=None, metavar="NAME",
                        help="retarget the workload through a registered ISA "
                             "frontend (e.g. mips, rv32im) before analysis")
    parser.add_argument("--detectors", help="path to a det(...) detector file")
    parser.add_argument("--input", type=int, nargs="*", default=None,
                        help="input values for the program's read instructions")
    parser.add_argument("--max-steps", type=int, default=20_000,
                        help="watchdog bound on executed instructions")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SymPLFIED: symbolic program-level fault injection "
                    "and error detection (reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run a program concretely (no faults) and print its output")
    _add_common_arguments(run_parser)

    analyze = subparsers.add_parser(
        "analyze", help="symbolic fault-injection campaign (the SymPLFIED analysis)")
    _add_common_arguments(analyze)
    analyze.add_argument("--fault-model", default="register", metavar="NAME",
                         help="fault model planning the sweep (default: "
                              "register; one of "
                              f"{', '.join(sorted(FAULT_MODELS))}); combine "
                              "with --sample/--seed to sweep a deterministic "
                              "subset of its space")
    analyze.add_argument("--burst-k", type=int, default=None, metavar="K",
                         help="simultaneous faults per experiment for "
                              "--fault-model burst (default: 2; a burst "
                              "needs K >= 2)")
    analyze.add_argument("--sample", type=_positive_int, default=None,
                         help="sweep a deterministic sample of this many "
                              "injections drawn from the selected model's "
                              "enumerated space (each model enumerates its "
                              "own space — burst and bitflip spaces are far "
                              "larger than register's); a sample larger "
                              "than the space clamps with a warning")
    analyze.add_argument("--seed", type=int, default=None,
                         help="seed for --sample (default: 0; the same "
                              "model, seed and sample size pick the same "
                              "injections on every backend)")
    analyze.add_argument("--query", default="undetected-failure",
                         choices=("err-output", "incorrect-output",
                                  "wrong-final-value", "crash", "hang",
                                  "undetected-failure", "latent-err",
                                  "any-outcome"),
                         help="outcome to search for (any-outcome records "
                              "every terminal state — the parity-study "
                              "census)")
    analyze.add_argument("--expected", type=int, default=None,
                         help="expected final printed value (wrong-final-value query)")
    analyze.add_argument("--max-injections", type=_positive_int, default=None,
                         help="cap on the number of injections swept "
                              "(must be >= 1; omit it to sweep everything)")
    analyze.add_argument("--max-solutions", type=int, default=10,
                         help="per-injection cap on reported errors")
    analyze.add_argument("--max-states", type=int, default=20_000,
                         help="per-injection cap on explored states")
    analyze.add_argument("--no-dedup", action="store_true",
                         help="disable search-state deduplication so "
                              "looping lineages run to the symbolic "
                              "watchdog instead of collapsing into a state "
                              "cycle (needed for an any-outcome census "
                              "that must report hang terminals)")
    analyze.add_argument("--control-fork-domain", default="labels",
                         choices=("labels", "targets", "all", "exception_only"))
    analyze.add_argument("--witnesses", type=int, default=3,
                         help="number of witnesses to print")
    analyze.add_argument("--backend", default=None,
                         choices=("serial", "pool", "distributed"),
                         help="execution backend (default: serial, or pool "
                              "when --workers > 1)")
    analyze.add_argument("--workers", type=_nonnegative_int, default=1,
                         help="worker processes for the injection sweep "
                              "(1 = serial, the paper's single-host run; "
                              "0 = distributed backend only, rely on "
                              "external workers attached to --queue)")
    analyze.add_argument("--chunk-size", type=_positive_int, default=None,
                         help="injections per work unit "
                              "(default: a few chunks per worker)")
    analyze.add_argument("--queue", default=None,
                         help="queue for the distributed backend: a broker "
                              "directory, or tcp://HOST:PORT of a running "
                              "'repro broker' (default: a private temporary "
                              "directory)")
    analyze.add_argument("--lease-seconds", type=_positive_float, default=60.0,
                         help="distributed-backend claim lease; a worker "
                              "silent this long forfeits its task")
    analyze.add_argument("--shared-cache", default=None,
                         help="path to a cross-process search-result cache "
                              "database shared by all workers")
    analyze.add_argument("--checkpoint", default=None,
                         help="journal completed injections to this file so "
                              "a killed campaign can be resumed")
    analyze.add_argument("--resume", action="store_true",
                         help="skip injections already completed in the "
                              "--checkpoint journal")
    analyze.add_argument("--results", default=None, metavar="PATH",
                         help="append the campaign to a sqlite results "
                              "warehouse; the coordinator streams each "
                              "result into the store and incremental "
                              "aggregates instead of retaining the sweep "
                              "in memory (query it with 'repro report')")
    analyze.add_argument("--compare-concrete", action="store_true",
                         help="after the campaign, run the symbolic-vs-"
                              "concrete parity study over the same "
                              "injection points: Monte-Carlo single-bit "
                              "flips through the concrete simulator, "
                              "tabulated against the symbolic outcome "
                              "classes per point (paper Section 6.3)")
    analyze.add_argument("--progress", action="store_true",
                         help="report sweep progress on stderr")
    analyze.add_argument("--telemetry", default=None, metavar="PATH",
                         help="record spans, events and metrics from the "
                              "campaign (coordinator and workers) to this "
                              "JSONL file; campaign stdout is unaffected")
    analyze.add_argument("--telemetry-prometheus", default=None,
                         metavar="PATH",
                         help="additionally write the final merged metrics "
                              "in Prometheus text exposition format")

    concrete = subparsers.add_parser(
        "concrete", help="concrete (SimpleScalar-style) fault-injection campaign")
    _add_common_arguments(concrete)
    concrete.add_argument("--max-injections", type=_positive_int, default=None,
                          help="cap on the number of injections swept "
                               "(must be >= 1; omit it to sweep everything)")
    concrete.add_argument("--expected-values", type=int, nargs="*", default=None,
                          help="printed values that get their own outcome row")

    broker = subparsers.add_parser(
        "broker", help="TCP task broker: serve one campaign queue to "
                       "workers and coordinators that share no filesystem")
    broker.add_argument("--listen", default="127.0.0.1:0",
                        help="HOST:PORT to listen on (port 0 picks a free "
                             "port and prints it)")
    broker.add_argument("--lease-seconds", type=_positive_float, default=60.0,
                        help="default claim lease for workers that do not "
                             "request their own")
    broker.add_argument("--connection-timeout", type=_positive_float,
                        default=600.0,
                        help="drop connections idle for this many seconds")
    broker.add_argument("--telemetry", default=None, metavar="PATH",
                        help="record periodic broker.heartbeat events "
                             "(queue depth, claims, op counts) to this "
                             "JSONL file")
    broker.add_argument("--heartbeat-seconds", type=_positive_float,
                        default=5.0,
                        help="interval between --telemetry heartbeat events")

    worker = subparsers.add_parser(
        "worker", help="standalone campaign worker: drain tasks from a "
                       "distributed queue")
    worker.add_argument("--queue", required=True,
                        help="queue shared with the coordinator: a broker "
                             "directory, or tcp://HOST:PORT of a running "
                             "'repro broker'")
    worker.add_argument("--poll-interval", type=_positive_float, default=0.1,
                        help="seconds between queue polls when idle")
    worker.add_argument("--max-idle", type=_positive_float, default=None,
                        help="exit after this many idle seconds "
                             "(default: wait until the queue drains)")
    worker.add_argument("--manifest-timeout", type=_positive_float, default=120.0,
                        help="seconds to wait for the campaign manifest")
    worker.add_argument("--lease-seconds", type=_positive_float, default=60.0,
                        help="claim lease duration before a task is presumed "
                             "orphaned")
    worker.add_argument("--progress", action="store_true",
                        help="report completed tasks on stderr")
    worker.add_argument("--telemetry", default=None, metavar="PATH",
                        help="record this worker's spans, events and metrics "
                             "to a JSONL file (in addition to the snapshots "
                             "shipped back to the coordinator)")

    report = subparsers.add_parser(
        "report", help="cross-campaign queries over a results warehouse "
                       "(outcome distributions, latent-err rates, "
                       "per-fault-model coverage)")
    report.add_argument("--results", default=None, metavar="PATH",
                        help="sqlite results store written by 'repro analyze "
                             "--results' or 'repro bench'")
    report.add_argument("--parity", action="store_true",
                        help="print the symbolic-vs-bit-flip parity table "
                             "instead of the aggregate report (joins each "
                             "program's bitflip campaign against its "
                             "symbolic campaigns per injection point)")
    report.add_argument("--campaign", type=int, default=None,
                        help="report a single campaign id "
                             "(default: whole-warehouse summary)")
    report.add_argument("--telemetry", default=None, metavar="PATH",
                        help="summarise a telemetry JSONL event log "
                             "(span timings, counters, per-worker "
                             "throughput, lease health)")

    top = subparsers.add_parser(
        "top", help="live ops view of a running 'repro broker': queue "
                    "depth, claims, op rates and lease expiries")
    top.add_argument("--queue", required=True,
                     help="tcp://HOST:PORT of a running 'repro broker'")
    top.add_argument("--interval", type=_positive_float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=_positive_int, default=None,
                     help="exit after this many refreshes "
                          "(default: run until interrupted)")
    top.add_argument("--once", action="store_true",
                     help="print a single status frame and exit")
    top.add_argument("--prometheus", action="store_true",
                     help="emit Prometheus text format instead of the "
                          "human-readable frame")

    from .results.bench import add_bench_arguments
    bench = subparsers.add_parser(
        "bench", help="unified workload driver: run the campaign matrix and "
                      "emit a BENCH_<sha>.json trajectory point, or check "
                      "backend equivalence with --expect-identical")
    add_bench_arguments(bench)

    return parser


def _command_run(args: argparse.Namespace) -> int:
    workload = _load_workload(args)
    state = workload.initial_state()
    run_concrete(workload.program, state, workload.detectors,
                 max_steps=args.max_steps)
    print(f"program  : {workload.program.describe()}")
    print(f"status   : {state.status.value}"
          + (f" ({state.exception})" if state.exception else ""))
    print(f"steps    : {state.steps}")
    print(f"output   : {list(state.output_values())}")
    return 0 if state.status.value == "halted" else 1


def _validated_queue(queue: Optional[str]) -> Optional[str]:
    """Reject unknown ``--queue`` schemes and malformed ``tcp://`` locators
    with a one-line error instead of a traceback deep in the backend."""
    if queue is None:
        return None
    from .distributed.broker import validate_queue_locator
    try:
        validate_queue_locator(queue)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    return queue


def _resolve_backend(args: argparse.Namespace) -> str:
    """Pick the execution backend, validating flag combinations."""
    backend = args.backend
    if backend is None:
        backend = "pool" if args.workers > 1 else "serial"
    if backend == "serial" and args.workers > 1:
        raise SystemExit("--backend serial cannot use --workers > 1; pick "
                         "--backend pool or --backend distributed")
    if args.workers == 0 and backend != "distributed":
        raise SystemExit("--workers 0 (external workers only) requires "
                         "--backend distributed")
    if backend == "distributed" and args.workers == 0 and args.queue is None:
        raise SystemExit("--workers 0 needs --queue DIR: external workers "
                         "must be able to find the task queue")
    if backend != "distributed" and args.queue is not None:
        raise SystemExit("--queue only applies to --backend distributed")
    if backend == "serial" and args.chunk_size is not None:
        raise SystemExit("--chunk-size only applies to --backend pool or "
                         "distributed (the serial sweep is not chunked)")
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume needs --checkpoint PATH (the journal to "
                         "resume from)")
    if args.seed is not None and args.sample is None:
        raise SystemExit("--seed only applies with --sample N (a full sweep "
                         "is not randomised)")
    _validated_queue(args.queue)
    return backend


def _build_analyze_strategy(args: argparse.Namespace, backend: str,
                            golden, expected):
    """Build the execution strategy for the chosen backend.

    Returns ``(strategy, cache_statistics_fn)`` — the statistics getter is
    read after the run, once the backend has aggregated its counters.
    """
    from .parallel import CacheSpec, QuerySpec

    cache_spec = (CacheSpec.shared(args.shared_cache)
                  if args.shared_cache else None)
    query_spec = QuerySpec.predefined(args.query, golden_output=golden,
                                      expected_value=expected)
    if backend == "serial":
        cache = (cache_spec or CacheSpec()).build()
        strategy = SerialExecutionStrategy(result_cache=cache)
        statistics = lambda: cache.statistics  # noqa: E731
    elif backend == "pool":
        from .parallel import ParallelConfig, ParallelExecutionStrategy
        config = ParallelConfig(workers=args.workers,
                                chunk_size=args.chunk_size,
                                cache=cache_spec)
        strategy = ParallelExecutionStrategy(query_spec, config)
        statistics = lambda: strategy.cache_statistics  # noqa: E731
    else:
        from .distributed import DistributedConfig, DistributedExecutionStrategy
        config = DistributedConfig(workers=args.workers,
                                   chunk_size=args.chunk_size,
                                   queue_dir=args.queue,
                                   lease_seconds=args.lease_seconds,
                                   cache=cache_spec)
        strategy = DistributedExecutionStrategy(query_spec, config)
        statistics = lambda: strategy.cache_statistics  # noqa: E731

    if args.checkpoint is not None:
        from .distributed import CheckpointingStrategy
        checkpointing = CheckpointingStrategy(strategy, args.checkpoint,
                                              resume=args.resume)
        return checkpointing, statistics
    return strategy, statistics


def _command_analyze(args: argparse.Namespace) -> int:
    workload = _load_workload(args)
    golden = workload.golden_output()
    expected = args.expected
    if expected is None:
        printed = [item for item in golden if isinstance(item, int)]
        expected = printed[-1] if printed else None
    query = generate_query(args.query, golden_output=golden,
                           expected_value=expected)
    backend = _resolve_backend(args)
    try:
        model = fault_model(args.fault_model)
    except ValueError as exc:
        # Mirror validate_queue_locator: one readable line, no traceback.
        raise SystemExit(str(exc)) from None
    if args.burst_k is not None:
        if model.name != "burst":
            raise SystemExit("--burst-k only applies to --fault-model burst")
        if args.burst_k < 2:
            raise SystemExit(f"--burst-k must be >= 2 (a burst is K "
                             f"simultaneous faults), got {args.burst_k}")
        model = dataclasses.replace(model, k=args.burst_k)

    # Telemetry is configured before the campaign is built so every span —
    # including campaign.run itself — lands under one trace, and the trace
    # context is captured into the specs shipped to workers.  All telemetry
    # notices go to stderr: campaign stdout must stay byte-identical with
    # and without --telemetry.
    telemetry_on = (args.telemetry is not None
                    or args.telemetry_prometheus is not None)
    if telemetry_on:
        from . import obs as _obs
        from .obs import JsonlEventSink
        sink = (JsonlEventSink(args.telemetry)
                if args.telemetry is not None else None)
        _obs.configure(sink=sink, component="coordinator")

    campaign = SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        fault_model=model,
        execution_config=ExecutionConfig(
            max_steps=args.max_steps,
            control_fork_domain=args.control_fork_domain),
        max_solutions_per_injection=args.max_solutions,
        max_states_per_injection=args.max_states,
        deduplicate_states=not args.no_dedup,
        isa=workload.isa)

    injections = campaign.plan_injections(sample=args.sample, seed=args.seed)
    planned = len(injections)
    if args.max_injections is not None:
        injections = injections[:args.max_injections]
    print(f"program        : {workload.program.describe()}")
    if workload.isa is not None:
        # Printed only when an ISA was selected, so default MIPS-path output
        # stays byte-identical to pre-registry campaigns.
        print(f"isa            : {workload.isa}")
    print(f"golden output  : {list(golden)}")
    print(f"fault model    : {model.name}")
    if model.name == "burst":
        print(f"burst k        : {model.k}")
    if args.sample is not None:
        # A --sample larger than the fault space clamps (with a warning
        # from the sampler); report the size actually swept.
        print(f"sampled        : {min(args.sample, planned)} (seed "
              f"{0 if args.seed is None else args.seed})")
    print(f"query          : {query.description}")
    print(f"injections     : {len(injections)}")
    if backend != "serial":
        print(f"backend        : {backend}")
    if args.workers > 1:
        print(f"workers        : {args.workers}")

    def report_progress(done: int, total: int, last) -> None:
        print(f"  [{done}/{total}] {last.injection.label()}"
              + ("" if last.activated else " (not activated)"),
              file=sys.stderr)

    progress = report_progress if args.progress else None

    strategy, cache_statistics_fn = _build_analyze_strategy(
        args, backend, golden, expected)
    store = None
    if args.results is not None:
        from .results import RecordingStrategy, SqliteResultStore
        store = SqliteResultStore(args.results)
        meta = {
            "workload": workload.name,
            "program": workload.program.name,
            "query": query.description,
            "fault_model": model.name,
            "isa": workload.isa,
            "backend": backend,
            "workers": args.workers,
            "sample": args.sample,
            "max_injections": args.max_injections,
        }
        # --checkpoint needs the wrapped backend to retain its result list
        # (the journal merge zips pending and fresh results, and resumed
        # results never pass through the streaming sink); without it the
        # coordinator streams and retains nothing.
        strategy = RecordingStrategy(strategy, store, meta=meta,
                                     golden_output=golden,
                                     retain=args.checkpoint is not None)
    result = campaign.run(query, injections=injections, progress=progress,
                          strategy=strategy)
    if store is not None:
        print(f"results store: {args.results} "
              f"(campaign {strategy.campaign_id})", file=sys.stderr)
    if args.checkpoint is not None:
        skipped = getattr(strategy, "skipped", 0)
        print(f"checkpoint: {args.checkpoint}"
              + (f" ({skipped} injections resumed from the journal)"
                 if args.resume else ""),
              file=sys.stderr)
    cache_statistics = cache_statistics_fn()
    if args.progress and cache_statistics is not None:
        print(f"search-result cache: {cache_statistics.describe()}",
              file=sys.stderr)
    print()
    print(result.describe())
    print()
    summary = campaign_outcome_summary(result, golden)
    print("solution outcome kinds:", {k: v for k, v in summary.items() if v})

    witnesses = witnesses_from_campaign(workload.program, result, golden)
    if witnesses:
        print()
        print(format_witnesses(witnesses, limit=args.witnesses))
    if result.total_solutions == 0 and result.all_completed:
        print("\nno errors of this class evade detection for the explored "
              "injections: the program is resilient (within the search bounds).")
    if args.compare_concrete:
        from .concrete import run_parity_study
        parity = run_parity_study(
            workload.program, injections, golden,
            input_values=workload.default_input,
            memory=workload.data_segment,
            detectors=workload.detectors,
            max_states=args.max_states,
            max_steps=args.max_steps)
        print()
        print("symbolic vs concrete bit-flip parity:")
        print(parity.format_table())
    if store is not None:
        store.close()
    if telemetry_on:
        from . import obs as _obs
        if args.telemetry_prometheus is not None:
            from .obs import render_hub
            with open(args.telemetry_prometheus, "w",
                      encoding="utf-8") as handle:
                handle.write(render_hub(_obs.get()))
        _obs.finalize()
        if args.telemetry is not None:
            print(f"telemetry: {args.telemetry}", file=sys.stderr)
        if args.telemetry_prometheus is not None:
            print(f"telemetry (prometheus): {args.telemetry_prometheus}",
                  file=sys.stderr)
    return 0


def _command_concrete(args: argparse.Namespace) -> int:
    workload = _load_workload(args)
    golden = workload.golden_output()
    expected_values = args.expected_values
    if expected_values is None:
        expected_values = [item for item in golden if isinstance(item, int)][-1:]

    campaign = ConcreteCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        labeler=printed_value_labeler(expected_values=tuple(expected_values)),
        outcome_labels=tuple(str(v) for v in expected_values)
        + ("other", "crash", "hang", "detected"),
        max_steps=args.max_steps)
    injections = campaign.enumerate_injections()
    if args.max_injections is not None:
        injections = injections[:args.max_injections]
    print(f"program        : {workload.program.describe()}")
    print(f"golden output  : {list(golden)}")
    print(f"injections     : {len(injections)} "
          f"({campaign.planned_experiments(injections)} experiments)")
    result = campaign.run(injections=injections, keep_experiments=False)
    print()
    print(result.describe())
    return 0


def _command_broker(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .net import BrokerServer, parse_listen_address

    try:
        host, port = parse_listen_address(args.listen)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    server = BrokerServer(host=host, port=port,
                          lease_seconds=args.lease_seconds,
                          connection_timeout=args.connection_timeout)

    signal.signal(signal.SIGTERM, lambda signum, frame: server.request_stop())
    signal.signal(signal.SIGINT, lambda signum, frame: server.request_stop())
    print(f"broker listening on {server.url}", flush=True)

    heartbeat_stop = threading.Event()
    heartbeat_thread = None
    if args.telemetry is not None:
        from . import obs as _obs
        from .obs import JsonlEventSink
        hub = _obs.configure(sink=JsonlEventSink(args.telemetry),
                             component="broker")

        def emit_heartbeat() -> None:
            stats = server.stats_snapshot()
            for key in ("pending", "claimed", "results", "total"):
                if stats[key] is not None:  # total is None pre-manifest
                    hub.gauge(f"broker.{key}", stats[key])
            hub.event("broker.heartbeat", pending=stats["pending"],
                      claimed=stats["claimed"], results=stats["results"],
                      total=stats["total"],
                      uptime_seconds=stats["uptime_seconds"],
                      ops=stats["ops"], leases=len(stats["leases"]))

        def heartbeat_loop() -> None:
            emit_heartbeat()  # one immediately, so short runs still record
            while not heartbeat_stop.wait(args.heartbeat_seconds):
                emit_heartbeat()

        heartbeat_thread = threading.Thread(target=heartbeat_loop,
                                            daemon=True,
                                            name="broker-heartbeat")
        heartbeat_thread.start()
    try:
        server.serve_forever()
    finally:
        heartbeat_stop.set()
        if heartbeat_thread is not None:
            heartbeat_thread.join(timeout=2.0)
            from . import obs as _obs
            emit_heartbeat()  # final queue-depth gauges for the metrics record
            _obs.finalize()
        server.close()
    print("broker stopped")
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .distributed import WorkerConfig, run_worker

    _validated_queue(args.queue)
    config = WorkerConfig(queue_dir=args.queue,
                          poll_interval=args.poll_interval,
                          max_idle_seconds=args.max_idle,
                          manifest_timeout=args.manifest_timeout,
                          lease_seconds=args.lease_seconds)

    def report_task(index: int, injections: int) -> None:
        if args.progress:
            print(f"  task {index}: {injections} injections done",
                  file=sys.stderr)

    # Graceful shutdown: on SIGTERM the worker finishes (and publishes) the
    # unit it is executing, releases any unstarted claim back to the queue,
    # and exits — nothing is left to recover via lease expiry.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())

    if args.telemetry is not None:
        import os

        from . import obs as _obs
        from .obs import JsonlEventSink
        # run_worker replaces the hub when it initialises the campaign
        # context, but captures and re-attaches this sink (see run_worker).
        _obs.configure(sink=JsonlEventSink(args.telemetry),
                       component=f"worker-{os.getpid()}")
    try:
        executed = run_worker(config, on_task=report_task,
                              should_stop=stop.is_set)
    except (TimeoutError, ConnectionError) as exc:
        # No manifest in time, or a tcp:// broker that stayed unreachable
        # through the client's retries: a clean message, not a traceback.
        raise SystemExit(f"worker gave up: {exc}") from exc
    finally:
        if args.telemetry is not None:
            from . import obs as _obs
            _obs.finalize()
    if stop.is_set():
        print(f"worker stopped on SIGTERM: {executed} tasks executed")
    else:
        print(f"worker drained: {executed} tasks executed")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    import os

    if args.results is None and args.telemetry is None:
        raise SystemExit("repro report needs --results PATH and/or "
                         "--telemetry PATH")
    if args.parity and args.results is None:
        raise SystemExit("--parity needs --results PATH (the warehouse "
                         "holding the symbolic and bitflip campaigns)")
    if args.telemetry is not None:
        from .obs import read_events
        from .obs.report import format_telemetry_report
        if not os.path.exists(args.telemetry):
            raise SystemExit(f"telemetry log not found: {args.telemetry}")
        print(format_telemetry_report(read_events(args.telemetry)))
        if args.results is not None:
            print()
    if args.results is None:
        return 0

    from .results import SqliteResultStore, format_parity_report, format_report

    if not os.path.exists(args.results):
        raise SystemExit(f"results store not found: {args.results}")
    store = SqliteResultStore(args.results)
    try:
        if args.parity:
            print(format_parity_report(store))
        else:
            print(format_report(store, campaign_id=args.campaign))
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc)) from exc
    finally:
        store.close()
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    if not args.queue.startswith("tcp://"):
        raise SystemExit("repro top needs --queue tcp://HOST:PORT (the live "
                         "view polls a running 'repro broker')")
    return run_top(args.queue, interval=args.interval,
                   iterations=args.iterations, once=args.once,
                   prometheus=args.prometheus)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "analyze":
        return _command_analyze(args)
    if args.command == "concrete":
        return _command_concrete(args)
    if args.command == "broker":
        return _command_broker(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "top":
        return _command_top(args)
    if args.command == "bench":
        from .results.bench import run_bench
        return run_bench(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
