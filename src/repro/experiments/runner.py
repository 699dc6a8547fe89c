"""Command-line entry point for the repro.sim experiment layer.

Subcommands::

    pbs-experiments run all                    # every table and figure
    pbs-experiments run figure6 --scale 0.25 --seed 3 --json
    pbs-experiments sweep --workloads pi,dop --seeds 0,1,2,3 --processes 4
    pbs-experiments sweep --trace-store .pbs-traces --split-predictors ...
    pbs-experiments trace ls                   # captured traces
    pbs-experiments diff --tiers interp,compiled --programs 200
    pbs-experiments list workloads             # registry contents
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from ..sim import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    Sweep,
    engine_names,
    executor_names,
    predictor_names,
    workload_names,
)
from . import (
    ablations,
    accuracy,
    charts,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
    table2,
    table3,
)
from .common import simulate

EXPERIMENTS = {
    "figure1": figure1,
    "table1": table1,
    "table2": table2,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "table3": table3,
    "accuracy": accuracy,
    "ablations": ablations,
}


def _csv(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbs-experiments",
        description=(
            "Reproduce the tables and figures of 'Architectural Support "
            "for Probabilistic Branches' (MICRO 2018)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="regenerate one artefact (or 'all'), simulating the specs of "
             "every selected artefact as one sweep",
    )
    run_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artefact to regenerate",
    )
    run_parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="workload scale factor (1.0 = full default iterations)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=(
            "base random seed (figure9, table3 and accuracy use their "
            "own fixed seed sets)"
        ),
    )
    run_parser.add_argument(
        "--names",
        type=str,
        default=None,
        help=(
            "comma-separated benchmark subset (the ablations keep their "
            "own benchmarks)"
        ),
    )
    run_parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help=(
            "worker processes for the simulations of every selected "
            "artefact (a local process pool when above 1)"
        ),
    )
    run_parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="on-disk result cache directory (incremental re-runs)",
    )
    run_parser.add_argument(
        "--chart",
        action="store_true",
        help="render figure experiments as ASCII bar charts too",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit results as JSON instead of rendered tables",
    )
    run_parser.add_argument(
        "--engine", choices=engine_names(), default=None,
        help=(
            "execution tier for every simulation of the selected "
            "artefacts (default: compiled); tiers change speed, never "
            "results"
        ),
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a raw parameter grid through repro.sim.Sweep"
    )
    sweep_parser.add_argument(
        "--workloads", type=_csv, default=None,
        help="comma-separated benchmarks (default: all registered)",
    )
    sweep_parser.add_argument(
        "--scales", type=lambda s: [float(x) for x in _csv(s)],
        default=[DEFAULT_SCALE], help="comma-separated scale factors",
    )
    sweep_parser.add_argument(
        "--seeds", type=lambda s: [int(x) for x in _csv(s)],
        default=[DEFAULT_SEED], help="comma-separated seeds",
    )
    sweep_parser.add_argument(
        "--modes", type=_csv, default=["base", "pbs"],
        help="comma-separated modes from {base, pbs}",
    )
    sweep_parser.add_argument(
        "--predictors", type=_csv, default=None,
        help="comma-separated predictor names (default: paper baselines)",
    )
    sweep_parser.add_argument(
        "--processes", type=int, default=1, help="worker processes"
    )
    sweep_parser.add_argument(
        "--executor", choices=executor_names(), default=None,
        help=(
            "execution backend (default: pool, a local process pool "
            "closed when the sweep ends; serial when --processes is 1)"
        ),
    )
    sweep_parser.add_argument(
        "--coordinator", type=str, default=None, metavar="HOST:PORT",
        help=(
            "repro-coordinator address for --executor http "
            "(default: the REPRO_COORDINATOR environment variable)"
        ),
    )
    sweep_parser.add_argument(
        "--token", type=str, default=None, metavar="SECRET",
        help="shared secret for --coordinator (default: $REPRO_TOKEN)",
    )
    sweep_parser.add_argument(
        "--cache-dir", type=str, default=".pbs-cache",
        help="on-disk result cache (use '' to disable)",
    )
    sweep_parser.add_argument(
        "--trace-store", type=str, default=None, metavar="DIR",
        help=(
            "local trace store directory: each (workload, scale, seed, "
            "PBS-config) group replays its stored committed path, or is "
            "interpreted once and captured for a later sweep to replay "
            "(local executors only)"
        ),
    )
    sweep_parser.add_argument(
        "--split-predictors", action="store_true",
        help=(
            "one grid point per predictor instead of one point fanning "
            "out to all of them: finer cache granularity, and the points "
            "of one group still share one engine run"
        ),
    )
    sweep_parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed grid point to stderr",
    )
    sweep_parser.add_argument(
        "--stats-json", type=str, default=None, metavar="PATH",
        help=(
            "write a machine-readable run summary (specs, simulated, "
            "cache_hits, wall_time, executor, engine_used, "
            "compiled_hits) to PATH; '-' for stdout"
        ),
    )
    sweep_parser.add_argument(
        "--json", action="store_true",
        help="emit every RunResult as a JSON array",
    )
    sweep_parser.add_argument(
        "--engine", choices=engine_names(), default=None,
        help=(
            "execution tier for simulated grid points (default: "
            "compiled); tiers change speed, never results"
        ),
    )

    list_parser = subparsers.add_parser(
        "list", help="show registered workloads, predictors and artefacts"
    )
    list_parser.add_argument(
        "what",
        nargs="?",
        choices=["workloads", "predictors", "experiments", "analyses",
                 "engines", "all"],
        default="all",
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run trace-native analysis passes over stored traces "
             "(no Session, no re-interpretation)",
    )
    analyze_parser.add_argument(
        "digests", nargs="*", default=[],
        help="trace digests (or unique prefixes); default: every trace "
             "matching the selector options",
    )
    analyze_parser.add_argument(
        "--trace-store", type=str, default=".pbs-traces", metavar="DIR",
        help="trace store directory (default: .pbs-traces)",
    )
    analyze_parser.add_argument(
        "--passes", type=_csv, default=None,
        help="comma-separated analysis passes (default: all registered; "
             "see 'list analyses')",
    )
    analyze_parser.add_argument(
        "--predictors", type=_csv, default=None,
        help="predictor names for the mispredicts pass "
             "(default: paper baselines)",
    )
    analyze_parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows per per-branch table (0 = unlimited; default 20)",
    )
    analyze_parser.add_argument(
        "--workloads", type=_csv, default=None,
        help="sweep selector: only traces of these workloads",
    )
    analyze_parser.add_argument(
        "--scales", type=lambda s: [float(x) for x in _csv(s)], default=None,
        help="sweep selector: only traces at these scales",
    )
    analyze_parser.add_argument(
        "--seeds", type=lambda s: [int(x) for x in _csv(s)], default=None,
        help="sweep selector: only traces with these seeds",
    )
    analyze_parser.add_argument(
        "--modes", type=_csv, default=None,
        help="sweep selector: only traces in these modes {base, pbs}",
    )
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit the structured reports as a JSON array",
    )

    diff_parser = subparsers.add_parser(
        "diff",
        help="single-step lockstep differential run across execution "
             "tiers: fuzz generated programs (and optionally registered "
             "workloads), report the first divergence as a structured "
             "delta with a minimized reproducer",
    )
    diff_parser.add_argument(
        "--tiers", type=_csv, default=["interp", "compiled"],
        help="comma-separated tiers to co-execute (interp, compiled; "
             "default: interp,compiled); the first is the reference",
    )
    diff_parser.add_argument(
        "--programs", type=int, default=50, metavar="N",
        help="number of generated programs to lockstep (default 50)",
    )
    diff_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; program i uses seed + i (default 0)",
    )
    diff_parser.add_argument(
        "--stride", type=int, default=1,
        help="retired-count barrier stride; >1 runs coarse then refines "
             "any hit to step-exact (default 1)",
    )
    diff_parser.add_argument(
        "--max-instructions", type=int, default=None, metavar="LIMIT",
        help="per-tier instruction limit (default: the diff harness "
             "default); limit faults must also match across tiers",
    )
    diff_parser.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without minimizing the program",
    )
    diff_parser.add_argument(
        "--predictor", type=str, default=None, metavar="NAME",
        help="sink-attached lockstep: ride a fresh harness of this "
             "registered predictor on every tier and compare the "
             "batch-fed tally at each barrier",
    )
    diff_parser.add_argument(
        "--workloads", type=_csv, default=None,
        help="also lockstep these registered workloads ('all' = every "
             "one) at --scale",
    )
    diff_parser.add_argument(
        "--scale", type=float, default=0.02,
        help="workload scale for --workloads lockstep (default 0.02)",
    )
    diff_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect and maintain a committed-path trace store"
    )
    trace_parser.add_argument(
        "action", choices=["ls", "info", "gc"],
        help="ls: list traces; info: one trace's metadata; gc: drop "
             "unreadable/stale traces (--all clears the store)",
    )
    trace_parser.add_argument(
        "digest", nargs="?", default=None,
        help="trace digest (or unique prefix) for 'info'",
    )
    trace_parser.add_argument(
        "--trace-store", type=str, default=".pbs-traces", metavar="DIR",
        help="trace store directory (default: .pbs-traces)",
    )
    trace_parser.add_argument(
        "--all", action="store_true",
        help="with gc: remove every trace, not just stale ones",
    )
    trace_parser.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="with gc: evict least-recently-used traces until the store "
             "fits SIZE (e.g. 500000, 64M, 2G)",
    )
    trace_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table",
    )
    return parser


def _cmd_run(args) -> int:
    selected = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    names = _csv(args.names) if args.names else None
    # Every artefact's specs run as one sweep: a spec two artefacts share
    # is simulated once, and the cache, pool and tier reach all of them.
    specs = [
        spec
        for key in selected
        for spec in EXPERIMENTS[key].specs(args.scale, args.seed, names)
    ]
    if args.engine:
        specs = [replace(spec, engine=args.engine) for spec in specs]
    runs = simulate(specs, processes=args.processes, cache_dir=args.cache_dir)
    sweep = runs.sweep
    print(
        f"[{len(specs)} specs, {len(sweep)} distinct: {sweep.simulated} "
        f"simulated, {sweep.cache_hits} from cache, {sweep.wall_time:.1f}s]",
        file=sys.stderr,
    )
    collected = []
    for key in selected:
        started = time.time()
        outcome = EXPERIMENTS[key].reduce(runs, args.scale, args.seed, names)
        results = outcome if isinstance(outcome, list) else [outcome]
        elapsed = time.time() - started
        if args.json:
            collected.extend(
                {"experiment": key, **result.to_dict()} for result in results
            )
        else:
            for result in results:
                print(result.render())
                print()
                if args.chart and key in charts.FIGURE_COLUMNS:
                    print(charts.chart_for(result, charts.FIGURE_COLUMNS[key]))
                    print()
        print(f"[{key} reduced in {elapsed:.1f}s]", file=sys.stderr)
    if args.json:
        print(json.dumps(collected, indent=2))
    return 0


def _resolve_executor(args):
    """Resolve ``--executor/--coordinator/--token`` to an executor
    argument for ``run()``.

    Returns ``(executor, owned)`` where ``executor`` is a name, an
    instance, or ``None`` (the backend default), and ``owned`` is the
    instance the *caller* must close (``None`` for by-name backends,
    which ``run()`` closes itself).
    """
    executor = args.executor
    if not (args.coordinator or executor == "http"):
        return executor, None
    if executor not in (None, "http"):
        raise SystemExit(
            f"--coordinator only applies to --executor http, not {executor!r}"
        )
    from ..sim import HttpExecutor

    try:
        owned = HttpExecutor(coordinator=args.coordinator, token=args.token)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return owned, owned


def _cmd_sweep(args) -> int:
    sweep = Sweep(
        workloads=args.workloads,
        scales=args.scales,
        seeds=args.seeds,
        modes=args.modes,
        predictors=args.predictors,
        cache_dir=args.cache_dir or None,
        trace_dir=args.trace_store or None,
        split_predictors=args.split_predictors,
        engine=args.engine,
    )
    on_result = None
    if args.progress:
        total = len(sweep.specs())
        done = {"count": 0}

        def on_result(spec, result):
            done["count"] += 1
            if result.cached:
                origin = "cache"
            elif result.trace_origin == "replay":
                origin = f"replay {result.wall_time:.1f}s"
            else:
                origin = f"{result.wall_time:.1f}s"
            print(
                f"[{done['count']}/{total}] {spec.workload} "
                f"scale={spec.scale:g} seed={spec.seed} {spec.mode} "
                f"[{origin}]",
                file=sys.stderr,
            )

    if args.trace_store and (args.coordinator or args.executor == "http"):
        raise SystemExit(
            "--trace-store needs a local executor: trace stores are "
            "local and traces never cross the wire"
        )
    executor, owned = _resolve_executor(args)
    try:
        results = sweep.run(
            processes=args.processes,
            executor=executor,
            on_result=on_result,
        )
    finally:
        if owned is not None:
            owned.close()
            if args.progress:
                for label, stats in sorted(owned.telemetry.items()):
                    print(f"[{label}] " + "  ".join(
                        f"{key}={value}" for key, value in stats.items()
                    ), file=sys.stderr)
    if args.stats_json:
        payload = json.dumps(results.to_stats(), indent=2, sort_keys=True)
        if args.stats_json == "-":
            print(payload)
        else:
            with open(args.stats_json, "w") as handle:
                handle.write(payload + "\n")
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2))
    else:
        for result in results:
            mode = "pbs" if result.pbs else "base"
            mpki = "  ".join(
                f"{name}={metrics.mpki:.3f}"
                for name, metrics in result.predictors.items()
            )
            origin = "cache" if result.cached else f"{result.wall_time:.1f}s"
            print(
                f"{result.workload:10s} scale={result.scale:<5g} "
                f"seed={result.seed:<3d} {mode:4s}  mpki: {mpki}  [{origin}]"
            )
    trace_note = ""
    if results.trace_captures or results.trace_hits:
        trace_note = (
            f" ({results.trace_captures} from captures, "
            f"{results.trace_hits} from replays)"
        )
    engine_note = ""
    if results.engine_used:
        tiers = ", ".join(
            f"{count} {name}"
            for name, count in sorted(results.engine_used.items())
        )
        engine_note = f", tiers: {tiers}"
    print(
        f"[{len(results)} runs: {results.simulated} simulated{trace_note}, "
        f"{results.cache_hits} from cache{engine_note}, "
        f"{results.wall_time:.1f}s]",
        file=sys.stderr,
    )
    return 0


def _render_report(report) -> str:
    """Human rendering of one analyze report (``--json`` skips this)."""
    lines = [
        f"trace {report['digest'][:12]}  {report['workload']} "
        f"scale={report['scale']:g} seed={report['seed']} {report['mode']}  "
        f"({report['events']} events)"
    ]
    analyses = report["analyses"]
    mix = analyses.get("instruction-mix")
    if mix:
        top = sorted(
            mix["by_class"].items(), key=lambda kv: -kv[1]["count"]
        )[:4]
        classes = "  ".join(
            f"{name} {data['fraction'] * 100:.1f}%" for name, data in top
        )
        branches = mix["branches"]
        lines.append(
            f"  instruction-mix : {classes}"
        )
        lines.append(
            f"                    {branches['conditional']} cond branches "
            f"({branches['probabilistic']} probabilistic, "
            f"taken rate {branches['taken_rate']:.3f}), "
            f"{mix['memory']['loads']}+{mix['memory']['stores']} ld/st"
        )
    entropy = analyses.get("branch-entropy")
    if entropy:
        overall, prob = entropy["overall"], entropy["probabilistic"]
        lines.append(
            f"  branch-entropy  : {overall['sites']} sites, "
            f"{overall['bits_per_execution']:.3f} bits/execution "
            f"(probabilistic sites: {prob['bits_per_execution']:.3f})"
        )
        for row in entropy["per_branch"][:3]:
            kind = "prob" if row["probabilistic"] else "reg"
            lines.append(
                f"      pc={row['pc']:<5d} {kind:4s} x{row['executions']:<8d} "
                f"p(taken)={row['taken_rate']:.3f}  "
                f"{row['entropy_bits']:.3f} bits"
            )
    rates = analyses.get("taken-rate")
    if rates:
        lines.append(
            f"  taken-rate      : sites/bin {rates['by_site']}"
        )
    mispredicts = analyses.get("mispredicts")
    if mispredicts:
        for name, data in mispredicts.items():
            lines.append(
                f"  mispredicts     : {name}: mpki {data['mpki']:.3f} "
                f"({data['regular_mispredicts']} regular + "
                f"{data['prob_mispredicts']} probabilistic)"
            )
            for row in data["per_branch"][:3]:
                lines.append(
                    f"      pc={row['pc']:<5d} {row['mispredicts']}/"
                    f"{row['executions']} "
                    f"({row['mispredict_rate'] * 100:.1f}%)"
                )
    working_set = analyses.get("working-set")
    if working_set and working_set["accesses"]:
        lines.append(
            f"  working-set     : {working_set['unique_addresses']} unique "
            f"addresses ({working_set['unique_written']} written), "
            f"{working_set['loads']} loads / {working_set['stores']} stores"
        )
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    from pathlib import Path

    from ..analysis import analysis_names, analyze_store

    if not Path(args.trace_store).is_dir():
        raise SystemExit(f"no trace store at {args.trace_store!r}")
    passes = args.passes or analysis_names()
    unknown = sorted(set(passes) - set(analysis_names()))
    if unknown:
        raise SystemExit(
            f"unknown analysis passes {', '.join(unknown)}; "
            f"registered: {', '.join(analysis_names())}"
        )
    top = None if args.top == 0 else args.top
    options = {}
    if "mispredicts" in passes:
        options["mispredicts"] = {"predictors": args.predictors, "top": top}
    if "branch-entropy" in passes:
        options["branch-entropy"] = {"top": top}
    selector = {}
    if args.workloads:
        selector["workload"] = args.workloads
    if args.scales:
        selector["scale"] = args.scales
    if args.seeds:
        selector["seed"] = args.seeds
    if args.modes:
        selector["mode"] = args.modes
    try:
        reports = analyze_store(
            args.trace_store,
            digests=args.digests or None,
            passes=passes,
            selector=selector or None,
            **options,
        )
    except LookupError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0
    if not reports:
        print(f"(no traces match in {args.trace_store})")
        return 0
    for report in reports:
        print(_render_report(report))
        print()
    print(f"[{len(reports)} traces analyzed from {args.trace_store}]",
          file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from ..trace import TraceStore, read_meta

    if not Path(args.trace_store).is_dir():
        # Creating stores is the sweep's job; an inspection command on a
        # missing path is almost certainly a typo, not a request for an
        # empty directory.
        raise SystemExit(f"no trace store at {args.trace_store!r}")
    store = TraceStore(args.trace_store)
    if args.action == "ls":
        entries = [store.entry(digest) or {"digest": digest}
                   for digest in store.digests()]
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
            return 0
        if not entries:
            print(f"(no traces in {store.root})")
            return 0
        print(f"{'digest':12s}  {'workload':10s} {'scale':>6s} {'seed':>4s} "
              f"{'mode':4s} {'events':>10s} {'bytes':>10s}")
        total_bytes = 0
        for entry in entries:
            total_bytes += entry.get("bytes") or 0
            print(
                f"{entry['digest'][:12]:12s}  "
                f"{str(entry.get('workload', '?')):10s} "
                f"{str(entry.get('scale', '?')):>6s} "
                f"{str(entry.get('seed', '?')):>4s} "
                f"{str(entry.get('mode', '?')):4s} "
                f"{str(entry.get('events', '?')):>10s} "
                f"{str(entry.get('bytes', '?')):>10s}"
            )
        print(f"[{len(entries)} traces, {total_bytes} bytes in {store.root}]",
              file=sys.stderr)
        return 0
    if args.action == "info":
        if not args.digest:
            raise SystemExit("trace info needs a digest (see 'trace ls')")
        matches = store.digests(args.digest)
        if len(matches) != 1:
            raise SystemExit(
                f"{len(matches)} traces match {args.digest!r}; "
                "need a unique digest prefix"
            )
        digest = matches[0]
        meta = read_meta(store.path(digest))
        if meta is None:
            raise SystemExit(f"trace {digest} is unreadable (try 'trace gc')")
        consumed = meta.pop("consumed_values", None)
        info = {
            "digest": digest,
            "path": str(store.path(digest)),
            "bytes": store.path(digest).stat().st_size,
            "consumed_values": len(consumed or []),
            **meta,
        }
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    # gc
    max_bytes = None
    if args.max_bytes is not None:
        from ..storage import parse_size

        try:
            max_bytes = parse_size(args.max_bytes)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    summary = store.gc(clear=args.all, max_bytes=max_bytes)
    print(json.dumps(summary, indent=2, sort_keys=True) if args.json else
          f"[gc: removed {summary['removed']}, evicted {summary['evicted']}, "
          f"kept {summary['kept']}, "
          f"reclaimed {summary['reclaimed_bytes']} bytes]")
    return 0


def _cmd_diff(args) -> int:
    from ..diff import (
        DIFF_MAX_INSTRUCTIONS,
        STEPPERS,
        build_program,
        diff_tiers,
        generate,
        shrink,
    )

    unknown = [t for t in args.tiers if t not in STEPPERS]
    if unknown:
        print(f"error: unknown tier(s) {', '.join(unknown)}; "
              f"known: {', '.join(sorted(STEPPERS))}", file=sys.stderr)
        return 2
    if len(args.tiers) < 2:
        print("error: --tiers needs at least two tiers", file=sys.stderr)
        return 2
    limit = args.max_instructions or DIFF_MAX_INSTRUCTIONS
    divergences = []
    checked = 0

    def run_case(program, seed):
        nonlocal checked
        checked += 1
        return diff_tiers(
            program, args.tiers, seed=seed,
            max_instructions=limit, stride=args.stride,
            predictor=args.predictor,
        )

    for index in range(args.programs):
        seed = args.seed + index
        gen = generate(seed)
        divergence = run_case(build_program(gen), seed)
        if divergence is None:
            continue
        entry = {
            "seed": seed,
            "divergence": divergence.to_dict(),
            "minimized": None,
        }
        if not args.no_shrink:
            def still_diverges(candidate):
                return diff_tiers(
                    build_program(candidate), args.tiers, seed=seed,
                    max_instructions=limit,
                    predictor=args.predictor,
                ) is not None

            small, attempts = shrink(gen, still_diverges)
            minimized = diff_tiers(
                build_program(small), args.tiers, seed=seed,
                max_instructions=limit,
                predictor=args.predictor,
            )
            entry["minimized"] = {
                "iters": small.iters,
                "macros": [list(m) for m in small.body],
                "shrink_attempts": attempts,
                "divergence": (
                    minimized.to_dict() if minimized is not None else None
                ),
            }
        divergences.append(entry)
        if not args.json:
            print(divergence.summary())

    workload_reports = []
    if args.workloads:
        names = (
            workload_names() if args.workloads == ["all"] else args.workloads
        )
        from ..sim import get_workload

        for name in names:
            program = get_workload(name).build(args.scale)
            divergence = run_case(program, args.seed)
            workload_reports.append({
                "workload": name,
                "tiers": list(args.tiers),
                "divergence": (
                    divergence.to_dict() if divergence is not None else None
                ),
            })
            if divergence is not None:
                divergences.append({
                    "workload": name,
                    "divergence": divergence.to_dict(),
                    "minimized": None,
                })
                if not args.json:
                    print(divergence.summary())

    report = {
        "programs": args.programs,
        "checked": checked,
        "tiers": list(args.tiers),
        "stride": args.stride,
        "predictor": args.predictor,
        "workloads": workload_reports,
        "divergences": divergences,
        "ok": not divergences,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        verdict = "OK" if report["ok"] else "DIVERGED"
        print(
            f"{verdict}: {checked} lockstep runs over "
            f"{','.join(args.tiers)} ({len(divergences)} divergence(s))"
        )
    return 0 if report["ok"] else 1


def _cmd_list(args) -> int:
    sections = []
    if args.what in ("workloads", "all"):
        sections.append(("workloads", workload_names()))
    if args.what in ("predictors", "all"):
        sections.append(("predictors", predictor_names()))
    if args.what in ("experiments", "all"):
        sections.append(("experiments", sorted(EXPERIMENTS)))
    if args.what in ("analyses", "all"):
        from ..analysis import analysis_names

        sections.append(("analyses", analysis_names()))
    if args.what in ("engines", "all"):
        sections.append(("engines", engine_names()))
    for title, names in sections:
        print(f"{title}:")
        for name in names:
            print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "stats_json", None) == "-" and getattr(args, "json", False):
        # Both want stdout as one parseable document.
        parser.error("--stats-json - cannot be combined with --json; "
                     "write the stats to a file instead")
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return _cmd_list(args)


if __name__ == "__main__":
    sys.exit(main())
