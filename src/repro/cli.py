"""Command-line interface.

Examples::

    repro-sim run mp3d --protocol AD --consistency SC
    repro-sim compare water --preset tiny --workers 2
    repro-sim table1
    repro-sim figure5 --preset tiny --stats-json cache-stats.json
    repro-sim report --preset default --workers 4
    repro-sim bench --quick
    repro-sim trace mp3d --protocol AD --perfetto trace.json --metrics m.csv
    repro-sim sharing migratory-counters
    repro-sim chaos mp3d --intensities 0,0.5 --preset tiny
    repro-sim serve --port 8787 --workers 4
    repro-sim cache stats
    repro-sim list

Sweep-shaped commands (run / figure5 / report) consult the persistent
content-addressed result cache (``.repro-cache`` or ``$REPRO_SIM_CACHE``)
before simulating; ``--no-cache`` forces recomputation and ``--cache-dir``
points at an alternate store.  ``repro-sim bench`` never uses the cache —
it measures the simulator.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.consistency.models import model_by_name
from repro.core.policy import ProtocolPolicy
from repro.experiments import (
    compare_protocols,
    measure_table1,
    render_table1,
    run_workload,
)
from repro.stats.report import format_table, full_report
from repro.workloads import PRESETS, WORKLOADS


def _policy_by_name(name: str) -> ProtocolPolicy:
    from repro.protocols import available_protocols, policy_for

    try:
        return policy_for(name)
    except KeyError:
        choices = sorted(
            p.upper() for p in available_protocols()
        ) + ["AD-RXQ", "AD-NONOMIG"]
        raise SystemExit(
            f"unknown protocol {name!r}; choose from {choices}"
        ) from None


def _open_store(args: argparse.Namespace):
    """The result store the command should use (None = caching off)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.experiments.store import ResultStore, default_cache_dir

    return ResultStore(getattr(args, "cache_dir", None) or default_cache_dir())


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate; do not consult or populate "
                             "the result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache root (default .repro-cache, or "
                             "$REPRO_SIM_CACHE)")


def _print_cache_summary(store) -> None:
    stats = store.stats
    print(f"result cache: {stats.hits} hits / {stats.misses} misses "
          f"({stats.hit_rate:.0%} hit rate, {stats.stores} stored, "
          f"{stats.corrupt} corrupt evicted) in {store.root}")


def _cmd_run(args: argparse.Namespace) -> int:
    cache_note = "disabled"
    if args.trace:
        # Tracing wants the live machine (span artifacts are not cached).
        result = run_workload(
            args.workload,
            _policy_by_name(args.protocol),
            preset=args.preset,
            consistency=model_by_name(args.consistency),
            check_coherence=not args.no_check,
            seed=args.seed,
            trace=True,
        )
    else:
        from repro.experiments.parallel import RunSpec, execute_spec

        spec = RunSpec.make(
            args.workload,
            _policy_by_name(args.protocol),
            preset=args.preset,
            consistency=model_by_name(args.consistency),
            check_coherence=not args.no_check,
            seed=args.seed,
        )
        store = _open_store(args)
        outcome = store.fetch(spec) if store is not None else None
        if outcome is not None:
            cache_note = "hit (fingerprint verified)"
        else:
            outcome = execute_spec(spec)
            if store is not None and outcome.ok:
                store.put(outcome)
                cache_note = "miss (stored)"
        result = outcome.unwrap()
    breakdown = result.aggregate_breakdown
    fractions = breakdown.fractions()
    print(f"workload:        {args.workload} (preset {args.preset})")
    print(f"protocol:        {result.policy_name} / {result.consistency_name}")
    print(f"execution time:  {result.execution_time} pclocks")
    print(
        "time breakdown:  "
        + "  ".join(f"{k}={v:.1%}" for k, v in fractions.items())
    )
    print(f"network traffic: {result.network_bits} bits "
          f"({result.network_messages} messages)")
    for counter in (
        "read_misses", "write_misses", "write_upgrades", "rxq_received",
        "invalidations_sent", "nominations", "migratory_reads",
        "migrating_promotions", "nomig_reverts", "writebacks", "naks",
    ):
        print(f"  {counter:<22}{result.counter(counter)}")
    # Protocol-family counters (MESI / Dragon / Hybrid) only appear when
    # they fired, keeping the W-I/AD output unchanged.
    for counter in (
        "exclusive_grants", "wu_received", "updates_sent",
        "updates_applied", "uacks_sent", "update_fallbacks",
    ):
        if result.counter(counter):
            print(f"  {counter:<22}{result.counter(counter)}")
    if result.latency is not None:
        from repro.obs import render_latency_summary

        print()
        print(render_latency_summary(result.latency))
    print(f"result cache:    {cache_note}")
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    """Run the Figure 5 sweep (optionally cached) and print the chart.

    Every finished cell lands in the store, so an interrupted sweep
    resumes by rerunning the same command: only the cells the store does
    not already hold are simulated.  ``--backend serve`` executes cold
    cells on a remote daemon instead of local processes.
    """
    import json

    from repro.experiments import render_figure5, run_figure5

    store = _open_store(args)
    run_kwargs = {}
    if args.timeout is not None:
        run_kwargs["timeout"] = args.timeout
    if args.backend != "local":
        run_kwargs["backend"] = args.backend
        run_kwargs["serve_url"] = args.serve_url
    try:
        rows = run_figure5(
            preset=args.preset,
            check_coherence=not args.no_check,
            workers=args.workers,
            store=store,
            **run_kwargs,
        )
    except KeyboardInterrupt:
        if store is None:
            print("\ninterrupted; the cache is off, so a rerun starts over")
        else:
            held = store.stats.hits + store.stats.stores
            print(f"\ninterrupted: the result cache at {store.root} holds "
                  f"{held} cell(s) of this sweep; rerun the same command "
                  f"to resume")
        return 130
    print(render_figure5(rows))
    if store is not None:
        print()
        _print_cache_summary(store)
        if args.stats_json:
            with open(args.stats_json, "w") as handle:
                json.dump(store.summary(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.stats_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the experiment job-queue daemon until interrupted."""
    import asyncio

    from repro.experiments.parallel import default_workers
    from repro.experiments.store import ResultStore, default_cache_dir
    from repro.serve.faults import ServeFaultPlan
    from repro.serve.server import run_server

    if getattr(args, "log", None):
        import os

        from repro.obs.log import LOG_ENV, configure_from_env

        # Export so worker processes (fork or spawn) log with the same
        # sink — correlation ids only pay off if all three tiers emit.
        os.environ[LOG_ENV] = args.log
        configure_from_env(args.log)
    store = ResultStore(args.cache_dir or default_cache_dir())
    workers = args.workers if args.workers else default_workers()
    faults = None
    if args.fault_kills:
        # Chaos mode: deterministic worker kills to exercise the daemon's
        # own recovery path (CI smoke uses it).
        faults = ServeFaultPlan(
            seed=args.fault_seed, kill_fraction=1.0, max_kills=args.fault_kills,
        )
    try:
        asyncio.run(run_server(
            store, workers=workers, host=args.host, port=args.port,
            cell_timeout=args.cell_timeout, max_attempts=args.max_attempts,
            faults=faults,
        ))
    except (KeyboardInterrupt, asyncio.CancelledError):  # Ctrl-C or SIGTERM
        print("\nshutting down")
    return 0


def _parse_size(text: str) -> int:
    """'64M', '2G', '100K', '512', '1.5g' -> bytes."""
    raw = text.strip().upper().rstrip("B")
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3, "T": 1024 ** 4}
    factor = 1
    if raw and raw[-1] in units:
        factor = units[raw[-1]]
        raw = raw[:-1]
    try:
        return int(float(raw) * factor)
    except ValueError:
        raise SystemExit(
            f"bad size {text!r}: expected e.g. 512, 100K, 64M, 2G"
        ) from None


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, prune, or clear the persistent result cache."""
    import json

    from repro.experiments.store import ResultStore, default_cache_dir

    store = ResultStore(args.cache_dir or default_cache_dir())
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached results from {store.root}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            raise SystemExit("cache prune needs --max-bytes (e.g. 64M)")
        report = store.prune(_parse_size(args.max_bytes))
        print(f"evicted {report['evicted']} least-recently-fetched entries "
              f"({store.stats.evicted_bytes} bytes); "
              f"{report['remaining_entries']} entries / "
              f"{report['remaining_bytes']} bytes remain in {store.root}")
        return 0
    print(json.dumps(store.summary(), indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one workload with span tracing on and export the artifacts."""
    import json

    from repro.machine.config import MachineConfig
    from repro.machine.system import Machine
    from repro.obs import (
        render_latency_summary,
        spans_to_json,
        validate_trace_events,
        write_chrome_trace,
    )
    from repro.workloads import make_workload

    want_metrics = bool(args.metrics or args.perfetto)
    config = MachineConfig.dash_default(
        policy=_policy_by_name(args.protocol),
        consistency=model_by_name(args.consistency),
        check_coherence=not args.no_check,
        trace=True,
        trace_max_spans=args.max_spans,
        metrics_interval=args.metrics_interval if want_metrics else None,
    )
    machine = Machine(config)
    workload = make_workload(args.workload, config.num_nodes, args.preset,
                             seed=args.seed)
    result = machine.run(workload.programs())
    tracer = machine.tracer
    print(f"workload:        {args.workload} (preset {args.preset}, "
          f"seed {args.seed})")
    print(f"protocol:        {result.policy_name} / {result.consistency_name}")
    print(f"execution time:  {result.execution_time} pclocks")
    print()
    print(render_latency_summary(tracer.summary()))
    ring = machine.metrics.ring if machine.metrics is not None else None
    if args.perfetto:
        doc = write_chrome_trace(tracer, args.perfetto, metrics=ring)
        events = validate_trace_events(doc)
        print(f"\nwrote {args.perfetto} ({events} trace events; open at "
              "https://ui.perfetto.dev)")
    if args.spans:
        with open(args.spans, "w") as handle:
            json.dump(spans_to_json(tracer), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.spans} ({len(tracer.spans)} spans)")
    if args.metrics:
        if args.metrics.endswith(".json"):
            ring.write_json(args.metrics)
        else:
            ring.write_csv(args.metrics)
        print(f"wrote {args.metrics} ({len(ring)} samples, "
              f"{ring.dropped} dropped)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    policies = None
    if args.protocols:
        names = [n.strip() for n in args.protocols.split(",") if n.strip()]
        if len(names) < 2:
            raise SystemExit("--protocols needs at least two comma-separated "
                             "protocol names")
        policies = [_policy_by_name(n) for n in names]
    comparison = compare_protocols(
        args.workload,
        preset=args.preset,
        consistency=model_by_name(args.consistency),
        check_coherence=not args.no_check,
        workers=args.workers,
        policies=policies,
    )
    results = comparison.results
    rows = [
        ("execution time (pclocks)",
         *[r.execution_time for r in results.values()]),
        ("read-exclusive requests",
         *[r.counter("rxq_received") for r in results.values()]),
        ("network bits", *[r.network_bits for r in results.values()]),
        ("invalidations sent",
         *[r.counter("invalidations_sent") for r in results.values()]),
        ("updates sent",
         *[r.counter("updates_sent") for r in results.values()]),
        ("write stall (pclocks)",
         *[r.aggregate_breakdown.write_stall for r in results.values()]),
    ]
    print(format_table(("metric", *results), rows))
    print()
    base, contender = comparison.wi.policy_name, comparison.ad.policy_name
    pair = f"({base}/{contender})"
    print(f"execution-time ratio {pair:<9} {comparison.execution_time_ratio:.2f}")
    print(f"read-exclusive reduction:      {comparison.rx_reduction:.1%}")
    print(f"traffic reduction:             {comparison.traffic_reduction:.1%}")
    print(f"write-penalty reduction:       {comparison.write_penalty_reduction:.1%}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1(measure_table1()))
    return 0


def _cmd_sharing(args: argparse.Namespace) -> int:
    """Per-block sharing-pattern census + invalidation histogram."""
    from repro.machine.config import MachineConfig
    from repro.machine.system import Machine
    from repro.stats.sharing_profile import invalidation_profile, render_profile
    from repro.workloads import make_workload

    config = MachineConfig.dash_default(
        policy=_policy_by_name(args.protocol),
        consistency=model_by_name(args.consistency),
        profile_blocks=True,
        check_coherence=not args.no_check,
    )
    machine = Machine(config)
    workload = make_workload(args.workload, config.num_nodes, args.preset)
    result = machine.run(workload.programs())
    print(machine.block_profiler.render())
    print()
    print(render_profile(args.workload, invalidation_profile(result)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Exhaustively model-check the protocol."""
    from repro.verify import ProtocolModel, explore

    policy = _policy_by_name(args.protocol)
    model = ProtocolModel(num_caches=args.caches, ops=args.ops, policy=policy)
    result = explore(model)
    print(f"protocol {policy.name}: {result.summary()}")
    print("all invariants held in every reachable state")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(
        full_report(
            preset=args.preset,
            check_coherence=not args.no_check,
            workers=args.workers,
            store=_open_store(args),
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf bench suite and write a BENCH_<date>.json snapshot."""
    import os

    from repro.fastpath import fast_path_variant

    variant = fast_path_variant()
    if args.fast_path == "on" and variant != "compiled":
        print(
            f"error: --fast-path on requested but the compiled fast path is "
            f"not fully active (variant: {variant}).  Build it with "
            f"REPRO_BUILD_FAST=1 pip install '.[fast]'.",
            file=sys.stderr,
        )
        return 2
    if args.fast_path == "off" and variant != "pure":
        # Compiled extensions are already imported in this process, so
        # forcing the pure path needs a fresh interpreter: re-exec with
        # REPRO_FORCE_PURE=1 (inherited by any bench worker processes).
        env = dict(os.environ)
        env["REPRO_FORCE_PURE"] = "1"
        os.execve(
            sys.executable,
            [sys.executable, "-m", "repro.cli"] + sys.argv[1:],
            env,
        )
    from repro.experiments.bench import (
        compare_bench_results,
        diff_bench,
        host_warnings,
        load_bench,
        render_bench,
        run_bench_suite,
        timing_regressions,
        write_bench,
    )

    # Load the baseline *before* running: the default output path is
    # BENCH_<today>.json, which can collide with --against on the day a
    # baseline was captured — writing first would gate new-vs-new.
    baseline = load_bench(args.against) if args.against else None
    doc = run_bench_suite(
        preset="tiny" if args.quick else args.preset, workers=args.workers
    )
    print(render_bench(doc))
    target = write_bench(doc, path=args.output)
    print(f"\nwrote {target}")
    # None = serial-only snapshot (1-CPU host skipped the parallel pass);
    # only an actual divergence fails the gate.
    ok = doc["parallel_matches_serial"] is not False
    if baseline is not None:
        print()
        print(diff_bench(baseline, doc))
        # Snapshots from a different host are still gate-worthy on
        # *results* (they're host-independent), but their timings are
        # apples-to-oranges — warn instead of silently diffing them.
        for warning in host_warnings(baseline, doc):
            print(f"  host mismatch: {warning}")
        # Soft gate: timing deltas above only inform; *simulation results*
        # (execution times, event counts, counters) must match exactly.
        mismatches = compare_bench_results(baseline, doc)
        if mismatches:
            ok = False
            print(f"\nRESULT MISMATCH vs {args.against}:")
            for line in mismatches:
                print(f"  {line}")
        else:
            print(f"\nsimulation results identical to {args.against}")
        # Optional hard gate on wall-time drift (off by default: timing
        # is host-dependent, so the diff above only informs unless the
        # caller names a threshold).
        if args.tolerance is not None:
            slow = timing_regressions(baseline, doc, args.tolerance)
            if slow:
                ok = False
                print(f"\nTIMING REGRESSION vs {args.against} "
                      f"(tolerance {args.tolerance:.0%}):")
                for line in slow:
                    print(f"  {line}")
            else:
                print(f"wall times within {args.tolerance:.0%} of "
                      f"{args.against}")
    return 0 if ok else 1


def _cmd_bus(args: argparse.Namespace) -> int:
    """Run a workload on the bus-based snoopy machine (Section 6)."""
    from repro.snoopy import SnoopyConfig, SnoopyMachine
    from repro.workloads import make_workload

    policy = _policy_by_name(args.protocol)
    config = SnoopyConfig(
        num_processors=args.processors,
        policy=policy,
        protocol=args.base,
        check_coherence=not args.no_check,
    )
    machine = SnoopyMachine(config)
    workload = make_workload(args.workload, args.processors, args.preset)
    result = machine.run(workload.programs())
    print(f"workload:         {args.workload} on {args.processors}-way bus")
    print(f"protocol:         {args.base} / {policy.name}")
    print(f"execution time:   {result.execution_time} pclocks")
    print(f"bus transactions: {result.bus_transactions}")
    print(f"bus traffic:      {result.bus_bits} bits")
    print(f"bus utilization:  {result.bus_utilization:.1%}")
    for counter in ("rxq_received", "nominations", "migrating_promotions",
                    "updates_broadcast"):
        print(f"  {counter:<22}{result.counter(counter)}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection sweep: survival matrix across intensities."""
    import json

    from repro.experiments.chaos import DEFAULT_WORKLOADS, run_chaos

    for name in args.workloads:
        if name not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
            )
    try:
        intensities = [float(x) for x in args.intensities.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(
            f"--intensities must be comma-separated floats, got "
            f"{args.intensities!r}"
        ) from None
    policies = None
    if args.protocols:
        policies = [
            _policy_by_name(n)
            for n in args.protocols.split(",")
            if n.strip()
        ]
    report = run_chaos(
        args.workloads or DEFAULT_WORKLOADS,
        intensities,
        preset=args.preset,
        seed=args.seed,
        watchdog=args.watchdog,
        workers=args.workers,
        check_coherence=not args.no_check,
        policies=policies,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.all_ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(WORKLOADS):
        presets = ", ".join(sorted(PRESETS.get(name, {"default": {}}))) or "default"
        rows.append((name, presets))
    print(format_table(("workload", "presets"), rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction of 'An Adaptive Cache Coherence Protocol Optimized "
            "for Migratory Sharing' (ISCA 1993)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload under one protocol")
    run_p.add_argument("workload", choices=sorted(WORKLOADS))
    run_p.add_argument("--protocol", default="AD")
    run_p.add_argument("--consistency", default="SC")
    run_p.add_argument("--preset", default="default")
    run_p.add_argument("--seed", type=int, default=42,
                       help="workload seed (part of the cache key)")
    run_p.add_argument("--no-check", action="store_true",
                       help="disable coherence invariant checking")
    run_p.add_argument("--trace", action="store_true",
                       help="trace every miss and print the latency "
                            "attribution summary (bypasses the cache)")
    _add_cache_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    fig5_p = sub.add_parser(
        "figure5",
        help="run the Figure 5 sweep through the result cache",
    )
    fig5_p.add_argument("--preset", default="default")
    fig5_p.add_argument("--no-check", action="store_true")
    fig5_p.add_argument("--workers", type=int, default=1,
                        help="worker processes for cold cells (default 1)")
    fig5_p.add_argument("--stats-json", default=None, metavar="STATS_JSON",
                        help="write cache hit/miss stats + store summary "
                             "as JSON (CI warm-cache gate reads this)")
    fig5_p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-cell wall-clock deadline (pooled runs); "
                             "a stuck cell fails as CellTimeout instead of "
                             "hanging the sweep")
    fig5_p.add_argument("--backend", choices=("local", "serve"),
                        default="local",
                        help="where cold cells execute: this host's "
                             "processes, or a repro-sim serve daemon "
                             "(falls back to local if unreachable)")
    fig5_p.add_argument("--serve-url", default=None, metavar="URL",
                        help="daemon URL for --backend serve (default "
                             "$REPRO_SIM_SERVE or http://127.0.0.1:8787)")
    _add_cache_args(fig5_p)
    fig5_p.set_defaults(func=_cmd_figure5)

    trace_p = sub.add_parser(
        "trace",
        help="trace every coherence transaction and export span/metric "
             "artifacts",
    )
    trace_p.add_argument("workload", choices=sorted(WORKLOADS))
    trace_p.add_argument("--protocol", default="AD")
    trace_p.add_argument("--consistency", default="SC")
    trace_p.add_argument("--preset", default="tiny")
    trace_p.add_argument("--seed", type=int, default=42)
    trace_p.add_argument("--no-check", action="store_true")
    trace_p.add_argument("--max-spans", type=int, default=200_000,
                         help="retained-span budget (beyond it spans feed "
                              "the aggregates but drop their detail)")
    trace_p.add_argument("--perfetto", default=None, metavar="TRACE_JSON",
                         help="write a Chrome trace_events file "
                              "(open at https://ui.perfetto.dev)")
    trace_p.add_argument("--spans", default=None, metavar="SPANS_JSON",
                         help="write the raw spans + summary as JSON")
    trace_p.add_argument("--metrics", default=None, metavar="METRICS_FILE",
                         help="write the metric samples (.json, else CSV)")
    trace_p.add_argument("--metrics-interval", type=int, default=500,
                         help="sampling period in pclocks (default 500; "
                              "sampling runs only when --metrics or "
                              "--perfetto is given)")
    trace_p.set_defaults(func=_cmd_trace)

    cmp_p = sub.add_parser(
        "compare", help="run N protocols side by side and report reductions"
    )
    cmp_p.add_argument("workload", choices=sorted(WORKLOADS))
    cmp_p.add_argument("--consistency", default="SC")
    cmp_p.add_argument("--preset", default="default")
    cmp_p.add_argument("--no-check", action="store_true")
    cmp_p.add_argument("--protocols", default=None, metavar="P1,P2,...",
                       help="comma-separated protocols to compare (default "
                            "W-I,AD; e.g. W-I,AD,MESI,Dragon,Hybrid); the "
                            "first is the baseline for the derived metrics")
    cmp_p.add_argument("--workers", type=int, default=1,
                       help="worker processes for the two runs (default 1)")
    cmp_p.set_defaults(func=_cmd_compare)

    t1_p = sub.add_parser("table1", help="measure the Table 1 latencies")
    t1_p.set_defaults(func=_cmd_table1)

    sharing_p = sub.add_parser(
        "sharing", help="classify blocks by sharing pattern (Gupta-Weber)"
    )
    sharing_p.add_argument("workload", choices=sorted(WORKLOADS))
    sharing_p.add_argument("--protocol", default="W-I")
    sharing_p.add_argument("--consistency", default="SC")
    sharing_p.add_argument("--preset", default="default")
    sharing_p.add_argument("--no-check", action="store_true")
    sharing_p.set_defaults(func=_cmd_sharing)

    verify_p = sub.add_parser("verify", help="exhaustively model-check the protocol")
    verify_p.add_argument("--protocol", default="AD")
    verify_p.add_argument("--caches", type=int, default=2)
    verify_p.add_argument("--ops", type=int, default=2)
    verify_p.set_defaults(func=_cmd_verify)

    bus_p = sub.add_parser("bus", help="run on the bus-based snoopy machine")
    bus_p.add_argument("workload", choices=sorted(WORKLOADS))
    bus_p.add_argument("--protocol", default="AD",
                       help="W-I or AD (coherence policy)")
    bus_p.add_argument("--base", default="invalidate",
                       choices=("invalidate", "update"),
                       help="base snoopy protocol")
    bus_p.add_argument("--processors", type=int, default=8)
    bus_p.add_argument("--preset", default="tiny")
    bus_p.add_argument("--no-check", action="store_true")
    bus_p.set_defaults(func=_cmd_bus)

    rep_p = sub.add_parser("report", help="reproduce every table and figure")
    rep_p.add_argument("--preset", default="default")
    rep_p.add_argument("--no-check", action="store_true")
    rep_p.add_argument("--workers", type=int, default=1,
                       help="worker processes per experiment sweep (default 1)")
    _add_cache_args(rep_p)
    rep_p.set_defaults(func=_cmd_report)

    bench_p = sub.add_parser(
        "bench", help="run the perf suite and write a BENCH_<date>.json snapshot"
    )
    bench_p.add_argument("--preset", default="default")
    bench_p.add_argument("--quick", action="store_true",
                         help="tiny preset (CI smoke; ~seconds)")
    bench_p.add_argument("--workers", type=int, default=None,
                         help="worker processes for the parallel pass "
                              "(default: all cores; if that resolves to 1 "
                              "the parallel pass is skipped and a serial-"
                              "only snapshot is recorded)")
    bench_p.add_argument("--output", default=None,
                         help="snapshot path (default BENCH_<date>.json)")
    bench_p.add_argument("--against", default=None, metavar="BENCH_JSON",
                         help="print a regression diff against an older snapshot")
    bench_p.add_argument("--tolerance", type=float, default=None,
                         metavar="FRACTION",
                         help="with --against: fail if any run's wall time "
                              "regressed by more than this fraction "
                              "(e.g. 0.25 = 25%%; default: timing drift "
                              "only informs, never fails)")
    bench_p.add_argument("--fast-path", default="auto",
                         choices=("on", "off", "auto"),
                         help="compiled fast path: 'on' errors unless the "
                              "mypyc build is active, 'off' forces the "
                              "pure-Python reference (re-execs with "
                              "REPRO_FORCE_PURE=1 if needed), 'auto' "
                              "(default) uses whatever is installed")
    bench_p.set_defaults(func=_cmd_bench)

    chaos_p = sub.add_parser(
        "chaos",
        help="fault-injection sweep: W-I and AD across fault intensities",
    )
    chaos_p.add_argument(
        "workloads", nargs="*", metavar="workload",
        help="workloads to stress (default: mp3d migratory-counters)",
    )
    chaos_p.add_argument("--intensities", default="0,0.25,0.5,1.0",
                         help="comma-separated fault intensities (include 0 "
                              "for baseline deltas)")
    chaos_p.add_argument("--preset", default="tiny")
    chaos_p.add_argument("--seed", type=int, default=42,
                         help="fault-plan seed; same (seed, intensity) "
                              "replays the same perturbation")
    chaos_p.add_argument("--watchdog", type=int, default=200_000,
                         help="livelock watchdog window in pclocks")
    chaos_p.add_argument("--protocols", default=None, metavar="P1,P2,...",
                         help="comma-separated protocols to sweep (default: "
                              "the full registered family)")
    chaos_p.add_argument("--workers", type=int, default=1,
                         help="worker processes for the grid (default 1)")
    chaos_p.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    chaos_p.add_argument("--no-check", action="store_true")
    chaos_p.set_defaults(func=_cmd_chaos)

    serve_p = sub.add_parser(
        "serve",
        help="run the async job-queue daemon (HTTP sweep submissions, "
             "shared result cache)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8787,
                         help="listen port (0 = ephemeral; default 8787)")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="simulation worker processes (default: all cores)")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result-cache root shared with the CLI "
                              "(default .repro-cache, or $REPRO_SIM_CACHE)")
    serve_p.add_argument("--cell-timeout", type=float, default=None,
                         metavar="SEC",
                         help="per-cell deadline; a stuck cell is requeued "
                              "(its worker killed) instead of wedging a slot")
    serve_p.add_argument("--max-attempts", type=int, default=3,
                         help="execution attempts per cell before a crash/"
                              "timeout becomes terminal (default 3)")
    serve_p.add_argument("--fault-kills", type=int, default=0, metavar="N",
                         help="chaos: kill up to N workers mid-cell "
                              "(seeded; exercises requeue + pool rebuild)")
    serve_p.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the fault plan's deterministic draws")
    serve_p.add_argument("--log", default=None, metavar="DEST",
                         help="structured JSON event log: 'stderr' (or '-') "
                              "or a file path to append to (also settable "
                              "via $REPRO_LOG)")
    serve_p.set_defaults(func=_cmd_serve)

    cache_p = sub.add_parser(
        "cache", help="inspect, prune, or clear the persistent result cache"
    )
    cache_p.add_argument("action", choices=("stats", "prune", "clear"),
                         help="stats: print the store summary as JSON; "
                              "prune: LRU-evict down to --max-bytes; "
                              "clear: delete every cached entry")
    cache_p.add_argument("--max-bytes", default=None, metavar="SIZE",
                         help="prune target size (e.g. 512, 100K, 64M, 2G): "
                              "least-recently-fetched entries are evicted "
                              "until the store fits")
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result-cache root (default .repro-cache, or "
                              "$REPRO_SIM_CACHE)")
    cache_p.set_defaults(func=_cmd_cache)

    list_p = sub.add_parser("list", help="list available workloads")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
