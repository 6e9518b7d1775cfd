"""The repo benchmark: one workload per invocation, plain or traced.

    python3 perfbench/run.py --workload fig5-default --seed 42 --seconds 20 --trace 0

Runs closed-loop passes of the workload until ``--seconds`` have passed
(at least ``MIN_PASSES``), checks every pass's simulated outputs against
``oracle.json``, prints every metric by name with its unit and sample
count, writes a stamped result file under ``.perfbench-out/``, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with the host-speed gauge
of ``hostspeed.py`` running beside the passes: the gated ``cpu_s`` and
``setup_s`` are CPU seconds scaled to the gauge's nominal host speed, and
``wall_s`` is printed as measured.  ``--trace 1`` alternates
plain and traced passes (see ``layers.py``) and reports the per-layer
metrics, ``unattributed.self_s`` and ``trace.overhead_ratio``; it runs the
pure-Python simulator, because patching cannot reach compiled classes.
Exit status is 0 when every check passed, 1 when one failed, 2 when the
program cannot be found, and 3 when a traced run is not on the pure path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("fig5-default", "update-mix", "sweep", "model-check")
MIN_PASSES = 3
PRESETS = {"fig5-default": "default", "update-mix": "default",
           "sweep": "tiny", "model-check": "n/a"}

#: name -> (unit, workloads it applies to); the first three are the ones
#: BENCHMARK.json gates, the rest are printed where they apply.
END_TO_END = {
    "cpu_s": ("s", WORKLOAD_NAMES),
    "setup_s": ("s", WORKLOAD_NAMES),
    "peak_rss_mb": ("MB", WORKLOAD_NAMES),
    "wall_s": ("s", WORKLOAD_NAMES),
    "host_factor": ("ratio", WORKLOAD_NAMES),
    "refs_per_s": ("1/s", ("fig5-default", "update-mix", "sweep")),
    "states_per_s": ("1/s", ("model-check",)),
    "local_sweep_s": ("s", ("sweep",)),
    "serve_sweep_s": ("s", ("sweep",)),
}
GATED = ("cpu_s", "setup_s", "peak_rss_mb")

PER_LAYER_UNITS = {
    "count": (
        "sim.events", "coherence.transport.sends", "network.sends",
        "memory.bus_transactions", "memory.dram_accesses",
        "memory.cache_lookups", "coherence.cache_ctrl.accesses",
        "coherence.cache_ctrl.msgs", "coherence.directory.msgs",
        "coherence.checker.calls", "cpu.ops", "workloads.ops_generated",
        "experiments.parallel.cells", "experiments.parallel.retries",
        "experiments.store.fetches", "experiments.store.puts",
        "serve.requeues", "verify.states", "verify.transitions",
    ),
    "s": (
        "sim.self_s", "coherence.transport.self_s", "network.self_s",
        "memory.self_s", "coherence.cache_ctrl.self_s",
        "coherence.directory.self_s", "coherence.checker.self_s",
        "cpu.self_s", "workloads.self_s", "machine.build_s",
        "machine.collect_s", "experiments.parallel.cell_s",
        "experiments.parallel.overhead_s", "experiments.store.fetch_s",
        "experiments.store.put_s", "serve.submit_s", "serve.wait_s",
        "serve.results_s", "verify.successors_s", "verify.search_s",
        "unattributed.self_s",
    ),
    "ns": ("sim.ns_per_event", "coherence.transport.ns_per_send",
           "network.ns_per_send"),
    "us": ("verify.us_per_state",),
    "ratio": ("coherence.cache_ctrl.hit_ratio", "coherence.directory.nak_ratio",
              "experiments.store.hit_ratio", "serve.polls_per_job",
              "trace.overhead_ratio"),
}
PER_LAYER = {name: unit for unit, names in PER_LAYER_UNITS.items()
             for name in names}


def tail(samples: List[float]) -> str:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - pct / 100) >= 10:
            rank = min(len(ordered) - 1, int(len(ordered) * pct / 100))
            return f"p{pct:g}={ordered[rank]:.6g}"
    return "no percentile has 10 samples beyond it"


def peak_rss_mb(with_children: bool) -> float:
    import resource

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, log, traced, elapsed_s: float,
                  plain_wall_s: float, workers: int) -> Dict[str, float]:
    """Per-layer figures of one traced pass; 0 for layers the pass skips."""
    import threading

    self_s, total_s, calls = log.self_s, log.total_s, log.calls
    outputs = traced.outputs.values()
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    if workload in ("fig5-default", "update-mix"):
        hits = sum(o["counters"].get("read_hits", 0) + o["counters"].get("write_hits", 0)
                   for o in outputs)
        misses = sum(o["counters"].get(k, 0) for o in outputs
                     for k in ("read_misses", "write_misses", "write_upgrades"))
        sends = calls["coherence.transport.sends"]
        m.update({
            "sim.events": traced.events,
            "sim.self_s": self_s["sim"],
            "sim.ns_per_event": 1e9 * safe_div(self_s["sim"], traced.events),
            "coherence.transport.sends": sends,
            "coherence.transport.self_s": self_s["coherence.transport"],
            "coherence.transport.ns_per_send":
                1e9 * safe_div(self_s["coherence.transport"], sends),
            "network.sends": calls["network.sends"],
            "network.self_s": self_s["network"],
            "network.ns_per_send":
                1e9 * safe_div(self_s["network"], calls["network.sends"]),
            "memory.bus_transactions": calls["memory.bus_transactions"],
            "memory.dram_accesses": calls["memory.dram_accesses"],
            "memory.cache_lookups": calls["memory.cache_lookups"],
            "memory.self_s": self_s["memory"],
            "coherence.cache_ctrl.accesses": calls["coherence.cache_ctrl.accesses"],
            "coherence.cache_ctrl.msgs": calls["coherence.cache_ctrl.msgs"],
            "coherence.cache_ctrl.self_s": self_s["coherence.cache_ctrl"],
            "coherence.cache_ctrl.hit_ratio": safe_div(hits, hits + misses),
            "coherence.directory.msgs": calls["coherence.directory.msgs"],
            "coherence.directory.self_s": self_s["coherence.directory"],
            "coherence.directory.nak_ratio": safe_div(
                calls["coherence.directory.naks"], calls["coherence.directory.msgs"]),
            "coherence.checker.calls": calls["coherence.checker.calls"],
            "coherence.checker.self_s": self_s["coherence.checker"],
            "cpu.ops": calls["cpu.ops"],
            "cpu.self_s": self_s["cpu"],
            "workloads.ops_generated": calls["workloads.ops_generated"],
            "workloads.self_s": self_s["workloads"],
            "machine.build_s": total_s["machine.build"],
            "machine.collect_s": self_s["machine"],
        })
    elif workload == "sweep":
        fresh = [o for phase in ("local-cold", "local-warm")
                 for o in traced.phases[phase] if not o.cached]
        cell_s = sum(o.wall_time for o in fresh)
        fetches = calls["experiments.store.fetches"]
        m.update({
            "experiments.parallel.cells": len(fresh),
            "experiments.parallel.cell_s": cell_s,
            "experiments.parallel.overhead_s":
                self_s["experiments.parallel"] - cell_s / max(1, workers),
            "experiments.parallel.retries": traced.extra["runmany_retries"],
            "experiments.store.fetches": fetches,
            "experiments.store.fetch_s": total_s["experiments.store.fetch"],
            "experiments.store.puts": calls["experiments.store.puts"],
            "experiments.store.put_s": total_s["experiments.store.put"],
            "experiments.store.hit_ratio":
                safe_div(calls["experiments.store.hits"], fetches),
            "serve.submit_s": total_s["serve.submit"],
            "serve.wait_s": total_s["serve.wait"],
            "serve.polls_per_job": safe_div(calls["serve.polls"], calls["serve.jobs"]),
            "serve.results_s": total_s["serve.results"],
            "serve.requeues": traced.extra["serve_requeues"],
        })
    else:
        states = sum(o["states_explored"] for o in outputs)
        m.update({
            "verify.states": states,
            "verify.transitions": sum(o["transitions"] for o in outputs),
            "verify.successors_s": self_s["verify.successors"],
            "verify.search_s": self_s["verify.search"],
            "verify.us_per_state": 1e6 * safe_div(total_s["verify.search"], states),
        })
    covered = log.covered_s.get(threading.main_thread().ident, 0.0)
    m["unattributed.self_s"] = elapsed_s - covered
    m["trace.overhead_ratio"] = safe_div(traced.wall_s, plain_wall_s)
    return m


def provenance(workload: str, seed: int, trace: bool) -> dict:
    from repro.experiments.store import code_version
    from repro.fastpath import fast_path_variant

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "preset": PRESETS[workload],
        "code_version": code_version(), "fast_path": fast_path_variant(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Bench:
    """Passes of one workload, their checks, and the metrics they give."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        import hostspeed
        import oracle
        import suite

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.workers = os.cpu_count() or 1
        # The traced run's figures are relative to its own plain passes, so
        # it runs without the gauge, whose thread would share its timings.
        self.gauge = None if trace else hostspeed.HostSpeed()
        cpu_clock = process_time
        if self.gauge is not None:
            gauge = self.gauge

            def cpu_clock() -> float:
                return process_time() - gauge.cpu_s()
        self.suite = suite.make_suite(workload, seed, OUT_DIR, self.workers,
                                      cpu_clock)
        self.checker = oracle.Checker(oracle.load(), workload, seed)
        self.refs = {cell.label: suite.count_refs(cell)
                     for cell in suite.workload_cells(workload, seed)}
        self.plain: List = []
        self.traced: List = []
        self.layer_samples: List[Dict[str, float]] = []
        self.span_log = None

    def check(self, result) -> None:
        for label in self.suite.labels:
            self.checker.check_cell(label, result.outputs.get(label),
                                    result.errors.get(label, "missing"),
                                    self.refs.get(label))
        if self.workload == "sweep":
            self.check_front_ends(result)

    def check_front_ends(self, result) -> None:
        from repro.experiments.parallel import result_fingerprint

        for index, label in enumerate(self.suite.labels):
            fingerprints = {}
            for phase, outcomes in result.phases.items():
                outcome = outcomes[index]
                fingerprints[phase] = (
                    result_fingerprint(outcome.result) if outcome.ok
                    else {"error": str(outcome.error)}
                )
                if phase == "local-warm" and not outcome.cached:
                    fingerprints[phase] = {"error": "warm local sweep missed the store"}
            self.checker.check_agreement(label, fingerprints)

    def plain_pass(self):
        result = self.suite.run_pass()
        self.check(result)
        self.plain.append(result)
        return result

    def traced_pass(self):
        import layers
        import suite
        from repro.obs import metrics as obs_metrics

        log = layers.SpanLog()
        retries = obs_metrics.REGISTRY.get("repro_runmany_retries_total")
        retries_before = retries.value if retries is not None else 0.0
        start = perf_counter()
        with layers.Tracer(self.workload, log):
            result = self.suite.run_pass(on_cell=log.begin_cell)
        elapsed = perf_counter() - start
        retries = obs_metrics.REGISTRY.get("repro_runmany_retries_total")
        result.extra["runmany_retries"] = (
            (retries.value if retries is not None else 0.0) - retries_before)
        self.check(result)
        ops = log.calls["cpu.ops"]
        if isinstance(self.suite, suite.SimSuite) and ops != sum(self.refs.values()):
            self.checker.record_failure(
                "traced pass", f"processors issued {ops} Read+Write ops, "
                f"the workloads hold {sum(self.refs.values())}")
        if result.events != self.plain[0].events:
            self.checker.record_failure(
                "traced pass",
                f"{result.events} events, plain pass had {self.plain[0].events}")
        self.traced.append(result)
        plain_wall = statistics.median(p.wall_s for p in self.plain)
        self.layer_samples.append(layer_metrics(
            self.workload, log, result, elapsed, plain_wall, self.workers))
        if self.span_log is None:
            self.span_log = log
        return result

    def run(self) -> None:
        if self.gauge is not None:
            self.gauge.start()
        start = perf_counter()
        try:
            while True:
                lap = perf_counter()
                self.plain_pass()
                if self.trace:
                    # One plain and one traced pass per lap; stop before a
                    # lap that would overrun the measuring time.
                    self.traced_pass()
                    now = perf_counter()
                    if now - start + (now - lap) > self.seconds:
                        break
                elif (len(self.plain) >= MIN_PASSES
                      and perf_counter() - start >= self.seconds):
                    break
            if self.workload == "sweep":
                serial = self.suite.serial_outputs()
                for label, output in serial.items():
                    self.checker.check_agreement(label, {
                        "serial": output,
                        "local-pool": self.plain[0].outputs.get(label),
                    })
        finally:
            if self.gauge is not None:
                self.gauge.stop()
            self.suite.close()

    def end_to_end(self) -> Dict[str, List[float]]:
        """Samples of every end-to-end timing, one per plain pass.

        With the gauge, ``cpu_s`` and ``setup_s`` are scaled by the host
        speed it measured over each pass; without it (traced runs) they
        are CPU seconds as measured.
        """
        if self.gauge is not None:
            factors = [self.gauge.factor(p.start, p.end) for p in self.plain]
        else:
            factors = [1.0 for _ in self.plain]
        samples: Dict[str, List[float]] = {
            "cpu_s": [p.cpu_s / f for p, f in zip(self.plain, factors)],
            "setup_s": [p.setup_s / f for p, f in zip(self.plain, factors)],
            "wall_s": [p.wall_s for p in self.plain],
        }
        if self.gauge is not None:
            samples["host_factor"] = factors
        if self.workload == "model-check":
            states = sum(o["states_explored"] for o in self.plain[0].outputs.values())
            samples["states_per_s"] = [states / p.wall_s for p in self.plain]
        else:
            refs = sum(self.refs.values())
            if self.workload == "sweep":
                # Every cell is simulated once per pass, in the cold local sweep.
                samples["refs_per_s"] = [refs / p.extra["local_sweep_s"]
                                         for p in self.plain]
                for name in ("local_sweep_s", "serve_sweep_s"):
                    samples[name] = [p.extra[name] for p in self.plain]
            else:
                samples["refs_per_s"] = [refs / p.wall_s for p in self.plain]
        return samples


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    if trace:
        os.environ["REPRO_FORCE_PURE"] = "1"
    # The program and this benchmark's modules are imported only from here
    # on, after the checkout's src/ is on the path.
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    stamp = provenance(args.workload, args.seed, trace)
    if trace and stamp["fast_path"] != "pure":
        print("perfbench: traced runs need the pure-Python simulator "
              f"(fast path is {stamp['fast_path']})", file=sys.stderr)
        return 3

    bench = Bench(args.workload, args.seed, args.seconds, trace)
    try:
        bench.run()
    finally:
        import suite

        stragglers = getattr(bench.suite, "stragglers", []) + suite.end_children()
    checker = bench.checker

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"plain passes={len(bench.plain)} traced passes={len(bench.traced)} "
          f"oracle={checker.coverage}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    samples = bench.end_to_end()
    rss = peak_rss_mb(with_children=args.workload == "sweep")
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    e2e["peak_rss_mb"] = rss
    print(f"{'metric':<34}{'median':>14}  {'unit':<6}{'n':>4}  tail")
    for name, (unit, applies) in END_TO_END.items():
        if args.workload not in applies or name not in e2e:
            continue
        values = samples.get(name, [rss])
        print(f"{name:<34}{e2e[name]:>14.6g}  {unit:<6}{len(values):>4}  "
              f"{tail(values)}")
    print(f"{'failed_frac':<34}{checker.failed_frac:>14.6g}  {'ratio':<6}"
          f"{checker.attempted:>4}  ({checker.failed} failed)")
    layers_out: Dict[str, float] = {}
    if trace:
        for name in PER_LAYER:
            layers_out[name] = statistics.median(s[name] for s in bench.layer_samples)
        for name, value in layers_out.items():
            print(f"{name:<34}{value:>14.6g}  {PER_LAYER[name]:<6}"
                  f"{len(bench.layer_samples):>4}")
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}")
    if stragglers:
        # Not a wrong output, so not counted in failed_frac; every one of
        # them was killed and waited for.
        print(f"warning: worker processes {stragglers} were still running "
              "after their pool stopped and were killed")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = None
    if bench.span_log is not None:
        spans_file = OUT_DIR / f"{tag}.spans.csv.gz"
        bench.span_log.write(spans_file)
    record = {
        "provenance": stamp,
        "checks": {"coverage": checker.coverage, "attempted": checker.attempted,
                   "failed": checker.failed, "failed_frac": checker.failed_frac,
                   "problems": checker.problems},
        "end_to_end": {name: {"median": e2e[name], "unit": END_TO_END[name][0],
                              "samples": samples.get(name, [rss])}
                       for name in e2e},
        "per_layer": {name: {"value": value, "unit": PER_LAYER[name]}
                      for name, value in layers_out.items()},
        "killed_stragglers": stragglers,
        "spans": {"file": spans_file.name if spans_file else None,
                  "total": bench.span_log.spans_total if bench.span_log else 0,
                  "kept": len(bench.span_log.kept) if bench.span_log else 0},
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in layers_out.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name][0]}
                   for name in GATED}
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
