"""Benchmark of the parallel experiment runner itself.

Runs the Figure-5 suite (4 workloads x 2 protocols, coherence checker
off) through ``run_many`` serially and through the process pool, records
both wall times and the speedup in ``benchmark.extra_info``, and asserts
the pool's results are identical to the serial ones.  The pool always
gets at least two workers, so the comparison crosses a process boundary
even on a single-core host (where the speedup honestly records ~1x).
"""

from time import perf_counter

from benchmarks.conftest import run_once
from repro.experiments.parallel import default_workers, result_fingerprint, run_many
from repro.experiments.runner import comparison_specs
from repro.workloads import PAPER_BENCHMARKS


def serial_then_pool(specs, workers):
    start = perf_counter()
    serial = run_many(specs, workers=1)
    serial_wall = perf_counter() - start
    start = perf_counter()
    pooled = run_many(specs, workers=workers)
    pool_wall = perf_counter() - start
    return serial, pooled, serial_wall, pool_wall


def test_parallel_runner_speedup(benchmark, bench_preset):
    specs = [
        spec
        for name in PAPER_BENCHMARKS
        for spec in comparison_specs(name, preset=bench_preset, check_coherence=False)
    ]
    workers = max(2, default_workers())
    serial, pooled, serial_wall, pool_wall = run_once(
        benchmark, serial_then_pool, specs, workers
    )

    assert [result_fingerprint(o.unwrap()) for o in pooled] == [
        result_fingerprint(o.unwrap()) for o in serial
    ], "parallel results diverged from serial"

    speedup = serial_wall / pool_wall
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["serial_wall_time_s"] = round(serial_wall, 4)
    benchmark.extra_info["parallel_wall_time_s"] = round(pool_wall, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["events_per_sec_serial"] = round(
        sum(o.unwrap().events_processed for o in serial) / serial_wall
    )
    print()
    print(
        f"figure-5 suite: serial {serial_wall:.2f} s, "
        f"parallel {pool_wall:.2f} s ({workers} workers) "
        f"-> speedup {speedup:.3f}x"
    )
