"""Self-tests of the benchmark: tracing changes no result and leaves no
patch behind, an oracle mismatch counts as a failed cell, and the
host-speed gauge scales by the chunks of the window it is asked about.

Run with ``python3 -m pytest perfbench/tests``.
"""

import copy
import gc
import statistics
from time import perf_counter, sleep

import pytest

import hostspeed
import layers
import oracle
import suite
from repro.experiments.parallel import execute_spec, result_fingerprint

TINY = suite.Cell("mp3d", "AD", "tiny", True, 42)


def run_cell(cell):
    machine, programs = suite.build_cell(cell)
    return machine.run(programs)


def patched_attributes():
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr in layers.patch_targets()}


def test_traced_cell_matches_plain_and_every_attribute_is_restored():
    before = patched_attributes()
    plain = run_cell(TINY)
    log = layers.SpanLog()
    with layers.Tracer("fig5-default", log):
        traced = run_cell(TINY)
    assert result_fingerprint(traced) == result_fingerprint(plain)
    assert log.calls["cpu.ops"] == suite.count_refs(TINY)
    assert log.calls["coherence.transport.sends"] > 0
    assert log.self_s["sim"] > 0 and log.self_s["coherence.directory"] > 0
    for key, original in before.items():
        assert key[0].__dict__[key[1]] is original, key
    assert result_fingerprint(run_cell(TINY)) == result_fingerprint(plain)


@pytest.mark.parametrize("workload", sorted(layers.PATCHERS))
def test_every_tracer_restores_its_patches_even_on_error(workload):
    before = patched_attributes()
    with pytest.raises(RuntimeError):
        with layers.Tracer(workload, layers.SpanLog()):
            assert any(key[0].__dict__[key[1]] is not original
                       for key, original in before.items())
            raise RuntimeError("pass failed")
    for key, original in before.items():
        assert key[0].__dict__[key[1]] is original, key


def test_one_oracle_mismatch_raises_failed_frac():
    doc = oracle.load()
    cell = suite.workload_cells("sweep", 42)[0]
    output = suite.cell_output(execute_spec(cell.spec()).unwrap())
    refs = suite.count_refs(cell)

    checker = oracle.Checker(doc, "sweep", 42)
    assert checker.check_cell(cell.label, output, refs=refs)
    assert checker.failed_frac == 0

    tampered = copy.deepcopy(doc)
    tampered["cells"]["42"]["sweep"][cell.label]["execution_time"] += 1
    checker = oracle.Checker(tampered, "sweep", 42)
    assert not checker.check_cell(cell.label, output, refs=refs)
    assert checker.failed_frac > 0
    assert "execution_time" in checker.problems[0]


def test_gauge_chunk_allocates_no_container():
    start, table = hostspeed._build()
    gc.disable()
    try:
        before = gc.get_count()[0]
        hostspeed.chunk(start, table, steps=100_000)
        # A few allocations by other threads may land in the window; one
        # per step would be 100k.
        assert gc.get_count()[0] - before < 100
    finally:
        gc.enable()


def test_gauge_factor_is_the_window_mean_over_nominal():
    gauge = hostspeed.HostSpeed(period_s=0.001).start()
    began = perf_counter()
    try:
        while len(gauge.samples) < 2 * hostspeed.MIN_SAMPLES:
            sleep(0.01)
        assert gauge.cpu_s() > 0
    finally:
        gauge.stop()
    assert not gauge._thread.is_alive()
    samples = list(gauge.samples)
    assert gauge.factor(began, perf_counter()) == pytest.approx(
        statistics.fmean(d for _, d in samples) / hostspeed.NOMINAL_S)
    # A window holding too few chunks borrows the latest ones.
    latest = [d for _, d in samples[-hostspeed.MIN_SAMPLES:]]
    assert gauge.factor(0.0, 0.0) == pytest.approx(
        statistics.fmean(latest) / hostspeed.NOMINAL_S)
