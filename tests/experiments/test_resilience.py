"""Crash recovery in the parallel runner: timeouts, dead workers, retry.

The misbehaving workloads come from ``chaos_workloads`` (registered into
the live registry at import); every test rebuilds the shared pool first
so forked workers inherit those registrations.  The core contract under
test: a worker crash never loses completed work or determinism — after
pool rebuild and bounded retries, surviving results are byte-identical
to a serial run.
"""

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

import repro.experiments.parallel as parallel
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    CELL_TIMEOUT,
    WORKER_CRASH,
    RunSpec,
    backoff_delay,
    result_fingerprint,
    run_many,
    shutdown_pool,
)


@pytest.fixture(autouse=True)
def fresh_pool():
    """Workers must fork after chaos_workloads registered its factories."""
    shutdown_pool()
    yield
    shutdown_pool()


def _mig_spec(seed, **overrides):
    return RunSpec.make(
        "migratory-counters", ProtocolPolicy.adaptive_default(),
        preset="tiny", iterations=4, seed=seed, **overrides,
    )


def test_backoff_delay_deterministic_capped_and_jittered():
    assert backoff_delay(0) == 0.0
    assert backoff_delay(1, key="a") == backoff_delay(1, key="a")
    assert backoff_delay(1, key="a") != backoff_delay(1, key="b")
    # Exponential base growth under a hard cap, jitter in [0.5, 1.0).
    for attempt in range(1, 12):
        delay = backoff_delay(attempt, base=0.05, cap=2.0, key="x")
        ceiling = min(2.0, 0.05 * 2 ** (attempt - 1))
        assert 0.5 * ceiling <= delay <= ceiling
    assert backoff_delay(50, cap=2.0) <= 2.0


def test_worker_crash_recovers_and_matches_serial(tmp_path):
    """A worker that dies mid-batch (BrokenProcessPool) triggers pool
    rebuild + re-submission, and the final results are byte-identical to
    a crash-free serial run."""
    crash = RunSpec.make(
        "test-crash-once", ProtocolPolicy.adaptive_default(),
        preset="tiny", marker=str(tmp_path / "crash.marker"), seed=7,
    )
    specs = [crash, _mig_spec(1), _mig_spec(2)]
    outcomes = run_many(specs, workers=2)
    assert all(o.ok for o in outcomes), [str(o.error) for o in outcomes if not o.ok]
    assert (tmp_path / "crash.marker").exists()  # the crash really happened

    # Serial baseline: same specs, marker pre-created so nothing crashes.
    baseline_marker = tmp_path / "baseline.marker"
    baseline_marker.write_text("armed")
    baseline = RunSpec.make(
        "test-crash-once", ProtocolPolicy.adaptive_default(),
        preset="tiny", marker=str(baseline_marker), seed=7,
    )
    serial = run_many([baseline, _mig_spec(1), _mig_spec(2)], workers=1)
    for recovered, reference in zip(outcomes, serial):
        assert result_fingerprint(recovered.unwrap()) == result_fingerprint(
            reference.unwrap()
        )


def test_externally_killed_worker_does_not_poison_next_call():
    """Satellite: a broken executor must never be handed to the next
    same-width run_many call — discard and rebuild on any failure."""
    specs = [_mig_spec(1), _mig_spec(2)]
    first = run_many(specs, workers=2)
    assert all(o.ok for o in first)
    pool = parallel._LOCAL.pool
    assert pool is not None
    # Kill a live worker out from under the cached pool (OOM-killer sim).
    victim = next(iter(pool._processes.values()))
    victim.kill()
    victim.join()
    again = run_many(specs, workers=2)
    assert all(o.ok for o in again)
    assert parallel._LOCAL.pool is not pool  # poisoned pool was discarded
    for a, b in zip(first, again):
        assert result_fingerprint(a.unwrap()) == result_fingerprint(b.unwrap())


def test_cell_timeout_yields_structured_error_not_hang():
    hang = RunSpec.make(
        "test-hang", ProtocolPolicy.adaptive_default(),
        preset="tiny", seconds=30.0, seed=3,
    )
    specs = [hang, _mig_spec(1), _mig_spec(2)]
    outcomes = run_many(specs, workers=2, timeout=1.0)
    assert not outcomes[0].ok
    assert outcomes[0].error.exc_type == CELL_TIMEOUT
    assert "1.0s per-cell" in outcomes[0].error.message
    assert outcomes[1].ok and outcomes[2].ok
    # The pool was rebuilt (stuck worker reclaimed); next call is healthy.
    healthy = run_many([_mig_spec(4)], workers=2)
    assert healthy[0].ok


def test_worker_crash_exhausts_attempts_with_accounting():
    crash = RunSpec.make(
        "test-crash-always", ProtocolPolicy.adaptive_default(),
        preset="tiny", seed=1,
    )
    outcomes = run_many([crash, RunSpec.make(
        "test-crash-always", ProtocolPolicy.write_invalidate(),
        preset="tiny", seed=1,
    )], workers=2, max_attempts=2)
    for outcome in outcomes:
        assert not outcome.ok
        assert outcome.error.exc_type == WORKER_CRASH
        assert outcome.error.attempts == 2
        assert "died 2 time(s)" in outcome.error.message
    # The shared pool is usable again afterwards.
    assert run_many([_mig_spec(9)], workers=2)[0].ok
