"""The ``repro-sim serve`` daemon, end to end over real HTTP.

The server runs on an asyncio loop in a background thread bound to an
ephemeral port; the stdlib ``ServeClient`` talks to it exactly as a
remote submitter would.  Under test: batch submission, cross-submission
dedupe by content address, cache-backed instant resolution on resubmit,
job status polling, and result fingerprints matching a local run.
"""

import asyncio
import contextlib
import threading

import pytest

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, execute_spec, result_fingerprint
from repro.experiments.store import CODE_VERSION_ENV, ResultStore, spec_key
from repro.serve import ExperimentServer, ServeClient
from repro.serve.client import ServeError


@pytest.fixture(autouse=True)
def pinned_code_version(monkeypatch):
    monkeypatch.setenv(CODE_VERSION_ENV, "serve-test-rev")


@contextlib.contextmanager
def running_server(store, workers=1, **server_kwargs):
    """An ExperimentServer on an ephemeral port, loop in a daemon thread."""
    srv = ExperimentServer(store, workers=workers, port=0, **server_kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def main():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture
def server(tmp_path):
    with running_server(ResultStore(tmp_path / "cache")) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}")


def tiny_specs():
    return [
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.adaptive_default(),
            preset="tiny", iterations=6, tag="mig/AD",
        ),
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.write_invalidate(),
            preset="tiny", iterations=6, tag="mig/W-I",
        ),
    ]


def test_serve_end_to_end(server, client):
    health = client.healthz()
    assert health["ok"] and health["workers"] == 1

    specs = tiny_specs()
    duplicated = specs + [specs[0]]  # 3 submissions, 2 unique cells
    job = client.submit_specs(duplicated)
    assert job["total"] == 3
    status = client.wait(job["job"], timeout=120)
    assert status["complete"]
    assert status["finished"] == 3
    assert all(c["status"] == "done" for c in status["cells"])
    # The duplicate attached to the existing cell instead of re-running.
    assert status["cells"][0]["key"] == status["cells"][2]["key"]
    stats = client.stats()
    assert stats["specs_submitted"] == 3
    assert stats["specs_deduped"] == 1
    assert stats["cells"] == 2

    # Served results are byte-identical to a local fresh simulation.
    entry = client.result(spec_key(specs[0]))
    assert entry["fingerprint"] == result_fingerprint(
        execute_spec(specs[0]).unwrap()
    )

    # Resubmission to the same server attaches to the completed in-memory
    # cells — instantly complete, nothing re-simulated.
    rerun = client.submit_specs(specs)
    assert rerun["complete"]
    assert all(c["status"] == "done" for c in rerun["cells"])
    assert client.stats()["specs_deduped"] == 3

    # A *fresh* daemon over the same store directory resolves the whole
    # batch from the persistent cache without touching a worker.
    with running_server(ResultStore(server.store.root)) as second:
        warm_client = ServeClient(f"http://127.0.0.1:{second.port}")
        warm = warm_client.submit_specs(specs)
        assert warm["complete"]
        assert all(c["status"] == "cached" for c in warm["cells"])
        assert warm_client.stats()["cache"]["hits"] == 2
        # And the served entry is still the verified original.
        entry = warm_client.result(spec_key(specs[0]))
        assert entry["fingerprint"] == result_fingerprint(
            execute_spec(specs[0]).unwrap()
        )


def test_serve_shorthand_specs(server, client):
    job = client.submit([
        {
            "workload": "migratory-counters",
            "policy": "AD",
            "consistency": "SC",
            "preset": "tiny",
            "overrides": {"iterations": 6},
        }
    ])
    status = client.wait(job["job"], timeout=120)
    assert status["cells"][0]["status"] == "done"
    # The shorthand keys identically to the equivalent RunSpec.
    assert status["cells"][0]["key"] == spec_key(
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.adaptive_default(),
            preset="tiny", iterations=6,
        )
    )


def test_serve_failed_cell_reported_not_fatal(server, client):
    job = client.submit([
        {"workload": "no-such-workload", "policy": "AD", "preset": "tiny"}
    ])
    status = client.wait(job["job"], timeout=120)
    [cell] = status["cells"]
    assert cell["status"] == "failed"
    assert "no-such-workload" in cell["error"]
    assert client.healthz()["ok"]  # daemon survived the failure


def test_serve_rejects_bad_requests(server, client):
    with pytest.raises(ServeError) as excinfo:
        client.submit([])
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit([{"policy": "AD"}])  # no workload
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.job("job-999")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.result("0" * 64)
    assert excinfo.value.status == 404


# ---------------------------------------------------------------------------
# Resilience: crash requeue, deadlines, cancellation, chaos, client retries


import io
import time
import urllib.error

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.experiments.parallel import run_many, shutdown_pool
from repro.serve import ServeFaultPlan, ServeUnavailable
from repro.serve.client import _error_body


def _hang_spec(seed, seconds=30.0):
    return RunSpec.make(
        "test-hang", ProtocolPolicy.adaptive_default(),
        preset="tiny", seconds=seconds, seed=seed,
    )


def test_serve_worker_kill_requeues_and_matches_undisturbed_run(tmp_path):
    """Acceptance: a cell whose worker is killed by ServeFaultPlan is
    requeued on a rebuilt pool and its result is byte-identical (same
    fingerprint) to an undisturbed local run."""
    faults = ServeFaultPlan(seed=11, kill_fraction=1.0, max_kills=1,
                            kill_delay=0.02)
    # The first cell sleeps long enough that the 20ms-delayed kill lands
    # while it is still executing; the rest are ordinary tiny cells.
    specs = [_hang_spec(seed=9, seconds=0.75)] + tiny_specs()
    with running_server(ResultStore(tmp_path / "cache"), faults=faults) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit_specs(specs)
        status = client.wait(job["job"], timeout=120)
        assert status["complete"]
        assert all(c["status"] == "done" for c in status["cells"])
        # The kill actually happened and was recovered from.
        scheduler = client.stats()["scheduler"]
        assert scheduler["fault_kills"] == 1
        assert scheduler["worker_crashes"] >= 1
        assert scheduler["requeues"] >= 1
        assert scheduler["executor_rebuilds"] >= 1
        # A requeued cell consumed more than one attempt.
        assert max(c["attempts"] for c in status["cells"]) >= 2
        for spec in specs:
            entry = client.result(spec_key(spec))
            assert entry["fingerprint"] == result_fingerprint(
                execute_spec(spec).unwrap()
            )


def test_serve_cell_timeout_requeues_then_fails_with_attempts(tmp_path):
    with running_server(
        ResultStore(tmp_path / "cache"),
        cell_timeout=0.5, max_attempts=2,
    ) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit_specs([_hang_spec(seed=1)])
        status = client.wait(job["job"], timeout=60)
        [cell] = status["cells"]
        assert cell["status"] == "failed"
        assert cell["attempts"] == 2
        assert "CellTimeout" in cell["error"]
        assert "0.5s per-cell deadline" in cell["error"]
        assert "gave up after 2 attempt(s)" in cell["error"]
        scheduler = client.stats()["scheduler"]
        assert scheduler["timeouts"] == 2
        assert scheduler["requeues"] == 1
        assert scheduler["executor_rebuilds"] == 2
        # The daemon survived and still serves healthy cells.
        healthy = client.submit_specs([tiny_specs()[0]])
        done = client.wait(healthy["job"], timeout=120)
        assert done["cells"][0]["status"] == "done"


def test_serve_delete_cancels_queued_cells_and_resubmit_revives(tmp_path):
    with running_server(ResultStore(tmp_path / "cache"), workers=1) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        # One slot: the first hang occupies it, the rest sit queued.
        specs = [_hang_spec(seed=s) for s in (1, 2, 3)]
        job = client.submit_specs(specs)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if any(c["status"] == "running"
                   for c in client.job(job["job"])["cells"]):
                break
            time.sleep(0.02)
        cancelled = client.cancel(job["job"])
        assert cancelled["cancelled"]
        counts = cancelled["counts"]
        # The running cell keeps its worker; the queued ones are dropped.
        assert counts.get("cancelled", 0) == 2
        by_status = {c["key"]: c for c in cancelled["cells"]}
        dropped = [c for c in cancelled["cells"] if c["status"] == "cancelled"]
        assert all("cancelled by client" in c["error"] for c in dropped)
        assert client.stats()["scheduler"]["cancelled_jobs"] == 1
        # Cancelling again is idempotent.
        assert client.cancel(job["job"])["counts"] == counts
        # A new submission revives a cancelled cell instead of serving
        # the stale terminal state.
        revived = client.submit_specs([specs[1]])
        status = {c["key"]: c["status"] for c in revived["cells"]}
        assert set(status.values()) <= {"queued", "running"}


def test_error_body_prefers_payload_over_status_line():
    def http_error(body):
        return urllib.error.HTTPError(
            "http://x/jobs", 500, "Internal Server Error",
            {}, io.BytesIO(body),
        )

    assert _error_body(http_error(b'{"error": "boom"}')) == {"error": "boom"}
    # Satellite: a non-JSON body (traceback, proxy page) is surfaced
    # verbatim instead of being collapsed to the reason phrase.
    assert _error_body(http_error(b"Traceback: stack trace text\n")) == (
        "Traceback: stack trace text"
    )
    assert _error_body(http_error(b"")) == "Internal Server Error"


def test_client_reports_unreachable_daemon(tmp_path):
    client = ServeClient("http://127.0.0.1:1", timeout=0.5, retries=1)
    with pytest.raises(ServeUnavailable, match="GET .*healthz"):
        client.healthz()


def test_run_many_serve_backend_executes_remotely_and_warms_local_store(
    tmp_path,
):
    specs = tiny_specs()
    with running_server(ResultStore(tmp_path / "daemon-cache")) as srv:
        local = ResultStore(tmp_path / "local-cache")
        outcomes = run_many(
            specs, store=local, backend="serve",
            serve_url=f"http://127.0.0.1:{srv.port}",
        )
        assert all(o.ok and o.cached for o in outcomes)
        for spec, outcome in zip(specs, outcomes):
            assert result_fingerprint(outcome.unwrap()) == result_fingerprint(
                execute_spec(spec).unwrap()
            )
        # Remote results warmed the local store: a second sweep is local.
        assert local.stats.stores == 2
        rerun = run_many(specs, store=ResultStore(local.root),
                         backend="serve", serve_url="http://127.0.0.1:1")
        assert all(o.ok and o.cached for o in rerun)


def test_run_many_serve_backend_falls_back_to_local(capsys):
    specs = tiny_specs()
    outcomes = run_many(specs, backend="serve",
                        serve_url="http://127.0.0.1:1")
    assert all(o.ok for o in outcomes)
    assert not any(o.cached for o in outcomes)
    assert "falling back to local execution" in capsys.readouterr().err
    for spec, outcome in zip(specs, outcomes):
        assert result_fingerprint(outcome.unwrap()) == result_fingerprint(
            execute_spec(spec).unwrap()
        )


# ---------------------------------------------------------------------------
# Telemetry: /metrics scrape, correlation ids


import urllib.request

from repro.obs.metrics import MetricsRegistry, parse_exposition, sample_count


def test_metrics_endpoint_scrapes_job_lifecycle(tmp_path):
    """Acceptance: a real-HTTP scrape parses as Prometheus text, exposes a
    wide series surface, and the job-lifecycle counters actually move."""
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache", metrics_registry=registry)
    with running_server(store, registry=registry) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")

        before = parse_exposition(client.metrics())
        assert before["repro_serve_jobs_submitted_total"].value() == 0

        job = client.submit_specs(tiny_specs())
        status = client.wait(job["job"], timeout=120)
        assert status["complete"]

        # Raw urllib fetch: assert the content type advertises the format.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{srv.port}/metrics", timeout=10
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode()

        families = parse_exposition(text)
        # The ISSUE's floor: at least 20 distinct series on a fresh daemon.
        assert sample_count(families) >= 20
        assert families["repro_serve_jobs_submitted_total"].value() == 1
        assert families["repro_serve_jobs_finished_total"].value() == 1
        assert families["repro_serve_specs_submitted_total"].value() == 2
        assert families["repro_serve_cells_total"].value({"status": "done"}) == 2
        assert families["repro_serve_cell_seconds"].value(
            sample_name="repro_serve_cell_seconds_count"
        ) == 2
        # HTTP traffic is labeled by normalized route, not raw path.
        http = families["repro_http_requests_total"]
        assert http.value({"route": "/metrics"}) >= 2
        assert http.value({"route": "/jobs"}) == 1
        assert http.value({"route": "/jobs/{id}"}) >= 1
        # The store served through this daemon reports its own counters.
        assert families["repro_store_stores_total"].value() == 2
        # Worker/queue gauges evaluate at scrape time.
        assert families["repro_serve_workers"].value() == 1
        assert families["repro_serve_cells_running"].value() == 0


def test_correlation_id_threads_client_to_job(tmp_path):
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache", metrics_registry=registry)
    with running_server(store, registry=registry) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}", cid="sweep-e2e42")
        job = client.submit_specs([tiny_specs()[0]])
        client.wait(job["job"], timeout=120)
        status = client.job(job["job"])
        assert status["cid"] == "sweep-e2e42"
        assert status["complete"] and status["total"] == 1


def test_stats_document_reads_the_metrics_registry(tmp_path):
    """/stats is a view over the registry: after a fault-injected job
    every scheduler counter (and the spec totals) equals its /metrics
    series from the same daemon."""
    faults = ServeFaultPlan(seed=11, kill_fraction=1.0, max_kills=1)
    specs = [_hang_spec(seed=9, seconds=0.75)] + tiny_specs()
    with running_server(ResultStore(tmp_path / "cache"), faults=faults) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit_specs(specs + specs[:1])
        client.wait(job["job"], timeout=120)
        stats = client.stats()
        families = parse_exposition(client.metrics())

    def scraped(name):
        return families[name].value()

    assert stats["scheduler"]["fault_kills"] == 1
    assert stats["scheduler"]["requeues"] >= 1
    expected = {
        "requeues": "repro_serve_requeues_total",
        "timeouts": "repro_serve_timeouts_total",
        "worker_crashes": "repro_serve_worker_crashes_total",
        "executor_rebuilds": "repro_serve_executor_rebuilds_total",
        "cancelled_jobs": "repro_serve_jobs_cancelled_total",
        "fault_kills": "repro_serve_fault_kills_total",
    }
    assert set(stats["scheduler"]) == set(expected)
    for key, name in expected.items():
        assert stats["scheduler"][key] == scraped(name), key
    assert stats["specs_submitted"] == scraped("repro_serve_specs_submitted_total") == 4
    assert stats["specs_deduped"] == scraped("repro_serve_specs_deduped_total") == 1
    assert srv.requeues == scraped("repro_serve_requeues_total")


@pytest.mark.parametrize("case", ["crash-once", "crash-always", "hang"])
def test_local_and_serve_fail_alike(tmp_path, case):
    """Failure parity: both front-ends drive the same cell executor, so a
    crash or a blown deadline ends with the same error type, attempt
    count and message, and recovered cells are byte-identical."""

    def normal(seed):
        return RunSpec.make(
            "migratory-counters", ProtocolPolicy.adaptive_default(),
            preset="tiny", iterations=4, seed=seed,
        )

    def specs_for(front_end):
        if case == "crash-once":
            marker = str(tmp_path / f"{front_end}.marker")
            return [RunSpec.make(
                "test-crash-once", ProtocolPolicy.adaptive_default(),
                preset="tiny", marker=marker, seed=7,
            ), normal(1)]
        if case == "crash-always":
            return [RunSpec.make(
                "test-crash-always", policy, preset="tiny", seed=1,
            ) for policy in (ProtocolPolicy.adaptive_default(),
                             ProtocolPolicy.write_invalidate())]
        return [_hang_spec(seed=3), normal(1)]

    timeout = 0.5 if case == "hang" else None
    shutdown_pool()  # fork workers that know the chaos workloads
    try:
        local = run_many(specs_for("local"), workers=2, timeout=timeout,
                         max_attempts=2)
    finally:
        shutdown_pool()
    with running_server(
        ResultStore(tmp_path / "cache"), workers=2,
        cell_timeout=timeout, max_attempts=2,
    ) as srv:
        specs = specs_for("serve")
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        client.wait(client.submit_specs(specs)["job"], timeout=120)
        served = [srv.cells[spec_key(spec)] for spec in specs]

    for outcome, cell in zip(local, served):
        assert outcome.ok == cell.outcome.ok, (outcome.error, cell.outcome.error)
        if outcome.ok:
            assert result_fingerprint(outcome.result) == result_fingerprint(
                cell.outcome.result
            )
            continue
        mine, theirs = outcome.error, cell.outcome.error
        assert mine.exc_type == theirs.exc_type
        assert mine.attempts == theirs.attempts == cell.attempts == 2
        assert mine.message == theirs.message
        assert "gave up after 2 attempt(s)" in mine.message
    if case == "crash-once":
        assert all(o.ok for o in local)
        assert served[0].attempts == 2
    elif case == "crash-always":
        assert {o.error.exc_type for o in local} == {"WorkerCrash"}
        assert all("died 2 time(s)" in o.error.message for o in local)
    else:
        assert local[0].error.exc_type == "CellTimeout"
        assert "0.5s per-cell deadline" in local[0].error.message
        assert local[1].ok


import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import repro


def _live_children(pid):
    """PIDs of ``pid``'s children that are neither gone nor zombies."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue
        fields = dict(
            line.split(":", 1) for line in status.splitlines() if ":" in line
        )
        if (fields.get("PPid", "").strip() == str(pid)
                and not fields.get("State", "").strip().startswith("Z")):
            children.append(int(entry.name))
    return children


def _alive(pid):
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return not any(
        line.startswith("State:") and line.split()[1] == "Z"
        for line in status.splitlines()
    )


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc to find the daemon's workers")
def test_sigterm_stops_the_daemon_and_its_workers(tmp_path):
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([daemon.stdout], [], [], 30)
        assert ready, "the daemon printed no banner within 30 s"
        banner = daemon.stdout.readline()
        assert banner.startswith("repro-sim serve: http://"), banner
        url = banner.split()[2]
        client = ServeClient(url)
        job = client.submit_specs([tiny_specs()[0]])
        assert client.wait(job["job"], timeout=120)["cells"][0]["status"] == "done"
        workers = _live_children(daemon.pid)
        assert workers, "the daemon never started a worker"

        # A SIGTERM meant for one worker (a broken pool terminates its
        # survivors) must not reach the daemon's own handler.
        os.kill(workers[0], signal.SIGTERM)
        job = client.submit_specs([tiny_specs()[1]])
        assert client.wait(job["job"], timeout=120)["cells"][0]["status"] == "done"
        assert daemon.poll() is None
        workers = _live_children(daemon.pid)
        assert workers

        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _alive(pid)] == []
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
