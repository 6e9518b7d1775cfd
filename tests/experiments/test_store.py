"""Content-addressed result store: cache keys, round trips, corruption.

The contract under test: a spec's key covers everything that determines
its result (effective config, workload + canonicalized overrides, seed,
code version) and nothing else — permuted override dicts and equivalent
config spellings key identically, while seed or code-version changes
key differently.  And a cache hit is byte-identical to a fresh
simulation (same ``result_fingerprint``) or it is not served at all.
"""

import json

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.consistency.models import model_by_name
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    RunSpec,
    execute_spec,
    result_fingerprint,
    run_many,
)
from repro.experiments.store import (
    CODE_VERSION_ENV,
    ResultStore,
    cell_identity,
    code_version,
    spec_from_json,
    spec_key,
    spec_to_json,
)
from repro.machine.config import MachineConfig


@pytest.fixture(autouse=True)
def pinned_code_version(monkeypatch):
    """Pin the code version: key tests stay stable and skip the source scan."""
    monkeypatch.setenv(CODE_VERSION_ENV, "test-rev-1")


def mig_spec(**kwargs):
    defaults = dict(preset="tiny", seed=7, iterations=6)
    defaults.update(kwargs)
    return RunSpec.make(
        "migratory-counters", ProtocolPolicy.adaptive_default(), **defaults
    )


# -- cache-key canonicalization -----------------------------------------


def test_permuted_override_dicts_key_identically():
    a = mig_spec(knobs={"beta": 2, "alpha": 1}, order=[3, 1])
    b = mig_spec(order=[3, 1], knobs={"alpha": 1, "beta": 2})
    assert a == b  # frozen form is insertion-order independent
    assert hash(a) == hash(b)  # the "stays hashable" contract
    assert cell_identity(a) == cell_identity(b)
    assert spec_key(a) == spec_key(b)


def test_equivalent_config_spellings_key_identically():
    implicit = mig_spec()  # config=None -> dash default at run time
    explicit = mig_spec(config=MachineConfig.dash_default())
    # run_workload folds the spec's policy into the config either way.
    prefolded = mig_spec(
        config=MachineConfig.dash_default(
            policy=ProtocolPolicy.adaptive_default()
        )
    )
    assert spec_key(implicit) == spec_key(explicit) == spec_key(prefolded)


def test_seed_config_and_code_version_perturb_key(monkeypatch):
    base = mig_spec()
    assert spec_key(mig_spec(seed=8)) != spec_key(base)
    assert spec_key(mig_spec(iterations=7)) != spec_key(base)
    different_machine = mig_spec(
        config=MachineConfig.dash_default(mesh_width=2, mesh_height=2)
    )
    assert spec_key(different_machine) != spec_key(base)
    key_v1 = spec_key(base)
    monkeypatch.setenv(CODE_VERSION_ENV, "test-rev-2")
    assert code_version() == "test-rev-2"
    assert spec_key(base) != key_v1  # a code change invalidates the cache


def test_check_coherence_part_of_effective_config_key():
    # The checker shapes nothing observable, but it IS part of the machine
    # the spec builds — keep the key honest rather than clever.
    assert spec_key(mig_spec(check_coherence=True)) != spec_key(
        mig_spec(check_coherence=False)
    )


def test_spec_wire_round_trip_preserves_key():
    spec = mig_spec(knobs={"beta": 2, "alpha": 1})
    rebuilt = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert rebuilt == spec
    assert spec_key(rebuilt) == spec_key(spec)


def _protocol_spec(policy):
    return RunSpec.make(
        "migratory-counters", policy, preset="tiny", seed=7, iterations=6
    )


def test_protocol_field_perturbs_key():
    """Every protocol in the family content-addresses differently."""
    from repro.protocols import default_policies

    keys = {spec_key(_protocol_spec(p)) for p in default_policies()}
    assert len(keys) == len(default_policies())
    # The hybrid's threshold is behavioural, so it is part of the key too.
    assert spec_key(
        _protocol_spec(ProtocolPolicy.hybrid(update_threshold=4))
    ) != spec_key(_protocol_spec(ProtocolPolicy.hybrid()))


def test_legacy_policy_dict_does_not_alias_new_protocols():
    """Pre-framework wire dicts (no ``protocol``/``update_threshold``
    fields) must deserialize to the W-I/AD family and never collide with
    a new protocol's content address."""
    from repro.protocols import policy_for

    doc = spec_to_json(mig_spec())
    doc["policy"] = {
        key: doc["policy"][key]
        for key in ("adaptive", "rxq_reverts_to_ordinary", "nomig_enabled")
    }
    legacy = spec_from_json(json.loads(json.dumps(doc)))
    assert legacy.policy == ProtocolPolicy.adaptive_default()
    assert spec_key(legacy) == spec_key(mig_spec())
    for name in ("mesi", "dragon", "hybrid"):
        assert spec_key(legacy) != spec_key(_protocol_spec(policy_for(name)))


def test_spec_from_json_accepts_shorthand_names():
    doc = {
        "workload": "migratory-counters",
        "policy": "W-I",
        "consistency": "SC",
        "preset": "tiny",
        "seed": 7,
        "overrides": {"iterations": 6},
    }
    spec = spec_from_json(doc)
    assert spec.policy == ProtocolPolicy.write_invalidate()
    assert spec.consistency == model_by_name("SC")
    assert spec_key(spec) == spec_key(
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.write_invalidate(),
            preset="tiny", seed=7, consistency=model_by_name("SC"),
            iterations=6,
        )
    )


# -- cold -> warm round trip --------------------------------------------


def sweep_specs():
    return [
        mig_spec(tag="mig/AD"),
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.write_invalidate(),
            preset="tiny", seed=7, iterations=6, tag="mig/W-I",
        ),
        RunSpec.make(
            "producer-consumer", ProtocolPolicy.adaptive_default(),
            preset="tiny", rounds=4, tag="pc/AD",
        ),
    ]


def test_cold_then_warm_run_many_is_byte_identical(tmp_path):
    specs = sweep_specs()
    cold_store = ResultStore(tmp_path / "cache")
    cold = run_many(specs, store=cold_store)
    assert all(o.ok and not o.cached for o in cold)
    assert cold_store.stats.misses == len(specs)
    assert cold_store.stats.stores == len(specs)
    assert len(cold_store) == len(specs)

    # A fresh store instance on the same directory: everything persisted.
    warm_store = ResultStore(tmp_path / "cache")
    warm = run_many(specs, store=warm_store)
    assert all(o.ok and o.cached for o in warm)
    assert warm_store.stats.hits == len(specs)
    assert warm_store.stats.misses == 0
    assert warm_store.stats.hit_rate == 1.0
    for fresh, served in zip(cold, warm):
        assert result_fingerprint(fresh.unwrap()) == result_fingerprint(
            served.unwrap()
        )


def test_corrupt_entry_recomputed_not_served(tmp_path):
    spec = mig_spec()
    store = ResultStore(tmp_path / "cache")
    run_many([spec], store=store)
    path = store.entry_path(spec_key(spec))

    # Truncation: unparseable JSON.
    original = path.read_text()
    path.write_text(original[: len(original) // 2])
    assert store.fetch(spec) is None
    assert store.stats.corrupt == 1
    assert not path.exists()  # evicted, so the cell will be recomputed

    # Tampering: valid JSON whose result no longer matches the stored
    # fingerprint must not be served either.
    [fresh] = run_many([spec], store=store)
    entry = json.loads(path.read_text())
    entry["result"]["execution_time"] += 1
    path.write_text(json.dumps(entry))
    assert store.fetch(spec) is None
    assert store.stats.corrupt == 2

    # Recompute and re-warm: back to serving verified hits.
    [recomputed] = run_many([spec], store=store)
    assert recomputed.ok and not recomputed.cached
    served = store.fetch(spec)
    assert served is not None and served.cached
    assert result_fingerprint(served.unwrap()) == result_fingerprint(
        fresh.unwrap()
    )


def test_failed_outcome_is_not_stored(tmp_path):
    store = ResultStore(tmp_path / "cache")
    bad = RunSpec.make("no-such-workload", ProtocolPolicy.adaptive_default())
    [outcome] = run_many([bad], store=store)
    assert not outcome.ok
    assert store.put(outcome) is None
    assert len(store) == 0
    # And the failure is not "cached": a second attempt runs again.
    assert store.fetch(bad) is None


def test_store_summary_and_clear(tmp_path):
    store = ResultStore(tmp_path / "cache")
    run_many(sweep_specs(), store=store)
    doc = store.summary()
    assert doc["entries"] == 3
    assert doc["stores"] == 3
    assert doc["size_bytes"] > 0
    assert doc["code_version"] == "test-rev-1"
    json.dumps(doc)  # CI uploads this verbatim
    assert store.clear() == 3
    assert len(store) == 0


def test_execute_spec_matches_cached_execute(tmp_path):
    """The fingerprint stored is exactly what a direct run produces."""
    spec = mig_spec()
    store = ResultStore(tmp_path / "cache")
    run_many([spec], store=store)
    entry = store.load_entry(spec_key(spec))
    direct = execute_spec(spec).unwrap()
    assert entry["fingerprint"] == result_fingerprint(direct)


# -- size-bounded LRU eviction ------------------------------------------


def test_prune_evicts_least_recently_fetched_first(tmp_path):
    import os
    import time

    specs = sweep_specs()
    store = ResultStore(tmp_path / "cache")
    run_many(specs, store=store)
    paths = [store.entry_path(spec_key(s)) for s in specs]
    # Stagger recency explicitly: specs[0] oldest, specs[2] newest.
    now = time.time()
    for age, path in zip((300, 200, 100), paths):
        os.utime(path, (now - age, now - age))

    # A verified fetch refreshes recency, so the true LRU is now specs[1].
    assert store.fetch(specs[0]) is not None

    sizes = [p.stat().st_size for p in paths]
    budget = sum(sizes) - 1  # one entry over budget -> evict exactly one
    report = store.prune(max_bytes=budget)
    assert report["evicted"] == 1
    assert report["evicted_keys"] == [spec_key(specs[1])]
    assert not paths[1].exists()
    assert paths[0].exists() and paths[2].exists()
    assert report["remaining_entries"] == 2
    assert report["remaining_bytes"] <= budget
    assert store.stats.evictions == 1
    assert store.stats.evicted_bytes >= sizes[1]

    # The evicted cell is recomputed, not served; survivors still hit.
    assert store.fetch(specs[1]) is None
    assert store.fetch(specs[2]) is not None


def test_prune_noop_when_under_budget(tmp_path):
    store = ResultStore(tmp_path / "cache")
    run_many(sweep_specs(), store=store)
    report = store.prune(max_bytes=10 ** 9)
    assert report["evicted"] == 0 and report["evicted_keys"] == []
    assert report["remaining_entries"] == 3
    assert store.stats.evictions == 0
    summary = store.summary()
    assert summary["evictions"] == 0


def test_interrupt_keeps_finished_cells_and_rerun_recomputes_only_cold(tmp_path):
    """The resume path: a sweep interrupted mid-run has already stored
    the cells it finished, so rerunning it over the same store directory
    simulates only the cells the store does not hold."""
    specs = sweep_specs()[:2] + [
        RunSpec.make(
            "test-interrupt-once", ProtocolPolicy.adaptive_default(),
            preset="tiny", marker=str(tmp_path / "interrupt.marker"),
            tag="boom",
        ),
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.adaptive_default(),
            preset="tiny", iterations=7, tag="tail",
        ),
    ]
    store = ResultStore(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        run_many(specs, store=store)
    # Serial execution: the first two finished and were stored.
    assert store.stats.stores == 2

    # Rerun over a fresh store on the same directory: the two warm cells
    # are served, only the two cold ones are simulated (the marker now
    # defuses the interrupt).
    second_store = ResultStore(tmp_path / "cache")
    outcomes = run_many(specs, store=second_store)
    assert all(o.ok for o in outcomes)
    assert second_store.stats.hits == 2
    assert second_store.stats.misses == 2
    assert [o.cached for o in outcomes] == [True, True, False, False]
