"""Experiment runner: build machine + workload, run, compare protocols.

Every table/figure module in this package builds on two entry points:

* :func:`run_workload` — one (workload, policy, consistency, cache) run;
* :func:`compare_protocols` — an N-way protocol comparison for one
  workload, with the paper's derived metrics (ETR, read-exclusive
  reduction, traffic reduction, write-penalty reduction) as properties.

Comparisons default to the paper's (W-I, AD) pair; pass ``policies=``
(any policies from :mod:`repro.protocols`, e.g.
``default_policies()`` for the full five-protocol family) for wider
tables.  The first policy is the baseline and the second the contender
for the pairwise derived metrics; every result is reachable through
``ProtocolComparison.results``.

Both route through :mod:`repro.experiments.parallel`, so every entry
point takes ``workers=`` to fan its independent runs out over processes;
:func:`compare_many` batches several workloads into one pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_many
from repro.machine.config import MachineConfig
from repro.machine.system import Machine, RunResult
from repro.workloads import make_workload


def run_workload(
    workload: str,
    policy: ProtocolPolicy,
    *,
    preset: str = "default",
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    seed: int = 42,
    **workload_overrides,
) -> RunResult:
    """Run one workload under one protocol; returns the RunResult."""
    base = config or MachineConfig.dash_default()
    cfg = base.with_(
        policy=policy, consistency=consistency, check_coherence=check_coherence
    )
    machine = Machine(cfg)
    wl = make_workload(
        workload, cfg.num_nodes, preset, seed=seed, **workload_overrides
    )
    return machine.run(wl.programs())


#: The paper's default comparison pair.
DEFAULT_COMPARE_POLICIES = (
    ProtocolPolicy.write_invalidate(),
    ProtocolPolicy.adaptive_default(),
)


@dataclass
class ProtocolComparison:
    """Protocols compared on the same workload and machine.

    ``wi``/``ad`` are the baseline and contender (the paper's W-I vs AD
    by default; the first two policies of an N-way comparison
    otherwise) — the pairwise derived metrics below compare those two.
    Additional protocols land in ``extras``; ``results`` exposes the
    full N-way table keyed by policy name.
    """

    workload: str
    wi: RunResult
    ad: RunResult
    #: Results beyond the baseline/contender pair, keyed by policy name.
    extras: Dict[str, RunResult] = field(default_factory=dict)

    @property
    def results(self) -> Dict[str, RunResult]:
        """All results keyed by policy name, in comparison order."""
        table = {self.wi.policy_name: self.wi, self.ad.policy_name: self.ad}
        table.update(self.extras)
        return table

    @property
    def execution_time_ratio(self) -> float:
        """The paper's ETR: W-I time relative to AD (>1 means AD wins).

        A zero-length run has no meaningful ETR; masking it with a fake
        denominator would silently report W-I's absolute time as a
        "ratio", so empty runs yield NaN instead.
        """
        if self.wi.execution_time <= 0 or self.ad.execution_time <= 0:
            return math.nan
        return self.wi.execution_time / self.ad.execution_time

    @property
    def rx_reduction(self) -> float:
        """Fraction of read-exclusive requests eliminated (Table 3)."""
        base = self.wi.counter("rxq_received")
        if base == 0:
            return 0.0
        return 1.0 - self.ad.counter("rxq_received") / base

    @property
    def traffic_reduction(self) -> float:
        """Fraction of network bits eliminated (Table 3)."""
        base = self.wi.network_bits
        if base == 0:
            return 0.0
        return 1.0 - self.ad.network_bits / base

    @property
    def write_penalty_reduction(self) -> float:
        """Fraction of W-I write stall time eliminated (Table 4's WPR)."""
        base = self.wi.aggregate_breakdown.write_stall
        if base == 0:
            return 0.0
        return 1.0 - self.ad.aggregate_breakdown.write_stall / base

    def replacement_miss_rate(self, which: str = "wi") -> float:
        """Replacement misses per shared reference (Table 4's MR)."""
        result = self.wi if which == "wi" else self.ad
        refs = (
            result.counter("read_hits")
            + result.counter("write_hits")
            + result.counter("read_misses")
            + result.counter("write_misses")
            + result.counter("write_upgrades")
        )
        if refs == 0:
            return 0.0
        return result.counter("replacement_misses") / refs


def comparison_specs(
    workload: str,
    *,
    preset: str = "default",
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    seed: int = 42,
    policies: Optional[Sequence[ProtocolPolicy]] = None,
    **workload_overrides,
) -> List[RunSpec]:
    """One spec per compared policy (default: the paper's W-I, AD pair)
    for one workload with identical parameters."""
    return [
        RunSpec.make(
            workload, policy,
            preset=preset, consistency=consistency, config=config,
            check_coherence=check_coherence, seed=seed,
            tag=f"{workload}/{policy.name}", **workload_overrides,
        )
        for policy in (policies or DEFAULT_COMPARE_POLICIES)
    ]


def _comparison_from(
    workload: str, results: Sequence[RunResult]
) -> ProtocolComparison:
    """Package N ordered results as a ProtocolComparison."""
    if len(results) < 2:
        raise ValueError("a protocol comparison needs at least two policies")
    return ProtocolComparison(
        workload=workload,
        wi=results[0],
        ad=results[1],
        extras={r.policy_name: r for r in results[2:]},
    )


def compare_protocols(
    workload: str,
    *,
    preset: str = "default",
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    seed: int = 42,
    workers: int = 1,
    store=None,
    run_kwargs: Optional[dict] = None,
    policies: Optional[Sequence[ProtocolPolicy]] = None,
    **workload_overrides,
) -> ProtocolComparison:
    """Run a workload under N protocols with identical parameters.

    The default is the paper's W-I vs AD pair; ``policies`` widens the
    comparison (first = baseline, second = contender for the pairwise
    metrics).  ``workers=N`` runs the independent simulations
    concurrently.  ``run_kwargs`` passes resilience options (timeout,
    max_attempts, backend, ...) through to :func:`run_many`.
    """
    specs = comparison_specs(
        workload, preset=preset, consistency=consistency, config=config,
        check_coherence=check_coherence, seed=seed, policies=policies,
        **workload_overrides,
    )
    results = [
        outcome.unwrap()
        for outcome in run_many(
            specs, workers=workers, store=store, **(run_kwargs or {})
        )
    ]
    return _comparison_from(workload, results)


def compare_many(
    workloads: Sequence[str],
    *,
    preset: str = "default",
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    seed: int = 42,
    workers: int = 1,
    store=None,
    policies: Optional[Sequence[ProtocolPolicy]] = None,
    **run_kwargs,
) -> Dict[str, ProtocolComparison]:
    """The N-way comparison for several workloads over one worker pool.

    All ``len(policies) * len(workloads)`` runs are independent, so the
    pool drains them together instead of pairing serially per workload.
    Extra keyword arguments (timeout, max_attempts,
    backend, ...) pass through to :func:`run_many`.
    """
    chosen = tuple(policies or DEFAULT_COMPARE_POLICIES)
    specs: List[RunSpec] = []
    for name in workloads:
        specs.extend(
            comparison_specs(
                name, preset=preset, consistency=consistency, config=config,
                check_coherence=check_coherence, seed=seed, policies=chosen,
            )
        )
    outcomes = run_many(specs, workers=workers, store=store, **run_kwargs)
    stride = len(chosen)
    comparisons = {}
    for index, name in enumerate(workloads):
        results = [
            outcomes[stride * index + offset].unwrap()
            for offset in range(stride)
        ]
        comparisons[name] = _comparison_from(name, results)
    return comparisons
