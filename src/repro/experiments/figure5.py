"""Figure 5 reproduction: relative performance of W-I and AD.

The paper's Figure 5 shows, for each of the four benchmarks, the
execution time of AD normalized to W-I, broken into busy time,
synchronization stall, read stall, and write stall (bottom to top), and
quotes execution-time ratios (ETR = T(W-I)/T(AD)):

* MP3D ~1.54 (54% better), Cholesky ~1.25, Water ~1.04, LU ~1.00.

The paper also quotes MP3D's W-I busy time (17%) and synchronization
stall (9%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.runner import ProtocolComparison, compare_many
from repro.machine.config import MachineConfig
from repro.workloads import PAPER_BENCHMARKS

#: The paper's quoted execution-time ratios (W-I relative to AD).
PAPER_ETR = {"mp3d": 1.54, "cholesky": 1.25, "water": 1.04, "lu": 1.00}


@dataclass
class Figure5Row:
    workload: str
    comparison: ProtocolComparison
    paper_etr: float

    @property
    def etr(self) -> float:
        return self.comparison.execution_time_ratio

    def normalized_breakdown(self, which: str) -> Dict[str, float]:
        """Stacked-bar components normalized to the W-I execution time.

        The per-category stall fractions are taken from the aggregate
        processor breakdown (whose shares match the per-processor
        averages) and scaled by the run's wall-clock ratio to W-I, so the
        two bars are directly comparable as in the paper's figure.
        """
        run = self.comparison.wi if which == "wi" else self.comparison.ad
        scale = run.execution_time / max(1, self.comparison.wi.execution_time)
        fractions = run.aggregate_breakdown.fractions()
        return {name: value * scale for name, value in fractions.items()}


def run_figure5(
    preset: str = "default",
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
    **run_kwargs,
) -> List[Figure5Row]:
    """The four paper benchmarks under W-I and AD, one row per workload.

    Extra keyword arguments (timeout, max_attempts,
    backend, ...) pass through to ``run_many``, so the sweep can run
    with deadlines or on a remote daemon.
    """
    comparisons = compare_many(
        PAPER_BENCHMARKS, preset=preset, config=config,
        check_coherence=check_coherence, workers=workers, store=store,
        **run_kwargs,
    )
    return [
        Figure5Row(
            workload=name, comparison=comparisons[name], paper_etr=PAPER_ETR[name]
        )
        for name in PAPER_BENCHMARKS
    ]


def render_figure5(rows: List[Figure5Row]) -> str:
    lines = [
        "Figure 5: execution time of AD normalized to W-I "
        "(busy/sync/read/write breakdown)",
        f"{'app':<10}{'bar':<5}{'busy':>7}{'sync':>7}{'read':>7}"
        f"{'write':>7}{'total':>7}   {'ETR':>5} (paper {'ETR':>4})",
    ]
    for row in rows:
        for which in ("wi", "ad"):
            parts = row.normalized_breakdown(which)
            total = sum(parts.values())
            label = "W-I" if which == "wi" else "AD"
            suffix = (
                f"   {row.etr:>5.2f} (paper {row.paper_etr:>4.2f})"
                if which == "ad"
                else ""
            )
            lines.append(
                f"{row.workload:<10}{label:<5}"
                f"{parts['busy']:>7.1%}{parts['sync']:>7.1%}"
                f"{parts['read']:>7.1%}{parts['write']:>7.1%}{total:>7.1%}"
                + suffix
            )
    return "\n".join(lines)
