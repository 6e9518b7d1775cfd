"""Per-table/figure experiment reproducers (see DESIGN.md Section 2)."""

from repro.experiments.ablations import (
    run_bandwidth_sweep,
    run_rxq_heuristic_ablation,
)
from repro.experiments.figure5 import PAPER_ETR, Figure5Row, render_figure5, run_figure5
from repro.experiments.figure6 import Figure6Cell, cell, render_figure6, run_figure6
from repro.experiments.prefetch import (
    PrefetchComparison,
    render_prefetch,
    run_prefetch_comparison,
)
from repro.experiments.chaos import (
    ChaosCell,
    ChaosReport,
    run_chaos,
)
from repro.experiments.parallel import (
    RunError,
    RunOutcome,
    RunSpec,
    default_workers,
    run_many,
    run_pairs,
)
from repro.experiments.runner import (
    ProtocolComparison,
    compare_many,
    compare_protocols,
    run_workload,
)
from repro.experiments.scaling import ScalingPoint, render_scaling, run_scaling
from repro.experiments.section54 import (
    render_section54,
    run_nomig_necessity,
    run_section54,
)
from repro.experiments.table1 import PAPER_TABLE1, measure_table1, render_table1
from repro.experiments.table3 import PAPER_TABLE3, render_table3, run_table3
from repro.experiments.table4 import PAPER_TABLE4, render_table4, run_table4

__all__ = [
    "ChaosCell",
    "ChaosReport",
    "run_chaos",
    "Figure5Row",
    "Figure6Cell",
    "PAPER_ETR",
    "RunError",
    "RunOutcome",
    "RunSpec",
    "PAPER_TABLE1",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PrefetchComparison",
    "ProtocolComparison",
    "cell",
    "compare_many",
    "compare_protocols",
    "default_workers",
    "measure_table1",
    "run_many",
    "run_pairs",
    "render_figure5",
    "render_figure6",
    "render_section54",
    "render_table1",
    "render_table3",
    "render_table4",
    "run_bandwidth_sweep",
    "run_figure5",
    "run_figure6",
    "run_rxq_heuristic_ablation",
    "run_scaling",
    "render_scaling",
    "ScalingPoint",
    "render_prefetch",
    "run_nomig_necessity",
    "run_prefetch_comparison",
    "run_section54",
    "run_table1",
    "run_table3",
    "run_table4",
    "run_workload",
]


def run_table1(**kwargs):
    """Alias for measure_table1 (naming symmetry with the other tables)."""
    return measure_table1(**kwargs)
