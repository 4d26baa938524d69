"""Experiment harnesses: one module per paper table/figure/claim.

===========================  ==========================================
:mod:`.fig3_crossbar`        Figure 3 — modelling accuracy on the
                             arbitrated crossbar
:mod:`.fig6_soc`             Figure 6 — SoC-level speedup vs cycle error
:mod:`.crossbar_qor`         section 2.4 — src-loop vs dst-loop QoR
:mod:`.hls_qor`              section 2.2 — HLS vs hand RTL (±10 %)
:mod:`.gals_overhead`        section 3.1 — GALS area overhead (< 3 %)
:mod:`.stall_verification`   section 4 — stall injection finds bugs
:mod:`.li_latency`           section 4 — LI latency grid, replayable
                             from captured traces (``repro.trace``)
===========================  ==========================================

The flow-level analyses (12-hour turnaround, 2K-20K gates/day) live in
:mod:`repro.flow` and their benches under ``benchmarks/``.
"""

from .adaptive_clocking import (
    AdaptiveClockingResult,
    adaptive_clocking_experiment,
    format_adaptive_clocking,
)
from .crossbar_qor import (
    QorPoint,
    crossbar_clock_sweep,
    crossbar_qor_sweep,
    format_qor_table,
)
from .fig3_crossbar import (
    CrossbarTestbench,
    Fig3Point,
    build_crossbar_testbench,
    figure3,
    format_figure3,
    run_crossbar_accuracy,
)
from . import flow_analyses
from .fig6_soc import (
    Fig6Point,
    fig6_workloads_small,
    figure6,
    format_figure6,
    run_fig6_test,
)
from .gals_overhead import (
    OverheadPoint,
    format_overhead_table,
    partition_size_sweep,
    testchip_overhead,
    testchip_partitions,
)
from .hls_qor import (
    QorResult,
    bad_constraint_ablation,
    format_qor_results,
    hls_vs_hand_qor,
)
from .li_latency import (
    LatencyForwarder,
    build_li_pipeline,
)
from .li_latency import run_report as li_latency_report
from .stall_verification import (
    CampaignResult,
    LeakyForwarder,
    build_stall_testbench,
    format_campaign,
    stall_campaign,
)

__all__ = [
    "Fig3Point", "CrossbarTestbench", "build_crossbar_testbench",
    "run_crossbar_accuracy", "figure3", "format_figure3",
    "Fig6Point", "run_fig6_test", "figure6", "format_figure6",
    "fig6_workloads_small",
    "QorPoint", "crossbar_qor_sweep", "crossbar_clock_sweep",
    "format_qor_table",
    "QorResult", "hls_vs_hand_qor", "bad_constraint_ablation",
    "format_qor_results",
    "OverheadPoint", "partition_size_sweep", "testchip_partitions",
    "testchip_overhead", "format_overhead_table",
    "LeakyForwarder", "build_stall_testbench", "stall_campaign",
    "CampaignResult", "format_campaign",
    "LatencyForwarder", "build_li_pipeline", "li_latency_report",
    "AdaptiveClockingResult", "adaptive_clocking_experiment",
    "format_adaptive_clocking",
]
