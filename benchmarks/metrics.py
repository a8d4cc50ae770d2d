"""The benchmark's metric table: names, units and better-directions.

``BENCHMARK.json`` at the repository root lists the same metrics; the
smoke test checks that the two agree.  ``GATED`` metrics are the
end-to-end metrics the benchmark prints in its final JSON line for an
untraced run, each with the bound by which it may worsen.  ``PER_LAYER``
metrics come from a traced run and carry no bound.

End-to-end times are at reference speed (see ``run.Reference``);
per-layer times are raw span durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    bound: Optional[float] = None


GATED = [
    Metric("setup_s", "s", "lower", "median of 5 set-ups: fresh import, instance generation, "
           "dataset writing and one warm-up call", 0.25),
    Metric("screen_ms_p50", "ms", "lower", "median over problems of a screen call's median latency; a "
           "screen call is relax -> round -> screen, or `l0screen screen` on cli-files", 0.25),
    Metric("screen_ms_tail", "ms", "lower", "highest percentile of those per-problem latencies with at "
           "least 10 beyond it; over single calls when there are under 20 problems", 0.25),
    Metric("fixed_frac", "frac", "higher", "share of variables the screen calls fix, pooled", 0.15),
    Metric("peak_rss_mb", "MB", "lower", "peak resident set size of the benchmark process", 0.1),
]

# End-to-end figures whose seed-to-seed spread is too wide to gate (one
# branch and bound solve takes 10 ms to 3 s depending on the instance).
# Untraced runs print them; traced runs also return them as per-layer
# metrics so later changes can be compared on them.
UNGATED = [
    Metric("solve_ms_p50", "ms", "lower", "median solve latency with root screening on (default)"),
    Metric("solve_ms_tail", "ms", "lower", "tail solve latency with root screening on, as screen_ms_tail"),
    Metric("solve_noscreen_ms_p50", "ms", "lower", "median solve latency with root screening off"),
    Metric("run_s", "s", "lower", "raw time in calls of one complete untraced pass, median over passes"),
    Metric("fail_frac", "frac", "lower", "failed checks and errors divided by attempts"),
]

LAYERS = ("problem", "relax", "screening", "heuristics", "exact", "datagen", "cli", "report", "bench")

PER_LAYER = UNGATED + [
    Metric("relax.power_ms", "ms", "lower", "operator_norm_sq per call"),
    Metric("relax.relax_ms", "ms", "lower", "solve_cc / solve_cr / node_relaxation per call"),
    Metric("relax.apg_gflop_per_s", "GFLOP/s", "higher",
           "computed rate: 4*m*n_active flops per APG iteration over APG time"),
    Metric("relax.inner_solves_per_relax", "count", "lower", "_berhu_solve calls per relaxation"),
    Metric("relax.apg_iters_per_relax", "count", "lower", "APG iterations per relaxation"),
    Metric("relax.apg_iter_us", "us", "lower", "_accel_prox_solve time per APG iteration"),
    Metric("relax.prox_us", "us", "lower", "berhu_prox per call"),
    Metric("relax.cert_us", "us", "lower", "_bound_reg_terms / _bound_card_terms per call"),
    Metric("relax.converged_frac", "frac", "higher", "relaxations that closed their certified gap"),
    Metric("relax.gap_max", "rel", "lower", "largest relative certified gap of a relaxation"),
    Metric("screening.ms", "ms", "lower", "screen_card / screen_reg per call"),
    Metric("screening.rules_us", "us", "lower", "_rules_card / _rules_reg per call"),
    Metric("screening.select_us", "us", "lower", "kth_largest_pair per call"),
    Metric("screening.fixed_frac", "frac", "higher", "variables fixed by the rules, pooled over rule calls"),
    Metric("heuristics.round_ms", "ms", "lower", "round_card / round_reg per call"),
    Metric("heuristics.ub_gap", "rel", "lower",
           "median (incumbent - certified bound) / |incumbent| over screen calls"),
    Metric("exact.nodes", "count", "lower", "nodes per B&B solve, root screening on"),
    Metric("exact.nodes_noscreen", "count", "lower", "nodes per B&B solve, root screening off"),
    Metric("exact.root_node_ratio", "ratio", "lower", "nodes with root screening over nodes without"),
    Metric("exact.node_ms", "ms", "lower", "branch_and_bound time per node"),
    Metric("exact.node_self_ms", "ms", "lower", "branch_and_bound time outside node_relaxation, per node"),
    Metric("exact.evaluate_us", "us", "lower", "_evaluate_support per call"),
    Metric("problem.ridge_calls", "count", "lower", "ridge_restricted_solve calls per benchmark call"),
    Metric("problem.ridge_us", "us", "lower", "ridge_restricted_solve per call"),
    Metric("datagen.generate_ms", "ms", "lower", "generate per call, during set-up"),
    Metric("datagen.save_ms", "ms", "lower", "save_dataset per call, during set-up"),
    Metric("datagen.load_csv_ms", "ms", "lower", "load_csv per call"),
    Metric("datagen.load_csv_mb_per_s", "MB/s", "higher", "CSV bytes read per second by load_csv"),
    Metric("report.validate_ms", "ms", "lower", "validate_run_report per call"),
    Metric("cli.overhead_ms", "ms", "lower", "self time of cli.main per call"),
] + [
    Metric(f"{layer}.self_ms", "ms", "lower", f"self time of the {layer} layer per traced pass")
    for layer in LAYERS
] + [
    Metric("trace.overhead_s", "s", "lower", "median traced pass minus median untraced pass"),
    Metric("trace.overhead_frac", "frac", "lower", "trace.overhead_s over the median untraced pass"),
]

BY_NAME = {m.name: m for m in GATED + PER_LAYER}
