"""The traced run: where each layer of the program is wrapped, and the
per-layer metrics computed from the spans and counts.

Layers are the modules of ``twoteam``.  A function is wrapped at every name
its callers look it up by: ``solve_lp`` both as ``membership_solver.solve_lp``
and as ``lp_solver.solve_lp`` (which ``find_feasible`` calls),
``verify_min_kkt`` both in ``instances`` and as imported into ``oracle``,
``DualMinProgram.objective`` on the class, and so on.

Which per-layer metrics should move, which end-to-end metrics they feed,
and on which workload they show (``layer_metrics`` computes them all):

=================  ============================================  ==========================
layer              metrics                                       shows on
=================  ============================================  ==========================
membership_solver  solve_s, find_kkt_point_calls, kkt_iterations, reduced-quadratic: the
                   kkt_converged_ratio, objective_calls/_s,      descent counters;
                   project_simplex_calls/_s,                     random-teams: lstsq and
                   stationarity_residual_calls/_s, lstsq_calls/  self_s (face solves).
                   _s, extract_multipliers_s,                    Feeds request_tail_s,
                   multiplier_failures, self_s                   requests_per_s, p50
lp_solver          solve_lp_calls/_s, non_optimal_ratio,         both solver workloads;
                   tableau_cells_computed                        feeds requests_per_s
oracle             points, chunks, <scan>_s,                     oracle-scan; feeds
                   <scan>_points_per_s                           requests_per_s, p50,
                                                                 peak_rss_mb
instances          verify_calls, verify_s                        oracle-scan (small KKT
                                                                 lattices); requests_per_s
game_core          verify_epsilon_nash_s, validate_two_team_s    random-teams; p50
reductions         reduce_full_s, pullback_full_s                reduced-quadratic; p50
cli                main_calls, self_s (JSON I/O and parsing)     reduced-quadratic; p50
=================  ============================================  ==========================

``trace.overhead_s`` is the traced minus the untraced median request
latency of the same pass; ``trace.spans`` counts the spans recorded.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import Tracer
from twoteam import cli, game_core, instances, lp_solver, membership_solver, oracle, reductions

# Counts that repeat exactly for a given seed and program.
EXACT_COUNTS = (
    "membership_solver.kkt_iterations",
    "membership_solver.objective_calls",
    "lp_solver.solve_lp_calls",
    "membership_solver.lstsq_calls",
    "oracle.points",
)

ORACLE_SCANS = ("iter_profile_regrets", "grid_minimax_value", "grid_kkt_points", "stage1_kkt_grid_scan")

# (owner, attribute, span name); one span name may be wrapped at several sites.
_SITES = [
    (cli, "main", "cli.main"),
    (reductions, "reduce_full", "reductions.reduce_full"),
    (reductions, "pullback_full", "reductions.pullback_full"),
    (membership_solver, "solve", "membership_solver.solve"),
    (membership_solver, "find_kkt_point", "membership_solver.find_kkt_point"),
    (membership_solver.DualMinProgram, "objective", "membership_solver.objective"),
    (membership_solver, "project_simplex", "membership_solver.project_simplex"),
    (membership_solver, "stationarity_residual", "membership_solver.stationarity_residual"),
    (membership_solver, "extract_multipliers", "membership_solver.extract_multipliers"),
    # The face solves' least-squares calls; numpy's own span, so that
    # membership_solver.self_s excludes it.
    (np.linalg, "lstsq", "numpy.linalg.lstsq"),
    (membership_solver, "solve_lp", "lp_solver.solve_lp"),
    (lp_solver, "solve_lp", "lp_solver.solve_lp"),
    (game_core, "verify_epsilon_nash", "game_core.verify_epsilon_nash"),
    (membership_solver, "verify_epsilon_nash", "game_core.verify_epsilon_nash"),
    (game_core, "validate_two_team", "game_core.validate_two_team"),
    (membership_solver, "validate_two_team", "game_core.validate_two_team"),
    (oracle, "validate_two_team", "game_core.validate_two_team"),
    (instances, "verify_min_kkt", "instances.verify_min_kkt"),
    (instances, "verify_minmax_kkt", "instances.verify_minmax_kkt"),
    (oracle, "verify_min_kkt", "instances.verify_min_kkt"),
    (oracle, "verify_minmax_kkt", "instances.verify_minmax_kkt"),
    (oracle, "grid_minimax_value", "oracle.grid_minimax_value"),
    (oracle, "grid_kkt_points", "oracle.grid_kkt_points"),
    (oracle, "stage1_kkt_grid_scan", "oracle.stage1_kkt_grid_scan"),
    # Every chunked scan decodes each chunk's profile ids exactly once.
    (oracle, "_decode_digits", "oracle._decode_digits"),
]


def tableau_cells(lp) -> int:
    """Entries of the two-phase tableau solve_lp builds for ``lp``.

    Computed from the LP's shapes: a free variable splits in two columns,
    a two-sided bound adds a row, and each row gets a slack (inequalities)
    and an artificial column.
    """
    cols = sum(1 if (lo is not None or hi is not None) else 2 for lo, hi in lp.bounds)
    two_sided = sum(1 for lo, hi in lp.bounds if lo is not None and hi is not None)
    ineq = lp.ineq_matrix.shape[0] + two_sided
    rows = ineq + lp.eq_matrix.shape[0]
    return rows * (cols + ineq + rows + 1)


def install(tracer: Tracer) -> None:
    def on_kkt(args, kwargs, result):
        tracer.add("kkt_iterations", result.iterations)
        tracer.add("kkt_converged", int(result.converged))

    def on_lp(args, kwargs, result):
        tracer.add("lp_tableau_cells", tableau_cells(args[0] if args else kwargs["lp"]))
        if result.status != lp_solver.OPTIMAL:
            tracer.add("lp_non_optimal")

    def on_multiplier_error(exc):
        if isinstance(exc, membership_solver.MultiplierExtractionError):
            tracer.add("multiplier_failures")

    hooks = {
        "membership_solver.find_kkt_point": {"on_return": on_kkt},
        "lp_solver.solve_lp": {"on_return": on_lp},
        "membership_solver.extract_multipliers": {"on_error": on_multiplier_error},
    }
    for owner, attr, name in _SITES:
        tracer.wrap(owner, attr, name, **hooks.get(name, {}))
    tracer.wrap_generator(oracle, "iter_profile_regrets", "oracle.iter_profile_regrets")


def layer_metrics(tracer: Tracer, points: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}; a layer a workload does
    not reach reads 0."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self(prefix):
        return sum(s["self_s"] for n, s in spans.items() if n.startswith(prefix + "."))

    ms = "membership_solver"
    kkt_calls = calls(f"{ms}.find_kkt_point")
    lp_calls = calls("lp_solver.solve_lp")
    out = {
        f"{ms}.solve_s": (total(f"{ms}.solve"), "s"),
        f"{ms}.find_kkt_point_calls": (kkt_calls, "count"),
        f"{ms}.kkt_iterations": (counts.get("kkt_iterations", 0), "count"),
        f"{ms}.kkt_converged_ratio": (ratio(counts.get("kkt_converged", 0), kkt_calls), "ratio"),
    }
    for fn in ("objective", "project_simplex", "stationarity_residual"):
        out[f"{ms}.{fn}_calls"] = (calls(f"{ms}.{fn}"), "count")
        out[f"{ms}.{fn}_s"] = (total(f"{ms}.{fn}"), "s")
    out.update({
        f"{ms}.lstsq_calls": (calls("numpy.linalg.lstsq"), "count"),
        f"{ms}.lstsq_s": (total("numpy.linalg.lstsq"), "s"),
        f"{ms}.extract_multipliers_s": (total(f"{ms}.extract_multipliers"), "s"),
        f"{ms}.multiplier_failures": (counts.get("multiplier_failures", 0), "count"),
        f"{ms}.self_s": (layer_self(ms), "s"),
        "lp_solver.solve_lp_calls": (lp_calls, "count"),
        "lp_solver.solve_lp_s": (total("lp_solver.solve_lp"), "s"),
        "lp_solver.non_optimal_ratio": (ratio(counts.get("lp_non_optimal", 0), lp_calls), "ratio"),
        "lp_solver.tableau_cells_computed": (counts.get("lp_tableau_cells", 0), "count"),
        "oracle.points": (sum(points.values()), "count"),
        "oracle.chunks": (calls("oracle._decode_digits"), "count"),
    })
    for fn in ORACLE_SCANS:
        seconds = total(f"oracle.{fn}")
        out[f"oracle.{fn}_s"] = (seconds, "s")
        out[f"oracle.{fn}_points_per_s"] = (ratio(points.get(fn, 0), seconds), "1/s")
    out.update({
        "instances.verify_calls": (
            calls("instances.verify_min_kkt") + calls("instances.verify_minmax_kkt"), "count"),
        "instances.verify_s": (
            total("instances.verify_min_kkt") + total("instances.verify_minmax_kkt"), "s"),
        "game_core.verify_epsilon_nash_s": (total("game_core.verify_epsilon_nash"), "s"),
        "game_core.validate_two_team_s": (total("game_core.validate_two_team"), "s"),
        "reductions.reduce_full_s": (total("reductions.reduce_full"), "s"),
        "reductions.pullback_full_s": (total("reductions.pullback_full"), "s"),
        "cli.main_calls": (calls("cli.main"), "count"),
        "cli.self_s": (spans.get("cli.main", {}).get("self_s", 0.0), "s"),
    })
    return out


def traced_run(workload, loop_cls):
    """One untraced pass, then the same pass traced.

    Returns (loop, metrics, record, tracer); the caller writes the spans.
    """
    untraced = loop_cls()
    untraced.serve_pass(workload.requests)

    tracer = Tracer()
    install(tracer)
    traced = loop_cls(tracer)
    points: dict[str, int] = {}
    try:
        tracer.active = True
        for i, request in enumerate(workload.requests):
            if traced.serve(request, i) and request.scan:
                points[request.scan] = points.get(request.scan, 0) + request.points
        tracer.active = False
    finally:
        tracer.restore()

    metrics = layer_metrics(tracer, points)
    untraced_p50 = statistics.median(untraced.latencies)
    traced_p50 = statistics.median(traced.latencies)
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    metrics["trace.spans"] = (len(tracer.start), "count")

    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    record = {
        "exact_counts": {key: metrics[key][0] for key in EXACT_COUNTS},
        "untraced_p50_s": untraced_p50,
        "traced_p50_s": traced_p50,
        "span_summary": tracer.summary(),
    }
    return traced, metrics, record, tracer
