"""Where the traced run puts its spans, and how spans become per-layer metrics.

Spans wrap, from outside the package, the module-level names one uqfv module
calls in another (``uqfv.sg.apply_limiter``, ``uqfv.ipm._dual_eval``,
``uqfv.fv._hll_unchecked``, ...), plus the library calls the benchmark makes
itself. The package's code is not changed; untraced runs call the originals.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

import uqfv
from uqfv import fv, ipm, riemann, sg
from uqfv.ipm import initial_duals_from_states
from uqfv.problems import initial_node_states

from harness import LayerTotals

# counts that must repeat exactly between runs of one seed, traced or not
REPEATING = (
    "steps",
    "ipm.newton_iterations",
    "euler.dual_eval_nodes",
    "sg.limited_blocks",
    "fv.node_fluxes",
    "riemann.sample_calls",
)


def library_api() -> SimpleNamespace:
    """The public library calls the benchmark makes; traced, each is a top-level span."""
    return SimpleNamespace(
        build_basis=uqfv.build_basis,
        project_initial_data=uqfv.project_initial_data,
        initial_node_states=initial_node_states,
        initial_duals_from_states=initial_duals_from_states,
        run_sg=uqfv.run_sg,
        run_ipm=uqfv.run_ipm,
        sod_reference_on_grid=uqfv.sod_reference_on_grid,
        collocation_reference=uqfv.collocation_reference,
        field_statistics=uqfv.field_statistics,
        relative_errors=uqfv.relative_errors,
        write_csv=uqfv.write_csv,
    )


def _steps(args, kwargs, result):
    return {"steps": result.stats.steps}


def _rows(args, kwargs, result):
    return {"rows": math.prod(args[0].grid.shape)}


def _limiter(args, kwargs, result):
    theta = result[1]
    return {
        "blocks": theta.size,
        "limited": int(np.count_nonzero(theta > 0.0)),
        "max_theta": float(theta.max(initial=0.0)),
    }


def _duals(args, kwargs, result):
    stats = result[1]
    problems = stats.per_problem_iterations.size
    return {
        "iterations": stats.iterations,
        "max_iterations_single": stats.max_iterations_single,
        "problems": problems,
        # solve_duals splits the problem axis into fixed chunks of this size
        "chunks": -(-problems // ipm._CHUNK),
    }


def _dual_eval(args, kwargs, result):
    lam = args[0]
    return {"nodes": math.prod(lam.shape[:-1]), "problems": lam.shape[0]}


def _interfaces(args, kwargs, result):
    return {"nodes": math.prod(args[0].shape[:-1])}


def hooks(api: SimpleNamespace) -> list:
    """(owner, attribute, span name, counter) for every traced call."""
    return [
        (api, "build_basis", "basis.build", None),
        (api, "project_initial_data", "problems.project", None),
        (api, "initial_node_states", "ipm.initial_duals", None),
        (api, "initial_duals_from_states", "ipm.initial_duals", None),
        (api, "run_sg", "sg.run", _steps),
        (api, "run_ipm", "ipm.run", _steps),
        (api, "sod_reference_on_grid", "riemann.exact_ref", None),
        (api, "collocation_reference", "riemann.collocation", None),
        (api, "field_statistics", "stats.field_statistics", None),
        (api, "relative_errors", "stats.relative_errors", None),
        (api, "write_csv", "stats.write_csv", _rows),
        (sg, "apply_filter", "sg.filter", None),
        (sg, "apply_limiter", "sg.limiter", _limiter),
        (sg, "admissible_mask", "euler.admissible_scan", None),
        (sg, "cfl_time_step", "fv.cfl", None),
        (ipm, "cfl_time_step", "fv.cfl", None),
        (sg, "moment_flux_divergence", "fv.flux_div", None),
        (ipm, "moment_flux_divergence", "fv.flux_div", None),
        (fv, "extend_node_states", "fv.ghost", None),
        (fv, "_hll_unchecked", "fv.hll", _interfaces),
        (ipm, "solve_duals", "ipm.solve_duals", _duals),
        (ipm, "_dual_eval", "euler.dual_eval", _dual_eval),
        (ipm, "dual_range_mask", "euler.dual_range", None),
        (ipm, "_dual_to_state_unchecked", "euler.dual_to_state", None),
        (ipm, "dual_node_states", "ipm.node_states", None),
        (riemann, "deterministic_solve", "fv.deterministic_solve", None),
        (riemann, "solve_riemann", "riemann.solve_riemann", None),
        (riemann.RiemannSolution, "sample", "riemann.sample", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def setup_metrics(t: LayerTotals) -> dict:
    return {
        "basis.build_s": t.duration["basis.build"],
        "problems.project_s": t.duration["problems.project"],
        "ipm.initial_duals_s": t.duration["ipm.initial_duals"],
    }


def body_metrics(t: LayerTotals, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition of a workload's timed body."""
    dur, own, calls, n = t.duration, t.self_time, t.calls, t.counts
    hll_nodes = int(n["fv.hll"]["nodes"])
    blocks = n["sg.limiter"]["blocks"]
    limited = int(n["sg.limiter"]["limited"])
    problems = int(n["ipm.solve_duals"]["problems"])
    iterations = int(n["ipm.solve_duals"]["iterations"])
    # every Newton iteration accepts one trial; the first evaluation per
    # problem and solve is the starting point, not a trial
    trials = n["euler.dual_eval"]["problems"] - problems
    return {
        "fv.flux_div_s": dur["fv.flux_div"],
        "fv.flux_div_calls": calls["fv.flux_div"],
        "fv.hll_s": dur["fv.hll"],
        "fv.ghost_s": dur["fv.ghost"],
        "fv.projection_s": own["fv.flux_div"],
        "fv.node_fluxes": hll_nodes,
        "fv.node_fluxes_per_s": _ratio(hll_nodes, dur["fv.hll"]),
        "fv.cfl_s": dur["fv.cfl"],
        "fv.cfl_calls": calls["fv.cfl"],
        "fv.deterministic_solve_s": dur["fv.deterministic_solve"],
        "fv.deterministic_solve_calls": calls["fv.deterministic_solve"],
        "euler.admissible_scan_s": dur["euler.admissible_scan"],
        "euler.admissible_scan_calls": calls["euler.admissible_scan"],
        "euler.dual_eval_s": dur["euler.dual_eval"],
        "euler.dual_eval_calls": calls["euler.dual_eval"],
        "euler.dual_eval_nodes": int(n["euler.dual_eval"]["nodes"]),
        "euler.dual_range_s": dur["euler.dual_range"],
        "euler.dual_to_state_s": dur["euler.dual_to_state"],
        "sg.limiter_s": dur["sg.limiter"],
        "sg.limiter_calls": calls["sg.limiter"],
        "sg.limited_blocks": limited,
        "sg.limited_share": _ratio(limited, blocks),
        "sg.max_theta": t.maxima["sg.limiter"]["max_theta"],
        "sg.filter_s": dur["sg.filter"],
        "sg.filter_calls": calls["sg.filter"],
        "sg.self_s": own["sg.run"],
        "ipm.solve_duals_s": dur["ipm.solve_duals"],
        "ipm.solve_duals_calls": calls["ipm.solve_duals"],
        "ipm.newton_self_s": own["ipm.solve_duals"],
        "ipm.newton_iterations": iterations,
        "ipm.max_iterations_single": int(t.maxima["ipm.solve_duals"]["max_iterations_single"]),
        "ipm.problems": problems,
        "ipm.iterations_per_problem": _ratio(iterations, problems),
        "ipm.trial_acceptance": _ratio(iterations, trials),
        "ipm.chunks": int(n["ipm.solve_duals"]["chunks"]),
        "ipm.node_states_s": dur["ipm.node_states"],
        "ipm.self_s": own["ipm.run"],
        "riemann.exact_ref_s": dur["riemann.exact_ref"],
        "riemann.solve_riemann_calls": calls["riemann.solve_riemann"],
        "riemann.sample_calls": calls["riemann.sample"],
        "riemann.sample_s": dur["riemann.sample"],
        "riemann.collocation_self_s": own["riemann.collocation"],
        "stats.field_statistics_s": dur["stats.field_statistics"],
        "stats.relative_errors_s": dur["stats.relative_errors"],
        "stats.write_csv_s": dur["stats.write_csv"],
        "stats.csv_rows": int(n["stats.write_csv"]["rows"]),
        "steps": int(n["sg.run"]["steps"] + n["ipm.run"]["steps"]),
        "trace.accounted_share": _ratio(t.top_level, wall_s),
    }
