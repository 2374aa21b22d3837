"""Experiment orchestration: build, run, compare against a reference, report."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .config import RunConfig, parse_config
from .fv import RunStats
from .ipm import initial_duals_from_states, run_ipm
from .problems import (
    _sod_states,
    initial_node_states,
    make_basis,
    make_gas,
    make_grid,
    make_initial,
    project_initial_data,
)
from .riemann import _collocation, collocation_reference, sod_reference_on_grid
from .sg import run_sg
from .stats import FieldStatistics, field_statistics, relative_errors, write_csv

__all__ = ["RunReport", "run", "run_batch"]


@dataclass
class RunReport:
    config: RunConfig
    stats: RunStats
    statistics: FieldStatistics
    errors: dict | None
    output_files: dict


def run(config: RunConfig, output_dir=None) -> RunReport:
    """Execute the configured experiment and write statistics and reports."""
    gas = make_gas(config.problem)
    grid = make_grid(config.grid, config.problem)
    initial = make_initial(config.problem)
    solver = config.method.traits.solver
    if solver != "collocation":
        basis = make_basis(config.basis)
        field0 = project_initial_data(initial, grid, basis)
    out = Path(output_dir if output_dir is not None else config.output.directory)
    out.mkdir(parents=True, exist_ok=True)

    if solver == "collocation":
        statistics, stats = _collocation(
            initial, grid, gas, config.method.t_end, config.method.cfl, config.method.nodes
        )
    else:
        if solver == "ipm":
            duals0 = initial_duals_from_states(
                initial_node_states(initial, grid, basis), basis, gas
            )
            result = run_ipm(
                field0,
                gas,
                config.method.t_end,
                cfl=config.method.cfl,
                newton=config.newton,
                initial_duals=duals0,
            )
        else:
            result = run_sg(
                field0,
                gas,
                config.method.t_end,
                cfl=config.method.cfl,
                filter_config=config.filter,
                limiter_config=config.limiter,
            )
        stats = result.stats
        statistics = field_statistics(result.field)

    files = {}
    stats_path = out / config.output.stats_csv
    write_csv(statistics, stats_path)
    files["stats_csv"] = stats_path

    errors = None
    if config.output.reference != "none":
        reference = _reference_statistics(
            config.output.reference, config.output.reference_nodes, config, grid, gas, initial
        )
        err_e, err_v = relative_errors(statistics, reference)
        errors = {"errE_rho": float(err_e[0]), "errVar_rho": float(err_v[0])}
        errors_path = out / config.output.errors_csv
        errors_path.write_text(_ERRORS_HEADER + "\n" + _errors_row(config, errors, stats) + "\n")
        files["errors_csv"] = errors_path

    report_path = out / config.output.report
    _write_report(report_path, config, stats, errors)
    files["report"] = report_path
    return RunReport(
        config=config,
        stats=stats,
        statistics=statistics,
        errors=errors,
        output_files=files,
    )


def _reference_statistics(kind: str, n_nodes: int, config: RunConfig, grid, gas, initial):
    """Statistics of the exact Sod or the collocation reference, on ``n_nodes`` nodes."""
    if kind == "exact_sod":
        p = config.problem
        left, right = _sod_states(p, two_d=False)
        return sod_reference_on_grid(
            left,
            right,
            gas,
            grid,
            config.method.t_end,
            x0=p.x0,
            sigma=p.sigma,
            n_nodes=n_nodes,
            subcells=config.output.reference_subcells,
        )
    return collocation_reference(
        initial,
        grid,
        gas,
        config.method.t_end,
        cfl=config.method.cfl,
        n_nodes=n_nodes,
    )


_ERRORS_HEADER = "method,K,N_Xi,cells,errE_rho,errVar_rho,wall_s,dual_solve_s"


def _errors_row(config: RunConfig, errors: dict, stats: RunStats) -> str:
    cells = config.grid.nx * (config.grid.ny or 1)
    return (
        f"{config.method.name},{config.basis.degree},{config.basis.n_elements},"
        f"{cells},{errors['errE_rho']:.17g},{errors['errVar_rho']:.17g},"
        f"{stats.wall_s:.6f},{stats.dual_solve_s:.6f}"
    )


def run_batch(config_paths, output_dir) -> list:
    """Run a list of configurations, each into its own subdirectory.

    Subdirectories are numbered by position to stay collision-free; runs
    with a configured reference contribute one row to a combined errors
    table at <output_dir>/errors.csv.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    rows = []
    for i, path in enumerate(config_paths):
        config = parse_config(Path(path))
        sub = out / f"{i:02d}_{Path(path).stem}"
        report = run(config, output_dir=sub)
        reports.append(report)
        if report.errors is not None:
            rows.append(_errors_row(config, report.errors, report.stats))
    if rows:
        (out / "errors.csv").write_text(_ERRORS_HEADER + "\n" + "\n".join(rows) + "\n")
    return reports


def _write_report(path, config: RunConfig, stats: RunStats, errors: dict | None):
    lines = {
        "method": config.method.name,
        "problem": config.problem.preset,
        "cells": config.grid.nx * (config.grid.ny or 1),
        "elements": config.basis.n_elements,
        "degree": config.basis.degree,
        "t_end": config.method.t_end,
        "cfl": config.method.cfl,
        **asdict(stats),
    }
    if errors:
        lines.update(errors)
    path.write_text("".join(f"{k}: {v}\n" for k, v in lines.items()))
