"""Built-in uncertain initial-value problems and their moment projection."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .basis import GpcBasis, build_basis, build_partition
from .euler import GasModel
from .fv import MomentField, StructuredGrid, grid_1d, grid_2d

if TYPE_CHECKING:
    from .config import BasisSpec, GridSpec, ProblemSpec

__all__ = [
    "make_gas",
    "make_grid",
    "make_basis",
    "make_initial",
    "project_initial_data",
    "initial_node_states",
]

XI_DOMAIN = (-1.0, 1.0)


def make_gas(problem: ProblemSpec) -> GasModel:
    return GasModel(gamma=problem.gamma)


def _sod_states(problem: ProblemSpec, two_d: bool):
    rest = (0.0,) * (1 + two_d)  # the gas is at rest: one zero momentum per axis
    left = (problem.rho_l, *rest, problem.e_l)
    right = (problem.rho_r, *rest, problem.e_r)
    return np.asarray(left), np.asarray(right)


def make_grid(grid: GridSpec, problem: ProblemSpec) -> StructuredGrid:
    two_d = problem.preset == "riemann_2d"
    left, right = _sod_states(problem, two_d)
    if grid.bc == "dirichlet":
        bc_x = (("dirichlet", left), ("dirichlet", right))
    else:
        bc_x = grid.bc
    if not two_d:
        return grid_1d(grid.nx, grid.x_min, grid.x_max, bc=bc_x)
    return grid_2d(
        grid.nx,
        grid.ny,
        (grid.x_min, grid.x_max),
        (grid.y_min, grid.y_max),
        bc_x=bc_x,
        bc_y=grid.bc_y,
    )


def make_basis(spec: BasisSpec) -> GpcBasis:
    partition = build_partition(*XI_DOMAIN, spec.n_elements)
    count = spec.cc_level if spec.quadrature == "clenshaw-curtis" else spec.quad_points
    return build_basis(partition, spec.degree, spec.quadrature, count)


def make_initial(problem: ProblemSpec):
    """Initial-state callable; broadcasts over positions and the random variable.

    1D problems return initial(x, xi) -> (..., 3); riemann_2d returns
    initial(x, y, xi) -> (..., 4).
    """
    gamma = problem.gamma
    if problem.preset == "custom_1d":
        # smooth sine density bump with uncertain amplitude, uniform pressure
        def initial(x, xi):
            x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
            rho = problem.rho0 + problem.amplitude * np.sin(2.0 * np.pi * x) * (
                1.0 + problem.xi_coupling * xi
            )
            u = np.empty(x.shape + (3,))
            u[..., 0] = rho
            u[..., 1] = rho * problem.velocity
            u[..., 2] = problem.pressure / (gamma - 1.0) + 0.5 * rho * problem.velocity**2
            return u

        return initial
    left, right = _sod_states(problem, two_d=problem.preset == "riemann_2d")

    def initial(*coords):
        # the interface x0 + sigma*xi splits the first coordinate
        x, *_, xi = np.broadcast_arrays(*(np.asarray(c, float) for c in coords))
        mask = (x < problem.x0 + problem.sigma * xi)[..., None]
        return np.where(mask, left, right)

    return initial


def initial_node_states(initial, grid: StructuredGrid, basis: GpcBasis) -> np.ndarray:
    """Initial states at cell centers and quadrature nodes (cells..., L, Q, d)."""
    centers = np.meshgrid(*map(grid.cell_centers, range(grid.ndim)), indexing="ij")
    return initial(*(c[..., None, None] for c in centers), basis.nodes)


def project_initial_data(initial, grid: StructuredGrid, basis: GpcBasis) -> MomentField:
    """Moment coefficients of the initial data, one block per (cell, element)."""
    coeffs = basis.project(initial_node_states(initial, grid, basis))
    return MomentField(grid=grid, basis=basis, coeffs=coeffs)
