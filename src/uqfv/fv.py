"""Structured finite-volume machinery shared by the intrusive solvers.

Grids are uniform rectangles in 1D/2D. Moment fields store one coefficient
vector per (spatial cell, random element, polynomial index, conserved
component). The flux machinery works pointwise in the random variable:
states are reconstructed at the quadrature nodes, the HLL flux is evaluated
per node, and the flux differences are projected back onto the basis.
``integrate`` is the one time loop every solver hands its step to.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .basis import GpcBasis
from .euler import (
    GasModel,
    InadmissibleStateError,
    SolverError,
    _energy_and_mask,
    _first_false,
    _flux_and_speeds,
    _sound_speed_unchecked,
)

__all__ = [
    "StructuredGrid",
    "grid_1d",
    "grid_2d",
    "MomentField",
    "cfl_time_step",
    "extend_node_states",
    "moment_flux_divergence",
    "deterministic_solve",
    "integrate",
    "RunStats",
    "RunResult",
]


def _normalize_bc(bc):
    """Accept 'transmissive' | 'periodic' | ('dirichlet', state)."""
    if isinstance(bc, str):
        if bc not in ("transmissive", "periodic"):
            raise ValueError(f"unknown boundary condition: {bc!r}")
        return (bc, None)
    kind, state = bc
    if kind != "dirichlet":
        raise ValueError(f"unknown boundary condition: {kind!r}")
    return ("dirichlet", np.asarray(state, dtype=float))


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform rectangular mesh with per-side boundary conditions.

    ``shape`` is (nx,) or (nx, ny); ``extents`` holds one (lo, hi) pair per
    axis; ``bcs`` holds one (low side, high side) pair of boundary
    conditions per axis.
    """

    shape: tuple
    extents: tuple
    bcs: tuple

    def __post_init__(self):
        for n in self.shape:
            if n < 1:
                raise ValueError(f"cell counts must be positive, got {self.shape}")
        for lo, hi in self.extents:
            if not lo < hi:
                raise ValueError(f"empty extent ({lo}, {hi})")
        for lo_bc, hi_bc in self.bcs:
            if (lo_bc[0] == "periodic") != (hi_bc[0] == "periodic"):
                raise ValueError("periodic boundaries must pair up on an axis")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def deltas(self) -> tuple:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.extents, self.shape)
        )

    @property
    def cell_volume(self) -> float:
        return math.prod(self.deltas)

    def cell_centers(self, axis: int = 0) -> np.ndarray:
        lo = self.extents[axis][0]
        return lo + self.deltas[axis] * (np.arange(self.shape[axis]) + 0.5)


def _bc_pair(bc):
    """One spec for both sides, or a (low, high) pair of specs."""
    if isinstance(bc, str) or bc[0] == "dirichlet":
        bc = (bc, bc)
    return tuple(map(_normalize_bc, bc))


def grid_1d(nx: int, x_min: float, x_max: float, bc="transmissive") -> StructuredGrid:
    return StructuredGrid(shape=(nx,), extents=((x_min, x_max),), bcs=(_bc_pair(bc),))


def grid_2d(
    nx: int,
    ny: int,
    x_extent=(0.0, 1.0),
    y_extent=(0.0, 1.0),
    bc_x="transmissive",
    bc_y="transmissive",
) -> StructuredGrid:
    return StructuredGrid(
        shape=(nx, ny),
        extents=(x_extent, y_extent),
        bcs=(_bc_pair(bc_x), _bc_pair(bc_y)),
    )


@dataclass
class MomentField:
    """Coefficients indexed by (spatial cells..., element, gPC index, component)."""

    grid: StructuredGrid
    basis: GpcBasis
    coeffs: np.ndarray

    def __post_init__(self):
        expected = self.grid.shape + (
            self.basis.n_elements,
            self.basis.n_coeffs,
        )
        if self.coeffs.shape[:-1] != expected:
            raise ValueError(
                f"coefficient array shaped {self.coeffs.shape} does not match "
                f"grid x elements x coefficients {expected}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("moment field holds non-finite entries")

    def node_states(self) -> np.ndarray:
        """Reconstructed states at each quadrature node (cells..., L, Q, d)."""
        return self.basis.reconstruct(self.coeffs)


def _check_flux(flux: str) -> None:
    """Reject any flux name but HLL's, the one numerical flux, before a run starts."""
    if flux != "hll":
        raise ValueError(f"unknown numerical flux: {flux!r}")


def _hll_unchecked(ul, ur, gas: GasModel, axis: int) -> np.ndarray:
    """HLL two-wave flux with Davis wave-speed bounds, on admissible states.

    s_L = min(v_L - c_L, v_R - c_R), s_R = max(v_L + c_L, v_R + c_R);
    consistent (flux(u, u) = physical flux) and positivity preserving under
    the CFL restriction.
    """
    fl, vl, cl = _flux_and_speeds(ul, gas, axis)
    fr, vr, cr = _flux_and_speeds(ur, gas, axis)
    s_l = np.minimum(vl - cl, vr - cr)
    s_r = np.maximum(vl + cl, vr + cr)
    with np.errstate(divide="ignore", invalid="ignore"):
        middle = (
            s_r[..., None] * fl
            - s_l[..., None] * fr
            + (s_l * s_r)[..., None] * (ur - ul)
        ) / (s_r - s_l)[..., None]
    flux = np.where(s_l[..., None] >= 0.0, fl, middle)
    flux = np.where(s_r[..., None] <= 0.0, fr, flux)
    return flux


def _wave_speeds(node_states, grid: StructuredGrid, gas: GasModel):
    """|v| + c at every state, one array per axis, made as the caller takes it.

    An inadmissible state fails the scan; the error's ``index`` locates it.
    """
    u = np.asarray(node_states, dtype=float)
    e_int, ok = _energy_and_mask(u)
    if not np.all(ok):
        index = _first_false(ok)
        error = InadmissibleStateError(f"inadmissible state in wave-speed scan at index {index}")
        error.index = index
        raise error
    rho = u[..., 0]
    # the sound speed from the one energy the admissibility test used
    c = _sound_speed_unchecked(rho, (gas.gamma - 1.0) * e_int, gas)
    return (np.abs(u[..., 1 + a] / rho) + c for a in range(grid.ndim))


def cfl_time_step(node_states, grid: StructuredGrid, gas: GasModel, cfl: float) -> float:
    """Time step from lambda_1 dt/dx + lambda_2 dt/dy <= cfl (1D drops the y term).

    lambda_a is the largest |v| + c along axis a over every cell, element and
    quadrature node.
    """
    speeds = tuple(float(np.max(s)) for s in _wave_speeds(node_states, grid, gas))
    return _cfl_steps(speeds, grid, cfl)


def _cfl_steps(speeds, grid: StructuredGrid, cfl: float):
    """cfl / sum_axis(speed_axis / h_axis), elementwise in the per-axis speeds."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl number must lie in (0, 1], got {cfl}")
    denom = sum(s / h for s, h in zip(speeds, grid.deltas))
    if np.any(denom <= 0.0):
        raise ValueError("zero wave speed everywhere; nothing to advance")
    return cfl / denom


def _ghost(bc, inside: np.ndarray, across: np.ndarray) -> np.ndarray:
    """One side's ghost layer: its own edge layer, the far edge layer if the
    axis is periodic, or the prescribed state at every node."""
    kind, state = bc
    if kind == "transmissive":
        return inside
    if kind == "periodic":
        return across
    return np.broadcast_to(state, inside.shape)


def extend_node_states(
    node_states: np.ndarray, grid: StructuredGrid, axis: int
) -> np.ndarray:
    """Node-state array with one ghost layer per side along a spatial axis.

    Equivalent to extending the moments and reconstructing: the ghost states
    of a dirichlet side are the prescribed state at every node.
    """
    lo_bc, hi_bc = grid.bcs[axis]
    n = node_states.shape[axis]
    first = _take_range(node_states, axis, 0, 1)
    last = _take_range(node_states, axis, n - 1, n)
    return np.concatenate(
        [_ghost(lo_bc, first, last), node_states, _ghost(hi_bc, last, first)], axis=axis
    )


def moment_flux_divergence(
    node_states: np.ndarray,
    grid: StructuredGrid,
    basis: GpcBasis,
    gas: GasModel,
) -> np.ndarray:
    """Projected flux divergence sum_axis <(F_+ - F_-) phi_k f> / dh.

    ``node_states`` has shape (cells..., L, Q, d); the result matches the
    moment-coefficient layout (cells..., L, K+1, d). Forward Euler then reads
    ``coeffs -= dt * divergence``. Every axis sees the same ``node_states``.
    """
    div = None
    for axis in range(grid.ndim):
        diff = _flux_difference(node_states, grid, gas, axis)
        contrib = basis.project(diff) / grid.deltas[axis]
        div = contrib if div is None else div + contrib
    return div


def _flux_difference(
    states: np.ndarray, grid: StructuredGrid, gas: GasModel, axis: int
) -> np.ndarray:
    """F(i+1/2) - F(i-1/2) per cell along one axis, pointwise in the trailing axes."""
    ext = extend_node_states(states, grid, axis)
    left = _take_range(ext, axis, 0, ext.shape[axis] - 1)
    right = _take_range(ext, axis, 1, ext.shape[axis])
    return np.diff(_hll_unchecked(left, right, gas, axis), axis=axis)


def _take_range(arr: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    slicer = [slice(None)] * arr.ndim
    slicer[axis] = slice(start, stop)
    return arr[tuple(slicer)]


def deterministic_solve(
    states: np.ndarray,
    grid: StructuredGrid,
    gas: GasModel,
    t_end: float,
    cfl: float = 0.9,
) -> tuple[np.ndarray, RunStats]:
    """Plain first-order FV solve of independent realizations (cells..., rows, d).

    Used by the stochastic-collocation reference. Each row takes its own CFL
    step from its own cells' wave speeds and keeps its own time; a row that
    has reached ``t_end`` takes steps of zero. As in ``moment_flux_divergence``,
    every axis's flux difference is taken from the same state. Returns the
    final states and the loop's ``RunStats``, whose steps are those of the
    row that needs the most.
    """
    u = np.array(states, dtype=float)
    cells = tuple(range(grid.ndim))

    def step(stats: RunStats, dt_max) -> np.ndarray:
        nonlocal u
        speeds = [np.max(s, axis=cells) for s in _wave_speeds(u, grid, gas)]
        dt = np.clip(dt_max, 0.0, _cfl_steps(speeds, grid, cfl))
        update = None
        for axis, h in enumerate(grid.deltas):
            term = (dt / h)[:, None] * _flux_difference(u, grid, gas, axis)
            update = term if update is None else update + term
        u = u - update
        return dt

    stats = integrate(step, t_end)
    return u, stats


def integrate(step, t_end: float, max_steps: int | None = None) -> RunStats:
    """The time loop: march from t = 0 to ``t_end``, or for ``max_steps`` steps.

    ``step(stats, dt_max)`` advances its caller's state by one step of at
    most ``dt_max`` (so the last step lands on ``t_end``) and returns the
    step size; it may add phase times and Newton counts to ``stats``. The
    time takes the shape of the step size: a float, or one entry per row
    of a batch whose rows keep their own time. The loop runs while any row
    is short of ``t_end`` and hands ``step`` each row's ``t_end - t``. It
    owns the time, the step count and the wall time, and a solver error
    raised inside a step gains a ``step N:`` prefix.
    """
    if t_end < 0.0:
        raise ValueError(f"end time must be >= 0, got {t_end}")
    stats = RunStats()
    t = 0.0
    start = time.perf_counter()
    while np.any(t < t_end) and (max_steps is None or stats.steps < max_steps):
        try:
            t = t + step(stats, t_end - t)
        except SolverError as exc:
            exc.args = (f"step {stats.steps}: {exc}",)
            raise
        stats.steps += 1
    stats.wall_s = time.perf_counter() - start
    return stats


@contextmanager
def _timed(stats: RunStats, phase: str):
    """Add the wall time of a ``with`` block to the ``phase`` field of ``stats``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        setattr(stats, phase, getattr(stats, phase) + time.perf_counter() - start)


@dataclass
class RunStats:
    """Wall-clock and solver diagnostics accumulated over a run."""

    steps: int = 0
    wall_s: float = 0.0
    flux_s: float = 0.0
    filter_limiter_s: float = 0.0
    dual_solve_s: float = 0.0
    newton_iterations: int = 0
    newton_max_residual: float = 0.0


@dataclass
class RunResult:
    """Final moment field plus run diagnostics."""

    field: MomentField
    stats: RunStats
