"""Structured finite-volume machinery shared by the intrusive solvers.

Grids are uniform rectangles in 1D/2D. Moment fields store one coefficient
vector per (spatial cell, random element, polynomial index, conserved
component). The flux machinery works pointwise in the random variable:
states are reconstructed at the quadrature nodes, the HLL flux is evaluated
per node, and the flux differences are projected back onto the basis.
``integrate`` is the one time loop every solver hands its step to.

The time loops' CFL scan, flux, projection and update run per axis on the
window where neighbouring node states differ in their bits
(``_flux_window``, ``moment_flux_divergence``), with the bits of the
full-grid step; only ``cfl_time_step`` scans the full grid.
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
    _flux_and_speeds,
    _require,
    _sound_speed_in_place,
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
        for axis, n, (lo, hi) in zip("xy", self.shape, self.extents):
            if n < 1:
                raise ValueError(f"n{axis} must be positive, got {n}")
            if not lo < hi:
                raise ValueError(f"{axis}_min must be less than {axis}_max, got ({lo}, {hi})")
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


def _hll_unchecked(
    ul, ur, gas: GasModel, axis: int, *, sides=None, work=None, room=None
) -> np.ndarray:
    """HLL two-wave flux with Davis wave-speed bounds, on admissible states.

    s_L = min(v_L - c_L, v_R - c_R), s_R = max(v_L + c_L, v_R + c_R);
    consistent (flux(u, u) = physical flux) and positivity preserving under
    the CFL restriction. ``sides`` is ((f, v, c) of ``ul``, (f, v, c) of
    ``ur``) from ``_flux_and_speeds`` when the caller has them; ``work`` is
    the ``_Workspace`` the flux and its temporaries go into (a fresh one
    without it), and ``room`` the shape, at least ``ul.shape``, its buffers
    are made for. Every operation keeps the operands and order of the plain
    formula, so the buffers do not change a bit of the result. Speeds,
    masks and their product and difference are made once per state; the
    loop then runs one component at a time, since broadcast along the
    component axis numpy's inner loops would span only 3 or 4 entries.
    """
    if sides is None:
        sides = (_flux_and_speeds(ul, gas, axis), _flux_and_speeds(ur, gas, axis))
    (fl, vl, cl), (fr, vr, cr) = sides
    work = _Workspace() if work is None else work
    shape, node_room = vl.shape, (ul.shape if room is None else room)[:-1]
    s_l = np.subtract(vl, cl, out=work.take("s_l", shape, node_room))
    s_r = np.add(vl, cl, out=work.take("s_r", shape, node_room))
    term = work.take("term", shape, node_room)
    np.minimum(s_l, np.subtract(vr, cr, out=term), out=s_l)
    np.maximum(s_r, np.add(vr, cr, out=term), out=s_r)
    left = np.greater_equal(s_l, 0.0, out=work.take("left", shape, node_room, bool))
    right = np.less_equal(s_r, 0.0, out=work.take("right", shape, node_room, bool))
    flux, f = work.take("flux", ul.shape, room), work.take("component", shape, node_room)
    with np.errstate(divide="ignore", invalid="ignore"):
        product = np.multiply(s_l, s_r, out=work.take("product", shape, node_room))
        width = np.subtract(s_r, s_l, out=work.take("width", shape, node_room))
        for i in range(ul.shape[-1]):
            # the middle state, s_r fl - s_l fr + s_l s_r (ur - ul), over s_r - s_l
            np.multiply(s_r, fl[..., i], out=f)
            f -= np.multiply(s_l, fr[..., i], out=term)
            f += np.multiply(product, np.subtract(ur[..., i], ul[..., i], out=term), out=term)
            f /= width
            np.copyto(f, fl[..., i], where=left)
            np.copyto(f, fr[..., i], where=right)
            flux[..., i] = f
    return flux


def cfl_time_step(node_states, grid: StructuredGrid, gas: GasModel, cfl: float) -> float:
    """Time step from lambda_1 dt/dx + lambda_2 dt/dy <= cfl (1D drops the y term).

    lambda_a is the largest |v| + c along axis a over every cell, element and
    quadrature node: a scan of the full grid, whose error's ``index`` locates
    the first inadmissible state. The time loops take the same step from
    their flux windows' scans (``_flux_window``).
    """
    u = np.asarray(node_states, dtype=float)
    e_int, ok = _energy_and_mask(u)
    _require(ok, InadmissibleStateError, "inadmissible state in wave-speed scan at index {index}")
    rho = u[..., 0]
    # the sound speed from the one energy the admissibility test used
    e_int *= gas.gamma - 1.0
    c = _sound_speed_in_place(rho, e_int, gas)
    speeds = [float(np.max(np.abs(u[..., 1 + a] / rho) + c)) for a in range(grid.ndim)]
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
    node_states: np.ndarray, grid: StructuredGrid, axis: int, out=None
) -> np.ndarray:
    """Node-state array with one ghost layer per side along a spatial axis.

    Equivalent to extending the moments and reconstructing: the ghost states
    of a dirichlet side are the prescribed state at every node. ``out``, if
    given, is the array of the extended shape to write them into.
    """
    lo_bc, hi_bc = grid.bcs[axis]
    n = node_states.shape[axis]
    first = _take_range(node_states, axis, 0, 1)
    last = _take_range(node_states, axis, n - 1, n)
    return np.concatenate(
        [_ghost(lo_bc, first, last), node_states, _ghost(hi_bc, last, first)],
        axis=axis,
        out=out,
    )


class _Workspace:
    """Named flat buffers that the flux kernel reshapes for each call and axis.

    ``take(name, shape)`` returns the first prod(shape) entries of the named
    buffer, made anew when it holds fewer than prod(room) entries, where
    ``room`` is the shape the caller may later need (``shape`` by default).
    Every window-shaped array of a step (the flux kernel's temporaries, the
    flux differences, their projections) is taken with its full-grid room,
    so a held buffer does not grow with the window from step to step.
    ``run_sg`` and ``deterministic_solve`` hold one workspace for their run,
    so their step arrays are allocated once; fresh temporaries each step
    were trimmed from the heap and faulted in again by the next step.
    ``run_ipm`` holds none: each step makes its own and frees it before the
    dual solve, since buffers held through the solves would add to their
    peak memory.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name: str, shape, room=None, dtype=float) -> np.ndarray:
        size = math.prod(shape if room is None else room)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[: math.prod(shape)].reshape(shape)


def moment_flux_divergence(
    node_states: np.ndarray, grid: StructuredGrid, basis: GpcBasis, gas: GasModel, *, work=None
) -> tuple:
    """Projected flux divergence sum_axis <(F_+ - F_-) phi_k f> / dh, on the flux windows.

    ``node_states`` (cells..., L, Q, d) feed every axis. Returns (speeds,
    pieces): each axis's largest |v| + c over the grid, and ``_window_sum``'s
    (cells, values) pieces of the divergence in the coefficient layout
    (cells..., L, K+1, d); it is +0.0 on every other cell. The pieces are
    views of the ``_Workspace`` ``work`` (a fresh one without it).
    """
    work = _Workspace() if work is None else work
    room = node_states.shape[:-2] + (basis.n_coeffs, node_states.shape[-1])
    windows = (_flux_window(node_states, grid, gas, a, work) for a in range(grid.ndim))
    speeds, starts, diffs = zip(*windows)
    terms = []
    for name, diff, h in zip(("div", "contrib"), diffs, grid.deltas):
        term = basis.project(diff, out=work.take(name, diff.shape[:-2] + room[-2:], room))
        term /= h
        terms.append(term)
    return speeds, _window_sum(terms, starts)


def _flux_window(
    states: np.ndarray,
    grid: StructuredGrid,
    gas: GasModel,
    axis: int,
    work: _Workspace,
    reduce=None,
) -> tuple:
    """One axis's wave speed and its flux difference on the axis's window.

    The one interface-flux routine. The ghost-extended states go into
    ``work``, and their bits are compared across each interface over every
    other axis (bits, not floats: -0.0 == +0.0, but their fluxes can differ
    in the sign of a zero). A cell whose two interfaces both join equal
    states has equal fluxes on them, so an exact ``F - F = +0.0``. Only the
    window of cells that holds every unequal interface, plus one equal
    interface at each end, gets its flux, velocity and sound speed once per
    cell and the HLL flux of its interfaces, through left and right views.
    An axis without an unequal interface runs no HLL flux.

    Every grid cell outside the window equals, bit for bit, a grid cell in
    it, in every line along the axis, so the window's grid cells (the
    first slab of cells when the window is empty) stand for the whole grid
    in the scan: their admissibility is checked before the flux sees them,
    and a failure runs ``cfl_time_step``'s full-grid scan for its located
    error. The largest |v_axis| + c comes from the flux's own velocity and
    sound speed, in the operation order of ``cfl_time_step``'s scan.

    Returns (speed, lo, diff): that speed, reduced over the axes ``reduce``
    (all by default), and the differences of the grid cells lo, lo + 1, ...
    along ``axis`` (none when the window is empty), in ``work``'s
    ``"diff<axis>"`` buffer. Every buffer is taken with its full-grid room.
    """
    shape = list(states.shape)
    shape[axis] += 2
    n, room = shape[axis], shape[:axis] + [shape[axis] - 1] + shape[axis + 1 :]
    ext = extend_node_states(states, grid, axis, out=work.take("ext", shape))
    bits = ext.view(np.uint64)
    differ = np.not_equal(
        _take_range(bits, axis, 0, n - 1), _take_range(bits, axis, 1, n),
        out=work.take("differ", room, dtype=bool),
    )
    changed = np.flatnonzero(differ.any(axis=tuple(a for a in range(ext.ndim) if a != axis)))
    # the window's ext cells [lo, hi): interface i joins ext cells i and i + 1.
    # With no unequal interface every cell along the axis is equal, and the
    # first grid cell stands for them all in the scan.
    lo, hi = (1, 2)
    if changed.size:
        lo, hi = max(int(changed[0]) - 1, 0), min(int(changed[-1]) + 3, n)
    full = (ext, work.take("f", shape), work.take("v", shape[:-1]), work.take("c", shape[:-1]))
    u, *out = (_take_range(a, axis, lo, hi) for a in full)
    # the window's grid cells, without its ghost cells
    inner = max(1 - lo, 0), min(hi, n - 1) - lo
    v, c = (_take_range(a, axis, *inner) for a in out[1:])
    if not np.all(_energy_and_mask(_take_range(u, axis, *inner), out=c)[1]):
        # the grid holds these states too: its scan raises at its first bad one
        cfl_time_step(states, grid, gas, 1.0)
    per_cell = (u,) + _flux_and_speeds(u, gas, axis, out=out)
    diff_shape = list(states.shape)
    diff_shape[axis] = 0
    diff = np.empty(diff_shape)
    if changed.size:
        m = hi - lo
        ul, *left = (_take_range(a, axis, 0, m - 1) for a in per_cell)
        ur, *right = (_take_range(a, axis, 1, m) for a in per_cell)
        flux = _hll_unchecked(ul, ur, gas, axis, sides=(left, right), work=work, room=room)
        diff_shape[axis] = m - 2
        diff = np.subtract(
            _take_range(flux, axis, 1, m - 1),
            _take_range(flux, axis, 0, m - 2),
            out=work.take(f"diff{axis}", diff_shape, states.shape),
        )
    # |v| + c in place of v, which the flux has done with
    speed = np.abs(v, out=v)
    speed += c
    return np.max(speed, axis=reduce), lo, diff


def _window_sum(terms: list, starts: list) -> list:
    """(cells, total) pieces of sum_axis terms, over the union of the windows.

    ``terms[a]`` holds axis a's term on the grid cells ``starts[a]``,
    ``starts[a] + 1``, ... along axis a; everywhere else it is +0.0. Each
    total adds the terms in axis order, as the full-grid sum does, with
    +0.0 for an axis whose window misses the cell (x + 0.0 turns a -0.0 into
    +0.0). Outside the pieces every total is +0.0. The totals are views of
    the terms, added into in place.
    """
    tx, x0 = terms[0], starts[0]
    x1 = x0 + tx.shape[0]
    if len(terms) == 1:
        return [((slice(x0, x1),), tx)]
    ty, y0 = terms[1], starts[1]
    y1 = y0 + ty.shape[1]
    tx[:, :y0] += 0.0
    tx[:, y0:y1] += ty[x0:x1]
    tx[:, y1:] += 0.0
    ty[:x0] += 0.0
    ty[x1:] += 0.0
    y = slice(y0, y1)
    return [((slice(x0, x1),), tx), ((slice(0, x0), y), ty[:x0]), ((slice(x1, None), y), ty[x1:])]


def _window_update(coeffs, divergence: tuple, grid: StructuredGrid, cfl: float, dt_max: float):
    """One forward-Euler step of the moments ``coeffs``, in place, on the flux windows.

    ``divergence`` is ``moment_flux_divergence``'s (speeds, pieces). The
    step is the CFL step of the speeds, at most ``dt_max``, and
    ``coeffs -= dt * divergence`` runs on the pieces alone, the only cells
    it changes. Returns the step.
    """
    speeds, pieces = divergence
    dt = min(_cfl_steps(speeds, grid, cfl), dt_max)
    for cells, total in pieces:
        total *= dt
        coeffs[cells] -= total
    return dt


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
    has reached ``t_end`` takes steps of zero. As in the moment solvers'
    steps, every axis's flux difference is taken from the same state. Each step
    scans, fluxes and updates the flux windows alone (``_flux_window``,
    ``_window_sum``), with the bits of the full-grid step, and the run holds
    one flux workspace. Returns the final states and the loop's
    ``RunStats``, whose steps are those of the row that needs the most.
    """
    u = np.array(states, dtype=float)
    cells = tuple(range(grid.ndim))
    work = _Workspace()

    def step(stats: RunStats, dt_max) -> np.ndarray:
        speeds, starts, terms = zip(*(_flux_window(u, grid, gas, a, work, cells) for a in cells))
        dt = np.clip(dt_max, 0.0, _cfl_steps(speeds, grid, cfl))
        for diff, h in zip(terms, grid.deltas):
            np.multiply((dt / h)[:, None], diff, out=diff)
        for where, total in _window_sum(terms, starts):
            u[where] -= total
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
