"""Exact 1D Riemann solutions and quadrature references for uncertain data.

The exact solver provides the ground truth for the shock-tube experiments:
composed with quadrature over the random interface position it yields
pointwise mean and variance fields. A generic stochastic-collocation
reference runs the deterministic FV solver at quadrature nodes instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euler import GasModel, InadmissibleStateError, is_admissible
from .fv import RunStats, StructuredGrid, _check_flux, deterministic_solve
from .stats import FieldStatistics

__all__ = [
    "VacuumError",
    "RiemannSolution",
    "solve_riemann",
    "sod_reference_statistics",
    "collocation_reference",
]

# Gauss nodes per deterministic_solve batch in collocation_reference. At 400
# cells and 100 nodes, blocks of 25 took about 0.55 of the time of blocks of
# 5, within 5% of one 100-node batch, at a peak RSS of 38 MiB against 36 for
# blocks of 5 and 45 for the one batch.
_BLOCK = 25

# (sub-point, node) pairs per sample call of sod_reference_statistics: 8 fan
# pieces or 800 constant ones at 5 sub-points and 100 nodes. After a
# collocation run, 1600 cells (1690 fan pieces of 4800) took 0.040-0.054 s
# at 4000, 0.10-0.15 s at 1000 and 0.054-0.084 s at 8000, with 16.8k minor
# faults per reference against 560 at 4000; Gauss nodes on all pieces took
# 0.088-0.17 s at 4000.
_SAMPLES = 4000

# solve_riemann's Newton stops at |f| <= _RTOL times the data's velocity scale
_RTOL = 1e-12


class VacuumError(ValueError):
    """Initial data generates vacuum; the pressure equation has no positive root."""


def _primitives(u, gas: GasModel):
    rho = u[0]
    v = u[1] / rho
    p = (gas.gamma - 1.0) * (u[2] - 0.5 * u[1] ** 2 / rho)
    return rho, v, p


def _conserved(rho, v, p, gas: GasModel):
    return np.stack(
        [rho, rho * v, p / (gas.gamma - 1.0) + 0.5 * rho * v**2], axis=-1
    )


def _wave_function(p, rho_k, p_k, a_k, gamma):
    """Velocity jump across one wave and its derivative with respect to p."""
    if p > p_k:  # shock branch
        a_coef = 2.0 / ((gamma + 1.0) * rho_k)
        b_coef = (gamma - 1.0) / (gamma + 1.0) * p_k
        root = np.sqrt(a_coef / (p + b_coef))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (p + b_coef))
    else:  # rarefaction branch
        ratio = (p / p_k) ** ((gamma - 1.0) / (2.0 * gamma))
        f = 2.0 * a_k / (gamma - 1.0) * (ratio - 1.0)
        df = (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * a_k)
    return f, df


@dataclass(frozen=True)
class RiemannSolution:
    """Self-similar solution of the 1D Euler Riemann problem.

    ``sample(s)`` evaluates the conserved state at similarity coordinates
    s = x/t (vectorized). ``wave_speeds`` lists every wave speed, ordered,
    for piecewise integration over uncertain data.
    """

    gas: GasModel
    left: tuple
    right: tuple
    p_star: float
    v_star: float
    rho_star_left: float
    rho_star_right: float
    left_wave: str
    right_wave: str
    left_head: float
    left_tail: float
    right_tail: float
    right_head: float

    @property
    def wave_speeds(self) -> np.ndarray:
        return np.unique(
            [self.left_head, self.left_tail, self.v_star, self.right_tail, self.right_head]
        )

    def sample(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        g = self.gas.gamma
        rho = np.empty_like(s)
        v = np.empty_like(s)
        p = np.empty_like(s)

        left_outer = s <= self.left_head
        left_star = (s >= self.left_tail) & (s <= self.v_star)
        right_star = (s > self.v_star) & (s <= self.right_tail)
        right_outer = s >= self.right_head
        rho[left_outer], v[left_outer], p[left_outer] = self.left
        rho[right_outer], v[right_outer], p[right_outer] = self.right
        rho[left_star] = self.rho_star_left
        v[left_star], p[left_star] = self.v_star, self.p_star
        rho[right_star] = self.rho_star_right
        v[right_star], p[right_star] = self.v_star, self.p_star

        # the left fan mirrors the right one: sign -1 on the left, +1 on the right
        for sign, (rho_k, v_k, p_k), head, tail in (
            (-1.0, self.left, self.left_head, self.left_tail),
            (1.0, self.right, self.right_head, self.right_tail),
        ):
            fan = (sign * s < sign * head) & (sign * s > sign * tail)
            if np.any(fan):
                a = np.sqrt(g * p_k / rho_k)
                sf = s[fan]
                common = 2.0 / (g + 1.0) - sign * (g - 1.0) / ((g + 1.0) * a) * (v_k - sf)
                v[fan] = 2.0 / (g + 1.0) * (-sign * a + 0.5 * (g - 1.0) * v_k + sf)
                rho[fan] = rho_k * common ** (2.0 / (g - 1.0))
                p[fan] = p_k * common ** (2.0 * g / (g - 1.0))
        return _conserved(rho, v, p, self.gas)


def _star_side(p_star, v_star, rho, v, p, a, gamma, sign):
    """Wave kind, star density, head and tail speeds of one side's wave.

    ``sign`` is -1 on the left and +1 on the right, whose formulas mirror the
    left's (Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics,
    3rd ed., sections 4.2-4.5).
    """
    if p_star > p:
        mu = (gamma - 1.0) / (gamma + 1.0)
        rho_star = rho * (p_star / p + mu) / (mu * p_star / p + 1.0)
        s = v + sign * a * np.sqrt(
            (gamma + 1.0) / (2.0 * gamma) * p_star / p + (gamma - 1.0) / (2.0 * gamma)
        )
        return "shock", rho_star, s, s
    rho_star = rho * (p_star / p) ** (1.0 / gamma)
    a_star = a * (p_star / p) ** ((gamma - 1.0) / (2.0 * gamma))
    return "rarefaction", rho_star, v + sign * a, v_star + sign * a_star


def solve_riemann(left, right, gas: GasModel) -> RiemannSolution:
    """Exact two-wave solution by Newton on the pressure function.

    The pressure function is monotone and concave (Toro, section 4.3.1), so
    Newton from the two-rarefaction guess converges without a fallback. It
    stops when |f| <= 1e-12 (|v_l| + a_l + |v_r| + a_r): f is a velocity, so
    the stop is relative to the data's velocity scale, and the step is taken
    once more after the stop is met.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != (3,) or right.shape != (3,):
        raise ValueError("solve_riemann expects 1D conserved states (rho, m, E)")
    for side, state in (("left", left), ("right", right)):
        if not is_admissible(state, gas):
            raise InadmissibleStateError(
                f"Riemann data must be admissible: {side} state {state.tolist()} "
                "has rho <= 0 or p <= 0"
            )
    gamma = gas.gamma
    rho_l, v_l, p_l = _primitives(left, gas)
    rho_r, v_r, p_r = _primitives(right, gas)
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)
    if 2.0 * (a_l + a_r) / (gamma - 1.0) <= v_r - v_l:
        raise VacuumError("data generate vacuum; no positive star pressure")

    def fun(p):
        f_l, df_l = _wave_function(p, rho_l, p_l, a_l, gamma)
        f_r, df_r = _wave_function(p, rho_r, p_r, a_r, gamma)
        return f_l + f_r + (v_r - v_l), df_l + df_r

    # two-rarefaction guess: positive, up to underflow, unless the data generate vacuum
    exp = (gamma - 1.0) / (2.0 * gamma)
    guess = (
        (a_l + a_r - 0.5 * (gamma - 1.0) * (v_r - v_l))
        / (a_l / p_l**exp + a_r / p_r**exp)
    ) ** (1.0 / exp)
    p = max(guess, np.finfo(float).tiny)
    stop = _RTOL * (abs(v_l) + a_l + abs(v_r) + a_r)
    for _ in range(100):
        f, df = fun(p)
        p_new = p - f / df
        p = p_new if p_new > 0.0 else 0.5 * p
        if abs(f) <= stop:
            break
    else:
        raise RuntimeError(
            "Newton on the pressure function did not converge in 100 "
            f"iterations for left state {left.tolist()} and right state {right.tolist()}"
        )
    p_star = p
    f_l, _ = _wave_function(p_star, rho_l, p_l, a_l, gamma)
    f_r, _ = _wave_function(p_star, rho_r, p_r, a_r, gamma)
    v_star = 0.5 * (v_l + v_r) + 0.5 * (f_r - f_l)

    left_wave, rho_star_l, left_head, left_tail = _star_side(
        p_star, v_star, rho_l, v_l, p_l, a_l, gamma, -1.0
    )
    right_wave, rho_star_r, right_head, right_tail = _star_side(
        p_star, v_star, rho_r, v_r, p_r, a_r, gamma, 1.0
    )
    return RiemannSolution(
        gas=gas,
        left=(rho_l, v_l, p_l),
        right=(rho_r, v_r, p_r),
        p_star=float(p_star),
        v_star=float(v_star),
        rho_star_left=float(rho_star_l),
        rho_star_right=float(rho_star_r),
        left_wave=left_wave,
        right_wave=right_wave,
        left_head=float(left_head),
        left_tail=float(left_tail),
        right_tail=float(right_tail),
        right_head=float(right_head),
    )


def _uncertain_state(sol: RiemannSolution, x, t: float, xi, x0: float, sigma: float):
    """Exact states at positions x, time t, for interface positions x0 + sigma*xi."""
    offset = x - x0 - sigma * xi
    if t > 0.0:
        return sol.sample(offset / t)
    left = _conserved(*sol.left, sol.gas)
    right = _conserved(*sol.right, sol.gas)
    return np.where(offset[..., None] < 0.0, left, right)


def sod_reference_statistics(
    left,
    right,
    gas: GasModel,
    x_points: np.ndarray,
    t: float,
    x0: float = 0.5,
    sigma: float = 0.05,
    n_nodes: int = 100,
    sub_points=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and variance of the exact uncertain-interface solution.

    The interface sits at x0 + sigma*xi with xi uniform on (-1, 1). At fixed
    x the state is only piecewise smooth in xi (it jumps where a wave crosses
    x), so the xi-integral is split at the wave-crossing points and a Gauss
    rule with ``n_nodes`` is applied per smooth piece. ``sub_points`` may
    hold per-point offsets (e.g. sub-cell positions relative to the cell
    center); the statistics then describe the sub-point-averaged state.

    Within a piece each sub-point stays in one wave region. A piece none of
    whose sub-points lies strictly inside a rarefaction fan (every piece at
    t = 0) has a constant state, which the midpoint rule integrates
    exactly: it adds (hi - lo)/2 times its midpoint state. Only the fan
    pieces take Gauss nodes. Both kinds go in blocks of ``_SAMPLES``
    (sub-point, node) pairs, one ``sample`` call per block. ``np.add.at``
    adds every piece into the sums one by one, in point and xi order: no bit
    depends on the block size.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    for name, value in (("t", t), ("x0", x0), ("sigma", sigma)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    sol = solve_riemann(left, right, gas)
    x_points = np.asarray(x_points, dtype=float)
    offsets = np.asarray([0.0] if sub_points is None else sub_points, dtype=float)
    xs = x_points[:, None] + offsets
    if sigma == 0.0:
        mean = _uncertain_state(sol, xs, t, 0.0, x0, sigma).mean(axis=1)
        return mean, np.zeros_like(mean)

    cuts = ((xs[..., None] - x0 - sol.wave_speeds * t) / sigma).reshape(len(xs), -1)
    # cuts beyond -1 or 1 clip to it, and their zero-width pieces drop out
    edges = np.sort(np.clip(np.pad(cuts, [(0, 0), (1, 1)], constant_values=(-1, 1)), -1, 1))
    # every point's pieces, points in order and each point's pieces in xi order
    point, piece = np.nonzero(np.diff(edges) > 1e-15)
    lo, hi = edges[point, piece][:, None], edges[point, piece + 1][:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # a piece is a fan piece if, at its midpoint, some sub-point's x - x0 - sigma*xi
    # lies strictly between a fan's ends times t: never at t = 0, with no division
    offset = xs[point] - x0 - sigma * mid
    fan = np.any(
        ((sol.left_head * t < offset) & (offset < sol.left_tail * t))
        | ((sol.right_tail * t < offset) & (offset < sol.right_head * t)),
        axis=1,
    )
    # each piece's (hi-lo)/2-weighted mean and second moment; density of xi is 1/2
    m, m2 = np.empty((len(point), 3)), np.empty((len(point), 3))
    midpoint = np.zeros(1), np.full(1, 2.0)  # exact on the constant pieces
    for kind, (nodes, weights) in ((~fan, midpoint), (fan, np.polynomial.legendre.leggauss(n_nodes))):
        pieces = np.flatnonzero(kind)
        step = max(1, _SAMPLES // (len(offsets) * len(nodes)))
        for block in (pieces[start : start + step] for start in range(0, len(pieces), step)):
            xi = mid[block] + half[block] * nodes
            # (sub-points, pieces, nodes, 3), averaged over the sub-points
            states = _uncertain_state(sol, xs[point[block]].T[..., None], t, xi, x0, sigma).mean(0)
            w = (0.5 * half[block] * weights)[:, None, :]
            m[block], m2[block] = np.matmul(w, states)[:, 0], np.matmul(w, states**2)[:, 0]
    mean, second = np.zeros((len(xs), 3)), np.zeros((len(xs), 3))
    np.add.at(mean, point, m)
    np.add.at(second, point, m2)
    var = np.maximum(second - mean**2, 0.0)
    return mean, var


def sod_reference_on_grid(
    left,
    right,
    gas: GasModel,
    grid: StructuredGrid,
    t: float,
    x0: float = 0.5,
    sigma: float = 0.05,
    n_nodes: int = 100,
    subcells: int = 5,
) -> FieldStatistics:
    """Grid-aligned reference statistics with sub-cell averaging."""
    if grid.ndim != 1:
        raise ValueError("the exact shock-tube reference is one-dimensional")
    if subcells < 1:
        raise ValueError(f"subcells must be >= 1, got {subcells}")
    dx = grid.deltas[0]
    sub = dx * ((np.arange(subcells) + 0.5) / subcells - 0.5)
    mean, var = sod_reference_statistics(
        left, right, gas, grid.cell_centers(0), t, x0, sigma, n_nodes, sub
    )
    return FieldStatistics(grid=grid, mean=mean, variance=var)


def collocation_reference(
    initial,
    grid: StructuredGrid,
    gas: GasModel,
    t_end: float,
    cfl: float = 0.9,
    n_nodes: int = 100,
    flux: str = "hll",
    threads: int = 1,
) -> FieldStatistics:
    """Statistics from deterministic FV runs at Gauss nodes in the random variable.

    ``initial(x..., xi)`` returns the initial states; called with cell centers
    shaped (cells..., 1) and a block of ``_BLOCK`` nodes, it gives the batch
    (cells..., nodes, d) of one ``deterministic_solve`` call. The blocks add
    into the sums in node order, so the statistics do not depend on the block
    size. A failure names its (cells..., node) index. ``threads`` has no
    effect, and ``flux`` accepts only ``"hll"``.
    """
    _check_flux(flux)
    return _collocation(initial, grid, gas, t_end, cfl, n_nodes)[0]


def _collocation(initial, grid: StructuredGrid, gas: GasModel, t_end, cfl, n_nodes) -> tuple:
    """``collocation_reference``'s statistics, and the run's ``RunStats``.

    The wall time adds up the blocks' time loops. The steps are the most any
    node's solve took, which does not depend on the block size, since a row's
    steps do not depend on the rows beside it.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    weights = weights / 2.0
    centers = [grid.cell_centers(axis) for axis in range(grid.ndim)]
    coords = [c[..., None] for c in np.meshgrid(*centers, indexing="ij")]
    # running sums, (cells..., 1, d) with the d = ndim + 2 Euler components
    mean = second = np.zeros(grid.shape + (1, grid.ndim + 2))
    stats = RunStats()
    for start in range(0, n_nodes, _BLOCK):
        block = slice(start, start + _BLOCK)
        states = initial(*coords, nodes[block])
        try:
            u, run = deterministic_solve(states, grid, gas, t_end, cfl)
        except InadmissibleStateError as exc:
            *cell, row = exc.index
            exc.index = (*cell, start + row)
            exc.args = (f"{exc}, which is (cells..., node) index {exc.index}",)
            raise
        stats.steps = max(stats.steps, run.steps)
        stats.wall_s += run.wall_s
        w = weights[block][:, None]
        # accumulate adds left to right, as a sum over single nodes would
        mean = np.add.accumulate(np.concatenate([mean, w * u], -2), -2)[..., -1:, :]
        second = np.add.accumulate(np.concatenate([second, w * u**2], -2), -2)[..., -1:, :]
    var = np.maximum(second - mean**2, 0.0)[..., 0, :]
    return FieldStatistics(grid=grid, mean=mean[..., 0, :], variance=var), stats
