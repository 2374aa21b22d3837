"""Multi-element stochastic Galerkin stepping with limiter and moment filters.

One time step applies, in order: the moment filter, the hyperbolicity
limiter, and the finite-volume moment update. The limiter damps the higher
moments of each (cell, element) polynomial toward its admissible cell mean
just enough that the reconstruction is admissible at every quadrature node;
the filters damp high-order moments to suppress oscillations in the random
variable and never touch the cell mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import GpcBasis
from .euler import GasModel, InadmissibleStateError, SolverError, _dot, _require, admissible_mask
from .fv import (  # the benchmark's trace wraps cfl_time_step and moment_flux_divergence here
    MomentField,
    RunResult,
    RunStats,
    _check_flux,
    _grid_index,
    _timed,
    _window_update,
    _Workspace,
    cfl_time_step,
    integrate,
    moment_flux_divergence,
)

__all__ = [
    "FilterConfig",
    "LimiterConfig",
    "LimiterError",
    "filter_gains",
    "apply_filter",
    "apply_limiter",
    "run_sg",
]


class LimiterError(SolverError, RuntimeError):
    """Limiter could not produce admissible reconstructions."""


@dataclass(frozen=True)
class LimiterConfig:
    """Offset pushes the limited polynomial strictly inside the admissible set."""

    epsilon: float = 1e-10
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"limiter epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class FilterConfig:
    """Moment filter: kind in {l2, exponential}; no filter is ``None`` or strength 0.

    The exponential filter uses exp(c (k/K)^order) with c = log(machine eps)
    and is raised to strength*dt when dt_scaled (default), making the total
    filtering effect independent of the step size, or to strength otherwise.
    The l2 gain is 1 / (1 + strength k^2 (k+1)^2) per application.
    """

    kind: str = "exponential"
    strength: float = 0.0
    order: int = 1
    dt_scaled: bool = True

    def __post_init__(self):
        if self.kind not in ("l2", "exponential"):
            raise ValueError(f"unknown filter kind: {self.kind!r}")
        if self.strength < 0.0:
            raise ValueError(f"filter strength must be >= 0, got {self.strength}")
        if self.kind == "exponential" and (
            self.order < 1 or int(self.order) != self.order
        ):
            raise ValueError(f"filter order must be an integer >= 1, got {self.order}")


def _gains_read_dt(degree: int, config: FilterConfig | None) -> bool:
    """Whether filter_gains(degree, config, dt) depends on dt: a dt-scaled
    exponential filter of positive strength above degree 0."""
    return (
        config is not None
        and config.kind == "exponential"
        and config.dt_scaled
        and config.strength > 0.0
        and degree > 0
    )


def filter_gains(degree: int, config: FilterConfig | None, dt: float = 0.0) -> np.ndarray:
    """Gain per polynomial degree, shape (degree + 1,); gain of degree 0 is 1."""
    k = np.arange(degree + 1, dtype=float)
    if config is None or config.strength == 0.0 or degree == 0:
        return np.ones(degree + 1)
    if config.kind == "l2":
        return 1.0 / (1.0 + config.strength * k**2 * (k + 1.0) ** 2)
    c = np.log(np.finfo(float).eps)
    base = np.exp(c * (k / degree) ** config.order)
    gains = base ** (config.strength * dt if _gains_read_dt(degree, config) else config.strength)
    gains[0] = 1.0
    return gains


def apply_filter(coeffs: np.ndarray, config: FilterConfig | None, dt: float = 0.0) -> np.ndarray:
    """Scale each coefficient by its gain; identity for no filter or strength 0."""
    degree = coeffs.shape[-2] - 1
    gains = filter_gains(degree, config, dt)
    if np.all(gains == 1.0):
        return coeffs
    return coeffs * gains[:, None]


def _cut(x: np.ndarray) -> np.ndarray:
    """x restricted to [0, 1], zero outside (NaN counts as outside)."""
    with np.errstate(invalid="ignore"):
        return np.where((x >= 0.0) & (x <= 1.0), x, 0.0)


def _theta_raw(node_states: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Smallest damping factor per (cells..., element) before the offset.

    ``node_states`` has shape (cells..., L, Q, d) and ``means``
    (cells..., L, d). For each node the path theta*mean + (1-theta)*node must
    have positive density and positive pressure; the density constraint gives
    one root, the pressure constraint the two roots of a quadratic. Roots
    outside [0, 1] do not constrain.
    """
    mean_b = means[..., None, :]
    rho = node_states[..., 0]
    rho_t = mean_b[..., 0]
    mom = node_states[..., 1:-1]
    mom_t = mean_b[..., 1:-1]
    en = node_states[..., -1]
    en_t = mean_b[..., -1]

    with np.errstate(divide="ignore", invalid="ignore"):
        theta_rho = np.where(rho <= 0.0, rho / (rho - rho_t), 0.0)

        # pressure positivity along the path as a quadratic
        # G(theta) = E(theta) rho(theta) - |m(theta)|^2 / 2 > 0
        d_rho = rho_t - rho
        d_en = en_t - en
        d_mom = mom_t - mom
        a = d_en * d_rho - 0.5 * _dot(d_mom, d_mom)
        b = en * d_rho + rho * d_en - _dot(mom, d_mom)
        c = en * rho - 0.5 * _dot(mom, mom)
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        q = -0.5 * (b + np.where(b >= 0.0, 1.0, -1.0) * sq)
        root1 = np.where(disc >= 0.0, q / a, 0.0)
        root2 = np.where(disc >= 0.0, c / q, 0.0)

    theta = np.maximum(theta_rho, np.maximum(_cut(root1), _cut(root2)))
    return np.max(theta, axis=-1)


def apply_limiter(
    coeffs: np.ndarray,
    basis: GpcBasis,
    gas: GasModel,
    config: LimiterConfig | None = None,
    *,
    nodes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damp higher moments of every (cell, element) toward the cell mean.

    ``coeffs`` may be a view of some cells of the field (``run_sg``'s
    pieces); an error's index is the index in it. Returns the limited
    coefficients and the applied damping factors. The
    zeroth moments are left untouched; afterwards the reconstruction is
    admissible at every quadrature node (verified, LimiterError otherwise).
    Only blocks with an inadmissible node are limited and checked again;
    every other block keeps theta 0 and its coefficients bit for bit. With
    no block limited the result is ``coeffs`` itself, else a new array.
    ``nodes``, if given, is an array shaped like ``basis.reconstruct(coeffs)``
    that receives the node states of the returned coefficients: the
    limiter's own reconstruction, with the limited blocks' re-check in
    place of theirs (``reconstruct`` is blockwise, so these are its bits).
    """
    if config is None:
        config = LimiterConfig()
    cells_shape = coeffs.shape[:-2]
    if not config.enabled:
        if nodes is not None:
            basis.reconstruct(coeffs, out=nodes)
        return coeffs, np.zeros(cells_shape)
    means = coeffs[..., 0, :]
    _require(
        admissible_mask(means, gas),
        InadmissibleStateError,
        "inadmissible cell mean at (cells..., element) index {index}",
    )
    nodes = basis.reconstruct(coeffs, out=nodes)
    bad = ~np.all(admissible_mask(nodes, gas), axis=-1)
    theta = np.zeros(cells_shape)
    if not np.any(bad):
        return coeffs, theta
    raw = _theta_raw(nodes[bad], means[bad])
    theta[bad] = np.where(raw > 0.0, np.minimum(raw + config.epsilon, 1.0), 0.0)
    limited = coeffs.copy()
    limited[bad, 1:, :] *= (1.0 - theta[bad])[:, None, None]
    redone = basis.reconstruct(limited[bad])
    # the re-checked blocks in a (cells..., element, node) mask, so the
    # error names the node's index in the field
    ok = np.ones(cells_shape + (basis.n_nodes,), dtype=bool)
    ok[bad] = admissible_mask(redone, gas)
    _require(ok, LimiterError, "reconstruction still inadmissible after limiting at index {index}")
    nodes[bad] = redone
    return limited, theta


def run_sg(
    initial: MomentField,
    gas: GasModel,
    t_end: float,
    cfl: float = 0.9,
    flux: str = "hll",
    filter_config: FilterConfig | None = None,
    limiter_config: LimiterConfig | None = None,
    max_steps: int | None = None,
) -> RunResult:
    """Time loop of the filtered hyperbolicity-preserving SG scheme.

    Each step filters, limits, then updates; the step size obeys the CFL
    bound and the last step is truncated to land on t_end exactly. The
    limiter checks the cell means; with it disabled, the CFL scan rejects
    an inadmissible reconstruction. ``flux`` accepts only ``"hll"``. The
    run holds one flux workspace; the limiter reconstructs into its node
    buffer, which the flux then reads. The scan, the flux and the
    projection (``moment_flux_divergence``) and the update
    (``fv._window_update``) run on the flux windows alone, with the bits
    of the full-grid step.

    The limiter works on the pieces the last update changed (a slab in 1D,
    up to three rectangles in 2D; its errors name grid indices), and only a
    piece with a limited block is written back. Other blocks hold the last
    limiter output, which it would leave as it is. The first step and every
    step whose filter changed the coefficients limit the whole grid.
    """
    _check_flux(flux)
    grid, basis = initial.grid, initial.basis
    coeffs = initial.coeffs.copy()
    work = _Workspace()
    # the node states of the coefficients each limiter call returns
    nodes = work.take("nodes", coeffs.shape[:-2] + (basis.n_nodes, coeffs.shape[-1]))
    region = [(slice(None),)]  # the cells the next limiter call works on

    def step(stats: RunStats, dt_max: float) -> float:
        nonlocal coeffs, region
        with _timed(stats, "filter_limiter_s"):
            if filter_config is not None:
                dt_est = 0.0
                if _gains_read_dt(basis.degree, filter_config):
                    # the filter exponent needs a step-size estimate; take it
                    # from a probe-limited (admissible) reconstruction
                    apply_limiter(coeffs, basis, gas, limiter_config, nodes=nodes)
                    dt_est = min(cfl_time_step(nodes, grid, gas, cfl), dt_max)
                if (filtered := apply_filter(coeffs, filter_config, dt_est)) is not coeffs:
                    coeffs, region = filtered, [(slice(None),)]
            for cells in region:
                piece = coeffs[cells]
                with _grid_index(cells, (LimiterError, InadmissibleStateError)):
                    limited, _ = apply_limiter(
                        piece, basis, gas, limiter_config, nodes=nodes[cells]
                    )
                if limited is not piece:
                    coeffs[cells] = limited
        with _timed(stats, "flux_s"):
            divergence = moment_flux_divergence(nodes, grid, basis, gas, work=work)
            region = [cells for cells, total in divergence[1] if total.size]
            return _window_update(coeffs, divergence, grid, cfl, dt_max)

    stats = integrate(step, t_end, max_steps)
    return RunResult(field=MomentField(grid, basis, coeffs), stats=stats)
