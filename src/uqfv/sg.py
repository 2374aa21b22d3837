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
from .euler import GasModel, InadmissibleStateError, SolverError, _dot, _first_false, admissible_mask
from .fv import (
    MomentField,
    RunResult,
    RunStats,
    _check_flux,
    _timed,
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
    """Moment filter: kind in {none, l2, exponential}.

    The exponential filter uses exp(c (k/K)^order) with c = log(machine eps)
    and is raised to strength*dt when dt_scaled (default), making the total
    filtering effect independent of the step size, or to strength otherwise.
    The l2 gain is 1 / (1 + strength k^2 (k+1)^2) per application.
    """

    kind: str = "none"
    strength: float = 0.0
    order: int = 1
    dt_scaled: bool = True

    def __post_init__(self):
        if self.kind not in ("none", "l2", "exponential"):
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
    if config is None or config.kind == "none" or config.strength == 0.0 or degree == 0:
        return np.ones(degree + 1)
    if config.kind == "l2":
        return 1.0 / (1.0 + config.strength * k**2 * (k + 1.0) ** 2)
    c = np.log(np.finfo(float).eps)
    base = np.exp(c * (k / degree) ** config.order)
    gains = base ** (config.strength * dt if _gains_read_dt(degree, config) else config.strength)
    gains[0] = 1.0
    return gains


def apply_filter(coeffs: np.ndarray, config: FilterConfig | None, dt: float = 0.0) -> np.ndarray:
    """Scale each coefficient by its gain; identity for kind none or strength 0."""
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
) -> tuple[np.ndarray, np.ndarray]:
    """Damp higher moments of every (cell, element) toward the cell mean.

    Returns the limited coefficients and the applied damping factors. The
    zeroth moments are left untouched; afterwards the reconstruction is
    admissible at every quadrature node (verified, LimiterError otherwise).
    Only blocks with an inadmissible node are limited and checked again;
    every other block keeps theta 0 and its coefficients bit for bit.
    """
    if config is None:
        config = LimiterConfig()
    cells_shape = coeffs.shape[:-2]
    if not config.enabled:
        return coeffs, np.zeros(cells_shape)
    means = coeffs[..., 0, :]
    ok = admissible_mask(means, gas)
    if not np.all(ok):
        raise InadmissibleStateError(
            f"inadmissible cell mean at (cells..., element) index {_first_false(ok)}"
        )
    nodes = basis.reconstruct(coeffs)
    bad = ~np.all(admissible_mask(nodes, gas), axis=-1)
    theta = np.zeros(cells_shape)
    if not np.any(bad):
        return coeffs.copy(), theta
    raw = _theta_raw(nodes[bad], means[bad])
    theta[bad] = np.where(raw > 0.0, np.minimum(raw + config.epsilon, 1.0), 0.0)
    limited = coeffs.copy()
    limited[bad, 1:, :] *= (1.0 - theta[bad])[:, None, None]
    ok = admissible_mask(basis.reconstruct(limited[bad]), gas)
    if not np.all(ok):
        block, node = np.argwhere(~ok)[0]
        index = (*np.argwhere(bad)[block], node)
        raise LimiterError(
            "reconstruction still inadmissible after limiting at index "
            f"{tuple(map(int, index))}"
        )
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
    an inadmissible reconstruction. ``flux`` accepts only ``"hll"``.
    """
    _check_flux(flux)
    grid, basis = initial.grid, initial.basis
    coeffs = initial.coeffs.copy()
    filtering = filter_config is not None and filter_config.kind != "none"

    def step(stats: RunStats, dt_max: float) -> float:
        nonlocal coeffs
        with _timed(stats, "filter_limiter_s"):
            if filtering:
                dt_est = 0.0
                if _gains_read_dt(basis.degree, filter_config):
                    # the filter exponent needs a step-size estimate; take it
                    # from a probe-limited (admissible) reconstruction
                    probe, _ = apply_limiter(coeffs, basis, gas, limiter_config)
                    dt_est = min(cfl_time_step(basis.reconstruct(probe), grid, gas, cfl), dt_max)
                coeffs = apply_filter(coeffs, filter_config, dt_est)
            coeffs, _ = apply_limiter(coeffs, basis, gas, limiter_config)
        nodes = basis.reconstruct(coeffs)
        dt = min(cfl_time_step(nodes, grid, gas, cfl), dt_max)
        with _timed(stats, "flux_s"):
            coeffs = coeffs - dt * moment_flux_divergence(nodes, grid, basis, gas)
        return dt

    stats = integrate(step, t_end, max_steps)
    return RunResult(field=MomentField(grid, basis, coeffs), stats=stats)
