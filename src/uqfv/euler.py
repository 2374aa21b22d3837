"""Compressible Euler equations in one and two space dimensions.

State vectors are (rho, momentum..., total energy) along the last axis:
three components in 1D, four in 2D. All functions broadcast over leading
axes. The physical entropy and its gradient map underpin the entropy-closure
moment method; the gradient inverse maps any dual vector with negative energy
component to a strictly admissible state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GasModel",
    "SolverError",
    "InadmissibleStateError",
    "DualRangeError",
    "is_admissible",
    "admissible_mask",
    "entropy_gradient",
    "entropy_gradient_inverse",
]


class SolverError(Exception):
    """A failure inside a solver step; the time loop prefixes the step number.

    A located failure carries ``index``: the tuple of ints its message
    prints, the position of the first failing entry in the array checked.
    """


class InadmissibleStateError(SolverError, ValueError):
    """State outside the hyperbolicity set (rho <= 0 or p <= 0)."""


class DualRangeError(ValueError):
    """Dual vector outside the range of the entropy gradient."""


def _require(ok: np.ndarray, error: type, message: str) -> None:
    """Raise ``error(message.format(index=i))`` at the first False entry of ``ok``.

    i is that entry's index in row-major order, as plain ints; the raised
    error carries it as ``index``.
    """
    if not np.all(ok):
        index = tuple(map(int, np.unravel_index(np.argmin(ok), ok.shape)))
        exc = error(message.format(index=index))
        exc.index = index
        raise exc


@dataclass(frozen=True)
class GasModel:
    """Ideal gas with constant heat capacity ratio."""

    gamma: float = 1.4

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")


def _parts(u: np.ndarray):
    """Split (..., d) states, or their duals, into the rho, momentum and energy slots."""
    return u[..., 0], u[..., 1:-1], u[..., -1]


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """sum_i a[..., i] * b[..., i] over a short component axis, written out.

    Adds left to right, the order np.sum takes on these 1-4 long axes, so the
    bits match it; the written-out sum skips the reduction machinery. The
    sum goes into ``out`` if given.
    """
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _internal_energy(u: np.ndarray, out=None) -> np.ndarray:
    """E - 0.5 |m|^2 / rho, each operation in place on one array: ``out`` or a new one."""
    rho, m, en = _parts(u)
    e = np.asarray(_dot(m, m, out))  # a 0-d array, not a scalar, for a single state
    e *= 0.5
    e /= rho
    return np.subtract(en, e, out=e)


def admissible_mask(u, gas: GasModel) -> np.ndarray:
    """Elementwise hyperbolicity-set membership: rho > 0 and p > 0."""
    return _energy_and_mask(np.asarray(u, dtype=float))[1]


def _energy_and_mask(u: np.ndarray, out=None) -> tuple:
    """Internal energy per state, into ``out`` if given, and admissible_mask computed from it."""
    rho = u[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        e_int = _internal_energy(u, out)
    return e_int, np.isfinite(rho) & (rho > 0.0) & np.isfinite(e_int) & (e_int > 0.0)


def is_admissible(u, gas: GasModel) -> bool:
    """True iff every state in the array lies in the hyperbolicity set."""
    return bool(np.all(admissible_mask(u, gas)))


def _flux_and_speeds(u: np.ndarray, gas: GasModel, axis: int, out=None) -> tuple:
    """Directional flux, velocity along ``axis`` and sound speed, from one pressure.

    ``out`` is (f, v, c), arrays shaped like ``u``, ``u[..., 0]`` and
    ``u[..., 0]`` to write the three into, or None for fresh ones. The
    pressure passes through c and the |m|^2 terms through v, each operation
    in the order ``_internal_energy`` and ``_sound_speed_in_place`` take.
    """
    rho, m, en = _parts(u)
    if out is None:
        out = (np.empty_like(u), np.empty_like(rho), np.empty_like(rho))
    f, v, c = out
    p = np.multiply(m[..., 0], m[..., 0], out=c)
    for i in range(1, m.shape[-1]):
        p += np.multiply(m[..., i], m[..., i], out=v)
    p *= 0.5
    p /= rho
    np.subtract(en, p, out=p)
    p *= gas.gamma - 1.0
    np.divide(m[..., axis], rho, out=v)
    f[..., 0] = m[..., axis]
    np.multiply(m, v[..., None], out=f[..., 1:-1])
    f[..., 1 + axis] += p
    np.add(en, p, out=f[..., -1])
    f[..., -1] *= v
    return f, v, _sound_speed_in_place(rho, p, gas)


def _sound_speed_in_place(rho: np.ndarray, p: np.ndarray, gas: GasModel) -> np.ndarray:
    """sqrt(gamma p / rho), computed in place of the pressure array ``p``."""
    p *= gas.gamma
    p /= rho
    return np.sqrt(p, out=p)


def entropy_gradient(u, gas: GasModel) -> np.ndarray:
    """Gradient of the entropy with respect to the conserved variables."""
    u = np.asarray(u, dtype=float)
    e_int, ok = _energy_and_mask(u)
    _require(ok, InadmissibleStateError, "inadmissible state (rho <= 0 or p <= 0) at index {index}")
    rho, m, _ = _parts(u)
    q = _dot(m, m)
    grad = np.empty_like(u)
    grad[..., 0] = (
        -np.log(e_int) + gas.gamma * np.log(rho) + gas.gamma - 0.5 * q / (rho * e_int)
    )
    grad[..., 1:-1] = m / e_int[..., None]
    grad[..., -1] = -rho / e_int
    return grad


def dual_range_mask(lam, gas: GasModel) -> np.ndarray:
    """Duals that invert to admissible states: finite with negative energy slot."""
    lam = np.asarray(lam, dtype=float)
    ok = lam[..., -1] < 0.0
    for i in range(lam.shape[-1]):
        ok &= np.isfinite(lam[..., i])
    return ok


def entropy_gradient_inverse(lam, gas: GasModel) -> np.ndarray:
    """Conserved state whose entropy gradient equals the given dual vector.

    The closed form inverts the gradient map: with (l_rho, l_m, l_E) and
    l_E < 0,

        rho = exp((l_rho - log(-l_E) - gamma - |l_m|^2/(2 l_E)) / (gamma - 1)),
        m   = -rho l_m / l_E,
        E   = -rho / l_E + |m|^2 / (2 rho).

    Every image state is strictly admissible. Raises DualRangeError when the
    dual lies outside the gradient's range (l_E >= 0 or non-finite input).
    """
    lam = np.asarray(lam, dtype=float)
    _require(
        dual_range_mask(lam, gas),
        DualRangeError,
        "dual vector outside the entropy-gradient range at index {index}",
    )
    return _dual_to_state_unchecked(lam, gas)


def _dual_to_state_unchecked(lam: np.ndarray, gas: GasModel) -> np.ndarray:
    return _dual_state_parts(lam, gas)[0]


def _dual_state_parts(lam: np.ndarray, gas: GasModel):
    """The gradient inverse on valid duals, and the intermediates _dual_eval reuses.

    Returns (u, ile, log_neg, gm, g2, log_rho). This is the one formula for
    (rho, m, E): the states the flux sees are the states Newton matches.
    """
    l_rho, l_m, l_en = _parts(lam)
    ile = -1.0 / l_en
    log_neg = np.log(-l_en)
    gm = l_m * ile[..., None]  # g_m = -l_m / l_E, also m / rho
    g2 = _dot(gm, gm)
    a = 1.0 / (gas.gamma - 1.0)
    log_rho = a * (l_rho - log_neg - gas.gamma - 0.5 * l_en * g2)
    rho = np.exp(log_rho)
    u = np.empty_like(lam)
    u[..., 0] = rho
    u[..., 1:-1] = rho[..., None] * gm
    u[..., -1] = rho * ile + 0.5 * rho * g2
    return u, ile, log_neg, gm, g2, log_rho


def _dual_eval(lam: np.ndarray, gas: GasModel):
    """Fused evaluation of the gradient inverse on valid duals.

    Returns (u, sstar, jac): the mapped state, the conjugate entropy value
    s*(lam) = lam . u - s(u), and the closed-form Jacobian du/dlam (the
    Hessian of s*, symmetric positive definite). One exponential per dual
    vector; all other quantities are reused algebraically.
    """
    u, ile, log_neg, gm, g2, log_rho = _dual_state_parts(lam, gas)
    rho = u[..., 0]
    e_int = rho * ile
    d = lam.shape[-1]
    # s(u) = -rho ((1-gamma) log rho - log(-l_E))
    sstar = _dot(lam, u) + rho * ((1.0 - gas.gamma) * log_rho - log_neg)
    ar = (1.0 / (gas.gamma - 1.0)) * rho
    h = ile + 0.5 * g2
    jac = np.empty(lam.shape + (d,))
    jac[..., 0, 0] = ar
    jac[..., 0, 1:-1] = ar[..., None] * gm
    jac[..., 1:-1, 0] = jac[..., 0, 1:-1]
    jac[..., 0, -1] = ar * h
    jac[..., -1, 0] = jac[..., 0, -1]
    jac[..., 1:-1, 1:-1] = ar[..., None, None] * (
        gm[..., :, None] * gm[..., None, :]
    ) + e_int[..., None, None] * np.eye(d - 2)
    jac[..., 1:-1, -1] = (ar * h + e_int)[..., None] * gm
    jac[..., -1, 1:-1] = jac[..., 1:-1, -1]
    jac[..., -1, -1] = ar * h * h + e_int * (ile + g2)
    return u, sstar, jac
