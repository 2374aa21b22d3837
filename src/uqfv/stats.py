"""Statistics of moment fields, relative error norms, and CSV output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fv import MomentField, StructuredGrid

__all__ = [
    "FieldStatistics",
    "expectation",
    "variance",
    "field_statistics",
    "relative_errors",
    "write_csv",
]

_COMPONENTS_1D = ("rho", "mx", "E")
_COMPONENTS_2D = ("rho", "mx", "my", "E")


@dataclass
class FieldStatistics:
    """Per-cell expected value and variance of every conserved component."""

    grid: StructuredGrid
    mean: np.ndarray
    variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.mean.shape[-1]


def expectation(field: MomentField) -> np.ndarray:
    """Element-weighted sum of the zeroth coefficients, shape (cells..., d)."""
    weights = field.basis.element_weights
    return np.einsum("...ld,l->...d", field.coeffs[..., 0, :], weights)


def variance(field: MomentField) -> np.ndarray:
    """Total variance over the random variable, shape (cells..., d).

    Per element the local variance is the sum of squared higher coefficients;
    the element means contribute their spread around the global mean. The
    element weights are positive, so no entry is negative.
    """
    weights = field.basis.element_weights
    mean = expectation(field)
    local = np.sum(field.coeffs[..., 1:, :] ** 2, axis=-2)
    spread = (field.coeffs[..., 0, :] - mean[..., None, :]) ** 2
    return np.einsum("...ld,l->...d", local + spread, weights)


def field_statistics(field: MomentField) -> FieldStatistics:
    return FieldStatistics(grid=field.grid, mean=expectation(field), variance=variance(field))


def _weighted_l2(values: np.ndarray, grid: StructuredGrid) -> np.ndarray:
    return np.sqrt(grid.cell_volume * np.sum(values**2, axis=tuple(range(grid.ndim))))


def relative_errors(
    computed: FieldStatistics, reference: FieldStatistics
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-volume-weighted relative L2 errors of mean and variance.

    Returns one value per conserved component. A component whose reference
    norm vanishes, such as the momentum of gas at rest, has no relative
    error: its entry is nan.
    """
    if computed.grid.shape != reference.grid.shape:
        raise ValueError("statistics live on different grids")
    grid = computed.grid
    err_e = _weighted_l2(computed.mean - reference.mean, grid)
    norm_e = _weighted_l2(reference.mean, grid)
    err_v = _weighted_l2(computed.variance - reference.variance, grid)
    norm_v = _weighted_l2(reference.variance, grid)
    return tuple(
        np.divide(err, norm, out=np.full_like(err, np.nan), where=norm != 0.0)
        for err, norm in ((err_e, norm_e), (err_v, norm_v))
    )


def write_csv(stats: FieldStatistics, path) -> None:
    """One row per cell (row-major cell order), 17 significant digits."""
    grid = stats.grid
    centers = np.meshgrid(*map(grid.cell_centers, range(grid.ndim)), indexing="ij")
    # the coordinates, then E and Var of each component in turn
    pairs = np.stack([stats.mean, stats.variance], axis=-1).reshape(grid.shape + (-1,))
    table = np.concatenate([np.stack(centers, axis=-1), pairs], axis=-1)
    labels = _COMPONENTS_1D if stats.n_components == 3 else _COMPONENTS_2D
    header = ",".join(["x", "y"][: grid.ndim] + [f"{s}_{n}" for n in labels for s in ("E", "Var")])
    try:
        np.savetxt(
            path, table.reshape(-1, table.shape[-1]), fmt="%.17g", delimiter=",",
            header=header, comments="",
        )
    except OSError as exc:
        raise OSError(f"failed writing statistics to {path}: {exc}") from exc
