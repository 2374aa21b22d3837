"""Multi-element orthonormal polynomial bases and quadrature on the random domain.

The random variable is uniform on a bounded interval. The interval is split
into equal elements; each element carries Legendre-type polynomials that are
orthonormal against the local conditional density, evaluated on a shared
reference quadrature rule on [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ElementPartition",
    "QuadratureRule",
    "GpcBasis",
    "build_partition",
    "build_quadrature",
    "build_basis",
    "eval_orthonormal_legendre",
]


@dataclass(frozen=True)
class ElementPartition:
    """Uniform decomposition of the random domain into disjoint intervals."""

    lo: float
    hi: float
    boundaries: np.ndarray

    @property
    def n_elements(self) -> int:
        return len(self.boundaries) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.boundaries[:-1] + self.boundaries[1:])


def build_partition(lo: float, hi: float, n_elements: int) -> ElementPartition:
    """Split (lo, hi) into n_elements equal elements."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if not lo < hi:
        raise ValueError(f"empty random domain: lo={lo} >= hi={hi}")
    boundaries = lo + (hi - lo) * np.arange(n_elements + 1) / n_elements
    boundaries[0] = lo
    boundaries[-1] = hi
    return ElementPartition(lo=float(lo), hi=float(hi), boundaries=boundaries)


def eval_orthonormal_legendre(degree: int, t) -> np.ndarray:
    """Table of Legendre polynomials orthonormal against the density 1/2 on [-1, 1].

    Returns an array of shape (degree + 1,) + t.shape. Row k holds
    sqrt(2k+1) * P_k(t), generated by the normalized three-term recurrence
    (stable for the degrees used here, <= 14 and beyond).
    """
    t = np.asarray(t, dtype=float)
    table = np.empty((degree + 1,) + t.shape)
    table[0] = 1.0
    if degree == 0:
        return table
    # recurrence coefficients a_k = k / sqrt(4k^2 - 1) for the weight 1/2
    k = np.arange(1, degree + 1, dtype=float)
    a = k / np.sqrt(4.0 * k * k - 1.0)
    table[1] = t / a[0]
    for n in range(1, degree):
        table[n + 1] = (t * table[n] - a[n - 1] * table[n - 1]) / a[n]
    return table


def _gauss_legendre_ref(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss nodes on [-1, 1] with the Christoffel weights of the
    orthonormal basis (Golub & Welsch, Math. Comp. 23, 1969); see
    ``build_quadrature``."""
    nodes = np.polynomial.legendre.leggauss(n)[0]
    weights = 1.0 / np.sum(eval_orthonormal_legendre(n - 1, nodes) ** 2, axis=0)
    return nodes, weights


def _clenshaw_curtis_ref(level: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes as sin(pi*(n-2j)/(2n)) so that levels nest bitwise, 0 included exactly
    if level == 0:
        return np.array([0.0]), np.array([1.0])
    n = 2**level
    j = np.arange(n + 1)
    nodes = np.sin(np.pi * (n - 2 * j) / (2 * n))
    m = np.arange(1, n // 2 + 1)
    b = np.where(m == n // 2, 1.0, 2.0)
    c = np.where((j == 0) | (j == n), 1.0, 2.0)
    cosines = np.cos(2.0 * np.outer(m, j) * np.pi / n)
    weights = (c / n) * (1.0 - (b / (4.0 * m * m - 1.0)) @ cosines)
    order = np.argsort(nodes)
    return nodes[order], weights[order] / 2.0


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on [-1, 1] with the local density folded in: weights sum to one.

    The sum is one to round-off (within 5e-16), not bitwise. Gauss weights
    are Christoffel weights of the orthonormal basis; see ``build_quadrature``.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


def build_quadrature(kind: str, count_or_level: int) -> QuadratureRule:
    """Density-normalized quadrature rule on the reference interval [-1, 1].

    Parameters
    ----------
    kind : "gauss-legendre" (count_or_level = node count >= 1) or
        "clenshaw-curtis" (count_or_level = level >= 0, giving 2**level + 1
        nodes, one node at level 0).

    Gauss weights come from the Christoffel function of the orthonormal
    basis, w_q = 1 / sum_{k<n} phi_k(t_q)^2, rather than from numpy's
    ``leggauss``: the basis is then discretely orthonormal to round-off
    (a constant projects onto phi_0 alone), however numpy computes its
    own weights.
    """
    if kind == "gauss-legendre":
        if count_or_level < 1:
            raise ValueError(f"gauss rule needs at least one node, got {count_or_level}")
        nodes, weights = _gauss_legendre_ref(count_or_level)
    elif kind == "clenshaw-curtis":
        if count_or_level < 0:
            raise ValueError(f"clenshaw-curtis level must be >= 0, got {count_or_level}")
        nodes, weights = _clenshaw_curtis_ref(count_or_level)
    else:
        raise ValueError(f"unknown quadrature kind: {kind!r}")
    return QuadratureRule(kind=kind, nodes=nodes, weights=weights)


class GpcBasis:
    """Per-element orthonormal bases sharing one reference quadrature rule.

    Attributes
    ----------
    partition : ElementPartition
    degree : highest polynomial degree per element, >= 0 (``build_basis`` checks it)
    rule : reference QuadratureRule on [-1, 1]
    element_weights : probability mass of each element, sums to one
    phi : (degree+1, n_nodes) basis values at the reference nodes
    nodes : (n_elements, n_nodes) quadrature nodes mapped into each element

    ``reconstruct`` and ``project`` are stacked matrix products against two
    tables built here once, the contiguous ``phi.T`` and ``phi * weights``:
    each (K+1, d) or (Q, d) block is one BLAS product, so a block's result
    does not depend on the batch it sits in.

    The rule must make the basis discretely orthonormal, sum_q w_q phi_j phi_k
    = delta_jk to 1e-12, else the constructor raises: Gauss rules need at
    least degree + 1 nodes. For degrees 0-20, valid rules stay within 4e-15
    and rules that are too small are off by 3e-4 or more.
    """

    def __init__(self, partition: ElementPartition, degree: int, rule: QuadratureRule):
        self.partition = partition
        self.degree = int(degree)
        self.rule = rule
        total = partition.hi - partition.lo
        self.element_weights = partition.widths / total
        self.phi = eval_orthonormal_legendre(degree, rule.nodes)
        self._phi_t = np.ascontiguousarray(self.phi.T)
        self._phi_w = self.phi * rule.weights
        gram_error = np.max(np.abs(self._phi_w @ self.phi.T - np.eye(self.degree + 1)))
        if gram_error > 1e-12:
            raise ValueError(
                f"degree {degree} basis is not discretely orthonormal on the {rule.kind} "
                f"rule with {len(rule)} nodes (max |Gram - I| = {gram_error:.1e})"
            )
        mids = partition.midpoints
        halves = 0.5 * partition.widths
        self.nodes = mids[:, None] + halves[:, None] * rule.nodes[None, :]

    @property
    def n_elements(self) -> int:
        return self.partition.n_elements

    @property
    def n_nodes(self) -> int:
        return len(self.rule)

    @property
    def n_coeffs(self) -> int:
        return self.degree + 1

    def project(self, values, out=None) -> np.ndarray:
        """Coefficients <u phi_k f> of node samples by quadrature.

        ``values`` has the solver layout (..., Q, d): node axis second to
        last, component axis last. The result is (..., K+1, d), written into
        ``out`` if given.
        """
        return np.matmul(self._phi_w, values, out=out)

    def reconstruct(self, coeffs, out=None) -> np.ndarray:
        """Values at the quadrature nodes, (..., K+1, d) -> (..., Q, d), into ``out`` if given."""
        return np.matmul(self._phi_t, coeffs, out=out)


def build_basis(
    partition: ElementPartition,
    degree: int,
    quad_kind: str = "gauss-legendre",
    quad_count: int | None = None,
) -> GpcBasis:
    """Basis with its quadrature; default rule is Gauss with 2*(degree+1) nodes."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if quad_count is None:
        quad_count = 2 * (degree + 1)
        if quad_kind == "clenshaw-curtis":
            # smallest level with at least 2*(degree+1) points; level 0 has 1, not 2
            quad_count = max(1, int(np.ceil(np.log2(quad_count - 1))))
    rule = build_quadrature(quad_kind, quad_count)
    return GpcBasis(partition, degree, rule)
