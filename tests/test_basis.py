import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from uqfv.basis import (
    GpcBasis,
    build_basis,
    build_partition,
    build_quadrature,
    eval_orthonormal_legendre,
)


def test_build_partition_uniform_thirds():
    part = build_partition(-1.0, 1.0, 3)
    np.testing.assert_allclose(part.boundaries, [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])


def test_build_partition_single_element():
    part = build_partition(-1.0, 1.0, 1)
    np.testing.assert_array_equal(part.boundaries, [-1.0, 1.0])
    assert part.n_elements == 1


def test_build_partition_equal_widths():
    part = build_partition(0.0, 1.0, 4)
    np.testing.assert_allclose(part.widths, 0.25)


def test_build_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        build_partition(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        build_partition(1.0, 0.0, 2)


def test_basis_matches_gram_schmidt_oracle():
    # brute-force Gram-Schmidt on monomials against the uniform density on (-1,1)
    def inner(f, g):
        return quad(lambda x: f(x) * g(x) * 0.5, -1.0, 1.0, epsabs=1e-14)[0]

    monomials = [np.polynomial.Polynomial([0] * k + [1]) for k in range(3)]
    ortho = []
    for mono in monomials:
        p = mono
        for q in ortho:
            p = p - inner(mono, q) * q
        ortho.append(p / np.sqrt(inner(p, p)))

    t = np.linspace(-1.0, 1.0, 7)
    table = eval_orthonormal_legendre(2, t)
    for k, poly in enumerate(ortho):
        np.testing.assert_allclose(table[k], poly(t), atol=1e-12)
    # frozen closed forms: 1, sqrt(3) t, sqrt(5) (3t^2 - 1)/2
    np.testing.assert_allclose(table[1], np.sqrt(3.0) * t, atol=1e-14)
    np.testing.assert_allclose(table[2], np.sqrt(5.0) * (3.0 * t**2 - 1.0) / 2.0, atol=1e-14)


def test_element_weights_three_equal_elements():
    basis = build_basis(build_partition(-1.0, 1.0, 3), 2)
    np.testing.assert_allclose(basis.element_weights, 1.0 / 3.0)
    assert basis.element_weights.sum() == pytest.approx(1.0)


def test_first_moment_of_phi1_vanishes():
    basis = build_basis(build_partition(-1.0, 1.0, 2), 3)
    val = basis.rule.weights @ basis.phi[1]
    assert abs(val) < 1e-15


@pytest.mark.parametrize("n_elements", [1, 3])
@pytest.mark.parametrize("degree", [4, 14])
def test_orthonormality_residual(n_elements, degree):
    basis = build_basis(build_partition(-1.0, 1.0, n_elements), degree)
    gram = np.einsum("kq,jq,q->kj", basis.phi, basis.phi, basis.rule.weights)
    assert np.abs(gram - np.eye(degree + 1)).max() < 1e-12


def test_orthonormality_with_minimal_gauss_rule():
    # degree+1 Gauss nodes integrate products of degree 2K exactly
    degree = 14
    basis = build_basis(
        build_partition(-1.0, 1.0, 1), degree, "gauss-legendre", degree + 1
    )
    gram = np.einsum("kq,jq,q->kj", basis.phi, basis.phi, basis.rule.weights)
    assert np.abs(gram - np.eye(degree + 1)).max() < 1e-12


@pytest.mark.parametrize(
    "kind, sizes",
    [("gauss-legendre", range(1, 16)), ("clenshaw-curtis", range(0, 6))],
)
def test_basis_requires_discrete_orthonormality(kind, sizes):
    # a rule too small for the degree leaves Gram - I at 3e-4 or more and is
    # refused by name; the rules the basis accepts keep it within 1e-12
    partition = build_partition(-1.0, 1.0, 2)
    for degree in range(0, 11):
        for size in sizes:
            rule = build_quadrature(kind, size)
            phi = eval_orthonormal_legendre(degree, rule.nodes)
            gram = np.einsum("kq,jq,q->kj", phi, phi, rule.weights)
            error = np.abs(gram - np.eye(degree + 1)).max()
            if error <= 1e-12:
                GpcBasis(partition, degree, rule)
                assert kind != "gauss-legendre" or size >= degree + 1
                continue
            assert error >= 3e-4
            message = f"degree {degree} basis .* {kind} rule with {len(rule)} nodes"
            with pytest.raises(ValueError, match=message):
                GpcBasis(partition, degree, rule)
            assert kind != "gauss-legendre" or size <= degree


def test_gauss_two_nodes_match_root_oracle():
    # roots of the degree-2 orthogonal polynomial via companion-matrix oracle
    roots = np.sort(np.roots([3.0 / 2.0, 0.0, -1.0 / 2.0]))
    rule = build_quadrature("gauss-legendre", 2)
    np.testing.assert_allclose(np.sort(rule.nodes), roots, atol=1e-14)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_gauss_two_nodes_integrate_square():
    rule = build_quadrature("gauss-legendre", 2)
    assert rule.nodes**2 @ rule.weights == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_clenshaw_curtis_level_to_count():
    assert len(build_quadrature("clenshaw-curtis", 2)) == 5
    assert len(build_quadrature("clenshaw-curtis", 4)) == 17
    assert len(build_quadrature("clenshaw-curtis", 0)) == 1


def test_clenshaw_curtis_weights_sum_to_one():
    for level in range(5):
        rule = build_quadrature("clenshaw-curtis", level)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_clenshaw_curtis_nested_exactly():
    # nested on [-1, 1] and after the affine map into the element (0.25, 0.75)
    def mapped(level):
        return 0.5 + 0.25 * build_quadrature("clenshaw-curtis", level).nodes

    for level in range(4):
        assert set(mapped(level).tolist()) <= set(mapped(level + 1).tolist())


def test_clenshaw_curtis_exactness():
    # level-3 rule (9 points) integrates low-degree polynomials exactly
    rule = build_quadrature("clenshaw-curtis", 3)
    for deg in range(9):
        exact = 0.0 if deg % 2 else 1.0 / (deg + 1.0)
        assert rule.nodes**deg @ rule.weights == pytest.approx(exact, abs=1e-13)


def test_unknown_quadrature_kind():
    # the INI aliases gauss and cc are normalised by the config parser only
    for kind in ("simpson", "gauss", "cc"):
        with pytest.raises(ValueError, match="unknown quadrature kind"):
            build_quadrature(kind, 3)
        with pytest.raises(ValueError, match="unknown quadrature kind"):
            build_basis(build_partition(-1.0, 1.0, 1), 2, kind)


def test_quadrature_nodes_mapped_into_element():
    # each element carries the reference rule mapped affinely into it
    basis = build_basis(build_partition(0.2, 0.6, 2), 3)
    ref = basis.rule.nodes
    np.testing.assert_allclose(basis.nodes, [0.3 + 0.1 * ref, 0.5 + 0.1 * ref], atol=1e-15)
    for (lo, hi), nodes in zip([(0.2, 0.4), (0.4, 0.6)], basis.nodes):
        assert np.all(nodes > lo) and np.all(nodes < hi)


def test_project_constant():
    basis = build_basis(build_partition(-1.0, 1.0, 2), 3)
    coeffs = basis.project(np.full((basis.n_nodes, 1), 7.5))[:, 0]
    np.testing.assert_allclose(coeffs, [7.5, 0.0, 0.0, 0.0], atol=1e-14)


def test_project_basis_function_gives_unit_vector():
    basis = build_basis(build_partition(-1.0, 1.0, 3), 3)
    coeffs = basis.project(basis.phi[1][:, None])[:, 0]
    np.testing.assert_allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-14)


def test_project_identity_on_single_element():
    # xi on (-1,1) with an exact rule: coefficients (0, 1/sqrt(3), 0)
    # hand quadrature oracle: sum_q w_q xi_q * sqrt(3) xi_q = sqrt(3)/3
    basis = build_basis(build_partition(-1.0, 1.0, 1), 2)
    oracle = np.sum(basis.rule.weights * basis.rule.nodes * np.sqrt(3.0) * basis.rule.nodes)
    assert oracle == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)
    coeffs = basis.project(basis.nodes[0][:, None])[:, 0]
    np.testing.assert_allclose(coeffs, [0.0, 1.0 / np.sqrt(3.0), 0.0], atol=1e-14)


def test_project_node_count_mismatch():
    basis = build_basis(build_partition(-1.0, 1.0, 1), 2)
    with pytest.raises(ValueError):
        basis.project(np.ones((basis.n_nodes + 1, 1)))


def test_reconstruct_then_project_identity():
    rng = np.random.default_rng(7)
    basis = build_basis(build_partition(-1.0, 1.0, 3), 14)
    coeffs = rng.standard_normal(15)
    roundtrip = basis.project(basis.reconstruct(coeffs[:, None]))[:, 0]
    np.testing.assert_allclose(roundtrip, coeffs, atol=1e-12)


def test_eval_at_matches_reconstruct():
    basis = build_basis(build_partition(-1.0, 1.0, 3), 4)
    idx, table = oracles.eval_at(basis, basis.nodes[1])
    assert np.all(idx == 1)
    np.testing.assert_allclose(table, basis.phi, atol=1e-13)


def test_quadrature_precondition_errors():
    with pytest.raises(ValueError):
        build_quadrature("gauss-legendre", 0)
    with pytest.raises(ValueError):
        build_quadrature("clenshaw-curtis", -1)


def test_default_gauss_count_is_twice_coefficients():
    # degree 14 -> 30 nodes, degree 4 -> 10 nodes per element
    assert build_basis(build_partition(-1, 1, 1), 14).n_nodes == 30
    assert build_basis(build_partition(-1, 1, 3), 4).n_nodes == 10


def test_default_cc_level_is_smallest_with_twice_coefficients():
    # degree 4 wants 10 nodes: level 3 has 9, level 4 has 17
    assert build_basis(build_partition(-1, 1, 1), 4, "clenshaw-curtis").n_nodes == 17
    assert build_basis(build_partition(-1, 1, 1), 1, "clenshaw-curtis").n_nodes == 5
    # degree 0 wants 2 nodes: level 0 has 1, level 1 has 3
    assert build_basis(build_partition(-1, 1, 1), 0, "clenshaw-curtis").n_nodes == 3


@pytest.mark.parametrize("kind", ["gauss-legendre", "clenshaw-curtis"])
def test_negative_degree_rejected_before_the_default_rule(kind):
    with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$"):
        build_basis(build_partition(-1, 1, 1), -1, kind)


def test_gauss_exactness_sweep():
    # Q nodes integrate monomials up to degree 2Q-1 against the density 1/2
    for q in range(1, 9):
        rule = build_quadrature("gauss-legendre", q)
        for deg in range(2 * q):
            exact = 0.0 if deg % 2 else 1.0 / (deg + 1.0)
            assert rule.nodes**deg @ rule.weights == pytest.approx(exact, abs=1e-14)


def test_gauss_weights_match_leggauss_oracle():
    # Christoffel weights against numpy's independently computed Gauss weights
    for n in range(1, 31):
        rule = build_quadrature("gauss-legendre", n)
        nodes, weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_allclose(rule.weights, weights / 2.0, rtol=1e-12, atol=0.0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-15


def test_gauss_rule_annihilates_nonconstant_basis_functions():
    # sum_q w_q phi_k(t_q) = 0 for k >= 1 is what makes a constant project onto
    # phi_0 alone; summed exactly so that only the rule's own error remains.
    # build_basis pairs degree K with 2(K+1) nodes, so projection uses
    # k <= (n - 1) // 2; there the bound is 1e-15 (numpy's weights: 1.2e-14).
    # Over the whole exactness range k < 2n even the correctly rounded Gauss
    # rule leaves 1.4e-15 at n = 30, so the bound there is 4e-15 (numpy's
    # weights: 1.3e-14).
    for n in range(1, 31):
        rule = build_quadrature("gauss-legendre", n)
        phi = eval_orthonormal_legendre(2 * n - 1, rule.nodes)
        for k in range(1, 2 * n):
            bound = 1e-15 if k <= (n - 1) // 2 else 4e-15
            assert abs(math.fsum(rule.weights * phi[k])) <= bound, (n, k)


@pytest.mark.parametrize("degree", [4, 14])
@pytest.mark.parametrize("d", [3, 4])
def test_contractions_independent_of_batch(degree, d):
    # a block's reconstruction and projection must not depend on the batch it
    # sits in: the IPM thread-count and permutation tests rely on this
    basis = build_basis(build_partition(-1, 1, 2), degree)
    rng = np.random.default_rng(degree + d)
    batches = (
        rng.standard_normal((12, 2, basis.n_coeffs, d)),
        rng.standard_normal((12, 2, basis.n_nodes, d)),
    )
    perm = rng.permutation(12)
    for contract, x in zip((basis.reconstruct, basis.project), batches):
        full = contract(x)
        items = np.array([[contract(block) for block in cell] for cell in x])
        np.testing.assert_array_equal(full, items)
        np.testing.assert_array_equal(contract(x[perm]), full[perm])
        np.testing.assert_array_equal(contract(x[::2]), full[::2])
