import numpy as np
import pytest

import oracles
from uqfv.basis import build_basis, build_partition
from uqfv.fv import MomentField, grid_1d, grid_2d
from uqfv.stats import (
    FieldStatistics,
    expectation,
    field_statistics,
    relative_errors,
    variance,
    write_csv,
)


def make_field(grid, basis, coeffs):
    return MomentField(grid, basis, coeffs)


def test_expectation_constant_state():
    basis = build_basis(build_partition(-1, 1, 3), 2)
    grid = grid_1d(4, 0.0, 1.0)
    coeffs = np.zeros((4, 3, 3, 3))
    coeffs[..., 0, :] = [1.0, 0.2, 2.5]
    field = make_field(grid, basis, coeffs)
    np.testing.assert_allclose(expectation(field), np.tile([1.0, 0.2, 2.5], (4, 1)))
    np.testing.assert_allclose(variance(field), 0.0, atol=1e-16)


def test_expectation_two_elements_average():
    basis = build_basis(build_partition(-1, 1, 2), 1)
    grid = grid_1d(1, 0.0, 1.0)
    coeffs = np.zeros((1, 2, 2, 3))
    coeffs[0, 0, 0, 0] = 2.0
    coeffs[0, 1, 0, 0] = 4.0
    field = make_field(grid, basis, coeffs)
    assert expectation(field)[0, 0] == pytest.approx(3.0, abs=1e-15)


def test_linear_profile_mean_zero_variance_third():
    # u(xi) = xi on (-1,1): single element, exact projection
    basis = build_basis(build_partition(-1, 1, 1), 2)
    grid = grid_1d(1, 0.0, 1.0)
    coeffs = np.zeros((1, 1, 3, 3))
    coeffs[0, 0, :, 0] = basis.project(basis.nodes[0][:, None])[:, 0]
    field = make_field(grid, basis, coeffs)
    assert expectation(field)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert variance(field)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_linear_profile_variance_multi_element_consistency():
    # same u(xi) = xi projected on two elements reproduces Var = 1/3
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_1d(1, 0.0, 1.0)
    coeffs = np.zeros((1, 2, 3, 3))
    for l in range(2):
        coeffs[0, l, :, 0] = basis.project(basis.nodes[l][:, None])[:, 0]
    field = make_field(grid, basis, coeffs)
    assert expectation(field)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert variance(field)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_expectation_linear_in_coefficients():
    rng = np.random.default_rng(0)
    basis = build_basis(build_partition(-1, 1, 3), 3)
    grid = grid_1d(5, 0.0, 1.0)
    a = rng.standard_normal((5, 3, 4, 3))
    b = rng.standard_normal((5, 3, 4, 3))
    lhs = expectation(make_field(grid, basis, 2.0 * a + 3.0 * b))
    rhs = 2.0 * expectation(make_field(grid, basis, a)) + 3.0 * expectation(
        make_field(grid, basis, b)
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_variance_matches_brute_force_sampling():
    # moment-based variance vs 1e5 equispaced-sample variance of the
    # reconstructed polynomial, on 50 random coefficient fields
    rng = np.random.default_rng(123)
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(1, 0.0, 1.0)
    n = 100_000
    xi = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    idx = np.minimum((0.5 * (xi + 1.0) * 3).astype(int), 2)
    mids = basis.partition.midpoints
    halves = 0.5 * basis.partition.widths
    t = (xi - mids[idx]) / halves[idx]
    phi_t = oracles.legendre_orthonormal(4, t)  # independent recurrence
    for _ in range(50):
        coeffs = np.zeros((1, 3, 5, 3))
        coeffs[0, :, :, 0] = rng.standard_normal((3, 5))
        coeffs[0, :, 0, 0] += 3.0
        field = make_field(grid, basis, coeffs)
        samples = np.einsum("kn,nk->n", phi_t, coeffs[0, idx, :, 0])
        brute = samples.var()
        assert variance(field)[0, 0] == pytest.approx(brute, rel=1e-3)


def test_field_statistics_clamps_nothing_by_construction():
    rng = np.random.default_rng(5)
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(6, 0.0, 1.0)
    coeffs = rng.standard_normal((6, 2, 4, 3))
    stats = field_statistics(make_field(grid, basis, coeffs))
    assert np.all(stats.variance >= 0.0)


def _random_stats(grid, rng):
    shape = grid.shape + (3,)
    return FieldStatistics(
        grid=grid,
        mean=rng.uniform(0.5, 2.0, shape),
        variance=rng.uniform(0.1, 1.0, shape),
    )


def test_relative_errors_identity_and_doubling():
    rng = np.random.default_rng(2)
    grid = grid_1d(10, 0.0, 1.0)
    ref = _random_stats(grid, rng)
    zero_e, zero_v = relative_errors(ref, ref)
    np.testing.assert_allclose(zero_e, 0.0, atol=1e-15)
    np.testing.assert_allclose(zero_v, 0.0, atol=1e-15)
    doubled = FieldStatistics(grid, 2.0 * ref.mean, 2.0 * ref.variance)
    err_e, err_v = relative_errors(doubled, ref)
    np.testing.assert_allclose(err_e, 1.0, rtol=1e-13)
    np.testing.assert_allclose(err_v, 1.0, rtol=1e-13)


def test_relative_errors_scale_invariant_in_reference():
    rng = np.random.default_rng(3)
    grid = grid_1d(8, 0.0, 1.0)
    computed = _random_stats(grid, rng)
    ref = _random_stats(grid, rng)
    scaled = FieldStatistics(grid, 5.0 * ref.mean, 5.0 * ref.variance)
    computed5 = FieldStatistics(grid, 5.0 * computed.mean, 5.0 * computed.variance)
    e1, v1 = relative_errors(computed, ref)
    e2, v2 = relative_errors(computed5, scaled)
    np.testing.assert_allclose(e1, e2, rtol=1e-12)
    np.testing.assert_allclose(v1, v2, rtol=1e-12)


def test_relative_errors_zero_reference_norm():
    # a component without a reference norm has no relative error; the others keep theirs
    grid = grid_1d(4, 0.0, 1.0)
    mean = np.ones((4, 3))
    mean[:, 1] = 0.0
    ref = FieldStatistics(grid, mean, np.zeros((4, 3)))
    computed = FieldStatistics(grid, 2.0 * np.ones((4, 3)), np.ones((4, 3)))
    err_e, err_v = relative_errors(computed, ref)
    np.testing.assert_array_equal(err_e, [1.0, np.nan, 1.0])
    np.testing.assert_array_equal(err_v, [np.nan] * 3)


def test_relative_errors_grid_mismatch():
    rng = np.random.default_rng(6)
    a = _random_stats(grid_1d(4, 0.0, 1.0), rng)
    b = _random_stats(grid_1d(5, 0.0, 1.0), rng)
    with pytest.raises(ValueError):
        relative_errors(a, b)


def test_write_csv_1d_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    grid = grid_1d(4, 0.0, 1.0)
    stats = _random_stats(grid, rng)
    path = tmp_path / "stats.csv"
    write_csv(stats, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "x,E_rho,Var_rho,E_mx,Var_mx,E_E,Var_E"
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    np.testing.assert_allclose(data[:, 0], grid.cell_centers(0), atol=1e-14)
    np.testing.assert_allclose(data[:, 1::2], stats.mean, atol=1e-14)
    np.testing.assert_allclose(data[:, 2::2], stats.variance, atol=1e-14)


def test_write_csv_2d_row_order(tmp_path):
    grid = grid_2d(2, 2)
    mean = np.arange(16, dtype=float).reshape(2, 2, 4)
    var = np.zeros((2, 2, 4))
    stats = FieldStatistics(grid, mean, var)
    path = tmp_path / "stats2d.csv"
    write_csv(stats, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,E_rho,Var_rho,E_mx,Var_mx,E_my,Var_my,E_E,Var_E"
    assert len(lines) == 5
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    # i-major ordering: (0,0), (0,1), (1,0), (1,1)
    np.testing.assert_allclose(data[:, 0], [0.25, 0.25, 0.75, 0.75])
    np.testing.assert_allclose(data[:, 1], [0.25, 0.75, 0.25, 0.75])
    np.testing.assert_allclose(data[:, 2], [0.0, 4.0, 8.0, 12.0])


def test_write_csv_io_failure(tmp_path):
    grid = grid_1d(2, 0.0, 1.0)
    stats = FieldStatistics(grid, np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(OSError, match="no/such"):
        write_csv(stats, tmp_path / "no" / "such" / "dir.csv")
