import re

import numpy as np
import pytest

import oracles
from oracles import max_wave_speed, physical_flux
from uqfv import ipm, riemann, sg
from uqfv.basis import build_basis, build_partition
from uqfv.euler import GasModel, InadmissibleStateError
from uqfv.fv import (
    MomentField,
    _cfl_steps,
    _hll_unchecked,
    cfl_time_step,
    deterministic_solve,
    extend_node_states,
    grid_1d,
    grid_2d,
    moment_flux_divergence,
)
from uqfv.problems import project_initial_data

GAS = GasModel(1.4)
SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])


def random_admissible(rng, n, ndim=1):
    rho = rng.uniform(0.05, 5.0, n)
    v = rng.uniform(-3.0, 3.0, (n, ndim))
    p = rng.uniform(0.05, 5.0, n)
    u = np.empty((n, 2 + ndim))
    u[:, 0] = rho
    u[:, 1 : 1 + ndim] = rho[:, None] * v
    u[:, -1] = p / 0.4 + 0.5 * rho * np.sum(v * v, axis=1)
    return u


def test_hll_consistency_random_states():
    rng = np.random.default_rng(2)
    u = random_admissible(rng, 100)
    np.testing.assert_allclose(_hll_unchecked(u, u, GAS, 0), physical_flux(u, GAS), atol=1e-13)


def test_hll_mirror_symmetry():
    rng = np.random.default_rng(4)
    ul = random_admissible(rng, 50)
    ur = random_admissible(rng, 50)
    mirror = np.array([1.0, -1.0, 1.0])
    f = _hll_unchecked(ul, ur, GAS, 0)
    f_mirror = _hll_unchecked(ur * mirror, ul * mirror, GAS, 0)
    np.testing.assert_allclose(f, -(f_mirror * mirror), atol=1e-12)


def test_hll_sod_interface_selects_middle_state():
    # wave-speed oracle: both states are at rest, so the Davis bounds are
    # s_L = -max(c_L, c_R) < 0 < s_R = +max(c_L, c_R): the middle state wins
    c_l = max_wave_speed(SOD_L, GAS)
    c_r = max_wave_speed(SOD_R, GAS)
    s_l, s_r = min(-c_l, -c_r), max(c_l, c_r)
    assert s_l < 0.0 < s_r
    flux = _hll_unchecked(SOD_L, SOD_R, GAS, 0)
    f_l, f_r = physical_flux(SOD_L, GAS), physical_flux(SOD_R, GAS)
    expected = (s_r * f_l - s_l * f_r + s_l * s_r * (SOD_R - SOD_L)) / (s_r - s_l)
    np.testing.assert_allclose(flux, expected, atol=1e-13)
    assert not np.allclose(flux, f_l) and not np.allclose(flux, f_r)


def test_hll_matches_independent_oracle():
    rng = np.random.default_rng(8)
    ul = random_admissible(rng, 200)
    ur = random_admissible(rng, 200)
    np.testing.assert_allclose(
        _hll_unchecked(ul, ur, GAS, 0), oracles.hll_1d(ul, ur, GAS.gamma), atol=1e-13
    )


def test_cfl_time_step_formula_1d():
    # lambda = sqrt(1.4) for the rest state; dt = C dx / lambda
    grid = grid_1d(10, 0.0, 1.0)
    states = np.tile(SOD_L, (10, 1, 1, 1))
    dt = cfl_time_step(states, grid, GAS, 0.5)
    assert dt == pytest.approx(0.5 * 0.1 / np.sqrt(1.4), rel=1e-14)


def test_cfl_time_step_formula_2d():
    grid = grid_2d(10, 10)
    u = np.tile(np.array([1.0, 0.0, 0.0, 2.5]), (10, 10, 1, 1, 1))
    lam = np.sqrt(1.4)
    dt = cfl_time_step(u, grid, GAS, 1.0)
    assert dt == pytest.approx(1.0 / (lam / 0.1 + lam / 0.1), rel=1e-14)


def test_cfl_time_step_sod_initial():
    grid = grid_1d(2000, 0.0, 1.0)
    states = np.tile(SOD_L, (2000, 1, 1, 1))
    states[1000:, 0, 0] = SOD_R
    dt = cfl_time_step(states, grid, GAS, 0.9)
    assert dt == pytest.approx(0.9 * (1.0 / 2000) / np.sqrt(1.4), rel=1e-12)


@pytest.mark.parametrize("ndim", [1, 2])
def test_global_wave_speeds_match_max_wave_speed(ndim):
    # cfl_time_step reduces the largest |v| + c per axis; bit for bit against
    # the oracle's speeds, on many small fields so that round-off in any state shows
    rng = np.random.default_rng(5)
    grid = grid_1d(2, 0.0, 1.0) if ndim == 1 else grid_2d(2, 1)
    for _ in range(50):
        u = random_admissible(rng, 4, ndim).reshape(2, 1, 2, 2 + ndim)
        speeds = tuple(float(np.max(max_wave_speed(u, GAS, axis))) for axis in range(ndim))
        assert cfl_time_step(u, grid, GAS, 0.9) == _cfl_steps(speeds, grid, 0.9)


@pytest.mark.parametrize(
    "bad",
    [[-0.5, 0.0, 2.5], [0.0, 0.0, 2.5], [1.0, 2.0, 1.0], [1.0, 0.0, 0.0], [np.nan, 0.0, 2.5],
     [1.0, np.nan, 2.5], [1.0, 0.0, np.nan], [1.0, 0.0, np.inf], [1.0, 0.0, -np.inf]],
)
def test_global_wave_speeds_rejects_inadmissible(bad):
    states = np.tile(SOD_L, (6, 1))
    states[3] = bad
    states[5] = bad
    message = r"^inadmissible state in wave-speed scan at index \(3,\)$"
    with pytest.raises(InadmissibleStateError, match=message):
        cfl_time_step(states, grid_1d(6, 0.0, 1.0), GAS, 0.9)


def test_cfl_rejects_bad_number():
    grid = grid_1d(4, 0.0, 1.0)
    states = np.tile(SOD_L, (4, 1, 1, 1))
    with pytest.raises(ValueError):
        cfl_time_step(states, grid, GAS, 1.5)


def _constant_field(grid, basis, state):
    shape = grid.shape + (basis.n_elements, basis.n_coeffs, len(state))
    coeffs = np.zeros(shape)
    coeffs[..., 0, :] = state
    return MomentField(grid, basis, coeffs)


def test_extend_moments_transmissive():
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_1d(4, 0.0, 1.0, bc="transmissive")
    field = _constant_field(grid, basis, SOD_L)
    field.coeffs[0, :, 1, 0] = 0.5  # make edge cells distinctive
    field.coeffs[3, :, 1, 0] = -0.5
    ext = oracles.extend_moments(field, axis=0)
    np.testing.assert_array_equal(ext[0], field.coeffs[0])
    np.testing.assert_array_equal(ext[-1], field.coeffs[3])


def test_extend_moments_periodic():
    basis = build_basis(build_partition(-1, 1, 1), 1)
    grid = grid_1d(4, 0.0, 1.0, bc="periodic")
    field = _constant_field(grid, basis, SOD_L)
    field.coeffs[:, 0, 0, 0] = [1.0, 2.0, 3.0, 4.0]
    ext = oracles.extend_moments(field, axis=0)
    assert ext[0, 0, 0, 0] == 4.0
    assert ext[-1, 0, 0, 0] == 1.0


def test_extend_moments_dirichlet_projects_constant():
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(4, 0.0, 1.0, bc=("dirichlet", SOD_R))
    field = _constant_field(grid, basis, SOD_L)
    ext = oracles.extend_moments(field, axis=0)
    np.testing.assert_array_equal(ext[0, :, 0, :], np.tile(SOD_R, (2, 1)))
    np.testing.assert_array_equal(ext[0, :, 1:, :], 0.0)


def test_extend_node_states_matches_moment_extension():
    rng = np.random.default_rng(12)
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_1d(5, 0.0, 1.0, bc=("dirichlet", SOD_R))
    coeffs = np.zeros((5, 2, 3, 3))
    coeffs[..., 0, :] = SOD_L
    coeffs += 0.01 * rng.standard_normal(coeffs.shape)
    field = MomentField(grid, basis, coeffs)
    via_moments = np.einsum("...kd,kq->...qd", oracles.extend_moments(field, 0), basis.phi)
    via_states = extend_node_states(field.node_states(), grid, 0)
    np.testing.assert_allclose(via_moments, via_states, atol=1e-14)


def test_periodic_must_pair():
    with pytest.raises(ValueError):
        grid_1d(4, 0.0, 1.0, bc=("periodic", "transmissive"))


def test_moment_divergence_vanishes_for_constant_field():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(6, 0.0, 1.0, bc="periodic")
    field = _constant_field(grid, basis, SOD_L)
    div = moment_flux_divergence(field.node_states(), grid, basis, GAS)
    np.testing.assert_allclose(div, 0.0, atol=1e-13)


def test_moment_divergence_conserves_mass_periodic():
    rng = np.random.default_rng(3)
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(32, 0.0, 1.0, bc="periodic")
    coeffs = np.zeros((32, 2, 4, 3))
    x = grid.cell_centers(0)
    coeffs[..., 0, 0] = (1.0 + 0.1 * np.sin(2 * np.pi * x))[:, None]
    coeffs[..., 0, 2] = 2.5
    coeffs[..., 1, 0] = 0.01 * rng.standard_normal((32, 2))
    field = MomentField(grid, basis, coeffs)
    div = moment_flux_divergence(field.node_states(), grid, basis, GAS)
    # total change of the element-weighted means telescopes to zero
    total = np.einsum("xld,l->d", div[:, :, 0, :], basis.element_weights)
    np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_deterministic_solve_matches_naive_oracle():
    nx = 64
    grid = grid_1d(nx, 0.0, 1.0)
    x = grid.cell_centers(0)
    u0 = np.where(x[:, None] < 0.5, SOD_L, SOD_R)
    ours = deterministic_solve(u0[:, None], grid, GAS, 0.1, cfl=0.9)[0][:, 0]
    ref = oracles.naive_fv_run(u0, 1.0 / nx, 0.1, GAS.gamma, cfl=0.9)
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_moment_divergence_2d_x_riemann_matches_1d():
    # x-Riemann data on a 2D grid: the y-flux differences vanish and the
    # x-contribution equals the 1D divergence in every row
    nx, ny = 32, 4
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid2 = grid_2d(nx, ny, bc_x="transmissive", bc_y="periodic")
    grid1 = grid_1d(nx, 0.0, 1.0)
    x = grid1.cell_centers(0)
    c1 = np.zeros((nx, 2, 3, 3))
    c1[..., 0, :] = np.where(x[:, None] < 0.5, SOD_L, SOD_R)[:, None, :]
    c1[..., 1, 0] = 0.02 * np.sin(3.0 * x)[:, None]
    div1 = moment_flux_divergence(
        MomentField(grid1, basis, c1).node_states(), grid1, basis, GAS
    )
    c2 = np.zeros((nx, ny, 2, 3, 4))
    c2[..., 0] = c1[:, None, :, :, 0]
    c2[..., 1] = c1[:, None, :, :, 1]
    c2[..., 3] = c1[:, None, :, :, 2]
    div2 = moment_flux_divergence(
        MomentField(grid2, basis, c2).node_states(), grid2, basis, GAS
    )
    for j in range(ny):
        np.testing.assert_allclose(div2[:, j, ..., 0], div1[..., 0], atol=1e-13)
        np.testing.assert_allclose(div2[:, j, ..., 1], div1[..., 1], atol=1e-13)
        np.testing.assert_allclose(div2[:, j, ..., 3], div1[..., 2], atol=1e-13)
        np.testing.assert_allclose(div2[:, j, ..., 2], 0.0, atol=1e-13)


def test_deterministic_solve_2d_keeps_y_symmetry():
    nx, ny = 32, 4
    grid2 = grid_2d(nx, ny, bc_x="transmissive", bc_y="periodic")
    x = grid2.cell_centers(0)
    u2 = np.zeros((nx, ny, 4))
    u2[..., 0] = np.where(x < 0.5, SOD_L[0], SOD_R[0])[:, None]
    u2[..., 3] = np.where(x < 0.5, SOD_L[2], SOD_R[2])[:, None]
    out = deterministic_solve(u2[:, :, None], grid2, GAS, 0.05)[0][:, :, 0]
    np.testing.assert_allclose(out[..., 2], 0.0, atol=1e-13)
    for j in range(1, ny):
        np.testing.assert_allclose(out[:, j], out[:, 0], atol=1e-13)
    assert not np.allclose(out[..., 0], u2[..., 0])


@pytest.mark.parametrize("ndim", [1, 2])
def test_deterministic_solve_rows_match_single_runs(ndim):
    # alone, the rows take 5, 11 and 2 steps in 1D (3, 6 and 2 in 2D); in the
    # batch a row that reaches t_end first waits unchanged while others march
    grid = grid_1d(24, 0.0, 1.0) if ndim == 1 else grid_2d(10, 6, bc_y="periodic")
    centers = np.meshgrid(*(grid.cell_centers(a) for a in range(ndim)), indexing="ij")
    mask = centers[0] < 0.5
    if ndim == 2:
        mask ^= centers[1] < 0.5  # a checkerboard: both axes carry flux
    left, right = np.zeros(2 + ndim), np.zeros(2 + ndim)
    left[[0, -1]], right[[0, -1]] = (1.0, 2.5), (0.125, 0.25)
    states = np.repeat(np.where(mask[..., None], left, right)[..., None, :], 3, axis=-2)
    states[..., -1] *= np.array([1.0, 4.0, 0.25])
    batch, stats = deterministic_solve(states, grid, GAS, 0.1)
    assert batch.shape == states.shape
    steps = []
    for row in range(3):
        one, one_stats = deterministic_solve(states[..., row : row + 1, :], grid, GAS, 0.1)
        assert np.array_equal(one, batch[..., row : row + 1, :])
        steps.append(one_stats.steps)
    assert steps == ([5, 11, 2] if ndim == 1 else [3, 6, 2])
    assert stats.steps == max(steps)


@pytest.mark.parametrize("flux", ["lax-friedrichs", "roe"])
@pytest.mark.parametrize("entry", ["run_sg", "run_ipm", "collocation_reference"])
def test_entry_points_accept_only_hll(monkeypatch, entry, flux):
    # HLL is the one numerical flux; any other name fails before a step runs
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(sg, "integrate", no_step)
    monkeypatch.setattr(ipm, "integrate", no_step)
    monkeypatch.setattr(riemann, "deterministic_solve", no_step)

    def initial(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        return np.where((x < 0.5 + 0.05 * xi)[..., None], SOD_L, SOD_R)

    grid = grid_1d(8, 0.0, 1.0)
    field = project_initial_data(initial, grid, build_basis(build_partition(-1, 1, 2), 2))
    calls = {
        "run_sg": lambda: sg.run_sg(field, GAS, 0.1, flux=flux),
        "run_ipm": lambda: ipm.run_ipm(field, GAS, 0.1, flux=flux),
        "collocation_reference": lambda: riemann.collocation_reference(
            initial, grid, GAS, 0.1, n_nodes=4, flux=flux
        ),
    }
    with pytest.raises(ValueError, match=re.escape(f"unknown numerical flux: {flux!r}")):
        calls[entry]()


def test_moment_field_validates_shape_and_finiteness():
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_1d(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        MomentField(grid, basis, np.zeros((4, 2, 99, 3)))
    bad = np.zeros((4, 2, 3, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        MomentField(grid, basis, bad)
