import re

import numpy as np
import pytest

import oracles
from oracles import assert_same_bits, max_wave_speed, physical_flux
from uqfv import fv, ipm, riemann, sg
from uqfv.basis import build_basis, build_partition
from uqfv.euler import GasModel, InadmissibleStateError
from uqfv.fv import (
    MomentField,
    _cfl_steps,
    cfl_time_step,
    deterministic_solve,
    extend_node_states,
    grid_1d,
    grid_2d,
    moment_flux_divergence,
)
from uqfv.ipm import dual_node_states, initial_duals_from_states, solve_duals
from uqfv.problems import initial_node_states, project_initial_data
from uqfv.sg import LimiterConfig, apply_limiter

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
    np.testing.assert_allclose(oracles.hll(u, u, GAS, 0), physical_flux(u, GAS), atol=1e-13)


def test_hll_mirror_symmetry():
    rng = np.random.default_rng(4)
    ul = random_admissible(rng, 50)
    ur = random_admissible(rng, 50)
    mirror = np.array([1.0, -1.0, 1.0])
    f = oracles.hll(ul, ur, GAS, 0)
    f_mirror = oracles.hll(ur * mirror, ul * mirror, GAS, 0)
    np.testing.assert_allclose(f, -(f_mirror * mirror), atol=1e-12)


def test_hll_sod_interface_selects_middle_state():
    # wave-speed oracle: both states are at rest, so the Davis bounds are
    # s_L = -max(c_L, c_R) < 0 < s_R = +max(c_L, c_R): the middle state wins
    c_l = max_wave_speed(SOD_L, GAS)
    c_r = max_wave_speed(SOD_R, GAS)
    s_l, s_r = min(-c_l, -c_r), max(c_l, c_r)
    assert s_l < 0.0 < s_r
    flux = oracles.hll(SOD_L, SOD_R, GAS, 0)
    f_l, f_r = physical_flux(SOD_L, GAS), physical_flux(SOD_R, GAS)
    expected = (s_r * f_l - s_l * f_r + s_l * s_r * (SOD_R - SOD_L)) / (s_r - s_l)
    np.testing.assert_allclose(flux, expected, atol=1e-13)
    assert not np.allclose(flux, f_l) and not np.allclose(flux, f_r)


def test_hll_matches_independent_oracle():
    rng = np.random.default_rng(8)
    ul = random_admissible(rng, 200)
    ur = random_admissible(rng, 200)
    np.testing.assert_allclose(
        oracles.hll(ul, ur, GAS, 0), oracles.hll_1d(ul, ur, GAS.gamma), atol=1e-13
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
    with pytest.raises(InadmissibleStateError, match=message) as info:
        cfl_time_step(states, grid_1d(6, 0.0, 1.0), GAS, 0.9)
    assert info.value.index == (3,)


def test_cfl_rejects_bad_number():
    grid = grid_1d(4, 0.0, 1.0)
    states = np.tile(SOD_L, (4, 1, 1, 1))
    with pytest.raises(ValueError):
        cfl_time_step(states, grid, GAS, 1.5)


def test_cfl_rejects_a_field_without_waves():
    # admissible gas at rest whose sound speed sqrt(gamma p / rho) underflows to 0
    states = np.tile([1e300, 0.0, 2.5e-300], (4, 1, 1, 1))
    with pytest.raises(ValueError, match=r"^zero wave speed everywhere; nothing to advance$"):
        cfl_time_step(states, grid_1d(4, 0.0, 1.0), GAS, 0.9)


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


@pytest.mark.parametrize(
    "state",
    [[1.0, 0.0, -1.0], [-1.0, 0.0, 2.5], [1.0, 0.0], [1.0, np.nan, 2.5], [1.0, 0.0, np.inf]],
)
def test_dirichlet_state_must_be_admissible_1d(state):
    # p < 0, rho < 0, two entries, and non-finite entries used to pass; the
    # first two failed a step later, blaming a grid cell, and the short one
    # failed deep in the flux
    message = r"^dirichlet state on the high x side must be 3 finite values with rho > 0 and p > 0"
    with pytest.raises(ValueError, match=message):
        grid_1d(20, 0, 1, bc=(("dirichlet", [1.0, 0.0, 2.5]), ("dirichlet", state)))


def test_dirichlet_state_must_be_admissible_2d():
    good = [1.0, 0.5, -0.5, 2.5]
    grid = grid_2d(4, 3, bc_x=("dirichlet", good), bc_y=(("dirichlet", good), "transmissive"))
    assert [kind for sides in grid.bcs for kind, _ in sides] == ["dirichlet"] * 3 + ["transmissive"]
    # a 1D state on a 2D grid has no y-momentum
    with pytest.raises(ValueError, match=r"^dirichlet state on the low y side must be 4 finite"):
        grid_2d(4, 3, bc_y=(("dirichlet", SOD_L), "transmissive"))
    # kinetic energy above the total energy: p < 0
    with pytest.raises(ValueError, match=r"^dirichlet state on the high x side must be 4 finite"):
        grid_2d(4, 3, bc_x=(("dirichlet", good), ("dirichlet", [1.0, 2.0, 2.0, 2.5])))


def test_unknown_boundary_kind_rejected():
    with pytest.raises(ValueError, match=r"^unknown boundary condition: 'foo'$"):
        fv._normalize_bc(("foo", SOD_L))


def test_integrate_rejects_negative_end_time():
    def step(stats, dt_max):
        raise AssertionError("no step may run")

    with pytest.raises(ValueError, match=r"^end time must be >= 0, got -1.0$"):
        fv.integrate(step, -1.0)


def _divergence(nodes, grid, basis, work=None):
    """``moment_flux_divergence`` on every cell: its pieces, and +0.0 elsewhere."""
    _, pieces = moment_flux_divergence(nodes, grid, basis, GAS, work=work)
    return oracles.zero_filled(nodes.shape[:-2] + (basis.n_coeffs, nodes.shape[-1]), pieces)


def _difference(states, grid, axis, work):
    """``_flux_window``'s difference on every cell: its window, and +0.0 elsewhere."""
    _, lo, diff = fv._flux_window(states, grid, GAS, axis, work)
    cells = (slice(None),) * axis + (slice(lo, lo + diff.shape[axis]),)
    return oracles.zero_filled(states.shape, [(cells, diff)])


def test_moment_divergence_vanishes_for_constant_field():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(6, 0.0, 1.0, bc="periodic")
    field = _constant_field(grid, basis, SOD_L)
    div = _divergence(field.node_states(), grid, basis)
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
    div = _divergence(field.node_states(), grid, basis)
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
    div1 = _divergence(MomentField(grid1, basis, c1).node_states(), grid1, basis)
    c2 = np.zeros((nx, ny, 2, 3, 4))
    c2[..., 0] = c1[:, None, :, :, 0]
    c2[..., 1] = c1[:, None, :, :, 1]
    c2[..., 3] = c1[:, None, :, :, 2]
    div2 = _divergence(MomentField(grid2, basis, c2).node_states(), grid2, basis)
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


@pytest.mark.parametrize("ndim", [1, 2])
def test_hll_matches_the_expression_form_bit_for_bit(ndim):
    # the in-place kernel keeps the operands and order of the plain formula;
    # the states pick all three branches: left flux, right flux, middle state
    rng = np.random.default_rng(40 + ndim)
    ul, ur = random_admissible(rng, 4000, ndim), random_admissible(rng, 4000, ndim)
    for axis in range(ndim):
        got = oracles.hll(ul, ur, GAS, axis)
        np.testing.assert_array_equal(got, oracles.hll_expression(ul, ur, GAS.gamma, axis))
        fl = physical_flux(ul, GAS, axis)
        fr = physical_flux(ur, GAS, axis)
        picked_l = np.all(got == fl, axis=-1)
        picked_r = np.all(got == fr, axis=-1)
        assert picked_l.any() and picked_r.any() and (~picked_l & ~picked_r).any()


def test_hll_workspace_reused_across_shapes_and_components():
    # the kernel's per-state buffers have no component axis and take hands
    # out prefixes of flat buffers: after a larger 2D call (d = 4), a smaller
    # 1D call (d = 3) must read none of the stale entries behind its prefix
    rng = np.random.default_rng(9)
    work = fv._Workspace()
    for n, ndim in ((300, 1), (1200, 2), (50, 1)):
        ul, ur = random_admissible(rng, n, ndim), random_admissible(rng, n, ndim)
        got = oracles.hll(ul, ur, GAS, ndim - 1, work=work)
        np.testing.assert_array_equal(got, oracles.hll_expression(ul, ur, GAS.gamma, ndim - 1))


def _kernel_case(rng, ndim, bc, shape, n_elements=2, degree=2):
    """Random admissible node states on a grid whose every side has ``bc``."""
    if bc == "dirichlet":
        bc = ("dirichlet", random_admissible(rng, 1, ndim)[0])
    elif bc == "mixed":
        bc = (("dirichlet", random_admissible(rng, 1, ndim)[0]), "transmissive")
    grid = grid_1d(shape[0], 0.0, 1.0, bc=bc) if ndim == 1 else grid_2d(*shape, bc_x=bc, bc_y=bc)
    basis = build_basis(build_partition(-1, 1, n_elements), degree)
    lq = (n_elements, basis.n_nodes)
    nodes = random_admissible(rng, np.prod(shape + lq), ndim).reshape(shape + lq + (2 + ndim,))
    return nodes, grid, basis


@pytest.mark.parametrize("bc", ["transmissive", "periodic", "dirichlet", "mixed"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_flux_kernel_matches_the_composed_oracle(ndim, bc):
    # the kernel's ghost layer, once-per-cell flux and held buffers give the
    # bits of extend_node_states, _hll_unchecked on both sides and np.diff
    rng = np.random.default_rng(7 * ndim + len(bc))
    nodes, grid, basis = _kernel_case(rng, ndim, bc, (9,) if ndim == 1 else (7, 5))
    expected = oracles.flux_divergence(nodes, grid, basis, GAS)
    np.testing.assert_array_equal(_divergence(nodes, grid, basis), expected)
    work = fv._Workspace()
    for _ in range(2):
        np.testing.assert_array_equal(_divergence(nodes, grid, basis, work), expected)
    for axis in range(ndim):
        np.testing.assert_array_equal(
            _difference(nodes, grid, axis, work),
            oracles.flux_difference(nodes, grid, GAS, axis),
        )
    # the windows' speeds give the full-grid scan's step
    speeds, _ = moment_flux_divergence(nodes, grid, basis, GAS, work=work)
    assert _cfl_steps(speeds, grid, 0.9) == cfl_time_step(nodes, grid, GAS, 0.9)


def test_one_workspace_serves_calls_of_different_shapes():
    # a small call after a large one reads only the front of the grown
    # buffers; stale entries behind it must not leak into its result
    rng = np.random.default_rng(5)
    small = _kernel_case(rng, 1, "transmissive", (6,))
    large = _kernel_case(rng, 2, "periodic", (8, 5), n_elements=3, degree=3)
    rows = random_admissible(rng, 10 * 4, 1).reshape(10, 4, 3)
    row_grid = grid_1d(10, 0.0, 1.0, bc="periodic")
    work = fv._Workspace()
    for nodes, grid, basis in (small, large, small):
        got = _divergence(nodes, grid, basis, work)
        np.testing.assert_array_equal(got, oracles.flux_divergence(nodes, grid, basis, GAS))
        np.testing.assert_array_equal(
            _difference(rows, row_grid, 0, work),
            oracles.flux_difference(rows, row_grid, GAS, 0),
        )


def _oracle_deterministic_solve(u, grid, t_end, cfl=0.9):
    """deterministic_solve's per-row time loop, with the composed oracle's flux."""
    cells = tuple(range(grid.ndim))
    t = np.zeros(u.shape[-2])
    while np.any(t < t_end):
        speeds = [np.max(max_wave_speed(u, GAS, a), axis=cells) for a in cells]
        dt = np.clip(t_end - t, 0.0, _cfl_steps(speeds, grid, cfl))
        update = None
        for axis, h in enumerate(grid.deltas):
            term = (dt / h)[:, None] * oracles.flux_difference(u, grid, GAS, axis)
            update = term if update is None else update + term
        u = u - update
        t = t + dt
    return u


@pytest.mark.parametrize("ndim", [1, 2])
def test_deterministic_solve_batch_matches_the_composed_oracle(ndim):
    # rows of a batch keep their own step sizes; the held workspace and the
    # in-place update give the bits of the fresh-array loop
    rng = np.random.default_rng(60 + ndim)
    grid = grid_1d(12, 0.0, 1.0, bc="periodic") if ndim == 1 else grid_2d(6, 5, bc_y="periodic")
    states = random_admissible(rng, np.prod(grid.shape) * 3, ndim)
    states = states.reshape(grid.shape + (3, 2 + ndim))
    got, stats = deterministic_solve(states, grid, GAS, 0.1)
    assert stats.steps > 3
    np.testing.assert_array_equal(got, _oracle_deterministic_solve(states, grid, 0.1))


# name: (grid shape, boundary condition, the cells that hold random states,
# with slice(None) along an axis the states do not vary on, and the number
# of interfaces the flux window holds per axis, 0 where it is empty). A
# window holds the interfaces between unequal cells plus one equal
# interface at each end. "signed_zero" is a supersonic flow along x whose
# cell (3, 2) holds a y-momentum of -0.0 where the others hold +0.0.
WINDOW_CASES = {
    "empty": ((12,), "transmissive", (slice(0, 0),), (0,)),
    "low_edge": ((12,), "transmissive", (slice(0, 3),), (5,)),
    "high_edge": ((12,), "transmissive", (slice(9, 12),), (5,)),
    "dirichlet_ghost": ((12,), "dirichlet", (slice(0, 0),), (2,)),
    "periodic_middle": ((12,), "periodic", (slice(5, 7),), (5,)),
    "periodic_wrap": ((12,), "periodic", (slice(0, 2),), (13,)),
    "constant_in_y": ((7, 5), "transmissive", (slice(2, 4), slice(None)), (5, 0)),
    "constant_in_x": ((7, 5), "transmissive", (slice(None), slice(1, 3)), (0, 5)),
    "corner": ((7, 5), "transmissive", (slice(0, 2), slice(3, 5)), (4, 4)),
    "signed_zero": ((7, 5), "transmissive", (slice(0, 0), slice(None)), (4, 4)),
}


def _window_case(name):
    """Rest-state node states with random ones in a band, and the case's grid and basis."""
    shape, bc, band, windows = WINDOW_CASES[name]
    rng = np.random.default_rng(len(name))
    ndim = len(shape)
    if bc == "dirichlet":
        # a ghost on the low side only, unlike the constant edge cell
        bc = (("dirichlet", random_admissible(rng, 1, ndim)[0]), "transmissive")
    grid = grid_1d(shape[0], 0.0, 1.0, bc=bc) if ndim == 1 else grid_2d(*shape, bc_x=bc, bc_y=bc)
    basis = build_basis(build_partition(-1, 1, 2), 2)
    nodes = np.empty(shape + (2, basis.n_nodes, 2 + ndim))
    nodes[...] = np.r_[1.0, np.zeros(ndim), 2.5]
    held = nodes[band].shape
    varied = tuple(1 if s == slice(None) else n for s, n in zip(band, held)) + held[ndim:]
    nodes[band] = random_admissible(rng, np.prod(varied[:-1]), ndim).reshape(varied)
    if name == "signed_zero":
        nodes[...] = (1.0, 3.0, 0.0, 7.0)
        nodes[3, 2, ..., 2] = -0.0
    return nodes, grid, basis, windows


@pytest.mark.parametrize("name", WINDOW_CASES)
def test_flux_window_keeps_every_bit(name, monkeypatch):
    # outside the window the kernel writes 0.0 and runs no flux; its result
    # must still be the oracle's, which takes the flux at every interface
    nodes, grid, basis, windows = _window_case(name)
    expected = [oracles.flux_difference(nodes, grid, GAS, axis) for axis in range(grid.ndim)]
    seen, hll = [], fv._hll_unchecked

    def recording_hll(ul, ur, gas, axis, **kwargs):
        seen.append((axis, ul.shape[axis]))
        return hll(ul, ur, gas, axis, **kwargs)

    monkeypatch.setattr(fv, "_hll_unchecked", recording_hll)
    work = fv._Workspace()
    for axis in range(grid.ndim):
        assert_same_bits(_difference(nodes, grid, axis, work), expected[axis])
    assert seen == [(axis, n) for axis, n in enumerate(windows) if n]
    assert_same_bits(
        _divergence(nodes, grid, basis, work), oracles.flux_divergence(nodes, grid, basis, GAS)
    )
    if name == "signed_zero":
        # the left flux wins at every x-interface, so the -0.0 cell's
        # difference is -0.0 - +0.0 = -0.0, not the +0.0 that a float
        # comparison (-0.0 == +0.0) would skip it to
        assert np.signbit(expected[0][3, 2, ..., 2]).all()


@pytest.mark.parametrize("name", WINDOW_CASES)
def test_deterministic_solve_window_keeps_every_bit(name):
    # each step's window grows with the waves; the rows' bits stay the oracle's
    nodes, grid, _, _ = _window_case(name)
    rows = nodes.reshape(grid.shape + (-1, nodes.shape[-1]))
    got, stats = deterministic_solve(rows, grid, GAS, 0.2)
    assert stats.steps > 3
    assert_same_bits(got, _oracle_deterministic_solve(rows, grid, 0.2))


def _buffer_sizes(work):
    return {name: flat.size for name, flat in work._flat.items()}


@pytest.mark.parametrize("solver", ["run_sg", "deterministic_solve"])
def test_held_workspace_does_not_grow_with_the_window(solver, monkeypatch):
    # Sod's first windows hold a few interfaces, its last ones more: the held
    # buffers are made at full-grid size in step 1 and never again
    grid = grid_1d(60, 0.0, 1.0)
    basis = build_basis(build_partition(-1, 1, 2), 2)
    def initial(x, xi):
        return np.where((x < 0.5 + 0.05 * xi)[..., None], SOD_L, SOD_R)

    field = project_initial_data(initial, grid, basis)
    nodes = initial_node_states(initial, grid, basis)
    windows, sizes, made, hll = [], [], [], fv._hll_unchecked
    integrate, workspace_type = fv.integrate, fv._Workspace

    def workspace():
        made.append(workspace_type())
        return made[-1]

    def recording_hll(ul, ur, gas, axis, **kwargs):
        windows.append(ul.shape[axis])
        return hll(ul, ur, gas, axis, **kwargs)

    def recording_integrate(step, *args):
        def recorded(stats, dt_max):
            dt = step(stats, dt_max)
            sizes.append(_buffer_sizes(made[0]))
            return dt

        return integrate(recorded, *args)

    monkeypatch.setattr(fv, "_hll_unchecked", recording_hll)
    if solver == "run_sg":
        monkeypatch.setattr(sg, "_Workspace", workspace)
        monkeypatch.setattr(sg, "integrate", recording_integrate)
        sg.run_sg(field, GAS, 0.1)
    else:
        monkeypatch.setattr(fv, "_Workspace", workspace)
        monkeypatch.setattr(fv, "integrate", recording_integrate)
        nodes = nodes.reshape(60, -1, 3)
        deterministic_solve(nodes, grid, GAS, 0.1)
    assert len(made) == 1 and len(sizes) > 10
    assert windows[0] < windows[-1] < 61
    assert sizes[0] == sizes[-1]
    full = workspace_type()
    rng = np.random.default_rng(3)
    random_nodes = random_admissible(rng, nodes.size // 3).reshape(nodes.shape)
    fv._flux_window(random_nodes, grid, GAS, 0, full)
    assert _buffer_sizes(full).items() <= sizes[0].items()


# The window cases, plus a 2D state that varies along both axes, a 1D rest
# state whose momentum is -0.0 outside the window, and "one_axis_only": a
# supersonic flow along x whose column x = 2 holds a y-momentum of -0.0.
# Its cells (2, y) outside the y-window have an x-term of -0.0 - +0.0 and
# a y-term of +0.0: the full-grid sum -0.0 + 0.0 = +0.0 leaves their state's
# -0.0 as it is, where subtracting the x-term alone would give +0.0.
STEP_CASES = (*WINDOW_CASES, "varies_in_y", "negative_zero_outside", "one_axis_only")


def _step_case(name):
    """Node states, grid and basis of a window case or of one of the step cases."""
    if name in WINDOW_CASES:
        return _window_case(name)[:3]
    rng = np.random.default_rng(len(name))
    basis = build_basis(build_partition(-1, 1, 2), 2)
    shape, band, state = {
        "varies_in_y": ((8, 7), (slice(3, 5), slice(2, 4)), (1.0, 0.0, 0.0, 2.5)),
        "negative_zero_outside": ((24,), (slice(11, 13),), (1.0, -0.0, 2.5)),
        "one_axis_only": ((10, 8), (slice(8, 10), slice(0, 2)), (1.0, 3.0, 0.0, 7.0)),
    }[name]
    ndim = len(shape)
    grid = grid_1d(shape[0], 0.0, 1.0) if ndim == 1 else grid_2d(*shape)
    nodes = np.empty(shape + (2, basis.n_nodes, 2 + ndim))
    nodes[...] = state
    if name == "one_axis_only":
        nodes[2, ..., 2] = -0.0
    held = nodes[band].shape
    nodes[band] = random_admissible(rng, np.prod(held[:-1]), ndim).reshape(held)
    return nodes, grid, basis


def _recorded_steps(monkeypatch, module):
    """The step sizes of the runs ``module.integrate`` makes, appended as they are taken."""
    dts, integrate = [], fv.integrate

    def recording_integrate(step, *args):
        def recorded(stats, dt_max):
            dts.append(step(stats, dt_max))
            return dts[-1]

        return integrate(recorded, *args)

    monkeypatch.setattr(module, "integrate", recording_integrate)
    return dts


def _oracle_steps(step, state, t_end, max_steps=None):
    """The time loop of ``integrate`` around an oracle step: (step sizes, final state)."""
    t, dts = 0.0, []
    while np.any(t < t_end) and (max_steps is None or len(dts) < max_steps):
        dt, state = step(state, t_end - t)
        dts.append(dt)
        t = t + dt
    return dts, state


def _moment_case(name):
    """The case's moments, with -0.0 momentum coefficients outside the window if it has them."""
    if name == "damped_in_y":
        grid, basis = grid_2d(10, 10), build_basis(build_partition(-1, 1, 1), 5)
        left, right = np.array([1.0, 0.0, 0.0, 2500.0]), np.array([1.0, 0.0, 0.0, 0.025])

        def half_plane(x, y, xi):
            x, y, xi = np.broadcast_arrays(x, y, xi)
            return np.where(((x < 0.5) & (y < 0.5 + 0.3 * xi))[..., None], left, right)

        return project_initial_data(half_plane, grid, basis).coeffs, grid, basis
    nodes, grid, basis = _step_case(name)
    coeffs = basis.project(nodes)
    if name == "negative_zero_outside":
        coeffs[:11, ..., 1] = coeffs[13:, ..., 1] = -0.0
    return coeffs, grid, basis


def _assert_negative_zero_kept(name, final):
    # the case's -0.0 entries outside every window are -0.0 at the end
    if name == "negative_zero_outside":
        assert np.signbit(final[0, ..., 1]).all()


# "damped_in_y" is Toro's third problem (p = 1000 against 0.01) across the
# uncertain half-plane x < 0.5, y < 0.5 + 0.3 xi: on its windowed steps the
# limiter damps blocks in the y-pieces on the sides of the x-window.
SG_STEP_CASES = (*STEP_CASES, "damped_in_y")


@pytest.mark.parametrize("name", SG_STEP_CASES)
def test_run_sg_window_step_keeps_every_bit(name, monkeypatch):
    # each windowed step's dt and moments equal those of the full-grid step
    # with the full-grid limiter, bit for bit, though after its first step
    # run_sg limits only the cells of the last update's pieces
    coeffs, grid, basis = _moment_case(name)
    dts = _recorded_steps(monkeypatch, sg)
    regions, steps, thetas = [[(slice(None),)]], [], []
    divergence, limiter = sg.moment_flux_divergence, sg.apply_limiter

    def recording_limiter(*args, **kwargs):
        result = limiter(*args, **kwargs)
        thetas.append(result[1])
        return result

    def recording_divergence(*args, **kwargs):
        result = divergence(*args, **kwargs)
        regions.append([cells for cells, total in result[1] if total.size])
        steps.append(thetas[:])
        thetas.clear()
        return result

    monkeypatch.setattr(sg, "apply_limiter", recording_limiter)
    monkeypatch.setattr(sg, "moment_flux_divergence", recording_divergence)
    got = sg.run_sg(MomentField(grid, basis, coeffs), GAS, 1.0, max_steps=6).field.coeffs
    nodes = np.empty(coeffs.shape[:-2] + (basis.n_nodes, coeffs.shape[-1]))

    def step(coeffs, dt_max):
        limited, _ = apply_limiter(coeffs, basis, GAS, nodes=nodes)
        return oracles.full_grid_step(limited, nodes, grid, basis, GAS, 0.9, dt_max)

    expected_dts, expected = _oracle_steps(step, coeffs, 1.0, 6)
    assert_same_bits(np.array(dts), np.array(expected_dts))
    assert_same_bits(got, expected)
    _assert_negative_zero_kept(name, got)
    # one limiter call per piece of the last update; blocks damped in a y-piece
    assert [len(calls) for calls in steps] == [len(region) for region in regions[:-1]]
    damped_in_y = sum(
        np.count_nonzero(theta)
        for region, calls in zip(regions[1:], steps[1:])
        for cells, theta in zip(region, calls)
        if len(cells) == 2
    )
    assert damped_in_y > 0 or name != "damped_in_y"


@pytest.mark.parametrize("name", STEP_CASES)
def test_run_ipm_window_step_keeps_every_bit(name, monkeypatch):
    nodes, grid, basis = _step_case(name)
    # one state per (cell, element), scaled per (element, node): a variation
    # in xi this mild keeps the projected duals in range
    scale = 1.0 + 0.02 * np.random.default_rng(1).standard_normal(nodes.shape[-3:-1] + (1,))
    duals = initial_duals_from_states(nodes[..., :1, :] * scale, basis, GAS)
    moments = basis.project(dual_node_states(duals, basis, GAS))
    if name == "negative_zero_outside":
        moments[:11, ..., 1] = moments[13:, ..., 1] = -0.0
    dts = _recorded_steps(monkeypatch, ipm)
    field = MomentField(grid, basis, moments)
    got = ipm.run_ipm(field, GAS, 1.0, initial_duals=duals, max_steps=3).field.coeffs

    def step(state, dt_max):
        return oracles.full_grid_ipm_step(state, grid, basis, GAS, 0.9, dt_max)[:2]

    lam, stats = solve_duals(moments, duals, basis, GAS)
    expected_dts, (expected, _, _) = _oracle_steps(step, (moments, lam, stats.node_states), 1.0, 3)
    assert_same_bits(np.array(dts), np.array(expected_dts))
    assert_same_bits(got, expected)
    _assert_negative_zero_kept(name, got)


@pytest.mark.parametrize("name", STEP_CASES)
def test_deterministic_solve_window_step_keeps_every_bit(name, monkeypatch):
    nodes, grid, _ = _step_case(name)
    rows = nodes.reshape(grid.shape + (-1, nodes.shape[-1]))
    dts = _recorded_steps(monkeypatch, fv)
    got, stats = deterministic_solve(rows, grid, GAS, 0.1)

    def step(u, dt_max):
        return oracles.full_grid_row_step(u, grid, GAS, 0.9, dt_max)

    expected_dts, expected = _oracle_steps(step, rows, 0.1)
    assert stats.steps >= 2
    assert_same_bits(np.array(dts), np.array(expected_dts))
    assert_same_bits(got, expected)
    _assert_negative_zero_kept(name, got)
    if name == "one_axis_only":
        assert np.signbit(got[2, ..., 2]).all()


@pytest.mark.parametrize("solver", ["run_sg", "deterministic_solve"])
def test_window_scan_failure_names_the_first_bad_state_of_the_grid(solver):
    # one inadmissible state in cells 0-4 of element (or row) 1, Sod's right
    # state elsewhere: the window starts at cell 3, and the first bad state
    # in row-major order, (0, 1), lies outside it; the full-grid scan names
    # it, as cfl_time_step does
    grid = grid_1d(12, 0.0, 1.0)
    states = np.tile(SOD_R, (12, 2, 1))
    states[:5, 1] = (1.0, 2.0, 1.0)
    if solver == "run_sg":
        basis = build_basis(build_partition(-1, 1, 2), 2)
        coeffs = np.zeros((12, 2, basis.n_coeffs, 3))
        coeffs[..., 0, :] = states
        field = MomentField(grid, basis, coeffs)
        index = (0, 1, 0)
        run = lambda: sg.run_sg(field, GAS, 0.1, limiter_config=LimiterConfig(enabled=False))
    else:
        index = (0, 1)
        run = lambda: deterministic_solve(states, grid, GAS, 0.1)
    message = rf"^step 0: inadmissible state in wave-speed scan at index {re.escape(str(index))}$"
    with pytest.raises(InadmissibleStateError, match=message) as info:
        run()
    assert info.value.index == index
