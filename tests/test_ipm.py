import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import uqfv.ipm as ipm_mod
from uqfv.basis import build_basis, build_partition
from uqfv.euler import GasModel, entropy_gradient
from uqfv.fv import MomentField, deterministic_solve, grid_1d, moment_flux_divergence
from uqfv.ipm import (
    DualSolveError,
    NewtonConfig,
    dual_node_states,
    initial_duals_from_states,
    run_ipm,
    solve_duals,
)
from uqfv.problems import initial_node_states, project_initial_data
from uqfv.sg import run_sg

GAS = GasModel(1.4)
SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])


def sod_initial(x, xi, x0=0.5, sigma=0.05):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    return np.where((x < x0 + sigma * xi)[..., None], SOD_L, SOD_R)


def smooth_initial(x, xi):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * x) * (1.0 + 0.5 * xi)
    u = np.empty(x.shape + (3,))
    u[..., 0] = rho
    u[..., 1] = 0.0
    u[..., 2] = 2.5
    return u


def constant_duals(basis, state):
    duals = np.zeros((basis.n_coeffs, 3))
    duals[0] = entropy_gradient(state, GAS)
    return duals


def test_dual_residual_zero_for_constant_ansatz():
    basis = build_basis(build_partition(-1, 1, 1), 3)
    duals = constant_duals(basis, SOD_L)
    moments = np.zeros((4, 3))
    moments[0] = SOD_L
    res = oracles.dual_residual(duals, moments, basis, GAS)
    np.testing.assert_allclose(res, 0.0, atol=1e-14)


def test_dual_residual_perturbed_first_mode():
    basis = build_basis(build_partition(-1, 1, 1), 3)
    duals = constant_duals(basis, SOD_L)
    duals[1] += 0.05
    moments = np.zeros((4, 3))
    moments[0] = SOD_L
    res = oracles.dual_residual(duals, moments, basis, GAS)
    assert np.max(np.abs(res[0])) > 1e-4
    assert np.max(np.abs(res[1])) > 1e-4


def test_dual_hessian_symmetric_and_matches_finite_differences():
    basis = build_basis(build_partition(-1, 1, 1), 2)
    duals = constant_duals(basis, np.array([1.2, 0.4, 3.0]))
    duals[1] += 0.02
    duals[2] -= 0.01
    hess = oracles.dual_hessian(duals, basis, GAS)
    np.testing.assert_allclose(hess, hess.T, atol=1e-12)
    moments = np.zeros_like(duals)
    n = duals.size
    fd = np.zeros((n, n))
    flat = duals.ravel()
    for j in range(n):
        step = 1e-6 * max(abs(flat[j]), 1.0)
        lp, lm = flat.copy(), flat.copy()
        lp[j] += step
        lm[j] -= step
        rp = oracles.dual_residual(lp.reshape(duals.shape), moments, basis, GAS)
        rm = oracles.dual_residual(lm.reshape(duals.shape), moments, basis, GAS)
        # residual = moments - projection, so its Jacobian is -H
        fd[:, j] = -(rp - rm).ravel() / (2.0 * step)
    np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-6)


def test_solve_duals_constant_ansatz_closed_form():
    basis = build_basis(build_partition(-1, 1, 1), 0)
    moments = SOD_L.reshape(1, 1, 1, 3)
    warm = np.zeros_like(moments)
    warm[..., 0, :] = entropy_gradient(SOD_L, GAS) + 1e-3
    duals, stats = solve_duals(moments, warm, basis, GAS, NewtonConfig(tol=1e-7))
    assert stats.max_iterations_single <= 2
    np.testing.assert_allclose(duals[0, 0, 0], entropy_gradient(SOD_L, GAS), atol=1e-6)


def test_solve_duals_warm_start_at_solution_is_free():
    basis = build_basis(build_partition(-1, 1, 2), 2)
    moments = np.zeros((3, 2, 3, 3))
    moments[..., 0, :] = SOD_L
    warm = np.zeros_like(moments)
    warm[..., 0, :] = entropy_gradient(SOD_L, GAS)
    duals, stats = solve_duals(moments, warm, basis, GAS)
    assert stats.iterations == 0
    np.testing.assert_array_equal(duals, warm)


def test_solve_duals_smooth_self_consistency():
    # moments projected from a smooth admissible profile are reproduced
    basis = build_basis(build_partition(-1, 1, 2), 3)
    xi = basis.nodes
    states = np.empty(xi.shape + (3,))
    states[..., 0] = 1.0 + 0.1 * xi
    states[..., 1] = 0.0
    states[..., 2] = 2.5
    moments = np.einsum("lqd,kq,q->lkd", states, basis.phi, basis.rule.weights)[None]
    warm = initial_duals_from_states(states[None], basis, GAS)
    cfg = NewtonConfig(tol=1e-9)
    duals, stats = solve_duals(moments, warm, basis, GAS, cfg)
    assert stats.max_residual <= 1e-9
    for l in range(2):
        res = oracles.dual_residual(duals[0, l], moments[0, l], basis, GAS)
        assert np.max(np.abs(res)) <= 1e-9


def test_solve_duals_newton_hessian_cholesky_at_convergence():
    basis = build_basis(build_partition(-1, 1, 1), 3)
    xi = basis.nodes
    states = np.empty(xi.shape + (3,))
    states[..., 0] = 1.0 + 0.3 * xi
    states[..., 1] = 0.2
    states[..., 2] = 2.5 + 0.2 * xi
    moments = np.einsum("lqd,kq,q->lkd", states, basis.phi, basis.rule.weights)[None]
    warm = initial_duals_from_states(states[None], basis, GAS)
    duals, _ = solve_duals(moments, warm, basis, GAS)
    hess = oracles.dual_hessian(duals[0, 0], basis, GAS)
    np.linalg.cholesky(hess)  # raises if not SPD


def test_solve_duals_decoupling_permutation_invariant():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(12, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    warm = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    duals, _ = solve_duals(field.coeffs, warm, basis, GAS)
    perm = np.random.default_rng(0).permutation(12)
    duals_perm, _ = solve_duals(field.coeffs[perm], warm[perm], basis, GAS)
    np.testing.assert_array_equal(duals_perm, duals[perm])


def test_solve_duals_thread_count_invariant(monkeypatch):
    # 32 problems in equal chunks; duals and per-problem stats are the same
    # for any chunk size and thread count
    import uqfv.ipm as ipm_mod

    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(16, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    warm = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    batches = []
    solve_batch = ipm_mod._solve_batch

    def recording(lam, *args):
        batches.append((args[-1], lam.shape[0]))  # (offset, size)
        return solve_batch(lam, *args)

    monkeypatch.setattr(ipm_mod, "_solve_batch", recording)
    monkeypatch.setattr(ipm_mod, "_CHUNK", 32)
    ref, ref_stats = solve_duals(field.coeffs, warm, basis, GAS)
    assert batches == [(0, 32)]
    monkeypatch.setattr(ipm_mod, "_CHUNK", 10)
    for threads in (1, 2, 4):
        batches.clear()
        duals, stats = solve_duals(field.coeffs, warm, basis, GAS, threads=threads)
        assert sorted(batches) == [(0, 8), (8, 8), (16, 8), (24, 8)]
        np.testing.assert_array_equal(duals, ref)
        np.testing.assert_array_equal(
            stats.per_problem_iterations, ref_stats.per_problem_iterations
        )
        np.testing.assert_array_equal(
            stats.per_problem_residuals, ref_stats.per_problem_residuals
        )


def test_solve_duals_workers_default_to_chunks_and_cpus(monkeypatch):
    # 32 problems in 4 chunks; the pool gets min(chunks, CPUs) workers, or
    # min(chunks, threads) when threads is given, and none for one worker
    import uqfv.ipm as ipm_mod

    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(16, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    warm = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(ipm_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(ipm_mod, "_CHUNK", 10)
    cases = [(1, None, []), (3, None, [3]), (8, None, [4]), (8, 2, [2]), (1, 8, [4])]
    for cpus, threads, expected in cases:
        monkeypatch.setattr(ipm_mod, "_usable_cpus", lambda cpus=cpus: cpus)
        pools.clear()
        solve_duals(field.coeffs, warm, basis, GAS, threads=threads)
        assert pools == expected, (cpus, threads)


def test_usable_cpus_follows_affinity_else_cpu_count(monkeypatch):
    import os

    import uqfv.ipm as ipm_mod

    if hasattr(os, "sched_getaffinity"):
        assert ipm_mod._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ipm_mod._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ipm_mod._usable_cpus() == 1


def test_solve_duals_empty_batch():
    basis = build_basis(build_partition(-1, 1, 3), 2)
    moments = np.zeros((0, 3, 3, 3))
    duals, stats = solve_duals(moments, moments, basis, GAS, threads=2)
    assert duals.shape == moments.shape
    assert (stats.iterations, stats.max_residual, stats.max_iterations_single) == (0, 0.0, 0)
    assert stats.per_problem_iterations.shape == (0, 3)
    assert stats.per_problem_residuals.shape == (0, 3)


def test_solve_duals_unrealizable_mean_raises(monkeypatch):
    # 12 problems, whose chunks of 4 do not matter: the start of every
    # problem is checked before the chunks are solved, and the first bad
    # mean, problem 7, is named by its (cell, element) index
    import uqfv.ipm as ipm_mod

    monkeypatch.setattr(ipm_mod, "_CHUNK", 5)
    basis = build_basis(build_partition(-1, 1, 3), 1)
    moments = np.zeros((4, 3, 2, 3))
    moments[..., 0, :] = SOD_L
    moments[2, 1, 0] = [-1.0, 0.0, 2.5]
    moments[3, 0, 0] = [-1.0, 0.0, 2.5]
    warm = np.full_like(moments, np.nan)
    message = r"^unrealizable moments: inadmissible cell mean at \(cells\.\.\., element\) \(2, 1\)$"
    with pytest.raises(DualSolveError, match=message) as info:
        solve_duals(moments, warm, basis, GAS, threads=1)
    assert info.value.index == (2, 1)


def sod_block_with_warm_l_rho(l_rho):
    """Sod moments on 2 cells, 1 element, degree 2; cell 1's warm start has l_rho."""
    basis = build_basis(build_partition(-1, 1, 1), 2)
    moments = np.zeros((2, 1, 3, 3))
    moments[..., 0, :] = SOD_L
    warm = np.zeros_like(moments)
    warm[..., 0, :] = entropy_gradient(SOD_L, GAS)
    warm[1, 0, 0, 0] = l_rho
    return basis, moments, warm


def test_solve_duals_overflowing_warm_start_is_unconverged():
    # l_rho = 1e3 lies in the dual range, but rho = exp(2500) overflows: the
    # residual is not finite, reads inf, and the Newton step cannot be formed
    basis, moments, warm = sod_block_with_warm_l_rho(1e3)
    message = r"^non-finite Newton direction at \(cells\.\.\., element\) \(1, 0\)$"
    with pytest.raises(DualSolveError, match=message) as info:
        solve_duals(moments, warm, basis, GAS)
    assert info.value.index == (1, 0)


def test_solve_duals_singular_newton_matrix_is_located():
    # l_rho = -1e4 underflows the density to 0, so cell 1's Hessian is zero
    basis, moments, warm = sod_block_with_warm_l_rho(-1e4)
    message = r"^singular Newton matrix at \(cells\.\.\., element\) \(1, 0\)$"
    with pytest.raises(DualSolveError, match=message) as info:
        solve_duals(moments, warm, basis, GAS)
    assert info.value.index == (1, 0)
    field = MomentField(grid_1d(2, 0.0, 1.0), basis, moments)
    message = r"^step 0: singular Newton matrix .*\(1, 0\)$"
    with pytest.raises(DualSolveError, match=message) as info:
        run_ipm(field, GAS, 0.01, initial_duals=warm)
    assert info.value.index == (1, 0)


def test_solve_duals_reraises_a_solve_failure_on_nonsingular_matrices(monkeypatch):
    # a LAPACK failure that slogdet does not confirm as a singular matrix is
    # not a located DualSolveError: the solve's own error goes up unchanged
    basis, moments, warm = sod_block_with_warm_l_rho(entropy_gradient(SOD_L, GAS)[0] + 0.1)
    failure = np.linalg.LinAlgError("injected solve failure")
    signs = []
    slogdet = np.linalg.slogdet

    def failing_solve(*args):
        raise failure

    def recorded_slogdet(a):
        result = slogdet(a)
        signs.append(result[0])
        return result

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    monkeypatch.setattr(np.linalg, "slogdet", recorded_slogdet)
    with pytest.raises(np.linalg.LinAlgError) as info:
        solve_duals(moments, warm, basis, GAS, threads=1)
    assert info.value is failure
    # one active problem, cell 1, whose Newton matrix is positive definite
    assert [sign.tolist() for sign in signs] == [[1.0]]


def realizable_block(unit, basis, ndim):
    """Moments of smooth admissible node states, one profile per problem.

    ``unit`` holds 7 numbers in [0, 1] per problem (cells..., element): density
    and pressure levels, a tanh front's height, steepness and position on
    [-1, 1], and two velocity levels.
    """
    u = np.moveaxis(unit, -1, 0)[..., None]
    xi = basis.nodes
    front = 0.9 * (2.0 * u[2] - 1.0) * np.tanh((1.0 + 19.0 * u[3]) * (xi - (2.0 * u[4] - 1.0)))
    rho = (0.05 + 4.0 * u[0]) * (1.0 + front)
    p = (0.05 + 4.0 * u[1]) * (1.0 - 0.5 * front)
    v = 3.0 * (2.0 * u[5:5 + ndim] - 1.0) * (1.0 + 0.3 * np.sin(3.0 * xi))
    states = np.stack([rho, *(rho * v), p / (GAS.gamma - 1.0) + 0.5 * rho * np.sum(v * v, 0)], -1)
    return basis.project(states), states


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    n_elements=st.integers(1, 3),
    degree=st.integers(0, 4),
    warm_from_states=st.booleans(),
    data=st.data(),
)
def test_solve_duals_property_converges_or_fails_located(
    ndim, n_elements, degree, warm_from_states, data
):
    # every realizable block reaches tol or raises a DualSolveError naming a
    # (cells..., element) block inside it; duals and per-problem stats do not
    # depend on the thread count
    basis = build_basis(build_partition(-1, 1, n_elements), degree)
    cells = (3,) if ndim == 1 else (2, 2)
    unit = data.draw(
        hnp.arrays(float, cells + (n_elements, 7), elements=st.floats(0.0, 1.0))
    )
    moments, states = realizable_block(unit, basis, ndim)
    if warm_from_states:
        warm = initial_duals_from_states(states, basis, GAS)
    else:
        warm = np.zeros_like(moments)
    cfg = NewtonConfig()
    outcomes = []
    with mock.patch.object(ipm_mod, "_CHUNK", 2):
        for threads in (1, 2):
            try:
                outcomes.append(solve_duals(moments, warm, basis, GAS, cfg, threads))
            except DualSolveError as exc:
                outcomes.append((str(exc), exc.index))
    one, two = outcomes
    if isinstance(one[0], str):
        assert two == one
        where = re.search(r"\(cells\.\.\., element\) \(([\d, ]+)\)", one[0])
        assert where, one
        index = tuple(int(i) for i in where.group(1).split(","))
        assert index == one[1]
        assert len(index) == len(cells) + 1
        assert all(0 <= i < n for i, n in zip(index, cells + (n_elements,)))
        return
    (lam1, stats1), (lam2, stats2) = one, two
    assert stats1.max_residual <= cfg.tol
    assert np.all(stats1.per_problem_residuals <= cfg.tol)
    assert np.all(np.isfinite(lam1))
    np.testing.assert_array_equal(lam2, lam1)
    np.testing.assert_array_equal(stats2.per_problem_iterations, stats1.per_problem_iterations)
    np.testing.assert_array_equal(stats2.per_problem_residuals, stats1.per_problem_residuals)


def test_ipm_update_constant_field_unchanged():
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(6, 0.0, 1.0, bc="periodic")
    moments = np.zeros((6, 2, 4, 3))
    moments[..., 0, :] = SOD_L
    duals = np.zeros_like(moments)
    duals[..., 0, :] = entropy_gradient(SOD_L, GAS)
    nodes = dual_node_states(duals, basis, GAS)
    _, pieces = moment_flux_divergence(nodes, grid, basis, GAS)
    out = moments - 1e-3 * oracles.zero_filled(moments.shape, pieces)
    np.testing.assert_allclose(out, moments, atol=1e-14)


def test_run_ipm_t0_returns_projection_exactly():
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(10, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    result = run_ipm(field, GAS, t_end=0.0)
    np.testing.assert_array_equal(result.field.coeffs, field.coeffs)
    assert result.stats.steps == 0


def test_run_ipm_inadmissible_mean_fails_in_step_0():
    # without initial duals the first solve starts from zero duals and builds
    # the entropic ansatz of each cell mean; a negative density stops it there
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(10, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    field.coeffs[3, 1, 0, 0] = -1.0
    with pytest.raises(DualSolveError, match="^step 0: unrealizable moments"):
        run_ipm(field, GAS, t_end=0.01)


def test_run_ipm_degenerate_equals_deterministic():
    nx = 40
    basis = build_basis(build_partition(-1, 1, 1), 0)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(lambda x, xi: sod_initial(x, xi, sigma=0.0), grid, basis)
    result = run_ipm(field, GAS, t_end=0.04, newton=NewtonConfig(tol=1e-14))
    x = grid.cell_centers(0)
    u0 = np.where(x[:, None] < 0.5, SOD_L, SOD_R)
    ref = deterministic_solve(u0[:, None], grid, GAS, 0.04, cfl=0.9)[0][:, 0]
    np.testing.assert_allclose(result.field.coeffs[:, 0, 0, :], ref, atol=1e-12)


def test_run_ipm_sod_completes_with_consistent_duals():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(40, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    duals0 = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    result = run_ipm(field, GAS, t_end=0.05, initial_duals=duals0)
    assert result.stats.steps > 0
    assert result.stats.newton_max_residual <= 1e-7
    assert np.all(np.isfinite(result.field.coeffs))


def test_run_ipm_close_to_sg_on_smooth_data():
    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(32, 0.0, 1.0, bc="periodic")
    field = project_initial_data(smooth_initial, grid, basis)
    sg_result = run_sg(field, GAS, t_end=0.02)
    ipm_result = run_ipm(field, GAS, t_end=0.02)
    # same truncation order: agreement up to the closure difference
    diff = np.max(np.abs(sg_result.field.coeffs - ipm_result.field.coeffs))
    assert diff < 5e-4
    assert diff > 0.0


def test_run_ipm_mass_conservation_periodic():
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_1d(30, 0.0, 1.0, bc="periodic")
    field = project_initial_data(smooth_initial, grid, basis)
    result = run_ipm(field, GAS, t_end=1e9, max_steps=100)

    def total_mass(coeffs):
        return grid.cell_volume * np.einsum(
            "xl,l->", coeffs[:, :, 0, 0], basis.element_weights
        )

    drift = abs(total_mass(result.field.coeffs) - total_mass(field.coeffs))
    assert drift < 1e-11


def test_dual_node_states_names_first_node_out_of_range():
    # the energy dual -0.4 + 0.3 sqrt(3) t of block (1, 1) turns positive
    # for t > 0.77, so at the last of its 4 Gauss nodes (t = 0.86) only
    basis = build_basis(build_partition(-1, 1, 2), 1)
    duals = np.zeros((3, 2, 2, 3))
    duals[..., 0, :] = entropy_gradient(SOD_L, GAS)
    duals[1, 1, 1, -1] = 0.3
    duals[2, 0, 0, -1] = 1.0
    message = r"dual range at a quadrature node, at \(cells\.\.\., element, node\) index \(1, 1, 3\)$"
    with pytest.raises(DualSolveError, match=message) as info:
        dual_node_states(duals, basis, GAS)
    assert info.value.index == (1, 1, 3)


def test_dual_node_states_always_admissible():
    from uqfv.euler import admissible_mask

    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(20, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    warm = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    duals, _ = solve_duals(field.coeffs, warm, basis, GAS)
    states = dual_node_states(duals, basis, GAS)
    assert np.all(admissible_mask(states, GAS))


def test_run_ipm_2d_x_riemann_keeps_y_symmetry():
    from uqfv.fv import grid_2d

    def sod_2d(x, y, xi):
        x, y, xi = np.broadcast_arrays(
            np.asarray(x, float), np.asarray(y, float), np.asarray(xi, float)
        )
        left = np.array([1.0, 0.0, 0.0, 2.5])
        right = np.array([0.125, 0.0, 0.0, 0.25])
        return np.where((x < 0.5 + 0.05 * xi)[..., None], left, right)

    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_2d(16, 3, bc_x="transmissive", bc_y="periodic")
    field = project_initial_data(sod_2d, grid, basis)
    duals0 = initial_duals_from_states(
        initial_node_states(sod_2d, grid, basis), basis, GAS
    )
    result = run_ipm(field, GAS, t_end=0.02, initial_duals=duals0)
    assert result.stats.steps > 0
    coeffs = result.field.coeffs
    np.testing.assert_allclose(coeffs[..., 2], 0.0, atol=1e-12)
    for j in range(1, 3):
        np.testing.assert_allclose(coeffs[:, j], coeffs[:, 0], atol=1e-12)


def test_solve_duals_per_problem_metadata():
    basis = build_basis(build_partition(-1, 1, 2), 2)
    grid = grid_1d(8, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    warm = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    _, stats = solve_duals(field.coeffs, warm, basis, GAS)
    assert stats.per_problem_iterations.shape == (8, 2)
    assert stats.per_problem_residuals.shape == (8, 2)
    assert np.all(stats.per_problem_residuals <= NewtonConfig().tol)
    assert stats.per_problem_iterations.sum() == stats.iterations


def test_solve_duals_stress_random_realizable_moments():
    # moments of random admissible profiles (including steep tanh fronts) are
    # realizable; every solve must converge from the constant-ansatz start
    rng = np.random.default_rng(7)
    basis = build_basis(build_partition(-1, 1, 2), 4)
    xi = basis.nodes
    n = 200
    rho = rng.uniform(0.05, 4.0, (n, 1, 1)) * (
        1.0
        + rng.uniform(-0.45, 0.45, (n, 1, 1))
        * np.tanh(rng.uniform(1.0, 20.0, (n, 1, 1)) * (xi - rng.uniform(-1, 1, (n, 1, 1))))
    )
    v = rng.uniform(-3.0, 3.0, (n, 1, 1)) * (1.0 + 0.3 * np.sin(3.0 * xi))
    p = rng.uniform(0.05, 4.0, (n, 1, 1)) * (
        1.0
        + rng.uniform(-0.4, 0.4, (n, 1, 1))
        * np.tanh(rng.uniform(1.0, 20.0, (n, 1, 1)) * (xi + rng.uniform(-1, 1, (n, 1, 1))))
    )
    states = np.stack([rho, rho * v, p / 0.4 + 0.5 * rho * v * v], axis=-1)
    moments = np.einsum("plqd,kq,q->plkd", states, basis.phi, basis.rule.weights)
    warm = np.zeros_like(moments)
    warm[..., 0, :] = entropy_gradient(moments[..., 0, :], GAS)
    duals, stats = solve_duals(moments, warm, basis, GAS)
    assert stats.max_residual <= 1e-7
    assert np.all(np.isfinite(duals))


def sod_2d(x, y, xi):
    x, y, xi = np.broadcast_arrays(*(np.asarray(c, float) for c in (x, y, xi)))
    left, right = np.array([1.0, 0.0, 0.0, 2.5]), np.array([0.125, 0.0, 0.0, 0.25])
    return np.where((x < 0.5 + 0.05 * xi + 0.1 * y)[..., None], left, right)


def sod_batch(monkeypatch, ndim):
    """A Sod ME-IPM field and its initial duals: 1D 40 x 3 elements, or a 2D
    8 x 5 x 2 elements batch split into 4 chunks."""
    if ndim == 1:
        initial, grid = sod_initial, grid_1d(40, 0.0, 1.0)
        basis = build_basis(build_partition(-1, 1, 3), 4)
    else:
        from uqfv.fv import grid_2d

        initial, grid = sod_2d, grid_2d(8, 5)
        basis = build_basis(build_partition(-1, 1, 2), 2)
        monkeypatch.setattr(ipm_mod, "_CHUNK", 24)  # 80 problems in 4 chunks
    field = project_initial_data(initial, grid, basis)
    duals0 = initial_duals_from_states(initial_node_states(initial, grid, basis), basis, GAS)
    return field, duals0


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("threads", [1, 2])
def test_solve_duals_cold_start_equals_warm_states(monkeypatch, ndim, threads):
    # a solve given only in-range start duals maps them through
    # dual_node_states; it equals the solve given those states, bit for bit
    field, warm = sod_batch(monkeypatch, ndim)
    basis = field.basis
    cold = solve_duals(field.coeffs, warm, basis, GAS, threads=threads)
    given_states = dual_node_states(warm, basis, GAS)
    hot = solve_duals(field.coeffs, warm, basis, GAS, threads=threads, warm_states=given_states)
    assert cold[1].iterations > 0
    np.testing.assert_array_equal(hot[0], cold[0])
    for name in ("per_problem_iterations", "per_problem_residuals", "node_states"):
        np.testing.assert_array_equal(getattr(hot[1], name), getattr(cold[1], name))


@pytest.mark.parametrize(
    "ndim, threads", [(1, None), (2, 1), (2, 2)], ids=["sod_1d", "2d_1_thread", "2d_2_threads"]
)
def test_run_ipm_flux_sees_the_states_of_its_duals(monkeypatch, ndim, threads):
    # each solve hands its node states to the flux and to the next solve;
    # at every step they equal the states its duals map to, bit for bit, and
    # dual_node_states finds every node of every accepted iterate in range
    field, duals0 = sod_batch(monkeypatch, ndim)
    basis = field.basis
    solve, flux = ipm_mod.solve_duals, ipm_mod.moment_flux_divergence
    duals, checked = [], []

    def recording_solve(*args, **kwargs):
        lam, stats = solve(*args, **kwargs)
        duals.append(lam)
        return lam, stats

    def checking_flux(nodes, *args, **kwargs):
        assert np.array_equal(nodes, dual_node_states(duals[-1], basis, GAS))
        checked.append(len(duals))
        return flux(nodes, *args, **kwargs)

    monkeypatch.setattr(ipm_mod, "solve_duals", recording_solve)
    monkeypatch.setattr(ipm_mod, "moment_flux_divergence", checking_flux)
    result = run_ipm(field, GAS, 1.0, initial_duals=duals0, threads=threads, max_steps=10)
    assert result.stats.newton_iterations > 0
    # step n's flux takes the states of solve n: the first solve, then the
    # re-solve that ended step n - 1
    assert checked == list(range(1, result.stats.steps + 1))


@pytest.mark.parametrize("n_elements, degree", [(1, 14), (3, 4)])
def test_newton_matrix_matches_the_oracle(n_elements, degree):
    # the batched product in the (k a, j b) order of the unknowns, against the
    # oracle's einsum over the inverse of the entropy Hessian
    basis = build_basis(build_partition(-1, 1, n_elements), degree)
    grid = grid_1d(8, 0.4, 0.6)
    field = project_initial_data(sod_initial, grid, basis)
    warm = initial_duals_from_states(initial_node_states(sod_initial, grid, basis), basis, GAS)
    duals, _ = solve_duals(field.coeffs, warm, basis, GAS)
    lam = duals.reshape(-1, basis.n_coeffs, 3)
    jac = ipm_mod._dual_eval(basis.reconstruct(lam), GAS)[2]
    hess = ipm_mod._newton_matrix(basis, jac, slice(None))
    assert hess.shape == (lam.shape[0], lam[0].size, lam[0].size)
    for p in range(lam.shape[0]):
        ref = oracles.dual_hessian(lam[p], basis, GAS)
        assert np.max(np.abs(hess[p] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_run_ipm_dual_solve_error_names_step_and_block():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    field = project_initial_data(sod_initial, grid_1d(50, 0.0, 1.0), basis)
    message = (
        r"^step 0: dual solve at \(cells\.\.\., element\) \(23, 0\) did not reach "
        r"tol=1e-07 within 1 iterations \(residual 7\.223e-01\)$"
    )
    with pytest.raises(DualSolveError, match=message) as info:
        run_ipm(field, GAS, 0.14, newton=NewtonConfig(max_iter=1))
    assert info.value.index == (23, 0)
    # without halvings the first full Newton step of block (25, 1) is refused
    message = r"^step 0: line search stalled at \(cells\.\.\., element\) \(25, 1\)$"
    with pytest.raises(DualSolveError, match=message) as info:
        run_ipm(field, GAS, 0.14, newton=NewtonConfig(max_halvings=0))
    assert info.value.index == (25, 1)


def test_newton_config_rejects_bad_limits():
    with pytest.raises(ValueError, match="newton max_iter must be >= 1, got 0"):
        NewtonConfig(max_iter=0)
    with pytest.raises(ValueError, match="newton max_halvings must be >= 0, got -3"):
        NewtonConfig(max_halvings=-3)
    NewtonConfig(max_iter=1, max_halvings=0)
