"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expensive solver runs are shared through module-scoped fixtures. Tolerances
and run budgets are asserted as stated; the recorded lines land in the
pytest terminal summary.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import record_criterion
from oracles import physical_flux
from uqfv.basis import build_basis, build_partition, build_quadrature
from uqfv.euler import GasModel, admissible_mask
from uqfv.fv import deterministic_solve, grid_1d, grid_2d
from uqfv.ipm import NewtonConfig, initial_duals_from_states, run_ipm
from uqfv.problems import initial_node_states, project_initial_data
from uqfv.riemann import sod_reference_on_grid, solve_riemann
from uqfv.sg import FilterConfig, run_sg
from uqfv.stats import field_statistics, relative_errors, variance
from uqfv.fv import MomentField

GAS = GasModel(1.4)
SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])
T_END = 0.14


def sod_initial(x, xi):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    return np.where((x < 0.5 + 0.05 * xi)[..., None], SOD_L, SOD_R)


def sod_run_sg(nx, n_elements, degree, filter_config=None, t_end=T_END):
    basis = build_basis(build_partition(-1.0, 1.0, n_elements), degree)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    start = time.perf_counter()
    result = run_sg(field, GAS, t_end, cfl=0.9, filter_config=filter_config)
    return result, time.perf_counter() - start


def sod_run_ipm(nx, n_elements, degree, newton=None, t_end=T_END, max_steps=None):
    basis = build_basis(build_partition(-1.0, 1.0, n_elements), degree)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    duals0 = initial_duals_from_states(
        initial_node_states(sod_initial, grid, basis), basis, GAS
    )
    start = time.perf_counter()
    result = run_ipm(
        field, GAS, t_end, cfl=0.9, newton=newton, initial_duals=duals0, max_steps=max_steps
    )
    return result, time.perf_counter() - start


def exact_reference(nx):
    grid = grid_1d(nx, 0.0, 1.0)
    return sod_reference_on_grid(SOD_L, SOD_R, GAS, grid, T_END)


@pytest.fixture(scope="module")
def me_hsg_400():
    return sod_run_sg(400, 3, 4)


@pytest.fixture(scope="module")
def hsg14_400():
    return sod_run_sg(400, 1, 14)


@pytest.fixture(scope="module")
def ipm_warm_up():
    # the warm-up of tools/criterion7.py: a short run of each criterion-7
    # shape, so that neither timed run pays the process's first calls
    for n_elements, degree in ((3, 4), (1, 14)):
        sod_run_ipm(20, n_elements, degree, max_steps=3)


@pytest.fixture(scope="module")
def me_ipm_400(ipm_warm_up):
    return sod_run_ipm(400, 3, 4)


@pytest.fixture(scope="module")
def ipm14_400(ipm_warm_up):
    return sod_run_ipm(400, 1, 14)


@pytest.fixture(scope="module")
def reference_400():
    return exact_reference(400)


def test_criterion_1_basis_correctness():
    start = time.perf_counter()
    worst = 0.0
    for n_elements in (1, 3):
        basis = build_basis(build_partition(-1.0, 1.0, n_elements), 14)
        gram = np.einsum("kq,jq,q->kj", basis.phi, basis.phi, basis.rule.weights)
        worst = max(worst, float(np.abs(gram - np.eye(15)).max()))
    counts_ok = (
        len(build_quadrature("clenshaw-curtis", 4)) == 17
        and len(build_quadrature("clenshaw-curtis", 2)) == 5
    )
    wall = time.perf_counter() - start
    ok = worst < 1e-12 and counts_ok and wall < 1.0
    record_criterion(
        f"criterion 1 {'PASS' if ok else 'FAIL'}: orthonormality residual "
        f"{worst:.2e} (< 1e-12), CC level 4 -> 17 and level 2 -> 5 points, "
        f"{wall:.2f}s (< 1 s)"
    )
    assert worst < 1e-12
    assert counts_ok
    assert wall < 1.0


def test_criterion_2_deterministic_degeneracy():
    start = time.perf_counter()
    nx = 200

    def sod_center(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        return np.where((x < 0.5)[..., None], SOD_L, SOD_R)

    basis = build_basis(build_partition(-1.0, 1.0, 1), 0)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(sod_center, grid, basis)
    sg = run_sg(field, GAS, T_END).field.coeffs[:, 0, 0, :]
    ipm = run_ipm(
        field, GAS, T_END, newton=NewtonConfig(tol=1e-14)
    ).field.coeffs[:, 0, 0, :]
    x = grid.cell_centers(0)
    plain = deterministic_solve(
        np.where(x[:, None, None] < 0.5, SOD_L, SOD_R), grid, GAS, T_END, cfl=0.9
    )[0][:, 0]
    d_sg = float(np.abs(sg - plain).max())
    d_ipm = float(np.abs(ipm - plain).max())
    d_cross = float(np.abs(sg - ipm).max())
    wall = time.perf_counter() - start
    ok = max(d_sg, d_ipm, d_cross) < 1e-12 and wall < 10.0
    record_criterion(
        f"criterion 2 {'PASS' if ok else 'FAIL'}: degenerate K=0, N=1 max "
        f"deviations hSG|IPM|cross = {d_sg:.1e}|{d_ipm:.1e}|{d_cross:.1e} "
        f"(< 1e-12), {wall:.1f}s (< 10 s)"
    )
    assert d_sg < 1e-12 and d_ipm < 1e-12 and d_cross < 1e-12
    assert wall < 10.0


@pytest.mark.parametrize("bc_y", ["transmissive", "periodic"])
def test_criterion_2_deterministic_degeneracy_2d(bc_y):
    # a 2x2 checkerboard of the Sod states: both axes carry flux differences,
    # which degree 0 must sum on one state as the node solve does
    start = time.perf_counter()
    left = np.array([1.0, 0.0, 0.0, 2.5])
    right = np.array([0.125, 0.0, 0.0, 0.25])

    def checkerboard(x, y, xi):
        x, y, xi = np.broadcast_arrays(*(np.asarray(c, float) for c in (x, y, xi)))
        return np.where(((x < 0.5) ^ (y < 0.5))[..., None], left, right)

    basis = build_basis(build_partition(-1.0, 1.0, 1), 0)
    grid = grid_2d(24, 24, bc_y=bc_y)
    field = project_initial_data(checkerboard, grid, basis)
    sg = run_sg(field, GAS, 0.1).field.coeffs[:, :, 0, 0, :]
    ipm = run_ipm(field, GAS, 0.1, newton=NewtonConfig(tol=1e-14)).field.coeffs[:, :, 0, 0, :]
    x, y = np.meshgrid(grid.cell_centers(0), grid.cell_centers(1), indexing="ij")
    x, y = x[..., None], y[..., None]
    plain = deterministic_solve(checkerboard(x, y, [0.0]), grid, GAS, 0.1, cfl=0.9)[0][:, :, 0]
    d_sg = float(np.abs(sg - plain).max())
    d_ipm = float(np.abs(ipm - plain).max())
    wall = time.perf_counter() - start
    ok = max(d_sg, d_ipm) < 1e-12 and wall < 10.0
    record_criterion(
        f"criterion 2 (2D, {bc_y} y) {'PASS' if ok else 'FAIL'}: degenerate K=0, N=1 "
        f"max deviations hSG|IPM = {d_sg:.1e}|{d_ipm:.1e} (< 1e-12), {wall:.1f}s (< 10 s)"
    )
    assert d_sg < 1e-12 and d_ipm < 1e-12
    assert wall < 10.0


def test_criterion_3_me_equivalence():
    start = time.perf_counter()
    nx, degree = 200, 4
    result, _ = sod_run_sg(nx, 1, degree)
    basis_nodes = 2 * (degree + 1)
    oracle = oracles.classical_hsg_run(
        sod_initial, nx, 1.0 / nx, T_END, GAS.gamma, degree, basis_nodes
    )
    diff = float(np.abs(result.field.coeffs[:, 0] - oracle).max())
    wall = time.perf_counter() - start
    ok = diff < 1e-13 and wall < 30.0
    record_criterion(
        f"criterion 3 {'PASS' if ok else 'FAIL'}: single-element run vs "
        f"classical global-basis oracle, max coefficient diff {diff:.1e} "
        f"(< 1e-13), {wall:.1f}s (< 30 s)"
    )
    assert diff < 1e-13
    assert wall < 30.0


def test_criterion_4_hyperbolicity_preservation(hsg14_400, me_hsg_400):
    # the run loop asserts admissible cell means every step and apply_limiter
    # verifies every post-limiter quadrature-node state; completing the run
    # is the assertion
    (res14, wall14), (res34, wall34) = hsg14_400, me_hsg_400
    ok_states = True
    for res in (res14, res34):
        nodes = res.field.node_states()
        ok_states &= bool(np.all(admissible_mask(nodes, GAS)))
        ok_states &= bool(np.all(admissible_mask(res.field.coeffs[..., 0, :], GAS)))
    wall = wall14 + wall34
    ok = ok_states and wall < 300.0
    record_criterion(
        f"criterion 4 {'PASS' if ok else 'FAIL'}: K=14/N=1 ({res14.stats.steps} "
        f"steps) and K=4/N=3 ({res34.stats.steps} steps) completed with "
        f"per-step admissibility asserts on, {wall:.1f}s (< 300 s)"
    )
    assert ok_states
    assert wall < 300.0


def test_criterion_5_accuracy_and_refinement(me_hsg_400, reference_400):
    start = time.perf_counter()
    errors = {}
    for nx in (200, 800):
        result, _ = sod_run_sg(nx, 3, 4)
        err_e, _ = relative_errors(
            field_statistics(result.field), exact_reference(nx)
        )
        errors[nx] = float(err_e[0])
    err_e, _ = relative_errors(field_statistics(me_hsg_400[0].field), reference_400)
    errors[400] = float(err_e[0])
    wall = time.perf_counter() - start
    monotone = errors[200] >= errors[400] >= errors[800]
    ok = errors[400] <= 0.05 and monotone and wall < 600.0
    record_criterion(
        f"criterion 5 {'PASS' if ok else 'FAIL'}: errE[rho] vs exact oracle "
        f"200/400/800 cells = {errors[200]:.4f}/{errors[400]:.4f}/"
        f"{errors[800]:.4f} (400-cell <= 0.05, non-increasing), "
        f"{wall:.0f}s (< 600 s)"
    )
    assert errors[400] <= 0.05
    assert monotone
    assert wall < 600.0


def test_criterion_6_ipm_consistency(me_ipm_400, me_hsg_400):
    (ipm_res, ipm_wall), (sg_res, sg_wall) = me_ipm_400, me_hsg_400
    max_res = ipm_res.stats.newton_max_residual
    err_e, err_v = relative_errors(
        field_statistics(ipm_res.field), field_statistics(sg_res.field)
    )
    wall = ipm_wall + sg_wall
    ok = max_res <= 1e-7 and err_e[0] <= 0.10 and err_v[0] <= 0.10 and wall < 600.0
    record_criterion(
        f"criterion 6 {'PASS' if ok else 'FAIL'}: dual residual max "
        f"{max_res:.1e} (<= 1e-7); ME-IPM vs ME-hSG relative L2 E[rho] "
        f"{err_e[0]:.4f}, Var[rho] {err_v[0]:.4f} (<= 0.10), {wall:.0f}s (< 600 s)"
    )
    assert max_res <= 1e-7
    assert err_e[0] <= 0.10 and err_v[0] <= 0.10
    assert wall < 600.0


def test_criterion_7_me_ipm_speedup(me_ipm_400, ipm14_400):
    (me_res, me_wall), (cl_res, cl_wall) = me_ipm_400, ipm14_400
    ratio = me_wall / cl_wall
    wall = me_wall + cl_wall
    ok = ratio <= 0.5 and wall < 900.0
    record_criterion(
        f"criterion 7 {'PASS' if ok else 'FAIL'}: matched unknowns "
        f"(3x5 vs 1x15 moments), ME-IPM {me_wall:.1f}s vs IPM {cl_wall:.1f}s, "
        f"ratio {ratio:.3f} (<= 0.5), total {wall:.0f}s (< 900 s)"
    )
    assert ratio <= 0.5
    assert wall < 900.0


def test_criterion_8_filter_effect(me_hsg_400, reference_400):
    start = time.perf_counter()
    # fixed-exponent mode: the lambda=2, alpha=10 parameter study
    fc = FilterConfig("exponential", strength=2.0, order=10, dt_scaled=False)
    filtered, _ = sod_run_sg(400, 3, 4, filter_config=fc)
    base = me_hsg_400[0]
    grid = base.field.grid
    x = grid.cell_centers(0)
    window = (x >= 0.8) & (x <= 0.95)

    def windowed_tv(field):
        var = field_statistics(field).variance[window, 0]
        return float(np.sum(np.abs(np.diff(var))))

    tv_base = windowed_tv(base.field)
    tv_filtered = windowed_tv(filtered.field)
    reduction = 1.0 - tv_filtered / tv_base
    err_base, _ = relative_errors(field_statistics(base.field), reference_400)
    err_filt, _ = relative_errors(field_statistics(filtered.field), reference_400)
    factor = float(err_filt[0] / err_base[0])
    wall = time.perf_counter() - start
    ok = reduction >= 0.20 and factor <= 1.5 and wall < 600.0
    record_criterion(
        f"criterion 8 {'PASS' if ok else 'FAIL'}: exponential filter "
        f"(strength 2, order 10) cuts Var[rho] TV on [0.8,0.95] by "
        f"{reduction:.1%} (>= 20%), errE factor {factor:.2f} (<= 1.5), "
        f"{wall:.0f}s (< 600 s)"
    )
    assert reduction >= 0.20
    assert factor <= 1.5
    assert wall < 600.0


def test_criterion_9_oracle_validity():
    start = time.perf_counter()
    sol = solve_riemann(SOD_L, SOD_R, GAS)

    # independent bisection oracle on the two-wave pressure equation
    gamma = GAS.gamma
    a_l = np.sqrt(gamma * 1.0 / 1.0)
    a_r = np.sqrt(gamma * 0.1 / 0.125)

    def branch(p, p_k, rho_k, a_k):
        if p > p_k:
            return (p - p_k) * np.sqrt(
                (2.0 / ((gamma + 1.0) * rho_k))
                / (p + (gamma - 1.0) / (gamma + 1.0) * p_k)
            )
        return 2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2 * gamma)) - 1.0)

    lo, hi = 1e-10, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if branch(mid, 1.0, 1.0, a_l) + branch(mid, 0.1, 0.125, a_r) > 0.0:
            hi = mid
        else:
            lo = mid
    p_bis = 0.5 * (lo + hi)
    v_bis = 0.5 * (branch(p_bis, 0.1, 0.125, a_r) - branch(p_bis, 1.0, 1.0, a_l))
    d_p = abs(sol.p_star - p_bis)
    d_v = abs(sol.v_star - v_bis)

    behind = np.array(
        [
            sol.rho_star_right,
            sol.rho_star_right * sol.v_star,
            sol.p_star / (gamma - 1.0) + 0.5 * sol.rho_star_right * sol.v_star**2,
        ]
    )
    rh = float(
        np.abs(
            (physical_flux(SOD_R, GAS) - physical_flux(behind, GAS))
            - sol.right_head * (SOD_R - behind)
        ).max()
    )
    wall = time.perf_counter() - start
    ok = d_p < 1e-4 and d_v < 1e-4 and rh < 1e-10 and wall < 1.0
    record_criterion(
        f"criterion 9 {'PASS' if ok else 'FAIL'}: p*={sol.p_star:.5f}, "
        f"v*={sol.v_star:.5f} vs bisection oracle (diff {d_p:.1e}/{d_v:.1e} "
        f"< 1e-4), Rankine-Hugoniot residual {rh:.1e} (< 1e-10), "
        f"{wall:.2f}s (< 1 s)"
    )
    assert d_p < 1e-4 and d_v < 1e-4
    assert abs(sol.p_star - 0.30313) < 1e-4 and abs(sol.v_star - 0.92745) < 1e-4
    assert rh < 1e-10
    assert wall < 1.0


def test_criterion_10_conservation():
    start = time.perf_counter()

    def smooth(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        rho = 1.0 + 0.2 * np.sin(2.0 * np.pi * x) * (1.0 + 0.5 * xi)
        u = np.empty(x.shape + (3,))
        u[..., 0] = rho
        u[..., 1] = 0.3 * rho
        u[..., 2] = 2.5 + 0.5 * rho * 0.09
        return u

    basis = build_basis(build_partition(-1.0, 1.0, 2), 3)
    grid = grid_1d(50, 0.0, 1.0, bc="periodic")
    field = project_initial_data(smooth, grid, basis)

    def mass(coeffs):
        return grid.cell_volume * np.einsum(
            "xl,l->", coeffs[:, :, 0, 0], basis.element_weights
        )

    m0 = mass(field.coeffs)
    sg = run_sg(field, GAS, t_end=np.inf, max_steps=500)
    ipm = run_ipm(field, GAS, t_end=np.inf, max_steps=500)
    drift_sg = abs(mass(sg.field.coeffs) - m0)
    drift_ipm = abs(mass(ipm.field.coeffs) - m0)
    wall = time.perf_counter() - start
    ok = drift_sg < 1e-11 and drift_ipm < 1e-11 and wall < 60.0
    record_criterion(
        f"criterion 10 {'PASS' if ok else 'FAIL'}: 500-step periodic mass "
        f"drift hSG {drift_sg:.1e}, IPM {drift_ipm:.1e} (< 1e-11), "
        f"{wall:.0f}s (< 60 s)"
    )
    assert drift_sg < 1e-11 and drift_ipm < 1e-11
    assert wall < 60.0


def test_criterion_11_statistics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    basis = build_basis(build_partition(-1.0, 1.0, 3), 4)
    grid = grid_1d(1, 0.0, 1.0)
    n = 100_000
    xi = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    idx = oracles.element_of(basis.partition, xi)
    mids = basis.partition.midpoints
    halves = 0.5 * basis.partition.widths
    phi_t = oracles.legendre_orthonormal(4, (xi - mids[idx]) / halves[idx])
    worst = 0.0
    for _ in range(50):
        coeffs = np.zeros((1, 3, 5, 3))
        coeffs[0, :, :, 0] = rng.standard_normal((3, 5))
        coeffs[0, :, 0, 0] += 3.0
        field = MomentField(grid, basis, coeffs)
        samples = np.einsum("kn,nk->n", phi_t, coeffs[0, idx, :, 0])
        brute = samples.var()
        rel = abs(variance(field)[0, 0] - brute) / brute
        worst = max(worst, float(rel))
    wall = time.perf_counter() - start
    ok = worst < 1e-3 and wall < 30.0
    record_criterion(
        f"criterion 11 {'PASS' if ok else 'FAIL'}: moment variance vs 1e5 "
        f"brute-force samples, worst relative diff {worst:.1e} (< 1e-3), "
        f"{wall:.0f}s (< 30 s)"
    )
    assert worst < 1e-3
    assert wall < 30.0
