import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import physical_flux, sod_reference_loop
from uqfv.euler import GasModel, InadmissibleStateError
from uqfv import riemann
from uqfv.fv import deterministic_solve, grid_1d, grid_2d
from uqfv.riemann import (
    VacuumError,
    collocation_reference,
    sod_reference_on_grid,
    sod_reference_statistics,
    solve_riemann,
)

GAS = GasModel(1.4)
SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])


def bisection_star_pressure(left, right, gamma, tol=1e-13):
    """Independent oracle: bracketed bisection on the two-wave pressure equation."""
    rho_l, v_l = left[0], left[1] / left[0]
    p_l = (gamma - 1.0) * (left[2] - 0.5 * left[1] ** 2 / left[0])
    rho_r, v_r = right[0], right[1] / right[0]
    p_r = (gamma - 1.0) * (right[2] - 0.5 * right[1] ** 2 / right[0])
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)

    def branch(p, p_k, rho_k, a_k):
        if p > p_k:
            return (p - p_k) * np.sqrt(
                (2.0 / ((gamma + 1.0) * rho_k)) / (p + (gamma - 1.0) / (gamma + 1.0) * p_k)
            )
        return (
            2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2 * gamma)) - 1.0)
        )

    def f(p):
        return branch(p, p_l, rho_l, a_l) + branch(p, p_r, rho_r, a_r) + (v_r - v_l)

    lo, hi = 1e-12, 10.0 * max(p_l, p_r)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    p_star = 0.5 * (lo + hi)
    v_star = 0.5 * (v_l + v_r) + 0.5 * (
        branch(p_star, p_r, rho_r, a_r) - branch(p_star, p_l, rho_l, a_l)
    )
    return p_star, v_star


def test_equal_states_no_waves():
    sol = solve_riemann(SOD_L, SOD_L, GAS)
    assert sol.p_star == pytest.approx(1.0, rel=1e-12)
    assert sol.v_star == pytest.approx(0.0, abs=1e-12)
    s = np.linspace(-2.0, 2.0, 11)
    np.testing.assert_allclose(sol.sample(s), np.tile(SOD_L, (11, 1)), atol=1e-12)


def test_sod_star_values_match_bisection_oracle():
    p_ref, v_ref = bisection_star_pressure(SOD_L, SOD_R, GAS.gamma)
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    assert sol.p_star == pytest.approx(p_ref, abs=1e-10)
    assert sol.v_star == pytest.approx(v_ref, abs=1e-10)
    # frozen classical values, reproduced by the oracle itself
    assert p_ref == pytest.approx(0.30313, abs=1e-4)
    assert v_ref == pytest.approx(0.92745, abs=1e-4)
    assert sol.left_wave == "rarefaction" and sol.right_wave == "shock"


def test_pressure_equation_residual_at_star():
    # residual of the two-wave pressure equation, evaluated with the test's
    # own branch functions, vanishes at the returned star pressure
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    gamma = GAS.gamma
    rho_l, v_l, p_l = sol.left
    rho_r, v_r, p_r = sol.right
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)

    def branch(p, p_k, rho_k, a_k):
        if p > p_k:
            return (p - p_k) * np.sqrt(
                (2.0 / ((gamma + 1.0) * rho_k)) / (p + (gamma - 1.0) / (gamma + 1.0) * p_k)
            )
        return 2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2 * gamma)) - 1.0)

    residual = (
        branch(sol.p_star, p_l, rho_l, a_l)
        + branch(sol.p_star, p_r, rho_r, a_r)
        + (v_r - v_l)
    )
    assert abs(residual) < 1e-12


# Toro's tests 1-5 (Riemann Solvers and Numerical Methods for Fluid Dynamics,
# 3rd ed., Table 4.1) as (rho, v, p) left and right
TORO_TESTS = [
    ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1)),
    ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4)),
    ((1.0, 0.0, 1000.0), (1.0, 0.0, 0.01)),
    ((1.0, 0.0, 0.01), (1.0, 0.0, 100.0)),
    ((5.99924, 19.5975, 460.894), (5.99242, -6.19633, 46.0950)),
]


def conserved(rho, v, p):
    return np.array([rho, rho * v, p / (GAS.gamma - 1.0) + 0.5 * rho * v * v])


def test_mirror_symmetry():
    # x -> -x swaps the sides and negates velocities; negation is exact, so
    # the mirrored problem must give the mirrored solution bit for bit
    mirror = np.array([1.0, -1.0, 1.0])
    for left, right in TORO_TESTS:
        u_l, u_r = conserved(*left), conserved(*right)
        sol = solve_riemann(u_l, u_r, GAS)
        swapped = solve_riemann(u_r * mirror, u_l * mirror, GAS)
        assert swapped.p_star == sol.p_star
        assert swapped.v_star == -sol.v_star
        assert (swapped.rho_star_left, swapped.rho_star_right) == (
            sol.rho_star_right,
            sol.rho_star_left,
        )
        assert (swapped.left_wave, swapped.right_wave) == (sol.right_wave, sol.left_wave)
        assert (swapped.left_head, swapped.left_tail) == (-sol.right_head, -sol.right_tail)
        assert (swapped.right_tail, swapped.right_head) == (-sol.left_tail, -sol.left_head)
        s = np.linspace(sol.left_head - 1.0, sol.right_head + 1.0, 2001)
        s = np.concatenate([s, sol.wave_speeds])
        # at s = v_star itself each solution takes its left star state
        s = s[s != sol.v_star]
        np.testing.assert_array_equal(swapped.sample(-s), sol.sample(s) * mirror)


def test_rankine_hugoniot_at_right_shock():
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    assert sol.right_wave == "shock"
    s = sol.right_head
    ahead = np.array(
        [SOD_R[0], SOD_R[0] * sol.right[1], SOD_R[2]]
    )
    behind = np.array(
        [
            sol.rho_star_right,
            sol.rho_star_right * sol.v_star,
            sol.p_star / (GAS.gamma - 1.0) + 0.5 * sol.rho_star_right * sol.v_star**2,
        ]
    )
    jump_flux = physical_flux(ahead, GAS) - physical_flux(behind, GAS)
    jump_state = ahead - behind
    np.testing.assert_allclose(jump_flux, s * jump_state, atol=1e-10)


def test_evaluator_limits():
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    np.testing.assert_array_equal(sol.sample(np.array([-1e12]))[0], SOD_L)
    np.testing.assert_array_equal(sol.sample(np.array([1e12]))[0], SOD_R)


def test_inadmissible_data_names_the_side():
    bad = np.array([1.0, 2.0, 1.0])  # p = 0.4 * (1 - 2) < 0
    with pytest.raises(InadmissibleStateError, match=r"right state \[1\.0, 2\.0, 1\.0\]"):
        solve_riemann(np.array([1.0, 0.0, 2.5]), bad, GAS)
    with pytest.raises(InadmissibleStateError, match=r"left state \[1\.0, 2\.0, 1\.0\]"):
        solve_riemann(bad, SOD_R, GAS)


def test_vacuum_detection():
    # strongly receding streams open a vacuum
    left = np.array([1.0, -10.0, 51.0])
    right = np.array([1.0, 10.0, 51.0])
    with pytest.raises(VacuumError):
        solve_riemann(left, right, GAS)


def traced_pressures(monkeypatch) -> list:
    """The pressures at which solve_riemann evaluates its pressure function, in order.

    Each evaluation calls the wave function twice at one p, left then right.
    """
    seen = []
    wave_function = riemann._wave_function

    def traced(p, *args):
        seen.append(p)
        return wave_function(p, *args)

    monkeypatch.setattr(riemann, "_wave_function", traced)
    return seen


def brentq_star_pressure(sol) -> float:
    """scipy's root of the pressure function, written out here from (rho, v, p).

    f rises from f(0+) < 0 (no vacuum) to +inf; the bracket starts at the
    smallest normal float and its top doubles from max(p_l, p_r) until f > 0.
    """
    gamma = GAS.gamma
    (rho_l, v_l, p_l), (rho_r, v_r, p_r) = sol.left, sol.right

    def branch(p, rho_k, p_k):
        if p > p_k:
            b = (gamma - 1.0) / (gamma + 1.0) * p_k
            return (p - p_k) * np.sqrt(2.0 / ((gamma + 1.0) * rho_k) / (p + b))
        a_k = np.sqrt(gamma * p_k / rho_k)
        return 2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2 * gamma)) - 1.0)

    def f(p):
        return branch(p, rho_l, p_l) + branch(p, rho_r, p_r) + (v_r - v_l)

    hi = max(p_l, p_r)
    while f(hi) <= 0.0:
        hi *= 2.0
    return brentq(f, np.finfo(float).tiny, hi, xtol=1e-300)


def test_newton_halves_steps_that_leave_the_positive_pressures(monkeypatch):
    seen = traced_pressures(monkeypatch)
    sol = solve_riemann(conserved(1.115, -0.131, 0.0073), conserved(63.4, -13.76, 491.9), GAS)
    pressures = seen[::2]
    assert sum(b == 0.5 * a for a, b in zip(pressures, pressures[1:])) == 4
    assert sol.p_star == pytest.approx(brentq_star_pressure(sol), rel=1e-12)


@pytest.mark.parametrize(
    "left, right, s",
    [(*TORO_TESTS[0], 1e5), ((1.0, 3.0, 1.0), (2.0, -1.0, 0.5), 1e6)],
    ids=["sod", "two-shocks"],
)
def test_newton_stop_is_relative_to_the_velocity_scale(monkeypatch, left, right, s):
    # data scaled by s, p by s^2 and v by s: the pressure function is in
    # units of s, and so is the stop, so Newton takes as many steps as at s = 1
    seen = traced_pressures(monkeypatch)
    sol = solve_riemann(*(conserved(rho, v * s, p * s**2) for rho, v, p in (left, right)), GAS)
    assert len(seen[::2]) <= 8
    assert sol.p_star == pytest.approx(brentq_star_pressure(sol), rel=1e-12)
    unit = solve_riemann(conserved(*left), conserved(*right), GAS)
    assert sol.p_star / s**2 == pytest.approx(unit.p_star, rel=1e-12)
    assert sol.v_star / s == pytest.approx(unit.v_star, rel=1e-12)


def test_sod_takes_five_evaluations(monkeypatch):
    seen = traced_pressures(monkeypatch)
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    assert len(seen[::2]) == 5
    assert (sol.p_star, sol.v_star) == (0.30313017805064674, 0.9274526200489497)


def test_near_vacuum_star_pressure_far_below_the_data():
    # p* = 4.2e-14 under p ~ 1e5: an absolute floor of 1e-12 on p decided p*
    # here once, 23 times too large
    sol = solve_riemann(
        conserved(0.029154965757176094, -19201.62416818866, 103621.495477619),
        conserved(0.6724663046351537, -3141.666708035295, 469314.26335554576),
        GAS,
    )
    assert sol.p_star == pytest.approx(brentq_star_pressure(sol), rel=1e-10, abs=0.0)
    assert sol.p_star == pytest.approx(4.159e-14, rel=1e-3, abs=0.0)


def test_star_pressure_matches_brentq_over_scales_and_near_vacuum():
    # 300 seeded draws: velocity scale 1e-6 to 1e8 (p scales by its square),
    # rho and p spread over 6 and 8 decades, a mean flow, and velocity
    # jumps from strong collision up to 1e-4 short of the vacuum limit
    rng = np.random.default_rng(1)
    n = 300
    scale = 10.0 ** rng.uniform(-6.0, 8.0, n)
    rho = 10.0 ** rng.uniform(-3.0, 3.0, (n, 2))
    p = 10.0 ** rng.uniform(-4.0, 4.0, (n, 2))
    vacuum = 2.0 * np.sqrt(GAS.gamma * p / rho).sum(axis=1) / (GAS.gamma - 1.0)
    share = np.where(
        np.arange(n) % 3 == 0, 1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n), rng.uniform(-3.0, 0.9, n)
    )
    v_l = rng.uniform(-2.0, 2.0, n) * vacuum
    v = np.stack([v_l, v_l + share * vacuum], axis=1)
    for i in range(n):
        sol = solve_riemann(
            *(conserved(rho[i, k], v[i, k] * scale[i], p[i, k] * scale[i] ** 2) for k in (0, 1)),
            GAS,
        )
        assert sol.p_star == pytest.approx(brentq_star_pressure(sol), rel=1e-10, abs=0.0), i


def test_newton_that_never_converges_names_the_data(monkeypatch):
    monkeypatch.setattr(riemann, "_wave_function", lambda p, *args: (1.0, 1.0))
    message = (
        r"^Newton on the pressure function did not converge in 100 iterations "
        r"for left state \[1\.0, 0\.0, 2\.5\] and right state \[0\.125, 0\.0, 0\.25\]$"
    )
    with pytest.raises(RuntimeError, match=message):
        solve_riemann(SOD_L, SOD_R, GAS)


def test_exact_solutions_are_one_dimensional():
    with pytest.raises(ValueError, match="expects 1D conserved states"):
        solve_riemann(np.array([1.0, 0.0, 0.0, 2.5]), SOD_R, GAS)
    with pytest.raises(ValueError, match="the exact shock-tube reference is one-dimensional"):
        sod_reference_on_grid(SOD_L, SOD_R, GAS, grid_2d(4, 4), t=0.1)


def test_sod_statistics_sigma_zero():
    x = np.linspace(0.05, 0.95, 19)
    mean, var = sod_reference_statistics(SOD_L, SOD_R, GAS, x, t=0.14, sigma=0.0)
    np.testing.assert_allclose(var, 0.0, atol=1e-14)
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    exact = sol.sample((x - 0.5) / 0.14)
    np.testing.assert_allclose(mean, exact, atol=1e-12)


def test_sod_statistics_unreached_region():
    mean, var = sod_reference_statistics(
        SOD_L, SOD_R, GAS, np.array([0.05]), t=0.14, sigma=0.05
    )
    np.testing.assert_allclose(mean[0], SOD_L, atol=1e-13)
    np.testing.assert_allclose(var[0], 0.0, atol=1e-14)


def test_sod_statistics_against_brute_force():
    # dense midpoint rule in xi as the brute-force oracle
    x = np.linspace(0.2, 0.9, 36)
    t = 0.14
    mean, var = sod_reference_statistics(SOD_L, SOD_R, GAS, x, t, n_nodes=60)
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    n = 20000
    xi = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    states = np.stack([sol.sample((xx - 0.5 - 0.05 * xi) / t) for xx in x])
    bf_mean = states.mean(axis=1)
    bf_var = states.var(axis=1)
    np.testing.assert_allclose(mean, bf_mean, atol=2e-4)
    np.testing.assert_allclose(var, bf_var, atol=2e-4)


def test_sod_statistics_variance_concentrates_on_wave_families():
    # brute-force-verified structure: the variance is supported on the three
    # wave regions (fan, contact, shock) swept by the uncertain interface,
    # with a local maximum inside the shock span; it vanishes in between
    sol = solve_riemann(SOD_L, SOD_R, GAS)
    t, x0, sigma = 0.14, 0.5, 0.05
    x = np.linspace(0.0, 1.0, 401)
    _, var = sod_reference_statistics(SOD_L, SOD_R, GAS, x, t, x0, sigma)
    v_rho = var[:, 0]

    def span(speed_lo, speed_hi):
        return x0 - sigma + speed_lo * t, x0 + sigma + speed_hi * t

    fan = span(sol.left_head, sol.left_tail)
    contact = span(sol.v_star, sol.v_star)
    shock = span(sol.right_head, sol.right_head)
    covered = (
        ((x >= fan[0]) & (x <= fan[1]))
        | ((x >= contact[0]) & (x <= contact[1]))
        | ((x >= shock[0]) & (x <= shock[1]))
    )
    assert np.all(v_rho[~covered] < 1e-12)
    shock_mask = (x >= shock[0]) & (x <= shock[1])
    assert v_rho[shock_mask].max() > 100.0 * v_rho[~covered].max()
    # global maximum lies in the rarefaction fan for these parameters
    assert fan[0] <= x[np.argmax(v_rho)] <= fan[1]


def test_sod_statistics_node_doubling_converges():
    x = np.linspace(0.1, 0.9, 33)
    m100, _ = sod_reference_statistics(SOD_L, SOD_R, GAS, x, 0.14, n_nodes=100)
    m200, _ = sod_reference_statistics(SOD_L, SOD_R, GAS, x, 0.14, n_nodes=200)
    assert np.max(np.abs(m100[:, 0] - m200[:, 0])) < 1e-6


# (left, right, x_points, t, x0, sigma, n_nodes, sub_points) of sod_reference_statistics
_SOD_SUB = (np.arange(5) + 0.5) / 5 - 0.5
_TORO_123 = conserved(1.0, -3.7, 0.4), conserved(1.0, 3.7, 0.4)
REFERENCE_CASES = {
    "sod": (SOD_L, SOD_R, np.linspace(0.0025, 0.9975, 200), 0.14, 0.5, 0.05, 20, _SOD_SUB / 200),
    "no sub-points": (SOD_L, SOD_R, np.linspace(0.01, 0.99, 99), 0.14, 0.5, 0.05, 17, None),
    # equal sub-points cut at equal xi, and the zero-width pieces between go
    "duplicated sub-points": (
        SOD_L, SOD_R, np.linspace(0.2, 0.9, 71), 0.14, 0.5, 0.05, 9, [-0.004, 0.0, 0.0, 0.004]
    ),
    # no wave reaches x = 0.02 or 0.98 by t = 0.14: one piece, the data's state
    "unreached cells": (SOD_L, SOD_R, np.array([0.02, 0.98]), 0.14, 0.5, 0.05, 11, _SOD_SUB / 50),
    "t = 0": (SOD_L, SOD_R, np.linspace(0.41, 0.59, 37), 0.0, 0.5, 0.05, 13, _SOD_SUB / 100),
    # Toro's 123 problem at |v| = 3.7: two fans with a star pressure near vacuum
    "toro 123 near vacuum": (*_TORO_123, np.linspace(0.005, 0.995, 100), 0.1, 0.5, 0.05, 15,
                             _SOD_SUB / 100),
}


@pytest.mark.parametrize("pieces_per_block", [1, 7, "default", "all"])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_sod_statistics_blocks_match_the_loop_over_points(monkeypatch, case, pieces_per_block):
    """Any block of Gauss pieces gives the per-point loop's statistics bit for bit."""
    args = REFERENCE_CASES[case]
    mean, var, pieces = sod_reference_loop(*args[:2], GAS, *args[2:])
    n_nodes, sub_points = args[-2:]
    samples = (1 if sub_points is None else len(sub_points)) * n_nodes  # per piece
    if pieces_per_block == "all":
        monkeypatch.setattr(riemann, "_SAMPLES", pieces * samples + samples)
    elif pieces_per_block != "default":
        monkeypatch.setattr(riemann, "_SAMPLES", pieces_per_block * samples)
    got_mean, got_var = sod_reference_statistics(*args[:2], GAS, *args[2:])
    assert np.array_equal(got_mean, mean)
    assert np.array_equal(got_var, var)


def test_sod_statistics_cases_cover_the_block_edges():
    """The cases above reach what the blocks must get right."""
    pieces = {
        case: sod_reference_loop(*args[:2], GAS, *args[2:])[2]
        for case, args in REFERENCE_CASES.items()
    }
    assert pieces["sod"] % 7 != 0  # the last of the blocks of 7 is partial
    assert pieces["unreached cells"] == 2
    # the duplicate sub-point adds no piece
    left, right, x, t, x0, sigma, n_nodes, _ = REFERENCE_CASES["duplicated sub-points"]
    single = sod_reference_loop(left, right, GAS, x, t, x0, sigma, n_nodes, [-0.004, 0.0, 0.004])
    assert pieces["duplicated sub-points"] == single[2]
    sol = solve_riemann(*_TORO_123, GAS)
    assert sol.left_wave == sol.right_wave == "rarefaction"
    assert sol.p_star < 1e-3 * 0.4


def test_sod_statistics_samples_once_per_block(monkeypatch):
    """One ``sample`` call per block of pieces, not one per point."""
    calls = []
    sample = riemann.RiemannSolution.sample
    monkeypatch.setattr(
        riemann.RiemannSolution, "sample", lambda sol, s: calls.append(s.size) or sample(sol, s)
    )
    x = np.linspace(0.00125, 0.99875, 400)
    sub = 0.0025 * _SOD_SUB
    _, _, pieces = sod_reference_loop(SOD_L, SOD_R, GAS, x, 0.14, sub_points=sub)
    calls.clear()
    sod_reference_statistics(SOD_L, SOD_R, GAS, x, 0.14, sub_points=sub)
    block = riemann._SAMPLES // (len(sub) * 100)
    assert len(calls) == -(-pieces // block) < len(x)
    assert max(calls) <= riemann._SAMPLES


def test_collocation_sigma_zero_variance_vanishes():
    grid = grid_1d(40, 0.0, 1.0)

    def initial(x, xi):
        x = np.asarray(x, float)
        return np.where(x[..., None] < 0.5, SOD_L, SOD_R)

    stats = collocation_reference(initial, grid, GAS, t_end=0.05, n_nodes=8)
    # identical node runs: only E[u^2]-E[u]^2 cancellation noise remains
    np.testing.assert_allclose(stats.variance, 0.0, atol=1e-13)


def test_reference_generators_reject_zero_counts():
    # these used to raise ZeroDivisionError and numpy's "deg must be a positive integer"
    grid = grid_1d(10, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^subcells must be >= 1, got 0$"):
        sod_reference_on_grid(SOD_L, SOD_R, GAS, grid, 0.1, subcells=0)
    for n_nodes in (0, -1):
        with pytest.raises(ValueError, match=rf"^n_nodes must be >= 1, got {n_nodes}$"):
            sod_reference_on_grid(SOD_L, SOD_R, GAS, grid, 0.1, n_nodes=n_nodes)
        with pytest.raises(ValueError, match=rf"^n_nodes must be >= 1, got {n_nodes}$"):
            collocation_reference(uncertain_sod, grid, GAS, t_end=0.1, n_nodes=n_nodes)


def test_collocation_self_convergence():
    grid = grid_1d(100, 0.0, 1.0)

    def initial(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        return np.where((x < 0.5 + 0.05 * xi)[..., None], SOD_L, SOD_R)

    s20 = collocation_reference(initial, grid, GAS, t_end=0.14, n_nodes=20)
    s40 = collocation_reference(initial, grid, GAS, t_end=0.14, n_nodes=40)
    num = np.sqrt(np.sum((s20.mean[:, 0] - s40.mean[:, 0]) ** 2))
    den = np.sqrt(np.sum(s40.mean[:, 0] ** 2))
    assert num / den < 1e-3


def uncertain_sod(x, *rest):
    """Sod data with the interface at 0.5 + 0.05 xi, along x in 1D and 2D."""
    x, *_, xi = np.broadcast_arrays(*(np.asarray(c, float) for c in (x, *rest)))
    left, right = SOD_L, SOD_R
    if len(rest) == 2:
        left, right = np.insert(SOD_L, 2, 0.0), np.insert(SOD_R, 2, 0.0)
    return np.where((x < 0.5 + 0.05 * xi)[..., None], left, right)


@pytest.mark.parametrize("grid", [grid_1d(40, 0.0, 1.0), grid_2d(6, 4)], ids=["1d", "2d"])
def test_collocation_statistics_do_not_depend_on_the_block(monkeypatch, grid):
    # one node per solve, summed in node order, is the statistics' definition
    n_nodes = 7
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    axes = np.meshgrid(*map(grid.cell_centers, range(grid.ndim)), indexing="ij")
    centers = [c[..., None] for c in axes]
    mean = second = 0.0
    steps = []
    for xi, w in zip(nodes, weights / 2.0):
        u, run = deterministic_solve(uncertain_sod(*centers, [xi]), grid, GAS, 0.05)
        mean = mean + w * u[..., 0, :]
        second = second + w * u[..., 0, :] ** 2
        steps.append(run.steps)
    for block in (1, 3, n_nodes):
        monkeypatch.setattr(riemann, "_BLOCK", block)
        stats, run = riemann._collocation(uncertain_sod, grid, GAS, 0.05, 0.9, n_nodes)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.variance, np.maximum(second - mean**2, 0.0))
        # the run reports the steps of the node that took the most
        assert run.steps == max(steps)


def test_collocation_failure_names_the_node(monkeypatch):
    # Gauss node 7 of 10 starts with a negative density in cell 3; with blocks
    # of 5 it is row 2 of the second batch
    monkeypatch.setattr(riemann, "_BLOCK", 5)
    bad_xi = np.polynomial.legendre.leggauss(10)[0][7]
    grid = grid_1d(8, 0.0, 1.0)

    def initial(x, xi):
        u = uncertain_sod(x, xi).copy()
        u[3, np.asarray(xi) == bad_xi, 0] = -1.0
        return u

    message = (
        r"^step 0: inadmissible state in wave-speed scan at index \(3, 2\), "
        r"which is \(cells\.\.\., node\) index \(3, 7\)$"
    )
    with pytest.raises(InadmissibleStateError, match=message) as info:
        collocation_reference(initial, grid, GAS, t_end=0.05, n_nodes=10)
    assert info.value.index == (3, 7)


def test_sod_reference_on_grid_at_t0_is_the_uncertain_initial_data():
    # at t = 0 the left state holds with probability (1 - (x - x0) / sigma) / 2
    grid = grid_1d(50, 0.0, 1.0)
    stats = sod_reference_on_grid(SOD_L, SOD_R, GAS, grid, t=0.0, n_nodes=40, subcells=1)
    left = np.clip(0.5 * (1.0 - (grid.cell_centers(0) - 0.5) / 0.05), 0.0, 1.0)[:, None]
    np.testing.assert_allclose(stats.mean, left * SOD_L + (1.0 - left) * SOD_R, atol=1e-14)
    np.testing.assert_allclose(
        stats.variance, left * (1.0 - left) * (SOD_L - SOD_R) ** 2, atol=1e-14
    )
    assert np.count_nonzero(stats.variance[:, 0] > 1e-3) == 4


def test_sod_reference_on_grid_shapes():
    grid = grid_1d(50, 0.0, 1.0)
    stats = sod_reference_on_grid(SOD_L, SOD_R, GAS, grid, t=0.14, n_nodes=40)
    assert stats.mean.shape == (50, 3)
    assert np.all(stats.variance >= 0.0)
