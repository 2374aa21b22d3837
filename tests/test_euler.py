import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import max_wave_speed, physical_flux, pressure
from uqfv.euler import (
    DualRangeError,
    GasModel,
    InadmissibleStateError,
    _internal_energy,
    dual_range_mask,
    entropy_gradient,
    entropy_gradient_inverse,
    is_admissible,
    _dual_eval,
    _dual_to_state_unchecked,
)

GAS = GasModel(1.4)
SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])


def random_admissible(rng, n, ndim=1):
    rho = rng.uniform(0.01, 10.0, n)
    v = rng.uniform(-5.0, 5.0, (n, ndim))
    p = rng.uniform(0.01, 10.0, n)
    u = np.empty((n, 2 + ndim))
    u[:, 0] = rho
    u[:, 1 : 1 + ndim] = rho[:, None] * v
    u[:, -1] = p / (GAS.gamma - 1.0) + 0.5 * rho * np.sum(v * v, axis=1)
    return u


def test_pressure_hand_values():
    assert pressure(SOD_L, GAS) == pytest.approx(1.0, abs=1e-15)
    assert pressure(SOD_R, GAS) == pytest.approx(0.1, abs=1e-15)


def test_pressure_vanishing_internal_energy():
    u = np.array([2.0, 3.0, 3.0**2 / (2.0 * 2.0)])
    assert pressure(u, GAS) == pytest.approx(0.0, abs=1e-15)


def test_pressure_rejects_nonpositive_density():
    with pytest.raises(InadmissibleStateError):
        pressure(np.array([-1.0, 0.0, 1.0]), GAS)


def test_flux_rest_state():
    np.testing.assert_allclose(physical_flux(SOD_L, GAS), [0.0, 1.0, 0.0], atol=1e-15)


def test_flux_moving_state_hand_value():
    # (1, 1, 3): p = 0.4*(3-0.5) = 1, flux = (1, 2, 4)
    f = physical_flux(np.array([1.0, 1.0, 3.0]), GAS)
    np.testing.assert_allclose(f, [1.0, 2.0, 4.0], atol=1e-14)


def test_flux_2d_rest_state():
    u = np.array([1.0, 0.0, 0.0, 2.5])
    np.testing.assert_allclose(physical_flux(u, GAS, axis=0), [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(physical_flux(u, GAS, axis=1), [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_flux_rotation_consistency():
    # rotating the state by 90 degrees swaps directional fluxes with permuted momenta
    rng = np.random.default_rng(3)
    u = random_admissible(rng, 20, ndim=2)
    rot = u.copy()
    rot[:, 1], rot[:, 2] = -u[:, 2], u[:, 1]
    fx = physical_flux(u, GAS, axis=0)
    fy_rot = physical_flux(rot, GAS, axis=1)
    np.testing.assert_allclose(fy_rot[:, 0], fx[:, 0], atol=1e-12)
    np.testing.assert_allclose(fy_rot[:, 1], -fx[:, 2], atol=1e-12)
    np.testing.assert_allclose(fy_rot[:, 2], fx[:, 1], atol=1e-12)
    np.testing.assert_allclose(fy_rot[:, 3], fx[:, 3], atol=1e-12)
    sx = max_wave_speed(u, GAS, axis=0)
    np.testing.assert_allclose(max_wave_speed(rot, GAS, axis=1), sx, atol=1e-12)


def test_max_wave_speed_hand_values():
    assert max_wave_speed(SOD_L, GAS) == pytest.approx(np.sqrt(1.4), abs=1e-14)
    assert max_wave_speed(SOD_R, GAS) == pytest.approx(np.sqrt(1.4 * 0.1 / 0.125), abs=1e-14)


def test_max_wave_speed_velocity_shift():
    u = SOD_L
    c = max_wave_speed(u, GAS)
    v = 0.7
    shifted = np.array([1.0, v, 2.5 + 0.5 * v**2])
    assert max_wave_speed(shifted, GAS) == pytest.approx(c + v, abs=1e-13)


def test_is_admissible_cases():
    assert is_admissible(SOD_L, GAS)
    assert not is_admissible(np.array([-0.1, 0.0, 1.0]), GAS)
    # p = 0.4 * (1 - 2) < 0
    assert not is_admissible(np.array([1.0, 2.0, 1.0]), GAS)


def test_entropy_hand_values():
    assert oracles.entropy(SOD_L, GAS) == pytest.approx(-np.log(2.5), abs=1e-14)
    expected = -0.125 * np.log(0.125**-1.4 * 0.25)
    assert oracles.entropy(SOD_R, GAS) == pytest.approx(expected, abs=1e-14)


def test_entropy_finite_on_admissible_states():
    rng = np.random.default_rng(11)
    u = random_admissible(rng, 200)
    assert np.all(np.isfinite(oracles.entropy(u, GAS)))


def finite_difference_gradient(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        step = h * max(abs(x[i]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def test_entropy_gradient_matches_finite_differences():
    grad = entropy_gradient(SOD_L, GAS)
    fd = finite_difference_gradient(lambda u: oracles.entropy(u, GAS), SOD_L)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


def test_entropy_gradient_momentum_odd_in_velocity():
    u = np.array([1.3, 0.8, 3.0])
    mirrored = np.array([1.3, -0.8, 3.0])
    g, gm = entropy_gradient(u, GAS), entropy_gradient(mirrored, GAS)
    assert g[1] == pytest.approx(-gm[1], abs=1e-14)
    assert g[0] == pytest.approx(gm[0], abs=1e-14)
    assert g[2] == pytest.approx(gm[2], abs=1e-14)


def test_entropy_hessian_matches_finite_differences():
    for u in (SOD_L, np.array([1.3, 0.8, 3.0]), np.array([0.6, -0.4, 0.2, 1.5])):
        hess = oracles.entropy_hessian(u, GAS)
        for i in range(len(u)):
            fd_row = finite_difference_gradient(
                lambda x, i=i: entropy_gradient(x, GAS)[i], u
            )
            np.testing.assert_allclose(hess[i], fd_row, rtol=2e-5, atol=2e-6)


def test_entropy_convexity_on_random_states():
    rng = np.random.default_rng(5)
    u = random_admissible(rng, 100)
    hess = oracles.entropy_hessian(u, GAS)
    eigs = np.linalg.eigvalsh(hess)
    assert np.all(eigs > 0.0)


def test_gradient_inverse_round_trip_single():
    lam = entropy_gradient(SOD_L, GAS)
    np.testing.assert_allclose(entropy_gradient_inverse(lam, GAS), SOD_L, atol=1e-10)


@pytest.mark.parametrize("ndim", [1, 2])
def test_gradient_inverse_round_trip_random(ndim):
    rng = np.random.default_rng(17)
    u = random_admissible(rng, 1000, ndim=ndim)
    lam = entropy_gradient(u, GAS)
    back = entropy_gradient_inverse(lam, GAS)
    np.testing.assert_allclose(back, u, rtol=1e-10, atol=1e-10)
    # reverse composition
    lam2 = entropy_gradient(back, GAS)
    np.testing.assert_allclose(lam2, lam, rtol=1e-10, atol=1e-10)


def test_gradient_inverse_always_admissible():
    rng = np.random.default_rng(23)
    lam = entropy_gradient(random_admissible(rng, 500), GAS)
    assert is_admissible(entropy_gradient_inverse(lam, GAS), GAS)


def test_gradient_inverse_rejects_out_of_range():
    lam = entropy_gradient(SOD_L, GAS).copy()
    lam[-1] = 0.5  # energy slot must stay negative
    with pytest.raises(DualRangeError):
        entropy_gradient_inverse(lam, GAS)


def test_gradient_inverse_names_first_row_out_of_range():
    lam = np.tile(entropy_gradient(SOD_L, GAS), (3, 1))
    lam[2, -1] = 1.0
    with pytest.raises(DualRangeError, match=r"entropy-gradient range at index \(2,\)$") as info:
        entropy_gradient_inverse(lam, GAS)
    assert info.value.index == (2,)


def test_dual_jacobian_spd_and_matches_finite_differences():
    lam = entropy_gradient(SOD_L, GAS)
    jac = _dual_eval(lam, GAS)[2]
    np.testing.assert_allclose(jac, jac.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(jac) > 0.0)
    for i in range(3):
        fd = finite_difference_gradient(
            lambda lm, i=i: entropy_gradient_inverse(lm, GAS)[i], lam.copy()
        )
        np.testing.assert_allclose(jac[i], fd, rtol=1e-5, atol=1e-6)


def test_legendre_dual_gradient_is_inverse_map():
    # d s*/d lam = u(lam)
    lam = entropy_gradient(np.array([1.2, 0.3, 2.2]), GAS)
    fd = finite_difference_gradient(lambda lm: oracles.legendre_dual(lm, GAS), lam.copy())
    np.testing.assert_allclose(fd, entropy_gradient_inverse(lam, GAS), rtol=1e-6, atol=1e-6)


def test_flux_and_wave_speed_reject_inadmissible():
    bad = np.array([1.0, 2.0, 1.0])  # negative pressure
    with pytest.raises(InadmissibleStateError):
        physical_flux(bad, GAS)
    with pytest.raises(InadmissibleStateError):
        max_wave_speed(bad, GAS)
    with pytest.raises(InadmissibleStateError):
        oracles.entropy(bad, GAS)


def test_entropy_gradient_names_first_inadmissible_state():
    u = np.tile(SOD_L, (2, 4, 1))
    u[1, 2] = [1.0, 2.0, 1.0]  # negative pressure
    u[1, 3] = [-1.0, 0.0, 2.5]
    message = r"^inadmissible state \(rho <= 0 or p <= 0\) at index \(1, 2\)$"
    with pytest.raises(InadmissibleStateError, match=message) as info:
        entropy_gradient(u, GAS)
    assert info.value.index == (1, 2)


@st.composite
def admissible_states(draw, ndim=None):
    """Up to 16 random 1D or 2D states: rho and p in [0.1, 10], |v_i| <= 1.

    The round trip through the dual loses about rho |v|^2 / p ulps in the
    density exponent; these ranges keep that under rtol 1e-13. ``ndim``
    fixes the dimension; by default it is drawn too.
    """
    if ndim is None:
        ndim = draw(st.sampled_from((1, 2)))
    rows = draw(st.integers(1, 16))
    unit = draw(hnp.arrays(float, (rows, 2 + ndim), elements=st.floats(0.0, 1.0)))
    rho = 10.0 ** (2.0 * unit[:, 0] - 1.0)
    v = 2.0 * unit[:, 1:-1] - 1.0
    p = 10.0 ** (2.0 * unit[:, -1] - 1.0)
    u = np.empty_like(unit)
    u[:, 0] = rho
    u[:, 1:-1] = rho[:, None] * v
    u[:, -1] = p / (GAS.gamma - 1.0) + 0.5 * rho * np.sum(v * v, axis=1)
    return u


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(admissible_states())
def test_one_inverse_map_for_flux_and_newton(u):
    # the states the flux sees (_dual_to_state_unchecked) are bitwise the
    # states the Newton residual matches (_dual_eval)
    lam = entropy_gradient(u, GAS)
    back = _dual_to_state_unchecked(lam, GAS)
    np.testing.assert_array_equal(back, _dual_eval(lam, GAS)[0])
    np.testing.assert_allclose(back, u, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("ndim", [1, 2])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_component_sums_match_npsum_oracles(ndim, data):
    # the written-out sums over the component axis give np.sum's bits
    u = data.draw(admissible_states(ndim))
    np.testing.assert_array_equal(_internal_energy(u), oracles.internal_energy_npsum(u))
    lam = entropy_gradient(u, GAS)
    np.testing.assert_array_equal(lam, oracles.entropy_gradient_npsum(u, GAS.gamma))
    for ours, ref in zip(_dual_eval(lam, GAS), oracles.dual_eval_npsum(lam, GAS.gamma)):
        np.testing.assert_array_equal(ours, ref)


@pytest.mark.parametrize("d", [3, 4])
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_dual_range_mask_matches_npsum_oracle(d, data):
    # every slot, the energy slot included, rejects NaN and +-inf
    rows = data.draw(st.integers(2, 12))
    lam = data.draw(hnp.arrays(float, (rows, d), elements=st.floats(-10.0, 10.0)))
    np.testing.assert_array_equal(dual_range_mask(lam, GAS), oracles.dual_range_mask_npsum(lam))
    for slot in range(d):
        for bad in (np.nan, np.inf, -np.inf):
            planted = lam.copy()
            planted[::2, slot] = bad
            mask = dual_range_mask(planted, GAS)
            np.testing.assert_array_equal(mask, oracles.dual_range_mask_npsum(planted))
            assert not np.any(mask[::2])
