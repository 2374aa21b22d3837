import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from uqfv.basis import GpcBasis, build_basis, build_partition
from uqfv.euler import GasModel, InadmissibleStateError, admissible_mask
from uqfv.fv import MomentField, deterministic_solve, grid_1d, grid_2d, moment_flux_divergence
from uqfv.problems import project_initial_data
from uqfv.sg import (
    FilterConfig,
    LimiterConfig,
    LimiterError,
    apply_filter,
    apply_limiter,
    filter_gains,
    run_sg,
)

GAS = GasModel(1.4)
SOD_L = np.array([1.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.25])


def degree_one_basis():
    # two Gauss nodes where phi_1 = -1 and +1: node states are c0 -+ c1
    return build_basis(build_partition(-1.0, 1.0, 1), 1, quad_count=2)


def coeffs_for_nodes(node_lo, node_hi):
    c0 = 0.5 * (np.asarray(node_lo) + np.asarray(node_hi))
    c1 = 0.5 * (np.asarray(node_hi) - np.asarray(node_lo))
    return np.stack([c0, c1])


def block_theta(coeffs, basis):
    """apply_limiter's damping factor for one (K+1, d) coefficient block."""
    return apply_limiter(coeffs[None], basis, GAS)[1][0]


def test_limiter_zero_for_admissible_nodes():
    basis = degree_one_basis()
    coeffs = coeffs_for_nodes([0.9, 0.0, 2.4], [1.1, 0.0, 2.6])
    assert block_theta(coeffs, basis) == 0.0


def test_limiter_density_violation_hand_value():
    # node density -0.1 against cell-mean density 1.0: theta = 1/11 + eps
    basis = degree_one_basis()
    node_lo = np.array([-0.1, 0.0, 2.0])
    node_hi = np.array([2.1, 0.0, 3.0])
    coeffs = coeffs_for_nodes(node_lo, node_hi)
    np.testing.assert_allclose(coeffs[0], [1.0, 0.0, 2.5], atol=1e-15)
    theta = block_theta(coeffs, basis)
    assert theta == pytest.approx(0.1 / 1.1 + 1e-10, abs=1e-12)


def test_limiter_requires_admissible_mean():
    basis = degree_one_basis()
    coeffs = coeffs_for_nodes([-1.0, 0.0, 2.0], [-3.0, 0.0, 3.0])
    message = r"^inadmissible cell mean at \(cells\.\.\., element\) index \(0,\)$"
    with pytest.raises(InadmissibleStateError, match=message) as info:
        block_theta(coeffs, basis)
    assert info.value.index == (0,)


def test_limiter_matches_bisection_oracle():
    # 500 random violating nodes; closed form vs bisection to 1e-8
    rng = np.random.default_rng(42)
    basis = degree_one_basis()
    checked = 0
    while checked < 500:
        mean = np.array(
            [rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 6.0)]
        )
        if not np.all(admissible_mask(mean, GAS)):
            continue
        node = mean + rng.uniform(-4.0, 4.0, 3)
        if np.all(admissible_mask(node, GAS)):
            continue
        other = 2.0 * mean - node  # keeps the cell mean in place
        coeffs = coeffs_for_nodes(node, other)
        oracle_lo = oracles.limiter_theta_bisection(node, mean, GAS.gamma)
        oracle_hi = oracles.limiter_theta_bisection(other, mean, GAS.gamma)
        oracle = max(oracle_lo, oracle_hi)
        theta = block_theta(coeffs, basis)
        assert theta == pytest.approx(oracle, abs=1e-8)
        checked += 1


def test_apply_limiter_identity_when_inactive():
    basis = build_basis(build_partition(-1, 1, 2), 3)
    coeffs = np.zeros((4, 2, 4, 3))
    coeffs[..., 0, :] = SOD_L
    coeffs[..., 1, :] = 0.01
    limited, theta = apply_limiter(coeffs, basis, GAS)
    # with no block limited the input itself comes back, not a copy
    assert limited is coeffs
    np.testing.assert_array_equal(theta, 0.0)


def _violating_field():
    basis = build_basis(build_partition(-1, 1, 2), 4)
    grid = grid_1d(8, 0.0, 1.0)
    rng = np.random.default_rng(9)
    coeffs = np.zeros((8, 2, 5, 3))
    coeffs[..., 0, :] = SOD_L
    coeffs[..., 1:, :] = 0.8 * rng.standard_normal((8, 2, 4, 3))
    return basis, grid, coeffs


def test_apply_limiter_preserves_means_bitwise():
    basis, _, coeffs = _violating_field()
    before = coeffs.copy()
    limited, theta = apply_limiter(coeffs, basis, GAS)
    assert np.any(theta > 0.0)
    # a limited result is a new array; the input keeps its values
    assert limited is not coeffs
    np.testing.assert_array_equal(coeffs, before)
    np.testing.assert_array_equal(limited[..., 0, :], coeffs[..., 0, :])


def test_apply_limiter_restores_admissibility_everywhere():
    basis, _, coeffs = _violating_field()
    limited, _ = apply_limiter(coeffs, basis, GAS)
    nodes = np.einsum("...kd,kq->...qd", limited, basis.phi)
    assert np.all(admissible_mask(nodes, GAS))


def test_apply_limiter_idempotent():
    basis, _, coeffs = _violating_field()
    once, _ = apply_limiter(coeffs, basis, GAS)
    twice, theta2 = apply_limiter(once, basis, GAS)
    np.testing.assert_array_equal(theta2, 0.0)
    np.testing.assert_array_equal(twice, once)


def test_apply_limiter_full_damping_keeps_mean():
    # node density -1 against mean 1 gives a raw factor 0.5; with a large
    # offset it caps at 1 and all higher moments vanish
    basis = degree_one_basis()
    node = np.array([-1.0, 0.0, 2.0])
    other = 2.0 * np.array([1.0, 0.0, 2.5]) - node
    coeffs = coeffs_for_nodes(node, other)[None, None]
    limited, theta = apply_limiter(coeffs, basis, GAS, LimiterConfig(epsilon=0.6))
    assert theta[0, 0] == 1.0
    np.testing.assert_array_equal(limited[0, 0, 0], coeffs[0, 0, 0])
    np.testing.assert_array_equal(limited[0, 0, 1:], 0.0)


def test_filter_gain_k0_is_one_for_all_kinds():
    for cfg in (
        FilterConfig("l2", strength=3.0),
        FilterConfig("exponential", strength=2.0, order=10),
    ):
        assert filter_gains(4, cfg, dt=0.1)[0] == 1.0


def test_filter_gain_l2_hand_value():
    cfg = FilterConfig("l2", strength=1.0)
    assert filter_gains(4, cfg)[1] == pytest.approx(0.2, abs=1e-15)


def test_filter_gain_exponential_reaches_machine_eps():
    # net exponent one at k=K gives exp(log eps) = machine epsilon
    cfg = FilterConfig("exponential", strength=2.0, order=4, dt_scaled=True)
    gain = filter_gains(4, cfg, dt=0.5)[4]
    assert gain == pytest.approx(np.finfo(float).eps, rel=1e-12, abs=0.0)
    raw = FilterConfig("exponential", strength=1.0, order=4, dt_scaled=False)
    assert filter_gains(4, raw)[4] == pytest.approx(np.finfo(float).eps, rel=1e-12, abs=0.0)


def test_filter_gains_monotone_nonincreasing():
    for cfg in (
        FilterConfig("l2", strength=0.7),
        FilterConfig("exponential", strength=2.0, order=10),
    ):
        gains = filter_gains(14, cfg, dt=0.01)
        assert np.all(np.diff(gains) <= 1e-15)


def test_apply_filter_identity_cases():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((5, 2, 4, 3))
    np.testing.assert_array_equal(apply_filter(coeffs, None), coeffs)
    np.testing.assert_array_equal(
        apply_filter(coeffs, FilterConfig("l2", strength=0.0)), coeffs
    )
    np.testing.assert_array_equal(
        apply_filter(coeffs, FilterConfig("exponential", strength=0.0, order=2)), coeffs
    )


def test_apply_filter_keeps_zeroth_moment_bitwise():
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((5, 3, 6, 3))
    out = apply_filter(coeffs, FilterConfig("exponential", strength=2.0, order=10), dt=0.3)
    np.testing.assert_array_equal(out[..., 0, :], coeffs[..., 0, :])
    assert np.all(np.abs(out[..., 1:, :]) <= np.abs(coeffs[..., 1:, :]) + 1e-18)


def sod_initial(x, xi, x0=0.5, sigma=0.05):
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    return np.where((x < x0 + sigma * xi)[..., None], SOD_L, SOD_R)


def test_sg_update_constant_field_unchanged():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(6, 0.0, 1.0, bc="periodic")
    coeffs = np.zeros((6, 3, 5, 3))
    coeffs[..., 0, :] = SOD_L
    _, pieces = moment_flux_divergence(basis.reconstruct(coeffs), grid, basis, GAS)
    out = coeffs - 1e-3 * oracles.zero_filled(coeffs.shape, pieces)
    np.testing.assert_allclose(out, coeffs, atol=1e-16)


def test_run_sg_t0_returns_projection_exactly():
    basis = build_basis(build_partition(-1, 1, 3), 4)
    grid = grid_1d(16, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    result = run_sg(field, GAS, t_end=0.0)
    np.testing.assert_array_equal(result.field.coeffs, field.coeffs)
    assert result.stats.steps == 0


def test_run_sg_degenerate_equals_deterministic():
    # K=0, N=1 collapses to the plain FV scheme on cell means
    nx = 50
    basis = build_basis(build_partition(-1, 1, 1), 0)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(lambda x, xi: sod_initial(x, xi, sigma=0.0), grid, basis)
    result = run_sg(field, GAS, t_end=0.05)
    x = grid.cell_centers(0)
    u0 = np.where(x[:, None] < 0.5, SOD_L, SOD_R)
    ref = deterministic_solve(u0[:, None], grid, GAS, 0.05, cfl=0.9)[0][:, 0]
    np.testing.assert_allclose(result.field.coeffs[:, 0, 0, :], ref, atol=1e-13)


def test_run_sg_limiter_noop_on_smooth_data():
    # no shock forms at tiny T: enabled and disabled limiter runs coincide
    def smooth(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        rho = 1.0 + 0.1 * np.sin(2 * np.pi * x) * (1.0 + 0.3 * xi)
        u = np.empty(x.shape + (3,))
        u[..., 0] = rho
        u[..., 1] = 0.0
        u[..., 2] = 2.5
        return u

    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(24, 0.0, 1.0, bc="periodic")
    field = project_initial_data(smooth, grid, basis)
    on = run_sg(field, GAS, t_end=0.01, limiter_config=LimiterConfig(enabled=True))
    off = run_sg(field, GAS, t_end=0.01, limiter_config=LimiterConfig(enabled=False))
    np.testing.assert_allclose(on.field.coeffs, off.field.coeffs, atol=1e-12)


def test_run_sg_limiter_disabled_fails_on_sod():
    # without the limiter the degree-14 reconstruction leaves the admissible
    # set near the discontinuity and the run aborts
    basis = build_basis(build_partition(-1, 1, 1), 14)
    grid = grid_1d(64, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    with pytest.raises(
        InadmissibleStateError, match="step 0: inadmissible state in wave-speed scan"
    ) as info:
        run_sg(field, GAS, t_end=0.05, limiter_config=LimiterConfig(enabled=False))
    assert str(info.value).endswith(f" at index {info.value.index}")


def test_run_sg_single_element_matches_classical_oracle():
    # ME machinery at N=1 against an independently written global-basis hSG
    nx, degree, t_end = 40, 4, 0.03
    basis = build_basis(build_partition(-1, 1, 1), degree)
    grid = grid_1d(nx, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    result = run_sg(field, GAS, t_end=t_end)
    oracle = oracles.classical_hsg_run(
        sod_initial, nx, 1.0 / nx, t_end, GAS.gamma, degree, basis.n_nodes
    )
    np.testing.assert_allclose(result.field.coeffs[:, 0], oracle, atol=1e-13)


def test_run_sg_mass_conservation_periodic():
    def smooth(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * x) * (1.0 + 0.5 * xi)
        u = np.empty(x.shape + (3,))
        u[..., 0] = rho
        u[..., 1] = 0.3 * rho
        u[..., 2] = 2.5 + 0.5 * rho * 0.3**2
        return u

    basis = build_basis(build_partition(-1, 1, 2), 3)
    grid = grid_1d(40, 0.0, 1.0, bc="periodic")
    field = project_initial_data(smooth, grid, basis)
    result = run_sg(field, GAS, t_end=1e9, max_steps=100)

    def total_mass(coeffs):
        return grid.cell_volume * np.einsum(
            "xl,l->", coeffs[:, :, 0, 0], basis.element_weights
        )

    drift = abs(total_mass(result.field.coeffs) - total_mass(field.coeffs))
    assert drift < 1e-11


def test_run_sg_clenshaw_curtis_quadrature():
    # nested-rule basis: level 4 gives 17 points, plenty for degree 4
    basis = build_basis(build_partition(-1, 1, 2), 4, "clenshaw-curtis", 4)
    assert basis.n_nodes == 17
    gram = np.einsum("kq,jq,q->kj", basis.phi, basis.phi, basis.rule.weights)
    assert np.abs(gram - np.eye(5)).max() < 1e-13
    grid = grid_1d(40, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    result = run_sg(field, GAS, t_end=0.03)
    assert result.stats.steps > 0
    assert np.all(np.isfinite(result.field.coeffs))


def test_sg_update_rejects_inadmissible_reconstruction():
    # with the limiter off, the CFL scan of the first step is the guard
    basis = degree_one_basis()
    grid = grid_1d(1, 0.0, 1.0)
    coeffs = coeffs_for_nodes([-0.1, 0.0, 2.0], [2.1, 0.0, 3.0])[None, None]
    field = MomentField(grid, basis, coeffs)
    off = LimiterConfig(enabled=False)
    message = r"^step 0: inadmissible state in wave-speed scan at index \(0, 0, 0\)$"
    with pytest.raises(InadmissibleStateError, match=message) as info:
        run_sg(field, GAS, t_end=1.0, limiter_config=off, max_steps=1)
    assert info.value.index == (0, 0, 0)


def test_filter_config_validation():
    for kind in ("lanczos", "none"):
        with pytest.raises(ValueError, match=f"unknown filter kind: '{kind}'"):
            FilterConfig(kind)
    with pytest.raises(ValueError):
        FilterConfig("exponential", strength=-1.0, order=2)
    with pytest.raises(ValueError):
        FilterConfig("exponential", strength=1.0, order=0)
    with pytest.raises(ValueError):
        LimiterConfig(epsilon=0.0)


def test_apply_limiter_stress_random_extreme_fields():
    # large random higher moments on admissible means: limited reconstructions
    # must come out admissible at every node, for any violation severity
    rng = np.random.default_rng(99)
    basis = build_basis(build_partition(-1, 1, 3), 6)
    for _ in range(300):
        coeffs = np.zeros((1, 3, 7, 3))
        rho = rng.uniform(0.01, 5.0)
        v = rng.uniform(-4.0, 4.0)
        p = rng.uniform(0.01, 5.0)
        coeffs[0, :, 0, :] = [rho, rho * v, p / 0.4 + 0.5 * rho * v * v]
        scale = rng.choice([0.1, 1.0, 10.0, 1000.0])
        coeffs[0, :, 1:, :] = scale * rng.standard_normal((3, 6, 3))
        limited, _ = apply_limiter(coeffs, basis, GAS)
        nodes = np.einsum("...kd,kq->...qd", limited, basis.phi)
        assert np.all(admissible_mask(nodes, GAS))


@st.composite
def limiter_blocks(draw):
    """Random (cells, element, K+1, 3) blocks with admissible means.

    Higher moments are uniform in +-amplitude times the mean's magnitude;
    amplitude 0 gives blocks that are admissible already.
    """
    basis = build_basis(
        build_partition(-1, 1, draw(st.integers(1, 3))), draw(st.integers(0, 5))
    )
    shape = (draw(st.integers(1, 4)), basis.n_elements)
    unit = st.floats(0.0, 1.0)
    mean = draw(hnp.arrays(float, shape + (3,), elements=unit))
    rho = 10.0 ** (2.0 * mean[..., 0] - 1.0)
    v = 4.0 * mean[..., 1] - 2.0
    p = 10.0 ** (2.0 * mean[..., 2] - 1.0)
    coeffs = np.empty(shape + (basis.n_coeffs, 3))
    coeffs[..., 0, :] = np.stack([rho, rho * v, p / 0.4 + 0.5 * rho * v * v], axis=-1)
    higher = draw(hnp.arrays(float, coeffs[..., 1:, :].shape, elements=unit))
    amplitude = draw(st.sampled_from((0.0, 0.01, 0.5, 3.0)))
    coeffs[..., 1:, :] = (
        amplitude * (2.0 * higher - 1.0) * np.abs(coeffs[..., :1, :]).max(axis=-1, keepdims=True)
    )
    return basis, coeffs


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(limiter_blocks())
def test_apply_limiter_properties(block):
    basis, coeffs = block
    limited, theta = apply_limiter(coeffs, basis, GAS)
    assert np.all(admissible_mask(basis.reconstruct(limited), GAS))
    np.testing.assert_array_equal(limited[..., 0, :], coeffs[..., 0, :])
    assert np.all((theta >= 0.0) & (theta <= 1.0))
    admissible = np.all(admissible_mask(basis.reconstruct(coeffs), GAS), axis=-1)
    assert np.all(theta[admissible] == 0.0)
    np.testing.assert_array_equal(limited[admissible], coeffs[admissible])
    # handed an array, the limiter leaves in it the node states of what it
    # returns, bit for bit a reconstruction of them; disabled, it reconstructs
    for config in (None, LimiterConfig(enabled=False)):
        nodes = np.full(coeffs.shape[:-2] + (basis.n_nodes, 3), np.nan)
        out, _ = apply_limiter(coeffs, basis, GAS, config, nodes=nodes)
        np.testing.assert_array_equal(out, limited if config is None else coeffs)
        np.testing.assert_array_equal(nodes, basis.reconstruct(out))


@pytest.mark.parametrize(
    "config, degree, calls_per_step",
    [
        (FilterConfig("l2", strength=0.01), 3, 1),
        (FilterConfig("exponential", strength=2.0, order=10, dt_scaled=False), 3, 1),
        (FilterConfig("exponential", strength=2.0, order=10, dt_scaled=True), 3, 2),
        (FilterConfig("exponential", strength=2.0, order=10, dt_scaled=True), 0, 1),
        (None, 3, 1),
        (FilterConfig("exponential", strength=0.0), 3, 1),
    ],
)
def test_run_sg_probes_only_when_filter_reads_dt(monkeypatch, config, degree, calls_per_step):
    # the probe limiter estimates dt for the filter exponent; only a
    # dt-scaled exponential filter above degree 0 reads it. The step uses
    # the node states each limiter call reconstructs: a call reconstructs
    # the cells it was given, then only its limited blocks, and nothing
    # else reconstructs. The first step and every step whose filter changed
    # the coefficients give the limiter the whole field; a run with no
    # filter, or with unit gains (strength 0 or degree 0), gives it, after
    # its first step, only the cells the last update changed
    import uqfv.sg as sg_mod

    calls, outside = [], []  # calls: (cells given, shapes reconstructed)
    current = [outside]
    reconstruct = GpcBasis.reconstruct

    def counting(coeffs, *args, **kwargs):
        calls.append((coeffs.shape, []))
        current[0] = calls[-1][1]
        try:
            return apply_limiter(coeffs, *args, **kwargs)
        finally:
            current[0] = outside

    def counting_reconstruct(self, coeffs, out=None):
        current[0].append(coeffs.shape)
        return reconstruct(self, coeffs, out)

    monkeypatch.setattr(sg_mod, "apply_limiter", counting)
    monkeypatch.setattr(GpcBasis, "reconstruct", counting_reconstruct)
    basis = build_basis(build_partition(-1, 1, 2), degree)
    grid = grid_1d(20, 0.0, 1.0)
    field = project_initial_data(sod_initial, grid, basis)
    outside.clear()
    result = run_sg(field, GAS, t_end=0.1, filter_config=config)
    assert result.stats.steps > 3
    assert len(calls) == calls_per_step * result.stats.steps
    assert outside == []
    for given, made in calls:
        # (cells..., L, K+1, d) given, then (limited blocks, K+1, d)
        assert made[0] == given and all(len(shape) == 3 for shape in made[1:])
    full = field.coeffs.shape
    given = [shape for shape, _ in calls]
    if config is None or config.strength == 0.0 or degree == 0:
        assert given[0] == full and all(shape[0] < full[0] for shape in given[1:])
    else:
        assert set(given) == {full}


@pytest.mark.parametrize(
    "config, degree",
    [
        (FilterConfig("exponential", strength=0.0), 3),
        (FilterConfig("l2", strength=0.0), 3),
        (FilterConfig("exponential", strength=2.0, order=10, dt_scaled=False), 0),
        (FilterConfig("l2", strength=0.01), 0),
    ],
)
def test_run_sg_unit_gain_filter_is_the_unfiltered_run(monkeypatch, config, degree):
    # a filter whose gains are all 1 returns the coefficients themselves, so
    # the run limits the cells the unfiltered run limits and keeps its bits
    import uqfv.sg as sg_mod

    def run(filter_config):
        blocks = []

        def counting(coeffs, *args, **kwargs):
            blocks.append(coeffs.shape[:-2])
            return apply_limiter(coeffs, *args, **kwargs)

        monkeypatch.setattr(sg_mod, "apply_limiter", counting)
        basis = build_basis(build_partition(-1, 1, 2), degree)
        field = project_initial_data(sod_initial, grid_1d(30, 0.0, 1.0), basis)
        return run_sg(field, GAS, t_end=0.1, filter_config=filter_config), blocks

    (plain, plain_blocks), (filtered, filtered_blocks) = run(None), run(config)
    assert filtered.stats.steps == plain.stats.steps > 3
    assert filtered_blocks == plain_blocks
    assert plain_blocks[1][0] < 30  # after step 0 the limiter sees a window
    np.testing.assert_array_equal(filtered.field.coeffs, plain.field.coeffs)


def test_run_sg_repeats_bit_for_bit_in_one_process():
    # each run holds its own workspace: a second run, after buffers of the
    # first were freed and the heap reused, gives the same coefficients
    basis = build_basis(build_partition(-1, 1, 3), 4)
    field = project_initial_data(sod_initial, grid_1d(50, 0.0, 1.0), basis)
    first = run_sg(field, GAS, t_end=0.1)
    second = run_sg(field, GAS, t_end=0.1)
    assert first.stats.steps == second.stats.steps > 3
    np.testing.assert_array_equal(first.field.coeffs, second.field.coeffs)


@pytest.mark.parametrize("shape, d", [((16,), 3), ((5, 4), 4)])
def test_apply_limiter_batch_invariant(shape, d):
    # apply_limiter limits only blocks with an inadmissible node; each block
    # limited alone must match the whole-field call bit for bit, and theta-0
    # blocks stay untouched
    rng = np.random.default_rng(len(shape))
    basis = build_basis(build_partition(-1, 1, 3), 4)
    coeffs = np.zeros(shape + (3, basis.n_coeffs, d))
    rho = rng.uniform(0.2, 2.0, shape + (3,))
    vel = rng.uniform(-1.0, 1.0, shape + (3, d - 2))
    p = rng.uniform(0.2, 2.0, shape + (3,))
    coeffs[..., 0, 0] = rho
    coeffs[..., 0, 1:-1] = rho[..., None] * vel
    coeffs[..., 0, -1] = p / 0.4 + 0.5 * rho * np.sum(vel * vel, axis=-1)
    coeffs[..., 1:, :] = 0.3 * rng.standard_normal(coeffs[..., 1:, :].shape)
    limited, theta = apply_limiter(coeffs, basis, GAS)
    assert 0 < np.count_nonzero(theta) < theta.size
    for index in np.ndindex(theta.shape):
        alone, theta_alone = apply_limiter(coeffs[index][None], basis, GAS)
        assert theta_alone[0] == theta[index]
        np.testing.assert_array_equal(alone[0], limited[index])
    np.testing.assert_array_equal(limited[theta == 0.0], coeffs[theta == 0.0])


def test_apply_limiter_error_names_global_index(monkeypatch):
    # only block (5, 1) is inadmissible; with the damping factor forced to 0
    # the re-check of the limited blocks fails, naming the node's index in
    # the whole field, not in the subset of limited blocks
    import uqfv.sg as sg_mod

    basis = build_basis(build_partition(-1, 1, 2), 3)
    coeffs = np.zeros((8, 2, 4, 3))
    coeffs[..., 0, :] = SOD_L
    coeffs[5, 1, 1, 0] = 2.0
    bad_nodes = np.argwhere(~admissible_mask(basis.reconstruct(coeffs), GAS))
    assert set(map(tuple, bad_nodes[:, :2])) == {(5, 1)}
    monkeypatch.setattr(sg_mod, "_theta_raw", lambda nodes, means: np.zeros(len(nodes)))
    index = tuple(map(int, bad_nodes[0]))
    message = f"^reconstruction still inadmissible after limiting at index {re.escape(str(index))}$"
    with pytest.raises(LimiterError, match=message) as info:
        apply_limiter(coeffs, basis, GAS)
    assert info.value.index == index


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("error", [InadmissibleStateError, LimiterError])
def test_run_sg_limiter_error_names_the_grid_index(monkeypatch, ndim, error):
    # after the second update one block inside the last piece is made
    # inadmissible: its cell mean, or (with the damping factor forced to 0)
    # one of its nodes. The next limiter call sees only the pieces, but the
    # error names the block's index in the grid, not in its piece
    import uqfv.sg as sg_mod

    basis = build_basis(build_partition(-1, 1, 2), 2)
    if ndim == 1:
        grid = grid_1d(20, 0.0, 1.0)
        field = project_initial_data(lambda x, xi: sod_initial(x, xi, sigma=0.0), grid, basis)
    else:
        # the y-pieces hold the columns on each side of the x-window
        grid = grid_2d(10, 8)
        left, right = np.array([1.0, 0.0, 0.0, 2.5]), np.array([0.125, 0.0, 0.0, 0.25])

        def half_plane(x, y, xi):
            x, y, _ = np.broadcast_arrays(x, y, xi)
            return np.where(((x < 0.5) & (y < 0.5))[..., None], left, right)

        field = project_initial_data(half_plane, grid, basis)
    if error is InadmissibleStateError:
        hit = oracles.corrupt_after_update(monkeypatch, sg_mod, grid, (1, 0, 0), -1.0)
    else:
        monkeypatch.setattr(sg_mod, "_theta_raw", lambda nodes, means: np.zeros(len(nodes)))
        hit = oracles.corrupt_after_update(monkeypatch, sg_mod, grid, (1, 1, 0), 5.0)
    with pytest.raises(error) as info:
        run_sg(field, GAS, 1.0, max_steps=5)
    ((cell, block),) = hit
    if error is InadmissibleStateError:
        index = cell + (1,)
        message = f"inadmissible cell mean at (cells..., element) index {index}"
    else:
        # the re-check fails first at the block's first inadmissible node
        node = int(np.argmin(admissible_mask(basis.reconstruct(block), GAS)))
        index = cell + (1, node)
        message = f"reconstruction still inadmissible after limiting at index {index}"
    assert info.value.index == index
    assert str(info.value) == f"step 2: {message}"
