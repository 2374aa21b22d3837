"""Hard inputs: Toro's test 3 through the runner, a single cell, and Toro's 123 problem.

Toro's test 3 (Riemann Solvers and Numerical Methods for Fluid Dynamics,
3rd ed., section 4.3.3) starts from a left pressure 10^5 times the right one:
rho 1/1, e 2500/0.025, t_end 0.012, with the uncertain interface of the
sod_1d preset. Each probe asserts that the run completes, that its final
node states are admissible, and that errE_rho against the exact reference
stays within 10% of the value measured when the probe was added.

Toro's 123 problem (test 2 of the same section) pulls two rarefactions
apart from rho 1, p 0.4 at velocities -2 | +2, which leaves a near-vacuum
between them; at -3 | +3 the smallest final node density falls to about
0.01. With the uncertain interface 0.5 + 0.05 xi on 100 cells up to
t = 0.1, ``run_sg``, ``run_ipm`` and ``collocation_reference`` must each
complete with admissible final node states below a density of 0.1.
"""

import numpy as np
import pytest

from uqfv import riemann, runner
from uqfv.basis import build_basis, build_partition
from uqfv.config import parse_config
from uqfv.euler import GasModel, admissible_mask
from uqfv.fv import grid_1d
from uqfv.ipm import dual_node_states, solve_duals
from uqfv.problems import project_initial_data
from uqfv.sg import apply_limiter

GAS = GasModel(1.4)
TORO_3 = (
    "[problem]\npreset = sod_1d\nrho_l = 1.0\ne_l = 2500\nrho_r = 1.0\ne_r = 0.025\n"
    "[grid]\nnx = {nx}\n[method]\nname = {method}\nt_end = 0.012\n"
    "[output]\nreference = exact_sod\n"
)
FILTER = "[filter]\nkind = exponential\nstrength = 2.0\norder = 10\ndt_scaled = false\n"
CC_4 = "quadrature = clenshaw-curtis\ncc_level = 4\n"


def _basis(n_elements: int, degree: int, extra: str = "") -> str:
    return f"[basis]\nn_elements = {n_elements}\ndegree = {degree}\n{extra}"


# name: (method, extra sections, cells, errE_rho measured at those cells).
# IPM 1x14 runs 25 cells, half the others' count, on which the uncertain
# interface band (width 0.1) still spans 2.5 cells.
PROBES = {
    "me_hsg": ("me_hsg", _basis(3, 4), 50, 0.1777),
    "me_fhsg": ("me_fhsg", _basis(3, 4) + FILTER, 50, 0.1779),
    "me_ipm": ("me_ipm", _basis(3, 4), 50, 0.1825),
    "ipm_1x14": ("ipm", _basis(1, 14), 25, 0.2645),
    "collocation": ("collocation", "", 50, 0.1783),
    "me_hsg_degree_0": ("me_hsg", _basis(3, 0), 50, 0.1619),
    "me_ipm_degree_0": ("me_ipm", _basis(3, 0), 50, 0.1619),
    "me_hsg_cc_4": ("me_hsg", _basis(3, 4, CC_4), 50, 0.1761),
    "me_ipm_cc_4": ("me_ipm", _basis(3, 4, CC_4), 50, 0.1810),
}
# every probe measured the same error on one cell
SINGLE_CELL_ERR = 0.1145


@pytest.fixture
def final_node_states(monkeypatch):
    """The node states each solve the runner makes would hand the flux next."""
    found = []
    run_sg, run_ipm, solve = runner.run_sg, runner.run_ipm, riemann.deterministic_solve

    def sg_run(field, gas, *args, **kwargs):
        result = run_sg(field, gas, *args, **kwargs)
        f = result.field
        limited, _ = apply_limiter(f.coeffs, f.basis, gas, kwargs.get("limiter_config"))
        found.append(f.basis.reconstruct(limited))
        return result

    def ipm_run(field, gas, *args, **kwargs):
        result = run_ipm(field, gas, *args, **kwargs)
        f = result.field
        duals, _ = solve_duals(f.coeffs, np.zeros_like(f.coeffs), f.basis, gas, kwargs.get("newton"))
        found.append(dual_node_states(duals, f.basis, gas))
        return result

    def deterministic_solve(*args, **kwargs):
        states, stats = solve(*args, **kwargs)
        found.append(states)
        return states, stats

    monkeypatch.setattr(runner, "run_sg", sg_run)
    monkeypatch.setattr(runner, "run_ipm", ipm_run)
    monkeypatch.setattr(riemann, "deterministic_solve", deterministic_solve)
    return found


def _probe(tmp_path, final_node_states, name, nx):
    method, extra, _, _ = PROBES[name]
    report = runner.run(parse_config(TORO_3.format(nx=nx, method=method) + extra), tmp_path)
    assert report.output_files["errors_csv"].exists()
    assert final_node_states
    for states in final_node_states:
        assert np.all(admissible_mask(states, GAS))
    return report.errors["errE_rho"]


@pytest.mark.parametrize("name", PROBES)
def test_toro_3(tmp_path, final_node_states, name):
    _, _, nx, measured = PROBES[name]
    assert _probe(tmp_path, final_node_states, name, nx) <= 1.1 * measured


@pytest.mark.parametrize("name", PROBES)
def test_toro_3_single_cell(tmp_path, final_node_states, name):
    assert _probe(tmp_path, final_node_states, name, 1) <= 1.1 * SINGLE_CELL_ERR


def _toro_123(speed):
    """Toro's 123 data at velocities -speed | +speed across x = 0.5 + 0.05 xi."""

    def initial(x, xi):
        v = np.where(x < 0.5 + 0.05 * np.asarray(xi), -speed, speed)
        return np.stack(np.broadcast_arrays(1.0, v, 0.4 / (GAS.gamma - 1.0) + 0.5 * v * v), -1)

    return initial


@pytest.mark.parametrize("solver", ["run_sg", "run_ipm", "collocation_reference"])
@pytest.mark.parametrize("speed", [2.0, 3.0])
def test_toro_123_near_vacuum(final_node_states, solver, speed):
    initial, grid = _toro_123(speed), grid_1d(100, 0.0, 1.0)
    if solver == "collocation_reference":
        riemann.collocation_reference(initial, grid, GAS, 0.1)
    else:
        field = project_initial_data(initial, grid, build_basis(build_partition(-1, 1, 3), 4))
        getattr(runner, solver)(field, GAS, 0.1)
    assert final_node_states
    for states in final_node_states:
        assert np.all(admissible_mask(states, GAS))
    assert min(states[..., 0].min() for states in final_node_states) < 0.1
