"""The benchmark calls uqfv from outside; the names and call shapes it uses must hold.

``bench/layers.py`` wraps module-level names (``uqfv.sg.apply_limiter``,
``uqfv.ipm._dual_eval``, ...) by ``getattr``, and ``bench/workloads.py``
passes keywords (``flux=``, ``threads=``) that no solver test passes; a
refactor that drops or moves one of them breaks ``bench/run.py`` without
failing any solver test.
"""

import inspect
import sys
from pathlib import Path

import numpy as np

import uqfv

# appended, not prepended: bench/conftest.py must not shadow tests/conftest.py
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402


def test_every_traced_name_exists():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in layers.hooks(layers.library_api())
        if not hasattr(owner, attr)
    ]
    assert missing == []


def test_bench_call_shapes_bind():
    # the positional counts and keywords of the calls in bench/workloads.py
    x = object()
    calls = [
        (uqfv.run_ipm, 3, ("cfl", "flux", "newton", "initial_duals", "threads")),
        (uqfv.run_sg, 3, ("cfl", "flux", "filter_config")),
        (uqfv.solve_duals, 6, ()),
        (uqfv.sod_reference_on_grid, 9, ()),
        (uqfv.collocation_reference, 4, ("cfl", "n_nodes", "flux", "threads")),
    ]
    for fn, positional, keywords in calls:
        inspect.signature(fn).bind(*[x] * positional, **dict.fromkeys(keywords, x))


def test_solve_duals_result_has_the_fields_bench_reads():
    # bench/workloads.py unpacks ``lam, stats``; bench/layers.py reads these stats
    gas = uqfv.GasModel(1.4)
    basis = uqfv.build_basis(uqfv.build_partition(-1.0, 1.0, 2), 1)
    moments = np.zeros((3, 2, 2, 3))
    moments[..., 0, :] = [1.0, 0.0, 2.5]
    lam, stats = uqfv.solve_duals(moments, np.zeros_like(moments), basis, gas)
    assert lam.shape == moments.shape
    assert stats.iterations >= 0
    assert stats.max_iterations_single >= 0
    assert stats.max_residual <= uqfv.NewtonConfig().tol
    assert stats.per_problem_iterations.shape == (3, 2)


def test_every_step_calls_the_traced_flux(monkeypatch):
    # the trace's fv.flux_div layer wraps sg.moment_flux_divergence and
    # ipm.moment_flux_divergence: each step of either solver must call it once
    gas = uqfv.GasModel(1.4)
    basis = uqfv.build_basis(uqfv.build_partition(-1.0, 1.0, 2), 2)
    grid = uqfv.grid_1d(16, 0.0, 1.0)

    def sod(x, xi):
        return np.where((x < 0.5 + 0.05 * xi)[..., None], [1.0, 0.0, 2.5], [0.125, 0.0, 0.25])

    field = uqfv.project_initial_data(sod, grid, basis)
    for module, run in ((uqfv.sg, uqfv.run_sg), (uqfv.ipm, uqfv.run_ipm)):
        calls, flux = [], module.moment_flux_divergence

        def counting_flux(*args, flux=flux, calls=calls, **kwargs):
            calls.append(1)
            return flux(*args, **kwargs)

        monkeypatch.setattr(module, "moment_flux_divergence", counting_flux)
        result = run(field, gas, 1.0, max_steps=4)
        assert result.stats.steps == 4
        assert len(calls) == 4, module.__name__
