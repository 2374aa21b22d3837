"""The benchmark workloads: inputs drawn from the seed, timed bodies, checks.

Every workload uses HLL, CFL 0.9 and the default Newton tolerance. Seed 0
is the acceptance suite's Sod data (x0 = 0.5, sigma = 0.05); any other seed
draws x0 from [0.48, 0.52] and sigma from [0.04, 0.06]. References use the
same drawn values. README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import uqfv
from uqfv import (
    FieldStatistics,
    FilterConfig,
    GasModel,
    NewtonConfig,
    entropy_gradient_inverse,
    is_admissible,
)

GAS = GasModel(1.4)
CFL = 0.9
FLUX = "hll"
NEWTON = NewtonConfig()
XI_DOMAIN = (-1.0, 1.0)
SOD_LEFT = (1.0, 0.0, 2.5)
SOD_RIGHT = (0.125, 0.0, 0.25)
REF_NODES = 100
REF_SUBCELLS = 5

# acceptance bounds on E[rho]: criterion 5 (400 cells against the exact
# reference) and criterion 6 (ME-IPM against ME-hSG)
ERR_MEAN_BOUND = 0.05
IPM_VS_HSG_BOUND = 0.10


@dataclass(frozen=True)
class Inputs:
    seed: int
    x0: float
    sigma: float


def draw_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(0, 0.5, 0.05)
    rng = np.random.default_rng(seed)
    return Inputs(seed, float(rng.uniform(0.48, 0.52)), float(rng.uniform(0.04, 0.06)))


def sod_initial(inputs: Inputs, ndim: int):
    """Uncertain shock tube, interface at x0 + sigma * xi, carried along y in 2D."""
    left, right = np.array(SOD_LEFT), np.array(SOD_RIGHT)
    if ndim == 2:
        left, right = np.insert(left, 2, 0.0), np.insert(right, 2, 0.0)

    def initial(*coords):
        *space, xi = np.broadcast_arrays(*(np.asarray(c, float) for c in coords))
        mask = (space[0] < inputs.x0 + inputs.sigma * xi)[..., None]
        return np.where(mask, left, right)

    return initial


def exact_statistics(inputs: Inputs, nx: int, t_end: float) -> FieldStatistics:
    grid = uqfv.grid_1d(nx, 0.0, 1.0)
    return uqfv.sod_reference_on_grid(
        SOD_LEFT, SOD_RIGHT, GAS, grid, t_end, inputs.x0, inputs.sigma,
        REF_NODES, REF_SUBCELLS,
    )


def x_row(stats: FieldStatistics) -> FieldStatistics:
    """1D statistics of y-row 0 of a 2D field, components (rho, mx, E)."""
    nx = stats.grid.shape[0]
    comps = [0, 1, 3]
    return FieldStatistics(
        grid=uqfv.grid_1d(nx, *stats.grid.extents[0]),
        mean=stats.mean[:, 0][:, comps],
        variance=stats.variance[:, 0][:, comps],
    )


@dataclass(frozen=True)
class Method:
    key: str
    n_elements: int
    degree: int
    ipm: bool = False
    filter: FilterConfig | None = None
    threads: int = 1


ME_HSG = Method("me_hsg", 3, 4)
ME_FHSG = Method(
    "me_fhsg", 3, 4,
    filter=FilterConfig("exponential", strength=2.0, order=10, dt_scaled=False),
)
HSG = Method("hsg", 1, 14)
ME_IPM = Method("me_ipm", 3, 4, ipm=True)
IPM = Method("ipm", 1, 14, ipm=True)


@dataclass
class Record:
    """One solver or reference run of one repetition."""

    seconds: float
    err_mean_rho: float | None = None
    err_var_rho: float | None = None
    steps: int | None = None
    newton_iterations: int | None = None
    csv_path: object = None
    sha256: str | None = None  # of the CSV, filled in after the timed body
    # kept for the checks of the first repetition only
    result: object = None
    stats: FieldStatistics | None = None

    def signature(self) -> tuple:
        return (self.steps, self.newton_iterations, self.sha256)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SolverWorkload:
    """Intrusive solver runs on one grid, each followed by statistics and CSV."""

    def __init__(self, name, shape, t_end, methods):
        self.name = name
        self.shape = shape
        self.t_end = t_end
        self.methods = methods
        self.threads = max(m.threads for m in methods)

    def grid(self):
        if len(self.shape) == 1:
            return uqfv.grid_1d(self.shape[0], 0.0, 1.0)
        return uqfv.grid_2d(*self.shape)

    def setup(self, inputs: Inputs, api):
        """Bases, projected initial moments and initial duals, per method."""
        grid = self.grid()
        initial = sod_initial(inputs, len(self.shape))
        prepared = []
        for m in self.methods:
            basis = api.build_basis(uqfv.build_partition(*XI_DOMAIN, m.n_elements), m.degree)
            field = api.project_initial_data(initial, grid, basis)
            duals = None
            if m.ipm:
                nodes = api.initial_node_states(initial, grid, basis)
                duals = api.initial_duals_from_states(nodes, basis, GAS)
            prepared.append((m, field, duals))
        return prepared

    def check_data(self, inputs: Inputs, prepared) -> dict:
        """Untimed: the exact reference, and an ME-hSG run where ME-IPM runs alone."""
        data = {"exact": exact_statistics(inputs, self.shape[0], self.t_end)}
        keys = [m.key for m in self.methods]
        if "me_ipm" in keys and "me_hsg" not in keys:
            field = next(f for m, f, _ in prepared if m.key == "me_ipm")
            result = uqfv.run_sg(field, GAS, self.t_end, cfl=CFL, flux=FLUX)
            data["me_hsg"] = uqfv.field_statistics(result.field)
        return data

    def body(self, prepared, data, api, out_dir, checks, pause) -> dict:
        """Every method's run, statistics and CSV; ``pause()`` after each run."""
        records = {}
        for m, field, duals in prepared:
            start = perf_counter()
            if m.ipm:
                result = checks.run(
                    m.key, api.run_ipm, field, GAS, self.t_end, cfl=CFL, flux=FLUX,
                    newton=NEWTON, initial_duals=duals, threads=m.threads,
                )
            else:
                result = checks.run(
                    m.key, api.run_sg, field, GAS, self.t_end, cfl=CFL, flux=FLUX,
                    filter_config=m.filter,
                )
            seconds = perf_counter() - start
            if result is None:
                continue
            stats = api.field_statistics(result.field)
            path = out_dir / f"{m.key}.csv"
            api.write_csv(stats, path)
            compared = stats if len(self.shape) == 1 else x_row(stats)
            err_e, err_v = api.relative_errors(compared, data["exact"])
            records[m.key] = Record(
                seconds, float(err_e[0]), float(err_v[0]),
                steps=result.stats.steps,
                newton_iterations=result.stats.newton_iterations,
                csv_path=path, result=result, stats=stats,
            )
            pause()
        return records

    def check(self, records, prepared, data, checks):
        """Correctness of the first repetition's outputs."""
        for m, _, _ in prepared:
            rec = records.get(m.key)
            if rec is None:
                continue
            final = rec.result.field
            if m.ipm:
                checks.check(
                    f"{m.key} newton residual <= tol",
                    rec.result.stats.newton_max_residual <= NEWTON.tol,
                    f"{rec.result.stats.newton_max_residual:.3e}",
                )
                states = checks.run(f"{m.key} dual-mapped states", _dual_states, final, m)
                if states is not None:
                    checks.check(f"{m.key} dual-mapped states admissible", is_admissible(states, GAS))
            else:
                checks.check(
                    f"{m.key} node states admissible", is_admissible(final.node_states(), GAS)
                )
            if len(self.shape) == 2:
                invariant = all(
                    np.array_equal(a, np.broadcast_to(a[:, :1], a.shape))
                    for a in (rec.stats.mean, rec.stats.variance)
                )
                checks.check(f"{m.key} statistics invariant in y", invariant)
        hsg = records.get("me_hsg")
        if hsg is not None and len(self.shape) == 1:
            checks.check(
                f"me_hsg err_mean_rho <= {ERR_MEAN_BOUND}",
                hsg.err_mean_rho <= ERR_MEAN_BOUND, f"{hsg.err_mean_rho:.4f}",
            )
        ipm = records.get("me_ipm")
        if ipm is not None:
            hsg_stats = hsg.stats if hsg is not None else data.get("me_hsg")
            if hsg_stats is not None:
                if len(self.shape) == 2:
                    own, other = x_row(ipm.stats), x_row(hsg_stats)
                else:
                    own, other = ipm.stats, hsg_stats
                err_e, _ = uqfv.relative_errors(own, other)
                checks.check(
                    f"me_ipm within {IPM_VS_HSG_BOUND} of me_hsg (E[rho])",
                    err_e[0] <= IPM_VS_HSG_BOUND, f"{err_e[0]:.4f}",
                )


def _dual_states(field, method: Method) -> np.ndarray:
    """States the final moments map to, from duals solved afresh."""
    lam, stats = uqfv.solve_duals(
        field.coeffs, np.zeros_like(field.coeffs), field.basis, GAS, NEWTON, method.threads
    )
    if stats.max_residual > NEWTON.tol:
        raise RuntimeError(f"dual re-solve residual {stats.max_residual:.3e} > tol")
    lam_nodes = np.einsum("...kd,kq->...qd", lam, field.basis.phi)
    return entropy_gradient_inverse(lam_nodes, GAS)


class ReferenceWorkload:
    """The exact Sod reference on a fine grid and the collocation reference."""

    threads = 1

    def __init__(self, name, exact_nx, colloc_nx, t_end):
        self.name = name
        self.exact_nx = exact_nx
        self.colloc_nx = colloc_nx
        self.t_end = t_end

    def setup(self, inputs: Inputs, api):
        return (
            uqfv.grid_1d(self.exact_nx, 0.0, 1.0),
            uqfv.grid_1d(self.colloc_nx, 0.0, 1.0),
            sod_initial(inputs, 1),
            inputs,
        )

    def check_data(self, inputs: Inputs, prepared) -> dict:
        return {"exact": exact_statistics(inputs, self.colloc_nx, self.t_end)}

    def body(self, prepared, data, api, out_dir, checks, pause) -> dict:
        fine, coarse, initial, inputs = prepared
        records = {}
        start = perf_counter()
        exact = checks.run(
            "exact_ref", api.sod_reference_on_grid, SOD_LEFT, SOD_RIGHT, GAS, fine,
            self.t_end, inputs.x0, inputs.sigma, REF_NODES, REF_SUBCELLS,
        )
        seconds = perf_counter() - start
        if exact is not None:
            path = out_dir / "exact_ref.csv"
            api.write_csv(exact, path)
            records["exact_ref"] = Record(seconds, csv_path=path, stats=exact)
        pause()
        start = perf_counter()
        colloc = checks.run(
            "collocation", api.collocation_reference, initial, coarse, GAS, self.t_end,
            cfl=CFL, n_nodes=REF_NODES, flux=FLUX, threads=self.threads,
        )
        seconds = perf_counter() - start
        if colloc is not None:
            path = out_dir / "collocation.csv"
            api.write_csv(colloc, path)
            err_e, err_v = api.relative_errors(colloc, data["exact"])
            records["collocation"] = Record(
                seconds, float(err_e[0]), float(err_v[0]), csv_path=path, stats=colloc
            )
        pause()
        return records

    def check(self, records, prepared, data, checks):
        exact = records.get("exact_ref")
        if exact is not None:
            rho_mean = exact.stats.mean[:, 0]
            ok = (
                np.all(np.isfinite(exact.stats.mean))
                and np.all(exact.stats.variance >= 0.0)
                and rho_mean.min() >= SOD_RIGHT[0] - 1e-12
                and rho_mean.max() <= SOD_LEFT[0] + 1e-12
            )
            checks.check("exact_ref E[rho] within the data's density range", bool(ok))
        colloc = records.get("collocation")
        if colloc is not None:
            checks.check(
                f"collocation err_mean_rho <= {ERR_MEAN_BOUND}",
                colloc.err_mean_rho <= ERR_MEAN_BOUND, f"{colloc.err_mean_rho:.4f}",
            )


WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload("sod_sg", (400,), 0.14, (ME_HSG, ME_FHSG, HSG)),
        # 200 cells, not the acceptance suite's 400, so that one run holds
        # several repetitions: at 400 cells one took 14-19 s
        SolverWorkload("sod_ipm", (200,), 0.14, (ME_IPM, IPM)),
        ReferenceWorkload("references", 1600, 400, 0.14),
        SolverWorkload(
            "riemann2d", (48, 48), 0.1, (ME_HSG, Method("me_ipm", 3, 4, ipm=True, threads=2))
        ),
    )
}
