"""Multi-element entropy-closure moment method (dual-variable formulation).

The unknown per (cell, element) is the coefficient block of the entropic
variable; conserved states are recovered through the inverse entropy-gradient
map, which keeps every reconstructed state admissible by construction. Each
time step advances the carried moments with fluxes evaluated on those mapped
states, then re-solves the dual problems so the entropic expansion matches
the new moments.

The dual problems over all (cell, element) pairs are independent; they are
solved as batched Newton iterations (with per-problem backtracking line
search) over equal chunks whose bounds depend on the problem count only, so
results are bit-identical under any solve order and worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import GpcBasis
from .euler import (
    GasModel,
    SolverError,
    _dual_eval,
    _dual_to_state_unchecked,
    _require,
    admissible_mask,
    dual_range_mask,
    entropy_gradient,
)
from .fv import (  # the benchmark's trace wraps cfl_time_step here, though no step calls it
    MomentField,
    RunResult,
    RunStats,
    _check_flux,
    _timed,
    _window_update,
    cfl_time_step,  # noqa: F401
    integrate,
    moment_flux_divergence,
)

__all__ = [
    "NewtonConfig",
    "DualSolveError",
    "solve_duals",
    "initial_duals_from_states",
    "run_ipm",
]

# most problems per batched-solve chunk; chunks depend on the problem count
# only, so results do not depend on threads
_CHUNK = 2048


class DualSolveError(SolverError, RuntimeError):
    """Newton solve for the dual variables failed."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping rule for the dual solves.

    ``tol`` bounds the max-norm of the moment residual; backtracking halves
    the step at most ``max_halvings`` times per iteration.
    """

    tol: float = 1e-7
    max_iter: int = 100
    max_halvings: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"newton tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"newton max_iter must be >= 1, got {self.max_iter}")
        if self.max_halvings < 0:
            raise ValueError(f"newton max_halvings must be >= 0, got {self.max_halvings}")


@dataclass
class DualSolveStats:
    """Aggregate and per-(cell, element) convergence metadata of one solve,
    and the node states of its duals."""

    iterations: int = 0
    max_residual: float = 0.0
    max_iterations_single: int = 0
    per_problem_iterations: np.ndarray | None = None
    per_problem_residuals: np.ndarray | None = None
    # states mapped from the returned duals, (cells..., element, Q, d)
    node_states: np.ndarray | None = None


def _newton_matrix(basis: GpcBasis, jac: np.ndarray, rows) -> np.ndarray:
    """Newton matrices sum_q w_q phi_k(q) phi_j(q) jac_q[a, b] of ``rows`` of a (P, Q, d, d) batch.

    One batched matmul gives (rows, a b, k j); one copy puts each matrix in
    the (k a, j b) order of the unknowns, the (K+1, d) layout of the duals.
    The gathered rows are a temporary, freed before that copy. A non-finite
    Jacobian gives a non-finite matrix, which the solve reports.
    """
    _, q, d, _ = jac.shape
    k1 = basis.n_coeffs
    w2 = np.einsum("kq,jq,q->qkj", basis.phi, basis.phi, basis.rule.weights).reshape(q, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.matmul(jac[rows].reshape(-1, q, d * d).transpose(0, 2, 1), w2)
    return prod.reshape(-1, d, d, k1, k1).transpose(0, 3, 1, 4, 2).reshape(-1, k1 * d, k1 * d)


def _solve_batch(
    lam, moments, states, basis: GpcBasis, gas: GasModel, cfg: NewtonConfig, shape, offset=0
):
    """Newton with line search on a (P, K+1, d) batch; modifies lam and states in place.

    ``states`` holds the node states of lam, which is in the dual range at
    every node. They set the starting residuals; only the problems above tol
    are evaluated, and every trial goes through ``evaluate``, one map
    evaluation each. The solve keeps the node states, Jacobian, objective and
    residual of each problem's current iterate, so an accepted trial is never
    evaluated again. Returns the iterations and residual max-norms per problem.
    """
    w = basis.rule.weights
    n_prob, k1, d = lam.shape
    n = k1 * d
    iters = np.zeros(n_prob, dtype=np.int64)

    def where(p):
        return tuple(map(int, np.unravel_index(p + offset, shape)))

    def require(ok, message):
        """Raise DualSolveError at the first active problem where ``ok`` is False;
        its (cells..., element) index fills the message's {index} and is ``index``."""
        if not np.all(ok):
            p = active[np.argmin(ok)]
            error = DualSolveError(message.format(index=where(p), residual=rn[p]))
            error.index = where(p)
            raise error from None

    def residual(u, mom):
        """The moment residual mom - project(u) and its max-norm; a non-finite norm reads inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            res = mom - basis.project(u)
        rn = np.max(np.abs(res.reshape(-1, n)), axis=1)
        return res, np.where(np.isfinite(rn), rn, np.inf)

    def evaluate(duals, duals_nodes, mom):
        """(u, jac, obj, res, rn) at in-range duals: the node states, the map's
        Jacobian, the dual objective s* . w - duals . mom (inf if not finite),
        and the residual."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u, sstar, jac = _dual_eval(duals_nodes, gas)
            obj = sstar @ w - np.einsum("pkd,pkd->p", duals, mom)
        return (u, jac, np.where(np.isfinite(obj), obj, np.inf), *residual(u, mom))

    # jac and obj are read only where Newton runs
    u = states
    res, rn = residual(u, moments)
    active = np.flatnonzero(rn > cfg.tol)
    jac = np.empty(u.shape + (d,))
    obj = np.empty(n_prob)
    _, jac[active], obj[active], _, _ = evaluate(
        lam[active], basis.reconstruct(lam[active]), moments[active]
    )

    while active.size:
        require(
            iters[active] < cfg.max_iter,
            "dual solve at (cells..., element) {index} "
            f"did not reach tol={cfg.tol:g} within {cfg.max_iter} iterations "
            "(residual {residual:.3e})",
        )
        # the matrices, an iteration's largest array, are freed before the line search
        try:
            delta = np.linalg.solve(
                _newton_matrix(basis, jac, active), res[active].reshape(active.size, n, 1)
            )
        except np.linalg.LinAlgError:
            # slogdet factors each matrix as solve does; sign 0 marks a singular one
            sign = np.linalg.slogdet(_newton_matrix(basis, jac, active))[0]
            require(sign != 0.0, "singular Newton matrix at (cells..., element) {index}")
            raise
        require(
            np.all(np.isfinite(delta.reshape(active.size, -1)), axis=1),
            "non-finite Newton direction at (cells..., element) {index}",
        )
        delta = delta.reshape(active.size, k1, d)

        step = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        for _ in range(cfg.max_halvings + 1):
            todo = np.flatnonzero(~accepted)
            if todo.size == 0:
                break
            cand = lam[active[todo]] + step[todo, None, None] * delta[todo]
            cand_nodes = basis.reconstruct(cand)
            inside = np.all(dual_range_mask(cand_nodes, gas), axis=-1)
            step[todo[~inside]] *= 0.5
            todo, cand = todo[inside], cand[inside]
            rows = active[todo]
            t_u, t_jac, t_obj, t_res, t_rn = evaluate(cand, cand_nodes[inside], moments[rows])
            # objective decrease governs globally; near roundoff that decrease
            # is unresolvable while the residual norm still falls along the
            # SPD-Hessian Newton direction
            ok = (t_obj <= obj[rows]) | (t_rn <= rn[rows])
            step[todo[~ok]] *= 0.5
            accepted[todo[ok]] = True
            rows = rows[ok]
            lam[rows], u[rows], jac[rows], obj[rows], res[rows], rn[rows] = (
                cand[ok], t_u[ok], t_jac[ok], t_obj[ok], t_res[ok], t_rn[ok]
            )
        require(accepted, "line search stalled at (cells..., element) {index}")
        iters[active] += 1
        active = active[rn[active] > cfg.tol]
    return iters, rn


def solve_duals(
    moments: np.ndarray,
    warm_start: np.ndarray,
    basis: GpcBasis,
    gas: GasModel,
    config: NewtonConfig | None = None,
    threads: int | None = None,
    *,
    warm_states: np.ndarray | None = None,
) -> tuple[np.ndarray, DualSolveStats]:
    """Dual coefficients matching the given moments, per (cell, element).

    ``moments`` and ``warm_start`` share the layout (cells..., element,
    K+1, component); every problem is solved independently. The P problems
    are split into ceil(P / _CHUNK) chunks of equal size (within one); the
    chunks depend on P only, and min(chunks, ``threads`` or the usable CPUs)
    workers share them out, so results do not depend on the worker count.
    An empty batch returns empty duals.

    Every solve starts from the node states of its start duals: from
    ``warm_states``, which must be the states of ``warm_start``, or else from
    ``dual_node_states`` of the start, where a start outside the dual range
    first takes the constant entropic ansatz of its mean. Only the problems
    the states leave above tol are evaluated and iterated. The returned stats
    carry ``node_states``, the states of the returned duals, equal to
    ``dual_node_states`` of them; passed back as ``warm_states`` with those
    duals as ``warm_start``, they spare the next solve mapping the duals of
    problems its moments still match.
    """
    if config is None:
        config = NewtonConfig()
    moments = np.asarray(moments, dtype=float)
    shape = moments.shape[:-2]
    d = moments.shape[-1]
    lam = np.array(warm_start, dtype=float).reshape((-1,) + moments.shape[-2:])
    mom = moments.reshape(lam.shape)
    n_prob = lam.shape[0]
    if warm_states is None:
        bad = ~np.all(dual_range_mask(basis.reconstruct(lam), gas), axis=-1)
        _require(
            (~bad | admissible_mask(mom[:, 0, :], gas)).reshape(shape),
            DualSolveError,
            "unrealizable moments: inadmissible cell mean at (cells..., element) {index}",
        )
        lam[bad] = 0.0
        lam[bad, 0, :] = entropy_gradient(mom[bad, 0, :], gas)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            warm_states = dual_node_states(lam.reshape(moments.shape), basis, gas)
    states = np.array(warm_states, dtype=float).reshape(n_prob, basis.n_nodes, d)
    n_chunks = -(-n_prob // _CHUNK)
    chunks = [
        slice(i * n_prob // n_chunks, (i + 1) * n_prob // n_chunks)
        for i in range(n_chunks)
    ]
    iters = np.zeros(n_prob, dtype=np.int64)
    res = np.zeros(n_prob)

    def work(sl):
        iters[sl], res[sl] = _solve_batch(
            lam[sl], mom[sl], states[sl], basis, gas, config, shape, sl.start
        )

    workers = min(len(chunks), _usable_cpus() if threads is None else threads)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, chunks))
    else:
        for sl in chunks:
            work(sl)
    stats = DualSolveStats(
        iterations=int(iters.sum()),
        max_residual=float(res.max(initial=0.0)),
        max_iterations_single=int(iters.max(initial=0)),
        per_problem_iterations=iters.reshape(shape),
        per_problem_residuals=res.reshape(shape),
        node_states=states.reshape(shape + states.shape[1:]),
    )
    return lam.reshape(moments.shape), stats


def initial_duals_from_states(node_states: np.ndarray, basis: GpcBasis, gas: GasModel) -> np.ndarray:
    """Projection of the entropy gradient of initial node states onto the basis."""
    return basis.project(entropy_gradient(node_states, gas))


def dual_node_states(duals: np.ndarray, basis: GpcBasis, gas: GasModel) -> np.ndarray:
    """Admissible states mapped from the entropic expansion at the quadrature nodes."""
    lam_nodes = basis.reconstruct(duals)
    _require(
        dual_range_mask(lam_nodes, gas),
        DualSolveError,
        "entropic variable leaves the dual range at a quadrature node, "
        "at (cells..., element, node) index {index}",
    )
    return _dual_to_state_unchecked(lam_nodes, gas)


def run_ipm(
    initial: MomentField,
    gas: GasModel,
    t_end: float,
    cfl: float = 0.9,
    flux: str = "hll",
    newton: NewtonConfig | None = None,
    initial_duals: np.ndarray | None = None,
    threads: int | None = None,
    max_steps: int | None = None,
) -> RunResult:
    """Time loop of the multi-element entropy-closure moment method.

    Per step: advance the carried moments with the FV update on the node
    states of the current duals, then re-solve the duals warm-started from
    the previous step. Each solve returns the node states of its duals; the
    flux takes them as they are, and the next solve takes them with the
    duals as its warm start. ``initial_duals`` seeds the first solve, made
    in step 0. Without it the solve starts from zero duals, which it
    replaces by the constant entropic ansatz of each cell mean. ``threads``
    goes to ``solve_duals``, and ``flux`` accepts only ``"hll"``. The CFL
    scan, the flux and the projection (``moment_flux_divergence``) and the
    update (``fv._window_update``) run on the flux windows alone, with the
    bits of the full-grid step; the step's workspace is freed before the
    dual solve.
    """
    _check_flux(flux)
    grid, basis = initial.grid, initial.basis
    mom = initial.coeffs.copy()
    lam = nodes = None

    def solve(stats: RunStats, warm: np.ndarray, warm_states=None) -> tuple:
        with _timed(stats, "dual_solve_s"):
            duals, dstats = solve_duals(
                mom, warm, basis, gas, newton, threads, warm_states=warm_states
            )
        stats.newton_iterations += dstats.iterations
        stats.newton_max_residual = max(stats.newton_max_residual, dstats.max_residual)
        return duals, dstats.node_states

    def step(stats: RunStats, dt_max: float) -> float:
        nonlocal mom, lam, nodes
        if lam is None:
            lam, nodes = solve(
                stats, np.zeros_like(mom) if initial_duals is None else initial_duals
            )
        with _timed(stats, "flux_s"):
            # no name holds the divergence, so its workspace is freed before the solve
            dt = _window_update(
                mom, moment_flux_divergence(nodes, grid, basis, gas), grid, cfl, dt_max
            )
        lam, nodes = solve(stats, lam, nodes)
        return dt

    stats = integrate(step, t_end, max_steps)
    return RunResult(field=MomentField(grid, basis, mom), stats=stats)
