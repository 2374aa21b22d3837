"""Multi-element entropy-closure moment method (dual-variable formulation).

The unknown per (cell, element) is the coefficient block of the entropic
variable; conserved states are recovered through the inverse entropy-gradient
map, which keeps every reconstructed state admissible by construction. Each
time step advances the carried moments with fluxes evaluated on those mapped
states, then re-solves the dual problems so the entropic expansion matches
the new moments.

The dual problems over all (cell, element) pairs are independent; they are
solved as batched Newton iterations (with per-problem backtracking line
search) over round-robin batches of at most ``_CHUNK`` problems. A
problem's result does not depend on its batch, so results are bit-identical
under any solve order and worker count. After the first step only the cells
the last update changed are solved again: elsewhere the moments, duals and
states keep their bits, and the last solve left them within tol.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

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
    _grid_index,
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

# most problems per batch: it bounds the Newton temporaries each worker holds
_CHUNK = 1024


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


@lru_cache(maxsize=8)
def _hessian_weights(basis: GpcBasis) -> np.ndarray:
    """The (Q, (K+1)^2) table w_q phi_k(q) phi_j(q), made once per basis, on first use."""
    phi, w = basis.phi, basis.rule.weights
    table = np.einsum("kq,jq,q->qkj", phi, phi, w).reshape(w.size, -1)
    table.setflags(write=False)  # every call shares it
    return table


def _newton_matrix(basis: GpcBasis, jac: np.ndarray) -> np.ndarray:
    """Newton matrices sum_q w_q phi_k(q) phi_j(q) jac_q[a, b] of a (P, Q, d, d) batch.

    One batched matmul over a view of ``jac`` gives (P, a b, k j); one copy
    puts each matrix in the (k a, j b) order of the unknowns, the (K+1, d)
    layout of the duals. A non-finite Jacobian gives a non-finite matrix,
    which the solve reports.
    """
    _, q, d, _ = jac.shape
    k1 = basis.n_coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.matmul(jac.reshape(-1, q, d * d).transpose(0, 2, 1), _hessian_weights(basis))
    return prod.reshape(-1, d, d, k1, k1).transpose(0, 3, 1, 4, 2).reshape(-1, k1 * d, k1 * d)


def _solve_batch(
    lam, moments, states, rows, basis: GpcBasis, gas: GasModel, cfg: NewtonConfig, shape
):
    """Newton with line search on the problems ``rows`` of the flat (P, K+1, d)
    arrays; modifies lam and states in place.

    ``states`` holds the node states of lam, which is in the dual range at
    every node. They set the starting residuals of the rows; only the
    problems above tol are gathered and evaluated, and every trial goes
    through ``evaluate``, one map evaluation each. The problems still
    iterating keep the duals, moments, node states, Jacobian, objective and
    residual of their iterate in compact arrays, so an accepted trial is
    never evaluated again. One that converges writes its duals, states and
    residual back to its row; the rest move up in place, in the arrays the
    first evaluation made, not into new ones. Errors name the row's index
    in ``shape``.
    Returns the iterations and residual max-norms of the rows.
    """
    iters = np.zeros(len(rows), dtype=np.int64)

    def require(ok, message):
        """Raise DualSolveError at the first active problem where ``ok`` is False;
        its (cells..., element) index fills the message's {index} and is ``index``."""
        if not np.all(ok):
            i = np.argmin(ok)
            index = tuple(map(int, np.unravel_index(rows[active[i]], shape)))
            error = DualSolveError(message.format(index=index, residual=rn[i]))
            error.index = index
            raise error from None

    def residual(u, mom):
        """The moment residual mom - project(u) and its max-norm; a non-finite norm reads inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            res = mom - basis.project(u)
        rn = np.max(np.abs(res), axis=(1, 2))
        return res, np.where(np.isfinite(rn), rn, np.inf)

    def evaluate(duals, duals_nodes, mom):
        """(u, jac, obj, res, rn) at in-range duals: the node states, the map's
        Jacobian, the dual objective s* . w - duals . mom (inf if not finite),
        and the residual."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u, sstar, jac = _dual_eval(duals_nodes, gas)
            obj = sstar @ basis.rule.weights - np.einsum("pkd,pkd->p", duals, mom)
        return (u, jac, np.where(np.isfinite(obj), obj, np.inf), *residual(u, mom))

    resid = residual(states[rows], moments[rows])[1]
    active = np.flatnonzero(resid > cfg.tol)
    x, mom = lam[rows[active]], moments[rows[active]]
    u, jac, obj, res, rn = evaluate(x, basis.reconstruct(x), mom)

    while active.size:
        require(
            iters[active] < cfg.max_iter,
            "dual solve at (cells..., element) {index} "
            f"did not reach tol={cfg.tol:g} within {cfg.max_iter} iterations "
            "(residual {residual:.3e})",
        )
        # the matrices, an iteration's largest array, are freed before the line search
        try:
            delta = np.linalg.solve(_newton_matrix(basis, jac), res.reshape(active.size, -1, 1))
        except np.linalg.LinAlgError:
            # slogdet factors each matrix as solve does; sign 0 marks a singular one
            sign = np.linalg.slogdet(_newton_matrix(basis, jac))[0]
            require(sign != 0.0, "singular Newton matrix at (cells..., element) {index}")
            raise
        delta = delta.reshape(x.shape)
        finite = np.isfinite(delta).all(axis=(1, 2))
        require(finite, "non-finite Newton direction at (cells..., element) {index}")

        step = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        for _ in range(cfg.max_halvings + 1):
            todo = np.flatnonzero(~accepted)
            if todo.size == 0:
                break
            cand = x[todo] + step[todo, None, None] * delta[todo]
            cand_nodes = basis.reconstruct(cand)
            inside = np.all(dual_range_mask(cand_nodes, gas), axis=-1)
            step[todo[~inside]] *= 0.5
            todo, cand = todo[inside], cand[inside]
            t_u, t_jac, t_obj, t_res, t_rn = evaluate(cand, cand_nodes[inside], mom[todo])
            # objective decrease governs globally; near roundoff that decrease
            # is unresolvable while the residual norm still falls along the
            # SPD-Hessian Newton direction
            ok = (t_obj <= obj[todo]) | (t_rn <= rn[todo])
            step[todo[~ok]] *= 0.5
            todo = todo[ok]
            accepted[todo] = True
            x[todo], u[todo], jac[todo], obj[todo], res[todo], rn[todo] = (
                cand[ok], t_u[ok], t_jac[ok], t_obj[ok], t_res[ok], t_rn[ok]
            )
        require(accepted, "line search stalled at (cells..., element) {index}")
        iters[active] += 1
        keep = rn > cfg.tol
        done, active = active[~keep], active[keep]
        lam[rows[done]], states[rows[done]], resid[done] = x[~keep], u[~keep], rn[~keep]
        for a in (x, mom, u, jac, obj, res, rn):
            a[: active.size] = a[keep]
        x, mom, u, jac, obj, res, rn = (a[: active.size] for a in (x, mom, u, jac, obj, res, rn))
    return iters, resid


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
    K+1, component); every problem is solved independently. W = min(
    ``threads`` or the usable CPUs, ceil(P / _CHUNK)) workers share out
    W ceil(P / (W _CHUNK)) batches of the P problems, and problem i goes to
    batch i mod that count, so a heavy side of the grid is spread over all
    batches. A problem's result does not depend on its batch, so results do
    not depend on the worker count. An empty batch returns empty duals.

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
    workers = min(_usable_cpus() if threads is None else threads, -(-n_prob // _CHUNK))
    workers = max(workers, 1)
    n_batches = workers * -(-n_prob // (workers * _CHUNK))
    iters = np.zeros(n_prob, dtype=np.int64)
    res = np.zeros(n_prob)

    def work(batch):
        rows = np.arange(batch, n_prob, n_batches)
        iters[rows], res[rows] = _solve_batch(lam, mom, states, rows, basis, gas, config, shape)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(n_batches)))
    else:
        for batch in range(n_batches):
            work(batch)
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
    dual solves.

    Step 0 solves the whole grid; every later step solves once per piece
    the update changed (a slab in 1D, up to three rectangles in 2D; its
    errors name grid indices) and writes the duals and states back. Other
    cells keep the bits of their moments, duals and states, so the
    residual there is the last solve's, at most tol, and a full-grid solve
    would not iterate them.
    """
    _check_flux(flux)
    grid, basis = initial.grid, initial.basis
    mom = initial.coeffs.copy()
    lam = nodes = None

    def solve(stats: RunStats, cells: tuple, warm: np.ndarray, warm_states=None) -> tuple:
        with _timed(stats, "dual_solve_s"), _grid_index(cells, DualSolveError):
            duals, dstats = solve_duals(
                mom[cells], warm, basis, gas, newton, threads, warm_states=warm_states
            )
        stats.newton_iterations += dstats.iterations
        stats.newton_max_residual = max(stats.newton_max_residual, dstats.max_residual)
        return duals, dstats.node_states

    def step(stats: RunStats, dt_max: float) -> float:
        nonlocal lam, nodes
        if lam is None:
            warm = np.zeros_like(mom) if initial_duals is None else initial_duals
            lam, nodes = solve(stats, (slice(None),), warm)
        with _timed(stats, "flux_s"):
            divergence = moment_flux_divergence(nodes, grid, basis, gas)
            region = [cells for cells, total in divergence[1] if total.size]
            dt = _window_update(mom, divergence, grid, cfl, dt_max)
            del divergence  # its workspace is freed before the solves
        for cells in region:
            lam[cells], nodes[cells] = solve(stats, cells, lam[cells], nodes[cells])
        return dt

    stats = integrate(step, t_end, max_steps)
    return RunResult(field=MomentField(grid, basis, mom), stats=stats)
