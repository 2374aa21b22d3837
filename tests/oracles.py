"""Self-contained reference implementations used only by the test suite.

Everything here is written independently of the package internals: Legendre
polynomials come from numpy.polynomial, limiter factors from companion-matrix
root finding, the Euler pressure, flux and wave speed and the element lookup
are written out as formulas, and the finite-volume stepping is spelled out
directly. These oracles define expected values; they deliberately avoid
reusing the code paths they check. The dual helpers at the end
(``dual_residual``, ``dual_hessian``, ``legendre_dual``) build on the entropy
and its Hessian, defined here, and on the package's gradient inverse, but take
another route than the solvers do. The flux-kernel helpers (``hll_expression``,
``flux_difference``, ``flux_divergence``) pin bits, not formulas: they spell
out the HLL flux as plain expressions, and compose the package's own pieces
into fresh arrays, in the operation order the buffered kernel must keep.
``hll`` calls the package's HLL kernel with the sides and buffers the
windowed flux would hand it.
``sod_reference_loop`` is the exact reference's loop over points, one
``sample`` call per point and one Gauss sum per piece, which
``sod_reference_statistics`` must match to round-off. It also counts the
pieces whose Gauss states vary: the fan pieces, which alone take Gauss nodes
in ``sod_reference_statistics``.
``full_grid_step`` and ``full_grid_row_step`` pin bits for the time
loops' steps: the full-grid CFL scan (``cfl_time_step``, or the rows' maxima
of ``max_wave_speed``), and the update of every cell from
``flux_divergence`` or ``flux_difference``, which the windowed steps of
``run_sg``, ``run_ipm`` and ``deterministic_solve`` must match.
``full_grid_ipm_step`` adds a dual solve of the whole grid to
``full_grid_step``, which ``run_ipm``'s solves of the changed pieces must
match.
``zero_filled`` spreads a windowed result, such as the (cells, values)
pieces of ``moment_flux_divergence``, over every cell, so it can be
compared with them. ``assert_same_bits`` compares arrays bit for bit, and
``corrupt_after_update`` plants a bad block inside a piece of an update,
for the located errors of the solvers that work on pieces.
"""

import numpy as np

from uqfv.euler import (
    InadmissibleStateError,
    _flux_and_speeds,
    _internal_energy,
    entropy_gradient_inverse,
    is_admissible,
)
from uqfv.fv import _cfl_steps, _hll_unchecked, _Workspace, cfl_time_step, extend_node_states
from uqfv.ipm import dual_node_states, solve_duals
from uqfv.riemann import _uncertain_state, solve_riemann


def _require_admissible(u, gas):
    if not is_admissible(u, gas):
        raise InadmissibleStateError("inadmissible state (rho <= 0 or p <= 0)")


def pressure(u, gas):
    """p = (gamma - 1) * (E - |m|^2 / (2 rho)); requires positive density."""
    u = np.asarray(u, dtype=float)
    if np.any(u[..., 0] <= 0.0):
        raise InadmissibleStateError("non-positive density")
    return (gas.gamma - 1.0) * internal_energy_npsum(u)


def physical_flux(u, gas, axis=0):
    """Directional Euler flux v_axis * (rho, m, E) + p * (0, e_axis, v_axis)."""
    u = np.asarray(u, dtype=float)
    _require_admissible(u, gas)
    v = u[..., 1 + axis] / u[..., 0]
    p = pressure(u, gas)
    f = u * v[..., None]
    f[..., 1 + axis] += p
    f[..., -1] += v * p
    return f


def max_wave_speed(u, gas, axis=0):
    """|v_axis| + sqrt(gamma p / rho), the spectral radius of the flux Jacobian."""
    u = np.asarray(u, dtype=float)
    _require_admissible(u, gas)
    rho = u[..., 0]
    return np.abs(u[..., 1 + axis] / rho) + np.sqrt(gas.gamma * pressure(u, gas) / rho)


def element_of(partition, xi):
    """Index of the element containing each point (boundary points go right)."""
    idx = np.searchsorted(partition.boundaries, np.asarray(xi, dtype=float), side="right") - 1
    return np.clip(idx, 0, partition.n_elements - 1)


def eval_at(basis, xi):
    """Element index and local basis table (degree+1, ...) at arbitrary points."""
    xi = np.asarray(xi, dtype=float)
    idx = element_of(basis.partition, xi)
    t = (xi - basis.partition.midpoints[idx]) / (0.5 * basis.partition.widths[idx])
    return idx, legendre_orthonormal(basis.degree, t)


def primitives(u, gamma):
    rho = u[..., 0]
    v = u[..., 1] / rho
    p = (gamma - 1.0) * (u[..., 2] - 0.5 * rho * v**2)
    return rho, v, p


def euler_flux_1d(u, gamma):
    rho, v, p = primitives(u, gamma)
    return np.stack([u[..., 1], u[..., 1] * v + p, v * (u[..., 2] + p)], axis=-1)


def hll_1d(ul, ur, gamma):
    rl, vl, pl = primitives(ul, gamma)
    rr, vr, pr = primitives(ur, gamma)
    al = np.sqrt(gamma * pl / rl)
    ar = np.sqrt(gamma * pr / rr)
    sl = np.minimum(vl - al, vr - ar)
    sr = np.maximum(vl + al, vr + ar)
    fl = euler_flux_1d(ul, gamma)
    fr = euler_flux_1d(ur, gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = (
            sr[..., None] * fl - sl[..., None] * fr + (sl * sr)[..., None] * (ur - ul)
        ) / (sr - sl)[..., None]
    out = np.where(sl[..., None] >= 0.0, fl, mid)
    return np.where(sr[..., None] <= 0.0, fr, out)


def naive_fv_run(u0, dx, t_end, gamma, cfl=0.9):
    """First-order transmissive-boundary FV solve, plain arrays (nx, 3)."""
    u = np.asarray(u0, dtype=float).copy()
    t = 0.0
    while t < t_end:
        rho, v, p = primitives(u, gamma)
        lam = np.max(np.abs(v) + np.sqrt(gamma * p / rho))
        dt = min(cfl * dx / lam, t_end - t)
        ext = np.concatenate([u[:1], u, u[-1:]], axis=0)
        flux = hll_1d(ext[:-1], ext[1:], gamma)
        u = u - (dt / dx) * (flux[1:] - flux[:-1])
        t += dt
    return u


def limiter_theta_bisection(node, mean, gamma, tol=1e-12):
    """Smallest damping factor via bisection on the admissibility predicate."""

    def admissible(theta):
        u = theta * mean + (1.0 - theta) * node
        rho = u[0]
        if rho <= 0.0:
            return False
        p = (gamma - 1.0) * (u[-1] - 0.5 * np.sum(u[1:-1] ** 2) / rho)
        return p > 0.0

    if admissible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def legendre_orthonormal(degree, t):
    """Orthonormal Legendre table via numpy.polynomial (independent recurrence)."""
    t = np.asarray(t, dtype=float)
    table = np.empty((degree + 1,) + t.shape)
    for k in range(degree + 1):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        table[k] = np.sqrt(2.0 * k + 1.0) * np.polynomial.legendre.legval(t, coeffs)
    return table


def classical_hsg_run(u0_of_xi, nx, dx, t_end, gamma, degree, n_quad, cfl=0.9,
                      limiter_eps=1e-10):
    """Single-element hyperbolicity-preserving SG on (-1, 1), global basis.

    ``u0_of_xi(x_centers, xi)`` returns initial states (nx, 3) for a fixed
    realization. Returns the coefficient trajectory's final state with shape
    (nx, degree+1, 3). The limiting factors come from companion-matrix roots
    of the convexity constraints rather than any closed form.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    weights = weights / 2.0
    phi = legendre_orthonormal(degree, nodes)  # (K+1, Q)
    x = (np.arange(nx) + 0.5) * dx
    samples = np.stack([u0_of_xi(x, xi) for xi in nodes], axis=1)  # (nx, Q, 3)
    coeffs = np.einsum("xqd,kq,q->xkd", samples, phi, weights)

    t = 0.0
    while t < t_end:
        states = np.einsum("xkd,kq->xqd", coeffs, phi)

        # hyperbolicity limiter via polynomial roots of the path constraints
        for i in range(nx):
            mean = coeffs[i, 0]
            cands = [0.0]
            for q in range(len(nodes)):
                node = states[i, q]
                # density constraint: rho(th) = 0
                if node[0] <= 0.0:
                    cands.append(node[0] / (node[0] - mean[0]))
                # pressure constraint: quadratic in th via np.roots
                de = mean[2] - node[2]
                dr = mean[0] - node[0]
                dm = mean[1] - node[1]
                a = de * dr - 0.5 * dm * dm
                b = node[2] * dr + node[0] * de - node[1] * dm
                c = node[2] * node[0] - 0.5 * node[1] ** 2
                roots = np.roots([a, b, c]) if abs(a) > 0 else (
                    np.array([-c / b]) if b != 0 else np.array([])
                )
                for r in roots:
                    if abs(r.imag) < 1e-13 and 0.0 <= r.real <= 1.0:
                        cands.append(r.real)
            theta = max(cands)
            if theta > 0.0:
                coeffs[i, 1:] *= 1.0 - min(theta + limiter_eps, 1.0)

        states = np.einsum("xkd,kq->xqd", coeffs, phi)
        rho, v, p = primitives(states, gamma)
        lam = np.max(np.abs(v) + np.sqrt(gamma * p / rho))
        dt = min(cfl / (lam / dx), t_end - t)
        ext = np.concatenate([states[:1], states, states[-1:]], axis=0)
        flux = hll_1d(ext[:-1], ext[1:], gamma)
        diff = flux[1:] - flux[:-1]
        coeffs = coeffs - (dt / dx) * np.einsum("xqd,kq,q->xkd", diff, phi, weights)
        t += dt
    return coeffs


# Euler kernels with the component sums as np.sum reductions. The package
# writes these sums out term by term; both add left to right, so the package
# must match these bit for bit.


def internal_energy_npsum(u):
    rho, m, en = u[..., 0], u[..., 1:-1], u[..., -1]
    return en - 0.5 * np.sum(m * m, axis=-1) / rho


def entropy_gradient_npsum(u, gamma):
    rho, m = u[..., 0], u[..., 1:-1]
    e_int = internal_energy_npsum(u)
    q = np.sum(m * m, axis=-1)
    grad = np.empty_like(u)
    grad[..., 0] = -np.log(e_int) + gamma * np.log(rho) + gamma - 0.5 * q / (rho * e_int)
    grad[..., 1:-1] = m / e_int[..., None]
    grad[..., -1] = -rho / e_int
    return grad


def dual_range_mask_npsum(lam):
    return np.all(np.isfinite(lam), axis=-1) & (lam[..., -1] < 0.0)


def dual_eval_npsum(lam, gamma):
    """(u, s*, du/dlam) of the closed-form entropy-gradient inverse."""
    l_rho, l_m, l_en = lam[..., 0], lam[..., 1:-1], lam[..., -1]
    ile = -1.0 / l_en
    log_neg = np.log(-l_en)
    gm = l_m * ile[..., None]
    g2 = np.sum(gm * gm, axis=-1)
    log_rho = (1.0 / (gamma - 1.0)) * (l_rho - log_neg - gamma - 0.5 * l_en * g2)
    rho = np.exp(log_rho)
    u = np.empty_like(lam)
    u[..., 0] = rho
    u[..., 1:-1] = rho[..., None] * gm
    u[..., -1] = rho * ile + 0.5 * rho * g2
    e_int = rho * ile
    d = lam.shape[-1]
    sstar = np.sum(lam * u, axis=-1) + rho * ((1.0 - gamma) * log_rho - log_neg)
    ar = (1.0 / (gamma - 1.0)) * rho
    h = ile + 0.5 * g2
    jac = np.empty(lam.shape + (d,))
    jac[..., 0, 0] = ar
    jac[..., 0, 1:-1] = ar[..., None] * gm
    jac[..., 1:-1, 0] = jac[..., 0, 1:-1]
    jac[..., 0, -1] = ar * h
    jac[..., -1, 0] = jac[..., 0, -1]
    jac[..., 1:-1, 1:-1] = ar[..., None, None] * (
        gm[..., :, None] * gm[..., None, :]
    ) + e_int[..., None, None] * np.eye(d - 2)
    jac[..., 1:-1, -1] = (ar * h + e_int)[..., None] * gm
    jac[..., -1, 1:-1] = jac[..., 1:-1, -1]
    jac[..., -1, -1] = ar * h * h + e_int * (ile + g2)
    return u, sstar, jac


def extend_moments(field, axis=0):
    """Moment coefficients with one ghost layer on each side of an axis.

    Transmissive copies the adjacent interior moments, periodic wraps, and
    dirichlet inserts the projection of the prescribed state (its value in
    the zeroth coefficient, zeros above).
    """
    coeffs = field.coeffs
    first = np.take(coeffs, [0], axis=axis)
    last = np.take(coeffs, [-1], axis=axis)

    def ghost(bc, inner, wrapped):
        kind, state = bc
        if kind == "transmissive":
            return inner
        if kind == "periodic":
            return wrapped
        out = np.zeros_like(inner)
        out[..., 0, :] = state
        return out

    lo_bc, hi_bc = field.grid.bcs[axis]
    return np.concatenate(
        [ghost(lo_bc, first, last), coeffs, ghost(hi_bc, last, first)], axis=axis
    )


def hll(ul, ur, gas, axis, work=None):
    """``fv._hll_unchecked`` with the sides it takes from ``_flux_and_speeds``,
    buffers in ``work`` (a fresh ``_Workspace`` without it) made for ``ul.shape``."""
    sides = tuple(_flux_and_speeds(u, _internal_energy(u), gas, axis) for u in (ul, ur))
    work = _Workspace() if work is None else work
    return _hll_unchecked(ul, ur, gas, axis, sides=sides, work=work, room=ul.shape)


def hll_expression(ul, ur, gamma, axis=0):
    """HLL flux with Davis bounds as plain numpy expressions, fresh arrays only.

    Each operation has the operands and order of the package's in-place
    kernel (``euler._flux_and_speeds``, ``fv._hll_unchecked``), so the two
    agree bit for bit.
    """

    def flux_and_speeds(u):
        rho, m, en = u[..., 0], u[..., 1:-1], u[..., -1]
        mm = m[..., 0] * m[..., 0]
        for i in range(1, m.shape[-1]):
            mm = mm + m[..., i] * m[..., i]
        p = (gamma - 1.0) * (en - 0.5 * mm / rho)
        v = m[..., axis] / rho
        f = np.empty_like(u)
        f[..., 0] = m[..., axis]
        f[..., 1:-1] = m * v[..., None]
        f[..., 1 + axis] += p
        f[..., -1] = v * (en + p)
        return f, v, np.sqrt(gamma * p / rho)

    (fl, vl, cl), (fr, vr, cr) = flux_and_speeds(ul), flux_and_speeds(ur)
    s_l = np.minimum(vl - cl, vr - cr)
    s_r = np.maximum(vl + cl, vr + cr)
    with np.errstate(divide="ignore", invalid="ignore"):
        middle = (
            s_r[..., None] * fl - s_l[..., None] * fr + (s_l * s_r)[..., None] * (ur - ul)
        ) / (s_r - s_l)[..., None]
    flux = np.where(s_l[..., None] >= 0.0, fl, middle)
    return np.where(s_r[..., None] <= 0.0, fr, flux)


def flux_difference(node_states, grid, gas, axis):
    """F(i+1/2) - F(i-1/2) along one axis from fresh arrays.

    ``extend_node_states``, then ``hll`` on copies of the left
    and right interface states (so every cell's flux is computed twice,
    once per side), then ``np.diff``.
    """
    ext = extend_node_states(node_states, grid, axis)
    n = ext.shape[axis]
    left = np.take(ext, np.arange(n - 1), axis=axis)
    right = np.take(ext, np.arange(1, n), axis=axis)
    return np.diff(hll(left, right, gas, axis), axis=axis)


def flux_divergence(node_states, grid, basis, gas):
    """sum_axis project(flux_difference) / dh, the moment flux divergence."""
    div = None
    for axis, h in enumerate(grid.deltas):
        contrib = basis.project(flux_difference(node_states, grid, gas, axis)) / h
        div = contrib if div is None else div + contrib
    return div


def full_grid_step(coeffs, node_states, grid, basis, gas, cfl, dt_max):
    """(dt, coeffs - dt * divergence): a moment step on every cell, from fresh arrays.

    The step is ``cfl_time_step``'s scan of the whole grid, at most ``dt_max``.
    """
    dt = min(cfl_time_step(node_states, grid, gas, cfl), dt_max)
    return dt, coeffs - dt * flux_divergence(node_states, grid, basis, gas)


def full_grid_ipm_step(state, grid, basis, gas, cfl, dt_max, threads=None):
    """(dt, next state, solve stats): an IPM step whose dual solve takes every cell.

    ``state`` is (moments, duals, their node states); ``full_grid_step``
    moves the moments, then ``solve_duals`` re-solves the whole grid from
    the duals and states, and the next state holds its duals and states.
    """
    moments, lam, nodes = state
    dt, moments = full_grid_step(moments, nodes, grid, basis, gas, cfl, dt_max)
    lam, stats = solve_duals(moments, lam, basis, gas, threads=threads, warm_states=nodes)
    return dt, (moments, lam, stats.node_states), stats


def full_grid_row_step(u, grid, gas, cfl, dt_max):
    """(dt, u - sum_axis (dt / h) diff): a step of rows (cells..., rows, d) on every cell.

    Each row's step comes from its own maxima over the whole grid's scan.
    """
    cells = tuple(range(grid.ndim))
    speeds = [np.max(max_wave_speed(u, gas, axis), axis=cells) for axis in cells]
    dt = np.clip(dt_max, 0.0, _cfl_steps(speeds, grid, cfl))
    update = None
    for axis, h in enumerate(grid.deltas):
        term = (dt / h)[:, None] * flux_difference(u, grid, gas, axis)
        update = term if update is None else update + term
    return dt, u - update


def assert_same_bits(got, expected):
    """Equal bit for bit: unlike ==, this tells -0.0 from +0.0."""
    assert got.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
    )


def corrupt_after_update(monkeypatch, module, grid, index, value):
    """Patch ``module._window_update`` so that the second update ends by setting
    coefficient (cell, ``*index``) to ``value``, where cell is the last cell
    of the last piece the update changed. Returns the list that receives
    (cell, the corrupted (K+1, d) block)."""
    update, done, hit = module._window_update, [], []

    def corrupting(coeffs, divergence, *args):
        done.append(update(coeffs, divergence, *args))
        if len(done) == 2:
            cells = [cells for cells, total in divergence[1] if total.size][-1]
            # a piece that starts past 0 on each of its axes
            assert all(s.start > 0 for s in cells)
            cell = tuple(range(n)[s][-1] for s, n in zip(cells, grid.shape))
            coeffs[cell + index] = value
            hit.append((cell, coeffs[cell + index[:1]].copy()))
        return done[-1]

    monkeypatch.setattr(module, "_window_update", corrupting)
    return hit


def zero_filled(shape, pieces):
    """An array of ``shape`` that holds each (cells, values) piece, and +0.0 elsewhere."""
    out = np.zeros(shape)
    for cells, values in pieces:
        out[cells] = values
    return out


def entropy(u, gas):
    """Strictly convex entropy -rho * log(rho^-gamma * (E - |m|^2/(2 rho)))."""
    u = np.asarray(u, dtype=float)
    _require_admissible(u, gas)
    rho = u[..., 0]
    return -rho * (np.log(internal_energy_npsum(u)) - gas.gamma * np.log(rho))


def entropy_hessian(u, gas):
    """Hessian of the entropy, shape (..., d, d); symmetric positive definite."""
    rho, m = u[..., 0], u[..., 1:-1]
    e = internal_energy_npsum(u)
    q = np.sum(m * m, axis=-1)
    d = u.shape[-1]
    h = np.empty(u.shape + (d,))
    h[..., 0, 0] = gas.gamma / rho + 0.25 * q * q / (rho**3 * e * e)
    cross = -0.5 * q / (rho * rho * e * e)
    h[..., 0, 1:-1] = m * cross[..., None]
    h[..., 1:-1, 0] = h[..., 0, 1:-1]
    h[..., 0, -1] = -1.0 / e + 0.5 * q / (rho * e * e)
    h[..., -1, 0] = h[..., 0, -1]
    h[..., 1:-1, 1:-1] = np.eye(d - 2) / e[..., None, None] + (
        m[..., :, None] * m[..., None, :] / (rho * e * e)[..., None, None]
    )
    h[..., 1:-1, -1] = -m / (e * e)[..., None]
    h[..., -1, 1:-1] = h[..., 1:-1, -1]
    h[..., -1, -1] = rho / (e * e)
    return h


def dual_residual(duals, moments, basis, gas):
    """Moment mismatch u_k - <map(Lambda) phi_k f> for one (cell, element)."""
    u = dual_node_states(duals, basis, gas)
    return np.asarray(moments, dtype=float) - basis.project(u)


def dual_hessian(duals, basis, gas):
    """Newton matrix <grad_Lambda u phi_k phi_j f>, flattened to 2D; SPD.

    The map's Jacobian is the inverse of the entropy Hessian at the mapped
    states, not the closed form the solver uses.
    """
    u = dual_node_states(duals, basis, gas)
    jac = np.linalg.inv(entropy_hessian(u, gas))
    n = basis.n_coeffs * u.shape[-1]
    h = np.einsum("kq,jq,q,qab->kajb", basis.phi, basis.phi, basis.rule.weights, jac)
    return h.reshape(n, n)


def legendre_dual(lam, gas):
    """Convex conjugate of the entropy, s*(lam) = lam . u(lam) - s(u(lam))."""
    lam = np.asarray(lam, dtype=float)
    u = entropy_gradient_inverse(lam, gas)
    return np.sum(lam * u, axis=-1) - entropy(u, gas)


def sod_reference_loop(left, right, gas, x_points, t, x0=0.5, sigma=0.05, n_nodes=100,
                       sub_points=None):
    """``sod_reference_statistics`` (sigma > 0) point by point, with its piece counts.

    Each point's xi-interval is cut where a wave crosses one of its
    sub-points, and each piece's Gauss sums are added into the point's sums
    in xi order. Returns the mean, the variance, the number of pieces and the
    number of pieces whose Gauss states are not all equal.
    """
    sol = solve_riemann(left, right, gas)
    offsets = np.asarray([0.0] if sub_points is None else sub_points, dtype=float)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(n_nodes)
    mean = np.zeros((len(x_points), 3))
    second = np.zeros((len(x_points), 3))
    speeds = sol.wave_speeds
    pieces = fans = 0
    for i, x in enumerate(np.asarray(x_points, dtype=float)):
        xs = x + offsets
        cuts = ((xs[:, None] - x0 - speeds[None, :] * t) / sigma).ravel()
        cuts = np.sort(cuts[(cuts > -1.0) & (cuts < 1.0)])
        edges = np.concatenate([[-1.0], cuts, [1.0]])
        keep = np.diff(edges) > 1e-15
        pieces += np.count_nonzero(keep)
        lo, hi = edges[:-1][keep, None], edges[1:][keep, None]
        xi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl_nodes
        # (sub-points, pieces, nodes, 3), averaged over the sub-points
        states = _uncertain_state(sol, xs[:, None, None], t, xi, x0, sigma).mean(axis=0)
        fans += np.count_nonzero(np.any(states != states[:, :1], axis=(1, 2)))
        # density of xi is 1/2; piece scaling (hi-lo)/2
        weights = 0.25 * (hi - lo) * gl_weights
        for w, piece in zip(weights, states):
            mean[i] += w @ piece
            second[i] += w @ piece**2
    return mean, np.maximum(second - mean**2, 0.0), pieces, fans
