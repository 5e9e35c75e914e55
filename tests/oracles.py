"""Independent oracles used by the test suite.

These deliberately re-derive every quantity from scratch (plain bisection,
brute-force grids, sphere sampling, cyclic Jacobi rotations in place of
LAPACK, a symmetric-basis Lyapunov solve) so they share no code with the
implementation paths they check.  There are two exceptions: bound_for_gain reuses the single-cell
gamma scan to check only how the linear design stacks its candidates, and em_reference and
cps_reference step on the simulator's own grid, since agreement path by path is what they
check.  Their drift comes from the plain formulas (drift_reference) and their normals from
noise_reference, which builds numpy's generator of each noise stream and indexes it normal by
normal.
"""

import math

import numpy as np


def bisect(f, lo, hi, iters=200):
    """Plain bisection; no secant step, no cleverness."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "oracle bisection needs a sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def jacobi_eigh(s, max_sweeps=100):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix
    by cyclic Jacobi rotations in plain Python loops: no LAPACK call.

    S = V diag(w) V^T to ~1e-14 relative accuracy; fails an assertion when the
    off-diagonal mass has not annihilated after max_sweeps sweeps.
    """
    a = np.array(s, dtype=float)
    assert a.ndim == 2 and a.shape[0] == a.shape[1] and np.array_equal(a, a.T)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.abs(a).max() or 1.0
    stop = 1e-16 * scale
    for _ in range(max_sweeps):
        if np.sqrt(np.sum(np.tril(a, -1) ** 2)) <= stop * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-20 * scale:
                    continue
                # stable rotation: t = sign(theta)/(|theta| + sqrt(theta^2+1))
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = 1.0 if theta == 0.0 else np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                sn = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - sn * cq
                a[:, q] = sn * cp + c * cq
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    else:
        raise AssertionError("Jacobi oracle did not converge within the sweep cap")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def single_v_surface(q, b1, b2, alpha, alpha_b, alpha_f):
    """The three-parameter bound surface, typed directly from its definition."""
    a2q = alpha * alpha * q
    den = (2.0 * np.sqrt(alpha_b) + b1 + (b1 + alpha) * b2) * a2q + alpha_b * (
        b1 + alpha_f / b1 + (b1 + alpha) / b2
    )
    return -a2q * np.log(q) / den


def single_v_grid_oracle(alpha, alpha_b, alpha_f, pts=24, rounds=5):
    """Maximize the surface by brute-force log-grid search with local refinement.

    Equivalent to minimizing the reciprocal objective; returns (tau, q, b1, b2).
    """
    qg = np.exp(np.linspace(np.log(1e-6), np.log(1 - 1e-6), pts))
    b1g = np.exp(np.linspace(np.log(1e-4), np.log(1e4), pts))
    b2g = np.exp(np.linspace(np.log(1e-4), np.log(1e4), pts))
    best = None
    for _ in range(rounds):
        qq, bb1, bb2 = np.meshgrid(qg, b1g, b2g, indexing="ij")
        tau = single_v_surface(qq, bb1, bb2, alpha, alpha_b, alpha_f)
        i = np.unravel_index(np.argmax(tau), tau.shape)
        best = (float(tau[i]), float(qg[i[0]]), float(b1g[i[1]]), float(b2g[i[2]]))

        def refine(grid, center, lo_cap=None, hi_cap=None):
            f = (grid[-1] / grid[0]) ** (2.0 / (len(grid) - 1))
            lo, hi = center / f, center * f
            if lo_cap is not None:
                lo = max(lo, lo_cap)
            if hi_cap is not None:
                hi = min(hi, hi_cap)
            return np.exp(np.linspace(np.log(lo), np.log(hi), pts))

        qg = refine(qg, best[1], lo_cap=1e-12, hi_cap=1 - 1e-12)
        b1g = refine(b1g, best[2])
        b2g = refine(b2g, best[3])
    return best


def sphere_ratio_max(numerator_quadratic, denominator_quadratic, n, n_dirs=10_000, seed=0,
                     refine_rounds=8):
    """sup over unit directions of a quadratic-form ratio.

    Global random sampling followed by shrinking local perturbation rounds
    around the best direction found; every candidate is scored by direct
    evaluation of the ratio, so no eigensolver is involved.
    """
    rng = np.random.default_rng(seed)

    def ratios(x):
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        num = np.einsum("ij,jk,ik->i", x, numerator_quadratic, x)
        den = np.einsum("ij,jk,ik->i", x, denominator_quadratic, x)
        return x, num / den

    x, r = ratios(rng.normal(size=(n_dirs, n)))
    best_val = float(r.max())
    best_dir = x[int(np.argmax(r))]
    sigma = 0.1
    for _ in range(refine_rounds):
        cand = best_dir + sigma * rng.normal(size=(2000, n))
        cand, r = ratios(cand)
        i = int(np.argmax(r))
        if r[i] > best_val:
            best_val, best_dir = float(r[i]), cand[i]
        sigma *= 0.35
    return best_val


def em_second_moment(A, B_bar, G_list, x0, times, instants):
    """E|x_k|^2 of the sampled-data Euler-Maruyama recursion, exactly, at every grid time.

    Propagates S = E[z z^T] for z = (x, x(t_*)) through the grid `times`:
    S <- J S J^T with J = [[I, 0], [I, 0]] where a step starts at a sampling
    instant, then S <- M S M^T + h sum_j Gb_j S Gb_j^T with M = I + h Abar,
    Abar = [[A, B_bar], [0, 0]] and Gb_j = diag(G_j, 0).  The increments are
    independent of z with mean zero and variance h, so this is the recursion's
    own second moment: no Monte Carlo and no discretization bias.
    """
    n = len(x0)
    zero = np.zeros((n, n))
    a_bar = np.block([[A, B_bar], [zero, zero]])
    g_bar = [np.block([[g, zero], [zero, zero]]) for g in G_list]
    j = np.block([[np.eye(n), zero], [np.eye(n), zero]])
    z0 = np.concatenate([x0, x0])
    s = np.outer(z0, z0)
    refresh = np.isin(times[:-1], instants)
    out = [np.trace(s[:n, :n])]
    for h, reset in zip(np.diff(times), refresh):
        if reset:
            s = j @ s @ j.T
        m = np.eye(2 * n) + h * a_bar
        s = m @ s @ m.T + h * sum(g @ s @ g.T for g in g_bar)
        out.append(np.trace(s[:n, :n]))
    return np.array(out)


def rate_lyapunov_basis(F, G_list, two_alpha, R):
    """Solve F^T P + P F + sum G^T P G + two_alpha P = -R over a symmetric basis.

    Builds the operator column by column from the unit symmetric matrices
    E_ij = e_i e_j^T + e_j e_i^T, with no Kronecker products, and solves for
    the n(n+1)/2 free entries of P.  Returns None when that system is singular.
    """
    f = np.asarray(F, dtype=float)
    n = f.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = []
    for i, j in pairs:
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        le = f.T @ e + e @ f + two_alpha * e
        for g in G_list:
            le = le + np.asarray(g).T @ e @ np.asarray(g)
        cols.append([le[a, b] for a, b in pairs])
    rhs = [-np.asarray(R)[a, b] for a, b in pairs]
    try:
        v = np.linalg.solve(np.array(cols).T, rhs)
    except np.linalg.LinAlgError:
        return None
    p = np.zeros((n, n))
    for (i, j), x in zip(pairs, v):
        p[i, j] = p[j, i] = x
    return p


def design_rate_block(A, G_list, B_hat, Q, Y, alpha_bar):
    """The rate LMI in design variables (Q, Y), Schur-expanded over the diffusions.

    [[M + M^T + 2 alpha Q, (G_1 Q)^T, ...], [G_1 Q, -Q, 0, ...], ...] with
    M = A Q + B_hat Y.  It is a congruence of the Ito rate block at P = Q^{-1},
    K = Y Q^{-1}, so the two are negative semidefinite together; verification
    assembles only the rate block, and this checks that it decides the same.
    """
    q = np.asarray(Q, dtype=float)
    m = np.asarray(A) @ q + np.asarray(B_hat) @ np.asarray(Y)
    k = len(G_list)
    rows = [[m + m.T + 2.0 * alpha_bar * q] + [(np.asarray(g) @ q).T for g in G_list]]
    for j, g in enumerate(G_list):
        rows.append([np.asarray(g) @ q] + [-q if i == j else np.zeros_like(q) for i in range(k)])
    return np.block(rows)


def planar_rate_block(A_tilde, E1, P, alpha_bar, b):
    """The planar rate block as the paper writes it, with the S-procedure weight b:
    A~^T P + P A~ + b P + (1/b) E1^T P E1 + 2 alpha P.  Verification assembles
    it as the Ito rate block of A~ + (b/2) I with diffusion E1/sqrt(b)."""
    p = np.asarray(P, dtype=float)
    m = A_tilde.T @ p + p @ A_tilde + b * p + (1.0 / b) * E1.T @ p @ E1 + 2.0 * alpha_bar * p
    return 0.5 * (m + m.T)


def planar_cross_block(A_tilde, E1, B_bar, P, P_tilde, gamma1, gamma2, c):
    """The planar cross block as the paper writes it, with the S-procedure weight c:
    [[(1/c) E1^T Pt E1 - gamma1 P, A~^T Pt], [Pt A~, -B^T Pt - Pt B + c Pt - gamma2 Pt]].
    Verification assembles it as the linear cross block with diffusion
    E1/sqrt(c) and feedback B_bar - (c/2) I."""
    p, pt = np.asarray(P, dtype=float), np.asarray(P_tilde, dtype=float)
    m = np.block([
        [(1.0 / c) * E1.T @ pt @ E1 - gamma1 * p, A_tilde.T @ pt],
        [pt @ A_tilde, -B_bar.T @ pt - pt @ B_bar + c * pt - gamma2 * pt],
    ])
    return 0.5 * (m + m.T)


def bound_for_gain(model, k_hat, r_mat, alpha_bar, rejected):
    """The linear design's candidate scorer one candidate at a time.

    The scalar scorer the design used before it scored stacks, kept as it
    was: it checks the stacking of the rate solve, the checks and the gamma
    scan, whose single-certificate form is checked against a per-point loop
    in test_design.  Returns (tau, P), or None after counting the rejection
    in `rejected` under its reason.
    """
    from sdstab.design import _GAMMA_SCAN, _INFLATE, _TINY, _best_gamma_pair, extract_alpha_b, ito_generator
    from sdstab.errors import InfeasibleError
    from sdstab.lmi import assemble_lyapunov_ito

    def solve_rate_lyapunov(F, G_list, two_alpha, R):
        op = ito_generator(F, G_list).T
        r = np.asarray(R, dtype=float)
        try:
            p = np.linalg.solve(op + two_alpha * np.eye(len(op)), -r.ravel()).reshape(r.shape)
        except np.linalg.LinAlgError:
            return None
        return 0.5 * (p + p.T)

    b_bar = model.B_hat @ k_hat
    f = model.A + b_bar
    p = solve_rate_lyapunov(f, model.diffusion, 2.0 * alpha_bar, r_mat)
    tr = -1.0 if p is None else float(np.trace(p))
    if tr <= 0.0:
        rejected["singular_solve"] += 1
        return None
    p = p * (model.n / tr)
    w = np.linalg.eigvalsh(p)
    if w[0] <= 1e-12 * w[-1]:
        rejected["singular_solve"] += 1
        return None
    rate = assemble_lyapunov_ito(f, model.diffusion, p, alpha_bar)
    if float(np.linalg.eigvalsh(rate)[-1]) > -1e-9:
        rejected["rate_check"] += 1
        return None
    alpha_b = max(extract_alpha_b(p, p, b_bar) * (1 + _INFLATE), _TINY)
    try:
        _, _, tau = _best_gamma_pair(
            f, model.diffusion, b_bar, p, p, alpha_bar, alpha_b,
            _GAMMA_SCAN, coarse=36, refine_rounds=1,
        )
    except InfeasibleError:
        rejected["gamma_box"] += 1
        return None
    return tau, p


def noise_reference(seed, paths, step0, nsteps, m):
    """Standard normals driving steps step0 .. step0 + nsteps - 1 of each path.

    Shape (len(paths), nsteps, m); entry [r, i, j] is normal j of step
    k = step0 + i of path p = paths[r]: entry ((p mod B) W + (k mod W)) m + j
    of the standard normals of numpy's Philox under the key (seed mod 2^64,
    p // B) from the counter (0, k // W, 0, 0), with B and W of sdstab.sim.
    Each stream is drawn whole, once, and indexed normal by normal.
    """
    from sdstab.sim import _BLOCK, _WINDOW

    streams = {}
    out = np.empty((len(paths), nsteps, m))
    for r, p in enumerate(int(p) for p in paths):
        for i in range(nsteps):
            k = step0 + i
            key = (p // _BLOCK, k // _WINDOW)
            if key not in streams:
                bits = np.random.Philox(key=np.array([int(seed) % 2**64, key[0]], dtype=np.uint64),
                                        counter=np.array([0, key[1], 0, 0], dtype=np.uint64))
                streams[key] = np.random.Generator(bits).standard_normal(_BLOCK * _WINDOW * m)
            for j in range(m):
                out[r, i, j] = streams[key][((p % _BLOCK) * _WINDOW + k % _WINDOW) * m + j]
    return out


def drift_reference(model, x):
    """The open-loop drift from its formula: A x, or for the planar plant
    A_bar x + (x1 sin((K x) x2)) (1/4, 1)."""
    if hasattr(model, "A_bar"):
        s = x[..., 0] * np.sin((x @ model.K_hat[0]) * x[..., 1])
        return x @ model.A_bar.T + s[..., None] * np.array([0.25, 1.0])
    return x @ model.A.T


def build_grid_reference(instants, horizon, dt_sim):
    """(times, steps, refresh) of the integration grid, built knot by knot:
    each gap between knots (the instants, then the horizon if it lies past
    the last one) splits into ceil(gap / dt_sim) equal substeps ending on the
    knot, and refresh marks the steps that start at an instant."""
    knots = list(instants)
    if horizon > knots[-1] + 1e-15:
        knots.append(horizon)
    times = [0.0]
    knot_pos = [0]
    for k in range(len(knots) - 1):
        a, b = knots[k], knots[k + 1]
        nsub = max(1, int(math.ceil((b - a) / dt_sim - 1e-9)))
        h = (b - a) / nsub
        seg = a + h * np.arange(1, nsub + 1)
        seg[-1] = b
        times.extend(seg.tolist())
        knot_pos.append(len(times) - 1)
    t = np.asarray(times)
    steps = np.diff(t)
    refresh = np.zeros(len(steps), dtype=bool)
    for k in range(len(instants)):
        if knot_pos[k] < len(steps):
            refresh[knot_pos[k]] = True
    return t, steps, refresh


def em_reference(model, b_bar, grid, x0, path_indices, seed, store_idx, sink):
    """The Euler-Maruyama kernel in its plain per-step form, a drop-in for
    sdstab.sim._integrate_chunk: it draws every normal of its paths in one
    noise_reference call, records every stored time through a dict of stored
    indices into full arrays and hands them to the sink as one block at the
    end, forms x(t_*) B_bar^T anew in every step and checks every row for
    divergence in every step.  The two must agree bit for bit.
    """
    from sdstab.sim import _DIVERGENCE_CAP

    npaths = len(path_indices)
    m = model.m
    nsteps = len(grid.steps)
    noise = noise_reference(seed, path_indices, 0, nsteps, m) if m else None
    x = np.tile(x0, (npaths, 1)).astype(float)
    xstar = x.copy()
    alive = np.ones(npaths, dtype=bool)
    states = np.empty((npaths, len(store_idx), x.shape[1]))
    alive_store = np.empty((npaths, len(store_idx)), dtype=bool)
    diverged_at = np.full(npaths, np.nan)
    store_map = {int(g): s for s, g in enumerate(store_idx)}
    gts = [g.T for g in model.diffusion]
    sqrt_h = np.sqrt(grid.steps)

    def record(i):
        s = store_map.get(i)
        if s is None:
            return
        states[:, s, :] = x
        alive_store[:, s] = alive

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps):
            if grid.refresh[i]:
                xstar = x.copy()
            record(i)
            h = grid.steps[i]
            upd = (drift_reference(model, x) + xstar @ b_bar.T) * h
            if m > 0:
                db = sqrt_h[i] * noise[:, i, :]
                for j, gt in enumerate(gts):
                    upd += (x @ gt) * db[:, j:j + 1]
            x = x + upd
            # NaN and inf compare False, so this also catches non-finite rows
            bad = alive & ~(np.abs(x).max(axis=1) <= _DIVERGENCE_CAP)
            if bad.any():
                alive[bad] = False
                diverged_at[bad] = grid.times[i + 1]
                x[bad] = np.nan
        record(nsteps)
    sink(0, states, alive_store)
    return diverged_at


def mean_sq_reference(states, alive):
    """Per-time mean of |x|^2 over the alive paths (NaN where none) and the alive
    counts, of full (paths, times, n) and (paths, times) arrays: one path at a
    time, in path order, each |x|^2 summed in index order.
    """
    npaths, ntimes, n = states.shape
    total = np.zeros(ntimes)
    counts = np.zeros(ntimes, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(npaths):
            sq = states[p, :, 0] * states[p, :, 0]
            for i in range(1, n):
                sq = sq + states[p, :, i] * states[p, :, i]
            total = np.where(alive[p], total + sq, total)
            counts = counts + alive[p]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, total / counts, np.nan), counts


def cps_reference(model, cfg, path_index=0):
    """One path of the sampled-data loop in the paper's physical/cyber form, one
    Euler-Maruyama step at a time: the physical state x and the cyber state y
    both take the drift drift(x) + (x - y) B_bar^T and the diffusion
    sum_j G_j x dB_j, and y <- 0 at each sampling instant.

    Returns (times, x, y) at every grid point, y after its reset.  It draws the
    noise of path path_index on the simulator's grid.
    """
    from sdstab.sim import _grid_for, _resolve_x0

    grid, _ = _grid_for(cfg)
    nsteps = len(grid.steps)
    noise = (noise_reference(cfg.seed, [path_index], 0, nsteps, model.m)[0] if model.m
             else np.zeros((nsteps, 0)))
    at_instant = np.isin(grid.times, grid.instants)
    x = _resolve_x0(model, cfg)
    y = np.zeros_like(x)
    xs, ys = [], []
    for i in range(nsteps + 1):
        if at_instant[i]:
            y = np.zeros_like(x)
        xs.append(x)
        ys.append(y)
        if i == nsteps:
            break
        h = grid.steps[i]
        inc = (drift_reference(model, x) + (x - y) @ model.B_bar.T) * h
        for g, dw in zip(model.diffusion, math.sqrt(h) * noise[i]):
            inc = inc + (g @ x) * dw
        x, y = x + inc, y + inc
    return grid.times, np.array(xs), np.array(ys)
