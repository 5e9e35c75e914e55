"""Independent oracles used by the test suite.

These deliberately re-derive every quantity from scratch (plain bisection,
brute-force grids, sphere sampling, dense eigensolves) so they share no code
with the implementation paths they check.
"""

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
