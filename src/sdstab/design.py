"""Envelope-constant extraction and state-feedback gain synthesis.

Both plants are designed on the linear Ito loops of lmi.rate_loop and
lmi.cross_loop (the planar one shifted by its envelope weights b and c),
following the recipe behind the design LMIs:

1. Nelder-Mead (_nelder_mead: scipy's steps bit for bit, each iteration's
   four probe points scored as one stack) maximizes the exact mean-square
   decay rate 2*alpha = -max Re eig(ito_generator(*rate_loop(...))) over
   |K| <= _GAIN_CAP, and for the planar plant over log b; at a fixed gain this
   is the optimum of the rate LMI, so no SDP solver is needed;
2. a fixed-seed differential evolution scores each generation as one stacked
   call: the linear design searches the gain, the shape of the Lyapunov
   residual and the rate alpha_bar (P solves the rate Lyapunov equation at
   alpha_bar), then a _nelder_mead polish of _POLISH_EVALS evaluations
   follows; the planar design keeps the rate-optimal gain and P, and
   searches the cyber certificate shape and c;
3. both searches score through _cross_scores: alpha_b exactly as a symmetric
   pencil eigenvalue, then (gamma1, gamma2) by scanning gamma2 and taking the
   least feasible gamma1 from the Schur complement of the cross block, for the
   largest sampling bound;
4. both plants finish through _finish: the full gamma scan at the best point,
   and lmi.verify_certificate at tol 0 before anything is returned.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .bounds import SamplingBoundResult, TwoFunctionConstants, emulation_bound_two, two_v_tau_core
from .errors import InfeasibleError, ValidationError
from .lmi import LmiCertificate, assemble_lyapunov_ito, cross_loop, rate_loop, verify_certificate
from .models import SampledModel
from .numerics import pencil_max_eig, sym_eigvals, sym_inv_sqrt

_TINY = 1e-12
_INFLATE = 1e-7  # relative safety margin applied to exact pencil optima
_GAIN_CAP = 9.9  # |K| bound of the design searches (the quality floor is |K| <= 10)
_GAMMA_SCAN = (1e-4, 1e6)  # box for gamma1 and gamma2
_B_RANGE = (5e-3, 20.0)  # planar envelope weight b
_C_RANGE = (1e-1, 1e3)  # planar envelope weight c
# design search: differential evolution (Storn & Price, J. Global Optim. 11, 1997) with a fixed seed,
# so a design is deterministic; _POPSIZE rows and _GENERATIONS generations per coordinate, then
# (linear only) a polish of _POLISH_EVALS evaluations
_SEARCH_SEED, _POPSIZE, _GENERATIONS, _POLISH_EVALS = 0, 10, 10, 150
# residual-shape Cholesky entries below the diagonal, and log of it (the best shape found for
# ex1_sub2_control is nearly singular, with log pivot -7.25)
_SHAPE_BOX = ((-3.0, 3.0), (-8.0, 3.0))
_LOGIT_BOX = (-3.0, 8.0)  # u, with alpha_bar = alpha_max * sigmoid(u)

# perfbench/tracer.py looks these names up by getattr; they go with the tracer's rows (ROADMAP item 1)
minimize_gevp = solve_feasibility = build_affine_map = verify_design_certificate = None
verify_planar_certificate = None


def extract_alpha_b(P, P_tilde, B_bar):
    """Least alpha_b with B^T P B <= alpha_b * P_tilde.

    P, P_tilde and B_bar may each be a stack along leading axes; the result is
    then an array of the broadcast stack shape.  Returns 0 for B = 0;
    downstream uses require a strictly positive value, so callers should then
    choose any alpha_b > 0.
    """
    b = np.asarray(B_bar, dtype=float)
    return pencil_max_eig(b.swapaxes(-1, -2) @ P @ b, P_tilde)


def _schur_terms(F, G_list, B_bar, P, P_tilde):
    """Per-certificate constants of the least-gamma1 map, for one certificate or a stack.

    With R = Pt^{-1/2} and B^T Pt + Pt B = Pt^{1/2} U diag(mu) U^T Pt^{1/2},
    the Schur corner is S = Pt^{1/2} U diag(mu + gamma2) U^T Pt^{1/2}, so
    F^T Pt S^{-1} Pt F = V^T diag(1/(mu + gamma2)) V with V = U^T Pt^{1/2} F.
    Returns (floor, d0, W, C): the corner is positive definite exactly for
    gamma2 > floor = -min mu, d0 = mu, W = V P^{-1/2}, and
    C = P^{-1/2} (sum G^T Pt G) P^{-1/2}.  F, each G, B_bar, P and P_tilde may
    each be a stack; P^{-1/2} is reused when P_tilde is P.
    """
    pt, b, f = np.asarray(P_tilde, dtype=float), np.asarray(B_bar), np.asarray(F)
    r = sym_inv_sqrt(pt, "P_tilde")
    mu, u = np.linalg.eigh(r @ (b.swapaxes(-1, -2) @ pt + pt @ b) @ r)
    p_r = r if P_tilde is P else sym_inv_sqrt(P, "P")
    w = u.swapaxes(-1, -2) @ (r @ pt) @ f @ p_r
    c = np.zeros(pt.shape)
    for g in G_list:
        g = np.asarray(g)
        c = c + g.swapaxes(-1, -2) @ pt @ g
    return -mu[..., 0], mu, w, p_r @ c @ p_r


def _gamma1_at(terms, gamma2) -> np.ndarray:
    """Least gamma1 at each gamma2 from _schur_terms(...)[1:] (NaN where the corner is not PD).

    gamma2 has one row of points per certificate of a stack (any shape for
    one certificate); the least gamma1 is lambda_max(C + W^T diag(1/d) W)
    with d = d0 + gamma2, and the result has gamma2's shape.
    """
    d0, w, c = terms
    g2 = np.asarray(gamma2, dtype=float)
    d = d0[..., None, :] + g2[..., None]
    ok = d[..., 0] > 0.0  # mu comes sorted ascending
    inv = 1.0 / np.where(ok[..., None], d, 1.0)
    w = w[..., None, :, :]
    lhs = c[..., None, :, :] + (w.swapaxes(-1, -2) * inv[..., None, :]) @ w
    return np.where(ok, sym_eigvals(lhs)[..., -1], np.nan).reshape(g2.shape)


def _log_grid(lo, hi, num: int) -> np.ndarray:
    """num log-spaced points from lo to hi, one row per element of lo (hi broadcasts)."""
    return lo[:, None] * (hi / lo)[:, None] ** (np.arange(num) / (num - 1))


def _best_gamma_pair(
    F, G_list, B_bar, P, P_tilde,
    alpha_bar, alpha_b,
    scan: Tuple[float, float],
    coarse: int = 120,
    refine_rounds: int = 3,
):
    """Scan gamma2, take the exact least gamma1 per point, maximize the bound.

    P_tilde is one cyber certificate or a stack of them along a leading cell
    axis; F, each G, B_bar and P are per cell (a stack) or shared (one
    matrix), and alpha_bar and alpha_b per cell or shared.  Each cell
    scans its own gamma2 grid, and each round evaluates every cell's grid at
    once.  Per cell the first maximum wins, and a later round replaces the
    best pair only if it beats it.  Returns (gamma1, gamma2, tau_max): floats
    for one P_tilde, arrays over the cells for a stack, with NaN pairs and
    tau_max -inf where a cell has no feasible pair.  Raises InfeasibleError
    if no cell has a feasible pair in the scan box.
    """
    lo, hi = scan
    single = np.ndim(P_tilde) == 2
    pt = np.asarray(P_tilde, dtype=float)
    pt = pt.reshape((-1,) + pt.shape[-2:])
    cells = len(pt)
    floor, *terms = _schur_terms(F, G_list, B_bar, pt if P_tilde is P else P, pt)
    start = np.maximum(np.maximum(lo, floor * (1 + 1e-9) + _TINY), _TINY)
    live = np.flatnonzero(start < hi)
    if not live.size:
        raise InfeasibleError("gamma2 scan box excludes every feasible point")
    terms, start = [v[live] for v in terms], start[live]
    a_bar, a_b = ((np.zeros(cells) + v)[live, None] for v in (alpha_bar, alpha_b))

    grid = _log_grid(start, hi, coarse)
    rows = np.arange(len(live))
    for r in range(refine_rounds + 1):
        g1 = np.maximum(_gamma1_at(terms, grid) * (1 + _INFLATE), max(_TINY, lo))
        ok = g1 <= hi  # NaN, an infeasible corner, compares False
        _, tau = two_v_tau_core(a_bar, a_b, np.where(ok, g1, hi), grid)
        tau[~ok] = -np.inf
        i = tau.argmax(axis=1)
        row_best = (g1[rows, i], grid[rows, i], tau[rows, i])
        if r == 0:
            best = row_best
            keep = np.isfinite(best[2])
            if not keep.all():  # a cell with no feasible point on its coarse grid has none
                if not keep.any():
                    raise InfeasibleError("no feasible (gamma1, gamma2) in the scan box")
                live, start, a_bar, a_b, grid = (v[keep] for v in (live, start, a_bar, a_b, grid))
                terms = [v[keep] for v in terms]
                best, rows = [v[keep] for v in best], rows[: len(live)]
        else:
            win = row_best[2] > best[2]
            best = [np.where(win, new, old) for new, old in zip(row_best, best)]
        step2 = (grid[:, 1] / grid[:, 0]) ** 2
        grid = _log_grid(np.maximum(best[1] / step2, start), np.minimum(best[1] * step2, hi), 25)
    if single:
        return tuple(float(v[0]) for v in best)
    out = np.full((3, cells), np.nan)
    out[2] = -np.inf
    out[:, live] = best
    return tuple(out)


@dataclass(frozen=True)
class DesignOptions:
    """Settings for gain synthesis.

    alpha_fraction, in (0, 1), is the share of the largest certifiable rate:
    the seed point of the linear search, which then moves the rate freely,
    and the fixed share of the planar design.  A linear design writes
    (P, P_tilde = P, K_hat); the bound depends on P_tilde only through
    alpha_b * gamma1 and gamma2, which a rescaling P_tilde = c P leaves
    unchanged.
    """

    alpha_fraction: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.alpha_fraction < 1.0:  # NaN fails too
            raise ValidationError(f"alpha_fraction must lie in (0, 1), got {self.alpha_fraction!r}")


@dataclass(frozen=True)
class DesignResult:
    """Synthesized gain with its re-verified certificate and sampling bound."""

    gain: np.ndarray
    certificate: LmiCertificate
    constants: TwoFunctionConstants
    bound: SamplingBoundResult
    trace: Dict[str, Any] = field(default_factory=dict)  # floats, or dicts of floats


def solve_rate_lyapunov(F, G_list, two_alpha, R) -> np.ndarray:
    """Solve F^T P + P F + sum G^T P G + two_alpha P = -R for symmetric P.

    The left side is the transposed Ito generator acting on vec P, so this is
    one n^2 x n^2 solve of (ito_generator(F, G)^T + two_alpha I) vec P = -vec R,
    batched over a leading stack axis of F, two_alpha and R.  P is NaN where
    the operator is exactly singular (such rows are masked out first, since
    one would fail the whole batch).  A positive definite solution exists
    exactly when the loop decays faster than two_alpha in mean square.
    """
    op = ito_generator(F, G_list).swapaxes(-1, -2)
    op = op + np.asarray(two_alpha, dtype=float)[..., None, None] * np.eye(op.shape[-1])
    r = np.asarray(R, dtype=float)
    # slogdet factors op exactly as solve does, so sign 0 is solve's zero pivot
    ok = np.linalg.slogdet(op)[0] != 0.0
    op = np.where(ok[..., None, None], op, np.eye(op.shape[-1]))
    rhs = np.broadcast_to(-r, op.shape[:-2] + r.shape[-2:]).reshape(op.shape[:-1] + (1,))
    p = np.linalg.solve(op, rhs).reshape(rhs.shape[:-2] + r.shape[-2:])
    return np.where(ok[..., None, None], 0.5 * (p + p.swapaxes(-1, -2)), np.nan)


def _unpack_r_shape(x: np.ndarray, n: int) -> np.ndarray:
    """Unit-pivot Cholesky shapes R = L L^T, one per row of x: L[i, :i], then log L[i, i], for i >= 1.

    R is NaN on a row whose factor has a diagonal below 1e-8.
    """
    ln = np.zeros((len(x), n, n))
    ln[:, 0, 0] = 1.0
    pos = 0
    for i in range(1, n):
        ln[:, i, :i] = x[:, pos: pos + i]
        ln[:, i, i] = np.exp(np.minimum(x[:, pos + i], 30.0))
        pos += i + 1
    tiny = (ln.diagonal(axis1=1, axis2=2) < 1e-8).any(axis=1)
    return np.where(tiny[:, None, None], np.nan, ln @ ln.swapaxes(1, 2))


def ito_generator(F, G_list) -> np.ndarray:
    """Second-moment operator I(x)F + F(x)I + sum G(x)G of dx = F x dt + sum G x dW.

    vec(E[x x^T]) evolves by this matrix, so -max Re eig is the exact
    mean-square decay rate 2*alpha of the loop: the largest rate any quadratic
    Lyapunov function certifies (Has'minskii, ch. 6).  F may carry leading
    stack axes (G is shared); the result then has them too.
    """
    f = np.asarray(F, dtype=float)
    n = f.shape[-1]
    eye = np.eye(n)

    def kron(a, b):  # np.kron by broadcasting, without its per-call overhead
        return a[..., :, None, :, None] * b[..., None, :, None, :]

    out = kron(eye, f) + kron(f, eye)
    for g in G_list:
        g = np.asarray(g, dtype=float)
        out = out + kron(g, g)
    return out.reshape(f.shape[:-2] + (n * n, n * n))


def _nelder_mead(values, simplex, maxfev: int, xatol: float, fatol: float):
    """Nelder-Mead minimization, (x, fun, nfev) bit for bit scipy's non-adaptive method.

    The float operations of scipy.optimize.minimize(method="Nelder-Mead")
    (Lagarias et al., SIAM J. Optim. 9, 1998): its coefficients, argsort
    reordering and maxfev cut, also inside an iteration or a shrink.  simplex
    is the (N + 1, N) start, or a point x0 for scipy's default simplex about
    it.  values(points) returns the value of each row of a (k, N) stack: the
    reflection, expansion and both contractions of an iteration are scored
    as one stack before any is read, then read in scipy's order, and a shrink
    is one stack.  nfev counts the values read, as scipy counts them.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # probe k is a[k] xbar - b[k] x_worst: reflection, expansion, outside and inside contraction
    # (x - (-y) is x + y exactly, so the inside one matches scipy's (1 - psi) xbar + psi x_worst)
    a, b = np.array([[1 + rho, 1 + rho * chi, 1 + psi * rho, 1 - psi],
                     [rho, rho * chi, psi * rho, -psi]], dtype=float)[:, :, None]
    sim = np.array(simplex, dtype=float)
    if sim.ndim == 1:
        x0, sim = sim, np.tile(sim, (len(sim) + 1, 1))
        for k in range(len(x0)):
            sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    nfev = min(n + 1, maxfev)
    fsim[:nfev] = values(sim[:nfev])
    for _ in range(2):  # scipy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while nfev < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        probes = a * (np.add.reduce(sim[:-1], 0) / n) - b * sim[-1]
        fxr, fxe, fxc, fxcc = values(probes)
        nfev += 1 if not fxr < fsim[0] and fxr < fsim[-2] else 2  # the reflection, then one more?
        if nfev > maxfev:  # scipy stops before the second read and keeps the simplex
            nfev = maxfev
        else:
            if fxr < fsim[0]:
                new = (probes[1], fxe) if fxe < fxr else (probes[0], fxr)
            elif fxr < fsim[-2]:
                new = (probes[0], fxr)
            elif fxr < fsim[-1]:
                new = (probes[2], fxc) if fxc <= fxr else None
            else:
                new = (probes[3], fxcc) if fxcc < fsim[-1] else None
            if new is not None:
                sim[-1], fsim[-1] = new
            else:  # shrink toward the best vertex; a cut moves one vertex more than it scores
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                k = min(n, maxfev - nfev)
                sim[1: k + 2] = shrunk[: k + 1]
                if k:
                    fsim[1: k + 1] = values(shrunk[:k])
                nfev += k
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev


def _rate_optimal_gain(model):
    """Nelder-Mead for the largest exact rate: (K*, b*, 2*alpha_max, counts).

    A linear plant searches the gain, capped at |K| <= _GAIN_CAP, and b* is
    None.  The planar plant also searches log b, clipped to _B_RANGE, for
    2*alpha(K, b) = -max Re eig(ito_generator(*rate_loop(model, B K, b))).
    Each stack of points is one batched generator and eigenvalue call, and
    counts holds the search's nfev, rows and stacks.  A stack with a
    generator or abscissa that is not finite, or a best rate that is not
    positive, certifies no rate and raises InfeasibleError.
    """
    planar = model.nonlinearity is not None
    shape = (model.B_hat.shape[1], model.n)
    k_dims = shape[0] * shape[1]
    log_b = np.log(_B_RANGE)
    calls = Counter()

    def unpack(v):  # per row: the gain scaled back onto |K| <= _GAIN_CAP, and b
        z = v[:, :k_dims]
        norm = np.sqrt(np.vecdot(z, z))  # bit for bit np.linalg.norm of each row
        k = (z * (_GAIN_CAP / np.maximum(norm, _GAIN_CAP))[:, None]).reshape((-1,) + shape)
        b = np.array([math.exp(x) for x in np.clip(v[:, -1], *log_b)]) if planar else None
        return k, b

    def abscissa(v):  # max Re eig of the generator: -2*alpha(K, b), one per row of v
        calls["rows"] += len(v)
        calls["stacks"] += 1
        k, b = unpack(v)
        gen = ito_generator(*rate_loop(model, model.B_hat @ k, b))
        lam = np.linalg.eigvals(gen).real.max(axis=-1) if np.isfinite(gen).all() else np.inf
        if not np.isfinite(lam).all():
            raise InfeasibleError("the mean-square rate generator is not finite: no certifiable rate")
        return lam

    z = np.zeros(k_dims + planar)
    # first-round steps: half the gain cap, one unit of log b
    steps = np.concatenate([np.full(k_dims, 0.5 * _GAIN_CAP), np.ones(int(planar))])
    for simplex in (np.vstack([z, z + np.diag(steps)]), None):
        z, fun, nfev = _nelder_mead(abscissa, z if simplex is None else simplex, 2000, 1e-10, 1e-13)
        calls["nfev"] += nfev
    if not fun < 0.0:
        box = f" and b in {_B_RANGE}" if planar else ""
        raise InfeasibleError(f"plant not stabilizable: best exact mean-square rate 2*alpha = "
                              f"{-fun:.6g} over |K| <= {_GAIN_CAP}{box}")
    k, b = unpack(z[None])
    return k[0], None if b is None else float(b[0]), -float(fun), calls


def _bound_for_gain(model, k_hat: np.ndarray, r_mat: np.ndarray, alpha_bar: np.ndarray, rejected: Counter):
    """(tau, P) per row of a candidate stack, P from the residual-shaped Lyapunov solve.

    Each step is one call over the rows still live.  A rejected row keeps tau
    -inf and a NaN P, counted in `rejected` under its reason: gain_cap,
    singular_solve (a NaN residual shape, an exactly singular operator, or a
    trace-normalized P not positive definite to 1e-12), rate_check (the rate
    inequality re-checked at that scale holds by less than 1e-9, so only in
    exact arithmetic) or gamma_box (no feasible gamma pair in the scan box).
    """
    m, n = len(k_hat), model.n
    tau, p_out = np.full(m, -np.inf), np.full((m, n, n), np.nan)
    live = np.arange(m)

    def keep(ok, reason, *stack):  # drop the rejected rows of live and of each stacked array
        nonlocal live
        rejected[reason] += len(ok) - int(np.count_nonzero(ok))
        live = live[ok]
        return [v[ok] for v in stack]

    keep(np.linalg.norm(k_hat, axis=(1, 2)) <= _GAIN_CAP, "gain_cap")
    b_bar = model.B_hat @ k_hat[live]
    f, g = rate_loop(model, b_bar)
    p = solve_rate_lyapunov(f, g, 2.0 * alpha_bar[live], r_mat[live])
    tr = np.trace(p, axis1=-2, axis2=-1)
    b_bar, f, p, tr = keep(tr > 0.0, "singular_solve", b_bar, f, p, tr)  # NaN: a singular solve
    p = p * (n / tr)[:, None, None]
    w = sym_eigvals(p)
    b_bar, f, p = keep(w[:, 0] > 1e-12 * w[:, -1], "singular_solve", b_bar, f, p)
    rate = assemble_lyapunov_ito(f, g, p, alpha_bar[live])
    b_bar, p = keep(sym_eigvals(rate)[:, -1] <= -1e-9, "rate_check", b_bar, p)
    if not live.size:
        return tau, p_out
    t = _cross_scores(model, b_bar, p, p, alpha_bar[live], coarse=36, refine_rounds=1)[1][2]
    t, p = keep(np.isfinite(t), "gamma_box", t, p)
    tau[live], p_out[live] = t, p
    return tau, p_out


def _unpack_points(z: np.ndarray, model, alpha_max: float):
    """(gains, residual shapes, alpha_bar) of a stack of refinement points, one per row of z."""
    mh, n = model.B_hat.shape[1], model.n
    k_hat = z[:, : mh * n].reshape(-1, mh, n)
    fraction = 0.5 * (1.0 + np.tanh(0.5 * z[:, -1]))  # sigmoid(u), never overflows
    return k_hat, _unpack_r_shape(z[:, mh * n: -1], n), alpha_max * fraction


def _shape_box(n: int) -> list:
    """(lo, hi) of each entry of a unit-pivot Cholesky shape, in _unpack_r_shape's order."""
    return [_SHAPE_BOX[j == i] for i in range(1, n) for j in range(i + 1)]


def _search_box(model) -> np.ndarray:
    """(lo, hi) rows of the refinement box: gain entries, residual-shape entries, logit."""
    mh, n = model.B_hat.shape[1], model.n
    return np.array([(-_GAIN_CAP, _GAIN_CAP)] * (mh * n) + _shape_box(n) + [_LOGIT_BOX]).T


def _objective(score, calls: Counter):
    """-tau of each row of z by score (one point per row, tau -inf where rejected), 10 where
    rejected: one stacked call, counted in calls["stacks"] and its points in calls["rows"]."""
    def objective(z):
        calls["rows"] += len(z)
        calls["stacks"] += 1
        tau = score(z)
        return np.where(np.isfinite(tau), -tau, 10.0)

    return objective


def _evolve(score, lo, hi, calls: Counter, z0=None):
    """Fixed-seed differential evolution of _objective(score, calls) over the box [lo, hi] from z0
    clipped into it: _GENERATIONS generations per coordinate, each of _POPSIZE points per
    coordinate in one stacked call."""
    from scipy.optimize import differential_evolution

    objective = _objective(score, calls)
    de = differential_evolution(
        lambda z: objective(z.T), np.column_stack([lo, hi]), maxiter=_GENERATIONS * len(lo),
        popsize=_POPSIZE, tol=0.0, rng=_SEARCH_SEED, polish=False,
        x0=None if z0 is None else np.clip(z0, lo, hi), updating="deferred", vectorized=True,
    )
    calls["nfev"] = calls["rows"]  # it reads every point it scores
    return de


def _refine_gain(model, k0, alpha_max: float, fraction: float, rejected: Counter, calls: dict):
    """Differential evolution over (gain, residual shape, rate), then a Nelder-Mead polish.

    The search seeds (k0, R = I, logit(fraction)), clipped into the box, and
    scores each generation in one stacked call; the polish (_nelder_mead,
    _POLISH_EVALS evaluations) scores each iteration's four probe points, or
    its shrink, in one stacked call.  `rejected` counts rejected rows per
    reason, and calls["refine"] and calls["polish"] the evaluations, rows and
    stacked calls of each search.  Returns (gain, P, alpha_bar), or None if
    no candidate certified a bound.
    """
    def score(z):
        return _bound_for_gain(model, *_unpack_points(z, model, alpha_max), rejected)[0]

    lo, hi = _search_box(model)
    r_dims = len(lo) - np.size(k0) - 1
    z0 = np.concatenate([np.ravel(k0), np.zeros(r_dims), [math.log(fraction / (1.0 - fraction))]])
    de = _evolve(score, lo, hi, calls["refine"], z0)
    steps = np.maximum(de.population.std(axis=0), 1e-6)  # the polish simplex spans the final spread
    x, _, calls["polish"]["nfev"] = _nelder_mead(
        _objective(score, calls["polish"]), np.vstack([de.x, de.x + np.diag(steps)]),
        _POLISH_EVALS, 1e-10, 1e-13,
    )
    k_hat, r_mat, alpha_bar = _unpack_points(x[None], model, alpha_max)  # the polish keeps its best
    tau, p = _bound_for_gain(model, k_hat, r_mat, alpha_bar, Counter())
    return (k_hat[0], p[0], float(alpha_bar[0])) if np.isfinite(tau[0]) else None


def _cross_scores(model, b_bar, p, pt, alpha_bar, c=None, coarse: int = 120, refine_rounds: int = 3):
    """(alpha_b, (gamma1, gamma2, tau)) of the cross loop at feedback b_bar, P, P_tilde and alpha_bar.

    alpha_b is the exact pencil constant, inflated by _INFLATE; the pair is
    the gamma scan of _best_gamma_pair over cross_loop(model, b_bar, c).
    b_bar, P, P_tilde, alpha_bar and c may each be a stack, as the scan takes
    them.  tau is -inf (and the pair NaN) where no gamma pair in the scan box
    is feasible.
    """
    alpha_b = np.maximum(extract_alpha_b(p, pt, b_bar) * (1 + _INFLATE), _TINY)
    try:
        pair = _best_gamma_pair(*cross_loop(model, b_bar, c), p, pt, alpha_bar, alpha_b, _GAMMA_SCAN,
                                coarse=coarse, refine_rounds=refine_rounds)
    except InfeasibleError:  # no row has a feasible pair
        pair = tuple(np.full(np.shape(alpha_b), v) for v in (np.nan, np.nan, -np.inf))
    return alpha_b, pair


def _finish(model, k_hat, p, alpha_bar, pt=None, b=None, c=None) -> Optional[DesignResult]:
    """Step 4: the full gamma scan and tol-0 re-verification at a gain, positive definite P and alpha_bar.

    P_tilde defaults to P; the planar plant passes its cyber certificate
    P_tilde and envelope weights (b, c).  P is rescaled to trace n, which
    leaves every margin sign unchanged, so a linear certificate
    (P, P_tilde = P, K_hat) comes out at unit scale.  Returns None if no gamma
    pair is feasible or the certificate fails.
    """
    p = p * (model.n / float(np.trace(p)))
    pt = p if pt is None else pt
    alpha_b, (g1, g2, _) = _cross_scores(model, model.B_hat @ k_hat, p, pt, alpha_bar, c)
    if not np.isfinite(g1):
        return None
    cert = LmiCertificate(
        alpha_bar=alpha_bar, P=p, P_tilde=pt,
        alpha_b=float(alpha_b), gamma1=g1, gamma2=g2, b=b, c=c, K_hat=k_hat,
    )
    if not verify_certificate(model, cert, tol=0.0).passed:
        return None
    constants = cert.two_function_constants
    return DesignResult(
        gain=k_hat, certificate=cert, constants=constants, bound=emulation_bound_two(constants),
        trace={"gain_norm": float(np.linalg.norm(k_hat))},
    )


def _traced(result: DesignResult, two_alpha_max, times, calls: dict, rejected: Counter,
            **extra) -> DesignResult:
    """result, its trace filled in; times are the perf_counter readings at the start and after the
    rate search and the refinement, calls the nfev, rows and stacks of each search, and extra the
    plant's own entries."""
    t0, t1, t2 = times
    result.trace.update({
        "two_alpha_max": two_alpha_max,
        "alpha_fraction": result.constants.alpha_bar / (0.5 * two_alpha_max),
        **extra,
        "stage_s": {"rate_search": t1 - t0, "refine": t2 - t1, "finish": time.perf_counter() - t2},
        **{count: {search: float(c[count]) for search, c in calls.items()}
           for count in ("nfev", "rows", "stacks")},
        "rejected": {k: float(v) for k, v in rejected.items()},
    })
    return result


def _unit_rate_solve(model, k_hat, alpha_bar, b=None) -> Optional[np.ndarray]:
    """P of the rate Lyapunov solve of rate_loop(model, B K, b) at alpha_bar with residual I, or
    None where it is not positive definite (NaN, a singular solve, fails too)."""
    p = solve_rate_lyapunov(*rate_loop(model, model.B_hat @ k_hat, b), 2.0 * alpha_bar, np.eye(model.n))
    return p if sym_eigvals(p)[0] > 0.0 else None


def synthesize_feedback(
    model: SampledModel, options: Optional[DesignOptions] = None
) -> DesignResult:
    """Synthesize a stabilizing state-feedback gain maximizing the sampling bound.

    The model must be in design mode (input map present, gain absent).  Raises
    InfeasibleError if no gain with |K| <= _GAIN_CAP gives a positive exact
    mean-square rate, or if neither the refined point nor the fallback at the
    rate-optimal gain yields a verifiable design.
    """
    options = options or DesignOptions()
    if model.nonlinearity is not None or not model.design_mode:
        raise ValidationError("synthesize_feedback needs a linear model in design mode")

    t0 = time.perf_counter()
    k_star, _, two_alpha_max, rate_calls = _rate_optimal_gain(model)
    alpha_max = 0.5 * two_alpha_max
    t1 = time.perf_counter()
    # singular_solve: the rate Lyapunov solve is singular, indefinite or ill-conditioned
    rejected = Counter({"singular_solve": 0, "rate_check": 0, "gamma_box": 0, "gain_cap": 0})
    calls = {"rate_search": rate_calls, "refine": Counter(), "polish": Counter()}
    point = _refine_gain(model, k_star, alpha_max, options.alpha_fraction, rejected, calls)
    t2 = time.perf_counter()
    result = None if point is None else _finish(model, *point)
    fallback = result is None
    if fallback:
        # closed-form candidate: the rate Lyapunov solve at K* with R = I
        alpha_bar = options.alpha_fraction * alpha_max
        p = _unit_rate_solve(model, k_star, alpha_bar)
        result = None if p is None else _finish(model, k_star, p, alpha_bar)
    if result is None:
        raise InfeasibleError("neither the refined nor the rate-optimal gain gave a verifiable design")
    return _traced(result, two_alpha_max, (t0, t1, t2), calls, rejected, fallback=float(fallback))


# ---------------------------------------------------------------------------
# nonlinear planar synthesis
# ---------------------------------------------------------------------------

def synthesize_nonlinear_planar(
    model: SampledModel, options: Optional[DesignOptions] = None
) -> DesignResult:
    """Gain synthesis for the planar sine-envelope plant.

    Nelder-Mead over (K, log b) maximizes the exact rate of the shifted loop
    rate_loop(model, B K, b); P solves its rate Lyapunov equation with residual
    I at alpha_bar = options.alpha_fraction of the maximum.  The design's
    differential evolution then searches the cyber certificate shape and
    log c, each generation one stacked _cross_scores call.  Raises
    InfeasibleError if no gain with |K| <= _GAIN_CAP and b in _B_RANGE gives a
    positive rate, or if the best point does not verify at tol=0.
    """
    options = options or DesignOptions()
    if model.nonlinearity is None or not model.design_mode:
        raise ValidationError("synthesize_nonlinear_planar needs a planar_sin model in design mode")

    t0 = time.perf_counter()
    k_hat, b, two_alpha_max, rate_calls = _rate_optimal_gain(model)
    alpha_bar = 0.5 * options.alpha_fraction * two_alpha_max
    p = _unit_rate_solve(model, k_hat, alpha_bar, b)
    if p is None:
        raise InfeasibleError("the planar rate Lyapunov solve is singular or indefinite")
    unit = p * (model.n / float(np.trace(p)))  # the P that _finish certifies
    b_bar = model.B_hat @ k_hat
    t1 = time.perf_counter()
    rejected, calls = Counter({"gamma_box": 0}), {"rate_search": rate_calls, "refine": Counter()}

    def score(z):  # one row per (P_tilde shape, log c)
        pt, c = _unpack_r_shape(z[:, :-1], model.n), np.exp(z[:, -1])
        tau = _cross_scores(model, b_bar, unit, pt, alpha_bar, c, coarse=40, refine_rounds=1)[1][2]
        rejected["gamma_box"] += int(np.isinf(tau).sum())
        return tau

    lo, hi = np.array(_shape_box(model.n) + [tuple(np.log(_C_RANGE))]).T
    best = _evolve(score, lo, hi, calls["refine"]).x[None]  # no prior point to seed it with
    t2 = time.perf_counter()
    pt, c = _unpack_r_shape(best[:, :-1], model.n)[0], float(np.exp(best[:, -1])[0])
    result = _finish(model, k_hat, p, alpha_bar, pt, b, c)
    if result is None:
        raise InfeasibleError("the best (P_tilde, c) of the search gave no verifiable planar certificate")
    return _traced(result, two_alpha_max, (t0, t1, t2), calls, rejected, b=b, c=c)
