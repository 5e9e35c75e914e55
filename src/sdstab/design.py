"""Envelope-constant extraction and state-feedback gain synthesis.

The linear synthesis pipeline follows the recipe behind the design LMIs:

1. the rate-optimal gain K* maximizes the exact mean-square decay rate
   2*alpha(K) = -max Re eig(ito_generator(A + B K, G)) over |K| <= _GAIN_CAP,
   by Nelder-Mead; at a fixed gain this is the optimum of the rate LMI, so no
   SDP solver is needed;
2. one Nelder-Mead refinement from K* searches the gain, the shape of the
   Lyapunov residual and the rate alpha_bar = alpha_max * sigmoid(u) together,
   maximizing the sampling bound; P solves the rate Lyapunov equation at
   alpha_bar;
3. the feedback-energy constant alpha_b is extracted exactly as a symmetric
   pencil eigenvalue;
4. the cross-gain pair (gamma1, gamma2) is fitted by scanning gamma2 and
   computing the least feasible gamma1 from the Schur complement of the cross
   block, maximizing the resulting sampling bound.

The planar synthesis still takes its rate from the subgradient GEVP in
lmi.minimize_gevp.  Every result is re-verified from raw matrices before it
is returned.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds import SamplingBoundResult, TwoFunctionConstants, emulation_bound_two, two_v_tau
from .errors import InfeasibleError, ValidationError
from .lmi import (
    AffineMatrixMap,
    LmiCertificate,
    VariableLayout,
    assemble_design_rate,
    assemble_lyapunov_ito,
    build_affine_map,
    minimize_gevp,
    solve_feasibility,  # unused here; perfbench/tracer.py wraps it by name in this module
    verify_design_certificate,
    verify_planar_certificate,
)
from .models import LinearSampledModel, NonlinearPlanarModel
from .numerics import pencil_max_eig

_TINY = 1e-12
_INFLATE = 1e-7  # relative safety margin applied to exact pencil optima
_STRICTNESS = 1e-8  # margin every solved LMI point must clear
_GAIN_CAP = 9.9  # |K| bound of the linear design searches (the quality floor is |K| <= 10)
_GAMMA_SCAN = (1e-4, 1e6)  # box for gamma1 and gamma2
_B_RANGE = (5e-3, 20.0)  # planar envelope weight b
_C_RANGE = (1e-1, 1e3)  # planar envelope weight c


def extract_alpha_b(P, P_tilde, B_bar) -> float:
    """Least alpha_b with B^T P B <= alpha_b * P_tilde.

    Returns 0 for B = 0; downstream uses require a strictly positive value,
    so callers should then choose any alpha_b > 0.
    """
    b = np.asarray(B_bar, dtype=float)
    if np.abs(b).max(initial=0.0) == 0.0:
        return 0.0
    return pencil_max_eig(b.T @ P @ b, P_tilde)


def extract_alpha_f(P, F, alpha_bar: float) -> float:
    """Least alpha_f with (F + alpha I)^T P (F + alpha I) <= alpha_f P.

    Zero means exact cancellation (F = -alpha I); choose alpha_f > 0 strictly.
    """
    f = np.asarray(F, dtype=float)
    return extract_alpha_u(P, f + alpha_bar * np.eye(f.shape[0]))


def extract_alpha_u(P, F) -> float:
    """Least alpha_u with F^T P F <= alpha_u P."""
    f = np.asarray(F, dtype=float)
    if np.abs(f).max(initial=0.0) == 0.0:
        return 0.0
    return pencil_max_eig(f.T @ P @ f, P)


def _gamma1_min(
    F, G_list, B_bar, P, P_tilde, gamma2,
    lhs_extra: Optional[np.ndarray] = None,
    shift22: float = 0.0,
) -> np.ndarray:
    """Least gamma1 making the cross block feasible at each gamma2 (NaN where none).

    Obtained from the Schur complement over the (2,2) corner
    S = B^T Pt + Pt B + (gamma2 - shift22) Pt, which must be positive definite.
    gamma2 is a scalar or an array; the result has its shape.
    """
    g2 = np.asarray(gamma2, dtype=float)
    pt = np.asarray(P_tilde)
    b = np.asarray(B_bar)
    s = b.T @ pt + pt @ b + (g2.reshape(-1, 1, 1) - shift22) * pt
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    ok = np.linalg.eigvalsh(s)[:, 0] > 0.0
    out = np.full(g2.size, np.nan)
    if ok.any():
        f = np.asarray(F)
        lhs = f.T @ pt @ np.linalg.solve(s[ok], pt @ f)
        for g in G_list:
            lhs = lhs + np.asarray(g).T @ pt @ np.asarray(g)
        if lhs_extra is not None:
            lhs = lhs + lhs_extra
        out[ok] = pencil_max_eig(lhs, P)
    return out.reshape(g2.shape)


def _best_gamma_pair(
    F, G_list, B_bar, P, P_tilde,
    alpha_bar: float, alpha_b: float,
    scan: Tuple[float, float],
    lhs_extra: Optional[np.ndarray] = None,
    shift22: float = 0.0,
    coarse: int = 120,
    refine_rounds: int = 3,
) -> Tuple[float, float, float]:
    """Scan gamma2, take the exact least gamma1 per point, maximize the bound.

    Each round evaluates its whole gamma2 grid at once; the first maximum
    wins, and a later round replaces the best pair only if it beats it.
    Returns (gamma1, gamma2, tau_max); raises InfeasibleError if the scan box
    contains no feasible pair.
    """
    lo, hi = scan
    bp = np.asarray(B_bar).T @ P_tilde + np.asarray(P_tilde) @ np.asarray(B_bar)
    g2_floor = shift22 + pencil_max_eig(-bp, P_tilde)
    start = max(lo, g2_floor * (1 + 1e-9) + _TINY, _TINY)
    if start >= hi:
        raise InfeasibleError("gamma2 scan box excludes every feasible point")

    best = None
    grid = np.exp(np.linspace(math.log(start), math.log(hi), coarse))
    for _ in range(refine_rounds + 1):
        g1 = _gamma1_min(F, G_list, B_bar, P, P_tilde, grid, lhs_extra, shift22)
        g1 = np.maximum(g1 * (1 + _INFLATE), max(_TINY, lo))
        ok = g1 <= hi  # NaN, an infeasible corner, compares False
        if ok.any():
            g1, g2 = g1[ok], grid[ok]
            _, tau = two_v_tau(alpha_bar, alpha_b, g1, g2)
            i = int(np.argmax(tau))
            if best is None or tau[i] > best[2]:
                best = (float(g1[i]), float(g2[i]), float(tau[i]))
        if best is None:
            raise InfeasibleError("no feasible (gamma1, gamma2) in the scan box")
        step = grid[1] / grid[0]
        g2c = best[1]
        grid = np.exp(
            np.linspace(math.log(max(g2c / step**2, start)), math.log(min(g2c * step**2, hi)), 25)
        )
    return best


def fit_gamma(
    model: LinearSampledModel,
    P,
    P_tilde,
    alpha_bar: Optional[float] = None,
    alpha_b: Optional[float] = None,
    scan: Tuple[float, float] = _GAMMA_SCAN,
) -> Tuple[float, float]:
    """Feasible cross-gain pair for the two-function cross block.

    The pair maximizes the resulting sampling bound over the scan box.
    alpha_bar defaults to the largest rate this P certifies, alpha_b to its
    exact pencil extraction.
    """
    b_bar = model.B_bar
    if b_bar is None:
        raise ValidationError("fit_gamma needs a resolved feedback matrix")
    f = model.A + b_bar
    if alpha_bar is None:
        cap = -0.5 * pencil_max_eig(assemble_lyapunov_ito(f, model.diffusion, P, 0.0), P)
        if cap <= 0:
            raise InfeasibleError("P certifies no positive decay rate for this loop")
        alpha_bar = 0.999 * cap
    if alpha_b is None:
        alpha_b = max(extract_alpha_b(P, P_tilde, b_bar) * (1 + _INFLATE), _TINY)
    g1, g2, _ = _best_gamma_pair(f, model.diffusion, b_bar, P, P_tilde, alpha_bar, alpha_b, scan)
    return g1, g2


@dataclass(frozen=True)
class DesignOptions:
    """Knobs for gain synthesis.

    c_tilde: a number, a sweep of numbers, or None for an automatic log sweep
    (the cyber/physical certificate ratio; free for deterministic plants).
    """

    c_tilde: Union[float, Sequence[float], None] = 1.0
    alpha_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha_fraction < 1.0:  # NaN fails too
            raise ValidationError(f"alpha_fraction must lie in (0, 1), got {self.alpha_fraction!r}")

    def c_tilde_candidates(self) -> Tuple[float, ...]:
        if self.c_tilde is None:
            return tuple(np.exp(np.linspace(math.log(0.05), math.log(50.0), 13)))
        if np.isscalar(self.c_tilde):
            return (float(self.c_tilde),)
        return tuple(float(v) for v in self.c_tilde)


@dataclass(frozen=True)
class DesignResult:
    """Synthesized gain with its re-verified certificate and sampling bound."""

    gain: np.ndarray
    Q: np.ndarray
    Y: np.ndarray
    certificate: LmiCertificate
    constants: TwoFunctionConstants
    bound: SamplingBoundResult
    trace: Dict[str, Any] = field(default_factory=dict)  # floats, or dicts of floats


def _q_below_identity(v):
    """Normalization block Q <= I, read as I - Q."""
    return np.eye(len(v["Q"])) - v["Q"]


def _design_rate_maps(model: LinearSampledModel):
    """GEVP data for the design rate LMI: numerator diag(Q, 0), denominator the negated rate block."""
    layout = VariableLayout()
    layout.add_sym(model.n, "Q")
    layout.add_full(model.B_hat.shape[1], model.n, "Y")
    n, k = model.n, len(model.diffusion)

    def num(v):
        m = np.zeros((n * (1 + k), n * (1 + k)))
        m[:n, :n] = v["Q"]
        return m

    def den(v):
        return -assemble_design_rate(model.A, model.diffusion, model.B_hat, v["Q"], v["Y"], 0.0)

    return (layout, build_affine_map(layout, num), build_affine_map(layout, den),
            build_affine_map(layout, _q_below_identity))


def _rate_feasibility_map(model: LinearSampledModel, layout: VariableLayout, alpha_bar: float):
    """The design rate block at alpha_bar stacked with Q <= I."""

    def rate(v):
        return assemble_design_rate(model.A, model.diffusion, model.B_hat, v["Q"], v["Y"], alpha_bar)

    return AffineMatrixMap.blockdiag(
        build_affine_map(layout, rate), build_affine_map(layout, _q_below_identity)
    )


def _sym_basis(n: int):
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
    return basis


def solve_rate_lyapunov(F, G_list, two_alpha: float, R) -> Optional[np.ndarray]:
    """Solve F^T P + P F + sum G^T P G + two_alpha P = -R for symmetric P.

    Returns None when the shifted Lyapunov operator is singular; a positive
    definite solution exists exactly when the loop decays faster than
    two_alpha in mean square, which makes this the workhorse for generating
    rate-feasible candidate certificates.
    """
    f = np.asarray(F, dtype=float)
    n = f.shape[0]
    basis = _sym_basis(n)
    cols = []
    for e in basis:
        le = f.T @ e + e @ f + two_alpha * e
        for g in G_list:
            le = le + np.asarray(g).T @ e @ np.asarray(g)
        cols.append([le[i, j] for i in range(n) for j in range(i, n)])
    m = np.array(cols).T
    rhs = np.array([-np.asarray(R)[i, j] for i in range(n) for j in range(i, n)])
    try:
        v = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None
    p = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i, n):
            p[i, j] = p[j, i] = v[k]
            k += 1
    return p


def _unpack_r_shape(x: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Unit-pivot Cholesky parameterization of the residual shape R."""
    ln = np.zeros((n, n))
    ln[0, 0] = 1.0
    pos = 0
    for i in range(1, n):
        for j in range(i):
            ln[i, j] = x[pos]
            pos += 1
        d = math.exp(min(x[pos], 30.0))
        if d < 1e-8:
            return None
        ln[i, i] = d
        pos += 1
    return ln @ ln.T


def ito_generator(F, G_list) -> np.ndarray:
    """Second-moment operator I(x)F + F(x)I + sum G(x)G of dx = F x dt + sum G x dW.

    vec(E[x x^T]) evolves by this matrix, so -max Re eig is the exact
    mean-square decay rate 2*alpha of the loop: the largest rate any quadratic
    Lyapunov function certifies (Has'minskii, ch. 6).
    """
    f = np.asarray(F, dtype=float)
    eye = np.eye(f.shape[0])
    out = np.kron(eye, f) + np.kron(f, eye)
    for g in G_list:
        g = np.asarray(g, dtype=float)
        out = out + np.kron(g, g)
    return out


def _capped_gain(z: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """The gain z scaled back onto the ball |K| <= _GAIN_CAP."""
    k = np.asarray(z, dtype=float).reshape(shape)
    norm = float(np.linalg.norm(k))
    return k * (_GAIN_CAP / norm) if norm > _GAIN_CAP else k


def _rate_optimal_gain(model: LinearSampledModel):
    """Nelder-Mead over the capped gain for the largest exact rate: (K*, 2*alpha_max, nfev)."""
    from scipy.optimize import minimize

    shape = (model.B_hat.shape[1], model.n)

    def abscissa(v):  # max Re eig of the generator: -2*alpha(K)
        f = model.A + model.B_hat @ _capped_gain(v, shape)
        return np.linalg.eigvals(ito_generator(f, model.diffusion)).real.max()

    z = np.zeros(shape[0] * shape[1])
    nfev = 0
    for simplex in (np.vstack([z, 0.5 * _GAIN_CAP * np.eye(z.size)]), None):
        res = minimize(
            abscissa, z, method="Nelder-Mead",
            options={"initial_simplex": simplex, "maxfev": 2000, "xatol": 1e-10, "fatol": 1e-13},
        )
        z, nfev = res.x, nfev + int(res.nfev)
    return _capped_gain(z, shape), -float(res.fun), nfev


def _bound_for_gain(model, k_hat: np.ndarray, r_mat: np.ndarray, alpha_bar: float, rejected: Counter):
    """(tau, P) for a candidate gain with P from the residual-shaped Lyapunov solve.

    P is trace-normalized and the rate inequality is re-checked at that scale;
    near-singular solves (gain driving the shifted operator towards
    singularity) fail the margin check and are rejected, which keeps the
    search away from certificates that only hold in exact arithmetic.  Each
    rejection is counted in `rejected` under its reason.
    """
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


def _unpack_point(z: np.ndarray, model, alpha_max: float):
    """(gain, residual shape or None, alpha_bar) of a refinement point."""
    mh, n = model.B_hat.shape[1], model.n
    k_hat = z[: mh * n].reshape(mh, n)
    fraction = 0.5 * (1.0 + math.tanh(0.5 * z[-1]))  # sigmoid(u), never overflows
    return k_hat, _unpack_r_shape(z[mh * n: -1], n), alpha_max * fraction


def _gain_objective(z: np.ndarray, model, alpha_max: float, rejected: Counter) -> float:
    k_hat, r_mat, alpha_bar = _unpack_point(z, model, alpha_max)
    if np.linalg.norm(k_hat) > _GAIN_CAP:
        rejected["gain_cap"] += 1
        return 10.0
    if r_mat is None:
        rejected["singular_solve"] += 1
        return 10.0
    out = _bound_for_gain(model, k_hat, r_mat, alpha_bar, rejected)
    return 10.0 if out is None else -out[0]


def _refine_gain(model, k0, alpha_max: float, fraction: float, rejected: Counter):
    """Nelder-Mead over (gain, residual shape, rate), two rounds from (k0, R = I, fraction).

    Returns (gain, P, alpha_bar) and the evaluation count; the point is None
    if no candidate certified a bound.
    """
    from scipy.optimize import minimize

    k_dims, r_dims = np.size(k0), model.n * (model.n + 1) // 2 - 1
    z = np.concatenate([np.ravel(k0), np.zeros(r_dims), [math.log(fraction / (1.0 - fraction))]])
    # first-round steps: a tenth of the gain cap, half a unit of log-shape, one unit of logit
    steps = np.concatenate([np.full(k_dims, 0.1 * _GAIN_CAP), np.full(r_dims, 0.5), [1.0]])
    nfev = 0
    for simplex in (np.vstack([z, z + np.diag(steps)]), None):
        res = minimize(
            _gain_objective, z, args=(model, alpha_max, rejected), method="Nelder-Mead",
            options={"initial_simplex": simplex, "maxfev": 800, "xatol": 1e-8, "fatol": 1e-11},
        )
        z, nfev = res.x, nfev + int(res.nfev)
    if res.fun >= 0.0:
        return None, nfev
    k_hat, r_mat, alpha_bar = _unpack_point(z, model, alpha_max)
    out = _bound_for_gain(model, k_hat, r_mat, alpha_bar, Counter())
    if out is None:
        return None, nfev
    return (k_hat, out[1], alpha_bar), nfev


def _finish_linear_design(model, Q, Y, alpha_bar, options) -> Optional[DesignResult]:
    """Steps 3-4 plus re-verification for a fixed (Q, Y, alpha_bar).

    (Q, Y) is rescaled jointly so trace(Q^{-1}) = n; the gain and every margin
    sign are invariant, and the certificate comes out at unit scale.
    """
    p = np.linalg.inv(Q)
    p = 0.5 * (p + p.T)
    u = float(np.trace(p)) / model.n
    if u <= 0.0:
        return None
    Q, Y, p = Q * u, Y * u, p / u
    k_hat = Y @ np.linalg.inv(Q)
    closed = model.with_gain(k_hat)
    b_bar = closed.B_bar
    f = model.A + b_bar
    best = None
    for c_tilde in options.c_tilde_candidates():
        p_tilde = c_tilde * p
        alpha_b = max(extract_alpha_b(p, p_tilde, b_bar) * (1 + _INFLATE), _TINY)
        try:
            g1, g2, tau = _best_gamma_pair(
                f, model.diffusion, b_bar, p, p_tilde, alpha_bar, alpha_b, _GAMMA_SCAN
            )
        except InfeasibleError:
            continue
        if best is None or tau > best[0]:
            best = (tau, c_tilde, alpha_b, g1, g2)
    if best is None:
        return None
    tau, c_tilde, alpha_b, g1, g2 = best
    cert = LmiCertificate(
        alpha_bar=alpha_bar, P=p, P_tilde=c_tilde * p,
        alpha_b=alpha_b, gamma1=g1, gamma2=g2, c_tilde=c_tilde,
        Q=Q, Y=Y, K_hat=k_hat,
    )
    outcome = verify_design_certificate(model, cert, tol=0.0)
    if not outcome.passed:
        return None
    constants = TwoFunctionConstants(alpha_bar, alpha_b, g1, g2)
    bound = emulation_bound_two(constants)
    return DesignResult(
        gain=k_hat, Q=Q, Y=Y, certificate=cert, constants=constants, bound=bound,
        trace={"c_tilde": c_tilde, "gain_norm": float(np.linalg.norm(k_hat))},
    )


def synthesize_feedback(
    model: LinearSampledModel, options: Optional[DesignOptions] = None
) -> DesignResult:
    """Synthesize a stabilizing state-feedback gain maximizing the sampling bound.

    The model must be in design mode (input map present, gain absent).  Raises
    InfeasibleError if no gain with |K| <= _GAIN_CAP gives a positive exact
    mean-square rate, or if neither the refined point nor the fallback at the
    rate-optimal gain yields a verifiable design.
    """
    options = options or DesignOptions()
    if not isinstance(model, LinearSampledModel) or not model.design_mode:
        raise ValidationError("synthesize_feedback needs a linear model in design mode")

    t0 = time.perf_counter()
    k_star, two_alpha_max, rate_nfev = _rate_optimal_gain(model)
    if two_alpha_max <= 0.0:
        raise InfeasibleError(
            f"plant not stabilizable: best exact mean-square rate 2*alpha = {two_alpha_max:.6g} "
            f"over |K| <= {_GAIN_CAP}"
        )
    alpha_max = 0.5 * two_alpha_max

    def finish(k_hat, p, alpha_bar):
        q = np.linalg.inv(p)
        q = 0.5 * (q + q.T)
        return _finish_linear_design(model, q, k_hat @ q, alpha_bar, options)

    t1 = time.perf_counter()
    # singular_solve: the rate Lyapunov solve is singular, indefinite or ill-conditioned
    rejected = Counter({"singular_solve": 0, "rate_check": 0, "gamma_box": 0, "gain_cap": 0})
    point, refine_nfev = _refine_gain(model, k_star, alpha_max, options.alpha_fraction, rejected)
    t2 = time.perf_counter()
    result = None if point is None else finish(*point)
    fallback = result is None
    if fallback:
        # closed-form candidate: the rate Lyapunov solve at K* with R = I
        alpha_bar = options.alpha_fraction * alpha_max
        p = solve_rate_lyapunov(model.A + model.B_hat @ k_star, model.diffusion, 2.0 * alpha_bar,
                                np.eye(model.n))
        if p is not None and np.linalg.eigvalsh(p)[0] > 0.0:
            result = finish(k_star, p, alpha_bar)
    if result is None:
        raise InfeasibleError("neither the refined nor the rate-optimal gain gave a verifiable design")
    result.trace.update({
        "two_alpha_max": two_alpha_max,
        "alpha_fraction": result.constants.alpha_bar / alpha_max,
        "fallback": float(fallback),
        "stage_s": {"rate_search": t1 - t0, "refine": t2 - t1,
                    "finish": time.perf_counter() - t2},
        "nfev": {"rate_search": float(rate_nfev), "refine": float(refine_nfev)},
        "rejected": {k: float(v) for k, v in rejected.items()},
    })
    return result


# ---------------------------------------------------------------------------
# nonlinear planar synthesis
# ---------------------------------------------------------------------------

def _planar_rate_maps(model: NonlinearPlanarModel, b: float):
    layout = VariableLayout()
    layout.add_sym(2, "Q")
    layout.add_full(1, 2, "Y")
    e1 = model.envelope

    def num(v):
        m = np.zeros((4, 4))
        m[:2, :2] = v["Q"]
        return m

    def den(v):
        q, y = v["Q"], v["Y"]
        m = q @ model.A_bar.T + model.A_bar @ q + y.T @ model.B_hat.T + model.B_hat @ y + b * q
        return -np.block([[m, (e1 @ q).T], [e1 @ q, -b * q]])

    return (layout, build_affine_map(layout, num), build_affine_map(layout, den),
            build_affine_map(layout, _q_below_identity))


def _planar_gamma_search(model, p, b_bar, a_tilde, alpha_bar):
    """Maximize the bound over the cyber certificate shape P_tilde and weight c.

    P_tilde enters the bound scale-free, so it is parameterized by a unit
    Cholesky factor [[1, 0], [l1, l2]]; for each (l1, l2, c) the exact least
    gamma1 per gamma2 comes from the Schur pencil and gamma2 is scanned.
    """
    e1 = model.envelope
    c_lo, c_hi = _C_RANGE

    def evaluate(l1: float, l2: float, c: float):
        pt = np.array([[1.0, l1], [l1, l1 * l1 + l2 * l2]])
        alpha_b = max(extract_alpha_b(p, pt, b_bar) * (1 + _INFLATE), _TINY)
        try:
            g1, g2, tau = _best_gamma_pair(
                a_tilde, (), b_bar, p, pt, alpha_bar, alpha_b,
                _GAMMA_SCAN,
                lhs_extra=(e1.T @ pt @ e1) / c,
                shift22=c,
                coarse=40,
                refine_rounds=1,
            )
        except InfeasibleError:
            return None
        return tau, pt, alpha_b, g1, g2

    best = None
    best_arg = None
    l1g = np.linspace(-4.0, 4.0, 9)
    l2g = np.exp(np.linspace(math.log(0.02), math.log(5.0), 9))
    cg = np.exp(np.linspace(math.log(c_lo), math.log(c_hi), 9))
    for _ in range(3):
        for l1 in l1g:
            for l2 in l2g:
                for c in cg:
                    out = evaluate(float(l1), float(l2), float(c))
                    if out is not None and (best is None or out[0] > best[0]):
                        best = out
                        best_arg = (float(l1), float(l2), float(c))
        if best is None:
            return None
        l1c, l2c, cc = best_arg
        dl = (l1g[1] - l1g[0]) if len(l1g) > 1 else 0.5
        l1g = np.linspace(l1c - dl, l1c + dl, 7)
        r2 = l2g[1] / l2g[0] if len(l2g) > 1 else 2.0
        l2g = np.exp(np.linspace(math.log(l2c / r2), math.log(l2c * r2), 7))
        rc = cg[1] / cg[0] if len(cg) > 1 else 2.0
        cg = np.exp(np.linspace(math.log(max(cc / rc, c_lo)), math.log(min(cc * rc, c_hi)), 7))
    return best + (best_arg,)


def synthesize_nonlinear_planar(
    options: Optional[DesignOptions] = None,
    model: Optional[NonlinearPlanarModel] = None,
) -> DesignResult:
    """Gain synthesis for the planar sine-envelope plant.

    Scans the envelope weight b; per b, a GEVP maximizes the certifiable rate,
    then the cyber certificate shape and weight c are searched to maximize the
    sampling bound.  The winning certificate is re-verified before returning.
    """
    options = options or DesignOptions()
    model = model or NonlinearPlanarModel(name="planar")
    if not model.design_mode:
        raise ValidationError("model already carries a gain; synthesis needs design mode")

    b_lo, b_hi = _B_RANGE
    b_grid = np.exp(np.linspace(math.log(b_lo), math.log(b_hi), 10))
    best: Optional[DesignResult] = None
    for b in b_grid:
        layout, num, den, norm = _planar_rate_maps(model, float(b))
        try:
            gevp = minimize_gevp(
                num, den, extra=norm, seed=options.seed, strictness=_STRICTNESS
            )
        except InfeasibleError:
            continue
        alpha_bar = 0.5 * options.alpha_fraction / gevp.lam
        v = layout.unpack(gevp.point)
        q, y = v["Q"], v["Y"]
        k_hat = y @ np.linalg.inv(q)
        p = np.linalg.inv(q)
        p = 0.5 * (p + p.T)
        closed = model.with_gain(k_hat)
        b_bar = closed.B_bar
        a_tilde = model.A_bar + b_bar
        out = _planar_gamma_search(model, p, b_bar, a_tilde, alpha_bar)
        if out is None:
            continue
        tau, pt, alpha_b, g1, g2, (l1, l2, c) = out
        cert = LmiCertificate(
            alpha_bar=alpha_bar, P=p, P_tilde=pt,
            alpha_b=alpha_b, gamma1=g1, gamma2=g2, b=float(b), c=c, K_hat=k_hat,
        )
        outcome = verify_planar_certificate(model, cert, tol=0.0)
        if not outcome.passed:
            continue
        constants = TwoFunctionConstants(alpha_bar, alpha_b, g1, g2)
        result = DesignResult(
            gain=k_hat, Q=q, Y=y, certificate=cert, constants=constants,
            bound=emulation_bound_two(constants),
            trace={
                "b": float(b), "c": c, "lambda_step1": gevp.lam,
                "gain_norm": float(np.linalg.norm(k_hat)),
            },
        )
        if best is None or result.bound.tau_max > best.bound.tau_max:
            best = result
    if best is None:
        raise InfeasibleError("no feasible planar design over the (b, c) search box")
    return best
