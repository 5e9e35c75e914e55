"""Maximum-allowable-sampling-interval computations.

Four bound families, all returning a SamplingBoundResult whose tau_max is a
strict upper bound on the admissible supremum of sampling gaps:

* generic: tau(q) = -ln q / ((a1 q)^{-1} a2 at1 + at2) for a coupled pair of
  Lyapunov functions, with the interior maximizer the root of
  c (1 + ln q) + q = 0, c = a2 at1 / (a1 at2);
* single-V emulation: the closed-form KKT optimum of the three-parameter
  reciprocal objective in (q, b1, b2) at a q* found by root finding;
* two-function emulation: tau(q) = -alpha^2 q ln q / (alpha_b g1 + g2 alpha^2 q)
  with q* the root of the same equation at c = alpha_b g1 / (alpha^2 g2);
* discrete-time approximation: the same single-V bound, with its rate
  r = alpha * sqrt(q), after mapping the discrete design data (c_bar, h,
  alpha_u) to the decay rate 2 alpha = c_bar / h + alpha_u h.

c (1 + ln q) + q = 0 has the closed-form root q = c W0(1/(c e)), W0 the
principal branch of the Lambert W function (Corless et al., Adv. Comput.
Math. 5, 1996).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalFailure

_Q_FLOOR = 1e-300  # open-left brackets are closed at a representable positive value
_ROOT_TOL = 1e-14

# perfbench/tracer.py looks this name up by getattr; it goes with the tracer's rows (ROADMAP item 1)
find_root = None


def _require_positive(**kwargs) -> None:
    for name, v in kwargs.items():
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be positive and finite, got {v}")


def _require_nonnegative(**kwargs) -> None:
    for name, v in kwargs.items():
        if not (math.isfinite(v) and v >= 0):
            raise DomainError(f"{name} must be nonnegative and finite, got {v}")


@dataclass(frozen=True)
class GainConstants:
    """Scalar data of the coupled-Lyapunov stability conditions.

    alpha1/alpha2 bound the physical generator, alphat1/alphat2 the cyber one,
    beta1..beta3 the impulse-time comparison, p is the moment order.
    """

    alpha1: float
    alpha2: float
    alphat1: float
    alphat2: float
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        _require_positive(alpha1=self.alpha1, alphat2=self.alphat2, p=self.p)
        _require_nonnegative(
            alpha2=self.alpha2, alphat1=self.alphat1,
            beta1=self.beta1, beta2=self.beta2, beta3=self.beta3,
        )


@dataclass(frozen=True)
class EmulationConstants:
    """Single-Lyapunov-function emulation data: decay rate and the two envelopes."""

    alpha_bar: float
    alpha_b: float
    alpha_f: float

    def __post_init__(self):
        _require_positive(alpha_bar=self.alpha_bar, alpha_b=self.alpha_b, alpha_f=self.alpha_f)


@dataclass(frozen=True)
class TwoFunctionConstants:
    """Two-Lyapunov-function data: decay rate, feedback energy, cross gains."""

    alpha_bar: float
    alpha_b: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        _require_positive(
            alpha_bar=self.alpha_bar, alpha_b=self.alpha_b,
            gamma1=self.gamma1, gamma2=self.gamma2,
        )


@dataclass(frozen=True)
class SamplingBoundResult:
    """Optimizer output: the maximizing q, the bound, and solver auxiliaries.

    tau_max is strict: schedules must keep their supremum gap strictly below it.
    """

    q_star: float
    tau_max: float
    provenance: str
    auxiliary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConditionReport:
    value: float
    ok: bool
    degenerate: bool


def _stationary_q(k, s):
    """Root of s q + k (1 + ln q) = 0 for k, s > 0: q = c W0(1/(c e)) with c = k / s.

    Elementwise over broadcast arrays; scalar k and s give a float.
    """
    from scipy.special import lambertw  # imported here so `import sdstab.cli` loads no scipy

    k, s = np.asarray(k, dtype=float), np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = k / s  # an underflowed s or k / s ends in a NaN q below
        q = c * lambertw(1.0 / (c * math.e)).real
    bad = ~((0.0 < q) & (q < 1.0))
    if bad.any():
        kb, sb = (np.broadcast_to(v, q.shape)[bad].flat[0] for v in (k, s))
        raise DomainError(f"stationary point not representable in floating point (k={kb:g}, s={sb:g})")
    return float(q) if q.ndim == 0 else q


def check_condition_iii(g: GainConstants) -> ConditionReport:
    """Impulse-comparison feasibility: value = beta1*alpha2/alpha1 + beta2 + beta3 < 1.

    Value exactly 0 is allowed and flagged degenerate (the sampled-data reset
    case, where the comparison constants can be taken arbitrarily small).
    """
    value = g.alpha2 * g.beta1 / g.alpha1 + g.beta2 + g.beta3
    return ConditionReport(value=value, ok=value < 1.0, degenerate=value == 0.0)


def htau_generic(q: float, g: GainConstants) -> float:
    """Generic interval bound tau(q) = -ln q / ((alpha1 q)^{-1} alpha2 alphat1 + alphat2)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    return -math.log(q) / (g.alpha2 * g.alphat1 / g.alpha1 / q + g.alphat2)  # alpha1 * q may underflow


def solve_qhat_star(g: GainConstants, q_hat: Optional[float] = None) -> SamplingBoundResult:
    """Maximize the generic bound over admissible q.

    The stationary q* solves (alpha2 alphat1/(alpha1 alphat2))(1 + ln q) + q = 0
    inside (exp(-(a1 at2 + a2 at1)/(a2 at1)), 1); the reported bound is taken at
    max(q*, q0) where q0 also respects the impulse-comparison constraint.

    With alpha2 == 0 or alphat1 == 0 the bound loses its q-coupling (ISS-free
    branch): the caller must supply q_hat and gets -ln(q_hat)/alphat2 back.
    """
    cond = check_condition_iii(g)
    if not cond.ok:
        raise InfeasibleError(
            f"impulse comparison value {cond.value:.6g} >= 1; no admissible q exists"
        )
    if g.alpha2 == 0.0 or g.alphat1 == 0.0:
        if q_hat is None:
            raise DomainError(
                "alpha2 == 0 or alphat1 == 0: bound is governed by alphat2 only; supply q_hat"
            )
        if not cond.value < q_hat < 1.0:
            raise DomainError(f"q_hat must lie in ({cond.value:.6g}, 1)")
        return SamplingBoundResult(
            q_star=q_hat,
            tau_max=htau_generic(q_hat, g),
            provenance="generic-iss-free",
            auxiliary={"condition_iii": cond.value, "degenerate": cond.degenerate},
        )
    k, s = g.alpha2 * g.alphat1, g.alpha1 * g.alphat2
    q_star = _stationary_q(k, s)
    c = k / s
    lo = math.exp(-(s + k) / k)
    q0 = max(cond.value, lo)
    q_eff = max(q_star, q0)
    return SamplingBoundResult(
        q_star=q_eff,
        tau_max=htau_generic(q_eff, g),
        provenance="generic",
        auxiliary={
            "q_hat_star": q_star,
            "q_hat_0": q0,
            "bracket": (lo, 1.0),
            "stationarity_residual": c * (1.0 + math.log(q_star)) + q_star,
            "condition_iii": cond.value,
            "degenerate": cond.degenerate,
        },
    )


# ---------------------------------------------------------------------------
# single-Lyapunov-function emulation bound (closed-form KKT optimum)
# ---------------------------------------------------------------------------

def single_v_objective(q, b1, b2, c: EmulationConstants):
    """Three-parameter bound surface tau(q, b1, b2); numpy-broadcastable.

    tau = -a^2 q ln q / ([2 sqrt(ab) + b1 + (b1+a) b2] a^2 q
                         + ab [b1 + af/b1 + (b1+a)/b2]).
    """
    a, ab, af = c.alpha_bar, c.alpha_b, c.alpha_f
    a2q = a * a * q
    den = (2.0 * np.sqrt(ab) + b1 + (b1 + a) * b2) * a2q + ab * (b1 + af / b1 + (b1 + a) / b2)
    return -a2q * np.log(q) / den


def single_v_stationarity(q: float, c: EmulationConstants) -> float:
    """Derivative condition whose unique root in (0, 1/e) locates the optimum."""
    a, ab, af = c.alpha_bar, c.alpha_b, c.alpha_f
    r = a * math.sqrt(q)
    return 2.0 * r * r + (a + math.sqrt(af)) * r + (
        (a + math.sqrt(af)) * r + 2.0 * math.sqrt(ab * af)
    ) * (math.log(q) + 1.0)


def single_v_curve(q: float, c: EmulationConstants, q_star: float) -> float:
    """Bound curve tau(q) with the auxiliary parameters frozen at their optima."""
    for name, v in (("q", q), ("q_star", q_star)):
        if not 0.0 < v < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {v}")
    a, ab, af = c.alpha_bar, c.alpha_b, c.alpha_f
    rs = a * math.sqrt(q_star)
    r2 = a * a * q
    den = math.sqrt(ab) * (
        (2.0 * rs + a + math.sqrt(af)) * r2
        + (a + math.sqrt(af)) * rs * rs
        + 2.0 * math.sqrt(ab * af) * rs
    )
    return -rs * r2 * math.log(q) / den


def emulation_bound_single(c: EmulationConstants) -> SamplingBoundResult:
    """Single-V bound: solve the stationarity equation, apply the KKT closed form.

    b1* = sqrt(ab af) / (a sqrt(q*) + sqrt(ab)), b2* = sqrt(ab) / (a sqrt(q*)),
    and tau_max = tau(q*, b1*, b2*), the maximum of the full surface.  q* is
    found by Brent's method on [_Q_FLOOR, 1/e]; DomainError when an endpoint
    value, tau_max, b1* or b2* is not finite or there is no sign change.
    """
    from scipy.optimize import brentq  # imported here so `import sdstab.cli` loads no scipy

    f = lambda q: single_v_stationarity(q, c)
    lo, hi = _Q_FLOOR, math.exp(-1.0)
    f_lo, f_hi = f(lo), f(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise DomainError(f"stationarity condition is not finite at the bracket ends ({f_lo:g}, {f_hi:g})")
    if f_lo * f_hi > 0.0:
        raise DomainError("stationarity condition does not change sign on (0, 1/e)")
    q_star, info = brentq(f, lo, hi, xtol=_ROOT_TOL, full_output=True, disp=False)
    if not info.converged:
        raise NumericalFailure(f"stationarity root not found: {info.flag}")
    a, ab, af = c.alpha_bar, c.alpha_b, c.alpha_f
    r = a * math.sqrt(q_star)
    b1 = math.sqrt(ab * af) / (r + math.sqrt(ab))
    b2 = math.sqrt(ab) / r
    with np.errstate(over="ignore", invalid="ignore"):
        tau = float(single_v_objective(q_star, b1, b2, c))
    if not all(map(math.isfinite, (tau, b1, b2))):
        raise DomainError(f"single-V bound is not finite (tau={tau:g}, b1*={b1:g}, b2*={b2:g})")
    return SamplingBoundResult(
        q_star=q_star,
        tau_max=tau,
        provenance="emulation-single",
        auxiliary={
            "b1_star": b1,
            "b2_star": b2,
            "stationarity_residual": f(q_star),
            "bracket": (0.0, math.exp(-1.0)),
        },
    )


# ---------------------------------------------------------------------------
# two-Lyapunov-function emulation bound
# ---------------------------------------------------------------------------

def _two_v_at(q, a, ab, g1, g2):
    """tau(q) = -alpha^2 q ln q / (alpha_b gamma1 + gamma2 alpha^2 q), elementwise."""
    a2q = a * a * q
    return -a2q * np.log(q) / (ab * g1 + g2 * a2q)


def two_v_curve(q: float, c: TwoFunctionConstants) -> float:
    """tau(q) = -alpha^2 q ln q / (alpha_b gamma1 + gamma2 alpha^2 q) on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = float(_two_v_at(q, c.alpha_bar, c.alpha_b, c.gamma1, c.gamma2))
    if not math.isfinite(tau):
        raise DomainError(f"tau(q) is not representable in floating point at q={q:g}")
    return tau


def two_v_tau(alpha_bar, alpha_b, gamma1, gamma2):
    """(q*, tau_max) of the two-function bound, elementwise over broadcast arrays.

    q* solves alpha^2 g2 q + alpha_b g1 (ln q + 1) = 0 in (0, 1/e) and tau_max
    is the curve tau(q) at q*.  Every input must be positive and finite;
    DomainError names the first element that is not, or whose q* is not
    representable.  Scalar inputs give floats.
    """
    args = [np.asarray(v, dtype=float) for v in (alpha_bar, alpha_b, gamma1, gamma2)]
    for name, v in zip(("alpha_bar", "alpha_b", "gamma1", "gamma2"), args):
        ok = np.isfinite(v) & (v > 0)
        if not ok.all():
            raise DomainError(f"{name} must be positive and finite, got {v[~ok].flat[0]}")
    return two_v_tau_core(*args)


def two_v_tau_core(a, ab, g1, g2):
    """two_v_tau of float arrays already known to be positive and finite, without checking them."""
    with np.errstate(over="ignore"):  # an overflowed product fails in _stationary_q
        q = np.asarray(_stationary_q(ab * g1, a * a * g2))
    tau = _two_v_at(q, a, ab, g1, g2)
    if tau.ndim == 0:
        return float(q), float(tau)
    return q, tau


def emulation_bound_two(c: TwoFunctionConstants) -> SamplingBoundResult:
    """Two-function bound: q* solves alpha^2 g2 q + alpha_b g1 (ln q + 1) = 0 in (0, 1/e)."""
    q_star, tau = two_v_tau(c.alpha_bar, c.alpha_b, c.gamma1, c.gamma2)
    a2g2 = c.alpha_bar * c.alpha_bar * c.gamma2
    abg1 = c.alpha_b * c.gamma1
    return SamplingBoundResult(
        q_star=q_star,
        tau_max=tau,
        provenance="emulation-two",
        auxiliary={
            "stationarity_residual": a2g2 * q_star + abg1 * (math.log(q_star) + 1.0),
            "bracket": (0.0, math.exp(-1.0)),
        },
    )


# ---------------------------------------------------------------------------
# discrete-time-approximation route
# ---------------------------------------------------------------------------

def dta_map(c_bar: float, h: float, alpha_u: float) -> float:
    """Decay rate implied by a discrete-time contraction: alpha = (c_bar/h + alpha_u h)/2.

    Requires c_bar in (0, 1), h > 0, alpha_u > 0, and the strict stepsize
    admissibility c_bar + alpha_u h^2 < 1 (equivalently h < 1/(2 alpha)).
    """
    _require_positive(h=h, alpha_u=alpha_u)
    if not 0.0 < c_bar < 1.0:
        raise DomainError(f"c_bar must lie in (0, 1), got {c_bar}")
    if not c_bar + alpha_u * h * h < 1.0:
        raise DomainError(
            f"stepsize h={h} is not strictly admissible: c_bar + alpha_u h^2 = "
            f"{c_bar + alpha_u * h * h:.6g} >= 1"
        )
    return 0.5 * (c_bar / h + alpha_u * h)


def dta_bound(
    c_bar: float, h: float, alpha_u: float, alpha_b: float, alpha_f: float
) -> SamplingBoundResult:
    """Sampling bound for a discretely designed controller.

    Maps (c_bar, h, alpha_u) to the equivalent continuous decay rate, then
    defers to the single-V bound.  r* = alpha sqrt(q*) in (0, alpha/sqrt(e)) separates
    the model stepsize h from the sampling period: the decay rate that survives sampling.
    """
    alpha_bar = dta_map(c_bar, h, alpha_u)
    base = emulation_bound_single(EmulationConstants(alpha_bar=alpha_bar, alpha_b=alpha_b, alpha_f=alpha_f))
    return SamplingBoundResult(
        q_star=base.q_star,
        tau_max=base.tau_max,
        provenance="discrete-time-approximation",
        auxiliary={
            **base.auxiliary, "r_star": alpha_bar * math.sqrt(base.q_star),
            "r_bracket": (0.0, alpha_bar / math.sqrt(math.e)),
            "alpha_bar": alpha_bar, "c_bar": c_bar, "h": h, "alpha_u": alpha_u,
        },
    )
