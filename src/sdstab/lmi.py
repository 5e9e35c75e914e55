"""Certificate schema, the Ito loops each plant is certified on, LMI blocks, and verification.

Every verification margin here is literally the largest eigenvalue of an
explicitly assembled symmetric block matrix, so "margin <= 0" is the matrix
inequality itself.  The blocks are those of the analysis form (P, P_tilde,
K_hat); a design-form (Q, Y, c_tilde) file is checked as P = Q^{-1},
P_tilde = c_tilde Q^{-1}, K_hat = Y Q^{-1}, since its LMIs are congruences of
these.  rate_loop and cross_loop map a plant to the linear Ito loops whose
blocks certify it: a linear plant is its own loop, and the planar plant is a
shifted one, its envelope weights b and c turning the sine envelope E1 into a
diffusion and a shift.  One verify_certificate checks every plant and form
through them, and design scores its candidates through the same two maps.
File certificates are typically printed to 4-5 significant digits,
so PASS compares each margin against tol * (1 + ||M||_F) with a relative tol
(default 1e-2), in one margin loop, `_outcome`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from .bounds import TwoFunctionConstants, emulation_bound_two
from .errors import DomainError, FormatError, ValidationError
from .models import Model, NonlinearPlanarModel, read_json
from .numerics import is_pos_def, lam_max

_CERT_KEYS = {
    "P", "P_tilde", "alpha_bar", "alpha_b", "gamma1", "gamma2",
    "c_tilde", "Q", "Y", "K_hat", "b", "c",
}


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _opt_matrix(doc, key) -> Optional[np.ndarray]:
    if key not in doc or doc[key] is None:
        return None
    try:
        m = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"certificate field {key!r} is not a numeric matrix") from exc
    if m.ndim != 2 or not np.all(np.isfinite(m)):
        raise FormatError(f"certificate field {key!r} must be a finite matrix")
    return m


def _opt_scalar(doc, key) -> Optional[float]:
    if key not in doc or doc[key] is None:
        return None
    try:
        v = float(doc[key])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"certificate field {key!r} is not a number") from exc
    if not np.isfinite(v):
        raise FormatError(f"certificate field {key!r} must be finite")
    return v


def _agree(a: np.ndarray, b: np.ndarray, floor: float = 0.0) -> bool:
    """a has b's shape and ||a - b||_F <= 1e-6 (floor + ||b||_F)."""
    return a.shape == b.shape and np.linalg.norm(a - b) <= 1e-6 * (floor + np.linalg.norm(b))


def _symmetric_pos_def(m) -> bool:
    """is_pos_def of a certificate matrix; DomainError when it is not symmetric to 1e-6."""
    pos_def = is_pos_def(m)
    m = np.asarray(m, dtype=float)
    skew = np.abs(m - m.T).max()
    if skew > 1e-6 * (1.0 + np.abs(m).max()):
        raise DomainError(f"matrix is not symmetric (max asymmetry {skew:g})")
    return pos_def


@dataclass(frozen=True)
class LmiCertificate:
    """Quadratic stability certificate, in analysis (P) and/or design (Q, Y) form;
    with both, P = Q^{-1} and P_tilde = c_tilde P to 1e-6, so the P checked is the Q on file."""

    alpha_bar: float
    P: Optional[np.ndarray] = None
    P_tilde: Optional[np.ndarray] = None
    alpha_b: Optional[float] = None
    gamma1: Optional[float] = None
    gamma2: Optional[float] = None
    c_tilde: Optional[float] = None
    b: Optional[float] = None
    c: Optional[float] = None
    Q: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    K_hat: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (np.isfinite(self.alpha_bar) and self.alpha_bar > 0):
            raise ValidationError("alpha_bar must be positive")
        if self.P is None and self.Q is None:
            raise ValidationError("certificate needs P or Q")
        for name in ("P", "P_tilde", "Q"):
            m = getattr(self, name)
            if m is not None and not _symmetric_pos_def(m):
                raise ValidationError(f"{name} must be symmetric positive definite")
        if self.Q is None:
            return
        if self.Y is None or np.ndim(self.Y) != 2 or np.shape(self.Y)[1] != len(self.Q):
            raise ValidationError("design-form certificate needs Y, with one column per row of Q")
        if self.P is not None and not (
            _agree(self.P, np.linalg.inv(self.Q)) and self.P_tilde is not None
            and self.c_tilde is not None and _agree(self.P_tilde, self.c_tilde * self.P)
        ):
            raise ValidationError("a certificate with P and Q needs P = Q^{-1} and P_tilde = c_tilde P")

    @property
    def two_function_constants(self) -> Optional[TwoFunctionConstants]:
        if None in (self.alpha_b, self.gamma1, self.gamma2):
            return None
        return TwoFunctionConstants(self.alpha_bar, self.alpha_b, self.gamma1, self.gamma2)

    def analysis_form(self) -> "LmiCertificate":
        """The (P, P_tilde, K_hat) = (Q^{-1}, c_tilde Q^{-1}, Y Q^{-1}) translation of a
        design-form certificate (a certificate K_hat is kept), without Q and Y."""
        if self.P is not None:
            return self
        if self.c_tilde is None:
            raise ValidationError("design-form certificate needs c_tilde to transform")
        q_inv = np.linalg.inv(self.Q)
        p = 0.5 * (q_inv + q_inv.T)
        k_hat = self.Y @ q_inv if self.K_hat is None else self.K_hat
        return replace(self, P=p, P_tilde=self.c_tilde * p, K_hat=k_hat, Q=None, Y=None)

    @staticmethod
    def from_dict(doc: dict) -> "LmiCertificate":
        if not isinstance(doc, dict):
            raise FormatError("certificate document must be a JSON object")
        unknown = set(doc) - _CERT_KEYS
        if unknown:
            raise FormatError(f"unknown certificate keys: {sorted(unknown)}")
        alpha_bar = _opt_scalar(doc, "alpha_bar")
        if alpha_bar is None:
            raise FormatError("certificate is missing alpha_bar")
        return LmiCertificate(
            alpha_bar=alpha_bar,
            P=_opt_matrix(doc, "P"),
            P_tilde=_opt_matrix(doc, "P_tilde"),
            alpha_b=_opt_scalar(doc, "alpha_b"),
            gamma1=_opt_scalar(doc, "gamma1"),
            gamma2=_opt_scalar(doc, "gamma2"),
            c_tilde=_opt_scalar(doc, "c_tilde"),
            b=_opt_scalar(doc, "b"),
            c=_opt_scalar(doc, "c"),
            Q=_opt_matrix(doc, "Q"),
            Y=_opt_matrix(doc, "Y"),
            K_hat=_opt_matrix(doc, "K_hat"),
        )

    def to_dict(self) -> dict:
        out = {"alpha_bar": self.alpha_bar}
        for key in ("alpha_b", "gamma1", "gamma2", "c_tilde", "b", "c"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        for key in ("P", "P_tilde", "Q", "Y", "K_hat"):
            m = getattr(self, key)
            if m is not None:
                out[key] = np.asarray(m).tolist()
        return out


def load_certificate(path, data: Optional[bytes] = None) -> LmiCertificate:
    """Load a certificate file, from data, its bytes, when the caller has read them."""
    return LmiCertificate.from_dict(read_json(path, "certificate", data))


def save_certificate(cert: LmiCertificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert.to_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# block assemblies (margins are lambda_max of these matrices)
# ---------------------------------------------------------------------------

def _check_square(m: np.ndarray, n: int, what: str, stack: tuple = ()) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != stack + (n, n):
        raise DomainError(f"{what}: expected {stack + (n, n)}, got {m.shape}")
    return m


def assemble_lyapunov_ito(F, G_list, P, alpha_bar) -> np.ndarray:
    """Rate block; F, P and alpha_bar may carry a leading stack axis (G is shared)."""
    P = np.asarray(P, dtype=float)
    n = P.shape[-1]
    F = _check_square(F, n, "F", P.shape[:-2])
    m = F.swapaxes(-1, -2) @ P + P @ F + 2.0 * np.asarray(alpha_bar, dtype=float)[..., None, None] * P
    for G in G_list:
        G = _check_square(G, n, "G")
        m = m + G.T @ P @ G
    return 0.5 * (m + m.swapaxes(-1, -2))


def assemble_feedback_energy(B_bar, P, P_tilde, alpha_b: float) -> np.ndarray:
    n = np.asarray(P).shape[0]
    B = _check_square(B_bar, n, "B_bar")
    m = B.T @ P @ B - alpha_b * np.asarray(P_tilde)
    return 0.5 * (m + m.T)


def assemble_cross_block(F, G_list, B_bar, P, P_tilde, gamma1: float, gamma2: float) -> np.ndarray:
    n = np.asarray(P).shape[0]
    F = _check_square(F, n, "F")
    B = _check_square(B_bar, n, "B_bar")
    pt = np.asarray(P_tilde)
    gsum = np.zeros((n, n))
    for G in G_list:
        G = _check_square(G, n, "G")
        gsum = gsum + G.T @ pt @ G
    m = np.block([
        [gsum - gamma1 * np.asarray(P), F.T @ pt],
        [pt @ F, -B.T @ pt - pt @ B - gamma2 * pt],
    ])
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# margin-level verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationOutcome:
    """Named margins with their scales; passed iff every margin <= tol * scale."""

    margins: Dict[str, float]
    scales: Dict[str, float]
    tol: float
    passed: bool
    tau_max: Optional[float] = None
    q_star: Optional[float] = None
    form: str = "analysis"

    @property
    def implies_almost_sure(self) -> bool:
        """Mean-square exponential stability carries almost-sure exponential
        stability with it under the linear-growth hypothesis, which holds
        structurally for every model this toolkit accepts."""
        return self.passed


def _outcome(blocks: Dict[str, np.ndarray], tol, form, constants: Optional[TwoFunctionConstants]):
    """Margins of the named assembled blocks; PASS iff each is <= tol * its scale."""
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"tol must be a nonnegative finite number, got {tol}")
    margins = {name: lam_max(m) for name, m in blocks.items()}
    with np.errstate(over="ignore"):
        scales = {name: 1.0 + float(np.linalg.norm(m)) for name, m in blocks.items()}
    if not all(map(np.isfinite, scales.values())):  # an infinite scale would pass any margin
        raise DomainError("block norm is not finite")
    passed = all(margins[k] <= tol * scales[k] for k in margins)
    tau_max = q_star = None
    if passed and constants is not None:
        res = emulation_bound_two(constants)
        tau_max, q_star = res.tau_max, res.q_star
    return VerificationOutcome(
        margins=margins, scales=scales, tol=tol, passed=passed,
        tau_max=tau_max, q_star=q_star, form=form,
    )


def run_gain(model: Model, cert: LmiCertificate) -> Optional[np.ndarray]:
    """The feedback gain simulate runs for this model and certificate, or None.

    simulate runs the model's K_hat if it has one, else the certificate's
    K_hat, else the design form's Y Q^{-1}.  Margins for any other gain would
    certify a loop that is never run, so every gain present must agree with
    that one to 1e-6 relative.
    """
    design = None if cert.Q is None else cert.Y @ np.linalg.inv(cert.Q)
    gains = [(what, k) for what, k in (
        ("model K_hat", model.K_hat), ("certificate K_hat", cert.K_hat), ("design gain Y Q^{-1}", design),
    ) if k is not None]
    if not gains:
        return None
    if model.B_hat is None:
        raise ValidationError("a certificate gain needs a model with an input map B_hat")
    run_what, run = gains[0]
    if run.shape != (model.B_hat.shape[1], model.n):
        raise ValidationError(f"the {run_what} has shape {run.shape}, not (inputs, states)")
    for what, k in gains[1:]:
        if not _agree(k, run, floor=1.0):
            raise ValidationError(f"the {what} is not the {run_what} that simulate runs")
    return run


def rate_loop(model: Model, b_bar, b=None):
    """(F, G_list) of the Ito loop whose rate block certifies feedback b_bar (one or a stack):
    (A + b_bar, the diffusion), or for the planar plant at envelope weight b (one or a stack,
    which G then carries) the shifted loop (A_bar + b_bar + (b/2) I, [E1/sqrt(b)])."""
    if isinstance(model, NonlinearPlanarModel):
        b = np.asarray(b, dtype=float)[..., None, None]
        return model.A_bar + b_bar + 0.5 * b * np.eye(model.n), [model.envelope / np.sqrt(b)]
    return model.A + b_bar, model.diffusion


def cross_loop(model: Model, b_bar, c=None):
    """(F, G_list, B) of the Ito loop whose cross block certifies feedback b_bar: (A + b_bar, the
    diffusion, b_bar), or for the planar plant at envelope weight c (one or a stack, which G and B
    then carry) the shifted loop (A_bar + b_bar, [E1/sqrt(c)], b_bar - (c/2) I)."""
    if isinstance(model, NonlinearPlanarModel):
        c = np.asarray(c, dtype=float)[..., None, None]
        return model.A_bar + b_bar, [model.envelope / np.sqrt(c)], b_bar - 0.5 * c * np.eye(model.n)
    return model.A + b_bar, model.diffusion, b_bar


@np.errstate(over="ignore", invalid="ignore")  # an overflowed block or norm raises DomainError
def verify_certificate(model: Model, cert: LmiCertificate, tol: float = 1e-2) -> VerificationOutcome:
    """Check a certificate, (Q, Y) through analysis_form(), for a model with feedback.

    Margins: the decay-rate inequality of rate_loop, the feedback-energy
    inequality B^T P B <= alpha_b P_tilde, and the cross block of cross_loop
    against diag(g1 P, g2 P_tilde).  A planar certificate needs every
    two-function field, a gain and positive envelope weights b and c; a
    linear model refuses a certificate that carries b or c.
    """
    planar = isinstance(model, NonlinearPlanarModel)
    for name in ("P", "P_tilde", "alpha_b", "gamma1", "gamma2", "b", "c") if planar else ():
        if getattr(cert, name) is None:
            raise ValidationError(f"planar certificate is missing {name}")
    if not planar and (cert.b is not None or cert.c is not None):
        raise ValidationError("envelope weights b and c certify the planar plant, not a linear model")
    gain = run_gain(model, cert)
    b_bar = model.B_bar if gain is None else model.B_hat @ gain
    if b_bar is None:
        raise ValidationError("model gain is unresolved and the certificate carries no K_hat")
    if planar and not (cert.b > 0.0 and cert.c > 0.0):
        raise DomainError("envelope weights b and c must be positive")
    form = "planar" if planar else "analysis" if cert.Q is None else "design"
    cert = cert.analysis_form()
    blocks = {"rate": assemble_lyapunov_ito(*rate_loop(model, b_bar, cert.b), cert.P, cert.alpha_bar)}
    constants = cert.two_function_constants
    if constants is not None:
        if cert.P_tilde is None:
            raise ValidationError("two-function certificate needs P_tilde")
        blocks["feedback_energy"] = assemble_feedback_energy(b_bar, cert.P, cert.P_tilde, cert.alpha_b)
        blocks["cross"] = assemble_cross_block(
            *cross_loop(model, b_bar, cert.c), cert.P, cert.P_tilde, cert.gamma1, cert.gamma2
        )
    return _outcome(blocks, tol, form, constants)


# perfbench/tracer.py looks this name up by getattr; it goes with the tracer's rows (ROADMAP item 1)
solve_feasibility = None
