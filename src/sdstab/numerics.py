"""Dense small-matrix linear algebra.

Everything here targets the small symmetric matrices (order <= ~10) that
appear in quadratic stability certificates: lambda_max and the positive-
definiteness predicate behind every verification margin, and B^{-1/2} and
the symmetric-pencil maximum eigenvalue lambda_max(B^{-1/2} A B^{-1/2}), for
one matrix or a broadcast stack, behind every envelope constant and design
search step.  Every symmetric eigenvalue comes from sym_eigvals, bit for
bit LAPACK's normwise backward-stable symmetric solver, which is all a
margin compared with tol (1 + ||M||_F) needs.  All functions are pure and
thread-safe.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from .errors import DomainError

_EPS = 0.5 * np.finfo(float).eps  # LAPACK's dlamch('E'), the unit roundoff 2^-53
_RANGE = (1e-100, 1e100)  # largest |entry| of a 2x2 block that dsyevd takes unscaled
_MIN_BLOCKS = 128  # below this many 2x2 blocks one eigvalsh call is the faster route


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _dlae2(a, b, c):
    """(2, ...) ascending eigenvalues of [[a, b], [b, c]], by the float operations of LAPACK's dsterf.

    dsyevd takes a 2x2 block whose largest |entry| lies in _RANGE unscaled to
    dsterf, which keeps the diagonal when |b| <= sqrt|a| sqrt|c| eps or
    b^2 <= eps^2 |a c|, and otherwise takes dlae2's closed form at
    r = sqrt(b^2): rt1 = (a + c +- rt) / 2 with the sign of a + c, and
    rt2 = (acmx / rt1) acmn - (r / rt1) r, or -rt / 2 when a + c is 0.
    """
    aa, ac = np.abs(a), np.abs(c)
    e2 = b * b
    split = (np.abs(b) <= np.sqrt(aa) * np.sqrt(ac) * _EPS) | (e2 <= _EPS * _EPS * np.abs(a * c))
    rte = np.sqrt(e2)
    sm = a + c
    adf = np.abs(a - c)
    tb = rte + rte
    hi, lo = np.maximum(adf, tb), np.minimum(adf, tb)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0 / 0 only on a split row
        rt = hi * np.sqrt(1.0 + (lo / hi) ** 2)
        rt1 = 0.5 * (sm + np.copysign(rt, sm + 0.0))  # -0.0 + 0.0 is +0.0: rt1 = rt / 2 at sm = 0
        a_big = aa > ac
        rt2 = (np.where(a_big, a, c) / rt1) * np.where(a_big, c, a) - (rte / rt1) * rte
    np.copyto(rt2, -0.5 * rt, where=sm == 0.0)
    out = np.empty((2,) + np.shape(a))
    np.minimum(rt1, rt2, out=out[0])
    np.maximum(rt1, rt2, out=out[1])
    np.copyto(out[0], np.minimum(a, c), where=split)
    np.copyto(out[1], np.maximum(a, c), where=split)
    return out


def sym_eigvals(stack: ArrayLike) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix of a stack, bit for bit np.linalg.eigvalsh.

    Like eigvalsh, only the lower triangle is read.  A stack of at least
    _MIN_BLOCKS 2x2 blocks, each with its largest |entry| in _RANGE, takes
    _dlae2's closed form; anything else (a non-finite entry included) goes
    to eigvalsh itself.
    """
    m = np.asarray(stack, dtype=float)
    if m.shape[-2:] == (2, 2) and m.size >= 4 * _MIN_BLOCKS:
        a, _, b, c = m.reshape(-1, 4).T.copy()
        big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        if np.minimum.reduce(big) >= _RANGE[0] and np.maximum.reduce(big) <= _RANGE[1]:  # NaN fails
            return _dlae2(a, b, c).T.reshape(m.shape[:-1])
    return np.linalg.eigvalsh(m)


def _sym_eigvals(s: ArrayLike) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part of a square, finite matrix."""
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = _sym(m)
    if not np.isfinite(m).all():  # eigvalsh returns NaN for an inf entry, with no error
        raise DomainError("matrix or its symmetric part is not finite")
    return sym_eigvals(m)


def lam_max(s: ArrayLike) -> float:
    """Largest eigenvalue of the symmetric part of a square matrix."""
    return float(_sym_eigvals(s)[-1])


def is_pos_def(s: ArrayLike) -> bool:
    """True iff the symmetric part of a square matrix is positive definite."""
    return bool(_sym_eigvals(s)[0] > 0.0)


def sym_inv_sqrt(b: ArrayLike, what: str = "matrix") -> np.ndarray:
    """B^{-1/2} of the symmetric part of B, or of each matrix in a stack.

    Raises DomainError, naming `what`, when any B is not positive definite
    (NaN entries included).
    """
    w, v = np.linalg.eigh(_sym(np.asarray(b, dtype=float)))
    if not (w[..., 0] > 0.0).all():
        raise DomainError(f"{what} must be positive definite")
    return (v / np.sqrt(w)[..., None, :]) @ v.swapaxes(-1, -2)


def pencil_max_eig(a: ArrayLike, b: ArrayLike):
    """Largest generalized eigenvalue of the symmetric pencil (A, B) with B > 0.

    Returns lambda_max(B^{-1/2} A B^{-1/2}), the least lam with A <= lam*B,
    for the symmetric parts of A and B.  A and B may each carry leading stack
    axes, which broadcast against each other: two single matrices give a
    float, anything stacked an array of the broadcast stack shape.  Raises
    DomainError when any B is not positive definite (NaN entries included) or
    any result is not finite.
    """
    am = np.asarray(a, dtype=float)
    w_inv_sqrt = sym_inv_sqrt(b, "pencil denominator")
    if not np.isfinite(am).all():  # LAPACK raises an untyped LinAlgError on inf
        raise DomainError("pencil numerator must be finite")
    m = w_inv_sqrt @ _sym(am) @ w_inv_sqrt
    lam = sym_eigvals(_sym(m))[..., -1]
    if not np.isfinite(lam).all():
        raise DomainError("pencil eigenvalue is not finite")
    return float(lam) if lam.ndim == 0 else lam
