"""Dense small-matrix linear algebra.

Everything here targets the small symmetric matrices (order <= ~10) that
appear in quadratic stability certificates: lambda_max and the positive-
definiteness predicate behind every verification margin, and B^{-1/2} and
the symmetric-pencil maximum eigenvalue lambda_max(B^{-1/2} A B^{-1/2}), for
one matrix or a broadcast stack, behind every envelope constant and design
search step.  Every eigenvalue comes from LAPACK's normwise backward-stable
symmetric solver, which is all a margin compared with tol (1 + ||M||_F)
needs.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from .errors import DomainError


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _sym_eigvals(s: ArrayLike) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part of a square, finite matrix."""
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = _sym(m)
    if not np.isfinite(m).all():  # eigvalsh returns NaN for an inf entry, with no error
        raise DomainError("matrix or its symmetric part is not finite")
    return np.linalg.eigvalsh(m)


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
    lam = np.linalg.eigvalsh(_sym(m))[..., -1]
    if not np.isfinite(lam).all():
        raise DomainError("pencil eigenvalue is not finite")
    return float(lam) if lam.ndim == 0 else lam
