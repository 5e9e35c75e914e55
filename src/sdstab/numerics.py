"""Dense small-matrix linear algebra.

Everything here targets the small symmetric matrices (order <= ~10) that
appear in quadratic stability certificates: a cyclic Jacobi eigensolver and
positive-definiteness predicate, used only for verification margins so that
certificates are checked by an eigensolver the design search does not use;
and the LAPACK inverse square root B^{-1/2} and symmetric-pencil maximum
eigenvalue lambda_max(B^{-1/2} A B^{-1/2}), for one matrix or a broadcast
stack of them, behind every envelope constant and design search step.  All
functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NumericalFailure

ArrayLike = Union[np.ndarray, "SymMatrix", list, tuple]

_JACOBI_MAX_SWEEPS = 100


class SymMatrix:
    """Symmetric real matrix, symmetric by construction.

    The constructor validates squareness and finiteness, rejects inputs whose
    asymmetry exceeds ``sym_tol`` relative to their norm, and stores the exact
    symmetrization 0.5*(S + S^T), so entry (i, j) == entry (j, i) holds bitwise.
    """

    __slots__ = ("_m",)

    def __init__(self, entries: ArrayLike, sym_tol: float = 1e-9):
        m = np.array(getattr(entries, "mat", entries), dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        skew = np.abs(m - m.T).max()
        if skew > sym_tol * (1.0 + np.abs(m).max()):
            raise DomainError(f"matrix is not symmetric (max asymmetry {skew:g})")
        self._m = 0.5 * (m + m.T)
        self._m.setflags(write=False)

    @property
    def mat(self) -> np.ndarray:
        return self._m

    def entry(self, i: int, j: int) -> float:
        return float(self._m[i, j])


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def _as_sym_array(s: ArrayLike, sym_tol: float = 1e-9) -> np.ndarray:
    if isinstance(s, SymMatrix):
        return s.mat
    return SymMatrix(s, sym_tol=sym_tol).mat


def sym_eig(s: ArrayLike) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues ascending; the eigenvector matrix V satisfies
    V^T V = I and S = V diag(w) V^T to ~1e-14 relative accuracy.

    Raises NumericalFailure if the off-diagonal mass has not annihilated after
    the sweep cap (does not happen for finite symmetric input at these orders).
    """
    a = _as_sym_array(s).copy()
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return EigenDecomposition(a[0, :1].copy(), v)

    scale = np.abs(a).max() or 1.0
    stop = 1e-16 * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= stop * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-20 * scale:
                    continue
                # stable rotation: t = sign(theta)/(|theta| + sqrt(theta^2+1))
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                sn = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - sn * cq
                a[:, q] = sn * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    else:
        raise NumericalFailure("Jacobi eigensolver did not converge within the sweep cap")

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], v[:, order])


def lam_max(s: ArrayLike) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(sym_eig(s).eigenvalues[-1])


def lam_min(s: ArrayLike) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(sym_eig(s).eigenvalues[0])


def is_pos_def(s: ArrayLike, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue exceeds ``tol`` (tol >= 0)."""
    if tol < 0.0:
        raise DomainError("tol must be nonnegative")
    return lam_min(s) > tol


def _sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


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
    am = np.asarray(getattr(a, "mat", a), dtype=float)
    w_inv_sqrt = sym_inv_sqrt(getattr(b, "mat", b), "pencil denominator")
    if not np.isfinite(am).all():  # LAPACK raises an untyped LinAlgError on inf
        raise DomainError("pencil numerator must be finite")
    m = w_inv_sqrt @ _sym(am) @ w_inv_sqrt
    lam = np.linalg.eigvalsh(_sym(m))[..., -1]
    if not np.isfinite(lam).all():
        raise DomainError("pencil eigenvalue is not finite")
    return float(lam) if lam.ndim == 0 else lam
