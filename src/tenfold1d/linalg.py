"""Dense linear-algebra kernel shared by every other module.

Matrices are plain complex numpy arrays. Subspaces travel as Frame
objects (matrices with orthonormal columns), and every rank or
eigenvalue decision in the package goes through the three knobs of a
Tolerances record, so a single object pins the numerics of a whole
computation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutHit,
    DimensionMismatch,
    NotAntisymmetric,
    OddDimension,
    ZeroRank,
)

__all__ = [
    "Tolerances",
    "TOL",
    "Frame",
    "orthonormalize",
    "subspace_intersection_dim",
    "pfaffian",
    "principal_log_trace",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    Attributes
    ----------
    rank_tol : float
        Relative singular-value cutoff for rank decisions and
        invertibility gates.
    eig_tol : float
        Radius for eigenvalue membership decisions (distance to the
        unit circle, to +1 for kernel counting, to -1 for branch cuts).
    frame_tol : float
        Allowance for orthonormality and isotropy defects of frames.
    """

    rank_tol: float = 1e-9
    eig_tol: float = 1e-8
    frame_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rank_tol", "eig_tol", "frame_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


TOL = Tolerances()


def _as_matrix(a, name="matrix"):
    A = np.asarray(a, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {A.shape}")
    return A


def _as_square(a, name="matrix"):
    A = _as_matrix(a, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    return A


def _finite_matrix(a, name="matrix"):
    """2-d complex matrix with finite entries; ValueError naming it otherwise."""
    return _require_finite(_as_matrix(a, name), name)


def _finite_square(a, name="matrix"):
    """Square complex matrix with finite entries; ValueError naming it otherwise."""
    return _require_finite(_as_square(a, name), name)


def _require_finite(A: np.ndarray, name: str) -> np.ndarray:
    # count_nonzero is one C call; ndarray.all takes twice as long on a small matrix
    if np.count_nonzero(np.isfinite(A)) != A.size:
        raise ValueError(f"{name} must have finite entries")
    return A


@functools.lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity, shared by the orthonormality and unitarity checks."""
    I = np.eye(n)
    I.flags.writeable = False
    return I


class Frame:
    """Matrix with orthonormal columns spanning a subspace.

    Rank zero (no columns) is allowed; it represents the trivial
    subspace.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: Tolerances = TOL):
        F = _finite_matrix(matrix, "frame")
        if F.shape[1] > F.shape[0]:
            raise DimensionMismatch(
                f"frame has more columns than rows: {F.shape}"
            )
        if F.shape[1]:
            # an overflowed product gives an inf or NaN defect, which fails the check
            with np.errstate(over="ignore", invalid="ignore"):
                defect = np.abs(F.conj().T @ F - _identity(F.shape[1])).max()
            if not defect <= tol.frame_tol:
                raise ValueError(
                    f"columns are not orthonormal (defect {defect:.3e})"
                )
        F = F.copy()
        F.flags.writeable = False
        self.matrix = F

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the span."""
        return self.matrix @ self.matrix.conj().T

    def __repr__(self):
        return f"Frame(dim={self.dim}, rank={self.rank})"


def orthonormalize(vectors, tol: Tolerances = TOL) -> Frame:
    """Orthonormal basis of the column span, with rank truncation.

    Singular values below ``tol.rank_tol`` times the largest are
    treated as zero. Raises ZeroRank when nothing survives.
    """
    V = _finite_matrix(vectors, "vectors")
    if V.shape[1] == 0:
        raise ZeroRank("no columns to orthonormalize")
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ZeroRank("columns are numerically zero")
    rank = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    if rank == 0:
        raise ZeroRank("columns are numerically zero")
    return Frame(U[:, :rank], tol)


def subspace_intersection_dim(f1: Frame, f2: Frame, tol: Tolerances = TOL) -> int:
    """Dimension of the intersection of two subspaces.

    Counts principal angles with cosine within ``tol.eig_tol`` of 1.
    """
    if f1.dim != f2.dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {f1.dim} vs {f2.dim}"
        )
    s = np.linalg.svd(f1.matrix.conj().T @ f2.matrix, compute_uv=False)
    return int(np.count_nonzero(np.abs(s - 1.0) <= tol.eig_tol))


def pfaffian(A, tol: Tolerances = TOL) -> float:
    """Pfaffian of a real antisymmetric matrix.

    Uses tridiagonal reduction with partial pivoting; the sign of the
    result is exact up to roundoff. Complex-typed input is accepted as
    long as its imaginary part is negligible.
    """
    A = _finite_square(A, "A")
    n = A.shape[0]
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    if n == 0:
        return 1.0
    scale = max(1.0, np.abs(A).max())
    if not np.abs(A.imag).max() <= tol.frame_tol * scale:
        raise NotAntisymmetric("matrix has a non-negligible imaginary part")
    if not np.abs(A + A.T).max() <= tol.frame_tol * scale:
        raise NotAntisymmetric("matrix is not antisymmetric")

    B = np.array(A.real, dtype=float)
    value = 1.0
    for k in range(0, n - 1, 2):
        # pivot: largest entry below the diagonal in column k
        kp = k + 1 + int(np.abs(B[k + 1 :, k]).argmax())
        if kp != k + 1:
            B[[k + 1, kp], k:] = B[[kp, k + 1], k:]
            B[k:, [k + 1, kp]] = B[k:, [kp, k + 1]]
            value = -value
        pivot = B[k + 1, k]
        if pivot == 0.0:
            return 0.0
        value *= B[k, k + 1]
        if k + 2 < n:
            tau = B[k, k + 2 :] / B[k, k + 1]
            col = B[k + 2 :, k + 1]
            B[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return float(value)


def principal_log_trace(O, tol: Tolerances = TOL) -> complex:
    """Trace of the principal logarithm of a real orthogonal matrix.

    Raises BranchCutHit when an eigenvalue lies within ``tol.eig_tol``
    of -1 (the principal branch is discontinuous there).
    """
    O = _finite_square(O, "O")
    scale = max(1.0, np.abs(O).max())
    if np.abs(O.imag).max() > tol.frame_tol * scale:
        raise ValueError("matrix has a non-negligible imaginary part")
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(O.real.T @ O.real - np.eye(O.shape[0])).max()
    if not defect <= tol.eig_tol:
        raise ValueError(f"matrix is not orthogonal (defect {defect:.3e})")
    lam = np.linalg.eigvals(O.real)
    if np.abs(lam + 1.0).min() <= tol.eig_tol:
        raise BranchCutHit("eigenvalue at -1")
    return complex(np.sum(np.log(lam)))
