"""Boundary forms, Lagrangian planes, and the plane-unitary correspondence.

A boundary form is a sesquilinear pairing omega(x, y) = <x, J y> with J
antihermitian and invertible. The hermitian matrix -iJ splits the space
into positive and negative blocks; when the two blocks have equal
dimension, every Lagrangian plane is the graph of a map from the
positive block to the negative one, and rescaling that graph map by the
block eigenvalues makes it unitary. This module implements both
directions of that correspondence and the intersection count of two
planes through their unitaries.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    NoLagrangianPlanes,
    NotLagrangian,
    NotUnitary,
    ProjectionSingular,
    Singular,
    SplitMismatch,
)
from .linalg import (
    TOL,
    Frame,
    Tolerances,
    _as_square,
    _finite_square,
    _identity,
    orthonormalize,
)

__all__ = [
    "SymplecticForm",
    "CanonicalSplit",
    "canonical_split",
    "LagrangianPlane",
    "is_lagrangian",
    "LerayUnitary",
    "plane_to_unitary",
    "unitary_to_plane",
    "crossing_dim",
]


class SymplecticForm:
    """Nondegenerate pairing omega(x, y) = <x, J y> with J* = -J.

    J is read-only, and the form keeps its canonical split under each
    Tolerances once ``canonical_split`` has computed it.
    """

    __slots__ = ("J", "_norm", "_splits")

    def __init__(self, J, tol: Tolerances = TOL):
        J = _finite_square(J, "J")
        if J.shape[0] == 0:
            raise DimensionMismatch("form must act on a nonzero space")
        scale = np.abs(J).max()
        if scale == 0.0:
            raise Singular("J is zero")
        if np.abs(J + J.conj().T).max() > tol.frame_tol * scale:
            raise ValueError("J must be antihermitian")
        s = np.linalg.svd(J, compute_uv=False)
        if s[-1] <= tol.rank_tol * s[0]:
            raise Singular(f"J is degenerate (sigma_min {s[-1]:.3e})")
        J = J.copy()
        J.flags.writeable = False
        self.J = J
        self._norm = float(s[0])
        self._splits = {}

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    @property
    def norm(self) -> float:
        """Largest singular value of J, the scale for defect measures."""
        return self._norm

    def same_as(self, other: "SymplecticForm", tol: Tolerances = TOL) -> bool:
        if self is other:
            return True
        if self.dim != other.dim:
            return False
        scale = max(self.norm, other.norm)
        return bool(np.abs(self.J - other.J).max() <= tol.frame_tol * scale)

    def __repr__(self):
        return f"SymplecticForm(dim={self.dim})"


def _fix_phases(F: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real positive."""
    F = F.copy()
    for j in range(F.shape[1]):
        k = int(np.abs(F[:, j]).argmax())
        pivot = F[k, j]
        if pivot != 0.0:
            F[:, j] *= np.conj(pivot) / abs(pivot)
    return F


def _cluster_basis(evecs: np.ndarray, counts: list[int]) -> np.ndarray:
    """Deterministic orthonormal basis of each eigenvalue cluster.

    eigh returns an arbitrary basis inside degenerate clusters; pivoted
    QR of the cluster projector replaces it with one that depends only
    on the subspace, so equal forms always get equal splitting bases.
    """
    cols = []
    start = 0
    for c in counts:
        block = evecs[:, start : start + c]
        start += c
        P = block @ block.conj().T
        Q, _, _ = sla.qr(P, pivoting=True, mode="economic")
        cols.append(_fix_phases(Q[:, :c]))
    return np.hstack(cols)


def _clusters(values: np.ndarray, gap: float) -> list[int]:
    """Group sorted values into runs separated by more than gap."""
    counts = []
    run = 1
    for i in range(1, values.size):
        if values[i] - values[i - 1] > gap:
            counts.append(run)
            run = 1
        else:
            run += 1
    counts.append(run)
    return counts


class CanonicalSplit:
    """Splitting basis in which J = blkdiag(i A_plus, -i A_minus).

    Q is unitary; its first n columns span the positive block of -iJ
    and carry eigenvalues a_plus (ascending), the last n columns span
    the negative block with eigenvalues -a_minus.
    """

    __slots__ = ("form", "Q", "a_plus", "a_minus")

    def __init__(self, form: SymplecticForm, Q, a_plus, a_minus):
        self.form = form
        self.Q = Q
        self.a_plus = a_plus
        self.a_minus = a_minus
        for arr in (Q, a_plus, a_minus):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.a_plus.size

    def same_as(self, other: "CanonicalSplit", tol: Tolerances = TOL) -> bool:
        if self is other:
            return True
        if self.n != other.n or not self.form.same_as(other.form, tol):
            return False
        scale = max(1.0, self.form.norm)
        return bool(
            np.abs(self.Q - other.Q).max() <= tol.frame_tol * scale
            and np.abs(self.a_plus - other.a_plus).max() <= tol.frame_tol * scale
            and np.abs(self.a_minus - other.a_minus).max() <= tol.frame_tol * scale
        )

    def __repr__(self):
        return f"CanonicalSplit(n={self.n})"


def canonical_split(form: SymplecticForm, tol: Tolerances = TOL) -> CanonicalSplit:
    """Split the space by the sign of -iJ and fix a deterministic basis.

    The split is computed the first time a form is asked for it under
    ``tol`` and kept on the form, so each form is split once per
    Tolerances. It depends only on J and ``tol``: forms with equal
    entries get bitwise-equal splits.

    Raises NoLagrangianPlanes when the positive and negative blocks have
    different dimensions (no Lagrangian plane exists in that case).
    """
    split = form._splits.get(tol)
    if split is None:
        # a racing caller may have stored its split meanwhile; keep that object
        split = form._splits.setdefault(tol, _split(form, tol))
    return split


def _split(form: SymplecticForm, tol: Tolerances) -> CanonicalSplit:
    """The split computed from scratch; canonical_split keeps it on the form."""
    # SymplecticForm checked that J is finite and antihermitian, so -iJ is hermitian
    evals, V = np.linalg.eigh(-1j * form.J)
    pos = evals > 0.0
    n_plus = int(np.count_nonzero(pos))
    n_minus = evals.size - n_plus
    if n_plus != n_minus:
        raise NoLagrangianPlanes(
            f"signature of -iJ is ({n_plus}, {n_minus}); planes need balance"
        )
    gap = tol.eig_tol * max(1.0, float(np.abs(evals).max()))

    # both blocks ordered by eigenvalue magnitude, ascending
    a_plus = evals[pos]
    v_plus = V[:, pos]
    a_minus = -evals[~pos][::-1]
    v_minus = V[:, ~pos][:, ::-1]

    Q = np.hstack([_cluster_basis(v_plus, _clusters(a_plus, gap)),
                   _cluster_basis(v_minus, _clusters(a_minus, gap))])

    # defensive: the basis must actually block-diagonalize J
    D = Q.conj().T @ form.J @ Q
    expected = np.diag(np.concatenate([1j * a_plus, -1j * a_minus]))
    if np.abs(D - expected).max() > 1e-9 * max(1.0, form.norm):
        raise ValueError("splitting basis failed to block-diagonalize J")
    return CanonicalSplit(form, Q, a_plus.copy(), a_minus.copy())


def is_lagrangian(frame: Frame, form: SymplecticForm, tol: Tolerances = TOL):
    """Isotropy defect of a frame and whether it is a Lagrangian plane.

    Returns
    -------
    defect : float
        max |F* J F| divided by the norm of J.
    flag : bool
        True when the defect is within ``tol.frame_tol`` and the rank
        is half the ambient dimension.
    """
    if frame.dim != form.dim:
        raise DimensionMismatch(
            f"frame dim {frame.dim} does not match form dim {form.dim}"
        )
    if frame.rank == 0:
        return 0.0, form.dim == 0
    F = frame.matrix
    defect = float(np.abs(F.conj().T @ form.J @ F).max() / form.norm)
    flag = defect <= tol.frame_tol and 2 * frame.rank == form.dim
    return defect, flag


class LagrangianPlane:
    """Maximal isotropic subspace, carried as a frame plus its form."""

    __slots__ = ("frame", "form")

    def __init__(self, frame, form: SymplecticForm, tol: Tolerances = TOL):
        if not isinstance(frame, Frame):
            frame = orthonormalize(frame, tol)
        defect, ok = is_lagrangian(frame, form, tol)
        if not ok:
            raise NotLagrangian(
                f"rank {frame.rank} frame in dim {form.dim} with isotropy defect {defect:.3e}"
            )
        self.frame = frame
        self.form = form

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def rank(self) -> int:
        return self.frame.rank

    def __repr__(self):
        return f"LagrangianPlane(dim={self.dim})"


class LerayUnitary:
    """Unitary coordinate of a Lagrangian plane in a canonical split."""

    __slots__ = ("U", "split")

    def __init__(self, U, split: CanonicalSplit, tol: Tolerances = TOL):
        U = _finite_square(U, "U")
        if U.shape[0] != split.n:
            raise DimensionMismatch(
                f"U is {U.shape[0]}-dimensional, split block is {split.n}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.abs(U.conj().T @ U - _identity(split.n)).max()
        if not defect <= tol.frame_tol:
            raise NotUnitary(f"unitarity defect {defect:.3e}")
        U = U.copy()
        U.flags.writeable = False
        self.U = U
        self.split = split

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def __repr__(self):
        return f"LerayUnitary(n={self.n})"


def plane_to_unitary(
    plane: LagrangianPlane, split: CanonicalSplit, tol: Tolerances = TOL
) -> LerayUnitary:
    """Unitary whose rescaled graph is the given Lagrangian plane.

    In split coordinates the plane is {(x, V x)}; the unitary is
    sqrt(A_minus) V / sqrt(A_plus). The plane's isotropy was checked
    when it was built. Raises ProjectionSingular when the plane fails
    to be transverse to the negative block (impossible for an exactly
    Lagrangian plane, so it signals a defective input).
    """
    if not plane.form.same_as(split.form, tol):
        raise DimensionMismatch("plane and split refer to different forms")
    n = split.n
    C = split.Q.conj().T @ plane.frame.matrix
    c_plus = C[:n]
    c_minus = C[n:]
    s = np.linalg.svd(c_plus, compute_uv=False)
    if s[-1] <= tol.rank_tol:
        raise ProjectionSingular(
            f"projection onto the positive block has sigma_min {s[-1]:.3e}"
        )
    # V solves V c_plus = c_minus
    V = np.linalg.solve(c_plus.conj().T, c_minus.conj().T).conj().T
    U = (np.sqrt(split.a_minus)[:, None] * V) / np.sqrt(split.a_plus)[None, :]
    return LerayUnitary(U, split, tol)


def unitary_to_plane(U, split: CanonicalSplit | None = None, tol: Tolerances = TOL) -> LagrangianPlane:
    """Lagrangian plane whose graph map is the given unitary.

    Accepts a LerayUnitary, or a plain unitary matrix together with the
    split it refers to.
    """
    if not isinstance(U, LerayUnitary):
        if split is None:
            raise ValueError("a plain matrix needs an explicit split")
        U = LerayUnitary(U, split, tol)
    split, M, n = U.split, U.U, U.n
    G = (M * np.sqrt(split.a_plus)[None, :]) / np.sqrt(split.a_minus)[:, None]
    return LagrangianPlane(split.Q @ np.vstack([np.eye(n), G]), split.form, tol)


# LAPACK's eigenvalue routine without numpy's wrapper, whose checks cost a
# few times the 1x1 to 4x4 solve itself; crossing_dim runs once per bulk
_geev, = sla.get_lapack_funcs(("geev",), (np.zeros((1, 1), dtype=complex),))


def crossing_dim(u_a, u_b, tol: Tolerances = TOL) -> int:
    """Dimension of the intersection of the planes behind two unitaries.

    Counts eigenvalues of U_A U_B* within ``tol.eig_tol`` of 1. Both
    arguments must refer to the same canonical split (or both be plain
    matrices of equal size).
    """
    return int(np.count_nonzero(np.abs(_crossing_spectrum(u_a, u_b, tol) - 1.0) <= tol.eig_tol))


def _crossing_spectrum(u_a, u_b, tol: Tolerances) -> np.ndarray:
    """Eigenvalues of U_A U_B*, after ``crossing_dim``'s checks on its arguments."""
    split_a = u_a.split if isinstance(u_a, LerayUnitary) else None
    split_b = u_b.split if isinstance(u_b, LerayUnitary) else None
    A = u_a.U if isinstance(u_a, LerayUnitary) else _as_square(u_a, "u_a")
    B = u_b.U if isinstance(u_b, LerayUnitary) else _as_square(u_b, "u_b")
    if (split_a is None) != (split_b is None):
        raise SplitMismatch("cannot compare a split-anchored unitary with a bare matrix")
    if split_a is not None and not split_a.same_as(split_b, tol):
        raise SplitMismatch("unitaries refer to different canonical splits")
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    # a LerayUnitary is finite by construction; LAPACK must not see a bare NaN or inf
    if split_a is None and not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise np.linalg.LinAlgError("unitaries must have finite entries")
    if not A.size:
        return np.zeros(0, dtype=complex)
    lam, _, _, info = _geev(A @ B.conj().T, compute_vl=0, compute_vr=0)
    if info:
        raise np.linalg.LinAlgError(f"eigenvalues of U_A U_B* not found (geev info {info})")
    return lam
