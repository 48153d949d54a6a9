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


def _fix_phases(F: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Rotate each column so its pivot entry is real positive.

    The pivot is the first entry whose modulus is within ``tol.frame_tol``
    (relative) of the column's largest, so roundoff never breaks a tie.
    """
    m = np.abs(F)
    k = np.argmax(m >= (1.0 - tol.frame_tol) * m.max(axis=0), axis=0)
    pivot = F[k, np.arange(F.shape[1])]
    # the columns are unit vectors, so no pivot is zero
    return F * (pivot.conj() / np.abs(pivot))


def _cluster_basis(evecs: np.ndarray, counts: list[int]) -> np.ndarray:
    """Deterministic orthonormal basis of each eigenvalue cluster, up to phases.

    eigh returns an arbitrary basis inside degenerate clusters; a QR of
    c columns of the cluster projector, picked greedily as pivoted QR
    picks them, replaces it with one that depends only on the subspace,
    so equal forms always get equal splitting bases. A cluster of one
    vector has no basis to choose, only a phase, so it is kept as eigh
    returned it: the projector and its QR run only for clusters of two
    or more, and ``_fix_phases`` fixes every column's phase afterwards.
    evecs is overwritten and returned.
    """
    start = 0
    for c in counts:
        if c > 1:
            block = evecs[:, start : start + c]
            P = block @ block.conj().T
            evecs[:, start : start + c] = np.linalg.qr(P[:, _pivots(P, c)])[0]
        start += c
    return evecs


def _pivots(P: np.ndarray, c: int) -> list[int]:
    """The first c column pivots of P, chosen as LAPACK's geqp3 chooses them.

    Each pivot is the column of largest norm once the pivots before it
    are projected out, the first such column on a tie.
    """
    R = P.copy()
    piv = []
    for _ in range(c):
        j = int(np.argmax(np.einsum("ij,ij->j", R.conj(), R).real))
        piv.append(j)
        q = R[:, j] / np.linalg.norm(R[:, j])
        R -= np.outer(q, q.conj() @ R)
    return piv


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
    a_minus = -evals[~pos][::-1]
    V = np.hstack([V[:, pos], V[:, ~pos][:, ::-1]])
    counts = _clusters(a_plus, gap) + _clusters(a_minus, gap)
    Q = _fix_phases(_cluster_basis(V, counts), tol)

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
    """Unitary coordinate of a Lagrangian plane in a canonical split.

    The constructor runs ``_unitarity_errors``, the package's one
    unitarity check, on a stack of one; ``_leray_each`` runs it once on a
    whole stack.
    """

    __slots__ = ("U", "split")

    def __init__(self, U, split: CanonicalSplit, tol: Tolerances = TOL):
        U = _as_square(U, "U").copy()
        error = _unitarity_errors(U[None], split, tol)[0]
        if error is not None:
            raise error
        U.flags.writeable = False
        self.U = U
        self.split = split

    @classmethod
    def _checked(cls, U: np.ndarray, split: CanonicalSplit) -> "LerayUnitary":
        """A read-only U that ``_unitarity_errors`` passed, wrapped without a second check."""
        self = object.__new__(cls)
        self.U = U
        self.split = split
        return self

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def __repr__(self):
        return f"LerayUnitary(n={self.n})"


def _unitarity_errors(U: np.ndarray, split: CanonicalSplit, tol: Tolerances) -> list:
    """The error ``LerayUnitary`` raises for each matrix of a (k, m, m) stack, or None.

    One batched defect max|U*U - I| serves the whole stack. Per matrix, a
    non-finite entry is reported first, then a size that is not the
    split's, then a defect past ``tol.frame_tol``; a non-finite entry
    always fails the defect, so only the failures are tested for it.
    """
    n = split.n
    if U.shape[-1] != n:
        return [DimensionMismatch(f"U is {U.shape[-1]}-dimensional, split block is {n}")
                if np.isfinite(u).all() else ValueError("U must have finite entries") for u in U]
    # an overflowed product gives an inf or NaN defect, which fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(U.conj().swapaxes(1, 2) @ U - _identity(n)).max(axis=(1, 2)).tolist()
    return [None if d <= tol.frame_tol else
            NotUnitary(f"unitarity defect {d:.3e}") if np.isfinite(u).all() else
            ValueError("U must have finite entries") for u, d in zip(U, defect)]


def _leray_each(U: np.ndarray, split: CanonicalSplit, tol: Tolerances) -> list:
    """``LerayUnitary`` of each matrix of a (k, n, n) stack, or the error it raises for it.

    The stack is taken over, not copied: it is made read-only, and each
    unitary is a view of it.
    """
    U.flags.writeable = False
    return [LerayUnitary._checked(u, split) if error is None else error
            for u, error in zip(U, _unitarity_errors(U, split, tol))]


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


def crossing_dim(u_a, u_b, tol: Tolerances = TOL) -> int:
    """Dimension of the intersection of the planes behind two unitaries.

    Counts eigenvalues of U_A U_B* within ``tol.eig_tol`` of 1. Both
    arguments must refer to the same canonical split (or both be plain
    matrices of equal size). This is the one-pair case of ``_crossing_dims``.
    """
    (count,) = _crossing_dims([(u_a, u_b)], tol)
    if isinstance(count, Exception):
        raise count
    return count


def _crossing_dims(pairs, tol: Tolerances) -> list:
    """``crossing_dim`` of each (u_a, u_b) pair, or the error its checks raise alone.

    The pairs that pass the checks share one shape and take one batched
    product and one ``eigvals``. numpy raises LinAlgError for the whole
    stack on a bare matrix with a NaN or inf.
    """
    out = [None] * len(pairs)
    live, As, Bs = [], [], []
    for i, (u_a, u_b) in enumerate(pairs):
        try:
            A, B = _crossing_operands(u_a, u_b, tol)
        except ValueError as exc:
            out[i] = exc
            continue
        live.append(i)
        As.append(A)
        Bs.append(B)
    if live:
        lam = np.linalg.eigvals(np.array(As) @ np.array(Bs).conj().swapaxes(-1, -2))
        for i, count in zip(live, _crossing_count(lam, tol)):
            out[i] = count
    return out


def _crossing_count(lam: np.ndarray, tol: Tolerances) -> list:
    """``crossing_dim`` of each row of a (k, n) stack of U_A U_B* spectra."""
    return np.count_nonzero(np.abs(lam - 1.0) <= tol.eig_tol, axis=-1).tolist()


def _crossing_spectrum(u_a, u_b, tol: Tolerances) -> np.ndarray:
    """Eigenvalues of U_A U_B*, after ``crossing_dim``'s checks on its arguments.

    Only ``continuous_junction_report`` needs the spectrum itself: it
    checks the crossing count against the principal angles.
    """
    A, B = _crossing_operands(u_a, u_b, tol)
    # numpy raises LinAlgError on a bare matrix with a NaN or inf
    return np.linalg.eigvals(A @ B.conj().T)


def _crossing_operands(u_a, u_b, tol: Tolerances) -> tuple:
    """The matrices of two unitaries, checked to refer to one split and to share a shape."""
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
    return A, B
