"""Topological indices of boundary unitaries.

Three kinds of invariant occur across the ten classes: none (the
manifold is connected), a kernel dimension dim ker(U - 1) (chiral
classes, where it counts the +1 eigenvalues of a hermitian unitary),
and a sign (determinant for real orthogonal, Pfaffian for real
antisymmetric orthogonal). The indices of two bulks lower-bound the
number of protected zero modes at a junction between them
(junction.protected_bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousKernel, KindMismatch, NotInClass
from .linalg import TOL, Tolerances, pfaffian
from .symmetry import CartanClass, _members, _unpack_unitary

__all__ = [
    "IndexValue",
    "topological_index",
    "bulk_consistency_check",
]


@dataclass(frozen=True)
class IndexValue:
    """Topological index with its kind ('zero', 'kernel_dim' or 'sign')."""

    kind: str
    value: int

    def __post_init__(self):
        if self.kind not in ("zero", "kernel_dim", "sign"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.kind == "zero" and self.value != 0:
            raise ValueError("zero-kind index must have value 0")
        if self.kind == "kernel_dim" and self.value < 0:
            raise ValueError("kernel dimension cannot be negative")
        if self.kind == "sign" and self.value not in (1, -1):
            raise ValueError("sign index must be +1 or -1")

    @classmethod
    def zero(cls) -> "IndexValue":
        return cls("zero", 0)

    @classmethod
    def kernel_dim(cls, value: int) -> "IndexValue":
        return cls("kernel_dim", int(value))

    @classmethod
    def sign(cls, value: int) -> "IndexValue":
        return cls("sign", int(value))

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "sign":
            return f"{self.value:+d}"
        return str(self.value)


def _count_kernel(evals: np.ndarray, tol: Tolerances) -> int:
    """Count eigenvalues at +1 with a guard band against ambiguity."""
    dist = np.abs(evals - 1.0)
    inside = dist <= tol.eig_tol
    guard = (dist > tol.eig_tol) & (dist <= 10 * tol.eig_tol)
    if np.any(guard):
        raise AmbiguousKernel(
            f"eigenvalue at distance {dist[guard].min():.3e} from 1 "
            f"falls inside the guard band ({tol.eig_tol:.1e}, {10 * tol.eig_tol:.1e}]"
        )
    return int(np.count_nonzero(inside))


def _snap_sign(x: float, what: str) -> int:
    if abs(x - 1.0) <= 1e-6:
        return 1
    if abs(x + 1.0) <= 1e-6:
        return -1
    raise NotInClass(f"{what} is {x:.6f}, not within 1e-6 of +1 or -1")


def topological_index(U, label, tol: Tolerances = TOL) -> IndexValue:
    """Index of a boundary unitary within its class manifold.

    Raises NotInClass when the membership test fails, and
    AmbiguousKernel when a kernel eigenvalue falls inside the guard
    band where counting would depend on the tolerance. As in
    ``membership``, unitarity is the caller's responsibility, and a
    plain matrix with a NaN or inf entry raises ValueError before the
    parity check. This is the one-point case of ``_index_each``.
    """
    label = CartanClass.coerce(label)
    [index] = _index_each(_unpack_unitary(U)[None], label, tol)
    if isinstance(index, Exception):
        raise index
    return index


def _index_each(M: np.ndarray, label, tol: Tolerances) -> list:
    """``topological_index`` of each matrix of a (k, n, n) stack, or the error it raises alone.

    The stack takes one membership test (``_members``), and its members
    one ``eigvalsh`` (kernel-dim classes) or one ``det`` (class D); the
    Pfaffian (DIII) is taken per matrix. BadParity, which every matrix
    of the stack would raise, is raised.
    """
    label = CartanClass.coerce(label)
    out = [None if member else NotInClass(f"matrix fails the {label.value} membership test")
           for member in _members(M, label, tol).tolist()]
    kind = label.index_kind
    if kind == "zero":
        return [error or IndexValue.zero() for error in out]
    live = [i for i, error in enumerate(out) if error is None]
    if not live:
        return out
    M = M if len(live) == len(M) else M[live]
    if kind == "kernel_dim":
        # hermitian unitary: spectrum sits at +1 and -1
        evals = np.linalg.eigvalsh(M)
    elif label == CartanClass.D:
        dets = np.linalg.det(M).real.tolist()
    for j, i in enumerate(live):
        try:
            if kind == "kernel_dim":
                out[i] = IndexValue.kernel_dim(_count_kernel(evals[j], tol))
            elif label == CartanClass.D:
                out[i] = IndexValue.sign(_snap_sign(dets[j], "det(U)"))
            else:
                # membership passed U at eig_tol; pfaffian gates at the tighter frame_tol
                X = M[j].real
                out[i] = IndexValue.sign(_snap_sign(pfaffian(0.5 * (X - X.T), tol), "Pf(U)"))
        except ValueError as exc:
            out[i] = exc
    return out


def bulk_consistency_check(label, index_plus: IndexValue, index_minus: IndexValue,
                           N: int) -> bool:
    """Relation between the two boundary indices of a single gapped bulk.

    The decaying and growing half-line planes of one operator are not
    independent: kernel-dim classes satisfy k+ + k- = N, the
    determinant signs of D agree up to (-1)^N, and the Pfaffian signs
    of DIII agree up to (-1)^(N/2). Classes without an invariant always
    pass.
    """
    label = CartanClass.coerce(label)
    kind = label.index_kind
    if index_plus.kind != kind or index_minus.kind != kind:
        raise KindMismatch(
            f"class {label.value} carries {kind!r} indices, "
            f"got {index_plus.kind!r} and {index_minus.kind!r}"
        )
    if kind == "zero":
        return True
    if kind == "kernel_dim":
        return index_plus.value + index_minus.value == N
    if label == CartanClass.D:
        flip = 1 if N % 2 == 0 else -1
        return index_plus.value == flip * index_minus.value
    flip = 1 if (N // 2) % 2 == 0 else -1
    return index_plus.value == flip * index_minus.value
