"""Tenfold-way symmetry data: classes, generators, membership, sampling.

A symmetry set holds up to two antiunitary generators (time reversal T
and charge conjugation C, each squaring to +1 or -1) and a chiral
unitary S. The combination determines one of ten Cartan labels. For
each label the boundary unitaries of gapped operators form a specific
matrix manifold (orthogonal, symplectic, hermitian-unitary and so on);
membership tests, canonical generator bases, and Haar-style samplers
for those manifolds live here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParity, DimensionMismatch, NotUnitary
from .linalg import TOL, Tolerances, _finite_square
from .models import dirac_form
from .symplectic import LagrangianPlane, LerayUnitary

__all__ = [
    "CartanClass",
    "AntiUnitary",
    "SymmetrySet",
    "plane_respects",
    "membership",
    "canonical_symmetry_basis",
    "standard_omega",
    "random_unitary",
    "random_orthogonal",
    "random_symplectic_unitary",
    "random_member",
    "realizable_indices",
]

# label -> (t_sign, c_sign, has chiral, index kind, needs even dimension)
_CLASS_DATA = {
    "A": (0, 0, False, "zero", False),
    "AIII": (0, 0, True, "kernel_dim", False),
    "AI": (1, 0, False, "zero", False),
    "BDI": (1, 1, True, "kernel_dim", False),
    "D": (0, 1, False, "sign", False),
    "DIII": (-1, 1, True, "sign", True),
    "AII": (-1, 0, False, "zero", True),
    "CII": (-1, -1, True, "kernel_dim", True),
    "C": (0, -1, False, "zero", True),
    "CI": (1, -1, True, "zero", True),
}

_MANIFOLDS = {
    "A": "U(N)",
    "AIII": "U(N)/(U(k) x U(N-k)), k = 0..N",
    "AI": "U(N)/O(N)",
    "BDI": "O(N)/(O(k) x O(N-k)), k = 0..N",
    "D": "O(N)",
    "DIII": "O(2n)/U(n)",
    "AII": "U(2n)/Sp(n)",
    "CII": "Sp(n)/(Sp(k) x Sp(n-k)), k = 0..n",
    "C": "Sp(n)",
    "CI": "Sp(n)/U(n)",
}

_INDEX_RANGES = {
    "zero": "none",
    "kernel_dim": "dim ker(U - 1)",
    "sign": "sign in {+1, -1}",
}


class CartanClass(str, Enum):
    A = "A"
    AIII = "AIII"
    AI = "AI"
    BDI = "BDI"
    D = "D"
    DIII = "DIII"
    AII = "AII"
    CII = "CII"
    C = "C"
    CI = "CI"

    @classmethod
    def coerce(cls, label) -> "CartanClass":
        if isinstance(label, CartanClass):
            return label
        try:
            return _CLASSES[str(label)]
        except KeyError:
            raise ValueError(
                f"unknown class {label!r}; expected one of {[c.value for c in cls]}"
            ) from None

    @property
    def t_sign(self) -> int:
        return _CLASS_DATA[self.value][0]

    @property
    def c_sign(self) -> int:
        return _CLASS_DATA[self.value][1]

    @property
    def has_chiral(self) -> bool:
        return _CLASS_DATA[self.value][2]

    @property
    def index_kind(self) -> str:
        return _CLASS_DATA[self.value][3]

    @property
    def needs_even_dim(self) -> bool:
        return _CLASS_DATA[self.value][4]

    @property
    def manifold(self) -> str:
        return _MANIFOLDS[self.value]

    @property
    def index_range(self) -> str:
        return _INDEX_RANGES[self.index_kind]


# value -> class, the lookup of ``coerce``; calling the enum takes twenty times as long
_CLASSES = {label.value: label for label in CartanClass}


class AntiUnitary:
    """Antiunitary map x -> V conj(x) with V unitary and V conj(V) = sign."""

    __slots__ = ("V", "sign")

    def __init__(self, V, sign: int, tol: Tolerances = TOL):
        V = _finite_square(V, "V")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        n = V.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            unitary = np.abs(V.conj().T @ V - np.eye(n)).max()
            involution = np.abs(V @ np.conj(V) - sign * np.eye(n)).max()
        if not unitary <= tol.frame_tol:
            raise NotUnitary("V is not unitary")
        if not involution <= tol.frame_tol:
            raise ValueError(f"V conj(V) is not {sign:+d} times identity")
        V = V.copy()
        V.flags.writeable = False
        self.V = V
        self.sign = int(sign)

    @property
    def dim(self) -> int:
        return self.V.shape[0]

    def apply(self, x) -> np.ndarray:
        """Image of a vector, or columnwise image of a matrix."""
        return self.V @ np.conj(np.asarray(x, dtype=complex))

    def __repr__(self):
        return f"AntiUnitary(dim={self.dim}, sign={self.sign:+d})"


class SymmetrySet:
    """Generators present for an operator: T and C antiunitary, S unitary."""

    __slots__ = ("T", "C", "S")

    def __init__(self, T: AntiUnitary | None = None, C: AntiUnitary | None = None,
                 S=None, tol: Tolerances = TOL):
        dims = set()
        if T is not None:
            dims.add(T.dim)
        if C is not None:
            dims.add(C.dim)
        if S is not None:
            S = _finite_square(S, "S")
            n = S.shape[0]
            with np.errstate(over="ignore", invalid="ignore"):
                unitary = np.abs(S.conj().T @ S - np.eye(n)).max()
                involution = np.abs(S @ S - np.eye(n)).max()
            if not unitary <= tol.frame_tol:
                raise NotUnitary("S is not unitary")
            if not involution <= tol.frame_tol:
                raise ValueError("S must square to the identity")
            S = S.copy()
            S.flags.writeable = False
            dims.add(n)
        if len(dims) > 1:
            raise DimensionMismatch(f"generator dimensions differ: {sorted(dims)}")
        self.T = T
        self.C = C
        self.S = S

    def __repr__(self):
        parts = []
        if self.T is not None:
            parts.append(f"T{self.T.sign:+d}")
        if self.C is not None:
            parts.append(f"C{self.C.sign:+d}")
        if self.S is not None:
            parts.append("S")
        return f"SymmetrySet({', '.join(parts) or 'none'})"


@dataclass(frozen=True)
class SymmetryDefects:
    """Per-generator defects (None when absent) and whether all pass."""

    defect_t: float | None
    defect_c: float | None
    defect_s: float | None
    ok: bool


def plane_respects(plane: LagrangianPlane, sym: SymmetrySet,
                   tol: Tolerances = TOL) -> SymmetryDefects:
    """Whether each generator maps the plane onto itself.

    The defect per generator is the largest component of the image
    frame sticking out of the plane.
    """
    F = plane.frame.matrix
    P = plane.frame.projector()
    resid = lambda X: float(np.abs(X - P @ X).max())
    d_t = d_c = d_s = None
    if sym.T is not None:
        if sym.T.dim != plane.dim:
            raise DimensionMismatch("T and plane dimensions differ")
        d_t = resid(sym.T.apply(F))
    if sym.C is not None:
        if sym.C.dim != plane.dim:
            raise DimensionMismatch("C and plane dimensions differ")
        d_c = resid(sym.C.apply(F))
    if sym.S is not None:
        if sym.S.shape[0] != plane.dim:
            raise DimensionMismatch("S and plane dimensions differ")
        d_s = resid(sym.S @ F)
    defects = [d for d in (d_t, d_c, d_s) if d is not None]
    ok = all(d <= 10 * tol.frame_tol for d in defects)
    return SymmetryDefects(d_t, d_c, d_s, ok)


def standard_omega(n: int) -> np.ndarray:
    """The 2n-dimensional block form [[0, I], [-I, 0]]."""
    O = np.zeros((2 * n, 2 * n))
    O[:n, n:] = np.eye(n)
    O[n:, :n] = -np.eye(n)
    return O


def _unpack_unitary(U):
    """The matrix of a LerayUnitary, which was checked when made, or a checked plain matrix."""
    if isinstance(U, LerayUnitary):
        return U.U
    return _finite_square(U, "U")


def membership(U, label, tol: Tolerances = TOL) -> bool:
    """Whether a unitary lies in the matrix manifold of a class.

    Tests only the structural relation (reality, symmetry, symplectic
    intertwining); unitarity is the caller's responsibility. Raises
    ValueError when a plain matrix has a NaN or inf entry, then
    BadParity when the class requires an even dimension. This is the
    one-point case of ``_members``.
    """
    label = CartanClass.coerce(label)
    return bool(_members(_unpack_unitary(U), label, tol))


def _members(M: np.ndarray, label: CartanClass, tol: Tolerances) -> np.ndarray:
    """``membership`` of each matrix of a (..., n, n) stack, as a (...) boolean array.

    Each relation is one reduction over the last two axes, so one
    matrix, with no stack axis, gives a 0-d answer; a second relation is
    tested only when some matrix passed the first.
    """
    n = M.shape[-1]
    if label.needs_even_dim and n % 2:
        raise BadParity(f"class {label.value} needs even dimension, got {n}")
    if label == CartanClass.A:
        return np.ones(M.shape[:-2], dtype=bool)
    t = tol.eig_tol
    MT = M.swapaxes(-1, -2)
    if label == CartanClass.AIII:
        return _within(M - MT.conj(), t)
    if label == CartanClass.AI:
        return _within(M - MT, t)
    if label == CartanClass.AII:
        return _within(M + MT, t)
    if label in (CartanClass.BDI, CartanClass.D, CartanClass.DIII):
        ok = _within(M.imag, t)  # real
        if label == CartanClass.D or not np.count_nonzero(ok):
            return ok
        return ok & _within(M - MT if label == CartanClass.BDI else M + MT, t)
    Om = _omega(n // 2)
    ok = _within(Om @ M - np.conj(M) @ Om, t)  # symplectic
    if label == CartanClass.C or not np.count_nonzero(ok):
        return ok
    return ok & _within(M - (MT.conj() if label == CartanClass.CII else MT), t)


def _within(X: np.ndarray, t: float) -> np.ndarray:
    """Whether every entry of each matrix of a stack is at most t in modulus."""
    return np.abs(X).max(axis=(-2, -1)) <= t


@functools.lru_cache(maxsize=16)
def _omega(n: int) -> np.ndarray:
    """``standard_omega(n)``, built once per n as a read-only complex array."""
    O = standard_omega(n).astype(complex)
    O.flags.writeable = False
    return O


def canonical_symmetry_basis(label, N: int, tol: Tolerances = TOL):
    """Reference generators of a class on the 2N-dimensional trace space.

    Returns a SymmetrySet together with the boundary form
    J = blkdiag(i I_N, -i I_N) that the generators are compatible with.
    Raises BadParity when the class needs even N.
    """
    label = CartanClass.coerce(label)
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if label.needs_even_dim and N % 2:
        raise BadParity(f"class {label.value} needs even N, got {N}")
    I = np.eye(N)
    Z = np.zeros((N, N))
    swap = np.block([[Z, I], [I, Z]])
    form = dirac_form(N)
    T = C = S = None
    if label == CartanClass.AIII:
        S = swap
    elif label == CartanClass.AI:
        T = AntiUnitary(swap, 1, tol)
    elif label == CartanClass.BDI:
        T = AntiUnitary(swap, 1, tol)
        C = AntiUnitary(np.eye(2 * N), 1, tol)
        S = swap
    elif label == CartanClass.D:
        C = AntiUnitary(np.eye(2 * N), 1, tol)
    elif label == CartanClass.DIII:
        T = AntiUnitary(np.block([[Z, -I], [I, Z]]), -1, tol)
        C = AntiUnitary(1j * np.eye(2 * N), 1, tol)
        S = np.block([[Z, 1j * I], [-1j * I, Z]])
    elif label == CartanClass.AII:
        T = AntiUnitary(np.block([[Z, -I], [I, Z]]), -1, tol)
    elif label in (CartanClass.CII, CartanClass.C, CartanClass.CI):
        Om = standard_omega(N // 2)
        v_c = np.block([[Om, Z], [Z, Om]])
        if label == CartanClass.CII:
            T = AntiUnitary(np.block([[Z, -Om], [-Om, Z]]), -1, tol)
            C = AntiUnitary(v_c, -1, tol)
            S = swap
        elif label == CartanClass.C:
            C = AntiUnitary(v_c, -1, tol)
        else:
            T = AntiUnitary(1j * swap, 1, tol)
            C = AntiUnitary(v_c, -1, tol)
            S = 1j * np.block([[Z, Om], [Om, Z]])
    return SymmetrySet(T, C, S, tol), form


# ---------------------------------------------------------------------------
# samplers


def random_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary."""
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_orthogonal(n: int, rng=None) -> np.ndarray:
    """Haar-distributed real orthogonal (both determinant components)."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))[None, :]


def random_symplectic_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-style symplectic unitary of even dimension n.

    Polar factor of a quaternionic Gaussian; the quaternionic block
    structure survives the polar decomposition, so the result satisfies
    Omega U = conj(U) Omega exactly up to roundoff.
    """
    if n % 2:
        raise BadParity(f"symplectic unitaries need even dimension, got {n}")
    rng = np.random.default_rng(rng)
    half = n // 2
    for _ in range(16):
        x1 = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        x2 = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        X = np.block([[x1, x2], [-np.conj(x2), np.conj(x1)]])
        u, s, vh = np.linalg.svd(X)
        if s[-1] > 1e-8 * s[0]:
            return u @ vh
    raise ValueError("failed to draw an invertible quaternionic Gaussian")


def _sigma_pairs(half: int) -> np.ndarray:
    """Block diagonal of [[0, 1], [-1, 0]] pairs."""
    S = np.zeros((2 * half, 2 * half))
    for j in range(half):
        S[2 * j, 2 * j + 1] = 1.0
        S[2 * j + 1, 2 * j] = -1.0
    return S


def realizable_indices(label, N: int) -> list:
    """Index values realized on the class manifold in dimension N."""
    label = CartanClass.coerce(label)
    if label.needs_even_dim and N % 2:
        raise BadParity(f"class {label.value} needs even dimension, got {N}")
    kind = label.index_kind
    if kind == "zero":
        return [0]
    if kind == "sign":
        return [1, -1]
    step = 2 if label == CartanClass.CII else 1
    return list(range(0, N + 1, step))


def random_member(label, N: int, rng=None, index=None) -> np.ndarray:
    """Random point of a class manifold, optionally with a pinned index.

    For kernel-counting classes ``index`` is dim ker(U - 1); for sign
    classes it is the determinant (D) or Pfaffian (DIII) sign. Classes
    with no invariant accept only index None or 0.
    """
    label = CartanClass.coerce(label)
    rng = np.random.default_rng(rng)
    allowed = realizable_indices(label, N)
    if index is not None and label.index_kind == "zero" and index != 0:
        raise ValueError(f"class {label.value} carries no index")
    if index is not None and label.index_kind != "zero" and index not in allowed:
        raise ValueError(f"index {index!r} not realizable for {label.value} at N={N}")

    if label == CartanClass.A:
        return random_unitary(N, rng)
    if label == CartanClass.AI:
        V = random_unitary(N, rng)
        return V @ V.T
    if label == CartanClass.AII:
        V = random_unitary(N, rng)
        return V @ _sigma_pairs(N // 2) @ V.T
    if label == CartanClass.C:
        return random_symplectic_unitary(N, rng)
    if label == CartanClass.CI:
        V = random_symplectic_unitary(N, rng)
        return V @ V.T

    if label in (CartanClass.AIII, CartanClass.BDI):
        k = int(rng.integers(0, N + 1)) if index is None else int(index)
        signs = np.concatenate([np.ones(k), -np.ones(N - k)])
        if label == CartanClass.AIII:
            V = random_unitary(N, rng)
            return (V * signs[None, :]) @ V.conj().T
        O = random_orthogonal(N, rng)
        return (O * signs[None, :]) @ O.T
    if label in (CartanClass.D, CartanClass.DIII):
        s = int(rng.choice([1, -1])) if index is None else int(index)
        O = random_orthogonal(N, rng)
        if int(round(np.linalg.det(O))) != s:
            O[:, 0] = -O[:, 0]
        return O if label == CartanClass.D else O @ _sigma_pairs(N // 2) @ O.T
    # CII: conjugated projector difference built on symplectic frame columns
    half = N // 2
    m = (int(rng.integers(0, half + 1)) if index is None else int(index) // 2)
    U = random_symplectic_unitary(N, rng)
    cols = list(range(m)) + list(range(half, half + m))
    Phi = U[:, cols]
    return 2.0 * (Phi @ Phi.conj().T) - np.eye(N)
