"""Gapped one-dimensional model families and their boundary planes.

Three families are implemented. A constant-mass Dirac operator
(-i sigma_3 d/dt + mass coupling W) whose half-line planes at every
in-gap energy are read off one singular value decomposition of W; a
constant-potential Schrodinger operator (-d^2/dt^2 + V) below its
spectrum; and a periodic block tight-binding chain, whose sites are the
Cayley transforms of their hermitian relations: unitary scattering
matrices whose star product never grows. The same star product doubles
a chain's period until it transmits nothing, and the reflections of the
limit are the unitaries of both half-line planes, for any period, in
traces y = K(psi_0, a0 psi_1) that have the Dirac form for every chain;
the planes are read in (psi_0, psi_1). Each bulk ships with the
unitaries of its planes on both sides in a canonical split, and a gap
certificate.

Each family has one stacked builder (``dirac_stack``,
``schrodinger_stack``, ``tb_stack``) that takes many points, each at its
own energy, and returns for each its bulk or the error it raises alone;
points of one shape share the batched factorizations. A chain is its
(bonds, sites) pair. The one-point builders are stacks of one. A stack,
like a model's blocks, is checked whole (``_whole``), and point by point
only to name a refusal; a built model's blocks are not checked again.
All three finish their points on one path, which checks each point's
two unitaries and then gates transversality with one spectrum of
u_plus u_minus* per stack.

Piecewise-constant Dirac profiles extend the Dirac family: the plane
that decays on a far side is carried across the steps to any point as
its Leray unitary, on which each segment's closed-form flow acts as a
Moebius map that preserves unitarity because the flow preserves the
boundary pairing.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    GapClosed,
    NotHermitian,
    NotInGap,
    NotInvertible,
    NotLagrangian,
)
from .linalg import TOL, Tolerances, _finite_square, _identity
from .symplectic import (
    LagrangianPlane,
    SymplecticForm,
    _leray_each,
    canonical_split,
    unitary_to_plane,
)

__all__ = [
    "BulkData",
    "dirac_form",
    "dirac_stack",
    "dirac_bulk",
    "schrodinger_stack",
    "schrodinger_bulk",
    "TightBindingModel",
    "tb_form",
    "tb_stack",
    "tb_bulk",
    "PiecewiseDiracProfile",
    "propagate_plane",
]


class BulkData:
    """Boundary data of one gapped bulk at one energy.

    Carries the unitaries of the Lagrangian planes of solutions
    decaying to the right (plus) and to the left (minus), a positive
    gap certificate (distance from the energy to the spectrum, in the
    model's own units), and the model family ("dirac", "schrodinger"
    or "tight_binding") that built it. ``split`` is read off ``u_plus``,
    and ``form`` is the split's, except for a chain: its ``_traces`` hold
    the form on (psi_0, psi_1) and the map M from its traces y to those.
    Each plane is built from its unitary, with the bulk's tolerances,
    whenever it is read, and for a chain mapped by M to (psi_0, psi_1).
    """

    __slots__ = ("u_plus", "u_minus", "gap", "energy", "family", "_tol", "_traces")

    def __init__(self, u_plus, u_minus, gap, energy, family: str, tol: Tolerances = TOL):
        self.u_plus = u_plus
        self.u_minus = u_minus
        self.gap = float(gap)
        self.energy = float(energy)
        self.family = family
        self._tol = tol
        self._traces = None

    @property
    def split(self):
        return self.u_plus.split

    @property
    def form(self) -> SymplecticForm:
        return self.split.form if self._traces is None else self._traces[0]

    @property
    def plane_plus(self) -> LagrangianPlane:
        return self._plane(self.u_plus)

    @property
    def plane_minus(self) -> LagrangianPlane:
        return self._plane(self.u_minus)

    def _plane(self, u) -> LagrangianPlane:
        if self._traces is None:
            return unitary_to_plane(u, tol=self._tol)
        form, M = self._traces  # the split of y is the identity: the plane is M [I; u]
        return LagrangianPlane(M[:, :u.n] + M[:, u.n:] @ u.U, form, self._tol)

    def __repr__(self):
        return (f"BulkData(n={self.split.n}, energy={self.energy:g}, "
                f"gap={self.gap:.3g})")


def _finish_each(out, groups, family: str, tol) -> None:
    """Bulk of each point of each group, or its error, in out.

    A group is (form, indices, U, gaps, energies, traces): U stacks the
    u_plus of its points, then their u_minus, in the order of the
    indices, and traces is None or each point's ``BulkData._traces``.
    The points of a group share its form's split, which cannot fail: each
    family's form is balanced. They share one stacked unitarity check
    (``_leray_each``); a point whose u_plus fails gets u_plus's error, as
    if checked alone, before its u_minus is looked at.
    """
    live, products = [], []
    for form, idx, U, gaps, energies, traces in groups:
        n = len(idx)
        us = _leray_each(U, canonical_split(form, tol), tol)
        passed = []
        for j, (i, up, um, gap, energy) in enumerate(zip(idx, us, us[n:], gaps, energies)):
            error = next((u for u in (up, um) if isinstance(u, Exception)), None)
            if error is None:
                out[i] = BulkData(up, um, gap, energy, family, tol)
                if traces is not None:
                    out[i]._traces = traces[j]
                passed.append(j)
                live.append(i)
            else:
                out[i] = error
        if passed:
            Up, Um = (U[:n], U[n:]) if len(passed) == n else (U[:n][passed], U[n:][passed])
            products.append(Up @ _ct(Um))
    if live:
        # in-gap energies force transverse planes; one spectrum of u_plus u_minus* per stack
        lam = np.linalg.eigvals(products[0] if len(products) == 1 else np.concatenate(products))
        for i in np.array(live)[(np.abs(lam - 1.0) <= tol.eig_tol).any(axis=1)].tolist():
            out[i] = GapClosed("half-line planes intersect; the energy is not in a gap")


def _raise_first(results: list) -> list:
    """The results of a stack, unless one is an error: then the first error is raised."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


@functools.lru_cache(maxsize=64)
def dirac_form(N: int) -> SymplecticForm:
    """Boundary form of an N-channel Dirac operator: J = blkdiag(iI, -iI).

    The form depends on N alone, so every call with the same N returns
    the same read-only object.
    """
    d = np.concatenate([1j * np.ones(N), -1j * np.ones(N)])
    return SymplecticForm(np.diag(d))


def _finite_block(x, name: str) -> np.ndarray:
    """A model's matrix: ``_finite_square``, and DimensionMismatch naming it when empty."""
    X = _finite_square(x, name)
    if not X.size:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {X.shape}")
    return X


def _whole(points, rank: int, energies=None):
    """The points as one complex stack, when it is whole; else None.

    Whole means one array of the given rank whose blocks (its last two
    axes) are square, nonempty and finite, and, when energies are given,
    one finite energy per point. A stack that is not whole is checked
    point by point by its caller, which names the refusal.
    """
    try:
        X = np.array(points, dtype=complex)
        if (X.ndim == rank and X.size and X.shape[-1] == X.shape[-2]
                and (energies is None
                     or len(energies) == len(X) and all(map(math.isfinite, energies)))
                and np.count_nonzero(np.isfinite(X)) == X.size):
            return X
    except (ValueError, TypeError, OverflowError):
        pass
    return None


def _block_stack(blocks, name: str):
    """A model's blocks as one read-only (q, N, N) stack, or as a list when they differ in size.

    Blocks that are not ``_whole`` are checked one by one by
    ``_finite_block``, so a malformed block raises as it would alone;
    blocks that pass alone come back as their list for the caller's
    count and size checks.
    """
    blocks = list(blocks)
    X = _whole(blocks, 3)
    if X is None:
        return [_finite_block(x, name) for x in blocks]
    X.flags.writeable = False
    return X


def _require_finite(energy: float) -> None:
    # a non-finite energy would otherwise reach LAPACK and fail there
    if not math.isfinite(energy):
        raise NotInGap(f"energy must be finite, got {float(energy)!r}")


def _stacks(points, energies, check, out, rank: int) -> list:
    """The points that pass their checks, as (indices, stack, energies) per shape.

    A ``_whole`` stack of the given rank passes as one; otherwise the
    points are checked alone (``_by_shape``).
    """
    X = _whole(points, rank, energies)
    if X is not None:
        return [(range(len(X)), X, np.array(energies, dtype=float))]
    return _by_shape(points, energies, check, out)


def _by_shape(points, energies, check, out) -> list:
    """``_stacks`` of a stack that is not whole, shapes in order of first appearance.

    ``check`` takes a point and its energy to the point's array, and raises,
    in the family's order, when either is malformed; a point that fails gets
    its error in ``out``.
    """
    groups = {}
    for i, (x, energy) in enumerate(zip(points, energies, strict=True)):
        try:
            x = check(x, energy)
        except ValueError as exc:
            out[i] = exc
            continue
        groups.setdefault(x.shape, []).append((i, x, energy))
    return [(idx, np.array(xs), np.array(es, dtype=float))
            for idx, xs, es in (zip(*members) for members in groups.values())]


def _matrix_check(name: str):
    """``_stacks``' check of a matrix point: its energy, then ``_finite_block``."""
    def check(x, energy):
        _require_finite(energy)
        return _finite_block(x, name)
    return check


def _hermiticity(X: np.ndarray, tol: Tolerances) -> tuple:
    """The hermiticity rule max|X - X*| <= frame_tol * max(1, max|X|) on a stack of matrices.

    Returns, over the stack's leading axes, where the rule fails, the
    defects max|X - X*| and their scales max(1, max|X|). A scale is at
    least 1, so the scales are computed only when a defect passes
    frame_tol; otherwise the rule holds everywhere and the scale is 1.0.
    """
    defect = np.abs(X - _ct(X)).max(axis=(-2, -1))
    fails = defect > tol.frame_tol
    if not fails.any():
        return fails, defect, 1.0
    scale = np.maximum(1.0, np.abs(X).max(axis=(-2, -1)))
    return defect > tol.frame_tol * scale, defect, scale


def _ct(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return X.conj().swapaxes(-1, -2)


def dirac_stack(Ws, energies, tol: Tolerances = TOL) -> list:
    """Boundary data of constant Dirac operators, each at its own energy.

    Returns one entry per point: its BulkData, or the exception that
    ``dirac_bulk`` raises for it. The masses of one size share one
    batched SVD.
    """
    out = [None] * len(Ws)
    for idx, W, E in _stacks(Ws, energies, _matrix_check("W"), out, 3):
        U, s, Vh = np.linalg.svd(W)
        live, gaps = [], []
        for j, (sv, e) in enumerate(zip(s.tolist(), E.tolist())):
            top, m0 = sv[0], sv[-1]
            gap = m0 - abs(e)
            if m0 <= tol.rank_tol * max(1.0, top):
                out[idx[j]] = GapClosed(f"smallest singular value of W is {m0:.3e}")
            elif gap <= tol.rank_tol * max(1.0, m0):
                out[idx[j]] = GapClosed(f"energy {e!r} is not inside the gap (m0 = {m0!r})")
            else:
                live.append(j)
                gaps.append(gap)
        if len(live) < len(s):
            U, s, Vh, E = U[live], s[live], Vh[live], E[live]
        form = dirac_form(W.shape[-1])
        # the gap gate leaves |E| < m0 <= s, so |r| < 1 and c is unimodular; kappa/s is 1 at E = 0
        r = E[:, None, None] / s[:, None, :]
        k, ir = np.sqrt((1.0 - r) * (1.0 + r)), 1j * r
        V, Uh = _ct(Vh), _ct(U)
        U = np.concatenate(((V * (k + ir)) @ Uh, (V * (ir - k)) @ Uh))
        _finish_each(out, [(form, [idx[j] for j in live], U, gaps, E.tolist(), None)], "dirac", tol)
    return out


def dirac_bulk(W, tol: Tolerances = TOL, energy: float = 0.0) -> BulkData:
    """Boundary data of the constant Dirac operator with mass coupling W.

    The spectrum is the complement of (-m0, m0) with m0 the smallest
    singular value of W; GapClosed is raised when m0 vanishes or the
    energy is not strictly inside the gap, NotInGap for a non-finite
    energy and ValueError for a non-finite W. With W = U S V* and
    kappa = sqrt(s^2 - E^2), each triplet (u, s, v) gives the solutions
    (u, c v) that decay at the rate kappa to the right for the unimodular
    c = (kappa + iE)/s and to the left for c = (iE - kappa)/s. The Dirac
    split is the identity with unit blocks, so u_plus takes u to c v
    with the first c and u_minus with the second. This is the one-point
    case of ``dirac_stack``.
    """
    return _raise_first(dirac_stack([W], [energy], tol))[0]


@functools.lru_cache(maxsize=64)
def _schrodinger_form(M: int) -> SymplecticForm:
    """Boundary form on the traces (psi(0), psi'(0)): J = [[0, I], [-I, 0]].

    Like ``dirac_form``, one read-only form per M.
    """
    J = np.zeros((2 * M, 2 * M), dtype=complex)
    J[:M, M:] = np.eye(M)
    J[M:, :M] = -np.eye(M)
    return SymplecticForm(J)


def schrodinger_stack(Vs, energies, tol: Tolerances = TOL) -> list:
    """Boundary data of constant Schrodinger operators, each at its own energy.

    Returns one entry per point: its BulkData, or the exception that
    ``schrodinger_bulk`` raises for it. The potentials of one size share
    one batched hermiticity check (``_hermiticity``) and one batched ``eigh``.
    """
    out = [None] * len(Vs)
    for idx, V, E in _stacks(Vs, energies, _matrix_check("V"), out, 3):
        M = V.shape[-1]
        skew, defect, scale = _hermiticity(V, tol)
        mu, Vm = np.linalg.eigh(V)
        live, gaps = [], []
        for j, (bad, ev, e) in enumerate(zip(skew.tolist(), mu.tolist(), E.tolist())):
            gap = ev[0] - e
            if bad:
                out[idx[j]] = NotHermitian(
                    f"hermiticity defect {defect[j]:.3e} at scale {scale[j]:.3e}")
            elif gap <= tol.rank_tol * max(1.0, -ev[0], ev[-1], abs(e)):
                out[idx[j]] = NotInGap(
                    f"energy {e!r} is not below the spectrum bottom {ev[0]!r}")
            else:
                live.append(j)
                gaps.append(gap)
        if len(live) < len(mu):
            mu, Vm, E = mu[live], Vm[live], E[live]
        form = _schrodinger_form(M)
        ikappa = 1j * np.sqrt(mu[:, None, :] - E[:, None, None])
        z = (1.0 - ikappa) / (1.0 + ikappa)
        Vmh = _ct(Vm)
        U = np.concatenate(((Vm * z) @ Vmh, (Vm * z.conj()) @ Vmh))
        _finish_each(out, [(form, [idx[j] for j in live], U, gaps, E.tolist(), None)],
                     "schrodinger", tol)
    return out


def schrodinger_bulk(V, energy: float, tol: Tolerances = TOL) -> BulkData:
    """Boundary data of -d^2/dt^2 + V at an energy below the spectrum.

    V is a constant hermitian potential; the spectrum starts at its
    lowest eigenvalue, so NotInGap is raised unless energy < min(V),
    and ValueError for a non-finite V. Traces are (psi(0), psi'(0)) and
    the decaying solutions have slope -kappa = -sqrt(mu - E) along each
    eigenvector of V, on which, in the split Q = [[I, I], [iI, -iI]]/sqrt(2),
    u_plus is (1 - i kappa)/(1 + i kappa) and u_minus its inverse. This
    is the one-point case of ``schrodinger_stack``.
    """
    return _raise_first(schrodinger_stack([V], [energy], tol))[0]


class TightBindingModel:
    """Periodic block chain: sites carry b_n = b_n*, bond (n, n+1) carries a_n.

    The operator acts as (h psi)_n = a_{n-1}* psi_{n-1} + b_n psi_n
    + a_n psi_{n+1}, with both sequences periodic with the same period.
    ``a`` and ``b`` are read-only (period, N, N) stacks indexed by n mod
    period; a[0] is the bond between the two trace sites 0 and 1.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b, tol: Tolerances = TOL):
        a, b = _block_stack(a, "bond block a"), _block_stack(b, "site block b")
        if len(a) != len(b) or not len(a):
            raise DimensionMismatch(
                f"need equally many bond and site blocks, got {len(a)} and {len(b)}"
            )
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape):
            raise DimensionMismatch("all blocks must share one size")
        if _hermiticity(b, tol)[0].any():
            raise ValueError("site blocks must be hermitian")
        self.a, self.b = a, b

    @property
    def period(self) -> int:
        return len(self.a)

    @property
    def block_dim(self) -> int:
        return self.a[0].shape[0]

    def site(self, n: int) -> np.ndarray:
        return self.b[n % self.period]

    def bond(self, n: int) -> np.ndarray:
        return self.a[n % self.period]

    def __repr__(self):
        return f"TightBindingModel(period={self.period}, block_dim={self.block_dim})"


@functools.lru_cache(maxsize=64)
def _seam_form(shape: tuple, a0: bytes, tol: Tolerances) -> SymplecticForm:
    """``tb_form`` of the seam bond with these shape and bytes, built once."""
    A = np.frombuffer(a0, dtype=complex).reshape(shape)
    N = shape[0]
    J = np.zeros((2 * N, 2 * N), dtype=complex)
    J[:N, N:] = -A
    J[N:, :N] = A.conj().T
    return SymplecticForm(J, tol)


def tb_form(model: TightBindingModel, tol: Tolerances = TOL) -> SymplecticForm:
    """Boundary form on the trace (psi_0, psi_1): J = [[0, -a0], [a0*, 0]].

    Like ``dirac_form``, one read-only form per seam bond: models whose
    a0 are equal entry for entry share it while it stays among the most
    recently used.
    """
    a0 = model.a[0]
    return _seam_form(a0.shape, a0.tobytes(), tol)


def _star(S1: np.ndarray, S2: np.ndarray, N: int) -> np.ndarray:
    """Redheffer star products, S1 then S2, over stacks of [[t, r'], [r, t']].

    One product of S1's right block column with S2's bottom block row
    gives every product of two blocks, and one solve with I - r1' r2
    serves all four blocks (push-through identity).
    """
    C = S1[..., N:] @ S2[..., N:, :]
    A = _identity(N) - C[..., :N, :N]
    # C's top block row is then [t1, r1' t2'], and its left block column [t2; t1' r2]
    C[..., :N, :N] = S1[..., :N, :N]
    Z = np.linalg.solve(A, C[..., :N, :])
    C[..., :N, :N] = S2[..., :N, :N]
    S = C[..., :N] @ Z
    S[..., :N, N:] += S2[..., :N, N:]
    S[..., N:, :N] += S1[..., N:, :N]
    S[..., N:, N:] += C[..., N:, N:]
    return S


def _sites(a: np.ndarray, b: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The (points, sites) stack of site scattering matrices S of (points, q, N, N) bonds and sites.

    Site n relates (u, w) = (psi_{n-1}, a_{n-1} psi_n) to (u', w') =
    (psi_n, a_n psi_{n+1}) by (-w, w') = H (u, u'), with the hermitian
    H = [[0, -a_{n-1}], [-a_{n-1}*, E - b_n]]. Its Cayley transform
    C = (I - iH)^-1 (I + iH) takes (y+, y-') to (y-, y+') and is unitary
    for every H; swapping its block rows gives the site's S. Every
    singular value of I - iH is at least 1, so its inverse is bounded,
    and no bond is inverted. C is taken as 2 (I - iH)^-1 - I, whose
    roundoff that bound keeps at eps, where the product would carry
    eps ||H|| into it.
    """
    N = a.shape[-1]
    iH = np.zeros(a.shape[:2] + (2 * N, 2 * N), dtype=complex)
    iH[..., :N, N:] = -1j * a
    iH[..., N:, :N] = -1j * _ct(a)
    iH[..., N:, N:] = 1j * (E[:, None, None, None] * np.eye(N)
                           - np.concatenate([b[:, 1:], b[:, :1]], axis=1))
    I = _identity(2 * N)
    C = 2.0 * np.linalg.inv(I - iH) - I
    return np.concatenate((C[..., N:, :], C[..., :N, :]), axis=-2)


def _compose(S: np.ndarray, N: int) -> np.ndarray:
    """Period scattering matrices of a (points, sites) stack of site scattering matrices.

    Star products in a balanced tree over the sites compose each point's
    period.
    """
    while S.shape[1] > 1:
        q = S.shape[1]
        S = np.concatenate([_star(S[:, :-1:2], S[:, 1::2], N), S[:, q - q % 2:]], axis=1)
    return S[:, 0]


# the smallest gap certified: a defective band-edge pair splits by O(sqrt(eps))
_GAP_FLOOR = 10.0 * np.sqrt(np.finfo(float).eps)
# a doubled period is its limit once max(|t|, |t'|) <= sqrt(eps): the next
# correction is O(|t| |t'|)
_CONVERGED = np.sqrt(np.finfo(float).eps)
# n squarings raise t to the power 2^n, which takes (1 - gap)^(2^n) below
# _CONVERGED by n = 27 at the gap floor; one more squares that margin and
# covers the polynomial factor of a defective band edge
_SQUARINGS = math.ceil(math.log2(-math.log(_CONVERGED) / _GAP_FLOOR)) + 1


def _doubled(S: np.ndarray, N: int) -> tuple:
    """Each period scattering matrix squared (S <- S * S, ``_star``) until it transmits nothing.

    A point leaves the loop when max(|t|, |t'|) <= _CONVERGED, when that
    transmission is not finite, or after _SQUARINGS squarings, so each
    point takes the same squarings as alone. Returns the stack of last
    matrices, and each point's last transmission and its squarings.
    """
    k = len(S)
    D, x, rounds = np.empty_like(S), np.empty(k), np.empty(k, dtype=int)
    live = np.arange(k)
    # a gapless point transmits forever; its squarings must not warn before it leaves
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_SQUARINGS + 1):
            # the diagonal blocks t and t' of each point, as one view
            t = np.abs(S.reshape(-1, 2, N, 2, N).diagonal(axis1=1, axis2=3)).max(axis=(1, 2, 3))
            going = (t > _CONVERGED) & (t < np.inf) & (n < _SQUARINGS)
            if not going.all():
                done = live[~going]
                D[done], x[done], rounds[done] = S[~going], t[~going], n
                if not going.any():
                    break
                live, S = live[going], S[going]
            S = _star(S, S, N)
    return D, x, rounds


def _half_lines(sites: np.ndarray, E: np.ndarray, N: int) -> tuple:
    """Gaps and half-line unitaries of each period, from the (points, sites) stack of its site S.

    The sites compose the period's S = [[t, r'], [r, t']] (``_compose``),
    and ``_doubled`` squares it into a limit whose reflections R and R'
    give the solutions decaying to the right, span[I; R], and to the left,
    span[R'; I], in the traces y, whose split is the identity: their
    unitaries are R and R'^-1 = R'*, since a limit reflection is unitary.
    One period carries them by M+ = (I - r'R)^-1 t and M- = (I - rR')^-1 t',
    whose spectra are the stable lambda and 1/lambda of the unstable ones,
    so one stacked solve and one ``eigvals`` give gap = min ||lambda| - 1|.
    A point is closed when its gap is not above _GAP_FLOOR or its period
    still transmits after the squarings. Returns each point's gap, a (2,
    points, N, N) stack of its unitaries u_plus = R, then u_minus = R'*,
    and its GapClosed or None.
    """
    k = len(sites)
    S = _compose(sites, N)
    D, t, rounds = _doubled(S, N)
    live = np.flatnonzero(t <= _CONVERGED)
    per, lim = (S, D) if len(live) == k else (S[live], D[live])
    I = _identity(N)
    M = np.linalg.solve(np.concatenate([I - per[:, :N, N:] @ lim[:, N:, :N],
                                        I - per[:, N:, :N] @ lim[:, :N, N:]]),
                        np.concatenate([per[:, :N, :N], per[:, N:, N:]]))
    lam = np.abs(np.linalg.eigvals(M))
    m = len(live)
    # an underflowed t' leaves no unstable eigenvalue to bound the gap
    with np.errstate(divide="ignore"):
        near = np.minimum(1.0 - lam[:m].max(axis=1), 1.0 / lam[m:].max(axis=1) - 1.0).tolist()
    gap, errors = [math.nan] * k, [None] * k
    for i, j in enumerate(live.tolist()):
        gap[j] = near[i]
        # a band-edge pair within _GAP_FLOOR of the circle is on it; above it,
        # all N eigenvalues of M+ and none of M- are stable
        if not near[i] > _GAP_FLOOR:
            stable = np.count_nonzero(lam[i] < 1.0) + np.count_nonzero(lam[m + i] > 1.0)
            errors[j] = GapClosed(f"transfer spectrum within {near[i]:.3e} of the unit circle "
                                  f"({stable} of {2 * N} modes stable)")
    for j in np.flatnonzero(~(t <= _CONVERGED)).tolist():
        errors[j] = GapClosed(f"period still transmits |t| = {t[j]:.3e} after {rounds[j]} "
                              f"squarings at energy {E[j]:g}")
    return gap, np.array((D[:, N:, :N], _ct(D[:, :N, N:]))), errors


def tb_stack(chains, energies, tol: Tolerances = TOL) -> list:
    """Boundary data of periodic chains, each at its own energy.

    Each chain is its (bonds, sites) pair of blocks. Returns one entry
    per point: its BulkData, or the exception that ``tb_bulk`` raises for
    it. A ``_whole`` stack takes one hermiticity test of its sites. When
    the stack is not whole, each chain is checked alone, sites included,
    as ``TightBindingModel`` checks it, then its energy. Chains of one
    period and block size form one stack (``_chains``).
    """
    out = [None] * len(chains)

    def check(chain, energy):
        model = TightBindingModel(*chain, tol=tol)
        _require_finite(energy)
        return np.array((model.a, model.b))

    X = _whole(chains, 5, energies)
    if X is None:
        groups = _by_shape(chains, energies, check, out)
    else:
        skew = _hermiticity(X[:, 1], tol)[0].any(axis=1)
        for j in np.flatnonzero(skew).tolist():
            out[j] = ValueError("site blocks must be hermitian")
        live = np.flatnonzero(~skew).tolist()
        groups = [(live, X[live], np.array(energies, dtype=float)[live])]
    for idx, ab, E in groups:
        _chains(out, idx, ab[:, 0], ab[:, 1], E, tol)
    return out


def _chains(out, idx, a, b, E, tol: Tolerances) -> None:
    """Bulk of each chain of one shape, or its error, in out[idx[j]].

    ``a`` and ``b`` are the (points, q, N, N) stacks of the chains'
    bonds and sites, of checked shape and entries and hermitian sites.
    The bonds' invertibility (a singular bond disconnects the chain), the
    site scattering matrices (``_sites``), the star-product tree over a
    (points, sites) stack and the doubling of each period (``_half_lines``)
    are checked and built for the whole stack. Its unitaries live in the
    traces y, whose form is ``dirac_form(N)``'s for every chain, so the
    whole stack is finished as one group, like those of the other stacks:
    one spectrum gates its transversality. Each bulk keeps its seam's form on (psi_0, psi_1),
    ``tb_form``'s, and the map M = blkdiag(I, a0^-1) K* from y to those
    traces, which its planes are read through.
    """
    N = a.shape[-1]
    s = np.linalg.svd(a, compute_uv=False)
    singular = s[..., -1] <= tol.rank_tol * np.maximum(1.0, s[..., 0])
    live = []
    for j, bad in enumerate(singular.any(axis=1).tolist()):
        if bad:
            out[idx[j]] = NotInvertible(
                f"bond block with sigma_min {s[j][singular[j]][0, -1]:.3e}")
        else:
            live.append(j)
    if len(live) < len(a):
        idx, a, b, E = [idx[j] for j in live], a[live], b[live], E[live]
    gap, U, errors = _half_lines(_sites(a, b, E), E, N)
    live = []
    for j, error in enumerate(errors):
        if error is None:
            live.append(j)
        else:
            out[idx[j]] = error
    # from y to (psi_0, psi_1): K* = [[I, I], [-iI, iI]]/sqrt(2) takes y to (psi_0, a0 psi_1)
    c = 1.0 / np.sqrt(2.0)
    M = np.empty((len(a), 2 * N, 2 * N), dtype=complex)
    M[:, :N, :N] = M[:, :N, N:] = c * np.eye(N)
    M[:, N:, N:] = 1j * c * np.linalg.inv(a[:, 0])
    M[:, N:, :N] = -M[:, N:, N:]
    M.flags.writeable = False
    _finish_each(out, [(dirac_form(N), [idx[j] for j in live],
                        U[:, live].reshape(2 * len(live), N, N), [gap[j] for j in live],
                        E[live].tolist(),
                        [(_seam_form((N, N), a[j, 0].tobytes(), tol), M[j]) for j in live])],
                 "tight_binding", tol)


def tb_bulk(model: TightBindingModel, energy: float = 0.0,
            tol: Tolerances = TOL) -> BulkData:
    """Boundary data of a periodic chain at an in-gap energy.

    Site n relates the trace (psi_{n-1}, a_{n-1} psi_n) to (psi_n, a_n
    psi_{n+1}) by a hermitian H, and the Cayley transform of H is its
    unitary scattering matrix in the traces y (``_sites``), at any energy
    and bond; star products in a balanced tree compose any period without
    growth. Squaring the period the same way until it transmits at most
    sqrt(eps) (``_half_lines``) leaves a limit whose reflections R and R'
    are u_plus and u_minus* in y, and the gap is min ||lambda| - 1| over
    the period's transfer spectrum. The bulk's ``form`` is
    ``tb_form(model)``, on (psi_0, psi_1), where its planes are read.
    NotInvertible is raised when a bond block is singular, GapClosed when
    the period still transmits after ``_SQUARINGS`` squarings or the gap
    is not above 10 sqrt(eps), and NotInGap for a non-finite energy. This
    is ``tb_stack`` of the model's one chain, whose blocks its constructor
    checked, without a copy or a second check.
    """
    _require_finite(energy)
    out = [None]
    _chains(out, [0], model.a[None], model.b[None], np.array([energy], dtype=float), tol)
    return _raise_first(out)[0]


class PiecewiseDiracProfile:
    """Piecewise-constant Dirac mass profile.

    masses[j] applies between breakpoints[j-1] and breakpoints[j], with
    masses[0] to the left of everything and masses[-1] to the right;
    ``masses`` is a read-only (steps + 1, N, N) stack.
    """

    __slots__ = ("masses", "breakpoints")

    def __init__(self, masses, breakpoints):
        masses = _block_stack(masses, "mass")
        breakpoints = [float(t) for t in breakpoints]
        if len(masses) != len(breakpoints) + 1:
            raise DimensionMismatch(
                f"{len(masses)} masses need {len(masses) - 1} breakpoints, "
                f"got {len(breakpoints)}"
            )
        if not isinstance(masses, np.ndarray):
            raise DimensionMismatch("all masses must share one size")
        if not all(math.isfinite(t) for t in breakpoints):
            raise ValueError(f"breakpoints must be finite, got {breakpoints}")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.masses = masses
        self.breakpoints = breakpoints

    @property
    def block_dim(self) -> int:
        return self.masses[0].shape[0]

    @property
    def steps(self) -> int:
        return len(self.breakpoints)

    def mass_at(self, t: float) -> np.ndarray:
        """Mass on the segment containing t (right-continuous)."""
        return self.masses[bisect.bisect_right(self.breakpoints, t)]

    def __repr__(self):
        return (f"PiecewiseDiracProfile(block_dim={self.block_dim}, "
                f"steps={self.steps})")


def _segment_flow(W: np.ndarray, energy: float, lengths: np.ndarray):
    """Sub-step counts and the four N x N blocks of each segment's flow over one sub-step.

    W is a (k, N, N) stack of segment masses and ``lengths`` their k
    signed lengths. The flow of psi' = B psi with B = [[iE, -W], [-W*,
    -iE]] is returned as nsub, P11, P12, P21, P22: k sub-step counts and
    four (k, N, N) stacks, from one batched SVD and one elementwise pass.
    With W = U S V*, B acts on each span{(u_k, 0), (0, v_k)} as M_k =
    [[iE, -s_k], [-s_k, -iE]], whose square is kappa^2 = s_k^2 - E^2, so
    the flow is cosh(kappa h) + sinh(kappa h)/kappa M_k there: kappa is
    imaginary where the segment is gapless at E, and the factor is its
    limit h at kappa = 0.
    """
    U, s, Vh = np.linalg.svd(W)
    # growth of at most e^4 per sub-step keeps P11 + P12 U well conditioned;
    # ||B||_2 = s_max + |E|
    nsub = np.maximum(1, np.ceil(np.abs(lengths) * (s[:, 0] + abs(energy)) / 4.0)).astype(int)
    h = (lengths / nsub)[:, None]
    x = h * np.sqrt(((s - abs(energy)) * (s + abs(energy))).astype(complex))
    c = np.cosh(x)
    d = h * np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0)
    V, Uh = _ct(Vh), _ct(U)
    ied, sd = 1j * energy * d, (-s * d)[:, None, :]
    return (nsub, _scale_columns(U, c + ied) @ Uh, (U * sd) @ Vh,
            (V * sd) @ Uh, _scale_columns(V, c - ied) @ Vh)


def _scale_columns(X: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Each (N, N) matrix of a stack with its columns scaled by its row of f.

    numpy multiplies complex arrays in a vector loop, but a product with
    a single element, such as one 1 x 1 matrix times its factor, in a
    scalar loop that rounds differently (no fused multiply-adds). So a
    1 x 1 stack is multiplied here as the scalar loop does, and each
    segment's flow has the same bits however many segments share the
    stack, and the same as one segment alone.
    """
    f = f[:, None, :]
    if X.shape[-1] > 1:
        return X * f
    out = np.empty(X.shape, dtype=complex)
    out.real = X.real * f.real - X.imag * f.imag
    out.imag = X.real * f.imag + X.imag * f.real
    return out


@functools.lru_cache(maxsize=64)
def _identity_flow(N: int) -> np.ndarray:
    """The blocks I, 0, 0, I of the identity flow, as a read-only (4, N, N) stack."""
    F = np.zeros((4, N, N))
    F[0] = F[3] = np.eye(N)
    F.flags.writeable = False
    return F


def _transport(fars, profile: PiecewiseDiracProfile, energy: float, sides, t: float,
               tol: Tolerances) -> list:
    """Carry far-side Leray unitaries from their ends of the profile to t, in lockstep.

    fars[w] is the far unitary of walk w and sides[w] its side: '+'
    starts at the right end and '-' at the left. Each walk visits the
    breakpoints strictly past t, counted from its far end, then t. Beyond
    them the far plane is translation invariant, so a walk that crosses
    no segment keeps its far unitary with defect 0.0. The Dirac form's
    canonical split is the identity with unit blocks (a_plus = a_minus =
    1), so the flow of a sub-step maps U to (P21 + P22 U)(P11 + P12 U)^-1.
    That image is unitary up to roundoff; it is replaced by its polar
    factor, and a walk fails with NotLagrangian, naming its side and
    segment, when it departs from unitarity by more than ``tol.frame_tol``.

    Every segment of every walk takes its flow from one ``_segment_flow``
    call, and the walks advance as one (walks, N, N) stack: each sub-step
    is one batched solve, one batched defect and one batched polar
    factor. A walk that has finished or failed idles on an appended
    identity flow, and masked updates (``where=``) keep its unitary and
    defect, so each walk's arithmetic is the same as alone, bit for bit.
    The walks share the split of fars[0] (the Dirac form's). Returns
    (unitary at t, largest departure seen) per walk, the unitaries from
    one unitarity check; when walks fail, the error of the first failed
    walk in the order of ``sides`` is raised.
    """
    bps = profile.breakpoints
    N = profile.block_dim
    segments, walks = [], []
    for side in sides:
        path = ([b for b in reversed(bps) if b > t] if side == "+" else [b for b in bps if b < t]) + [t]
        walks.append(range(len(segments), len(segments) + len(path) - 1))
        segments.extend(zip(path, path[1:]))
    k = len(segments)
    masses = profile.masses[[bisect.bisect_right(bps, 0.5 * (a + b)) for a, b in segments]]
    nsub, *flow = _segment_flow(masses, energy, np.array([b - a for a, b in segments], dtype=float))
    # segment k is the identity flow on which a finished walk idles
    blocks = np.empty((k + 1, 4, N, N), dtype=complex)
    for b, P in enumerate(flow):
        blocks[:k, b] = P
    blocks[k] = _identity_flow(N)
    nsub = nsub.tolist()
    schedule = [[j for j in ids for _ in range(nsub[j])] for ids in walks]
    steps = max(map(len, schedule))
    lengths = np.array([len(ids) for ids in schedule])
    # each walk's four flow blocks at each of its sub-steps, as one (walks, steps, 4, N, N) stack
    flow = blocks[np.array([ids + [k] * (steps - len(ids)) for ids in schedule], dtype=int)]

    U = np.array([far.U for far in fars])
    defect = np.zeros(len(fars))
    errors = [None] * len(fars)
    for step in range(steps):
        moving = lengths > step
        # P11 + P12 U and P21 + P22 U of every walk from one product
        P = flow[:, step]
        X = (P[:, ::2] + P[:, 1::2] @ U[:, None]).swapaxes(2, 3)
        V = np.linalg.solve(X[:, 0], X[:, 1]).swapaxes(1, 2)
        step_defect = np.abs(_ct(V) @ V - _identity(N)).max(axis=(1, 2))
        for w in np.flatnonzero(moving & ~(step_defect <= tol.frame_tol)).tolist():
            start, stop = segments[schedule[w][step]]
            errors[w] = NotLagrangian(
                f"transported graph map has unitarity defect {step_defect[w]:.3e} "
                f"on the {sides[w]} walk over the segment [{start:g}, {stop:g}]")
            # the failed walk idles from here on, and this sub-step's image is discarded
            moving[w], lengths[w] = False, step
            flow[w, step + 1:] = _identity_flow(N)
            V[w] = U[w]
        np.maximum(defect, step_defect, out=defect, where=moving)
        W, _, Vh = np.linalg.svd(V)
        np.copyto(U, W @ Vh, where=moving[:, None, None])
    unitaries = _raise_first([error or u for error, u in
                              zip(errors, _leray_each(U, fars[0].split, tol))])
    return list(zip(unitaries, defect.tolist()))


def propagate_plane(profile: PiecewiseDiracProfile, energy: float, side: str,
                    t: float = 0.0, tol: Tolerances = TOL) -> LagrangianPlane:
    """Trace plane at position t of the solutions decaying on one far side.

    side '+' transports the decaying plane of the rightmost segment
    leftwards to t; side '-' transports the growing plane of the
    leftmost segment rightwards. The plane travels as its Leray unitary
    and NotLagrangian is raised when a sub-step moves it off the unitary
    group by more than ``tol.frame_tol``. A profile with one mass is a
    constant bulk, whose plane is the same at every t; t must be finite.
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if side == "+":
        far = dirac_bulk(profile.masses[-1], tol, energy).u_plus
    else:
        far = dirac_bulk(profile.masses[0], tol, energy).u_minus
    [(u, _)] = _transport([far], profile, energy, (side,), t, tol)
    return unitary_to_plane(u, tol=tol)
