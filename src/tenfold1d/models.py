"""Gapped one-dimensional model families and their boundary planes.

Three families are implemented. A constant-mass Dirac operator
(-i sigma_3 d/dt + mass coupling W) whose half-line planes at every
in-gap energy are read off one singular value decomposition of W; a
constant-potential Schrodinger operator (-d^2/dt^2 + V) below its
spectrum; and a periodic block tight-binding chain, composed site by
site as unitary scattering matrices whose star product never grows,
so that one bounded pencil gives both planes and the gap for any
period. Each bulk ships with the unitaries of its planes on both sides
in the canonical split, and a gap certificate.

Each family has one stacked builder (``dirac_stack``,
``schrodinger_stack``, ``tb_stack``) that takes many points, each at its
own energy, and returns for each its bulk or the error it raises alone;
points of one shape share the batched factorizations. The one-point
builders are stacks of one.

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
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    GapClosed,
    NotHermitian,
    NotInGap,
    NotInvertible,
    NotLagrangian,
)
from .linalg import TOL, Tolerances, _finite_square
from .symplectic import (
    LagrangianPlane,
    LerayUnitary,
    SymplecticForm,
    canonical_split,
    crossing_dim,
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

    Carries the form, its canonical split, the unitaries of the
    Lagrangian planes of solutions decaying to the right (plus) and to
    the left (minus), and a positive gap certificate (distance from the
    energy to the spectrum, in the model's own units). Each plane is
    built from its unitary, with the bulk's tolerances, the first time
    it is read.
    """

    __slots__ = ("form", "split", "_planes", "u_plus", "u_minus", "gap",
                 "energy", "_tol")

    def __init__(self, form, split, u_plus, u_minus, gap, energy,
                 tol: Tolerances = TOL):
        self.form = form
        self.split = split
        self._planes = [None, None]
        self.u_plus = u_plus
        self.u_minus = u_minus
        self.gap = float(gap)
        self.energy = float(energy)
        self._tol = tol

    def _plane(self, side: int) -> LagrangianPlane:
        if self._planes[side] is None:
            u = self.u_minus if side else self.u_plus
            self._planes[side] = unitary_to_plane(u, tol=self._tol)
        return self._planes[side]

    @property
    def plane_plus(self) -> LagrangianPlane:
        return self._plane(0)

    @property
    def plane_minus(self) -> LagrangianPlane:
        return self._plane(1)

    def __repr__(self):
        return (f"BulkData(n={self.split.n}, energy={self.energy:g}, "
                f"gap={self.gap:.3g})")


def _finish_bulk(form, u_plus, u_minus, gap, energy, tol) -> BulkData:
    split = canonical_split(form, tol)
    u_plus, u_minus = LerayUnitary(u_plus, split, tol), LerayUnitary(u_minus, split, tol)
    # in-gap energies force transverse planes
    if crossing_dim(u_plus, u_minus, tol):
        raise GapClosed("half-line planes intersect; the energy is not in a gap")
    return BulkData(form, split, u_plus, u_minus, gap, energy, tol)


def _finish_each(out, idx, form, u_plus, u_minus, gaps, energies, tol) -> None:
    """``_finish_bulk`` of points of one form; each bulk, or its error, goes to out[idx]."""
    for i, up, um, gap, energy in zip(idx, u_plus, u_minus, gaps, energies):
        try:
            out[i] = _finish_bulk(form, up, um, gap, energy, tol)
        except ValueError as exc:
            out[i] = exc


def _only(results: list):
    """The one result of a one-point stack, raised when it is an error."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


@functools.lru_cache(maxsize=64)
def dirac_form(N: int) -> SymplecticForm:
    """Boundary form of an N-channel Dirac operator: J = blkdiag(iI, -iI).

    The form depends on N alone, so every call with the same N returns
    the same read-only object.
    """
    d = np.concatenate([1j * np.ones(N), -1j * np.ones(N)])
    return SymplecticForm(np.diag(d))


def _require_finite(energy: float) -> None:
    # a non-finite energy would otherwise reach LAPACK and fail there
    if not math.isfinite(energy):
        raise NotInGap(f"energy must be finite, got {float(energy)!r}")


def _stacks(points, energies, check, out) -> list:
    """The points that pass their checks, stacked by shape.

    ``check`` takes a point to an array and raises when the point is
    malformed; a point with a non-finite energy or a failed check gets
    its error in ``out``. Returns (indices, stack, energies) for each
    shape in order of first appearance.
    """
    groups = {}
    for i, (x, energy) in enumerate(zip(points, energies, strict=True)):
        try:
            _require_finite(energy)
            x = check(x)
        except ValueError as exc:
            out[i] = exc
            continue
        groups.setdefault(x.shape, []).append((i, x, energy))
    return [(idx, np.array(xs), np.array(es, dtype=float))
            for idx, xs, es in (zip(*members) for members in groups.values())]


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
    for idx, W, E in _stacks(Ws, energies, lambda W: _finite_square(W, "W"), out):
        U, s, Vh = np.linalg.svd(W)
        live, gaps = [], []
        for j, (sv, e) in enumerate(zip(s.tolist(), E.tolist())):
            top, m0 = sv[0], sv[-1]
            gap = m0 - abs(e)
            if m0 <= tol.rank_tol * max(1.0, top):
                out[idx[j]] = GapClosed(f"smallest singular value of W is {m0:.3e}")
            elif gap <= tol.rank_tol * max(1.0, m0):
                out[idx[j]] = GapClosed(f"energy {e:g} is not inside the gap (m0 = {m0:.6g})")
            else:
                live.append(j)
                gaps.append(gap)
        U, s, Vh, E = U[live], s[live], Vh[live], E[live]
        form = dirac_form(W.shape[-1])
        # the gap gate leaves |E| < m0 <= s, so |r| < 1 and c is unimodular; kappa/s is 1 at E = 0
        r = E[:, None, None] / s[:, None, :]
        k, ir = np.sqrt((1.0 - r) * (1.0 + r)), 1j * r
        V, Uh = _ct(Vh), _ct(U)
        _finish_each(out, [idx[j] for j in live], form, (V * (k + ir)) @ Uh,
                     (V * (ir - k)) @ Uh, gaps, E.tolist(), tol)
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
    return _only(dirac_stack([W], [energy], tol))


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
    one batched hermiticity check and one batched ``eigh``.
    """
    out = [None] * len(Vs)
    for idx, V, E in _stacks(Vs, energies, lambda V: _finite_square(V, "V"), out):
        M = V.shape[-1]
        skew = np.abs(V - _ct(V)).max(axis=(1, 2)).tolist()
        mu, Vm = np.linalg.eigh(V)
        live, gaps = [], []
        for j, (d, ev, e) in enumerate(zip(skew, mu.tolist(), E.tolist())):
            gap = ev[0] - e
            # the scale max(1, max|V|) is at least 1, so only a defect past frame_tol needs it
            scale = max(1.0, float(np.abs(V[j]).max())) if d > tol.frame_tol else 1.0
            if d > tol.frame_tol * scale:
                out[idx[j]] = NotHermitian(f"hermiticity defect {d:.3e} at scale {scale:.3e}")
            elif gap <= tol.rank_tol * max(1.0, -ev[0], ev[-1], abs(e)):
                out[idx[j]] = NotInGap(
                    f"energy {e:g} is not below the spectrum bottom {ev[0]:.6g}")
            else:
                live.append(j)
                gaps.append(gap)
        mu, Vm, E = mu[live], Vm[live], E[live]
        form = _schrodinger_form(M)
        ikappa = 1j * np.sqrt(mu[:, None, :] - E[:, None, None])
        z = (1.0 - ikappa) / (1.0 + ikappa)
        Vmh = _ct(Vm)
        _finish_each(out, [idx[j] for j in live], form, (Vm * z) @ Vmh,
                     (Vm * z.conj()) @ Vmh, gaps, E.tolist(), tol)
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
    return _only(schrodinger_stack([V], [energy], tol))


class TightBindingModel:
    """Periodic block chain: sites carry b_n = b_n*, bond (n, n+1) carries a_n.

    The operator acts as (h psi)_n = a_{n-1}* psi_{n-1} + b_n psi_n
    + a_n psi_{n+1}, with both sequences periodic with the same period.
    Arrays are indexed by n mod period; a[0] is the bond between the
    two trace sites 0 and 1.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b, tol: Tolerances = TOL):
        a = [_finite_square(x, "bond block a") for x in a]
        b = [_finite_square(x, "site block b") for x in b]
        if len(a) != len(b) or not a:
            raise DimensionMismatch(
                f"need equally many bond and site blocks, got {len(a)} and {len(b)}"
            )
        N = a[0].shape[0]
        for x in a + b:
            if x.shape[0] != N:
                raise DimensionMismatch("all blocks must share one size")
        for x in b:
            if np.abs(x - x.conj().T).max() > tol.frame_tol * max(1.0, np.abs(x).max()):
                raise ValueError("site blocks must be hermitian")
        self.a = [x.copy() for x in a]
        self.b = [x.copy() for x in b]

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


@functools.lru_cache(maxsize=64)
def _cayley(N: int) -> np.ndarray:
    """K = [[I, iI], [I, -iI]]/sqrt(2): takes the form -u*w + w*u to i diag(I, -I)."""
    K = np.kron(np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0), np.eye(N))
    K.flags.writeable = False
    return K


def _star(S1: np.ndarray, S2: np.ndarray, N: int) -> np.ndarray:
    """Redheffer star products, S1 then S2, over stacks of [[t, r'], [r, t']].

    One solve with I - r1' r2 serves all four blocks (push-through identity).
    """
    t1, rp1, r1, tp1 = S1[..., :N, :N], S1[..., :N, N:], S1[..., N:, :N], S1[..., N:, N:]
    t2, rp2, r2, tp2 = S2[..., :N, :N], S2[..., :N, N:], S2[..., N:, :N], S2[..., N:, N:]
    Z = np.linalg.solve(np.eye(N) - rp1 @ r2, np.concatenate([t1, rp1 @ tp2], axis=-1))
    S = np.concatenate([t2 @ Z, tp1 @ r2 @ Z], axis=-2)
    S[..., :N, N:] += rp2
    S[..., N:, :N] += r1
    S[..., N:, N:] += tp1 @ tp2
    return S


def _compose(T: np.ndarray, N: int) -> np.ndarray:
    """Period scattering matrices of a (points, sites) stack of site transfers.

    Potapov-Ginzburg: T takes (y+, y-) to (y+', y-'), S takes (y+, y-')
    to (y+', y-); star products in a balanced tree over the sites then
    compose each point's period.
    """
    S = np.empty_like(T)
    S[..., N:, N:] = np.linalg.inv(T[..., N:, N:])
    S[..., N:, :N] = -S[..., N:, N:] @ T[..., N:, :N]
    S[..., :N, N:] = T[..., :N, N:] @ S[..., N:, N:]
    S[..., :N, :N] = T[..., :N, :N] + T[..., :N, N:] @ S[..., N:, :N]
    while S.shape[1] > 1:
        q = S.shape[1]
        S = np.concatenate([_star(S[:, :-1:2], S[:, 1::2], N), S[:, q - q % 2:]], axis=1)
    return S[:, 0]


def _composed(T: np.ndarray, E: np.ndarray, N: int) -> list:
    """Each point's period scattering matrix, or GapClosed where its sites do not compose."""
    try:
        S = _compose(T, N)
    except np.linalg.LinAlgError:
        if len(T) > 1:
            # one singular solve fails the whole stack; compose its points one by one
            return [r for j in range(len(T)) for r in _composed(T[j:j + 1], E[j:j + 1], N)]
        S = np.full_like(T[:, 0], np.nan)
    return [S[j] if finite else
            GapClosed(f"site scattering matrices do not compose at energy {E[j]:g}")
            for j, finite in enumerate(np.isfinite(S).all(axis=(1, 2)).tolist())]


_gges, _tgsen = sla.get_lapack_funcs(("gges", "tgsen"), (np.zeros((1, 1), dtype=complex),))


def _unsorted(alpha, beta):
    """gges's select callback; never called, since the QZ is reordered by tgsen."""


def _reordered(select, qz: tuple, energy: float):
    """alpha, beta and right Schur vectors of a QZ with the selected eigenvalues first."""
    _, _, alpha, beta, _, z, *_, info = _tgsen(select, *qz, ijob=0)
    if info:
        raise GapClosed(f"reordering of the transfer pencil failed at energy {energy:g} "
                        f"(tgsen info {info})")
    return alpha, beta, z


def _transfer_planes(S: np.ndarray, N: int, energy: float):
    """Gap and the planes decaying to the right and to the left of one period.

    With S = [[t, r'], [r, t']], the pencil [[t, 0], [r, -I]] - lambda
    [[I, -r'], [0, -t']] has the transfer spectrum. One QZ (``gges``)
    and two reorderings (``tgsen``) give its deflating subspaces inside
    and outside the unit circle, as the first N right Schur vectors of
    each; a nonzero LAPACK info raises GapClosed naming it.
    """
    A, B, E2 = S.copy(), -S, np.eye(2 * N)
    A[:, N:], B[:, :N] = -E2[:, N:], E2[:, :N]
    AA, BB, _, alpha, beta, Q, Z, _, info = _gges(_unsorted, A, B, sort_t=0)
    if info:
        raise GapClosed(f"QZ of the transfer pencil failed at energy {energy:g} (gges info {info})")
    qz = (AA, BB, Q, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        modulus = np.abs(alpha / beta)
        alpha, beta, z_plus = _reordered(modulus < 1.0, qz, energy)
        gap = float(np.min(np.abs(np.abs(alpha) / np.abs(beta) - 1.0)))
    stable = int(np.count_nonzero(np.abs(alpha) < np.abs(beta)))
    # a defective band-edge pair splits by O(sqrt(eps)), so that close to the
    # circle is on it; a NaN modulus fails the comparison and counts as closed
    if not gap > 10.0 * np.sqrt(np.finfo(float).eps) or stable != N:
        raise GapClosed(f"transfer spectrum within {gap:.3e} of the unit circle "
                        f"({stable} of {2 * N} modes stable)")
    z_minus = _reordered(modulus > 1.0, qz, energy)[2]
    return gap, z_plus[:, :N], z_minus[:, :N]


def tb_stack(models, energies, tol: Tolerances = TOL) -> list:
    """Boundary data of periodic chains, each at its own energy.

    Returns one entry per point: its BulkData, or the exception that
    ``tb_bulk`` raises for it. Chains of one period and block size share
    the bond checks, the site scattering matrices and the star-product
    tree over a (points, sites) stack; each point then takes one QZ of
    its period's pencil.
    """
    out = [None] * len(models)
    for idx, ab, E in _stacks(models, energies, lambda m: np.array(m.a + m.b), out):
        q, N = ab.shape[1] // 2, ab.shape[-1]
        s = np.linalg.svd(ab[:, :q], compute_uv=False)
        singular = s[..., -1] <= tol.rank_tol * np.maximum(1.0, s[..., 0])
        live = []
        for j, bad in enumerate(singular.any(axis=1).tolist()):
            if bad:
                out[idx[j]] = NotInvertible(
                    f"bond block with sigma_min {s[j][singular[j]][0, -1]:.3e}")
            else:
                live.append(j)
        ab, E = ab[live], E[live]
        a, b = ab[:, :q], ab[:, q:]
        K = _cayley(N)
        Kh = K.conj().T
        a_inv = np.linalg.inv(a)
        # site n in the traces (u, w): [[0, a_{n-1}^-1], [-a_{n-1}*, (E - b_n) a_{n-1}^-1]]
        T = np.zeros(a.shape[:2] + (2 * N, 2 * N), dtype=complex)
        T[..., :N, N:] = a_inv
        T[..., N:, :N] = -_ct(a)
        T[..., N:, N:] = (E[:, None, None, None] * np.eye(N)
                          - np.concatenate([b[:, 1:], b[:, :1]], axis=1)) @ a_inv
        T = K @ T @ Kh
        for row, (j, S) in enumerate(zip(live, _composed(T, E, N))):
            i = idx[j]
            if isinstance(S, Exception):
                out[i] = S
                continue
            try:
                gap, z_plus, z_minus = _transfer_planes(S, N, E[row])
                form = tb_form(models[i], tol)
                split = canonical_split(form, tol)
                # from y to the canonical split of tb_form: psi_1 = a0^-1 w, then D^1/2 Q*
                L = Kh.copy()
                L[N:] = a_inv[row, 0] @ L[N:]
                L = (np.sqrt(np.concatenate([split.a_plus, split.a_minus]))[:, None]
                     * (split.Q.conj().T @ L))
                # each plane is the graph {(y+, U y+)} there, so U solves U y+ = y-
                u_plus, u_minus = (np.linalg.solve(Y[:N].T, Y[N:].T).T
                                   for Y in (L @ z_plus, L @ z_minus))
                out[i] = _finish_bulk(form, u_plus, u_minus, gap, E[row], tol)
            except ValueError as exc:
                out[i] = exc
    return out


def tb_bulk(model: TightBindingModel, energy: float = 0.0,
            tol: Tolerances = TOL) -> BulkData:
    """Boundary data of a periodic chain at an in-gap energy.

    Site n maps the trace (psi_{n-1}, a_{n-1} psi_n) to (psi_n, a_n
    psi_{n+1}) and keeps its form -u*w + w*u, which ``_cayley`` makes
    diag(I, -I); so each site is a unitary scattering matrix, and star
    products in a balanced tree compose any period without growth. The
    deflating subspaces of the period's pencil (``_transfer_planes``)
    inside and outside the unit circle are the planes decaying to the
    right and to the left, and the gap is min ||lambda| - 1|.
    NotInvertible is raised when a bond block is singular, GapClosed
    when the sites do not compose, the QZ fails, the gap is not above
    10 sqrt(eps) or not half the modes are stable, and NotInGap for a
    non-finite energy. This is the one-point case of ``tb_stack``.
    """
    return _only(tb_stack([model], [energy], tol))


class PiecewiseDiracProfile:
    """Piecewise-constant Dirac mass profile.

    masses[j] applies between breakpoints[j-1] and breakpoints[j], with
    masses[0] to the left of everything and masses[-1] to the right.
    """

    __slots__ = ("masses", "breakpoints")

    def __init__(self, masses, breakpoints):
        masses = [_finite_square(W, "mass") for W in masses]
        breakpoints = [float(t) for t in breakpoints]
        if len(masses) != len(breakpoints) + 1:
            raise DimensionMismatch(
                f"{len(masses)} masses need {len(masses) - 1} breakpoints, "
                f"got {len(breakpoints)}"
            )
        N = masses[0].shape[0]
        for W in masses:
            if W.shape[0] != N:
                raise DimensionMismatch("all masses must share one size")
        if not all(math.isfinite(t) for t in breakpoints):
            raise ValueError(f"breakpoints must be finite, got {breakpoints}")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.masses = [W.copy() for W in masses]
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


def _segment_flow(W: np.ndarray, energy: float, length: float):
    """Sub-step count and flow over one sub-step h of psi' = B psi.

    B = [[iE, -W], [-W*, -iE]]. With W = U S V*, B acts on each
    span{(u_k, 0), (0, v_k)} as M_k = [[iE, -s_k], [-s_k, -iE]], whose
    square is kappa^2 = s_k^2 - E^2, so the flow is cosh(kappa h) +
    sinh(kappa h)/kappa M_k there: kappa is imaginary where the segment
    is gapless at E, and the factor is its limit h at kappa = 0.
    """
    U, s, Vh = np.linalg.svd(W)
    # growth of at most e^4 per sub-step keeps P11 + P12 U well conditioned;
    # ||B||_2 = s_max + |E|
    nsub = max(1, int(np.ceil(abs(length) * (float(s[0]) + abs(energy)) / 4.0)))
    h = length / nsub
    x = h * np.sqrt(((s - abs(energy)) * (s + abs(energy))).astype(complex))
    c = np.cosh(x)
    d = h * np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0)
    V, Uh = Vh.conj().T, U.conj().T
    P = np.block([[(U * (c + 1j * energy * d)) @ Uh, (U * (-s * d)) @ Vh],
                  [(V * (-s * d)) @ Uh, (V * (c - 1j * energy * d)) @ Vh]])
    return nsub, P


def _transport(far: LerayUnitary, profile: PiecewiseDiracProfile, energy: float,
               side: str, t: float, tol: Tolerances):
    """Carry a far-side Leray unitary through the steps up to t.

    The Dirac form's canonical split is the identity with unit blocks
    (a_plus = a_minus = 1), so the flow P of a sub-step maps U to
    (P21 + P22 U)(P11 + P12 U)^-1. That image is unitary up to
    roundoff; it is replaced by its polar factor, and NotLagrangian is
    raised when it departs from unitarity by more than ``tol.frame_tol``.
    Returns the unitary at t and the largest departure seen.
    """
    bps = profile.breakpoints
    if not bps:
        raise ValueError("profile has no breakpoints; use dirac_bulk instead")
    if side == "+":
        anchor = bps[-1]
        if t >= anchor:
            # constant coefficients: the far plane is translation invariant
            return far, 0.0
        path = [anchor] + [b for b in reversed(bps) if t < b < anchor] + [t]
    else:
        anchor = bps[0]
        if t <= anchor:
            return far, 0.0
        path = [anchor] + [b for b in bps if anchor < b < t] + [t]

    U = far.U
    N = far.n
    defect = 0.0
    for start, stop in zip(path, path[1:]):
        nsub, P = _segment_flow(profile.mass_at(0.5 * (start + stop)), energy, stop - start)
        P11, P12, P21, P22 = P[:N, :N], P[:N, N:], P[N:, :N], P[N:, N:]
        for _ in range(nsub):
            V = np.linalg.solve((P11 + P12 @ U).T, (P21 + P22 @ U).T).T
            step_defect = float(np.abs(V.conj().T @ V - np.eye(N)).max())
            if not step_defect <= tol.frame_tol:
                raise NotLagrangian(f"transported graph map has unitarity defect {step_defect:.3e}")
            defect = max(defect, step_defect)
            W, _, Vh = np.linalg.svd(V)
            U = W @ Vh
    return LerayUnitary(U, far.split, tol), defect


def propagate_plane(profile: PiecewiseDiracProfile, energy: float, side: str,
                    t: float = 0.0, tol: Tolerances = TOL) -> LagrangianPlane:
    """Trace plane at position t of the solutions decaying on one far side.

    side '+' transports the decaying plane of the rightmost segment
    leftwards to t; side '-' transports the growing plane of the
    leftmost segment rightwards. The plane travels as its Leray unitary
    and NotLagrangian is raised when a sub-step moves it off the unitary
    group by more than ``tol.frame_tol``.
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if side == "+":
        far = dirac_bulk(profile.masses[-1], tol, energy).u_plus
    else:
        far = dirac_bulk(profile.masses[0], tol, energy).u_minus
    return unitary_to_plane(_transport(far, profile, energy, side, t, tol)[0], tol=tol)
