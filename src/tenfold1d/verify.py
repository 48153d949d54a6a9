"""Finite-size oracles that check junction predictions numerically.

Predictions are index-theoretic; the oracles here build an honest
finite hermitian matrix for the same junction, find its eigenpairs in
a near-zero window, and count those that actually live at the junction. A
staggered two-grid scheme discretizes Dirac profiles without fermion
doubling, and block chains are truncated to a finite number of cells
per side. Wall and edge artifacts are excluded by a localization
filter: a mode counts only when most of its weight sits in the central
part of the system.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousKernel,
    BadSpec,
    DimensionMismatch,
    IncompatibleBoundary,
    NotHermitian,
)
from .linalg import TOL, Tolerances, _as_square
from .models import PiecewiseDiracProfile, TightBindingModel

__all__ = [
    "DiscretizationSpec",
    "discretize_dirac_junction",
    "finite_chain",
    "OracleReport",
    "count_near_zero_localized",
    "oracle_compare",
]


def _real(v) -> bool:
    """Whether v is a real number, numpy's included; a boolean is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


@dataclass(frozen=True)
class DiscretizationSpec:
    """Geometry and counting windows for the finite oracles.

    length, step : float, optional
        Half-width of the Dirac domain [-length, length] and the grid
        spacing. Required by ``discretize_dirac_junction``.
    cells : int, optional
        Length of each side of a finite chain, in cells of the longer
        period: each side holds max(q_L, q_R) * cells sites, rounded up
        to whole cells of its own period. Required by ``finite_chain``.
    energy_window : float, optional
        Half-width of the near-zero energy window. Required by
        ``count_near_zero_localized``.
    core_fraction : float
        Central fraction of the system counted as "at the junction".
    min_weight : float
        Minimum probability weight inside the core for a mode to count
        as localized.
    """

    length: float | None = None
    step: float | None = None
    cells: int | None = None
    energy_window: float | None = None
    core_fraction: float = 0.5
    min_weight: float = 0.9

    def __post_init__(self):
        optional = ("length", "step", "energy_window")
        for name in optional + ("core_fraction", "min_weight"):
            v = getattr(self, name)
            if not (_real(v) or (v is None and name in optional)):
                raise BadSpec(f"{name} must be a real number, got {v!r}")
        for name in optional:
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                raise BadSpec(f"{name} must be finite and positive, got {v!r}")
        if self.cells is not None:
            c = self.cells
            if not _real(c) or not float(c).is_integer():
                raise BadSpec(f"cells must be an integer, got {c!r}")
            if c < 1:
                raise BadSpec(f"cells must be at least 1, got {c!r}")
        if not 0.0 < self.core_fraction <= 1.0:
            raise BadSpec(f"core_fraction must be in (0, 1], got {self.core_fraction!r}")
        if not 0.0 < self.min_weight <= 1.0:
            raise BadSpec(f"min_weight must be in (0, 1], got {self.min_weight!r}")


class HermitianBand:
    """Hermitian matrix held as its lower band in LAPACK storage.

    ``lower`` has shape (p+1, dim): ``lower[d, j]`` is the entry
    H[j+d, j], and the last d entries of row d are padding. ``shape`` is
    that of the matrix; ``np.asarray`` forms the dense matrix, its upper
    triangle the conjugate mirror of the lower one; as the dense matrix
    is formed anew, ``copy=False`` raises ValueError.
    """

    __slots__ = ("lower",)

    def __init__(self, lower: np.ndarray):
        self.lower = lower

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.lower.shape[1]
        return dim, dim

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a HermitianBand holds no dense array: forming one copies")
        dim = self.lower.shape[1]
        H = np.zeros((dim, dim), dtype=complex)
        for d, diagonal in enumerate(self.lower):
            j = np.arange(dim - d)
            H[j + d, j] = diagonal[:dim - d]
            if d:
                H[j, j + d] = diagonal[:dim - d].conj()
        return H if dtype is None else H.astype(dtype)


def _block_band(diag: np.ndarray, sub: np.ndarray) -> HermitianBand:
    """Band of the hermitian block-tridiagonal matrix with diagonal blocks
    ``diag`` (K, N, N) and blocks ``sub`` (K-1, N, N) below them.

    The band is cut after its last nonzero diagonal, so p is the
    bandwidth a scan of the dense matrix for nonzero entries finds.
    """
    K, N = diag.shape[:2]
    band = np.zeros((2 * N, K * N), dtype=complex)
    for a in range(N):
        for b in range(N):
            # entry (a, b) of block k sits at column k*N + b
            if b <= a:
                band[a - b, b::N] = diag[:, a, b]
            band[N + a - b, b:(K - 1) * N:N] = sub[:, a, b]
    used = np.flatnonzero((band != 0).any(axis=1))
    p = int(used[-1]) if used.size else 0
    return HermitianBand(band[:p + 1])


def discretize_dirac_junction(profile: PiecewiseDiracProfile,
                              spec: DiscretizationSpec) -> HermitianBand:
    """Finite hermitian matrix for a Dirac profile on [-length, length].

    Works in the rotated basis where the operator reads
    [[M, -i d/dt + S], [-i d/dt - S, -M]] with M hermitian and S
    antihermitian. The two components live on grids offset by half a
    step; the one-sided difference then has symbol (2/h) sin(kh/2),
    which vanishes only at k = 0, so no doubler appears.

    A plain truncation binds a zero mode at an outer wall whenever the
    local mass sign lets the dangling component decay into the bulk.
    Each end is therefore terminated on the component the local mass
    rejects: the first node is dropped when the left end mass is
    positive definite, the last when the right end mass is negative
    definite. Ends with indefinite mass keep the default ladder and
    are reported with a warning, since some channel then binds a wall
    mode no termination can remove.

    Basis ordering is node-major along the ladder (phi_0, chi_0,
    phi_1, chi_1, ...), with phi_j at -length + j*step and chi_j half
    a step right, minus any dropped end node.

    The matrix is block tridiagonal with N x N blocks, so it is returned
    as a ``HermitianBand`` of bandwidth at most 2N - 1, assembled from
    the stacked segment masses with array indexing; no dim^2 array is
    formed. ``np.asarray`` of the result gives the dense matrix.
    """
    if spec.length is None or spec.step is None:
        raise BadSpec("Dirac discretization needs both length and step")
    L, h = float(spec.length), float(spec.step)
    if h >= L:
        raise BadSpec(f"step {h:g} must be far smaller than length {L:g}")
    N = profile.block_dim
    n = int(round(2 * L / h)) + 1

    W = profile.masses
    gap_min = float(np.linalg.svd(W, compute_uv=False)[:, -1].min())
    if h * gap_min > 0.1:
        warnings.warn(
            f"step {h:g} is coarse for gap {gap_min:g}; "
            "expect discretization error",
            stacklevel=2,
        )
    if gap_min > 0 and L < 20.0 / gap_min:
        warnings.warn(
            f"length {L:g} is short for gap {gap_min:g}; "
            "junction modes may leak into the walls",
            stacklevel=2,
        )

    # full ladder, then trim the ends the local mass would bind
    j = np.arange(n)
    t = np.empty(2 * n)
    t[0::2] = -L + j * h
    t[1::2] = -L + j * h + 0.5 * h
    is_phi = np.arange(2 * n) % 2 == 0
    # hermitian and antihermitian parts entering the rotated operator
    Wh = W.conj().swapaxes(-1, -2)
    M = 0.5j * (Wh - W)
    S = 0.5j * (W + Wh)
    # the sign of each end's hermitian -iS when it is definite, else 0
    A = -1j * S[[0, -1]]
    evals = np.linalg.eigvalsh(0.5 * (A + A.conj().swapaxes(-1, -2)))
    sign_left, sign_right = np.where(evals[:, 0] > 0, 1, np.where(evals[:, -1] < 0, -1, 0))
    if sign_left == 0 or sign_right == 0:
        warnings.warn(
            "indefinite mass at an outer end; the hard wall binds edge "
            "modes in some channels",
            stacklevel=2,
        )
    keep = slice(1 if sign_left > 0 else 0, 2 * n - 1 if sign_right > 0 else 2 * n)
    t, is_phi = t[keep], is_phi[keep]

    # segment of each node, as in mass_at: the number of breakpoints <= t
    segment = np.searchsorted(profile.breakpoints, t, side="right")
    M = M[segment]
    diag = np.where(is_phi[:, None, None], M, -M)
    # the bond from node k to k+1 takes S at its chi end and is the phi
    # row's block; that row gets -i/h when phi sits left of chi, +i/h
    # when right, and below the diagonal it is node k+1's row
    left_phi = is_phi[:-1]
    chi_segment = np.where(left_phi, segment[1:], segment[:-1])
    sgn = np.where(left_phi, -1.0, 1.0)
    coupling = (sgn * 1j / h)[:, None, None] * np.eye(N) + 0.5 * S[chi_segment]
    sub = np.where(left_phi[:, None, None], coupling.conj().transpose(0, 2, 1), coupling)
    return _block_band(diag, sub)


def finite_chain(left: TightBindingModel, right: TightBindingModel,
                 spec: DiscretizationSpec) -> HermitianBand:
    """Finite hermitian matrix for two chains glued at the trace (psi_0, psi_1).

    Each side holds n = max(q_L, q_R) * cells sites, rounded up to whole
    cells of its own period: sites -n_L .. 0 follow the left model and
    sites 1 .. n_R - 1 the right one, so the junction sits at the centre
    of the index range, where the oracle's core is counted, whatever the
    two periods. The bond (n, n+1) comes from the model owning site n,
    so the junction bond (0, 1) is the left model's a0, the seam that
    ``predicted_zero_modes`` glues at. Both truncations are hard.
    Raises IncompatibleBoundary when the block sizes differ.

    The matrix is returned as a ``HermitianBand`` of bandwidth at most
    2N - 1, assembled from the models' block stacks with array
    indexing; no dim^2 array is formed, and site blocks enter through
    their lower triangle. ``np.asarray`` of the result gives the dense
    matrix.
    """
    if spec.cells is None:
        raise BadSpec("finite chains need the cells field")
    if left.block_dim != right.block_dim:
        raise IncompatibleBoundary(
            f"block sizes differ: {left.block_dim} vs {right.block_dim}"
        )
    n = max(left.period, right.period) * int(spec.cells)
    whole = lambda q: -(-n // q) * q
    left_sites = np.arange(-whole(left.period), 1) % left.period
    right_sites = np.arange(1, whole(right.period)) % right.period
    diag = np.concatenate([left.b[left_sites], right.b[right_sites]])
    bonds = np.concatenate([left.a[left_sites], right.a[right_sites]])[:-1]
    return _block_band(diag, bonds.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class OracleReport:
    """Near-zero eigenpair summary of a finite junction matrix."""

    near_zero: int
    localized: int
    energies: np.ndarray
    core_weights: np.ndarray


def _band_matmul(band: np.ndarray, V: np.ndarray) -> np.ndarray:
    """H @ V for the hermitian H whose lower band (LAPACK storage) is given."""
    HV = band[0, :, None] * V
    for d in range(1, band.shape[0]):
        a = band[d, :-d, None]
        HV[d:] += a * V[:-d]
        HV[:-d] += a.conj() * V[d:]
    return HV


def _block_size(band: np.ndarray) -> int:
    """Smallest b for which the hermitian H whose lower band is given is
    block tridiagonal in b x b blocks.

    H is block tridiagonal in b x b blocks when every nonzero H[i, j] below
    the diagonal has i // b - j // b <= 1; any b >= p qualifies. A scan of
    the band's zero pattern finds the smallest such b (for a band whose
    last row holds a nonzero, as the builders and the dense scan give), so
    a band from a builder and one scanned from a dense input give the same
    b: for both builders it is N, the channel or site block.
    """
    p = band.shape[0] - 1
    # an entry p below the diagonal spans at most two blocks only when
    # b > p / 2, so for p <= 2 no b below max(p, 1) is left to scan
    candidates = range((p + 2) // 2, p)
    if candidates:
        nonzero = band != 0
        # reach[j]: distance below the diagonal of column j's last nonzero
        reach = np.where(nonzero.any(axis=0), p - nonzero[::-1].argmax(axis=0), 0)
        j = np.arange(band.shape[1])
        for b in candidates:
            if ((j + reach) // b - j // b <= 1).all():
                return b
    return max(p, 1)


def _hmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^* Y for broadcast stacks of small matrices.

    One broadcast multiply-add per contraction index: ``@`` on a stack of
    tiny complex matrices makes one BLAS call per matrix.
    """
    Xh = X.conj()
    out = Xh[..., 0, :, None] * Y[..., 0, None, :]
    for k in range(1, X.shape[-2]):
        out += Xh[..., k, :, None] * Y[..., k, None, :]
    return out


def _count_below(band: np.ndarray, shifts, res_tol: float) -> np.ndarray:
    """Number of eigenvalues below each of ``shifts`` of the hermitian H
    whose lower band is given in LAPACK storage, with a real diagonal and
    zero padding.

    Sylvester's law of inertia by block cyclic reduction: H - s is viewed
    as block tridiagonal in the smallest square blocks whose pattern holds
    every nonzero of the band (``_block_size``: N for both builders, at
    most max(p, 1)), the last one padded with a diagonal above every
    shift, which adds no negative eigenvalue. Each level eliminates the
    even blocks of every shift at once; their negative eigenvalues add to
    the count (Haynsworth inertia additivity), and the Schur complement on
    the odd blocks is again block tridiagonal with half as many blocks.
    One batched eigh per level gives both the inertia of the eliminated
    blocks and their inverses V diag(1/lambda) V*. The first level's even
    blocks are D - s, with D's eigenvectors and eigenvalues shifted by s,
    so one eigh of D and the products of V* with the couplings serve
    every shift. The products of small blocks are broadcast multiply-adds,
    one numpy call per contraction index. The cost is O(dim * b^2) per
    shift, most of it in the batched eigh of the later levels.

    Raises AmbiguousKernel when a pivot eigenvalue is within ``res_tol``
    of zero, where its sign is not decided. Without pivoting such a pivot
    can also appear away from any eigenvalue of H, as at shift zero for a
    matrix whose diagonal blocks are singular.
    """
    p, dim = band.shape[0] - 1, band.shape[1]
    b = _block_size(band)
    m = -(-dim // b)
    shifts = np.asarray(shifts, dtype=float)
    lower = np.zeros((p + 1, m * b), dtype=complex)
    lower[:, :dim] = band
    lower[0, dim:] = shifts.max() + 1.0
    # entry (a, c) of diagonal block i is H[i*b + a, i*b + c], of the block
    # below it H[(i+1)*b + a, i*b + c]; both read lower[row - col, col]
    start = b * np.arange(m)[:, None, None]
    a, c = np.arange(b)[:, None], np.arange(b)
    D = lower[abs(a - c), start + np.minimum(a, c)]
    D = np.where(a >= c, D, D.conj())
    d = b + a - c
    L = np.where(d <= p, lower[np.minimum(d, p), start[:-1] + c], 0)
    # the first level's V and L carry no shift axis; broadcasting against
    # the shifted eigenvalues gives every later array one
    lam, V = np.linalg.eigh(D[::2])
    lam = lam - shifts[:, None, None]
    odd = D[1::2] - shifts[:, None, None, None] * np.eye(b)
    below = np.zeros(shifts.size, dtype=int)
    while True:
        if np.abs(lam).min() <= res_tol:
            s, *rest = np.argwhere(np.abs(lam) <= res_tol)[0]
            raise AmbiguousKernel(
                f"inertia at shift {shifts[s]:.3e} is undecided: pivot eigenvalue "
                f"{lam[s][tuple(rest)]:.3e} within tolerance {res_tol:.3e}"
            )
        below += np.count_nonzero(lam < 0, axis=(1, 2))
        n_even, n_odd = lam.shape[1], odd.shape[1]
        if not n_odd:
            return below
        # Schur complement on the odd blocks: even block e couples down to
        # e+1 through L[e] and up to e-1 through L[e-1]^*; with Z = V* C^*
        # each coupling pair contributes Z_1^* diag(1/lambda) Z_2
        down = _hmul(V[..., :n_odd, :, :], L[..., 0::2, :, :].conj().swapaxes(-1, -2))
        up = _hmul(V[..., 1:, :, :], L[..., 1::2, :, :])
        down_scaled = down / lam[:, :n_odd, :, None]
        up_scaled = up / lam[:, 1:, :, None]
        odd = odd - _hmul(down, down_scaled)
        odd[:, :n_even - 1] -= _hmul(up, up_scaled)
        L = -_hmul(down[..., 1:, :, :], up_scaled[:, :n_odd - 1])
        lam, V = np.linalg.eigh(odd[:, ::2])
        odd = odd[:, 1::2]


# vectors beyond a window's count, solves per shift, the residual reduction
# per solve below which a window is split, and the depth of nested splits
_GUARD = 2
_STEPS = 10
_MIN_GAIN = 0.1
_MAX_SPLITS = 40
# where a window is split within a gap between its Ritz values: the gap's
# midpoint would be zero for a spectrum symmetric about zero, where
# eliminating a chiral matrix meets singular blocks
_SPLIT_AT = 0.382


@functools.cache
def _lu_routines():
    """LAPACK's tridiagonal and banded LU and their solves: ``gttrf``,
    ``gttrs``, ``gbtrf`` and ``gbtrs``.

    Fetched on the first window: importing scipy.linalg costs more than
    every command that runs no oracle.
    """
    import scipy.linalg as sla
    return sla.get_lapack_funcs(("gttrf", "gttrs", "gbtrf", "gbtrs"),
                                (np.zeros((1, 1), dtype=complex),))


def _shifted_solve(full: np.ndarray, shift: float):
    """Solve of (H - shift) X = B for any B, from one LU of H - shift.

    ``full`` holds the 2p+1 diagonals of H, row p + i - j holding the
    entries H[i, j]. A tridiagonal band is factored by ``gttrf``, any
    other by ``gbtrf``: scipy's banded solver does the same arithmetic on
    every call (``gtsv`` and ``gbsv``, which factor and solve at once), so
    each solve here gives its bits. Raises AmbiguousKernel when the factor
    is singular.
    """
    gttrf, gttrs, gbtrf, gbtrs = _lu_routines()
    p, dim = full.shape[0] // 2, full.shape[1]
    if p == 1:
        # scipy's gttrf and gttrs refuse dim 2, whose du2 is empty, so the
        # system takes one more row, decoupled and of unit diagonal, with a
        # zero right-hand side; no bit of the other rows' solution moves
        dl, d, du, du2, ipiv, info = gttrf(np.append(full[2, :-1], 0.0),
                                           np.append(full[1] - shift, 1.0),
                                           np.append(full[0, 1:], 0.0))

        def solve(B):
            padded = np.zeros((dim + 1, B.shape[1]), dtype=complex, order="F")
            padded[:dim] = B
            return gttrs(dl, d, du, du2, ipiv, padded, overwrite_b=True)[0][:dim]
    else:
        # gbtrf takes p more rows above the band for the fill-in of its pivoting
        ab = np.zeros((3 * p + 1, dim), dtype=complex, order="F")
        ab[p:] = full
        ab[2 * p] -= shift
        lu, ipiv, info = gbtrf(ab, p, p, overwrite_ab=True)
        solve = lambda B: gbtrs(lu, p, p, B, ipiv)[0]
    if info:
        raise AmbiguousKernel(f"inverse iteration shift {shift:.3e} is an eigenvalue")
    return solve


def _window_pairs(full: np.ndarray, lo: float, hi: float, below: tuple[int, int],
                  res_tol: float, rng, ritz=(), depth: int = 0):
    """Eigenpairs of H for its eigenvalues in (lo, hi).

    ``full`` holds the 2p+1 diagonals of H, row p + i - j holding the
    entries H[i, j], so its rows p.. are the lower band; ``below`` holds
    the numbers of eigenvalues of H below ``lo`` and ``hi``, whose
    difference k is the count to resolve.

    Block shift-and-invert iteration on k random vectors plus a few guard
    vectors that take up the eigenvalues just outside the window. The
    shift sits at the mean of ``ritz``, earlier estimates of the window's
    eigenvalues, or at the window's centre when there are none, offset by
    ``res_tol`` so that an exact eigenvalue there cannot make the solve
    singular; H minus the shift is factored once, and every solve of the
    window reuses that LU. After each solve, Rayleigh-Ritz on the inverse
    picks the k directions nearest the shift, and Rayleigh-Ritz on H
    within them gives the Ritz pairs. The window is resolved when all k Ritz values
    lie in (lo, hi), each with residual within ``res_tol``; as the window
    holds exactly k eigenvalues, every returned energy is then within its
    residual of one of them. A window whose residual falls less than
    tenfold in a step, or that is not resolved in ``_STEPS`` solves, is
    split in a wide gap between its Ritz values that has some of them on
    either side; the split point is counted by inertia, and each half gets
    its own shift. Returns the sorted energies and orthonormal vectors;
    raises AmbiguousKernel when the shifted H is singular or the splits run out.
    """
    p, dim = full.shape[0] // 2, full.shape[1]
    count = below[1] - below[0]
    if count == 0:
        return np.zeros(0), np.zeros((dim, 0), dtype=complex)
    shift = (np.mean(ritz) if len(ritz) else 0.5 * (lo + hi)) + res_tol
    solve = _shifted_solve(full, shift)
    width = min(count + _GUARD, dim)
    X = rng.standard_normal((dim, width))
    previous = np.inf
    for step in range(_STEPS):
        Z = solve(X)
        if step:
            # Rayleigh-Ritz on the inverse picks the directions nearest the
            # shift without mixing them with unconverged guard vectors, whose
            # Rayleigh quotients can land anywhere, the window included
            mu, Y = np.linalg.eigh(X.conj().T @ Z)
            V = np.linalg.qr(Z @ Y[:, np.argsort(-np.abs(mu))[:count]])[0]
            HV = _band_matmul(full[p:], V)
            theta, W = np.linalg.eigh(V.conj().T @ HV)
            residual = float(np.linalg.norm(HV @ W - V @ W * theta, axis=0).max())
            if residual <= res_tol and lo < theta[0] and theta[-1] < hi:
                return theta, V @ W
            if residual > _MIN_GAIN * previous:
                break
            previous = residual
        X = np.linalg.qr(Z)[0]
    if depth == _MAX_SPLITS:
        raise AmbiguousKernel(
            f"window eigenvectors unresolved in ({lo:.3e}, {hi:.3e}): residual "
            f"{residual:.3e}, tolerance {res_tol:.3e}, for {count} eigenvalues"
        )
    edges = np.concatenate([[lo], theta[(lo < theta) & (theta < hi)], [hi]])
    # a wide gap keeps the split point off the eigenvalues, a gap with Ritz
    # values on both sides splits the count
    n = edges.size - 2
    balance = 1 + np.minimum(np.arange(n + 1), np.arange(n, -1, -1))
    gap = int((np.diff(edges) * balance).argmax())
    mid = edges[gap] + _SPLIT_AT * (edges[gap + 1] - edges[gap])
    below_mid = int(_count_below(full[p:], [mid], res_tol)[0])
    e_lo, v_lo = _window_pairs(full, lo, mid, (below[0], below_mid), res_tol, rng,
                               edges[1:gap + 1], depth + 1)
    e_hi, v_hi = _window_pairs(full, mid, hi, (below_mid, below[1]), res_tol, rng,
                               edges[gap + 1:-1], depth + 1)
    return np.concatenate([e_lo, e_hi]), np.linalg.qr(np.hstack([v_lo, v_hi]))[0]


def _require_hermitian(defect: float, scale: float, tol: Tolerances) -> None:
    if not defect <= tol.frame_tol * scale:
        raise NotHermitian(f"junction matrix has hermiticity defect {defect:.3e} "
                           f"at scale {scale:.3e}")


def _scanned_band(H: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Lower band (LAPACK storage) of a dense hermitian H.

    A scan for nonzero entries finds the bandwidth p; only the 2p+1
    diagonals of H are read after it. Raises NotHermitian when H is not
    hermitian.
    """
    dim = H.shape[0]
    rows, cols = np.nonzero(H != 0)
    p = int(np.abs(rows - cols).max()) if rows.size else 0
    # entries outside the band are zero, so the band alone decides these
    lower = [np.diagonal(H, -d) for d in range(p + 1)]
    upper = [np.diagonal(H, d) for d in range(p + 1)]
    scale = max(1.0, max(float(np.abs(a).max()) for a in lower + upper))
    defect = max(float(np.abs(a - b.conj()).max()) for a, b in zip(lower, upper))
    _require_hermitian(defect, scale, tol)
    band = np.zeros((p + 1, dim), dtype=complex)
    for d, diagonal in enumerate(lower):
        band[d, :dim - d] = diagonal
    return band


def count_near_zero_localized(H, spec: DiscretizationSpec,
                              tol: Tolerances = TOL) -> OracleReport:
    """Count near-zero modes concentrated in the center of the system.

    A mode qualifies when its energy lies within ``spec.energy_window``
    and at least ``spec.min_weight`` of its probability sits inside the
    central ``spec.core_fraction`` of the index range. Wall and edge
    modes fail the weight test and are excluded.

    ``H`` is a ``HermitianBand``, as the builders return, whose band is
    used as given, or a dense hermitian array, whose band is found by a
    scan for its bandwidth p. Either way no dim^2 array is formed after
    that and nothing diagonalizes the whole matrix. The window holds
    k = below(w) - below(-w) eigenvalues, counted by Sylvester inertia at
    both edges at once: block cyclic reduction of H - s in the smallest
    blocks b whose block-tridiagonal pattern holds the band (N for both
    builders, at most max(p, 1)), with one batched eigh of the eliminated
    blocks per level, the first level's shared by both edges, costs
    O(dim * b^2) per shift over log2(dim / b) levels. The k
    eigenpairs come from block shift-and-invert iteration, one banded LU
    per shift serving each of its solves, and Rayleigh-Ritz; a window it
    does not resolve in a few solves is split and its halves counted by
    inertia again, each at its own shift. The energies are
    Ritz values, each within its residual, at most
    ``1e3 * eps * scale * sqrt(dim)``, of an eigenvalue of H.

    Raises DimensionMismatch for an empty H, NotHermitian when H has a
    non-finite entry or is not hermitian (a band with a complex diagonal
    included), and AmbiguousKernel when a pivot of the inertia count lies
    within that tolerance of zero, as at a tie on the window's edge, when
    a shift of the iteration is an eigenvalue, or when the window's
    eigenvectors are not resolved to within the tolerance.

    Degenerate near-zero clusters need care: a junction mode and a far
    wall mode at the same energy reach the eigensolver as arbitrary
    50/50 mixtures, which would fail a naive per-vector test. The count
    therefore diagonalizes the core-weight form on the whole selected
    subspace; its eigenvalues are the canonical core weights, equal to
    the per-vector weights whenever the eigenvectors are clean, and
    basis independent always.
    """
    if spec.energy_window is None:
        raise BadSpec("counting needs the energy_window field")
    given = H.lower if isinstance(H, HermitianBand) else _as_square(H, "H")
    dim = given.shape[1]
    if dim == 0:
        raise DimensionMismatch("H is empty: there are no modes to count")
    if not np.isfinite(given).all():
        raise NotHermitian("H has a non-finite entry")
    band = given if isinstance(H, HermitianBand) else _scanned_band(given, tol)
    p = band.shape[0] - 1
    scale = max(1.0, float(np.abs(band).max()))
    # a band has no upper triangle to mirror, but its diagonal must be real:
    # H[j, j] - conj(H[j, j]) is twice its imaginary part
    _require_hermitian(2.0 * float(np.abs(band[0].imag).max()), scale, tol)
    # rows p.. hold the lower band in LAPACK storage, rows ..p its mirror,
    # so the matrix the solves see is exactly the one the inertia counts
    full = np.zeros((2 * p + 1, dim), dtype=complex)
    full[p] = band[0].real
    for d in range(1, p + 1):
        full[p + d, :dim - d] = band[d, :dim - d]
        full[p - d, d:] = band[d, :dim - d].conj()
    w = spec.energy_window
    res_tol = 1e3 * np.finfo(float).eps * scale * np.sqrt(dim)
    below = _count_below(full[p:], [-w, w], res_tol)
    evals, window = _window_pairs(full, -w, w, (int(below[0]), int(below[1])), res_tol,
                                  np.random.default_rng(0))
    margin = int(round(dim * (1.0 - spec.core_fraction) / 2.0))
    core_block = window[margin:dim - margin, :]
    weights = np.linalg.eigvalsh(core_block.conj().T @ core_block)[::-1]
    localized = int(np.count_nonzero(weights >= spec.min_weight))
    return OracleReport(
        near_zero=int(evals.size),
        localized=localized,
        energies=evals,
        core_weights=weights,
    )


def oracle_compare(report, oracle: OracleReport) -> str:
    """Verdict of an oracle run against a prediction.

    FAIL when fewer localized modes were found than the protected
    bound; PASS when the count is at least the bound and matches the
    prediction exactly; WARN otherwise (extra accidental modes, or
    fine-tuned degeneracies broken by discretization error).

    ``report`` may be any object with ``predicted`` and ``bound``
    attributes, or a (predicted, bound) pair.
    """
    if hasattr(report, "predicted"):
        predicted, bound = int(report.predicted), int(report.bound)
    else:
        predicted, bound = (int(x) for x in report)
    found = oracle.localized
    if found < bound:
        return "FAIL"
    if found == predicted:
        return "PASS"
    return "WARN"
