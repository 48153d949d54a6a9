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

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import AmbiguousKernel, BadSpec, IncompatibleBoundary, NotHermitian
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


@dataclass(frozen=True)
class DiscretizationSpec:
    """Geometry and counting windows for the finite oracles.

    length, step : float, optional
        Half-width of the Dirac domain [-length, length] and the grid
        spacing. Required by ``discretize_dirac_junction``.
    cells : int, optional
        Unit cells per side of a finite chain. Required by
        ``finite_chain``.
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
        for name in ("length", "step", "energy_window"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                raise BadSpec(f"{name} must be finite and positive, got {v!r}")
        if self.cells is not None and self.cells < 1:
            raise BadSpec(f"cells must be at least 1, got {self.cells!r}")
        if not 0.0 < self.core_fraction <= 1.0:
            raise BadSpec(f"core_fraction must be in (0, 1], got {self.core_fraction!r}")
        if not 0.0 < self.min_weight <= 1.0:
            raise BadSpec(f"min_weight must be in (0, 1], got {self.min_weight!r}")


def _split_mass(W: np.ndarray):
    """Hermitian and antihermitian parts entering the rotated operator."""
    M = 0.5j * (W.conj().T - W)
    S = 0.5j * (W + W.conj().T)
    return M, S


def _definite_sign(A: np.ndarray) -> int:
    """+1 / -1 when the hermitian matrix is definite, else 0."""
    evals = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
    if evals[0] > 0:
        return 1
    if evals[-1] < 0:
        return -1
    return 0


def discretize_dirac_junction(profile: PiecewiseDiracProfile,
                              spec: DiscretizationSpec) -> np.ndarray:
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
    """
    if spec.length is None or spec.step is None:
        raise BadSpec("Dirac discretization needs both length and step")
    L, h = float(spec.length), float(spec.step)
    if h >= L:
        raise BadSpec(f"step {h:g} must be far smaller than length {L:g}")
    N = profile.block_dim
    n = int(round(2 * L / h)) + 1

    gap_min = min(
        float(np.linalg.svd(W, compute_uv=False)[-1]) for W in profile.masses
    )
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
    nodes = []
    for j in range(n):
        nodes.append((True, -L + j * h))
        nodes.append((False, -L + j * h + 0.5 * h))
    splits = [_split_mass(W) for W in profile.masses]
    s_left, s_right = splits[0][1], splits[-1][1]
    sign_left = _definite_sign(-1j * s_left)
    sign_right = _definite_sign(-1j * s_right)
    if sign_left == 0 or sign_right == 0:
        warnings.warn(
            "indefinite mass at an outer end; the hard wall binds edge "
            "modes in some channels",
            stacklevel=2,
        )
    if sign_left > 0:
        nodes.pop(0)
    if sign_right > 0:
        nodes.pop()

    K = len(nodes)
    # segment of each node, as in mass_at: the number of breakpoints <= t
    segment = np.searchsorted(profile.breakpoints, [t for _, t in nodes], side="right")
    H = np.zeros((K * N, K * N), dtype=complex)
    blk = lambda k: slice(k * N, (k + 1) * N)
    eye = np.eye(N)
    for k, (is_phi, t) in enumerate(nodes):
        M, _ = splits[segment[k]]
        H[blk(k), blk(k)] = M if is_phi else -M
    for k in range(K - 1):
        is_phi = nodes[k][0]
        _, S = splits[segment[k + 1] if is_phi else segment[k]]
        # phi row gets -i/h when phi sits left of chi, +i/h when right
        sgn = -1.0 if is_phi else 1.0
        coupling = (sgn * 1j / h) * eye + 0.5 * S
        row, col = (k, k + 1) if is_phi else (k + 1, k)
        H[blk(row), blk(col)] = coupling
        H[blk(col), blk(row)] = coupling.conj().T
    return H


def finite_chain(left: TightBindingModel, right: TightBindingModel,
                 spec: DiscretizationSpec) -> np.ndarray:
    """Finite hermitian matrix for two chains glued at site 0.

    Sites -q_L*cells .. -1 follow the left model, sites 0 .. q_R*cells-1
    the right one; the bond (n, n+1) comes from the model owning site n.
    Both truncations are hard. Raises IncompatibleBoundary when the
    block sizes differ.
    """
    if spec.cells is None:
        raise BadSpec("finite chains need the cells field")
    if left.block_dim != right.block_dim:
        raise IncompatibleBoundary(
            f"block sizes differ: {left.block_dim} vs {right.block_dim}"
        )
    N = left.block_dim
    c = int(spec.cells)
    lo = -left.period * c
    hi = right.period * c
    sites = list(range(lo, hi))
    dim = len(sites) * N
    H = np.zeros((dim, dim), dtype=complex)
    block = lambda i: slice(i * N, (i + 1) * N)
    model_at = lambda s: left if s < 0 else right
    for i, s in enumerate(sites):
        H[block(i), block(i)] = model_at(s).site(s)
        if i + 1 < len(sites):
            a = model_at(s).bond(s)
            H[block(i), block(i + 1)] = a
            H[block(i + 1), block(i)] = a.conj().T
    return H


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


def _window_vectors(full: np.ndarray, evals: np.ndarray, res_tol: float) -> np.ndarray:
    """Orthonormal eigenvectors of H for its sorted eigenvalues ``evals``.

    ``full`` holds the 2p+1 diagonals of H in ``solve_banded`` storage.

    Banded inverse iteration: eigenvalues less than ``res_tol`` apart form
    a cluster, and each cluster gets one shift just beside it and a random
    block as wide as the cluster, so exactly degenerate eigenvalues get as
    many independent vectors as their multiplicity. The offset keeps the
    shift off an eigenvalue, where the factorization could hit an exact
    zero pivot. Rayleigh-Ritz on the union of the blocks then gives the
    eigenvectors, which must have residuals within ``res_tol`` and Ritz
    values matching ``evals``; otherwise AmbiguousKernel is raised.
    """
    p, dim = full.shape[0] // 2, full.shape[1]
    rng = np.random.default_rng(0)
    blocks = []
    for cluster in np.split(evals, np.flatnonzero(np.diff(evals) > res_tol) + 1):
        shift = cluster.mean() + res_tol
        shifted = full.copy()
        shifted[p] -= shift
        X = rng.standard_normal((dim, cluster.size)) + 1j * rng.standard_normal((dim, cluster.size))
        for _ in range(2):
            try:
                X = sla.solve_banded((p, p), shifted, X)
            except np.linalg.LinAlgError as exc:
                raise AmbiguousKernel(
                    f"inverse iteration shift {shift:.3e} is an eigenvalue"
                ) from exc
            X = np.linalg.qr(X)[0]
        blocks.append(X)
    V = np.linalg.qr(np.hstack(blocks))[0]
    HV = _band_matmul(full[p:], V)
    theta, Y = np.linalg.eigh(V.conj().T @ HV)
    vecs = V @ Y
    residual = float(np.linalg.norm(HV @ Y - vecs * theta, axis=0).max())
    mismatch = float(np.abs(theta - evals).max())
    if residual > res_tol or mismatch > res_tol:
        raise AmbiguousKernel(
            f"window eigenvectors unresolved: residual {residual:.3e}, "
            f"Ritz value mismatch {mismatch:.3e}, tolerance {res_tol:.3e}"
        )
    return vecs


def count_near_zero_localized(H, spec: DiscretizationSpec,
                              tol: Tolerances = TOL) -> OracleReport:
    """Count near-zero modes concentrated in the center of the system.

    A mode qualifies when its energy lies within ``spec.energy_window``
    and at least ``spec.min_weight`` of its probability sits inside the
    central ``spec.core_fraction`` of the index range. Wall and edge
    modes fail the weight test and are excluded.

    Nothing diagonalizes the whole matrix; after a scan for the
    bandwidth p only the 2p+1 diagonals of H are read. The window's
    eigenvalues come from banded bisection (LAPACK ``hbevx`` without
    vectors, whose band reduction costs about dim^2 * p operations
    instead of the dim^3 of a dense eigh), and their eigenvectors from
    banded inverse iteration with Rayleigh-Ritz. Raises NotHermitian when
    H is not hermitian, and AmbiguousKernel when the eigenvectors do not
    reproduce the bisection eigenvalues to within
    ``1e3 * eps * scale * sqrt(dim)``, as at a tie on the window's edge.

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
    H = _as_square(H, "H")
    dim = H.shape[0]
    rows, cols = np.nonzero(H != 0)
    p = int(np.abs(rows - cols).max()) if rows.size else 0
    # entries outside the band are zero, so the band alone decides these
    lower = [np.diagonal(H, -d) for d in range(p + 1)]
    upper = [np.diagonal(H, d) for d in range(p + 1)]
    scale = max(1.0, max(float(np.abs(a).max()) for a in lower + upper))
    defect = max(float(np.abs(a - b.conj()).max()) for a, b in zip(lower, upper))
    if defect > tol.frame_tol * scale:
        raise NotHermitian(f"junction matrix has hermiticity defect {defect:.3e} "
                           f"at scale {scale:.3e}")
    # rows p.. hold the lower band in LAPACK storage, rows ..p its mirror,
    # so the matrix the solves see is exactly the one the eigensolver sees
    full = np.zeros((2 * p + 1, dim), dtype=complex)
    full[p] = lower[0].real
    for d in range(1, p + 1):
        full[p + d, :dim - d] = lower[d]
        full[p - d, d:] = lower[d].conj()
    w = spec.energy_window
    evals = sla.eig_banded(full[p:], lower=True, eigvals_only=True,
                           select="v", select_range=(-w, w))
    evals = evals[np.abs(evals) < w]
    if evals.size:
        res_tol = 1e3 * np.finfo(float).eps * scale * np.sqrt(dim)
        window = _window_vectors(full, evals, res_tol)
    else:
        window = np.zeros((dim, 0))
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
