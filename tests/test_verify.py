import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tenfold1d import (
    DiscretizationSpec,
    PiecewiseDiracProfile,
    TightBindingModel,
    count_near_zero_localized,
    discretize_dirac_junction,
    finite_chain,
    oracle_compare,
)
from tenfold1d.errors import (
    AmbiguousKernel,
    BadSpec,
    DimensionMismatch,
    IncompatibleBoundary,
    NotHermitian,
)
from tenfold1d import verify
from tenfold1d.linalg import TOL
from tenfold1d.verify import (
    HermitianBand,
    OracleReport,
    _block_band,
    _block_size,
    _definite_sign,
    _scanned_band,
    _split_mass,
)


class TestDiscretizationSpec:
    def test_defaults(self):
        spec = DiscretizationSpec()
        assert spec.length is None and spec.cells is None
        assert spec.core_fraction == 0.5 and spec.min_weight == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length": 0.0},
            {"length": -1.0},
            {"step": 0.0},
            {"energy_window": -0.1},
            {"cells": 0},
            {"core_fraction": 0.0},
            {"core_fraction": 1.5},
            {"min_weight": 0.0},
            {"min_weight": 1.1},
            {"length": float("inf")},
            {"step": float("inf")},
            {"energy_window": float("inf")},
            {"length": float("nan")},
            {"cells": 2.5},
            {"cells": float("nan")},
            {"cells": "3"},
            {"cells": True},
            {"cells": np.bool_(True)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(BadSpec):
            DiscretizationSpec(**kwargs)

    @pytest.mark.parametrize("cells", [np.int64(3), np.uint8(3), 3.0])
    def test_integral_cells(self, cells):
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        assert finite_chain(m, m, DiscretizationSpec(cells=cells)).shape == (6, 6)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DiscretizationSpec().cells = 3


@pytest.fixture(scope="module")
def wall_oracle():
    profile = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
    spec = DiscretizationSpec(length=20.0, step=0.1, energy_window=0.1)
    H = discretize_dirac_junction(profile, spec)
    return H, count_near_zero_localized(H, spec)


class TestDiscretizeDirac:
    def test_needs_geometry(self):
        p = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
        with pytest.raises(BadSpec):
            discretize_dirac_junction(p, DiscretizationSpec(step=0.1))
        with pytest.raises(BadSpec):
            discretize_dirac_junction(p, DiscretizationSpec(length=10.0))
        with pytest.raises(BadSpec):
            discretize_dirac_junction(p, DiscretizationSpec(length=1.0, step=2.0))

    def test_hermitian(self, wall_oracle):
        H = np.asarray(wall_oracle[0])
        assert np.abs(H - H.conj().T).max() == 0.0

    def test_constant_mass_has_clean_gap(self):
        # no junction, no wall binding: the spectrum must respect the bulk
        # gap (-1, 1) up to discretization error
        p = PiecewiseDiracProfile([np.eye(1), np.eye(1)], [0.0])
        spec = DiscretizationSpec(length=20.0, step=0.1, energy_window=0.9)
        H = discretize_dirac_junction(p, spec)
        report = count_near_zero_localized(H, spec)
        assert report.near_zero == 0

    def test_wall_hosts_one_zero_mode(self, wall_oracle):
        _, report = wall_oracle
        assert report.near_zero == 1
        assert report.localized == 1
        assert np.abs(report.energies).max() <= 1e-8
        assert report.core_weights[0] >= 0.99

    def test_wall_passes_comparison(self, wall_oracle):
        _, report = wall_oracle
        assert oracle_compare((1, 1), report) == "PASS"

    def test_two_channel_wall(self):
        p = PiecewiseDiracProfile([-np.eye(2), np.eye(2)], [0.0])
        spec = DiscretizationSpec(length=14.0, step=0.1, energy_window=0.1)
        with pytest.warns(UserWarning, match="short"):
            H = discretize_dirac_junction(p, spec)
        report = count_near_zero_localized(H, spec)
        assert report.near_zero == 2 and report.localized == 2

    def test_hundred_thousand_site_two_channel_wall(self):
        # p = 2: a band reduction would cost about dim^2 * p here, the
        # inertia count dim * p^2 per shift
        I2 = np.eye(2)
        spec = DiscretizationSpec(length=20.0, step=0.0016, energy_window=0.1)
        H = discretize_dirac_junction(PiecewiseDiracProfile([-I2, I2], [0.0]), spec)
        assert H.shape == (100002, 100002) and H.lower.shape == (3, 100002)
        start = time.perf_counter()
        report = count_near_zero_localized(H, spec)
        elapsed = time.perf_counter() - start
        assert report.near_zero == 2 and report.localized == 2
        assert elapsed < 10.0

    def test_coarse_step_warns(self):
        p = PiecewiseDiracProfile([-2.0 * np.eye(1), 2.0 * np.eye(1)], [0.0])
        spec = DiscretizationSpec(length=12.0, step=0.2, energy_window=0.1)
        with pytest.warns(UserWarning, match="coarse"):
            discretize_dirac_junction(p, spec)

    def test_indefinite_end_mass_warns(self):
        W = np.diag([1.0, -1.0])
        p = PiecewiseDiracProfile([W, W], [0.0])
        spec = DiscretizationSpec(length=25.0, step=0.1, energy_window=0.1)
        with pytest.warns(UserWarning, match="indefinite"):
            discretize_dirac_junction(p, spec)


def dense_dirac_reference(profile, spec):
    """Dense reference for discretize_dirac_junction: the per-node loop."""
    L, h = float(spec.length), float(spec.step)
    N = profile.block_dim
    n = int(round(2 * L / h)) + 1
    nodes = []
    for j in range(n):
        nodes.append((True, -L + j * h))
        nodes.append((False, -L + j * h + 0.5 * h))
    splits = [_split_mass(W) for W in profile.masses]
    if _definite_sign(-1j * splits[0][1]) > 0:
        nodes.pop(0)
    if _definite_sign(-1j * splits[-1][1]) > 0:
        nodes.pop()
    K = len(nodes)
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
        sgn = -1.0 if is_phi else 1.0
        coupling = (sgn * 1j / h) * eye + 0.5 * S
        row, col = (k, k + 1) if is_phi else (k + 1, k)
        H[blk(row), blk(col)] = coupling
        H[blk(col), blk(row)] = coupling.conj().T
    return H


def dense_chain_reference(left, right, spec):
    """Dense reference for finite_chain: the per-site loop."""
    N = left.block_dim
    c = int(spec.cells)
    sites = list(range(-left.period * c, right.period * c))
    H = np.zeros((len(sites) * N, len(sites) * N), dtype=complex)
    block = lambda i: slice(i * N, (i + 1) * N)
    model_at = lambda s: left if s < 0 else right
    for i, s in enumerate(sites):
        H[block(i), block(i)] = model_at(s).site(s)
        if i + 1 < len(sites):
            a = model_at(s).bond(s)
            H[block(i), block(i + 1)] = a
            H[block(i + 1), block(i)] = a.conj().T
    return H


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestBuildersAgainstDense:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
           st.sampled_from([0.1, 0.15, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_dirac_bit_for_bit(self, seed, N, interfaces, left_sign, right_sign, step):
        # an outer mass s * A + K with A positive definite and K
        # antihermitian gives the end the definite sign s, so the signs
        # pick which end nodes are trimmed
        rng = np.random.default_rng(seed)

        def definite(sign):
            X, Y = rng.normal(size=(N, N)), complex_normal(rng, (N, N))
            return sign * (X @ X.T + np.eye(N)) + 0.5 * (Y - Y.conj().T)

        inner = [complex_normal(rng, (N, N)) for _ in range(interfaces - 1)]
        masses = [definite(left_sign)] + inner + [definite(right_sign)]
        breakpoints = np.sort(rng.uniform(-1.5, 1.5, size=interfaces))
        assume(np.diff(breakpoints).min(initial=1.0) > 1e-9)
        profile = PiecewiseDiracProfile(masses, breakpoints)
        spec = DiscretizationSpec(length=2.5, step=step)
        H = discretize_dirac_junction(profile, spec)
        want = dense_dirac_reference(profile, spec)
        assert H.shape == want.shape
        assert np.array_equal(np.asarray(H), want)
        assert H.lower.shape == (bandwidth(want) + 1, want.shape[0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_chain_bit_for_bit(self, seed, N, q_left, q_right, cells):
        rng = np.random.default_rng(seed)

        def model(q):
            sites = [complex_normal(rng, (N, N)) for _ in range(q)]
            return TightBindingModel([complex_normal(rng, (N, N)) for _ in range(q)],
                                     [X + X.conj().T for X in sites])

        left, right = model(q_left), model(q_right)
        spec = DiscretizationSpec(cells=cells)
        H = finite_chain(left, right, spec)
        want = dense_chain_reference(left, right, spec)
        assert H.shape == want.shape
        assert np.array_equal(np.asarray(H), want)
        assert H.lower.shape == (bandwidth(want) + 1, want.shape[0])


class TestHermitianBand:
    def test_dense_array_is_always_a_copy(self):
        H = _block_band(np.array([[[1.0]], [[2.0]]]), np.array([[[3.0 + 1.0j]]]))
        want = np.array([[1.0, 3.0 - 1.0j], [3.0 + 1.0j, 2.0]])
        assert np.array_equal(np.asarray(H), want)
        assert np.array_equal(np.array(H, copy=True), want)
        with pytest.raises(ValueError, match="forming one copies"):
            np.asarray(H, copy=False)


class TestFiniteChain:
    def test_needs_cells(self):
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        with pytest.raises(BadSpec):
            finite_chain(m, m, DiscretizationSpec(length=5.0))

    def test_block_size_gate(self):
        a = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        b = TightBindingModel([np.eye(2)], [np.zeros((2, 2))])
        with pytest.raises(IncompatibleBoundary):
            finite_chain(a, b, DiscretizationSpec(cells=5))

    def test_uniform_chain_band(self):
        # open uniform chain: eigenvalues 2 cos(k pi / (n+1))
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        H = finite_chain(m, m, DiscretizationSpec(cells=30))
        evals = np.linalg.eigvalsh(H)
        n = H.shape[0]
        want = 2.0 * np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
        assert np.abs(evals - want).max() <= 1e-12

    def test_extended_states_fail_localization(self):
        # gapless chain: modes near zero exist but spread over the whole
        # box, so the localization filter rejects them
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        spec = DiscretizationSpec(cells=30, energy_window=0.2)
        report = count_near_zero_localized(finite_chain(m, m, spec), spec)
        assert report.near_zero >= 1
        assert report.localized == 0

    def test_dimerization_seam(self):
        # (1,2)|(2,1) seam: one protected seam mode plus one weak-bond
        # edge mode at the left wall, both at zero; only the seam mode
        # survives the localization filter
        z = [np.zeros((1, 1)), np.zeros((1, 1))]
        left = TightBindingModel([np.array([[1.0]]), np.array([[2.0]])], z)
        right = TightBindingModel([np.array([[2.0]]), np.array([[1.0]])], z)
        spec = DiscretizationSpec(cells=100, energy_window=1e-3)
        report = count_near_zero_localized(finite_chain(left, right, spec), spec)
        assert report.near_zero == 2
        assert report.localized == 1
        assert report.core_weights[0] >= 0.99
        assert report.core_weights[-1] <= 0.01

    def test_trivial_seam_is_empty(self):
        z = [np.zeros((1, 1)), np.zeros((1, 1))]
        m = TightBindingModel([np.array([[2.0]]), np.array([[1.0]])], z)
        spec = DiscretizationSpec(cells=100, energy_window=1e-3)
        report = count_near_zero_localized(finite_chain(m, m, spec), spec)
        assert report.near_zero == 0 and report.localized == 0

    def test_hundred_thousand_site_seam(self):
        # a dense matrix of this chain would take 160 GB: only a band
        # from builder to count can pass
        z = [np.zeros((1, 1)), np.zeros((1, 1))]
        left = TightBindingModel([np.array([[1.0]]), np.array([[2.0]])], z)
        right = TightBindingModel([np.array([[2.0]]), np.array([[1.0]])], z)
        spec = DiscretizationSpec(cells=25000, energy_window=1e-6)
        H = finite_chain(left, right, spec)
        assert H.shape == (100000, 100000) and H.lower.shape == (2, 100000)
        report = count_near_zero_localized(H, spec)
        assert report.near_zero == 2 and report.localized == 1


class TestCountNearZero:
    def test_needs_window(self):
        with pytest.raises(BadSpec):
            count_near_zero_localized(np.zeros((4, 4)), DiscretizationSpec())

    def test_rejects_non_hermitian(self):
        spec = DiscretizationSpec(energy_window=0.5)
        H = np.zeros((4, 4))
        H[0, 1] = 1.0
        with pytest.raises(ValueError):
            count_near_zero_localized(H, spec)

    def test_non_hermitian_is_typed(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        H[2, 0] = 1e-3j
        with pytest.raises(NotHermitian):
            count_near_zero_localized(H, DiscretizationSpec(energy_window=0.5))

    @pytest.mark.parametrize("H", [np.zeros((0, 0)), HermitianBand(np.zeros((1, 0), dtype=complex))],
                             ids=["dense", "band"])
    def test_empty_matrix_is_typed(self, H):
        with pytest.raises(DimensionMismatch, match="empty"):
            count_near_zero_localized(H, DiscretizationSpec(energy_window=0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("form", ["dense", "band"])
    def test_non_finite_entry_is_typed(self, bad, form):
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        H = finite_chain(m, m, DiscretizationSpec(cells=4))
        H.lower[1, 2] = bad
        if form == "dense":
            H = np.asarray(H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="non-finite"):
                count_near_zero_localized(H, DiscretizationSpec(energy_window=0.5))

    @pytest.mark.parametrize("form", ["dense", "band"])
    def test_imaginary_diagonal_is_not_hermitian(self, form):
        lower = np.zeros((2, 6), dtype=complex)
        lower[0] = [3, 3, 0.01 + 5j, 3, 3, 3]
        lower[1, :5] = 0.1
        H = HermitianBand(lower)
        if form == "dense":
            H = np.asarray(H)
        with pytest.raises(NotHermitian, match="defect 1.000e[+]01"):
            count_near_zero_localized(H, DiscretizationSpec(energy_window=0.5))

    def test_never_calls_a_band_eigensolver(self, monkeypatch):
        get_lapack_funcs = sla.get_lapack_funcs

        def guard(names, *args, **kwargs):
            for name in [names] if isinstance(names, str) else names:
                assert "bev" not in name, f"band eigensolver {name}"
            return get_lapack_funcs(names, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("band eigensolver")

        monkeypatch.setattr(sla, "get_lapack_funcs", guard)
        monkeypatch.setattr(sla.lapack, "get_lapack_funcs", guard)
        monkeypatch.setattr(sla, "eig_banded", refuse)
        monkeypatch.setattr(sla, "eigvals_banded", refuse)
        p = PiecewiseDiracProfile([-np.eye(2), np.eye(2)], [0.0])
        spec = DiscretizationSpec(length=20.0, step=0.1, energy_window=0.1)
        report = count_near_zero_localized(discretize_dirac_junction(p, spec), spec)
        assert report.near_zero == 2 and report.localized == 2

    def test_wide_window_is_split(self, monkeypatch):
        # 24 of 44 eigenvalues in the window, spread as densely as those
        # outside it: one shift at the centre cannot resolve them all
        rng = np.random.default_rng(0)
        chiral = random_banded(rng, 2 * int(rng.integers(1, 12)) + 1, int(rng.choice([1, 3])), chiral=True)
        rest = random_banded(rng, int(rng.integers(1, 30)), int(rng.integers(0, 4)))
        H = sla.block_diag(np.kron(chiral, np.eye(2)), rest, np.zeros((1, 1)))
        count_below = verify._count_below
        shifts = []

        def spy(band, at, res_tol):
            shifts.extend(at)
            return count_below(band, at, res_tol)

        monkeypatch.setattr(verify, "_count_below", spy)
        report = assert_matches_dense(H, DiscretizationSpec(energy_window=2.0))
        assert report.near_zero == 24
        assert len(shifts) > 2

    def test_shift_on_an_eigenvalue_raises_typed_error(self):
        # eigenvalues 0, r, 2r with r the residual tolerance form one
        # cluster whose shift, its mean plus r, is exactly the top one
        dim = 4
        r = 1e3 * np.finfo(float).eps * 5.0 * np.sqrt(dim)
        H = np.diag([0.0, r, 2.0 * r, 5.0])
        with pytest.raises(AmbiguousKernel, match="is an eigenvalue"):
            count_near_zero_localized(H, DiscretizationSpec(energy_window=0.5))

    def test_tie_at_the_window_edge_raises_typed_error(self):
        # an eigenvalue just outside the window, nearer the shift than the
        # one inside, takes over its vector: the Ritz value misses
        dim = 4
        r = 1e3 * np.finfo(float).eps * 5.0 * np.sqrt(dim)
        H = np.diag([0.5 - 0.05 * r, 0.5 + 1.05 * r, 5.0, -5.0])
        with pytest.raises(AmbiguousKernel, match="pivot eigenvalue"):
            count_near_zero_localized(H, DiscretizationSpec(energy_window=0.5))

    def test_never_diagonalizes_the_whole_matrix(self, monkeypatch):
        p = PiecewiseDiracProfile([-np.eye(2), np.eye(2)], [0.0])
        spec = DiscretizationSpec(length=8.0, step=0.1, energy_window=0.1)
        with pytest.warns(UserWarning, match="short"):
            H = discretize_dirac_junction(p, spec)
        dim = H.shape[0]

        def guard(solver):
            def call(a, *args, **kwargs):
                assert np.shape(a)[-1] < dim, "dense diagonalization of the junction matrix"
                return solver(a, *args, **kwargs)
            return call

        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "eig"),
                             (sla, "eigh"), (sla, "eigvalsh"), (sla, "eig")):
            monkeypatch.setattr(module, name, guard(getattr(module, name)))
        report = count_near_zero_localized(H, spec)
        assert report.near_zero == 2 and report.localized == 2

    def test_forms_no_dense_matrix(self):
        # the 1602-dim two-channel wall would be 41 MB as a dense matrix
        p = PiecewiseDiracProfile([-np.eye(2), np.eye(2)], [0.0])
        spec = DiscretizationSpec(length=20.0, step=0.1, energy_window=0.1)
        count_near_zero_localized(discretize_dirac_junction(p, spec), spec)
        tracemalloc.start()
        try:
            report = count_near_zero_localized(discretize_dirac_junction(p, spec), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.near_zero == 2 and report.localized == 2
        assert peak < 5e6

    def test_degenerate_cluster_counted_canonically(self, rng):
        # one zero mode in the core, one at the wall, exactly degenerate:
        # whatever mixture eigh returns, the canonical weights are 1 and 0
        dim = 8
        e_wall = np.zeros(dim)
        e_wall[0] = 1.0
        e_core = np.zeros(dim)
        e_core[4] = 1.0
        P = np.outer(e_wall, e_wall) + np.outer(e_core, e_core)
        H = 3.0 * (np.eye(dim) - P)
        spec = DiscretizationSpec(energy_window=0.5)
        report = count_near_zero_localized(H, spec)
        assert report.near_zero == 2
        assert report.localized == 1
        assert np.allclose(np.sort(report.core_weights), [0.0, 1.0], atol=1e-12)


def dense_count(H, spec):
    """Reference for count_near_zero_localized: a full eigh of H."""
    evals, vecs = np.linalg.eigh(H)
    sel = np.abs(evals) < spec.energy_window
    dim = H.shape[0]
    margin = int(round(dim * (1.0 - spec.core_fraction) / 2.0))
    core = vecs[:, sel][margin:dim - margin, :]
    weights = np.linalg.eigvalsh(core.conj().T @ core)[::-1]
    localized = int(np.count_nonzero(weights >= spec.min_weight))
    return OracleReport(int(np.count_nonzero(sel)), localized, evals[sel], weights)


def assert_matches_dense(H, spec):
    got = count_near_zero_localized(H, spec)
    want = dense_count(H, spec)
    assert got.near_zero == want.near_zero
    assert got.localized == want.localized
    assert np.allclose(got.energies, want.energies, rtol=0, atol=1e-10)
    assert np.allclose(np.sort(got.core_weights), np.sort(want.core_weights), rtol=0, atol=1e-8)
    return got


def bandwidth(H):
    rows, cols = np.nonzero(H)
    return int(np.abs(rows - cols).max())


def rotated_profile(n, rng):
    """Masses P D_j Q^T with D_j diagonal, negative left and positive right.

    Every channel flips sign across the profile, so n modes are
    protected; the short middle segment binds no extra pair.
    """
    P = np.linalg.qr(rng.normal(size=(n, n)))[0]
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    signs = [-np.ones(n), rng.choice([-1.0, 1.0], size=n), np.ones(n)]
    masses = [P @ np.diag(sign * rng.uniform(1.0, 2.0, size=n)) @ Q.T for sign in signs]
    return PiecewiseDiracProfile(masses, [-0.2, 0.2])


def random_banded(rng, dim, p, chiral=False):
    """Random hermitian matrix of bandwidth at most p.

    A chiral one has no diagonal and couples only sites of opposite
    parity; at odd dimension its two sublattices differ in size, so zero
    is an exact eigenvalue.
    """
    H = np.zeros((dim, dim), dtype=complex)
    if not chiral:
        H += np.diag(rng.normal(size=dim))
    for d in range(1, min(p, dim - 1) + 1, 2 if chiral else 1):
        a = rng.normal(size=dim - d) + 1j * rng.normal(size=dim - d)
        H += np.diag(a, -d) + np.diag(a.conj(), d)
    return H


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestBandedAgainstDense:
    @pytest.mark.parametrize("n, length", [(1, 8.0), (2, 8.0), (3, 5.0)])
    def test_rotated_profiles(self, n, length, rng):
        spec = DiscretizationSpec(length=length, step=0.08, energy_window=0.16)
        H = discretize_dirac_junction(rotated_profile(n, rng), spec)
        assert bandwidth(H) == 2 * n - 1
        report = assert_matches_dense(H, spec)
        assert report.near_zero >= n and report.localized == n

    def test_exactly_degenerate_wall(self):
        # decoupled channels: the two zero modes are exactly degenerate
        I2 = np.eye(2)
        spec = DiscretizationSpec(length=8.0, step=0.1, energy_window=0.1)
        H = discretize_dirac_junction(PiecewiseDiracProfile([-I2, I2], [0.0]), spec)
        report = assert_matches_dense(H, spec)
        assert report.near_zero == 2 and report.localized == 2

    def test_full_random_matrix(self, rng):
        dim = 120
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = X + X.conj().T
        assert bandwidth(H) == dim - 1
        report = assert_matches_dense(H, DiscretizationSpec(energy_window=3.0))
        assert report.near_zero >= 5

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2),
           st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_planted_degenerate_clusters(self, seed, copies, zeros, window):
        # copies interleaved channels of a chiral block make every one of
        # its eigenvalues, zero among them, exactly degenerate; decoupled
        # zero sites make the matrix itself singular at the zero shift
        rng = np.random.default_rng(seed)
        chiral = random_banded(rng, 2 * int(rng.integers(1, 12)) + 1, int(rng.choice([1, 3])), chiral=True)
        rest = random_banded(rng, int(rng.integers(1, 30)), int(rng.integers(0, 4)))
        H = sla.block_diag(np.kron(chiral, np.eye(copies)), rest, np.zeros((zeros, zeros)))
        spec = DiscretizationSpec(energy_window=window)
        # keep away from ties the tolerance decides either way
        want = dense_count(H, spec)
        assume(np.abs(np.abs(np.linalg.eigvalsh(H)) - window).min() > 1e-6)
        assume(np.abs(want.core_weights - spec.min_weight).min(initial=1.0) > 1e-6)
        report = assert_matches_dense(H, spec)
        assert report.near_zero >= copies + zeros


def inertia_tol(band):
    return 1e3 * np.finfo(float).eps * max(1.0, np.abs(band).max()) * np.sqrt(band.shape[1])


class TestInertia:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 5), st.booleans(),
           st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_counts_eigenvalues_below_each_shift(self, seed, dim, p, chiral, shifts):
        # dims need not be multiples of the block size
        H = random_banded(np.random.default_rng(seed), dim, p, chiral=chiral)
        evals = np.linalg.eigvalsh(H)
        shifts = np.array(shifts)
        assume(np.abs(np.subtract.outer(shifts, evals)).min() > 1e-6)
        if chiral:
            # at shift zero the zero diagonal blocks of a chiral matrix are
            # singular pivots, whatever its spectrum
            assume(np.abs(shifts).min() > 1e-6)
        band = _scanned_band(H, TOL)
        res_tol = 1e3 * np.finfo(float).eps * max(1.0, np.abs(band).max()) * np.sqrt(dim)
        got = verify._count_below(band, shifts, res_tol)
        assert got.tolist() == [int(np.count_nonzero(evals < s)) for s in shifts]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 12), st.booleans(),
           st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_counts_block_bands_below_each_shift(self, seed, N, K, chiral, shifts):
        # N x N blocks give p = 2N - 1, but the count reduces in b = N
        rng = np.random.default_rng(seed)
        X = complex_normal(rng, (K, N, N))
        # zero diagonal blocks, as in a chiral matrix, are singular pivots at shift zero
        diag = np.zeros_like(X) if chiral else X + X.conj().swapaxes(-1, -2)
        H = _block_band(diag, complex_normal(rng, (K - 1, N, N)))
        evals = np.linalg.eigvalsh(np.asarray(H))
        shifts = np.array(shifts)
        assume(np.abs(np.subtract.outer(shifts, evals)).min() > 1e-6)
        if chiral:
            assume(np.abs(shifts).min() > 1e-6)
        if K > 1:
            assert _block_size(H.lower) == N
        got = verify._count_below(H.lower, shifts, inertia_tol(H.lower))
        assert got.tolist() == [int(np.count_nonzero(evals < s)) for s in shifts]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_builders_give_their_block(self, rng):
        spec = DiscretizationSpec(length=8.0, step=0.08, cells=10)
        H = discretize_dirac_junction(rotated_profile(2, rng), spec)
        assert bandwidth(H) == 3 and _block_size(H.lower) == 2
        chain = lambda: TightBindingModel([complex_normal(rng, (2, 2))],
                                          [np.diag(rng.normal(size=2))])
        H = finite_chain(chain(), chain(), spec)
        assert bandwidth(H) == 3 and _block_size(H.lower) == 2

    @pytest.mark.parametrize("N", [2, 3])
    def test_entry_outside_the_block_pattern_gives_p(self, rng, N):
        X = complex_normal(rng, (6, N, N))
        H = _block_band(X + X.conj().swapaxes(-1, -2), complex_normal(rng, (5, N, N)))
        p = 2 * N - 1
        assert _block_size(H.lower) == N
        # H[p + 1, 1] sits in the far corner of the band, two blocks below
        # the diagonal in N x N blocks
        H.lower[p, 1] = 0.5
        assert _block_size(H.lower) == p
        evals = np.linalg.eigvalsh(np.asarray(H))
        shifts = np.array([-1.3, 0.1, 2.2])
        assert np.abs(np.subtract.outer(shifts, evals)).min() > 1e-6
        got = verify._count_below(H.lower, shifts, inertia_tol(H.lower))
        assert got.tolist() == [int(np.count_nonzero(evals < s)) for s in shifts]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_shifts_in_one_call_match_one_at_a_time(self, rng):
        spec = DiscretizationSpec(length=8.0, step=0.08)
        H = discretize_dirac_junction(rotated_profile(2, rng), spec)
        shifts = np.array([-0.7, -0.16, -0.01, 0.03, 0.16, 1.9])
        evals = np.linalg.eigvalsh(np.asarray(H))
        assert np.abs(np.subtract.outer(shifts, evals)).min() > 1e-6
        res_tol = inertia_tol(H.lower)
        together = verify._count_below(H.lower, shifts, res_tol)
        alone = [int(verify._count_below(H.lower, [s], res_tol)[0]) for s in shifts]
        assert together.tolist() == alone
        assert alone == [int(np.count_nonzero(evals < s)) for s in shifts]


class TestOracleCompare:
    def test_tuple_and_object_forms(self):
        oracle = OracleReport(1, 1, np.zeros(1), np.ones(1))

        class R:
            predicted = 1
            bound = 1

        assert oracle_compare((1, 1), oracle) == "PASS"
        assert oracle_compare(R(), oracle) == "PASS"

    def test_verdict_table(self):
        make = lambda loc: OracleReport(loc, loc, np.zeros(loc), np.ones(loc))
        assert oracle_compare((2, 1), make(0)) == "FAIL"
        assert oracle_compare((2, 1), make(1)) == "WARN"
        assert oracle_compare((2, 1), make(2)) == "PASS"
        assert oracle_compare((2, 1), make(3)) == "WARN"
        assert oracle_compare((0, 0), make(0)) == "PASS"
