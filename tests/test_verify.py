import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tenfold1d import (
    DiscretizationSpec,
    OracleReport,
    PiecewiseDiracProfile,
    TightBindingModel,
    count_near_zero_localized,
    discretize_dirac_junction,
    finite_chain,
    oracle_compare,
)
from tenfold1d.errors import AmbiguousKernel, BadSpec, IncompatibleBoundary, NotHermitian


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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(BadSpec):
            DiscretizationSpec(**kwargs)

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
        H, _ = wall_oracle
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
        with pytest.raises(AmbiguousKernel, match="Ritz value mismatch"):
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
