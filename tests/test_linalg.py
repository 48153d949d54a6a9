import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_antisymmetric
from tenfold1d import (
    LagrangianPlane,
    SymplecticForm,
    Tolerances,
    canonical_split,
    dirac_form,
    pfaffian,
    principal_log_trace,
    subspace_intersection_dim,
    unitary_to_plane,
)
from tenfold1d.errors import (
    BranchCutHit,
    DimensionMismatch,
    NotAntisymmetric,
    NotHermitian,
    OddDimension,
    ZeroRank,
)
from tenfold1d.linalg import Frame, hermitian_eig, orthonormalize
from tenfold1d.symmetry import AntiUnitary, SymmetrySet, random_orthogonal, random_unitary
from tenfold1d.symplectic import LerayUnitary


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.rank_tol == 1e-9
        assert t.eig_tol == 1e-8
        assert t.frame_tol == 1e-10

    @pytest.mark.parametrize("field", ["rank_tol", "eig_tol", "frame_tol"])
    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0])
    def test_rejects_out_of_range(self, field, bad):
        with pytest.raises(ValueError):
            Tolerances(**{field: bad})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Tolerances().rank_tol = 1e-3


class TestFrame:
    def test_accepts_orthonormal(self, rng):
        q = random_unitary(5, rng)[:, :3]
        f = Frame(q)
        assert f.dim == 5 and f.rank == 3
        P = f.projector()
        assert np.allclose(P @ P, P)
        assert np.allclose(P @ q, q)

    def test_rejects_non_orthonormal(self, rng):
        with pytest.raises(ValueError):
            Frame(rng.standard_normal((4, 2)))

    def test_rank_zero_allowed(self):
        f = Frame(np.zeros((4, 0)))
        assert f.rank == 0
        assert np.allclose(f.projector(), 0.0)

    def test_wide_rejected(self):
        with pytest.raises(DimensionMismatch):
            Frame(np.eye(3)[:2, :])

    def test_read_only(self):
        f = Frame(np.eye(3))
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 2.0


class TestHermitianEig:
    def test_reconstructs(self, rng):
        X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A = X + X.conj().T
        evals, vecs = hermitian_eig(A)
        assert np.all(np.diff(evals) >= 0)
        assert np.allclose(vecs.matrix @ np.diag(evals) @ vecs.matrix.conj().T, A)

    def test_gate(self, rng):
        with pytest.raises(NotHermitian):
            hermitian_eig(rng.standard_normal((4, 4)) + 1j)


class TestOrthonormalize:
    def test_rank_truncation(self, rng):
        # rank-2 by construction: 5x2 times 2x4
        V = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        f = orthonormalize(V)
        assert f.rank == 2
        # span match: projector reproduces the columns
        assert np.allclose(f.projector() @ V, V)

    def test_zero_rank(self):
        with pytest.raises(ZeroRank):
            orthonormalize(np.zeros((4, 2)))
        with pytest.raises(ZeroRank):
            orthonormalize(np.zeros((4, 0)))


class TestIntersection:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_engineered_dimension(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        dim = data.draw(st.integers(2, 9))
        k = data.draw(st.integers(0, dim))
        p = data.draw(st.integers(0, dim - k))
        q = data.draw(st.integers(0, dim - k - p))
        if k + p == 0 or k + q == 0:
            return
        Q = random_unitary(dim, rng)
        f1 = Frame(Q[:, : k + p])
        f2 = Frame(np.hstack([Q[:, :k], Q[:, k + p : k + p + q]]))
        assert subspace_intersection_dim(f1, f2) == k

    def test_rank_zero(self):
        assert subspace_intersection_dim(Frame(np.zeros((3, 0))), Frame(np.eye(3))) == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_intersection_dim(Frame(np.eye(3)), Frame(np.eye(4)))


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0.0, 3.5], [-3.5, 0.0]]) == pytest.approx(3.5)
        assert pfaffian([[0.0, -2.0], [2.0, 0.0]]) == pytest.approx(-2.0)

    def test_four_by_four_closed_form(self, rng):
        a, b, c, d, e, f = rng.standard_normal(6)
        A = np.array([
            [0, a, b, c],
            [-a, 0, d, e],
            [-b, -d, 0, f],
            [-c, -e, -f, 0],
        ])
        assert pfaffian(A) == pytest.approx(a * f - b * e + c * d)

    def test_empty(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=40, deadline=None)
    def test_square_is_determinant(self, seed, n):
        A = random_antisymmetric(n, np.random.default_rng(seed))
        assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A), rel=1e-8)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
    @settings(max_examples=40, deadline=None)
    def test_congruence_covariance(self, seed, n):
        rng = np.random.default_rng(seed)
        A = random_antisymmetric(n, rng)
        B = rng.standard_normal((n, n))
        lhs = pfaffian(B @ A @ B.T)
        rhs = np.linalg.det(B) * pfaffian(A)
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            pfaffian(np.zeros((3, 3)))

    def test_gates(self, rng):
        with pytest.raises(NotAntisymmetric):
            pfaffian(np.eye(4))
        with pytest.raises(NotAntisymmetric):
            pfaffian(1j * random_antisymmetric(4, rng))

    def test_singular_input(self):
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = 1.0, -1.0
        assert pfaffian(A) == 0.0


class TestPrincipalLogTrace:
    def test_rotation_angles(self):
        # block rotations: principal log angles come in +/- pairs
        theta = 0.7
        R = np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        val = principal_log_trace(R)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_branch_cut(self):
        with pytest.raises(BranchCutHit):
            principal_log_trace(np.diag([-1.0, -1.0]))

    def test_gates(self, rng):
        with pytest.raises(ValueError):
            principal_log_trace(1j * np.eye(2))
        with pytest.raises(ValueError):
            principal_log_trace(2.0 * np.eye(2))

    def test_minus_one_pair_counts_half_turns(self, rng):
        # eigenvalues away from -1: exp(tr log / 2) = +1 for SO members
        O = random_orthogonal(6, rng)
        if np.linalg.det(O) < 0:
            O[:, 0] = -O[:, 0]
        lam = np.linalg.eigvals(O)
        if np.abs(lam + 1).min() > 1e-6:
            val = principal_log_trace(O)
            assert np.exp(0.5 * val) == pytest.approx(1.0, abs=1e-8)


# each entry point with a matrix holding one bad value, and the name it gives that matrix
_ENTRY_POINTS = {
    "Frame": (lambda x: Frame([[x]]), "frame"),
    "hermitian_eig": (lambda x: hermitian_eig([[x, 0.0], [0.0, 1.0]]), "A"),
    "pfaffian": (lambda x: pfaffian([[0.0, x], [-x, 0.0]]), "A"),
    "AntiUnitary": (lambda x: AntiUnitary([[x]], 1), "V"),
    "SymmetrySet": (lambda x: SymmetrySet(S=[[x]]), "S"),
    "SymplecticForm": (lambda x: SymplecticForm([[0.0, x], [-x, 0.0]]), "J"),
    "LerayUnitary": (lambda x: LerayUnitary([[x]], canonical_split(dirac_form(1))), "U"),
    "unitary_to_plane": (lambda x: unitary_to_plane([[x]], canonical_split(dirac_form(1))), "U"),
    "orthonormalize": (lambda x: orthonormalize([[x], [1.0]]), "vectors"),
    "LagrangianPlane": (lambda x: LagrangianPlane([[1.0], [x]], dirac_form(1)), "vectors"),
    "principal_log_trace": (lambda x: principal_log_trace([[x, 0.0], [0.0, 1.0]]), "O"),
}


@pytest.mark.parametrize("build, name, bad", [
    pytest.param(build, name, bad, id=entry + suffix)
    for entry, (build, name) in _ENTRY_POINTS.items()
    for bad, suffix in ((np.nan, ""), (np.inf, "-inf"))
])
def test_nan_input_fails_the_check(build, name, bad):
    # a NaN defect compares False against any limit, and NaN or inf reaches
    # numpy and LAPACK as a RuntimeWarning or a failed factorization, so each
    # entry point refuses non-finite entries before its checks
    with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
        build(bad)
