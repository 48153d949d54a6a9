import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_form, random_plane
from tenfold1d import (
    LagrangianPlane,
    SymplecticForm,
    TOL,
    Tolerances,
    canonical_split,
    crossing_dim,
    dirac_form,
    plane_to_unitary,
    subspace_intersection_dim,
    unitary_to_plane,
)
from tenfold1d.errors import (
    DimensionMismatch,
    NoLagrangianPlanes,
    NotLagrangian,
    NotUnitary,
    ProjectionSingular,
    Singular,
    SplitMismatch,
)
from tenfold1d.linalg import Frame
from tenfold1d.symmetry import random_unitary
from tenfold1d.models import _schrodinger_form
from tenfold1d.symplectic import (
    LerayUnitary,
    _clusters,
    _leray_each,
    _pivots,
    _split,
    is_lagrangian,
)

SCHRODINGER_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _reference_basis(form, tol):
    """The splitting basis built cluster by cluster, one column at a time.

    Every cluster, one vector or more, takes the QR of its projector's
    pivoted columns; each column is then rotated so that its first entry
    within frame_tol (relative) of its largest modulus is real positive.
    """
    evals, V = np.linalg.eigh(-1j * form.J)
    pos = evals > 0.0
    gap = tol.eig_tol * max(1.0, float(np.abs(evals).max()))
    cols = []
    for a, B in ((evals[pos], V[:, pos]), (-evals[~pos][::-1], V[:, ~pos][:, ::-1])):
        start = 0
        for c in _clusters(a, gap):
            block = B[:, start : start + c]
            start += c
            P = block @ block.conj().T
            for q in np.linalg.qr(P[:, _pivots(P, c)])[0].T:
                m = np.abs(q)
                k = next(i for i in range(q.size) if m[i] >= (1.0 - tol.frame_tol) * m.max())
                cols.append(q * np.conj(q[k]) / abs(q[k]))
    return np.column_stack(cols)


class TestSymplecticForm:
    def test_norm_is_largest_singular_value(self):
        form = SymplecticForm(np.diag([3j, -3j, 1j, -1j]))
        assert form.norm == pytest.approx(3.0)

    def test_rejects_zero(self):
        with pytest.raises(Singular):
            SymplecticForm(np.zeros((2, 2)))

    def test_rejects_hermitian(self):
        with pytest.raises(ValueError):
            SymplecticForm(np.eye(2))

    def test_rejects_degenerate(self):
        with pytest.raises(Singular):
            SymplecticForm(np.diag([1j, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            SymplecticForm(np.zeros((0, 0)))

    def test_same_as(self, rng):
        J = random_form(1, rng).J
        a = SymplecticForm(J)
        b = SymplecticForm(J + 1e-13 * np.array([[0, 1], [-1, 0]]))
        assert a.same_as(b) and b.same_as(a)
        assert not a.same_as(SymplecticForm(2.0 * J))
        assert not a.same_as(SymplecticForm(np.diag([1j, 1j, -1j, -1j])))

    def test_read_only(self):
        form = SymplecticForm(SCHRODINGER_J)
        with pytest.raises(ValueError):
            form.J[0, 1] = 2.0


class TestCanonicalSplit:
    def test_dirac_form_is_already_split(self):
        # models._transport writes each segment's flow in this basis and
        # reads the crossing angles off unit blocks, so Q is exactly I
        for N in range(1, 7):
            split = canonical_split(dirac_form(N))
            assert split.n == N
            assert np.array_equal(split.Q, np.eye(2 * N))
            assert np.allclose(split.a_plus, 1.0)
            assert np.allclose(split.a_minus, 1.0)

    def test_derivative_pairing_split_basis(self):
        # -iJ = [[0, -i], [i, 0]] has eigenvectors (1, +-i)/sqrt(2)
        split = canonical_split(SymplecticForm(SCHRODINGER_J))
        want = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
        assert np.allclose(split.Q, want, atol=1e-12)
        assert np.allclose(split.a_plus, 1.0)
        assert np.allclose(split.a_minus, 1.0)

    def test_schrodinger_form_split_basis(self):
        # one degenerate cluster per block; the tie between the entries
        # 1 and +-i of each column goes to the first
        for M in range(1, 7):
            I = np.eye(M)
            want = np.block([[I, I], [1j * I, -1j * I]]) / np.sqrt(2.0)
            assert np.abs(canonical_split(_schrodinger_form(M)).Q - want).max() <= 1e-15

    def test_roundoff_does_not_pick_the_phase(self, rng):
        # every eigenvector entry of a 2x2 chain seam form has modulus
        # 1/sqrt(2); a seam one ulp away must get the same basis
        for _ in range(100):
            a = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1.0, 1.0)
            Q = [_split(SymplecticForm([[0.0, -b], [np.conj(b), 0.0]]), TOL).Q
                 for b in (a, a * (1.0 + 2.0**-52))]
            assert np.abs(Q[0] - Q[1]).max() <= 1e-15
            assert np.all(Q[0][0] > 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_projector_qr_reference(self, seed, n, planted):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, size=2 * n)
        if planted:
            # a degenerate cluster in each block, of random size and place
            for lo in (0, n):
                c = int(rng.integers(1, n + 1))
                i = lo + int(rng.integers(0, n - c + 1))
                a[i : i + c] = a[i]
        V = random_unitary(2 * n, rng)
        form = SymplecticForm(V @ np.diag(np.concatenate([1j * a[:n], -1j * a[n:]])) @ V.conj().T)
        assert np.abs(_split(form, TOL).Q - _reference_basis(form, TOL)).max() <= 1e-14

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_block_diagonalizes(self, seed, n):
        form = random_form(n, np.random.default_rng(seed))
        split = canonical_split(form)
        assert np.allclose(split.Q.conj().T @ split.Q, np.eye(2 * n), atol=1e-10)
        D = split.Q.conj().T @ form.J @ split.Q
        want = np.diag(np.concatenate([1j * split.a_plus, -1j * split.a_minus]))
        assert np.abs(D - want).max() <= 1e-9 * form.norm
        assert np.all(split.a_plus > 0) and np.all(split.a_minus > 0)
        assert np.all(np.diff(split.a_plus) >= 0)
        assert np.all(np.diff(split.a_minus) >= 0)

    def test_deterministic(self, rng):
        # degenerate blocks: eigh's inner basis is arbitrary, the split's is not
        V = random_unitary(4, rng)
        J = V @ np.diag([1j, 1j, -1j, -1j]) @ V.conj().T
        a = canonical_split(SymplecticForm(J))
        b = canonical_split(SymplecticForm(J.copy()))
        assert a.same_as(b)
        assert np.array_equal(a.Q, b.Q)

    def test_deterministic_uncached(self, rng):
        # both splits pick the cluster projectors' pivots outside canonical_split,
        # once more on J written in another basis of each degenerate block
        V = random_unitary(4, rng)
        J = V @ np.diag([1j, 1j, -1j, -1j]) @ V.conj().T
        a = _split(SymplecticForm(J), TOL)
        b = _split(SymplecticForm(J.copy()), TOL)
        assert a is not b and a.same_as(b)
        assert np.array_equal(a.Q, b.Q)
        R = np.zeros((4, 4), dtype=complex)
        R[:2, :2] = random_unitary(2, rng)
        R[2:, 2:] = random_unitary(2, rng)
        W = V @ R
        c = _split(SymplecticForm(W @ np.diag([1j, 1j, -1j, -1j]) @ W.conj().T), TOL)
        assert a.same_as(c)

    def test_pivots_are_lapacks(self, rng):
        # the greedy pivots against LAPACK's pivoted QR (geqp3) on cluster
        # projectors: rank c < n, the exact ties of an axis-aligned one included
        for t in range(200):
            n = int(rng.integers(2, 9))
            c = int(rng.integers(1, n))
            X = rng.standard_normal((n, c)) + 1j * rng.standard_normal((n, c))
            if t % 2:
                X = X.real
            if t % 5 == 0:
                X = np.eye(n)[:, rng.permutation(n)[:c]]
            B = np.linalg.qr(X)[0]
            P = B @ B.conj().T
            assert _pivots(P, c) == sla.qr(P, pivoting=True)[2][:c].tolist()

    def test_unbalanced_signature(self):
        with pytest.raises(NoLagrangianPlanes):
            canonical_split(SymplecticForm(np.diag([1j, 1j, -1j])))


class TestSplitCache:
    def test_equal_content_shares_one_split(self, rng):
        form = random_form(2, rng)
        split = canonical_split(form)
        assert canonical_split(form) is split
        assert canonical_split(form, Tolerances()) is split
        # a fresh form with equal entries is split afresh, to the same bits
        other = canonical_split(SymplecticForm(form.J.copy()))
        assert other is not split and other.form is not form
        for name in ("Q", "a_plus", "a_minus"):
            assert np.array_equal(getattr(other, name), getattr(split, name))

    def test_tolerances_are_part_of_the_key(self, rng):
        form = random_form(2, rng)
        loose = Tolerances(eig_tol=1e-6)
        split = canonical_split(form)
        other = canonical_split(form, loose)
        assert other is not split
        assert canonical_split(form, Tolerances(eig_tol=1e-6)) is other
        assert canonical_split(form, TOL) is split

    def test_threads_share_one_split_per_form(self, rng):
        forms = [random_form(1, rng) for _ in range(8)]
        seen = [[] for _ in forms]
        start = threading.Barrier(4, timeout=60)

        def work():
            start.wait()
            for _ in range(20):
                for i, form in enumerate(forms):
                    seen[i].append(canonical_split(form))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert [len(s) for s in seen] == [80] * len(forms)
        assert all(all(x is s[0] for x in s) for s in seen)
        assert all(s[0].form is form for s, form in zip(seen, forms))

    def test_split_is_freed_with_its_form(self, rng):
        form = random_form(2, rng)
        Q = weakref.ref(canonical_split(form).Q)
        assert Q() is not None
        del form
        gc.collect()
        assert Q() is None

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_cached_split_equals_uncached(self, seed, n):
        form = random_form(n, np.random.default_rng(seed))
        cached = canonical_split(form)
        fresh = _split(form, TOL)
        assert canonical_split(form) is cached and fresh is not cached
        for name in ("Q", "a_plus", "a_minus"):
            assert np.array_equal(getattr(cached, name), getattr(fresh, name))


class TestIsLagrangian:
    def test_graph_plane_passes(self, rng):
        split = canonical_split(random_form(3, rng))
        plane, _ = random_plane(split, rng)
        defect, ok = is_lagrangian(plane.frame, plane.form)
        assert ok and defect <= 1e-10

    def test_isotropic_but_not_maximal(self):
        # e1 is isotropic for the derivative pairing on C^4, but rank 1 < 2
        J = np.kron(SCHRODINGER_J, np.eye(2))
        form = SymplecticForm(J)
        defect, ok = is_lagrangian(Frame(np.eye(4)[:, :1]), form)
        assert defect <= 1e-15 and not ok

    def test_dimension_gate(self):
        with pytest.raises(DimensionMismatch):
            is_lagrangian(Frame(np.eye(3)), SymplecticForm(SCHRODINGER_J))

    def test_rank_zero(self):
        defect, ok = is_lagrangian(Frame(np.zeros((2, 0))), SymplecticForm(SCHRODINGER_J))
        assert defect == 0.0 and not ok


class TestLagrangianPlane:
    def test_orthonormalizes_raw_input(self):
        form = SymplecticForm(SCHRODINGER_J)
        plane = LagrangianPlane(np.array([[2.0], [0.0]]), form)
        assert plane.rank == 1 and plane.dim == 2
        assert np.allclose(np.abs(plane.frame.matrix[:, 0]), [1.0, 0.0])

    def test_rejects_non_isotropic(self):
        form = SymplecticForm(SCHRODINGER_J)
        with pytest.raises(NotLagrangian):
            LagrangianPlane(np.array([[1.0], [1j]]) / np.sqrt(2.0), form)


class TestLerayUnitary:
    def test_rejects_non_unitary(self, rng):
        split = canonical_split(random_form(2, rng))
        with pytest.raises(NotUnitary):
            LerayUnitary(np.ones((2, 2)), split)

    def test_rejects_wrong_size(self, rng):
        split = canonical_split(random_form(2, rng))
        with pytest.raises(DimensionMismatch):
            LerayUnitary(np.eye(3), split)

    def test_rejects_nan(self, rng):
        split = canonical_split(random_form(1, rng))
        with pytest.raises(ValueError, match="^U must have finite entries$"):
            LerayUnitary(np.array([[np.nan]]), split)

    def test_read_only(self, rng):
        split = canonical_split(random_form(1, rng))
        u = LerayUnitary(np.array([[1j]]), split)
        with pytest.raises(ValueError):
            u.U[0, 0] = 0.0

    def test_stacked_check_matches_one_at_a_time(self, rng):
        # one batched check gives each matrix the error type and message that
        # LerayUnitary raises for it alone, or the same read-only unitary
        split = canonical_split(random_form(2, rng))
        U = random_unitary(2, rng)
        off = U * np.sqrt([1.0 + 1e-6, 1.0])  # U*U - I = diag(1e-6, 0)
        stack = np.array([U, off, np.full((2, 2), np.nan), U])
        got = _leray_each(stack.copy(), split, TOL)
        for X, result in zip(stack, got):
            try:
                want = LerayUnitary(X, split)
            except ValueError as exc:
                assert (type(result), str(result)) == (type(exc), str(exc))
            else:
                assert isinstance(result, LerayUnitary) and result.split is split
                assert result.U.tobytes() == want.U.tobytes() and not result.U.flags.writeable
        assert [type(r) for r in got] == [LerayUnitary, NotUnitary, ValueError, LerayUnitary]
        assert str(got[1]) == "unitarity defect 1.000e-06"


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_unitary_plane_unitary(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(seed)
        split = canonical_split(random_form(n, rng))
        U = random_unitary(n, rng)
        plane = unitary_to_plane(U, split)
        assert plane.rank == n
        back = plane_to_unitary(plane, split)
        assert np.abs(back.U - U).max() <= 1e-10

    def test_wrapped_unitary_accepted(self, rng):
        split = canonical_split(random_form(2, rng))
        u = LerayUnitary(random_unitary(2, rng), split)
        plane = unitary_to_plane(u)
        assert np.abs(plane_to_unitary(plane, split).U - u.U).max() <= 1e-10

    def test_plain_matrix_needs_split(self, rng):
        with pytest.raises(ValueError):
            unitary_to_plane(random_unitary(2, rng))

    def test_decaying_free_particle_plane(self):
        # the trace (1, -1) of exp(-x) at energy -1 maps to U = -i
        split = canonical_split(SymplecticForm(SCHRODINGER_J))
        plane = unitary_to_plane(np.array([[-1j]]), split)
        v = plane.frame.matrix[:, 0]
        want = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.abs(np.outer(v, v.conj()) - np.outer(want, want)).max() <= 1e-12

    def test_form_mismatch_rejected(self, rng):
        split_a = canonical_split(random_form(2, rng))
        split_b = canonical_split(random_form(2, rng))
        plane = unitary_to_plane(random_unitary(2, rng), split_a)
        with pytest.raises(DimensionMismatch):
            plane_to_unitary(plane, split_b)


class TestProjectionSingular:
    def test_loose_rank_tolerance_flags_tangency(self):
        # exactly Lagrangian plane hugging the negative block: the graph
        # amplitude 1e-3 is fine at default tolerances but below a loose
        # rank cutoff, which must refuse rather than divide by it
        form = SymplecticForm(np.diag([1e6j, -1j]))
        split = canonical_split(form)
        eps = 1e-3
        v = np.array([[eps], [1.0]]) / np.sqrt(1.0 + eps**2)
        plane = LagrangianPlane(v, form)
        fine = plane_to_unitary(plane, split)
        assert np.abs(np.abs(fine.U[0, 0]) - 1.0) <= 1e-10
        loose = Tolerances(rank_tol=1e-2)
        with pytest.raises(ProjectionSingular):
            plane_to_unitary(plane, split, loose)


class TestCrossingDim:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_engineered_intersection(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(0, n))
        rng = np.random.default_rng(seed)
        split = canonical_split(random_form(n, rng))
        ua = random_unitary(n, rng)
        W = random_unitary(n, rng)
        phases = np.ones(n, dtype=complex)
        phases[k:] = np.exp(1j * rng.uniform(0.5, np.pi, n - k))
        ub = ua @ W @ np.diag(phases) @ W.conj().T
        got = crossing_dim(LerayUnitary(ua, split), LerayUnitary(ub, split))
        assert got == k

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_subspace_intersection(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(0, n))
        rng = np.random.default_rng(seed)
        split = canonical_split(random_form(n, rng))
        ua = random_unitary(n, rng)
        W = random_unitary(n, rng)
        phases = np.ones(n, dtype=complex)
        phases[k:] = np.exp(1j * rng.uniform(0.5, np.pi, n - k))
        ub = ua @ W @ np.diag(phases) @ W.conj().T
        pa = unitary_to_plane(ua, split)
        pb = unitary_to_plane(ub, split)
        direct = subspace_intersection_dim(pa.frame, pb.frame)
        assert crossing_dim(ua, ub) == direct == k

    def test_identical_planes(self, rng):
        split = canonical_split(random_form(3, rng))
        u = LerayUnitary(random_unitary(3, rng), split)
        assert crossing_dim(u, u) == 3

    def test_split_anchored_vs_bare(self, rng):
        split = canonical_split(random_form(2, rng))
        u = LerayUnitary(random_unitary(2, rng), split)
        with pytest.raises(SplitMismatch):
            crossing_dim(u, u.U)

    def test_different_splits(self, rng):
        sa = canonical_split(random_form(2, rng))
        sb = canonical_split(random_form(2, rng))
        U = random_unitary(2, rng)
        with pytest.raises(SplitMismatch):
            crossing_dim(LerayUnitary(U, sa), LerayUnitary(U, sb))

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            crossing_dim(random_unitary(2, rng), random_unitary(3, rng))

    def test_non_finite_bare_matrix_raises(self, rng):
        U = random_unitary(2, rng)
        U[0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            crossing_dim(U, random_unitary(2, rng))

    def test_empty_space_has_no_crossing(self):
        assert crossing_dim(np.zeros((0, 0)), np.zeros((0, 0))) == 0
