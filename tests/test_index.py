import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfold1d import (
    TOL,
    Tolerances,
    bulk_consistency_check,
    protected_bound,
    random_member,
    realizable_indices,
    topological_index,
)
from tenfold1d.errors import AmbiguousKernel, BadParity, KindMismatch, NotInClass
from tenfold1d.index import IndexValue, _index_each
from tenfold1d.symmetry import CartanClass, _members, membership, random_unitary


class TestIndexValue:
    def test_constructors(self):
        assert IndexValue.zero() == IndexValue("zero", 0)
        assert IndexValue.kernel_dim(3).value == 3
        assert IndexValue.sign(-1).value == -1

    def test_str(self):
        assert str(IndexValue.zero()) == "0"
        assert str(IndexValue.kernel_dim(2)) == "2"
        assert str(IndexValue.sign(1)) == "+1"
        assert str(IndexValue.sign(-1)) == "-1"

    @pytest.mark.parametrize(
        "kind, value",
        [("zero", 1), ("kernel_dim", -1), ("sign", 0), ("sign", 2), ("bogus", 0)],
    )
    def test_validation(self, kind, value):
        with pytest.raises(ValueError):
            IndexValue(kind, value)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            IndexValue.zero().value = 1


class TestTopologicalIndex:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_generator_pin(self, seed):
        rng = np.random.default_rng(seed)
        for label, n in (("AIII", 4), ("BDI", 3), ("CII", 4), ("D", 3), ("DIII", 4)):
            for want in realizable_indices(label, n):
                U = random_member(label, n, rng, index=want)
                got = topological_index(U, label)
                assert got.value == want, (label, want, got)

    def test_zero_classes(self, rng):
        for label, n in (("A", 3), ("AI", 3), ("AII", 4), ("C", 4), ("CI", 4)):
            U = random_member(label, n, rng)
            assert topological_index(U, label) == IndexValue.zero()

    def test_membership_gate(self, rng):
        U = random_unitary(3, rng)
        with pytest.raises(NotInClass):
            topological_index(U, "D")

    def test_det_snap_rejects_drift(self):
        # orthogonal up to 1e-5: passes membership at eig_tol but the
        # determinant is too far from +-1 to snap
        M = np.eye(2) * (1.0 + 1e-5)
        with pytest.raises(NotInClass):
            topological_index(M, "D", tol=Tolerances(eig_tol=1e-4))

    @pytest.mark.parametrize("offset", [1e-9 * np.outer(np.eye(4)[0], np.eye(4)[1]),
                                        1e-9j * np.eye(4)],
                             ids=["asymmetric_entry", "imaginary_part"])
    def test_diii_sign_within_membership_tolerance(self, rng, offset):
        # membership accepts U at eig_tol; the Pfaffian gates at the tighter frame_tol
        U = random_member("DIII", 4, rng, index=-1) + offset
        assert membership(U, "DIII")
        assert topological_index(U, "DIII").value == -1

    def test_guard_band_raises(self, rng):
        # hermitian unitary with an eigenvalue a hair off +1
        delta = 5e-8  # inside (eig_tol, 10 eig_tol]
        V = random_unitary(2, rng)
        lam = np.array([1.0 - delta, -1.0])
        M = (V * lam[None, :]) @ V.conj().T
        with pytest.raises(AmbiguousKernel):
            topological_index(M, "AIII")


ALL_CLASSES = ["A", "AIII", "AI", "BDI", "D", "DIII", "AII", "CII", "C", "CI"]


class TestNonFiniteInput:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", ALL_CLASSES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_plain_matrix_is_refused_before_the_parity_check(self, label, bad, n):
        # a real matrix with one non-finite entry: no numpy warning, no index,
        # and the finite check wins over an odd dimension's BadParity
        M = np.eye(n)
        M[0, -1] = bad
        for call in (topological_index, membership):
            with pytest.raises(ValueError, match="^U must have finite entries$") as exc:
                call(M, label)
            assert type(exc.value) is ValueError


class TestStackedIndex:
    @pytest.mark.parametrize("label", ALL_CLASSES)
    def test_stack_matches_one_point_calls(self, rng, label):
        # members with every realizable index, a non-member, and two kernel
        # eigenvalues in the guard band at different distances: each entry of
        # one stacked call is the index, or the error type and message, of
        # topological_index alone
        n = 4
        V = random_unitary(n, rng)
        stack = [random_member(label, n, rng, index=want) for want in realizable_indices(label, n)]
        stack += [random_unitary(n, rng)]
        stack += [(V * np.array([1.0 - delta, -1.0, 1.0, -1.0])) @ V.conj().T
                  for delta in (5e-8, 7e-8)]
        got = _index_each(np.array(stack, dtype=complex), label, TOL)
        for M, result in zip(stack, got):
            try:
                want = topological_index(M, label)
            except ValueError as exc:
                assert (type(result), str(result)) == (type(exc), str(exc))
            else:
                assert result == want
            assert membership(M, label) == (_members(np.array([M], dtype=complex),
                                                     CartanClass(label), TOL)[0])

    def test_odd_dimension_raises_for_the_stack(self):
        with pytest.raises(BadParity):
            _index_each(np.eye(3, dtype=complex)[None], "DIII", TOL)


class TestRelativeIndex:
    def test_kernel_difference(self):
        a = IndexValue.kernel_dim(1)
        b = IndexValue.kernel_dim(3)
        assert protected_bound("AIII", a, b) == 2
        assert protected_bound("AIII", b, a) == 2
        assert protected_bound("BDI", a, a) == 0

    def test_sign_mismatch(self):
        plus, minus = IndexValue.sign(1), IndexValue.sign(-1)
        assert protected_bound("D", plus, minus) == 1
        assert protected_bound("DIII", plus, plus) == 0

    def test_zero_classes(self):
        assert protected_bound("AI", IndexValue.zero(), IndexValue.zero()) == 0

    def test_kind_gate(self):
        with pytest.raises(KindMismatch):
            protected_bound("D", IndexValue.kernel_dim(1), IndexValue.sign(1))
        with pytest.raises(KindMismatch):
            protected_bound("A", IndexValue.sign(1), IndexValue.sign(1))


class TestBulkConsistency:
    def test_kernel_classes_sum_to_n(self):
        a, b = IndexValue.kernel_dim(1), IndexValue.kernel_dim(2)
        assert bulk_consistency_check("AIII", a, b, 3)
        assert not bulk_consistency_check("AIII", a, b, 4)

    def test_d_parity_flip(self):
        plus, minus = IndexValue.sign(1), IndexValue.sign(-1)
        assert bulk_consistency_check("D", plus, plus, 2)
        assert not bulk_consistency_check("D", plus, minus, 2)
        assert bulk_consistency_check("D", plus, minus, 3)

    def test_diii_half_parity_flip(self):
        plus, minus = IndexValue.sign(1), IndexValue.sign(-1)
        assert bulk_consistency_check("DIII", plus, plus, 4)
        assert bulk_consistency_check("DIII", plus, minus, 2)
        assert not bulk_consistency_check("DIII", plus, plus, 2)

    def test_zero_classes_always_pass(self):
        z = IndexValue.zero()
        assert bulk_consistency_check("C", z, z, 4)

    def test_kind_gate(self):
        with pytest.raises(KindMismatch):
            bulk_consistency_check("AIII", IndexValue.zero(), IndexValue.zero(), 2)
