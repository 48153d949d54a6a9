import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfold1d import (
    canonical_split,
    canonical_symmetry_basis,
    membership,
    pfaffian,
    plane_respects,
    random_member,
    realizable_indices,
    unitary_to_plane,
)
from tenfold1d.errors import BadParity, DimensionMismatch, NotUnitary
from tenfold1d.symmetry import (
    AntiUnitary,
    CartanClass,
    SymmetrySet,
    random_orthogonal,
    random_symplectic_unitary,
    random_unitary,
    standard_omega,
)

ALL_LABELS = ["A", "AIII", "AI", "BDI", "D", "DIII", "AII", "CII", "C", "CI"]
EVEN_ONLY = {"DIII", "AII", "CII", "C", "CI"}


def even_dim(label: str, n: int) -> int:
    """Smallest dimension >= n admissible for the class."""
    if label in EVEN_ONLY and n % 2:
        return n + 1
    return n


class TestCartanClassEnum:
    def test_coerce(self):
        assert CartanClass.coerce("D") is CartanClass.D
        assert CartanClass.coerce(CartanClass.CI) is CartanClass.CI
        with pytest.raises(ValueError):
            CartanClass.coerce("E8")

    def test_signs(self):
        assert CartanClass.BDI.t_sign == 1 and CartanClass.BDI.c_sign == 1
        assert CartanClass.DIII.t_sign == -1 and CartanClass.DIII.c_sign == 1
        assert CartanClass.CII.t_sign == -1 and CartanClass.CII.c_sign == -1
        assert CartanClass.A.t_sign == 0 and CartanClass.A.c_sign == 0

    def test_chiral_flags(self):
        chiral = {label for label in ALL_LABELS if CartanClass(label).has_chiral}
        assert chiral == {"AIII", "BDI", "DIII", "CII", "CI"}

    def test_index_kinds(self):
        kinds = {label: CartanClass(label).index_kind for label in ALL_LABELS}
        assert kinds["AIII"] == kinds["BDI"] == kinds["CII"] == "kernel_dim"
        assert kinds["D"] == kinds["DIII"] == "sign"
        for label in ("A", "AI", "AII", "C", "CI"):
            assert kinds[label] == "zero"

    def test_parity_flags(self):
        assert {l for l in ALL_LABELS if CartanClass(l).needs_even_dim} == EVEN_ONLY

    def test_manifolds_named(self):
        for label in ALL_LABELS:
            c = CartanClass(label)
            assert c.manifold and isinstance(c.manifold, str)
            assert c.index_range and isinstance(c.index_range, str)


class TestAntiUnitary:
    def test_antilinear(self, rng):
        V = random_unitary(3, rng)
        a = AntiUnitary(V @ V.T, 1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(a.apply(1j * x), -1j * a.apply(x))

    def test_sign_checked(self, rng):
        V = random_unitary(2, rng)
        with pytest.raises(ValueError):
            AntiUnitary(V @ V.T, -1)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            AntiUnitary(2.0 * np.eye(2), 1)

    def test_rejects_bad_sign_value(self):
        with pytest.raises(ValueError):
            AntiUnitary(np.eye(2), 0)


class TestSymmetrySet:
    def test_dimension_gate(self):
        with pytest.raises(DimensionMismatch):
            SymmetrySet(T=AntiUnitary(np.eye(2), 1), S=np.eye(4))

    def test_s_must_be_involution(self):
        with pytest.raises(ValueError):
            SymmetrySet(S=np.diag([1.0, 1j]))


class TestCartanClassOf:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_canonical_basis_classifies(self, label):
        # the generators present, and the signs of their squares, are the class's
        cls = CartanClass(label)
        sym, _ = canonical_symmetry_basis(label, even_dim(label, 2))
        assert (0 if sym.T is None else sym.T.sign) == cls.t_sign
        assert (0 if sym.C is None else sym.C.sign) == cls.c_sign
        assert (sym.S is not None) == cls.has_chiral


class TestCanonicalBases:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_compatible_with_form(self, label):
        # T J̄ = J T, C J̄ = -J C and S J = -J S
        sym, form = canonical_symmetry_basis(label, even_dim(label, 2))
        J = form.J
        if sym.T is not None:
            assert np.abs(sym.T.V @ np.conj(J) - J @ sym.T.V).max() <= 1e-12
        if sym.C is not None:
            assert np.abs(sym.C.V @ np.conj(J) + J @ sym.C.V).max() <= 1e-12
        if sym.S is not None:
            assert np.abs(sym.S @ J + J @ sym.S).max() <= 1e-12

    @pytest.mark.parametrize("label", sorted(EVEN_ONLY))
    def test_odd_n_rejected(self, label):
        with pytest.raises(BadParity):
            canonical_symmetry_basis(label, 3)

    def test_positive_n_required(self):
        with pytest.raises(ValueError):
            canonical_symmetry_basis("A", 0)


class TestMembership:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_random_members_belong(self, label, rng):
        n = even_dim(label, 4)
        for _ in range(10):
            U = random_member(label, n, rng)
            assert np.abs(U.conj().T @ U - np.eye(n)).max() <= 1e-9
            assert membership(U, label)

    def test_bdi_sits_in_its_parents(self, rng):
        U = random_member("BDI", 4, rng)
        for parent in ("A", "AIII", "AI", "D"):
            assert membership(U, parent)

    def test_generic_unitary_is_only_class_a(self, rng):
        U = random_unitary(4, rng)
        assert membership(U, "A")
        for label in ("AIII", "AI", "BDI", "D", "DIII", "AII", "CII", "C", "CI"):
            assert not membership(U, label)

    def test_odd_dimension_rejected_for_even_classes(self, rng):
        for label in sorted(EVEN_ONLY):
            with pytest.raises(BadParity):
                membership(random_unitary(3, rng), label)


class TestSamplers:
    def test_orthogonal(self, rng):
        O = random_orthogonal(5, rng)
        assert np.abs(O.imag).max() == 0.0
        assert np.allclose(O.T @ O, np.eye(5), atol=1e-12)

    def test_symplectic(self, rng):
        U = random_symplectic_unitary(6, rng)
        Om = standard_omega(3)
        assert np.allclose(U.conj().T @ U, np.eye(6), atol=1e-12)
        assert np.abs(Om @ U - np.conj(U) @ Om).max() <= 1e-12

    def test_symplectic_odd_rejected(self, rng):
        with pytest.raises(BadParity):
            random_symplectic_unitary(3, rng)


class TestIndexControl:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_kernel_classes_pin_index(self, seed, n):
        rng = np.random.default_rng(seed)
        for label in ("AIII", "BDI"):
            for k in realizable_indices(label, n):
                U = random_member(label, n, rng, index=k)
                lam = np.linalg.eigvals(U)
                assert np.count_nonzero(np.abs(lam - 1.0) <= 1e-8) == k

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
    @settings(max_examples=15, deadline=None)
    def test_cii_pins_even_index(self, seed, n):
        rng = np.random.default_rng(seed)
        for k in realizable_indices("CII", n):
            U = random_member("CII", n, rng, index=k)
            lam = np.linalg.eigvals(U)
            assert np.count_nonzero(np.abs(lam - 1.0) <= 1e-8) == k
            assert membership(U, "CII")

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1]))
    @settings(max_examples=20, deadline=None)
    def test_d_pins_determinant(self, seed, s):
        U = random_member("D", 4, np.random.default_rng(seed), index=s)
        assert int(round(np.linalg.det(U).real)) == s

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1]))
    @settings(max_examples=20, deadline=None)
    def test_diii_pins_pfaffian(self, seed, s):
        U = random_member("DIII", 4, np.random.default_rng(seed), index=s)
        assert membership(U, "DIII")
        assert int(np.sign(pfaffian(U.real))) == s

    def test_realizable_values(self):
        assert realizable_indices("A", 3) == [0]
        assert realizable_indices("D", 5) == [1, -1]
        assert realizable_indices("AIII", 3) == [0, 1, 2, 3]
        assert realizable_indices("CII", 4) == [0, 2, 4]
        with pytest.raises(BadParity):
            realizable_indices("CII", 3)

    def test_index_arguments_validated(self, rng):
        with pytest.raises(ValueError):
            random_member("A", 2, rng, index=1)
        with pytest.raises(ValueError):
            random_member("AIII", 2, rng, index=5)
        with pytest.raises(ValueError):
            random_member("CII", 4, rng, index=3)


class TestPlaneRespects:
    def test_class_d_plane(self, rng):
        sym, form = canonical_symmetry_basis("D", 2)
        split = canonical_split(form)
        good = unitary_to_plane(random_member("D", 2, rng), split)
        assert plane_respects(good, sym).ok
        bad = unitary_to_plane(np.exp(0.25j * np.pi) * np.eye(2), split)
        assert not plane_respects(bad, sym).ok

    def test_chiral_plane(self, rng):
        sym, form = canonical_symmetry_basis("AIII", 2)
        split = canonical_split(form)
        good = unitary_to_plane(random_member("AIII", 2, rng), split)
        assert plane_respects(good, sym).ok

    def test_dimension_gate(self, rng):
        sym, _ = canonical_symmetry_basis("D", 2)
        _, form3 = canonical_symmetry_basis("D", 3)
        plane = unitary_to_plane(random_unitary(3, rng), canonical_split(form3))
        with pytest.raises(DimensionMismatch):
            plane_respects(plane, sym)

