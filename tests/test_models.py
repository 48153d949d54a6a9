import re
import time

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfold1d import (
    TOL,
    PiecewiseDiracProfile,
    TightBindingModel,
    Tolerances,
    canonical_split,
    crossing_dim,
    dirac_bulk,
    dirac_form,
    propagate_plane,
    schrodinger_bulk,
    subspace_intersection_dim,
    tb_bulk,
    topological_index,
    unitary_to_plane,
)
from tenfold1d.errors import (
    DimensionMismatch,
    GapClosed,
    NotHermitian,
    NotInGap,
    NotInvertible,
    NotLagrangian,
)
from tenfold1d import models
from tenfold1d.modelfile import ModelFile, build_bulk, build_stack
from tenfold1d.models import (
    BulkData,
    _schrodinger_form,
    _segment_flow,
    _transport,
    dirac_stack,
    schrodinger_stack,
    tb_form,
    tb_stack,
)
from tenfold1d.symplectic import is_lagrangian


def gapped_mass(n, rng, floor=0.5):
    """Random complex mass with smallest singular value at least floor."""
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    P, s, Qh = np.linalg.svd(X)
    return P @ np.diag(s + floor) @ Qh


SSH = TightBindingModel([np.array([[1.0]]), np.array([[2.0]])],
                        [np.zeros((1, 1)), np.zeros((1, 1))])


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda e: dirac_bulk(np.array([[1.0]]), energy=e),
        lambda e: schrodinger_bulk(np.array([[0.0]]), e),
        lambda e: tb_bulk(SSH, e),
    ],
    ids=["dirac", "schrodinger", "tight_binding"],
)
def test_non_finite_energy_rejected(build, energy):
    with pytest.raises(NotInGap, match="energy must be finite"):
        build(energy)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda x: dirac_bulk(np.array([[x]])), "W"),
        (lambda x: schrodinger_bulk(np.array([[x]]), -1.0), "V"),
        (lambda x: TightBindingModel([np.array([[x]])], [np.zeros((1, 1))]), "bond block a"),
        (lambda x: TightBindingModel([np.eye(1)], [np.array([[x]])]), "site block b"),
        (lambda x: PiecewiseDiracProfile([np.eye(1), np.array([[x]])], [0.0]), "mass"),
    ],
    ids=["dirac", "schrodinger", "bond", "site", "profile"],
)
def test_non_finite_matrix_rejected(build, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
        build(bad)


@pytest.mark.parametrize(
    "build, name",
    [
        (dirac_bulk, "W"),
        (lambda E: schrodinger_bulk(E, -1.0), "V"),
        (lambda E: tb_bulk(TightBindingModel([E], [E])), "bond block a"),
        (lambda E: tb_bulk(TightBindingModel([np.eye(1)], [E])), "site block b"),
        (lambda E: PiecewiseDiracProfile([E, E], [0.0]), "mass"),
    ],
    ids=["dirac", "schrodinger", "bond", "site", "profile"],
)
def test_empty_matrix_rejected(build, name):
    with pytest.raises(DimensionMismatch, match=rf"^{name} must be nonempty, got shape \(0, 0\)$"):
        build(np.zeros((0, 0)))


I1, Z1, I2, Z2 = np.eye(1), np.zeros((1, 1)), np.eye(2), np.zeros((2, 2))


def _chain(ab):
    return TightBindingModel(*ab)


def _profile(masses_breakpoints):
    return PiecewiseDiracProfile(*masses_breakpoints)


def _dirac(W):
    return dirac_bulk(W)


def _schrodinger(V):
    return schrodinger_bulk(V, -1.0)


# the stacked entrance of each one-point builder: the stack, a good point and the energy
STACKS = {_chain: (tb_stack, (SSH.a, SSH.b), 0.0), _dirac: (dirac_stack, I1, 0.0),
          _schrodinger: (schrodinger_stack, Z1, -1.0)}

REFUSALS = [pytest.param(*row[1:], id=row[0]) for row in [
    ("tb-counts", _chain, ([I1], [Z1, Z1]), DimensionMismatch,
     "need equally many bond and site blocks, got 1 and 2"),
    ("tb-empty", _chain, ([], []), DimensionMismatch,
     "need equally many bond and site blocks, got 0 and 0"),
    ("tb-mixed-bonds", _chain, ([I1, I2], [Z1, Z1]), DimensionMismatch,
     "all blocks must share one size"),
    ("tb-mixed-sites", _chain, ([I1, I1], [Z1, Z2]), DimensionMismatch,
     "all blocks must share one size"),
    ("tb-non-square-bond", _chain, ([np.ones((1, 2))], [Z1]), DimensionMismatch,
     "bond block a must be square, got shape (1, 2)"),
    ("tb-non-square-site", _chain, ([I1], [np.ones((2, 1))]), DimensionMismatch,
     "site block b must be square, got shape (2, 1)"),
    ("tb-1d-bond", _chain, ([I1, np.ones(1)], [Z1, Z1]), DimensionMismatch,
     "bond block a must be 2-d, got shape (1,)"),
    ("tb-empty-bond", _chain, ([I1, np.zeros((0, 0))], [Z1, Z1]), DimensionMismatch,
     "bond block a must be nonempty, got shape (0, 0)"),
    ("tb-nan-bond", _chain, ([I1, [[np.nan]]], [Z1, Z1]), ValueError,
     "bond block a must have finite entries"),
    ("tb-inf-site", _chain, ([I1, I1], [Z1, [[np.inf]]]), ValueError,
     "site block b must have finite entries"),
    ("tb-complex-site", _chain, ([I1, I1], [Z1, [[1j]]]), ValueError,
     "site blocks must be hermitian"),
    ("tb-non-hermitian-site", _chain, ([I2], [[[0.0, 1.0], [0.0, 0.0]]]), ValueError,
     "site blocks must be hermitian"),
    # precedence: every bond block, then every site block, then the counts, then the sizes
    ("tb-bond-first", _chain, ([[[np.nan]]], [np.zeros((0, 0))]), ValueError,
     "bond block a must have finite entries"),
    ("tb-site-before-counts", _chain, ([I1], [Z1, np.ones((1, 2))]), DimensionMismatch,
     "site block b must be square, got shape (1, 2)"),
    ("tb-counts-before-sizes", _chain, ([I1, I2], [Z1]), DimensionMismatch,
     "need equally many bond and site blocks, got 2 and 1"),
    ("tb-sizes-before-hermiticity", _chain, ([I1, I1], [Z2, [[1j, 0.0], [0.0, 0.0]]]),
     DimensionMismatch, "all blocks must share one size"),
    ("profile-counts", _profile, ([I1], [0.0]), DimensionMismatch,
     "1 masses need 0 breakpoints, got 1"),
    ("profile-empty", _profile, ([], []), DimensionMismatch,
     "0 masses need -1 breakpoints, got 0"),
    ("profile-mixed", _profile, ([I1, I2], [0.0]), DimensionMismatch,
     "all masses must share one size"),
    ("profile-non-square", _profile, ([I1, np.ones((1, 2))], [0.0]), DimensionMismatch,
     "mass must be square, got shape (1, 2)"),
    ("profile-empty-mass", _profile, ([I1, np.zeros((0, 0))], [0.0]), DimensionMismatch,
     "mass must be nonempty, got shape (0, 0)"),
    # precedence: the masses, then the counts, then the sizes, then the breakpoints
    ("profile-mass-before-counts", _profile, ([[[np.nan]]], [0.0]), ValueError,
     "mass must have finite entries"),
    ("profile-counts-before-sizes", _profile, ([I1, I2], [0.0, 1.0]), DimensionMismatch,
     "2 masses need 1 breakpoints, got 2"),
    ("profile-sizes-before-breakpoints", _profile, ([I1, I2], [np.nan]), DimensionMismatch,
     "all masses must share one size"),
    ("dirac-1d", _dirac, np.ones(1), DimensionMismatch, "W must be 2-d, got shape (1,)"),
    ("dirac-non-square", _dirac, np.ones((1, 2)), DimensionMismatch,
     "W must be square, got shape (1, 2)"),
    ("dirac-empty", _dirac, np.zeros((0, 0)), DimensionMismatch,
     "W must be nonempty, got shape (0, 0)"),
    ("dirac-nan", _dirac, [[np.nan]], ValueError, "W must have finite entries"),
    ("schrodinger-non-square", _schrodinger, np.ones((2, 1)), DimensionMismatch,
     "V must be square, got shape (2, 1)"),
    ("schrodinger-empty", _schrodinger, np.zeros((0, 0)), DimensionMismatch,
     "V must be nonempty, got shape (0, 0)"),
    ("schrodinger-inf", _schrodinger, [[np.inf]], ValueError, "V must have finite entries"),
    ("schrodinger-complex", _schrodinger, [[1j]], NotHermitian,
     "hermiticity defect 2.000e+00 at scale 1.000e+00"),
    ("schrodinger-non-hermitian", _schrodinger, [[0.0, 4.0], [0.0, 0.0]], NotHermitian,
     "hermiticity defect 4.000e+00 at scale 4.000e+00"),
]]


@pytest.mark.parametrize("build, point, error, message", REFUSALS)
def test_model_ingestion_refusals(build, point, error, message):
    # each stack is checked whole; a refused one raises what its first bad block raises alone
    with pytest.raises(error) as info:
        build(point)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("build, point, error, message",
                         [p for p in REFUSALS if p.values[0] in STACKS])
def test_stacked_ingestion_refusals(build, point, error, message):
    # second in its family's stack, after a good point, a refused point gets the
    # error it raises alone, whether the stack is then checked whole or point by point
    stack, good, energy = STACKS[build]
    got = stack([good, point], [energy, energy])
    assert isinstance(got[0], BulkData)
    assert type(got[1]) is error and str(got[1]) == message


class TestStoredStacks:
    def test_chain_blocks_are_read_only_copies(self):
        a, b = [np.eye(2), 2.0 * np.eye(2)], [np.zeros((2, 2)), np.eye(2)]
        m = TightBindingModel(a, b)
        a[0][0, 0] = b[1][0, 0] = 7.0
        for stack, want in ((m.a, [np.eye(2), 2.0 * np.eye(2)]),
                            (m.b, [np.zeros((2, 2)), np.eye(2)])):
            assert stack.shape == (2, 2, 2) and stack.dtype == complex
            assert np.array_equal(stack, want)
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.site(1)[0, 0] = 1.0

    def test_profile_masses_are_read_only_copies(self):
        masses = np.array([[[-1.0]], [[2.0]]])
        p = PiecewiseDiracProfile(masses, [0.0])
        masses[0, 0, 0] = 5.0
        assert p.masses.shape == (2, 1, 1) and p.masses[0, 0, 0] == -1.0
        with pytest.raises(ValueError, match="read-only"):
            p.mass_at(1.0)[0, 0] = 1.0


class TestSharedForms:
    def test_one_dirac_form_per_n(self):
        assert dirac_form(2) is dirac_form(2)
        assert dirac_form(2) is not dirac_form(3)
        assert dirac_bulk(np.eye(2)).split is dirac_bulk(-np.eye(2), energy=0.3).split

    def test_one_schrodinger_form_per_m(self):
        a = schrodinger_bulk(np.diag([1.0, 2.0]), 0.0)
        b = schrodinger_bulk(np.array([[3.0, 0.5], [0.5, 2.0]]), -1.0)
        assert a.form is b.form and a.split is b.split
        assert a.form is not schrodinger_bulk(np.eye(3), 0.0).form
        assert not a.form.J.flags.writeable

    def test_equal_seam_bonds_share_one_split(self):
        other = TightBindingModel([np.array([[1.0]]), np.array([[3.0]])],
                                  [np.zeros((1, 1)), np.ones((1, 1))])
        # equal seam bonds share one form of the traces (psi_0, psi_1)
        assert tb_bulk(SSH).form is tb_bulk(other).form is tb_form(SSH) is tb_form(other)
        assert not tb_form(SSH).J.flags.writeable
        # one bit of a0 apart is another form
        nudged = TightBindingModel([np.array([[np.nextafter(1.0, 2.0)]]), np.array([[3.0]])],
                                   [np.zeros((1, 1)), np.ones((1, 1))])
        assert tb_bulk(nudged).form is tb_form(nudged) is not tb_form(SSH)
        assert tb_form(SSH, Tolerances(frame_tol=1e-11)) is not tb_form(SSH)
        # every chain of block size N has its unitaries in the unit split of the traces y
        unit = canonical_split(dirac_form(1))
        assert tb_bulk(SSH).split is tb_bulk(other).split is tb_bulk(nudged).split is unit
        assert tb_bulk(TightBindingModel([I2], [Z2]), 3.0).split is canonical_split(dirac_form(2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_forms_rest_on_these_splits(self, n):
        # dirac_bulk and _transport read their unitaries off Q = I with unit
        # blocks, schrodinger_bulk off Q = [[I, I], [iI, -iI]]/sqrt(2)
        dirac = canonical_split(dirac_form(n))
        assert np.array_equal(dirac.Q, np.eye(2 * n))
        assert np.array_equal(dirac.a_plus, np.ones(n))
        assert np.array_equal(dirac.a_minus, np.ones(n))
        schrodinger = canonical_split(_schrodinger_form(n))
        want = np.kron(np.array([[1.0, 1.0], [1j, -1j]]), np.eye(n)) / np.sqrt(2.0)
        assert np.abs(schrodinger.Q - want).max() <= 1e-15
        assert np.abs(schrodinger.a_plus - 1.0).max() <= 1e-15
        assert np.abs(schrodinger.a_minus - 1.0).max() <= 1e-15


class TestDiracBulk:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_zero_energy_polar_oracle(self, seed, n):
        # the decaying plane's unitary is the conjugate polar factor of W
        rng = np.random.default_rng(seed)
        W = gapped_mass(n, rng)
        P, s, Qh = np.linalg.svd(W)
        want = Qh.conj().T @ P.conj().T
        bulk = dirac_bulk(W)
        assert np.abs(bulk.u_plus.U - want).max() <= 1e-10
        assert np.abs(bulk.u_minus.U + want).max() <= 1e-10
        assert bulk.gap == pytest.approx(s[-1], abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_zero_energy_shortcut_matches_schur_path(self, seed, n):
        # the planes are continuous in the energy: E = 1e-12 rotates the
        # lower halves of the E = 0 eigenvectors by phases within 1e-11 of 1
        W = gapped_mass(n, np.random.default_rng(seed), floor=0.1)
        zero = dirac_bulk(W)
        near = dirac_bulk(W, energy=1e-12)
        assert np.abs(zero.u_plus.U - near.u_plus.U).max() <= 1e-9
        assert np.abs(zero.u_minus.U - near.u_minus.U).max() <= 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_gap_matches_flat_mass_spectrum(self, seed, n):
        rng = np.random.default_rng(seed)
        W = gapped_mass(n, rng)
        N = W.shape[0]
        A = np.zeros((2 * N, 2 * N), dtype=complex)
        A[:N, N:] = W
        A[N:, :N] = W.conj().T
        want = float(np.abs(np.linalg.eigvalsh(A)).min())
        assert dirac_bulk(W).gap == pytest.approx(want, abs=1e-12)

    def test_scalar_mass_energy_family(self):
        # W = 1: the decaying unitary at energy E is sqrt(1 - E^2) + iE
        for E in (0.0, 0.3, -0.7):
            bulk = dirac_bulk(np.array([[1.0]]), energy=E)
            want = np.sqrt(1.0 - E * E) + 1j * E
            assert abs(bulk.u_plus.U[0, 0] - want) <= 1e-12
            assert bulk.gap == pytest.approx(1.0 - abs(E))

    def test_scalar_signs_give_opposite_indices(self):
        plus = dirac_bulk(np.array([[1.0]]))
        minus = dirac_bulk(np.array([[-1.0]]))
        assert topological_index(plus.u_plus, "AIII").value == 1
        assert topological_index(minus.u_plus, "AIII").value == 0
        assert topological_index(plus.u_plus, "D").value == 1
        assert topological_index(minus.u_plus, "D").value == -1

    @pytest.mark.parametrize("top, edge", [(1e7, False), (1e8, True)])
    def test_ill_conditioned_mass_matches_its_factors(self, top, edge):
        # W = P diag(1, 3, 1e4, top) Q*: its unitaries are Q diag(c) P* to
        # about eps s0/m0, at E = 0 and 1.5e-9 inside the gap's edge
        for seed in range(20):
            rng = np.random.default_rng(seed)
            P, Q = (np.linalg.qr(rng.standard_normal((4, 4))
                                 + 1j * rng.standard_normal((4, 4)))[0] for _ in range(2))
            s = np.array([1.0, 3.0, 1e4, top])
            W = (P * s) @ Q.conj().T
            E = 0.0
            if edge:
                # m0 as dirac_bulk computes it, which W's roundoff moves by ~1e-9
                s[0] = np.linalg.svd(W)[1][-1]
                E = s[0] - 1.5e-9
            k = np.sqrt((s - E) * (s + E))
            bulk = dirac_bulk(W, energy=E)
            tol = 10.0 * np.finfo(float).eps * top
            assert np.abs(bulk.u_plus.U - (Q * ((k + 1j * E) / s)) @ P.conj().T).max() <= tol
            assert np.abs(bulk.u_minus.U - (Q * ((1j * E - k) / s)) @ P.conj().T).max() <= tol

    def test_singular_mass_rejected(self):
        with pytest.raises(GapClosed):
            dirac_bulk(np.diag([1.0, 0.0]))

    def test_energy_outside_gap_rejected(self):
        with pytest.raises(GapClosed):
            dirac_bulk(np.array([[1.0]]), energy=1.0)
        with pytest.raises(GapClosed):
            dirac_bulk(np.array([[0.5]]), energy=-0.7)
        # both numbers print as their round-trip repr, which six digits would show as 1 and 1
        with pytest.raises(GapClosed) as info:
            dirac_bulk([[1.0]], energy=0.999999999)
        assert str(info.value) == "energy 0.999999999 is not inside the gap (m0 = 1.0)"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans(),
           st.floats(-0.95, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_planes_are_generator_eigenspaces(self, seed, n, orthogonal, ratio):
        # W = c O repeats every singular value; energies span 95% of the gap
        rng = np.random.default_rng(seed)
        if orthogonal:
            W = rng.uniform(0.5, 2.0) * np.linalg.qr(rng.standard_normal((n, n)))[0]
        else:
            W = gapped_mass(n, rng)
        E = ratio * np.linalg.svd(W, compute_uv=False)[-1]
        bulk = dirac_bulk(W, energy=E)
        B = np.block([[1j * E * np.eye(n), -W], [-W.conj().T, -1j * E * np.eye(n)]])
        lam, vecs = np.linalg.eig(B)
        for plane, side in ((bulk.plane_plus, lam.real < 0), (bulk.plane_minus, lam.real > 0)):
            assert np.count_nonzero(side) == n
            want = np.linalg.qr(vecs[:, side])[0]
            assert sla.subspace_angles(plane.frame.matrix, want).max() <= 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_nonzero_energy_planes_are_lagrangian(self, seed, n):
        rng = np.random.default_rng(seed)
        W = gapped_mass(n, rng, floor=1.0)
        bulk = dirac_bulk(W, energy=0.4)
        for plane in (bulk.plane_plus, bulk.plane_minus):
            defect, ok = is_lagrangian(plane.frame, bulk.form)
            assert ok, defect
        assert crossing_dim(bulk.u_plus, bulk.u_minus) == 0


class TestSchrodingerBulk:
    def test_free_particle_below_spectrum(self):
        bulk = schrodinger_bulk(np.array([[0.0]]), energy=-1.0)
        assert abs(bulk.u_plus.U[0, 0] + 1j) <= 1e-12
        assert bulk.gap == pytest.approx(1.0)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_scalar_cayley_formula(self, v, depth):
        # decaying slope -kappa maps to U = (1 - i kappa)/(1 + i kappa)
        E = v - depth
        kappa = np.sqrt(depth)
        bulk = schrodinger_bulk(np.array([[v]]), energy=E)
        want = (1.0 - 1j * kappa) / (1.0 + 1j * kappa)
        assert abs(bulk.u_plus.U[0, 0] - want) <= 1e-10

    def test_matrix_potential(self, rng):
        X = rng.standard_normal((3, 3))
        V = X + X.T
        E = float(np.linalg.eigvalsh(V)[0]) - 2.0
        bulk = schrodinger_bulk(V, energy=E)
        assert bulk.gap == pytest.approx(2.0, abs=1e-9)
        defect, ok = is_lagrangian(bulk.plane_plus.frame, bulk.form)
        assert ok
        assert crossing_dim(bulk.u_plus, bulk.u_minus) == 0

    def test_energy_in_spectrum_rejected(self):
        with pytest.raises(NotInGap):
            schrodinger_bulk(np.array([[0.0]]), energy=1.0)
        with pytest.raises(NotInGap) as info:
            schrodinger_bulk([[1.0]], 0.9999999999)
        assert str(info.value) == "energy 0.9999999999 is not below the spectrum bottom 1.0"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(0.01, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_planes_hold_the_decaying_slopes(self, seed, m, depth):
        # the decaying traces are (v, -kappa v) along each eigenvector v of V
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        mu, Vm = np.linalg.eigh(X + X.conj().T)
        E = float(mu[0]) - depth
        bulk = schrodinger_bulk(X + X.conj().T, energy=E)
        kappa = np.sqrt(mu - E)
        for plane, slope in ((bulk.plane_plus, -kappa), (bulk.plane_minus, kappa)):
            want = np.linalg.qr(np.vstack([Vm, Vm * slope]))[0]
            assert sla.subspace_angles(plane.frame.matrix, want).max() <= 1e-9


class TestSegmentFlow:
    @pytest.mark.parametrize(
        "W, E, length, sign",
        [
            (gapped_mass(3, np.random.default_rng(3), floor=1.0), 0.4, 2.3, 1),
            (gapped_mass(3, np.random.default_rng(4), floor=0.1), -1.2, -1.7, -1),
            (np.diag([0.5, 2.0]), -0.5, 0.9, 0),
        ],
        ids=["gapped", "gapless", "kappa_zero"],
    )
    def test_matches_expm(self, W, E, length, sign):
        # psi' = B psi with B = [[iE, -W], [-W*, -iE]], at most e^4 growth per sub-step
        n = W.shape[0]
        # every singular value above |E|, one below it, or one equal to it exactly
        assert np.sign(np.linalg.svd(W)[1] - abs(E)).min() == sign
        B = np.block([[1j * E * np.eye(n), -W], [-W.conj().T, -1j * E * np.eye(n)]])
        [nsub], *stacks = _segment_flow(W[None], E, np.array([length]))
        blocks = [stack[0] for stack in stacks]
        assert nsub == max(1, int(np.ceil(abs(length) * np.linalg.norm(B, 2) / 4.0)))
        want = sla.expm(B * (length / nsub))
        # the four N x N blocks P11, P12, P21, P22 of the flow
        want_blocks = [want[:n, :n], want[:n, n:], want[n:, :n], want[n:, n:]]
        assert [b.shape for b in blocks] == [(n, n)] * 4
        for got, block in zip(blocks, want_blocks):
            assert np.abs(got - block).max() <= 1e-13 * np.abs(want).max()


class TestTightBindingModel:
    def test_block_count_gate(self):
        with pytest.raises(DimensionMismatch):
            TightBindingModel([np.eye(1)], [np.zeros((1, 1)), np.zeros((1, 1))])

    def test_blocks_share_one_size(self):
        with pytest.raises(DimensionMismatch, match="^all blocks must share one size$"):
            TightBindingModel([np.eye(1)], [np.zeros((2, 2))])

    def test_site_blocks_must_be_hermitian(self):
        with pytest.raises(ValueError):
            TightBindingModel([np.eye(1)], [np.array([[1j]])])

    def test_periodic_indexing(self):
        a = [np.array([[1.0]]), np.array([[2.0]])]
        b = [np.array([[0.0]]), np.array([[0.5]])]
        m = TightBindingModel(a, b)
        assert m.period == 2 and m.block_dim == 1
        assert m.bond(2)[0, 0] == 1.0 and m.bond(3)[0, 0] == 2.0
        assert m.site(-1)[0, 0] == 0.5

    def test_singular_bond_rejected(self):
        m = TightBindingModel([np.zeros((1, 1))], [np.zeros((1, 1))])
        with pytest.raises(NotInvertible):
            tb_bulk(m)

    def test_uniform_chain_band_is_gapless(self):
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        for E in (0.0, 1.5, -2.0):
            with pytest.raises(GapClosed):
                tb_bulk(m, energy=E)

    def test_uniform_chain_decaying_solution(self):
        # above the band the decaying solution is psi_n = r^n with
        # r + 1/r = E and |r| < 1
        m = TightBindingModel([np.eye(1)], [np.zeros((1, 1))])
        for E in (3.0, -2.5):
            bulk = tb_bulk(m, energy=E)
            r = (E - np.sign(E) * np.sqrt(E * E - 4.0)) / 2.0
            assert abs(r) < 1.0
            # read back in (psi_0, psi_1): the right plane is spanned by (1, r), the left by (1, 1/r)
            for plane, ratio in ((bulk.plane_plus, r), (bulk.plane_minus, 1.0 / r)):
                assert plane.form is bulk.form
                assert sla.subspace_angles(plane.frame.matrix, np.array([[1.0], [ratio]])).max() <= 1e-10

    def test_dimerized_chain_indices(self):
        # alternating bonds v, w: the zero-energy invariant counts the
        # weak-bond termination, so v < w carries index 1 and v > w index 0
        z = [np.zeros((1, 1)), np.zeros((1, 1))]
        topo = TightBindingModel([np.array([[1.0]]), np.array([[2.0]])], z)
        triv = TightBindingModel([np.array([[2.0]]), np.array([[1.0]])], z)
        b_topo, b_triv = tb_bulk(topo), tb_bulk(triv)
        assert topological_index(b_topo.u_plus, "BDI").value == 1
        assert topological_index(b_triv.u_plus, "BDI").value == 0
        assert b_topo.gap > 0 and b_triv.gap > 0

    def test_period_40_supercell_splits(self):
        # the period's transfer matrix grows like 2^20 in both directions,
        # far past 1/rank_tol, yet double precision splits it cleanly
        a = [np.array([[1.0 if n % 2 == 0 else 2.0]]) for n in range(40)]
        bulk = tb_bulk(TightBindingModel(a, [np.zeros((1, 1))] * 40))
        assert topological_index(bulk.u_plus, "BDI").value == 1
        assert topological_index(bulk.u_minus, "BDI").value == 0

    def test_gapless_chain_does_not_converge(self):
        # at a0 = a1 the SSH chain is gapless at E = 0: its period transmits
        # fully however often it is doubled, alone and among gapped points
        gapless = TightBindingModel([np.array([[1.0]])] * 2, [np.zeros((1, 1))] * 2)
        message = f"period still transmits |t| = 1.000e+00 after {models._SQUARINGS} squarings"
        with pytest.raises(GapClosed, match=r"^" + re.escape(message) + " at energy 0$"):
            tb_bulk(gapless)
        got = tb_stack([(SSH.a, SSH.b), (gapless.a, gapless.b), (SSH.a, SSH.b)], [0.0, 0.0, 0.3])
        assert type(got[1]) is GapClosed and str(got[1]).startswith(message)
        for j, energy in ((0, 0.0), (2, 0.3)):
            want = tb_bulk(SSH, energy)
            assert got[j].u_plus.U.tobytes() == want.u_plus.U.tobytes()
            assert got[j].u_minus.U.tobytes() == want.u_minus.U.tobytes()
            assert got[j].gap == want.gap

    def test_form_uses_trace_bond(self):
        m = TightBindingModel(
            [np.array([[2.0]]), np.array([[1.0]])],
            [np.zeros((1, 1)), np.zeros((1, 1))],
        )
        J = tb_form(m).J
        assert J[0, 1] == -2.0 and J[1, 0] == 2.0


def ssh_supercell(t1, t2, q):
    """Bonds alternating t1, t2 over a period-q cell, zero sites."""
    a = [np.array([[t1 if n % 2 == 0 else t2]]) for n in range(q)]
    return TightBindingModel(a, [np.zeros((1, 1))] * q)


def transfer_reference(model, energy):
    """The period's transfer product, its gap and its sorted Schur frames.

    Multiplies the q site transfers on (psi_{n-1}, psi_n) into one
    matrix M, then takes the stable (|lambda| < 1) and unstable frames
    of M on (psi_0, psi_1). Returns log cond M, the gap, the parent-style
    closed flag, and the two frames (None when closed).
    """
    N = model.block_dim
    M = np.eye(2 * N, dtype=complex)
    for n in range(1, model.period + 1):
        low_left = -np.linalg.solve(model.bond(n), model.bond(n - 1).conj().T)
        low_right = np.linalg.solve(model.bond(n), energy * np.eye(N) - model.site(n))
        M = np.block([[np.zeros((N, N)), np.eye(N)], [low_left, low_right]]) @ M
    s = np.linalg.svd(M, compute_uv=False)
    lam = np.linalg.eigvals(M)
    gap = float(np.abs(np.abs(lam) - 1.0).min())
    closed = gap <= 10.0 * np.sqrt(np.finfo(float).eps) * max(1.0, float(np.abs(lam).max()))
    if closed:
        return float(np.log(s[0] / s[-1])), gap, True, None
    frames = []
    for inside in (True, False):
        _, Z, k = sla.schur(M, output="complex", sort=lambda z: (abs(z) < 1.0) == inside)
        assert k == N
        frames.append(Z[:, :N])
    return float(np.log(s[0] / s[-1])), gap, False, frames


def unitary_in_traces(model, Z):
    """The map U with U y+ = y- of a frame Z on (psi_0, psi_1), in the traces y = K(psi_0, a0 psi_1).

    K = [[I, iI], [I, -iI]]/sqrt(2), whose form is i diag(I, -I) with the identity split.
    """
    N = model.block_dim
    K = np.kron(np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0), np.eye(N))
    Y = K @ np.vstack([Z[:N], model.bond(0) @ Z[N:]])
    return np.linalg.solve(Y[:N].T, Y[N:].T).T


def potapov_ginzburg_site(a, b, energy):
    """One site's scattering matrix by the site transfer: the reference for ``models._sites``.

    The site maps (u, w) = (psi_{n-1}, a psi_n) to (psi_n, a_n psi_{n+1})
    by T = [[0, a^-1], [-a*, (E - b) a^-1]]. In the traces y = K(u, w)
    it is K T K*, which takes (y+, y-) to (y+', y-'), and the Potapov-
    Ginzburg transform turns it into S, which takes (y+, y-') to
    (y+', y-). Returns S and K T K*.
    """
    N = a.shape[0]
    a_inv = np.linalg.inv(a)
    T = np.block([[np.zeros((N, N)), a_inv], [-a.conj().T, (energy * np.eye(N) - b) @ a_inv]])
    K = np.kron(np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0), np.eye(N))
    T = K @ T @ K.conj().T
    d = np.linalg.inv(T[N:, N:])
    r = -d @ T[N:, :N]
    return np.block([[T[:N, :N] + T[:N, N:] @ r, T[:N, N:] @ d], [r, d]]), T


def bloch_bands(model, k):
    """Bloch energies at quasi-momentum k over one period."""
    N, q = model.block_dim, model.period
    H = np.zeros((q * N, q * N), dtype=complex)
    for n in range(q):
        i, j = n * N, ((n + 1) % q) * N
        phase = np.exp(1j * k) if n == q - 1 else 1.0
        H[i:i + N, i:i + N] += model.site(n)
        H[i:i + N, j:j + N] += model.bond(n) * phase
        H[j:j + N, i:i + N] += (model.bond(n) * phase).conj().T
    return np.linalg.eigvalsh(H)


class TestChainComposition:
    """Chains composed site by site: long periods that a period product
    could not split, and agreement with that product where it can."""

    def test_period_20_ssh_probe(self):
        bulk = tb_bulk(ssh_supercell(1.0, 5.0, 20))
        assert topological_index(bulk.u_plus, "BDI").value == 1
        assert topological_index(bulk.u_minus, "BDI").value == 0
        assert bulk.gap == pytest.approx(1.0 - 5.0 ** -10, rel=1e-12)

    @pytest.mark.parametrize("t1, t2, q", [
        (1.4605357415087759, 0.6073447654913633, 36),
        (1.376402150515517, 0.5205749957148794, 38),
        (1.4256715932471313, 0.5594105831390664, 38),
        (1.353743747735725, 0.5356172588497331, 34),
    ])
    def test_census_supercells(self, t1, t2, q):
        bulk = tb_bulk(ssh_supercell(t1, t2, q))
        assert topological_index(bulk.u_plus, "BDI").value == 0
        assert topological_index(bulk.u_minus, "BDI").value == 1

    def test_period_2000_under_a_second(self):
        start = time.perf_counter()
        bulk = tb_bulk(ssh_supercell(1.0, 1.001, 2000))
        assert time.perf_counter() - start < 1.0
        assert bulk.gap == pytest.approx(1.0 - np.exp(-1000.0 * np.log(1.001)), rel=1e-9)
        assert topological_index(bulk.u_plus, "BDI").value == 1

    @pytest.mark.parametrize("ratio", [
        324953.80354723748, 892203.03516789281, 2196821.2655156516, 7367506.1261530174,
    ])
    def test_strong_seam_bond_answers(self, ratio):
        # a seam bond 10^5-10^7 times the other is a trivial SSH chain (ROADMAP
        # item 11); the bases [I; r] of the doubled period keep its planes unitary
        model = TightBindingModel([np.array([[ratio]]), np.array([[1.0]])],
                                  [np.zeros((1, 1)), np.zeros((1, 1))])
        bulk = tb_bulk(model)
        assert topological_index(bulk.u_plus, "BDI").value == 0
        assert topological_index(bulk.u_minus, "BDI").value == 1

    def test_seam_bond_5e16_answers(self):
        # a seam bond 5e16 times the other made the graph solve in tb_form's
        # split exactly singular; in the traces y it is a trivial SSH chain
        model = TightBindingModel([np.array([[5e16]]), np.array([[1.0]])],
                                  [np.zeros((1, 1)), np.zeros((1, 1))])
        got = tb_stack([(model.a, model.b), (SSH.a, SSH.b)], [0.0, 0.0])
        for bulk in (tb_bulk(model), got[0]):
            assert topological_index(bulk.u_plus, "BDI").value == 0
            assert topological_index(bulk.u_minus, "BDI").value == 1
        assert got[1].u_plus.U.tobytes() == tb_bulk(SSH).u_plus.U.tobytes()

    def test_strong_seam_probe(self):
        # the strong-seam probe over its three ranges: SSH chains at E = 0 whose
        # a0/a1 one default_rng(1) draws log-uniform in [1e5, 1e6), [1e6, 1e7), then
        # [1e15, 1e17); every chain answers BDI index 0 on the right and 1 on the left.
        # The draw holds the three ratios named below, at which a site transfer that
        # holds both a0^-1 and a0* stops being unitary
        rng = np.random.default_rng(1)
        ratios = np.concatenate([10.0 ** rng.uniform(lo, hi, 100)
                                 for lo, hi in ((5, 6), (6, 7), (15, 17))])
        assert {3.5301128991243456e16, 6.770434442790088e16, 8.490293045280048e16} <= set(ratios)
        indices = []
        for ratio in ratios:
            bulk = tb_bulk(TightBindingModel([np.array([[ratio]]), I1], [Z1, Z1]))
            indices.append((topological_index(bulk.u_plus, "BDI").value,
                            topological_index(bulk.u_minus, "BDI").value))
        assert indices == [(0, 1)] * 300

    @pytest.mark.parametrize("energy, gap", [
        (0.0, 0.5), (1e10, 1.0), (1e18, 1.0), (1e20, 1.0), (1e100, 1.0), (1e200, 1.0),
    ])
    def test_ssh_gap_at_extreme_energies(self, energy, gap):
        # far outside the band the transfer spectrum tends to 0 and infinity, so
        # the gap tends to 1; a site transfer that holds (E - b) a^-1 next to a*
        # stops being unitary from about 1e18
        assert tb_bulk(SSH, energy).gap == pytest.approx(gap, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.floats(-1e3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_cayley_sites_match_potapov_ginzburg(self, seed, q, N, complex_, energy):
        # each site's S is unitary however its bond is conditioned, and where the
        # bond is invertible it is the scattering matrix of the site transfer
        rng = np.random.default_rng(seed)

        def block():
            return rng.normal(size=(N, N)) + (1j * rng.normal(size=(N, N)) if complex_ else 0.0)

        a, b = [], []
        for _ in range(q):
            P, _, Qh = np.linalg.svd(block())
            a.append(P @ np.diag(10.0 ** rng.uniform(-8.0, 1.0, N)) @ Qh)
            G = block()
            b.append(0.5 * (G + G.conj().T))
        a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
        S = models._sites(a[None], b[None], np.array([energy]))[0]
        for n in range(q):
            assert np.abs(S[n].conj().T @ S[n] - np.eye(2 * N)).max() <= 1e-13
            if np.linalg.cond(a[n]) <= 1e6:
                want, T = potapov_ginzburg_site(a[n], b[(n + 1) % q], energy)
                # the reference loses about 2 eps ||T||^2 in its inverse of T's lower-right block
                bound = 1e-10 + 8.0 * np.finfo(float).eps * np.linalg.norm(T, 2) ** 2
                assert np.abs(S[n] - want).max() <= bound

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_transfer_product(self, seed, q, N):
        rng = np.random.default_rng(seed)
        a, b = [], []
        for _ in range(q):
            X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            P, _, Qh = np.linalg.svd(X)
            a.append(P @ np.diag(rng.uniform(0.6, 1.6, N)) @ Qh)
            G = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            b.append(0.4 * (G + G.conj().T))
        model = TightBindingModel(a, b)
        bands = np.array([bloch_bands(model, k) for k in np.linspace(0.0, 2 * np.pi, 48)])
        lo, hi = bands.min(axis=0), bands.max(axis=0)
        in_gap = [lo[0] - 0.5, hi[-1] + 0.5]
        in_gap += [0.5 * (h + l) for h, l in zip(hi[:-1], lo[1:]) if l - h > 0.05]
        for energy in in_gap:
            growth, gap, closed, frames = transfer_reference(model, energy)
            if growth >= 15.0 or gap < 1e-3:
                continue
            assert not closed
            bulk = tb_bulk(model, energy)
            for u, plane, Z in ((bulk.u_plus, bulk.plane_plus, frames[0]),
                                (bulk.u_minus, bulk.plane_minus, frames[1])):
                assert np.abs(u.U - unitary_in_traces(model, Z)).max() <= 1e-10
                # the plane read back in (psi_0, psi_1) spans the Schur frame
                assert sla.subspace_angles(plane.frame.matrix, Z).max() <= 1e-9
            assert bulk.gap == pytest.approx(gap, rel=1e-9)
        for energy in bloch_bands(model, 0.7)[::N]:
            assert transfer_reference(model, energy)[2]
            with pytest.raises(GapClosed):
                tb_bulk(model, energy)


class TestPiecewiseProfile:
    def test_count_gate(self):
        with pytest.raises(DimensionMismatch):
            PiecewiseDiracProfile([np.eye(1)], [0.0])

    def test_masses_share_one_size(self):
        with pytest.raises(DimensionMismatch, match="^all masses must share one size$"):
            PiecewiseDiracProfile([np.eye(1), np.eye(2)], [0.0])

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseDiracProfile([np.eye(1)] * 3, [1.0, 1.0])

    def test_mass_lookup_right_continuous(self):
        p = PiecewiseDiracProfile(
            [np.array([[-1.0]]), np.array([[2.0]])], [0.0]
        )
        assert p.mass_at(-0.1)[0, 0] == -1.0
        assert p.mass_at(0.0)[0, 0] == 2.0

    def test_side_validated(self):
        p = PiecewiseDiracProfile([np.eye(1), -np.eye(1)], [0.0])
        with pytest.raises(ValueError):
            propagate_plane(p, 0.0, "up")

    def test_one_mass_is_the_bulk_plane(self, rng):
        # a profile with one mass is a constant bulk: the walk crosses no
        # segment, so every cut gives the bulk's own plane on either side
        W = gapped_mass(2, rng)
        p = PiecewiseDiracProfile([W], [])
        bulk = dirac_bulk(W, energy=0.3)
        for side, far in (("+", bulk.u_plus), ("-", bulk.u_minus)):
            want = unitary_to_plane(far).frame.matrix
            for t in (-2.0, 0.0, 3.5):
                assert np.array_equal(propagate_plane(p, 0.3, side, t=t).frame.matrix, want)

    @pytest.mark.parametrize("side", ["+", "-"])
    @pytest.mark.parametrize("t", [np.nan, -np.inf, np.inf])
    def test_cut_must_be_finite(self, monkeypatch, t, side):
        # a non-finite cut crosses no segment, so it would hand back the far
        # plane; it is rejected before any bulk is built
        p = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
        monkeypatch.setattr(models, "dirac_bulk", None)
        with pytest.raises(ValueError, match="^t must be finite, got "):
            propagate_plane(p, 0.0, side, t=t)

    def test_far_cut_keeps_the_far_unitary(self, rng):
        # at or beyond the far end's last breakpoint the walk crosses no
        # segment: the far unitary comes back byte for byte, with defect 0.0
        masses = [gapped_mass(2, rng) for _ in range(3)]
        p = PiecewiseDiracProfile(masses, [-1.0, 1.5])
        right = dirac_bulk(masses[-1], energy=0.2).u_plus
        left = dirac_bulk(masses[0], energy=0.2).u_minus
        for far, side, cuts in ((right, "+", (1.5, 4.0)), (left, "-", (-1.0, -3.0))):
            for t in cuts:
                [(U, defect)] = _transport([far], p, 0.2, (side,), t, TOL)
                assert U.U.tobytes() == far.U.tobytes()
                assert defect == 0.0

    def test_plus_walk_error_wins_when_both_walks_fail(self, monkeypatch):
        # the '-' walk's image is NaN from its first sub-step on, and the '+'
        # walk is broken only on its last segment, so in lockstep the '-' walk
        # fails first and then idles; the '+' walk's error is raised all the
        # same, as when the walks ran one after the other
        flow = models._segment_flow

        def broken(W, energy, lengths):
            nsub, P11, P12, P21, P22 = flow(W, energy, lengths)
            plus = np.flatnonzero(lengths < 0)
            last = np.arange(len(lengths)) == (plus[-1] if plus.size else -1)
            scale = np.where(lengths > 0, np.nan, np.where(last, 2.0, 1.0))
            return nsub, P11, P12, P21, P22 * scale[:, None, None]

        masses = [np.eye(1), -np.eye(1), 2.0 * np.eye(1), -np.eye(1)]
        p = PiecewiseDiracProfile(masses, [-1.0, 0.5, 2.0])
        fars = [dirac_bulk(masses[-1]).u_plus, dirac_bulk(masses[0]).u_minus]
        monkeypatch.setattr(models, "_segment_flow", broken)
        with pytest.raises(NotLagrangian, match=r"^transported graph map has unitarity defect "
                                                r"\S+ on the \+ walk over the segment \[0.5, 0\]$"):
            _transport(fars, p, 0.0, ("+", "-"), 0.0, TOL)
        with pytest.raises(NotLagrangian, match=r"defect nan on the - walk over the segment \[-1, 0\]$"):
            _transport(fars[1:], p, 0.0, ("-",), 0.0, TOL)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_stacked_walks_match_one_walk_loop(self, data):
        # one walk and two walks in lockstep are bitwise the walk run alone,
        # segment by segment, at every breakpoint as the cut
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        N, steps = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        masses = [gapped_mass(N, rng) for _ in range(steps + 1)]
        floor = min(np.linalg.svd(W, compute_uv=False)[-1] for W in masses)
        energy = data.draw(st.sampled_from([0.0, float(rng.uniform(-0.9, 0.9)) * floor]))
        p = PiecewiseDiracProfile(masses, list(np.cumsum(rng.uniform(0.05, 3.0, steps)) - 2.0))
        fars = [dirac_bulk(masses[-1], energy=energy).u_plus,
                dirac_bulk(masses[0], energy=energy).u_minus]
        for t in p.breakpoints:
            want = [_one_walk(far.U, p, energy, side, t) for far, side in zip(fars, "+-")]
            pair = _transport(fars, p, energy, ("+", "-"), t, TOL)
            alone = [_transport([far], p, energy, (side,), t, TOL)[0]
                     for far, side in zip(fars, "+-")]
            for got in (pair, alone):
                assert [(u.U.tobytes(), defect) for u, defect in got] == want

    def test_translation_invariant_beyond_last_step(self):
        p = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
        a = propagate_plane(p, 0.0, "+", t=0.0)
        b = propagate_plane(p, 0.0, "+", t=5.0)
        assert np.abs(a.frame.projector() - b.frame.projector()).max() <= 1e-12

    def test_wall_crossing_counts_the_bound_state(self):
        # mass flipping sign hosts exactly one zero mode; the crossing of
        # the two transported planes sees it at any cut position
        p = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
        for t in (-0.5, 0.0, 0.7):
            plus = propagate_plane(p, 0.0, "+", t=t)
            minus = propagate_plane(p, 0.0, "-", t=t)
            assert subspace_intersection_dim(plus.frame, minus.frame) == 1

    def test_wall_crossing_empty_off_resonance(self):
        p = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
        plus = propagate_plane(p, 0.3, "+", t=0.0)
        minus = propagate_plane(p, 0.3, "-", t=0.0)
        assert subspace_intersection_dim(plus.frame, minus.frame) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_transport_stays_lagrangian(self, seed):
        rng = np.random.default_rng(seed)
        masses = [gapped_mass(2, rng, floor=1.0) for _ in range(4)]
        bps = sorted(rng.uniform(-2.0, 2.0, 3))
        p = PiecewiseDiracProfile(masses, bps)
        form = dirac_form(2)
        for t in (-3.0, float(bps[1]), 0.25, 3.0):
            for side in ("+", "-"):
                plane = propagate_plane(p, 0.1, side, t=t)
                defect, ok = is_lagrangian(plane.frame, form)
                assert ok, (side, t, defect)


def _dirac_point(rng, draw):
    N, case = draw(st.integers(1, 3)), draw(st.sampled_from(["gapped", "outside", "singular"]))
    P, Q = (np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))[0]
            for _ in range(2))
    s = rng.uniform(0.5, 2.0, N)
    if case == "singular":
        s[-1] = 0.0
    energy = s.min() * (rng.uniform(1.0, 1.5) if case == "outside" else rng.uniform(-0.9, 0.9))
    return ModelFile("dirac", float(energy), {"W": (P * s) @ Q.conj().T}, {})


def _schrodinger_point(rng, draw):
    M, case = draw(st.integers(1, 3)), draw(st.sampled_from(["gapped", "inside", "skew"]))
    X = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    V = X + X.conj().T
    bottom = float(np.linalg.eigvalsh(V)[0])
    if case == "skew":
        V = V + 1e-3 * X
    energy = bottom + (rng.uniform(0.0, 1.0) if case == "inside" else -rng.uniform(0.01, 2.0))
    return ModelFile("schrodinger", energy, {"V": V}, {})


def _chain_point(rng, draw):
    q, N = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    case = draw(st.sampled_from(["gapped", "band", "singular", "not_finite", "skew"]))
    a, b = [], []
    for _ in range(q):
        X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        P, _, Qh = np.linalg.svd(X)
        a.append(P @ np.diag(rng.uniform(0.6, 1.6, N)) @ Qh)
        G = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        b.append(0.4 * (G + G.conj().T))
    if case == "singular":
        a[int(rng.integers(q))] = np.zeros((N, N))
    model = TightBindingModel(a, b)
    energy = {"gapped": float(rng.choice([-1.0, 1.0])) * (bloch_bands(model, 0.0).max() + 6.0),
              "band": float(rng.choice(bloch_bands(model, float(rng.uniform(0.0, np.pi))))),
              "singular": float(rng.normal()), "not_finite": np.nan,
              "skew": float(rng.normal())}[case]
    if case == "skew":
        # a site block far from hermitian, which a stack must refuse for this point alone
        n = int(rng.integers(q))
        b[n] = b[n] + 1e-3j * np.eye(N)
    matrices = {f"a{n}": x for n, x in enumerate(a)}
    matrices.update({f"b{n}": x for n, x in enumerate(b)})
    return ModelFile("tight_binding", energy, matrices, {})


class TestStacks:
    """A stack of points, grouped by family and shape, gives each point the
    result its own one-point call gives."""

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_point_as_if_alone(self, seed, data):
        rng = np.random.default_rng(seed)
        makers = data.draw(st.lists(st.sampled_from([_dirac_point, _schrodinger_point,
                                                      _chain_point]), min_size=1, max_size=6))
        # repeat some points, so that each stack also holds equal shapes
        points = [make(rng, data.draw) for make in makers]
        points += data.draw(st.lists(st.sampled_from(points), max_size=6 - len(points)))
        stacked = build_stack(points)
        for mf, got in zip(points, stacked):
            try:
                want = build_bulk(mf)
            except ValueError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert isinstance(got, BulkData)
            assert got.u_plus.U.tobytes() == want.u_plus.U.tobytes()
            assert got.u_minus.U.tobytes() == want.u_minus.U.tobytes()
            assert got.gap == want.gap and got.energy == want.energy

    def test_chain_sites_are_tested_once(self, monkeypatch):
        # a built model's blocks enter _chains as they are, tested by its constructor;
        # a whole stack's sites take one test, and a point checked alone takes its own
        tested, blocks = [], []
        hermiticity, chains = models._hermiticity, models._chains
        monkeypatch.setattr(models, "_hermiticity",
                            lambda X, tol: tested.append(X.shape) or hermiticity(X, tol))
        monkeypatch.setattr(models, "_chains",
                            lambda out, idx, a, b, E, tol: blocks.append((a, b))
                            or chains(out, idx, a, b, E, tol))
        tb_bulk(SSH)
        assert tested == [] and blocks[0][0].base is SSH.a and blocks[0][1].base is SSH.b
        tb_stack([(SSH.a, SSH.b)] * 3, [0.0, 0.3, 0.5])
        assert tested == [(3, 2, 1, 1)]
        tested.clear()
        got = tb_stack([(SSH.a, SSH.b), ([I1], [Z1, Z1])], [0.0, 0.0])
        assert tested == [(2, 1, 1)] and type(got[1]) is DimensionMismatch

    @pytest.mark.parametrize("stack, one, name, good", [
        (dirac_stack, lambda M, e: dirac_bulk(M, energy=e), "W", np.eye(1)),
        (schrodinger_stack, schrodinger_bulk, "V", np.ones((1, 1))),
    ], ids=["dirac", "schrodinger"])
    def test_an_empty_matrix_fails_alone(self, stack, one, name, good):
        got = stack([np.zeros((0, 0)), good], [0.0, 0.0])
        assert type(got[0]) is DimensionMismatch
        assert str(got[0]) == f"{name} must be nonempty, got shape (0, 0)"
        assert got[1].u_plus.U.tobytes() == one(good, 0.0).u_plus.U.tobytes()

    def test_the_transversality_gate_fails_only_its_point(self):
        # at E = 0.999 the eigenvalue of u_plus u_minus* is about 0.09 from 1,
        # inside this eig_tol; the other two points are far from it
        W, tol = np.array([[1.0]]), Tolerances(eig_tol=0.5)
        got = dirac_stack([W] * 3, [0.0, 0.999, 0.5], tol)
        assert type(got[1]) is GapClosed
        assert str(got[1]) == "half-line planes intersect; the energy is not in a gap"
        for j, energy in ((0, 0.0), (2, 0.5)):
            want = dirac_bulk(W, tol, energy)
            assert got[j].u_plus.U.tobytes() == want.u_plus.U.tobytes()
            assert got[j].u_minus.U.tobytes() == want.u_minus.U.tobytes()
            assert got[j].gap == want.gap and got[j].energy == want.energy

    def test_one_point_builders_are_stacks_of_one(self):
        W = np.array([[0.3, 1.0], [-0.5, 0.8]])
        assert np.array_equal(dirac_stack([W], [0.1])[0].u_plus.U,
                              dirac_bulk(W, energy=0.1).u_plus.U)
        V = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert schrodinger_stack([V], [0.0])[0].gap == schrodinger_bulk(V, 0.0).gap
        assert tb_stack([(SSH.a, SSH.b)] * 2, [0.0, 0.5])[1].gap == tb_bulk(SSH, 0.5).gap


def _one_walk(U, profile, energy, side, t):
    """One walk, segment by segment and sub-step by sub-step: the reference for ``_transport``."""
    bps = profile.breakpoints
    path = ([b for b in reversed(bps) if b > t] if side == "+" else [b for b in bps if b < t]) + [t]
    N = U.shape[0]
    defect = 0.0
    for start, stop in zip(path, path[1:]):
        W, length = profile.mass_at(0.5 * (start + stop)), stop - start
        Uw, s, Vh = np.linalg.svd(W)
        nsub = max(1, int(np.ceil(abs(length) * (float(s[0]) + abs(energy)) / 4.0)))
        h = length / nsub
        x = h * np.sqrt(((s - abs(energy)) * (s + abs(energy))).astype(complex))
        c = np.cosh(x)
        d = h * np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0)
        V, Uh = Vh.conj().T, Uw.conj().T
        P11, P12 = (Uw * (c + 1j * energy * d)) @ Uh, (Uw * (-s * d)) @ Vh
        P21, P22 = (V * (-s * d)) @ Uh, (V * (c - 1j * energy * d)) @ Vh
        for _ in range(nsub):
            X = np.linalg.solve((P11 + P12 @ U).T, (P21 + P22 @ U).T).T
            defect = max(defect, float(np.abs(X.conj().T @ X - np.eye(N)).max()))
            L, _, Rh = np.linalg.svd(X)
            U = L @ Rh
    return U.tobytes(), defect
