import time

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfold1d import (
    LagrangianPlane,
    PiecewiseDiracProfile,
    TightBindingModel,
    Tolerances,
    canonical_split,
    crossing_dim,
    dirac_bulk,
    dirac_form,
    plane_to_unitary,
    propagate_plane,
    schrodinger_bulk,
    subspace_intersection_dim,
    tb_bulk,
    topological_index,
)
from tenfold1d.errors import (
    DimensionMismatch,
    GapClosed,
    NotInGap,
    NotInvertible,
)
from tenfold1d import models
from tenfold1d.modelfile import ModelFile, build_bulk, build_stack
from tenfold1d.models import (
    BulkData,
    _composed,
    _schrodinger_form,
    _segment_flow,
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
        assert tb_form(SSH) is tb_form(other)
        assert not tb_form(SSH).J.flags.writeable
        assert canonical_split(tb_form(SSH)) is canonical_split(tb_form(other))
        assert tb_bulk(SSH).split is tb_bulk(other).split
        # one bit of a0 apart is another form
        nudged = TightBindingModel([np.array([[np.nextafter(1.0, 2.0)]]), np.array([[3.0]])],
                                   [np.zeros((1, 1)), np.ones((1, 1))])
        assert tb_form(nudged) is not tb_form(SSH)
        assert tb_form(SSH, Tolerances(frame_tol=1e-11)) is not tb_form(SSH)

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
        nsub, P = _segment_flow(W, E, length)
        assert nsub == max(1, int(np.ceil(abs(length) * np.linalg.norm(B, 2) / 4.0)))
        want = sla.expm(B * (length / nsub))
        assert np.abs(P - want).max() <= 1e-13 * np.abs(want).max()


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
            geom = np.array([[1.0], [r]]) / np.sqrt(1.0 + r * r)
            direct = plane_to_unitary(
                LagrangianPlane(geom, bulk.form), bulk.split
            )
            assert np.abs(direct.U - bulk.u_plus.U).max() <= 1e-10

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

    @pytest.mark.parametrize("routine, info", [("gges", 2), ("tgsen", 1)])
    def test_failed_qz_is_a_closed_gap(self, monkeypatch, routine, info):
        # LAPACK reports a failed QZ or reordering in its last output, info
        real = getattr(models, f"_{routine}")

        def failing(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], info)

        monkeypatch.setattr(models, f"_{routine}", failing)
        with pytest.raises(GapClosed, match=f"{routine} info {info}"):
            tb_bulk(SSH)

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
    """The period's transfer product, its gap and its sorted Schur split.

    Multiplies the q site transfers on (psi_{n-1}, psi_n) into one
    matrix M, then takes the stable (|lambda| < 1) and unstable frames
    of M and their unitaries in the canonical split of ``tb_form``.
    Returns log cond M, the gap, the parent-style closed flag, and the
    two unitaries (None when closed).
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
    form = tb_form(model)
    split = canonical_split(form)
    unitaries = []
    for inside in (True, False):
        _, Z, k = sla.schur(M, output="complex", sort=lambda z: (abs(z) < 1.0) == inside)
        assert k == N
        unitaries.append(plane_to_unitary(LagrangianPlane(Z[:, :N], form), split).U)
    return float(np.log(s[0] / s[-1])), gap, False, unitaries


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
            growth, gap, closed, want = transfer_reference(model, energy)
            if growth >= 15.0 or gap < 1e-3:
                continue
            assert not closed
            bulk = tb_bulk(model, energy)
            assert np.abs(bulk.u_plus.U - want[0]).max() <= 1e-10
            assert np.abs(bulk.u_minus.U - want[1]).max() <= 1e-10
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

    def test_needs_breakpoints(self):
        with pytest.raises(ValueError):
            propagate_plane(PiecewiseDiracProfile([np.eye(1)], []), 0.0, "+")

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
    case = draw(st.sampled_from(["gapped", "band", "singular", "not_finite"]))
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
              "singular": float(rng.normal()), "not_finite": np.nan}[case]
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

    def test_a_point_that_does_not_compose_fails_alone(self):
        # a singular block of one point fails the stacked inverse; the other
        # points are composed one by one, as their own stacks
        rng = np.random.default_rng(7)
        T = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
        T[1, 2, 1:, 1:] = 0.0
        E = np.array([0.1, 0.2, 0.3])
        got = _composed(T, E, 1)
        assert isinstance(got[1], GapClosed)
        assert str(got[1]) == "site scattering matrices do not compose at energy 0.2"
        for j in (0, 2):
            assert np.array_equal(got[j], _composed(T[j:j + 1], E[j:j + 1], 1)[0])

    def test_one_point_builders_are_stacks_of_one(self):
        W = np.array([[0.3, 1.0], [-0.5, 0.8]])
        assert np.array_equal(dirac_stack([W], [0.1])[0].u_plus.U,
                              dirac_bulk(W, energy=0.1).u_plus.U)
        V = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert schrodinger_stack([V], [0.0])[0].gap == schrodinger_bulk(V, 0.0).gap
        assert tb_stack([SSH, SSH], [0.0, 0.5])[1].gap == tb_bulk(SSH, 0.5).gap
