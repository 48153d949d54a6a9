import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_models import gapped_mass

from tenfold1d import (
    TOL,
    PiecewiseDiracProfile,
    TightBindingModel,
    continuous_junction_report,
    crossing_dim,
    dirac_bulk,
    hard_junction,
    predicted_zero_modes,
    protected_bound,
    schrodinger_bulk,
    subspace_intersection_dim,
    tb_bulk,
    topological_index,
    unitary_to_plane,
)
from tenfold1d.errors import (
    AmbiguousKernel,
    BadParity,
    GapClosed,
    IncompatibleBoundary,
    NotInClass,
)
from tenfold1d import models
from tenfold1d.models import _transport
from tenfold1d.symplectic import _crossing_spectrum
from tenfold1d.symmetry import random_unitary

# a stiff three-channel staircase (perfbench transport census, seed 2):
# masses P D_j Q^T with P != Q real orthogonal, exact kernel 2, and a
# 27.9-long middle segment; cut at t = 0 the unit-eigenvalue count reads
# 0 while the principal angles of the same two planes count 2
CENSUS_MASSES = [
    [[0.19155840397114274, -0.6361901646675994, 0.8942800700715824],
     [-1.050298180844254, -0.6122014632881598, -0.15066108768787687],
     [-0.6374846194405376, 0.7276617169345339, 0.9871014058449881]],
    [[-0.8056150897041804, 1.0418976879647472, -0.05583746568812765],
     [0.9567194489078417, 0.8424500641442324, 0.6366999788202317],
     [-0.7409783488319021, -0.11432006650868687, 1.4378162048608754]],
    [[0.8888489972483645, -1.324067108481993, 0.46833242293435384],
     [0.4626210573868663, 0.387341670580125, -0.039938412128769925],
     [0.10139629163308607, 0.17953632295813626, -1.0880405576002912]],
]
CENSUS_BREAKPOINTS = [-10.295097455768548, 17.580113686870323]


class TestHardJunction:
    def test_accepts_shared_form(self, rng):
        left = dirac_bulk(gapped_mass(2, rng))
        right = dirac_bulk(gapped_mass(2, rng))
        assert hard_junction(left, right) is None

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(IncompatibleBoundary):
            hard_junction(dirac_bulk(gapped_mass(1, rng)), dirac_bulk(gapped_mass(2, rng)))

    def test_rejects_energy_mismatch(self):
        W = np.array([[1.0]])
        with pytest.raises(IncompatibleBoundary):
            hard_junction(dirac_bulk(W), dirac_bulk(W, energy=0.2))

    def test_rejects_differing_seam_bond(self):
        # dimerized chains with swapped bond order induce different
        # boundary forms, so they cannot be glued as-is
        z = [np.zeros((1, 1)), np.zeros((1, 1))]
        left = tb_bulk(TightBindingModel([np.array([[1.0]]), np.array([[2.0]])], z))
        right = tb_bulk(TightBindingModel([np.array([[2.0]]), np.array([[1.0]])], z))
        with pytest.raises(IncompatibleBoundary):
            hard_junction(left, right)

    def test_rejects_a_chain_with_the_schrodinger_form(self):
        # a seam bond of -1 gives the chain the Schrodinger form entry for
        # entry, yet the two traces mean different things
        chain = tb_bulk(TightBindingModel([np.array([[-1.0]]), np.array([[2.0]])],
                                          [np.zeros((1, 1)), np.zeros((1, 1))]))
        wire = schrodinger_bulk(np.array([[1.0]]), 0.0)
        assert chain.form.same_as(wire.form)
        assert (chain.family, wire.family) == ("tight_binding", "schrodinger")
        for left, right in ((chain, wire), (wire, chain)):
            with pytest.raises(IncompatibleBoundary,
                               match=f"{left.family} bulk to a {right.family} bulk"):
                predicted_zero_modes(left, right)


class TestPredictedZeroModes:
    def test_scalar_mass_wall(self):
        left = dirac_bulk(np.array([[-1.0]]))
        right = dirac_bulk(np.array([[1.0]]))
        assert predicted_zero_modes(left, right) == 1
        assert predicted_zero_modes(right, left) == 1
        assert predicted_zero_modes(right, right) == 0

    def test_channel_count_scales(self):
        for k in (0, 1, 2):
            signs = np.concatenate([-np.ones(k), np.ones(2 - k)])
            left = dirac_bulk(np.diag(signs))
            right = dirac_bulk(np.eye(2))
            assert predicted_zero_modes(left, right) == k

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @example(seed=14185, n=4)
    @settings(max_examples=25, deadline=None)
    def test_matches_plane_intersection(self, seed, n):
        rng = np.random.default_rng(seed)
        left = dirac_bulk(gapped_mass(n, rng))
        right = dirac_bulk(gapped_mass(n, rng))
        direct = subspace_intersection_dim(
            right.plane_plus.frame, left.plane_minus.frame
        )
        predicted = predicted_zero_modes(left, right)
        # a unit eigenvalue of U_+ U_-* is a principal angle 0; the crossing
        # count takes |lambda - 1| <= eig_tol, the angle count 1 - cos <= eig_tol,
        # which reaches |lambda - 1| of about sqrt(8 eig_tol)
        dist = np.abs(_crossing_spectrum(right.u_plus, left.u_minus, TOL) - 1.0)
        near = int(((dist > TOL.eig_tol) & (dist <= np.sqrt(8 * TOL.eig_tol))).sum())
        assert direct == predicted + near
        if (seed, n) == (14185, 4):
            # |lambda - 1| = 1.8e-4: a near crossing only the angles count
            assert (predicted, direct, near) == (0, 1, 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bound_respected_for_hermitian_masses(self, seed):
        rng = np.random.default_rng(seed)
        bulks = []
        for _ in range(2):
            X = gapped_mass(3, rng)
            bulks.append(dirac_bulk(X @ X.conj().T + 0.1 * np.eye(3)))
        # hermitian positive masses are one AIII deformation class
        idx = [topological_index(b.u_plus, "AIII") for b in bulks]
        bound = protected_bound("AIII", idx[0], idx[1])
        assert predicted_zero_modes(bulks[0], bulks[1]) >= bound

    def test_compatible_chain_junction(self):
        # same seam bond, opposite dimerization: the bound forces a mode
        z = [np.zeros((1, 1)), np.zeros((1, 1))]
        left = tb_bulk(TightBindingModel([np.array([[1.0]]), np.array([[2.0]])], z))
        right = tb_bulk(TightBindingModel([np.array([[1.0]]), np.array([[0.5]])], z))
        il = topological_index(left.u_plus, "BDI")
        ir = topological_index(right.u_plus, "BDI")
        bound = protected_bound("BDI", il, ir)
        assert bound == 1
        assert predicted_zero_modes(left, right) >= bound

    def test_an_ulp_in_a_complex_seam_changes_no_answer(self, rng):
        # every entry of the eigenvectors of an N = 1 seam form has modulus
        # 1/sqrt(2); a phase chosen by roundoff changes the class rows of
        # about a sixth of these chains when the seam moves by one ulp, and
        # makes the two chains' splits differ, so gluing them raises
        z = [np.zeros((1, 1)), np.zeros((1, 1))]

        def row(u):
            out = []
            for label in ("AIII", "BDI", "D"):
                try:
                    out.append(str(topological_index(u, label)))
                except (NotInClass, BadParity):
                    out.append("")
            return out

        for _ in range(300):
            a0 = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1.0, 1.0)
            a1 = np.array([[rng.uniform(2.5, 4.0)]])
            left, right = (tb_bulk(TightBindingModel([np.array([[s]]), a1], z))
                           for s in (a0, a0 * (1.0 + 2.0**-52)))
            assert row(left.u_plus) == row(right.u_plus)
            assert predicted_zero_modes(left, right) == predicted_zero_modes(left, left)


class TestContinuousReport:
    def test_scalar_wall(self):
        p = PiecewiseDiracProfile([-np.eye(1), np.eye(1)], [0.0])
        r = continuous_junction_report(p, 0.0, "D")
        assert r.predicted == 1
        assert r.bound == 1
        assert r.index_left.value == -1 and r.index_right.value == 1
        assert r.transport_consistent
        assert max(r.defect_plus, r.defect_minus) <= 1e-9
        assert r.gap_left == pytest.approx(1.0) and r.gap_right == pytest.approx(1.0)

    def test_two_channel_wall(self):
        p = PiecewiseDiracProfile([-np.eye(2), np.eye(2)], [0.0])
        r = continuous_junction_report(p, 0.0, "AIII")
        assert r.predicted == 2 and r.bound == 2
        assert r.transport_consistent

    def test_off_centre_wall(self):
        # a wall far from t = 0: transporting through the far segment to
        # the origin would drown the bound states, so the cut sits at the step
        c, s = np.cos(0.4), np.sin(0.4)
        P = np.array([[c, -s], [s, c]])
        c, s = np.cos(1.3), np.sin(1.3)
        Q = np.array([[c, -s], [s, c]])
        masses = [P @ np.diag(d) @ Q.T for d in ((-3.0, -2.0), (3.0, 2.0))]
        r = continuous_junction_report(PiecewiseDiracProfile(masses, [10.0]), 0.0, "D")
        assert r.predicted == 2
        assert r.bound == 0
        assert r.transport_consistent

    @pytest.mark.parametrize("m, s", [(3.0, 4.0), (3.0, 5.0), (3.0, 6.0),
                                      (3.0, 10.0), (3.0, 20.0), (1.0, 20.0)])
    def test_stiff_double_wall(self, m, s):
        # masses -m, m, -m: the two walls bind in decoupled channels, so
        # the exact kernel at zero energy is empty however wide the middle
        p = PiecewiseDiracProfile([-m * np.eye(1), m * np.eye(1), -m * np.eye(1)], [0.0, s])
        r = continuous_junction_report(p, 0.0, "D")
        assert r.predicted == 0 and r.bound == 0
        assert r.transport_consistent

    def test_double_wall_modes_hybridize(self):
        # two walls a finite distance apart: the pair splits away from
        # zero, the far indices agree, and both routes must agree on the
        # empty crossing
        p = PiecewiseDiracProfile(
            [-np.eye(1), np.eye(1), -np.eye(1)], [-1.0, 1.0]
        )
        r = continuous_junction_report(p, 0.0, "D")
        assert r.bound == 0
        assert r.predicted == 0
        assert r.transport_consistent
        assert max(r.defect_plus, r.defect_minus) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_real_staircase(self, seed):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 4))
        masses = []
        for _ in range(steps + 1):
            X = rng.standard_normal((2, 2))
            P, s, Qh = np.linalg.svd(X)
            masses.append(P @ np.diag(s + 0.5) @ Qh)
        bps = np.sort(rng.uniform(-2.0, 2.0, steps))
        if steps > 1 and np.diff(bps).min() < 1e-3:
            bps = np.arange(steps, dtype=float)
        p = PiecewiseDiracProfile(masses, list(bps))
        r = continuous_junction_report(p, 0.0, "D")
        assert r.predicted >= r.bound
        assert r.transport_consistent
        assert max(r.defect_plus, r.defect_minus) <= 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_counts_match_the_plane_route(self, seed, n, steps):
        # complex masses P D_j Q* with sign flips in D_j carry zero modes at
        # E = 0, and long interior segments make some cuts ambiguous; the
        # reference counts principal angles between the frames of the two
        # transported planes
        rng = np.random.default_rng(seed)
        P, Q = random_unitary(n, rng), random_unitary(n, rng)
        masses = [P @ np.diag(rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)) @ Q.conj().T
                  for _ in range(steps + 1)]
        energy = float(rng.choice([0.0, rng.uniform(-0.45, 0.45)]))
        bps = list(-3.0 + np.cumsum(rng.uniform(0.05, 10.0, steps)))
        p = PiecewiseDiracProfile(masses, bps)
        t = min(max(0.0, bps[0]), bps[-1])
        fars = [dirac_bulk(masses[-1], energy=energy).u_plus, dirac_bulk(masses[0], energy=energy).u_minus]
        (u_plus, _), (u_minus, _) = _transport(fars, p, energy, ("+", "-"), t, TOL)
        crossing = crossing_dim(u_plus, u_minus)
        angles = subspace_intersection_dim(unitary_to_plane(u_plus).frame,
                                           unitary_to_plane(u_minus).frame)
        if crossing != angles:
            with pytest.raises(AmbiguousKernel, match=f"crossing count {crossing} and "
                                                      f"principal-angle count {angles}"):
                continuous_junction_report(p, energy, "A")
        else:
            assert continuous_junction_report(p, energy, "A").predicted == crossing

    def test_one_flow_factorization_per_report(self, monkeypatch):
        # every segment of both walks takes its flow from one call
        calls = []
        flow = models._segment_flow
        monkeypatch.setattr(models, "_segment_flow", lambda *args: calls.append(args) or flow(*args))
        p = PiecewiseDiracProfile([np.array(W) for W in CENSUS_MASSES], [-1.5, 0.75])
        continuous_junction_report(p, 0.1, "A")
        assert len(calls) == 1
        # the '+' walk crosses [0.75, 0] and the '-' walk [-1.5, 0]
        assert calls[0][2].tolist() == [-0.75, 1.5]

    def test_disagreeing_counts_raise(self):
        p = PiecewiseDiracProfile([np.array(W) for W in CENSUS_MASSES], CENSUS_BREAKPOINTS)
        with pytest.raises(AmbiguousKernel, match="crossing count 0 and principal-angle count 2"):
            continuous_junction_report(p, 0.0, "D")

    def test_non_finite_breakpoint_rejected(self):
        # a NaN wall would vanish from the discretized matrix, and a wall
        # at +inf would predict a mode that no finite operator has
        masses = [-np.eye(1), np.eye(1), -np.eye(1)]
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                PiecewiseDiracProfile(masses[:2], [bad])
            with pytest.raises(ValueError, match="finite"):
                PiecewiseDiracProfile(masses, [0.0, bad])

    def test_class_gate_propagates(self):
        W = np.array([[1.0 + 1.0j]])
        p = PiecewiseDiracProfile([W, 2.0 * W], [0.0])
        with pytest.raises(NotInClass):
            continuous_junction_report(p, 0.0, "D")

    def test_left_error_wins_when_both_ends_are_gapless(self):
        p = PiecewiseDiracProfile([0.5 * np.eye(1), 0.3 * np.eye(1)], [0.0])
        with pytest.raises(GapClosed, match=r"^energy 0.9 is not inside the gap \(m0 = 0.5\)$"):
            continuous_junction_report(p, 0.9, "A")

    def test_gapless_end_mass_rejected(self):
        p = PiecewiseDiracProfile([np.zeros((1, 1)), np.eye(1)], [0.0])
        with pytest.raises(GapClosed):
            continuous_junction_report(p, 0.0, "A")
