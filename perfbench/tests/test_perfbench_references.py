"""Each reference function agrees with the package on easy gapped inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from tenfold1d import (  # noqa: E402
    PiecewiseDiracProfile,
    TightBindingModel,
    bulk_consistency_check,
    continuous_junction_report,
    dirac_bulk,
    membership,
    pfaffian,
    predicted_zero_modes,
    protected_bound,
    schrodinger_bulk,
    tb_bulk,
    topological_index,
)
from tenfold1d.errors import BadParity  # noqa: E402


def _program_classes(u):
    out = {}
    for label in ref.LABELS:
        try:
            member = membership(u.U, label)
        except BadParity:
            member = False
        out[label] = str(topological_index(u, label)) if member else None
    return out


@pytest.mark.parametrize("label,dims", gen.DIRAC_CLASSES)
def test_dirac_references(label, dims):
    rng = np.random.default_rng(1)
    for n in dims[:3]:
        W = gen.dirac_mass(label, n, rng)
        bulk = dirac_bulk(W)
        polar = ref.polar_unitary(W)
        assert np.abs(bulk.u_plus.U - polar).max() <= 1e-9
        assert abs(bulk.gap - ref.dirac_gap(W)) <= 1e-12
        assert _program_classes(bulk.u_plus) == ref.classification(polar)
        plus = topological_index(bulk.u_plus, label)
        minus = topological_index(bulk.u_minus, label)
        assert ref.sum_rule(label, plus.value, minus.value, n)
        assert bulk_consistency_check(label, plus, minus, n)


def test_dirac_junction_and_bound():
    rng = np.random.default_rng(2)
    for label, dims in gen.DIRAC_CLASSES:
        for n in dims[:2]:
            WL, WR = gen.dirac_mass(label, n, rng), gen.dirac_mass(label, n, rng)
            left, right = dirac_bulk(WL), dirac_bulk(WR)
            want = ref.dirac_zero_modes(WL, WR)
            assert want is not None and predicted_zero_modes(left, right) == want
            il, ir = (topological_index(b.u_plus, label) for b in (left, right))
            assert protected_bound(label, il, ir) == ref.relative_bound(
                label, str(il.value), str(ir.value))


def test_schrodinger_references():
    items = [i for i in gen.bulk_stream(3, 60) if i.kind == "schrodinger"]
    for a, b in zip(items, items[1:]):
        Va, Vb = a.data["V"], b.data["V"]
        bulk = schrodinger_bulk(Vb, 0.0)
        assert abs(bulk.gap - ref.schrodinger_gap(Vb, 0.0)) <= 1e-12
        if Va.shape == Vb.shape:
            pred = predicted_zero_modes(schrodinger_bulk(Va, 0.0), bulk)
            assert pred == ref.schrodinger_zero_modes(Va, Vb, 0.0)


def test_dirac_planes_in_gap():
    rng = np.random.default_rng(7)
    for label, dims in gen.DIRAC_CLASSES:
        WL, WR = (gen.dirac_mass(label, dims[1], rng) for _ in range(2))
        left, right = (dirac_bulk(W, energy=gen.DIRAC_ENERGY) for W in (WL, WR))
        for bulk, W in ((left, WL), (right, WR)):
            plus, minus = ref.dirac_planes(W, gen.DIRAC_ENERGY)
            assert ref.intersection_dim(plus, bulk.plane_plus.frame.matrix) == dims[1]
            assert ref.intersection_dim(minus, bulk.plane_minus.frame.matrix) == dims[1]
        assert predicted_zero_modes(left, right) == ref.dirac_zero_modes(
            WL, WR, gen.DIRAC_ENERGY)


def test_schrodinger_planes_and_classes():
    for item in [i for i in gen.bulk_stream(5, 40) if i.kind == "schrodinger"]:
        V = item.data["V"]
        bulk = schrodinger_bulk(V, 0.0)
        plus, minus = ref.schrodinger_planes(V, 0.0)
        assert ref.intersection_dim(plus, bulk.plane_plus.frame.matrix) == V.shape[0]
        assert ref.intersection_dim(minus, bulk.plane_minus.frame.matrix) == V.shape[0]
        assert _program_classes(bulk.u_plus) == ref.schrodinger_classification()


def test_chain_references():
    chains = [i.data for i in gen.bulk_stream(6, 60) if i.kind == "tight_binding"]
    for left, right in zip(chains, chains[1:]):
        a, b = right["a"], right["b"]
        bulk = tb_bulk(TightBindingModel(a, b))
        assert bulk.gap == pytest.approx(ref.transfer_gap(a, b), rel=1e-9)
        plus, minus = ref.chain_planes(a, b)
        N = a[0].shape[0]
        assert ref.intersection_dim(plus, bulk.plane_plus.frame.matrix) == N
        assert ref.intersection_dim(minus, bulk.plane_minus.frame.matrix) == N
        classes = _program_classes(bulk.u_plus)
        assert {k: classes[k] for k in ref.REAL_PLANE_CLASSES} == ref.REAL_PLANE_CLASSES
        if left["a"][0].shape == a[0].shape:
            # share the seam bond, so both chains live on one boundary form
            a_left = [a[0]] + left["a"][1:]
            pred = predicted_zero_modes(tb_bulk(TightBindingModel(a_left, left["b"])), bulk)
            assert pred == ref.chain_zero_modes((a_left, left["b"]), (a, b))


def test_ssh_references():
    for t1, t2 in ((1.0, 2.0), (2.0, 1.0), (0.8, 1.3), (1.4, 0.6)):
        for q in (2, 4, 6):
            a, b = gen.ssh_supercell(t1, t2, q)
            bulk = tb_bulk(TightBindingModel(a, b))
            assert topological_index(bulk.u_plus, "BDI").value == ref.ssh_index(t1, t2)
            if q == 2:
                assert abs(bulk.gap - ref.ssh_gap(t1, t2)) <= 1e-9
            assert gen.ssh_log_growth(t1, t2, q) == pytest.approx(gen.transfer_log_cond(a, b))


def test_gapped_chains_build():
    rng = np.random.default_rng(4)
    for q, N in ((2, 1), (3, 2), (4, 1)):
        a, b, half_gap = gen.gapped_chain(q, N, rng)
        assert ref.chain_gap(a, b) == pytest.approx(half_gap, abs=0.05)
        tb_bulk(TightBindingModel(a, b))


def test_channel_flips_match_transport_on_short_profiles():
    rng = np.random.default_rng(5)
    for n_ch in (1, 2, 3):
        prof = gen.short_profile(rng, n_ch)
        profile = PiecewiseDiracProfile(prof["masses"], prof["breakpoints"])
        rep = continuous_junction_report(profile, 0.0, "D")
        assert rep.predicted == ref.channel_flips(prof["diags"])
        assert rep.transport_consistent


def test_pfaffian_sign():
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        W = gen.dirac_mass("DIII", n, rng)
        U = ref.polar_unitary(W)
        assert ref.pfaffian_sign(U) == np.sign(pfaffian(U.real))


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_runner_smoke_one_cycle():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_cli",
                          "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == len(gen.SWEEP_SLOTS)
    assert last["metrics"]["cli.sweep.calls_per_item"]["value"] > 0
