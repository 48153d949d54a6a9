"""The benchmark's input generators are deterministic for a seed."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen  # noqa: E402
from perfbench import reference as ref  # noqa: E402


def _same(x, y):
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if callable(x):
        return True
    return x == y


def _items_equal(a, b):
    return all(
        i.kind == j.kind and i.text == j.text and i.form_key == j.form_key
        and i.log_growth == j.log_growth and _same(i.data, j.data)
        for i, j in zip(a, b)
    ) and len(a) == len(b)


def test_bulk_stream_is_deterministic():
    assert _items_equal(gen.bulk_stream(7, 40), gen.bulk_stream(7, 40))
    assert not _items_equal(gen.bulk_stream(7, 40), gen.bulk_stream(8, 40))


def test_transport_is_deterministic_and_census_keeps_probes():
    a, b = gen.transport(3, 2), gen.transport(3, 2)
    assert _items_equal(a, b)
    assert not _items_equal(a, gen.transport(4, 2))
    assert len(a) == 2 * (gen.TRANSPORT_RANDOM_PROFILES + gen.TRANSPORT_RANDOM_CHAINS)
    census = gen.transport_census(3)
    assert _items_equal(census, gen.transport_census(3))
    assert not _items_equal(census, gen.transport_census(4))
    assert [i.data.get("probe") for i in census[:len(gen.TRANSPORT_PROBES)]] == [True] * 8
    assert "a0 [[1.0]]\na1 [[5.0]]" in census[0].text and "a19" in census[0].text


def test_transport_timed_stream_stays_below_the_defect_envelope():
    items = gen.transport(5, 4)
    assert max(i.log_growth for i in items) <= gen.KNOWN_DEFECT_LOG_GROWTH
    assert not any(i.in_defect_envelope for i in items)


def test_transport_census_covers_the_whole_stiffness_range():
    growth = [i.log_growth for i in gen.transport_census(5)
              if i.kind == "profile" and not i.data["probe"]]
    # kappa * span spans [1, 60], so the exponent 2 kappa span reaches past 100
    assert min(growth) < 10.0 and max(growth) > 60.0
    items = gen.transport_census(5)
    assert any(i.stiff for i in items) and not all(i.stiff for i in items)


def test_sweep_plan_and_oracle_are_deterministic():
    assert _same(gen.sweep_plan(9, 1), gen.sweep_plan(9, 1))
    assert not _same(gen.sweep_plan(9, 1), gen.sweep_plan(10, 1))
    assert _items_equal(gen.oracle(9, 0), gen.oracle(9, 0))
    assert not _items_equal(gen.oracle(9, 0), gen.oracle(9, 1))


def test_generated_bulks_are_gapped():
    for item in gen.bulk_stream(11, 60):
        d = item.data
        if item.kind == "dirac":
            assert ref.dirac_gap(d["W"], d["energy"]) >= gen.GAP_FLOOR - gen.DIRAC_ENERGY
        elif item.kind == "schrodinger":
            assert ref.schrodinger_gap(d["V"], d["energy"]) >= gen.GAP_FLOOR - 1e-12
        elif item.kind == "tight_binding":
            assert ref.chain_gap(d["a"], d["b"]) > 0.05
