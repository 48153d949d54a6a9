"""The four benchmark workloads.

Each workload generates its inputs in ``setup`` and processes one item
per ``run`` call, which returns ``"ok"`` or raises: ``Mismatch`` for an
answer that differs from the reference, anything else for a failed
item. The package is imported here, after the runner has pinned the
BLAS thread count.

A workload may also set ``census`` in ``setup``: items that the runner
processes once after the timed loop, untimed and untraced, and whose
failed and wrong shares it reports. Transport's census holds the stiff
inputs that the package fails on today, so the timed stream does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from collections import defaultdict

import numpy as np

from tenfold1d import errors
from tenfold1d.cli import main as cli_main
from tenfold1d.index import topological_index
from tenfold1d.junction import (
    continuous_junction_report,
    predicted_zero_modes,
    protected_bound,
)
from tenfold1d.linalg import subspace_intersection_dim
from tenfold1d.modelfile import parse_model_text
from tenfold1d.models import (
    PiecewiseDiracProfile,
    TightBindingModel,
    dirac_bulk,
    schrodinger_bulk,
    tb_bulk,
)
from tenfold1d.symmetry import membership
from tenfold1d.symplectic import (
    SymplecticForm,
    canonical_split,
    crossing_dim,
    plane_to_unitary,
    unitary_to_plane,
)
from tenfold1d.verify import (
    DiscretizationSpec,
    count_near_zero_localized,
    discretize_dirac_junction,
    finite_chain,
    oracle_compare,
)

from . import gen
from . import reference as ref


class Mismatch(Exception):
    """An answer that differs from the reference."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def expect_count(got, want, what):
    """Compare a count with a reference that may be undecidable (None)."""
    expect(want is None or int(got) == want, f"{what}: {got} != {want}")


def close(x, y, tol=1e-8):
    return abs(float(x) - float(y)) <= tol * max(1.0, abs(float(y)))


class Stats:
    """Ratio and input counters, reported by the traced run."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)

    def add(self, key, value=1.0):
        self.sums[key] += value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))

    def ratio(self, num, den):
        d = self.sums[den]
        return self.sums[num] / d if d else 0.0

    def metrics(self) -> dict:
        return {
            "symmetry.member_share": (self.ratio("members", "membership_calls"), "ratio"),
            "junction.transport_consistent_share":
                (self.ratio("consistent", "reports"), "ratio"),
            "junction.defect_max": (self.maxima["defect"], "ratio"),
            "verify.localized_per_near_zero": (self.ratio("localized", "near_zero"), "ratio"),
            "verify.dim_per_item": (self.ratio("dim", "items"), "1/item"),
            # computed, not measured: one complex128 dense matrix of the
            # largest item
            "verify.dense_bytes": (self.maxima["dense_bytes"], "bytes"),
            "verify.warnings_per_item": (self.ratio("warnings", "items"), "1/item"),
        }


def input_shares(items) -> dict:
    """Input properties of one pass over a workload's item pool.

    A boundary form counts as repeated at every use after its first; an
    item uses its form once per bulk or profile built on it.
    """
    seen = set()
    uses = repeats = 0
    for item in items:
        n = item.data.get("form_uses", 1)
        if n:
            uses += n
            repeats += n - (item.form_key not in seen)
            seen.add(item.form_key)
    stiff = sum(item.stiff for item in items)
    return {"input.repeat_form_share": (repeats / uses, "ratio"),
            "input.stiff_share": (stiff / len(items), "ratio")}


def classify(tr, stats, u, labels=ref.LABELS):
    """{label: IndexValue or None} for one unitary, as ``classify`` does."""
    out = {}
    for label in labels:
        stats.add("membership_calls")
        try:
            # odd dimension rules out the even classes; classify reads it as "no"
            member = tr.call("symmetry.membership", membership, u.U, label,
                             expected=(errors.BadParity,))
        except errors.BadParity:
            member = False
        if member:
            stats.add("members")
            out[label] = tr.call("index.topological_index", topological_index, u, label)
        else:
            out[label] = None
    return out


def check_classes(found, expected):
    for label, want in expected.items():
        if want == "?":
            continue
        got = found[label]
        expect((got is None) == (want is None), f"{label} membership")
        if got is not None:
            expect(str(got) == want, f"{label} index {got} != {want}")


def check_planes(bulk, frames, what):
    """The program's half-line planes span the reference frames (right, left)."""
    for plane, frame, side in zip((bulk.plane_plus, bulk.plane_minus), frames,
                                  ("right", "left")):
        got = ref.intersection_dim(frame, plane.frame.matrix)
        expect(got in (frame.shape[1], None), f"{what} plane decaying {side}")


# ------------------------------------------------------------ bulk_stream

class BulkStream:
    name = "bulk_stream"
    probe = "small"
    cycle = len(gen.BULK_SLOTS)
    warmup = 20
    pool = 4000

    def setup(self, seed, workdir):
        self.items = gen.bulk_stream(seed, self.pool)
        self.last = {}

    def run(self, item, tr, stats):
        if item.kind == "planes":
            return self._planes(item.data, tr)
        mf = tr.call("modelfile.parse", parse_model_text, item.text)
        d = item.data
        energy = d["energy"]
        if item.kind == "dirac":
            bulk = tr.call("models.build", dirac_bulk, mf.matrices["W"],
                           energy=mf.energy or 0.0)
            expect(close(bulk.gap, ref.dirac_gap(d["W"], energy)), "dirac gap")
            key = ("dirac", d["W"].shape[0], energy, d["label"])
            if energy:
                check_planes(bulk, ref.dirac_planes(d["W"], energy), "dirac")
        elif item.kind == "schrodinger":
            bulk = tr.call("models.build", schrodinger_bulk, mf.matrices["V"], mf.energy)
            expect(close(bulk.gap, ref.schrodinger_gap(d["V"], energy)), "schrodinger gap")
            check_planes(bulk, ref.schrodinger_planes(d["V"], energy), "schrodinger")
            key = ("schrodinger", d["V"].shape[0])
        else:
            q = len(d["a"])
            a = [mf.matrices[f"a{i}"] for i in range(q)]
            b = [mf.matrices[f"b{i}"] for i in range(q)]
            # the generator placed E = 0 mid-gap of the Bloch bands
            bulk = tr.call("models.tb_bulk",
                           lambda: tb_bulk(TightBindingModel(a, b), mf.energy or 0.0))
            expect(bulk.gap > 0 and close(bulk.gap, ref.transfer_gap(d["a"], d["b"]), 1e-6),
                   "chain gap")
            check_planes(bulk, ref.chain_planes(d["a"], d["b"]), "chain")
            key = ("tb", d["a"][0].shape[0])
        found = classify(tr, stats, bulk.u_plus)
        if item.kind == "schrodinger":
            check_classes(found, ref.schrodinger_classification())
        elif item.kind == "tight_binding":
            check_classes(found, ref.REAL_PLANE_CLASSES)
        elif energy == 0.0:
            polar = ref.polar_unitary(d["W"])
            expect(np.abs(bulk.u_plus.U - polar).max() <= 1e-9, "polar unitary")
            expect(np.abs(bulk.u_minus.U + polar).max() <= 1e-9, "minus polar unitary")
            check_classes(found, ref.classification(polar))
            label = d["label"]
            minus = tr.call("index.topological_index", topological_index,
                            bulk.u_minus, label)
            expect(ref.sum_rule(label, found[label].value, minus.value, d["W"].shape[0]),
                   "bulk sum rule")
        prev = self.last.get(key)
        self.last[key] = (item, bulk, found)
        if prev is not None:
            self._glue(prev, (item, bulk, found), tr)
        return "ok"

    def _glue(self, prev, cur, tr):
        (p_item, p_bulk, p_found), (c_item, c_bulk, c_found) = prev, cur
        if c_item.kind == "tight_binding" and c_item.form_key != p_item.form_key:
            # different seam bonds give different forms: gluing must refuse
            try:
                tr.call("junction.predict", predicted_zero_modes, p_bulk, c_bulk,
                        expected=(errors.IncompatibleBoundary,))
            except errors.IncompatibleBoundary:
                return
            raise Mismatch("glued chains with different seam bonds")
        predicted = tr.call("junction.predict", predicted_zero_modes, p_bulk, c_bulk)
        if c_item.kind == "dirac":
            candidates = [c_item.data["label"], "A"]
        else:
            candidates = ["BDI", "D", "AI", "A"]
        label = next(l for l in candidates if p_found[l] is not None and c_found[l] is not None)
        bound = tr.call("junction.predict", protected_bound, label, p_found[label],
                        c_found[label])
        expect(predicted >= bound, "predicted below bound")
        pd, cd = p_item.data, c_item.data
        if c_item.kind == "dirac":
            expect_count(predicted, ref.dirac_zero_modes(pd["W"], cd["W"], cd["energy"]),
                         "dirac junction")
            if cd["energy"] == 0.0:
                expect(bound == ref.relative_bound(label, str(p_found[label].value),
                                                   str(c_found[label].value)), "bound")
        elif c_item.kind == "schrodinger":
            expect_count(predicted, ref.schrodinger_zero_modes(pd["V"], cd["V"], cd["energy"]),
                         "schrodinger junction")
        else:
            expect_count(predicted, ref.chain_zero_modes((pd["a"], pd["b"]), (cd["a"], cd["b"])),
                         "chain junction")

    def _planes(self, d, tr):
        split = tr.call("symplectic.canonical_split",
                        lambda: canonical_split(SymplecticForm(d["J"])))
        plane = tr.call("symplectic.unitary_to_plane", unitary_to_plane, d["U"], split)
        back = tr.call("symplectic.plane_to_unitary", plane_to_unitary, plane, split)
        expect(np.abs(back.U - d["U"]).max() <= 1e-10, "round trip")
        plane_b = tr.call("symplectic.unitary_to_plane", unitary_to_plane, d["U_b"], split)
        k = tr.call("symplectic.crossing_dim", crossing_dim, d["U"], d["U_b"])
        expect(k == d["k"], f"crossing {k} != {d['k']}")
        k2 = tr.call("linalg.subspace_intersection_dim", subspace_intersection_dim,
                     plane.frame, plane_b.frame)
        expect(k2 == d["k"], f"principal angles {k2} != {d['k']}")
        return "ok"


# -------------------------------------------------------------- sweep_cli

def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class SweepCli:
    name = "sweep_cli"
    probe = "small"
    cycle = len(gen.SWEEP_SLOTS)
    warmup = 2
    cycles = 12

    def setup(self, seed, workdir):
        self.items = []
        for i, entry in enumerate(gen.sweep_plan(seed, self.cycles)):
            argv = self._argv(i, entry, workdir)
            key, uses = self._form_uses(entry)
            self.items.append(gen.Item(entry["command"],
                                       data={**entry, "argv": argv, "form_uses": uses},
                                       form_key=key))

    @staticmethod
    def _form_uses(e):
        """(boundary form, number of bulks or profiles built on it) of a command."""
        c, v = e["command"], e["variant"]
        if c == "sweep":
            key = {"dirac1": ("dirac", 1), "dirac2": ("dirac", 2),
                   "schrodinger": ("schrodinger", 2)}.get(v, ("tb", e.get("t1")))
            return key, len(e["values"]) + 1
        if c == "classify":
            M = e["W"] if v == "dirac" else e["V"]
            return (v, M.shape[0]), 1
        if c == "junction" and v == "pair":
            return ("dirac", e["WL"].shape[0]), 2
        if c in ("junction", "verify"):
            return ("dirac", e["masses"][0].shape[0]), 1
        return None, 0

    @staticmethod
    def _argv(i, e, workdir):
        c = e["command"]
        if c == "sweep":
            path = _write(workdir, f"s{i}.tf", e["template"])
            return ["sweep", "--json", "--model", path, "--class", e["label"],
                    f"--values={e['start']!r}:{e['stop']!r}:{len(e['values'])}"]
        if c == "classify":
            return ["classify", "--json", "--model", _write(workdir, f"c{i}.tf", e["text"])]
        if c == "junction" and e["variant"] == "pair":
            return ["junction", "--json", "--left", _write(workdir, f"l{i}.tf", e["left"]),
                    "--right", _write(workdir, f"r{i}.tf", e["right"]), "--class", e["label"]]
        if c == "junction":
            return ["junction", "--json", "--profile", _write(workdir, f"p{i}.tf", e["text"]),
                    "--class", "D"]
        if c == "verify":
            return ["verify", "--json", "--profile", _write(workdir, f"v{i}.tf", e["text"]),
                    "--class", "D", "--length", "6.0", "--step", "0.0625",
                    "--energy-window", "0.05"]
        return ["table", "--json"]

    def run(self, item, tr, stats):
        e = item.data
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(f"cli.{e['command']}", cli_main, e["argv"])
        expect(code == 0, f"exit {code}: {err.getvalue().strip()[:200]}")
        report = json.loads(out.getvalue())
        rows = report["rows"]
        getattr(self, "_check_" + e["command"])(e, rows, report["meta"])
        return "ok"

    def _check_sweep(self, e, rows, meta):
        values = e["values"]
        expect(len(rows) == len(values), "sweep row count")
        variant = e["variant"]
        v0 = values[0]
        for row, v in zip(rows, values):
            expect(float(row[0]) == float(v), "sweep parameter")
            if variant in ("dirac1", "dirac2"):
                W = e["W"](v)
                expect(close(row[1], ref.dirac_gap(W)), f"gap at {v}")
                expect(row[2] == ref.index_of(ref.polar_unitary(W), "D"), f"index at {v}")
                expect_count(row[3], ref.dirac_zero_modes(e["W"](v0), W), f"predicted at {v}")
            elif variant == "schrodinger":
                V = e["V"](v)
                gap = ref.schrodinger_gap(V, e["energy"])
                if gap <= 0:
                    expect(row[1] == "GAP_CLOSED", f"closed gap at {v}")
                    continue
                expect(close(row[1], gap), f"gap at {v}")
                expect(row[2] == "0", f"index at {v}")
                expect_count(row[3], ref.schrodinger_zero_modes(e["V"](v0), V, e["energy"]),
                             f"predicted at {v}")
            else:
                t1 = e["t1"]
                expect(close(row[1], ref.ssh_gap(t1, v)), f"gap at {v}")
                expect(row[2] == str(ref.ssh_index(t1, v)), f"index at {v}")
                expect(int(row[3]) == int(ref.ssh_index(t1, v) != ref.ssh_index(t1, v0)),
                       f"predicted at {v}")

    def _check_classify(self, e, rows, meta):
        expect([r[0] for r in rows] == list(ref.LABELS), "class rows")
        if e["variant"] == "dirac":
            expect(close(meta["gap"], ref.dirac_gap(e["W"])), "gap")
            found = {r[0]: (r[2] if r[1] == "true" else None) for r in rows}
            check_classes(found, ref.classification(ref.polar_unitary(e["W"])))
        else:
            expect(close(meta["gap"], ref.schrodinger_gap(e["V"], 0.0)), "gap")

    def _check_junction(self, e, rows, meta):
        row = rows[0]
        if e["variant"] == "pair":
            label = e["label"]
            il = ref.index_of(ref.polar_unitary(e["WL"]), label)
            ir = ref.index_of(ref.polar_unitary(e["WR"]), label)
            expect_count(row[2], ref.dirac_zero_modes(e["WL"], e["WR"]), "predicted")
            expect(row[4] == il and row[5] == ir, "indices")
            expect(int(row[3]) == ref.relative_bound(label, il, ir), "bound")
            return
        flips = ref.channel_flips(e["diags"])
        expect(int(row[2]) == flips, f"predicted {row[2]} != {flips}")
        expect(int(row[3]) == flips % 2, "bound")

    def _check_table(self, e, rows, meta):
        expect([r[0] for r in rows] == list(ref.LABELS), "table rows")

    def _check_verify(self, e, rows, meta):
        flips = ref.channel_flips(e["diags"])
        row = rows[0]
        expect(int(row[5]) == flips, f"localized {row[5]} != {flips}")
        expect(row[6] == "PASS", f"verdict {row[6]}")


# -------------------------------------------------------------- transport

class Transport:
    name = "transport"
    probe = "small"
    cycle = gen.TRANSPORT_RANDOM_PROFILES + gen.TRANSPORT_RANDOM_CHAINS
    warmup = 0
    cycles = 80

    def setup(self, seed, workdir):
        self.items = gen.transport(seed, self.cycles)
        self.census = gen.transport_census(seed)

    def run(self, item, tr, stats):
        d = item.data
        mf = tr.call("modelfile.parse", parse_model_text, item.text)
        if item.kind == "profile":
            n = len(d["masses"])
            profile = PiecewiseDiracProfile([mf.matrices[f"W{i}"] for i in range(n)],
                                            mf.lists["breakpoints"])
            rep = tr.call("junction.continuous", continuous_junction_report, profile, 0.0, "D")
            stats.add("reports")
            stats.add("consistent", float(rep.transport_consistent))
            stats.peak("defect", max(rep.defect_plus, rep.defect_minus))
            flips = ref.channel_flips(d["diags"])
            expect(rep.predicted == flips, f"predicted {rep.predicted} != {flips}")
            expect(rep.bound == flips % 2, "bound")
            return "ok"
        q = d["q"]
        a = [mf.matrices[f"a{i}"] for i in range(q)]
        b = [mf.matrices[f"b{i}"] for i in range(q)]
        bulk = tr.call("models.tb_bulk", lambda: tb_bulk(TightBindingModel(a, b), 0.0))
        plus = tr.call("index.topological_index", topological_index, bulk.u_plus, "BDI")
        minus = tr.call("index.topological_index", topological_index, bulk.u_minus, "BDI")
        want = ref.ssh_index(d["t1"], d["t2"])
        expect(plus.value == want, f"index {plus.value} != {want}")
        expect(plus.value + minus.value == 1, "bulk sum rule")
        return "ok"


# ----------------------------------------------------------------- oracle

class Oracle:
    name = "oracle"
    probe = "dense"
    cycle = len(gen.oracle(0))
    warmup = 0
    cycles = 6

    def setup(self, seed, workdir):
        self.items = []
        for c in range(self.cycles):
            self.items.extend(gen.oracle(seed, c))

    def run(self, item, tr, stats):
        d = item.data
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if item.kind == "oracle_seam":
                report, H, spec = self._seam(d, tr)
            else:
                report, H, spec = self._profile(item, tr)
            oracle = tr.call("verify.count", count_near_zero_localized, H, spec)
            verdict = tr.call("verify.compare", oracle_compare, report, oracle)
        stats.add("warnings", len(caught))
        dim = H.shape[0]
        stats.add("dim", dim)
        stats.peak("dense_bytes", 16.0 * dim * dim)
        stats.add("near_zero", oracle.near_zero)
        stats.add("localized", oracle.localized)
        expect(oracle.localized == d["expected"],
               f"{d['name']}: localized {oracle.localized} != {d['expected']}")
        expect(verdict == "PASS", f"{d['name']}: verdict {verdict}")
        return "ok"

    def _seam(self, d, tr):
        models = []
        indices = []
        for a, b in (d["left"], d["right"]):
            mf = tr.call("modelfile.parse", parse_model_text, gen.tb_text(a, b))
            model = TightBindingModel([mf.matrices["a0"], mf.matrices["a1"]],
                                      [mf.matrices["b0"], mf.matrices["b1"]])
            bulk = tr.call("models.tb_bulk", tb_bulk, model, 0.0)
            indices.append(tr.call("index.topological_index", topological_index,
                                   bulk.u_plus, "BDI"))
            models.append(model)
        bound = tr.call("junction.predict", protected_bound, "BDI", *indices)
        expect(bound == d["expected"], f"seam bound {bound}")
        spec = DiscretizationSpec(cells=d["cells"], energy_window=d["window"])
        H = tr.call("verify.assemble", finite_chain, models[0], models[1], spec)
        return (bound, bound), H, spec

    def _profile(self, item, tr):
        d = item.data
        mf = tr.call("modelfile.parse", parse_model_text, item.text)
        n = len(d["masses"])
        profile = PiecewiseDiracProfile([mf.matrices[f"W{i}"] for i in range(n)],
                                        mf.lists["breakpoints"])
        report = tr.call("junction.continuous", continuous_junction_report, profile, 0.0, "D")
        expect(report.predicted == d["expected"], f"{d['name']}: predicted {report.predicted}")
        spec = DiscretizationSpec(length=d["length"], step=d["step"], energy_window=d["window"])
        H = tr.call("verify.assemble", discretize_dirac_junction, profile, spec)
        return report, H, spec


WORKLOADS = {w.name: w for w in (BulkStream, SweepCli, Transport, Oracle)}

