import contextlib
import io
import json
import math
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_junction import CENSUS_BREAKPOINTS, CENSUS_MASSES

from tenfold1d import TOL, LagrangianPlane, predicted_zero_modes, topological_index
from tenfold1d.cli import _COMMANDS, RunReport, _build_parser, _fmt, _parse_values, main
from tenfold1d.errors import (
    BadTemplate,
    GapClosed,
    IncompatibleBoundary,
    NotInGap,
    ParseError,
)
from tenfold1d.modelfile import build_stack, parse_model_text
from tenfold1d.symmetry import CartanClass

DIRAC_POS = "kind dirac\nW [[1.0]]\n"
DIRAC_NEG = "kind dirac\nW [[-1.0]]\n"
WALL = "kind dirac_profile\nW0 [[-1.0]]\nW1 [[1.0]]\nbreakpoints [0.0]\n"
ONE_MASS = "kind dirac_profile\nW0 [[{}]]\nbreakpoints []\n"
FAMILY = "kind dirac\nW [[?]]\n"
SSH_L = ("kind tight_binding\na0 [[1.0]]\na1 [[2.0]]\n"
         "b0 [[0.0]]\nb1 [[0.0]]\n")
SSH_R = ("kind tight_binding\na0 [[2.0]]\na1 [[1.0]]\n"
         "b0 [[0.0]]\nb1 [[0.0]]\n")
# two chains with the seam bond 1.414, at the energy of their seam's bound state
SEAM_L = ("kind tight_binding\na0 [[1.414]]\na1 [[1.906]]\nb0 [[0.992]]\nb1 [[0.0]]\n"
          "energy 1.0755950828132048\n")
SEAM_R = ("kind tight_binding\na0 [[1.414]]\na1 [[2.925]]\nb0 [[-0.906]]\nb1 [[0.0]]\n"
          "energy 1.0755950828132048\n")


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestRunReport:
    def test_csv_layout(self):
        r = RunReport("demo", ["a", "b"], [["1", "x"], ["2", "y"]], {"k": 1})
        assert r.to_csv() == "a,b\n1,x\n2,y\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "--model", "{pos}"],
        ["junction", "--left", "{neg}", "--right", "{pos}", "--class", "D"],
        ["sweep", "--model", "{family}", "--class", "D", "--values=-1:1:5"],
        ["table"],
        ["verify", "--profile", "{wall}", "--class", "D", "--length", "20",
         "--step", "0.1", "--energy-window", "0.1"],
    ], ids=lambda argv: argv[0])
    def test_json_is_the_dataclass_dump(self, write, argv):
        files = {"pos": write("p.tf", DIRAC_POS), "neg": write("n.tf", DIRAC_NEG),
                 "family": write("f.tf", FAMILY), "wall": write("w.tf", WALL)}
        args = _build_parser().parse_args([a.format(**files) for a in argv])
        report, _ = _COMMANDS[args.command](args, TOL)
        assert report.rows
        assert report.to_json() == json.dumps(asdict(report), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--model", "{pos}"],
    ["junction", "--left", "{neg}", "--right", "{pos}", "--class", "D"],
    ["junction", "--profile", "{wall}", "--class", "D"],
    ["sweep", "--model", "{family}", "--class", "D", "--values=-1:1:5"],
    ["table"],
    ["verify", "--profile", "{wall}", "--class", "D", "--length", "20",
     "--step", "0.1", "--energy-window", "0.1"],
    ["verify", "--left", "{ssh_l}", "--right", "{ssh_r}", "--class", "BDI",
     "--cells", "60", "--energy-window", "1e-3"],
], ids=["classify", "junction-pair", "junction-profile", "sweep", "table",
        "verify-profile", "verify-pair"])
def test_no_command_builds_a_plane(write, monkeypatch, capsys, argv):
    # every command decides on Leray unitaries alone; planes are built
    # only when a library caller asks for one
    built = []

    def refuse(self, *args, **kwargs):
        built.append(argv[0])
        raise AssertionError("a command built a LagrangianPlane")

    monkeypatch.setattr(LagrangianPlane, "__init__", refuse)
    files = {"pos": write("p.tf", DIRAC_POS), "neg": write("n.tf", DIRAC_NEG),
             "family": write("f.tf", FAMILY), "wall": write("w.tf", WALL),
             "ssh_l": write("l.tf", SSH_L), "ssh_r": write("r.tf", SSH_R)}
    assert main([a.format(**files) for a in argv]) == 0
    assert built == []


class TestClassify:
    def test_all_ten_rows(self, write, capsys):
        code = main(["classify", "--model", write("m.tf", DIRAC_POS)])
        out, err = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["class", "member", "index"]
        assert len(rows) == 10
        table = {r[0]: (r[1], r[2]) for r in rows}
        assert table["A"] == ("true", "0")
        assert table["AIII"] == ("true", "1")
        assert table["BDI"] == ("true", "1")
        assert table["D"] == ("true", "+1")
        assert table["DIII"][0] == "false"
        assert table["C"][0] == "false"
        assert "# gap: 1.0" in err

    @pytest.mark.parametrize("energy, members", [
        ("", {"A": "0", "AIII": "1", "AI": "0", "BDI": "1", "D": "-1"}),
        # the energy breaks the chiral and particle-hole symmetries, not time reversal
        ("energy 0.3\n", {"A": "0", "AI": "0"}),
    ])
    def test_dirac_energy_line(self, write, capsys, energy, members):
        text = "kind dirac\nW [[1.5, 0.4], [0.4, -1.1]]\n" + energy
        assert main(["classify", "--model", write("m.tf", text)]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert {r[0]: r[2] for r in rows if r[1] == "true"} == members

    def test_single_class_member(self, write):
        assert main(["classify", "--model", write("m.tf", DIRAC_POS),
                     "--class", "AIII"]) == 0

    def test_single_class_nonmember_exits_2(self, write):
        assert main(["classify", "--model", write("m.tf", DIRAC_POS),
                     "--class", "DIII"]) == 2

    def test_json_output(self, write, capsys):
        code = main(["classify", "--model", write("m.tf", DIRAC_NEG), "--json"])
        out, _ = capsys.readouterr()
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "classify"
        assert data["meta"]["gap"] == 1.0
        d_row = [r for r in data["rows"] if r[0] == "D"][0]
        assert d_row[2] == "-1"

    def test_out_file(self, write, tmp_path, capsys):
        target = tmp_path / "r.csv"
        code = main(["classify", "--model", write("m.tf", DIRAC_POS),
                     "--out", str(target)])
        out, _ = capsys.readouterr()
        assert code == 0 and out == ""
        assert target.read_text().startswith("class,member,index\n")

    def test_missing_file_exits_3(self):
        assert main(["classify", "--model", "/nonexistent/m.tf"]) == 3

    def test_parse_error_exits_3(self, write):
        assert main(["classify", "--model", write("m.tf", "kind dirac\n")]) == 3

    @pytest.mark.parametrize("text, key", [
        (SSH_L.replace("a1 ", "a01 "), "a01"),
        (WALL.replace("W1 ", "W01 "), "W01"),
    ], ids=["tight_binding", "dirac_profile"])
    def test_zero_padded_index_exits_3(self, write, capsys, text, key):
        path = write("m.tf", text)
        assert main(["classify", "--model", path]) == 3
        _, err = capsys.readouterr()
        assert err == f"tenfold1d: error: {path}:3: key '{key}' must be written {key[0]}1\n"

    def test_non_finite_energy_exits_3(self, write, capsys):
        assert main(["classify", "--model", write("m.tf", DIRAC_POS),
                     "--energy", "nan"]) == 3
        _, err = capsys.readouterr()
        assert err == "tenfold1d: NotInGap: energy must be finite, got nan\n"

    def test_gap_closed_exits_3(self, write):
        assert main(["classify", "--model", write("m.tf", "kind dirac\nW [[0.0]]\n")]) == 3

    def test_byte_order_mark_is_accepted(self, write, tmp_path, capsys):
        # Notepad and PowerShell 5's Out-File -Encoding utf8 start a file with one
        bom = tmp_path / "bom.tf"
        bom.write_bytes(b"\xef\xbb\xbf" + DIRAC_POS.encode())
        assert main(["classify", "--model", str(bom)]) == 0
        out, _ = capsys.readouterr()
        assert main(["classify", "--model", write("m.tf", DIRAC_POS)]) == 0
        assert rows_of(out)[1][:10] == rows_of(capsys.readouterr()[0])[1][:10]

    def test_strong_seam_bond_answers(self, write, capsys):
        # a seam bond 5e16 times the other is a trivial SSH chain (ROADMAP item 11)
        path = write("m.tf", "kind tight_binding\na0 [[5e16]]\na1 [[1.0]]\n"
                             "b0 [[0.0]]\nb1 [[0.0]]\n")
        assert main(["classify", "--model", path]) == 0
        out, _ = capsys.readouterr()
        assert "BDI,true,0" in out.splitlines()

    def test_chain_far_above_its_band_answers(self, write, capsys):
        # at E = 1e18 the SSH chain's transfer spectrum is near 0 and infinity: gap 1
        path = write("hot.tf", "kind tight_binding\na0 [[1.0]]\na1 [[2.0]]\n"
                               "b0 [[0.0]]\nb1 [[0.0]]\nenergy 1e18\n")
        assert main(["classify", "--json", "--model", path]) == 0
        assert json.loads(capsys.readouterr()[0])["meta"]["gap"] == pytest.approx(1.0, abs=1e-12)


class TestJunction:
    def test_hard_pair(self, write, capsys):
        code = main(["junction", "--left", write("l.tf", DIRAC_NEG),
                     "--right", write("r.tf", DIRAC_POS), "--class", "D"])
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert row["predicted"] == "1"
        assert row["bound"] == "1"
        assert row["index_left"] == "-1" and row["index_right"] == "+1"

    def test_hard_pair_without_class(self, write, capsys):
        code = main(["junction", "--left", write("l.tf", DIRAC_NEG),
                     "--right", write("r.tf", DIRAC_POS)])
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert row["predicted"] == "1" and row["bound"] == ""

    def test_profile(self, write, capsys):
        code = main(["junction", "--profile", write("p.tf", WALL), "--class", "D"])
        out, err = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert row["predicted"] == "1" and row["transport_consistent"] == "true"
        assert "predicted_principal_angles" not in err

    @pytest.mark.parametrize("mass", ["1.0", "-1.0"])
    def test_one_mass_profile(self, write, capsys, mass):
        # one mass and no breakpoints is a constant bulk: no junction, no mode
        code = main(["junction", "--profile", write("p.tf", ONE_MASS.format(mass)), "--class", "D"])
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert (row["predicted"], row["bound"], row["transport_consistent"]) == ("0", "0", "true")

    def test_profile_needs_class(self, write):
        assert main(["junction", "--profile", write("p.tf", WALL)]) == 3

    def test_needs_some_input(self):
        assert main(["junction", "--class", "D"]) == 3

    def test_ambiguous_count_exits_2(self, write, capsys):
        text = "kind dirac_profile\n" + "".join(
            f"W{j} {json.dumps(W)}\n" for j, W in enumerate(CENSUS_MASSES)
        ) + f"breakpoints {json.dumps(CENSUS_BREAKPOINTS)}\n"
        code = main(["junction", "--profile", write("p.tf", text), "--class", "D"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("tenfold1d: AmbiguousKernel: ") and err.count("\n") == 1

    def test_class_needing_even_dimension_exits_2(self, write, capsys):
        code = main(["junction", "--left", write("l.tf", DIRAC_NEG),
                     "--right", write("r.tf", DIRAC_POS), "--class", "DIII"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "tenfold1d: BadParity: class DIII needs even dimension, got 1\n"

    def test_left_error_wins_when_both_fail(self, write, capsys):
        code = main(["junction", "--left", write("l.tf", "kind dirac\nW [[0.5]]\n"),
                     "--right", write("r.tf", "kind dirac\nW [[0.3]]\n"), "--energy", "0.9"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "tenfold1d: GapClosed: energy 0.9 is not inside the gap (m0 = 0.5)\n"

    def test_chain_never_glues_to_a_schrodinger_bulk(self, write, capsys):
        # a seam bond of -1 gives the chain the Schrodinger form entry for entry
        chain = write("c.tf", SSH_L.replace("a0 [[1.0]]", "a0 [[-1.0]]"))
        wire = write("s.tf", "kind schrodinger\nV [[1.0]]\nenergy 0\n")
        code = main(["junction", "--left", chain, "--right", wire, "--class", "A"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == ("tenfold1d: IncompatibleBoundary: cannot glue a tight_binding "
                       "bulk to a schrodinger bulk\n")

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_energy_lines_must_agree(self, write, capsys, order):
        files = [write("a.tf", DIRAC_POS + "energy 0.5\n"),
                 write("b.tf", DIRAC_NEG + "energy -0.3\n")]
        left, right = (files[i] for i in order)
        assert main(["junction", "--left", left, "--right", right]) == 3
        out, err = capsys.readouterr()
        values = ["0.5", "-0.3"]
        assert out == ""
        assert err == (f"tenfold1d: error: energy lines differ: {values[order[0]]} vs "
                       f"{values[order[1]]}; pass --energy\n")

    @pytest.mark.parametrize("flags, energy", [
        (["--energy", "0.1"], "0.1"),
        ([], "0.5"),
    ], ids=["flag", "one_line"])
    def test_energy_that_still_answers(self, write, capsys, flags, energy):
        # --energy overrides both lines; a file without an energy line conflicts with nothing
        second = DIRAC_POS + ("energy -0.3\n" if flags else "")
        code = main(["junction", "--left", write("l.tf", DIRAC_NEG + "energy 0.5\n"),
                     "--right", write("r.tf", second)] + flags)
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        assert dict(zip(header, rows[0]))["energy"] == energy

    def test_incompatible_seam_exits_3(self, write):
        code = main(["junction", "--left", write("l.tf", SSH_L),
                     "--right", write("r.tf", SSH_R), "--class", "BDI"])
        assert code == 3


class TestSweep:
    def test_sign_family(self, write, capsys):
        code = main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values=-1:1:5"])
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["parameter", "gap", "index", "predicted"]
        assert [r[0] for r in rows] == ["-1.0", "-0.5", "0.0", "0.5", "1.0"]
        assert rows[2][1] == "GAP_CLOSED"
        assert [r[2] for r in rows] == ["-1", "-1", "", "+1", "+1"]
        # reference is the first grid point, so the predicted column
        # flips where the sign does
        assert [r[3] for r in rows] == ["0", "0", "", "1", "1"]

    def test_comma_values_and_ref(self, write, capsys):
        code = main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values", "0.5,2.0", "--ref", "-1.0"])
        out, _ = capsys.readouterr()
        assert code == 0
        _, rows = rows_of(out)
        assert [r[3] for r in rows] == ["1", "1"]

    def test_template_needs_one_hole(self, write):
        assert main(["sweep", "--model", write("f.tf", DIRAC_POS),
                     "--class", "D", "--values", "1.0"]) == 3
        assert main(["sweep", "--model", write("f.tf", "kind dirac\nW [[?, ?]]\n"),
                     "--class", "D", "--values", "1.0"]) == 3

    def test_hole_in_a_comment_line_exits_3(self, write, capsys):
        # the '?' would change no model line, so the sweep would print one row many times
        path = write("f.tf", "kind dirac\n# mass?\nW [[1.0]]\n")
        assert main(["sweep", "--model", path, "--class", "D", "--values=0,0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"tenfold1d: error: {path}:2: the '?' sits in a comment line, "
                       "so every grid point would be the same model\n")

    def test_byte_order_mark_is_accepted(self, write, tmp_path, capsys):
        bom = tmp_path / "bom.tf"
        bom.write_bytes(b"\xef\xbb\xbf" + FAMILY.encode())
        assert main(["sweep", "--model", str(bom), "--class", "D", "--values=-1:1:5"]) == 0
        out, _ = capsys.readouterr()
        assert main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values=-1:1:5"]) == 0
        assert rows_of(out) == rows_of(capsys.readouterr()[0])

    def test_gapless_reference_exits_3(self, write):
        assert main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values", "0.0,1.0"]) == 3

    def test_bad_values_exit_3(self, write):
        assert main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values", "1.0:2.0"]) == 3

    def test_empty_grid_exits_3(self, write, capsys):
        assert main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values=0:1:0"]) == 3
        _, err = capsys.readouterr()
        assert err == "tenfold1d: error: bad --values '0:1:0': count must be positive\n"

    def test_singular_reference_exits_3(self, write, capsys):
        tmpl = "kind tight_binding\na0 [[1.0]]\na1 [[?]]\nb0 [[0.0]]\nb1 [[0.0]]\n"
        assert main(["sweep", "--model", write("t.tf", tmpl), "--class", "BDI",
                     "--values=1,2", "--ref", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "tenfold1d: NotInvertible: bond block with sigma_min 0.000e+00\n"

    @pytest.mark.parametrize("flags, named", [
        (["--values=nan,1"], "--values"),
        (["--values=1:inf:3"], "--values"),
        (["--values=1,2", "--ref=inf"], "--ref"),
    ])
    def test_non_finite_flag_names_the_flag(self, write, capsys, flags, named):
        assert main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     *flags]) == 3
        _, err = capsys.readouterr()
        assert err.startswith(f"tenfold1d: error: bad {named} ")
        assert "f.tf" not in err

    def test_non_finite_energy_exits_3(self, write, capsys):
        assert main(["sweep", "--model", write("f.tf", FAMILY), "--class", "D",
                     "--values=1,2", "--energy=nan"]) == 3
        _, err = capsys.readouterr()
        assert "energy must be finite" in err and "LinAlgError" not in err


    def test_energy_template(self, write, capsys):
        # each point carries its own energy, so only the reference's own
        # energy has a glued count; the band edge closes the last point
        code = main(["sweep", "--model", write("e.tf", "kind dirac\nW [[1.0]]\nenergy ?\n"),
                     "--class", "A", "--values=-0.5:1.0:7"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == ("parameter,gap,index,predicted\n"
                       "-0.5,0.5,0,0\n"
                       "-0.25,0.75,0,NA\n"
                       "0.0,1.0,0,NA\n"
                       "0.25,0.75,0,NA\n"
                       "0.5,0.5,0,NA\n"
                       "0.75,0.25,0,NA\n"
                       "1.0,GAP_CLOSED,,\n")
        assert err.endswith("# class: A\n# reference: -0.5\n")

    def test_first_failing_point_decides_the_error(self, write, capsys):
        # the second point has a singular bond and the third does not parse
        # ('--1.0'); the grid is built at once, but the second point fails first
        tmpl = "kind tight_binding\na0 [[1.0]]\na1 [[-?]]\nb0 [[0.0]]\nb1 [[0.0]]\n"
        code = main(["sweep", "--model", write("t.tf", tmpl), "--class", "BDI",
                     "--values=0.5,0,-1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "tenfold1d: NotInvertible: bond block with sigma_min 0.000e+00\n"

    def test_point_outside_the_class_exits_2(self, write, capsys):
        # a nonzero energy breaks particle-hole symmetry, so class D fails
        code = main(["sweep", "--model", write("e.tf", "kind dirac\nW [[1.0]]\nenergy ?\n"),
                     "--class", "D", "--values=0,0.5"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "tenfold1d: NotInClass: matrix fails the D membership test\n"


def reference_sweep(args, tol):
    """``cmd_sweep`` point by point: every point's text parsed in full, and
    its bulk, index and predicted count taken one at a time."""
    with open(args.model, encoding="utf-8") as fh:
        template = fh.read()
    holes = template.count("?")
    if holes != 1:
        raise BadTemplate(f"{args.model}: template needs exactly one '?', found {holes}")
    label = CartanClass.coerce(args.cartan)
    values = _parse_values(args.values)
    if args.ref is not None and not math.isfinite(args.ref):
        raise ParseError(f"bad --ref {args.ref!r}: must be finite")

    def parse_at(v):
        return parse_model_text(template.replace("?", repr(float(v))),
                                source=f"{args.model}[?={v:g}]")

    ref_value = values[0] if args.ref is None else float(args.ref)
    mfs = [parse_at(ref_value)]
    parse_error = None
    for v in values:
        try:
            mfs.append(parse_at(v))
        except ValueError as exc:
            parse_error = exc
            break
    ref_bulk, *bulks = [build_stack([mf], tol, energy=args.energy)[0] for mf in mfs]
    if isinstance(ref_bulk, (GapClosed, NotInGap)):
        raise ParseError(f"reference point {ref_value:g} is not gapped: {ref_bulk}")
    if isinstance(ref_bulk, Exception):
        raise ref_bulk
    rows = []
    for v, bulk in zip(values, bulks):
        if isinstance(bulk, (GapClosed, NotInGap)):
            rows.append([_fmt(v), "GAP_CLOSED", "", ""])
            continue
        if isinstance(bulk, Exception):
            raise bulk
        idx = topological_index(bulk.u_plus, label, tol)
        try:
            predicted = predicted_zero_modes(ref_bulk, bulk, tol)
        except IncompatibleBoundary:
            predicted = None
        rows.append([_fmt(v), _fmt(bulk.gap), str(idx), _fmt(predicted)])
    if parse_error is not None:
        raise parse_error
    meta = {"model": args.model, "class": label.value, "reference": ref_value}
    return RunReport("sweep", ["parameter", "gap", "index", "predicted"], rows, meta), 0


def run_main(argv, sweep=None):
    """(exit code, stdout, stderr) of one main call, with sweep in place of cmd_sweep."""
    saved = _COMMANDS["sweep"]
    _COMMANDS["sweep"] = sweep or saved
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        _COMMANDS["sweep"] = saved
    return code, out.getvalue(), err.getvalue()


def _entry(x):
    return repr(float(x))


def _matrix(entries, N):
    """A model file's N x N matrix of N * N entry strings, row by row."""
    return "[" + ", ".join("[" + ", ".join(entries[r * N:(r + 1) * N]) + "]" for r in range(N)) + "]"


@st.composite
def sweep_templates(draw):
    """A one-'?' template: Dirac (N = 1, 2), Schrodinger, or a chain of period 2
    or 3 with N = 1, or of period 2 with N = 2. The '?' is a matrix entry, as
    '?', '-?' or the real part of the complex entry [?, 0.5], or the energy. A
    chain's '?' sits in a bond or in a site block; off the diagonal of a site
    block, or complex on it, most values make the block non-hermitian. A
    chain without '?' on its energy line sits at E = 0 or above its bands."""
    family = draw(st.sampled_from(["dirac1", "dirac2", "schrodinger", "chain2", "chain3",
                                   "chain2n2"]))
    hole = draw(st.sampled_from(["?", "-?", "[?, 0.5]", "energy"]))
    coef = st.integers(-20, 20).map(lambda k: k / 10)
    h = "0.0" if hole == "energy" else hole
    energy = "" if hole != "energy" else "energy ?\n"
    if family == "dirac1":
        body = f"W [[{h if hole != 'energy' else _entry(draw(coef))}]]\n"
        return "kind dirac\n" + body + energy
    if family == "dirac2":
        c, d, e = (_entry(draw(coef)) for _ in range(3))
        first = h if hole != "energy" else _entry(draw(coef))
        return f"kind dirac\nW [[{first}, {c}], [{d}, {e}]]\n" + energy
    if family == "schrodinger":
        c, dd = _entry(draw(coef)), _entry(draw(st.integers(5, 20)) / 10)
        first = h if hole != "energy" else _entry(draw(coef))
        return (f"kind schrodinger\nV [[{first}, {c}], [{c}, {dd}]]\n"
                + (energy or "energy 0.0\n"))
    q, N = int(family[5]), 2 if family.endswith("n2") else 1
    bonds, sites = [], []
    for _ in range(q):
        # strong diagonals keep most bonds invertible; sites are real symmetric
        bond = [_entry(draw(st.integers(5, 20)) / 10) if r == c else _entry(draw(coef) / 4)
                for r in range(N) for c in range(N)]
        site = [_entry(draw(st.sampled_from([0.0, 0.0, 0.3, -0.5]))) for _ in range(N * N)]
        for r in range(N):
            for c in range(r):
                site[r * N + c] = site[c * N + r]
        bonds.append(bond)
        sites.append(site)
    if hole != "energy":
        # in a bond, the value 0 can give a singular bond, and in the seam bond a0
        # every other value has its own form and glues as NA
        blocks = draw(st.sampled_from([bonds, sites]))
        blocks[draw(st.integers(0, q - 1))][draw(st.integers(0, N * N - 1))] = hole
    lines = ([f"a{i} {_matrix(a, N)}" for i, a in enumerate(bonds)]
             + [f"b{i} {_matrix(b, N)}" for i, b in enumerate(sites)])
    # E = 0 meets the bands at some values; E = 9 is above every band of the family
    energy = energy or draw(st.sampled_from(["", "energy 9.0\n"]))
    return "kind tight_binding\n" + "\n".join(lines) + "\n" + energy


class TestSweepMatchesPointByPoint:
    # values at tenths reach the gap closings, 0 (a singular bond), and
    # negative values, which make '-?' the unparsable '--1.0'
    values = st.lists(st.integers(-25, 25).map(lambda k: k / 10), min_size=1, max_size=6)

    @given(template=sweep_templates(), values=values,
           ref=st.none() | st.integers(-25, 25).map(lambda k: k / 10),
           label=st.sampled_from(["A", "AI", "D", "BDI"]) | st.sampled_from(list(CartanClass)))
    # the reference's sites are hermitian, the second point's are not, and its error
    # beats the third point's rows
    @example(template="kind tight_binding\na0 [[1.0, 0.0], [0.0, 1.5]]\na1 [[2.0, 0.1], [0.0, 0.5]]\n"
                      "b0 [[0.0, ?], [0.3, 0.0]]\nb1 [[0.3, 0.0], [0.0, -0.5]]\n",
             values=[0.3, 0.5, 0.3], ref=None, label="BDI")
    # two seams, each shared by two points
    @example(template="kind tight_binding\na0 [[?, 0.0], [0.0, 1.5]]\na1 [[2.0, 0.1], [0.0, 0.5]]\n"
                      "b0 [[0.0, 0.0], [0.0, 0.0]]\nb1 [[0.0, 0.0], [0.0, 0.0]]\n",
             values=[1.5, 0.8, 1.5, 0.8], ref=0.8, label="A")
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_exit_stdout_and_stderr(self, write, template, values, ref, label):
        argv = ["sweep", "--model", write("t.tf", template), "--class", str(CartanClass(label).value),
                "--values=" + ",".join(map(repr, values))]
        if ref is not None:
            argv += ["--ref", repr(ref)]
        for flags in ([], ["--json"]):
            got = run_main(argv + flags)
            assert got == run_main(argv + flags, sweep=reference_sweep), template

    def test_bulk_error_wins_over_a_later_points_bad_parity(self, write, capsys):
        # the first point's bond is singular; the second builds, but DIII needs
        # an even dimension, which the grid's one index call raises for every point
        tmpl = "kind tight_binding\na0 [[1.0]]\na1 [[?]]\nb0 [[0.0]]\nb1 [[0.0]]\n"
        path = write("t.tf", tmpl)
        code = main(["sweep", "--model", path, "--class", "DIII", "--values=0,1.5", "--ref", "2.0"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "tenfold1d: NotInvertible: bond block with sigma_min 0.000e+00\n"
        code = main(["sweep", "--model", path, "--class", "DIII", "--values=1.5,0", "--ref", "2.0"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "tenfold1d: BadParity: class DIII needs even dimension, got 1\n"


class TestTable:
    def test_ten_classes(self, capsys):
        assert main(["table"]) == 0
        out, _ = capsys.readouterr()
        header, rows = rows_of(out)
        assert header == ["class", "T^2", "C^2", "chiral", "manifold", "index"]
        assert len(rows) == 10
        d = dict(zip(header, [r for r in rows if r[0] == "D"][0]))
        assert d["T^2"] == "none" and d["C^2"] == "+1" and d["chiral"] == "no"
        assert d["manifold"] == "O(N)"


class TestVerify:
    def test_left_error_wins_when_both_fail(self, write, capsys):
        # the left chain has a singular bond, the right one closes its gap at E = 0
        singular = "kind tight_binding\na0 [[0.0]]\na1 [[1.0]]\nb0 [[0.0]]\nb1 [[0.0]]\n"
        gapless = "kind tight_binding\na0 [[1.0]]\na1 [[1.0]]\nb0 [[0.0]]\nb1 [[0.0]]\n"
        code = main(["verify", "--left", write("l.tf", singular), "--right", write("r.tf", gapless),
                     "--cells", "20", "--energy-window", "1e-3"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("tenfold1d: NotInvertible: bond block with sigma_min ")

    def test_chain_seam_passes(self, write, capsys):
        code = main(["verify", "--left", write("l.tf", SSH_L),
                     "--right", write("r.tf", SSH_R), "--class", "BDI",
                     "--cells", "60", "--energy-window", "1e-3"])
        out, err = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        # differing seam bonds: no transversal count, but the bound stands
        assert row["predicted"] == "NA"
        assert row["bound"] == "1"
        assert row["near_zero"] == "2"
        assert row["localized"] == "1"
        assert row["verdict"] == "PASS"
        assert "# index_left: 1" in err

    def test_supercell_wall_keeps_its_core_on_the_junction(self, write, capsys):
        # the right chain as its period-8 supercell: each side holds 8 * cells sites,
        # so the wall state sits in the central core as it does at period 2
        ssh_r8 = "kind tight_binding\n" + "".join(
            f"a{i} [[{2.0 if i % 2 == 0 else 1.0}]]\nb{i} [[0.0]]\n" for i in range(8))
        code = main(["verify", "--left", write("l.tf", SSH_L), "--right", write("r8.tf", ssh_r8),
                     "--class", "BDI", "--cells", "40", "--energy-window", "1e-3"])
        out, err = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert (row["bound"], row["near_zero"], row["localized"], row["verdict"]) == (
            "1", "2", "1", "PASS")
        assert "# matrix_dim: 640" in err

    def test_seam_geometry_matches_the_prediction(self, write, capsys):
        # the finite chain glues at the trace (psi_0, psi_1) like the prediction,
        # so the seam's bound state is found where it is predicted
        code = main(["verify", "--left", write("l.tf", SEAM_L), "--right", write("r.tf", SEAM_R),
                     "--cells", "60", "--energy-window", "1e-6"])
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert (row["predicted"], row["near_zero"], row["localized"]) == ("1", "1", "1")
        assert row["verdict"] == "PASS"

    def test_energy_lines_must_agree(self, write, capsys):
        code = main(["verify", "--left", write("l.tf", SEAM_L),
                     "--right", write("r.tf", SEAM_R.replace("energy 1.0755950828132048", "energy 0.9")),
                     "--cells", "60", "--energy-window", "1e-6"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == ("tenfold1d: error: energy lines differ: 1.0755950828132048 vs 0.9; "
                       "pass --energy\n")

    @pytest.mark.parametrize("flags", [["--energy", "1.0755950828132048"], []],
                             ids=["flag", "one_line"])
    def test_energy_that_still_answers(self, write, capsys, flags):
        right = SEAM_R.replace("energy 1.0755950828132048", "energy 0.0" if flags else "")
        code = main(["verify", "--left", write("l.tf", SEAM_L), "--right", write("r.tf", right),
                     "--cells", "60", "--energy-window", "1e-6"] + flags)
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert (row["energy"], row["predicted"], row["verdict"]) == ("1.0755950828132048", "1", "PASS")

    def test_energies_on_the_energy_axis(self, write, capsys):
        # both chains sit at on-site energy 0.3, so the seam pair does too;
        # the count runs on H - 0.3, and its energies are shifted back
        onsite = lambda text: text.replace("b0 [[0.0]]\nb1 [[0.0]]", "b0 [[0.3]]\nb1 [[0.3]]")
        code = main(["verify", "--left", write("l.tf", onsite(SSH_L)),
                     "--right", write("r.tf", onsite(SSH_R)), "--class", "BDI",
                     "--cells", "60", "--energy-window", "1e-3", "--energy", "0.3", "--json"])
        out, _ = capsys.readouterr()
        assert code == 0
        report = json.loads(out)
        assert report["rows"][0][1] == "0.3"
        energies = report["meta"]["energies"]
        assert len(energies) == 2
        assert all(abs(e - 0.3) < 1e-9 for e in energies)

    def test_profile_wall_passes(self, write, capsys):
        code = main(["verify", "--profile", write("p.tf", WALL), "--class", "D",
                     "--length", "20", "--step", "0.1", "--energy-window", "0.1"])
        out, _ = capsys.readouterr()
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][-1] == "PASS"
        assert rows[0][2] == "1" and rows[0][5] == "1"

    @pytest.mark.parametrize("mass", ["1.0", "-1.0"])
    def test_one_mass_profile_passes(self, write, capsys, mass):
        code = main(["verify", "--profile", write("p.tf", ONE_MASS.format(mass)), "--class", "D",
                     "--length", "20", "--step", "0.1", "--energy-window", "0.1"])
        out, _ = capsys.readouterr()
        assert code == 0
        header, rows = rows_of(out)
        row = dict(zip(header, rows[0]))
        assert (row["predicted"], row["near_zero"], row["localized"]) == ("0", "0", "0")
        assert row["verdict"] == "PASS"

    def test_warnings_are_one_line(self, write, capsys):
        # one channel keeps its sign across the wall: indefinite outer mass
        two = ("kind dirac_profile\nW0 [[-1.0, 0.0], [0.0, 1.0]]\n"
               "W1 [[1.0, 0.0], [0.0, 1.0]]\nbreakpoints [0.0]\n")
        code = main(["verify", "--profile", write("p.tf", two), "--class", "D",
                     "--length", "15", "--step", "0.1", "--energy-window", "0.1"])
        _, err = capsys.readouterr()
        assert code == 0
        lines = err.splitlines()
        assert ("tenfold1d: warning: length 15 is short for gap 1; "
                "junction modes may leak into the walls") in lines
        assert ("tenfold1d: warning: indefinite mass at an outer end; "
                "the hard wall binds edge modes in some channels") in lines
        assert "UserWarning" not in err

    def test_starved_core_fails(self, write):
        # shrinking the core below the mode's footprint must FAIL loudly
        code = main(["verify", "--left", write("l.tf", SSH_L),
                     "--right", write("r.tf", SSH_R), "--class", "BDI",
                     "--cells", "60", "--energy-window", "1e-3",
                     "--core-fraction", "0.01"])
        assert code == 2

    def test_profile_needs_class(self, write):
        assert main(["verify", "--profile", write("p.tf", WALL),
                     "--length", "20", "--step", "0.1",
                     "--energy-window", "0.1"]) == 3

    def test_infinite_length_exits_3(self, write, capsys):
        assert main(["verify", "--profile", write("p.tf", WALL), "--class", "D",
                     "--length", "inf", "--step", "0.1",
                     "--energy-window", "0.1"]) == 3
        _, err = capsys.readouterr()
        assert err == "tenfold1d: error: length must be finite and positive, got inf\n"

    def test_missing_geometry_exits_3(self, write):
        assert main(["verify", "--profile", write("p.tf", WALL), "--class", "D",
                     "--energy-window", "0.1"]) == 3

    def test_needs_a_source(self, capsys):
        assert main(["verify", "--class", "D", "--energy-window", "0.1"]) == 3
        _, err = capsys.readouterr()
        assert err == "tenfold1d: error: verify needs --profile, or --left and --right\n"

    def test_window_required_by_parser(self, write):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--left", write("l.tf", SSH_L),
                  "--right", write("r.tf", SSH_R), "--cells", "10"])
        assert exc.value.code == 2


class TestGlobalFlags:
    def test_json_before_subcommand(self, capsys):
        assert main(["--json", "table"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["kind"] == "table"

    def test_json_after_subcommand(self, capsys):
        assert main(["table", "--json"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["kind"] == "table"

    def test_tolerance_override(self, write):
        assert main(["classify", "--model", write("m.tf", DIRAC_POS),
                     "--tol-eig", "1e-6", "--tol-rank", "1e-8"]) == 0

    def test_bad_tolerance_exits_3(self, capsys):
        assert main(["table", "--tol-eig", "2"]) == 3
        _, err = capsys.readouterr()
        assert err.startswith("tenfold1d: ") and "eig_tol" in err

    def test_unwritable_out_exits_3(self, capsys):
        assert main(["table", "--out", "/nonexistent/x.csv"]) == 3
        _, err = capsys.readouterr()
        assert err.startswith("tenfold1d: error: ")


class TestParserPerProcess:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_json_does_not_stick(self, capsys):
        assert main(["table", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "table"
        assert main(["table"]) == 0
        assert capsys.readouterr().out.startswith("class,T^2,C^2,chiral,manifold,index\n")

    def test_flags_do_not_reach_the_next_call(self, write, tmp_path, capsys, monkeypatch):
        seen = []

        def spy(args, tol):
            seen.append((args.tol_eig, args.out, args.energy, tol))
            return _COMMANDS_BEFORE["classify"](args, tol)

        _COMMANDS_BEFORE = dict(_COMMANDS)
        monkeypatch.setitem(_COMMANDS, "classify", spy)
        model = write("m.tf", DIRAC_POS)
        out_file = tmp_path / "out.csv"
        assert main(["classify", "--model", model, "--tol-eig", "1e-6",
                     "--out", str(out_file), "--energy", "0.5"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["classify", "--model", model]) == 0
        assert capsys.readouterr().out.startswith("class,member,index\n")
        (eig, out, energy, tol), again = seen
        assert (eig, out, energy) == (1e-6, str(out_file), 0.5) and tol.eig_tol == 1e-6
        assert again == (None, None, None, TOL)

    def test_usage_error_leaves_the_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["table"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 10
