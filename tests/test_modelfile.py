import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfold1d.errors import ParseError
from tenfold1d.modelfile import (
    ModelFile,
    build_bulk,
    build_profile,
    build_stack,
    build_tb,
    parse_model,
    parse_model_text,
)

DIRAC = """\
# scalar mass
kind dirac
W [[1.0]]
"""

SCHRODINGER = """\
kind schrodinger
V [[0.0]]
energy -1.0
"""

TIGHT_BINDING = """\
kind tight_binding
a0 [[1.0]]
a1 [[2.0]]
b0 [[0.0]]
b1 [[0.0]]
"""

PROFILE = """\
kind dirac_profile
W0 [[-1.0]]
W1 [[1.0]]
breakpoints [0.0]
"""


class TestParsing:
    def test_dirac(self):
        mf = parse_model_text(DIRAC)
        assert mf.kind == "dirac" and mf.energy is None
        assert mf.matrices["W"].shape == (1, 1)

    def test_complex_entries(self):
        mf = parse_model_text("kind dirac\nW [[[0.0, 1.0]]]\n")
        assert mf.matrices["W"][0, 0] == 1j

    def test_comments_and_blanks_skipped(self):
        mf = parse_model_text("\n# c\nkind dirac\n\nW [[2.0]]\n")
        assert mf.matrices["W"][0, 0] == 2.0

    def test_bare_word_value(self):
        # 'kind dirac' carries a bare identifier, not JSON
        assert parse_model_text("kind dirac\nW [[1]]").kind == "dirac"

    def test_missing_kind(self):
        with pytest.raises(ParseError, match="kind"):
            parse_model_text("W [[1.0]]")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind must be one of"):
            parse_model_text("kind hubbard\nW [[1.0]]")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_model_text("kind dirac\nW [[1.0]]\nW [[2.0]]")

    def test_unknown_key_located(self):
        with pytest.raises(ParseError, match=r"model\.tf:3"):
            parse_model_text("kind dirac\nW [[1.0]]\nVV [[1.0]]", source="model.tf")

    def test_bad_json_located(self):
        for text in ("kind dirac\nW [[1.0",
                     # JSON extensions that would fail far from the input
                     "kind dirac\nW [[NaN]]",
                     "kind dirac\nenergy NaN\nW [[1.0]]",
                     "kind dirac\nW [[1.0, Infinity], [-Infinity, 1.0]]",
                     "kind dirac_profile\nbreakpoints [NaN]\nW0 [[-1.0]]\nW1 [[1.0]]",
                     "kind dirac\nW [[1" + "0" * 400 + "]]"):
            with pytest.raises(ParseError, match=r"model\.tf:2"):
                parse_model_text(text, source="model.tf")

    def test_extra_data_refused(self):
        # a line is decoded up to the end of its value; what follows must be nothing
        with pytest.raises(ParseError) as info:
            parse_model_text("kind dirac\nW [[1.0]] [[2.0]]", source="m.tf")
        assert str(info.value) == ("m.tf:2: bad value for 'W': Extra data: "
                                   "line 1 column 9 (char 8)")

    def test_ragged_matrix(self):
        with pytest.raises(ParseError, match="equally long"):
            parse_model_text("kind dirac\nW [[1.0, 2.0], [3.0]]")

    def test_bad_entry(self):
        with pytest.raises(ParseError, match="entries"):
            parse_model_text('kind dirac\nW [["x"]]')

    @pytest.mark.parametrize("text, line, message", [
        ("kind dirac\nW [[true]]", 2, "matrix entries are numbers"),
        ("kind dirac\nW [[[true, 0]]]", 2, "matrix entries are numbers"),
        ("kind dirac\nW [[1.0]]\nenergy false", 3, "expected a real number"),
        ("kind dirac_profile\nW0 [[-1.0]]\nW1 [[1.0]]\nbreakpoints [true]", 4,
         "expected a list of real numbers"),
    ], ids=["entry", "entry_pair", "energy", "breakpoints"])
    def test_booleans_are_not_numbers(self, text, line, message):
        # JSON true and false would otherwise pass as 1 and 0
        with pytest.raises(ParseError, match=rf"^model\.tf:{line}: {message}"):
            parse_model_text(text, source="model.tf")

    @pytest.mark.parametrize("text, message", [
        ("kind dirac\nW [1.0]\n", "model.tf:2: expected a list of rows"),
        ("kind dirac\nW\n", "model.tf:2: expected 'key value'"),
        ("kind schrodinger\nenergy -1.0\n", "model.tf: schrodinger models need a V matrix"),
        ("kind dirac_profile\nW0 [[1.0]]\n", "model.tf: dirac_profile models need breakpoints"),
    ], ids=["not-rows", "no-value", "no-potential", "no-breakpoints"])
    def test_malformed_model_located(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_model_text(text, source="model.tf")

    @pytest.mark.parametrize("text, message", [
        (TIGHT_BINDING.replace("a1 ", "a01 "), "model.tf:3: key 'a01' must be written a1"),
        (TIGHT_BINDING.replace("b0 ", "b00 "), "model.tf:4: key 'b00' must be written b0"),
        (TIGHT_BINDING.replace("a1 ", "a\u0661 "), "model.tf:3: key 'a\u0661' must be written a1"),
        (TIGHT_BINDING.replace("a1 ", "a\u00b2 "),
         "model.tf: tight_binding models need matching a0..aq-1 and b0..bq-1 runs"),
        (PROFILE.replace("W1 ", "W01 "), "model.tf:3: key 'W01' must be written W1"),
    ], ids=["zero-padded-bond", "zero-padded-site", "arabic-indic-digit", "superscript",
            "zero-padded-mass"])
    def test_index_keys_are_canonical(self, text, message):
        # the builders look each matrix up under its canonical key
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_model_text(text, source="model.tf")

    def test_schrodinger_requires_energy(self):
        with pytest.raises(ParseError, match="energy"):
            parse_model_text("kind schrodinger\nV [[0.0]]")

    def test_tight_binding_runs_must_match(self):
        with pytest.raises(ParseError, match="matching"):
            parse_model_text("kind tight_binding\na0 [[1.0]]\nb0 [[0.0]]\nb1 [[0.0]]")

    def test_tight_binding_run_must_be_contiguous(self):
        with pytest.raises(ParseError, match="without gaps"):
            parse_model_text("kind tight_binding\na0 [[1.0]]\na2 [[1.0]]\n"
                             "b0 [[0.0]]\nb1 [[0.0]]")

    def test_profile_mass_count(self):
        with pytest.raises(ParseError, match="breakpoints"):
            parse_model_text("kind dirac_profile\nW0 [[1.0]]\nW1 [[1.0]]\n"
                             "breakpoints [0.0, 1.0]")

    def test_from_disk(self, tmp_path):
        path = tmp_path / "m.tf"
        path.write_text(DIRAC)
        mf = parse_model(str(path))
        assert mf.kind == "dirac"

    def test_from_disk_with_byte_order_mark(self, tmp_path):
        # Notepad and PowerShell 5's Out-File -Encoding utf8 start a file with one
        path = tmp_path / "bom.tf"
        path.write_bytes(b"\xef\xbb\xbf" + DIRAC.encode())
        mf = parse_model(str(path))
        assert mf.kind == "dirac" and mf.matrices["W"][0, 0] == 1.0

    def test_parse_error_names_file(self, tmp_path):
        path = tmp_path / "broken.tf"
        path.write_text("kind dirac\nW oops(\n")
        with pytest.raises(ParseError, match="broken.tf:2"):
            parse_model(str(path))


def _entry(e):
    return complex(e[0], e[1]) if isinstance(e, list) else complex(e)


def _chain_text(q):
    """A period-q two-channel chain whose entries mix floats, integer literals and pairs."""
    lines = ["kind tight_binding"]
    for i in range(q):
        lines.append(f"a{i} [[{1 + i}, [0.5, -{i}.25]], [-0.0, 1e-3]]")
    for i in range(q):
        lines.append(f"b{i} [[{i}.5, [1, 2e{i % 5}]], [[1.0, -2e{i % 5}], -7]]")
    return "\n".join(lines) + "\n"


class TestChainIngestion:
    """A period-40 chain file: line 37 holds a35."""

    def test_matrices_equal_the_per_entry_conversion(self):
        text = _chain_text(40)
        mf = parse_model_text(text)
        for line in text.splitlines()[1:]:
            key, rest = line.split(None, 1)
            want = np.array([[_entry(e) for e in row] for row in json.loads(rest)])
            got = mf.matrices[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value, message", [
        ("[[true, 1.0], [1.0, 1.0]]", "matrix entries are numbers or [re, im] pairs, got True"),
        ("[[1.0, [NaN, 0.0]], [1.0, 1.0]]", "NaN is not a finite number"),
        ("[[1.0, 1e999], [1.0, 1.0]]", "1e999 is not a finite number"),
        ("[[1.0, 2.0], [3.0]]", "rows must be non-empty and equally long"),
    ], ids=["bool", "nan", "overflow", "ragged"])
    def test_refusal_names_its_line(self, value, message):
        lines = _chain_text(40).splitlines()
        assert lines[36].startswith("a35 ")
        lines[36] = f"a35 {value}"
        with pytest.raises(ParseError) as info:
            parse_model_text("\n".join(lines), source="chain.tf")
        assert str(info.value) == f"chain.tf:37: {message}"


# finite floats at the edges of the range, any finite float, and integer literals
NUMBERS = st.one_of(st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**20, 10**20))
ENTRIES = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2))


@st.composite
def model_files(draw):
    """(kind, lines before the matrices, {key: matrix as nested lists}, lines after them)."""
    kind = draw(st.sampled_from(["tight_binding", "dirac_profile"]))
    n, count = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    # an all-real file converts as one stack, a file with pairs entry by entry
    entries = draw(st.sampled_from([NUMBERS, ENTRIES]))
    if kind == "tight_binding":
        keys = [f"a{i}" for i in range(count)] + [f"b{i}" for i in range(count)]
    else:
        keys = [f"W{i}" for i in range(count)]
    matrices = {key: draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=n, max_size=n)) for key in keys}
    head = [f"kind {kind}"] + draw(st.sampled_from([[], ["# a comment", ""]]))
    tail = ["breakpoints " + json.dumps([float(i) for i in range(count - 1)])
            ] if kind == "dirac_profile" else []
    return kind, head, matrices, tail


def _lines(head, matrices, tail):
    return head + [f"{k} {json.dumps(m)}" for k, m in matrices.items()] + tail


# fault -> (phase, JSON text put in place of an entry, message); decode faults win
# over assembly faults, and in assembly every key is checked before any matrix
FAULTS = {
    "true": (2, "true", "matrix entries are numbers or [re, im] pairs, got True"),
    "NaN": (0, "NaN", "NaN is not a finite number"),
    "1e999": (0, "1e999", "1e999 is not a finite number"),
    "triple": (2, "[1.0, 2.0, 3.0]",
               "matrix entries are numbers or [re, im] pairs, got [1.0, 2.0, 3.0]"),
    "ragged": (2, None, "rows must be non-empty and equally long"),
    "zero-padded key": (1, None, "key '{padded}' must be written {key}"),
}


class TestConversionProperties:
    @given(model_files())
    @settings(max_examples=150, deadline=None)
    def test_matrices_equal_the_per_entry_conversion(self, model):
        kind, head, matrices, tail = model
        mf = parse_model_text("\n".join(_lines(head, matrices, tail)))
        assert mf.kind == kind and list(mf.matrices) == list(matrices)
        for key, m in matrices.items():
            want = np.array([[_entry(e) for e in row] for row in m])
            got = mf.matrices[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(model_files(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_first_refusal_names_its_line(self, model, data):
        kind, head, matrices, tail = model
        keys = list(matrices)
        picked = data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=2,
                                    unique=True))
        faults = [data.draw(st.sampled_from(sorted(FAULTS))) for _ in picked]
        lines = _lines(head, matrices, tail)
        refusals = []
        for index, fault in zip(picked, faults):
            key, m = keys[index], [list(row) for row in matrices[keys[index]]]
            phase, literal, message = FAULTS[fault]
            if literal is not None:
                m[-1][0] = "@"
            if fault == "ragged":
                m.append([1.0] * (len(m[0]) + 1))
            if fault == "zero-padded key":
                padded = f"{key[0]}0{key[1:]}"
                key, message = padded, message.format(padded=padded, key=key)
            value = json.dumps(m).replace('"@"', literal or "")
            line = len(head) + index + 1
            lines[line - 1] = f"{key} {value}"
            refusals.append((phase, line, message))
        phase, line, message = min(refusals)
        with pytest.raises(ParseError) as info:
            parse_model_text("\n".join(lines), source="m.tf")
        assert str(info.value) == f"m.tf:{line}: {message}"


class TestBuilders:
    def test_dirac_bulk(self):
        bulk = build_bulk(parse_model_text(DIRAC))
        assert bulk.gap == pytest.approx(1.0)
        assert bulk.energy == 0.0

    def test_energy_override(self):
        bulk = build_bulk(parse_model_text(DIRAC), energy=0.5)
        assert bulk.energy == 0.5

    def test_schrodinger_bulk(self):
        bulk = build_bulk(parse_model_text(SCHRODINGER))
        assert abs(bulk.u_plus.U[0, 0] + 1j) <= 1e-12

    def test_tight_binding_bulk(self):
        mf = parse_model_text(TIGHT_BINDING)
        model = build_tb(mf)
        assert model.period == 2
        bulk = build_bulk(mf)
        assert bulk.gap > 0

    def test_profile(self):
        p = build_profile(parse_model_text(PROFILE))
        assert p.steps == 1 and p.block_dim == 1

    def test_schrodinger_without_energy_fails_alone(self):
        # parse_model_text demands the energy line; a hand-built record can lack it
        bare = ModelFile("schrodinger", None, parse_model_text(SCHRODINGER).matrices, {})
        got, bulk = build_stack([bare, parse_model_text(DIRAC)])
        assert type(got) is ParseError and str(got) == "schrodinger models need an energy"
        assert bulk.gap == pytest.approx(1.0)

    def test_profile_is_not_a_bulk(self):
        with pytest.raises(ParseError, match="junction"):
            build_bulk(parse_model_text(PROFILE))

    def test_builder_kind_gates(self):
        with pytest.raises(ParseError):
            build_tb(parse_model_text(DIRAC))
        with pytest.raises(ParseError):
            build_profile(parse_model_text(DIRAC))
