import pytest

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

    def test_parse_error_names_file(self, tmp_path):
        path = tmp_path / "broken.tf"
        path.write_text("kind dirac\nW oops(\n")
        with pytest.raises(ParseError, match="broken.tf:2"):
            parse_model(str(path))


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
