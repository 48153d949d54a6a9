"""Plain-text model descriptions for the command line tools.

A model file is line oriented: ``key value`` per line, ``#`` starts a
comment, blank lines are skipped. Values are JSON. Matrices are lists
of rows; a matrix entry is either a plain number (real) or a two-item
list [re, im]. Which keys are allowed depends on the ``kind`` line:

    kind dirac            mass matrix W, optional energy
    kind schrodinger      potential matrix V, required energy
    kind tight_binding    bonds a0, a1, ... and sites b0, b1, ...,
                          optional energy
    kind dirac_profile    masses W0, W1, ... and breakpoints

Unknown keys are rejected rather than ignored; a typo in a key must
not silently change the model.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .linalg import TOL, Tolerances
from .models import (
    BulkData,
    PiecewiseDiracProfile,
    TightBindingModel,
    _chain_stack,
    _raise_first,
    dirac_stack,
    schrodinger_stack,
)

__all__ = [
    "ModelFile",
    "parse_model",
    "parse_model_text",
    "build_stack",
    "build_bulk",
    "build_tb",
    "build_profile",
]

_KINDS = ("dirac", "schrodinger", "tight_binding", "dirac_profile")
# the stacked builder of each bulk kind and the key of its matrix (chains have several)
_STACKS = {"dirac": (dirac_stack, "W"), "schrodinger": (schrodinger_stack, "V"),
           "tight_binding": (_chain_stack, None)}


def _is_number(x) -> bool:
    # JSON true and false decode to bools, which are ints to isinstance
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry_to_complex(entry, where: str) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
        return complex(entry[0], entry[1])
    raise ParseError(f"{where}: matrix entries are numbers or [re, im] pairs, "
                     f"got {entry!r}")


def _finite(token: str, where: str) -> float:
    """JSON number hook: NaN, Infinity and literals past float range are errors."""
    x = float(token)
    if not math.isfinite(x):
        raise ParseError(f"{where}: {token} is not a finite number")
    return x


def _value_to_matrix(value, where: str) -> np.ndarray:
    if not (isinstance(value, list) and value
            and all(isinstance(row, list) for row in value)):
        raise ParseError(f"{where}: expected a list of rows")
    width = len(value[0])
    if width == 0 or any(len(row) != width for row in value):
        raise ParseError(f"{where}: rows must be non-empty and equally long")
    # the number hook made every JSON number a float; pairs, bools and junk are checked
    return np.array([[e if type(e) is float else _entry_to_complex(e, where) for e in row]
                     for row in value], dtype=complex)


def _value_to_real(value, where: str) -> float:
    if _is_number(value):
        return float(value)
    raise ParseError(f"{where}: expected a real number, got {value!r}")


def _value_to_real_list(value, where: str) -> list[float]:
    if isinstance(value, list) and all(map(_is_number, value)):
        return [float(x) for x in value]
    raise ParseError(f"{where}: expected a list of real numbers")


def _indexed(pairs: dict, locs: dict, prefix: str, where: str) -> list:
    """Take prefix0, prefix1, ... out of pairs and demand a contiguous run from 0."""
    found = {}
    for key in [key for key in pairs if key.startswith(prefix) and key[len(prefix):].isdecimal()]:
        index = int(key[len(prefix):])
        # the builders look each matrix up under its canonical key
        if key != f"{prefix}{index}":
            raise ParseError(f"{locs[key]}: key {key!r} must be written {prefix}{index}")
        found[index] = pairs.pop(key)
    if sorted(found) != list(range(len(found))):
        raise ParseError(f"{where}: {prefix}* keys must run {prefix}0, "
                         f"{prefix}1, ... without gaps")
    return [found[i] for i in range(len(found))]


class ModelFile:
    """Parsed model description.

    kind : str
        One of dirac, schrodinger, tight_binding, dirac_profile.
    energy : float or None
    matrices, lists : dict
        Kind-specific payload, keyed as in the file.
    """

    __slots__ = ("kind", "energy", "matrices", "lists")

    def __init__(self, kind, energy, matrices, lists):
        self.kind = kind
        self.energy = energy
        self.matrices = matrices
        self.lists = lists

    def __repr__(self):
        return f"ModelFile(kind={self.kind!r}, keys={sorted(self.matrices)})"


def _line_decoder():
    """Decoder of ``key value`` lines, with one JSON decoder for all its calls.

    The decoder's number hook reads ``where``, which names the line
    being decoded.
    """
    where = None
    finite = lambda token: _finite(token, where)
    decode = json.JSONDecoder(parse_float=finite, parse_int=finite, parse_constant=finite).decode

    def decode_lines(numbered, source: str) -> tuple[dict, dict]:
        """(key -> value, key -> 'source:line') of (line number, line) pairs, in file order."""
        nonlocal where
        pairs, locs = {}, {}
        for lineno, raw in numbered:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{source}:{lineno}"
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"{where}: expected 'key value'")
            key, rest = parts
            if key in pairs:
                raise ParseError(f"{where}: duplicate key {key!r}")
            try:
                value = decode(rest)
            except json.JSONDecodeError as exc:
                if rest.strip().isidentifier():
                    value = rest.strip()
                else:
                    raise ParseError(f"{where}: bad value for {key!r}: {exc}") from None
            pairs[key] = value
            locs[key] = where
        return pairs, locs

    return decode_lines


def parse_model_text(text: str, source: str = "<string>") -> ModelFile:
    """Parse a model description from a string. See the module docstring.

    The two steps are line decoding (``_line_decoder``) and ``_assemble``.
    """
    return _assemble(*_line_decoder()(enumerate(text.splitlines(), start=1), source), source)


def _assemble(pairs: dict, locs: dict, source: str) -> ModelFile:
    """Model of decoded lines: the kind and key checks and the matrix conversions.

    Takes ``key -> value`` and ``key -> 'source:line'`` as decoded, and
    empties ``pairs``. A refusal names its line, or ``source``.
    """
    if "kind" not in pairs:
        raise ParseError(f"{source}: missing 'kind' line")
    kind = pairs.pop("kind")
    if kind not in _KINDS:
        raise ParseError(f"{locs['kind']}: kind must be one of {', '.join(_KINDS)}")

    energy = None
    if "energy" in pairs:
        energy = _value_to_real(pairs.pop("energy"), locs["energy"])

    matrices = {}
    lists = {}
    if kind == "dirac":
        if "W" not in pairs:
            raise ParseError(f"{source}: dirac models need a W matrix")
        matrices["W"] = _value_to_matrix(pairs.pop("W"), locs["W"])
    elif kind == "schrodinger":
        if "V" not in pairs:
            raise ParseError(f"{source}: schrodinger models need a V matrix")
        if energy is None:
            raise ParseError(f"{source}: schrodinger models need an energy line")
        matrices["V"] = _value_to_matrix(pairs.pop("V"), locs["V"])
    elif kind == "tight_binding":
        bonds = _indexed(pairs, locs, "a", source)
        sites = _indexed(pairs, locs, "b", source)
        if not bonds or len(bonds) != len(sites):
            raise ParseError(f"{source}: tight_binding models need matching "
                             "a0..aq-1 and b0..bq-1 runs")
        for i, m in enumerate(bonds):
            matrices[f"a{i}"] = _value_to_matrix(m, locs[f"a{i}"])
        for i, m in enumerate(sites):
            matrices[f"b{i}"] = _value_to_matrix(m, locs[f"b{i}"])
    else:
        masses = _indexed(pairs, locs, "W", source)
        if "breakpoints" not in pairs:
            raise ParseError(f"{source}: dirac_profile models need breakpoints")
        lists["breakpoints"] = _value_to_real_list(
            pairs.pop("breakpoints"), locs["breakpoints"])
        if len(masses) != len(lists["breakpoints"]) + 1:
            raise ParseError(f"{source}: {len(lists['breakpoints'])} breakpoints "
                             f"need {len(lists['breakpoints']) + 1} masses, "
                             f"got {len(masses)}")
        for i, m in enumerate(masses):
            matrices[f"W{i}"] = _value_to_matrix(m, locs[f"W{i}"])

    if pairs:
        stray = sorted(pairs)[0]
        raise ParseError(f"{locs[stray]}: key {stray!r} not allowed for "
                         f"kind {kind!r}")
    return ModelFile(kind, energy, matrices, lists)


def _parse_family(template: str, name: str, values) -> tuple[list, ValueError | None]:
    """Models of a template with one '?' at each value, until a value's text does not parse.

    Each model is ``parse_model_text`` of the template with the '?'
    replaced by ``repr(float(v))``, under the source ``name[?=v]``; the
    '?' sits on a ``key value`` line. Only the first value's text is
    decoded and assembled in full; every later value decodes the '?'
    line alone and converts only its value, taking every other value
    from the first model. That is exact once the first value parses: a
    line without the '?' decodes, and is assembled, the same at every
    value, and a number in place of the '?' keeps the key set and the
    shape of the value, so only the '?' line's decoding and conversion
    can be refused at a later value, and that refusal names the value's
    source. A '?' in a key or in the kind line fails at every value. The
    first value's error is raised; a later value's error is returned
    with the models of the values before it, else None.
    """
    decode = _line_decoder()
    lines = template.splitlines()
    hole = next(n for n, raw in enumerate(lines, start=1) if "?" in raw)
    models, first = [], None
    for v in values:
        source = f"{name}[?={v:g}]"
        text = repr(float(v))
        try:
            if first is None:
                first = _assemble(*decode(
                    ((n, raw.replace("?", text)) for n, raw in enumerate(lines, start=1)), source),
                    source)
                models.append(first)
                continue
            pairs, locs = decode([(hole, lines[hole - 1].replace("?", text))], source)
            [(key, value)] = pairs.items()
            models.append(_with_value(first, key, value, locs[key]))
        except ValueError as exc:
            if not models:
                raise
            return models, exc
    return models, None


def _with_value(mf: ModelFile, key: str, value, where: str) -> ModelFile:
    """mf with the decoded value of one of its keys converted and put in place."""
    if key == "energy":
        return ModelFile(mf.kind, _value_to_real(value, where), mf.matrices, mf.lists)
    if key == "breakpoints":
        return ModelFile(mf.kind, mf.energy, mf.matrices,
                         {**mf.lists, key: _value_to_real_list(value, where)})
    return ModelFile(mf.kind, mf.energy, {**mf.matrices, key: _value_to_matrix(value, where)},
                     mf.lists)


def parse_model(path: str) -> ModelFile:
    """Parse a model file from disk."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_model_text(text, source=path)


def build_stack(mfs, tol: Tolerances = TOL, energy: float | None = None) -> list:
    """Boundary data for parsed models, one stacked computation per family.

    Returns, in order, each model's BulkData or the exception that
    ``build_bulk`` raises for it. ``energy`` overrides every file's
    energy line.
    """
    override = None if energy is None else float(energy)
    out = [None] * len(mfs)
    points = {kind: [] for kind in _STACKS}
    for i, mf in enumerate(mfs):
        e = mf.energy if override is None else override
        if mf.kind == "dirac_profile":
            out[i] = ParseError("dirac_profile describes a junction, not a bulk; "
                                "use the junction or verify commands")
        elif mf.kind == "schrodinger" and e is None:
            out[i] = ParseError("schrodinger models need an energy")
        else:
            key = _STACKS[mf.kind][1]
            x = _chain_blocks(mf) if key is None else mf.matrices[key]
            points[mf.kind].append((i, x, 0.0 if e is None else e))
    for kind, members in points.items():
        if members:
            idx, xs, es = zip(*members)
            for i, result in zip(idx, _STACKS[kind][0](xs, es, tol)):
                out[i] = result
    return out


def build_bulk(mf: ModelFile, tol: Tolerances = TOL,
               energy: float | None = None) -> BulkData:
    """Boundary data for a parsed model.

    ``energy`` overrides the file's energy line. Profiles have no
    single bulk; callers handle kind dirac_profile themselves. This is
    the one-model case of ``build_stack``.
    """
    return _raise_first(build_stack([mf], tol, energy))[0]


def build_tb(mf: ModelFile, tol: Tolerances = TOL) -> TightBindingModel:
    """Tight-binding model object for a parsed tight_binding file."""
    if mf.kind != "tight_binding":
        raise ParseError(f"expected a tight_binding model, got {mf.kind!r}")
    return TightBindingModel(*_chain_blocks(mf), tol=tol)


def _chain_blocks(mf: ModelFile) -> tuple:
    """(bonds, sites) of a parsed tight_binding file, each a list in the order of the chain."""
    q = sum(1 for k in mf.matrices if k.startswith("a"))
    return ([mf.matrices[f"a{i}"] for i in range(q)], [mf.matrices[f"b{i}"] for i in range(q)])


def build_profile(mf: ModelFile) -> PiecewiseDiracProfile:
    """Profile object for a parsed dirac_profile file."""
    if mf.kind != "dirac_profile":
        raise ParseError(f"expected a dirac_profile model, got {mf.kind!r}")
    n = sum(1 for k in mf.matrices if k.startswith("W"))
    masses = [mf.matrices[f"W{i}"] for i in range(n)]
    return PiecewiseDiracProfile(masses, mf.lists["breakpoints"])
