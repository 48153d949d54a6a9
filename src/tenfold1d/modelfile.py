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
from itertools import chain

import numpy as np

from .errors import ParseError
from .linalg import TOL, Tolerances
from .models import (
    BulkData,
    PiecewiseDiracProfile,
    TightBindingModel,
    _raise_first,
    dirac_stack,
    schrodinger_stack,
    tb_stack,
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
           "tight_binding": (tb_stack, None)}


def _is_number(x) -> bool:
    # JSON true and false decode to bools, which are ints to isinstance
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry_to_complex(entry, source: str, line: int) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
        return complex(entry[0], entry[1])
    raise ParseError(f"{source}:{line}: matrix entries are numbers or [re, im] pairs, "
                     f"got {entry!r}")


def _matrices(values: list, source: str, lines: list) -> list:
    """Complex matrices of a run of decoded values; values[i] sits on line lines[i].

    The number hook made every JSON number a float, so a run whose
    entries are all floats, in equally long rows and equally many rows
    per value, is one (k, r, c) array, and each value gets its row of
    it. Any other run (pairs, booleans, junk, ragged rows, values of
    several sizes) is converted value by value, entry by entry, so the
    first refusal in the run's order names its line.
    """
    try:
        # a run of anything but lists of rows of floats raises here or yields a non-float
        floats = set(map(type, chain.from_iterable(chain.from_iterable(values)))) == {float}
    except TypeError:
        floats = False
    if floats:
        try:
            return list(np.array(values, dtype=complex))
        except ValueError:
            pass  # rows or values of several lengths
    out = []
    for value, line in zip(values, lines):
        if not (isinstance(value, list) and value
                and all(isinstance(row, list) for row in value)):
            raise ParseError(f"{source}:{line}: expected a list of rows")
        width = len(value[0])
        if width == 0 or any(len(row) != width for row in value):
            raise ParseError(f"{source}:{line}: rows must be non-empty and equally long")
        out.append(np.array([[e if type(e) is float else _entry_to_complex(e, source, line)
                              for e in row] for row in value], dtype=complex))
    return out


def _value_to_real(value, source: str, line: int) -> float:
    if _is_number(value):
        return float(value)
    raise ParseError(f"{source}:{line}: expected a real number, got {value!r}")


def _value_to_real_list(value, source: str, line: int) -> list[float]:
    if isinstance(value, list) and all(map(_is_number, value)):
        return [float(x) for x in value]
    raise ParseError(f"{source}:{line}: expected a list of real numbers")


def _indexed(pairs: dict, locs: dict, prefixes: str, source: str) -> list:
    """Keys prefix0, prefix1, ... of each one-letter prefix, in index order, one list per prefix.

    One pass over the keys finds them all. Each prefix's keys must be
    canonical and run from 0 without gaps: the first key in file order
    that is not canonical is refused, and otherwise a gap.
    """
    found = {prefix: [] for prefix in prefixes}
    for key in pairs:
        run = found.get(key[:1])
        if run is not None and key[1:].isdecimal():
            run.append(key)
    runs = []
    for prefix, run in found.items():
        keys = list(map(prefix.__add__, map(str, range(len(run)))))
        if set(run) != set(keys):
            for key in run:
                # the builders look each matrix up under its canonical key
                index = int(key[1:])
                if key != f"{prefix}{index}":
                    raise ParseError(f"{source}:{locs[key]}: key {key!r} must be written "
                                     f"{prefix}{index}")
            raise ParseError(f"{source}: {prefix}* keys must run {prefix}0, "
                             f"{prefix}1, ... without gaps")
        runs.append(keys)
    return runs


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


def _number(token: str) -> float:
    """JSON number hook: the number as a float, or a refusal of NaN, Infinity
    and literals past float range.

    The refusal does not know its line; ``_decode_lines`` names it.
    """
    x = float(token)
    if x - x == 0.0:  # false for inf and NaN
        return x
    raise ParseError(f"{token} is not a finite number")


_DECODER = json.JSONDecoder(parse_float=_number, parse_int=_number, parse_constant=_number)


def _decode_lines(numbered, source: str) -> tuple[dict, dict]:
    """(key -> value, key -> line number) of (line number, line) pairs, in file order."""
    decode, raw_decode = _DECODER.decode, _DECODER.raw_decode
    pairs, locs = {}, {}
    for line, raw in numbered:
        text = raw.strip()
        if not text or text[0] == "#":
            continue
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"{source}:{line}: expected 'key value'")
        key, rest = parts
        if key in pairs:
            raise ParseError(f"{source}:{line}: duplicate key {key!r}")
        # split and strip leave no whitespace around rest, so raw_decode reads
        # what decode would; decode runs only to refuse extra data as it does
        try:
            value, end = raw_decode(rest)
            if end != len(rest):
                value = decode(rest)
        except json.JSONDecodeError as exc:
            if not rest.isidentifier():
                raise ParseError(f"{source}:{line}: bad value for {key!r}: {exc}") from None
            value = rest
        except ParseError as exc:
            raise ParseError(f"{source}:{line}: {exc}") from None
        pairs[key] = value
        locs[key] = line
    return pairs, locs


def parse_model_text(text: str, source: str = "<string>") -> ModelFile:
    """Parse a model description from a string. See the module docstring.

    The two steps are ``_decode_lines`` and ``_assemble``.
    """
    return _assemble(*_decode_lines(enumerate(text.splitlines(), start=1), source), source)


def _assemble(pairs: dict, locs: dict, source: str) -> ModelFile:
    """Model of decoded lines: the kind and key checks and the matrix conversions.

    Takes ``key -> value`` and ``key -> line number`` as decoded, and
    empties ``pairs``. A refusal names its line, or ``source``.
    """
    if "kind" not in pairs:
        raise ParseError(f"{source}: missing 'kind' line")
    kind = pairs.pop("kind")
    if kind not in _KINDS:
        raise ParseError(f"{source}:{locs['kind']}: kind must be one of {', '.join(_KINDS)}")

    energy = None
    if "energy" in pairs:
        energy = _value_to_real(pairs.pop("energy"), source, locs["energy"])

    lists = {}
    if kind == "dirac":
        if "W" not in pairs:
            raise ParseError(f"{source}: dirac models need a W matrix")
        keys = ["W"]
    elif kind == "schrodinger":
        if "V" not in pairs:
            raise ParseError(f"{source}: schrodinger models need a V matrix")
        if energy is None:
            raise ParseError(f"{source}: schrodinger models need an energy line")
        keys = ["V"]
    elif kind == "tight_binding":
        bonds, sites = _indexed(pairs, locs, "ab", source)
        if not bonds or len(bonds) != len(sites):
            raise ParseError(f"{source}: tight_binding models need matching "
                             "a0..aq-1 and b0..bq-1 runs")
        keys = bonds + sites
    else:
        [keys] = _indexed(pairs, locs, "W", source)
        if "breakpoints" not in pairs:
            raise ParseError(f"{source}: dirac_profile models need breakpoints")
        lists["breakpoints"] = _value_to_real_list(
            pairs.pop("breakpoints"), source, locs["breakpoints"])
        if len(keys) != len(lists["breakpoints"]) + 1:
            raise ParseError(f"{source}: {len(lists['breakpoints'])} breakpoints "
                             f"need {len(lists['breakpoints']) + 1} masses, "
                             f"got {len(keys)}")
    matrices = dict(zip(keys, _matrices([pairs.pop(key) for key in keys], source,
                                        [locs[key] for key in keys])))

    if pairs:
        stray = sorted(pairs)[0]
        raise ParseError(f"{source}:{locs[stray]}: key {stray!r} not allowed for "
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
    lines = template.splitlines()
    hole = next(n for n, raw in enumerate(lines, start=1) if "?" in raw)
    models, first = [], None
    for v in values:
        source = f"{name}[?={v:g}]"
        text = repr(float(v))
        try:
            if first is None:
                first = _assemble(*_decode_lines(
                    ((n, raw.replace("?", text)) for n, raw in enumerate(lines, start=1)), source),
                    source)
                models.append(first)
                continue
            pairs, locs = _decode_lines([(hole, lines[hole - 1].replace("?", text))], source)
            [(key, value)] = pairs.items()
            models.append(_with_value(first, key, value, source, hole))
        except ValueError as exc:
            if not models:
                raise
            return models, exc
    return models, None


def _with_value(mf: ModelFile, key: str, value, source: str, line: int) -> ModelFile:
    """mf with the decoded value of one of its keys, from source:line, converted and put in place."""
    if key == "energy":
        return ModelFile(mf.kind, _value_to_real(value, source, line), mf.matrices, mf.lists)
    if key == "breakpoints":
        return ModelFile(mf.kind, mf.energy, mf.matrices,
                         {**mf.lists, key: _value_to_real_list(value, source, line)})
    [matrix] = _matrices([value], source, [line])
    return ModelFile(mf.kind, mf.energy, {**mf.matrices, key: matrix}, mf.lists)


def parse_model(path: str) -> ModelFile:
    """Parse a model file from disk."""
    # utf-8-sig drops the byte order mark that some Windows editors write
    with open(path, encoding="utf-8-sig") as fh:
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
