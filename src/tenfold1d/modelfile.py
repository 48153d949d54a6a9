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
    _only,
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
    return np.array([[_entry_to_complex(e, where) for e in row] for row in value])


def _value_to_real(value, where: str) -> float:
    if _is_number(value):
        return float(value)
    raise ParseError(f"{where}: expected a real number, got {value!r}")


def _value_to_real_list(value, where: str) -> list[float]:
    if isinstance(value, list) and all(map(_is_number, value)):
        return [float(x) for x in value]
    raise ParseError(f"{where}: expected a list of real numbers")


def _indexed(pairs: dict, prefix: str, where: str) -> list:
    """Take prefix0, prefix1, ... out of pairs and demand a contiguous run from 0."""
    found = {int(key[len(prefix):]): pairs.pop(key) for key in list(pairs)
             if key.startswith(prefix) and key[len(prefix):].isdigit()}
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


def parse_model_text(text: str, source: str = "<string>") -> ModelFile:
    """Parse a model description from a string. See the module docstring."""
    pairs = {}
    order = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        finite = lambda token: _finite(token, where)
        try:
            value = json.loads(rest, parse_float=finite, parse_int=finite,
                               parse_constant=finite)
        except json.JSONDecodeError as exc:
            if rest.strip().isidentifier():
                value = rest.strip()
            else:
                raise ParseError(f"{where}: bad value for {key!r}: {exc}") from None
        pairs[key] = value
        order.append((key, where))
    locs = dict(order)

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
        bonds = _indexed(pairs, "a", source)
        sites = _indexed(pairs, "b", source)
        if not bonds or len(bonds) != len(sites):
            raise ParseError(f"{source}: tight_binding models need matching "
                             "a0..aq-1 and b0..bq-1 runs")
        for i, m in enumerate(bonds):
            matrices[f"a{i}"] = _value_to_matrix(m, locs[f"a{i}"])
        for i, m in enumerate(sites):
            matrices[f"b{i}"] = _value_to_matrix(m, locs[f"b{i}"])
    else:
        masses = _indexed(pairs, "W", source)
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
        try:
            if mf.kind == "dirac_profile":
                raise ParseError("dirac_profile describes a junction, not a bulk; "
                                 "use the junction or verify commands")
            if mf.kind == "schrodinger" and e is None:
                raise ParseError("schrodinger models need an energy")
            key = _STACKS[mf.kind][1]
            x = build_tb(mf, tol) if key is None else mf.matrices[key]
        except ValueError as exc:
            out[i] = exc
            continue
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
    return _only(build_stack([mf], tol, energy))


def build_tb(mf: ModelFile, tol: Tolerances = TOL) -> TightBindingModel:
    """Tight-binding model object for a parsed tight_binding file."""
    if mf.kind != "tight_binding":
        raise ParseError(f"expected a tight_binding model, got {mf.kind!r}")
    q = sum(1 for k in mf.matrices if k.startswith("a"))
    a = [mf.matrices[f"a{i}"] for i in range(q)]
    b = [mf.matrices[f"b{i}"] for i in range(q)]
    return TightBindingModel(a, b, tol=tol)


def build_profile(mf: ModelFile) -> PiecewiseDiracProfile:
    """Profile object for a parsed dirac_profile file."""
    if mf.kind != "dirac_profile":
        raise ParseError(f"expected a dirac_profile model, got {mf.kind!r}")
    n = sum(1 for k in mf.matrices if k.startswith("W"))
    masses = [mf.matrices[f"W{i}"] for i in range(n)]
    return PiecewiseDiracProfile(masses, mf.lists["breakpoints"])
