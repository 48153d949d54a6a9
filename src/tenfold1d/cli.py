"""Command line front end.

Subcommands:

    classify   class membership and index of one bulk model
    junction   zero-mode prediction for a glued pair or a mass profile
    sweep      index and gap along a one-parameter model family
    table      the ten symmetry classes and their invariants
    verify     prediction against a finite-size diagonalization oracle

Data goes to stdout as CSV (or JSON with --json); diagnostics and
metadata go to stderr. Exit status: 0 on success (including WARN
verdicts), 2 when a check fails (membership, including a class that
does not fit a bulk, consistency, a FAIL verdict, or an AmbiguousKernel
count), 3 on parse and usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousKernel,
    BadParity,
    BadSpec,
    BadTemplate,
    GapClosed,
    IncompatibleBoundary,
    NotInClass,
    NotInGap,
    ParseError,
)
from .index import _index_each, topological_index
from .junction import (
    _zero_modes_each,
    continuous_junction_report,
    predicted_zero_modes,
    protected_bound,
)
from .linalg import TOL, Tolerances
from .modelfile import (
    _parse_family,
    build_bulk,
    build_profile,
    build_stack,
    build_tb,
    parse_model,
)
from .models import _raise_first
from .symmetry import CartanClass
from .verify import (
    DiscretizationSpec,
    count_near_zero_localized,
    discretize_dirac_junction,
    finite_chain,
    oracle_compare,
)

__all__ = ["RunReport", "main"]


@dataclass
class RunReport:
    """Tabular result of one command run.

    Serializes losslessly to JSON; the CSV rendering carries the same
    columns and rows, with metadata delivered separately on stderr.
    """

    kind: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "columns": self.columns, "rows": self.rows,
                           "meta": self.meta}, indent=2) + "\n"


def _fmt(x) -> str:
    if x is None:  # the prediction for a pair that does not glue
        return "NA"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _membership_row(U, label: CartanClass, tol: Tolerances):
    """(member, index string) of one unitary in one class."""
    try:
        return True, str(topological_index(U, label, tol))
    except (NotInClass, BadParity):
        return False, ""


def cmd_classify(args, tol: Tolerances):
    mf = parse_model(args.model)
    bulk = build_bulk(mf, tol, energy=args.energy)
    labels = [CartanClass.coerce(args.cartan)] if args.cartan else list(CartanClass)
    rows = []
    exit_code = 0
    for label in labels:
        member, idx = _membership_row(bulk.u_plus, label, tol)
        rows.append([label.value, _fmt(member), idx])
        if args.cartan and not member:
            exit_code = 2
    meta = {
        "model": args.model,
        "energy": bulk.energy,
        "gap": bulk.gap,
        "boundary_dim": bulk.form.dim,
    }
    return RunReport("classify", ["class", "member", "index"], rows, meta), exit_code


def _profile_report(args, tol: Tolerances):
    """Profile, energy and transport report of a --profile run."""
    if not args.cartan:
        raise ParseError(f"{args.command} --profile needs --class")
    mf = parse_model(args.profile)
    profile = build_profile(mf)
    energy = _pick_energy(args, mf)
    return profile, energy, continuous_junction_report(profile, energy, args.cartan, tol)


def _predicted(left, right, tol: Tolerances):
    """Glued kernel of two bulks, or None when ``hard_junction`` refuses to glue them.

    This is the one-pair case of ``_predicted_each``.
    """
    return _raise_first(_predicted_each([(left, right)], tol))[0]


def _predicted_each(pairs, tol: Tolerances) -> list:
    """``_predicted`` of each (left, right) pair of bulks, or the error it raises alone."""
    return [None if isinstance(count, IncompatibleBoundary) else count
            for count in _zero_modes_each(pairs, tol)]


def _pair(args, tol: Tolerances):
    """Parsed files, energy, bulks and class data of a --left/--right pair.

    Both bulks are built as one stack, so the left error wins when both
    fail. The class data is (index_left, index_right, bound) with
    --class, else None.
    """
    mfs = [parse_model(args.left), parse_model(args.right)]
    energy = _pick_energy(args, *mfs)
    left, right = _raise_first(build_stack(mfs, tol, energy=energy))
    found = None
    if args.cartan:
        il, ir = (topological_index(b.u_plus, args.cartan, tol) for b in (left, right))
        found = il, ir, protected_bound(args.cartan, il, ir)
    return mfs, energy, left, right, found


def cmd_junction(args, tol: Tolerances):
    if args.profile:
        _, _, rep = _profile_report(args, tol)
        columns = ["class", "energy", "predicted", "bound", "index_left",
                   "index_right", "transport_consistent", "gap_left", "gap_right"]
        rows = [[rep.cartan, _fmt(rep.energy), _fmt(rep.predicted),
                 _fmt(rep.bound), str(rep.index_left), str(rep.index_right),
                 _fmt(rep.transport_consistent), _fmt(rep.gap_left),
                 _fmt(rep.gap_right)]]
        meta = {
            "profile": args.profile,
            "index_plus_transported": str(rep.index_plus_transported),
            "index_minus_transported": str(rep.index_minus_transported),
            "defect_plus": rep.defect_plus,
            "defect_minus": rep.defect_minus,
        }
        exit_code = 0 if rep.transport_consistent else 2
        return RunReport("junction", columns, rows, meta), exit_code

    if not (args.left and args.right):
        raise ParseError("junction needs --left and --right, or --profile")
    _, energy, left, right, found = _pair(args, tol)
    predicted = predicted_zero_modes(left, right, tol)
    index_left, index_right, bound = ("", "", "") if found is None else map(_fmt, found)
    columns = ["class", "energy", "predicted", "bound", "index_left",
               "index_right", "gap_left", "gap_right"]
    rows = [[args.cartan or "", _fmt(energy), _fmt(predicted), bound,
             index_left, index_right, _fmt(left.gap), _fmt(right.gap)]]
    meta = {"left": args.left, "right": args.right}
    return RunReport("junction", columns, rows, meta), 0


def _pick_energy(args, *mfs) -> float:
    """--energy, else the files' energy lines, which must agree, else 0."""
    if args.energy is not None:
        return float(args.energy)
    lines = list(dict.fromkeys(float(mf.energy) for mf in mfs if mf.energy is not None))
    if len(lines) > 1:
        raise ParseError(f"energy lines differ: {lines[0]!r} vs {lines[1]!r}; pass --energy")
    return lines[0] if lines else 0.0


def _parse_values(spec: str) -> list:
    """Grid spec: 'start:stop:count' or comma-separated values."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be positive")
            # a finite span keeps every grid point finite
            if not math.isfinite(stop - start):
                raise ValueError("values must be finite")
            return [float(v) for v in np.linspace(start, stop, count)]
        values = [float(v) for v in spec.split(",")]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        return values
    except ValueError as exc:
        raise ParseError(f"bad --values {spec!r}: {exc}") from None


def cmd_sweep(args, tol: Tolerances):
    """Index and gap at each grid point of a one-parameter family.

    Each grid point means the template with its '?' replaced by
    ``repr(float(v))``; a '?' in a comment line is refused, since every
    point would be the same model. The reference point's text is parsed
    in full, and its values serve every grid point, which decodes and
    converts only the '?' line's value again (``_parse_family``). The
    reference point and the whole grid are built as one stacked
    computation (``build_stack``); the rows' indices are one
    ``_index_each`` call and their predicted counts one crossing
    spectrum (``_predicted_each``). Errors are raised in grid order, and
    within a point in the order bulk, index, crossing, so the first
    point that fails decides the error, as if the points were computed
    one at a time. A closed gap gives a GAP_CLOSED row.
    """
    # utf-8-sig drops the byte order mark that some Windows editors write
    with open(args.model, encoding="utf-8-sig") as fh:
        template = fh.read()
    holes = template.count("?")
    if holes != 1:
        raise BadTemplate(
            f"{args.model}: template needs exactly one '?', found {holes}"
        )
    lines = template.splitlines()
    hole = next(n for n, line in enumerate(lines, start=1) if "?" in line)
    if lines[hole - 1].lstrip().startswith("#"):
        raise BadTemplate(f"{args.model}:{hole}: the '?' sits in a comment line, "
                          "so every grid point would be the same model")
    label = CartanClass.coerce(args.cartan)
    values = _parse_values(args.values)
    if args.ref is not None and not math.isfinite(args.ref):
        raise ParseError(f"bad --ref {args.ref!r}: must be finite")

    ref_value = values[0] if args.ref is None else float(args.ref)
    # a point that does not parse ends the grid, but only once the rows before it are made
    mfs, parse_error = _parse_family(template, args.model, [ref_value, *values])
    ref_bulk, *bulks = build_stack(mfs, tol, energy=args.energy)
    if isinstance(ref_bulk, (GapClosed, NotInGap)):
        raise ParseError(
            f"reference point {ref_value:g} is not gapped: {ref_bulk}"
        )
    if isinstance(ref_bulk, Exception):
        raise ref_bulk

    live = [bulk for bulk in bulks if not isinstance(bulk, Exception)]
    try:
        indices = _index_each(np.array([bulk.u_plus.U for bulk in live]), label, tol) if live else []
    except BadParity as exc:
        # the grid has one dimension, so each live point raises it alone
        indices = [exc] * len(live)
    found = iter(zip(indices, _predicted_each([(ref_bulk, bulk) for bulk in live], tol)))
    rows = []
    for v, bulk in zip(values, bulks):
        if isinstance(bulk, (GapClosed, NotInGap)):
            rows.append([_fmt(v), "GAP_CLOSED", "", ""])
            continue
        if isinstance(bulk, Exception):
            raise bulk
        idx, predicted = _raise_first(next(found))
        rows.append([_fmt(v), _fmt(bulk.gap), str(idx), _fmt(predicted)])
    if parse_error is not None:
        raise parse_error
    meta = {"model": args.model, "class": label.value, "reference": ref_value}
    return RunReport("sweep", ["parameter", "gap", "index", "predicted"],
                     rows, meta), 0


def cmd_table(args, tol: Tolerances):
    signs = {1: "+1", -1: "-1", 0: "none"}
    rows = [
        [label.value, signs[label.t_sign], signs[label.c_sign],
         "yes" if label.has_chiral else "no", label.manifold, label.index_range]
        for label in CartanClass
    ]
    columns = ["class", "T^2", "C^2", "chiral", "manifold", "index"]
    return RunReport("table", columns, rows, {}), 0


def cmd_verify(args, tol: Tolerances):
    spec = DiscretizationSpec(
        length=args.length,
        step=args.step,
        cells=args.cells,
        energy_window=args.energy_window,
        core_fraction=args.core_fraction,
        min_weight=args.min_weight,
    )
    extra_meta = {}
    if args.profile:
        profile, energy, rep = _profile_report(args, tol)
        H = discretize_dirac_junction(profile, spec)
        predicted, bound = rep.predicted, rep.bound
        source = args.profile
    elif args.left and args.right:
        mfs, energy, left, right, found = _pair(args, tol)
        bound = 0
        if found is not None:
            il, ir, bound = found
            extra_meta = {"index_left": str(il), "index_right": str(ir)}
        predicted = _predicted(left, right, tol)
        H = finite_chain(*(build_tb(mf, tol) for mf in mfs), spec)
        source = f"{args.left} | {args.right}"
    else:
        raise ParseError("verify needs --profile, or --left and --right")

    # H was built above for this command alone, so it is shifted in place
    H.lower[0] -= energy
    oracle = count_near_zero_localized(H, spec, tol)
    compare_predicted = bound if predicted is None else predicted
    verdict = oracle_compare((compare_predicted, bound), oracle)
    columns = ["class", "energy", "predicted", "bound", "near_zero",
               "localized", "verdict"]
    rows = [[args.cartan or "", _fmt(energy), _fmt(predicted), _fmt(bound),
             _fmt(oracle.near_zero), _fmt(oracle.localized), verdict]]
    meta = {
        "source": source,
        "matrix_dim": int(H.shape[0]),
        # H was shifted by the energy, so its eigenvalues are offsets from it
        "energies": [float(e + energy) for e in oracle.energies],
    }
    meta.update(extra_meta)
    return RunReport("verify", columns, rows, meta), 2 if verdict == "FAIL" else 0


_COMMANDS = {
    "classify": cmd_classify,
    "junction": cmd_junction,
    "sweep": cmd_sweep,
    "table": cmd_table,
    "verify": cmd_verify,
}


# built once per process: parse_args keeps its answers in a new namespace, not in the parser
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--tol-eig", type=float,
                        help="eigenvalue clustering tolerance")
    common.add_argument("--tol-rank", type=float,
                        help="rank decision tolerance")
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of CSV")
    common.add_argument("--out", metavar="FILE",
                        help="write output to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="tenfold1d",
        description="Tenfold-way classification of gapped 1d operators "
                    "and their junction zero modes.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one bulk model", parents=[common])
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--class", dest="cartan", default=None,
                   help="check one class instead of all ten")
    p.add_argument("--energy", type=float, default=None)

    p = sub.add_parser("junction", parents=[common], help="predict zero modes at a junction")
    p.add_argument("--left", help="left model file")
    p.add_argument("--right", help="right model file")
    p.add_argument("--profile", help="piecewise mass profile file")
    p.add_argument("--class", dest="cartan", default=None)
    p.add_argument("--energy", type=float, default=None)

    p = sub.add_parser("sweep", parents=[common], help="sweep one model parameter")
    p.add_argument("--model", required=True,
                   help="model file with a single '?' placeholder")
    p.add_argument("--class", dest="cartan", required=True)
    p.add_argument("--values", required=True,
                   help="'start:stop:count' or comma-separated list")
    p.add_argument("--ref", type=float, default=None,
                   help="reference parameter for the predicted column "
                        "(default: first grid point)")
    p.add_argument("--energy", type=float, default=None)

    sub.add_parser("table", parents=[common], help="print the ten symmetry classes")

    p = sub.add_parser("verify", parents=[common], help="check a prediction numerically")
    p.add_argument("--profile", help="piecewise mass profile file")
    p.add_argument("--left", help="left chain model file")
    p.add_argument("--right", help="right chain model file")
    p.add_argument("--class", dest="cartan", default=None)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--length", type=float, default=None,
                   help="half-width of the Dirac domain")
    p.add_argument("--step", type=float, default=None,
                   help="Dirac grid spacing")
    p.add_argument("--cells", type=int, default=None,
                   help="length of each side of a finite chain, in cells of the longer period")
    p.add_argument("--energy-window", type=float, required=True,
                   help="half-width of the near-zero window")
    p.add_argument("--core-fraction", type=float, default=0.5)
    p.add_argument("--min-weight", type=float, default=0.9)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the shared flags suppress their defaults so that a value given before
    # the subcommand survives the subparser pass; fill the gaps here
    for key, value in (("tol_eig", None), ("tol_rank", None),
                       ("json", False), ("out", None)):
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        tol = TOL
        if args.tol_eig is not None or args.tol_rank is not None:
            tol = Tolerances(
                rank_tol=args.tol_rank if args.tol_rank is not None else TOL.rank_tol,
                eig_tol=args.tol_eig if args.tol_eig is not None else TOL.eig_tol,
                frame_tol=TOL.frame_tol,
            )
        with warnings.catch_warnings():
            # one line per warning, like every other diagnostic on stderr
            warnings.showwarning = lambda message, *_: print(
                f"tenfold1d: warning: {message}", file=sys.stderr)
            report, exit_code = _COMMANDS[args.command](args, tol)
        text = report.to_json() if args.json else report.to_csv()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ParseError, BadSpec, BadTemplate, OSError) as exc:
        print(f"tenfold1d: error: {exc}", file=sys.stderr)
        return 3
    except (AmbiguousKernel, NotInClass, BadParity) as exc:
        print(f"tenfold1d: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"tenfold1d: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    if not args.json and report.meta:
        for key, value in report.meta.items():
            print(f"# {key}: {value}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
