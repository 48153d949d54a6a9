"""Zero-mode prediction at junctions between two gapped bulks.

Gluing the right half of one operator to the left half of another is
well defined when both induce the same boundary form. The kernel
dimension of the glued operator at an in-gap energy equals the
intersection of the right bulk's decaying plane with the left bulk's
growing plane, counted here through the unitary crossing. The relative
topological index of the two bulks lower-bounds that count and is
stable under deformations, which is the protection statement.

For a piecewise-constant profile the same prediction is evaluated by
transporting both far-side unitaries to a cut inside the steps;
transport preserves each plane's index, so the transported indices must
agree with the far bulks' own, and the report records that consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousKernel, IncompatibleBoundary, KindMismatch
from .linalg import TOL, Tolerances
from .symplectic import _crossing_count, _crossing_dims, _crossing_spectrum
from .index import IndexValue, _index_each
from .models import BulkData, PiecewiseDiracProfile, _raise_first, _transport, dirac_stack
from .symmetry import CartanClass

__all__ = [
    "hard_junction",
    "predicted_zero_modes",
    "protected_bound",
    "JunctionReport",
    "continuous_junction_report",
]


def hard_junction(left: BulkData, right: BulkData, tol: Tolerances = TOL) -> None:
    """Validate that two bulks can be glued at their common boundary.

    Raises IncompatibleBoundary when the model families differ (a chain
    with seam bond -I has the Schrodinger form), when the boundary forms
    differ (for chains, whenever the seam bond differs) or when the two
    bulks were evaluated at different energies.
    """
    if left.family != right.family:
        raise IncompatibleBoundary(f"cannot glue a {left.family} bulk to a {right.family} bulk")
    if not left.form.same_as(right.form, tol):
        raise IncompatibleBoundary("left and right boundary forms differ")
    scale = max(1.0, abs(left.energy), abs(right.energy))
    if abs(left.energy - right.energy) > tol.frame_tol * scale:
        raise IncompatibleBoundary(
            f"bulks evaluated at different energies: {left.energy:g} vs {right.energy:g}"
        )


def predicted_zero_modes(left: BulkData, right: BulkData, tol: Tolerances = TOL) -> int:
    """Kernel dimension of the glued operator at the junction energy.

    Equal to the crossing of the right bulk's decaying unitary with the
    left bulk's growing unitary. This is the one-pair case of
    ``_zero_modes_each``.
    """
    return _raise_first(_zero_modes_each([(left, right)], tol))[0]


def _zero_modes_each(pairs, tol: Tolerances) -> list:
    """``predicted_zero_modes`` of each (left, right) pair, or the error it raises alone.

    The pairs that ``hard_junction`` accepts take one stacked crossing
    count (``_crossing_dims``).
    """
    out = [None] * len(pairs)
    glued = []
    for i, (left, right) in enumerate(pairs):
        try:
            hard_junction(left, right, tol)
        except ValueError as exc:
            out[i] = exc
            continue
        glued.append(i)
    crossings = [(pairs[i][1].u_plus, pairs[i][0].u_minus) for i in glued]
    for i, count in zip(glued, _crossing_dims(crossings, tol)):
        out[i] = count
    return out


def protected_bound(label, left: IndexValue, right: IndexValue) -> int:
    """Deformation-stable lower bound on the zero-mode count.

    Kernel-dim classes give |right - left|; sign classes give 1 when
    the signs differ; classes without an invariant give 0.
    """
    label = CartanClass.coerce(label)
    kind = label.index_kind
    if left.kind != kind or right.kind != kind:
        raise KindMismatch(
            f"class {label.value} carries {kind!r} indices, "
            f"got {left.kind!r} and {right.kind!r}"
        )
    if kind == "zero":
        return 0
    if kind == "kernel_dim":
        return abs(right.value - left.value)
    return 0 if left.value == right.value else 1


@dataclass(frozen=True)
class JunctionReport:
    """Prediction and consistency data for one junction at one energy."""

    cartan: str
    energy: float
    predicted: int
    bound: int
    index_left: IndexValue
    index_right: IndexValue
    index_plus_transported: IndexValue
    index_minus_transported: IndexValue
    index_minus_far: IndexValue
    transport_consistent: bool
    defect_plus: float
    defect_minus: float
    gap_left: float
    gap_right: float


def continuous_junction_report(profile: PiecewiseDiracProfile, energy: float,
                               label, tol: Tolerances = TOL) -> JunctionReport:
    """Transport-based junction analysis of a piecewise Dirac profile.

    Both far-side unitaries are transported to t = 0 clamped to the
    breakpoints' span (beyond it a far segment drowns the other side's
    plane) and crossed; the report carries the crossing count, the
    index bound from the far bulks, whether transport preserved both
    indices, and as defect_plus and defect_minus each transport's
    largest departure from unitarity before projection.

    The crossing count is checked against the principal-angle count of
    the same planes; both are read off the eigenvalues of U_+ U_-*.
    Raises AmbiguousKernel when the two disagree: the transported planes
    are then too inaccurate to tell how many modes there are.

    The report runs in stacks: both far bulks are one ``dirac_stack``,
    both walks one lockstep ``_transport`` (whose '+' walk's error is
    raised first), and the five indices one ``_index_each`` call, whose
    first error in the order left, right, far minus, transported plus,
    transported minus is raised.
    """
    label = CartanClass.coerce(label)
    left_bulk, right_bulk = _raise_first(
        dirac_stack([profile.masses[0], profile.masses[-1]], [energy] * 2, tol))
    bps = profile.breakpoints
    t = min(max(0.0, bps[0]), bps[-1]) if bps else 0.0
    (u_plus, defect_plus), (u_minus, defect_minus) = _transport(
        [right_bulk.u_plus, left_bulk.u_minus], profile, energy, ("+", "-"), t, tol)

    # the Dirac split has unit blocks: frames are [I; U]/sqrt(2), angle cosines |1 + lambda|/2
    lam = _crossing_spectrum(u_plus, u_minus, tol)
    (predicted,) = _crossing_count(lam[None], tol)
    angles = int((abs(0.5 * abs(1.0 + lam) - 1.0) <= tol.eig_tol).sum())
    if predicted != angles:
        raise AmbiguousKernel(
            f"crossing count {predicted} and principal-angle count {angles} "
            f"disagree at the cut t = {t:g}"
        )

    index_left, index_right, index_minus_far, index_plus_tr, index_minus_tr = _raise_first(
        _index_each(np.array([u.U for u in (left_bulk.u_plus, right_bulk.u_plus,
                                            left_bulk.u_minus, u_plus, u_minus)]), label, tol))
    consistent = (index_plus_tr == index_right) and (index_minus_tr == index_minus_far)

    return JunctionReport(
        cartan=label.value,
        energy=float(energy),
        predicted=predicted,
        bound=protected_bound(label, index_left, index_right),
        index_left=index_left,
        index_right=index_right,
        index_plus_transported=index_plus_tr,
        index_minus_transported=index_minus_tr,
        index_minus_far=index_minus_far,
        transport_consistent=consistent,
        defect_plus=defect_plus,
        defect_minus=defect_minus,
        gap_left=left_bulk.gap,
        gap_right=right_bulk.gap,
    )
