"""Exception types raised across the package.

Everything derives from ValueError so callers can catch broadly; the
specific types exist because several failure modes (a closed gap, a
non-Lagrangian frame, a kernel eigenvalue sitting inside the guard band)
require different handling by drivers and tests.
"""

__all__ = [
    "NotHermitian",
    "ZeroRank",
    "DimensionMismatch",
    "Singular",
    "OddDimension",
    "NotAntisymmetric",
    "BranchCutHit",
    "NoLagrangianPlanes",
    "NotLagrangian",
    "ProjectionSingular",
    "NotUnitary",
    "SplitMismatch",
    "BadParity",
    "NotInClass",
    "AmbiguousKernel",
    "KindMismatch",
    "GapClosed",
    "NotInGap",
    "NotInvertible",
    "IncompatibleBoundary",
    "BadSpec",
    "BadTemplate",
    "ParseError",
]


class NotHermitian(ValueError):
    """Matrix fails the hermiticity test."""


class ZeroRank(ValueError):
    """Column set has effective rank zero."""


class DimensionMismatch(ValueError):
    """Operands live in incompatible spaces."""


class Singular(ValueError):
    """Matrix is numerically singular where invertibility is required."""


class OddDimension(ValueError):
    """Pfaffian of an odd-dimensional matrix is undefined (and zero-padded it vanishes)."""


class NotAntisymmetric(ValueError):
    """Matrix fails the antisymmetry test."""


class BranchCutHit(ValueError):
    """An eigenvalue sits on the negative real axis, so the principal log is ill-defined."""


class NoLagrangianPlanes(ValueError):
    """The form's signature is unbalanced, so no Lagrangian plane exists."""


class NotLagrangian(ValueError):
    """Frame is not (maximal) isotropic for the given form."""


class ProjectionSingular(ValueError):
    """Plane is not transverse to the negative block, so the graph map is singular."""


class NotUnitary(ValueError):
    """Matrix fails the unitarity test."""


class SplitMismatch(ValueError):
    """Unitaries refer to different canonical splits and cannot be compared."""


class BadParity(ValueError):
    """Class requires an even matrix dimension."""


class NotInClass(ValueError):
    """Matrix fails the membership test of the requested class."""


class AmbiguousKernel(ValueError):
    """A kernel eigenvalue falls in the guard band where counting would be a coin flip."""


class KindMismatch(ValueError):
    """Index values of different kinds cannot be combined."""


class GapClosed(ValueError):
    """Bulk spectrum touches the requested energy, so boundary planes are undefined."""


class NotInGap(ValueError):
    """Requested energy lies inside the essential spectrum."""


class NotInvertible(ValueError):
    """A hopping matrix is singular: the chain is disconnected at that bond."""


class IncompatibleBoundary(ValueError):
    """Left and right models induce different boundary forms."""


class BadSpec(ValueError):
    """Discretization spec is missing or invalid for the requested operation."""


class BadTemplate(ValueError):
    """Sweep template must contain exactly one placeholder."""


class ParseError(ValueError):
    """Model file is malformed."""
