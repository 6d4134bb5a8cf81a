"""Exception types shared across the toolkit."""


class StarlatError(Exception):
    """Base class for all toolkit errors."""


class DimensionTooSmall(StarlatError):
    """Lattice dimension below 2."""


class SingularBasis(StarlatError):
    """Basis columns are (numerically) linearly dependent."""


class NotLatticePoint(StarlatError):
    """Stored coefficients are inconsistent with the stored coordinates."""


class BudgetExceeded(StarlatError):
    """An enumeration would produce more points than the configured cap."""


class DimensionMismatch(StarlatError):
    """Operands live in different dimensions."""


class UnboundedBody(StarlatError):
    """Exact minima requested for a star body that is not bounded."""


class DegenerateMass(StarlatError):
    """More than half of the sample weight sits on a single point."""


class NoConvergence(StarlatError):
    """Equipartition bisection stalled above the requested tolerance."""


class VolumeStall(StarlatError):
    """Annulus volume estimates stalled within Monte Carlo noise short of the
    shell threshold: the set has finite volume or the sample is too small."""


class InvariantViolation(StarlatError):
    """A result broke an invariant its construction guarantees (a bug, not
    bad input); raised instead of an assert so it survives ``python -O``."""
