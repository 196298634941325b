"""Exception types shared across the library."""


class PhyslpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(PhyslpError, ValueError):
    """A SolverConfig field is out of its range."""


class DimensionMismatch(PhyslpError):
    """Array shapes are inconsistent with the problem dimensions."""


class NonFiniteEntry(PhyslpError):
    """An input array contains NaN or infinity, or an LP's A an entry
    whose square overflows."""


class NegativeCost(PhyslpError):
    """The working cost c - A^T potentials has a negative entry."""


class NonPositiveInit(PhyslpError):
    """Initial iterate must be strictly positive."""


class Breakdown(PhyslpError):
    """Linear solve failed to reach the requested tolerance."""


class LinSolveFailure(PhyslpError):
    """Dynamics step could not solve its linear system even after a retry."""


class Unreachable(PhyslpError):
    """Sink cannot be reached from the source."""

