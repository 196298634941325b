"""Exception types shared across the library.  InputError, a ValueError,
and its five subclasses are the caller's faults; the others are not."""


class PhyslpError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PhyslpError, ValueError):
    """The caller's input is out of the range that the function accepts."""


class InvalidConfig(InputError):
    """A SolverConfig field is out of its range."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with the problem dimensions."""


class NonFiniteEntry(InputError):
    """An input array contains NaN or infinity, or an LP's A, b, c,
    potentials or working cost an entry above core.A_MAX, whose square
    overflows."""


class NegativeCost(InputError):
    """The working cost c - A^T potentials has a negative entry."""


class NonPositiveInit(InputError):
    """Initial iterate must be strictly positive."""


class Breakdown(PhyslpError):
    """Linear solve failed to reach the requested tolerance."""


class LinSolveFailure(PhyslpError):
    """Dynamics step could not solve its linear system even after a retry."""


class Unreachable(PhyslpError):
    """Sink cannot be reached from the source."""
