"""Exception types shared across the package."""


class FredpairsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FredpairsError):
    """Shapes or ambient dimensions do not conform."""


class PreconditionError(FredpairsError):
    """A documented precondition of an operation was violated."""


class InputError(FredpairsError):
    """Malformed external input (JSON files, CLI arguments)."""


class InvariantError(FredpairsError):
    """An internal invariant failed: a bug in the package, not bad input.

    Raised by explicit checks, so it fires under ``python -O`` as well.
    """
