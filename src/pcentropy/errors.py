"""Exception types shared across the toolkit."""


class PcEntropyError(Exception):
    """Base class for all toolkit errors."""


class ExprParseError(PcEntropyError):
    """Malformed expression or map-definition text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class MapValidationError(PcEntropyError):
    """A map violates a structural requirement (partition, image, monotonicity)."""


class DomainError(PcEntropyError):
    """A point lies outside the map's domain."""


class MonotonicityError(PcEntropyError):
    """Sampled values contradict a branch's declared monotone direction."""


class ResourceCapExceeded(PcEntropyError):
    """A preimage chain or cover refinement grew past the configured cap."""

    def __init__(self, message, completed=0):
        super().__init__(message)
        self.completed = completed  # deepest level finished before the cap


class WitnessError(PcEntropyError):
    """A failed certificate; ``witness`` holds the offending point or pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotACoverError(WitnessError):
    """The claimed cover leaves part of the target uncovered."""


class NotSeparatedError(WitnessError):
    """A claimed separated set holds two points closer than epsilon; carries
    the violating index pair."""


class InvarianceError(WitnessError):
    """A region fails the (pseudo-)invariance verification."""


class SubadditivityError(WitnessError):
    """A sequence expected to be subadditive is not; carries the witness pair."""


class EmptySampleError(PcEntropyError):
    """No sample point survives the discontinuity-avoidance filter."""
