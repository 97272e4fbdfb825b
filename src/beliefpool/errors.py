"""Exception types shared across the package."""


class BeliefPoolError(Exception):
    """Base class for all beliefpool errors."""


class NegativeMass(BeliefPoolError):
    """A probability table contained a negative entry."""


class ZeroMass(BeliefPoolError):
    """A probability table summed to zero and cannot be normalized."""


class CapacityExceeded(BeliefPoolError):
    """A dense operation was asked for more variables than it supports."""


class UnknownVariable(BeliefPoolError):
    """An assignment referenced a variable index outside the model."""


class ZeroEvidence(BeliefPoolError):
    """Conditioning event has probability zero."""


class MismatchedVariables(BeliefPoolError):
    """Models that must share a variable set do not."""


class WeightCountMismatch(BeliefPoolError):
    """Number of weights differs from number of agents."""


class InvalidWeight(BeliefPoolError):
    """Weights are negative or sum to zero."""


class DegenerateProduct(BeliefPoolError):
    """Geometric pooling zeroed out every state."""


class DegenerateCpt(BeliefPoolError):
    """The query route could not fill a consensus CPT row.

    An agent's conditional for the row was 0, 1 or undefined, or a child
    row it divides by was 0 or 1. An agent CPT row of 0 or 1 causes
    this, and so can strictly positive rows near 0 or 1, when a
    conditional rounds to 0 or 1 or underflows. dense_oracle=True fills
    such rows.
    """


class NotChordal(BeliefPoolError):
    """An operation requiring a chordal graph got a non-chordal one."""


class MalformedInstance(BeliefPoolError):
    """A property-check instance is missing fields or internally inconsistent."""


class ModelFormatError(BeliefPoolError):
    """A network file failed to parse or violates the format contract."""
