"""Exception types shared across the package.

Every error the package raises on purpose is a BeliefPoolError. The
three that report a caller's bad input (ModelFormatError,
MalformedInstance, NotChordal) are also ValueErrors.
"""


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
    row whose log-ratio the row adds was 0 or 1. An agent CPT row of 0 or 1 causes
    this, and so can strictly positive rows near 0 or 1, when a
    conditional rounds to 0 or 1 or underflows. dense_oracle=True fills
    such rows.
    """


class NotChordal(BeliefPoolError, ValueError):
    """An operation requiring a chordal graph got a non-chordal one: an
    order that is not a perfect elimination order, or a consensus
    network that is not decomposable."""


class MalformedInstance(BeliefPoolError, ValueError):
    """A call's arguments are missing or inconsistent: an empty agent or
    table list, a bad ordering or partition, an unknown pool, property
    or example, or a property-check instance outside its hypothesis."""


class ModelFormatError(BeliefPoolError, ValueError):
    """A model breaks the format contract, whether it was read from a
    file or built in memory (a CPT, DAG, network, label list or joint
    table)."""
