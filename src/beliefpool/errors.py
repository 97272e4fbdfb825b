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
    """A dense table, consensus or elimination bucket would exceed capacity."""


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
    """The query route cannot fill a consensus CPT row.

    The route needs strictly positive agents, so it raises this before
    any query when an agent of positive weight has a CPT row of 0 or 1;
    the message names the agent by position, the variable, the parent
    row and the value. Strictly positive rows near 0 or 1 can still
    cause it later, when an agent's conditional for a row rounds to 0
    or 1, or underflows to zero evidence, on both the all-true and the
    all-false children. dense_oracle=True fills such rows.

    The message is "agent <position>, " when one agent is at fault, the
    fault, and "; <remedy>"; the CLI names the agent by file instead.
    """

    def __init__(
        self, fault: str, position: int | None = None, remedy: str | None = None
    ) -> None:
        where = "" if position is None else f"agent {position}, "
        super().__init__(where + fault + ("" if remedy is None else f"; {remedy}"))
        self.fault = fault
        self.position = position


class NotChordal(BeliefPoolError, ValueError):
    """An operation requiring a chordal graph got a non-chordal one: an
    order that is not a perfect elimination order, or a consensus
    network that is not decomposable."""


class MalformedInstance(BeliefPoolError, ValueError):
    """A call's arguments are missing or inconsistent: an empty agent or
    table list, a bad ordering or partition, an unknown pool, property
    or example, or a property-check instance outside its hypothesis."""


class ModelFormatError(BeliefPoolError, ValueError):
    """A model breaks the format rules, whether it was read from a
    file or built in memory (a CPT, DAG, network, label list or joint
    table)."""
