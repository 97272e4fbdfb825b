"""The public calls that take models fail only with a BeliefPoolError.

Each call has one valid argument list. Every test puts one value of a
catalogue of wrong values in one positional argument: the call must
return or raise a BeliefPoolError, never an untyped error. Which error
a given fault raises is pinned in test_imports.CALLER_ERRORS and the
modules' own tests; this test only holds every call to the contract.
"""

import numpy as np
import pytest

from beliefpool import (
    BayesNet,
    BeliefPoolError,
    Cpt,
    JointTable,
    MarkovNet,
    UnanimityInstance,
    bn_to_joint,
    check_property,
    consensus_bn_structure,
    family_pooled_joint,
    linop,
    linop_query,
    logop,
    logop_consensus_bn,
    logop_query,
    marginal,
)
from beliefpool.inference import query_conditional, query_event_marginal

CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))
PAIR = JointTable(2, (0.1, 0.2, 0.3, 0.4))

# Each call with a valid value for every argument it takes by position.
CALLS = {
    "linop": (linop, ([PAIR, PAIR], None)),
    "logop": (logop, ([PAIR, PAIR], None)),
    "marginal": (marginal, (PAIR, {0: True})),
    "bn_to_joint": (bn_to_joint, (CHAIN,)),
    "logop_consensus_bn": (logop_consensus_bn, ([CHAIN, CHAIN], None)),
    "logop_query": (logop_query, ([CHAIN, CHAIN], {0: True}, {1: False}, None)),
    "linop_query": (linop_query, ([CHAIN, CHAIN], {0: True}, {1: False}, None)),
    "consensus_bn_structure": (consensus_bn_structure, ([CHAIN, CHAIN.dag()],)),
    "family_pooled_joint": (family_pooled_joint, ("linop", [PAIR, PAIR], (0, 1), None)),
    "check_property": (
        check_property, ("linop", "unam", [UnanimityInstance((PAIR, PAIR))], 1e-9)
    ),
    "query_conditional": (query_conditional, (CHAIN, {0: True}, {1: False})),
    "query_event_marginal": (query_event_marginal, (CHAIN, {0: True})),
}
ARGUMENTS = {
    f"{name}-{position}": (name, position)
    for name, (_, valid) in CALLS.items()
    for position in range(len(valid))
}
# Factories, so that each test gets a fresh generator.
WRONG_VALUES = {
    "None": lambda: None,
    "float": lambda: 0.5,
    "str": lambda: "x",
    "bytes": lambda: b"x",
    "empty-tuple": lambda: (),
    "nested-list": lambda: [[1]],
    "array": lambda: np.zeros(3),
    "generator": lambda: (x for x in [CHAIN]),
    "BayesNet": lambda: CHAIN,
    "JointTable": lambda: PAIR,
    "MarkovNet": lambda: MarkovNet(2, frozenset({(0, 1)})),
    "Dag": lambda: CHAIN.dag(),
    "negative": lambda: -1,
    "dict": lambda: {0: 1},
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_valid_arguments_return(call):
    function, valid = call
    function(*valid)


@pytest.mark.parametrize("value", WRONG_VALUES.values(), ids=WRONG_VALUES)
@pytest.mark.parametrize("name, position", ARGUMENTS.values(), ids=ARGUMENTS)
def test_returns_or_raises_a_belief_pool_error(name, position, value):
    function, valid = CALLS[name]
    args = list(valid)
    args[position] = value()
    try:
        function(*args)
    except BeliefPoolError:
        pass
