"""The public calls fail only with a BeliefPoolError.

A name without a leading underscore in joint, networks, inference, pools
or consensus is a checked entry point, and so is every top-level export;
the unchecked kernels are private. PUBLIC finds each such function and
class by introspection, and each must have an entry here: in CALLS, or
in INSTANCES for a property instance type. The error classes are left
out: they are what the contract raises, and building one runs no check.

Each call has one valid argument list. Every test puts one value of a
catalogue of wrong values in one positional argument: the call must
return or raise a BeliefPoolError, never an untyped error. The property
instances are held to the same contract field by field: each wrong
value in one field of a valid instance, checked under both pools. Which
error a given fault raises is pinned in test_imports.CALLER_ERRORS and
the modules' own tests; this test only holds every call to the contract.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import beliefpool
from beliefpool import (
    BayesNet,
    BeliefPoolError,
    CheckReport,
    ConsensusBn,
    Cpt,
    Dag,
    EventPairInstance,
    EventPoolInstance,
    EvidenceInstance,
    FamilyInstance,
    JointTable,
    MarkovInstance,
    MarkovNet,
    ProductInstance,
    StatePairInstance,
    UnanimityInstance,
    VariablePairInstance,
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
from beliefpool import consensus, inference, joint, networks, pools
from beliefpool.axioms import PROPERTY_NAMES
from beliefpool.inference import query_conditional, query_event_marginal
from beliefpool.joint import (
    condition,
    conditional_probability,
    markov_dependence_gap,
    pairwise_dependence_gap,
)
from beliefpool.networks import (
    direct_by_order,
    mn_union,
    moralize,
    parse_probability,
    triangulate,
)
from beliefpool.pools import check_pool_name, normalize_weights

CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))
PAIR = JointTable(2, (0.1, 0.2, 0.3, 0.4))
EDGE = MarkovNet(2, frozenset({(0, 1)}))

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
    "condition": (condition, (PAIR, {0: True})),
    "conditional_probability": (conditional_probability, (PAIR, {0: True}, {1: False})),
    "pairwise_dependence_gap": (pairwise_dependence_gap, (PAIR, 0, 1)),
    "markov_dependence_gap": (markov_dependence_gap, (PAIR, 0, (), (1,))),
    "parse_probability": (parse_probability, (0.5,)),
    "moralize": (moralize, (CHAIN,)),
    "mn_union": (mn_union, ([EDGE, EDGE],)),
    "triangulate": (triangulate, (EDGE,)),
    "direct_by_order": (direct_by_order, (EDGE, (1, 0))),
    "normalize_weights": (normalize_weights, (None, 2)),
    "check_pool_name": (check_pool_name, ("linop",)),
    "JointTable": (JointTable, (2, (0.1, 0.2, 0.3, 0.4))),
    "Cpt": (Cpt, (1, (0,), (0.6, 0.4))),
    "Dag": (Dag, (2, ((), (0,)))),
    "BayesNet": (BayesNet, (CHAIN.cpts, ("a", "b"))),
    "MarkovNet": (MarkovNet, (2, frozenset({(0, 1)}))),
    "ConsensusBn": (ConsensusBn, (CHAIN, (1, 0), 0)),
    "CheckReport": (CheckReport, ("unam", "linop", 1e-9, (0.0,))),
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
    "MarkovNet": lambda: EDGE,
    "Dag": lambda: CHAIN.dag(),
    "negative": lambda: -1,
    "int": lambda: 3,
    "dict": lambda: {0: 1},
    "float-set": lambda: frozenset({1.5}),
    "str-set": lambda: {"a"},
    "short-pairs": lambda: ((0,),),
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


# P(x0) = 0.2 and P(x1) = 0.6, independently: within every hypothesis.
PRODUCT = JointTable(2, (0.32, 0.08, 0.48, 0.12))
# One valid instance per property, each within its hypothesis.
INSTANCES = {
    "unam": UnanimityInstance((PAIR, PAIR)),
    "mp": EventPoolInstance((PAIR, PAIR), frozenset({0, 3})),
    "eb": EvidenceInstance((PAIR, PAIR), ((0, True),)),
    "pds": StatePairInstance((PAIR, PAIR), (PAIR, PAIR), 0, 1),
    "ipp": EventPairInstance((PRODUCT, PRODUCT), frozenset({1, 3}), frozenset({2, 3})),
    "eipp": VariablePairInstance((PRODUCT, PRODUCT), 0, 1),
    "meipp": ProductInstance((PRODUCT, PRODUCT)),
    "nmeipp": VariablePairInstance((PRODUCT, PRODUCT), 0, 1),
    "mipp": MarkovInstance((PRODUCT, PRODUCT), 0, (), (1,)),
    "fa-consistency": FamilyInstance((PAIR, PAIR), (0, 1), (1, 0)),
}
FIELDS = {
    f"{prop}-{field.name}": (prop, field.name)
    for prop, instance in INSTANCES.items()
    for field in dataclasses.fields(instance)
}


def test_every_property_has_an_instance():
    assert tuple(INSTANCES) == PROPERTY_NAMES


@pytest.mark.parametrize("pool", ["linop", "logop"])
@pytest.mark.parametrize("prop", INSTANCES)
def test_valid_instances_check(prop, pool):
    check_property(pool, prop, [INSTANCES[prop]])


@pytest.mark.parametrize("value", WRONG_VALUES.values(), ids=WRONG_VALUES)
@pytest.mark.parametrize("prop, field", FIELDS.values(), ids=FIELDS)
def test_instance_field_returns_or_raises_a_belief_pool_error(prop, field, value):
    instance = dataclasses.replace(INSTANCES[prop], **{field: value()})
    for pool in ("linop", "logop"):
        try:
            check_property(pool, prop, [instance])
        except BeliefPoolError:
            pass


def public_callables(modules, exports):
    """{name: object} of every public function and class that one of
    modules defines, and of every public function or class in exports
    (a module's namespace), leaving out exception classes."""
    found = {}
    for module in modules:
        found.update(
            (name, value)
            for name, value in vars(module).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        )
    found.update(
        (name, value)
        for name, value in vars(exports).items()
        if inspect.isfunction(value) or inspect.isclass(value)
    )
    return {
        name: value
        for name, value in found.items()
        if not name.startswith("_")
        and not (inspect.isclass(value) and issubclass(value, BaseException))
    }


PUBLIC = public_callables((joint, networks, inference, pools, consensus), beliefpool)


def test_public_callables_are_found():
    """The finder sees entry points of every module and the exports,
    and no kernel: those are private."""
    assert {"marginal", "Cpt", "moralize", "query_conditional", "normalize_weights",
            "ConsensusBn", "check_property", "CheckReport"} <= PUBLIC.keys()
    assert not {"BeliefPoolError", "MalformedInstance", "Assignment"} & PUBLIC.keys()
    assert not {"_contract", "_min_fill_order", "_logistic"} & PUBLIC.keys()


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_callable_is_held_to_the_contract(name):
    covered = {function for function, _ in CALLS.values()}
    covered |= {type(instance) for instance in INSTANCES.values()}
    assert PUBLIC[name] in covered, f"{name} has no CALLS entry"
