"""The public calls fail only with a BeliefPoolError.

A name without a leading underscore in a package module is a checked
entry point, and so is every top-level export; the unchecked kernels are
private. The modules are every one but cli, whose functions take a
command line and map each error to an exit code (test_cli.py). PUBLIC
finds each such function and class by introspection, and each must have
an entry here: in CALLS, or in INSTANCES for a property instance type.
The error classes are left out: they are what the contract raises, and
building one runs no check. No public signature names a private type.

Each call has one valid argument list. Every test puts one value of a
catalogue of wrong values in one positional argument: the call must
return or raise a BeliefPoolError, never an untyped error. The property
instances are held to the same contract field by field: each wrong
value in one field of a valid instance, checked under both pools. Which
error a given fault raises is pinned in test_imports.CALLER_ERRORS and
the modules' own tests; this test only holds every call to the contract.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

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
from beliefpool.axioms import (
    PROPERTY_NAMES,
    ExampleReport,
    chain_agents,
    independent_pair_agents,
    linop_eb_break_witness,
    logop_mp_break_witness,
    reproduce_example,
    run_axioms_suite,
    run_examples_suite,
    run_oracle_suite,
)
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
from beliefpool.model_io import (
    LinopManifest,
    align_variables,
    json_text,
    load_model_file,
    load_network,
    load_networks,
    manifest_from_dict,
    manifest_to_dict,
    network_from_dict,
    network_to_dict,
    save_manifest,
    save_network,
)
from beliefpool.pools import check_pool_name, normalize_weights
from beliefpool.sampling import (
    random_block_product_table,
    random_bn,
    random_conditional_table,
    random_dag,
    random_joint,
    random_product_table,
    random_vstructure_pair,
    random_weights,
)

CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))
LABELLED = BayesNet(CHAIN.cpts, ("a", "b"))
PAIR = JointTable(2, (0.1, 0.2, 0.3, 0.4))
EDGE = MarkovNet(2, frozenset({(0, 1)}))
MANIFEST = LinopManifest(("net.json", "net.json"), (0.5, 0.5))
RNG = np.random.default_rng(0)
# Written into the folder every test here runs in.
NETWORK_FILE = "net.json"


@pytest.fixture(autouse=True, scope="module")
def in_a_folder_with_a_network_file(tmp_path_factory):
    """Run the module's tests in a new folder holding NETWORK_FILE, which
    the loads read; the saves write there too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("files"))
        save_network(LABELLED, NETWORK_FILE)
        yield

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
    "LinopManifest": (LinopManifest, (MANIFEST.inputs, MANIFEST.weights)),
    "network_to_dict": (network_to_dict, (LABELLED, {"pool": "logop"})),
    "network_from_dict": (network_from_dict, (network_to_dict(LABELLED),)),
    "manifest_to_dict": (manifest_to_dict, (MANIFEST,)),
    "manifest_from_dict": (manifest_from_dict, (manifest_to_dict(MANIFEST),)),
    "load_network": (load_network, (NETWORK_FILE,)),
    "load_networks": (load_networks, ([NETWORK_FILE, NETWORK_FILE],)),
    "load_model_file": (load_model_file, (NETWORK_FILE,)),
    "json_text": (json_text, (network_to_dict(LABELLED),)),
    "save_network": (save_network, (LABELLED, "saved.json", {"pool": "logop"})),
    "save_manifest": (save_manifest, (MANIFEST, "manifest.json")),
    "align_variables": (align_variables, ([LABELLED, LABELLED],)),
    "random_joint": (random_joint, (RNG, 2)),
    "random_weights": (random_weights, (RNG, 2)),
    "random_dag": (random_dag, (RNG, 3, 0.5, 2)),
    "random_bn": (random_bn, (RNG, 3)),
    "random_vstructure_pair": (random_vstructure_pair, (RNG,)),
    "random_product_table": (random_product_table, (RNG, 2)),
    "random_block_product_table": (random_block_product_table, (RNG, 3, (0,))),
    "random_conditional_table": (random_conditional_table, (RNG, 3, 0, (1,), (2,))),
    "independent_pair_agents": (independent_pair_agents, ()),
    "chain_agents": (chain_agents, ()),
    "ExampleReport": (ExampleReport, ("ex1-linop", True, ("line",))),
    "reproduce_example": (reproduce_example, ("ex1-linop",)),
    "linop_eb_break_witness": (linop_eb_break_witness, ()),
    "logop_mp_break_witness": (logop_mp_break_witness, ()),
    "run_axioms_suite": (run_axioms_suite, (0, 1)),
    "run_examples_suite": (run_examples_suite, ()),
    "run_oracle_suite": (run_oracle_suite, (0, 1)),
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


MODULES = [
    importlib.import_module(f"beliefpool.{info.name}")
    for info in pkgutil.iter_modules(beliefpool.__path__)
    if info.name != "cli"
]
PUBLIC = public_callables(MODULES, beliefpool)


def test_public_callables_are_found():
    """The finder sees entry points of every module and the exports,
    and no kernel: those are private."""
    assert {"marginal", "Cpt", "moralize", "query_conditional", "normalize_weights",
            "ConsensusBn", "check_property", "CheckReport", "load_networks",
            "random_bn", "run_axioms_suite"} <= PUBLIC.keys()
    assert not {"BeliefPoolError", "MalformedInstance", "Assignment"} & PUBLIC.keys()
    assert not {"_contract", "_min_fill_order", "_logistic", "_network"} & PUBLIC.keys()
    names = {module.__name__ for module in MODULES}
    assert {"beliefpool.model_io", "beliefpool.sampling", "beliefpool.axioms"} <= names
    assert "beliefpool.cli" not in names


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_callable_is_held_to_the_contract(name):
    covered = {function for function, _ in CALLS.values()}
    covered |= {type(instance) for instance in INSTANCES.values()}
    assert PUBLIC[name] in covered, f"{name} has no CALLS entry"


def private_types(function) -> list[str]:
    """The _-prefixed names in function's parameter and return
    annotations, each read as text (postponed or not)."""
    signature = inspect.signature(function)
    annotations = [p.annotation for p in signature.parameters.values()]
    annotations.append(signature.return_annotation)
    return [
        name
        for annotation in annotations
        if annotation is not inspect.Parameter.empty
        for name in re.findall(
            r"\w+",
            annotation if isinstance(annotation, str) else inspect.formatannotation(annotation),
        )
        if name.startswith("_")
    ]


def public_signatures(callables) -> dict:
    """{name: function} of every public function, of every public class
    (its constructor) and of every public method or property getter."""
    found = {}
    for name, value in callables.items():
        found[name] = value
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if not attr.startswith("_") and inspect.isfunction(member):
                    found[f"{name}.{attr}"] = member
    return found


class _Hidden:
    def shown(self, x: "_Hidden | None") -> "list[int]":
        return []


def test_private_type_finder():
    def f(a: "_Hidden | None", b: "int" = 0) -> "tuple[_Hidden, ...]":
        return ()

    assert private_types(f) == ["_Hidden", "_Hidden"]
    assert private_types(len) == []
    assert public_signatures({"Hidden": _Hidden}) == {
        "Hidden": _Hidden, "Hidden.shown": _Hidden.shown
    }
    assert private_types(_Hidden.shown) == ["_Hidden"]


@pytest.mark.parametrize("name", sorted(public_signatures(PUBLIC)))
def test_no_public_signature_names_a_private_type(name):
    assert private_types(public_signatures(PUBLIC)[name]) == []
