"""Package-wide source policies, checked on the source itself.

Every name a package module imports with `from ... import` is used: no
linter runs on the package, so this test is the check that an import
left behind by a deleted call does not stay. Every error is typed:
no module raises a bare ValueError, and the caller errors that replace
it are BeliefPoolErrors that a caller's `except ValueError` still
catches. Only the functions that have already validated their
input call the trusted construction path. And there is one factor
product, joint._contract, the only caller of np.einsum. Each input rule
that more than one caller needs (a variable count, a model's kind, a
parent list, a label list, the a, w, x partition, state indices) raises
its messages from one function (RULES).
"""

import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest

from beliefpool import (
    BayesNet,
    BeliefPoolError,
    ConsensusBn,
    Cpt,
    Dag,
    EventPoolInstance,
    EvidenceInstance,
    InvalidWeight,
    JointTable,
    MalformedInstance,
    MarkovNet,
    ModelFormatError,
    NotChordal,
    StatePairInstance,
    UnanimityInstance,
    UnknownVariable,
    bn_to_joint,
    check_property,
    family_pooled_joint,
    linop,
    logop_consensus_bn,
)
from beliefpool import errors
from beliefpool.axioms import reproduce_example, run_axioms_suite, run_oracle_suite
from beliefpool.inference import (
    _weighted_product_cpts, query_conditional, query_event_marginal,
)
from beliefpool.consensus import linop_query
from beliefpool.joint import (
    condition,
    conditional_probability,
    marginal,
    markov_dependence_gap,
    pairwise_dependence_gap,
)
from beliefpool.model_io import (
    LinopManifest,
    align_variables,
    json_text,
    load_network,
    load_networks,
    manifest_from_dict,
    manifest_to_dict,
    network_from_dict,
    network_to_dict,
    save_manifest,
    save_network,
)
from beliefpool.networks import direct_by_order, mn_union, triangulate
from beliefpool.pools import normalize_weights
from beliefpool.sampling import (
    random_bn,
    random_conditional_table,
    random_dag,
    random_joint,
    random_vstructure_pair,
    random_weights,
)

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "beliefpool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_from_imports(source):
    """Names bound by a `from ... import` in source that it never reads."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "from os import path, sep as s\n"
        "from typing import List\n"
        "def f(x: List[int]):\n"
        "    from math import pi, tau\n"
        "    return path, pi\n"
    )
    assert unused_from_imports(source) == ["s", "tau"]


def test_package_modules_found():
    assert "inference.py" in [p.name for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []


def value_error_raises(source):
    """Line numbers of every `raise ValueError` or `raise ValueError(...)`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name)
        and exc.id == "ValueError"
    )


def test_checker_flags_value_errors():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('bad')\n"
        "    raise ValueError\n"
        "def g():\n"
        "    raise ModelFormatError('typed')\n"
    )
    assert value_error_raises(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_bare_value_error(path):
    assert value_error_raises(path.read_text()) == []


CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))
PAIR = JointTable(2, (0.1, 0.2, 0.3, 0.4))
REVERSED = JointTable(2, (0.4, 0.3, 0.2, 0.1))
SQUARE = MarkovNet(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
VEE = BayesNet(
    (Cpt(0, (), (0.3,)), Cpt(1, (), (0.7,)), Cpt(2, (0, 1), (0.1, 0.6, 0.4, 0.9)))
)
LABELLED = BayesNet(CHAIN.cpts, ("A", "B"))
# A table with no mass on state 1: a pool of it has none there either.
NO_MASS_AT_ONE = JointTable(1, (1.0, 0.0))


def rng():
    return np.random.default_rng(0)


# One call per retyped raise site group, with the type it must raise.
CALLER_ERRORS = {
    "cpt-negative-owner": (ModelFormatError, lambda: Cpt(-1, (), (0.5,))),
    "cpt-row-count": (ModelFormatError, lambda: Cpt(0, (1,), (0.1,))),
    "cpt-row-not-a-number": (ModelFormatError, lambda: Cpt(0, (), ("abc",))),
    "cpt-row-numeric-string": (ModelFormatError, lambda: Cpt(0, (), ("0.5",))),
    "cpt-row-bool": (ModelFormatError, lambda: Cpt(0, (), (True,))),
    "cpt-float-owner": (ModelFormatError, lambda: Cpt(0.5, (), (0.5,))),
    "cpt-string-parent": (ModelFormatError, lambda: Cpt(0, ("1",), (0.1, 0.9))),
    "cpt-rows-not-a-sequence": (ModelFormatError, lambda: Cpt(0, (), 0.5)),
    "dag-float-parent": (ModelFormatError, lambda: Dag(2, ((), (0.5,)))),
    "dag-string-parent": (ModelFormatError, lambda: Dag(2, ((), ("0",)))),
    "bayes-labels": (ModelFormatError, lambda: BayesNet(CHAIN.cpts, ("A", "A"))),
    "bayes-label-count": (ModelFormatError, lambda: BayesNet(CHAIN.cpts, ("A",))),
    "bayes-owners": (ModelFormatError, lambda: BayesNet(CHAIN.cpts[:1] * 2)),
    "bayes-non-cpt": (ModelFormatError, lambda: BayesNet((1, 2))),
    "bayes-cpts-not-iterable": (ModelFormatError, lambda: BayesNet(5)),
    "bayes-labels-not-iterable": (ModelFormatError, lambda: BayesNet(CHAIN.cpts, labels=5)),
    "bayes-non-string-labels": (ModelFormatError, lambda: BayesNet(CHAIN.cpts, labels=(1, 2))),
    "bayes-empty-label": (ModelFormatError, lambda: BayesNet(CHAIN.cpts, labels=("", "B"))),
    "markov-self-loop": (ModelFormatError, lambda: MarkovNet(2, frozenset({(1, 1)}))),
    "markov-string-endpoint": (ModelFormatError, lambda: MarkovNet(2, {(0, "1")})),
    "joint-entry-count": (ModelFormatError, lambda: JointTable(2, (0.5, 0.5))),
    "joint-negative-count": (ModelFormatError, lambda: JointTable(-1, (1.0,))),
    "joint-float-count": (ModelFormatError, lambda: JointTable(1.0, (0.5, 0.5))),
    "joint-string-entries": (ModelFormatError, lambda: JointTable(1, ["a", "b"])),
    "save-unlabeled": (ModelFormatError, lambda: network_to_dict(CHAIN)),
    "load-non-object": (ModelFormatError, lambda: network_from_dict([])),
    "load-none-path": (MalformedInstance, lambda: load_network(None)),
    "load-int-path": (MalformedInstance, lambda: load_network(5)),
    "load-bytes-path": (MalformedInstance, lambda: load_network(b"x")),
    "save-none-path": (MalformedInstance, lambda: save_network(LABELLED, None)),
    # A save checks its model and provenance before it opens the file.
    "provenance-bytes": (MalformedInstance, lambda: network_to_dict(LABELLED, b"x")),
    "provenance-not-encodable": (
        MalformedInstance, lambda: save_network(LABELLED, os.devnull, {"a": b"x"})
    ),
    "manifest-to-dict-none": (MalformedInstance, lambda: manifest_to_dict(None)),
    # A manifest checks its fields where they enter, so one that saves
    # reads back.
    "manifest-none-inputs": (MalformedInstance, lambda: LinopManifest(None)),
    "manifest-int-inputs": (MalformedInstance, lambda: LinopManifest(5)),
    "manifest-string-inputs": (MalformedInstance, lambda: LinopManifest("a.json")),
    "manifest-no-inputs": (MalformedInstance, lambda: LinopManifest(())),
    "manifest-empty-input": (MalformedInstance, lambda: LinopManifest(("",))),
    "manifest-int-input": (MalformedInstance, lambda: LinopManifest(("a.json", 1))),
    "manifest-scalar-weights": (MalformedInstance, lambda: LinopManifest(("a.json",), 0.5)),
    "manifest-bool-weight": (MalformedInstance, lambda: LinopManifest(("a.json",), (True,))),
    "manifest-string-weight": (MalformedInstance, lambda: LinopManifest(("a.json",), ("0.5",))),
    "manifest-overflowing-weight": (
        MalformedInstance, lambda: LinopManifest(("a.json",), (10**400,))
    ),
    "save-manifest-network": (MalformedInstance, lambda: save_manifest(LABELLED, os.devnull)),
    # A save that cannot write its path names it, as a load that cannot
    # read one does.
    "save-to-directory": (ModelFormatError, lambda: save_network(LABELLED, TESTS)),
    "save-to-missing-folder": (
        ModelFormatError, lambda: save_network(LABELLED, TESTS / "missing" / "a.json")
    ),
    "save-manifest-to-directory": (
        ModelFormatError, lambda: save_manifest(LinopManifest(("a.json",)), TESTS)
    ),
    "save-manifest-to-missing-folder": (
        ModelFormatError,
        lambda: save_manifest(LinopManifest(("a.json",)), TESTS / "missing" / "a.json"),
    ),
    "json-text-none": (MalformedInstance, lambda: json_text(None)),
    "json-text-int-key": (MalformedInstance, lambda: json_text({0: 1})),
    "json-text-not-encodable": (MalformedInstance, lambda: json_text({"a": {1.5}})),
    "load-networks-generator": (MalformedInstance, lambda: load_networks(p for p in ["a"])),
    "load-networks-int-path": (MalformedInstance, lambda: load_networks([5])),
    "manifest-kind": (ModelFormatError, lambda: manifest_from_dict({"kind": "bayes"})),
    "no-weights-agents": (MalformedInstance, lambda: normalize_weights(None, 0)),
    "string-agent-count": (MalformedInstance, lambda: normalize_weights(None, "a")),
    "float-agent-count": (MalformedInstance, lambda: normalize_weights(None, 2.0)),
    "none-agent-count": (MalformedInstance, lambda: normalize_weights(None, None)),
    "list-agent-count": (MalformedInstance, lambda: normalize_weights(None, [1])),
    "product-parents-not-bucket": (
        MalformedInstance,
        lambda: _weighted_product_cpts([CHAIN], [1.0], Dag(2, ((), ())), (0, 1)),
    ),
    "unknown-pool-check": (MalformedInstance, lambda: check_property("mean", "unam", [])),
    "no-tables": (MalformedInstance, lambda: linop(())),
    "unknown-pool-family": (
        MalformedInstance, lambda: family_pooled_joint("mean", (PAIR,), (0, 1))
    ),
    "unknown-property": (MalformedInstance, lambda: check_property("linop", "x", [])),
    "wrong-instance-type": (
        MalformedInstance,
        lambda: check_property("linop", "eb", [UnanimityInstance((PAIR,))]),
    ),
    "unam-no-tables": (
        MalformedInstance,
        lambda: check_property("linop", "unam", [UnanimityInstance(())]),
    ),
    "unam-not-unanimous": (
        MalformedInstance,
        lambda: check_property("linop", "unam", [UnanimityInstance((PAIR, REVERSED))]),
    ),
    "pds-profiles-disagree": (
        MalformedInstance,
        lambda: check_property("linop", "pds", [StatePairInstance((PAIR,), (REVERSED,), 0, 1)]),
    ),
    "eb-zero-mass-evidence": (
        MalformedInstance,
        lambda: check_property(
            "linop", "eb",
            [EvidenceInstance((JointTable(2, (0.5, 0.0, 0.5, 0.0)),), ((0, True),))],
        ),
    ),
    "mp-state-out-of-range": (
        MalformedInstance,
        lambda: check_property("linop", "mp", [EventPoolInstance((PAIR,), frozenset({9}))]),
    ),
    "unknown-example": (MalformedInstance, lambda: reproduce_example("ex9")),
    "unhashable-example": (MalformedInstance, lambda: reproduce_example([])),
    # A suite's seed and trials are checked before any draw.
    "suite-zero-trials": (MalformedInstance, lambda: run_oracle_suite(0, 0)),
    "suite-float-trials": (MalformedInstance, lambda: run_axioms_suite(0, 2.5)),
    "suite-bool-trials": (MalformedInstance, lambda: run_axioms_suite(0, True)),
    "suite-negative-seed": (MalformedInstance, lambda: run_axioms_suite(-1)),
    "suite-string-seed": (MalformedInstance, lambda: run_oracle_suite("a")),
    "suite-bool-seed": (MalformedInstance, lambda: run_axioms_suite(False, 1)),
    "pds-agent-counts": (
        MalformedInstance,
        lambda: check_property("linop", "pds", [StatePairInstance((PAIR, PAIR), (PAIR,), 0, 1)]),
    ),
    "pds-zero-reference": (
        MalformedInstance,
        lambda: check_property(
            "linop", "pds", [StatePairInstance((NO_MASS_AT_ONE,), (NO_MASS_AT_ONE,), 0, 1)]
        ),
    ),
    # A sampler checks every argument, the rng first, before any draw.
    "none-rng": (MalformedInstance, lambda: random_joint(None, 2)),
    "legacy-rng": (MalformedInstance, lambda: random_vstructure_pair(np.random.RandomState(0))),
    "string-weight-count": (MalformedInstance, lambda: random_weights(rng(), "3")),
    "zero-weight-count": (MalformedInstance, lambda: random_weights(rng(), 0)),
    "string-edge-prob": (MalformedInstance, lambda: random_dag(rng(), 3, "0.5")),
    "bool-edge-prob": (MalformedInstance, lambda: random_dag(rng(), 3, True)),
    "edge-prob-above-one": (MalformedInstance, lambda: random_dag(rng(), 3, 1.5)),
    "nan-edge-prob": (MalformedInstance, lambda: random_bn(rng(), 3, edge_prob=float("nan"))),
    "float-max-parents": (MalformedInstance, lambda: random_dag(rng(), 3, 0.5, 2.0)),
    "bool-max-parents": (MalformedInstance, lambda: random_dag(rng(), 3, 0.5, False)),
    "negative-max-parents": (MalformedInstance, lambda: random_bn(rng(), 3, max_parents=-1)),
    "network-as-dag": (MalformedInstance, lambda: random_bn(rng(), 2, dag=CHAIN)),
    "target-in-evidence": (
        MalformedInstance, lambda: query_conditional(CHAIN, {0: 1}, {0: 1})
    ),
    "marginal-pairs": (MalformedInstance, lambda: marginal(PAIR, [(0, True)])),
    "condition-pairs": (MalformedInstance, lambda: condition(PAIR, ((0, True),))),
    "conditional-set": (MalformedInstance, lambda: conditional_probability(PAIR, {0}, {})),
    "query-none-target": (MalformedInstance, lambda: query_conditional(CHAIN, None)),
    "query-list-evidence": (
        MalformedInstance, lambda: query_conditional(CHAIN, {0: True}, [1])
    ),
    "linop-pair-evidence": (
        MalformedInstance, lambda: linop_query([CHAIN], {0: True}, [(1, True)])
    ),
    "string-state": (MalformedInstance, lambda: marginal(PAIR, {0: "0"})),
    "none-state": (MalformedInstance, lambda: marginal(PAIR, {0: None})),
    "nan-state": (MalformedInstance, lambda: marginal(PAIR, {0: float("nan")})),
    "two-state": (MalformedInstance, lambda: query_conditional(CHAIN, {0: 2})),
    "float-state": (
        MalformedInstance, lambda: linop_query([CHAIN], {0: True}, {1: np.float64(1.0)})
    ),
    "no-agents": (MalformedInstance, lambda: logop_consensus_bn([])),
    "no-structures": (MalformedInstance, lambda: mn_union([])),
    "bad-order": (MalformedInstance, lambda: direct_by_order(SQUARE, (0, 0, 1, 2))),
    "string-order": (MalformedInstance, lambda: direct_by_order(SQUARE, ("a", 0, 1, 2))),
    "float-order": (MalformedInstance, lambda: direct_by_order(SQUARE, (1.0, 0.0, 2.0, 3.0))),
    "string-family-order": (
        MalformedInstance, lambda: family_pooled_joint("linop", (PAIR,), ("a", 0))
    ),
    "float-family-order": (
        MalformedInstance, lambda: family_pooled_joint("linop", (PAIR,), (1.0, 0.0))
    ),
    "consensus-bad-order": (MalformedInstance, lambda: ConsensusBn(CHAIN, (1, 1))),
    "consensus-string-queries": (
        MalformedInstance, lambda: ConsensusBn(CHAIN, (1, 0), agent_queries="many")
    ),
    "consensus-negative-queries": (
        MalformedInstance, lambda: ConsensusBn(CHAIN, (1, 0), agent_queries=-5)
    ),
    "no-models": (MalformedInstance, lambda: align_variables([])),
    "same-pair": (MalformedInstance, lambda: pairwise_dependence_gap(PAIR, 1, 1)),
    "bad-partition": (MalformedInstance, lambda: markov_dependence_gap(PAIR, 0, (0,), (1,))),
    "none-partition": (MalformedInstance, lambda: markov_dependence_gap(PAIR, 0, None, (1,))),
    "overlapping-partition": (
        MalformedInstance,
        lambda: markov_dependence_gap(JointTable(3, (0.125,) * 8), 0, (1,), (1,)),
    ),
    "bad-sample-partition": (
        MalformedInstance,
        lambda: random_conditional_table(np.random.default_rng(0), 3, 0, (1,), ()),
    ),
    # A model of the wrong kind: _check_kind names both kinds.
    "wrong-kind-bn-to-joint": (MalformedInstance, lambda: bn_to_joint(PAIR)),
    "wrong-kind-marginal": (MalformedInstance, lambda: marginal(CHAIN, {0: True})),
    "wrong-kind-condition": (MalformedInstance, lambda: condition(CHAIN, {0: True})),
    "wrong-kind-conditional": (
        MalformedInstance, lambda: conditional_probability(CHAIN, {0: True})
    ),
    "wrong-kind-pairwise-gap": (
        MalformedInstance, lambda: pairwise_dependence_gap(CHAIN, 0, 1)
    ),
    "wrong-kind-markov-gap": (
        MalformedInstance, lambda: markov_dependence_gap(CHAIN, 0, (1,), ())
    ),
    "wrong-kind-triangulate-network": (MalformedInstance, lambda: triangulate(CHAIN)),
    "wrong-kind-triangulate-dag": (MalformedInstance, lambda: triangulate(CHAIN.dag())),
    "wrong-kind-direct-network": (
        MalformedInstance, lambda: direct_by_order(CHAIN, (0, 1))
    ),
    "wrong-kind-query-conditional": (
        MalformedInstance, lambda: query_conditional(PAIR, {0: True})
    ),
    "wrong-kind-query-marginal": (
        MalformedInstance, lambda: query_event_marginal(SQUARE, {0: True})
    ),
    "not-perfect-order": (NotChordal, lambda: direct_by_order(SQUARE, (0, 1, 2, 3))),
    "not-decomposable": (NotChordal, lambda: ConsensusBn(VEE, (0, 1, 2))),
    "consensus-reversed-order": (NotChordal, lambda: ConsensusBn(CHAIN, (0, 1))),
}


@pytest.mark.parametrize("error, call", CALLER_ERRORS.values(), ids=CALLER_ERRORS)
def test_caller_errors_are_typed_value_errors(error, call):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, BeliefPoolError)
    assert isinstance(exc.value, ValueError)


WRONG_KIND = {
    name: call for name, (_, call) in CALLER_ERRORS.items() if name.startswith("wrong-kind-")
}


@pytest.mark.parametrize("call", WRONG_KIND.values(), ids=WRONG_KIND)
def test_wrong_kind_names_both_kinds(call):
    with pytest.raises(MalformedInstance) as exc:
        call()
    kinds = (
        r"expected a (JointTable|BayesNet|MarkovNet), got (BayesNet|JointTable|MarkovNet|Dag)"
    )
    assert re.fullmatch(kinds, str(exc.value))


# Pooling calls given a weight list that is not a sequence of numbers, or
# a model of the wrong kind: each is checked where every such call passes,
# pools.normalize_weights (InvalidWeight) and joint._shared_variable_count
# (MalformedInstance). InvalidWeight is not a ValueError, so these are not
# CALLER_ERRORS rows. The file writer's kind check, the property
# instances' field checks, the dependence gaps' variable check and
# align_variables' sequence and label checks are pinned here too, by
# message.
CHOKE_POINT_ERRORS = {
    "logop-scalar-weights": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: logop_consensus_bn([CHAIN, CHAIN], 0.5),
    ),
    "linop-query-scalar-weights": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: linop_query([CHAIN, CHAIN], {0: True}, weights=0.5),
    ),
    "logop-string-weight": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: logop_consensus_bn([CHAIN, CHAIN], ["a", 1]),
    ),
    "logop-set-weights": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: logop_consensus_bn([CHAIN, CHAIN], {0.7, 0.3}),
    ),
    "linop-numeric-string-weights": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: linop([PAIR, PAIR], ["0.5", "0.5"]),
    ),
    "linop-query-tables": (
        MalformedInstance, "expected a BayesNet, got JointTable",
        lambda: linop_query([PAIR, PAIR], {0: True}),
    ),
    "linop-query-none-agent": (
        MalformedInstance, "expected a BayesNet, got NoneType",
        lambda: linop_query([CHAIN, None], {0: True}),
    ),
    "logop-consensus-tables": (
        MalformedInstance, "expected a BayesNet, got JointTable",
        lambda: logop_consensus_bn([PAIR, PAIR]),
    ),
    "linop-networks": (
        MalformedInstance, "expected a JointTable, got BayesNet",
        lambda: linop([CHAIN, CHAIN]),
    ),
    "union-networks": (
        MalformedInstance, "expected a MarkovNet, got BayesNet",
        lambda: mn_union([CHAIN, CHAIN]),
    ),
    "save-table": (
        MalformedInstance, "expected a BayesNet, got JointTable",
        lambda: network_to_dict(PAIR),
    ),
    "check-wrong-instance": (
        MalformedInstance, "expected an EventPoolInstance, got UnanimityInstance",
        lambda: check_property("linop", "mp", [UnanimityInstance((PAIR,))]),
    ),
    "unam-table-count": (
        MalformedInstance, "tables must be a sequence, got int",
        lambda: check_property("linop", "unam", [UnanimityInstance(5)]),
    ),
    "check-instances-generator": (
        MalformedInstance, "instances must be a sequence, got generator",
        lambda: check_property("linop", "unam", (i for i in [UnanimityInstance((PAIR,))])),
    ),
    "eb-evidence-not-pairs": (
        MalformedInstance, "evidence must be (variable, state) pairs",
        lambda: check_property("linop", "eb", [EvidenceInstance((PAIR,), ((0,),))]),
    ),
    "pds-string-state": (
        MalformedInstance, "state indices must be integers, got ('a', 1)",
        lambda: check_property("linop", "pds", [StatePairInstance((PAIR,), (PAIR,), "a", 1)]),
    ),
    "mp-float-state": (
        MalformedInstance, "state indices must be integers, got frozenset({1.5})",
        lambda: check_property("linop", "mp", [EventPoolInstance((PAIR,), frozenset({1.5}))]),
    ),
    "align-int": (
        MalformedInstance, "models must be a sequence, got int",
        lambda: align_variables(5),
    ),
    "align-generator": (
        MalformedInstance, "models must be a sequence, got generator",
        lambda: align_variables(model for model in [CHAIN]),
    ),
    "bool-weights": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: normalize_weights((True, True), 2),
    ),
    "numpy-bool-weights": (
        InvalidWeight, "weights must be a sequence of numbers",
        lambda: linop([PAIR, PAIR], np.array([True, False])),
    ),
    "align-unlabeled": (
        ModelFormatError, "aligning networks requires variable labels",
        lambda: align_variables([CHAIN]),
    ),
    "gap-unhashable-variable": (
        UnknownVariable, "variables must be integers, got [0], 1",
        lambda: pairwise_dependence_gap(PAIR, [0], 1),
    ),
}


@pytest.mark.parametrize(
    "error, message, call", CHOKE_POINT_ERRORS.values(), ids=CHOKE_POINT_ERRORS
)
def test_choke_point_errors_are_typed(error, message, call):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, BeliefPoolError)
    assert str(exc.value) == message


def test_markov_edge_outside_range_is_unknown_variable():
    # UnknownVariable is a BeliefPoolError but not a ValueError, so it
    # cannot be a CALLER_ERRORS row.
    with pytest.raises(UnknownVariable) as exc:
        MarkovNet(2, frozenset({(0, 5)}))
    assert isinstance(exc.value, BeliefPoolError)
    assert not isinstance(exc.value, ValueError)


TRUSTED_PATH = ("_trusted", "_trusted_table")
# The functions that may build a model without its constructor's checks,
# because they have checked or computed every field themselves: the
# loader, the structure transforms, the consensus builders, the dense
# kernels, and the samplers, whose models are valid by construction.
TRUSTED_CALLERS = {
    "joint._trusted_table",
    "model_io._network",
    "model_io._structure",
    "model_io.align_variables",
    "networks.moralize",
    "networks.mn_union",
    "networks.triangulate",
    "networks.direct_by_order",
    "consensus._structure",
    "consensus._structured_cpts",
    "consensus._logop_consensus",
    "inference._weighted_product_cpts",
    "networks.bn_to_joint",
    "pools._linop_table",
    "pools._logop_table",
    "joint.condition",
    "axioms._chain_rule_pool",
    "axioms._draw_pds",
    "sampling.random_bn",
    "sampling.random_dag",
    "sampling.random_joint",
    "sampling.random_product_table",
    "sampling.random_block_product_table",
    "sampling.random_conditional_table",
}


def trusted_uses(source, module, names=TRUSTED_PATH):
    """(enclosing function, whether the use is a call's callee) for every
    use of one of names, the trusted-path names by default; the function
    is "module.name", or None at module level."""
    tree = ast.parse(source)
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{module}.{node.name}"
        if isinstance(node, ast.Name) and node.id in names or (
            isinstance(node, ast.Attribute) and node.attr in names
        ):
            uses.append((function, id(node) in callees))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return uses


def test_checker_finds_trusted_uses():
    source = (
        "from .joint import _trusted\n"
        "def load(x):\n"
        "    return _trusted(Cpt, rows=_trusted_table(1, x))\n"
        "def other(joint):\n"
        "    f = _trusted\n"
        "    return joint._trusted(Dag)\n"
        "ALIAS = _trusted_table\n"
    )
    assert trusted_uses(source, "m") == [
        ("m.load", True),
        ("m.load", True),
        ("m.other", False),
        ("m.other", True),
        (None, False),
    ]


def test_only_validating_functions_call_the_trusted_path():
    uses = [
        use
        for path in MODULES + sorted(TESTS.glob("*.py"))
        for use in trusted_uses(path.read_text(), path.stem)
    ]
    assert all(is_call for _, is_call in uses)
    assert {function for function, _ in uses} == TRUSTED_CALLERS


def test_only_the_consensus_fill_builds_checked_assignments():
    """joint._Checked skips the key checks of a query, so only the
    consensus fill, which builds every target and context from its own
    structure, may construct one; other code may only name the type."""
    uses = [
        use
        for path in MODULES + sorted(TESTS.glob("*.py"))
        for use in trusted_uses(path.read_text(), path.stem, names=("_Checked",))
    ]
    assert {function for function, is_call in uses if is_call} == {
        "consensus._structured_cpts"
    }


def test_one_bucket_planner():
    """inference._buckets decides every bucket's factors, for the
    elimination kernel and for the factor route's pass alike."""
    uses = [
        use
        for path in MODULES
        for use in trusted_uses(path.read_text(), path.stem, names=("_buckets",))
    ]
    assert sorted(uses) == [
        ("inference._probabilities", True), ("inference._weighted_product_cpts", True)
    ]


def test_one_factor_product():
    """joint._contract is the one factor product: the only einsum call,
    and the per-record VE factors and per-state index arrays it replaced
    stay gone."""
    uses = [
        use
        for path in MODULES
        for use in trusted_uses(path.read_text(), path.stem, names=("einsum",))
    ]
    assert uses == [("joint._contract", True)]
    for path in MODULES:
        text = path.read_text()
        for name in ("_Factor", "_product", "_sum_out"):
            assert not re.search(rf"\b{name}\b", text), (path.name, name)
        assert "np.arange(1 << m)" not in text, path.name


def test_one_cpt_factor_layout():
    """networks._cpt_factor is the one layout of CPT rows as a factor, the
    only np.concatenate call, and networks._acyclic the one acyclicity
    check; the cached Cpt tables and the heap-based topological order
    they replaced stay gone. heapq serves networks._min_fill_order's
    priority queue alone."""
    uses = [
        use
        for path in MODULES
        for use in trusted_uses(path.read_text(), path.stem, names=("concatenate",))
    ]
    assert uses == [("networks._cpt_factor", True)]
    defined = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    ]
    assert [f for f in defined if "acyclic" in f] == ["networks._acyclic"]
    assert {"table", "family", "topological_order"}.isdisjoint(
        f.split(".")[1] for f in defined
    )
    assert [path.stem for path in MODULES if "heapq" in path.read_text()] == ["networks"]
    heap_uses = {
        function
        for path in MODULES
        for function, _ in trusted_uses(path.read_text(), path.stem, names=("heapq",))
    }
    assert heap_uses == {"networks._min_fill_order"}



def test_one_parse_site():
    """orjson and json.loads parse a file's text in model_io._load_file
    alone, the package's one parse site: every load takes orjson's value
    or the stdlib path's there. The one other use of orjson is
    model_io.json_text, the one encode site."""
    assert [path.stem for path in MODULES if "orjson" in path.read_text()] == ["model_io"]

    def uses(name):
        return {
            function
            for path in MODULES
            for function, _ in trusted_uses(path.read_text(), path.stem, names=(name,))
        }

    assert uses("loads") == {"model_io._load_file"}
    assert uses("orjson") == {"model_io._load_file", "model_io.json_text"}

def enclosing_calls(source, module, match):
    """The enclosing function ("module.name", None at module level) of
    every call in source for which match(call) holds."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and match(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def indexes_a_count(call):
    """Whether call is index(m), operator.index(m) or either on an
    attribute .m."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "index" or len(call.args) != 1:
        return False
    (arg,) = call.args
    return (isinstance(arg, ast.Name) and arg.id == "m") or (
        isinstance(arg, ast.Attribute) and arg.attr == "m"
    )


ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.BeliefPoolError)
}


def message_template(call):
    """The message of a typed error built by call, its formatted values
    written {}, or None if call builds no error from a literal message."""
    if not (isinstance(call.func, ast.Name) and call.func.id in ERRORS and call.args):
        return None
    message = call.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{}" for v in message.values
        )
    return None


def raises_message(pattern):
    """A match for enclosing_calls: a call that builds a typed error whose
    message matches pattern."""
    return lambda call: re.search(pattern, message_template(call) or "") is not None


# Each input rule that more than one caller needs, as a pattern matching
# every wording of its messages, past ones included, with the one
# function allowed to raise them.
RULES = {
    "count": (r"^variable count", "joint._check_variable_count"),
    "kind": (r"^expected (an? |\{\}, got)|has a file form", "joint._check_kind"),
    "parent list": (
        r"duplicate parent|\bown parent|^parent \{\} outside", "networks._check_parents"
    ),
    "labels": (r"labels must be|labels, got|nonempty strings", "networks._check_labels"),
    "partition": (
        r"partition|w and x|cover all variables|may not appear", "joint._check_partition"
    ),
    "state index": (r"state ind", "axioms._state_indices"),
    "sequence": (r"must be a sequence, got", "joint._check_sequence"),
    "agent count": (r"^agent count|^need at least one agent$", "pools._check_agent_count"),
    "rng": (r"^rng must be", "sampling._check_rng"),
}


def test_checkers_find_count_indexes_and_kind_messages():
    source = (
        "def a(self, m, ps):\n"
        "    operator.index(self.m)\n"
        "    index(m)\n"
        "    ps.index(p)\n"
        "def b(model):\n"
        "    raise MalformedInstance(f'expected a {cls}, got {model}')\n"
        "def c():\n"
        "    raise ModelFormatError('duplicate parent indices')\n"
        "    raise MalformedInstance(message)\n"
        "    raise KeyError('state index')\n"
        "def d(m, x):\n"
        "    raise MalformedInstance('expected an order')\n"
        "    raise MalformedInstance(f'expected a Dag or a BayesNet, got {m}')\n"
        "    raise ModelFormatError(f'expected a BayesNet, got {type(x).__name__}')\n"
        "    raise ModelFormatError(f'expected {m} labels, got {len(x)}')\n"
        "    raise MalformedInstance(f'instances must be a sequence, got {m}')\n"
    )
    assert enclosing_calls(source, "m", indexes_a_count) == ["m.a", "m.a"]
    found = {
        rule: enclosing_calls(source, "m", raises_message(pattern))
        for rule, (pattern, _) in RULES.items()
    }
    assert found == {
        "count": [], "kind": ["m.b", "m.d", "m.d", "m.d"], "parent list": ["m.c"],
        "labels": ["m.d"], "partition": [], "state index": [], "sequence": ["m.d"],
        "agent count": [], "rng": [],
    }
    templates = [
        message_template(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]
    assert {"expected a {}, got {}", "expected a Dag or a BayesNet, got {}"} <= set(templates)


@pytest.mark.parametrize("pattern, function", RULES.values(), ids=RULES)
def test_one_function_per_input_rule(pattern, function):
    """Each rule's messages are raised by its one function, which every
    caller goes through; no constructor, loader, sampler or property
    instance keeps a copy."""
    found = {
        f
        for path in MODULES
        for f in enclosing_calls(path.read_text(), path.stem, raises_message(pattern))
    }
    assert found == {function}


def test_one_count_index():
    """joint._check_variable_count is the only index() call on a count."""
    found = [
        f
        for path in MODULES
        for f in enclosing_calls(path.read_text(), path.stem, indexes_a_count)
    ]
    assert found == ["joint._check_variable_count"]


def nodes(m):
    """m where it is a nonnegative int, else 3: the size of the other
    arguments."""
    return m if isinstance(m, int) and m >= 0 else 3


COUNT_BUILDERS = {
    "Dag": lambda m: Dag(m, ((),) * nodes(m)),
    "MarkovNet": lambda m: MarkovNet(m, frozenset()),
    "JointTable": lambda m: JointTable(m, np.ones(2 ** nodes(m))),
    "random_dag": lambda m: random_dag(np.random.default_rng(0), m),
    "random_joint": lambda m: random_joint(np.random.default_rng(0), m),
    "random_bn-dag": lambda m: random_bn(
        np.random.default_rng(0), m, dag=Dag(nodes(m), ((),) * nodes(m))
    ),
}
NOT_AN_INTEGER = "variable count {!r} is not an integer"
# Each count with the message of the one count check, or None if it builds.
COUNTS = {
    "-1": (-1, "variable count must be nonnegative, got -1"),
    "0": (0, None),
    "3": (3, None),
    "3.0": (3.0, NOT_AN_INTEGER.format(3.0)),
    "'3'": ("3", NOT_AN_INTEGER.format("3")),
    "None": (None, NOT_AN_INTEGER.format(None)),
    "True": (True, None),
    "int64": (np.int64(3), None),
}


@pytest.mark.parametrize("m, message", COUNTS.values(), ids=COUNTS)
@pytest.mark.parametrize("build", COUNT_BUILDERS.values(), ids=COUNT_BUILDERS)
def test_every_count_is_checked_once_and_stored_as_an_int(build, m, message):
    if message is None:
        model = build(m)
        assert type(model.m) is int and model.m == m
    else:
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            build(m)
