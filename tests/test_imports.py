"""Package-wide source policies, checked on the source itself.

Every name a package module imports with `from ... import` is used: no
linter runs on the package, so this test is the check that an import
left behind by a deleted call does not stay. And every error is typed:
no module raises a bare ValueError, and the caller errors that replace
it are BeliefPoolErrors that a caller's `except ValueError` still
catches.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from beliefpool import (
    AggregationSpec,
    BayesNet,
    BeliefPoolError,
    ConsensusBn,
    Cpt,
    Dag,
    JointTable,
    MalformedInstance,
    MarkovNet,
    ModelFormatError,
    NotChordal,
    check_property,
    family_pooled_joint,
    linop,
    logop_consensus_bn,
)
from beliefpool.axioms import reproduce_example
from beliefpool.inference import query_conditional
from beliefpool.joint import markov_dependence_gap, pairwise_dependence_gap
from beliefpool.model_io import align_variables, network_to_dict
from beliefpool.networks import direct_by_order, mn_union
from beliefpool.pools import normalize_weights
from beliefpool.sampling import random_conditional_table

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beliefpool"
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
SQUARE = MarkovNet(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
VEE = BayesNet(
    (Cpt(0, (), (0.3,)), Cpt(1, (), (0.7,)), Cpt(2, (0, 1), (0.1, 0.6, 0.4, 0.9)))
)

# One call per retyped raise site group, with the type it must raise.
CALLER_ERRORS = {
    "cpt-own-parent": (ModelFormatError, lambda: Cpt(0, (0,), (0.1, 0.9))),
    "cpt-row-count": (ModelFormatError, lambda: Cpt(0, (1,), (0.1,))),
    "dag-cycle": (ModelFormatError, lambda: Dag(2, ((1,), (0,)))),
    "bayes-labels": (ModelFormatError, lambda: BayesNet(CHAIN.cpts, ("A", "A"))),
    "bayes-owners": (ModelFormatError, lambda: BayesNet(CHAIN.cpts[:1] * 2)),
    "markov-self-loop": (ModelFormatError, lambda: MarkovNet(2, frozenset({(1, 1)}))),
    "joint-entry-count": (ModelFormatError, lambda: JointTable(2, (0.5, 0.5))),
    "save-unlabeled": (ModelFormatError, lambda: network_to_dict(CHAIN)),
    "no-weights-agents": (MalformedInstance, lambda: normalize_weights(None, 0)),
    "unknown-pool-spec": (MalformedInstance, lambda: AggregationSpec("mean")),
    "no-tables": (MalformedInstance, lambda: linop(())),
    "unknown-pool-family": (
        MalformedInstance, lambda: family_pooled_joint("mean", (PAIR,), (0, 1))
    ),
    "unknown-property": (
        MalformedInstance, lambda: check_property(AggregationSpec("linop"), "x", [])
    ),
    "unknown-example": (MalformedInstance, lambda: reproduce_example("ex9")),
    "target-in-evidence": (
        MalformedInstance, lambda: query_conditional(CHAIN, {0: 1}, {0: 1})
    ),
    "no-agents": (MalformedInstance, lambda: logop_consensus_bn([])),
    "no-structures": (MalformedInstance, lambda: mn_union([])),
    "bad-order": (MalformedInstance, lambda: direct_by_order(SQUARE, (0, 0, 1, 2))),
    "no-models": (MalformedInstance, lambda: align_variables([])),
    "same-pair": (MalformedInstance, lambda: pairwise_dependence_gap(PAIR, 1, 1)),
    "bad-partition": (MalformedInstance, lambda: markov_dependence_gap(PAIR, 0, (0,), (1,))),
    "bad-sample-partition": (
        MalformedInstance,
        lambda: random_conditional_table(np.random.default_rng(0), 3, 0, (1,), ()),
    ),
    "not-perfect-order": (NotChordal, lambda: direct_by_order(SQUARE, (0, 1, 2, 3))),
    "not-decomposable": (NotChordal, lambda: ConsensusBn(VEE, (0, 1, 2))),
}


@pytest.mark.parametrize("error, call", CALLER_ERRORS.values(), ids=CALLER_ERRORS)
def test_caller_errors_are_typed_value_errors(error, call):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, BeliefPoolError)
    assert isinstance(exc.value, ValueError)
