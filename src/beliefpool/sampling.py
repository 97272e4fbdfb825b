"""Seeded random generators for tables, structures, and agent groups.

Everything takes a numpy Generator so callers control reproducibility.
Probability entries stay away from zero in fixed ranges: table masses
are floored at FLOOR, and CPT rows and marginals lie in [LOW, HIGH].
Degenerate inputs are exercised through hand-built fixtures instead.
Every model is valid by construction: a sampler checks its arguments
before any draw, raising what a constructor raises for the same fault
(the rng first, _check_rng), then builds through the trusted path with
the fields it would store. Each structured table (independent
variables, two independent blocks, a variable independent of others
given a set) is one joint._factor_product of its factors. Generators
that only the tests use live in tests/samplers.py.
"""
from __future__ import annotations

from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import MalformedInstance, MismatchedVariables
from .joint import (
    JointTable,
    _check_kind,
    _check_partition,
    _check_variable_count,
    _check_variables,
    _factor_product,
    _trusted,
    _trusted_table,
)
from .networks import BayesNet, Cpt, Dag, _cpt_factor
from .pools import _check_agent_count

FLOOR = 0.01
LOW, HIGH = 0.05, 0.95
_VSTRUCTURE = Dag(3, ((), (), (0, 1)))


def _check_rng(rng) -> None:
    """The one rng check: MalformedInstance unless rng is a numpy Generator."""
    if not isinstance(rng, np.random.Generator):
        raise MalformedInstance(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")


def random_joint(rng: np.random.Generator, m: int) -> JointTable:
    """Positive random table: unit-uniform masses floored, then normalized."""
    _check_rng(rng)
    m = _check_variable_count(m)
    return _trusted_table(m, np.maximum(rng.random(1 << m), FLOOR))


def random_weights(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """n weights drawn from [0.1, 1.0] and normalized, as Python floats."""
    _check_rng(rng)
    w = rng.uniform(0.1, 1.0, _check_agent_count(n))
    return tuple((w / w.sum()).tolist())


def random_dag(
    rng: np.random.Generator,
    m: int,
    edge_prob: float = 0.35,
    max_parents: int = 3,
) -> Dag:
    """Random acyclic structure along a random variable permutation:
    edge_prob is a real number in [0, 1] and max_parents an integer >= 0,
    neither a bool (MalformedInstance otherwise)."""
    _check_rng(rng)
    m = _check_variable_count(m, capacity=None)
    if isinstance(edge_prob, bool) or not (isinstance(edge_prob, Real) and 0 <= edge_prob <= 1):
        raise MalformedInstance(f"edge_prob must be a number in [0, 1], got {edge_prob!r}")
    if isinstance(max_parents, bool) or not (
        isinstance(max_parents, Integral) and max_parents >= 0
    ):
        raise MalformedInstance(f"max_parents must be an integer >= 0, got {max_parents!r}")
    perm = [int(v) for v in rng.permutation(m)]
    parents: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if len(parents[perm[i]]) >= max_parents:
                break
            if rng.random() < edge_prob:
                parents[perm[i]].append(perm[j])
    return _trusted(Dag, m=m, parents=tuple(tuple(sorted(ps)) for ps in parents))


def random_bn(
    rng: np.random.Generator,
    m: int,
    *,
    dag: Dag | None = None,
    edge_prob: float = 0.35,
    max_parents: int = 3,
) -> BayesNet:
    """Random network with CPT rows drawn uniformly from [LOW, HIGH]; dag
    is a Dag or None, for a random_dag draw."""
    _check_rng(rng)
    if dag is None:
        dag = random_dag(rng, m, edge_prob, max_parents)
    else:
        _check_kind(dag, Dag)
        if dag.m != _check_variable_count(m, capacity=None):
            raise MismatchedVariables(f"dag has {dag.m} variables, the network {m}")
    cpts = []
    for v, ps in enumerate(dag.parents):
        rows = tuple(rng.uniform(LOW, HIGH, 1 << len(ps)).tolist())
        cpts.append(_trusted(Cpt, owner=v, parents=ps, rows=rows))
    dag = _trusted(Dag, m=len(cpts), parents=dag.parents)
    return _trusted(BayesNet, cpts=tuple(cpts), labels=None, _dag=dag)


def random_vstructure_pair(rng: np.random.Generator) -> tuple[BayesNet, BayesNet]:
    """Two agents over three variables with 0 -> 2 <- 1.

    Variables 0 and 1 are exactly independent for each agent, but
    conditionally dependent given variable 2.
    """
    return random_bn(rng, 3, dag=_VSTRUCTURE), random_bn(rng, 3, dag=_VSTRUCTURE)


def random_product_table(rng: np.random.Generator, m: int) -> JointTable:
    """Table where all variables are mutually independent."""
    _check_rng(rng)
    m = _check_variable_count(m)
    factors = [((j,), (1.0 - p, p)) for j, p in enumerate(rng.uniform(LOW, HIGH, m))]
    return _trusted_table(m, _factor_product(m, factors))


def random_block_product_table(
    rng: np.random.Generator, m: int, block: Sequence[int]
) -> JointTable:
    """Table factorizing as P(block variables) * P(remaining variables)."""
    _check_rng(rng)
    m = _check_variable_count(m)
    block = sorted(set(_check_variables(m, block)))
    rest = [v for v in range(m) if v not in block]
    q_block = np.maximum(rng.random(1 << len(block)), FLOOR)
    q_block /= q_block.sum()
    q_rest = np.maximum(rng.random(1 << len(rest)), FLOOR)
    q_rest /= q_rest.sum()
    return _trusted_table(m, _factor_product(m, [(block, q_block), (rest, q_rest)]))


def random_conditional_table(
    rng: np.random.Generator,
    m: int,
    a: int,
    w: Sequence[int],
    x: Sequence[int],
) -> JointTable:
    """Table where a is independent of x given w, by construction.

    The context distribution over w and x is arbitrary; the conditional
    of a reads only the w part.
    """
    _check_rng(rng)
    m = _check_variable_count(m)
    a, w, x = _check_partition(m, a, w, x)
    rest = w + x
    context_mass = np.maximum(rng.random(1 << len(rest)), FLOOR)
    context_mass /= context_mass.sum()
    cond_true = rng.uniform(LOW, HIGH, 1 << len(w))
    # P(a | w) is the CPT factor of a with parents w: raveled in C order,
    # its index bit i is variable i of w + (a,).
    a_given_w = _cpt_factor(cond_true, a, w)[1].ravel()
    return _trusted_table(m, _factor_product(m, [(rest, context_mass), (w + (a,), a_given_w)]))
