"""Seeded random generators for tables, structures, and agent groups.

Everything takes a numpy Generator so callers control reproducibility.
Probability entries stay away from zero in fixed ranges: table masses
are floored at FLOOR, CPT rows and marginals lie in [LOW, HIGH], and
Markov potentials in [POT_LOW, POT_HIGH]. Degenerate inputs are
exercised through hand-built fixtures instead.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MalformedInstance
from .joint import JointTable, factor_product
from .networks import (
    BayesNet,
    Cpt,
    Dag,
    MarkovNet,
    direct_by_order,
    moralize,
    triangulate,
)

FLOOR = 0.01
LOW, HIGH = 0.05, 0.95
POT_LOW, POT_HIGH = 0.2, 5.0


def random_joint(rng: np.random.Generator, m: int) -> JointTable:
    """Positive random table: unit-uniform masses floored, then normalized."""
    return JointTable(m, np.maximum(rng.random(1 << m), FLOOR))


def random_weights(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    w = rng.uniform(0.1, 1.0, n)
    return tuple(w / w.sum())


def random_dag(
    rng: np.random.Generator,
    m: int,
    edge_prob: float = 0.35,
    max_parents: int = 3,
) -> Dag:
    """Random acyclic structure along a random variable permutation."""
    perm = [int(v) for v in rng.permutation(m)]
    parents: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if len(parents[perm[i]]) >= max_parents:
                break
            if rng.random() < edge_prob:
                parents[perm[i]].append(perm[j])
    return Dag(m, tuple(tuple(sorted(ps)) for ps in parents))


def random_bn(
    rng: np.random.Generator,
    m: int,
    *,
    dag: Dag | None = None,
    edge_prob: float = 0.35,
    max_parents: int = 3,
) -> BayesNet:
    """Random network with CPT rows drawn uniformly from [LOW, HIGH]."""
    if dag is None:
        dag = random_dag(rng, m, edge_prob, max_parents)
    cpts = tuple(
        Cpt(v, dag.parents[v], tuple(rng.uniform(LOW, HIGH, 1 << len(dag.parents[v]))))
        for v in range(m)
    )
    return BayesNet(cpts)


def random_decomposable_bn(rng: np.random.Generator, m: int) -> BayesNet:
    """Random network whose moral graph is already chordal.

    Built by moralizing and triangulating a random structure, then
    orienting it back along the elimination order.
    """
    chordal, order = triangulate(moralize(random_dag(rng, m)))
    return random_bn(rng, m, dag=direct_by_order(chordal, order))


def random_common_structure_bns(
    rng: np.random.Generator,
    m: int,
    n_agents: int,
    *,
    edge_prob: float = 0.35,
    max_parents: int = 3,
) -> list[BayesNet]:
    """Agents sharing one random structure, each with its own CPTs."""
    dag = random_dag(rng, m, edge_prob, max_parents)
    return [random_bn(rng, m, dag=dag) for _ in range(n_agents)]


def random_vstructure_pair(rng: np.random.Generator) -> tuple[BayesNet, BayesNet]:
    """Two agents over three variables with 0 -> 2 <- 1.

    Variables 0 and 1 are exactly independent for each agent, but
    conditionally dependent given variable 2.
    """

    def one() -> BayesNet:
        p0, p1 = rng.uniform(LOW, HIGH, 2)
        rows = tuple(rng.uniform(LOW, HIGH, 4))
        return BayesNet(
            (Cpt(0, (), (p0,)), Cpt(1, (), (p1,)), Cpt(2, (0, 1), rows))
        )

    return one(), one()


def random_product_table(rng: np.random.Generator, m: int) -> JointTable:
    """Table where all variables are mutually independent."""
    factors = [((j,), (1.0 - p, p)) for j, p in enumerate(rng.uniform(LOW, HIGH, m))]
    return JointTable(m, factor_product(m, factors))


def random_block_product_table(
    rng: np.random.Generator, m: int, block: Sequence[int]
) -> JointTable:
    """Table factorizing as P(block variables) * P(remaining variables)."""
    block = sorted(set(block))
    rest = [v for v in range(m) if v not in block]
    q_block = np.maximum(rng.random(1 << len(block)), FLOOR)
    q_block /= q_block.sum()
    q_rest = np.maximum(rng.random(1 << len(rest)), FLOOR)
    q_rest /= q_rest.sum()
    return JointTable(m, factor_product(m, [(block, q_block), (rest, q_rest)]))


def random_markov_table(rng: np.random.Generator, mn: MarkovNet) -> JointTable:
    """Positive table Markov with respect to mn.

    Product of random positive node and edge potentials, so every
    separation of the structure holds in the table exactly.
    """
    nodes = [((v,), rng.uniform(POT_LOW, POT_HIGH, 2)) for v in range(mn.m)]
    # An edge's four potentials are psi[u's value, v's value] in C order.
    edges = [((v, u), rng.uniform(POT_LOW, POT_HIGH, 4)) for u, v in sorted(mn.edges)]
    return JointTable(mn.m, factor_product(mn.m, nodes + edges))


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
    w = sorted(set(w))
    x = sorted(set(x))
    rest = w + x
    if sorted({a, *rest}) != list(range(m)):
        raise MalformedInstance("a, w, x must partition all variables")
    context_mass = np.maximum(rng.random(1 << len(rest)), FLOOR)
    context_mass /= context_mass.sum()
    cond_true = rng.uniform(LOW, HIGH, 1 << len(w))
    # P(a | w) is the CPT factor of a with parents w.
    a_given_w = np.concatenate((1.0 - cond_true, cond_true))
    return JointTable(m, factor_product(m, [(rest, context_mass), (w + [a], a_given_w)]))
