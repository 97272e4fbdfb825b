"""Seeded random generators for tables, structures, and agent groups.

Everything takes a numpy Generator so callers control reproducibility.
Probability entries are floored away from zero by default; degenerate
inputs are exercised through hand-built fixtures instead.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MalformedInstance
from .joint import JointTable
from .networks import (
    BayesNet,
    Cpt,
    Dag,
    MarkovNet,
    direct_by_order,
    moralize,
    triangulate,
)


def random_joint(
    rng: np.random.Generator, m: int, floor: float = 0.01
) -> JointTable:
    """Positive random table: unit-uniform masses floored, then normalized."""
    return JointTable(m, np.maximum(rng.random(1 << m), floor))


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
    low: float = 0.05,
    high: float = 0.95,
) -> BayesNet:
    """Random network with CPT rows drawn uniformly from [low, high]."""
    if dag is None:
        dag = random_dag(rng, m, edge_prob, max_parents)
    cpts = tuple(
        Cpt(v, dag.parents[v], tuple(rng.uniform(low, high, 1 << len(dag.parents[v]))))
        for v in range(m)
    )
    return BayesNet(cpts)


def random_decomposable_bn(
    rng: np.random.Generator,
    m: int,
    *,
    edge_prob: float = 0.35,
    max_parents: int = 3,
    low: float = 0.05,
    high: float = 0.95,
) -> BayesNet:
    """Random network whose moral graph is already chordal.

    Built by moralizing and triangulating a random structure, then
    orienting it back along the elimination order.
    """
    base = random_dag(rng, m, edge_prob, max_parents)
    chordal, order = triangulate(moralize(base))
    dag = direct_by_order(chordal, order)
    return random_bn(rng, m, dag=dag, low=low, high=high)


def random_common_structure_bns(
    rng: np.random.Generator,
    m: int,
    n_agents: int,
    *,
    edge_prob: float = 0.35,
    max_parents: int = 3,
    low: float = 0.05,
    high: float = 0.95,
) -> list[BayesNet]:
    """Agents sharing one random structure, each with its own CPTs."""
    dag = random_dag(rng, m, edge_prob, max_parents)
    return [
        random_bn(rng, m, dag=dag, low=low, high=high) for _ in range(n_agents)
    ]


def random_vstructure_pair(
    rng: np.random.Generator, low: float = 0.05, high: float = 0.95
) -> tuple[BayesNet, BayesNet]:
    """Two agents over three variables with 0 -> 2 <- 1.

    Variables 0 and 1 are exactly independent for each agent, but
    conditionally dependent given variable 2.
    """

    def one() -> BayesNet:
        p0, p1 = rng.uniform(low, high, 2)
        rows = tuple(rng.uniform(low, high, 4))
        return BayesNet(
            (Cpt(0, (), (p0,)), Cpt(1, (), (p1,)), Cpt(2, (0, 1), rows))
        )

    return one(), one()


def random_product_table(
    rng: np.random.Generator, m: int, low: float = 0.05, high: float = 0.95
) -> JointTable:
    """Table where all variables are mutually independent."""
    marginals = rng.uniform(low, high, m)
    indices = np.arange(1 << m)
    probs = np.ones(1 << m, dtype=np.float64)
    for j in range(m):
        bit = ((indices >> j) & 1) == 1
        probs *= np.where(bit, marginals[j], 1.0 - marginals[j])
    return JointTable(m, probs)


def random_block_product_table(
    rng: np.random.Generator,
    m: int,
    block: Sequence[int],
    floor: float = 0.01,
) -> JointTable:
    """Table factorizing as P(block variables) * P(remaining variables)."""
    block = sorted(set(block))
    rest = [v for v in range(m) if v not in block]
    q_block = np.maximum(rng.random(1 << len(block)), floor)
    q_block /= q_block.sum()
    q_rest = np.maximum(rng.random(1 << len(rest)), floor)
    q_rest /= q_rest.sum()
    indices = np.arange(1 << m)
    block_ctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(block):
        block_ctx |= ((indices >> v) & 1) << i
    rest_ctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(rest):
        rest_ctx |= ((indices >> v) & 1) << i
    return JointTable(m, q_block[block_ctx] * q_rest[rest_ctx])


def random_markov_table(
    rng: np.random.Generator,
    mn: MarkovNet,
    pot_low: float = 0.2,
    pot_high: float = 5.0,
) -> JointTable:
    """Positive table Markov with respect to mn.

    Product of random positive node and edge potentials, so every
    separation of the structure holds in the table exactly.
    """
    size = 1 << mn.m
    indices = np.arange(size)
    probs = np.ones(size, dtype=np.float64)
    for v in range(mn.m):
        phi = rng.uniform(pot_low, pot_high, 2)
        probs *= phi[(indices >> v) & 1]
    for u, v in sorted(mn.edges):
        psi = rng.uniform(pot_low, pot_high, (2, 2))
        probs *= psi[(indices >> u) & 1, (indices >> v) & 1]
    return JointTable(mn.m, probs)


def random_conditional_table(
    rng: np.random.Generator,
    m: int,
    a: int,
    w: Sequence[int],
    x: Sequence[int],
    *,
    floor: float = 0.01,
    low: float = 0.05,
    high: float = 0.95,
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
    context_mass = np.maximum(rng.random(1 << len(rest)), floor)
    context_mass /= context_mass.sum()
    cond_true = rng.uniform(low, high, 1 << len(w))
    indices = np.arange(1 << m)
    ctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(rest):
        ctx |= ((indices >> v) & 1) << i
    wctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(w):
        wctx |= ((indices >> v) & 1) << i
    a_true = ((indices >> a) & 1) == 1
    probs = context_mass[ctx] * np.where(
        a_true, cond_true[wctx], 1.0 - cond_true[wctx]
    )
    return JointTable(m, probs)
