"""Random models that only the tests draw, built on the public
constructors and the package's samplers, and a min-fill planner that
counts its steps.

Markov potentials lie in [POT_LOW, POT_HIGH].
"""

import numpy as np

from beliefpool import BayesNet, Cpt, Dag, JointTable, MarkovNet
from beliefpool.joint import _factor_product
from beliefpool.networks import _min_fill_order, direct_by_order, moralize, triangulate
from beliefpool.sampling import random_bn, random_dag

POT_LOW, POT_HIGH = 0.2, 5.0


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


def wide_agents(labels=None) -> list[BayesNet]:
    """Three unrelated agents over 64 variables whose consensus structure
    holds 1,450,461,135 CPT rows and a family of 29 parents (variable 34):
    far over the consensus fill's capacity."""
    rng = np.random.default_rng(0)
    return [
        BayesNet(random_bn(rng, 64, max_parents=2, edge_prob=0.15).cpts, labels)
        for _ in range(3)
    ]


def chain_bn(rng: np.random.Generator, m: int) -> BayesNet:
    """A random network over the chain 0 -> 1 -> ... -> m-1."""
    return random_bn(rng, m, dag=Dag(m, ((),) + tuple((v - 1,) for v in range(1, m))))


def random_tree_bn(rng: np.random.Generator, m: int) -> BayesNet:
    """A random network over a random tree: each node v > 0 has one
    parent, drawn uniformly from 0..v-1. Two such agents on unrelated
    trees have a consensus far over capacity already at m=250."""
    tree = Dag(m, ((),) + tuple((int(rng.integers(0, v)),) for v in range(1, m)))
    return random_bn(rng, m, dag=tree)


def grid_bn(side: int) -> BayesNet:
    """A side x side grid whose node (i, j), index i * side + j, has the
    nodes above and to the left as parents: at most four CPT rows each,
    but min-fill's widest bucket for the far corner grows with the side
    (22 variables at side 15, 42 at side 26)."""
    cpts = []
    for i in range(side):
        for j in range(side):
            parents = ((i - 1) * side + j,) * (i > 0) + (i * side + j - 1,) * (j > 0)
            cpts.append(Cpt(i * side + j, parents, (0.3, 0.6, 0.2, 0.7)[: 1 << len(parents)]))
    return BayesNet(tuple(cpts))


def random_markov_table(rng: np.random.Generator, mn: MarkovNet) -> JointTable:
    """Positive table Markov with respect to mn.

    Product of random positive node and edge potentials, so every
    separation of the structure holds in the table exactly.
    """
    nodes = [((v,), rng.uniform(POT_LOW, POT_HIGH, 2)) for v in range(mn.m)]
    # An edge's four potentials are psi[u's value, v's value] in C order.
    edges = [((v, u), rng.uniform(POT_LOW, POT_HIGH, 4)) for u, v in sorted(mn.edges)]
    return JointTable(mn.m, _factor_product(mn.m, nodes + edges))


def counted_planner(steps):
    """_min_fill_order, appending every step it yields to steps."""
    def planner(adjacency):
        for step in _min_fill_order(adjacency):
            steps.append(step)
            yield step
    return planner
