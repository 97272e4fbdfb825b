"""Consensus structures and consensus networks for groups of agents.

Structure side: moralize every agent network, union the undirected
structures, triangulate, and orient along the elimination order. The
result is a decomposable directed structure that can represent any
geometric-mean consensus of the agents.

Numeric side: fill in that structure's CPTs so the implied joint equals
the normalized weighted geometric mean of the agent joints, using only
per-agent inference queries, never a dense 2**m table. Nodes are
processed in elimination order (reverse topological order). For each
node and each parent instantiation, the node's neighbors are fixed
(parents by the instantiation, children all true, or all false if that
fails) and every agent is asked for its conditional on that context.
The row is the logistic of the agents' pooled log-odds plus each
already-parameterized child's log-ratio, log P(child | node false) -
log P(child | node true), which removes the conditioning on the
children.

The dense_oracle route needs no queries: the pool is the normalized
product of every agent CPT raised to the agent's weight, and one
elimination pass over it along the elimination order yields the CPTs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateCpt,
    MalformedInstance,
    MismatchedVariables,
    NotChordal,
    ZeroEvidence,
)
from .inference import (
    query_conditional,
    query_event_marginal,
    weighted_product_cpts,
)
from .networks import (
    BayesNet,
    Cpt,
    Dag,
    EliminationOrder,
    MarkovNet,
    direct_by_order,
    is_decomposable,
    mn_union,
    moralize,
    triangulate,
)
from .pools import logistic, normalize_weights, pooled_log_odds


@dataclass(frozen=True)
class ConsensusBn:
    """A consensus network plus how it was built.

    agent_queries counts the per-agent inference calls issued while
    filling in CPTs; the dense_oracle route issues none. Raises
    NotChordal unless bn is decomposable.
    """

    bn: BayesNet
    elimination_order: EliminationOrder
    agent_queries: int = 0

    def __post_init__(self) -> None:
        if not is_decomposable(self.bn):
            raise NotChordal("consensus network must be decomposable")


def consensus_mn_structure(
    models: Sequence[BayesNet | Dag | MarkovNet],
) -> MarkovNet:
    """Union of the agents' undirected structures.

    Directed inputs are moralized first; undirected inputs join as-is.
    """
    nets = [
        model if isinstance(model, MarkovNet) else moralize(model)
        for model in models
    ]
    return mn_union(nets)


def consensus_bn_structure(
    models: Sequence[BayesNet | Dag | MarkovNet],
) -> tuple[Dag, EliminationOrder]:
    """Decomposable directed structure covering every agent's structure.

    Moralize, union, triangulate, then orient each edge from the
    later-eliminated endpoint to the earlier-eliminated one. Also
    returns the elimination order, which is the reverse of a
    topological order of the result.
    """
    chordal, order = triangulate(consensus_mn_structure(models))
    return direct_by_order(chordal, order), order


def _check_agents(bns: Sequence[BayesNet]) -> int:
    if not bns:
        raise MalformedInstance("need at least one agent network")
    m = bns[0].m
    for bn in bns:
        if bn.m != m:
            raise MismatchedVariables(
                f"agents disagree on variable count: {bn.m} != {m}"
            )
    return m


def _structured_cpts(
    bns: Sequence[BayesNet],
    w: np.ndarray,
    structure: Dag,
    elimination_order: EliminationOrder,
) -> tuple[list[Cpt], int]:
    children = structure.children()
    done: dict[int, Cpt] = {}
    queries = 0

    def blanket_row(
        node: int, parent_asg: dict[int, bool], outcome: bool
    ) -> tuple[list[float], float]:
        """Each agent's conditional for the row, and the children's
        log-ratio to add to the pooled log-odds."""
        nonlocal queries
        context = dict(parent_asg)
        context.update({c: outcome for c in children[node]})
        conds = []
        for bn in bns:
            queries += 1
            try:
                c = query_conditional(bn, {node: True}, context)
            except ZeroEvidence as err:
                raise DegenerateCpt(
                    f"an agent gives zero mass to a neighborhood "
                    f"instantiation of node {node}"
                ) from err
            if not 0.0 < c < 1.0:
                raise DegenerateCpt(
                    f"an agent's conditional for node {node} hit {c} "
                    f"on a neighborhood instantiation"
                )
            conds.append(c)
        log_ratio = 0.0
        for child in children[node]:
            p_num, p_den = done[child].row_pair(node, context)
            if not outcome:
                p_num, p_den = 1.0 - p_num, 1.0 - p_den
            if p_num <= 0.0 or p_den <= 0.0:
                raise DegenerateCpt(
                    "child CPT row of 0 or 1 makes a likelihood ratio undefined"
                )
            log_ratio += math.log(p_num) - math.log(p_den)
        return conds, log_ratio

    # Elimination order is a reverse topological order, so every child
    # of a node is parameterized before the node itself.
    for node in elimination_order:
        parents = structure.parents[node]
        conds, log_ratios = [], []
        for r in range(1 << len(parents)):
            parent_asg = {
                p: bool((r >> i) & 1) for i, p in enumerate(parents)
            }
            row = None
            failure: DegenerateCpt | None = None
            for outcome in (True, False) if children[node] else (True,):
                try:
                    row = blanket_row(node, parent_asg, outcome)
                    break
                except DegenerateCpt as err:
                    failure = err
            if row is None:
                raise DegenerateCpt(
                    f"node {node}, parent row {r}: {failure}; rerun with "
                    f"dense_oracle=True to use the factor-product fill"
                ) from failure
            conds.append(row[0])
            log_ratios.append(row[1])
        # One pool per node: agent on axis 0, parent row on axis 1.
        c = np.array(conds).T
        _, rows = logistic(pooled_log_odds(1.0 - c, c, w) + log_ratios)
        done[node] = Cpt(node, parents, tuple(rows.tolist()))
    return [done[v] for v in range(structure.m)], queries


def logop_consensus_bn(
    bns: Sequence[BayesNet],
    weights: Sequence[float] | None = None,
    *,
    dense_oracle: bool = False,
) -> ConsensusBn:
    """Consensus network whose joint is the geometric pool of the agents.

    The default path parameterizes the consensus structure from
    per-agent inference queries alone: each CPT row is the logistic of
    the agents' pooled log-odds plus the child log-ratios. When an agent
    CPT row of 0 or 1, or a conditional that rounds to 0 or 1 or
    underflows, makes that ill-defined it raises DegenerateCpt. dense_oracle=True instead fills
    the CPTs by one elimination pass over the agents' weighted CPT
    product, which handles such agents at any size and raises
    DegenerateProduct when the pool has zero mass.
    """
    _check_agents(bns)
    w = normalize_weights(weights, len(bns))
    structure, order = consensus_bn_structure([bn.dag() for bn in bns])
    if dense_oracle:
        cpts = weighted_product_cpts(bns, w, structure, order)
        queries = 0
    else:
        cpts, queries = _structured_cpts(bns, w, structure, order)
    consensus = BayesNet(tuple(cpts), bns[0].labels)
    return ConsensusBn(consensus, order, queries)


def linop_query(
    bns: Sequence[BayesNet],
    event: dict[int, bool],
    evidence: dict[int, bool] | None = None,
    weights: Sequence[float] | None = None,
) -> float:
    """Consensus conditional probability under linear pooling.

    The arithmetic pool commutes with marginalization, so the pooled
    conditional is the ratio of weighted sums of per-agent event
    probabilities; no pooled model is ever constructed.
    """
    _check_agents(bns)
    w = normalize_weights(weights, len(bns))
    evidence = dict(evidence or {})
    merged = dict(evidence)
    contradiction = False
    for var, value in event.items():
        if var in merged and bool(merged[var]) != bool(value):
            contradiction = True
        merged[var] = value
    denominator = float(
        sum(
            wi * query_event_marginal(bn, evidence)
            for wi, bn in zip(w, bns)
        )
    )
    if denominator <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    if contradiction:
        return 0.0
    numerator = float(
        sum(wi * query_event_marginal(bn, merged) for wi, bn in zip(w, bns))
    )
    return numerator / denominator
