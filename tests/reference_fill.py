"""A plain restatement of the query route's three-pass CPT fill, kept as
a bit-for-bit reference for consensus._structured_cpts.

Every step is spelled out the slow way: contexts are plain dicts,
each row re-derives each child's row with a loop over the child's
parents, and each read of a child's row takes its log-sigmoid afresh.
The arithmetic is the builder's, in the builder's order, so the CPT
rows must come out equal to the last bit.
"""

import itertools
import math

import numpy as np

from beliefpool import DegenerateCpt, ZeroEvidence
from beliefpool.consensus import consensus_bn_structure
from beliefpool.inference import query_conditional
from beliefpool.pools import _logistic, _pooled_log_odds


def _log_sigmoid(x):
    """log P(event) for log-odds x."""
    return min(x, 0.0) - math.log1p(math.exp(-abs(x)))


def reference_fill(agents, w):
    """(CPT rows by node, agent query count) of the query route over
    pooled agents with normalized positive weights w."""
    structure, order = consensus_bn_structure([bn.dag() for bn in agents])
    parents, children = structure.parents, structure.children
    queries = 0

    # Pass 1: one conditional per agent per row attempt, children all
    # true first, then all false.
    start, conds, outcomes = {}, [], []
    for node in order:
        start[node] = len(conds)
        kids = children[node]
        for row in range(1 << len(parents[node])):
            for outcome in (True, False) if kids else (True,):
                context = {p: bool(row >> i & 1) for i, p in enumerate(parents[node])}
                context.update({kid: outcome for kid in kids})
                row_conds = []
                for bn in agents:
                    queries += 1
                    try:
                        c = query_conditional(bn, {node: True}, context)
                    except ZeroEvidence:
                        break
                    if not 0.0 < c < 1.0:
                        break
                    row_conds.append(c)
                else:
                    conds.append(row_conds)
                    outcomes.append(outcome)
                    break
            else:
                raise DegenerateCpt(f"node {node}, row {row}")

    # Pass 2: every row of the build in one pool.
    c = np.array(conds).T
    log_odds = _pooled_log_odds(1.0 - c, c, w).tolist()

    # Pass 3: children before parents; each child's row found bit by bit.
    for node in order:
        first = start[node]
        for r in range(1 << len(parents[node])):
            outcome = outcomes[first + r]
            value = {p: bool(r >> i & 1) for i, p in enumerate(parents[node])}
            value.update({kid: outcome for kid in children[node]})
            sign = 1.0 if outcome else -1.0
            log_ratio = 0.0
            for child in children[node]:
                row, bit = 0, 0
                for i, p in enumerate(parents[child]):
                    if p == node:
                        bit = 1 << i
                    elif value[p]:
                        row |= 1 << i
                x0 = sign * log_odds[start[child] + row]
                x1 = sign * log_odds[start[child] + (row | bit)]
                log_ratio += _log_sigmoid(x0) - _log_sigmoid(x1)
            log_odds[first + r] += log_ratio
    _, p_true = _logistic(np.array(log_odds))
    rows = p_true.tolist()
    return [
        tuple(rows[start[v]:start[v] + (1 << len(parents[v]))])
        for v in range(structure.m)
    ], queries
