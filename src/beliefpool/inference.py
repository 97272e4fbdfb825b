"""Exact inference on Bayesian networks by variable elimination.

Queries never materialize the full joint table, so they stay usable on
networks too large for dense enumeration as long as the induced factor
widths stay small. Elimination computes one number, P(assignment): it
restricts the CPTs of the assignment's ancestral set (every other CPT
is barren and sums to one, so a zero-probability event stays exactly
zero) and sums out every variable left, one joint.contract call per
bucket. A conditional takes one of two routes:

- A single-target conditional on a strictly positive network (every
  CPT row inside (0, 1)) first tries the closed form: only the node's
  own CPT and its children's matter, the evidence picks one row of each
  per state of the node, and the answer is the normalized product of
  those rows. No factor is built: BayesNet.blanket_layout holds, per
  node and once per network, each of those CPTs' rows and the row bit
  of every parent, so the query only reads evidence values. The
  evidence it reads is exactly the node's Markov blanket, so it gates
  itself: a missing blanket variable sends the query to elimination.
  Each consensus CPT row asks this query of every agent.
- Every other conditional is P(target and evidence) / P(evidence) by
  joint._conditional_ratio, the rule conditional_probability and
  linop_query follow too. ZeroEvidence is raised unless P(evidence),
  computed first, is positive. Near a sure event the ratio can exceed 1
  by one rounding unit, more when P(evidence) is subnormal; it is not
  clamped.

Each public query checks each mapping it takes once, with joint's
check; the kernels (_probability, _blanket_conditional) and
consensus.linop_query's pool of _probability read it unchecked.
"""
from __future__ import annotations

import itertools
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DegenerateProduct, ZeroEvidence
from .joint import (
    Assignment, _check_assignment, _check_query, _conditional_ratio, _trusted, contract,
)
from .networks import BayesNet, Cpt, Dag, min_fill_order


_ALL = slice(None)  # the index that keeps an unassigned variable's axis


def _expand(
    variables: tuple[int, ...], table: np.ndarray, out: tuple[int, ...]
) -> np.ndarray:
    # Both variable tuples are sorted, so inserting singleton axes for
    # the missing variables aligns the tables for broadcasting.
    return table.reshape(tuple(2 if v in variables else 1 for v in out))


def _ancestral_set(bn: BayesNet, variables: set[int]) -> list[int]:
    """The variables together with all of their ancestors."""
    seen = set(variables)
    stack = list(variables)
    while stack:
        for parent in bn.cpts[stack.pop()].parents:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return sorted(seen)


def _probability(bn: BayesNet, assignment: Assignment) -> float:
    """P(assignment), assignment as _check_assignment returns it: the
    ancestral CPTs restricted by it, every variable left summed out
    along min_fill_order, one contract call per bucket."""
    factors = []  # (variables, table) pairs, axis i = variables[i]
    for v in _ancestral_set(bn, set(assignment)):
        cpt = bn.cpts[v]
        family = cpt.family
        restrict = tuple([int(assignment[u]) if u in assignment else _ALL for u in family])
        free = tuple([u for u in family if u not in assignment])
        factors.append((free, cpt.table[restrict]))
    adj: dict[int, set[int]] = {v: set() for variables, _ in factors for v in variables}
    for variables, _ in factors:
        for u, w in itertools.combinations(variables, 2):
            adj[u].add(w)
            adj[w].add(u)
    for v in min_fill_order(adj)[0]:
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        rest = tuple(sorted({u for variables, _ in bucket for u in variables} - {v}))
        factors.append((rest, contract(bucket, rest)))
    return float(contract(factors, ()))


def weighted_product_cpts(
    bns: Sequence[BayesNet],
    weights: Sequence[float],
    structure: Dag,
    elimination_order: Sequence[int],
) -> list[Cpt]:
    """CPTs over structure for the geometric pool of the agents.

    That pool is the normalized product of every agent's CPT factors,
    each raised to the agent's weight. Every weight is positive: the
    caller drops zero-weight agents, which the pool ignores. Each node's
    parents must be its neighbors eliminated later, as
    consensus_bn_structure returns them, so one elimination pass finds
    every bucket inside a family. Rows of zero mass get 0.5; zero mass
    on every state raises DegenerateProduct.
    """
    # Log space keeps 1e-300 rows from underflowing.
    with np.errstate(divide="ignore"):
        factors = [
            (cpt.family, w * np.log(cpt.table))
            for bn, w in zip(bns, weights)
            for cpt in bn.cpts
        ]
    cpts: dict[int, Cpt] = {}
    for v in elimination_order:
        parents = structure.parents[v]
        family = tuple(sorted((v,) + parents))
        table = np.zeros((2,) * len(family))
        for variables, log_table in factors:
            if v in variables:
                table = table + _expand(variables, log_table, family)
        factors = [f for f in factors if v not in f[0]]
        axis = family.index(v)
        rest = family[:axis] + family[axis + 1 :]
        log_mass = np.logaddexp.reduce(table, axis=axis)
        reachable = log_mass > -np.inf
        if not np.any(reachable):
            raise DegenerateProduct("geometric pool has zero mass")
        shift = np.where(reachable, log_mass, 0.0)  # no -inf minus -inf
        p_true = np.full_like(log_mass, 0.5)
        np.exp(np.take(table, 1, axis=axis) - shift, out=p_true, where=reachable)
        # Row index bit i is parents[i], so parents[0] varies fastest.
        rows = p_true.transpose([rest.index(p) for p in parents])
        # Each row is a share of its log-mass, exp(<= 0), or 0.5: in [0, 1].
        cpts[v] = _trusted(
            Cpt, owner=v, parents=parents, rows=tuple(rows.ravel(order="F").tolist())
        )
        factors.append((rest, log_mass))
    return [cpts[v] for v in range(structure.m)]


def _blanket_conditional(
    bn: BayesNet, v: int, x: int, evidence: Assignment
) -> float:
    """P(v = x | evidence) on a strictly positive network, given evidence
    on v's whole Markov blanket (KeyError for a blanket variable it lacks).

    Given the blanket, the answer is proportional to the product of v's
    own CPT and its children's, and the evidence leaves each of them one
    entry per state of v. The products a0 and a1 multiply those entries
    in increasing node order (1.0 times the first is exact), so they are
    bit for bit the two entries of joint.contract over those CPTs,
    restricted by the evidence and keeping v.
    """
    a0 = a1 = 1.0
    for rows, owner, bit, others in bn.blanket_layout[v]:
        # row has v false and every other parent read from evidence;
        # row | bit has v true.
        row = 0
        for p, b in others:
            if evidence[p]:
                row |= b
        if owner == v:
            p1 = rows[row]
            a0 *= 1.0 - p1
            a1 *= p1
        elif evidence[owner]:
            a0 *= rows[row]
            a1 *= rows[row | bit]
        else:
            a0 *= 1.0 - rows[row]
            a1 *= 1.0 - rows[row | bit]
    total = a0 + a1
    if total <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    return (a1 if x else a0) / total


def query_event_marginal(bn: BayesNet, event: Assignment) -> float:
    """Probability that every variable in event takes its given value."""
    return _probability(bn, _check_assignment(bn.m, event))


def query_conditional(
    bn: BayesNet, target: Assignment, evidence: Assignment | None = None
) -> float:
    """P(target | evidence), in closed form or by variable elimination.

    Target and evidence (None for none) are each checked once by joint's
    check, as for the dense queries, and must assign disjoint variables.
    An empty target is the sure event. Raises ZeroEvidence when the evidence itself has
    probability zero, or underflows to zero.
    """
    wanted, given = _check_query(bn.m, target, evidence)
    if len(wanted) == 1 and bn.strictly_positive:
        ((v, x),) = wanted.items()
        try:
            return _blanket_conditional(bn, v, x, given)
        except KeyError:  # evidence misses part of v's blanket
            pass
    return _conditional_ratio(partial(_probability, bn), wanted, given)
