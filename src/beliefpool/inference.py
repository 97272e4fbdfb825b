"""Exact inference on Bayesian networks by variable elimination.

Queries never materialize the full joint table, so they stay usable on
networks too large for dense enumeration as long as the induced factor
widths stay small. A query takes one of two routes:

- A single-target conditional on a strictly positive network (every
  CPT row inside (0, 1)), given the target's whole Markov blanket, is
  closed-form: only the node's own CPT and its children's matter, the
  evidence picks one row of each per state of the node, and the answer
  is the normalized product of those rows. No factor is built. Each
  consensus CPT row asks this query of every agent.
- Every other query, marginal or conditional, is pruned to the
  ancestral set of its target and evidence: the CPTs of every other
  node are barren and sum to one. The CPTs left give the whole
  P(event), and a zero-probability conditioning event stays exactly
  zero on any network.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateProduct,
    MalformedInstance,
    UnknownVariable,
    ZeroEvidence,
)
from .joint import Assignment
from .networks import BayesNet, Cpt, Dag, min_fill_order


@dataclass(eq=False)
class _Factor:
    """Table over a strictly increasing variable tuple; axis i = vars[i]."""

    vars: tuple[int, ...]
    table: np.ndarray


_ALL = slice(None)  # the index that keeps an unobserved variable's axis


def _expand(factor: _Factor, out_vars: tuple[int, ...]) -> np.ndarray:
    # Both variable tuples are sorted, so inserting singleton axes for
    # the missing variables aligns the tables for broadcasting.
    shape = tuple(2 if v in factor.vars else 1 for v in out_vars)
    return factor.table.reshape(shape)


def _product(factors: Sequence[_Factor]) -> _Factor:
    """Product of the factors, multiplied in the order given."""
    if not factors:
        return _Factor((), np.array(1.0))
    scope = factors[0].vars
    if all(f.vars == scope for f in factors):
        tables = [f.table for f in factors]
    else:
        scope = tuple(sorted({v for f in factors for v in f.vars}))
        tables = [_expand(f, scope) for f in factors]
    table = tables[0]
    for t in tables[1:]:
        table = np.multiply(table, t)
    return _Factor(scope, table)


def _sum_out(factor: _Factor, var: int) -> _Factor:
    axis = factor.vars.index(var)
    remaining = factor.vars[:axis] + factor.vars[axis + 1 :]
    return _Factor(remaining, factor.table.sum(axis=axis))


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


def _run(
    bn: BayesNet, evidence: dict[int, int], keep: set[int], nodes: Iterable[int]
) -> _Factor:
    """Eliminate everything outside keep after restricting by evidence.

    evidence maps each observed variable to its state, 0 or 1. Only the
    CPTs of nodes enter. Queries pass the ancestral set of keep and the
    evidence, whose product summed over the rest is the joint
    probability of each keep-assignment with the evidence. When every
    restricted factor lies inside keep, nothing is eliminated and no
    elimination order is computed.
    """
    factors = []
    for v in nodes:
        cpt = bn.cpts[v]
        family = cpt.family
        restrict = tuple([evidence.get(u, _ALL) for u in family])
        free = tuple([u for u in family if u not in evidence])
        factors.append(_Factor(free, cpt.table[restrict]))
    scope = {v for f in factors for v in f.vars}
    if not scope <= keep:
        adj: dict[int, set[int]] = {v: set() for v in scope}
        for f in factors:
            for u, w in itertools.combinations(f.vars, 2):
                adj[u].add(w)
                adj[w].add(u)
        order, _ = min_fill_order(adj, keep)
        for v in order:
            bucket = [f for f in factors if v in f.vars]
            factors = [f for f in factors if v not in f.vars]
            factors.append(_sum_out(_product(bucket), v))
    return _product(factors)


def weighted_product_cpts(
    bns: Sequence[BayesNet],
    weights: Sequence[float],
    structure: Dag,
    elimination_order: Sequence[int],
) -> list[Cpt]:
    """CPTs over structure for the geometric pool of the agents.

    That pool is the normalized product of every agent's CPT factors,
    each raised to the agent's weight. Each node's parents must be its
    neighbors eliminated later, as consensus_bn_structure returns them,
    so one elimination pass finds every bucket inside a family. Rows of
    zero mass get 0.5; zero mass on every state raises DegenerateProduct.
    """
    # Log space keeps 1e-300 rows from underflowing; w = 0 drops out (0**0=1).
    with np.errstate(divide="ignore"):
        factors = [
            _Factor(cpt.family, w * np.log(cpt.table))
            for bn, w in zip(bns, weights)
            if w > 0.0
            for cpt in bn.cpts
        ]
    cpts: dict[int, Cpt] = {}
    for v in elimination_order:
        parents = structure.parents[v]
        family = tuple(sorted((v,) + parents))
        table = np.zeros((2,) * len(family))
        for f in factors:
            if v in f.vars:
                table = table + _expand(f, family)
        factors = [f for f in factors if v not in f.vars]
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
        cpts[v] = Cpt(v, parents, tuple(rows.ravel(order="F")))
        factors.append(_Factor(rest, log_mass))
    return [cpts[v] for v in range(structure.m)]


def _check_assignment(bn: BayesNet, assignment: Assignment) -> dict[int, int]:
    """The assignment as {variable: 0 or 1}, after checking its variables.

    Raises UnknownVariable for a key that is not an integer (a Python
    int or a numpy integer) or lies outside range(0, bn.m).
    """
    try:
        states = {index(v): 1 if x else 0 for v, x in assignment.items()}
    except TypeError:
        keys = ", ".join(repr(v) for v in assignment)
        raise UnknownVariable(f"variables must be integers, got {keys}") from None
    m = bn.m
    if states and not (0 <= min(states) and max(states) < m):
        v = min(states) if min(states) < 0 else max(states)
        raise UnknownVariable(f"variable {v} outside range(0, {m})")
    return states


def _blanket_conditional(
    bn: BayesNet, v: int, x: int, evidence: dict[int, int]
) -> float:
    """P(v = x | evidence) on a strictly positive network, given evidence
    on v's whole Markov blanket.

    Given the blanket, the answer is proportional to the product of v's
    own CPT and its children's, and the evidence leaves each of them one
    entry per state of v. The products a0 and a1 multiply those entries
    in increasing node order, as _run multiplies the factors (1.0 times
    the first is exact), so the answer is the same float _run returns
    over the CPTs of v and its children, normalized.
    """
    cpts = bn.cpts
    a0 = a1 = 1.0
    for u in sorted((v, *bn.children[v])):
        p0, p1 = cpts[u].row_pair(v, evidence)
        if u == v:  # p0 == p1 = P(v = 1 | v's parents)
            f0, f1 = 1.0 - p1, p1
        elif evidence[u]:
            f0, f1 = p0, p1
        else:
            f0, f1 = 1.0 - p0, 1.0 - p1
        a0 *= f0
        a1 *= f1
    total = a0 + a1
    if total <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    return (a1 if x else a0) / total


def query_event_marginal(bn: BayesNet, event: Assignment) -> float:
    """Probability that every variable in event takes its given value."""
    states = _check_assignment(bn, event)
    nodes = _ancestral_set(bn, set(states))
    return float(_run(bn, states, set(), nodes).table)


def query_conditional(
    bn: BayesNet, target: Assignment, evidence: Assignment | None = None
) -> float:
    """P(target | evidence) by variable elimination.

    Target and evidence must assign disjoint variables. An empty target
    is the sure event. Raises ZeroEvidence when the evidence itself has
    probability zero, or underflows to zero.
    """
    wanted = _check_assignment(bn, target)
    given = _check_assignment(bn, evidence or {})
    if not given.keys().isdisjoint(wanted):
        raise MalformedInstance("target and evidence must assign disjoint variables")
    if len(wanted) == 1 and bn.strictly_positive:
        ((v, x),) = wanted.items()
        if given.keys() >= bn.blankets[v]:
            return _blanket_conditional(bn, v, x, given)
    nodes = _ancestral_set(bn, set(wanted) | set(given))
    result = _run(bn, given, set(wanted), nodes)
    total = float(result.table.sum())
    if total <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    if not wanted:
        return 1.0
    return float(result.table[tuple(wanted[v] for v in result.vars)]) / total
