"""Exact inference on Bayesian networks by variable elimination.

Queries never materialize the full joint table, so they stay usable on
networks too large for dense enumeration as long as the induced factor
widths stay small. Elimination has one kernel, _probabilities: it
computes P(assignment) under every network of a group that shares one
DAG, with one plan for the group. It restricts the CPTs of the
assignment's ancestral set (every other CPT is barren and sums to one,
so a zero-probability event stays exactly zero), builds each restricted
CPT once for the group, by networks._cpt_factor from the agents' stacked
rows (their row arrays, stacked once per call and sliced per CPT), with
an agent axis, and sums out every variable left along
_min_fill_order, one joint._contract call per bucket, as _buckets plans
them (for _weighted_product_cpts' pass too). As in bucket elimination,
_buckets files each factor once, under its first variable in the
order, and each bucket's product under the first variable it has left,
so no bucket scans the live factors; every bucket's scope is known
before the first _contract call. At the first bucket over
2**MAX_DENSE_VARIABLES entries, times the agents, min-fill stops with
CapacityExceeded, before any _contract call. The single-network queries
call it with a group of one, and consensus.linop_query with each group
of agents that share a DAG.
A conditional takes one of two routes:

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

Each public query checks its network's kind and each mapping it takes
once, with joint's checks; the kernels (_probabilities,
_blanket_conditional, and _weighted_product_cpts on agents that the
consensus builder has checked) are private and read them unchecked.
"""
from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityExceeded, DegenerateProduct, MalformedInstance, ZeroEvidence
from .joint import (
    MAX_DENSE_VARIABLES, Assignment, _check_assignment, _check_kind, _check_query,
    _conditional_ratio, _contract,
)
from .networks import BayesNet, Dag, _cpt_factor, _min_fill_order


def _expand(
    variables: tuple[int, ...], table: np.ndarray, out: tuple[int, ...]
) -> np.ndarray:
    # Both variable tuples are sorted, so inserting singleton axes for
    # the missing variables aligns the tables for broadcasting.
    return table.reshape(tuple(2 if v in variables else 1 for v in out))


def _ancestral_set(bn: BayesNet, variables: Iterable[int]) -> list[int]:
    """The variables together with all of their ancestors."""
    seen = set(variables)
    stack = list(variables)
    parents = bn._dag.parents
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return sorted(seen)


_AGENT = -1  # _contract's label of the agent axis; variables are 0..m-1
_ALL = slice(None)  # the index that keeps an axis whole


def _buckets(
    scopes: Sequence[tuple[int, ...]], order: Sequence[int]
) -> tuple[list[tuple[list[int], tuple[int, ...]]], list[int]]:
    """Bucket elimination's plan (Dechter 1999) to sum order's variables
    out of factors over scopes: per variable, its bucket's factor
    positions, oldest first, and the sorted scope of the factor that the
    bucket leaves, numbered next; and the factors that read no variable.

    A factor joins the bucket of its first variable in order. Labels
    outside order, such as _AGENT, are never summed out.
    """
    none = len(order)  # buckets[none] holds the factors that read no variable
    rank = {v: k for k, v in enumerate(order)}
    buckets: list[list[int]] = [[] for _ in range(none + 1)]
    scopes = list(scopes)

    def file(i: int) -> None:
        buckets[min([rank.get(u, none) for u in scopes[i]], default=none)].append(i)

    for i in range(len(scopes)):
        file(i)
    plan = []
    for v, bucket in zip(order, buckets):
        rest = tuple(sorted({u for i in bucket for u in scopes[i]} - {v}))
        plan.append((bucket, rest))
        scopes.append(rest)
        file(len(scopes) - 1)
    return plan, buckets[none]


def _probabilities(group: Sequence[BayesNet], assignment: Assignment) -> np.ndarray:
    """P(assignment) under each network of group, which share one DAG,
    for an assignment as _check_assignment returns it.

    One plan serves the whole group: the ancestral set of the
    assignment, the restriction of each of its CPTs, _min_fill_order over
    what is left, and _buckets along that order, stopped with
    CapacityExceeded at the first bucket over capacity, over every agent.
    Each restricted CPT is one factor, a slice of the agents' stacked
    row arrays, with the agent axis first; each bucket is one _contract
    call.
    """
    n = len(group)
    if not assignment:
        return np.ones(n)  # the sure event: no CPT to read
    parents, offsets = group[0]._dag.parents, group[0]._dag._offsets
    rows = np.array([bn._rows for bn in group])  # agent on axis 0
    scopes: list[tuple[int, ...]] = []  # scopes[i]: the axes of tables[i]
    tables: list[np.ndarray] = []
    for v in _ancestral_set(group[0], assignment):
        axes, table = _cpt_factor(
            rows[:, offsets[v]:offsets[v + 1]], v, parents[v], assignment.get(v)
        )
        restrict = tuple([int(assignment[u]) if u in assignment else _ALL for u in axes])
        scopes.append((_AGENT, *[u for u in axes if u not in assignment]))
        tables.append(table[(_ALL,) + restrict])
    adj: dict[int, set[int]] = {v: set() for variables in scopes for v in variables[1:]}
    for variables in scopes:
        for u, w in itertools.combinations(variables[1:], 2):
            adj[u].add(w)
            adj[w].add(u)
    order = []
    for v, nbrs in _min_fill_order(adj):
        width = len(nbrs) + 1  # v's bucket: v, its neighbors now, the agent axis
        if n << width > 1 << MAX_DENSE_VARIABLES:
            size = f"2^{width}" if n == 1 else f"{n} agents x 2^{width}"
            name = group[0].labels[v] if group[0].labels else v
            raise CapacityExceeded(
                f"the query's elimination is over the capacity of "
                f"2^{MAX_DENSE_VARIABLES} entries at bucket {len(order) + 1} of "
                f"{len(adj)}: variable {name}'s bucket needs {width} variables, {size} entries"
            )
        order.append(v)
    plan, leftover = _buckets(scopes, order)
    for bucket, rest in plan:
        tables.append(_contract([(scopes[i], tables[i]) for i in bucket], rest))
        scopes.append(rest)
    return _contract([(scopes[i], tables[i]) for i in leftover], (_AGENT,))


def _weighted_product_cpts(
    bns: Sequence[BayesNet],
    weights: Sequence[float],
    structure: Dag,
    elimination_order: Sequence[int],
) -> np.ndarray:
    """The CPT rows over structure, in owner order as BayesNet holds
    them, of the geometric pool of the agents.

    That pool is the normalized product of every agent's CPT factors,
    each raised to the agent's weight. Every weight is positive: the
    caller drops zero-weight agents, which the pool ignores. _buckets
    plans one elimination pass over those factors along
    elimination_order. Each node's parents must be the variables of the
    factor its bucket leaves, its neighbors eliminated later, as
    consensus_bn_structure returns them for these agents
    (MalformedInstance otherwise), so every bucket is one family. Rows
    of zero mass get 0.5; zero mass on every state raises
    DegenerateProduct.
    """
    factors = []
    # Log space keeps 1e-300 rows from underflowing.
    with np.errstate(divide="ignore"):
        for bn, w in zip(bns, weights):
            offsets = bn._dag._offsets
            for v, ps in enumerate(bn._dag.parents):
                axes, table = _cpt_factor(bn._rows[offsets[v]:offsets[v + 1]], v, ps)
                family = tuple(sorted(axes))  # _expand aligns sorted axes
                table = table.transpose([axes.index(u) for u in family])
                factors.append((family, w * np.log(table)))
    plan, _ = _buckets([family for family, _ in factors], elimination_order)
    offsets = structure._offsets
    out = np.empty(offsets[-1])
    for v, (bucket, rest) in zip(elimination_order, plan):
        parents = structure.parents[v]
        if sorted(parents) != list(rest):
            raise MalformedInstance(
                f"variable {v} has parents {list(parents)}, but its bucket "
                f"leaves a factor over {list(rest)}"
            )
        family = tuple(sorted((v,) + parents))
        table = np.zeros((2,) * len(family))
        for i in bucket:
            table = table + _expand(*factors[i], family)
        axis = family.index(v)
        log_mass = np.logaddexp.reduce(table, axis=axis)
        reachable = log_mass > -np.inf
        if not np.any(reachable):
            raise DegenerateProduct("geometric pool has zero mass")
        shift = np.where(reachable, log_mass, 0.0)  # no -inf minus -inf
        p_true = np.full_like(log_mass, 0.5)
        np.exp(np.take(table, 1, axis=axis) - shift, out=p_true, where=reachable)
        # Row index bit i is parents[i], so parents[0] varies fastest.
        # Each row is a share of its log-mass, exp(<= 0), or 0.5: in [0, 1].
        rows = p_true.transpose([rest.index(p) for p in parents])
        out[offsets[v]:offsets[v + 1]] = rows.ravel(order="F")
        factors.append((rest, log_mass))
    return out


def _blanket_conditional(
    bn: BayesNet, v: int, x: int, evidence: Assignment
) -> float:
    """P(v = x | evidence) on a strictly positive network, given evidence
    on v's whole Markov blanket (KeyError for a blanket variable it lacks).

    Given the blanket, the answer is proportional to the product of v's
    own CPT and its children's, and the evidence leaves each of them one
    entry per state of v. The products a0 and a1 multiply those entries
    in increasing node order (1.0 times the first is exact), so they are
    bit for bit the two entries of joint._contract over those CPTs,
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


def _probability(bn: BayesNet, assignment: Assignment) -> float:
    """P(assignment) on one network: the kernel on a group of one."""
    return float(_probabilities((bn,), assignment)[0])


def query_event_marginal(bn: BayesNet, event: Assignment) -> float:
    """Probability that every variable in event takes its given value."""
    _check_kind(bn, BayesNet)
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
    _check_kind(bn, BayesNet)
    wanted, given = _check_query(bn.m, target, evidence)
    if len(wanted) == 1 and bn.strictly_positive:
        ((v, x),) = wanted.items()
        try:
            return _blanket_conditional(bn, v, x, given)
        except KeyError:  # evidence misses part of v's blanket
            pass
    return _conditional_ratio(partial(_probability, bn), wanted, given)
