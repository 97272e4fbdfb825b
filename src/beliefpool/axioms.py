"""Checkable pooling properties, worked fixtures, and negative controls.

Each property gets an instance type carrying the agent tables plus
whatever the property quantifies over, which checks each field where it
reads it and measures its violation magnitude under a pool.
check_property applies one pool to many instances and reports pass/fail
against a tolerance. Expected failures (independence broken by pooling,
order-dependent family aggregation) live here too, with deterministic
report suites for the CLI. An instance measures both pools in one pass:
it pools its profile once, a linop and a logop row below its agents'
rows (_with_pools), and works out each value as a cached_property over
all of them. _violation(pool) reads its pool's value and raises what
that pool's checks alone would raise: an error of one pool is raised
for that pool only, and again on every call. The suites check seed and
trials first; run_axioms_suite keeps one drawn instance at a time.

Every gap, event mass and conditioning that a check measures is one
call of a stacked kernel, over tables stacked on axis 0 (k, 2**m): an
instance's agents and both its pools at once (_event_masses,
_event_pair_gaps and _product_gaps here; joint._masses,
joint._pairwise_gaps, joint._markov_gaps and joint._kept).
pairwise_dependence_gap and markov_dependence_gap are the same kernels
with k = 1. Each kernel sums over a C-contiguous last axis only, so a
table's row of a stack has the bits the table has alone: a fancy index
on axis 1 returns a Fortran-ordered copy, whose row sums from 8
selected states up add in another order.

State indices, of the events and of StatePairInstance's two states,
have one check, _state_indices; StatePairInstance's two must differ.
Each event or variable-set field is read once, as a set, into a cached
property, so a generator there gives what its frozenset gives and a
state listed twice counts once. family_pooled_joint gathers every
chain-rule row of an ordering, for every agent and prefix context, into
one (n, 2**m - 1, 2) array (_prefix_masses), pools all rows in one
expression per pool, and one joint._contract call multiplies both
pools' factors onto the state axes (_chain_rule_pools).

Each randomized suite row is a CheckReport (_verdict), and every
checked figure, the examples' near-zero gaps too, prints by _figure's
rule: the bound it met, or the digits of a failure.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from sys import float_info

import numpy as np

from .consensus import linop_query, logop_consensus_bn
from .errors import BeliefPoolError, DegenerateProduct, MalformedInstance
from .joint import (
    JointTable,
    _check_assignment,
    _check_integers,
    _check_kind,
    _check_pair,
    _check_partition,
    _check_reals,
    _check_sequence,
    _contract,
    _kept,
    _markov_gaps,
    _masses,
    _pairwise_gaps,
    conditional_probability,
    marginal,
    pairwise_dependence_gap,
    _trusted,
    _trusted_table,
)
from .networks import BayesNet, Cpt, _check_order, bn_to_joint
from .pools import (
    POOL_NAMES, _linop_mass, _logistic, _logop_mass, _pooled_log_odds, _stack,
    check_pool_name, linop, logop, normalize_weights,
)
from .sampling import (
    random_block_product_table,
    random_bn,
    random_conditional_table,
    random_joint,
    random_product_table,
    random_vstructure_pair,
    random_weights,
)

# ---------------------------------------------------------------------------
# Property instances: each measures its violation under a pool
# (_violation; 0 means the property held)


def _with_pools(stacked: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The stacked tables (n, 2**m) with rows of their linop and logop (weights w),
    normalized, below them, read-only; each pool's error: None, or DegenerateProduct."""
    rows = np.empty((len(stacked) + 2, stacked.shape[1]))
    rows[:-2], rows[-2] = stacked, _linop_mass(stacked, w)
    try:
        rows[-1], error = _logop_mass(stacked, w), None
    except DegenerateProduct as err:
        rows[-1], error = 1.0, err
    rows[-2:] = _normalized(rows[-2:])
    rows.flags.writeable = False
    return rows, (None, error)


def _pool_row(pools: tuple, pool: str) -> int:
    """The pool's row of _with_pools' or _chain_rule_pools' pools, or its error raised."""
    error = pools[1][POOL_NAMES.index(pool)]
    if error is not None:
        raise error
    return POOL_NAMES.index(pool) - 2


class _Agents:
    """The agents' profile (_stack), normalized weights and _with_pools' rows."""

    @cached_property
    def _profile(self) -> tuple[int, np.ndarray]:
        return _stack(self.tables)

    @cached_property
    def _w(self) -> np.ndarray:
        return normalize_weights(self.weights, len(self._profile[1]))

    @cached_property
    def _pools(self) -> tuple[np.ndarray, tuple]:
        return _with_pools(self._profile[1], self._w)

    def _pooled(self, pool: str, pools=None) -> JointTable:
        """The pool's table, a row of pools (_with_pools), _pools by default."""
        pools = self._pools if pools is None else pools
        return _trusted(JointTable, m=self._profile[0], probs=pools[0][_pool_row(pools, pool)])


def _state_indices(n_states: int, states) -> tuple[int, ...]:
    """states as Python ints, in their order: the one check of state
    indices, MalformedInstance unless each is an integer (_check_integers) in range."""
    indices = _check_integers(states, MalformedInstance, "state index")
    if indices and not (0 <= min(indices) and max(indices) < n_states):
        bad = min(indices) if min(indices) < 0 else max(indices)
        raise MalformedInstance(f"state index {bad} out of range")
    return indices


def _index_arrays(*events: set[int]) -> tuple[np.ndarray, ...]:
    """Each event, a set of checked state indices, as a sorted index array."""
    return tuple(np.array(sorted(event), dtype=np.intp) for event in events)


def _event_masses(stacked: np.ndarray, event: np.ndarray) -> np.ndarray:
    """Each stacked table's mass on an event as _index_arrays returns it."""
    # take copies in C order; a fancy index on axis 1 would not.
    return np.add.reduce(stacked.take(event, axis=1), axis=1)


def _event_pair_gaps(
    stacked: np.ndarray, a: np.ndarray, b: np.ndarray, both: np.ndarray
) -> np.ndarray:
    """|P(a and b) - P(a) * P(b)| under each stacked table, for events a,
    b and a & b as _index_arrays returns them."""
    p_a, p_b = _event_masses(stacked, a), _event_masses(stacked, b)
    return np.abs(_event_masses(stacked, both) - p_a * p_b)


_STACK = -1  # _contract's label of the table axis; variables are 0..m-1


def _product_gaps(m: int, stacked: np.ndarray) -> np.ndarray:
    """Each stacked table's largest deviation from the product of its
    single-variable marginals."""
    marginals = np.empty((m, len(stacked), 2))  # variable, table, (false, true)
    for j in range(m):
        marginals[j, :, 1] = _masses(m, stacked, {j: True})
    marginals[..., 0] = 1.0 - marginals[..., 1]
    factors = [((_STACK, j), marginals[j]) for j in range(m)]
    # Variable j on axis m - j, after the table axis: C order lists the
    # states by index. A table over no variables is its own product.
    expected = _contract(factors, (_STACK, *range(m - 1, -1, -1)))
    return np.maximum.reduce(np.abs(stacked - expected.reshape(-1, stacked.shape[1])), axis=1)


def _normalized(kept: np.ndarray) -> np.ndarray:
    """Each row of kept divided by its sum, as _trusted_table divides one table."""
    return kept / np.add.reduce(kept, axis=1, keepdims=True)


@dataclass(frozen=True)
class UnanimityInstance(_Agents):
    """All agents hold the identical table."""

    tables: tuple[JointTable, ...]
    weights: tuple[float, ...] | None = None

    @cached_property
    def _shared_table(self) -> JointTable:
        _, stacked = self._profile
        if (stacked != stacked[0]).any():
            raise MalformedInstance("unanimity needs identical agent tables")
        return self.tables[0]

    def _violation(self, pool: str) -> float:
        first = self._shared_table
        return float(np.abs(self._pooled(pool).probs - first.probs).max())


@dataclass(frozen=True)
class EventPoolInstance(_Agents):
    """An event (set of state indices) to pool directly versus jointly."""

    tables: tuple[JointTable, ...]
    event: frozenset[int]
    weights: tuple[float, ...] | None = None

    @cached_property
    def _spreads(self) -> np.ndarray:
        """Each pool's mass on the event (read once: it may be an iterator)
        less the pool of the agents' masses on it and off it."""
        rows = self._pools[0]
        event = set(_state_indices(rows.shape[1], self.event))
        event, rest = _index_arrays(event, set(range(rows.shape[1])) - event)
        true = _event_masses(rows, event)  # each agent's, then each pool's
        _, route = _logistic(_pooled_log_odds(_event_masses(rows[:-2], rest), true[:-2], self._w))
        return np.abs(true[-2:] - (self._w @ true[:-2], route))

    def _violation(self, pool: str) -> float:
        i = _pool_row(self._pools, pool)  # the pool checks the tables before the event
        return float(self._spreads[i])


@dataclass(frozen=True)
class EvidenceInstance(_Agents):
    """Evidence to condition on before versus after pooling."""

    tables: tuple[JointTable, ...]
    evidence: tuple[tuple[int, bool], ...]
    weights: tuple[float, ...] | None = None

    @cached_property
    def _conditioned(self) -> tuple:
        """Which rows of _pools give the evidence no mass, each pool's largest gap
        from pooling the conditioned agents, and the conditioned agents' pools."""
        try:
            evidence = dict(self.evidence)
        except (TypeError, ValueError):
            raise MalformedInstance("evidence must be (variable, state) pairs") from None
        m, rows = self._profile[0], self._pools[0]
        kept = _kept(m, rows, _check_assignment(m, evidence))
        failed = np.add.reduce(kept, axis=1) <= 0.0  # rows whose error is raised instead
        kept = _normalized(np.where(failed[:, None], 1.0, kept))  # agents', then pools' rows
        pools = _with_pools(kept[:-2], self._w)
        return failed, np.abs(kept[-2:] - pools[0][-2:]).max(axis=1), pools

    def _violation(self, pool: str) -> float:
        i = _pool_row(self._pools, pool)
        failed, spreads, pools = self._conditioned
        if failed[:-2].any() or failed[i]:
            raise MalformedInstance("evidence must have positive mass for every agent")
        return float(spreads[_pool_row(pools, pool)])


@dataclass(frozen=True)
class StatePairInstance(_Agents):
    """Two belief profiles agreeing on states s and t agent by agent."""

    tables_p: tuple[JointTable, ...]
    tables_q: tuple[JointTable, ...]
    s: int
    t: int
    weights: tuple[float, ...] | None = None

    @cached_property
    def _profile(self) -> tuple[int, np.ndarray]:
        return _stack(self.tables_p)

    @cached_property
    def _profile_q(self) -> tuple[int, np.ndarray]:
        return _stack(self.tables_q)

    @cached_property
    def _states(self) -> tuple[int, int]:
        """(s, t) as Python ints, once both profiles agree on them."""
        (m_p, p), (m_q, q) = self._profile, self._profile_q
        if len(p) != len(q):
            raise MalformedInstance("profiles must have the same agent count")
        s, t = _state_indices(1 << min(m_p, m_q), (self.s, self.t))
        if s == t:  # p[s] / p[s] is 1 under any pool
            raise MalformedInstance("state-ratio invariance needs two distinct states")
        if (np.abs(p[:, [s, t]] - q[:, [s, t]]) > 1e-15).any():
            raise MalformedInstance("profiles must agree on both distinguished states")
        return s, t

    @cached_property
    def _pools_q(self) -> tuple[np.ndarray, tuple]:
        return _with_pools(self._profile_q[1], self._w)

    def _violation(self, pool: str) -> float:
        s, t = self._states
        p, q = self._pooled(pool).probs, self._pooled(pool, self._pools_q).probs
        if p[t] <= 0.0 or q[t] <= 0.0:
            raise MalformedInstance("reference state t pooled to zero mass")
        return abs(float(p[s] / p[t] - q[s] / q[t]))


class _PreservedProperty(_Agents):
    """Hypothesis: every agent's gap is within _TOL; violation: the pool's.
    _gaps(m, stacked) gives the gap of each stacked table."""

    _TOL = 1e-12

    @cached_property
    def _all_gaps(self) -> np.ndarray:
        """Each agent's gap, then each pool's, in one _gaps call."""
        m, stacked = self._profile
        with suppress(BeliefPoolError):  # the weights': raised after the hypothesis
            stacked = self._pools[0]
        return self._gaps(m, stacked)

    def _violation(self, pool: str) -> float:
        if (self._all_gaps[: len(self._profile[1])] > self._TOL).any():
            raise MalformedInstance(self._HYPOTHESIS)
        return float(self._all_gaps[_pool_row(self._pools, pool)])


@dataclass(frozen=True)
class EventPairInstance(_PreservedProperty):
    """Two events independent under every agent."""

    tables: tuple[JointTable, ...]
    event_a: frozenset[int]
    event_b: frozenset[int]
    weights: tuple[float, ...] | None = None

    _HYPOTHESIS = "events must be independent under every agent"

    @cached_property
    def _events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """event_a, event_b and both as _index_arrays returns them, each
        field read once: either may be an iterator."""
        n_states = self.tables[0].n_states
        a, b = (set(_state_indices(n_states, e)) for e in (self.event_a, self.event_b))
        return _index_arrays(a, b, a & b)

    def _gaps(self, m: int, stacked: np.ndarray) -> np.ndarray:
        return _event_pair_gaps(stacked, *self._events)


@dataclass(frozen=True)
class VariablePairInstance(_PreservedProperty):
    """Two variables pairwise independent under every agent."""

    tables: tuple[JointTable, ...]
    a: int
    b: int
    weights: tuple[float, ...] | None = None

    _HYPOTHESIS = "variables must be pairwise independent under every agent"

    @cached_property
    def _pair(self) -> tuple[int, int]:
        """a and b as _check_pair returns them."""
        return _check_pair(self.tables[0].m, self.a, self.b)

    def _gaps(self, m: int, stacked: np.ndarray) -> np.ndarray:
        return _pairwise_gaps(m, stacked, *self._pair)


@dataclass(frozen=True)
class ProductInstance(_PreservedProperty):
    """Every agent's table is a full product of its variable marginals."""

    tables: tuple[JointTable, ...]
    weights: tuple[float, ...] | None = None

    _HYPOTHESIS = "every agent table must be a full product of marginals"

    def _gaps(self, m: int, stacked: np.ndarray) -> np.ndarray:
        return _product_gaps(m, stacked)


@dataclass(frozen=True)
class MarkovInstance(_PreservedProperty):
    """Every agent has variable a independent of x given w."""

    tables: tuple[JointTable, ...]
    a: int
    w: tuple[int, ...]
    x: tuple[int, ...]
    weights: tuple[float, ...] | None = None

    _TOL = 1e-10
    _HYPOTHESIS = "conditional independence must hold for every agent"

    @cached_property
    def _partition(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """a, w and x as _check_partition returns them, each field read
        once: w or x may be an iterator."""
        return _check_partition(self.tables[0].m, self.a, self.w, self.x)

    def _gaps(self, m: int, stacked: np.ndarray) -> np.ndarray:
        return _markov_gaps(m, stacked, *self._partition)


@dataclass(frozen=True)
class FamilyInstance(_Agents):
    """Two chain-rule orderings along which to pool conditional rows."""

    tables: tuple[JointTable, ...]
    ordering_a: tuple[int, ...]
    ordering_b: tuple[int, ...]
    weights: tuple[float, ...] | None = None

    @cached_property
    def _along_a(self) -> tuple:
        return _chain_rule_pools(_prefix_masses(*self._profile, self.ordering_a), self._w)

    @cached_property
    def _along_b(self) -> tuple:
        return _chain_rule_pools(_prefix_masses(*self._profile, self.ordering_b), self._w)

    def _violation(self, pool: str) -> float:
        joint_a = self._pooled(pool, self._along_a).probs
        joint_b = self._pooled(pool, self._along_b).probs
        return float(np.abs(joint_a - joint_b).max())


# ---------------------------------------------------------------------------
# Pooling family by family


def _prefix_masses(m: int, stacked: np.ndarray, ordering: Sequence[int]) -> tuple:
    """Every chain-rule row of the ordering, in row order: the ordering,
    each agent's (false, true) mass of the row's node in the row's
    context (rows, shape (n, 2**m - 1, 2)), that context's mass (shape
    (n, 2**m - 1, 1)) and which rows some agent gives zero context mass.
    Position k's 2**k rows start at row 2**k - 1; bit i of a row's index
    within its position is the value of ordering[i]."""
    ordering = _check_order(m, ordering)
    n = len(stacked)
    # State index bit j sits on axis m - j of the plain reshape.
    mass = stacked.reshape((n,) + (2,) * m)
    mass = mass.transpose((0,) + tuple(m - v for v in ordering))
    rows = np.empty((n, (1 << m) - 1, 2))
    for k in range(m):
        family = mass.sum(axis=tuple(range(k + 2, m + 1)))
        # Reversing the context axes makes C order the row order.
        family = family.transpose((0, *range(k, 0, -1), k + 1))
        rows[:, (1 << k) - 1 : (2 << k) - 1] = family.reshape(n, 1 << k, 2)
    context = rows[..., :1] + rows[..., 1:]
    return ordering, rows, context, (context[..., 0] <= 0.0).any(axis=0)


def family_pooled_joint(
    pool: str, tables: Sequence[JointTable], ordering: Sequence[int],
    weights: Sequence[float] | None = None,
) -> JointTable:
    """Chain-rule along the ordering, pooling each conditional row.

    Every node is conditioned on the full prefix of the ordering, so the
    result depends only on the ordering, not on any structure. A row
    pools the agents' (false, true) masses of the node in its context:
    linop averages each side's share, logop pools their log-odds. Raises
    MalformedInstance when an agent gives a prefix context zero mass and
    DegenerateProduct when a logop row pools to zero mass, whichever
    comes first in chain-rule row order.
    """
    check_pool_name(pool)
    m, stacked = _stack(tables)
    prefixes = _prefix_masses(m, stacked, ordering)
    pools = _chain_rule_pools(prefixes, normalize_weights(weights, len(tables)))
    return _trusted_table(m, pools[2][_pool_row(pools, pool)])


def _chain_rule_pools(prefixes: tuple, w: np.ndarray) -> tuple:
    """family_pooled_joint's pools, normalized, and errors, as _with_pools's,
    then unnormalized, from _prefix_masses and weights w, in one _contract call."""
    ordering, rows, context, dead = prefixes
    pooled = np.empty((2, *rows.shape[1:]))  # pool, row, (false, true)
    split = np.divide(rows, context, out=np.zeros(rows.shape), where=context > 0.0)
    # The weights' sum, and so a row of sure nodes, may round above 1.
    pooled[0] = np.minimum((w[:, None, None] * split).sum(axis=0), 1.0)
    pooled[1, :, 0], pooled[1, :, 1] = _logistic(_pooled_log_odds(rows[..., 0], rows[..., 1], w))
    errors = tuple(  # each pool's first bad row, in chain-rule row order, decides
        None if not bad.any()
        else MalformedInstance("every chain-rule context must have positive mass")
        if dead[np.flatnonzero(bad)[0]]
        else DegenerateProduct("event and complement both pooled to zero mass")
        for bad in (dead, dead | np.isnan(pooled[1, :, 1]))
    )
    pooled[[error is not None for error in errors]] = 0.5  # rows whose error is raised instead
    m = len(ordering)
    # Position k's rows as a factor over the pool and ordering[: k + 1]:
    # Fortran order puts the pool on axis 0, row bit i, ordering[i], on
    # axis i + 1 and the node on axis k + 1.
    factors = [(
        (_STACK, *ordering[: k + 1]),
        pooled[:, (1 << k) - 1 : (2 << k) - 1].reshape((2,) * (k + 2), order="F"),
    ) for k in range(m)]
    # Variable j on axis m - j after the pool axis, which no factor reads at m = 0.
    joint = _contract(factors, (_STACK, *range(m - 1, -1, -1))) if m else np.ones((2, 1))
    joint = joint.ravel().reshape(2, -1)
    normalized = _normalized(joint)
    normalized.flags.writeable = False
    return normalized, errors, joint


# ---------------------------------------------------------------------------
# Suite draws: each returns one random instance, or None for a rejected draw


def _draw_unam(rng: np.random.Generator) -> UnanimityInstance:
    t = random_joint(rng, int(rng.integers(2, 5)))
    return UnanimityInstance((t, t, t), random_weights(rng, 3))


def _draw_mp(rng: np.random.Generator) -> EventPoolInstance:
    m = int(rng.integers(2, 5))
    tables = tuple(random_joint(rng, m) for _ in range(3))
    n_states = 1 << m
    size = int(rng.integers(1, n_states))
    event = frozenset(
        int(s) for s in rng.choice(n_states, size=size, replace=False)
    )
    return EventPoolInstance(tables, event, random_weights(rng, 3))


def _draw_eb(rng: np.random.Generator) -> EvidenceInstance:
    m = int(rng.integers(2, 5))
    tables = tuple(random_joint(rng, m) for _ in range(3))
    var = int(rng.integers(0, m))
    return EvidenceInstance(
        tables, ((var, bool(rng.integers(0, 2))),), random_weights(rng, 3)
    )


def _draw_pds(rng: np.random.Generator) -> StatePairInstance:
    m = int(rng.integers(2, 4))
    s, t = (int(v) for v in rng.choice(1 << m, size=2, replace=False))
    profile_p = []
    profile_q = []
    for _ in range(2):
        base = random_joint(rng, m)
        other = np.maximum(rng.random(1 << m), 0.01)
        other[s] = base.probs[s]
        other[t] = base.probs[t]
        # rescale the remaining states so the table still sums to 1; its
        # entries are positive, so it is valid by construction
        keep = base.probs[s] + base.probs[t]
        rest = [i for i in range(1 << m) if i not in (s, t)]
        other[rest] *= (1.0 - keep) / other[rest].sum()
        profile_p.append(base)
        profile_q.append(_trusted_table(m, other))
    return StatePairInstance(
        tuple(profile_p), tuple(profile_q), s, t, random_weights(rng, 2)
    )


def _draw_ipp(rng: np.random.Generator) -> EventPairInstance:
    m = int(rng.integers(3, 5))
    block = tuple(range(int(rng.integers(1, m))))
    tables = tuple(random_block_product_table(rng, m, block) for _ in range(2))
    # event_a reads only block bits, event_b only the rest
    rest = tuple(v for v in range(m) if v not in block)
    pick_a = int(rng.integers(1, len(block) + 1))
    pick_b = int(rng.integers(1, len(rest) + 1))
    event_a = frozenset(
        s for s in range(1 << m) if all((s >> v) & 1 for v in block[:pick_a])
    )
    event_b = frozenset(
        s for s in range(1 << m) if all((s >> v) & 1 for v in rest[:pick_b])
    )
    return EventPairInstance(tables, event_a, event_b, random_weights(rng, 2))


def _draw_eipp(rng: np.random.Generator) -> VariablePairInstance:
    tables = tuple(random_product_table(rng, 2) for _ in range(2))
    return VariablePairInstance(tables, 0, 1, random_weights(rng, 2))


def _draw_meipp(rng: np.random.Generator) -> ProductInstance:
    m = int(rng.integers(2, 5))
    tables = tuple(random_product_table(rng, m) for _ in range(3))
    return ProductInstance(tables, random_weights(rng, 3))


def _draw_nmeipp(rng: np.random.Generator) -> VariablePairInstance | None:
    tables = tuple(bn_to_joint(bn) for bn in random_vstructure_pair(rng))
    if (_product_gaps(tables[0].m, np.array([t.probs for t in tables])) <= 1e-9).all():
        return None  # mutually independent sample: hypothesis not met
    return VariablePairInstance(tables, 0, 1, random_weights(rng, 2))


def _draw_mipp(rng: np.random.Generator) -> MarkovInstance | None:
    m = int(rng.integers(3, 6))
    variables = [int(v) for v in rng.permutation(m)]
    a = variables[0]
    cut = int(rng.integers(1, m))
    w = tuple(sorted(variables[1 : cut + 1]))
    x = tuple(sorted(variables[cut + 1 :]))
    if not x:
        return None
    tables = tuple(random_conditional_table(rng, m, a, w, x) for _ in range(2))
    return MarkovInstance(tables, a, w, x, random_weights(rng, 2))


def _draw_fa(rng: np.random.Generator) -> FamilyInstance:
    m = int(rng.integers(2, 4))
    tables = tuple(random_joint(rng, m) for _ in range(2))
    ordering_a = tuple(int(v) for v in rng.permutation(m))
    ordering_b = tuple(reversed(ordering_a))
    return FamilyInstance(tables, ordering_a, ordering_b, random_weights(rng, 2))


# property name -> (instance type, suite draw, then the suite's
# (tolerance, expectation) for linop and for logop)
_PROPERTIES: dict[str, tuple] = {
    "unam": (UnanimityInstance, _draw_unam, (1e-12, "all-pass"), (1e-12, "all-pass")),
    "mp": (EventPoolInstance, _draw_mp, (1e-12, "all-pass"), (1e-12, "some-fail")),
    "eb": (EvidenceInstance, _draw_eb, (1e-10, "some-fail"), (1e-10, "all-pass")),
    "pds": (StatePairInstance, _draw_pds, (1e-12, "all-pass"), (1e-12, "all-pass")),
    "ipp": (EventPairInstance, _draw_ipp, (1e-9, "some-fail"), (1e-9, "all-pass")),
    "eipp": (VariablePairInstance, _draw_eipp, (1e-12, "some-fail"), (1e-12, "all-pass")),
    "meipp": (ProductInstance, _draw_meipp, (1e-9, "some-fail"), (1e-12, "all-pass")),
    "nmeipp": (VariablePairInstance, _draw_nmeipp, (1e-6, "some-fail"), (1e-6, "some-fail")),
    "mipp": (MarkovInstance, _draw_mipp, (1e-9, "some-fail"), (1e-9, "all-pass")),
    "fa-consistency": (FamilyInstance, _draw_fa, (1e-9, "some-fail"), (1e-9, "some-fail")),
}

PROPERTY_NAMES = tuple(_PROPERTIES)


# ---------------------------------------------------------------------------
# Reports


def _figure(name: str, value: float, tol: float) -> str:
    """A checked figure as a check line prints it: name<=tol when value
    is within tol, where its digits are rounding noise that any reordered
    sum moves, and name=value when it is not, whose digits are the finding."""
    return f"{name}<={tol:.1e}" if value <= tol else f"{name}={value:.3e}"


@dataclass(frozen=True)
class CheckReport:
    """One violation per instance; a violation at most tol passes."""

    prop: str
    pool: str
    tol: float
    violations: tuple[float, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for v in self.violations if v <= self.tol)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.violations)

    @property
    def max_violation(self) -> float:
        return float(np.max(self.violations, initial=0.0))  # NaN wherever it is

    def summary(self) -> str:
        return (
            f"property={self.prop} pool={self.pool} tol={self.tol:.1e} "
            f"cases={len(self.violations)} passed={self.n_passed} "
            f"{_figure('max_violation', self.max_violation, self.tol)}"
        )


def check_property(pool: str, prop: str, instances: Sequence, tol: float = 1e-9) -> CheckReport:
    """Measure one property of the named pool across many instances.

    Each instance pools with its own weights (None weights the agents
    equally) and measures both pools at once; an error that one pool
    alone meets, such as logop's DegenerateProduct, is raised for that
    pool only. Raises MalformedInstance for an unknown pool, property or
    tol (a finite nonnegative number), instances that are not a sequence,
    or an instance of another type, outside its hypothesis or malformed.
    """
    check_pool_name(pool)
    name = prop.lower() if isinstance(prop, str) else None
    if name not in _PROPERTIES:
        raise MalformedInstance(f"unknown property {prop!r}; choose from {PROPERTY_NAMES}")
    (tol,) = _check_reals((tol,), MalformedInstance, "tol", one=True).tolist()
    if not 0.0 <= tol <= float_info.max:
        raise MalformedInstance(f"tol must be finite and nonnegative, got {tol!r}")
    _check_sequence(instances, "instances")
    violations = []
    for inst in instances:
        _check_kind(inst, _PROPERTIES[name][0])
        violations.append(inst._violation(pool))
    return CheckReport(name, pool, tol, tuple(violations))


# ---------------------------------------------------------------------------
# Worked fixtures

# The states (TT, TF, FT, FF) of two variables; bit j of a state is variable j.
_STATE_ORDER = (3, 1, 2, 0)


def independent_pair_agents() -> tuple[JointTable, JointTable]:
    """Two agents over two variables, each holding them independent.

    Agent one: P(A1) = P(A2) = 0.5. Agent two: P(A1) = 0.8, P(A2) = 0.6.
    """
    first = BayesNet((Cpt(0, (), (0.5,)), Cpt(1, (), (0.5,))), ("A1", "A2"))
    second = BayesNet((Cpt(0, (), (0.8,)), Cpt(1, (), (0.6,))), ("A1", "A2"))
    return bn_to_joint(first), bn_to_joint(second)


def chain_agents() -> tuple[BayesNet, BayesNet]:
    """Two agents over the chain A1 -> A2 with opposing beliefs.

    Agent one: P(A1) = 0.2, P(A2 | A1) = 0.4, P(A2 | not A1) = 0.6.
    Agent two: P(A1) = 0.8, P(A2 | A1) = 0.8, P(A2 | not A1) = 0.3.
    """
    first = BayesNet(
        (Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))), ("A1", "A2")
    )
    second = BayesNet(
        (Cpt(0, (), (0.8,)), Cpt(1, (0,), (0.3, 0.8))), ("A1", "A2")
    )
    return first, second


@dataclass(frozen=True)
class ExampleReport:
    example_id: str
    ok: bool
    lines: tuple[str, ...]


def _fmt_states(table: JointTable) -> str:
    return " ".join(f"{table.probs[i]:.6f}" for i in _STATE_ORDER)


def _close(values, expected, tol) -> bool:
    return all(abs(v - e) <= tol for v, e in zip(values, expected))


def _ex1_linop() -> ExampleReport:
    tables = independent_pair_agents()
    pooled = linop(tables)
    got = [float(pooled.probs[i]) for i in _STATE_ORDER]
    p_a1 = marginal(pooled, {0: True})
    p_a2 = marginal(pooled, {1: True})
    gap = pairwise_dependence_gap(pooled, 0, 1)
    ok = (
        _close(got, (0.365, 0.285, 0.185, 0.165), 1e-12)
        and abs(p_a1 - 0.65) <= 1e-12
        and abs(p_a2 - 0.55) <= 1e-12
        and abs(gap - 0.0075) <= 1e-12
    )
    lines = (
        "ex1-linop: arithmetic pool of two agents who each hold the pair independent",
        f"  consensus (TT,TF,FT,FF) = {_fmt_states(pooled)}",
        "  note: the TF entry must be 0.285 for the table to normalize"
        " (0.41 would make it sum to 1.125)",
        f"  P(A1)={p_a1:.6f} P(A2)={p_a2:.6f} product={p_a1 * p_a2:.6f}",
        f"  independence gap {gap:.6f} (arithmetic pooling broke independence)",
    )
    return ExampleReport("ex1-linop", ok, lines)


def _ex2_logop() -> ExampleReport:
    tables = independent_pair_agents()
    pooled = logop(tables)
    got = [float(pooled.probs[i]) for i in _STATE_ORDER]
    gap = pairwise_dependence_gap(pooled, 0, 1)
    exact = _logop_pair_exact()
    ok = (
        _close(got, exact, 1e-12)
        and _close(got, (0.367007, 0.29966, 0.183503, 0.14983), 5e-6)
        and gap <= 1e-12
    )
    lines = (
        "ex2-logop: geometric pool of the same two agents",
        f"  consensus (TT,TF,FT,FF) = {_fmt_states(pooled)}",
        f"  P(A1)={marginal(pooled, {0: True}):.6f} "
        f"P(A2)={marginal(pooled, {1: True}):.6f}",
        f"  {_figure('independence gap', gap, 1e-12)} (geometric pooling preserved independence)",
    )
    return ExampleReport("ex2-logop", ok, lines)


def _logop_pair_exact() -> tuple[float, float, float, float]:
    """Independent recomputation of the geometric pool for the pair agents."""
    first = {(1, 1): 0.25, (1, 0): 0.25, (0, 1): 0.25, (0, 0): 0.25}
    second = {(1, 1): 0.48, (1, 0): 0.32, (0, 1): 0.12, (0, 0): 0.08}
    raw = {s: math.sqrt(first[s] * second[s]) for s in first}
    total = sum(raw.values())
    return tuple(raw[s] / total for s in ((1, 1), (1, 0), (0, 1), (0, 0)))


_EX3_ORDER_A = (0.3, 0.2, 0.225, 0.275)
# Exact fractions 333/1000, 4921/33000, 297/1000, 7289/33000. The last
# entry prints as 0.220879 at six decimals.
_EX3_ORDER_B = (0.333, 4921 / 33000, 0.297, 7289 / 33000)


def _ex3_fa() -> ExampleReport:
    agents = chain_agents()
    tables = tuple(bn_to_joint(bn) for bn in agents)
    along_a = family_pooled_joint("linop", tables, (0, 1))
    along_b = family_pooled_joint("linop", tables, (1, 0))
    got_a = [float(along_a.probs[i]) for i in _STATE_ORDER]
    got_b = [float(along_b.probs[i]) for i in _STATE_ORDER]
    spread = float(np.max(np.abs(along_a.probs - along_b.probs)))
    ok = (
        _close(got_a, _EX3_ORDER_A, 1e-12)
        and _close(got_b, _EX3_ORDER_B, 1e-12)
        and spread > 0.03
    )
    lines = (
        "ex3-fa: averaging each conditional family of two chain agents,"
        " along both orderings",
        f"  ordering (A1,A2): {_fmt_states(along_a)}",
        f"  ordering (A2,A1): {_fmt_states(along_b)}",
        f"  max cross-ordering difference {spread:.6f}"
        " (family averaging depends on the ordering)",
    )
    return ExampleReport("ex3-fa", ok, lines)


_FIG1D_SEED = 42


def _fig1d_logop() -> ExampleReport:
    rng = np.random.default_rng(_FIG1D_SEED)
    agents = random_vstructure_pair(rng)
    tables = tuple(bn_to_joint(bn) for bn in agents)
    agent_gaps = [pairwise_dependence_gap(t, 0, 1) for t in tables]
    pooled_gap = pairwise_dependence_gap(logop(tables), 0, 1)
    ok = max(agent_gaps) <= 1e-12 and pooled_gap > 1e-6
    lines = (
        "fig1d-logop: geometric pool of two agents holding A1, A2 independent"
        " but conditionally dependent through a shared effect",
        "  per-agent independence gaps "
        + " ".join(_figure(f"agent{i}", g, 1e-12) for i, g in enumerate(agent_gaps, 1)),
        f"  consensus independence gap {pooled_gap:.3e}"
        " (> 1e-06: pairwise independence was not preserved)",
    )
    return ExampleReport("fig1d-logop", ok, lines)


_EXAMPLES: dict[str, Callable[[], ExampleReport]] = {
    "ex1-linop": _ex1_linop,
    "ex2-logop": _ex2_logop,
    "ex3-fa": _ex3_fa,
    "fig1d-logop": _fig1d_logop,
}

EXAMPLE_IDS = tuple(_EXAMPLES)


def reproduce_example(example_id: str) -> ExampleReport:
    """Rebuild one of the worked fixtures and verify its frozen values."""
    try:
        build = _EXAMPLES[example_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise MalformedInstance(
            f"unknown example {example_id!r}; choose from {EXAMPLE_IDS}"
        ) from None
    return build()


# ---------------------------------------------------------------------------
# Negative-control witnesses


def linop_eb_break_witness() -> tuple[EvidenceInstance, float]:
    """Seed-0 instance where arithmetic pooling fails to commute with
    conditioning."""
    rng = np.random.default_rng(0)
    tables = (random_joint(rng, 3), random_joint(rng, 3))
    instance = EvidenceInstance(tables, ((0, True),))
    return instance, instance._violation("linop")


def logop_mp_break_witness() -> tuple[EventPoolInstance, float]:
    """Seed-0 instance where geometric pooling fails to commute with
    event marginalization."""
    rng = np.random.default_rng(0)
    tables = (random_joint(rng, 3), random_joint(rng, 3))
    event = frozenset(s for s in range(8) if s & 1)
    instance = EventPoolInstance(tables, event)
    return instance, instance._violation("logop")


# ---------------------------------------------------------------------------
# Deterministic report suites (used by the CLI check command)


def _check_run(seed, trials) -> tuple[int, int]:
    """seed and trials as Python ints: the one check of a suite's arguments,
    MalformedInstance unless integers (_check_integers), seed >= 0, trials >= 1."""
    checked = []
    for name, value, least in (("seed", seed, 0), ("trials", trials, 1)):
        (value,) = _check_integers((value,), MalformedInstance, name)
        if value < least:
            raise MalformedInstance(f"{name} must be >= {least}, got {value}")
        checked.append(value)
    return tuple(checked)


def _row(text: str, ok: bool) -> tuple[str, bool]:
    """A suite's line, text and its verdict (ok or UNEXPECTED), and ok."""
    return f"{text} {'ok' if ok else 'UNEXPECTED'}", ok


def _verdict(report: CheckReport, expect: str) -> tuple[str, bool]:
    """_row of report, expected to be "all-pass" or "some-fail"."""
    ok = report.all_passed == (expect == "all-pass")
    return _row(f"{report.summary()} expected={expect}", ok)


def _suite(rows: list[tuple[str, bool]]) -> tuple[tuple[str, ...], bool]:
    """A suite's lines from its _rows, and whether every row is ok."""
    lines, oks = zip(*rows)
    return lines, all(oks)


def run_axioms_suite(seed: int = 0, trials: int = 20) -> tuple[tuple[str, ...], bool]:
    """Property table for both pools plus the fixed negative controls.

    Returns deterministic report lines and whether every row matched
    its expected outcome. Raises MalformedInstance as _check_run does.
    """
    seed, trials = _check_run(seed, trials)
    rows = []
    for prop, (_, draw, *expected) in _PROPERTIES.items():
        # Rejected draws (None) are redrawn; each instance is checked under
        # both pools as it is drawn, and only its violations are kept.
        rng = np.random.default_rng(seed)
        violations = {pool: [] for pool in POOL_NAMES}
        while len(violations["linop"]) < trials:
            instance = draw(rng)
            if instance is not None:
                for pool, found in violations.items():
                    found.append(instance._violation(pool))
        for pool, (tol, expect) in zip(POOL_NAMES, expected):
            rows.append(_verdict(CheckReport(prop, pool, tol, tuple(violations[pool])), expect))
    witnesses = {"linop-eb": linop_eb_break_witness, "logop-mp": logop_mp_break_witness}
    for name, witness in witnesses.items():
        _, violation = witness()
        text = f"negative-control {name} seed=0 violation={violation:.3e} (want > 1e-06)"
        rows.append(_row(text, violation > 1e-6))
    fig1d = reproduce_example("fig1d-logop")
    rows.append(_row(f"negative-control fig1d-logop seed={_FIG1D_SEED}", fig1d.ok))
    return _suite(rows)


def run_examples_suite() -> tuple[tuple[str, ...], bool]:
    """All worked fixtures, each verified against its frozen values."""
    reports = [reproduce_example(example_id) for example_id in EXAMPLE_IDS]
    lines = [line for r in reports for line in (*r.lines, f"  {'ok' if r.ok else 'MISMATCH'}")]
    return tuple(lines), all(r.ok for r in reports)


def run_oracle_suite(seed: int = 0, trials: int = 25) -> tuple[tuple[str, ...], bool]:
    """Structured consensus and pooled queries versus dense recomputation:
    the consensus's largest state error (oracle-consensus) and
    linop_query's error (oracle-linop-query) as CheckReport rows, and the
    query-count bound. Raises MalformedInstance as _check_run does."""
    seed, trials = _check_run(seed, trials)
    rng = np.random.default_rng(seed)
    state_errors, query_errors = [], []
    bound_ok = True
    for _ in range(trials):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(2, 5))
        agents = [random_bn(rng, m, max_parents=2, edge_prob=0.4) for _ in range(n)]
        weights = random_weights(rng, n)
        consensus = logop_consensus_bn(agents, weights)
        tables = [bn_to_joint(bn) for bn in agents]
        dense = logop(tables, weights)
        state_errors.append(float(np.abs(bn_to_joint(consensus.bn).probs - dense.probs).max()))
        q = max(len(ps) for ps in consensus.bn.dag().parents)
        bound_ok &= consensus.agent_queries <= 2 * n * m * (1 << q)

        var = int(rng.integers(0, m))
        given = {int(rng.integers(0, m))}
        given.discard(var)
        evidence = {g: bool(rng.integers(0, 2)) for g in given}
        got = linop_query(agents, {var: True}, evidence, weights)
        want = conditional_probability(linop(tables, weights), {var: True}, evidence)
        query_errors.append(abs(got - want))
    return _suite([
        _verdict(CheckReport("oracle-consensus", "logop", 1e-9, tuple(state_errors)), "all-pass"),
        _row("oracle query-bound", bound_ok),
        _verdict(
            CheckReport("oracle-linop-query", "linop", 1e-12, tuple(query_errors)), "all-pass"
        ),
    ])
