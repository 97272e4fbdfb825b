"""Checkable pooling properties, worked fixtures, and negative controls.

Each property gets an instance type carrying the agent tables plus
whatever the property quantifies over, which checks each field where it
reads it and measures its violation magnitude under a pool.
check_property applies one pool to many instances and reports pass/fail
against a tolerance. Expected failures (independence broken by pooling,
order-dependent family aggregation) live here too, with deterministic
report suites for the CLI. Both pools check the same frozen instances,
so each instance keeps the agent-side values it works out
(cached_property): the hypothesis check, the conditioned agent tables,
the agents' event and prefix masses, each profile it pools stacked
once, its weights normalized once, its events as index arrays; both
pools' kernels (pools._linop_table, pools._logop_table) read them. A
check that raises keeps nothing and raises again. The suites check seed
and trials first; run_axioms_suite keeps one drawn instance at a time.

State indices, of the events and of StatePairInstance's two states,
have one check, _state_indices. Each event or variable-set field is
read once, as a set, into a cached property, so a generator there gives
what its frozenset gives and a state listed twice counts once.
family_pooled_joint makes one whole-array pass per ordering position,
for every agent and prefix context at once (_prefix_masses), and one
joint._contract call multiplies the positions' factors onto the state
axes.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from sys import float_info

import numpy as np

from .consensus import linop_query, logop_consensus_bn
from .errors import DegenerateProduct, MalformedInstance, ZeroEvidence
from .joint import (
    JointTable,
    _check_kind,
    _check_pair,
    _check_partition,
    _check_sequence,
    _contract,
    _factor_product,
    _markov_gap,
    _mass,
    _pairwise_gap,
    condition,
    conditional_probability,
    marginal,
    pairwise_dependence_gap,
    _trusted_table,
)
from .networks import BayesNet, Cpt, _check_order, bn_to_joint
from .pools import (
    POOL_NAMES, _linop_table, _logistic, _logop_table, _pooled_log_odds, _stack,
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


class _Agents:
    """The agents' profile, as _stack returns it, and normalized weights."""

    @cached_property
    def _profile(self) -> tuple[int, np.ndarray]:
        return _stack(self.tables)

    @cached_property
    def _w(self) -> np.ndarray:
        return normalize_weights(self.weights, len(self._profile[1]))

    def _pooled(self, pool: str, profile=None) -> JointTable:
        """The pool's table of a profile (m, stacked), the agents' by default."""
        m, stacked = self._profile if profile is None else profile
        return (_linop_table if pool == "linop" else _logop_table)(m, stacked, self._w)


def _state_indices(n_states: int, states) -> list[int]:
    """states as Python ints, in their order: the one check of state
    indices, MalformedInstance unless each is an integer in range."""
    try:
        indices = list(map(operator.index, states))
    except TypeError:
        raise MalformedInstance(f"state indices must be integers, got {states!r}") from None
    if indices and not (0 <= min(indices) and max(indices) < n_states):
        bad = min(indices) if min(indices) < 0 else max(indices)
        raise MalformedInstance(f"state index {bad} out of range")
    return indices


def _index_arrays(*events: set[int]) -> tuple[np.ndarray, ...]:
    """Each event, a set of checked state indices, as a sorted index array."""
    return tuple(np.array(sorted(event), dtype=np.intp) for event in events)


def _event_mass(table: JointTable, event: np.ndarray) -> float:
    """The table's mass on an event as _index_arrays returns it."""
    return float(table.probs[event].sum())


def _product_gap(table: JointTable) -> float:
    """Largest deviation from the product of single-variable marginals."""
    p_true = [_mass(table, {j: True}) for j in range(table.m)]  # table is checked
    expected = _factor_product(table.m, [((j,), (1.0 - p, p)) for j, p in enumerate(p_true)])
    return float(np.abs(table.probs - expected).max())


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
    def _event_masses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The event as _index_arrays returns it, read once (the field may
        be an iterator), and every agent's mass off it and on it."""
        n_states = self.tables[0].n_states
        event = set(_state_indices(n_states, self.event))
        event, rest = _index_arrays(event, set(range(n_states)) - event)
        true = np.array([_event_mass(t, event) for t in self.tables])
        return event, np.array([_event_mass(t, rest) for t in self.tables]), true

    def _violation(self, pool: str) -> float:
        # The pool checks the tables before the event is read against them.
        pooled = self._pooled(pool)
        event, false, true = self._event_masses
        joint_route = _event_mass(pooled, event)
        if pool == "linop":
            return abs(joint_route - float(self._w @ true))
        # No NaN here: the joint route has raised DegenerateProduct first.
        _, event_route = _logistic(_pooled_log_odds(false, true, self._w))
        return abs(joint_route - float(event_route))


@dataclass(frozen=True)
class EvidenceInstance(_Agents):
    """Evidence to condition on before versus after pooling."""

    tables: tuple[JointTable, ...]
    evidence: tuple[tuple[int, bool], ...]
    weights: tuple[float, ...] | None = None

    @cached_property
    def _conditioned(self) -> tuple[dict, tuple[int, np.ndarray]]:
        """The evidence as a mapping, and the conditioned agents' profile."""
        try:
            evidence = dict(self.evidence)
        except (TypeError, ValueError):
            raise MalformedInstance("evidence must be (variable, state) pairs") from None
        return evidence, _stack([condition(t, evidence) for t in self.tables])

    def _violation(self, pool: str) -> float:
        try:
            pooled = self._pooled(pool)
            evidence, conditioned = self._conditioned
            pool_then_condition = condition(pooled, evidence)
            condition_then_pool = self._pooled(pool, conditioned)
        except ZeroEvidence as err:
            raise MalformedInstance(
                "evidence must have positive mass for every agent"
            ) from err
        return float(np.abs(pool_then_condition.probs - condition_then_pool.probs).max())


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
        if (np.abs(p[:, [s, t]] - q[:, [s, t]]) > 1e-15).any():
            raise MalformedInstance("profiles must agree on both distinguished states")
        return s, t

    def _violation(self, pool: str) -> float:
        s, t = self._states
        p, q = self._pooled(pool).probs, self._pooled(pool, self._profile_q).probs
        if p[t] <= 0.0 or q[t] <= 0.0:
            raise MalformedInstance("reference state t pooled to zero mass")
        return abs(float(p[s] / p[t] - q[s] / q[t]))


class _PreservedProperty(_Agents):
    """Hypothesis: every agent's _gap is within _TOL; violation: the pool's."""

    _TOL = 1e-12

    @cached_property
    def _agents_within(self) -> bool:
        self._profile  # checks the tables
        return not any(self._gap(t) > self._TOL for t in self.tables)

    def _violation(self, pool: str) -> float:
        if not self._agents_within:
            raise MalformedInstance(self._HYPOTHESIS)
        return self._gap(self._pooled(pool))


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

    def _gap(self, t: JointTable) -> float:
        a, b, both = self._events
        p_a, p_b = _event_mass(t, a), _event_mass(t, b)
        return abs(_event_mass(t, both) - p_a * p_b)


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

    def _gap(self, t: JointTable) -> float:
        return _pairwise_gap(t, *self._pair)


@dataclass(frozen=True)
class ProductInstance(_PreservedProperty):
    """Every agent's table is a full product of its variable marginals."""

    tables: tuple[JointTable, ...]
    weights: tuple[float, ...] | None = None

    _HYPOTHESIS = "every agent table must be a full product of marginals"

    def _gap(self, t: JointTable) -> float:
        return _product_gap(t)


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

    def _gap(self, t: JointTable) -> float:
        return _markov_gap(t, *self._partition)


@dataclass(frozen=True)
class FamilyInstance(_Agents):
    """Two chain-rule orderings along which to pool conditional rows."""

    tables: tuple[JointTable, ...]
    ordering_a: tuple[int, ...]
    ordering_b: tuple[int, ...]
    weights: tuple[float, ...] | None = None

    @cached_property
    def _prefixes_a(self) -> list:
        return _prefix_masses(*self._profile, self.ordering_a)

    @cached_property
    def _prefixes_b(self) -> list:
        return _prefix_masses(*self._profile, self.ordering_b)

    def _violation(self, pool: str) -> float:
        prefixes_a = self._prefixes_a
        joint_a = _chain_rule_pool(pool, prefixes_a, self.ordering_a, self._w)
        joint_b = _chain_rule_pool(pool, self._prefixes_b, self.ordering_b, self._w)
        return float(np.abs(joint_a.probs - joint_b.probs).max())


# ---------------------------------------------------------------------------
# Pooling family by family


def _prefix_masses(m: int, stacked: np.ndarray, ordering: Sequence[int]) -> list:
    """Per ordering position k: each agent's mass (axis 0) of (prefix
    context, ordering[k]) and of the context, axis i + 1 being
    ordering[i], and which contexts some agent gives zero mass."""
    ordering = _check_order(m, ordering)
    # State index bit j sits on axis m - j of the plain reshape.
    mass = stacked.reshape((len(stacked),) + (2,) * m)
    mass = mass.transpose((0,) + tuple(m - v for v in ordering))
    prefixes = []
    for k in range(m):
        family = mass.sum(axis=tuple(range(k + 2, m + 1)))
        context = family.sum(axis=-1, keepdims=True)
        prefixes.append((family, context, (context[..., 0] <= 0.0).any(axis=0)))
    return prefixes


def family_pooled_joint(
    pool: str,
    tables: Sequence[JointTable],
    ordering: Sequence[int],
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
    prefixes = _prefix_masses(*_stack(tables), ordering)
    return _chain_rule_pool(pool, prefixes, ordering, normalize_weights(weights, len(tables)))


def _chain_rule_pool(pool: str, prefixes: list, ordering: Sequence[int], w) -> JointTable:
    """family_pooled_joint from _prefix_masses and normalized weights w."""
    factors = []
    for k, (family, context, dead) in enumerate(prefixes):
        if pool == "linop":
            split = np.divide(family, context, out=np.zeros(family.shape), where=context > 0.0)
            wk = w.reshape((-1,) + (1,) * (k + 1))
            # The weights' sum, and so a row of sure nodes, may round above 1.
            factor = np.minimum((wk * split).sum(axis=0), 1.0)
            bad = dead
        else:
            factor = np.empty(family.shape[1:])
            log_odds = _pooled_log_odds(family[..., 0], family[..., 1], w)
            factor[..., 0], factor[..., 1] = _logistic(log_odds)
            bad = dead | np.isnan(factor[..., 1])
        if bad.any():
            # Row r's bit i is ordering[i], so Fortran order is row order.
            first = np.flatnonzero(bad.ravel(order="F"))[0]
            if dead.ravel(order="F")[first]:
                raise MalformedInstance("every chain-rule context must have positive mass")
            raise DegenerateProduct("event and complement both pooled to zero mass")
        factors.append((ordering[: k + 1], factor))
    # State-index layout: variable j on axis m - 1 - j.
    m = len(prefixes)
    return _trusted_table(m, _contract(factors, range(m - 1, -1, -1)).ravel())


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
    if all(_product_gap(t) <= 1e-9 for t in tables):
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
        return max(self.violations, default=0.0)

    def summary(self) -> str:
        return (
            f"property={self.prop} pool={self.pool} tol={self.tol:.1e} "
            f"cases={len(self.violations)} passed={self.n_passed} "
            f"max_violation={self.max_violation:.3e}"
        )


def check_property(
    pool: str,
    prop: str,
    instances: Sequence,
    tol: float = 1e-9,
) -> CheckReport:
    """Measure one property of the named pool across many instances.

    Each instance pools with its own weights (None weights the agents
    equally). Raises MalformedInstance for an unknown pool, property or
    tol (a finite nonnegative number), instances that are not a sequence,
    or an instance of another type, outside its hypothesis or malformed.
    """
    check_pool_name(pool)
    name = prop.lower() if isinstance(prop, str) else None
    if name not in _PROPERTIES:
        raise MalformedInstance(f"unknown property {prop!r}; choose from {PROPERTY_NAMES}")
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 <= tol <= float_info.max):
        raise MalformedInstance(f"tol must be a finite nonnegative number, got {tol!r}")
    _check_sequence(instances, "instances")
    violations = []
    for inst in instances:
        _check_kind(inst, _PROPERTIES[name][0])
        violations.append(inst._violation(pool))
    return CheckReport(name, pool, float(tol), tuple(violations))


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
        f"  independence gap {gap:.3e} (geometric pooling preserved independence)",
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
        f"  per-agent independence gaps {agent_gaps[0]:.3e} {agent_gaps[1]:.3e}",
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
    violation = instance._violation("linop")
    return instance, violation


def logop_mp_break_witness() -> tuple[EventPoolInstance, float]:
    """Seed-0 instance where geometric pooling fails to commute with
    event marginalization."""
    rng = np.random.default_rng(0)
    tables = (random_joint(rng, 3), random_joint(rng, 3))
    event = frozenset(s for s in range(8) if s & 1)
    instance = EventPoolInstance(tables, event)
    violation = instance._violation("logop")
    return instance, violation


# ---------------------------------------------------------------------------
# Deterministic report suites (used by the CLI check command)


def _check_run(seed, trials) -> None:
    """The one check of a suite's arguments: MalformedInstance unless
    seed >= 0 and trials >= 1 are integers, a bool being neither."""
    for name, value, least in (("seed", seed, 0), ("trials", trials, 1)):
        if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
            raise MalformedInstance(f"{name} must be an integer >= {least}, got {value!r}")


def run_axioms_suite(seed: int = 0, trials: int = 20) -> tuple[tuple[str, ...], bool]:
    """Property table for both pools plus the fixed negative controls.

    Returns deterministic report lines and whether every row matched
    its expected outcome. Raises MalformedInstance as _check_run does.
    """
    _check_run(seed, trials)
    lines: list[str] = []
    all_ok = True
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
            report = CheckReport(prop, pool, tol, tuple(violations[pool]))
            ok = report.all_passed if expect == "all-pass" else not report.all_passed
            all_ok &= ok
            lines.append(
                f"{report.summary()} expected={expect} "
                f"{'ok' if ok else 'UNEXPECTED'}"
            )
    for name, builder in (
        ("linop-eb", linop_eb_break_witness),
        ("logop-mp", logop_mp_break_witness),
    ):
        _, violation = builder()
        ok = violation > 1e-6
        all_ok &= ok
        lines.append(
            f"negative-control {name} seed=0 violation={violation:.3e} "
            f"(want > 1e-06) {'ok' if ok else 'UNEXPECTED'}"
        )
    fig1d = reproduce_example("fig1d-logop")
    all_ok &= fig1d.ok
    lines.append(
        f"negative-control fig1d-logop seed={_FIG1D_SEED} "
        f"{'ok' if fig1d.ok else 'UNEXPECTED'}"
    )
    return tuple(lines), all_ok


def run_examples_suite() -> tuple[tuple[str, ...], bool]:
    """All worked fixtures, each verified against its frozen values."""
    lines: list[str] = []
    all_ok = True
    for example_id in EXAMPLE_IDS:
        report = reproduce_example(example_id)
        all_ok &= report.ok
        lines.extend(report.lines)
        lines.append(f"  {'ok' if report.ok else 'MISMATCH'}")
    return tuple(lines), all_ok


def run_oracle_suite(seed: int = 0, trials: int = 25) -> tuple[tuple[str, ...], bool]:
    """Structured consensus and pooled queries versus dense recomputation.
    Raises MalformedInstance as _check_run does."""
    _check_run(seed, trials)
    rng = np.random.default_rng(seed)
    max_consensus_err = 0.0
    max_query_err = 0.0
    bound_ok = True
    for _ in range(trials):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(2, 5))
        agents = [
            random_bn(rng, m, max_parents=2, edge_prob=0.4) for _ in range(n)
        ]
        weights = random_weights(rng, n)
        consensus = logop_consensus_bn(agents, weights)
        tables = [bn_to_joint(bn) for bn in agents]
        dense = logop(tables, weights)
        err = float(
            np.max(np.abs(bn_to_joint(consensus.bn).probs - dense.probs))
        )
        max_consensus_err = max(max_consensus_err, err)
        q = max(len(ps) for ps in consensus.bn.dag().parents)
        bound_ok &= consensus.agent_queries <= 2 * n * m * (1 << q)

        var = int(rng.integers(0, m))
        given = {int(rng.integers(0, m))}
        given.discard(var)
        evidence = {g: bool(rng.integers(0, 2)) for g in given}
        got = linop_query(agents, {var: True}, evidence, weights)
        want = conditional_probability(
            linop(tables, weights),
            {var: True},
            evidence,
        )
        max_query_err = max(max_query_err, abs(got - want))
    consensus_ok = max_consensus_err <= 1e-9
    query_ok = max_query_err <= 1e-12
    lines = (
        f"oracle consensus seed={seed} trials={trials} "
        f"max_state_error={max_consensus_err:.3e} (tol 1e-09) "
        f"{'ok' if consensus_ok else 'UNEXPECTED'}",
        f"oracle query-bound {'ok' if bound_ok else 'UNEXPECTED'}",
        f"oracle linop-query seed={seed} trials={trials} "
        f"max_error={max_query_err:.3e} (tol 1e-12) "
        f"{'ok' if query_ok else 'UNEXPECTED'}",
    )
    return lines, consensus_ok and query_ok and bound_ok
