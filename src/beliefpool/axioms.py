"""Checkable pooling properties, worked fixtures, and witness searches.

Each property gets an instance type carrying the agent tables plus
whatever the property quantifies over, and a checker that returns a
violation magnitude. check_property applies one pool to many instances
and reports pass/fail against a tolerance. Expected-failure searches
(independence broken by pooling, order-dependent family aggregation)
live here too, alongside deterministic report suites for the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .consensus import linop_query, logop_consensus_bn
from .errors import DegenerateProduct, MalformedInstance, ZeroEvidence
from .joint import (
    JointTable,
    condition,
    conditional_probability,
    marginal,
    pairwise_dependence_gap,
    markov_dependence_gap,
    state_index,
)
from .networks import BayesNet, Cpt, bn_to_joint
from .pools import (
    POOL_NAMES, AggregationSpec, _stack, linop, logistic, logop,
    normalize_weights, pooled_log_odds,
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
# Property instances


@dataclass(frozen=True)
class UnanimityInstance:
    """All agents hold the identical table."""

    tables: tuple[JointTable, ...]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EventPoolInstance:
    """An event (set of state indices) to pool directly versus jointly."""

    tables: tuple[JointTable, ...]
    event: frozenset[int]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EvidenceInstance:
    """Evidence to condition on before versus after pooling."""

    tables: tuple[JointTable, ...]
    evidence: tuple[tuple[int, bool], ...]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class StatePairInstance:
    """Two belief profiles agreeing on states s and t agent by agent."""

    tables_p: tuple[JointTable, ...]
    tables_q: tuple[JointTable, ...]
    s: int
    t: int
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EventPairInstance:
    """Two events independent under every agent."""

    tables: tuple[JointTable, ...]
    event_a: frozenset[int]
    event_b: frozenset[int]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class VariablePairInstance:
    """Two variables pairwise independent under every agent."""

    tables: tuple[JointTable, ...]
    a: int
    b: int
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ProductInstance:
    """Every agent's table is a full product of its variable marginals."""

    tables: tuple[JointTable, ...]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class MarkovInstance:
    """Every agent has variable a independent of x given w."""

    tables: tuple[JointTable, ...]
    a: int
    w: tuple[int, ...]
    x: tuple[int, ...]
    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class FamilyInstance:
    """Two chain-rule orderings along which to pool conditional rows."""

    tables: tuple[JointTable, ...]
    ordering_a: tuple[int, ...]
    ordering_b: tuple[int, ...]
    weights: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# Checkers: each returns a violation magnitude (0 means the property held)

_PRODUCT_PRECONDITION_TOL = 1e-12


def _pooled(spec: AggregationSpec, inst, tables=None) -> JointTable:
    """Pool inst.tables (or tables) by spec.pool; inst.weights override spec's."""
    pool = linop if spec.pool == "linop" else logop
    return pool(inst.tables if tables is None else tables, inst.weights or spec.weights)


def _event_mass(table: JointTable, states: frozenset[int]) -> float:
    for s in states:
        if not 0 <= s < table.n_states:
            raise MalformedInstance(f"state index {s} out of range")
    if not states:
        return 0.0
    return float(table.probs[sorted(states)].sum())


def _product_gap(table: JointTable) -> float:
    """Largest deviation from the product of single-variable marginals."""
    indices = np.arange(table.n_states)
    expected = np.ones(table.n_states, dtype=np.float64)
    for j in range(table.m):
        p_true = marginal(table, {j: True})
        bit = ((indices >> j) & 1) == 1
        expected *= np.where(bit, p_true, 1.0 - p_true)
    return float(np.max(np.abs(table.probs - expected)))


def _require(kind, instance):
    if not isinstance(instance, kind):
        raise MalformedInstance(
            f"expected {kind.__name__}, got {type(instance).__name__}"
        )


def _preserved_gap(spec, inst, gap, hypothesis, tol=_PRODUCT_PRECONDITION_TOL) -> float:
    """The pooled table's gap, once every agent's gap is within tol."""
    if any(gap(t) > tol for t in inst.tables):
        raise MalformedInstance(hypothesis)
    return gap(_pooled(spec, inst))


def _unam_gap(spec: AggregationSpec, inst: UnanimityInstance) -> float:
    _require(UnanimityInstance, inst)
    first = inst.tables[0]
    for t in inst.tables[1:]:
        if t.m != first.m or not np.array_equal(t.probs, first.probs):
            raise MalformedInstance("unanimity needs identical agent tables")
    return float(np.max(np.abs(_pooled(spec, inst).probs - first.probs)))


def _mp_gap(spec: AggregationSpec, inst: EventPoolInstance) -> float:
    _require(EventPoolInstance, inst)
    w = normalize_weights(inst.weights or spec.weights, len(inst.tables))
    joint_route = _event_mass(_pooled(spec, inst), inst.event)
    true = np.array([_event_mass(t, inst.event) for t in inst.tables])
    if spec.pool == "linop":
        return abs(joint_route - float(w @ true))
    rest = frozenset(range(inst.tables[0].n_states)) - inst.event
    false = np.array([_event_mass(t, rest) for t in inst.tables])
    # No NaN here: the joint route has raised DegenerateProduct first.
    _, event_route = logistic(pooled_log_odds(false, true, w))
    return abs(joint_route - float(event_route))


def _eb_gap(spec: AggregationSpec, inst: EvidenceInstance) -> float:
    _require(EvidenceInstance, inst)
    evidence = dict(inst.evidence)
    try:
        pool_then_condition = condition(_pooled(spec, inst), evidence)
        condition_then_pool = _pooled(
            spec, inst, [condition(t, evidence) for t in inst.tables]
        )
    except ZeroEvidence as err:
        raise MalformedInstance(
            "evidence must have positive mass for every agent"
        ) from err
    return float(
        np.max(np.abs(pool_then_condition.probs - condition_then_pool.probs))
    )


def _pds_gap(spec: AggregationSpec, inst: StatePairInstance) -> float:
    _require(StatePairInstance, inst)
    if len(inst.tables_p) != len(inst.tables_q):
        raise MalformedInstance("profiles must have the same agent count")
    for tp, tq in zip(inst.tables_p, inst.tables_q):
        for state in (inst.s, inst.t):
            if not 0 <= state < min(tp.n_states, tq.n_states):
                raise MalformedInstance(f"state index {state} out of range")
            if abs(tp.probs[state] - tq.probs[state]) > 1e-15:
                raise MalformedInstance(
                    "profiles must agree on both distinguished states"
                )
    pooled_p = _pooled(spec, inst, inst.tables_p)
    pooled_q = _pooled(spec, inst, inst.tables_q)
    if pooled_p.probs[inst.t] <= 0.0 or pooled_q.probs[inst.t] <= 0.0:
        raise MalformedInstance("reference state t pooled to zero mass")
    ratio_p = pooled_p.probs[inst.s] / pooled_p.probs[inst.t]
    ratio_q = pooled_q.probs[inst.s] / pooled_q.probs[inst.t]
    return abs(float(ratio_p - ratio_q))


def _ipp_gap(spec: AggregationSpec, inst: EventPairInstance) -> float:
    _require(EventPairInstance, inst)
    both = inst.event_a & inst.event_b

    def gap(t: JointTable) -> float:
        return abs(
            _event_mass(t, both)
            - _event_mass(t, inst.event_a) * _event_mass(t, inst.event_b)
        )

    return _preserved_gap(
        spec, inst, gap, "events must be independent under every agent"
    )


def _pair_gap(spec: AggregationSpec, inst: VariablePairInstance) -> float:
    _require(VariablePairInstance, inst)
    return _preserved_gap(
        spec, inst,
        lambda t: pairwise_dependence_gap(t, inst.a, inst.b),
        "variables must be pairwise independent under every agent",
    )


def _meipp_gap(spec: AggregationSpec, inst: ProductInstance) -> float:
    _require(ProductInstance, inst)
    return _preserved_gap(
        spec, inst, _product_gap,
        "every agent table must be a full product of marginals",
    )


def _mipp_gap(spec: AggregationSpec, inst: MarkovInstance) -> float:
    _require(MarkovInstance, inst)
    return _preserved_gap(
        spec, inst,
        lambda t: markov_dependence_gap(t, inst.a, inst.w, inst.x),
        "conditional independence must hold for every agent",
        tol=1e-10,
    )


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
    if pool not in POOL_NAMES:
        raise MalformedInstance(f"pool must be one of {POOL_NAMES}, got {pool!r}")
    m, stacked = _stack(tables)
    if sorted(ordering) != list(range(m)):
        raise MalformedInstance("ordering must be a permutation of all variables")
    w = normalize_weights(weights, len(tables))
    # Axis 0 is the agent and axis k + 1 is ordering[k]: state index bit j
    # sits on axis m - j of the plain reshape.
    mass = stacked.reshape((len(tables),) + (2,) * m)
    mass = mass.transpose((0,) + tuple(m - v for v in ordering))
    joint = np.ones((2,) * m)
    for k in range(m):
        # Mass of (prefix context, node) per agent; axis i + 1 is ordering[i].
        family = mass.sum(axis=tuple(range(k + 2, m + 1)))
        context = family.sum(axis=-1, keepdims=True)
        dead = (context[..., 0] <= 0.0).any(axis=0)
        if pool == "linop":
            split = np.divide(family, context, out=np.zeros_like(family), where=context > 0.0)
            wk = w.reshape((-1,) + (1,) * (k + 1))
            # The weights' sum, and so a row of sure nodes, may round above 1.
            factor = np.minimum((wk * split).sum(axis=0), 1.0)
            bad = dead
        else:
            p_false, p_true = logistic(pooled_log_odds(family[..., 0], family[..., 1], w))
            factor = np.stack([p_false, p_true], axis=-1)
            bad = dead | np.isnan(p_true)
        # Row r's bit i is ordering[i], so Fortran order is row order.
        bad_rows = np.flatnonzero(bad.ravel(order="F"))
        if bad_rows.size:
            if dead.ravel(order="F")[bad_rows[0]]:
                raise MalformedInstance(
                    "every chain-rule context must have positive mass"
                )
            raise DegenerateProduct("event and complement both pooled to zero mass")
        joint *= factor.reshape(factor.shape + (1,) * (m - k - 1))
    # Back to state-index layout: variable j on axis m - 1 - j.
    return JointTable(m, joint.transpose(np.argsort(ordering)[::-1]).ravel())


def _fa_gap(spec: AggregationSpec, inst: FamilyInstance) -> float:
    _require(FamilyInstance, inst)
    weights = inst.weights or spec.weights
    joint_a = family_pooled_joint(spec.pool, inst.tables, inst.ordering_a, weights)
    joint_b = family_pooled_joint(spec.pool, inst.tables, inst.ordering_b, weights)
    return float(np.max(np.abs(joint_a.probs - joint_b.probs)))


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
        # rescale the remaining states so the table still sums to 1
        keep = base.probs[s] + base.probs[t]
        rest = [i for i in range(1 << m) if i not in (s, t)]
        other[rest] *= (1.0 - keep) / other[rest].sum()
        profile_p.append(base)
        profile_q.append(JointTable(m, other))
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


# property name -> (checker returning a violation, suite draw)
_PROPERTIES: dict[str, tuple[Callable, Callable]] = {
    "unam": (_unam_gap, _draw_unam),
    "mp": (_mp_gap, _draw_mp),
    "eb": (_eb_gap, _draw_eb),
    "pds": (_pds_gap, _draw_pds),
    "ipp": (_ipp_gap, _draw_ipp),
    "eipp": (_pair_gap, _draw_eipp),
    "meipp": (_meipp_gap, _draw_meipp),
    "nmeipp": (_pair_gap, _draw_nmeipp),
    "mipp": (_mipp_gap, _draw_mipp),
    "fa-consistency": (_fa_gap, _draw_fa),
}

PROPERTY_NAMES = tuple(_PROPERTIES)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class CaseResult:
    violation: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    prop: str
    pool: str
    tol: float
    cases: tuple[CaseResult, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.cases)

    @property
    def max_violation(self) -> float:
        return max((c.violation for c in self.cases), default=0.0)

    def summary(self) -> str:
        return (
            f"property={self.prop} pool={self.pool} tol={self.tol:.1e} "
            f"cases={len(self.cases)} passed={self.n_passed} "
            f"max_violation={self.max_violation:.3e}"
        )


def check_property(
    spec: AggregationSpec,
    prop: str,
    instances: Sequence,
    tol: float = 1e-9,
) -> CheckReport:
    """Measure one property of one pool across many instances.

    Instance weights take precedence over spec weights; with neither,
    agents are weighted equally. Raises MalformedInstance when an
    instance does not satisfy the property's hypothesis.
    """
    name = prop.lower()
    if name not in _PROPERTIES:
        raise MalformedInstance(f"unknown property {prop!r}; choose from {PROPERTY_NAMES}")
    checker, _ = _PROPERTIES[name]
    violations = [checker(spec, inst) for inst in instances]
    cases = tuple(CaseResult(v, v <= tol) for v in violations)
    return CheckReport(name, spec.pool, tol, cases)


# ---------------------------------------------------------------------------
# Worked fixtures

_STATE_ORDER = (
    state_index((True, True)),
    state_index((True, False)),
    state_index((False, True)),
    state_index((False, False)),
)


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
    if example_id not in _EXAMPLES:
        raise MalformedInstance(
            f"unknown example {example_id!r}; choose from {EXAMPLE_IDS}"
        )
    return _EXAMPLES[example_id]()


# ---------------------------------------------------------------------------
# Witness searches and negative controls


@dataclass(frozen=True)
class NmeippWitness:
    """A sampled agent pair whose geometric pool broke independence."""

    trial: int
    violation: float
    agents: tuple[BayesNet, BayesNet]


def search_nmeipp_violation(
    seed: int, trials: int = 100, threshold: float = 1e-6
) -> NmeippWitness | None:
    """Look for pairwise independence broken by geometric pooling.

    Samples shared-effect agent pairs (variables 0 and 1 independent
    for each agent but not mutually independent with variable 2) and
    returns the first whose pooled table has an independence gap above
    the threshold. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        agents = random_vstructure_pair(rng)
        tables = tuple(bn_to_joint(bn) for bn in agents)
        if any(pairwise_dependence_gap(t, 0, 1) > 1e-12 for t in tables):
            continue
        if all(_product_gap(t) <= 1e-9 for t in tables):
            continue  # mutually independent sample: hypothesis not met
        violation = pairwise_dependence_gap(logop(tables), 0, 1)
        if violation > threshold:
            return NmeippWitness(trial, violation, agents)
    return None


def linop_eb_break_witness(seed: int = 0) -> tuple[EvidenceInstance, float]:
    """Fixed-seed instance where arithmetic pooling fails to commute
    with conditioning."""
    rng = np.random.default_rng(seed)
    tables = (random_joint(rng, 3), random_joint(rng, 3))
    instance = EvidenceInstance(tables, ((0, True),))
    violation = _eb_gap(AggregationSpec("linop"), instance)
    return instance, violation


def logop_mp_break_witness(seed: int = 0) -> tuple[EventPoolInstance, float]:
    """Fixed-seed instance where geometric pooling fails to commute
    with event marginalization."""
    rng = np.random.default_rng(seed)
    tables = (random_joint(rng, 3), random_joint(rng, 3))
    event = frozenset(s for s in range(8) if s & 1)
    instance = EventPoolInstance(tables, event)
    violation = _mp_gap(AggregationSpec("logop"), instance)
    return instance, violation


# ---------------------------------------------------------------------------
# Deterministic report suites (used by the CLI check command)


def _suite_instances(prop: str, rng: np.random.Generator, trials: int):
    """Draw until trials instances are held; rejected draws are redrawn."""
    _, draw = _PROPERTIES[prop]
    out = []
    while len(out) < trials:
        instance = draw(rng)
        if instance is not None:
            out.append(instance)
    return out


# (pool, property, tolerance, expectation) for the standard suite.
_SUITE_PLAN: tuple[tuple[str, str, float, str], ...] = (
    ("linop", "unam", 1e-12, "all-pass"),
    ("logop", "unam", 1e-12, "all-pass"),
    ("linop", "mp", 1e-12, "all-pass"),
    ("logop", "mp", 1e-12, "some-fail"),
    ("linop", "eb", 1e-10, "some-fail"),
    ("logop", "eb", 1e-10, "all-pass"),
    ("linop", "pds", 1e-12, "all-pass"),
    ("logop", "pds", 1e-12, "all-pass"),
    ("linop", "ipp", 1e-9, "some-fail"),
    ("logop", "ipp", 1e-9, "all-pass"),
    ("linop", "eipp", 1e-12, "some-fail"),
    ("logop", "eipp", 1e-12, "all-pass"),
    ("linop", "meipp", 1e-9, "some-fail"),
    ("logop", "meipp", 1e-12, "all-pass"),
    ("linop", "nmeipp", 1e-6, "some-fail"),
    ("logop", "nmeipp", 1e-6, "some-fail"),
    ("linop", "mipp", 1e-9, "some-fail"),
    ("logop", "mipp", 1e-9, "all-pass"),
    ("linop", "fa-consistency", 1e-9, "some-fail"),
    ("logop", "fa-consistency", 1e-9, "some-fail"),
)


def run_axioms_suite(seed: int = 0, trials: int = 20) -> tuple[tuple[str, ...], bool]:
    """Property table for both pools plus the fixed negative controls.

    Returns deterministic report lines and whether every row matched
    its expected outcome.
    """
    lines: list[str] = []
    all_ok = True
    # Both pools of a property are checked on one draw: instances are immutable.
    drawn: dict[str, list] = {}
    for pool, prop, tol, expect in _SUITE_PLAN:
        if prop not in drawn:
            drawn[prop] = _suite_instances(prop, np.random.default_rng(seed), trials)
        report = check_property(AggregationSpec(pool), prop, drawn[prop], tol)
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
        _, violation = builder(0)
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
    witness = search_nmeipp_violation(seed=_FIG1D_SEED, trials=50)
    ok = witness is not None
    all_ok &= ok
    if witness is not None:
        lines.append(
            f"nmeipp-search seed={_FIG1D_SEED} witness trial={witness.trial} "
            f"violation={witness.violation:.3e} ok"
        )
    else:
        lines.append(f"nmeipp-search seed={_FIG1D_SEED} no witness UNEXPECTED")
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


def run_oracle_suite(
    seed: int = 0, trials: int = 25
) -> tuple[tuple[str, ...], bool]:
    """Structured consensus and pooled queries versus dense recomputation."""
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
        dense = logop([bn_to_joint(bn) for bn in agents], weights)
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
            linop([bn_to_joint(bn) for bn in agents], weights),
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
