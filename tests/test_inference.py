"""Exact network queries checked against dense-table enumeration."""

import contextlib
import importlib
import itertools
import math
import pkgutil
import re
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    CapacityExceeded,
    Cpt,
    MalformedInstance,
    UnknownVariable,
    ZeroEvidence,
    bn_to_joint,
    marginal,
)
import beliefpool
from beliefpool import cli, consensus, inference, joint
from beliefpool.consensus import consensus_bn_structure, linop_query
from beliefpool.inference import (
    _AGENT,
    _ancestral_set,
    _buckets,
    _weighted_product_cpts,
    query_conditional,
    query_event_marginal,
)
from beliefpool.joint import (
    _check_assignment,
    _contract,
    condition,
    conditional_probability,
    markov_dependence_gap,
    pairwise_dependence_gap,
)
from beliefpool.model_io import save_network
from beliefpool.networks import _cpt_factor, _min_fill_order, moralize
from beliefpool.sampling import random_bn, random_dag
from samplers import chain_bn, counted_planner, grid_bn

CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))


def random_assignment(rng, m, variables):
    return {int(j): bool(rng.integers(0, 2)) for j in variables}


def blanket(net, v):
    """The Markov blanket of v: its neighbors in the moral graph."""
    return sorted(moralize(net.dag()).adjacency()[v])


def descendants(net, v):
    children = net.dag().children
    seen, stack = set(), [v]
    while stack:
        for c in children[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return sorted(seen)


def with_extreme_rows(rng, net):
    """The network with about a quarter of its CPT rows set to 0 or 1."""
    cpts = []
    for cpt in net.cpts:
        rows = [
            float(rng.integers(0, 2)) if rng.random() < 0.25 else r
            for r in cpt.rows
        ]
        cpts.append(Cpt(cpt.owner, cpt.parents, tuple(rows)))
    return BayesNet(tuple(cpts))


# Four spellings of each state that every query must read alike.
STATE_SPELLINGS = (
    (False, True),
    (0, 1),
    (np.False_, np.True_),
    (np.int64(0), np.int64(1)),
)


def sparse_bn(rng):
    """Random network sparse enough that most queries prune nodes."""
    m = int(rng.integers(2, 13))
    return random_bn(rng, m, edge_prob=0.2, max_parents=2)


# 0 -> 1 -> 2 with node 1 always false, so node 2 is never true; node 3
# is a barren child of 0 that every query on 0..2 prunes.
ZERO_ANCESTOR = BayesNet((
    Cpt(0, (), (0.3,)),
    Cpt(1, (0,), (0.0, 0.0)),
    Cpt(2, (1,), (0.0, 0.5)),
    Cpt(3, (0,), (0.4, 0.9)),
))


# 0 -> 2 <- 1, 2 -> 3 <- 4, 3 -> 5; every row strictly inside (0, 1).
COLLIDER = BayesNet((
    Cpt(0, (), (0.3,)),
    Cpt(1, (), (0.6,)),
    Cpt(2, (0, 1), (0.1, 0.7, 0.4, 0.9)),
    Cpt(3, (2, 4), (0.2, 0.5, 0.8, 0.35)),
    Cpt(4, (), (0.45,)),
    Cpt(5, (3,), (0.25, 0.65)),
))

# 0 -> 1 is positive; node 3 of the separate component 2 -> 3 is never
# true, so any evidence 3 = true has probability zero.
ZERO_ELSEWHERE = BayesNet((
    Cpt(0, (), (0.3,)),
    Cpt(1, (0,), (0.2, 0.7)),
    Cpt(2, (), (0.5,)),
    Cpt(3, (2,), (0.0, 0.0)),
))


# Strictly positive rows at the edges of (0, 1), where products underflow.
EDGE_ROWS = (1e-300, 1e-12, 0.3, 0.5, 1 - 1e-12)


def with_edge_rows(rng, net):
    """The network with every CPT row drawn from EDGE_ROWS."""
    return BayesNet(tuple(
        Cpt(c.owner, c.parents, tuple(rng.choice(EDGE_ROWS, len(c.rows))))
        for c in net.cpts
    ))


def buckets_by_scan(scopes, order):
    """Oracle for inference._buckets: the loop it replaced, which finds
    each bucket by scanning every live factor."""
    scopes = list(scopes)
    live = list(range(len(scopes)))
    plan = []
    for v in order:
        bucket = [i for i in live if v in scopes[i]]
        live = [i for i in live if v not in scopes[i]]
        rest = tuple(sorted({u for i in bucket for u in scopes[i]} - {v}))
        plan.append((bucket, rest))
        live.append(len(scopes))
        scopes.append(rest)
    return plan, live


@st.composite
def factor_scopes(draw):
    """Sorted scopes over variables 0..m-1, empty ones included, each led
    by the agent label or none of them."""
    m = draw(st.integers(min_value=1, max_value=12))
    lead = (_AGENT,) if draw(st.booleans()) else ()
    variables = st.sets(st.integers(min_value=0, max_value=m - 1), max_size=4)
    return [lead + tuple(sorted(vs)) for vs in draw(st.lists(variables, max_size=15))]


class TestBuckets:
    def test_chain_by_hand(self):
        # Bucket 0 leaves factor 3, over (1,); bucket 1 factor 4, over
        # (2,); and bucket 2 factor 5, which reads no variable.
        plan, leftover = _buckets([(0,), (0, 1), (1, 2)], (0, 1, 2))
        assert plan == [([0, 1], (1,)), ([2, 3], (2,)), ([4], ())]
        assert leftover == [5]

    @given(scopes=factor_scopes(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan(self, scopes, data):
        adj = {v: set() for scope in scopes for v in scope if v != _AGENT}
        for scope in scopes:
            for u, w in itertools.combinations([v for v in scope if v != _AGENT], 2):
                adj[u].add(w)
                adj[w].add(u)
        orders = [[v for v, _ in _min_fill_order(adj)], data.draw(st.permutations(sorted(adj)))]
        for order in orders:
            assert _buckets(scopes, order) == buckets_by_scan(scopes, order)

    def test_chain_fill_time_grows_about_linearly(self):
        # The scan made the factor route's fill quadratic on a chain:
        # 12-15x from m=1,000 to m=4,000. Both sizes run in this process,
        # so the host's speed cancels out; the structure is not timed.
        rng = np.random.default_rng(0)
        best = {}
        for m in (1000, 4000):
            agents = [chain_bn(rng, m) for _ in range(2)]
            structure, order = consensus_bn_structure([a.dag() for a in agents])
            times = []
            for _ in range(3):
                start = time.perf_counter()
                _weighted_product_cpts(agents, np.array([0.5, 0.5]), structure, order)
                times.append(time.perf_counter() - start)
            best[m] = min(times)
        assert best[4000] < 8 * best[1000], best


class TestQueryConditional:
    def test_chain_by_hand(self):
        # P(1=T) = 0.2*0.4 + 0.8*0.6 = 0.56; Bayes gives P(0=T | 1=T).
        assert query_event_marginal(CHAIN, {1: True}) == pytest.approx(0.56)
        got = query_conditional(CHAIN, {0: True}, {1: True})
        assert got == pytest.approx(0.2 * 0.4 / 0.56)

    def test_empty_target_is_certain(self):
        assert query_conditional(CHAIN, {}) == 1.0
        assert query_conditional(CHAIN, {}, {1: True}) == 1.0

    def test_no_evidence_is_marginal(self):
        assert query_conditional(CHAIN, {1: True}) == pytest.approx(0.56)

    def test_overlapping_target_and_evidence_rejected(self):
        with pytest.raises(ValueError):
            query_conditional(CHAIN, {0: True}, {0: True})

    def test_non_integer_variable_rejected(self):
        # A float key must not be skipped: that answers P(0=T) = 0.2.
        with pytest.raises(UnknownVariable):
            query_conditional(CHAIN, {0: True}, {1.5: True})
        with pytest.raises(UnknownVariable):
            query_conditional(CHAIN, {0.5: True}, {1: True})
        with pytest.raises(UnknownVariable):
            query_conditional(CHAIN, {0: True}, {"1": True})
        with pytest.raises(UnknownVariable):
            query_conditional(CHAIN, {0: True}, {1.0: True})
        want = 0.2 * 0.4 / 0.56
        for key in (1, np.int64(1), np.int32(1), np.uint8(1)):
            got = query_conditional(CHAIN, {0: True}, {key: True})
            assert got == pytest.approx(want)
            got = query_conditional(CHAIN, {key - 1: True}, {1: True})
            assert got == pytest.approx(want)

    def test_out_of_range_variable_rejected(self):
        for bad in (-1, 2, np.int64(7)):
            with pytest.raises(UnknownVariable):
                query_conditional(CHAIN, {0: True}, {bad: True})
            with pytest.raises(UnknownVariable):
                query_conditional(CHAIN, {bad: True})

    def test_zero_evidence_raises(self):
        net = BayesNet((Cpt(0, (), (1.0,)), Cpt(1, (0,), (0.5, 0.5))))
        with pytest.raises(ZeroEvidence):
            query_conditional(net, {1: True}, {0: False})

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        net = random_bn(rng, m, max_parents=3)
        dense = bn_to_joint(net)

        n_target = int(rng.integers(1, 3))
        pool = list(rng.permutation(m))
        target = random_assignment(rng, m, pool[:n_target])
        n_evidence = int(rng.integers(0, 3))
        evidence = random_assignment(rng, m, pool[n_target : n_target + n_evidence])

        got = query_conditional(net, target, evidence)
        want = conditional_probability(dense, target, evidence)
        assert got == pytest.approx(want, abs=1e-12)


class TestPrunedQueries:
    def test_ancestral_set(self):
        assert _ancestral_set(ZERO_ANCESTOR, {2}) == [0, 1, 2]
        assert _ancestral_set(ZERO_ANCESTOR, {3}) == [0, 3]
        assert _ancestral_set(ZERO_ANCESTOR, set()) == []

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_sparse_network_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        net = sparse_bn(rng)
        m = net.m
        dense = bn_to_joint(net)
        pool = list(rng.permutation(m))
        n_target = int(rng.integers(0, 3))
        target = random_assignment(rng, m, pool[:n_target])
        n_evidence = int(rng.integers(0, 4))
        evidence = random_assignment(rng, m, pool[n_target : n_target + n_evidence])
        got = query_conditional(net, target, evidence)
        want = conditional_probability(dense, target, evidence)
        assert got == pytest.approx(want, abs=1e-12)
        event = {**evidence, **target}
        got = query_event_marginal(net, event)
        assert got == pytest.approx(marginal(dense, event), abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_evidence_on_descendants_only(self, seed):
        rng = np.random.default_rng(seed)
        net = sparse_bn(rng)
        dense = bn_to_joint(net)
        v = int(rng.integers(0, net.m))
        below = descendants(net, v)
        k = int(rng.integers(0, len(below) + 1))
        evidence = random_assignment(rng, net.m, rng.permutation(below)[:k])
        target = {v: bool(rng.integers(0, 2))}
        got = query_conditional(net, target, evidence)
        want = conditional_probability(dense, target, evidence)
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_target_and_empty_event(self):
        net = sparse_bn(np.random.default_rng(12))
        dense = bn_to_joint(net)
        evidence = {0: True, net.m - 1: False}
        assert query_conditional(net, {}, evidence) == 1.0
        assert conditional_probability(dense, {}, evidence) == pytest.approx(
            1.0, abs=1e-12
        )
        # No variable is asked about, so no CPT enters: exactly 1.
        assert query_event_marginal(net, {}) == 1.0
        assert marginal(dense, {}) == pytest.approx(1.0, abs=1e-12)

    def test_zero_evidence_through_ancestor_row(self):
        assert query_event_marginal(ZERO_ANCESTOR, {2: True}) == 0.0
        with pytest.raises(ZeroEvidence):
            query_conditional(ZERO_ANCESTOR, {0: True}, {2: True})
        with pytest.raises(ZeroEvidence):
            query_conditional(ZERO_ANCESTOR, {3: True}, {2: True, 0: False})
        with pytest.raises(ZeroEvidence):
            conditional_probability(bn_to_joint(ZERO_ANCESTOR), {0: True}, {2: True})

    def test_zero_evidence_in_separate_component(self):
        # The zero-mass evidence lies outside the component of the target;
        # its ancestral set still reaches it, so the query raises.
        with pytest.raises(ZeroEvidence):
            query_conditional(ZERO_ELSEWHERE, {0: True}, {3: True})
        with pytest.raises(ZeroEvidence):
            query_conditional(ZERO_ELSEWHERE, {1: False}, {0: True, 3: True})
        assert query_conditional(ZERO_ELSEWHERE, {0: True}, {1: True}) == (
            pytest.approx(0.3 * 0.7 / (0.3 * 0.7 + 0.7 * 0.2))
        )

    def test_positivity_and_children_are_kept(self):
        assert COLLIDER.strictly_positive
        assert not ZERO_ANCESTOR.strictly_positive
        assert not ZERO_ELSEWHERE.strictly_positive
        assert COLLIDER.dag().children is COLLIDER.dag().children

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_markov_blanket_evidence_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        net = sparse_bn(rng)
        v = int(rng.integers(0, net.m))
        evidence = random_assignment(rng, net.m, blanket(net, v))
        target = {v: bool(rng.integers(0, 2))}
        got = query_conditional(net, target, evidence)
        want = conditional_probability(bn_to_joint(net), target, evidence)
        assert got == pytest.approx(want, abs=1e-12)


class TestCptFactor:
    @pytest.mark.parametrize("k", range(6))
    def test_matches_per_entry_definition(self, k):
        rng = np.random.default_rng(k)
        owner, *parents = (int(v) for v in rng.permutation(k + 3)[: k + 1])
        cpt = Cpt(owner, tuple(parents), tuple(rng.random(1 << k)))
        axes, table = _cpt_factor(cpt.rows, cpt.owner, cpt.parents)
        assert axes == (owner, *parents[::-1])
        assert table.shape == (2,) * (k + 1)
        for bits in itertools.product((0, 1), repeat=k + 1):
            assignment = dict(zip(axes, bits))
            row = sum(1 << i for i, p in enumerate(parents) if assignment[p])
            p_true = cpt.rows[row]
            want = p_true if assignment[owner] else 1.0 - p_true
            assert table[bits] == want
        # One layout for every factor, so reductions over it run in one order.
        assert table.flags.c_contiguous

    def test_unsorted_parents(self):
        cpt = Cpt(2, (4, 0, 3), tuple(np.linspace(0.05, 0.95, 8)))
        axes, table = _cpt_factor(cpt.rows, cpt.owner, cpt.parents)
        assert axes == (2, 3, 0, 4)
        # Row 0b011 sets parents 4 and 0 true and parent 3 false.
        assert table[1, 0, 1, 1] == cpt.rows[0b011]
        assert table[0, 0, 1, 1] == 1.0 - cpt.rows[0b011]

    def test_leading_agent_axis(self):
        stacked = [(0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8), (0.9, 0.25, 0.75, 0.05)]
        axes, table = _cpt_factor(stacked, 0, (2, 1))
        assert axes == (0, 1, 2)
        assert table.shape == (3, 2, 2, 2)
        for agent, rows in enumerate(stacked):
            one_axes, one = _cpt_factor(rows, 0, (2, 1))
            assert one_axes == axes and np.array_equal(table[agent], one)

    @pytest.mark.parametrize("state", [True, False])
    def test_state_drops_the_owner_axis(self, state):
        stacked = [(0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8)]
        for rows in (stacked[0], stacked):
            axes, free = _cpt_factor(rows, 3, (0, 5))
            fixed_axes, fixed = _cpt_factor(rows, 3, (0, 5), state)
            assert axes == (3, 5, 0)
            assert fixed_axes == (5, 0)
            # The owner's axis is the first after any agent axis.
            assert np.array_equal(fixed, np.take(free, int(state), axis=-3))
        # A parentless node keeps only the agent axis, if any.
        axes, table = _cpt_factor((0.3,), 0, (), state)
        assert axes == () and table.shape == ()
        assert table == (0.3 if state else 1.0 - 0.3)
        assert _cpt_factor([(0.3,), (0.6,)], 0, (), state)[1].shape == (2,)

    def test_cpt_holds_plain_data(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in COLLIDER.cpts
        ))
        query_conditional(net, {2: True, 4: True}, {0: True})
        bn_to_joint(net)
        assert all(vars(cpt).keys() == {"owner", "parents", "rows"} for cpt in net.cpts)

    @staticmethod
    def contracted_variables(net, target, evidence):
        """The variables of every factor that elimination contracts."""
        with mock.patch.object(inference, "_contract", wraps=inference._contract) as spy:
            got = query_conditional(net, target, evidence)
        seen = {v for call in spy.call_args_list for vs, _ in call.args[0] for v in vs}
        return got, seen - {inference._AGENT, inference._LANE}

    def test_query_reads_only_ancestral_cpts(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in ZERO_ANCESTOR.cpts
        ))
        got, seen = self.contracted_variables(net, {2: True}, {})
        assert got == 0.0
        assert seen == {0, 1}  # node 3 is barren, node 2 assigned
        # Elimination reads rows; it builds no CPT's table.
        assert not any("table" in vars(cpt) for cpt in net.cpts)

    def test_positive_query_reads_only_ancestral_cpts(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in COLLIDER.cpts
        ))
        # Two targets take the factor route on a positive network too.
        target, evidence = {2: True, 4: True}, {0: True, 1: False, 3: True}
        got, seen = self.contracted_variables(net, target, evidence)
        assert seen == {2, 4}  # the targets, summed out of lane 1; node 5 is barren
        want = conditional_probability(bn_to_joint(net), target, evidence)
        assert got == pytest.approx(want, abs=1e-15)

    def test_blanket_query_builds_no_table(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in COLLIDER.cpts
        ))
        with mock.patch.object(inference, "_cpt_factor") as factor:
            query_conditional(net, {2: True}, {0: True, 1: False, 3: True, 4: False})
        factor.assert_not_called()


class TestQueryEventMarginal:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        net = random_bn(rng, m, max_parents=3)
        dense = bn_to_joint(net)
        k = int(rng.integers(1, m + 1))
        event = random_assignment(rng, m, rng.permutation(m)[:k])
        got = query_event_marginal(net, event)
        assert got == pytest.approx(marginal(dense, event), abs=1e-12)

    def test_empty_event(self):
        assert query_event_marginal(CHAIN, {}) == 1.0

    def test_non_integer_variable_rejected(self):
        for event in ({0.5: True}, {0: True, 1.0: False}, {None: True}):
            with pytest.raises(UnknownVariable):
                query_event_marginal(CHAIN, event)
        got = query_event_marginal(CHAIN, {np.int64(0): True, np.uint16(1): False})
        assert got == query_event_marginal(CHAIN, {0: True, 1: False})

    def test_full_instantiation(self):
        got = query_event_marginal(CHAIN, {0: True, 1: False})
        assert got == pytest.approx(0.2 * 0.6)

    def test_hub_bucket_past_einsum_operand_limit(self):
        # Eliminating the hub multiplies its prior with 70 child factors
        # in one bucket: more factors than one einsum call takes.
        n = 70
        q0 = [0.3 + 0.004 * i for i in range(n)]  # P(child i true | hub false)
        q1 = [0.8 - 0.003 * i for i in range(n)]  # P(child i true | hub true)
        net = BayesNet(
            (Cpt(0, (), (0.4,)),)
            + tuple(Cpt(i + 1, (0,), (q0[i], q1[i])) for i in range(n))
        )
        event = {i + 1: i % 3 != 0 for i in range(n)}

        def given_hub(q, skip=()):
            return math.prod(
                q[i] if event[i + 1] else 1.0 - q[i] for i in range(n) if i not in skip
            )

        want = 0.6 * given_hub(q0) + 0.4 * given_hub(q1)
        assert query_event_marginal(net, event) == pytest.approx(want, rel=1e-12)
        # Child 1 kept: the hub's bucket sums onto it.
        rest = {v: x for v, x in event.items() if v != 1}
        true = 0.6 * q0[0] * given_hub(q0, {0}) + 0.4 * q1[0] * given_hub(q1, {0})
        false = 0.6 * (1 - q0[0]) * given_hub(q0, {0}) + 0.4 * (1 - q1[0]) * given_hub(q1, {0})
        got = query_conditional(net, {1: True}, rest)
        assert got == pytest.approx(true / (true + false), rel=1e-12)


class TestAgainstJoint:
    """Both query routes against the dense joint, on any row values."""

    @staticmethod
    def check(net, target, evidence):
        dense = bn_to_joint(net)
        spelled = [
            (
                {v: spelling[x] for v, x in target.items()},
                {v: spelling[x] for v, x in evidence.items()},
            )
            for spelling in STATE_SPELLINGS
        ]
        want_event = marginal(dense, {**evidence, **target})
        for t, e in spelled:
            got = query_event_marginal(net, {**e, **t})
            assert got == pytest.approx(want_event, abs=1e-12)
        if marginal(dense, evidence) == 0.0:
            for t, e in spelled:
                with pytest.raises(ZeroEvidence):
                    query_conditional(net, t, e)
            return
        want = conditional_probability(dense, target, evidence)
        answers = {query_conditional(net, t, e) for t, e in spelled}
        assert len(answers) == 1
        assert answers.pop() == pytest.approx(want, abs=1e-12)

    @staticmethod
    def network(rng, extreme):
        net = random_bn(
            rng,
            int(rng.integers(2, 11)),
            edge_prob=float(rng.uniform(0.15, 0.5)),
            max_parents=3,
        )
        return with_extreme_rows(rng, net) if extreme else net

    @given(
        seed=st.integers(min_value=0, max_value=100_000), extreme=st.booleans()
    )
    @settings(max_examples=100, deadline=None)
    def test_blanket_evidence(self, seed, extreme):
        rng = np.random.default_rng(seed)
        net = self.network(rng, extreme)
        v = int(rng.integers(0, net.m))
        target = {v: int(rng.integers(0, 2))}
        evidence = {
            u: int(rng.integers(0, 2)) for u in blanket(net, v)
        }
        self.check(net, target, evidence)
        if net.strictly_positive:
            # The closed-form route runs no elimination.
            with mock.patch.object(inference, "_probabilities") as kernel:
                query_conditional(net, target, evidence)
            kernel.assert_not_called()

    @given(
        seed=st.integers(min_value=0, max_value=100_000), extreme=st.booleans()
    )
    @settings(max_examples=100, deadline=None)
    def test_partial_evidence(self, seed, extreme):
        rng = np.random.default_rng(seed)
        net = self.network(rng, extreme)
        order = [int(u) for u in rng.permutation(net.m)]
        n_target = int(rng.integers(1, 3))
        n_evidence = int(rng.integers(0, net.m - n_target + 1))
        target = {u: int(rng.integers(0, 2)) for u in order[:n_target]}
        evidence = {
            u: int(rng.integers(0, 2))
            for u in order[n_target : n_target + n_evidence]
        }
        self.check(net, target, evidence)


class TestBlanketConditional:
    """Single targets given their Markov blanket on positive networks,
    against the product of the CPTs of the target and its children."""

    @staticmethod
    def check(net, target, evidence):
        ((v, x),) = target.items()
        given = _check_assignment(net.m, evidence)
        # The CPTs of v and its children in increasing node order, each
        # restricted by the evidence to a factor over v alone.
        factors = []
        for u in sorted((v, *net.dag().children[v])):
            axes, table = _cpt_factor(net.cpts[u].rows, u, net.cpts[u].parents)
            index = tuple(int(given[w]) if w in given else slice(None) for w in axes)
            factors.append(((v,), table[index]))
        table = _contract(factors, (v,))
        total = float(table.sum())
        with mock.patch.object(inference, "_probabilities") as kernel:
            if total <= 0.0:
                with pytest.raises(ZeroEvidence):
                    query_conditional(net, target, evidence)
            else:
                got = query_conditional(net, target, evidence)
                assert got == float(table[x]) / total
        kernel.assert_not_called()

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_near_edges(self, seed):
        rng = np.random.default_rng(seed)
        net = with_edge_rows(rng, random_bn(
            rng,
            int(rng.integers(1, 11)),
            edge_prob=float(rng.uniform(0.15, 0.6)),
            max_parents=3,
        ))
        assert net.strictly_positive
        v = int(rng.integers(0, net.m))
        evidence = random_assignment(rng, net.m, blanket(net, v))
        rest = [u for u in range(net.m) if u != v and u not in evidence]
        extra = rng.permutation(rest)[: int(rng.integers(0, len(rest) + 1))]
        evidence.update(random_assignment(rng, net.m, extra))
        self.check(net, {v: int(rng.integers(0, 2))}, evidence)

    def test_underflow(self):
        # Node 0 with children 1, 2 and 3, each nearly never true.
        net = BayesNet((
            Cpt(0, (), (0.5,)),
            Cpt(1, (0,), (1e-300, 1e-300)),
            Cpt(2, (0,), (1e-300, 1e-12)),
            Cpt(3, (0,), (1e-300, 1e-300)),
        ))
        for x in (0, 1):
            # Both states underflow: the evidence reads as probability zero.
            self.check(net, {0: x}, {1: True, 2: True, 3: True})
            with pytest.raises(ZeroEvidence):
                query_conditional(net, {0: x}, {1: True, 2: True, 3: True})
            self.check(net, {0: x}, {1: True, 2: True, 3: False})
            self.check(net, {0: x}, {1: False, 2: False, 3: False})
        # Only the false state underflows; the true one is subnormal.
        assert query_conditional(net, {0: 1}, {1: True, 2: True, 3: False}) == 1.0
        assert query_conditional(net, {0: 0}, {1: True, 2: True, 3: False}) == 0.0


class TestConditionalRule:
    """Outside the closed form, P(target | evidence) is P(target and
    evidence) / P(evidence): one elimination, whose two lanes hold both."""

    @staticmethod
    def kernel_calls(net, target, evidence):
        """The answer, or ZeroEvidence, and the (evidence, target) pairs
        the kernel got."""
        with mock.patch.object(
            inference, "_probabilities", wraps=inference._probabilities
        ) as kernel:
            got = answer(query_conditional, net, target, evidence)
        return got, [(dict(call.args[1]), dict(call.args[2])) for call in kernel.call_args_list]

    def test_closed_form_makes_no_call(self):
        blanket = {0: True, 1: False, 3: True, 4: False}
        assert self.kernel_calls(COLLIDER, {2: True}, blanket)[1] == []

    def test_one_call_of_evidence_and_target(self):
        for net, target, evidence in (
            (COLLIDER, {2: True, 4: True}, {0: True, 1: False, 3: True}),
            (COLLIDER, {2: True}, {3: True}),  # the blanket is not covered
            (COLLIDER, {5: False}, {}),
            (COLLIDER, {}, {3: True, 5: False}),
            (ZERO_ELSEWHERE, {0: True}, {1: True}),  # not strictly positive
            (ZERO_ANCESTOR, {2: True}, {0: True}),  # P(target and evidence) = 0
        ):
            got, calls = self.kernel_calls(net, target, evidence)
            assert calls == [(evidence, target)]
            both, given = np.ldexp(*inference._probabilities((net,), evidence, target))[:, 0]
            assert got == both / given
            want = conditional_probability(bn_to_joint(net), target, evidence)
            assert got == pytest.approx(want, abs=1e-15)

    def test_zero_evidence_raises_after_one_call(self):
        for net, target, evidence in (
            (ZERO_ELSEWHERE, {0: True}, {3: True}),
            (ZERO_ELSEWHERE, {}, {3: True}),
            (ZERO_ANCESTOR, {0: True}, {2: True}),
        ):
            assert self.kernel_calls(net, target, evidence) == (
                ZeroEvidence, [(evidence, target)]
            )

    def test_lanes_are_the_two_event_marginals(self):
        # Lane 0 restricts by evidence and target, lane 1 by the evidence:
        # the two marginals, each eliminated alone. Targets 4 and 5 lie
        # outside the evidence's ancestral set, so they restrict too.
        for net, target, evidence in (
            (COLLIDER, {2: True, 4: True}, {0: True, 1: False, 3: True}),
            (COLLIDER, {5: False}, {}),
            (COLLIDER, {}, {3: True, 5: False}),
            (COLLIDER, {0: True, 5: False}, {3: True}),
            (ZERO_ANCESTOR, {2: True}, {0: True}),
        ):
            mantissas, exponents = inference._probabilities((net, net), evidence, target)
            assert mantissas.shape == exponents.shape == (2, 2)
            assert np.all((mantissas == 0) | ((0.5 <= mantissas) & (mantissas < 1)))
            lanes = np.ldexp(mantissas, exponents)
            assert np.array_equal(lanes[:, 0], lanes[:, 1])
            want = [
                query_event_marginal(net, {**evidence, **target}),
                query_event_marginal(net, evidence),
            ]
            np.testing.assert_allclose(lanes[:, 0], want, rtol=1e-14)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_empty_target_is_exactly_one(self, seed):
        rng = np.random.default_rng(seed)
        net = with_edge_rows(rng, sparse_bn(rng))
        k = int(rng.integers(0, net.m + 1))
        evidence = random_assignment(rng, net.m, rng.permutation(net.m)[:k])
        assert answer(query_conditional, net, {}, evidence) in (1.0, ZeroEvidence)

    def test_many_literals_stay_small(self):
        # 20 target literals on a sparse 40-node network: a table over the
        # targets would hold 2**20 floats, 8 MB.
        net = random_bn(np.random.default_rng(0), 40, edge_prob=0.05, max_parents=2)
        target = {v: v % 3 == 0 for v in range(0, 40, 2)}
        tracemalloc.start()
        try:
            got = query_conditional(net, target, {39: False})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        want = query_event_marginal(net, {**target, 39: False})
        assert got == want / query_event_marginal(net, {39: False})
        both, given = np.ldexp(*inference._probabilities((net,), {39: False}, target))[:, 0]
        assert got == both / given

    def test_many_literals_match_joint(self):
        net = random_bn(np.random.default_rng(0), 16, edge_prob=0.1, max_parents=2)
        target = {v: v % 3 == 0 for v in range(15)}
        got = query_conditional(net, target, {15: False})
        want = conditional_probability(bn_to_joint(net), target, {15: False})
        assert got == pytest.approx(want, rel=1e-12)


def answer(query, *args):
    """query(*args), or the ZeroEvidence it raises."""
    try:
        return query(*args)
    except ZeroEvidence:
        return ZeroEvidence


def long_evidence():
    """Recipe A: two random agents over the chain x0 -> ... -> x2999,
    evidence on the odd variables 1..1999 and the target x2003 = 1. The
    recipe draws evidence values for 400, 700 and then 1000 odd
    variables; this is the third draw."""
    rng = np.random.default_rng(0)
    agents = [chain_bn(rng, 3000) for _ in range(2)]
    for k in (400, 700, 1000):
        evidence = {v: bool(rng.integers(0, 2)) for v in range(1, 2 * k, 2)}
    return agents, evidence, {2003: True}


def chain_forward(bn, evidence, t):
    """log P(evidence) and log P(x_t = 1 and evidence) on a chain network
    with no evidence past t, by a forward pass that rescales each step's
    message to sum 1 and adds up the logs of the scales."""
    message, log_scale = np.array([1.0, 0.0]), 0.0  # x_-1 is false
    for v in range(t + 1):
        rows = bn.cpts[v].rows
        p_true = message @ (rows * 2 if len(rows) == 1 else rows)
        message = np.array([1.0 - p_true, p_true])
        if v in evidence:
            message[1 - evidence[v]] = 0.0
        log_scale += math.log(message.sum())
        message /= message.sum()
    return log_scale, log_scale + math.log(message[1])


class TestLongEvidence:
    """A thousand evidence literals on a chain split its restricted CPTs
    into a thousand components. Each agent's P(evidence), about 2^-1000,
    underflows as one product; as the components' mantissas and a sum of
    their exponents, the conditional keeps its value."""

    def test_query_conditional(self):
        agents, evidence, target = long_evidence()
        for bn in agents:
            log_evidence, log_joint = chain_forward(bn, evidence, 2003)
            assert log_evidence < -745  # exp underflows to 0
            got = query_conditional(bn, target, evidence)
            assert got == pytest.approx(math.exp(log_joint - log_evidence), abs=1e-9)

    def test_linop_query(self):
        agents, evidence, target = long_evidence()
        logs = np.array([chain_forward(bn, evidence, 2003) for bn in agents])
        scaled = np.exp(logs - logs[:, 0].max())
        want = scaled[:, 1].sum() / scaled[:, 0].sum()
        assert want == pytest.approx(0.288542, abs=5e-7)
        with mock.patch.object(
            consensus, "_probabilities", wraps=inference._probabilities
        ) as kernel:
            got = linop_query(agents, target, evidence)
        assert kernel.call_count == 1  # both agents share the chain
        assert got == pytest.approx(want, abs=1e-9)

    def test_cli_query(self, tmp_path, capsys):
        agents, evidence, target = long_evidence()
        labels = tuple(f"x{v}" for v in range(3000))
        paths = [str(tmp_path / f"{name}.json") for name in "ab"]
        for bn, path in zip(agents, paths):
            save_network(BayesNet(bn.cpts, labels), path)
        given = ",".join(f"x{v}={int(x)}" for v, x in evidence.items())
        code = cli.main(
            ["query", *paths, "--pool", "linop", "--event", "x2003=1", "--given", given]
        )
        assert (code, capsys.readouterr().out) == (0, "0.288542\n")


EXTREME_ROWS = (0.0, 1e-300, 1e-12, 1e-3, 0.3, 0.5, 1 - 1e-3, 1 - 1e-12, 1 - 1e-16, 1.0)


def exact_conditional(bn, target, evidence):
    """P(target | evidence) as a Fraction, by enumerating every state;
    None when P(evidence) is 0."""
    rows = [[Fraction(r) for r in cpt.rows] for cpt in bn.cpts]
    p_evidence = p_joint = Fraction(0)
    for state in itertools.product((0, 1), repeat=bn.m):
        if any(state[v] != x for v, x in evidence.items()):
            continue
        p = Fraction(1)
        for v, cpt in enumerate(bn.cpts):
            r = rows[v][sum(state[u] << i for i, u in enumerate(cpt.parents))]
            p *= r if state[v] else 1 - r
        p_evidence += p
        if all(state[v] == x for v, x in target.items()):
            p_joint += p
    return p_joint / p_evidence if p_evidence else None


class TestExtremeRows:
    """Recipe B: 5,000 small networks whose rows include 0, 1e-300 and
    1 - 1e-16, each queried once against a Fraction enumeration."""

    # The groups in which the two-elimination rule (P(evidence), then
    # P(target and evidence)) raised ZeroEvidence on positive evidence;
    # it also answered above 1 seven times, and missed by up to 2.99e-5.
    TWO_ELIMINATIONS_SPURIOUS = {
        73, 1366, 1386, 1446, 1687, 2003, 2029, 2075, 2156, 2471, 2542, 2631,
        2903, 3252, 3428, 3699, 3729, 3822, 4000, 4340, 4526, 4840,
    }

    def test_against_fractions(self):
        rng = np.random.default_rng(3)
        spurious, worst = set(), Fraction(0)
        for group in range(5000):
            m = int(rng.integers(2, 7))
            dag = random_dag(rng, m, edge_prob=0.6, max_parents=2)
            bn = BayesNet(tuple(
                Cpt(v, ps, tuple(rng.choice(EXTREME_ROWS, 1 << len(ps)).tolist()))
                for v, ps in enumerate(dag.parents)
            ))
            perm = rng.permutation(m)
            k = int(rng.integers(1, m + 1))
            vals = rng.integers(0, 2, m)
            target = {int(v): bool(vals[v]) for v in perm[:k]}
            evidence = {int(v): bool(vals[v]) for v in perm[k:]}
            want = exact_conditional(bn, target, evidence)
            got = answer(query_conditional, bn, target, evidence)
            if got is ZeroEvidence:
                if want is not None:
                    spurious.add(group)
                continue
            assert want is not None and 0.0 <= got <= 1.0, group
            worst = max(worst, abs(Fraction(got) - want))
        assert spurious <= self.TWO_ELIMINATIONS_SPURIOUS
        assert worst <= 2.99e-5


class TestAssignmentCheck:
    """_check_assignment hands back every mapping but the consensus fill's
    _Checked as a new dict of Python-int keys and bool values; the
    answers must not tell spellings apart, on either query route. Dense
    and network queries share it, so they reject the same keys and
    states with the same messages, and each public query checks each
    mapping it takes once."""

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        edge_rows=st.booleans(),
        cover_blanket=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_fast_and_normalizing_paths_agree(self, seed, edge_rows, cover_blanket):
        rng = np.random.default_rng(seed)
        net = random_bn(
            rng, int(rng.integers(1, 10)), edge_prob=float(rng.uniform(0.15, 0.6)), max_parents=3
        )
        if edge_rows:
            net = with_edge_rows(rng, net)
        v = int(rng.integers(0, net.m))
        rest = [u for u in rng.permutation(net.m).tolist() if u != v]
        if cover_blanket:  # the closed-form route
            around = blanket(net, v)
            rest = around + [u for u in rest if u not in around]
            n = int(rng.integers(len(around), len(rest) + 1))
        else:  # mostly the elimination route
            n = int(rng.integers(0, len(rest) + 1))
        target = {v: bool(rng.integers(0, 2))}
        evidence = random_assignment(rng, net.m, rest[:n])

        fast = answer(query_conditional, net, target, evidence)
        event = {**target, **evidence}
        for respell in (
            lambda a: {np.int64(u): int(x) for u, x in a.items()},
            lambda a: {u: np.bool_(x) for u, x in a.items()},
            lambda a: {np.uint8(u): np.uint8(x) for u, x in a.items()},
        ):
            normalized = _check_assignment(net.m, respell(evidence))
            assert normalized == evidence
            assert all(type(u) is int and type(x) is bool for u, x in normalized.items())
            slow = answer(query_conditional, net, respell(target), respell(evidence))
            assert fast is slow if fast is ZeroEvidence else fast == slow
            assert query_event_marginal(net, event) == query_event_marginal(net, respell(event))

    @given(m=st.integers(4, 9), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bad_keys_keep_their_messages(self, m, data):
        net = random_bn(np.random.default_rng(m), m)
        table = bn_to_joint(net)
        valid = data.draw(st.dictionaries(st.integers(0, 2), st.booleans(), max_size=3))
        for bad, message in (
            (3.0, "variable 3.0 is not an integer"),
            ("x", "variable 'x' is not an integer"),
            (np.float64(3.0), f"variable {np.float64(3.0)!r} is not an integer"),
            (-1, f"variable -1 outside range(0, {m})"),
            (m, f"variable {m} outside range(0, {m})"),
        ):
            assignment = {**valid, bad: True}
            for query, args in (
                (query_conditional, (net, assignment)),
                (query_conditional, (net, {}, assignment)),
                (query_event_marginal, (net, assignment)),
                (marginal, (table, assignment)),
                (condition, (table, assignment)),
                (conditional_probability, (table, assignment)),
                (conditional_probability, (table, {}, assignment)),
                (pairwise_dependence_gap, (table, bad, 0)),
                (markov_dependence_gap, (table, bad, (0,), (1,))),
            ):
                expected = re.escape(message)
                with pytest.raises(UnknownVariable, match=f"^{expected}$"):
                    query(*args)

    @given(
        m=st.integers(4, 9),
        data=st.data(),
        mapping=st.sampled_from(["dict", "subclass", "checked-subclass"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_public_queries_check_every_mapping(self, m, data, mapping):
        # Only the consensus fill's own joint._Checked skips the key checks;
        # a plain dict, a user dict subclass, even a subclass of _Checked,
        # keeps every check and message, and numpy-integer keys normalize.
        class UserAssignment(dict):
            pass

        class Sneaky(joint._Checked):
            pass

        kind = {"dict": dict, "subclass": UserAssignment, "checked-subclass": Sneaky}[mapping]
        net = random_bn(np.random.default_rng(m), m)
        target = data.draw(st.dictionaries(st.integers(0, m - 1), st.booleans(), max_size=2))
        evidence = data.draw(st.dictionaries(
            st.integers(0, m - 1).filter(lambda v: v not in target), st.booleans(), max_size=3
        ))
        for bad, message in (
            # Float keys that equal no valid key, which a dict would merge.
            (2.5, "variable 2.5 is not an integer"),
            (np.float64(0.5), f"variable {np.float64(0.5)!r} is not an integer"),
            (-1, f"variable -1 outside range(0, {m})"),
            (m, f"variable {m} outside range(0, {m})"),
        ):
            assignment = kind({**evidence, bad: True})
            expected = re.escape(message)
            for query, args in (
                (query_conditional, (net, kind(target), assignment)),
                (query_conditional, (net, assignment, kind())),
                (query_event_marginal, (net, assignment)),
            ):
                with pytest.raises(UnknownVariable, match=f"^{expected}$"):
                    query(*args)
        if target:
            overlap = kind({**evidence, next(iter(target)): True})
            with pytest.raises(
                MalformedInstance,
                match="^target and evidence must assign disjoint variables$",
            ):
                query_conditional(net, kind(target), overlap)
        want = answer(query_conditional, net, target, evidence)
        for spell in (kind, lambda a: kind({np.int64(v): x for v, x in a.items()})):
            got = answer(query_conditional, net, spell(target), spell(evidence))
            assert got is want if want is ZeroEvidence else got == want
            assert query_event_marginal(net, spell({**target, **evidence})) == (
                query_event_marginal(net, {**target, **evidence})
            )

    def test_one_check_per_mapping(self):
        # Every mapping's keys, and the variables of the two dependence
        # gaps, go through joint._check_variables once: _check_assignment
        # calls it. One spy at every binding of the name, so a check made
        # through any module counts.
        modules = [
            importlib.import_module(f"beliefpool.{info.name}")
            for info in pkgutil.iter_modules(beliefpool.__path__)
        ]
        bound = [mod for mod in modules if hasattr(mod, "_check_variables")]
        assert joint in bound
        rng = np.random.default_rng(3)
        agents = [random_bn(rng, 5, max_parents=2) for _ in range(5)]
        net, table = agents[0], bn_to_joint(agents[0])
        blanket_of_0 = {v: True for v in range(1, 5)}  # the closed form
        cases = [
            (1, marginal, (table, {0: True})),
            (1, condition, (table, {0: True})),
            (1, query_event_marginal, (net, {0: True, 2: False})),
            (1, pairwise_dependence_gap, (table, 0, 1)),
            (1, markov_dependence_gap, (table, 0, (1, 2), (3, 4))),
            (2, conditional_probability, (table, {0: True}, {1: False})),
            (2, conditional_probability, (table, {0: True})),
            (2, query_conditional, (net, {0: True}, {1: False})),
            (2, query_conditional, (net, {0: True}, blanket_of_0)),
            (2, query_conditional, (net, {0: True})),
        ] + [(2, linop_query, (agents[:n], {0: True}, {1: False})) for n in (1, 2, 5)]
        spy = mock.Mock(wraps=joint._check_variables)
        with contextlib.ExitStack() as stack:
            for mod in bound:
                stack.enter_context(mock.patch.object(mod, "_check_variables", spy))
            for calls, query, args in cases:
                spy.reset_mock()
                query(*args)
                assert spy.call_count == calls, (query.__name__, args)

    @pytest.mark.parametrize(
        "state",
        ["0", "1", None, float("nan"), 1.0, np.float64(0.0), 2, -1, np.int64(2), [1]],
        ids=repr,
    )
    def test_states_are_bools_or_0_1(self, state):
        net = random_bn(np.random.default_rng(4), 4)
        table = bn_to_joint(net)
        bad = {0: True, 2: state}
        message = f"^variable 2: state {re.escape(repr(state))} is not a bool, 0 or 1$"
        for query, args in (
            (marginal, (table, bad)),
            (condition, (table, bad)),
            (conditional_probability, (table, bad)),
            (conditional_probability, (table, {1: True}, bad)),
            (query_event_marginal, (net, bad)),
            (query_conditional, (net, bad)),
            (query_conditional, (net, {1: True}, bad)),
            (linop_query, ([net, net], {1: True}, bad)),
        ):
            with pytest.raises(MalformedInstance, match=message):
                query(*args)

    def test_assignments_are_mappings_and_none_evidence_is_none(self):
        net = random_bn(np.random.default_rng(5), 4)
        table = bn_to_joint(net)
        for bad in ([(0, True)], ((0, True),), {0}, None, 1):
            message = (
                "^an assignment must be a mapping of variables to states, "
                f"got {type(bad).__name__}$"
            )
            for query, args in (
                (marginal, (table, bad)),
                (condition, (table, bad)),
                (conditional_probability, (table, bad)),
                (query_event_marginal, (net, bad)),
                (query_conditional, (net, bad)),
                (linop_query, ([net], bad)),
            ) + (() if bad is None else (
                (conditional_probability, (table, {1: True}, bad)),
                (query_conditional, (net, {1: True}, bad)),
                (linop_query, ([net], {1: True}, bad)),
            )):
                with pytest.raises(MalformedInstance, match=message):
                    query(*args)
        for query, model in (
            (conditional_probability, table),
            (query_conditional, net),
            (lambda bn, t, e: linop_query([bn], t, e), net),
        ):
            assert query(model, {1: True}, None) == query(model, {1: True}, {})


class Contracted(Exception):
    """Raised by a stubbed _contract: the capacity check let the plan run."""


def contract_per_agent_only(factors, out):
    """_contract over factors that hold the agent axis alone, as for an
    assignment with nothing to sum out; Contracted for any other call."""
    factors = list(factors)
    if any(len(variables) > 1 for variables, _ in factors):
        raise Contracted
    return _contract(factors, out)


class TestCapacity:
    """Elimination checks each bucket, over every agent it answers for,
    against 2**MAX_DENSE_VARIABLES as min-fill forms it, so it stops at
    the first bucket over, before any _contract call. The grids have
    CPTs of at most four rows; _contract is stubbed, so a missing check
    fails the test instead of allocating."""

    CORNER = 26 * 26 - 1

    def test_far_corner_of_a_wide_grid_raises_before_contracting(self):
        grid = grid_bn(26)
        # The corner lies outside the ancestral set of the evidence on
        # variable 0, so the conditional restricts both, plans one
        # variable fewer than the marginal, and holds the lane axis only
        # in the corner's CPT and what its buckets leave.
        for query, args, step, total in (
            (query_event_marginal, (grid, {self.CORNER: True}), 500, 675),
            (query_conditional, (grid, {self.CORNER: True}, {0: False}), 499, 674),
            (linop_query, ([grid], {self.CORNER: True}), 500, 675),
        ):
            with mock.patch.object(
                inference, "_contract", side_effect=contract_per_agent_only
            ) as stub:
                with pytest.raises(CapacityExceeded) as exc:
                    query(*args)
            # One elimination per query, stopped before its first bucket.
            stub.assert_not_called()
            assert str(exc.value) == (
                f"the query's elimination is over the capacity of 2^24 entries at "
                f"bucket {step} of {total}: variable 165's bucket needs 25 variables, "
                f"2^25 entries"
            )

    @pytest.mark.parametrize("side", [15, 26])
    def test_targets_outside_the_evidence_ancestors_plan_nothing(self, side):
        # Every grid variable but the root is a target, none an ancestor
        # of the evidence on the root: each CPT is restricted, nothing is
        # left to sum out, and the answer is the product of the targets'
        # CPT entries, at side 26 too, whose corner alone is over capacity.
        grid = grid_bn(side)
        target = {v: True for v in range(1, side * side)}
        want = 1.0
        for cpt in grid.cpts[1:]:
            want *= cpt.rows[sum(1 << i for i, p in enumerate(cpt.parents) if p in target)]
        with mock.patch.object(inference, "_contract", side_effect=contract_per_agent_only):
            got = query_conditional(grid, target, {0: False})
            pooled = linop_query([grid] * 4, target, {0: False})
        assert 0.0 < want
        assert got == pytest.approx(want, rel=1e-12)
        assert pooled == pytest.approx(want, rel=1e-12)

    def test_lanes_multiply_only_their_buckets(self):
        # With the corner as evidence, 4 agents fill the widest bucket, of
        # 22 variables, to 2^24 entries. A target next to the corner, one
        # of its ancestors, puts both lanes in that bucket, over the
        # capacity, where two eliminations would each fit; a target apart
        # from the grid is restricted and keeps the lane axis out of it.
        net = BayesNet(grid_bn(15).cpts + (Cpt(225, (), (0.3,)),))
        corner = {15 * 15 - 1: True}
        with mock.patch.object(inference, "_contract", side_effect=contract_per_agent_only):
            with pytest.raises(Contracted):
                linop_query([net] * 4, {225: True}, corner)
            with pytest.raises(CapacityExceeded) as exc:
                linop_query([net] * 4, {223: True}, corner)
        assert str(exc.value) == (
            "the query's elimination is over the capacity of 2^24 entries at bucket 193 of "
            "224: variable 115's bucket needs 22 variables, 4 agents x 2 lanes x 2^22 entries"
        )

    def test_planner_stops_at_the_first_bucket_over(self):
        # The far corner of a 40 x 40 grid: the planner stops at bucket
        # 1,063 of the 1,599 variables left once the corner is assigned.
        steps = []
        with mock.patch.object(inference, "_min_fill_order", counted_planner(steps)):
            with pytest.raises(CapacityExceeded) as exc:
                query_event_marginal(grid_bn(40), {40 * 40 - 1: True})
        assert len(steps) == 1063 < 40 * 40 - 1
        v, nbrs = steps[-1]
        assert len(nbrs) + 1 == 28
        assert all(len(nbrs) + 1 <= 24 for _, nbrs in steps[:-1])
        assert str(exc.value) == (
            f"the query's elimination is over the capacity of 2^24 entries at "
            f"bucket 1063 of 1599: variable {v}'s bucket needs 28 variables, 2^28 entries"
        )

    def test_agents_multiply_the_bucket(self):
        # The far corner of a 15 x 15 grid needs a bucket of 22 variables:
        # 4 agents sharing the grid fill 2^24 entries, 5 are over.
        grid = grid_bn(15)
        corner = {15 * 15 - 1: True}
        with mock.patch.object(inference, "_contract", side_effect=contract_per_agent_only):
            with pytest.raises(Contracted):
                linop_query([grid] * 4, corner)
            with pytest.raises(CapacityExceeded) as exc:
                linop_query([grid] * 5, corner)
        assert str(exc.value) == (
            "the query's elimination is over the capacity of 2^24 entries at bucket "
            "193 of 224: variable 115's bucket needs 22 variables, 5 agents x 2^22 entries"
        )
