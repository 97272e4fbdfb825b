"""Exact network queries checked against dense-table enumeration."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    Cpt,
    UnknownVariable,
    ZeroEvidence,
    bn_to_joint,
    marginal,
)
from beliefpool import inference
from beliefpool.inference import (
    _ancestral_set,
    query_conditional,
    query_event_marginal,
)
from beliefpool.joint import conditional_probability
from beliefpool.sampling import random_bn

CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))


def random_assignment(rng, m, variables):
    return {int(j): bool(rng.integers(0, 2)) for j in variables}


def descendants(net, v):
    children = net.dag().children()
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
        assert COLLIDER.children == COLLIDER.dag().children()
        assert COLLIDER.children is COLLIDER.children

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_markov_blanket_evidence_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        net = sparse_bn(rng)
        v = int(rng.integers(0, net.m))
        evidence = random_assignment(rng, net.m, sorted(net.blankets[v]))
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
        assert cpt.family == tuple(sorted(parents + [owner]))
        for bits in itertools.product((0, 1), repeat=k + 1):
            assignment = dict(zip(cpt.family, bits))
            row = sum(1 << i for i, p in enumerate(parents) if assignment[p])
            p_true = cpt.rows[row]
            want = p_true if assignment[owner] else 1.0 - p_true
            assert cpt.table[bits] == want

    def test_unsorted_parents(self):
        cpt = Cpt(2, (4, 0, 3), tuple(np.linspace(0.05, 0.95, 8)))
        assert cpt.family == (0, 2, 3, 4)
        # Row 0b011 sets parents 4 and 0 true and parent 3 false.
        assert cpt.table[1, 1, 0, 1] == cpt.rows[0b011]
        assert cpt.table[1, 0, 0, 1] == 1.0 - cpt.rows[0b011]

    def test_table_rejects_writes(self):
        cpt = Cpt(1, (0,), (0.6, 0.4))
        assert cpt.table is cpt.table
        with pytest.raises(ValueError):
            cpt.table[0, 0] = 0.5
        assert cpt.table[0, 0] == pytest.approx(0.4)

    def test_query_builds_only_ancestral_tables(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in ZERO_ANCESTOR.cpts
        ))
        assert query_conditional(net, {2: True}) == 0.0
        built = [v for v, cpt in enumerate(net.cpts) if "table" in vars(cpt)]
        assert built == [0, 1, 2]  # node 3 is barren

    def test_positive_query_builds_only_ancestral_tables(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in COLLIDER.cpts
        ))
        # Two targets take the factor route on a positive network too.
        target, evidence = {2: True, 4: True}, {0: True, 1: False, 3: True}
        query_conditional(net, target, evidence)
        built = [v for v, cpt in enumerate(net.cpts) if "table" in vars(cpt)]
        assert built == [0, 1, 2, 3, 4]  # node 5 is barren

    def test_blanket_query_builds_no_table(self):
        net = BayesNet(tuple(
            Cpt(c.owner, c.parents, c.rows) for c in COLLIDER.cpts
        ))
        query_conditional(net, {2: True}, {0: True, 1: False, 3: True, 4: False})
        assert not any("table" in vars(cpt) for cpt in net.cpts)


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


class TestAgainstJoint:
    """Both VE branches against the dense joint, on any row values."""

    def test_branches(self):
        with mock.patch.object(
            inference, "min_fill_order", wraps=inference.min_fill_order
        ) as order:
            blanket = {0: True, 1: False, 3: True, 4: False}
            query_conditional(COLLIDER, {2: True}, blanket)
            assert order.call_count == 0
            # Two targets take the factor route; every factor left after
            # the evidence lies inside them, so nothing is eliminated.
            query_conditional(COLLIDER, {2: True, 4: True}, {0: 1, 1: 0, 3: 1})
            assert order.call_count == 0
            query_conditional(COLLIDER, {2: True}, {3: True})
            assert order.call_count == 1

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
            u: int(rng.integers(0, 2)) for u in sorted(net.blankets[v])
        }
        self.check(net, target, evidence)
        if net.strictly_positive:
            # The closed-form route computes no elimination order.
            with mock.patch.object(
                inference, "min_fill_order", wraps=inference.min_fill_order
            ) as order:
                query_conditional(net, target, evidence)
            order.assert_not_called()

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
    against elimination over the CPTs of the target and its children."""

    @staticmethod
    def check(net, target, evidence):
        ((v, x),) = target.items()
        given = inference._check_assignment(net, evidence)
        nodes = sorted((v, *net.children[v]))
        result = inference._run(net, given, {v}, nodes)
        total = float(result.table.sum())
        with mock.patch.object(inference, "_run") as run:
            if total <= 0.0:
                with pytest.raises(ZeroEvidence):
                    query_conditional(net, target, evidence)
            else:
                got = query_conditional(net, target, evidence)
                assert got == float(result.table[x]) / total
        run.assert_not_called()

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
        evidence = random_assignment(rng, net.m, sorted(net.blankets[v]))
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
