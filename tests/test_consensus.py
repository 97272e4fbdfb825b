"""Consensus structure construction, consensus CPT filling via
per-agent queries, and arithmetic-pool queries.

The two-agent chain fixture has a closed-form geometric pool: state
masses proportional to sqrt of products of the agent joints. Every
frozen decimal below was computed from that closed form (rational
arithmetic plus one square root) before this module existed.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    ConsensusBn,
    Cpt,
    Dag,
    DegenerateCpt,
    DegenerateProduct,
    MarkovNet,
    MismatchedVariables,
    NotChordal,
    ZeroEvidence,
    bn_to_joint,
    consensus_bn_structure,
    linop,
    linop_query,
    logop,
    logop_consensus_bn,
    marginal,
)
from beliefpool.consensus import consensus_mn_structure
from beliefpool.joint import conditional_probability
from beliefpool.networks import is_decomposable
from beliefpool import inference
from beliefpool.pools import logistic, normalize_weights, pooled_log_odds
from beliefpool.axioms import chain_agents
from beliefpool.sampling import (
    random_bn,
    random_common_structure_bns,
    random_dag,
    random_weights,
)

CHAIN_A, CHAIN_B = chain_agents()

# Equal-weight geometric pool of the chain agents, by atomic state
# index (bit 0 = first variable): FF, TF, FT, TT.
CHAIN_LOGOP = (
    0.283649128467,
    0.185691943144,
    0.227425255024,
    0.303233673365,
)

# The same pool refactored along the first-variable-first chain rule.
P_NODE0 = 0.48892561650926825
P_NODE1_GIVEN_TRUE = 0.6202041028867289
P_NODE1_GIVEN_FALSE = 0.4449944320643649

# Each agent's conditional for node 0 given node 1 true: 1/7 and 32/35.
COND_A = 0.08 / (0.08 + 0.48)
COND_B = 0.64 / (0.64 + 0.06)


EXTREME_ROWS = (0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0)


def _support(bn):
    """States bn gives positive probability, free of underflow."""
    rows = [
        Cpt(c.owner, c.parents, [r if r in (0.0, 1.0) else 0.5 for r in c.rows])
        for c in bn.cpts
    ]
    return bn_to_joint(BayesNet(tuple(rows))).probs > 0.0


def _dense_is_exact(bn):
    """Whether bn_to_joint holds every positive state as a normal float."""
    probs = bn_to_joint(bn).probs
    return bool(np.all(probs[_support(bn)] >= np.finfo(float).tiny))


def _log_prob(bn, state):
    """log P(state) from the CPT rows, without a dense table."""
    total = 0.0
    for cpt in bn.cpts:
        p = cpt.rows[sum(1 << i for i, u in enumerate(cpt.parents) if state[u])]
        total += math.log(p if state[cpt.owner] else 1.0 - p)
    return total


def two_node_bn(p_first, p_second, labels=None):
    return BayesNet(
        (Cpt(0, (), (p_first,)), Cpt(1, (), (p_second,))), labels=labels
    )


class TestConsensusStructures:
    def test_mixed_model_kinds_union(self):
        bn = BayesNet((Cpt(0, (), (0.5,)), Cpt(1, (), (0.5,)), Cpt(2, (0, 1), (0.1,) * 4)))
        mn = MarkovNet(3, frozenset({(1, 2)}))
        got = consensus_mn_structure([bn, mn])
        # Moralizing the shared-child network marries 0 and 1.
        assert got.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_chain_pair_orientation(self):
        structure, order = consensus_bn_structure([CHAIN_A, CHAIN_B])
        assert order == (0, 1)
        # Node 0 is eliminated first, so its kept neighbor becomes its parent.
        assert structure.parents == ((1,), ())

    def test_outputs_always_decomposable(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = int(rng.integers(2, 8))
            agents = [random_bn(rng, m, max_parents=3) for _ in range(3)]
            structure, order = consensus_bn_structure(agents)
            assert is_decomposable(structure)
            assert set(order) == set(range(m))
            for agent in agents:
                assert agent.dag().skeleton() <= structure.skeleton()


def pool_event(false, true, weights=None):
    """(P(false), P(true)) of the logop of the agents' event masses."""
    false, true = np.asarray(false, float), np.asarray(true, float)
    w = normalize_weights(weights, false.size)
    p_false, p_true = logistic(pooled_log_odds(false, true, w))
    return float(p_false), float(p_true)


class TestSingleEventLogop:
    def test_half_and_point_eight(self):
        p_false, p_true = pool_event((0.5, 0.2), (0.5, 0.8))
        assert p_true == pytest.approx(2.0 / 3.0, abs=1e-12)
        # Same thing from the defining ratio of geometric means.
        raw_true = math.sqrt(0.5 * 0.8)
        raw_false = math.sqrt(0.5 * 0.2)
        assert p_true == pytest.approx(raw_true / (raw_true + raw_false), abs=1e-15)
        assert p_false == pytest.approx(raw_false / (raw_true + raw_false), abs=1e-15)

    def test_unanimity(self):
        for p in (0.1, 0.5, 0.73):
            got = pool_event((1.0 - p,) * 3, (p,) * 3)
            assert got == pytest.approx((1.0 - p, p), abs=1e-12)

    def test_single_agent(self):
        assert pool_event((0.7,), (0.3,), (1.0,)) == pytest.approx((0.7, 0.3))

    def test_weights_shift_the_answer(self):
        _, heavy_b = pool_event((0.5, 0.2), (0.5, 0.8), (0.1, 0.9))
        assert heavy_b > pool_event((0.5, 0.2), (0.5, 0.8))[1]

    def test_opposed_certainties_degenerate(self):
        # The event and its complement both pool to zero mass.
        got = pool_event((0.0, 1.0), (1.0, 0.0))
        assert math.isnan(got[0]) and math.isnan(got[1])


class TestRemoveChildConditioning:
    """A consensus row is the logistic of the pooled log-odds plus each
    finished child's log-ratio, log P(child | node false) - log
    P(child | node true)."""

    def test_no_children_even_odds(self):
        assert logistic(np.float64(0.0)) == (0.5, 0.5)

    def test_neutral_child_changes_nothing(self):
        log_odds = math.log(3.0)
        _, got = logistic(np.float64(log_odds + math.log(0.4) - math.log(0.4)))
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_zero_odds_is_a_sure_false(self):
        # Zero or infinite odds give a sure row, not a failure.
        assert logistic(np.float64(-math.inf)) == (1.0, 0.0)
        assert logistic(np.float64(math.inf)) == (0.0, 1.0)

    def test_zero_ratio_term_rejected(self):
        # Two agents from the extreme-row draws. Node 3's first row fails
        # on both outcomes of its children, the last time because a
        # finished consensus child row rounded to 0 or 1, which leaves
        # its log-ratio for node 3 undefined.
        sure = 1.0 - 1e-12
        first = BayesNet((
            Cpt(0, (1, 3), (0.7, 1e-300, 0.7, 0.5)),
            Cpt(1, (), (0.5,)),
            Cpt(2, (), (0.5,)),
            Cpt(3, (1, 2), (0.3, 1e-12, 0.5, 0.3)),
        ))
        second = BayesNet((
            Cpt(0, (), (1e-300,)),
            Cpt(1, (2,), (sure, sure)),
            Cpt(2, (0,), (1e-12, sure)),
            Cpt(3, (0, 2), (1e-300, 0.3, 0.7, 0.7)),
        ))
        with pytest.raises(DegenerateCpt, match="child CPT row of 0 or 1"):
            logop_consensus_bn([first, second])
        logop_consensus_bn([first, second], dense_oracle=True)

    def test_chain_trace_recovers_root_marginal(self):
        # Fix the child true, pool the agents' masses for node 0, then
        # add the child's consensus log-ratio. The result must equal the
        # pooled joint's node-0 marginal.
        log_odds = pooled_log_odds(
            np.array([1.0 - COND_A, 1.0 - COND_B]),
            np.array([COND_A, COND_B]),
            np.array([0.5, 0.5]),
        )
        log_odds += math.log(P_NODE1_GIVEN_FALSE) - math.log(P_NODE1_GIVEN_TRUE)
        _, got = logistic(log_odds)
        assert got == pytest.approx(P_NODE0, abs=1e-12)


class TestLogopConsensusBn:
    def test_identical_agents_reproduce_the_agent(self):
        result = logop_consensus_bn([CHAIN_A, CHAIN_A])
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, bn_to_joint(CHAIN_A).probs, atol=1e-12
        )

    def test_chain_fixture_joint(self):
        result = logop_consensus_bn([CHAIN_A, CHAIN_B])
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, CHAIN_LOGOP, atol=1e-9
        )

    def test_chain_fixture_chain_rule_values(self):
        result = logop_consensus_bn([CHAIN_A, CHAIN_B])
        dense = bn_to_joint(result.bn)
        assert marginal(dense, {0: True}) == pytest.approx(P_NODE0, abs=1e-9)
        assert conditional_probability(dense, {1: True}, {0: True}) == pytest.approx(
            P_NODE1_GIVEN_TRUE, abs=1e-9
        )
        assert conditional_probability(dense, {1: True}, {0: False}) == pytest.approx(
            P_NODE1_GIVEN_FALSE, abs=1e-9
        )

    def test_chain_fixture_query_count(self):
        result = logop_consensus_bn([CHAIN_A, CHAIN_B])
        # Two agents, one root row plus two rows for the directed edge.
        assert result.agent_queries == 6
        assert result.elimination_order == (0, 1)

    def test_matches_dense_pool_exactly(self):
        result = logop_consensus_bn([CHAIN_A, CHAIN_B])
        dense = logop([bn_to_joint(CHAIN_A), bn_to_joint(CHAIN_B)])
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, dense.probs, atol=1e-12
        )

    def test_single_agent_identity(self):
        result = logop_consensus_bn([CHAIN_B])
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, bn_to_joint(CHAIN_B).probs, atol=1e-12
        )

    def test_single_nondecomposable_agent(self):
        # A shared-child network is not decomposable; its consensus
        # re-expresses the same joint over the moralized structure.
        agent = BayesNet(
            (Cpt(0, (), (0.3,)), Cpt(1, (), (0.7,)), Cpt(2, (0, 1), (0.1, 0.6, 0.4, 0.9)))
        )
        result = logop_consensus_bn([agent])
        assert is_decomposable(result.bn)
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, bn_to_joint(agent).probs, atol=1e-9
        )

    def test_all_weight_on_one_agent(self):
        result = logop_consensus_bn([CHAIN_A, CHAIN_B], (0.0, 1.0))
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, bn_to_joint(CHAIN_B).probs, atol=1e-12
        )

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_structured_equals_dense_pool(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        agents = [random_bn(rng, m, max_parents=2) for _ in range(n)]
        w = random_weights(rng, n)
        result = logop_consensus_bn(agents, w)
        dense = logop([bn_to_joint(a) for a in agents], w)
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, dense.probs, atol=1e-9
        )
        q = max(len(ps) for ps in result.bn.dag().parents)
        assert result.agent_queries <= 2 * n * m * (1 << q)

    def test_shared_structure_query_count_pinned(self):
        # Pruning each VE query to its ancestral set must leave the
        # number of agent queries, the paper's unit, as it was.
        rng = np.random.default_rng(30)
        agents = random_common_structure_bns(rng, 30, 3, edge_prob=0.1, max_parents=2)
        w = random_weights(rng, 3)
        result = logop_consensus_bn(agents, w)
        assert result.agent_queries == 321
        factor = logop_consensus_bn(agents, w, dense_oracle=True)
        assert result.elimination_order == factor.elimination_order
        for got, want in zip(result.bn.cpts, factor.bn.cpts):
            assert got.parents == want.parents
            np.testing.assert_allclose(got.rows, want.rows, rtol=0, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=100_000), shared=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_positive_agents_need_no_elimination(self, seed, shared):
        # Each row asks every agent for one node given the node's consensus
        # neighbors, which cover the node's Markov blanket in that agent.
        # On strictly positive agents that query is closed-form.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11))
        n = int(rng.integers(1, 4))
        if shared:
            agents = random_common_structure_bns(rng, m, n, max_parents=2)
        else:
            agents = [random_bn(rng, m, max_parents=2) for _ in range(n)]
        assert all(a.strictly_positive for a in agents)
        with mock.patch.object(inference, "_run", wraps=inference._run) as run:
            result = logop_consensus_bn(agents, random_weights(rng, n))
        run.assert_not_called()
        assert result.agent_queries >= n * m

    def test_dense_oracle_path(self):
        queried = logop_consensus_bn([CHAIN_A, CHAIN_B])
        dense = logop_consensus_bn([CHAIN_A, CHAIN_B], dense_oracle=True)
        assert dense.agent_queries == 0
        np.testing.assert_allclose(
            bn_to_joint(queried.bn).probs, bn_to_joint(dense.bn).probs, atol=1e-12
        )

    @given(seed=st.integers(min_value=0, max_value=100_000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_oracle_on_extreme_rows(self, seed, data):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 4))
        agents = [
            BayesNet(tuple(
                Cpt(v, ps, data.draw(st.lists(
                    st.sampled_from(EXTREME_ROWS),
                    min_size=1 << len(ps), max_size=1 << len(ps),
                )))
                for v, ps in enumerate(random_dag(rng, m, max_parents=2).parents)
            ))
            for _ in range(n)
        ]
        w = list(random_weights(rng, n))
        w[data.draw(st.integers(0, n - 1))] = 0.0
        pooled = [a for a, wi in zip(agents, w) if wi > 0.0]
        if not np.logical_and.reduce([_support(a) for a in pooled]).any():
            with pytest.raises(DegenerateProduct):
                logop_consensus_bn(agents, w, dense_oracle=True)
            return
        result = logop_consensus_bn(agents, w, dense_oracle=True)
        # The dense reference is exact only while no positive agent
        # state probability underflows in bn_to_joint.
        if all(_dense_is_exact(a) for a in pooled):
            dense = logop([bn_to_joint(a) for a in agents], w)
            np.testing.assert_allclose(
                bn_to_joint(result.bn).probs, dense.probs, atol=1e-9
            )

    def test_dense_oracle_above_dense_capacity(self):
        rng = np.random.default_rng(40)
        agents = [
            random_bn(rng, 40, edge_prob=0.05, max_parents=2) for _ in range(3)
        ]
        w = random_weights(rng, 3)
        result = logop_consensus_bn(agents, w, dense_oracle=True)
        states = [rng.integers(0, 2, 40).astype(bool) for _ in range(20)]
        base = states[0]
        for state in states[1:]:
            want = sum(
                wi * (_log_prob(a, state) - _log_prob(a, base))
                for a, wi in zip(agents, w)
            )
            got = _log_prob(result.bn, state) - _log_prob(result.bn, base)
            assert got == pytest.approx(want, abs=1e-9)

    def test_dense_oracle_all_zero_product(self):
        sure = BayesNet((Cpt(0, (), (1.0,)), Cpt(1, (0,), (0.5, 0.5))))
        never = BayesNet((Cpt(0, (), (0.0,)), Cpt(1, (0,), (0.5, 0.5))))
        with pytest.raises(DegenerateProduct):
            logop([bn_to_joint(sure), bn_to_joint(never)])
        with pytest.raises(DegenerateProduct):
            logop_consensus_bn([sure, never], dense_oracle=True)

    def test_degenerate_row_raises_and_fallback_works(self):
        certain = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 1.0))))
        with pytest.raises(DegenerateCpt, match="dense_oracle"):
            logop_consensus_bn([certain, CHAIN_B])
        fallback = logop_consensus_bn([certain, CHAIN_B], dense_oracle=True)
        dense = logop([bn_to_joint(certain), bn_to_joint(CHAIN_B)])
        np.testing.assert_allclose(
            bn_to_joint(fallback.bn).probs, dense.probs, atol=1e-12
        )

    def test_mismatched_agents(self):
        one_node = BayesNet((Cpt(0, (), (0.5,)),))
        with pytest.raises(MismatchedVariables):
            logop_consensus_bn([CHAIN_A, one_node])

    def test_labels_carried(self):
        labeled_a = BayesNet(CHAIN_A.cpts, labels=("A1", "A2"))
        labeled_b = BayesNet(CHAIN_B.cpts, labels=("A1", "A2"))
        result = logop_consensus_bn([labeled_a, labeled_b])
        assert result.bn.labels == ("A1", "A2")

    def test_consensus_bn_must_be_decomposable(self):
        vee = BayesNet(
            (Cpt(0, (), (0.3,)), Cpt(1, (), (0.7,)), Cpt(2, (0, 1), (0.1, 0.6, 0.4, 0.9)))
        )
        with pytest.raises(NotChordal):
            ConsensusBn(vee, (0, 1, 2))


class TestLinopQuery:
    A = two_node_bn(0.5, 0.5, labels=("A1", "A2"))
    B = two_node_bn(0.8, 0.6, labels=("A1", "A2"))

    def test_single_variable_event(self):
        assert linop_query([self.A, self.B], {0: True}) == pytest.approx(0.65)

    def test_joint_event(self):
        got = linop_query([self.A, self.B], {0: True, 1: True})
        assert got == pytest.approx(0.365, abs=1e-12)

    def test_conditional_is_ratio_of_pooled_marginals(self):
        got = linop_query([self.A, self.B], {0: True}, {1: True})
        assert got == pytest.approx(0.365 / 0.55, abs=1e-12)

    def test_contradictory_event_is_zero(self):
        assert linop_query([self.A, self.B], {0: True}, {0: False}) == 0.0

    def test_event_implied_by_evidence(self):
        assert linop_query([self.A, self.B], {0: True}, {0: True}) == 1.0

    def test_zero_evidence(self):
        certain = two_node_bn(1.0, 0.5)
        with pytest.raises(ZeroEvidence):
            linop_query([certain, certain], {1: True}, {0: False})

    def test_single_agent_is_own_conditional(self):
        got = linop_query([CHAIN_B], {1: True}, {0: True})
        want = conditional_probability(bn_to_joint(CHAIN_B), {1: True}, {0: True})
        assert got == pytest.approx(want, abs=1e-15)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_pool_then_condition(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        agents = [random_bn(rng, m, max_parents=3) for _ in range(n)]
        w = random_weights(rng, n)
        variables = list(rng.permutation(m))
        event = {variables[0]: bool(rng.integers(0, 2))}
        evidence = {variables[1]: bool(rng.integers(0, 2))}
        got = linop_query(agents, event, evidence, w)
        dense = linop([bn_to_joint(a) for a in agents], w)
        want = conditional_probability(dense, event, evidence)
        assert got == pytest.approx(want, abs=1e-12)
