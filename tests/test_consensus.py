"""Consensus structure construction, consensus CPT filling via
per-agent queries, and arithmetic-pool queries.

The two-agent chain fixture has a closed-form geometric pool: state
masses proportional to sqrt of products of the agent joints. Every
frozen decimal below was computed from that closed form (rational
arithmetic plus one square root) before this module existed.
"""

import itertools
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    CapacityExceeded,
    ConsensusBn,
    Cpt,
    Dag,
    DegenerateCpt,
    DegenerateProduct,
    MalformedInstance,
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
    logop_query,
    marginal,
)
from beliefpool.inference import query_conditional
from beliefpool.joint import conditional_probability
from beliefpool.model_io import json_text, network_to_dict
from beliefpool.networks import mn_union, moralize
from beliefpool import consensus, inference, joint
from beliefpool.pools import _logistic, _pooled_log_odds, normalize_weights
from beliefpool.axioms import chain_agents
from beliefpool.sampling import random_bn, random_dag, random_weights

from reference_fill import reference_fill
from samplers import (
    chain_bn, counted_planner, random_common_structure_bns, random_tree_bn, wide_agents,
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


class Filled(Exception):
    """Raised by a stubbed fill: the build got past its capacity check."""


class TestCapacity:
    """The structure stops at the first min-fill step whose consensus rows
    so far, times the pooled agents on the query route, pass
    2**MAX_DENSE_VARIABLES, so no fill starts and min-fill does not run
    to the end."""

    def test_wide_consensus_raises_before_either_fill(self):
        agents = wide_agents()
        for dense_oracle, families, size, owner, parents in (
            (False, 30, "3 agents x 6571984 CPT rows = 19715952 rows", 39, 22),
            (True, 31, "73680848 CPT rows", 59, 26),
        ):
            # Stubbed fills: a missing check fails the test, never allocates.
            with mock.patch.object(consensus, "_structured_cpts") as by_query, \
                    mock.patch.object(consensus, "_weighted_product_cpts") as by_product:
                with pytest.raises(CapacityExceeded) as exc:
                    logop_consensus_bn(agents, dense_oracle=dense_oracle)
            by_query.assert_not_called()
            by_product.assert_not_called()
            assert str(exc.value) == (
                f"the consensus is over the capacity of 2^24 rows: its first "
                f"{families} of 64 families need {size}; the last is variable "
                f"{owner} with {parents} parents"
            )

    def test_random_trees_stop_before_the_last_step(self):
        # Two agents on unrelated random trees over 1,000 variables: their
        # union triangulates into families of over a hundred parents, and the
        # build stops at step 769 rather than eliminating all 1,000.
        rng = np.random.default_rng(2)
        agents = [random_tree_bn(rng, 1000) for _ in range(2)]
        steps = []
        with mock.patch.object(consensus, "_min_fill_order", counted_planner(steps)):
            with pytest.raises(CapacityExceeded) as exc:
                logop_consensus_bn(agents)
        assert len(steps) == 769 < 1000
        rows = sum(1 << len(nbrs) for _, nbrs in steps)
        assert 2 * (rows - (1 << len(steps[-1][1]))) <= 1 << 24 < 2 * rows
        v, nbrs = steps[-1]
        assert str(exc.value) == (
            f"the consensus is over the capacity of 2^24 rows: its first 769 of "
            f"1000 families need 2 agents x {rows} CPT rows = {2 * rows} rows; "
            f"the last is variable {v} with {len(nbrs)} parents"
        )

    def test_agents_multiply_the_query_route_rows(self):
        # 24 roots, then one node with 23 of them as parents: the consensus
        # marries those parents into a clique of 24, whose families hold
        # 2**24 - 1 rows, and the last root adds one: 2**24 rows, exactly
        # the capacity of one copy, the factor route's. The query route's
        # two agents are over it at the clique's second family.
        labels = tuple(f"v{i}" for i in range(25))
        wide = random_bn(
            np.random.default_rng(0), 25, dag=Dag(25, ((),) * 24 + (tuple(range(23)),))
        )
        roots = random_bn(np.random.default_rng(1), 25, dag=Dag(25, ((),) * 25))
        agents = [BayesNet(bn.cpts, labels) for bn in (wide, roots)]
        with mock.patch.object(consensus, "_weighted_product_cpts", side_effect=Filled):
            with pytest.raises(Filled):
                logop_consensus_bn(agents, dense_oracle=True)
        with mock.patch.object(consensus, "_structured_cpts") as by_query:
            with pytest.raises(CapacityExceeded) as exc:
                logop_consensus_bn(agents)
        by_query.assert_not_called()
        assert str(exc.value) == (
            "the consensus is over the capacity of 2^24 rows: its first 2 of 25 "
            "families need 2 agents x 12582912 CPT rows = 25165824 rows; the last "
            "is variable v1 with 22 parents"
        )


class TestConsensusStructures:
    def test_mixed_model_kinds_union(self):
        bn = BayesNet((Cpt(0, (), (0.5,)), Cpt(1, (), (0.5,)), Cpt(2, (0, 1), (0.1,) * 4)))
        dag = Dag(3, ((), (), (1,)))
        structure, _ = consensus_bn_structure([bn, dag])
        # Moralizing the shared-child network marries 0 and 1.
        assert structure.skeleton() == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_undirected_input_rejected(self):
        # A MarkovNet is no agent structure: only Dags and BayesNets are.
        with pytest.raises(MalformedInstance, match="expected a Dag or a BayesNet, got MarkovNet"):
            consensus_bn_structure([CHAIN_A, MarkovNet(2, frozenset({(0, 1)}))])

    def test_shared_structure_moralized_once(self):
        rng = np.random.default_rng(5)
        agents = random_common_structure_bns(rng, 12, 3, max_parents=2)
        with mock.patch.object(consensus, "moralize", wraps=moralize) as moral:
            structure, _ = consensus_bn_structure([a.dag() for a in agents])
        assert moral.call_count == 1
        assert moralize(agents[0]).edges <= structure.skeleton()

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
            # ConsensusBn raises unless order orients structure perfectly.
            ConsensusBn(random_bn(np.random.default_rng(0), m, dag=structure), order)
            assert set(order) == set(range(m))
            for agent in agents:
                assert agent.dag().skeleton() <= structure.skeleton()

    def test_long_chain_builds_and_answers(self):
        # Two agents over a chain of 20,000 variables: the structure is
        # the chain again, and linop_query of the last variable given the
        # first equals the agents' own forward pass.
        m = 20_000
        rng = np.random.default_rng(3)
        agents = [chain_bn(rng, m) for _ in range(2)]
        structure, order = consensus_bn_structure([a.dag() for a in agents])
        assert structure.skeleton() == agents[0].dag().skeleton()
        joint_mass, first_mass = [], []
        for agent in agents:
            p = 1.0  # P(x_v = 1 | x_0 = 1) along the chain
            for cpt in agent.cpts[1:]:
                p = p * cpt.rows[1] + (1.0 - p) * cpt.rows[0]
            first = agent.cpts[0].rows[0]
            joint_mass.append(first * p)
            first_mass.append(first)
        got = linop_query(agents, {m - 1: True}, {0: True}, (0.3, 0.7))
        expected = (0.3 * joint_mass[0] + 0.7 * joint_mass[1]) / (
            0.3 * first_mass[0] + 0.7 * first_mass[1]
        )
        assert got == pytest.approx(expected, rel=1e-9)

    def test_chain_structure_time_grows_about_linearly(self):
        # min-fill's pick scanned every vertex, so the structure was
        # quadratic on a chain: 13-16x from m=2,000 to m=8,000. Both
        # sizes run in this process, so the host's speed cancels out.
        rng = np.random.default_rng(0)
        best = {}
        for m in (2000, 8000):
            dags = [chain_bn(rng, m).dag() for _ in range(2)]
            times = []
            for _ in range(3):
                start = time.perf_counter()
                consensus_bn_structure(dags)
                times.append(time.perf_counter() - start)
            best[m] = min(times)
        assert best[8000] < 8 * best[2000], best


def pool_event(false, true, weights=None):
    """(P(false), P(true)) of the logop of the agents' event masses."""
    false, true = np.asarray(false, float), np.asarray(true, float)
    w = normalize_weights(weights, false.size)
    p_false, p_true = _logistic(_pooled_log_odds(false, true, w))
    return float(p_false), float(p_true)


class TestPooledLogOdds:
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


class TestChildLogRatios:
    """A consensus row is the logistic of the pooled log-odds plus each
    finished child's log-ratio, log P(child | node false) - log
    P(child | node true)."""

    def test_no_children_even_odds(self):
        assert _logistic(np.float64(0.0)) == (0.5, 0.5)

    def test_neutral_child_changes_nothing(self):
        log_odds = math.log(3.0)
        _, got = _logistic(np.float64(log_odds + math.log(0.4) - math.log(0.4)))
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_zero_odds_is_a_sure_false(self):
        # Zero or infinite odds give a sure row, not a failure.
        assert _logistic(np.float64(-math.inf)) == (1.0, 0.0)
        assert _logistic(np.float64(math.inf)) == (0.0, 1.0)

    def test_extreme_child_rows_build(self):
        # Two agents from the extreme-row draws. A finished consensus
        # child row of node 3 rounds to 1.0 as a float, so a log-ratio
        # taken from the rounded rows is undefined; taken from the
        # child's log-odds it is finite, and the group builds.
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
        queried = logop_consensus_bn([first, second])
        factor = logop_consensus_bn([first, second], dense_oracle=True)
        for got, want in zip(queried.bn.cpts, factor.bn.cpts):
            assert got.parents == want.parents
            np.testing.assert_allclose(got.rows, want.rows, rtol=0, atol=1e-9)

    def test_chain_trace_recovers_root_marginal(self):
        # Fix the child true, pool the agents' masses for node 0, then
        # add the child's consensus log-ratio. The result must equal the
        # pooled joint's node-0 marginal.
        log_odds = _pooled_log_odds(
            np.array([1.0 - COND_A, 1.0 - COND_B]),
            np.array([COND_A, COND_B]),
            np.array([0.5, 0.5]),
        )
        log_odds += math.log(P_NODE1_GIVEN_FALSE) - math.log(P_NODE1_GIVEN_TRUE)
        _, got = _logistic(log_odds)
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
        assert ConsensusBn(result.bn, result.elimination_order, result.agent_queries) == result
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

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_pool_and_one_logistic_per_build(self, shared):
        # Every row of the build goes through one _pooled_log_odds call and
        # one _logistic call, and every agent query is counted.
        rng = np.random.default_rng(31)
        if shared:
            agents = random_common_structure_bns(rng, 20, 3, edge_prob=0.1, max_parents=2)
        else:
            agents = [random_bn(rng, 8, max_parents=2) for _ in range(3)]
        with mock.patch.object(
            consensus, "_pooled_log_odds", wraps=_pooled_log_odds
        ) as pool, mock.patch.object(
            consensus, "_logistic", wraps=_logistic
        ) as squash, mock.patch.object(
            consensus, "query_conditional", wraps=inference.query_conditional
        ) as query:
            result = logop_consensus_bn(agents, random_weights(rng, 3))
        assert pool.call_count == 1
        assert squash.call_count == 1
        assert query.call_count == result.agent_queries
        rows = sum(1 << len(ps) for ps in result.bn.dag().parents)
        assert pool.call_args.args[1].shape == (3, rows)

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
        with mock.patch.object(inference, "_probabilities") as kernel:
            result = logop_consensus_bn(agents, random_weights(rng, n))
        kernel.assert_not_called()
        assert result.agent_queries >= n * m

    def test_dense_oracle_path(self):
        queried = logop_consensus_bn([CHAIN_A, CHAIN_B])
        dense = logop_consensus_bn([CHAIN_A, CHAIN_B], dense_oracle=True)
        assert dense.agent_queries == 0
        np.testing.assert_allclose(
            bn_to_joint(queried.bn).probs, bn_to_joint(dense.bn).probs, atol=1e-12
        )

    def test_zero_weight_agent_is_not_asked(self):
        # Only the zero-weight agent has a row of 1.0. It drops out of the
        # pool, so the query route asks the other agent alone.
        sure = BayesNet((Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.2, 1.0))))
        result = logop_consensus_bn([CHAIN_A, sure], [1, 0])
        dense = logop_consensus_bn([CHAIN_A, sure], [1, 0], dense_oracle=True)
        np.testing.assert_allclose(
            bn_to_joint(result.bn).probs, bn_to_joint(dense.bn).probs, atol=1e-12
        )
        rows = sum(1 << len(ps) for ps in result.bn.dag().parents)
        assert result.agent_queries == rows

    @pytest.mark.parametrize("dense_oracle", [False, True])
    def test_zero_weight_agent_does_not_widen_structure(self, dense_oracle):
        # A sparse agent pooled alone, beside a wider agent of weight 0.
        labels = tuple(f"v{i}" for i in range(14))
        a = random_bn(np.random.default_rng(0), 14, edge_prob=0.1, max_parents=2)
        z = random_bn(np.random.default_rng(1), 14, edge_prob=0.3, max_parents=3)
        a, z = (BayesNet(bn.cpts, labels=labels) for bn in (a, z))
        result = logop_consensus_bn([a, z], (1, 0), dense_oracle=dense_oracle)
        alone = logop_consensus_bn([a], dense_oracle=dense_oracle)
        assert result.agent_queries == (0 if dense_oracle else 25)
        assert max(len(ps) for ps in result.bn.dag().parents) == 2
        assert json_text(network_to_dict(result.bn)) == json_text(
            network_to_dict(alone.bn)
        )

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        dense_oracle=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_weight_agent_changes_nothing(self, seed, dense_oracle, data):
        # The saved consensus and the query count with an extra agent of
        # weight 0, of any structure and with rows of 0 or 1, are those
        # of the build without it.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        labels = tuple(f"v{i}" for i in range(m))
        agents = [
            BayesNet(random_bn(rng, m, max_parents=2).cpts, labels=labels)
            for _ in range(n)
        ]
        w = list(random_weights(rng, n))
        dag = random_dag(rng, m, edge_prob=0.6, max_parents=3)
        zero = BayesNet(tuple(
            Cpt(v, ps, data.draw(st.lists(
                st.sampled_from((0.0, 1e-300, 0.5, 1.0)),
                min_size=1 << len(ps), max_size=1 << len(ps),
            )))
            for v, ps in enumerate(dag.parents)
        ), labels=labels)
        at = data.draw(st.integers(0, n))
        with_zero = logop_consensus_bn(
            agents[:at] + [zero] + agents[at:], w[:at] + [0.0] + w[at:],
            dense_oracle=dense_oracle,
        )
        without = logop_consensus_bn(agents, w, dense_oracle=dense_oracle)
        saved, want = (
            network_to_dict(result.bn) for result in (with_zero, without)
        )
        for key in ("variables", "edges", "cpts"):
            assert json_text({key: saved[key]}) == json_text({key: want[key]})
        assert with_zero.agent_queries == without.agent_queries

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

    def test_zero_evidence_context_raises_and_fallback_works(self):
        # A strictly positive star: node 0 with 2 children nearly never
        # true and 21 nearly always true. Node 0's consensus row is asked
        # given all children true, then all false, and both contexts'
        # evidence underflows to zero mass.
        star = BayesNet(
            (Cpt(0, (), (0.5,)),)
            + tuple(Cpt(v, (0,), (1e-300, 1e-300)) for v in (1, 2))
            + tuple(Cpt(v, (0,), (1 - 1.1e-16,) * 2) for v in range(3, 24))
        )
        assert star.strictly_positive
        with pytest.raises(DegenerateCpt, match="zero mass") as exc:
            logop_consensus_bn([star])
        assert "dense_oracle=True" in str(exc.value)
        # Without labels the variable goes by its index; node 23, the
        # last one eliminated, is node 0's one consensus parent.
        assert str(exc.value).startswith("variable 0, parent row 23=0: ")
        assert isinstance(exc.value.__cause__.__cause__, ZeroEvidence)
        # The pool of one agent is the agent: the same log-probabilities.
        fallback = logop_consensus_bn([star], dense_oracle=True)
        rng = np.random.default_rng(0)
        for state in rng.integers(0, 2, (20, star.m)).tolist() + [[0] * 24, [1] * 24]:
            assert _log_prob(fallback.bn, state) == pytest.approx(
                _log_prob(star, state), abs=1e-9
            )

    def test_non_positive_agent_rejected_up_front(self):
        # A row of 0 or 1 in an agent of positive weight fails before any
        # query. The message names the agent by its position among all
        # agents, zero-weight ones included, then the variable, the
        # parent row as literals, and the row.
        positive = BayesNet((
            Cpt(0, (), (0.4,)), Cpt(1, (0, 2), (0.5, 0.2, 0.7, 0.6)), Cpt(2, (), (0.3,)),
        ))
        zero_row = BayesNet((
            Cpt(0, (), (0.4,)), Cpt(1, (0, 2), (0.5, 0.2, 0.0, 0.6)), Cpt(2, (), (0.3,)),
        ))
        sure = BayesNet(zero_row.cpts[:1] + (Cpt(1, (), (1.0,)),) + zero_row.cpts[2:])
        remedy = (
            "the query route needs every CPT row of a pooled agent strictly "
            "inside (0, 1); rerun with dense_oracle=True to use the "
            "factor-product fill"
        )
        labels = ("rain", "traffic", "wind")
        for agents, weights, message in (
            ([sure, positive, zero_row], (0, 1, 2),
             "agent 2, variable 1, parent row 0=0,2=1: the row is 0.0, but "),
            ([positive, BayesNet(sure.cpts, labels=labels)], None,
             "agent 1, variable traffic, parent row (none): the row is 1.0, but "),
        ):
            with mock.patch.object(
                consensus, "query_conditional", wraps=inference.query_conditional
            ) as query:
                with pytest.raises(DegenerateCpt) as exc:
                    logop_consensus_bn(agents, weights)
            assert str(exc.value) == message + remedy
            query.assert_not_called()
            assert logop_consensus_bn(agents, weights, dense_oracle=True)
        # Zero weight drops a non-positive agent, which then builds.
        built = logop_consensus_bn([zero_row, positive, sure], (0, 1, 0))
        assert built.bn == logop_consensus_bn([positive]).bn

    def test_mismatched_agents(self):
        one_node = BayesNet((Cpt(0, (), (0.5,)),))
        with pytest.raises(MismatchedVariables):
            logop_consensus_bn([CHAIN_A, one_node])

    def test_labels_carried(self):
        labeled_a = BayesNet(CHAIN_A.cpts, labels=("A1", "A2"))
        labeled_b = BayesNet(CHAIN_B.cpts, labels=("A1", "A2"))
        result = logop_consensus_bn([labeled_a, labeled_b])
        assert result.bn.labels == ("A1", "A2")

    def test_label_orders_must_agree(self):
        # Both agents say P(rain) = 0.9, but in different variable orders:
        # pooling by index would blend rain with traffic.
        a = two_node_bn(0.9, 0.5, labels=("rain", "traffic"))
        b = two_node_bn(0.5, 0.9, labels=("traffic", "rain"))
        for pool in (
            lambda: logop_consensus_bn([a, b]),
            lambda: logop_consensus_bn([a, b], dense_oracle=True),
            lambda: linop_query([a, b], {0: True}),
        ):
            with pytest.raises(MismatchedVariables, match="align_variables"):
                pool()
        # Agents without labels are pooled by index as before.
        unlabeled = BayesNet(b.cpts)
        assert logop_consensus_bn([a, unlabeled]).bn.labels == a.labels
        assert linop_query([unlabeled, a], {0: True}) == pytest.approx(0.7)

    def test_consensus_bn_must_be_decomposable(self):
        vee = BayesNet(
            (Cpt(0, (), (0.3,)), Cpt(1, (), (0.7,)), Cpt(2, (0, 1), (0.1, 0.6, 0.4, 0.9)))
        )
        with pytest.raises(NotChordal):
            ConsensusBn(vee, (0, 1, 2))
        # No order orients a shared child's skeleton as its parents are.
        for order in itertools.permutations(range(3)):
            with pytest.raises(NotChordal):
                ConsensusBn(vee, order)

    @pytest.mark.parametrize(
        "order, message",
        [
            ((5,), "order must be a permutation"),
            ((), "order must be a permutation"),
            ((1, 1), "order must be a permutation"),
            ((0, 1, 2), "order must be a permutation"),
            (("a", 0), "variable 'a' is not an integer"),
            ((1.0, 0.0), "variable 1.0 is not an integer"),
            ((True, False), "variable True is not an integer"),
        ],
    )
    def test_consensus_bn_order_must_be_a_permutation(self, order, message):
        with pytest.raises(MalformedInstance, match=message):
            ConsensusBn(CHAIN_A, order)

    def test_consensus_bn_order_must_orient_the_parents(self):
        # The chain's edge points 0 -> 1: eliminating 1 first makes 0 its
        # parent, and eliminating 0 first would point the edge 1 -> 0.
        assert ConsensusBn(CHAIN_A, (1, 0)).elimination_order == (1, 0)
        assert ConsensusBn(CHAIN_A, (np.int64(1), np.int64(0)))
        with pytest.raises(NotChordal, match="against its parents"):
            ConsensusBn(CHAIN_A, (0, 1))
        # Parents are compared as sets, so their listed order is free.
        unsorted = BayesNet((
            Cpt(0, (), (0.3,)), Cpt(1, (0,), (0.2, 0.7)), Cpt(2, (1, 0), (0.1, 0.6, 0.4, 0.9)),
        ))
        assert ConsensusBn(unsorted, (2, 1, 0))
        with pytest.raises(MalformedInstance, match="expected a BayesNet"):
            ConsensusBn(CHAIN_A.dag(), (1, 0))

    @pytest.mark.parametrize(
        "queries, message",
        [
            ("many", "agent_queries 'many' is not an integer"),
            (-5, "agent_queries must be nonnegative, got -5"),
            (2.0, "agent_queries 2.0 is not an integer"),
            (True, "agent_queries True is not an integer"),
            (None, "agent_queries None is not an integer"),
        ],
    )
    def test_consensus_bn_agent_queries_must_be_a_count(self, queries, message):
        with pytest.raises(MalformedInstance, match=f"^{re.escape(message)}$"):
            ConsensusBn(CHAIN_A, (1, 0), agent_queries=queries)

    def test_consensus_bn_keeps_agent_queries_as_an_int(self):
        kept = ConsensusBn(CHAIN_A, (1, 0), agent_queries=np.int64(6)).agent_queries
        assert kept == 6 and type(kept) is int

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        shared=st.booleans(),
        dense_oracle=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_consensus_bn_accepts_every_build(self, seed, shared, dense_oracle):
        # The builders skip ConsensusBn's check; what they return passes it.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        n = int(rng.integers(1, 4))
        if shared:
            agents = random_common_structure_bns(rng, m, n, max_parents=2)
        else:
            agents = [random_bn(rng, m, max_parents=2) for _ in range(n)]
        result = logop_consensus_bn(
            agents, random_weights(rng, n), dense_oracle=dense_oracle
        )
        rebuilt = ConsensusBn(result.bn, result.elimination_order, result.agent_queries)
        assert rebuilt == result

    def test_agent_queries_count_retried_rows(self):
        # Node 1's consensus row is asked given its child 0 true first. The
        # first agent's conditional there rounds to 1, so the row is asked
        # again given 0 false. agent_queries counts every call, the failed
        # one included, so it exceeds the n * sum 2^|parents| rows.
        extreme = BayesNet((Cpt(0, (1,), (1e-300, 0.5)), Cpt(1, (), (0.5,))))
        agents = [extreme, BayesNet((Cpt(0, (1,), (0.3, 0.6)), Cpt(1, (), (0.4,))))]
        with mock.patch.object(
            consensus, "query_conditional", wraps=inference.query_conditional
        ) as query:
            result = logop_consensus_bn(agents)
        rows = sum(1 << len(ps) for ps in result.bn.dag().parents)
        assert result.elimination_order == (0, 1)
        assert result.agent_queries == query.call_count == 7
        assert result.agent_queries > len(agents) * rows == 6

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=2, max_value=14),
        shared=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_fill_is_the_reference_bit_for_bit(self, seed, m, shared):
        # The builder's memoized log-sigmoids and child-row tables give
        # the rows and query count of a fill that works each out per read.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        if shared:
            agents = random_common_structure_bns(rng, m, n)
        else:
            agents = [random_bn(rng, m) for _ in range(n)]
        weights = random_weights(rng, n)
        result = logop_consensus_bn(agents, weights)
        rows, queries = reference_fill(agents, normalize_weights(weights, n))
        assert [tuple(map(float.hex, c.rows)) for c in result.bn.cpts] == [
            tuple(map(float.hex, r)) for r in rows
        ]
        assert result.agent_queries == queries

    def test_retried_row_is_the_reference_bit_for_bit(self):
        # Node 1's all-true attempt fails on the first agent (see
        # test_agent_queries_count_retried_rows) and the row is refilled.
        extreme = BayesNet((Cpt(0, (1,), (1e-300, 0.5)), Cpt(1, (), (0.5,))))
        agents = [extreme, BayesNet((Cpt(0, (1,), (0.3, 0.6)), Cpt(1, (), (0.4,))))]
        result = logop_consensus_bn(agents)
        rows, queries = reference_fill(agents, normalize_weights(None, 2))
        assert [c.rows for c in result.bn.cpts] == rows
        assert result.agent_queries == queries == 7

    @pytest.mark.parametrize("seed", range(3))
    def test_agent_queries_enter_checked(self, seed):
        # Every agent query the builder issues, all-true attempt and retry
        # alike, is a checked target {node: True} and a checked context over
        # exactly the node's consensus parents and children.
        extreme = BayesNet((Cpt(0, (1,), (1e-300, 0.5)), Cpt(1, (), (0.5,))))
        retried = [extreme, BayesNet((Cpt(0, (1,), (0.3, 0.6)), Cpt(1, (), (0.4,))))]
        rng = np.random.default_rng(seed)
        unshared = [random_bn(rng, 8, edge_prob=0.4, max_parents=3) for _ in range(3)]
        outcomes = set()  # (retried agents, node, children's outcome)
        for agents in (retried, unshared):
            with mock.patch.object(
                consensus, "query_conditional", wraps=inference.query_conditional
            ) as query:
                result = logop_consensus_bn(agents)
            dag = result.bn.dag()
            for (bn, target, context), _ in query.call_args_list:
                assert type(target) is joint._Checked
                assert type(context) is joint._Checked
                ((node, value),) = target.items()
                assert value is True
                kids = dag.children[node]
                assert set(context) == {*dag.parents[node], *kids}
                assert all(type(v) is int for v in context)
                assert all(type(x) is bool for x in context.values())
                if kids:
                    outcomes.add((agents is retried, node, context[kids[0]]))
            assert query.call_count == result.agent_queries
        assert {(True, 1, True), (True, 1, False)} <= outcomes


class TestLogopQuery:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_zero=st.integers(min_value=0, max_value=3),
        at=st.integers(min_value=0, max_value=3),
        dense_oracle=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pool_of_one_is_its_agent(self, seed, n_zero, at, dense_oracle):
        # One agent of positive weight, rows of 0 and 1 included, among
        # zero-weight agents: the logop query is that agent's conditional.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        agent = random_bn(rng, m, max_parents=3)
        agent = BayesNet(tuple(
            Cpt(c.owner, c.parents, rng.choice((0.0, 0.2, 0.5, 1.0), len(c.rows)))
            for c in agent.cpts
        ))
        others = [random_bn(rng, m, max_parents=3) for _ in range(n_zero)]
        at = min(at, n_zero)
        agents = others[:at] + [agent] + others[at:]
        weights = [0.0] * at + [float(rng.uniform(0.1, 2.0))] + [0.0] * (n_zero - at)
        variables = [int(v) for v in rng.permutation(m)]
        event = {variables[0]: bool(rng.integers(0, 2))}
        evidence = {v: bool(rng.integers(0, 2)) for v in variables[1:int(rng.integers(1, m + 1))]}
        try:
            want = query_conditional(agent, event, evidence)
        except ZeroEvidence:
            with pytest.raises(ZeroEvidence):
                logop_query(agents, event, evidence, weights, dense_oracle=dense_oracle)
            return
        got = logop_query(agents, event, evidence, weights, dense_oracle=dense_oracle)
        assert got == pytest.approx(want, abs=1e-12)

    def test_pools_are_built_for_two_agents(self):
        got = logop_query([CHAIN_A, CHAIN_B], {0: True})
        assert got == pytest.approx(P_NODE0, abs=1e-12)
        with pytest.raises(DegenerateCpt):
            logop_query([CHAIN_A, two_node_bn(1.0, 0.5)], {0: True})

    @pytest.mark.parametrize("weights", [None, (0.3, 0.0, 0.7)])
    def test_agents_are_pooled_once(self, weights, monkeypatch):
        # The consensus takes the query's pooling as it is: one weight
        # check per query, and the network logop_consensus_bn builds.
        agents = [CHAIN_A, CHAIN_B, CHAIN_A]
        want = query_conditional(logop_consensus_bn(agents, weights).bn, {0: True}, {1: False})
        calls = []
        original = consensus.normalize_weights
        monkeypatch.setattr(
            consensus, "normalize_weights", lambda *a: calls.append(a) or original(*a)
        )
        assert logop_query(agents, {0: True}, {1: False}, weights) == want
        assert len(calls) == 1


class TestLinopQuery:
    A = two_node_bn(0.5, 0.5, labels=("A1", "A2"))
    B = two_node_bn(0.8, 0.6, labels=("A1", "A2"))
    # Event and evidence must be disjoint, as for every query; only the
    # CLI folds literals that the evidence fixes.
    OVERLAP = "^target and evidence must assign disjoint variables$"

    def test_single_variable_event(self):
        assert linop_query([self.A, self.B], {0: True}) == pytest.approx(0.65)

    def test_joint_event(self):
        got = linop_query([self.A, self.B], {0: True, 1: True})
        assert got == pytest.approx(0.365, abs=1e-12)

    def test_conditional_is_ratio_of_pooled_marginals(self):
        got = linop_query([self.A, self.B], {0: True}, {1: True})
        assert got == pytest.approx(0.365 / 0.55, abs=1e-12)

    def test_contradictory_event_rejected(self):
        with pytest.raises(MalformedInstance, match=self.OVERLAP):
            linop_query([self.A, self.B], {0: True}, {0: False})

    def test_event_implied_by_evidence(self):
        with pytest.raises(MalformedInstance, match=self.OVERLAP):
            linop_query([self.A, self.B], {0: True, 1: False}, {0: True})

    def test_zero_evidence(self):
        certain = two_node_bn(1.0, 0.5)
        with pytest.raises(ZeroEvidence):
            linop_query([certain, certain], {1: True}, {0: False})

    def test_single_agent_is_own_conditional(self):
        got = linop_query([CHAIN_B], {1: True}, {0: True})
        want = conditional_probability(bn_to_joint(CHAIN_B), {1: True}, {0: True})
        assert got == pytest.approx(want, abs=1e-15)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_zero_weight_agent_is_not_queried(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        agents = [random_bn(rng, m, max_parents=3) for _ in range(n)]
        zero = random_bn(rng, m, max_parents=3)
        w = list(random_weights(rng, n))
        at = int(rng.integers(0, n + 1))
        variables = list(rng.permutation(m))
        event = {variables[0]: bool(rng.integers(0, 2))}
        evidence = {variables[1]: bool(rng.integers(0, 2))}
        with mock.patch.object(
            consensus, "_probabilities", wraps=inference._probabilities
        ) as kernel:
            got = linop_query(
                agents[:at] + [zero] + agents[at:], event, evidence,
                w[:at] + [0.0] + w[at:],
            )
        assert kernel.called
        assert all(
            all(bn is not zero for bn in call.args[0]) for call in kernel.call_args_list
        )
        assert got == linop_query(agents, event, evidence, w)

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        dags=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=5),
        zero=st.lists(st.booleans(), min_size=5, max_size=5),
        empty_evidence=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_groups_match_dense_pool(self, seed, dags, zero, empty_evidence):
        # Agent i has structure dags[i], so some agents share a DAG and some
        # do not; rows include 0 and 1, and some weights are zero.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        structures = [random_dag(rng, m, edge_prob=0.5, max_parents=3) for _ in range(3)]
        agents = []
        for d in dags:
            bn = random_bn(rng, m, dag=structures[d])
            agents.append(BayesNet(tuple(
                Cpt(c.owner, c.parents, rng.choice((0.0, 0.3, 0.5, 0.9, 1.0), len(c.rows)))
                for c in bn.cpts
            )))
        w = [0.0 if z else float(x) for z, x in zip(zero, random_weights(rng, len(agents)))]
        if not any(w):
            w[-1] = 1.0
        variables = [int(v) for v in rng.permutation(m)]
        n_event = int(rng.integers(1, min(m, 2) + 1))
        event = {v: bool(rng.integers(0, 2)) for v in variables[:n_event]}
        rest = variables[n_event:]
        evidence = {} if empty_evidence else {
            v: bool(rng.integers(0, 2)) for v in rest[: int(rng.integers(0, len(rest) + 1))]
        }
        dense = linop([bn_to_joint(a) for a in agents], w)
        try:
            want = conditional_probability(dense, event, evidence)
        except ZeroEvidence:
            with pytest.raises(ZeroEvidence):
                linop_query(agents, event, evidence, w)
            return
        got = linop_query(agents, event, evidence, w)
        assert got == pytest.approx(want, abs=1e-12) and got <= 1.0

    def test_one_plan_per_dag(self):
        rng = np.random.default_rng(3)
        shared = random_common_structure_bns(rng, 6, 3)
        other = random_common_structure_bns(rng, 6, 2)
        assert shared[0].dag() != other[0].dag()
        event, evidence = {0: True}, {5: False}
        for agents, plans in ((shared, 1), (shared + other, 2), (other + shared[:1], 2)):
            with mock.patch.object(
                inference, "_min_fill_order", wraps=inference._min_fill_order
            ) as order, mock.patch.object(
                consensus, "_probabilities", wraps=inference._probabilities
            ) as kernel:
                got = linop_query(agents, event, evidence)
            # One plan and one kernel call per distinct DAG, whatever the
            # agent count: the evidence and the event share the pass.
            assert order.call_count == kernel.call_count == plans
            assert all(call.args[1:] == (evidence, event) for call in kernel.call_args_list)
            dense = linop([bn_to_joint(a) for a in agents])
            want = conditional_probability(dense, event, evidence)
            assert got == pytest.approx(want, abs=1e-12)

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


class TestFillEdges:
    """The logop pool is a product of the agents' CPT factors, so it is
    Markov to the union of their moral graphs. The consensus network
    shows that graph plus the fill edges that triangulation adds, and
    its rows must give no fill edge a dependence: for a fill edge
    (u, v), u is independent of v given u's neighbors in the union."""

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_fill_edges_carry_no_dependence(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 21))
        n = int(rng.integers(2, 4))
        agents = [random_bn(rng, m, edge_prob=0.3, max_parents=2) for _ in range(n)]
        w = random_weights(rng, n)
        union = mn_union([moralize(bn.dag()) for bn in agents])
        neighbors = union.adjacency()
        for dense_oracle in (False, True):
            bn = logop_consensus_bn(agents, w, dense_oracle=dense_oracle).bn
            fills = sorted(bn.dag().skeleton() - union.edges)
            # At most 40 statements per draw: each fill edge, both ways.
            for u, v in [pair for a, b in fills for pair in ((a, b), (b, a))][:40]:
                context = {s: bool(rng.integers(0, 2)) for s in neighbors[u]}
                p0, p1 = (
                    query_conditional(bn, {u: True}, {**context, v: x})
                    for x in (False, True)
                )
                assert abs(p0 - p1) <= 1e-12, (dense_oracle, u, v)
