"""End-to-end acceptance checks.

Each test is one named criterion and prints a single PASS/FAIL line
(visible with pytest -s or in failure output). Every frozen number was
produced by an independent route (rational arithmetic, closed forms,
or brute force over dense tables) before the package code existed.
"""

import itertools

import networkx as nx
import numpy as np

from beliefpool import (
    BayesNet,
    Cpt,
    MarkovNet,
    bn_to_joint,
    consensus_bn_structure,
    family_pooled_joint,
    linop,
    logop,
    logop_consensus_bn,
    marginal,
)
from beliefpool.axioms import (
    chain_agents,
    independent_pair_agents,
    linop_eb_break_witness,
    logop_mp_break_witness,
    search_nmeipp_violation,
)
from beliefpool.joint import (
    markov_dependence_gap,
    pairwise_dependence_gap,
    state_index,
)
from beliefpool.networks import moralize, triangulate
from beliefpool.sampling import (
    random_bn,
    random_common_structure_bns,
    random_decomposable_bn,
    random_markov_table,
    random_product_table,
    random_weights,
)

# Display order (TT, TF, FT, FF) over the two-variable state indices.
DISPLAY = (
    state_index((True, True)),
    state_index((True, False)),
    state_index((False, True)),
    state_index((False, False)),
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _random_mn(rng, m, edge_prob):
    edges = frozenset(
        (u, v)
        for u, v in itertools.combinations(range(m), 2)
        if rng.random() < edge_prob
    )
    return MarkovNet(m, edges)


def test_c1_geometric_pool_reproduces_fixture_and_keeps_independence():
    pooled = logop(independent_pair_agents())
    got = tuple(pooled.probs[i] for i in DISPLAY)
    expected = (0.367007, 0.29966, 0.183503, 0.14983)
    err = max(abs(g - e) for g, e in zip(got, expected))
    independent = pairwise_dependence_gap(pooled, 0, 1) <= 1e-5
    _report(
        "criterion-1 geometric pool of the independent-pair fixture",
        err <= 5e-6 and independent,
        f"max state error {err:.2e} (tol 5e-6), "
        f"independence gap {pairwise_dependence_gap(pooled, 0, 1):.2e} (tol 1e-5)",
    )


def test_c2_arithmetic_pool_reproduces_fixture_and_breaks_independence():
    pooled = linop(independent_pair_agents())
    got = tuple(pooled.probs[i] for i in DISPLAY)
    expected = (0.365, 0.285, 0.185, 0.165)
    err = max(abs(g - e) for g, e in zip(got, expected))
    violation = abs(
        marginal(pooled, {0: True, 1: True})
        - marginal(pooled, {0: True}) * marginal(pooled, {1: True})
    )
    _report(
        "criterion-2 arithmetic pool of the independent-pair fixture",
        err <= 1e-12 and abs(violation - 0.0075) <= 1e-12,
        f"max state error {err:.2e} (tol 1e-12), "
        f"independence violation {violation:.6f} (want 0.0075 within 1e-12)",
    )


def test_c3_family_averaging_depends_on_the_ordering():
    tables = tuple(bn_to_joint(bn) for bn in chain_agents())
    natural = family_pooled_joint("linop", tables, (0, 1))
    reversed_ = family_pooled_joint("linop", tables, (1, 0))

    got_nat = tuple(natural.probs[i] for i in DISPLAY)
    err_nat = max(abs(g - e) for g, e in zip(got_nat, (0.3, 0.2, 0.225, 0.275)))

    got_rev = tuple(reversed_.probs[i] for i in DISPLAY)
    err_rev_head = max(
        abs(g - e) for g, e in zip(got_rev[:3], (0.333, 0.149121, 0.297))
    )
    # The last entry is exactly 7289/33000 = 0.2208787...; its six-digit
    # truncation 0.220878 sits 7.9e-7 away, so the exact fraction is the
    # 5e-7 target and the truncated print is held to 1e-6.
    err_rev_exact = abs(got_rev[3] - 7289 / 33000)
    err_rev_print = abs(got_rev[3] - 0.220878)

    spread = float(np.max(np.abs(natural.probs - reversed_.probs)))
    ok = (
        err_nat <= 5e-7
        and err_rev_head <= 5e-7
        and err_rev_exact <= 5e-7
        and err_rev_print <= 1e-6
        and spread > 0.03
    )
    _report(
        "criterion-3 per-family averaging along two orderings",
        ok,
        f"table errors {err_nat:.2e} / {max(err_rev_head, err_rev_exact):.2e} "
        f"(tol 5e-7; last entry checked against 7289/33000 exactly and its "
        f"6-digit truncation at 1e-6), orderings differ by {spread:.3f} (> 0.03)",
    )


def test_c4_structured_consensus_matches_dense_pool_on_200_instances():
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 200
    for trial in range(trials):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(1, 5))
        max_parents = 3 if trial % 4 == 0 else 2
        agents = [random_bn(rng, m, max_parents=max_parents) for _ in range(n)]
        w = random_weights(rng, n)
        consensus = logop_consensus_bn(agents, w)
        dense = logop([bn_to_joint(a) for a in agents], w)
        err = float(np.max(np.abs(bn_to_joint(consensus.bn).probs - dense.probs)))
        worst = max(worst, err)
    _report(
        "criterion-4 query-built consensus equals the dense geometric pool",
        worst <= 1e-9,
        f"{trials} random instances (n<=4, m<=10, CPT rows in [0.05, 0.95]), "
        f"max state error {worst:.2e} (tol 1e-9)",
    )


def test_c5_shared_structure_independencies_survive_geometric_pooling():
    rng = np.random.default_rng(515)
    worst = 0.0
    trials = 0

    # Agents sharing a directed structure: the union graph is its
    # moral graph, and each union-graph Markov independence must hold
    # in the pooled joint.
    for _ in range(120):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(2, 5))
        agents = random_common_structure_bns(rng, m, n, max_parents=2)
        union = moralize(agents[0].dag())
        pooled = logop(
            [bn_to_joint(a) for a in agents], random_weights(rng, n)
        )
        for a in range(m):
            w = tuple(sorted(union.adjacency()[a]))
            x = tuple(v for v in range(m) if v != a and v not in w)
            if not x:
                continue
            worst = max(worst, markov_dependence_gap(pooled, a, w, x))
        trials += 1

    # Agents given as potential-factored tables over one shared
    # undirected structure.
    for _ in range(80):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, 4))
        mn = _random_mn(rng, m, edge_prob=0.4)
        tables = [random_markov_table(rng, mn) for _ in range(n)]
        pooled = logop(tables, random_weights(rng, n))
        for a in range(m):
            w = tuple(sorted(mn.adjacency()[a]))
            x = tuple(v for v in range(m) if v != a and v not in w)
            if not x:
                continue
            worst = max(worst, markov_dependence_gap(pooled, a, w, x))
        trials += 1

    # Named small cases: a disconnected pair stays independent, and a
    # three-node chain keeps its end-to-end conditional independence.
    pair_gap = 0.0
    for seed in range(5):
        pair_rng = np.random.default_rng(seed)
        tables = [random_product_table(pair_rng, 2) for _ in range(2)]
        pair_gap = max(pair_gap, pairwise_dependence_gap(logop(tables), 0, 1))

    chain_gap = 0.0
    for seed in range(5):
        chain_rng = np.random.default_rng(100 + seed)
        agents = [
            BayesNet(
                (
                    Cpt(0, (), (float(chain_rng.uniform(0.05, 0.95)),)),
                    Cpt(1, (0,), tuple(chain_rng.uniform(0.05, 0.95, 2))),
                    Cpt(2, (1,), tuple(chain_rng.uniform(0.05, 0.95, 2))),
                )
            )
            for _ in range(2)
        ]
        pooled = logop([bn_to_joint(a) for a in agents])
        chain_gap = max(chain_gap, markov_dependence_gap(pooled, 0, (1,), (2,)))

    ok = worst <= 1e-9 and pair_gap <= 1e-9 and chain_gap <= 1e-9
    _report(
        "criterion-5 union-structure independencies hold in the pooled joint",
        ok,
        f"{trials} shared-structure instances, worst Markov gap {worst:.2e}; "
        f"disconnected pair {pair_gap:.2e}, three-node chain {chain_gap:.2e} "
        f"(all tol 1e-9)",
    )


def test_c6_fixed_seed_negative_controls():
    witness = search_nmeipp_violation(seed=42, trials=100)
    shared_effect = witness.violation if witness else 0.0
    _, eb_violation = linop_eb_break_witness(seed=0)
    _, mp_violation = logop_mp_break_witness(seed=0)
    ok = shared_effect > 1e-6 and eb_violation > 1e-6 and mp_violation > 1e-6
    _report(
        "criterion-6 negative controls break by more than 1e-6",
        ok,
        f"shared-effect pair gap {shared_effect:.3e}, arithmetic-pool "
        f"conditioning gap {eb_violation:.3e}, geometric-pool "
        f"marginalization gap {mp_violation:.3e}",
    )


def test_c7_structure_pipeline_preserves_decomposable_inputs():
    rng = np.random.default_rng(77)
    corpus_ok = True
    for _ in range(120):
        m = int(rng.integers(2, 9))
        agent = random_decomposable_bn(rng, m)
        n = int(rng.integers(1, 4))
        structure, _ = consensus_bn_structure([agent] * n)
        moral = moralize(agent.dag())
        chordal, _ = triangulate(moral)
        if structure.skeleton() != moral.edges or chordal.edges != moral.edges:
            corpus_ok = False
            break

    checked = 0
    chordal_ok = True
    for _ in range(500):
        m = int(rng.integers(1, 13))
        net = _random_mn(rng, m, edge_prob=float(rng.uniform(0.1, 0.7)))
        chordal, _ = triangulate(net)
        graph = nx.Graph(chordal.edges)
        graph.add_nodes_from(range(chordal.m))
        if not nx.is_chordal(graph):
            chordal_ok = False
            break
        checked += 1

    _report(
        "criterion-7 structure pipeline",
        corpus_ok and chordal_ok,
        f"120 decomposable networks kept their skeleton with zero fill; "
        f"{checked}/500 random triangulations verified chordal",
    )


def test_c8_agent_query_count_stays_within_bound():
    rng = np.random.default_rng(88)
    worst_ratio = 0.0
    trials = 60
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        agents = [random_bn(rng, m, max_parents=2) for _ in range(n)]
        consensus = logop_consensus_bn(agents)
        q = max(len(ps) for ps in consensus.bn.dag().parents)
        bound = 2 * n * m * (1 << q)
        worst_ratio = max(worst_ratio, consensus.agent_queries / bound)
        assert consensus.agent_queries <= bound
    fixture = logop_consensus_bn(list(chain_agents()))
    _report(
        "criterion-8 per-agent query count",
        worst_ratio <= 1.0 and fixture.agent_queries == 6,
        f"{trials} instances within the 2*n*m*2^q bound "
        f"(worst ratio {worst_ratio:.2f}); two-agent chain fixture used "
        f"exactly {fixture.agent_queries} queries",
    )
