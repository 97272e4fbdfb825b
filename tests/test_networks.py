"""Network structures and graph transforms: CPT row encoding, DAG
ordering, moralization, union, triangulation, and redirection.

Chordality results are cross-checked against networkx, which uses an
unrelated algorithm, so the package's own check (direct_by_order's
NotChordal) never grades itself.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    CapacityExceeded,
    Cpt,
    Dag,
    MarkovNet,
    MismatchedVariables,
    NotChordal,
    UnknownVariable,
    bn_to_joint,
)
from beliefpool.networks import (
    direct_by_order,
    is_decomposable,
    min_fill_order,
    mn_union,
    moralize,
    triangulate,
)
from beliefpool.sampling import random_bn, random_dag, random_decomposable_bn

CHAIN = BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))))
# Two roots with a shared child: moralization must marry 0 and 1.
VEE = Dag(3, ((), (), (0, 1)))


def mn(m, *edges):
    return MarkovNet(m, frozenset(edges))


def random_mn(rng, m, edge_prob=0.4):
    edges = frozenset(
        (u, v)
        for u, v in itertools.combinations(range(m), 2)
        if rng.random() < edge_prob
    )
    return MarkovNet(m, edges)


def to_nx(net):
    g = nx.Graph()
    g.add_nodes_from(range(net.m))
    g.add_edges_from(net.edges)
    return g


def prob_true(cpt, assignment):
    """P(owner = true) read from cpt.rows at the row the assignment picks:
    bit i of the row index is parents[i]."""
    return cpt.rows[sum(1 << i for i, p in enumerate(cpt.parents) if assignment[p])]


def min_fill_by_full_recount(adjacency, keep=()):
    """Oracle for min_fill_order: the plain greedy loop that recounts the
    fill of every remaining vertex before each pick."""
    def fill_count(v):
        return sum(
            1 for u, w in itertools.combinations(adj[v], 2) if w not in adj[u]
        )

    adj = {v: set(nbrs) for v, nbrs in adjacency.items()}
    remaining = set(adj).difference(keep)
    order, fills = [], set()
    while remaining:
        v = min(remaining, key=lambda u: (fill_count(u), u))
        nbrs = sorted(adj[v])
        for u, w in itertools.combinations(nbrs, 2):
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
                fills.add((u, w))
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        remaining.discard(v)
        order.append(v)
    return tuple(order), frozenset(fills)


@st.composite
def graphs_with_keep(draw):
    m = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sets(st.integers(0, m - 1), max_size=3))
    return random_mn(rng, m, density).adjacency(), keep


class TestCpt:
    def test_row_bit_i_is_parent_i(self):
        cpt = Cpt(0, (2, 1), (0.1, 0.2, 0.3, 0.4))
        # Parent 2 is bit 0, parent 1 is bit 1.
        assert cpt.row_pair(2, {1: False}) == (0.1, 0.2)
        assert cpt.row_pair(2, {1: True}) == (0.3, 0.4)
        assert cpt.row_pair(1, {2: True}) == (0.2, 0.4)

    def test_extra_assignment_keys_ignored(self):
        cpt = Cpt(0, (1,), (0.1, 0.9))
        assert cpt.row_pair(1, {1: True, 3: False}) == (0.1, 0.9)

    def test_row_pair_sets_one_parent_both_ways(self):
        cpt = Cpt(0, (2, 1, 4), tuple(np.linspace(0.05, 0.95, 8)))
        for bits in itertools.product((False, True), repeat=3):
            assignment = dict(zip((2, 1, 4), bits))
            for v in (2, 1, 4):
                want = tuple(
                    prob_true(cpt, {**assignment, v: x}) for x in (False, True)
                )
                assert cpt.row_pair(v, assignment) == want
            # A non-parent leaves one row, read twice.
            row = prob_true(cpt, assignment)
            assert cpt.row_pair(3, assignment) == (row, row)

    def test_row_count_must_match_parents(self):
        with pytest.raises(ValueError):
            Cpt(0, (1, 2), (0.1, 0.9))

    def test_rejects_self_parent(self):
        with pytest.raises(ValueError):
            Cpt(0, (0,), (0.1, 0.9))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            Cpt(0, (), (1.5,))

    @pytest.mark.parametrize("row", [-0.1, float("nan"), float("inf")])
    def test_rejects_row_outside_unit_interval(self, row):
        with pytest.raises(ValueError, match="outside"):
            Cpt(0, (1,), (0.5, row))

    def test_rejects_duplicate_parents(self):
        with pytest.raises(ValueError, match="duplicate parent"):
            Cpt(0, (1, 1), (0.1,) * 4)

    def test_rows_become_float_tuple(self):
        cpt = Cpt(0, [1], [0, 1])
        assert cpt.parents == (1,)
        assert cpt.rows == (0.0, 1.0)
        assert all(type(r) is float for r in cpt.rows)


class TestDag:
    def test_topological_order_prefers_low_index(self):
        dag = Dag(4, ((), (), (0, 1), (2,)))
        assert dag.topological_order() == (0, 1, 2, 3)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(2, ((1,), (0,)))

    @pytest.mark.parametrize(
        "parents, error, message",
        [
            (((), (0, 0)), ValueError, "duplicate parents for node 1"),
            (((), (2,)), UnknownVariable, "parent 2 outside range(0, 2)"),
            (((), (-1,)), UnknownVariable, "parent -1 outside range(0, 2)"),
            (((), (1,)), ValueError, "node 1 cannot be its own parent"),
            # The first bad parent in the list names the error.
            (((), (1, 5)), ValueError, "node 1 cannot be its own parent"),
            (((), (5, 1)), UnknownVariable, "parent 5 outside range(0, 2)"),
            (((),), ValueError, "parent lists must cover every node"),
            (((1,), (0,)), ValueError, "directed cycle"),
        ],
    )
    def test_invalid_parents_named(self, parents, error, message):
        with pytest.raises(error) as exc:
            Dag(2, parents)
        assert message in str(exc.value)

    def test_parent_lists_become_tuples(self):
        dag = Dag(3, [[], [0], [1, 0]])
        assert dag.parents == ((), (0,), (1, 0))

    def test_children_inverts_parents(self):
        assert VEE.children() == ((2,), (2,), ())

    def test_edges_and_skeleton(self):
        assert VEE.parents == ((), (), (0, 1))
        assert VEE.skeleton() == frozenset({(0, 2), (1, 2)})


class TestBayesNet:
    def test_cpts_sorted_by_owner(self):
        net = BayesNet((Cpt(1, (0,), (0.6, 0.4)), Cpt(0, (), (0.2,))))
        assert [c.owner for c in net.cpts] == [0, 1]

    def test_one_cpt_per_variable(self):
        with pytest.raises(ValueError):
            BayesNet((Cpt(0, (), (0.2,)), Cpt(0, (), (0.3,))))

    def test_labels_checked(self):
        with pytest.raises(ValueError):
            BayesNet(CHAIN.cpts, labels=("A1", "A1"))

    def test_hashable(self):
        assert len({CHAIN, BayesNet(CHAIN.cpts)}) == 1

    def test_dag_built_once(self):
        net = BayesNet((Cpt(1, (0,), (0.6, 0.4)), Cpt(0, (), (0.2,))))
        assert net.dag() is net.dag()
        assert net.dag() == Dag(2, ((), (0,)))
        assert "_dag" not in repr(net)


class TestBnToJoint:
    def test_chain_by_hand(self):
        # P(0)=0.2; P(1|0)=0.4, P(1|not 0)=0.6. Index bit 0 is node 0.
        got = bn_to_joint(CHAIN)
        np.testing.assert_allclose(
            got.probs, [0.8 * 0.4, 0.2 * 0.6, 0.8 * 0.6, 0.2 * 0.4], atol=1e-15
        )

    def test_capacity_guard(self):
        cpts = tuple(Cpt(j, (), (0.5,)) for j in range(25))
        with pytest.raises(CapacityExceeded):
            bn_to_joint(BayesNet(cpts))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_cpt_products(self, seed):
        rng = np.random.default_rng(seed)
        net = random_bn(rng, 4, max_parents=3)
        table = bn_to_joint(net)
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
        for index in range(16):
            bits = {j: bool((index >> j) & 1) for j in range(4)}
            expect = 1.0
            for cpt in net.cpts:
                p = prob_true(cpt, bits)
                expect *= p if bits[cpt.owner] else 1.0 - p
            assert table.probs[index] == pytest.approx(expect, abs=1e-12)


class TestMoralize:
    def test_marries_coparents(self):
        assert moralize(VEE).edges == frozenset({(0, 2), (1, 2), (0, 1)})

    def test_chain_keeps_skeleton(self):
        assert moralize(CHAIN).edges == frozenset({(0, 1)})

    def test_keeps_labels_from_bayes_net(self):
        net = BayesNet(CHAIN.cpts, labels=("A1", "A2"))
        assert moralize(net).labels == ("A1", "A2")


class TestMnUnion:
    def test_union_of_edge_sets(self):
        got = mn_union([mn(3, (0, 1)), mn(3, (1, 2))])
        assert got.edges == frozenset({(0, 1), (1, 2)})

    def test_variable_count_must_match(self):
        with pytest.raises(MismatchedVariables):
            mn_union([mn(2, (0, 1)), mn(3, (0, 1))])

    def test_disagreeing_labels_dropped(self):
        a = MarkovNet(2, frozenset({(0, 1)}), labels=("A1", "A2"))
        b = MarkovNet(2, frozenset({(0, 1)}), labels=("B1", "B2"))
        assert mn_union([a, b]).labels is None
        assert mn_union([a, a]).labels == ("A1", "A2")


class TestTriangulate:
    def test_four_cycle_gets_one_chord(self):
        square = mn(4, (0, 1), (1, 2), (2, 3), (0, 3))
        chordal, order = triangulate(square)
        added = chordal.edges - square.edges
        assert len(added) == 1
        assert added <= {(0, 2), (1, 3)}
        assert order[0] == 0  # min-fill tie broken toward the lowest index

    def test_chordal_input_adds_nothing(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            net = moralize(random_decomposable_bn(rng, 6).dag())
            chordal, _ = triangulate(net)
            assert chordal.edges == net.edges

    def test_min_fill_order_reports_fill_edges(self):
        square = mn(4, (0, 1), (1, 2), (2, 3), (0, 3))
        order, fills = min_fill_order(square.adjacency())
        assert len(order) == 4
        assert fills == frozenset({(1, 3)})  # node 0 goes first, joining 1 and 3
        assert min_fill_order(square.adjacency(), keep=()) == (order, fills)
        # Kept 0 still counts toward fill: eliminating 1 joins 0 and 2.
        kept_order, kept_fills = min_fill_order(square.adjacency(), keep={0})
        assert kept_order == (1, 2, 3)
        assert kept_fills == frozenset({(0, 2)})

    def test_fill_edge_lowers_count_of_a_non_neighbor(self):
        # The 4-cycle 0-2-1-3: eliminating 0 joins 2 and 3, so 1, which is
        # not adjacent to 0, drops to fill 0 and wins the tie with 2.
        square = mn(4, (0, 2), (1, 2), (1, 3), (0, 3))
        order, fills = min_fill_order(square.adjacency())
        assert order == (0, 1, 2, 3)
        assert fills == frozenset({(2, 3)})

    @given(case=graphs_with_keep())
    @settings(max_examples=300, deadline=None)
    def test_min_fill_order_matches_full_recount(self, case):
        adjacency, keep = case
        assert min_fill_order(adjacency, keep) == min_fill_by_full_recount(
            adjacency, keep
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_output_chordal_by_both_checkers(self, seed):
        rng = np.random.default_rng(seed)
        net = random_mn(rng, int(rng.integers(1, 9)))
        chordal, order = triangulate(net)
        assert net.edges <= chordal.edges
        assert set(order) == set(range(net.m))
        direct_by_order(chordal, order)  # raises NotChordal unless perfect
        assert nx.is_chordal(to_nx(chordal))


def is_chordal(net):
    """The package's chordality test: min-fill adds no edge to a chordal
    graph, and direct_by_order accepts its order."""
    chordal, order = triangulate(net)
    if chordal.edges != net.edges:
        return False
    direct_by_order(net, order)
    return True


class TestChordality:
    def test_trees_and_cliques_are_chordal(self):
        assert is_chordal(mn(4, (0, 1), (1, 2), (1, 3)))
        assert is_chordal(mn(3, (0, 1), (1, 2), (0, 2)))
        assert is_chordal(mn(3))  # no edges at all

    def test_square_is_not(self):
        square = mn(4, (0, 1), (1, 2), (2, 3), (0, 3))
        assert not is_chordal(square)
        for order in itertools.permutations(range(4)):
            with pytest.raises(NotChordal):
                direct_by_order(square, order)

    def test_elimination_order_is_perfect(self):
        net = mn(4, (0, 1), (1, 2), (2, 3), (0, 3), (0, 2))
        _, order = triangulate(net)
        adj = net.adjacency()
        seen = set()
        for v in order:
            later = adj[v] - seen
            for u, w in itertools.combinations(later, 2):
                assert w in adj[u]
            seen.add(v)

    def test_agrees_with_networkx_on_random_graphs(self):
        rng = np.random.default_rng(3)
        agree = 0
        for _ in range(500):
            m = int(rng.integers(1, 13))
            net = random_mn(rng, m, edge_prob=float(rng.uniform(0.1, 0.7)))
            assert is_chordal(net) == nx.is_chordal(to_nx(net))
            agree += 1
        assert agree == 500


class TestDirectByOrder:
    def test_triangle_parent_assignment(self):
        triangle = mn(3, (0, 1), (1, 2), (0, 2))
        dag = direct_by_order(triangle, (0, 1, 2))
        # Eliminated first means pointed at by everything kept later.
        assert dag.parents == ((1, 2), (2,), ())

    def test_reversed_elimination_order_is_topological(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            chordal, order = triangulate(random_mn(rng, 6))
            dag = direct_by_order(chordal, order)
            assert dag.parents[order[-1]] == ()
            assert dag.skeleton() == chordal.edges
            position = {v: i for i, v in enumerate(reversed(order))}
            for child, parents in enumerate(dag.parents):
                for parent in parents:
                    assert position[parent] < position[child]

    def test_nonchordal_rejected(self):
        square = mn(4, (0, 1), (1, 2), (2, 3), (0, 3))
        with pytest.raises(NotChordal):
            direct_by_order(square, (0, 1, 2, 3))


class TestDecomposability:
    def test_chain_yes_vee_no(self):
        assert is_decomposable(CHAIN)
        assert not is_decomposable(VEE)

    def test_generated_corpus(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            net = random_decomposable_bn(rng, int(rng.integers(2, 8)))
            assert is_decomposable(net)

    def test_directed_triangulation_is_decomposable(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            chordal, order = triangulate(random_mn(rng, 7))
            assert is_decomposable(direct_by_order(chordal, order))


class TestMarkovBlanket:
    def test_parents_children_coparents(self):
        # 0 -> 2 <- 1, 2 -> 3, 4 isolated: blanket of 2 touches all but 4.
        dag = Dag(5, ((), (), (0, 1), (2,), ()))
        blankets = dag.blankets()
        assert blankets[2] == frozenset({0, 1, 3})
        assert blankets[4] == frozenset()
        assert blankets[0] == frozenset({1, 2})

    def test_matches_moral_neighbors(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            dag = random_dag(rng, 6)
            moral = moralize(dag)
            adjacency = moral.adjacency()
            for v in range(6):
                assert dag.blankets()[v] == adjacency[v]

    def test_network_keeps_its_blankets(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            net = random_bn(rng, 7, edge_prob=0.4, max_parents=3)
            moral = moralize(net)
            assert net.blankets is net.blankets
            assert net.blankets == net.dag().blankets()
            adjacency = moral.adjacency()
            for v in range(net.m):
                assert net.blankets[v] == adjacency[v]
