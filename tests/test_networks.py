"""Network structures and graph transforms: CPT row encoding, DAG
ordering, moralization, union, triangulation, and redirection.

Chordality results are cross-checked against networkx, which uses an
unrelated algorithm, so the package's own check (direct_by_order's
NotChordal) never grades itself.
"""

import itertools
from collections import defaultdict
from unittest import mock

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
    ModelFormatError,
    NotChordal,
    UnknownVariable,
    bn_to_joint,
)
from beliefpool import inference, networks
from beliefpool.inference import query_conditional
from beliefpool.joint import conditional_probability
from beliefpool.networks import (
    _min_fill_order,
    direct_by_order,
    mn_union,
    moralize,
    triangulate,
)
from beliefpool.sampling import random_bn

from samplers import random_decomposable_bn

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


def is_decomposable(dag):
    """networkx's reference, independent of the package's own check in
    direct_by_order: the skeleton is chordal and every parent set is
    complete in it."""
    skeleton = nx.Graph()
    skeleton.add_nodes_from(range(dag.m))
    skeleton.add_edges_from(dag.skeleton())
    return nx.is_chordal(skeleton) and all(
        skeleton.has_edge(u, w)
        for ps in dag.parents
        for u, w in itertools.combinations(ps, 2)
    )


def prob_true(cpt, assignment):
    """P(owner = true) read from cpt.rows at the row the assignment picks:
    bit i of the row index is parents[i]."""
    return cpt.rows[sum(1 << i for i, p in enumerate(cpt.parents) if assignment[p])]


def min_fill_by_full_recount(adjacency):
    """Oracle for _min_fill_order: the plain greedy loop that recounts the
    fill of every remaining vertex before each pick. Returns its steps,
    (vertex, sorted neighbors before the step's fill), and the fill edges."""
    def fill_count(v):
        return sum(
            1 for u, w in itertools.combinations(adj[v], 2) if w not in adj[u]
        )

    adj = {v: set(nbrs) for v, nbrs in adjacency.items()}
    remaining = set(adj)
    steps, fills = [], set()
    while remaining:
        v = min(remaining, key=lambda u: (fill_count(u), u))
        nbrs = tuple(sorted(adj[v]))
        steps.append((v, nbrs))
        for u, w in itertools.combinations(nbrs, 2):
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
                fills.add((u, w))
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        remaining.discard(v)
    return steps, frozenset(fills)


@st.composite
def graphs(draw):
    m = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_mn(rng, m, density)


class TestCpt:
    def test_row_count_must_match_parents(self):
        with pytest.raises(ValueError):
            Cpt(0, (1, 2), (0.1, 0.9))

    def test_rejects_self_parent(self):
        with pytest.raises(ModelFormatError) as exc:
            Cpt(0, (0,), (0.1, 0.9))
        assert str(exc.value) == "node 0 cannot be its own parent"

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
    def test_cycle_rejected(self):
        with pytest.raises(ModelFormatError) as exc:
            Dag(2, ((1,), (0,)))
        assert str(exc.value) == "parent structure contains a directed cycle"

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, deadline=None)
    def test_cycle_check_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        edge_prob = float(rng.uniform(0.0, 0.4))
        parents = tuple(
            tuple(p for p in range(m) if p != j and rng.random() < edge_prob)
            for j in range(m)
        )
        graph = nx.DiGraph()
        graph.add_nodes_from(range(m))
        graph.add_edges_from((p, j) for j, ps in enumerate(parents) for p in ps)
        if nx.is_directed_acyclic_graph(graph):
            assert Dag(m, parents).parents == parents
        else:
            with pytest.raises(ModelFormatError, match="directed cycle"):
                Dag(m, parents)

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

    def test_numpy_parents_become_python_ints(self):
        dag = Dag(2, ((), (np.int64(0),)))
        assert type(dag.parents[1][0]) is int

    def test_children_inverts_parents(self):
        assert VEE.children == ((2,), (2,), ())
        assert VEE.children is VEE.children

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

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        m=st.integers(min_value=0, max_value=9),
        max_parents=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_a_fold_in_owner_order(self, seed, m, max_parents):
        # Each state's mass is its CPT entries folded left in owner order,
        # in Python floats, normalized by np.sum as _trusted_table does.
        rng = np.random.default_rng(seed)
        edge_prob = float(rng.uniform(0.2, 0.8))
        net = random_bn(rng, m, edge_prob=edge_prob, max_parents=max_parents)
        mass = []
        for index in range(1 << m):
            bits = {j: bool((index >> j) & 1) for j in range(m)}
            product = 1.0
            for cpt in net.cpts:
                p = prob_true(cpt, bits)
                product *= p if bits[cpt.owner] else 1.0 - p
            mass.append(product)
        mass = np.array(mass)
        assert np.array_equal(bn_to_joint(net).probs, mass / np.sum(mass))


class TestMarkovNet:
    @pytest.mark.parametrize(
        "edges",
        [{(0, 1.5)}, {(0.0, 1)}, {(0, "1")}, {(0, 1, 1)}, {(0,)}, {5}],
        ids=["float-endpoint", "integral-float", "string", "triple", "single", "not-a-pair"],
    )
    def test_rejects_edges_that_are_not_integer_pairs(self, edges):
        # (0, 1.5) used to build, and triangulate then raised KeyError: 1.5.
        with pytest.raises(ModelFormatError, match="edges must be pairs of integers"):
            MarkovNet(3, edges)

    @pytest.mark.parametrize("m", ["3", 3.0, None])
    def test_rejects_a_count_that_is_not_an_integer(self, m):
        # 3.0 used to build, and triangulate then failed with a bare TypeError.
        with pytest.raises(ModelFormatError, match=f"variable count {m!r} is not an integer"):
            MarkovNet(m, {(0, 1)})

    def test_edges_become_sorted_python_int_pairs(self):
        net = MarkovNet(3, {(np.int64(2), np.uint8(0)), (1, 0)})
        assert net.edges == frozenset({(0, 2), (0, 1)})
        assert all(type(u) is int for edge in net.edges for u in edge)


class TestMoralize:
    def test_marries_coparents(self):
        assert moralize(VEE).edges == frozenset({(0, 2), (1, 2), (0, 1)})

    def test_chain_keeps_skeleton(self):
        assert moralize(CHAIN).edges == frozenset({(0, 1)})


class TestMnUnion:
    def test_union_of_edge_sets(self):
        got = mn_union([mn(3, (0, 1)), mn(3, (1, 2))])
        assert got.edges == frozenset({(0, 1), (1, 2)})

    def test_variable_count_must_match(self):
        with pytest.raises(MismatchedVariables):
            mn_union([mn(2, (0, 1)), mn(3, (0, 1))])


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

    def test_min_fill_order_yields_each_step_before_its_fill(self):
        square = mn(4, (0, 1), (1, 2), (2, 3), (0, 3))
        # Node 0 goes first, with neighbors 1 and 3, and its step joins them.
        assert list(_min_fill_order(square.adjacency())) == [
            (0, (1, 3)), (1, (2, 3)), (2, (3,)), (3, ()),
        ]
        chordal, order = triangulate(square)
        assert chordal.edges - square.edges == {(1, 3)}
        assert order == (0, 1, 2, 3)

    def test_fill_edge_lowers_count_of_a_non_neighbor(self):
        # The 4-cycle 0-2-1-3: eliminating 0 joins 2 and 3, so 1, which is
        # not adjacent to 0, drops to fill 0 and wins the tie with 2.
        square = mn(4, (0, 2), (1, 2), (1, 3), (0, 3))
        chordal, order = triangulate(square)
        assert order == (0, 1, 2, 3)
        assert chordal.edges - square.edges == {(2, 3)}

    @given(net=graphs())
    @settings(max_examples=300, deadline=None)
    def test_min_fill_order_matches_full_recount(self, net):
        steps, fills = min_fill_by_full_recount(net.adjacency())
        assert list(_min_fill_order(net.adjacency())) == steps
        chordal, order = triangulate(net)
        assert order == tuple(v for v, _ in steps)
        assert chordal.edges == net.edges | fills

    def test_min_fill_order_computes_no_step_it_is_not_asked_for(self):
        # A clique's first step fills nothing; stopping there leaves the
        # remaining vertices uneliminated and their counts unread.
        clique = mn(4, *itertools.combinations(range(4), 2))
        with mock.patch(
            "beliefpool.networks._fill_count", wraps=networks._fill_count
        ) as counts:
            steps = _min_fill_order(clique.adjacency())
            assert counts.call_count == 0
            assert next(steps) == (0, (1, 2, 3))
            assert counts.call_count == 4  # the initial counts, nothing after

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
        assert is_decomposable(CHAIN.dag())
        assert not is_decomposable(VEE)

    def test_generated_corpus(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            net = random_decomposable_bn(rng, int(rng.integers(2, 8)))
            assert is_decomposable(net.dag())

    def test_directed_triangulation_is_decomposable(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            chordal, order = triangulate(random_mn(rng, 7))
            assert is_decomposable(direct_by_order(chordal, order))


class TestMarkovBlanket:
    def test_parents_children_coparents(self):
        # 0 -> 2 <- 1, 2 -> 3, 4 isolated. The closed form for a single
        # target reads exactly its blanket (parents, children, co-parents):
        # {0, 1, 3} for node 2, {1, 2} for node 0, nothing for node 4.
        # Evidence that misses one of them falls back to elimination.
        net = BayesNet((
            Cpt(0, (), (0.3,)),
            Cpt(1, (), (0.6,)),
            Cpt(2, (0, 1), (0.1, 0.7, 0.4, 0.9)),
            Cpt(3, (2,), (0.2, 0.8)),
            Cpt(4, (), (0.45,)),
        ))
        dense = bn_to_joint(net)
        for v, evidence, closed_form in (
            (2, {0: True, 1: False, 3: True}, True),
            (2, {0: True, 1: False}, False),
            # A mapping that defaults a missing key must not fill in 3.
            (2, defaultdict(bool, {0: True, 1: False}), False),
            (0, {1: True, 2: False}, True),
            (0, {2: False}, False),
            (4, {}, True),
        ):
            with mock.patch.object(
                inference, "_probabilities", wraps=inference._probabilities
            ) as kernel:
                got = query_conditional(net, {v: True}, evidence)
            assert kernel.call_count == (0 if closed_form else 2)
            want = conditional_probability(dense, {v: True}, dict(evidence))
            assert got == pytest.approx(want, abs=1e-12)

    def test_blanket_cpts_are_the_node_and_its_children(self):
        net = random_bn(np.random.default_rng(41), 7, edge_prob=0.4, max_parents=3)
        assert net.blanket_layout is net.blanket_layout
        assert any(len(parents) > 1 for parents in net.dag().parents)
        for v in range(net.m):
            layout = net.blanket_layout[v]
            owners = [owner for _, owner, _, _ in layout]
            assert owners == sorted((v, *net.dag().children[v]))
            for rows, owner, bit, others in layout:
                cpt = net.cpts[owner]
                assert rows is cpt.rows
                # v's row bit in its child's CPT; v's own CPT has none.
                if owner == v:
                    assert bit == 0
                else:
                    assert bit == 1 << cpt.parents.index(v)
                assert others == tuple(
                    (p, 1 << cpt.parents.index(p)) for p in cpt.parents if p != v
                )
                assert bit | sum(b for _, b in others) == (1 << len(cpt.parents)) - 1
