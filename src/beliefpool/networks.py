"""Bayesian and Markov network structures and the transforms between them.

Variables are integer indices 0..m-1. CPT row encoding: for a node with
parents (p_0, ..., p_{k-1}), row index bit i (least significant bit =
p_0) is 1 exactly when p_i is true, and each row stores the probability
that the owner is true. The constructors raise ModelFormatError for a
model that breaks these rules, as the file loader does for a file.
Dag and MarkovNet store their node count as joint._check_variable_count
returns it, a Python int, and every function here that takes a model
checks its kind with joint._check_kind. _check_parents is the one check
of a parent list (Cpt, Dag node by node, the loader), _check_labels
the one check of a label list (BayesNet and the loader) and
_check_order the one check of an order (direct_by_order and
axioms.family_pooled_joint).

Each model is validated once, where it enters: these constructors and
the file loader check every input. Package code that has already
checked or computed every field (tests/test_imports.py lists it) builds
through joint._trusted or joint._trusted_table and does not check again.

A BayesNet holds its CPT rows once, as one read-only float64 array,
_rows: every CPT's rows in owner order, node j's from its Dag's
_offsets[j]. That array is the one representation. Every producer (the
loader, align_variables, random_bn and both consensus fills) writes it
and builds the network through _from_rows, and every kernel reads it:
_probabilities, _weighted_product_cpts, bn_to_joint, blanket_layout,
strictly_positive and network_to_dict. No Cpt object is built until
bn.cpts is read; the constructor, given Cpt objects, fills the array
from them.

direct_by_order holds the one test that every parent set is complete
(a perfect elimination order), which ConsensusBn uses; _acyclic is the
one cycle check, of Dag and the loader, and _cpt_factor the one layout
of CPT rows as a factor, which bn_to_joint and both of inference's exact
routes read. _min_fill_order, the one unchecked kernel here, is private:
triangulate checks the graph it reads.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    MalformedInstance,
    ModelFormatError,
    NotChordal,
    UnknownVariable,
)
from .joint import (
    JointTable,
    _check_integers,
    _check_kind,
    _check_reals,
    _check_variable_count,
    _contract,
    _shared_variable_count,
    _trusted,
    _trusted_table,
)

EliminationOrder = tuple[int, ...]


def parse_probability(value) -> float:
    """value as a Python float; ModelFormatError unless it is a number
    (joint._check_reals) in [0, 1] (NaN is not)."""
    (value,) = _check_reals((value,), ModelFormatError, "probability", one=True).tolist()
    if not 0.0 <= value <= 1.0:  # also false for NaN
        raise ModelFormatError(f"probability {value} outside [0, 1]")
    return value


def _check_parents(
    owner: int,
    parents: tuple[int, ...],
    m: int | None = None,
    labels: Sequence[str] | None = None,
) -> None:
    """The one check of a parent list: ModelFormatError for a repeat, then
    for the first bad parent: UnknownVariable outside range(0, m) when Dag
    gives its count m, ModelFormatError for the owner itself. A message
    names the node by its label when the loader gives the labels, else
    by index."""
    node = owner if labels is None else repr(labels[owner])
    if len(set(parents)) != len(parents):
        raise ModelFormatError(f"duplicate parents for node {node}")
    for p in parents:
        if m is not None and not 0 <= p < m:
            raise UnknownVariable(f"parent {p} outside range(0, {m})")
        if p == owner:
            raise ModelFormatError(f"node {node} cannot be its own parent")


def _acyclic(parents: Sequence[Sequence[int]]) -> bool:
    """Whether the parent lists, parents[j] those of node j, hold no
    directed cycle, by Kahn's algorithm: a node is ready once all of its
    parents are, and every node gets ready exactly when there is no
    cycle. Dag and the file loader both check with it."""
    children: list[list[int]] = [[] for _ in parents]
    waiting = list(map(len, parents))
    for j, ps in enumerate(parents):
        for p in ps:
            children[p].append(j)
    ready = [j for j, n in enumerate(waiting) if not n]
    for j in ready:  # the list grows while it is read
        for c in children[j]:
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    return len(ready) == len(parents)


def _cpt_factor(
    rows, owner: int, parents: tuple[int, ...], state: bool | None = None
) -> tuple[tuple[int, ...], np.ndarray]:
    """The CPT with these rows as a factor (axes, table): the one layout
    of a CPT as an array. rows holds 2^k entries, or one such row per
    agent stacked on a leading agent axis. The table's axes after that
    one are axes, (owner,) + parents[::-1], in C order; a state of True
    or False fixes the owner, whose axis is then dropped."""
    rows = np.asarray(rows, dtype=np.float64)
    # Row bit i is parents[i], so a C-order reshape puts the last parent
    # first; the owner's state, when free, is the bit above them all.
    axes = parents[::-1]
    if state is None:
        rows = np.concatenate((1.0 - rows, rows), axis=-1)
        axes = (owner,) + axes
    elif not state:
        rows = 1.0 - rows
    return axes, rows.reshape(rows.shape[:-1] + (2,) * len(axes))


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table of one binary node.

    rows[r] is P(owner = true | parent instantiation r), with r encoded
    from the parent outcomes as described in the module docstring.
    """

    owner: int
    parents: tuple[int, ...]
    rows: tuple[float, ...]

    def __post_init__(self) -> None:
        (owner,) = _check_integers((self.owner,), ModelFormatError, "owner")
        parents = _check_integers(self.parents, ModelFormatError, "parent")
        rows = _check_reals(self.rows, ModelFormatError, "rows").tolist()
        rows = tuple(map(parse_probability, rows))
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "rows", rows)
        if owner < 0:
            raise ModelFormatError(f"owner index must be nonnegative, got {owner}")
        _check_parents(owner, parents)
        if len(rows) != 1 << len(parents):
            raise ModelFormatError(
                f"expected {1 << len(parents)} rows for "
                f"{len(parents)} parents, got {len(rows)}"
            )


@dataclass(frozen=True)
class Dag:
    """Directed acyclic structure: parents[j] lists the parents of node j."""

    m: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = _check_variable_count(self.m, capacity=None)
        object.__setattr__(self, "m", m)
        try:
            parents = tuple(_check_integers(ps, ModelFormatError, "parent") for ps in self.parents)
        except TypeError:  # parents is not iterable
            raise ModelFormatError("parent lists must cover every node") from None
        object.__setattr__(self, "parents", parents)
        if len(parents) != m:
            raise ModelFormatError("parent lists must cover every node")
        for j, ps in enumerate(parents):
            _check_parents(j, ps, m)
        if not _acyclic(parents):
            raise ModelFormatError("parent structure contains a directed cycle")

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """_offsets[j] is where node j's CPT rows start in a network's row
        array over this structure, in owner order, and _offsets[m] their
        count; built once, and shared by every network that shares the Dag."""
        return tuple(itertools.accumulate((1 << len(ps) for ps in self.parents), initial=0))

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """children[j] lists the nodes that have j as a parent; built once."""
        out: list[list[int]] = [[] for _ in range(self.m)]
        for j, ps in enumerate(self.parents):
            for p in ps:
                out[p].append(j)
        return tuple(map(tuple, out))

    def skeleton(self) -> frozenset[tuple[int, int]]:
        """Undirected edge set, each pair sorted ascending."""
        return frozenset(
            (min(p, j), max(p, j)) for j, ps in enumerate(self.parents) for p in ps
        )


def _check_labels(m: int, labels) -> tuple[str, ...] | None:
    """labels (None for none) as a tuple: the one label check, of BayesNet and
    the loader. ModelFormatError unless a sequence of m distinct nonempty strings."""
    if labels is None:
        return None
    try:
        labels = tuple(labels)
    except TypeError:
        raise ModelFormatError("variable labels must be a sequence") from None
    if len(labels) != m:
        raise ModelFormatError(f"expected {m} labels, got {len(labels)}")
    if not all(isinstance(label, str) and label for label in labels):
        raise ModelFormatError("variable labels must be nonempty strings")
    if len(set(labels)) != len(labels):
        raise ModelFormatError("variable labels must be distinct")
    return labels


# One CPT of a node's Markov blanket as the closed-form query reads it:
# (rows, owner, the node's row bit, the (variable, row bit) pairs of the
# owner's other parents).
BlanketCpt = tuple[tuple[float, ...], int, int, tuple[tuple[int, int], ...]]


class _BuiltOnRead:
    """BayesNet.cpts, a field that a trusted construction gives as an
    iterable of the CPTs (_Cpts): its first read stores them as the
    tuple. A data descriptor, so the read comes here even once the
    instance holds the value; dataclass sees it as a field without a
    default, because its read on the class raises AttributeError."""

    def __get__(self, bn, owner=None):
        if bn is None:
            raise AttributeError("cpts")
        cpts = bn.__dict__["cpts"]
        if type(cpts) is not tuple:
            cpts = bn.__dict__["cpts"] = tuple(cpts)
        return cpts

    def __set__(self, bn, cpts) -> None:
        bn.__dict__["cpts"] = cpts


@dataclass(frozen=True)
class BayesNet:
    """Bayesian network over binary variables: one CPT per node.

    The constructor fills the row array (the module docstring) from the
    CPTs; a network from _from_rows builds its CPTs on the first read."""

    cpts: tuple[Cpt, ...] = _BuiltOnRead()
    labels: tuple[str, ...] | None = None
    _dag: Dag = field(init=False, repr=False, compare=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            cpts = tuple(self.cpts)
        except TypeError:
            raise ModelFormatError("a network's CPTs must be a sequence") from None
        if not all(isinstance(c, Cpt) for c in cpts):
            raise ModelFormatError("a network's CPTs must be Cpt objects")
        cpts = tuple(sorted(cpts, key=attrgetter("owner")))
        object.__setattr__(self, "cpts", cpts)
        owners = [c.owner for c in cpts]
        if owners != list(range(len(cpts))):
            raise ModelFormatError("need exactly one CPT per variable 0..m-1")
        object.__setattr__(self, "labels", _check_labels(len(cpts), self.labels))
        # Validates parent ranges and acyclicity; dag() hands out this one.
        object.__setattr__(
            self, "_dag", Dag(len(cpts), tuple(c.parents for c in cpts))
        )
        rows = np.array([r for c in cpts for r in c.rows], dtype=np.float64)
        rows.flags.writeable = False
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def m(self) -> int:
        """The variable count, which every query's check reads; built once."""
        return self._dag.m

    @cached_property
    def blanket_layout(self) -> tuple[tuple[BlanketCpt, ...], ...]:
        """blanket_layout[j] lays out the CPT of j and of each of its
        children, in increasing owner order: every factor that mentions j.
        j's own CPT has row bit 0. Built once."""
        parents, offsets = self._dag.parents, self._dag._offsets
        values = self._rows.tolist()
        rows = [tuple(values[a:b]) for a, b in zip(offsets, offsets[1:])]
        bits = [tuple([(p, 1 << i) for i, p in enumerate(ps)]) for ps in parents]
        layout = []
        for j, kids in enumerate(self._dag.children):
            entries = []
            for u in sorted((j, *kids)):
                if u == j:
                    entries.append((rows[j], j, 0, bits[j]))
                else:
                    entries.append((
                        rows[u],
                        u,
                        1 << parents[u].index(j),
                        tuple([pair for pair in bits[u] if pair[0] != j]),
                    ))
            layout.append(tuple(entries))
        return tuple(layout)

    @cached_property
    def strictly_positive(self) -> bool:
        """Whether every CPT row lies strictly inside (0, 1); checked once.

        Then every full assignment, and so every event, has positive
        probability.
        """
        return all(0.0 < r < 1.0 for r in self._rows.tolist())

    def dag(self) -> Dag:
        """The network's structure, built and validated once."""
        return self._dag

    def __reduce__(self):
        # A copy or an unpickled network is built by the constructor, so
        # it gets its own read-only rows, even while cpts is unbuilt.
        return BayesNet, (self.cpts, self.labels)


class _Cpts:
    """The CPTs over dag with these rows in owner order, as _from_rows
    gives them to BayesNet for cpts. Each iteration builds them afresh,
    so first reads of bn.cpts in two threads at once each get them."""

    def __init__(self, dag: Dag, rows: np.ndarray) -> None:
        self.dag, self.rows = dag, rows

    def __iter__(self) -> Iterator[Cpt]:
        values = self.rows.tolist()
        offsets = self.dag._offsets
        for owner, ps in enumerate(self.dag.parents):
            row = tuple(values[offsets[owner]:offsets[owner + 1]])
            yield _trusted(Cpt, owner=owner, parents=ps, rows=row)


def _from_rows(dag: Dag, rows: np.ndarray, labels: tuple[str, ...] | None) -> BayesNet:
    """The network over dag with these CPT rows and labels, which the
    caller has checked as the constructor would: rows a new float64 array
    of probabilities in owner order (node j's 2^|parents| rows from
    dag._offsets[j]), which this makes read-only, and labels None or
    what _check_labels returns. No Cpt is built until cpts is read."""
    rows.flags.writeable = False
    return _trusted(BayesNet, cpts=_Cpts(dag, rows), labels=labels, _dag=dag, _rows=rows)


@dataclass(frozen=True)
class MarkovNet:
    """Undirected structure over binary variables."""

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        m = _check_variable_count(self.m, capacity=None)
        object.__setattr__(self, "m", m)
        # Unpacking rejects a non-iterable or an edge of another length.
        try:
            ends = [x for u, v in self.edges for x in (u, v)]
        except (TypeError, ValueError):
            raise ModelFormatError("edges must be pairs of nodes") from None
        ends = _check_integers(ends, ModelFormatError, "edge endpoint")
        canonical = set()
        for u, v in zip(ends[::2], ends[1::2]):
            if not (0 <= u < m and 0 <= v < m):
                raise UnknownVariable(f"edge ({u}, {v}) outside range(0, {m})")
            if u == v:
                raise ModelFormatError(f"self-loop on node {u}")
            canonical.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canonical))

    def adjacency(self) -> dict[int, set[int]]:
        """Mutable adjacency map covering every node, isolated ones included."""
        adj: dict[int, set[int]] = {v: set() for v in range(self.m)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def bn_to_joint(bn: BayesNet) -> JointTable:
    """Dense joint table from the network's CPT factorization."""
    _check_kind(bn, BayesNet)
    _check_variable_count(bn.m)
    offsets = bn._dag._offsets
    factors = [
        _cpt_factor(bn._rows[offsets[v]:offsets[v + 1]], v, ps)
        for v, ps in enumerate(bn._dag.parents)
    ]
    # Every variable owns a factor, so no axis is summed out; variable j
    # on axis m - 1 - j lists the states by index in C order.
    return _trusted_table(bn.m, _contract(factors, range(bn.m - 1, -1, -1)).ravel())


def moralize(structure: BayesNet | Dag) -> MarkovNet:
    """Undirected structure: drop directions and marry co-parents."""
    _check_kind(structure, (Dag, BayesNet))
    dag = structure.dag() if isinstance(structure, BayesNet) else structure
    edges = set(dag.skeleton())
    for ps in dag.parents:
        for u, v in itertools.combinations(sorted(ps), 2):
            edges.add((u, v))
    # Sorted pairs of a validated structure's nodes.
    return _trusted(MarkovNet, m=dag.m, edges=frozenset(edges))


def mn_union(nets: Sequence[MarkovNet]) -> MarkovNet:
    """Edge union of structures over the same variable set."""
    m = _shared_variable_count(nets, MarkovNet, "structure", "structures")
    edges: set[tuple[int, int]] = set()
    for net in nets:
        edges |= net.edges
    # A union of validated, sorted edge sets over the same nodes.
    return _trusted(MarkovNet, m=m, edges=frozenset(edges))


def _fill_count(adj: Mapping[int, set[int]], v: int) -> int:
    return sum(
        1 for u, w in itertools.combinations(adj[v], 2) if w not in adj[u]
    )


def _min_fill_order(adjacency: Mapping[int, set[int]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Greedy elimination adding the fewest fill edges per step, yielded
    as it goes: (v, nbrs), v's neighbors sorted, before the step's fill
    edges join them; ties pick the lowest index. nbrs are v's family (and
    bucket scope), its neighbors eliminated later in the chordal graph of
    the steps. A caller with a budget stops iterating where it runs out.

    Fill counts are kept between steps and recounted only where they can
    change. A vertex's count is the number of non-adjacent pairs among
    its neighbors. Eliminating v changes the neighborhood of v's
    neighbors only, and a fill edge (u, w) closes a pair of exactly the
    vertices adjacent to both u and w; every other vertex keeps its
    neighbors and their pairs. So after each step only v's neighbors and
    the common neighbors of each new fill edge's endpoints are recounted,
    and every pick is the one a full recount would make.

    The picks come from a heap of (count, vertex) entries with lazy
    deletion: a recount that changes a count pushes a new entry, and a
    pop whose count is stale or whose vertex is gone is skipped. So each
    pick is the least (count, vertex), as a scan finds it, in O(log m)
    amortized rather than a scan's O(m): O(m log m) on a chain.
    """
    adj = {v: set(nbrs) for v, nbrs in adjacency.items()}
    fill = {v: _fill_count(adj, v) for v in adj}
    heap = [(count, v) for v, count in fill.items()]
    heapq.heapify(heap)
    while heap:
        count, v = heapq.heappop(heap)
        if fill.get(v) != count:
            continue
        nbrs = tuple(sorted(adj[v]))
        yield v, nbrs
        added = []
        for u, w in itertools.combinations(nbrs, 2):
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
                added.append((u, w))
        for u in nbrs:
            adj[u].discard(v)
        del adj[v], fill[v]
        stale = set(nbrs)
        for u, w in added:
            stale |= adj[u] & adj[w]
        for u in stale:
            count = _fill_count(adj, u)
            if count != fill[u]:
                fill[u] = count
                heapq.heappush(heap, (count, u))


def triangulate(mn: MarkovNet) -> tuple[MarkovNet, EliminationOrder]:
    """Chordal supergraph of mn plus the elimination order that built it.

    The returned order is a perfect elimination order of the chordal
    graph; running it again adds no further fill.
    """
    _check_kind(mn, MarkovNet)
    steps = list(_min_fill_order(mn.adjacency()))
    # mn's edges and the fill edges, as sorted pairs of mn's nodes.
    edges = frozenset((min(u, v), max(u, v)) for v, nbrs in steps for u in nbrs)
    return _trusted(MarkovNet, m=mn.m, edges=edges), tuple(v for v, _ in steps)


def _check_order(m: int, order: Sequence[int]) -> EliminationOrder:
    """order as Python ints; MalformedInstance unless its entries are
    integers (_check_integers) that permute range(0, m)."""
    order = _check_integers(order, MalformedInstance, "variable")
    if sorted(order) != list(range(m)):
        raise MalformedInstance("order must be a permutation of all variables")
    return order


def direct_by_order(mn: MarkovNet, order: Sequence[int]) -> Dag:
    """Orient a chordal graph along an elimination order.

    Each node's parents are its neighbors eliminated later, so the
    last-eliminated node becomes the first node in topological order.
    Raises MalformedInstance unless order is a permutation of mn's
    variables, given as integers, and NotChordal unless every parent set
    comes out complete, which holds exactly when order is a perfect
    elimination order of mn.
    """
    _check_kind(mn, MarkovNet)
    order = _check_order(mn.m, order)
    adj = mn.adjacency()
    pos = {v: i for i, v in enumerate(order)}
    parents = tuple(
        tuple(sorted(u for u in adj[v] if pos[u] > pos[v])) for v in range(mn.m)
    )
    for v, ps in enumerate(parents):
        for u, w in itertools.combinations(ps, 2):
            if w not in adj[u]:
                raise NotChordal(
                    "order is not a perfect elimination order of the graph"
                )
    # Every parent comes later in the order, so the result is acyclic.
    return _trusted(Dag, m=mn.m, parents=parents)
