"""Bayesian and Markov network structures and the transforms between them.

Variables are integer indices 0..m-1. CPT row encoding: for a node with
parents (p_0, ..., p_{k-1}), row index bit i (least significant bit =
p_0) is 1 exactly when p_i is true, and each row stores the probability
that the owner is true. The constructors raise ModelFormatError for a
model that breaks this contract, as the file loader does for a file.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Collection, Mapping, Sequence

import numpy as np

from .errors import (
    CapacityExceeded,
    MalformedInstance,
    MismatchedVariables,
    ModelFormatError,
    NotChordal,
    UnknownVariable,
)
from .joint import MAX_DENSE_VARIABLES, Assignment, JointTable

EliminationOrder = tuple[int, ...]


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
        parents = tuple(self.parents)
        rows = tuple(map(float, self.rows))
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "rows", rows)
        if self.owner < 0:
            raise ModelFormatError(f"owner index must be nonnegative, got {self.owner}")
        if parents:
            if len(set(parents)) != len(parents):
                raise ModelFormatError("duplicate parent indices")
            if self.owner in parents:
                raise ModelFormatError("node cannot be its own parent")
        if len(rows) != 1 << len(parents):
            raise ModelFormatError(
                f"expected {1 << len(parents)} rows for "
                f"{len(parents)} parents, got {len(rows)}"
            )
        for r in rows:
            if not 0.0 <= r <= 1.0:  # also false for NaN
                raise ModelFormatError(f"row probability {r} outside [0, 1]")

    def row_pair(self, v: int, assignment: Assignment) -> tuple[float, float]:
        """P(owner = true) with v false and with v true, every other
        parent read from assignment, which must cover it. When v is not
        a parent, both are the one row the assignment picks."""
        row = bit = 0
        for i, parent in enumerate(self.parents):
            if parent == v:
                bit = 1 << i
            elif assignment[parent]:
                row |= 1 << i
        return self.rows[row], self.rows[row | bit]

    @cached_property
    def family(self) -> tuple[int, ...]:
        """Owner and parents in increasing order: the axes of table."""
        return tuple(sorted(self.parents + (self.owner,)))

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only P(owner | parents), axis i = family[i]; built once."""
        # Row bit i is parents[i], so a Fortran-order reshape puts parents[i]
        # on axis i; the view has the same axes with the owner's last.
        p_true = np.reshape(self.rows, (2,) * len(self.parents), order="F")
        family = self.family
        table = np.empty((2,) * len(family))
        view = table.transpose([family.index(u) for u in self.parents + (self.owner,)])
        np.subtract(1.0, p_true, out=view[..., 0])
        view[..., 1] = p_true
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class Dag:
    """Directed acyclic structure: parents[j] lists the parents of node j."""

    m: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = self.m
        parents = tuple(map(tuple, self.parents))
        object.__setattr__(self, "parents", parents)
        if len(parents) != m:
            raise ModelFormatError("parent lists must cover every node")
        for j, ps in enumerate(parents):
            if not ps:
                continue
            if len(set(ps)) != len(ps):
                raise ModelFormatError(f"duplicate parents for node {j}")
            if min(ps) < 0 or max(ps) >= m or j in ps:
                for p in ps:  # the first bad parent names the error
                    if not 0 <= p < m:
                        raise UnknownVariable(f"parent {p} outside range(0, {m})")
                    if p == j:
                        raise ModelFormatError(f"node {j} cannot be its own parent")
        self.topological_order()  # raises on cycles

    def children(self) -> tuple[tuple[int, ...], ...]:
        """children()[j] lists the nodes that have j as a parent."""
        out: list[list[int]] = [[] for _ in range(self.m)]
        for j, ps in enumerate(self.parents):
            for p in ps:
                out[p].append(j)
        return tuple(map(tuple, out))

    def blankets(self) -> tuple[frozenset[int], ...]:
        """blankets()[j] is the Markov blanket of node j: its parents,
        children, and children's other parents."""
        out: list[set[int]] = [set(ps) for ps in self.parents]
        for j, ps in enumerate(self.parents):
            for p in ps:
                out[p].add(j)
                out[p].update(ps)
        for j, blanket in enumerate(out):
            blanket.discard(j)
        return tuple(map(frozenset, out))

    def skeleton(self) -> frozenset[tuple[int, int]]:
        """Undirected edge set, each pair sorted ascending."""
        return frozenset(
            (min(p, j), max(p, j)) for j, ps in enumerate(self.parents) for p in ps
        )

    def topological_order(self) -> tuple[int, ...]:
        """Parents-before-children order, lowest index first among ties."""
        remaining = [len(ps) for ps in self.parents]
        children = self.children()
        ready = [j for j in range(self.m) if remaining[j] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            j = heapq.heappop(ready)
            order.append(j)
            for c in children[j]:
                remaining[c] -= 1
                if remaining[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != self.m:
            raise ModelFormatError("parent structure contains a directed cycle")
        return tuple(order)


def _check_labels(m: int, labels: tuple[str, ...] | None) -> None:
    if labels is None:
        return
    if len(labels) != m:
        raise ModelFormatError(f"expected {m} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ModelFormatError("variable labels must be distinct")


@dataclass(frozen=True)
class BayesNet:
    """Bayesian network over binary variables: one CPT per node."""

    cpts: tuple[Cpt, ...]
    labels: tuple[str, ...] | None = None
    _dag: Dag = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cpts = tuple(sorted(self.cpts, key=attrgetter("owner")))
        object.__setattr__(self, "cpts", cpts)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        owners = [c.owner for c in cpts]
        if owners != list(range(len(cpts))):
            raise ModelFormatError("need exactly one CPT per variable 0..m-1")
        _check_labels(self.m, self.labels)
        # Validates parent ranges and acyclicity; dag() hands out this one.
        object.__setattr__(
            self, "_dag", Dag(len(cpts), tuple(c.parents for c in cpts))
        )

    @property
    def m(self) -> int:
        return len(self.cpts)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """children[j] lists the nodes that have j as a parent; built once."""
        return self._dag.children()

    @cached_property
    def blankets(self) -> tuple[frozenset[int], ...]:
        """blankets[j] is the Markov blanket of node j; built once."""
        return self._dag.blankets()

    @cached_property
    def strictly_positive(self) -> bool:
        """Whether every CPT row lies strictly inside (0, 1); checked once.

        Then every full assignment, and so every event, has positive
        probability.
        """
        return all(0.0 < r < 1.0 for cpt in self.cpts for r in cpt.rows)

    def dag(self) -> Dag:
        """The network's structure, built and validated once."""
        return self._dag


@dataclass(frozen=True)
class MarkovNet:
    """Undirected structure over binary variables."""

    m: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        canonical = set()
        for u, v in self.edges:
            if not (0 <= u < self.m and 0 <= v < self.m):
                raise UnknownVariable(f"edge ({u}, {v}) outside range(0, {self.m})")
            if u == v:
                raise ModelFormatError(f"self-loop on node {u}")
            canonical.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canonical))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        _check_labels(self.m, self.labels)

    def adjacency(self) -> dict[int, set[int]]:
        """Mutable adjacency map covering every node, isolated ones included."""
        adj: dict[int, set[int]] = {v: set() for v in range(self.m)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _as_dag(structure: BayesNet | Dag) -> Dag:
    return structure.dag() if isinstance(structure, BayesNet) else structure


def bn_to_joint(bn: BayesNet) -> JointTable:
    """Dense joint table from the network's CPT factorization."""
    if bn.m > MAX_DENSE_VARIABLES:
        raise CapacityExceeded(
            f"cannot materialize a dense table over {bn.m} variables"
        )
    size = 1 << bn.m
    indices = np.arange(size)
    probs = np.ones(size, dtype=np.float64)
    for cpt in bn.cpts:
        row_idx = np.zeros(size, dtype=np.int64)
        for i, parent in enumerate(cpt.parents):
            row_idx |= ((indices >> parent) & 1) << i
        p_true = np.asarray(cpt.rows, dtype=np.float64)[row_idx]
        owner_true = ((indices >> cpt.owner) & 1) == 1
        probs *= np.where(owner_true, p_true, 1.0 - p_true)
    return JointTable(bn.m, probs)


def moralize(structure: BayesNet | Dag) -> MarkovNet:
    """Undirected structure: drop directions and marry co-parents."""
    dag = _as_dag(structure)
    edges = set(dag.skeleton())
    for ps in dag.parents:
        for u, v in itertools.combinations(sorted(ps), 2):
            edges.add((u, v))
    labels = structure.labels if isinstance(structure, BayesNet) else None
    return MarkovNet(dag.m, frozenset(edges), labels)


def mn_union(nets: Sequence[MarkovNet]) -> MarkovNet:
    """Edge union of structures over the same variable set."""
    if not nets:
        raise MalformedInstance("need at least one structure")
    m = nets[0].m
    for net in nets:
        if net.m != m:
            raise MismatchedVariables(
                f"structures disagree on variable count: {net.m} != {m}"
            )
    edges: set[tuple[int, int]] = set()
    for net in nets:
        edges |= net.edges
    labels = nets[0].labels
    if any(net.labels != labels for net in nets):
        labels = None
    return MarkovNet(m, frozenset(edges), labels)


def _fill_count(adj: Mapping[int, set[int]], v: int) -> int:
    return sum(
        1 for u, w in itertools.combinations(adj[v], 2) if w not in adj[u]
    )


def min_fill_order(
    adjacency: Mapping[int, set[int]], keep: Collection[int] = ()
) -> tuple[EliminationOrder, frozenset[tuple[int, int]]]:
    """Greedy elimination order adding the fewest fill edges per step.

    Variables in keep are never eliminated but still count toward fill.
    Ties pick the lowest variable index. Returns the order and the set
    of fill edges added (each pair sorted ascending).

    Fill counts are kept between steps and recounted only where they can
    change. A vertex's count is the number of non-adjacent pairs among
    its neighbors. Eliminating v changes the neighborhood of v's
    neighbors only, and a fill edge (u, w) closes a pair of exactly the
    vertices adjacent to both u and w; every other vertex keeps its
    neighbors and their pairs. So after each step only v's neighbors and
    the common neighbors of each new fill edge's endpoints are recounted,
    and every pick is the one a full recount would make.
    """
    adj = {v: set(nbrs) for v, nbrs in adjacency.items()}
    fill = {v: _fill_count(adj, v) for v in adj if v not in keep}
    order: list[int] = []
    fills: set[tuple[int, int]] = set()
    while fill:
        v = min(fill, key=lambda u: (fill[u], u))
        nbrs = sorted(adj[v])
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
        for u in stale.intersection(fill):
            fill[u] = _fill_count(adj, u)
        fills.update(added)
        order.append(v)
    return tuple(order), frozenset(fills)


def triangulate(mn: MarkovNet) -> tuple[MarkovNet, EliminationOrder]:
    """Chordal supergraph of mn plus the elimination order that built it.

    The returned order is a perfect elimination order of the chordal
    graph; running it again adds no further fill.
    """
    order, fills = min_fill_order(mn.adjacency())
    chordal = MarkovNet(mn.m, mn.edges | fills, mn.labels)
    return chordal, order


def direct_by_order(mn: MarkovNet, order: Sequence[int]) -> Dag:
    """Orient a chordal graph along an elimination order.

    Each node's parents are its neighbors eliminated later, so the
    last-eliminated node becomes the first node in topological order.
    Raises NotChordal unless every parent set comes out complete, which
    holds exactly when order is a perfect elimination order of mn.
    """
    if sorted(order) != list(range(mn.m)):
        raise MalformedInstance("order must be a permutation of all variables")
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
    return Dag(mn.m, parents)


def is_decomposable(structure: BayesNet | Dag) -> bool:
    """Whether every node's parent set is already complete in the skeleton."""
    dag = _as_dag(structure)
    skeleton = dag.skeleton()
    for ps in dag.parents:
        for u, v in itertools.combinations(sorted(ps), 2):
            if (u, v) not in skeleton:
                return False
    return True
