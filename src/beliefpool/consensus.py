"""Consensus structures and consensus networks for groups of agents.

The pool decides who shapes the consensus: an agent of weight 0 is not
pooled (its factor is P**0 = 1), so logop_consensus_bn, logop_query and
linop_query drop it once, up front, and neither the structure, any CPT,
nor any agent query sees it. A pool of one agent is that agent, so
logop_query, like linop_query, then asks it directly.

Structure side: moralize every distinct agent structure, union the
undirected structures, and eliminate by min-fill; each variable's
parents are its neighbors at its step. The result is a decomposable
directed structure that can represent any geometric-mean consensus.
Its builder, _structure, stops min-fill with CapacityExceeded at the
first family over the capacity, before either fill, and so does
consensus_bn_structure, which counts the rows once, as dense_oracle does.

Numeric side: fill in that structure's CPTs so the implied joint equals
the normalized weighted geometric mean of the agent joints, using only
per-agent inference queries, never a dense 2**m table. The fill makes
three passes over the elimination order (a reverse topological order):
1. For each node and each parent instantiation, the node's neighbors
   are fixed (parents by the instantiation, children all true, or all
   false if an agent's conditional is degenerate on that) and every
   pooled agent is asked for its conditional on it. The target and the
   context enter query_conditional as joint._Checked, so their keys are
   not checked again; only the row's outcome (children true or false)
   is kept.
2. One _pooled_log_odds call pools the agents' conditionals for every
   row of the build.
3. Each row's log-odds gains each already-filled child's log-ratio,
   log P(child | node false) - log P(child | node true) at the child's
   value in the context, which removes the conditioning on the
   children. Per (node, child) pair, a table built once gives, for
   each of the node's rows, the child's row: its bits for the node's
   parents follow the node's row, and its bits for the node's children
   are set exactly when the row's outcome is true. The ratio is read
   from the child's log-sigmoids, log P(true) and log P(false) from its
   log-odds, taken once when the child's row is finished, so it is
   finite even where the child's row rounds to 0 or 1. One _logistic
   call then turns every row's log-odds into a probability.
The route needs strictly positive agents: before any query it raises
DegenerateCpt for an agent of positive weight with a CPT row of 0 or 1,
naming the agent by its position, the variable and the row. After that,
only an agent conditional that rounds to 0 or 1, or a context whose
evidence underflows to zero, fails (DegenerateCpt).

The dense_oracle route needs no queries: the pool is the normalized
product of every agent CPT raised to the agent's weight, and one
elimination pass over it along the elimination order yields the CPTs.

A ConsensusBn built by hand is checked with direct_by_order; the
builders, whose structure _structure builds chordal, use joint._trusted.
Every public name here checks its arguments; the fill's steps are private.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CapacityExceeded, DegenerateCpt, MalformedInstance, MismatchedVariables, NotChordal,
    ZeroEvidence,
)
from .inference import (
    _linear_conditional, _probabilities, _weighted_product_cpts, query_conditional,
)
from .joint import (
    MAX_DENSE_VARIABLES, _Checked, _check_integers, _check_kind, _check_query,
    _shared_variable_count, _trusted,
)
from .networks import (
    BayesNet,
    Dag,
    EliminationOrder,
    MarkovNet,
    _from_rows,
    _min_fill_order,
    direct_by_order,
    mn_union,
    moralize,
)
from .pools import _logistic, _pooled_log_odds, normalize_weights


@dataclass(frozen=True)
class ConsensusBn:
    """A consensus network plus how it was built.

    agent_queries counts the per-agent inference calls issued while
    filling in CPTs, a row's failed all-true attempt included; the
    dense_oracle route issues none; it must be a nonnegative integer
    (joint._check_integers; MalformedInstance), kept as a Python int.
    Zero-weight agents shape neither the structure nor any CPT, so they
    are never asked. direct_by_order must orient bn's skeleton along
    elimination_order into bn's own parent sets, so bn is decomposable;
    it raises MalformedInstance or NotChordal, and so does a different
    orientation (NotChordal).
    """

    bn: BayesNet
    elimination_order: EliminationOrder
    agent_queries: int = 0

    def __post_init__(self) -> None:
        _check_kind(self.bn, BayesNet)
        (queries,) = _check_integers((self.agent_queries,), MalformedInstance, "agent_queries")
        if queries < 0:
            raise MalformedInstance(f"agent_queries must be nonnegative, got {queries}")
        object.__setattr__(self, "agent_queries", queries)
        dag = self.bn.dag()
        oriented = direct_by_order(
            MarkovNet(dag.m, dag.skeleton()), self.elimination_order
        )
        # User-built parent lists need not be sorted; direct_by_order's are.
        if list(map(set, oriented.parents)) != list(map(set, dag.parents)):
            raise NotChordal(
                "elimination order orients the network's edges against its parents"
            )


def consensus_bn_structure(
    models: Sequence[BayesNet | Dag],
) -> tuple[Dag, EliminationOrder]:
    """Decomposable directed structure covering every agent's structure.

    Moralize each distinct structure once (a network's is its dag();
    Dags compare by value), union, and eliminate by min-fill: each
    variable's parents are its neighbors at its step. Also returns the
    elimination order, the reverse of a topological order of the result.
    Raises MalformedInstance unless models is a nonempty sequence of Dags
    and BayesNets, and MismatchedVariables unless they agree on the
    variable count. Raises CapacityExceeded as logop_consensus_bn's
    dense_oracle route does (_structure), naming the variable by label
    when the first model is a labelled BayesNet.
    """
    _shared_variable_count(models, (Dag, BayesNet), "structure", "structures")
    labels = models[0].labels if isinstance(models[0], BayesNet) else None
    return _structure([m.dag() if isinstance(m, BayesNet) else m for m in models], 1, labels)


def _structure(
    dags: Sequence[Dag], copies: int, labels: tuple[str, ...] | None = None
) -> tuple[Dag, EliminationOrder]:
    """consensus_bn_structure of checked Dags, one family per min-fill
    step. CapacityExceeded at the first family that takes copies (1, or
    the query route's pooled agents) times the CPT rows so far, sum
    2**|parents|, past 2**MAX_DENSE_VARIABLES."""
    union = mn_union([moralize(dag) for dag in dict.fromkeys(dags)])
    parents: dict[int, tuple[int, ...]] = {}  # in elimination order
    rows = 0
    for v, nbrs in _min_fill_order(union.adjacency()):
        rows += 1 << len(nbrs)
        if copies * rows > 1 << MAX_DENSE_VARIABLES:
            count = f"{rows} CPT rows"
            if copies > 1:
                count = f"{copies} agents x {count} = {copies * rows} rows"
            raise CapacityExceeded(
                f"the consensus is over the capacity of 2^{MAX_DENSE_VARIABLES} rows: "
                f"its first {len(parents) + 1} of {union.m} families need {count}; "
                f"the last is variable {labels[v] if labels else v} with {len(nbrs)} parents"
            )
        parents[v] = nbrs
    # Each family is a clique of later steps' variables: decomposable, acyclic.
    dag = _trusted(Dag, m=union.m, parents=tuple(parents[v] for v in range(union.m)))
    return dag, tuple(parents)


def _pooled_agents(
    bns: Sequence[BayesNet], weights: Sequence[float] | None
) -> tuple[list[int], list[BayesNet], np.ndarray]:
    """The positions in bns of the agents of positive weight, those
    agents, and their normalized weights.

    Checks that every agent, pooled or not, has the same variable count,
    the same label order where both carry labels (agents are pooled by
    index), and that the weights are valid for all of them.
    """
    _shared_variable_count(bns, BayesNet, "agent network", "agents")
    orders = list(dict.fromkeys(bn.labels for bn in bns if bn.labels is not None))
    if len(orders) > 1:
        raise MismatchedVariables(
            f"agents disagree on variable labels: {list(orders[0])} vs "
            f"{list(orders[1])}; align_variables puts agents in one label order"
        )
    w = normalize_weights(weights, len(bns))
    positions = np.flatnonzero(w > 0.0).tolist()
    return positions, [bns[i] for i in positions], w[positions]


_RERUN = "rerun with dense_oracle=True to use the factor-product fill"


def _row_name(
    labels: tuple[str, ...] | None, owner: int, parents: Sequence[int], row: int
) -> str:
    """Row row of owner's CPT: the variable by label (by index without
    labels) and the parent row as label=0|1 literals."""
    name = str if labels is None else labels.__getitem__
    literals = ",".join(f"{name(p)}={row >> i & 1}" for i, p in enumerate(parents))
    return f"variable {name(owner)}, parent row {literals or '(none)'}"


def _require_strictly_positive(position: int, bn: BayesNet) -> None:
    """Raise DegenerateCpt, naming the agent by position, for bn's first
    CPT row of 0 or 1: the query route needs strictly positive agents."""
    if bn.strictly_positive:
        return
    rows, offsets = bn._rows.tolist(), bn._dag._offsets
    i = next(i for i, p in enumerate(rows) if not 0.0 < p < 1.0)
    owner = bisect.bisect_right(offsets, i) - 1
    where = _row_name(bn.labels, owner, bn._dag.parents[owner], i - offsets[owner])
    raise DegenerateCpt(
        f"{where}: the row is {rows[i]}, but the query route needs every "
        f"CPT row of a pooled agent strictly inside (0, 1)",
        position,
        _RERUN,
    )


def _structured_cpts(
    bns: Sequence[BayesNet],
    w: np.ndarray,
    structure: Dag,
    elimination_order: EliminationOrder,
    labels: tuple[str, ...] | None,
) -> tuple[np.ndarray, int]:
    """The CPT rows over structure, in owner order as BayesNet holds
    them, by the query route's three passes (see the module docstring),
    and the agent queries they took."""
    parents, children = structure.parents, structure.children
    queries = 0

    # Pass 1 (the three passes are in the module docstring); start[node]
    # is the index of the node's first row in the build, and outcomes[k]
    # the value that row k's context gives the node's children. Targets
    # and contexts hold the structure's own variables, Python ints in
    # range, with bool values, so they are built as joint._Checked.
    start: dict[int, int] = {}
    conds: list[list[float]] = []
    outcomes: list[bool] = []
    for node in elimination_order:
        start[node] = len(conds)
        # product varies its last factor fastest, and row bit i is parent i.
        ps, kids = parents[node][::-1], children[node]
        target = _Checked({node: True})
        attempts = (
            ((True, dict.fromkeys(kids, True)), (False, dict.fromkeys(kids, False)))
            if kids else ((True, {}),)
        )
        for row, bits in enumerate(itertools.product((False, True), repeat=len(ps))):
            failure: DegenerateCpt | None = None
            for outcome, kid_values in attempts:
                context = _Checked(zip(ps, bits))
                context.update(kid_values)
                row_conds = []
                try:
                    for bn in bns:
                        try:
                            c = query_conditional(bn, target, context)
                        except ZeroEvidence as err:
                            raise DegenerateCpt(
                                "an agent gives zero mass to a neighborhood "
                                "instantiation"
                            ) from err
                        if not 0.0 < c < 1.0:
                            raise DegenerateCpt(
                                f"an agent's conditional hit {c} on a "
                                f"neighborhood instantiation"
                            )
                        row_conds.append(c)
                except DegenerateCpt as err:
                    # the agents before the one at fault, and that one
                    queries += len(row_conds) + 1
                    failure = err
                    continue
                queries += len(bns)
                conds.append(row_conds)
                outcomes.append(outcome)
                break
            else:
                raise DegenerateCpt(
                    f"{_row_name(labels, node, parents[node], row)}: {failure}",
                    remedy=_RERUN,
                ) from failure

    # Pass 2: agent on axis 0, row on axis 1.
    c = np.array(conds).T
    log_odds = _pooled_log_odds(1.0 - c, c, w).tolist()

    # Pass 3. Elimination order is a reverse topological order, so every
    # child's rows are finished before its parents read them. When a row
    # with log-odds x is finished, its two log-sigmoids are kept:
    # log P(true) = min(x, 0) - log1p(exp(-|x|)) in on_true, and
    # log P(false), the same at -x, in on_false; both are finite for
    # every finite x. A row whose outcome is true reads the children's
    # on_true, one whose outcome is false their on_false.
    exp, log1p = math.exp, math.log1p
    on_true = [0.0] * len(log_odds)
    on_false = [0.0] * len(log_odds)
    for node in elimination_order:
        # Per child: child_rows[r], the build index of the child's row
        # with node false, for node row r and the node's children false;
        # node's bit in the child's row; and the child row bits of the
        # other parents, which are children of node, set exactly when
        # the outcome is true.
        ps = parents[node]
        layout = []
        for child in children[node]:
            cps = parents[child]
            bit = 1 << cps.index(node)
            from_kids = sum(
                1 << i for i, p in enumerate(cps) if p != node and p not in ps
            )
            # Node row bit i is ps[i]: doubling the table once per bit
            # adds that parent's child row bit (none if it is not one of
            # the child's parents) to the second half.
            child_rows = [start[child]]
            for p in ps:
                if p in cps:
                    child_bit = 1 << cps.index(p)
                    child_rows += [j + child_bit for j in child_rows]
                else:
                    child_rows += child_rows
            layout.append((child_rows, bit, from_kids))
        first = start[node]
        for r in range(1 << len(ps)):
            k = first + r
            log_ratio = 0.0
            if outcomes[k]:
                for child_rows, bit, from_kids in layout:
                    row = child_rows[r] + from_kids
                    log_ratio += on_true[row] - on_true[row + bit]
            else:
                for child_rows, bit, _ in layout:
                    row = child_rows[r]
                    log_ratio += on_false[row] - on_false[row + bit]
            x = log_odds[k] + log_ratio
            log_odds[k] = x
            tail = log1p(exp(-abs(x)))
            on_true[k] = min(x, 0.0) - tail
            on_false[k] = min(-x, 0.0) - tail
    # Each row is the sigmoid of finite log-odds, in [0, 1]. Build row
    # start[v] + r is row r of node v, which owner order puts at
    # offsets[v] + r.
    _, p_true = _logistic(np.array(log_odds))
    gather = [
        k for v, ps in enumerate(parents) for k in range(start[v], start[v] + (1 << len(ps)))
    ]
    return p_true[gather], queries


def logop_consensus_bn(
    bns: Sequence[BayesNet],
    weights: Sequence[float] | None = None,
    *,
    dense_oracle: bool = False,
) -> ConsensusBn:
    """Consensus network whose joint is the geometric pool of the agents.

    The default path parameterizes the consensus structure from
    per-agent inference queries alone, in the three passes of the
    module docstring: each CPT row is the sigmoid of the agents'
    pooled log-odds plus the child log-ratios. It raises DegenerateCpt
    up front when an agent of positive weight has a CPT row of 0 or 1,
    naming the agent by its position in bns, and later when an agent's
    conditional rounds to 0 or 1 or its context's evidence underflows.
    dense_oracle=True instead fills the CPTs by one elimination pass
    over the agents' weighted CPT product, which handles such agents at
    any size and raises DegenerateProduct when the pool has zero mass.
    Either route raises CapacityExceeded, before its fill, for a
    structure too large to fill (see the module docstring).

    Agents of weight 0 are checked for their variable count and then
    dropped: the structure, the CPTs and agent_queries come from the
    positive-weight agents alone. The labels are the first agent's.
    """
    return _logop_consensus(bns, *_pooled_agents(bns, weights), dense_oracle)


def _logop_consensus(
    bns: Sequence[BayesNet],
    positions: list[int],
    agents: list[BayesNet],
    w: np.ndarray,
    dense_oracle: bool,
) -> ConsensusBn:
    """logop_consensus_bn of bns, given what _pooled_agents returns for
    them: the positions of the pooled agents, those agents and their
    weights."""
    if not dense_oracle:
        for position, bn in zip(positions, agents):
            _require_strictly_positive(position, bn)
    labels = bns[0].labels
    structure, order = _structure(
        [bn.dag() for bn in agents], 1 if dense_oracle else len(agents), labels
    )
    if dense_oracle:
        rows = _weighted_product_cpts(agents, w, structure, order)
        queries = 0
    else:
        rows, queries = _structured_cpts(agents, w, structure, order, labels)
    # _structure's families are cliques along the order (acyclic and
    # decomposable), and the rows follow it node by node.
    consensus = _from_rows(structure, rows, labels)
    return _trusted(
        ConsensusBn, bn=consensus, elimination_order=order, agent_queries=queries
    )


def logop_query(
    bns: Sequence[BayesNet],
    event: dict[int, bool],
    evidence: dict[int, bool] | None = None,
    weights: Sequence[float] | None = None,
    *,
    dense_oracle: bool = False,
) -> float:
    """Consensus conditional probability under geometric pooling:
    query_conditional on the network of logop_consensus_bn.

    The pool of a single agent of positive weight is that agent, so
    then the query goes to it directly: no structure is built, its rows
    need not be strictly positive, and dense_oracle changes nothing.
    Event and evidence are checked, as linop_query checks them, before
    any structure is built.
    """
    pooled = _pooled_agents(bns, weights)
    agents = pooled[1]
    event, evidence = _check_query(agents[0].m, event, evidence)
    if len(agents) > 1:
        agents = [_logop_consensus(bns, *pooled, dense_oracle).bn]
    return query_conditional(agents[0], event, evidence)


def linop_query(
    bns: Sequence[BayesNet],
    event: dict[int, bool],
    evidence: dict[int, bool] | None = None,
    weights: Sequence[float] | None = None,
) -> float:
    """Consensus conditional probability under linear pooling.

    The arithmetic pool commutes with marginalization, so the pooled
    conditional is the ratio of weighted sums of per-agent event
    probabilities; no pooled model is ever constructed. Agents of
    weight 0 add nothing to either sum, so they are never queried. The
    other agents are grouped by DAG, and one elimination per group, with
    one plan, gives every agent of the group P(event and evidence) and
    P(evidence) as mantissas and exponents; the pool weighs both, scaled
    alike by the largest P(evidence)'s power of two. Event and evidence
    must assign disjoint variables; each is checked once, whatever the
    number of agents.
    """
    _, bns, w = _pooled_agents(bns, weights)
    event, evidence = _check_query(bns[0].m, event, evidence)
    groups: dict[Dag, list[int]] = {}
    for i, bn in enumerate(bns):
        groups.setdefault(bn.dag(), []).append(i)
    mantissas, exponents = np.empty((2, len(bns))), np.empty((2, len(bns)), dtype=int)
    for positions in groups.values():
        group = [bns[i] for i in positions]
        mantissas[:, positions], exponents[:, positions] = _probabilities(group, evidence, event)
    return _linear_conditional(mantissas, exponents, w)
