"""Seeded agent networks, their JSON files, and reference arithmetic.

Everything here is independent of the package under test: agents are
generated and written with this module's own code (same families as
beliefpool.sampling, restated so that a change to the package cannot
change the benchmark's inputs), and answers are checked with plain
numpy enumeration and einsum contraction, never with the package's
inference, pooling or I/O code.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_LOW, ROW_HIGH = 0.05, 0.95


@dataclass(frozen=True)
class Net:
    """Bayesian network over binary variables 0..m-1.

    rows[v][r] is P(v = 1 | parent row r), with bit i of r set exactly
    when parents[v][i] is true (the package's documented encoding).
    """

    labels: tuple[str, ...]
    parents: tuple[tuple[int, ...], ...]
    rows: tuple[np.ndarray, ...]

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def max_family(self) -> int:
        return 1 + max(len(ps) for ps in self.parents)

    @property
    def cpt_rows(self) -> int:
        return sum(1 << len(ps) for ps in self.parents)


def random_parents(
    rng: np.random.Generator, m: int, edge_prob: float, max_parents: int
) -> tuple[tuple[int, ...], ...]:
    """Random DAG along a random permutation: each node draws its parents
    among earlier nodes with edge_prob, keeping the first max_parents
    (the family of beliefpool.sampling.random_dag, drawn once)."""
    perm = rng.permutation(m)
    coins = np.tril(rng.random((m, m)) < edge_prob, k=-1)
    keep = coins & (np.cumsum(coins, axis=1) <= max_parents)
    parents: list[tuple[int, ...]] = [()] * m
    for i, row in enumerate(keep):
        parents[int(perm[i])] = tuple(sorted(int(perm[j]) for j in np.flatnonzero(row)))
    return tuple(parents)


def random_net(
    rng: np.random.Generator, parents: tuple[tuple[int, ...], ...]
) -> Net:
    rows = tuple(
        rng.uniform(ROW_LOW, ROW_HIGH, 1 << len(ps)) for ps in parents
    )
    return Net(tuple(f"x{i}" for i in range(len(parents))), parents, rows)


def shared_group(
    rng: np.random.Generator, m: int, n: int, edge_prob: float
) -> list[Net]:
    """n agents on one random structure, each with its own CPTs."""
    parents = random_parents(rng, m, edge_prob, max_parents=2)
    return [random_net(rng, parents) for _ in range(n)]


def unshared_group(
    rng: np.random.Generator, m: int, n: int, edge_prob: float
) -> list[Net]:
    """n agents with independently drawn structures."""
    return [
        random_net(rng, random_parents(rng, m, edge_prob, max_parents=2))
        for _ in range(n)
    ]


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.1, 1.0, n)


def _row_key(r: int, k: int) -> str:
    return "".join("1" if (r >> i) & 1 else "0" for i in range(k))


def net_to_json(net: Net) -> dict:
    lab = net.labels
    return {
        "kind": "bayes",
        "variables": list(lab),
        "edges": [
            [lab[p], lab[v]] for v, ps in enumerate(net.parents) for p in ps
        ],
        "cpts": {
            lab[v]: {
                "parents": [lab[p] for p in ps],
                "rows": {
                    _row_key(r, len(ps)): float(x)
                    for r, x in enumerate(net.rows[v])
                },
            }
            for v, ps in enumerate(net.parents)
        },
    }


def write_net(net: Net, path: Path) -> None:
    path.write_text(json.dumps(net_to_json(net)))


def read_net(path: Path, labels: tuple[str, ...]) -> Net:
    """Parse a bayes file, renumbering its variables to follow labels."""
    data = json.loads(path.read_text())
    index = {label: i for i, label in enumerate(labels)}
    if sorted(data["variables"]) != sorted(labels):
        raise ValueError("output variables differ from the agents'")
    parents: list[tuple[int, ...]] = [()] * len(labels)
    rows: list[np.ndarray] = [np.empty(0)] * len(labels)
    for label, cpt in data["cpts"].items():
        v = index[label]
        ps = tuple(index[p] for p in cpt["parents"])
        table = np.full(1 << len(ps), np.nan)
        for key, value in cpt["rows"].items():
            table[sum(1 << i for i, c in enumerate(key) if c == "1")] = value
        if np.isnan(table).any():
            raise ValueError(f"CPT of {label} misses rows")
        parents[v], rows[v] = ps, table
    return Net(labels, tuple(parents), tuple(rows))


# ---------------------------------------------------------------------------
# Reference arithmetic


def log_prob(net: Net, states: np.ndarray) -> np.ndarray:
    """log P(x) for each row x of a (K, m) boolean state array."""
    total = np.zeros(states.shape[0])
    for v, ps in enumerate(net.parents):
        idx = np.zeros(states.shape[0], dtype=np.int64)
        for i, p in enumerate(ps):
            idx |= states[:, p].astype(np.int64) << i
        p_true = net.rows[v][idx]
        total += np.log(np.where(states[:, v], p_true, 1.0 - p_true))
    return total


def all_states(m: int) -> np.ndarray:
    return ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)


def logop_log_ratio_error(
    consensus: Net, agents: list[Net], w: np.ndarray, rng: np.random.Generator,
    pairs: int,
) -> float:
    """Largest |log Pc(x)/Pc(y) - sum_i w_i log Pi(x)/Pi(y)| over random
    full-state pairs; w must be normalized."""
    x = rng.random((pairs, consensus.m)) < 0.5
    y = rng.random((pairs, consensus.m)) < 0.5
    lhs = log_prob(consensus, x) - log_prob(consensus, y)
    rhs = sum(wi * (log_prob(a, x) - log_prob(a, y)) for wi, a in zip(w, agents))
    return float(np.max(np.abs(lhs - rhs)))


def logop_dense_error(consensus: Net, agents: list[Net], w: np.ndarray) -> float:
    """Largest state-probability gap between the consensus and the dense
    normalized weighted geometric mean of the agents."""
    states = all_states(consensus.m)
    pooled = sum(wi * log_prob(a, states) for wi, a in zip(w, agents))
    pooled = np.exp(pooled - pooled.max())
    pooled /= pooled.sum()
    return float(np.max(np.abs(np.exp(log_prob(consensus, states)) - pooled)))


def _factor(net: Net, v: int) -> np.ndarray:
    """CPT of v as a table with axes (v, parents[0], parents[1], ...)."""
    k = len(net.parents[v])
    p_true = net.rows[v].reshape((2,) * k).transpose(tuple(reversed(range(k))))
    return np.stack([1.0 - p_true, p_true])


def ancestral_set(nets: list[Net], variables) -> list[int]:
    seen: set[int] = set()
    stack = list(variables)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            for net in nets:
                stack.extend(net.parents[v])
    return sorted(seen)


def event_mass(
    factors: list[tuple[np.ndarray, list[int]]],
    variables: list[int],
    assignment: dict[int, bool],
) -> float:
    """Sum over all states of variables of the factor product, restricted
    to the assignment, by einsum's own contraction order."""
    slot = {v: i for i, v in enumerate(variables)}
    operands: list = []
    for table, scope in factors:
        operands += [table, [slot[v] for v in scope]]
    for v, value in assignment.items():
        operands += [np.array([0.0, 1.0] if value else [1.0, 0.0]), [slot[v]]]
    return float(np.einsum(*operands, [], optimize="greedy"))


def linop_reference(
    agents: list[Net], w: np.ndarray, event: dict, evidence: dict
) -> float:
    """Linear-pool P(event | evidence) by exact sums over each agent's
    ancestral set of the queried variables."""
    variables = ancestral_set(agents, list(event) + list(evidence))
    num = den = 0.0
    for wi, agent in zip(w, agents):
        factors = [
            (_factor(agent, v), [v, *agent.parents[v]]) for v in variables
        ]
        num += wi * event_mass(factors, variables, {**evidence, **event})
        den += wi * event_mass(factors, variables, evidence)
    return num / den


def logop_reference(
    agents: list[Net], w: np.ndarray, event: dict, evidence: dict
) -> float:
    """Geometric-pool P(event | evidence): the pooled joint is the product
    of every agent CPT raised to its weight, contracted exactly."""
    variables = list(range(agents[0].m))
    pooled: dict[tuple[int, ...], np.ndarray] = {}
    for wi, agent in zip(w, agents):
        for v in variables:
            scope = (v, *agent.parents[v])
            table = _factor(agent, v) ** wi
            pooled[scope] = pooled[scope] * table if scope in pooled else table
    factors = [(table, list(scope)) for scope, table in pooled.items()]
    return event_mass(factors, variables, {**evidence, **event}) / event_mass(
        factors, variables, evidence
    )
