"""Arithmetic (linop) and geometric (logop) pooling of dense joint tables,
and the logop of a single binary event. Callers name a pool by its string
in POOL_NAMES, which check_pool_name checks. The kernels check nothing
and are private: _linop_table and _logop_table, each pool's arithmetic,
serve linop, logop and the axioms; the event's, _pooled_log_odds and
_logistic, serve the consensus fill and the axioms."""
from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce

import numpy as np

from .errors import (
    DegenerateProduct,
    InvalidWeight,
    MalformedInstance,
    WeightCountMismatch,
)
from .joint import JointTable, _check_integers, _check_reals, _shared_variable_count, _trusted_table

POOL_NAMES = ("linop", "logop")


def _check_agent_count(n) -> int:
    """The one agent-count check: n as a Python int, MalformedInstance
    unless n is an integer (_check_integers) and positive."""
    (n,) = _check_integers((n,), MalformedInstance, "agent count")
    if n <= 0:
        raise MalformedInstance("need at least one agent")
    return n


def normalize_weights(
    weights: Sequence[float] | None, n_agents: int
) -> np.ndarray:
    """Validated weight vector summing to one; None means equal weights.

    Weights must pass joint._check_reals, the one number rule, and be
    finite and nonnegative with a positive total (InvalidWeight
    otherwise), one per agent (WeightCountMismatch otherwise), and
    n_agents a positive integer (MalformedInstance otherwise). When the
    total overflows, the weights are first divided by the largest.
    """
    n_agents = _check_agent_count(n_agents)
    if weights is None:
        return np.full(n_agents, 1.0 / n_agents)
    w = _check_reals(weights, InvalidWeight, "weights")
    if w.shape != (n_agents,):
        raise WeightCountMismatch(f"got {w.size} weights for {n_agents} agents")
    # min is NaN when any weight is; a sum that overflows is rescaled below.
    if not w.min() >= 0.0:
        raise InvalidWeight("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not math.isfinite(total):
        if not np.isfinite(w).all():
            raise InvalidWeight("weights must be finite and nonnegative")
        w = w / w.max()
        total = w.sum()
    if total <= 0.0:
        raise InvalidWeight("weights must not all be zero")
    return w / total


def check_pool_name(pool: str) -> None:
    """Raise MalformedInstance unless pool is a string in POOL_NAMES."""
    if not isinstance(pool, str) or pool not in POOL_NAMES:
        raise MalformedInstance(f"pool must be one of {POOL_NAMES}, got {pool!r}")


def _stack(tables: Sequence[JointTable]) -> tuple[int, np.ndarray]:
    m = _shared_variable_count(tables, JointTable, "table", "tables")
    return m, np.array([t.probs for t in tables])


def linop(
    tables: Sequence[JointTable], weights: Sequence[float] | None = None
) -> JointTable:
    """Weighted arithmetic mean of the agents' state probabilities."""
    m, stacked = _stack(tables)
    return _linop_table(m, stacked, normalize_weights(weights, len(tables)))


def logop(
    tables: Sequence[JointTable], weights: Sequence[float] | None = None
) -> JointTable:
    """Normalized weighted geometric mean of the state probabilities.

    A zero-weight agent drops out of the product entirely (0**0 is
    taken as 1). Raises DegenerateProduct when every state ends up with
    zero mass.
    """
    m, stacked = _stack(tables)
    return _logop_table(m, stacked, normalize_weights(weights, len(tables)))


def _linop_table(m: int, stacked: np.ndarray, w: np.ndarray) -> JointTable:
    """linop of the tables _stack returns, under normalized weights w."""
    return _trusted_table(m, w @ stacked)


def _logop_table(m: int, stacked: np.ndarray, w: np.ndarray) -> JointTable:
    """logop of the tables _stack returns, under normalized weights w."""
    raw = np.multiply.reduce(stacked ** w[:, None], axis=0)
    if np.add.reduce(raw) <= 0.0:
        raise DegenerateProduct("geometric pooling left zero mass on every state")
    return _trusted_table(m, raw)


def _pooled_log_odds(
    false: np.ndarray, true: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Log-odds of one binary event under the logop of its two masses.

    false and true hold each agent's mass on the event's two sides, with
    the agent on axis 0; weights are normalized. Returns the sum over
    the agents of w_i * (log true_i - log false_i): -inf or +inf where
    the pool is sure, NaN where the event and its complement both pool
    to zero mass. A zero-weight agent drops out, whatever its masses.
    The agents are added one at a time, so an event's bits do not depend
    on how many events share the call (a matrix product's do, and so do
    np.add.reduce's from 8 agents up).
    """
    keep = weights > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(true[keep]) - np.log(false[keep])
        return reduce(np.add, map(np.multiply, weights[keep], terms))


def _logistic(log_odds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(false), P(true)) of an event with the given log-odds.

    Neither side is one minus the other, so each keeps its own digits
    near 0; NaN stays NaN on both sides.
    """
    e = np.exp(-np.abs(log_odds))
    small, big = e / (1.0 + e), 1.0 / (1.0 + e)
    up = log_odds >= 0.0
    return np.where(up, small, big), np.where(up, big, small)
