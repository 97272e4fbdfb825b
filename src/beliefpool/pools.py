"""Arithmetic (linop) and geometric (logop) pooling of dense joint tables."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateProduct,
    InvalidWeight,
    MismatchedVariables,
    WeightCountMismatch,
)
from .joint import JointTable

POOL_NAMES = ("linop", "logop")


def normalize_weights(
    weights: Sequence[float] | None, n_agents: int
) -> np.ndarray:
    """Validated weight vector summing to one; None means equal weights.

    Weights must be nonnegative with a positive total.
    """
    if n_agents <= 0:
        raise ValueError("need at least one agent")
    if weights is None:
        return np.full(n_agents, 1.0 / n_agents)
    w = np.asarray(list(weights), dtype=np.float64)
    if w.shape != (n_agents,):
        raise WeightCountMismatch(
            f"got {w.shape[0] if w.ndim == 1 else 'malformed'} weights "
            f"for {n_agents} agents"
        )
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InvalidWeight("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise InvalidWeight("weights must not all be zero")
    return w / total


@dataclass(frozen=True)
class AggregationSpec:
    """Which pool to apply and with what expert weights.

    weights=None requests equal weighting; explicit weights are
    normalized to sum to one wherever they are used.
    """

    pool: str
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.pool not in POOL_NAMES:
            raise ValueError(f"pool must be one of {POOL_NAMES}, got {self.pool!r}")
        if self.weights is not None:
            object.__setattr__(
                self, "weights", tuple(float(w) for w in self.weights)
            )


def _stack(tables: Sequence[JointTable]) -> tuple[int, np.ndarray]:
    if not tables:
        raise ValueError("need at least one table")
    m = tables[0].m
    for t in tables:
        if t.m != m:
            raise MismatchedVariables(
                f"tables disagree on variable count: {t.m} != {m}"
            )
    return m, np.stack([t.probs for t in tables])


def linop(
    tables: Sequence[JointTable], weights: Sequence[float] | None = None
) -> JointTable:
    """Weighted arithmetic mean of the agents' state probabilities."""
    m, stacked = _stack(tables)
    w = normalize_weights(weights, len(tables))
    return JointTable(m, w @ stacked)


def logop(
    tables: Sequence[JointTable], weights: Sequence[float] | None = None
) -> JointTable:
    """Normalized weighted geometric mean of the state probabilities.

    A zero-weight agent drops out of the product entirely (0**0 is
    taken as 1). Raises DegenerateProduct when every state ends up with
    zero mass.
    """
    m, stacked = _stack(tables)
    w = normalize_weights(weights, len(tables))
    raw = np.prod(stacked ** w[:, None], axis=0)
    if raw.sum() <= 0.0:
        raise DegenerateProduct(
            "geometric pooling left zero mass on every state"
        )
    return JointTable(m, raw)
