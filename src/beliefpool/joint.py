"""Dense joint probability tables over ordered binary variables.

A table over m variables holds 2**m state probabilities. State index
encoding: bit j of the index (least significant bit = variable 0) is 1
exactly when variable j is true. All tables are normalized on
construction and immutable afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CapacityExceeded,
    MalformedInstance,
    ModelFormatError,
    NegativeMass,
    UnknownVariable,
    ZeroEvidence,
    ZeroMass,
)

# Dense tables above this many variables would not fit desk-scale memory.
MAX_DENSE_VARIABLES = 24

Assignment = Mapping[int, bool]


@dataclass(frozen=True, eq=False)
class JointTable:
    """Normalized probability table over 2**m binary states.

    Args:
        m: number of binary variables.
        probs: 2**m nonnegative entries with positive total mass;
            normalized to sum to one during construction.
    """

    m: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.m:
            raise ModelFormatError(f"variable count must be nonnegative, got {self.m}")
        if self.m > MAX_DENSE_VARIABLES:
            raise CapacityExceeded(
                f"dense table over {self.m} variables exceeds the "
                f"{MAX_DENSE_VARIABLES}-variable capacity"
            )
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (1 << self.m,):
            raise ModelFormatError(
                f"expected {1 << self.m} entries for m={self.m}, got shape {probs.shape}"
            )
        if np.any(probs < 0.0):
            raise NegativeMass("probability entries must be nonnegative")
        total = probs.sum()
        if total <= 0.0 or not np.isfinite(total):
            raise ZeroMass("probability entries must have positive finite total mass")
        probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return 1 << self.m


def state_index(bits: Sequence[bool]) -> int:
    """Index of the state where variable j takes bits[j]."""
    idx = 0
    for j, value in enumerate(bits):
        if value:
            idx |= 1 << j
    return idx


def _check_variables(m: int, variables: Iterable[int]) -> None:
    for j in variables:
        if not 0 <= j < m:
            raise UnknownVariable(f"variable {j} outside range(0, {m})")


def _block(m: int, assignment: Assignment) -> tuple:
    """Index into a (2,)*m view (variable j on axis m-1-j) of the states
    consistent with the assignment."""
    _check_variables(m, assignment)
    index = [slice(None)] * m
    for j, value in assignment.items():
        index[m - 1 - j] = int(bool(value))
    return tuple(index)


def marginal(table: JointTable, assignment: Assignment) -> float:
    """Probability that every assigned variable takes its given value.

    An empty assignment is the sure event and returns 1.0.
    """
    view = table.probs.reshape((2,) * table.m)
    # C order lists the block's states by increasing index, as a mask would.
    return float(np.ravel(view[_block(table.m, assignment)]).sum())


def condition(table: JointTable, evidence: Assignment) -> JointTable:
    """Table conditioned on the evidence; inconsistent states get mass zero."""
    block = _block(table.m, evidence)
    kept = np.zeros_like(table.probs)
    kept.reshape((2,) * table.m)[block] = table.probs.reshape((2,) * table.m)[block]
    total = kept.sum()
    if total <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    return JointTable(table.m, kept)


def conditional_probability(
    table: JointTable, target: Assignment, evidence: Assignment | None = None
) -> float:
    """P(target | evidence) from the dense table."""
    evidence = {} if evidence is None else evidence
    p_evidence = marginal(table, evidence)
    if p_evidence <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    merged = dict(evidence)
    for j, value in target.items():
        if j in merged and bool(merged[j]) != bool(value):
            return 0.0
        merged[j] = value
    return marginal(table, merged) / p_evidence


def pairwise_dependence_gap(table: JointTable, a: int, b: int) -> float:
    """|P(a and b) - P(a) * P(b)| with both variables true."""
    _check_variables(table.m, (a, b))
    if a == b:
        raise MalformedInstance("pairwise independence needs two distinct variables")
    p_ab = marginal(table, {a: True, b: True})
    p_a = marginal(table, {a: True})
    p_b = marginal(table, {b: True})
    return abs(p_ab - p_a * p_b)


def markov_dependence_gap(
    table: JointTable, a: int, w: Iterable[int], x: Iterable[int]
) -> float:
    """Largest gap |P(a=T | w, x) - P(a=T | w)| over instantiable contexts.

    Zero-probability contexts are skipped. The sets {a}, w, x must
    partition all variables, so the gap measures the full conditional
    structure around a. Empty x gives a gap of zero.
    """
    w = tuple(sorted(set(w)))
    x = tuple(sorted(set(x)))
    _check_variables(table.m, (a,) + w + x)
    if a in w or a in x:
        raise MalformedInstance("target variable may not appear in w or x")
    if set(w) & set(x):
        raise MalformedInstance("w and x must be disjoint")
    if {a, *w, *x} != set(range(table.m)):
        raise MalformedInstance("a, w, x together must cover all variables")
    if not x:
        return 0.0

    # Axis j of the reshaped view is variable j; group axes as (a, w, x).
    view = table.probs.reshape((2,) * table.m)
    view = view.transpose(tuple(reversed(range(table.m))))
    arr = view.transpose((a,) + w + x).reshape(2, 1 << len(w), 1 << len(x))

    context_mass = arr.sum(axis=0)
    true_mass = arr[1]
    w_mass = context_mass.sum(axis=1)
    w_true_mass = true_mass.sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        cond_wx = np.where(context_mass > 0.0, true_mass / context_mass, 0.0)
        cond_w = np.where(w_mass > 0.0, w_true_mass / w_mass, 0.0)
    live = (context_mass > 0.0) & (w_mass > 0.0)[:, None]
    gaps = np.abs(cond_wx - cond_w[:, None])[live]
    return float(gaps.max()) if gaps.size else 0.0
