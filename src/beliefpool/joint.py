"""Dense joint probability tables over ordered binary variables.

A table over m variables holds 2**m state probabilities. State index
encoding: bit j of the index (least significant bit = variable 0) is 1
exactly when variable j is true. _contract is the one factor product:
one einsum call that serves _factor_product, which indexes each flat
factor table the same way over the factor's own variables, bn_to_joint,
the variable-elimination buckets and the chain-rule pool. All tables are
normalized on construction and immutable afterwards. A name without a
leading underscore, here and in networks, inference, pools and consensus,
is a checked entry point; a kernel, as _contract and _factor_product
here, checks nothing and is private.

Every conditional, dense, by elimination or under the arithmetic pool,
is _conditional_ratio over that route's mass function: _mass here,
inference._probabilities on networks.

Each model is validated once, where it enters: the JointTable
constructor checks every input. Each input rule has one function:
_check_variable_count for a count (the Python int that JointTable, the
samplers, Dag and MarkovNet store), _check_kind for a model's or a
property instance's kind, _check_sequence for a list of models or
instances, _check_variables for variable indices and _check_partition
for markov_dependence_gap's and the samplers' a, w, x;
tests/test_imports.py (RULES) holds each rule's messages to its one
function.
Each query is checked once, where it enters: every public query checks
each mapping once (_check_assignment: keys by _check_variables, states
bools, 0 or 1; _check_query adds that target and evidence are disjoint)
and hands the result to unchecked kernels; a _Checked assignment, which
only the consensus fill builds, comes back unchanged.
The dense kernels (bn_to_joint, the pool kernels, condition,
family_pooled_joint), and the table samplers, whose mass is valid by
construction, build through _trusted_table, which normalizes as the
constructor does and checks nothing again. _trusted, the one trusted
construction path of every model type, lives here because every model
module imports this one.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from operator import index
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from .errors import (
    CapacityExceeded,
    MalformedInstance,
    MismatchedVariables,
    ModelFormatError,
    NegativeMass,
    UnknownVariable,
    ZeroEvidence,
    ZeroMass,
)

# Dense tables above this many variables would not fit desk-scale memory.
MAX_DENSE_VARIABLES = 24

Assignment = Mapping[int, bool]

T = TypeVar("T")


def _trusted(cls: type[T], **fields) -> T:
    """An instance of the frozen dataclass cls holding fields as given,
    built without running cls.__post_init__.

    Only package code that has already checked every field as the
    public constructor would may call it (tests/test_imports.py lists
    the callers). Fields must be what the constructor would store, every
    field with a default included: tuples of Python ints and floats,
    never numpy scalars, so that ==, hashing and saved text match.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_variable_count(m, capacity: int | None = MAX_DENSE_VARIABLES) -> int:
    """The one check of a variable count m: m as a Python int;
    ModelFormatError unless a nonnegative integer, CapacityExceeded above
    capacity (None, which Dag and MarkovNet pass, for no limit)."""
    try:
        count = index(m)
    except TypeError:
        raise ModelFormatError(f"variable count {m!r} is not an integer") from None
    if count < 0:
        raise ModelFormatError(f"variable count must be nonnegative, got {count}")
    if capacity is not None and count > capacity:
        raise CapacityExceeded(
            f"dense table over {count} variables exceeds the "
            f"{MAX_DENSE_VARIABLES}-variable capacity"
        )
    return count


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
        object.__setattr__(self, "m", _check_variable_count(self.m))
        n_states = 1 << self.m
        # Booleans, strings and other non-numbers must not reach the float
        # cast, which would turn True or "0.5" into a probability.
        try:
            raw = np.asarray(self.probs)
            if raw.dtype.kind not in "iuf" and not (
                raw.dtype.kind == "O"
                and all(isinstance(x, Real) and not isinstance(x, bool) for x in raw.flat)
            ):
                raise TypeError
            probs = raw.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError):
            raise ModelFormatError("probability entries must be numbers") from None
        if probs.shape != (n_states,):
            raise ModelFormatError(
                f"expected {n_states} entries for m={self.m}, got shape {probs.shape}"
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


def _trusted_table(m: int, mass: np.ndarray) -> JointTable:
    """JointTable(m, mass) without its checks, for a dense kernel whose
    mass is already a float64 array of shape (2**m,), m within capacity,
    nonnegative with a positive finite total. Normalizes exactly as the
    constructor does, so every entry is the same."""
    probs = mass / np.add.reduce(mass)
    probs.flags.writeable = False
    return _trusted(JointTable, m=m, probs=probs)


def _contract(
    factors: Iterable[tuple[Sequence[int], np.ndarray]], out: Sequence[int]
) -> np.ndarray:
    """The one factor product: factors (variables, table), axis i of a
    table being variables[i], multiplied in the order given (none give
    1.0) and summed over every variable not in out, which some factor
    must read; axis i of the result is out[i]. A sum over a variable that
    every factor reads, as in a VE bucket, adds its two products; einsum
    may regroup other sums. Labels are numbered per call, so only a call
    over more than 52 variables, too many to allocate, runs out of them.
    Folding the first 31 factors into one keeps each product's order."""
    factors = list(factors)
    if not factors:
        return np.ones(())
    while len(factors) > 31:  # einsum's operand limit: 31 in numpy 1.x, 63 in 2.x
        scope = tuple(dict.fromkeys(v for variables, _ in factors[:31] for v in variables))
        factors[:31] = [(scope, _contract(factors[:31], scope))]
    labels: dict[int, int] = {}
    operands: list = []
    for variables, table in factors:
        operands += (table, [labels.setdefault(v, len(labels)) for v in variables])
    return np.einsum(*operands, [labels[v] for v in out])


def _factor_product(
    m: int, factors: Iterable[tuple[Sequence[int], np.ndarray]]
) -> np.ndarray:
    """Product over the 2**m states of factors (variables, flat table), in
    the order given, where bit i of a table's index is the value of
    variables[i], as in CPT rows: networks._cpt_factor's table, raveled,
    is the factor (parents + (owner,), table). Entries equal a running
    product from ones; no factors give ones."""
    # A Fortran reshape puts index bit i on axis i, so axis i is variables[i].
    tensors = [
        (vs, np.asarray(t, dtype=np.float64).reshape((2,) * len(vs), order="F"))
        for vs, t in factors
    ]
    unread = tuple(sorted(set(range(m)).difference(*(vs for vs, _ in tensors))))
    if unread:
        tensors.append((unread, np.ones((2,) * len(unread))))
    # Variable j on axis m - 1 - j: C order lists the states by index.
    return _contract(tensors, range(m - 1, -1, -1)).ravel()


def _check_kind(model, cls: type | tuple[type, ...]) -> None:
    """The one kind check: MalformedInstance ("expected a <cls>, got <type>",
    "an" before A, E, I or O; "or" joins a tuple's kinds) unless model is a cls."""
    if not isinstance(model, cls):
        kinds = cls if type(cls) is tuple else (cls,)
        names = " or ".join(f"a{'n' * (k.__name__[0] in 'AEIO')} {k.__name__}" for k in kinds)
        raise MalformedInstance(f"expected {names}, got {type(model).__name__}")


def _check_sequence(items, many: str) -> None:
    """The one check that a list of models or instances is a sequence:
    MalformedInstance("<many> must be a sequence, got <type>") for a
    generator, an array or any other non-sequence. An empty one passes."""
    if not isinstance(items, Sequence):
        raise MalformedInstance(f"{many} must be a sequence, got {type(items).__name__}")


def _shared_variable_count(models: Sequence, cls: type | tuple, one: str, many: str) -> int:
    """The variable count m of every model; MalformedInstance unless
    models is a sequence (_check_sequence), for no models ("need at
    least one <one>") or a model that is not a cls, a kind or a tuple of
    kinds (_check_kind), MismatchedVariables unless all agree ("<many>
    disagree on variable count")."""
    _check_sequence(models, many)
    if not models:
        raise MalformedInstance(f"need at least one {one}")
    for model in models:
        _check_kind(model, cls)
        m = models[0].m  # the first model passed its check first
        if model.m != m:
            raise MismatchedVariables(
                f"{many} disagree on variable count: {model.m} != {m}"
            )
    return m


class _Checked(dict):
    """An assignment built by package code whose keys are Python ints in
    range(0, m) of the model it queries and whose values are bools:
    _check_assignment returns it unchanged. It does for queries what
    _trusted does for models; only the consensus fill builds one
    (tests/test_imports.py holds it to that)."""

    __slots__ = ()


def _state(v: int, x) -> bool:
    """x as a bool; MalformedInstance, naming v, unless x is a bool or an
    integer 0 or 1, Python or numpy (numpy bools included)."""
    if isinstance(x, (Integral, np.bool_)) and x in (0, 1):
        return bool(x)
    raise MalformedInstance(f"variable {v}: state {x!r} is not a bool, 0 or 1")


def _check_assignment(m: int, assignment: Assignment) -> Assignment:
    """The assignment as {variable: state}, after checking it against a
    table or network over m variables.

    A _Checked assignment comes back unchanged, unchecked. Any other
    mapping, a dict subclass included, comes back as a new dict with
    Python-int keys and bool values, so a missing key is a KeyError,
    never a default. Raises MalformedInstance for a non-mapping or a
    state that is not a bool, 0 or 1 (see _state), and UnknownVariable
    for a key that _check_variables rejects, before any state.
    """
    if type(assignment) is _Checked:
        return assignment
    try:
        values = assignment.values()
    except AttributeError:
        raise MalformedInstance(
            f"an assignment must be a mapping of variables to states, "
            f"got {type(assignment).__name__}"
        ) from None
    variables = _check_variables(m, assignment)
    return {v: x if type(x) is bool else _state(v, x) for v, x in zip(variables, values)}


def _check_variables(m: int, variables: Iterable) -> tuple[int, ...]:
    """The variables of a collection as Python ints: the one check of variable
    indices, UnknownVariable unless each is an integer (numpy's too) in range(0, m)."""
    try:
        checked = tuple(map(index, variables))
    except TypeError:
        got = ", ".join(map(repr, variables)) if isinstance(variables, Iterable) else variables
        raise UnknownVariable(f"variables must be integers, got {got}") from None
    if checked and not (0 <= min(checked) and max(checked) < m):
        v = min(checked) if min(checked) < 0 else max(checked)
        raise UnknownVariable(f"variable {v} outside range(0, {m})")
    return checked


def _check_partition(m: int, a, w, x) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """a, w and x as Python ints, w and x sorted without repeats: the one check
    that {a}, w and x partition range(0, m), else MalformedInstance (or
    UnknownVariable for a variable that _check_variables rejects)."""
    try:
        w, x = tuple(w), tuple(x)
    except TypeError:
        raise MalformedInstance("w and x must be collections of variables") from None
    a, *rest = _check_variables(m, (a, *w, *x))
    w, x = tuple(sorted(set(rest[: len(w)]))), tuple(sorted(set(rest[len(w) :])))
    if sorted((a, *w, *x)) != list(range(m)):
        raise MalformedInstance("a, w, x must partition all variables")
    return a, w, x


def _check_query(
    m: int, target: Assignment, evidence: Assignment | None
) -> tuple[Assignment, Assignment]:
    """Target and evidence (None for none) as _check_assignment returns
    them; MalformedInstance unless they assign disjoint variables."""
    wanted = _check_assignment(m, target)
    given = _check_assignment(m, {} if evidence is None else evidence)
    if not given.keys().isdisjoint(wanted):
        raise MalformedInstance("target and evidence must assign disjoint variables")
    return wanted, given


def _block(m: int, checked: Assignment) -> tuple:
    """Index into a (2,)*m view (variable j on axis m-1-j) of the states
    consistent with an assignment as _check_assignment returns it."""
    axes = [slice(None)] * m
    for j, value in checked.items():
        axes[m - 1 - j] = int(value)
    return tuple(axes)


def _mass(table: JointTable, checked: Assignment) -> float:
    """P(checked) from the dense table, for an assignment as
    _check_assignment returns it; the empty one gives 1.0."""
    view = table.probs.reshape((2,) * table.m)
    # C order lists the block's states by increasing index, as a mask would.
    return float(view[_block(table.m, checked)].ravel().sum())


def marginal(table: JointTable, assignment: Assignment) -> float:
    """Probability that every assigned variable takes its given value.

    An empty assignment is the sure event and returns 1.0.
    """
    _check_kind(table, JointTable)
    return _mass(table, _check_assignment(table.m, assignment))


def condition(table: JointTable, evidence: Assignment) -> JointTable:
    """Table conditioned on the evidence; inconsistent states get mass zero."""
    _check_kind(table, JointTable)
    block = _block(table.m, _check_assignment(table.m, evidence))
    kept = np.zeros_like(table.probs)
    kept.reshape((2,) * table.m)[block] = table.probs.reshape((2,) * table.m)[block]
    if kept.sum() <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    return _trusted_table(table.m, kept)


def _conditional_ratio(
    mass: Callable[[Assignment], float], target: Assignment, evidence: Assignment
) -> float:
    """The one conditional rule: P(target | evidence) as mass(target and
    evidence) / mass(evidence), for checked, disjoint target and evidence.
    mass(evidence) comes first; ZeroEvidence unless it is positive."""
    p_evidence = mass(evidence)
    if p_evidence <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    return mass({**evidence, **target}) / p_evidence


def conditional_probability(
    table: JointTable, target: Assignment, evidence: Assignment | None = None
) -> float:
    """P(target | evidence) from the dense table, over disjoint variables."""
    _check_kind(table, JointTable)
    target, evidence = _check_query(table.m, target, evidence)
    return _conditional_ratio(partial(_mass, table), target, evidence)


def _check_pair(m: int, a, b) -> tuple[int, int]:
    """a and b as Python ints: the one check of a variable pair, two
    distinct variables in range(0, m)."""
    a, b = _check_variables(m, (a, b))
    if a == b:
        raise MalformedInstance("pairwise independence needs two distinct variables")
    return a, b


def _pairwise_gap(table: JointTable, a: int, b: int) -> float:
    """pairwise_dependence_gap for a pair that _check_pair returned."""
    p_ab = _mass(table, {a: True, b: True})
    return abs(p_ab - _mass(table, {a: True}) * _mass(table, {b: True}))


def pairwise_dependence_gap(table: JointTable, a: int, b: int) -> float:
    """|P(a and b) - P(a) * P(b)| with both variables true."""
    _check_kind(table, JointTable)
    return _pairwise_gap(table, *_check_pair(table.m, a, b))


def markov_dependence_gap(
    table: JointTable, a: int, w: Iterable[int], x: Iterable[int]
) -> float:
    """Largest gap |P(a=T | w, x) - P(a=T | w)| over instantiable contexts.

    Zero-probability contexts are skipped. The sets {a}, w, x must
    partition all variables (_check_partition), so the gap measures the
    full conditional structure around a. Empty x gives a gap of zero.
    """
    _check_kind(table, JointTable)
    return _markov_gap(table, *_check_partition(table.m, a, w, x))


def _markov_gap(
    table: JointTable, a: int, w: tuple[int, ...], x: tuple[int, ...]
) -> float:
    """markov_dependence_gap for a partition that _check_partition returned."""
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
