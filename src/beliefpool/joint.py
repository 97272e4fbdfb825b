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
is _conditional_ratio over (P(target and evidence), P(evidence)), summed
in one order, the first with the states off the target 0 (as lanes there).

Each model is validated once, where it enters: the JointTable
constructor checks every input. Each input rule has one function:
_check_integers for every integer input (counts, indices, orders, seeds;
a bool is none), _check_variable_count for a count (the Python int that
JointTable, the samplers, Dag and MarkovNet store), _check_reals for
every real-valued input (table entries, CPT rows, weights, tol,
edge_prob), _check_kind for a model's or a property instance's kind,
_check_sequence for a list of models or instances, _check_variables for
variable indices and _check_partition for markov_dependence_gap's and
the samplers' a, w, x; tests/test_imports.py (RULES) holds each rule's
messages to its one function.
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

import math
from collections.abc import Sequence
from decimal import Decimal
from dataclasses import dataclass
from numbers import Integral, Real
from operator import index
from typing import Iterable, Mapping, TypeVar

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
    never numpy scalars, so that ==, hashing and saved text match. The
    one non-tuple field is BayesNet's private row array, a read-only
    float64 array; its cpts may be an iterable of the CPTs, which
    BayesNet stores as the tuple on the first read (networks._from_rows).
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_integers(values, error: type, what: str) -> tuple[int, ...]:
    """The one integer rule: values, an iterable read once, as a tuple of
    Python ints. An integer has __index__ (a Python or numpy int, an IntEnum)
    and is no bool, Python or numpy: error(f"{what} {x!r} is not an integer")
    names the first x that is not, error(f"{what} list ... is not a collection
    of integers") a non-iterable. One value x is passed as (x,)."""
    try:
        checked = tuple(values)
    except TypeError:
        raise error(f"{what} list {values!r} is not a collection of integers") from None
    for x in checked:
        if type(x) is not int:
            break
    else:  # Python ints only, the common case
        return checked
    ints = []
    for x in checked:
        try:
            if isinstance(x, (bool, np.bool_)):  # numpy 1.x gives np.bool_ an __index__
                raise TypeError
            ints.append(index(x))
        except TypeError:  # no __index__, or one that fails, as an array's does
            raise error(f"{what} {x!r} is not an integer") from None
    return tuple(ints)


def _check_variable_count(m, capacity: int | None = MAX_DENSE_VARIABLES) -> int:
    """The one check of a variable count m: m as a Python int; ModelFormatError
    unless a nonnegative integer (_check_integers), CapacityExceeded above
    capacity (None, which Dag and MarkovNet pass, for no limit)."""
    (count,) = _check_integers((m,), ModelFormatError, "variable count")
    if count < 0:
        raise ModelFormatError(f"variable count must be nonnegative, got {count}")
    if capacity is not None and count > capacity:
        raise CapacityExceeded(
            f"dense table over {count} variables exceeds the "
            f"{MAX_DENSE_VARIABLES}-variable capacity"
        )
    return count


def _check_reals(values, error: type, what: str, one: bool = False) -> np.ndarray:
    """The one number rule: values as a new 1-D float64 array.

    values is a sequence or a 1-D numpy array, not a str, a bytes-like
    object, a set, a mapping or an iterator, and each entry a Python or
    numpy real number (a Fraction or a Decimal too), not a bool, that a
    float holds: error(f"{what} must be a sequence of numbers") otherwise.
    A caller of one number x passes (x,) and one=True, and the error names
    x: f"{what} {x!r} is not a number" or f"{what} is too large for a
    float". The caller keeps its own shape, range and sign rules.
    """
    entries = None
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype.kind in "iuf":
            try:
                with np.errstate(over="raise"):  # a long double past the float range
                    return values.astype(np.float64)
            except FloatingPointError:
                pass
        elif values.dtype == object:
            entries = values.tolist()
    elif isinstance(values, Sequence) and not isinstance(
        values, (str, bytes, bytearray, memoryview)
    ):
        entries = values
    if entries is not None:
        types = set(map(type, entries))
        if types <= {float}:
            return np.array(entries, dtype=np.float64)
        if all(t is not bool and issubclass(t, (Real, Decimal)) for t in types):
            try:
                floats = [float(x) for x in entries]
                # float() reads a Decimal or a long double past the float
                # range as an infinity, where an int raises.
                if any(math.isinf(f) and x != f for x, f in zip(entries, floats)):
                    raise OverflowError
                return np.array(floats, dtype=np.float64)
            except OverflowError:
                if one:
                    raise error(f"{what} is too large for a float") from None
            except ValueError:  # a signaling NaN
                pass
        if one:
            raise error(f"{what} {entries[0]!r} is not a number")
    raise error(f"{what} must be a sequence of numbers")


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
        probs = _check_reals(self.probs, ModelFormatError, "probability entries")
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
    indices, UnknownVariable unless integers (_check_integers) in range(0, m)."""
    checked = _check_integers(variables, UnknownVariable, "variable")
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


def _masses(m: int, stacked: np.ndarray, checked: Assignment) -> np.ndarray:
    """P(checked) under each of the stacked tables (k, 2**m), table on
    axis 0, for an assignment as _check_assignment returns it; the empty
    one gives ones."""
    k = len(stacked)
    view = stacked.reshape((k,) + (2,) * m)[(slice(None),) + _block(m, checked)]
    # C order lists the block's states by increasing index, as a mask
    # would, and each table's sum runs over a contiguous last axis.
    return np.add.reduce(np.ascontiguousarray(view).reshape(k, -1), axis=1)


def marginal(table: JointTable, assignment: Assignment) -> float:
    """Probability that every assigned variable takes its given value.

    An empty assignment is the sure event and returns 1.0.
    """
    _check_kind(table, JointTable)
    return float(_masses(table.m, table.probs[None], _check_assignment(table.m, assignment))[0])


def condition(table: JointTable, evidence: Assignment) -> JointTable:
    """Table conditioned on the evidence; inconsistent states get mass zero."""
    _check_kind(table, JointTable)
    checked = _check_assignment(table.m, evidence)
    return _trusted_table(table.m, _kept_masses(table.m, table.probs[None], checked)[0])


def _kept(m: int, stacked: np.ndarray, checked: Assignment) -> np.ndarray:
    """The stacked tables (k, 2**m) with every state inconsistent with a
    checked assignment set to zero."""
    k = len(stacked)
    index = (slice(None),) + _block(m, checked)
    kept = np.zeros_like(stacked)
    kept.reshape((k,) + (2,) * m)[index] = stacked.reshape((k,) + (2,) * m)[index]
    return kept


def _kept_masses(m: int, stacked: np.ndarray, checked: Assignment) -> np.ndarray:
    """_kept, unnormalized; ZeroEvidence unless each table gives the
    assignment positive mass."""
    kept = _kept(m, stacked, checked)
    if (np.add.reduce(kept, axis=1) <= 0.0).any():
        raise ZeroEvidence("conditioning event has probability zero")
    return kept


def _conditional_ratio(joint: float, evidence: float) -> float:
    """The one conditional rule: P(target | evidence) as joint / evidence,
    for the pair (P(target and evidence), P(evidence)), or that pair scaled
    alike; ZeroEvidence unless P(evidence) is positive."""
    if evidence <= 0.0:
        raise ZeroEvidence("conditioning event has probability zero")
    return float(joint / evidence)


def conditional_probability(
    table: JointTable, target: Assignment, evidence: Assignment | None = None
) -> float:
    """P(target | evidence) from the dense table, over disjoint variables."""
    _check_kind(table, JointTable)
    target, evidence = _check_query(table.m, target, evidence)
    m, probs = table.m, table.probs
    rest = [j for j in range(m) if j not in evidence]  # the evidence block's variables
    block = np.ascontiguousarray(probs.reshape((2,) * m)[_block(m, evidence)]).reshape(1, -1)
    kept = _kept(len(rest), block, {i: target[j] for i, j in enumerate(rest) if j in target})
    return _conditional_ratio(*[np.add.reduce(t, axis=1)[0] for t in (kept, block)])


def _check_pair(m: int, a, b) -> tuple[int, int]:
    """a and b as Python ints: the one check of a variable pair, two
    distinct variables in range(0, m)."""
    a, b = _check_variables(m, (a, b))
    if a == b:
        raise MalformedInstance("pairwise independence needs two distinct variables")
    return a, b


def _pairwise_gaps(m: int, stacked: np.ndarray, a: int, b: int) -> np.ndarray:
    """pairwise_dependence_gap of each stacked table (k, 2**m), for a
    pair that _check_pair returned."""
    p_ab = _masses(m, stacked, {a: True, b: True})
    return np.abs(p_ab - _masses(m, stacked, {a: True}) * _masses(m, stacked, {b: True}))


def pairwise_dependence_gap(table: JointTable, a: int, b: int) -> float:
    """|P(a and b) - P(a) * P(b)| with both variables true."""
    _check_kind(table, JointTable)
    return float(_pairwise_gaps(table.m, table.probs[None], *_check_pair(table.m, a, b))[0])


def markov_dependence_gap(
    table: JointTable, a: int, w: Iterable[int], x: Iterable[int]
) -> float:
    """Largest gap |P(a=T | w, x) - P(a=T | w)| over instantiable contexts.

    Zero-probability contexts are skipped. The sets {a}, w, x must
    partition all variables (_check_partition), so the gap measures the
    full conditional structure around a. Empty x gives a gap of zero.
    """
    _check_kind(table, JointTable)
    partition = _check_partition(table.m, a, w, x)
    return float(_markov_gaps(table.m, table.probs[None], *partition)[0])


def _markov_gaps(
    m: int, stacked: np.ndarray, a: int, w: tuple[int, ...], x: tuple[int, ...]
) -> np.ndarray:
    """markov_dependence_gap of each stacked table (k, 2**m), for a
    partition that _check_partition returned."""
    k = len(stacked)
    if not x:
        return np.zeros(k)

    # Variable v sits on axis m - v of the plain reshape; group the axes
    # as (table, a, w, x), in C order, so that every sum below runs over
    # a contiguous last axis.
    view = stacked.reshape((k,) + (2,) * m).transpose((0,) + tuple(m - v for v in (a, *w, *x)))
    arr = np.ascontiguousarray(view).reshape(k, 2, 1 << len(w), 1 << len(x))

    context_mass = arr[:, 0] + arr[:, 1]
    true_mass = arr[:, 1]
    w_mass = np.add.reduce(context_mass, axis=-1)
    w_true_mass = np.add.reduce(true_mass, axis=-1)

    with np.errstate(divide="ignore", invalid="ignore"):
        cond_wx = np.where(context_mass > 0.0, true_mass / context_mass, 0.0)
        cond_w = np.where(w_mass > 0.0, w_true_mass / w_mass, 0.0)
    live = (context_mass > 0.0) & (w_mass > 0.0)[..., None]
    # Every gap is finite and nonnegative, so a table with no live
    # context gets 0.0.
    return np.maximum.reduce(np.where(live, np.abs(cond_wx - cond_w[..., None]), 0.0), axis=(1, 2))
