"""The factor product and the table generators built on it.

Each generator and bn_to_joint must give exactly the entries of the
per-variable state loops they replaced, which are kept here as
references; the kernels (_contract and _factor_product) are checked
against a plain Python product over every state. A sampler rejects bad
arguments before it draws anything.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beliefpool import (
    BeliefPoolError,
    CapacityExceeded,
    Dag,
    JointTable,
    MalformedInstance,
    MarkovNet,
    MismatchedVariables,
    ModelFormatError,
    UnknownVariable,
    bn_to_joint,
)
from beliefpool.joint import MAX_DENSE_VARIABLES, _contract, _factor_product
from beliefpool.networks import moralize
from beliefpool.sampling import (
    FLOOR,
    HIGH,
    LOW,
    random_block_product_table,
    random_bn,
    random_conditional_table,
    random_dag,
    random_joint,
    random_product_table,
    random_weights,
)

from samplers import POT_HIGH, POT_LOW, random_markov_table


def loop_product_table(rng, m):
    marginals = rng.uniform(LOW, HIGH, m)
    indices = np.arange(1 << m)
    probs = np.ones(1 << m, dtype=np.float64)
    for j in range(m):
        bit = ((indices >> j) & 1) == 1
        probs *= np.where(bit, marginals[j], 1.0 - marginals[j])
    return JointTable(m, probs)


def loop_block_product_table(rng, m, block):
    block = sorted(set(block))
    rest = [v for v in range(m) if v not in block]
    q_block = np.maximum(rng.random(1 << len(block)), FLOOR)
    q_block /= q_block.sum()
    q_rest = np.maximum(rng.random(1 << len(rest)), FLOOR)
    q_rest /= q_rest.sum()
    indices = np.arange(1 << m)
    block_ctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(block):
        block_ctx |= ((indices >> v) & 1) << i
    rest_ctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(rest):
        rest_ctx |= ((indices >> v) & 1) << i
    return JointTable(m, q_block[block_ctx] * q_rest[rest_ctx])


def loop_markov_table(rng, mn):
    size = 1 << mn.m
    indices = np.arange(size)
    probs = np.ones(size, dtype=np.float64)
    for v in range(mn.m):
        phi = rng.uniform(POT_LOW, POT_HIGH, 2)
        probs *= phi[(indices >> v) & 1]
    for u, v in sorted(mn.edges):
        psi = rng.uniform(POT_LOW, POT_HIGH, (2, 2))
        probs *= psi[(indices >> u) & 1, (indices >> v) & 1]
    return JointTable(mn.m, probs)


def loop_conditional_table(rng, m, a, w, x):
    w = sorted(set(w))
    x = sorted(set(x))
    rest = w + x
    context_mass = np.maximum(rng.random(1 << len(rest)), FLOOR)
    context_mass /= context_mass.sum()
    cond_true = rng.uniform(LOW, HIGH, 1 << len(w))
    indices = np.arange(1 << m)
    ctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(rest):
        ctx |= ((indices >> v) & 1) << i
    wctx = np.zeros(1 << m, dtype=np.int64)
    for i, v in enumerate(w):
        wctx |= ((indices >> v) & 1) << i
    a_true = ((indices >> a) & 1) == 1
    probs = context_mass[ctx] * np.where(
        a_true, cond_true[wctx], 1.0 - cond_true[wctx]
    )
    return JointTable(m, probs)


def loop_bn_to_joint(bn):
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


def same_entries(got, want):
    return got.m == want.m and np.array_equal(got.probs, want.probs)


SEEDS_AND_SIZES = [(seed, m) for seed in range(8) for m in range(0, 7)]


@pytest.mark.parametrize("seed, m", SEEDS_AND_SIZES)
def test_product_table_matches_loop(seed, m):
    got = random_product_table(np.random.default_rng(seed), m)
    assert same_entries(got, loop_product_table(np.random.default_rng(seed), m))


@pytest.mark.parametrize("seed, m", SEEDS_AND_SIZES)
def test_block_product_table_matches_loop(seed, m):
    block = [int(v) for v in np.random.default_rng(seed).permutation(m)[: seed % (m + 1)]]
    got = random_block_product_table(np.random.default_rng(seed), m, block)
    want = loop_block_product_table(np.random.default_rng(seed), m, block)
    assert same_entries(got, want)


@pytest.mark.parametrize(
    "seed, m, complete",
    [pytest.param(seed, m, False, id=f"{seed}-{m}") for seed, m in SEEDS_AND_SIZES]
    # 10 node and 45 edge potentials: more factors than one einsum call takes.
    + [pytest.param(0, 10, True, id="complete-10")],
)
def test_markov_table_matches_loop(seed, m, complete):
    if complete:
        mn = MarkovNet(m, frozenset(itertools.combinations(range(m), 2)))
    else:
        mn = moralize(random_dag(np.random.default_rng(seed), m, edge_prob=0.5))
    got = random_markov_table(np.random.default_rng(seed), mn)
    assert same_entries(got, loop_markov_table(np.random.default_rng(seed), mn))


@pytest.mark.parametrize("seed, m", [(s, m) for s, m in SEEDS_AND_SIZES if m])
def test_conditional_table_matches_loop(seed, m):
    variables = [int(v) for v in np.random.default_rng(seed).permutation(m)]
    cut = seed % m
    # w and x unsorted: the generator sorts them itself.
    a, w, x = variables[0], variables[1 : cut + 1][::-1], variables[cut + 1 :][::-1]
    got = random_conditional_table(np.random.default_rng(seed), m, a, w, x)
    want = loop_conditional_table(np.random.default_rng(seed), m, a, w, x)
    assert same_entries(got, want)


@pytest.mark.parametrize("seed", range(60))
def test_bn_to_joint_matches_loop(seed):
    rng = np.random.default_rng(seed)
    bn = random_bn(rng, seed % 9, edge_prob=0.5, max_parents=seed % 5)
    assert same_entries(bn_to_joint(bn), loop_bn_to_joint(bn))


class NoDraws(np.random.Generator):
    """A generator that fails on any draw."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def __getattribute__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


TABLE_SAMPLERS = {
    "joint": random_joint,
    "product": random_product_table,
    "block": lambda rng, m: random_block_product_table(rng, m, ()),
    "conditional": lambda rng, m: random_conditional_table(rng, m, 0, (), ()),
}


# An over-capacity count is checked before anything is allocated: the
# constructor's check comes before it reads a single entry.
@pytest.mark.parametrize("m", [-1, 2.0, "3", MAX_DENSE_VARIABLES + 1])
@pytest.mark.parametrize("sample", TABLE_SAMPLERS.values(), ids=TABLE_SAMPLERS)
def test_table_samplers_check_the_count_as_the_constructor_does(sample, m):
    with pytest.raises(BeliefPoolError) as want:
        JointTable(m, ())
    assert isinstance(want.value, (ModelFormatError, CapacityExceeded))
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        sample(NoDraws(), m)


THREE_NODES = Dag(3, ((), (0,), (0, 1)))
BAD_ARGUMENTS = {
    "dag-float": (
        lambda rng: random_dag(rng, 2.5),
        ModelFormatError, "variable count 2.5 is not an integer",
    ),
    "dag-negative": (
        lambda rng: random_dag(rng, -1),
        ModelFormatError, "variable count must be nonnegative, got -1",
    ),
    "bn-negative": (
        lambda rng: random_bn(rng, -1),
        ModelFormatError, "variable count must be nonnegative, got -1",
    ),
    "bn-dag-smaller": (
        lambda rng: random_bn(rng, 5, dag=THREE_NODES),
        MismatchedVariables, "dag has 3 variables, the network 5",
    ),
    "bn-dag-larger": (
        lambda rng: random_bn(rng, 2, dag=THREE_NODES),
        MismatchedVariables, "dag has 3 variables, the network 2",
    ),
    "block-unknown": (
        lambda rng: random_block_product_table(rng, 3, [5]),
        UnknownVariable, "variable 5 outside range(0, 3)",
    ),
    "block-negative": (
        lambda rng: random_block_product_table(rng, 3, [0, -1]),
        UnknownVariable, "variable -1 outside range(0, 3)",
    ),
    "block-not-integer": (
        lambda rng: random_block_product_table(rng, 3, [1.5]),
        UnknownVariable, "variables must be integers, got 1.5",
    ),
    "conditional-unknown": (
        lambda rng: random_conditional_table(rng, 3, 0, [1], [5]),
        UnknownVariable, "variable 5 outside range(0, 3)",
    ),
    "conditional-overlap": (
        lambda rng: random_conditional_table(rng, 3, 0, [1, 2], [2]),
        MalformedInstance, "a, w, x must partition all variables",
    ),
    "conditional-target-in-w": (
        lambda rng: random_conditional_table(rng, 2, 0, [0, 1], []),
        MalformedInstance, "a, w, x must partition all variables",
    ),
}


@pytest.mark.parametrize(
    "call, error, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS
)
def test_bad_arguments_raise_before_any_draw(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(NoDraws())


@st.composite
def factor_lists(draw):
    m = draw(st.integers(0, 8))
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        variables = draw(st.permutations(range(m)))[: draw(st.integers(0, min(m, 4)))]
        table = draw(
            st.lists(
                st.floats(-4.0, 4.0, allow_subnormal=False),
                min_size=1 << len(variables),
                max_size=1 << len(variables),
            )
        )
        factors.append((tuple(variables), np.array(table)))
    return m, factors


def per_state_product(m, factors):
    """Product, state by state, of each factor's entry at the index whose
    bit i is the state's value of variables[i]."""
    out = []
    for state in range(1 << m):
        value = 1.0
        for variables, table in factors:
            row = sum(((state >> v) & 1) << i for i, v in enumerate(variables))
            value *= float(table[row])
        out.append(value)
    return np.array(out)


@given(factor_lists())
@example((0, []))
@example((3, []))
@example((3, [((2, 0), np.array([1.0, 2.0, 3.0, 5.0]))]))
def test_factor_product_matches_per_state_product(case):
    m, factors = case
    assert np.array_equal(_factor_product(m, factors), per_state_product(m, factors))


@st.composite
def contractions(draw):
    """Up to 70 factors over up to 6 variables, each on an unsorted
    variable list of 0 to 3 of them, and an out list drawn from the
    variables some factor reads."""
    factors = []
    for _ in range(draw(st.integers(0, 70))):
        variables = draw(st.permutations(range(6)))[: draw(st.integers(0, 3))]
        table = draw(
            st.lists(
                st.floats(0.25, 4.0),
                min_size=1 << len(variables),
                max_size=1 << len(variables),
            )
        )
        factors.append((tuple(variables), np.reshape(table, (2,) * len(variables))))
    read = sorted({v for variables, _ in factors for v in variables})
    out = draw(st.permutations(read))[: draw(st.integers(0, len(read)))]
    return factors, tuple(out)


def per_state_contract(factors, out):
    """Sum over the states of every variable read, in increasing state
    order, of the product of each factor's entry, from 1.0 in the
    order given, into the entry of the state's out values."""
    scope = sorted({v for variables, _ in factors for v in variables})
    result = np.zeros((2,) * len(out))
    for state in itertools.product((0, 1), repeat=len(scope)):
        values = dict(zip(scope, state))
        value = 1.0
        for variables, table in factors:
            value *= float(table[tuple(values[v] for v in variables)])
        result[tuple(values[v] for v in out)] += value
    return result


@given(contractions())
@example(([], ()))
@example(([((), np.array(3.0)), ((), np.array(0.5))], ()))
@example(([((1, 0), np.array([[1.0, 2.0], [3.0, 5.0]])), ((0,), np.array([0.5, 4.0]))], (0,)))
# 70 factors over one variable: past the fold at 31 and numpy 2's 63 operands.
@example(([((0,), np.array([0.5, 1.5]))] * 70, (0,)))
@example(([((0,), np.array([0.5, 1.5]))] * 70, ()))
@example(([((0,), np.array([1.25, 0.25])), ((), np.array(0.65309152))], ()))
def test_contract_matches_per_state_product(case):
    factors, out = case
    got = _contract(factors, out)
    want = per_state_contract(factors, out)
    summed = {v for variables, _ in factors for v in variables} - set(out)
    assert got.shape == want.shape
    if not summed or (len(summed) == 1 and all(summed <= set(vs) for vs, _ in factors)):
        # Each entry is one running product, or, as in an elimination
        # bucket, the sum of the two running products of its variable.
        assert np.array_equal(got, want)
    else:
        # einsum may regroup: it moves a factor that is constant along a
        # summed variable out of that sum.
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_random_weights_are_python_floats(n):
    """The weights are Python floats, equal to the numpy scalars of the
    same normalized draw, and the generator's stream is unchanged."""
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    got = random_weights(rng, n)
    w = twin.uniform(0.1, 1.0, n)
    assert [type(x) for x in got] == [float] * n
    assert got == tuple(w / w.sum())
    assert rng.random() == twin.random()
