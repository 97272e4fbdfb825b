"""Dense joint-table behavior: construction, indexing, conditioning,
and the two independence gap measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    CapacityExceeded,
    JointTable,
    NegativeMass,
    UnknownVariable,
    ZeroEvidence,
    ZeroMass,
    marginal,
)
from beliefpool.joint import (
    condition,
    conditional_probability,
    markov_dependence_gap,
    pairwise_dependence_gap,
    state_index,
)
from beliefpool.sampling import (
    random_conditional_table,
    random_joint,
    random_product_table,
)

# Two variables, states indexed with bit 0 = first variable:
# index 0 = (F,F), 1 = (T,F), 2 = (F,T), 3 = (T,T).
PAIR = JointTable(2, (0.1, 0.2, 0.3, 0.4))


def entries(m):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2**m,
        max_size=2**m,
    ).filter(lambda xs: sum(xs) > 1e-6)


class TestConstruction:
    def test_normalizes_on_build(self):
        table = JointTable(1, (2.0, 6.0))
        np.testing.assert_allclose(table.probs, [0.25, 0.75])

    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeMass):
            JointTable(1, (0.5, -0.1))

    def test_rejects_zero_total_mass(self):
        with pytest.raises(ZeroMass):
            JointTable(2, (0.0, 0.0, 0.0, 0.0))

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            JointTable(2, (0.5, 0.5))

    def test_rejects_too_many_variables(self):
        with pytest.raises(CapacityExceeded):
            JointTable(25, np.ones(2**25))

    def test_probs_are_read_only(self):
        with pytest.raises(ValueError):
            PAIR.probs[0] = 0.9

    @given(m=st.integers(min_value=0, max_value=6), data=st.data())
    def test_always_sums_to_one(self, m, data):
        table = JointTable(m, data.draw(entries(m)))
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestStateIndexing:
    def test_bit_j_is_variable_j(self):
        assert state_index((True, False, True)) == 0b101
        assert state_index((False, True)) == 0b10

    @given(st.integers(min_value=0, max_value=2**8 - 1))
    def test_round_trip(self, index):
        bits = tuple(bool((index >> j) & 1) for j in range(8))
        assert state_index(bits) == index


class TestMarginal:
    def test_single_variable(self):
        assert marginal(PAIR, {0: True}) == pytest.approx(0.6)
        assert marginal(PAIR, {1: True}) == pytest.approx(0.7)

    def test_joint_event(self):
        assert marginal(PAIR, {0: True, 1: False}) == pytest.approx(0.2)

    def test_empty_assignment_is_certain(self):
        assert marginal(PAIR, {}) == 1.0

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            marginal(PAIR, {5: True})

    @given(m=st.integers(min_value=1, max_value=5), data=st.data())
    def test_complement_sums_to_one(self, m, data):
        table = JointTable(m, data.draw(entries(m)))
        j = data.draw(st.integers(min_value=0, max_value=m - 1))
        total = marginal(table, {j: True}) + marginal(table, {j: False})
        assert total == pytest.approx(1.0, abs=1e-12)


class TestCondition:
    def test_renormalizes_within_evidence(self):
        conditioned = condition(PAIR, {1: True})
        np.testing.assert_allclose(
            conditioned.probs, [0.0, 0.0, 0.3 / 0.7, 0.4 / 0.7]
        )

    def test_zero_probability_evidence(self):
        table = JointTable(2, (0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ZeroEvidence):
            condition(table, {1: True})

    @given(m=st.integers(min_value=1, max_value=5), data=st.data())
    def test_matches_ratio_definition(self, m, data):
        table = JointTable(m, data.draw(entries(m)))
        j = data.draw(st.integers(min_value=0, max_value=m - 1))
        value = data.draw(st.booleans())
        if marginal(table, {j: value}) < 1e-9:
            return
        conditioned = condition(table, {j: value})
        k = data.draw(st.integers(min_value=0, max_value=m - 1))
        expect = marginal(table, {k: True, j: value}) / marginal(table, {j: value})
        if k == j:
            expect = 1.0 if value else 0.0
        assert marginal(conditioned, {k: True}) == pytest.approx(expect, abs=1e-12)


def consistent(state, assignment):
    return all(((state >> j) & 1) == int(v) for j, v in assignment.items())


@st.composite
def table_and_assignment(draw):
    m = draw(st.integers(min_value=0, max_value=8))
    table = JointTable(m, draw(entries(m)))
    variables = st.integers(min_value=0, max_value=max(m - 1, 0))
    partial = st.dictionaries(variables, st.booleans(), max_size=m)
    full = st.lists(st.booleans(), min_size=m, max_size=m).map(
        lambda bits: dict(enumerate(bits))
    )
    assignment = draw(st.one_of(st.just({}), full, partial) if m else st.just({}))
    return table, assignment


class TestAgainstEnumeration:
    """marginal and condition index a (2,)*m view; a loop over state
    indices must give the same floats, summed in the same order."""

    @given(table_and_assignment())
    @settings(max_examples=200)
    def test_marginal(self, drawn):
        table, assignment = drawn
        selected = [p for s, p in enumerate(table.probs) if consistent(s, assignment)]
        assert marginal(table, assignment) == float(np.array(selected).sum())

    @given(table_and_assignment())
    @settings(max_examples=200)
    def test_condition(self, drawn):
        table, assignment = drawn
        kept = np.array([
            p if consistent(s, assignment) else 0.0
            for s, p in enumerate(table.probs)
        ])
        if kept.sum() <= 0.0:
            with pytest.raises(ZeroEvidence):
                condition(table, assignment)
            return
        got = condition(table, assignment).probs
        assert np.array_equal(got, JointTable(table.m, kept).probs)

    @pytest.mark.parametrize(
        "assignment", [{1: False}, {2: True}, {6: False}, {9: True}, {2: True, 11: False}]
    )
    def test_large_table_sums_in_index_order(self, assignment):
        # On this table numpy's sum of the strided block itself takes another
        # order than the sum of the same entries in a row, for the first four.
        table = JointTable(16, np.random.default_rng(0).random(1 << 16) ** 8)
        states = np.arange(table.n_states)
        mask = np.ones(table.n_states, dtype=bool)
        for j, value in assignment.items():
            mask &= ((states >> j) & 1) == int(value)
        assert marginal(table, assignment) == float(table.probs[mask].sum())

    @given(m=st.integers(min_value=0, max_value=8), data=st.data())
    def test_out_of_range_variable(self, m, data):
        table = JointTable(m, data.draw(entries(m)))
        j = data.draw(st.sampled_from((-1, m, m + 3)))
        with pytest.raises(UnknownVariable):
            marginal(table, {j: True})
        with pytest.raises(UnknownVariable):
            condition(table, {j: False})


class TestConditionalProbability:
    def test_basic_ratio(self):
        got = conditional_probability(PAIR, {0: True}, {1: True})
        assert got == pytest.approx(0.4 / 0.7)

    def test_no_evidence_is_marginal(self):
        assert conditional_probability(PAIR, {0: True}) == pytest.approx(0.6)

    def test_contradiction_is_zero(self):
        assert conditional_probability(PAIR, {0: True}, {0: False}) == 0.0

    def test_target_implied_by_evidence(self):
        got = conditional_probability(PAIR, {1: True}, {1: True, 0: False})
        assert got == 1.0

    def test_zero_evidence_raises(self):
        table = JointTable(2, (0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ZeroEvidence):
            conditional_probability(table, {0: True}, {1: True})


class TestPairwiseIndependence:
    def test_product_table_has_zero_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            table = random_product_table(rng, 4)
            assert pairwise_dependence_gap(table, 1, 3) <= 1e-12

    def test_dependent_pair_detected(self):
        # P(both true) = 0.4 but the marginals are 0.6 and 0.7.
        assert pairwise_dependence_gap(PAIR, 0, 1) == pytest.approx(0.02)

    def test_distinct_variables_required(self):
        with pytest.raises(ValueError):
            pairwise_dependence_gap(PAIR, 1, 1)


class TestMarkovIndependence:
    def test_constructed_conditional_independence(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            table = random_conditional_table(rng, 4, a=2, w=(0, 3), x=(1,))
            assert markov_dependence_gap(table, 2, (0, 3), (1,)) <= 1e-12

    def test_dependence_detected(self):
        # Contexts 1=T and 1=F give P(0=T) of 4/7 and 2/3 against the
        # unconditional 0.6; the gap keeps the larger deviation.
        assert markov_dependence_gap(PAIR, 0, (), (1,)) == pytest.approx(
            abs(0.2 / 0.3 - 0.6)
        )

    def test_empty_x_is_trivially_independent(self):
        assert markov_dependence_gap(PAIR, 0, (1,), ()) == 0.0

    def test_sets_must_cover_all_variables(self):
        table = random_joint(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            markov_dependence_gap(table, 0, (1,), ())

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            markov_dependence_gap(PAIR, 0, (0,), (1,))

    @given(data=st.data())
    @settings(max_examples=40)
    def test_gap_matches_direct_definition(self, data):
        m = 3
        table = JointTable(m, data.draw(entries(m)))
        a = data.draw(st.integers(min_value=0, max_value=m - 1))
        rest = [j for j in range(m) if j != a]
        w = (rest[0],)
        x = (rest[1],)
        gap = markov_dependence_gap(table, a, w, x)
        # Only contexts with exactly zero mass are skipped by the gap.
        worst = 0.0
        for w_val in (False, True):
            if marginal(table, {w[0]: w_val}) == 0.0:
                continue
            base = conditional_probability(table, {a: True}, {w[0]: w_val})
            for x_val in (False, True):
                if marginal(table, {w[0]: w_val, x[0]: x_val}) == 0.0:
                    continue
                full = conditional_probability(
                    table, {a: True}, {w[0]: w_val, x[0]: x_val}
                )
                worst = max(worst, abs(full - base))
        assert gap == pytest.approx(worst, abs=1e-12)
