"""Arithmetic and geometric pooling of dense joint tables.

The two-agent fixtures (one agent holding each pair of events
independent at 0.5/0.5, the other at 0.8/0.6) have closed-form pooled
tables; the expected decimals below were worked out by hand from those
forms before the pools were written.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    DegenerateProduct,
    InvalidWeight,
    JointTable,
    MismatchedVariables,
    WeightCountMismatch,
    linop,
    logop,
    marginal,
)
from beliefpool.joint import pairwise_dependence_gap
from beliefpool.axioms import independent_pair_agents
from beliefpool.pools import _logistic, _pooled_log_odds, normalize_weights
from beliefpool.sampling import random_joint, random_weights

# State order by index: (FF, TF, FT, TT) with bit 0 the first variable.
AGENT_1 = JointTable(2, (0.25, 0.25, 0.25, 0.25))
AGENT_2 = JointTable(2, (0.08, 0.32, 0.12, 0.48))

# Equal-weight arithmetic pool of the two, exact by hand.
LINOP_EXPECTED = (0.165, 0.285, 0.185, 0.365)

# Equal-weight geometric pool: state masses proportional to
# sqrt(0.02), sqrt(0.08), sqrt(0.03), sqrt(0.12).
_RAW = tuple(math.sqrt(x) for x in (0.02, 0.08, 0.03, 0.12))
LOGOP_EXPECTED = tuple(r / sum(_RAW) for r in _RAW)
LOGOP_DECIMALS = (0.149829914261, 0.299659828522, 0.183503419072, 0.367006838145)


class TestNormalizeWeights:
    def test_none_means_equal(self):
        np.testing.assert_allclose(normalize_weights(None, 4), [0.25] * 4)

    def test_rescaled_to_sum_one(self):
        np.testing.assert_allclose(normalize_weights((2.0, 6.0), 2), [0.25, 0.75])

    def test_count_mismatch(self):
        with pytest.raises(WeightCountMismatch):
            normalize_weights((0.5, 0.5), 3)

    def test_negative_rejected(self):
        with pytest.raises(InvalidWeight):
            normalize_weights((0.5, -0.5), 2)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidWeight):
            normalize_weights((0.0, 0.0), 2)

    @pytest.mark.parametrize(
        "weights, expect",
        [
            ((1e308, 1e308), [0.5, 0.5]),
            ((1e308, 1e308, 1e308), [1 / 3] * 3),
            ((1.5e308, 0.5e308, 0.0), [0.75, 0.25, 0.0]),
        ],
    )
    def test_overflowing_total_is_rescaled(self, weights, expect):
        # A RuntimeWarning would fail here: the suite runs with them as errors.
        np.testing.assert_allclose(
            normalize_weights(weights, len(weights)), expect, rtol=1e-15
        )

    @pytest.mark.parametrize(
        "weights",
        [(math.inf, 1.0), (1e308, math.inf), (math.nan, 1.0), (-math.inf, 1.0)],
    )
    def test_non_finite_rejected(self, weights):
        with pytest.raises(InvalidWeight, match="finite and nonnegative"):
            normalize_weights(weights, 2)

    @pytest.mark.parametrize(
        "weights, expect",
        [
            ((Fraction(1, 4), Fraction(3, 4)), [0.25, 0.75]),
            ((Decimal("0.25"), Decimal("0.75")), [0.25, 0.75]),
            ((2**70, 2**70), [0.5, 0.5]),
            ((2**70, Fraction(0)), [1.0, 0.0]),
        ],
    )
    def test_any_real_number_is_a_weight(self, weights, expect):
        # Numbers numpy keeps as objects are cast to float, as floats are.
        assert normalize_weights(weights, 2).tolist() == expect

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((Fraction(1, 2), "0.5"), "weights must be a sequence of numbers"),
            ((Fraction(1, 2), None), "weights must be a sequence of numbers"),
            ((1j, 1), "weights must be a sequence of numbers"),
            ((10**400, 1), "weights must be finite and nonnegative"),
            # Bools are not weights, as they are not JointTable entries.
            ((True, False), "weights must be a sequence of numbers"),
            (np.array([True, True]), "weights must be a sequence of numbers"),
            ((Fraction(1, 2), True), "weights must be a sequence of numbers"),
            # A set has no order, a mapping holds its weights as values and
            # an iterator is used up: none is read, in any order.
            ({2, 1}, "weights must be a sequence of numbers"),
            (frozenset({0.25, 0.75}), "weights must be a sequence of numbers"),
            ({0.7: "w", 0.2: "v"}, "weights must be a sequence of numbers"),
            ({0: 0.7, 1: 0.3}, "weights must be a sequence of numbers"),
            (iter((0.5, 0.5)), "weights must be a sequence of numbers"),
            ((w for w in (0.5, 0.5)), "weights must be a sequence of numbers"),
        ],
    )
    def test_non_numbers_and_overflow_rejected(self, weights, message):
        with pytest.raises(InvalidWeight) as exc:
            normalize_weights(weights, 2)
        assert str(exc.value) == message

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
            min_size=1,
            max_size=12,
        ).filter(lambda ws: sum(ws) > 0.0)
    )
    def test_finite_total_divides_by_sum(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        assert np.array_equal(normalize_weights(weights, len(weights)), w / w.sum())


class TestLinop:
    def test_two_agent_fixture(self):
        pooled = linop((AGENT_1, AGENT_2))
        np.testing.assert_allclose(pooled.probs, LINOP_EXPECTED, atol=1e-15)
        assert marginal(pooled, {0: True}) == pytest.approx(0.65, abs=1e-12)
        assert marginal(pooled, {1: True}) == pytest.approx(0.55, abs=1e-12)

    def test_fixture_breaks_independence(self):
        pooled = linop((AGENT_1, AGENT_2))
        assert pairwise_dependence_gap(pooled, 0, 1) == pytest.approx(
            0.0075, abs=1e-15
        )

    def test_helper_agents_match_fixture(self):
        a, b = independent_pair_agents()
        np.testing.assert_allclose(a.probs, AGENT_1.probs, atol=1e-15)
        np.testing.assert_allclose(b.probs, AGENT_2.probs, atol=1e-15)

    def test_single_agent_identity(self):
        np.testing.assert_allclose(linop((AGENT_2,)).probs, AGENT_2.probs)

    def test_extreme_weight_selects_agent(self):
        pooled = linop((AGENT_1, AGENT_2), (0.0, 1.0))
        np.testing.assert_allclose(pooled.probs, AGENT_2.probs, atol=1e-15)

    def test_mismatched_tables(self):
        with pytest.raises(MismatchedVariables):
            linop((AGENT_1, JointTable(1, (0.5, 0.5))))

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50)
    def test_is_the_weighted_mean_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        tables = [random_joint(rng, 3) for _ in range(3)]
        w = random_weights(rng, 3)
        pooled = linop(tables, w)
        expect = sum(wi * t.probs for wi, t in zip(w, tables))
        np.testing.assert_allclose(pooled.probs, expect, atol=1e-15)


class TestLogop:
    def test_two_agent_fixture(self):
        pooled = logop((AGENT_1, AGENT_2))
        np.testing.assert_allclose(pooled.probs, LOGOP_EXPECTED, atol=1e-15)
        np.testing.assert_allclose(pooled.probs, LOGOP_DECIMALS, atol=1e-12)

    def test_fixture_keeps_independence(self):
        pooled = logop((AGENT_1, AGENT_2))
        assert pairwise_dependence_gap(pooled, 0, 1) <= 1e-15
        assert marginal(pooled, {0: True}) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_single_agent_identity(self):
        np.testing.assert_allclose(logop((AGENT_2,)).probs, AGENT_2.probs)

    def test_zero_weight_agent_drops_out(self):
        # The zero-mass state of a weight-0 agent must not zero the pool.
        degenerate = JointTable(2, (0.0, 0.5, 0.25, 0.25))
        pooled = logop((AGENT_1, degenerate), (1.0, 0.0))
        np.testing.assert_allclose(pooled.probs, AGENT_1.probs, atol=1e-15)

    def test_disjoint_supports_degenerate(self):
        left = JointTable(2, (0.5, 0.5, 0.0, 0.0))
        right = JointTable(2, (0.0, 0.0, 0.5, 0.5))
        with pytest.raises(DegenerateProduct):
            logop((left, right))

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50)
    def test_unanimity(self, seed):
        rng = np.random.default_rng(seed)
        table = random_joint(rng, 3)
        w = random_weights(rng, 3)
        for pool in (linop, logop):
            pooled = pool((table, table, table), w)
            np.testing.assert_allclose(pooled.probs, table.probs, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50)
    def test_matches_log_domain_mean(self, seed):
        rng = np.random.default_rng(seed)
        tables = [random_joint(rng, 3) for _ in range(3)]
        w = random_weights(rng, 3)
        pooled = logop(tables, w)
        logs = sum(wi * np.log(t.probs) for wi, t in zip(w, tables))
        expect = np.exp(logs) / np.exp(logs).sum()
        np.testing.assert_allclose(pooled.probs, expect, atol=1e-12)


MASSES = (0.0, 1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0)


def _log(x):
    return math.log(x) if x > 0.0 else -math.inf


def reference_event_pool(false, true, w):
    """(P(false), P(true)) from a per-agent fsum of logs; None when the
    event and its complement both pool to zero mass."""
    try:
        log_odds = math.fsum(
            wi * (_log(t) - _log(f)) for wi, f, t in zip(w, false, true) if wi > 0.0
        )
    except ValueError:  # -inf + inf: opposed certainties
        return None
    if math.isnan(log_odds):  # an agent with no mass on either side
        return None
    raw_true = math.exp(min(log_odds, 0.0))
    raw_false = math.exp(min(-log_odds, 0.0))
    return raw_false / (raw_true + raw_false), raw_true / (raw_true + raw_false)


class TestPooledLogOdds:
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_log_space_reference(self, data, n, rows):
        masses = st.lists(
            st.lists(st.sampled_from(MASSES), min_size=rows, max_size=rows),
            min_size=n, max_size=n,
        )
        false = np.array(data.draw(masses))
        true = np.array(data.draw(masses))
        weights = data.draw(
            st.lists(st.sampled_from((0.0, 0.25, 1.0, 3.0)), min_size=n, max_size=n)
            .filter(lambda ws: sum(ws) > 0.0)
        )
        w = normalize_weights(weights, n)
        p_false, p_true = _logistic(_pooled_log_odds(false, true, w))
        assert p_false.shape == p_true.shape == (rows,)
        for r in range(rows):
            kept = [i for i in range(n) if w[i] > 0.0]
            opposed = any(true[i, r] == 0.0 < false[i, r] for i in kept) and any(
                false[i, r] == 0.0 < true[i, r] for i in kept
            )
            want = reference_event_pool(false[:, r], true[:, r], w)
            if want is None:
                assert math.isnan(p_false[r]) and math.isnan(p_true[r])
                continue
            assert not opposed
            for got, expect in zip((p_false[r], p_true[r]), want):
                assert abs(got - expect) <= 1e-12
                # Neither side may be one minus the other: a side near 0
                # keeps its relative digits too (down to the subnormals).
                assert math.isclose(got, expect, rel_tol=1e-12, abs_tol=1e-300)

