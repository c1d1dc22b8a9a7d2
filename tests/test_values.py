"""Ordering semantics: pinned examples plus hypothesis property suites."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderchoice import Threshold, at_least, category, crisp, interval, ordinal
from ladderchoice.model import label_level
from ladderchoice.oracle import _naive_strictly_better, _naive_weakly_better
from ladderchoice.values import PartialOrdering as Ord, compare_values, satisfies_threshold

finite = st.one_of(
    st.integers(min_value=-50, max_value=50).map(float),
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
)


@st.composite
def numeric_values(draw):
    shape = draw(st.sampled_from(["crisp", "interval", "at_least"]))
    if shape == "crisp":
        return crisp(draw(finite))
    if shape == "at_least":
        return at_least(draw(finite))
    lo, hi = sorted((draw(finite), draw(finite)))
    return interval(lo, hi)


ordinal_values = st.integers(min_value=1, max_value=5).map(ordinal)
category_values = st.sampled_from(["red", "blue"]).map(category)
polarities = st.sampled_from(["cost", "benefit"])


@st.composite
def same_family_pair(draw):
    family = draw(st.sampled_from(["numeric", "ordinal"]))
    source = numeric_values() if family == "numeric" else ordinal_values
    return draw(source), draw(source)


class TestCompareExamples:
    def test_ordinal_levels_under_benefit(self):
        assert compare_values(ordinal(5), ordinal(4), "benefit") is Ord.BETTER

    def test_ordinal_levels_flip_under_cost(self):
        assert compare_values(ordinal(1), ordinal(2), "cost") is Ord.BETTER

    def test_open_lower_bounds_order_by_start(self):
        assert compare_values(at_least(3), at_least(2), "benefit") is Ord.BETTER

    def test_identical_intervals_equal(self):
        assert compare_values(interval(30, 70), interval(30, 70), "cost") is Ord.EQUAL

    def test_crisp_lifts_against_interval(self):
        assert compare_values(interval(40, 50), crisp(70), "cost") is Ord.BETTER

    def test_crossing_intervals_incomparable(self):
        assert compare_values(interval(30, 70), interval(40, 50), "cost") is Ord.INCOMPARABLE

    def test_categories_equal_or_incomparable(self):
        assert compare_values(category("white"), category("white"), "none") is Ord.EQUAL
        assert compare_values(category("white"), category("blue"), "none") is Ord.INCOMPARABLE

    def test_kind_mismatch_is_contract_error(self):
        with pytest.raises(ValueError):
            compare_values(crisp(3), ordinal(3), "benefit")
        with pytest.raises(ValueError):
            compare_values(category("x"), crisp(1), "none")


class TestThresholdExamples:
    def test_interval_best_case_against_cost_bound(self):
        assert satisfies_threshold(interval(50, 60), Threshold(1, "max", 50))

    def test_crisp_fails_cost_bound(self):
        assert not satisfies_threshold(crisp(70), Threshold(1, "max", 60))

    def test_interval_best_case_against_benefit_bound(self):
        assert satisfies_threshold(interval(1, 9), Threshold(1, "min", 8))
        assert not satisfies_threshold(interval(1, 7), Threshold(1, "min", 8))

    def test_open_bound_always_reaches_min(self):
        assert satisfies_threshold(at_least(2), Threshold(1, "min", 1000))
        assert satisfies_threshold(at_least(2), Threshold(1, "max", 2))
        assert not satisfies_threshold(at_least(3), Threshold(1, "max", 2))

    def test_level_predicates(self):
        assert satisfies_threshold(ordinal(4), Threshold(1, "min_level", 4))
        assert not satisfies_threshold(ordinal(3), Threshold(1, "min_level", 4))
        assert satisfies_threshold(ordinal(2), Threshold(1, "max_level", 2))
        assert not satisfies_threshold(ordinal(3), Threshold(1, "max_level", 2))

    def test_category_membership(self):
        allowed = Threshold(1, "allowed", {"red", "blue", "white"})
        assert satisfies_threshold(category("white"), allowed)
        assert not satisfies_threshold(category("green"), allowed)

    def test_kind_mismatch_is_contract_error(self):
        with pytest.raises(ValueError):
            satisfies_threshold(ordinal(3), Threshold(1, "max", 5))
        with pytest.raises(ValueError):
            satisfies_threshold(crisp(3), Threshold(1, "allowed", {"x"}))


class TestOrdinalLabels:
    def test_canonical_scale(self):
        assert label_level("very_low") == 1
        assert label_level("low") == 2
        assert label_level("moderate") == 3
        assert label_level("high") == 4
        assert label_level("very_high") == 5

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            label_level("medium")

    def test_declared_extras_extend_the_scale(self):
        assert label_level("meh", {"meh": 3}) == 3
        with pytest.raises(ValueError):
            label_level("meh")


class TestCompareProperties:
    @given(same_family_pair(), polarities)
    @settings(max_examples=300)
    def test_antisymmetry(self, pair, polarity):
        a, b = pair
        forward = compare_values(a, b, polarity)
        backward = compare_values(b, a, polarity)
        assert (forward is Ord.BETTER) == (backward is Ord.WORSE)
        assert (forward is Ord.EQUAL) == (backward is Ord.EQUAL)
        assert (forward is Ord.INCOMPARABLE) == (backward is Ord.INCOMPARABLE)

    @given(st.one_of(numeric_values(), ordinal_values), polarities)
    @settings(max_examples=200)
    def test_self_comparison_is_equal(self, value, polarity):
        assert compare_values(value, value, polarity) is Ord.EQUAL

    @given(
        st.one_of(
            st.tuples(numeric_values(), numeric_values(), numeric_values()),
            st.tuples(ordinal_values, ordinal_values, ordinal_values),
        ),
        polarities,
    )
    @settings(max_examples=500)
    def test_strict_transitivity(self, triple, polarity):
        a, b, c = triple
        if (
            compare_values(a, b, polarity) is Ord.BETTER
            and compare_values(b, c, polarity) is Ord.BETTER
        ):
            assert compare_values(a, c, polarity) is Ord.BETTER

    @given(st.one_of(same_family_pair(), st.tuples(category_values, category_values)), polarities)
    @settings(max_examples=500)
    def test_agrees_with_the_naive_reference(self, pair, polarity):
        a, b = pair
        forward, backward = _naive_weakly_better(a, b, polarity), _naive_weakly_better(b, a, polarity)
        if forward and _naive_strictly_better(a, b, polarity):
            expected = Ord.BETTER
        elif backward and _naive_strictly_better(b, a, polarity):
            expected = Ord.WORSE
        elif forward and backward:
            expected = Ord.EQUAL
        else:
            expected = Ord.INCOMPARABLE
        assert compare_values(a, b, polarity) is expected

    @given(same_family_pair())
    @settings(max_examples=300)
    def test_polarity_flip_reverses_the_order(self, pair):
        a, b = pair
        # negating both coordinate tuples orders them as swapping the arguments does
        assert compare_values(a, b, "cost") is compare_values(b, a, "benefit")


# rescaling tests run on an integer grid: subnormal-scale gaps would vanish
# inside the piecewise map's additions and break injectivity in floats
int_finite = st.integers(min_value=-50, max_value=50).map(float)


@st.composite
def grid_numeric_values(draw):
    shape = draw(st.sampled_from(["crisp", "interval", "at_least"]))
    if shape == "crisp":
        return crisp(draw(int_finite))
    if shape == "at_least":
        return at_least(draw(int_finite))
    lo, hi = sorted((draw(int_finite), draw(int_finite)))
    return interval(lo, hi)


def piecewise_linear(knots: list[float], slopes: list[float]):
    """Strictly increasing map assembled from positive slopes between knots."""
    assert slopes and len(slopes) == len(knots) + 1

    def g(x: float) -> float:
        y = 0.0
        prev = knots[0] if knots else 0.0
        if not knots:
            return slopes[0] * x
        if x < knots[0]:
            return slopes[0] * (x - knots[0])
        for i, k in enumerate(knots):
            if i:
                y += slopes[i] * (k - prev)
            prev = k
            if i + 1 == len(knots) or x < knots[i + 1]:
                return y + slopes[i + 1] * (x - k)
        return y

    return g


def rescale(value, g):
    if value.kind == "crisp":
        return crisp(g(value.lo))
    if value.kind == "interval":
        return interval(g(value.lo), g(value.hi))
    if value.kind == "at_least":
        return at_least(g(value.lo))
    return value


@st.composite
def increasing_maps(draw):
    knots = sorted(draw(st.lists(int_finite, min_size=1, max_size=3, unique=True)))
    slopes = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            min_size=len(knots) + 1,
            max_size=len(knots) + 1,
        )
    )
    return piecewise_linear(knots, slopes)


class TestMonotoneRescaling:
    @given(grid_numeric_values(), grid_numeric_values(), polarities, increasing_maps())
    @settings(max_examples=300)
    def test_comparison_is_order_invariant(self, a, b, polarity, g):
        before = compare_values(a, b, polarity)
        after = compare_values(rescale(a, g), rescale(b, g), polarity)
        assert before is after

    @given(grid_numeric_values(), st.sampled_from(["max", "min"]), int_finite, increasing_maps())
    @settings(max_examples=300)
    def test_threshold_satisfaction_is_order_invariant(self, value, op, bound, g):
        t = Threshold(1, op, bound)
        t_scaled = Threshold(1, op, g(bound))
        assert satisfies_threshold(value, t) == satisfies_threshold(rescale(value, g), t_scaled)
