"""Ordering semantics: pinned examples plus hypothesis property suites.

Value order is asserted on the code that decides: a ladder rung,
:func:`ladder.dominant_set`, over two alternatives on a task of one
attribute, in both modes, whose rows it builds from :func:`signed_columns`.
"""

from __future__ import annotations

import re
from itertools import product
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominanceMode,
    DominancePartition,
    Threshold,
    at_least,
    category,
    crisp,
    interval,
    ladder,
    ordinal,
)
from ladderchoice.ladder import signed_columns
from ladderchoice.model import label_level
from ladderchoice.oracle import _naive_strictly_better, _naive_weakly_better
from ladderchoice.sift import satisfies_threshold

from conftest import dominates

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


FAMILY_KIND = {"n": "numeric", "o": "ordinal", "c": "categorical"}


def lone_attribute(a, b, polarity):
    """Alternatives holding ``a`` and ``b`` on a lone attribute of their family, a category's polarity being none; and their task."""
    kind = FAMILY_KIND[a.key[0]]
    attr = Attribute(1, "x", kind, "none" if kind == "categorical" else polarity)
    s, t = Alternative("a", {1: a}), Alternative("b", {1: b})
    return s, t, DecisionTask("values", (attr,), frozenset(), (), DominancePartition([[1]]), (s, t))


def beats(a, b, polarity):
    """Whether ``a`` strictly dominates ``b`` on a lone attribute of their family: a rung of the two keeps ``a`` alone, in both modes."""
    s, t, task = lone_attribute(a, b, polarity)
    answers = {dominates(s, t, {1}, mode, task) for mode in DominanceMode}
    assert len(answers) == 1, f"the two modes disagree on {a} against {b}"
    return answers.pop()


def same_row(a, b, polarity):
    """Whether a rung gives ``a`` and ``b`` one row on a lone attribute of their family, and so groups them."""
    s, t, task = lone_attribute(a, b, polarity)
    (row_s, row_t), _ = ladder._rows((s.values, t.values), {1}, task)
    return row_s == row_t


class TestCompareExamples:
    def test_ordinal_levels_under_benefit(self):
        assert beats(ordinal(5), ordinal(4), "benefit")
        assert not beats(ordinal(4), ordinal(5), "benefit")

    def test_ordinal_levels_flip_under_cost(self):
        assert beats(ordinal(1), ordinal(2), "cost")
        assert not beats(ordinal(2), ordinal(1), "cost")

    def test_open_lower_bounds_order_by_start(self):
        assert beats(at_least(3), at_least(2), "benefit")
        assert not beats(at_least(2), at_least(3), "benefit")

    def test_identical_intervals_equal(self):
        assert same_row(interval(30, 70), interval(30, 70), "cost")
        assert not beats(interval(30, 70), interval(30, 70), "cost")

    def test_crisp_lifts_against_interval(self):
        assert beats(interval(40, 50), crisp(70), "cost")
        assert not beats(crisp(70), interval(40, 50), "cost")

    def test_crossing_intervals_incomparable(self):
        assert not beats(interval(30, 70), interval(40, 50), "cost")
        assert not beats(interval(40, 50), interval(30, 70), "cost")

    def test_categories_equal_or_incomparable(self):
        assert same_row(category("white"), category("white"), "none")
        assert not beats(category("white"), category("white"), "none")
        assert not same_row(category("white"), category("blue"), "none")
        assert not beats(category("white"), category("blue"), "none")
        assert not beats(category("blue"), category("white"), "none")


class TestSignedColumns:
    """The column form of value order, row by row against the naive reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.lists(numeric_values(), min_size=1, max_size=8), st.lists(ordinal_values, min_size=1, max_size=8)),
        polarities,
    )
    def test_rows_order_as_the_reference_orders_their_values(self, values, polarity):
        keys = [value.key for value in values]
        kind = "ordinal" if keys[0][0] == "o" else "numeric"
        columns = signed_columns(keys, Attribute(1, "x", kind, polarity))
        # a column of points, whose upper ends repeat their lower ends, keeps only the lower ends
        assert len(columns) == 1 + any(key[1] != key[-1] for key in keys)
        rows = list(zip(*columns))
        for (a, s), (b, t) in product(zip(values, rows), repeat=2):
            weakly = all(map(ge, s, t))
            assert weakly == _naive_weakly_better(a, b, polarity)
            assert (weakly and s != t) == _naive_strictly_better(a, b, polarity)

    def test_the_first_value_that_has_no_order_here_is_named(self):
        numeric = Attribute(1, "x", "numeric", "benefit")
        with pytest.raises(ValueError, match=re.escape("numeric attribute 1 cannot order a value of another family, ('o', 2)") + "$"):
            signed_columns([crisp(1).key, ordinal(2).key, category("x").key], numeric)
        with pytest.raises(ValueError, match="^a category value has no order$"):
            signed_columns([crisp(1).key, category("x").key, ordinal(2).key], numeric)
        with pytest.raises(ValueError, match=re.escape("ordinal attribute 2 cannot order a value of another family, ('n', 3.0, 3.0)") + "$"):
            signed_columns([ordinal(1).key, crisp(3).key], Attribute(2, "y", "ordinal", "cost"))
        with pytest.raises(ValueError, match="^a category value has no order$"):
            signed_columns([category("x").key], Attribute(3, "z", "categorical", "none"))


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
    def test_antisymmetry(self, values, polarity):
        a, b = values
        assert not (beats(a, b, polarity) and beats(b, a, polarity))

    @given(st.one_of(numeric_values(), ordinal_values, category_values), polarities)
    @settings(max_examples=200)
    def test_irreflexivity(self, value, polarity):
        assert not beats(value, value, polarity)

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
        if beats(a, b, polarity) and beats(b, c, polarity):
            assert beats(a, c, polarity)

    @given(st.one_of(same_family_pair(), st.tuples(category_values, category_values)), polarities)
    @settings(max_examples=500)
    def test_agrees_with_the_naive_reference(self, values, polarity):
        a, b = values
        forward, backward = _naive_weakly_better(a, b, polarity), _naive_weakly_better(b, a, polarity)
        assert beats(a, b, polarity) == (forward and _naive_strictly_better(a, b, polarity))
        assert beats(b, a, polarity) == (backward and _naive_strictly_better(b, a, polarity))
        # a rung groups exactly the values the reference calls equal
        assert same_row(a, b, polarity) == (forward and backward)

    @given(same_family_pair())
    @settings(max_examples=300)
    def test_polarity_flip_reverses_the_order(self, values):
        a, b = values
        # negating both coordinate tuples orders them as swapping the arguments does
        assert beats(a, b, "cost") == beats(b, a, "benefit")
        assert beats(b, a, "cost") == beats(a, b, "benefit")


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
        ga, gb = rescale(a, g), rescale(b, g)
        assert beats(a, b, polarity) == beats(ga, gb, polarity)
        assert beats(b, a, polarity) == beats(gb, ga, polarity)
        assert same_row(a, b, polarity) == same_row(ga, gb, polarity)

    @given(grid_numeric_values(), st.sampled_from(["max", "min"]), int_finite, increasing_maps())
    @settings(max_examples=300)
    def test_threshold_satisfaction_is_order_invariant(self, value, op, bound, g):
        t = Threshold(1, op, bound)
        t_scaled = Threshold(1, op, g(bound))
        assert satisfies_threshold(value, t) == satisfies_threshold(rescale(value, g), t_scaled)
