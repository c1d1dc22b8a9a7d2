"""Domain type invariants and the task validator."""

from __future__ import annotations

import itertools
import random

import pytest

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominancePartition,
    Threshold,
    at_least,
    category,
    crisp,
    interval,
    ordinal,
    validate_task,
)
from ladderchoice.model import values_equal
from ladderchoice.oracle import random_task


def make_task(**overrides) -> DecisionTask:
    """Small well-formed two-attribute task; override fields to break it."""
    fields = dict(
        task_id="t",
        attributes=(
            Attribute(1, "price", "numeric", "cost"),
            Attribute(2, "grade", "ordinal", "benefit"),
        ),
        basic_ids=frozenset({1}),
        thresholds=(Threshold(1, "max", 100),),
        partition=DominancePartition([[1], [2]]),
        alternatives=(
            Alternative("a", {1: crisp(50), 2: ordinal(4)}),
            Alternative("b", {1: crisp(60), 2: ordinal(3)}),
        ),
    )
    fields.update(overrides)
    return DecisionTask(**fields)


class TestValueConstruction:
    def test_interval_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            interval(5, 3)

    def test_ordinal_level_range(self):
        assert ordinal(1).level == 1
        assert ordinal(5).level == 5
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                ordinal(bad)

    def test_ordinal_from_canonical_label(self):
        assert ordinal("moderate").level == 3
        with pytest.raises(ValueError):
            ordinal("medium")

    def test_at_least_needs_finite_bound(self):
        assert at_least(3).bounds() == (3.0, float("inf"))
        with pytest.raises(ValueError):
            at_least(float("inf"))

    def test_crisp_rejects_nan(self):
        with pytest.raises(ValueError):
            crisp(float("nan"))

    def test_category_needs_label(self):
        with pytest.raises(ValueError):
            category("")

    def test_crisp_bounds_are_degenerate(self):
        assert crisp(40).bounds() == (40.0, 40.0)


class TestValuesEqual:
    def test_crisp_equals_degenerate_interval(self):
        assert values_equal(crisp(40), interval(40, 40))

    def test_cross_family_never_equal(self):
        assert not values_equal(crisp(3), ordinal(3))
        assert not values_equal(category("3"), crisp(3))

    def test_equivalence_relation(self):
        pool = [
            crisp(1), crisp(2), interval(1, 1), interval(1, 2), at_least(1),
            ordinal(2), ordinal(3), category("x"), category("y"),
        ]
        for a in pool:
            assert values_equal(a, a)
        for a, b in itertools.product(pool, pool):
            assert values_equal(a, b) == values_equal(b, a)
        for a, b, c in itertools.product(pool, pool, pool):
            if values_equal(a, b) and values_equal(b, c):
                assert values_equal(a, c)


class TestAttributeAndThreshold:
    def test_categorical_polarity_must_be_none(self):
        with pytest.raises(ValueError):
            Attribute(1, "color", "categorical", "benefit")
        Attribute(1, "color", "categorical", "none")

    def test_numeric_needs_direction(self):
        with pytest.raises(ValueError):
            Attribute(1, "price", "numeric", "none")

    def test_id_positive(self):
        with pytest.raises(ValueError):
            Attribute(0, "x", "numeric", "cost")

    def test_threshold_ops(self):
        assert Threshold(1, "max", 50).bound == 50.0
        assert Threshold(1, "min_level", 3).bound == 3
        assert Threshold(1, "allowed", {"red"}).bound == frozenset({"red"})
        with pytest.raises(ValueError):
            Threshold(1, "atmost", 50)
        with pytest.raises(ValueError):
            Threshold(1, "min_level", 9)
        with pytest.raises(ValueError):
            Threshold(1, "allowed", set())

    def test_extended_label_levels_checked(self):
        with pytest.raises(ValueError):
            Attribute(1, "mood", "ordinal", "benefit", labels={"meh": 7})


class TestPartition:
    def test_levels_must_be_nonempty(self):
        with pytest.raises(ValueError):
            DominancePartition([])
        with pytest.raises(ValueError):
            DominancePartition([[1], []])

    def test_level_indexing_least_first(self):
        p = DominancePartition([[1, 2], [3]])
        assert p.level_count == 2
        assert p.level(1) == frozenset({1, 2})
        assert p.level(2) == frozenset({3})
        assert p.all_ids() == frozenset({1, 2, 3})


class TestValidateTask:
    def test_well_formed_task_is_clean(self):
        assert validate_task(make_task()) == []

    def test_case_fixtures_are_clean(self, case1, case2, case3, case4):
        for task in (case1, case2, case3, case4):
            assert validate_task(task) == []

    def test_byte_identical_alternatives_flagged(self):
        dupe = Alternative("b", {1: crisp(50), 2: ordinal(4)})
        task = make_task(alternatives=(Alternative("a", {1: crisp(50), 2: ordinal(4)}), dupe))
        codes = [v.code for v in validate_task(task)]
        assert codes == ["duplicate-alternative"]

    def test_semantically_equal_vectors_flagged(self):
        # crisp 50 vs the degenerate interval [50, 50] is still complete equality
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50), 2: ordinal(4)}),
                Alternative("b", {1: interval(50, 50), 2: ordinal(4)}),
            )
        )
        assert [v.code for v in validate_task(task)] == ["duplicate-alternative"]

    def test_partition_overlap_flagged(self):
        task = make_task(partition=DominancePartition([[1, 2], [2]]))
        assert "partition-overlap" in [v.code for v in validate_task(task)]

    def test_coverage_gap_flagged(self):
        task = make_task(partition=DominancePartition([[1]]))
        violations = validate_task(task)
        assert any(v.code == "coverage" and "2" in v.message for v in violations)

    def test_threshold_must_cover_exactly_basic_ids(self):
        missing = make_task(thresholds=())
        assert any(v.code == "threshold-coverage" for v in validate_task(missing))
        extra = make_task(thresholds=(Threshold(1, "max", 100), Threshold(2, "min_level", 2)))
        assert any(v.code == "threshold-coverage" for v in validate_task(extra))

    def test_threshold_kind_mismatch_flagged(self):
        task = make_task(thresholds=(Threshold(1, "min_level", 3),))
        assert any(v.code == "kind-mismatch" for v in validate_task(task))

    def test_unknown_references_flagged(self):
        task = make_task(basic_ids=frozenset({1, 9}))
        assert any(v.code == "unknown-reference" for v in validate_task(task))

    def test_duplicate_attribute_id_flagged(self):
        task = make_task(
            attributes=(
                Attribute(1, "price", "numeric", "cost"),
                Attribute(1, "price2", "numeric", "cost"),
                Attribute(2, "grade", "ordinal", "benefit"),
            )
        )
        assert any(v.code == "duplicate-attribute-id" for v in validate_task(task))

    def test_duplicate_alternative_id_flagged(self):
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50), 2: ordinal(4)}),
                Alternative("a", {1: crisp(60), 2: ordinal(3)}),
            )
        )
        assert any(v.code == "duplicate-alternative-id" for v in validate_task(task))

    def test_missing_value_flagged(self):
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50)}),
                Alternative("b", {1: crisp(60), 2: ordinal(3)}),
            )
        )
        assert any(v.code == "missing-value" for v in validate_task(task))

    def test_value_kind_mismatch_flagged(self):
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50), 2: crisp(4)}),
                Alternative("b", {1: crisp(60), 2: ordinal(3)}),
            )
        )
        assert any(v.code == "kind-mismatch" for v in validate_task(task))

    def test_aspiration_restricted_to_top_level(self):
        task = make_task(aspiration=(Threshold(1, "max", 10),))
        assert any(v.code == "aspiration-level" for v in validate_task(task))
        ok = make_task(aspiration=(Threshold(2, "min_level", 4),))
        assert validate_task(ok) == []

    def test_fuzzed_mutations_are_caught(self):
        # flipping any single alternative to duplicate another must be flagged
        rng = random.Random(11)
        for _ in range(50):
            base = make_task()
            clone = Alternative("c", dict(base.alternatives[rng.randrange(2)].values))
            task = make_task(alternatives=base.alternatives + (clone,))
            assert any(v.code == "duplicate-alternative" for v in validate_task(task))


def _naive_same(a, b) -> bool:
    """Semantic equality written out from the kinds, without the canonical key."""
    bounds = {
        "crisp": lambda v: (v.lo, v.lo),
        "interval": lambda v: (v.lo, v.hi),
        "at_least": lambda v: (v.lo, float("inf")),
    }
    if a.kind in bounds and b.kind in bounds:
        return bounds[a.kind](a) == bounds[b.kind](b)
    if a.kind == b.kind == "ordinal":
        return a.level == b.level
    return a.kind == b.kind == "category" and a.label == b.label


def naive_duplicate_messages(task: DecisionTask) -> list[str]:
    """The complete-equality screen as a pairwise loop over every (i, j), i < j."""
    relevant = (task.basic_ids | task.partition.all_ids()) & task.attribute_ids()
    alts = task.alternatives
    return [
        f"alternatives {first.id!r} and {second.id!r} are completely equal on every screened attribute"
        for i, first in enumerate(alts)
        for second in alts[i + 1 :]
        if all(_naive_same(first.values[aid], second.values[aid]) for aid in relevant)
    ]


def duplicate_messages(task: DecisionTask) -> list[str]:
    return [v.message for v in validate_task(task) if v.code == "duplicate-alternative"]


def _twin(value):
    """A different spelling of the same value: crisp x as [x, x], a zero with the other sign."""
    if value.kind == "crisp":
        return interval(value.lo, value.lo) if value.lo else crisp(-value.lo)
    if value.kind == "interval" and value.lo == value.hi:
        return crisp(value.lo)
    return value


class TestDuplicateScreen:
    def test_interleaved_groups_keep_pair_order(self):
        a, b = {1: crisp(50), 2: ordinal(4)}, {1: crisp(60), 2: ordinal(3)}
        task = make_task(
            alternatives=(
                Alternative("p0", a),
                Alternative("p1", b),
                Alternative("p2", dict(b)),
                Alternative("p3", dict(a)),
                Alternative("p4", dict(a)),
            )
        )
        assert duplicate_messages(task) == naive_duplicate_messages(task)
        assert [m.split(" are ")[0] for m in duplicate_messages(task)] == [
            "alternatives 'p0' and 'p3'",
            "alternatives 'p0' and 'p4'",
            "alternatives 'p1' and 'p2'",
            "alternatives 'p3' and 'p4'",
        ]

    @pytest.mark.parametrize(
        "first,second",
        [(crisp(3), interval(3, 3)), (crisp(0.0), crisp(-0.0)), (interval(-0.0, 0.0), crisp(0))],
        ids=["crisp-vs-degenerate-interval", "zero-vs-negative-zero", "signed-zero-interval"],
    )
    def test_equal_spellings_are_duplicates(self, first, second):
        task = make_task(
            alternatives=(Alternative("a", {1: first, 2: ordinal(4)}), Alternative("b", {1: second, 2: ordinal(4)}))
        )
        assert values_equal(first, second)
        assert duplicate_messages(task) == naive_duplicate_messages(task) != []

    def test_wrong_kind_or_missing_value_keeps_a_pair_out_only_on_screened_attributes(self):
        # attribute 3 is neither basic nor in the partition, so the screen ignores it
        pairs = [
            ("a", {1: category("x"), 2: ordinal(4), 3: crisp(1)}),  # wrong kind on a screened attribute
            ("c", {1: crisp(5), 2: ordinal(4), 3: category("y")}),  # wrong kind on attribute 3
            ("e", {2: ordinal(2), 3: crisp(1)}),  # no value on a screened attribute
            ("g", {1: crisp(7), 2: ordinal(2)}),  # no value on attribute 3
        ]
        task = make_task(
            attributes=(*make_task().attributes, Attribute(3, "extra", "numeric", "cost")),
            alternatives=tuple(Alternative(name + suffix, dict(values)) for name, values in pairs for suffix in "12"),
        )
        assert [m.split(" are ")[0] for m in duplicate_messages(task)] == [
            "alternatives 'c1' and 'c2'",
            "alternatives 'g1' and 'g2'",
        ]

    def test_matches_pairwise_screen_on_large_tasks(self):
        rng = random.Random(29)
        for seed, n in [(1, 40), (2, 120), (3, 300), (4, 300)]:
            base = random_task(seed, n_alternatives=n, n_attributes=4, n_levels=2)
            alternatives = list(base.alternatives)
            for k in range(n // 10):
                source = rng.choice(base.alternatives)
                values = {aid: (_twin(v) if rng.random() < 0.5 else v) for aid, v in source.values.items()}
                alternatives.insert(rng.randrange(len(alternatives) + 1), Alternative(f"dup{k}", values))
            task = DecisionTask(
                task_id=base.task_id,
                attributes=base.attributes,
                basic_ids=base.basic_ids,
                thresholds=base.thresholds,
                partition=base.partition,
                alternatives=tuple(alternatives),
            )
            expected = naive_duplicate_messages(task)
            assert len(expected) >= n // 10
            assert duplicate_messages(task) == expected
