"""Hypothesis properties of the scenario format: malformed text only ever raises
ScenarioError, and serialized tasks read back to the same text."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominancePartition,
    ScenarioError,
    Threshold,
    at_least,
    category,
    crisp,
    interval,
    ordinal,
    parse_scenario,
    serialize_task,
    validate_task,
)
from conftest import CASES, fixture_path

FIXTURES = {name: json.loads(fixture_path(name).read_text(encoding="utf-8")) for name in CASES}

# keys and strings that mean something to the parser, so that replacements often get past the first check
TAGS = ("interval", "at_least", "ordinal", "category", "max", "min", "min_level", "max_level", "allowed")
WORDS = (*TAGS, "high", "very_low", "white", "1", "2", "01", "")

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(lambda exponent, sign: sign * 10**exponent, st.integers(300, 400), st.sampled_from([1, -1])),
    st.floats(),
    st.sampled_from(WORDS),
    st.text(max_size=6),
)
# a bare leaf or a one-key object shaped like a value or a threshold, else arbitrary nested JSON
json_values = st.one_of(
    leaves,
    st.dictionaries(st.sampled_from(TAGS), st.one_of(leaves, st.lists(leaves, max_size=3)), min_size=1, max_size=1),
    st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.one_of(st.sampled_from(WORDS), st.text(max_size=6)), children, max_size=2),
        ),
        max_leaves=6,
    ),
)


def spots(doc):
    """Paths to every value, threshold and id in a scenario document."""
    paths = [("basic", "thresholds", key) for key in doc["basic"]["thresholds"]]
    paths += [("basic", "ids", i) for i in range(len(doc["basic"]["ids"]))]
    paths += [("attributes", i, "id") for i in range(len(doc["attributes"]))]
    for i, level in enumerate(doc["dominance"]["levels"]):
        paths += [("dominance", "levels", i, j) for j in range(len(level))]
    for i, alt in enumerate(doc["alternatives"]):
        paths.append(("alternatives", i, "id"))
        paths += [("alternatives", i, "values", key) for key in alt["values"]]
    return paths


@st.composite
def mutated_fixtures(draw):
    doc = json.loads(json.dumps(FIXTURES[draw(st.sampled_from(CASES))]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        *parents, last = draw(st.sampled_from(spots(doc)))
        target = doc
        for key in parents:
            target = target[key]
        if parents[-1] in ("values", "thresholds") and draw(st.booleans()):
            # an attribute-id key replaced by an arbitrary string
            target[draw(st.one_of(st.sampled_from(WORDS), st.text(max_size=4)))] = target.pop(last)
        else:
            target[last] = draw(json_values)
    return json.dumps(doc)


class TestMalformedInput:
    @given(mutated_fixtures())
    @settings(max_examples=200, deadline=None)
    def test_only_scenario_errors_escape(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass


numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e300]),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
labels = st.sampled_from(["red", "blue", "white", "x y", "é"])


@st.composite
def values_for(draw, attr):
    if attr.kind == "ordinal":
        return ordinal(draw(st.integers(min_value=1, max_value=5)))
    if attr.kind == "categorical":
        return category(draw(labels))
    shape = draw(st.sampled_from(["crisp", "interval", "at_least"]))
    if shape == "crisp":
        return crisp(draw(numbers))
    if shape == "at_least":
        return at_least(draw(numbers))
    lo, hi = sorted((draw(numbers), draw(numbers)))
    return interval(lo, hi)


@st.composite
def thresholds_for(draw, attr):
    if attr.kind == "ordinal":
        op = draw(st.sampled_from(["min_level", "max_level"]))
        return Threshold(attr.id, op, draw(st.integers(min_value=1, max_value=5)))
    if attr.kind == "categorical":
        return Threshold(attr.id, "allowed", frozenset(draw(st.lists(labels, min_size=1, max_size=3))))
    return Threshold(attr.id, draw(st.sampled_from(["max", "min"])), draw(numbers))


@st.composite
def tasks(draw):
    """A valid task whose values repeat within an attribute; the last attribute numbers the rows."""
    attributes = []
    for aid in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        kind = draw(st.sampled_from(["numeric", "ordinal", "categorical"]))
        polarity = "none" if kind == "categorical" else draw(st.sampled_from(["cost", "benefit"]))
        extra = None
        if kind == "ordinal":
            extra = draw(
                st.none()
                | st.dictionaries(st.sampled_from(["meh", "high", "low", "very_high"]), st.integers(1, 5), min_size=1)
            )
        attributes.append(Attribute(id=aid, name=f"a{aid}", kind=kind, polarity=polarity, labels=extra))
    row = Attribute(id=len(attributes) + 1, name="row", kind="numeric", polarity="cost")
    basic = [attr for attr in attributes if draw(st.booleans())]
    level_of = {attr.id: draw(st.integers(min_value=0, max_value=2)) for attr in attributes}
    level_of.update({attr.id: None for attr in basic if draw(st.booleans())})
    levels = [[aid for aid, level in level_of.items() if level == index] for index in range(3)]
    levels = [level for level in levels if level] + [[row.id]]
    alternatives = [
        Alternative(
            id=f"p{index}",
            values={**{attr.id: draw(values_for(attr)) for attr in attributes}, row.id: crisp(index)},
        )
        for index in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    top = [attr for attr in [*attributes, row] if attr.id in levels[-1]]
    aspiration = None
    if draw(st.booleans()):
        aspiration = tuple(draw(thresholds_for(attr)) for attr in top)
    return DecisionTask(
        task_id=draw(st.text(max_size=4)),
        attributes=(*attributes, row),
        basic_ids=frozenset(attr.id for attr in basic),
        thresholds=tuple(draw(thresholds_for(attr)) for attr in basic),
        partition=DominancePartition(levels),
        alternatives=tuple(alternatives),
        aspiration=aspiration,
    )


class TestRoundTrip:
    @given(tasks())
    @settings(max_examples=100, deadline=None)
    def test_serialize_parse_serialize_is_the_identity(self, task):
        assert validate_task(task) == []
        text = serialize_task(task)
        parsed = parse_scenario(text)
        assert serialize_task(parsed) == text
        assert parsed == task
