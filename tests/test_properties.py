"""Hypothesis properties of the scenario format, the text trace and the command
line: malformed text only ever raises ScenarioError, serialized tasks read back
to the same text, every trace line splits back into the fields it was built
from, and ``cli.main`` answers any command line with an exit code."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominanceMode,
    DominancePartition,
    ScenarioError,
    Threshold,
    Verdict,
    at_least,
    category,
    crisp,
    decide_task,
    interval,
    ordinal,
    parse_scenario,
    serialize_task,
    validate_task,
)
from ladderchoice.cli import main
from ladderchoice.model import Elimination, LadderOutcome, LevelRecord, SiftResult
from ladderchoice.scenario import decision_text
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
# interval payloads that are not a list of two bounds
INTERVAL_SHAPES = ([1, 2, 3], [1], [], 5, "ab", {"a": 1, "b": 2})
# a bare leaf or a one-key object shaped like a value or a threshold, else arbitrary nested JSON
json_values = st.one_of(
    leaves,
    st.sampled_from(INTERVAL_SHAPES).map(lambda payload: {"interval": payload}),
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
    """Paths to every value, threshold, id and dominance level in a scenario document."""
    paths = [("basic", "thresholds", key) for key in doc["basic"]["thresholds"]]
    paths += [("basic", "ids", i) for i in range(len(doc["basic"]["ids"]))]
    paths += [("attributes", i, "id") for i in range(len(doc["attributes"]))]
    for i, level in enumerate(doc["dominance"]["levels"]):
        paths.append(("dominance", "levels", i))
        if isinstance(level, list):
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
def values_for(draw, attr, labels=labels):
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
def thresholds_for(draw, attr, labels=labels):
    if attr.kind == "ordinal":
        op = draw(st.sampled_from(["min_level", "max_level"]))
        return Threshold(attr.id, op, draw(st.integers(min_value=1, max_value=5)))
    if attr.kind == "categorical":
        return Threshold(attr.id, "allowed", frozenset(draw(st.lists(labels, min_size=1, max_size=3))))
    return Threshold(attr.id, draw(st.sampled_from(["max", "min"])), draw(numbers))


@st.composite
def tasks(draw, labels=labels, alternative_ids=None):
    """A valid task whose values repeat within an attribute; the last attribute numbers the rows.

    Category labels are drawn from ``labels``; alternative ids are ``p0``,
    ``p1``, ... unless ``alternative_ids`` draws them.
    """
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
    count = draw(st.integers(min_value=1, max_value=6))
    names = [f"p{index}" for index in range(count)]
    if alternative_ids is not None:
        names = draw(st.lists(alternative_ids, min_size=count, max_size=count, unique=True))
    alternatives = [
        Alternative(
            id=name,
            values={**{attr.id: draw(values_for(attr, labels)) for attr in attributes}, row.id: crisp(index)},
        )
        for index, name in enumerate(names)
    ]
    top = [attr for attr in [*attributes, row] if attr.id in levels[-1]]
    aspiration = None
    if draw(st.booleans()):
        aspiration = tuple(draw(thresholds_for(attr, labels)) for attr in top)
    return DecisionTask(
        task_id=draw(st.text(max_size=4)),
        attributes=(*attributes, row),
        basic_ids=frozenset(attr.id for attr in basic),
        thresholds=tuple(draw(thresholds_for(attr, labels)) for attr in basic),
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


# printable text rich in the characters a trace line is built from: the delimiters, brackets, braces, parentheses
TRACE_CHARACTERS = ",|[]{}() :>="
trace_text = st.text(
    st.sampled_from(TRACE_CHARACTERS) | st.characters(blacklist_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Z")),
    min_size=1,
    max_size=5,
)


def accepted(build, text):
    """Whether ``build(text)`` is accepted: a refused label or id is skipped, not drawn."""
    try:
        build(text)
    except ValueError:
        return False
    return True


@st.composite
def traced_tasks(draw):
    """A task whose category labels and alternative ids are drawn from ``trace_text``, and a dominance mode.

    A task draws its labels from a pool of one to three, so a value meets an
    ``allowed`` list that holds it as well as one that does not.
    """
    pool = draw(st.lists(trace_text.filter(lambda text: accepted(category, text)), min_size=1, max_size=3, unique=True))
    ids = trace_text.filter(lambda text: accepted(lambda name: Alternative(name, {}), text))
    task = draw(tasks(labels=st.sampled_from(pool), alternative_ids=ids))
    return task, draw(st.sampled_from(list(DominanceMode)))


def read_value(text):
    """The value a trace line shows as ``text``, rebuilt through its factory."""
    if text.startswith("category(") and text.endswith(")"):
        return category(text[len("category("):-1])
    if text.startswith("ordinal(") and text.endswith(")"):
        return ordinal(int(text[len("ordinal("):-1]))
    if text.startswith("[") and text.endswith("]"):
        lo, hi = text[1:-1].split(",")
        return interval(float(lo), float(hi))
    if text.startswith(">="):
        return at_least(float(text[2:]))
    return crisp(float(text))


def read_threshold(attribute_id, text):
    """The threshold a trace line shows as ``text``, rebuilt through its constructor."""
    op, bound = text.split(" ", 1)
    if op == "allowed":
        assert bound.startswith("{") and bound.endswith("}")
        return Threshold(attribute_id, op, bound[1:-1].split(","))
    return Threshold(attribute_id, op, int(bound) if op.endswith("_level") else float(bound))


def read_ids(text):
    """The ids of a ``[a,b]`` list."""
    assert text.startswith("[") and text.endswith("]")
    return tuple(text[1:-1].split(",")) if text != "[]" else ()


def read_prefixed(prefix, text):
    assert text.startswith(prefix)
    return text[len(prefix):]


def read_decision_text(text):
    """The sift result and ladder outcome a ``decide`` transcript was built from, read back field by field.

    Each line is split on ``|`` into its fields and each list on ``,``: no
    label or id holds either, so the split is exact.
    """
    lines = text.split("\n")
    eliminations = []
    while lines[0].startswith("eliminated "):
        alternative, attribute, threshold, value = lines.pop(0).split(" | ")
        attribute_id = int(read_prefixed("attribute ", attribute))
        eliminations.append(Elimination(
            read_prefixed("eliminated ", alternative),
            attribute_id,
            read_threshold(attribute_id, threshold),
            read_value(read_prefixed("value ", value)),
        ))
    feasible = read_ids(read_prefixed("feasible ", lines.pop(0)))
    *rungs, verdict = lines
    trace = []
    for line in rungs:
        rank, attrs, before, after = line.split(" | ")
        attrs = read_prefixed("attrs ", attrs)
        assert attrs.startswith("{") and attrs.endswith("}")
        trace.append(LevelRecord(
            int(read_prefixed("level ", rank)),
            frozenset(int(aid) for aid in attrs[1:-1].split(",")),
            read_ids(read_prefixed("before ", before)),
            read_ids(read_prefixed("after ", after)),
        ))
    if verdict.startswith("Chosen: "):
        outcome = LadderOutcome(Verdict.CHOSEN, read_prefixed("Chosen: ", verdict), tuple(trace))
    else:
        outcome = LadderOutcome(Verdict(verdict), None, tuple(trace))
    return SiftResult(feasible, tuple(eliminations)), outcome


class TestTraceFields:
    def test_every_line_splits_back_into_its_fields(self):
        # brackets, braces and parentheses stay allowed in a label: the drawn traces must show each of them
        shown: set[str] = set()

        @given(traced_tasks())
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def splits_back(case):
            task, mode = case
            sifted, outcome = decide_task(task, mode)
            assert read_decision_text(decision_text(sifted, outcome)) == (sifted, outcome)
            for elimination in sifted.eliminations:
                if elimination.threshold.op == "allowed":
                    for label in (elimination.value.label, *elimination.threshold.bound):
                        shown.update(set(label) & set("[]{}()"))

        splits_back()
        assert shown == set("[]{}()")


MODES = st.sampled_from(["global", "undominated", "foo", ""])
# designations a fixture can and cannot serve, counts and budgets of both signs, and words that are none
NUMBERS = st.one_of(st.integers(-3, 8), st.just(99), st.sampled_from(["x", "", "1.5", "-0"])).map(str)
THEORY_LISTS = st.lists(st.sampled_from(["lt", "pt", "it", "xx", "", " "]), max_size=4).map(",".join)


def options(draw, choices):
    """Each of ``choices`` (flag -> value strategy, or None for a bare flag) or not, in drawn order."""
    argv = []
    for flag in draw(st.permutations(sorted(choices))):
        if draw(st.booleans()):
            argv.append(flag)
            if choices[flag] is not None:
                argv.append(draw(choices[flag]))
    return argv


@st.composite
def command_lines(draw):
    """An argv for ``cli.main`` with ``{path}`` standing for the scenario file, and that file's text."""
    text = draw(st.one_of(st.sampled_from(list(FIXTURES.values())).map(json.dumps), mutated_fixtures()))
    command = draw(st.sampled_from(["decide", "compare", "validate", "batch", "bogus"]))
    path = draw(st.sampled_from(["{path}", "{path}", "{path}", "missing.json", "{dir}"]))
    if command == "decide":
        argv = [command, path, *options(draw, {"--mode": MODES, "--json": None})]
    elif command == "compare":
        argv = [command, path, *options(draw, {
            "--theories": THEORY_LISTS,
            "--pt-risk-attr": NUMBERS,
            "--it-profit-attr": NUMBERS,
            "--it-budget": NUMBERS,
            "--mode": MODES,
        })]
    elif command == "validate":
        argv = [command, *draw(st.lists(st.just(path), max_size=2))]
    elif command == "batch":
        argv = [command, *options(draw, {"--seed": NUMBERS, "--count": NUMBERS, "--mode": MODES})]
    else:
        argv = [command, path]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "--", "extra"])))
    return argv, text


class TestCommandLine:
    @given(command_lines())
    @settings(max_examples=200, deadline=None)
    def test_main_returns_an_exit_code(self, case):
        argv, text = case
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "scenario.json"
            scenario.write_text(text, encoding="utf-8")
            argv = [arg.format(path=scenario, dir=tmp) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert isinstance(code, int)
