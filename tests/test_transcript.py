"""The command-line output contract as one golden transcript.

Each command below runs ``cli.main`` in-process from the repository root, and
its stdout, stderr and exit code are recorded, in order, against
``tests/data/transcript.txt``.  The commands are ``decide`` as text and as
``--json`` in both modes on the fixtures, on generated tasks and on a few
hand-written scenarios; ``validate`` on every fixture and every
``tests/data/*.json``; three ``compare`` lines; and ``batch`` in both modes.
A changed verdict, trace line, message or exit code changes the transcript.

The tests never write the golden file.  After a deliberate change to the
output, rewrite it and review every changed line:

    PYTHONPATH=src python tests/test_transcript.py --write
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from ladderchoice import cli, serialize_task
from ladderchoice.oracle import random_task

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "data" / "transcript.txt"

# (seed, alternatives, attributes, levels, total order only) of each generated task
GENERATED = [(seed, 2 + seed % 7, 1 + seed % 5, 1 + seed % 3, seed % 4 == 0) for seed in range(1, 31)]

# hand-written scenarios: an aspiration block that abstains and one that chooses, and an
# ordinal attribute whose extra labels give "moderate" another level
HANDWRITTEN = {
    "aspiration-abstains": """{
  "task_id": "aspiration-abstains",
  "attributes": [
    {"id": 1, "name": "cost", "kind": "numeric", "polarity": "cost"},
    {"id": 2, "name": "quality", "kind": "ordinal", "polarity": "benefit"}
  ],
  "basic": {"ids": [1], "thresholds": {"1": {"max": 100}}},
  "dominance": {"levels": [[1], [2]]},
  "aspiration": {"2": {"min_level": 4}},
  "alternatives": [
    {"id": "a", "values": {"1": 80, "2": {"ordinal": "moderate"}}},
    {"id": "b", "values": {"1": 120, "2": {"ordinal": "very_high"}}}
  ]
}
""",
    "aspiration-chooses": """{
  "task_id": "aspiration-chooses",
  "attributes": [
    {"id": 1, "name": "cost", "kind": "numeric", "polarity": "cost"},
    {"id": 2, "name": "quality", "kind": "ordinal", "polarity": "benefit"}
  ],
  "basic": {"ids": [1], "thresholds": {"1": {"max": 100}}},
  "dominance": {"levels": [[1], [2]]},
  "aspiration": {"2": {"min_level": 3}},
  "alternatives": [
    {"id": "a", "values": {"1": {"at_least": 60}, "2": {"ordinal": "high"}}},
    {"id": "b", "values": {"1": {"interval": [110, 130]}, "2": {"ordinal": "very_high"}}}
  ]
}
""",
    "extra-labels": """{
  "task_id": "extra-labels",
  "attributes": [
    {"id": 1, "name": "grade", "kind": "ordinal", "polarity": "benefit", "labels": {"moderate": 4, "fair": 2}},
    {"id": 2, "name": "colour", "kind": "categorical", "polarity": "none"}
  ],
  "basic": {"ids": [2], "thresholds": {"2": {"allowed": ["red", "blue"]}}},
  "dominance": {"levels": [[1]]},
  "alternatives": [
    {"id": "p", "values": {"1": {"ordinal": "fair"}, "2": {"category": "red"}}},
    {"id": "q", "values": {"1": {"ordinal": "moderate"}, "2": {"category": "blue"}}},
    {"id": "r", "values": {"1": {"ordinal": "very_high"}, "2": {"category": "green"}}}
  ]
}
""",
    "interval-deadlock": """{
  "task_id": "interval-deadlock",
  "attributes": [{"id": 1, "name": "time", "kind": "numeric", "polarity": "cost"}],
  "basic": {"ids": [1], "thresholds": {"1": {"max": 100}}},
  "dominance": {"levels": [[1]]},
  "alternatives": [
    {"id": "a", "values": {"1": {"interval": [30, 70]}}},
    {"id": "b", "values": {"1": {"interval": [40, 50]}}}
  ]
}
""",
}


def _run(argv: list[str], tmp: Path) -> str:
    """One command's block: the command line, each stdout and stderr line, then the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = [arg.replace(str(tmp), "<tmp>") for arg in argv]
    lines = [f"$ ladderchoice {' '.join(shown)}"]
    for prefix, stream in (("out", out), ("err", err)):
        lines += [f"{prefix}| {line}" for line in stream.getvalue().replace(str(tmp), "<tmp>").splitlines()]
    lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def transcript(tmp: Path) -> str:
    """The whole transcript; scenario files are written under ``tmp``, and paths are read from the repository root."""
    scenarios = [str(path.relative_to(REPO)) for path in sorted((REPO / "fixtures").glob("*.json"))]
    for seed, n, m, levels, total_order_only in GENERATED:
        path = tmp / f"generated-{seed:02d}.json"
        path.write_text(serialize_task(random_task(seed, n, m, levels, total_order_only)), encoding="utf-8")
        scenarios.append(str(path))
    for name, text in HANDWRITTEN.items():
        path = tmp / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        scenarios.append(str(path))

    commands = []
    for path in scenarios:
        for mode in ("global", "undominated"):
            commands += [["decide", path, "--mode", mode], ["decide", path, "--mode", mode, "--json"]]
    for path in sorted((REPO / "fixtures").glob("*.json")) + sorted((REPO / "tests" / "data").glob("*.json")):
        commands.append(["validate", str(path.relative_to(REPO))])
    case2 = "fixtures/case2.json"
    commands += [
        ["compare", case2, "--theories", "lt,pt,it", "--pt-risk-attr", "5"],
        ["compare", case2, "--theories", "lt,it", "--it-profit-attr", "1", "--it-budget", "1"],
        ["compare", case2, "--theories", "lt,lt"],
        ["batch", "--seed", "7", "--count", "50", "--mode", "global"],
        ["batch", "--seed", "7", "--count", "50", "--mode", "undominated"],
    ]

    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        return "\n".join(_run(argv, tmp) for argv in commands)
    finally:
        os.chdir(cwd)


def test_the_transcript_is_the_golden_one(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


def test_the_transcript_holds_every_verdict_and_exit_code():
    golden = GOLDEN.read_text(encoding="utf-8")
    for verdict in ("out| Chosen: ", "out| Abstain", "out| Repartition", "out| NoUniqueChoice"):
        assert verdict in golden
    exits = {line for line in golden.splitlines() if line.startswith("exit ")}
    assert exits == {"exit 0", "exit 1", "exit 2", "exit 3"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_transcript.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(Path(tmp)), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(REPO)}")
