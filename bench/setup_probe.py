"""A workload's set-up, and a probe that times it in a fresh interpreter.

    python3 bench/setup_probe.py SRC [--cli] [SCENARIO_FILE ...]

The set-up is the import of the ``ladderchoice`` package from ``SRC`` (and of
``ladderchoice.cli`` with ``--cli``) and the parsing of each scenario file.
The probe imports nothing but ``sys`` and ``time`` before its clock starts,
so every standard-library module the engine pulls in, and the interpreter
has not loaded at start-up, counts toward the time.  It prints the seconds
taken.
"""

import sys
from time import perf_counter


def set_up(cli, paths):
    """Import the engine (already on ``sys.path``) and parse each scenario file; returns the tasks."""
    import ladderchoice

    if cli:
        import ladderchoice.cli  # noqa: F401
    tasks = []
    for path in paths:
        with open(path, encoding="utf-8") as source:
            tasks.append(ladderchoice.parse_scenario(source.read()))
    return tasks


if __name__ == "__main__":
    start = perf_counter()
    src, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    set_up("--cli" in rest, [arg for arg in rest if arg != "--cli"])
    print(perf_counter() - start)
