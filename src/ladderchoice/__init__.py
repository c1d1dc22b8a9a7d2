"""Decision engine for discrete multi-attribute choice.

Alternatives are first sifted against basic-attribute thresholds, then a
ladder search filters the survivors by strict dominance over importance-
ranked attribute groups until exactly one remains.  Prospect-theory and
image-theory baseline choosers are included for side-by-side comparison.

The names below are the documented public API; everything else is reached
through its submodule (``ladderchoice.values``, ``ladderchoice.oracle``, ...).
"""

from .baselines import compare_theories
from .ladder import DominanceMode, decide_task, lsp
from .model import (
    Alternative,
    Attribute,
    DecisionTask,
    DominancePartition,
    Threshold,
    Verdict,
    at_least,
    category,
    crisp,
    interval,
    ordinal,
    validate_task,
)
from .scenario import (
    ScenarioError,
    outcome_to_json,
    parse_scenario,
    serialize_outcome,
    serialize_task,
)
from .sift import psp

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "Attribute",
    "DecisionTask",
    "DominanceMode",
    "DominancePartition",
    "ScenarioError",
    "Threshold",
    "Verdict",
    "at_least",
    "category",
    "compare_theories",
    "crisp",
    "decide_task",
    "interval",
    "lsp",
    "ordinal",
    "outcome_to_json",
    "parse_scenario",
    "psp",
    "serialize_outcome",
    "serialize_task",
    "validate_task",
]
