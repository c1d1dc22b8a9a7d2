"""Baseline choosers: a prospect-theory proxy and an image-theory screen-and-rank.

Two fidelities of prospect theory live here.  The quantitative layer is the
standard value and weighting functions: :func:`pt_value`, a power value
function with loss aversion set by :class:`PtParams`, and :func:`pt_weight`,
an inverse-S probability weighting that takes its own curvature.  The
comparison harness never uses them.  The qualitative layer is
:func:`pt_proxy_choose`: under a gain frame a risk-averse chooser simply
minimizes a designated risk attribute across all alternatives, with no
sifting stage.

The image-theory chooser screens alternatives by counting basic-threshold
violations against a rejection budget, then ranks survivors on one
explicitly designated quantitative attribute.  It never auto-selects that
attribute: with no designation, or with tied/incomparable survivors, it
reports Undecidable.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

from .ladder import DominanceMode, decide_task, dominant_set
from .model import DecisionTask, Verdict
from .sift import psp


@dataclass(frozen=True)
class PtParams:
    """Curvature and loss-aversion parameters of :func:`pt_value`.

    Defaults are the conventional experimentally estimated constants
    (0.88, 0.88, 2.25); they are configuration, not results.
    """

    alpha: float = 0.88
    beta: float = 0.88
    loss_aversion: float = 2.25

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "loss_aversion"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.loss_aversion < 1:
            warnings.warn("loss_aversion below 1 models loss tolerance, not aversion", stacklevel=2)


def pt_value(x: float, params: PtParams = PtParams()) -> float:
    """Reference-dependent value: x^alpha on gains, -loss_aversion*(-x)^beta on losses."""
    if x >= 0:
        return x**params.alpha
    return -params.loss_aversion * (-x) ** params.beta


def pt_weight(prob: float, gamma: float) -> float:
    """Inverse-S probability weight p^g / (p^g + (1-p)^g)^(1/g); fixes 0 and 1."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability out of range: {prob}")
    if prob in (0.0, 1.0):
        return prob
    num = prob**gamma
    return num / (num + (1.0 - prob) ** gamma) ** (1.0 / gamma)


THEORIES = ("lt", "pt", "it")


@dataclass(frozen=True)
class TheoryRow:
    """One theory's prediction: its status, the chosen id when there is one, and why not otherwise."""

    theory: str
    status: str  # chosen | undecidable | inapplicable | abstain | repartition | no-unique-choice
    chosen: str | None = None
    detail: str = ""


def _check_risk_attribute(task: DecisionTask, risk_attribute_id: int) -> None:
    """Refuse a risk designation that is not an ordinal or numeric cost of the task."""
    if risk_attribute_id not in task.attribute_ids():
        raise ValueError(f"risk attribute {risk_attribute_id} is not part of the task")
    attr = task.attribute(risk_attribute_id)
    if attr.polarity != "cost":  # a categorical attribute's polarity is always "none"
        raise ValueError(f"risk attribute must be an ordinal or numeric cost, got attribute {attr.id} ({attr.kind}/{attr.polarity})")


def _check_profit_attribute(task: DecisionTask, profit_attribute_id: int) -> None:
    """Refuse a profitability designation that is not an attribute of the task."""
    if profit_attribute_id not in task.attribute_ids():
        raise ValueError(f"profitability attribute {profit_attribute_id} is not part of the task")


def _check_budget(rejection_budget: int) -> None:
    """Refuse a negative rejection budget."""
    if rejection_budget < 0:
        raise ValueError("rejection_budget must be >= 0")


def pt_proxy_choose(task: DecisionTask, risk_attribute_id: int) -> TheoryRow:
    """Risk-minimizing chooser: the unique best value on a designated risk attribute.

    The designated attribute must be an ordinal or numeric cost; the scan
    covers all alternatives, since this chooser has no sifting stage.  Ties
    or incomparable values yield Undecidable.
    """
    _check_risk_attribute(task, risk_attribute_id)
    if not task.alternatives:
        return TheoryRow("pt", "undecidable", detail="no alternatives")
    best = dominant_set([a.id for a in task.alternatives], {risk_attribute_id}, DominanceMode.GLOBAL, task)
    if not best:
        return TheoryRow("pt", "undecidable", detail=f"no alternative is strictly best on attribute {risk_attribute_id}")
    return TheoryRow("pt", "chosen", best[0])


def compatibility_screen(task: DecisionTask, rejection_budget: int = 0) -> tuple[str, ...]:
    """Ids of alternatives violating at most ``rejection_budget`` basic thresholds.

    Violations are counted from the sifting stage's eliminations, so a zero
    budget reproduces its feasible set exactly.
    """
    _check_budget(rejection_budget)
    violations = Counter(e.alternative_id for e in psp(task).eliminations)
    return tuple(alt.id for alt in task.alternatives if violations[alt.id] <= rejection_budget)


def it_choose(
    task: DecisionTask,
    profit_attribute_id: int | None = None,
    rejection_budget: int = 0,
) -> TheoryRow:
    """Compatibility screen plus single-criterion profitability ranking.

    Alternatives with more than ``rejection_budget`` basic-threshold
    violations are dropped (budget 0 reproduces the sifting stage's feasible
    set).  Among survivors, the unique best on the designated numeric
    attribute wins; without a designated quantitative criterion, or when
    survivors tie, the chooser is Undecidable.
    """
    if profit_attribute_id is not None:
        _check_profit_attribute(task, profit_attribute_id)
    survivors = compatibility_screen(task, rejection_budget)
    if not survivors:
        return TheoryRow("it", "undecidable", detail="no alternative passes the compatibility screen")
    if profit_attribute_id is None:
        return TheoryRow("it", "undecidable", detail="no single quantitative criterion designated")
    if task.attribute(profit_attribute_id).kind != "numeric":
        return TheoryRow("it", "undecidable", detail=f"attribute {profit_attribute_id} is not a quantitative criterion")
    best = dominant_set(survivors, {profit_attribute_id}, DominanceMode.GLOBAL, task)
    if not best:
        return TheoryRow("it", "undecidable", detail=f"no alternative is strictly best on attribute {profit_attribute_id}")
    return TheoryRow("it", "chosen", best[0])


_LT_STATUS = {
    Verdict.CHOSEN: "chosen",
    Verdict.ABSTAIN: "abstain",
    Verdict.REPARTITION: "repartition",
    Verdict.NO_UNIQUE_CHOICE: "no-unique-choice",
}


def compare_theories(
    task: DecisionTask,
    theories=THEORIES,
    pt_risk_attr: int | None = None,
    it_profit_attr: int | None = None,
    it_budget: int = 0,
    mode: DominanceMode = DominanceMode.GLOBAL,
) -> list[TheoryRow]:
    """Run the requested choosers on one task, one row per theory.

    The ladder engine always runs end to end.  The prospect proxy needs a
    designated risk attribute and is reported inapplicable without one; the
    image chooser runs its screen regardless and reports undecidable when no
    profitability criterion separates the survivors.  Before any chooser
    runs, the request is checked, first failure raising ``ValueError``: an
    empty, unknown or repeated theory list, then every designation given and
    the rejection budget, whether or not their theory is requested.
    """
    theories = tuple(theories)
    if not theories:
        raise ValueError("no theory requested")
    for theory in theories:
        if theory not in THEORIES:
            raise ValueError(f"unknown theory {theory!r} (expected {', '.join(THEORIES)})")
    for index, theory in enumerate(theories):
        if theory in theories[:index]:
            raise ValueError(f"theory {theory!r} requested twice")
    if pt_risk_attr is not None:
        _check_risk_attribute(task, pt_risk_attr)
    if it_profit_attr is not None:
        _check_profit_attribute(task, it_profit_attr)
    _check_budget(it_budget)
    rows: list[TheoryRow] = []
    for theory in theories:
        if theory == "lt":
            _, outcome = decide_task(task, mode)
            rows.append(TheoryRow("lt", _LT_STATUS[outcome.verdict], outcome.chosen))
        elif theory == "pt" and pt_risk_attr is None:
            rows.append(TheoryRow("pt", "inapplicable", detail="no risk attribute designated"))
        elif theory == "pt":
            rows.append(pt_proxy_choose(task, pt_risk_attr))
        else:
            rows.append(it_choose(task, it_profit_attr, it_budget))
    return rows
