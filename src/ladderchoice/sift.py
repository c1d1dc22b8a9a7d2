"""Sifting stage: screen every alternative against the basic-attribute thresholds.

An alternative survives iff it satisfies every threshold; each failure is
recorded as an audit entry.  One pass suffices because an alternative's fate
depends only on its own values, never on the rest of the field.

Thresholds use best-case endpoints, so an interval passes a bound whenever
some point of it does (:func:`satisfies_threshold`).  A verdict depends only
on the value, so :func:`psp` judges once per threshold per distinct value key
and looks every other cell up: O(n·t) lookups plus one judgement per distinct
(threshold, key) pair.  An audit entry is built only for a failing cell.
"""

from __future__ import annotations

from .model import OP_FAMILY, AttributeValue, DecisionTask, Elimination, SiftResult, Threshold, with_article


def satisfies_threshold(value: AttributeValue, threshold: Threshold) -> bool:
    """Whether a value meets an acceptance threshold.

    A threshold judges only values of its op's family in
    :data:`~ladderchoice.model.OP_FAMILY`; any other value is a contract
    error.  Bounds use best-case endpoints of ``value.key``: ``max`` and
    ``max_level`` test its lower end, ``min`` and ``min_level`` its upper end
    (an ordinal's level is both), and ``allowed`` its label.
    """
    op, key = threshold.op, value.key
    if key[0] != OP_FAMILY[op]:
        raise ValueError(f"{op} threshold cannot judge {with_article(value.kind)} value")
    if op == "max" or op == "max_level":
        return key[1] <= threshold.bound
    if op == "min" or op == "min_level":
        return key[-1] >= threshold.bound
    return key[1] in threshold.bound


def psp(task: DecisionTask) -> SiftResult:
    """Primary sifting pass: keep alternatives meeting all basic thresholds.

    Survivors keep their input order.  Eliminations list every failing
    (alternative, attribute, threshold, value) tuple, not just the first, so
    rejection reasons are fully auditable.
    """
    return sift_rows(task)[0]


def sift_rows(task: DecisionTask) -> tuple[SiftResult, list[dict]]:
    """:func:`psp`'s result, and the value maps of its feasible alternatives in the same order.

    Each survivor's row is the map the sift judged, so the ladder ranks it on
    those values, even where a hand-built task repeats its id.
    """
    # one verdict map per threshold, value key -> passes; it lives for this call only
    judged = [(t, t.attribute_id, {}) for t in task.thresholds]
    feasible: list[str] = []
    rows: list[dict] = []
    eliminations: list[Elimination] = []
    for alt in task.alternatives:
        values = alt.values
        before = len(eliminations)
        for t, aid, verdicts in judged:
            value = values[aid]
            verdict = verdicts.get(value.key)
            if verdict is None:
                verdict = verdicts[value.key] = satisfies_threshold(value, t)
            if not verdict:
                eliminations.append(Elimination(alt.id, aid, t, value))
        if len(eliminations) == before:
            feasible.append(alt.id)
            rows.append(values)
    return SiftResult(feasible=tuple(feasible), eliminations=tuple(eliminations)), rows
