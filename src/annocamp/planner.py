"""Strategy search: questions-per-task, iteration count, and modifiers.

Enumerates candidate plans whose per-video time fits a budget, predicts
recall/precision for each from the calibrated worker model, and picks the
recall-maximizing plan subject to an optional precision floor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .costmodel import TimeModel, iteration_time
from .evaluate import union_precision
from .workersim import (
    ModifierSet,
    WorkerBehavior,
    apply_modifiers,
    mixture_union_recall,
    regime,
)

logger = logging.getLogger(__name__)

# Bundles of interface modifiers measured together per regime. The few-question
# bundle was found beneficial and is offered to the optimizer; the many-question
# bundle measured as harmful is enumerable but never optimized over.
FEW_QUESTION_BUNDLE = ModifierSet(positive_bias=True, grouping=True)
MANY_QUESTION_BUNDLE = ModifierSet(summary_prompt=True, forced_response=True)

NO_MODIFIERS = ModifierSet()


class InfeasiblePlanError(ValueError):
    """No plan satisfies the budget and precision constraints."""


@dataclass(frozen=True)
class BudgetConstraint:
    max_minutes_per_video: float
    min_precision: float | None = None

    def __post_init__(self):
        if self.max_minutes_per_video <= 0:
            raise ValueError("budget must be positive")
        if self.min_precision is not None and not 0.0 <= self.min_precision <= 1.0:
            raise ValueError("min_precision must lie in [0, 1]")


@dataclass(frozen=True)
class Plan:
    k: int
    iterations: int
    modifiers: ModifierSet
    predicted_recall: float
    predicted_precision: float
    minutes_per_video: float
    iteration_minutes: float
    source: str
    r_eff: float
    f_eff: float
    hard_fraction: float
    hard_recall_multiplier: float


def plan_iteration_minutes(
    behavior: WorkerBehavior,
    model: TimeModel,
    k: int,
    modifiers: ModifierSet = NO_MODIFIERS,
) -> float:
    """Minutes per complete pass at interface size k.

    Prefers the observed per-iteration time when the calibration measured
    one for this k; otherwise falls back to the fitted time model.
    """
    observed = behavior.observed_iteration_minutes(k)
    minutes = (
        observed
        if observed is not None
        else iteration_time(model, k, behavior.qtop) / 60.0
    )
    adjusted = apply_modifiers(behavior, modifiers, k)
    return minutes * adjusted.time_ratio + adjusted.extra_seconds / 60.0


def _predict(behavior: WorkerBehavior, k: int, n: int, modifiers: ModifierSet):
    adjusted = apply_modifiers(behavior, modifiers, k)
    r, f = adjusted.recall, adjusted.fp_rate
    recall = mixture_union_recall(
        r, n, behavior.hard_fraction, behavior.hard_recall_multiplier
    )
    precision = union_precision(recall, f, behavior.prevalence, behavior.qtop, n)
    return recall, precision, r, f


def _build_plan(behavior, model, k, n, modifiers) -> Plan:
    minutes = plan_iteration_minutes(behavior, model, k, modifiers)
    recall, precision, r, f = _predict(behavior, k, n, modifiers)
    return Plan(
        k=k,
        iterations=n,
        modifiers=modifiers,
        predicted_recall=recall,
        predicted_precision=precision,
        minutes_per_video=n * minutes,
        iteration_minutes=minutes,
        source="mixture" if behavior.correlated else "independence",
        r_eff=r,
        f_eff=f,
        hard_fraction=behavior.hard_fraction,
        hard_recall_multiplier=behavior.hard_recall_multiplier,
    )


def modifier_options(k: int, beneficial_only: bool = False) -> list[ModifierSet]:
    """Modifier sets considered at interface size k: the bundle on or off."""
    if regime(k) == "few":
        return [NO_MODIFIERS, FEW_QUESTION_BUNDLE]
    if beneficial_only:
        return [NO_MODIFIERS]
    return [NO_MODIFIERS, MANY_QUESTION_BUNDLE]


def enumerate_plans(
    behavior: WorkerBehavior,
    model: TimeModel,
    constraint: BudgetConstraint,
    k_values,
    max_n: int | None = None,
    beneficial_only: bool = False,
) -> list[Plan]:
    """All (k, n, modifiers) combinations whose time fits the budget, with at
    most `max_n` passes (None: as many as the budget buys)."""
    k_values = list(k_values)
    if not k_values or (max_n is not None and max_n < 1):
        raise ValueError("need at least one k value and max_n >= 1")
    budget = constraint.max_minutes_per_video
    plans = []
    for k in k_values:
        for modifiers in modifier_options(k, beneficial_only):
            minutes = plan_iteration_minutes(behavior, model, k, modifiers)
            top = int(budget / minutes + 1e-9)
            if max_n is not None:
                top = min(max_n, top)
            for n in range(1, top + 1):
                plans.append(_build_plan(behavior, model, k, n, modifiers))
    if not plans:
        logger.warning(
            "budget of %.3g minutes/video is below every single-iteration time; "
            "no feasible plans",
            budget,
        )
    return plans


def optimize(
    behavior: WorkerBehavior,
    model: TimeModel,
    constraint: BudgetConstraint,
    k_values=None,
    max_n: int | None = None,
) -> Plan:
    """Recall-maximizing plan within the budget and precision floor.

    Only interface sizes with measured accuracy (the calibration anchors)
    are searched by default; interpolated sizes can be forced via k_values.
    Ties break toward lower minutes, then higher precision, then larger k.
    """
    if k_values is None:
        k_values = [k for k, _ in behavior.recall_points]
    plans = enumerate_plans(
        behavior, model, constraint, k_values, max_n, beneficial_only=True
    )
    if constraint.min_precision is not None:
        plans = [p for p in plans if p.predicted_precision >= constraint.min_precision]
    if not plans:
        raise InfeasiblePlanError(
            f"no plan fits {constraint.max_minutes_per_video} minutes/video"
            + (
                f" at precision >= {constraint.min_precision}"
                if constraint.min_precision is not None
                else ""
            )
        )
    return max(
        plans,
        key=lambda p: (
            p.predicted_recall,
            -p.minutes_per_video,
            p.predicted_precision,
            p.k,
        ),
    )
