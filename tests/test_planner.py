import dataclasses
import logging

import pytest

from annocamp.costmodel import DEFAULT_TIME_MODEL, TimeModel, iteration_time
from annocamp.planner import (
    FEW_QUESTION_BUNDLE,
    NO_MODIFIERS,
    BudgetConstraint,
    InfeasiblePlanError,
    enumerate_plans,
    modifier_options,
    optimize,
    plan_iteration_minutes,
)
from annocamp.workersim import default_behavior, fit_hard_mixture


@pytest.fixture(scope="module")
def behavior():
    return fit_hard_mixture(default_behavior())


@pytest.fixture(scope="module")
def independent():
    return default_behavior()


def test_iteration_minutes_prefers_observed(behavior):
    assert plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, 52) == pytest.approx(1.10)
    assert plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, 1) == pytest.approx(8.61)
    # No observation at k=26: fall back to the fitted time model.
    assert plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, 26) == pytest.approx(
        iteration_time(DEFAULT_TIME_MODEL, 26, 52) / 60.0
    )


def test_iteration_minutes_folds_modifiers(behavior):
    minutes = plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, 1, FEW_QUESTION_BUNDLE)
    assert minutes == pytest.approx(8.61 * (3.6 / 4.6) * (5.1 / 5.9))


def test_enumerate_reference_budget(behavior):
    constraint = BudgetConstraint(max_minutes_per_video=8.61)
    plans = enumerate_plans(behavior, DEFAULT_TIME_MODEL, constraint, [1, 52], max_n=10)
    max_n_52 = max(p.iterations for p in plans if p.k == 52 and not p.modifiers.any)
    assert max_n_52 == 7  # floor(8.61 / 1.10)
    # Below the cap, max_n=None (as many passes as the budget buys) agrees.
    assert enumerate_plans(behavior, DEFAULT_TIME_MODEL, constraint, [1, 52]) == plans
    k1 = [p for p in plans if p.k == 1]
    assert {p.iterations for p in k1} == {1}


def test_enumerate_empty_when_budget_too_small(behavior, caplog):
    constraint = BudgetConstraint(max_minutes_per_video=0.5)
    with caplog.at_level(logging.WARNING):
        plans = enumerate_plans(behavior, DEFAULT_TIME_MODEL, constraint, [1, 52], max_n=5)
    assert plans == []
    assert "no feasible plans" in caplog.text


def test_enumerate_modifier_grid_counts(behavior):
    constraint = BudgetConstraint(max_minutes_per_video=30.0)
    plans = enumerate_plans(behavior, DEFAULT_TIME_MODEL, constraint, [52], max_n=1)
    assert len(plans) == 2  # modifier bundle off and on
    labels = {p.modifiers.label() for p in plans}
    assert labels == {"none", "summary+forced"}


def test_modifier_options_regimes():
    assert modifier_options(3) == [NO_MODIFIERS, FEW_QUESTION_BUNDLE]
    assert modifier_options(26, beneficial_only=True) == [NO_MODIFIERS]
    assert len(modifier_options(26)) == 2


def test_plan_minutes_invariant(behavior):
    constraint = BudgetConstraint(max_minutes_per_video=9.0)
    for plan in enumerate_plans(behavior, DEFAULT_TIME_MODEL, constraint, [1, 52], 8):
        assert plan.minutes_per_video == pytest.approx(
            plan.iterations * plan.iteration_minutes
        )
        assert 0.0 <= plan.predicted_recall <= 1.0
        assert 0.0 <= plan.predicted_precision <= 1.0


def test_optimize_prefers_many_questions_with_precision_floor(behavior):
    constraint = BudgetConstraint(max_minutes_per_video=7.1, min_precision=0.80)
    plan = optimize(behavior, DEFAULT_TIME_MODEL, constraint)
    assert plan.k == 52
    assert plan.predicted_precision >= 0.80
    k1 = enumerate_plans(
        behavior,
        DEFAULT_TIME_MODEL,
        BudgetConstraint(max_minutes_per_video=7.1),
        [1],
        max_n=5,
    )
    assert plan.predicted_recall > max(p.predicted_recall for p in k1)


def test_optimize_single_feasible_plan(behavior):
    constraint = BudgetConstraint(max_minutes_per_video=8.61)
    plan = optimize(behavior, DEFAULT_TIME_MODEL, constraint, k_values=[1], max_n=1)
    assert plan.k == 1
    assert plan.iterations == 1


def test_optimize_infeasible_precision_floor(behavior):
    constraint = BudgetConstraint(max_minutes_per_video=7.1, min_precision=0.99)
    with pytest.raises(InfeasiblePlanError):
        optimize(behavior, DEFAULT_TIME_MODEL, constraint)


def test_optimize_infeasible_budget(behavior):
    with pytest.raises(InfeasiblePlanError):
        optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(max_minutes_per_video=0.2))


def test_optimize_budget_monotonicity(behavior):
    budgets = [1.2, 2.0, 3.5, 5.0, 7.1, 10.0, 15.0]
    recalls = [
        optimize(
            behavior, DEFAULT_TIME_MODEL, BudgetConstraint(max_minutes_per_video=b)
        ).predicted_recall
        for b in budgets
    ]
    assert all(later >= earlier for earlier, later in zip(recalls, recalls[1:]))


def test_optimize_dominance_over_budgets(behavior):
    # Whenever at least one full many-question pass fits, it wins.
    for budget in (1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 60.0):
        plan = optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(budget))
        assert plan.k == 52, f"budget {budget} chose k={plan.k}"


def test_optimize_time_scale_invariance(behavior):
    base = optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(7.1))
    for c in (0.25, 3.0):
        scaled_behavior = dataclasses.replace(
            behavior,
            observed_minutes=tuple((k, m * c) for k, m in behavior.observed_minutes),
        )
        scaled_model = TimeModel(
            DEFAULT_TIME_MODEL.base_seconds * c,
            DEFAULT_TIME_MODEL.per_question_seconds * c,
        )
        scaled = optimize(scaled_behavior, scaled_model, BudgetConstraint(7.1 * c))
        assert (scaled.k, scaled.iterations, scaled.modifiers) == (
            base.k,
            base.iterations,
            base.modifiers,
        )


def test_chosen_plan_agrees_with_simulation(behavior):
    # The optimizer's prediction must hold up in a Monte Carlo run of the
    # plan it chose (3 binomial standard errors at this corpus size).
    import math

    import numpy as np

    from annocamp.campaign import simulate_campaign
    from annocamp.evaluate import aggregate, metrics, truth_matrix
    from annocamp.taxonomy import singleton_taxonomy
    from annocamp.workersim import make_random_truth

    plan = optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(4.0))
    tax = singleton_taxonomy(behavior.qtop)
    truths = make_random_truth(4000, behavior.qtop, behavior.prevalence, seed=88)
    truth = truth_matrix(truths, behavior.qtop)
    video_ids = tuple(sorted(t.video_id for t in truths))
    votes = np.zeros((4000, behavior.qtop), dtype=np.int16)
    for events in simulate_campaign(
        tax, truths, plan.k, plan.iterations, behavior, seed=89, modifiers=plan.modifiers
    ):
        votes += aggregate(events, tax, video_ids=video_ids).votes
    binary = votes >= 1
    scored = metrics(binary, truth)
    se_r = math.sqrt(plan.predicted_recall * (1 - plan.predicted_recall) / truth.sum())
    se_p = math.sqrt(
        plan.predicted_precision * (1 - plan.predicted_precision) / binary.sum()
    )
    assert abs(scored.recall - plan.predicted_recall) <= 3 * se_r
    assert abs(scored.precision - plan.predicted_precision) <= 3 * se_p


def test_constraint_validation():
    with pytest.raises(ValueError):
        BudgetConstraint(max_minutes_per_video=0.0)
    with pytest.raises(ValueError):
        BudgetConstraint(max_minutes_per_video=1.0, min_precision=1.5)


def test_plan_records_prediction_source(behavior, independent):
    plan_mix = optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(4.0))
    plan_ind = optimize(independent, DEFAULT_TIME_MODEL, BudgetConstraint(4.0))
    assert plan_mix.source == "mixture"
    assert plan_ind.source == "independence"
    # Independence predicts more recall from the same iterations.
    assert plan_ind.predicted_recall > plan_mix.predicted_recall
