import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annocamp.cli import sample_taxonomy_path
from annocamp.costmodel import (
    DEFAULT_TIME_MODEL,
    HitBudget,
    TimeModel,
    TimingObservation,
    fit_time_model,
    iteration_time,
    read_timings_csv,
    scale_base_for_duration,
    subset_sizes,
    task_time,
    videos_per_hit,
)


def ols_oracle(qs, ys):
    """Closed-form simple OLS, independent of the fitting implementation."""
    q = np.asarray(qs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope = ((q - q.mean()) * (y - y.mean())).sum() / ((q - q.mean()) ** 2).sum()
    intercept = y.mean() - slope * q.mean()
    return intercept, slope


def line_obs(qs, a=14.1, b=1.15, noise=None):
    out = []
    for i, q in enumerate(qs):
        y = a + b * q
        if noise is not None:
            y *= 1.0 + noise[i]
        out.append(TimingObservation(questions=q, seconds=y))
    return out


def test_exact_line_recovery():
    obs = line_obs([1, 3, 5, 10, 26, 52])
    model = fit_time_model(obs)
    assert model.base_seconds == pytest.approx(14.1, abs=1e-10)
    assert model.per_question_seconds == pytest.approx(1.15, abs=1e-12)


def test_noisy_fit_matches_closed_form_oracle():
    rng = np.random.default_rng(1234)
    qs = [1 + (i % 52) for i in range(100)]
    noise = 0.1 * rng.standard_normal(100)
    obs = line_obs(qs, noise=noise)
    model = fit_time_model(obs)
    a_ref, b_ref = ols_oracle(qs, [o.seconds for o in obs])
    assert model.base_seconds == pytest.approx(a_ref, abs=1e-9)
    assert model.per_question_seconds == pytest.approx(b_ref, abs=1e-9)
    assert abs(model.base_seconds - 14.1) / 14.1 < 0.05
    assert abs(model.per_question_seconds - 1.15) / 1.15 < 0.05


def test_fit_then_evaluate_reproduces_noiseless_inputs():
    obs = line_obs([2, 4, 8, 16, 32])
    model = fit_time_model(obs)
    for o in obs:
        assert task_time(model, o.questions) == pytest.approx(o.seconds, abs=1e-9)


def test_fit_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_time_model([TimingObservation(5, 20.0)])
    with pytest.raises(ValueError):
        fit_time_model([TimingObservation(5, 20.0), TimingObservation(5, 21.0)])


def test_fit_rejects_negative_coefficients():
    obs = [TimingObservation(1, 100.0), TimingObservation(50, 5.0)]
    with pytest.raises(ValueError, match="negative"):
        fit_time_model(obs)


def scaled_obs(model, durations, qs=(1, 5, 13, 26, 52)):
    return [
        TimingObservation(q, task_time(scale_base_for_duration(model, d), q), d)
        for d in durations
        for q in qs
    ]


@pytest.mark.parametrize("a", [14.1, 20.0])
@pytest.mark.parametrize("durations", [(30.1,), (90.0,), (30.1, 90.0)])
def test_fit_uses_video_seconds(a, durations):
    model = fit_time_model(scaled_obs(TimeModel(a, 1.15), durations))
    assert model.base_seconds == pytest.approx(a, abs=1e-9)
    assert model.per_question_seconds == pytest.approx(1.15, abs=1e-9)


def test_fit_reference_length_matches_plain_ols():
    obs = read_timings_csv(sample_taxonomy_path().parent / "sample_timings.csv")
    assert {o.video_seconds for o in obs} == {30.1}
    b, a = np.polyfit([o.questions for o in obs], [o.seconds for o in obs], 1)
    model = fit_time_model(obs)
    assert (model.base_seconds, model.per_question_seconds) == (a, b)


def _profile_sse(obs, a):
    """Squared error at base a with the best per-question cost for it."""
    q = np.array([o.questions for o in obs], dtype=float)
    y = np.array([o.seconds for o in obs])
    base = np.array([scale_base_for_duration(TimeModel(a, 0.0), o.video_seconds).base_seconds
                     for o in obs])
    b = max(0.0, float(np.dot(q, y - base) / np.dot(q, q)))
    return float(np.sum((base + b * q - y) ** 2))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(1.0, 40.0),
    b=st.floats(0.1, 3.0),
    noise=st.lists(st.floats(-0.2, 0.2), min_size=15, max_size=15),
)
def test_fit_is_the_least_squares_optimum(a, b, noise):
    exact = scaled_obs(TimeModel(a, b), (10.0, 30.1, 90.0))
    obs = [
        TimingObservation(o.questions, o.seconds * (1.0 + e), o.video_seconds)
        for o, e in zip(exact, noise)
    ]
    try:
        model = fit_time_model(obs)
    except ValueError:  # the noise can pull the optimum below zero
        assume(False)
    fitted = _profile_sse(obs, model.base_seconds)
    assert fitted <= min(_profile_sse(obs, g) for g in np.linspace(0.0, 60.0, 601)) + 1e-9


def test_fit_on_the_kink():
    # The below-kink fit wants a=15.41 and the above-kink fit a=14.11, each
    # on the other's side, so the optimum is a = 30.1 / 2.
    obs = [
        TimingObservation(q, y, d)
        for q, y, d in ((1, 19.0, 10.0), (10, 8.0, 10.0), (1, 33.0, 90.0), (10, 79.0, 90.0))
    ]
    model = fit_time_model(obs)
    assert model.base_seconds == 15.05
    best = min(_profile_sse(obs, g) for g in np.linspace(0.0, 60.0, 6001))
    assert _profile_sse(obs, model.base_seconds) <= best + 1e-9


def test_task_time_values():
    assert task_time(DEFAULT_TIME_MODEL, 52) == pytest.approx(73.9)
    assert task_time(DEFAULT_TIME_MODEL, 1) == pytest.approx(15.25)
    assert task_time(TimeModel(0.0, 2.5), 1) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        task_time(DEFAULT_TIME_MODEL, 0)


def test_task_time_strictly_increasing():
    times = [task_time(DEFAULT_TIME_MODEL, q) for q in range(1, 53)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_iteration_time_values():
    assert iteration_time(DEFAULT_TIME_MODEL, 52, 52) == pytest.approx(73.9)
    assert iteration_time(DEFAULT_TIME_MODEL, 1, 52) == pytest.approx(793.0)
    assert iteration_time(DEFAULT_TIME_MODEL, 26, 52) == pytest.approx(88.0)
    with pytest.raises(ValueError):
        iteration_time(DEFAULT_TIME_MODEL, 0, 52)
    with pytest.raises(ValueError):
        iteration_time(DEFAULT_TIME_MODEL, 53, 52)


def test_iteration_time_non_increasing_in_k():
    times = [iteration_time(DEFAULT_TIME_MODEL, k, 52) for k in range(1, 53)]
    assert all(later <= earlier + 1e-9 for earlier, later in zip(times, times[1:]))


def test_subset_sizes():
    assert subset_sizes(52, 5) == [5] * 10 + [2]
    assert subset_sizes(52, 52) == [52]
    assert sum(subset_sizes(52, 7)) == 52


def test_videos_per_hit():
    budget = HitBudget()
    assert videos_per_hit(DEFAULT_TIME_MODEL, 5, budget) == 7  # floor(150 / 19.85)
    assert videos_per_hit(DEFAULT_TIME_MODEL, 52, budget) == 2  # floor(150 / 73.9)
    tiny = HitBudget(target_seconds=10.0)
    assert videos_per_hit(DEFAULT_TIME_MODEL, 52, tiny) == 1


@pytest.mark.parametrize("k", range(1, 53))
def test_packing_respects_target(k):
    budget = HitBudget()
    v = videos_per_hit(DEFAULT_TIME_MODEL, k, budget)
    per_video = task_time(DEFAULT_TIME_MODEL, k)
    if per_video <= budget.target_seconds:
        assert v * per_video <= budget.target_seconds
        assert v * per_video > budget.target_seconds - per_video


def test_scale_base_for_duration():
    # The reference base is below half the reference duration, so scaling
    # is purely proportional and exact at the reference point.
    assert scale_base_for_duration(DEFAULT_TIME_MODEL, 30.1).base_seconds == pytest.approx(14.1)
    assert scale_base_for_duration(DEFAULT_TIME_MODEL, 60.2).base_seconds == pytest.approx(28.2)
    assert scale_base_for_duration(DEFAULT_TIME_MODEL, 15.05).base_seconds == pytest.approx(7.05)
    # A base above half the reference keeps its fixed overhead unscaled.
    slow = TimeModel(20.0, 1.0)
    scaled = scale_base_for_duration(slow, 60.2)
    assert scaled.base_seconds == pytest.approx(4.95 + 15.05 * 2)
    assert scale_base_for_duration(slow, 30.1).base_seconds == pytest.approx(20.0)
    with pytest.raises(ValueError):
        scale_base_for_duration(DEFAULT_TIME_MODEL, 0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        TimeModel(-1.0, 1.0)
    with pytest.raises(ValueError):
        TimeModel(float("nan"), 1.0)
    with pytest.raises(ValueError):
        HitBudget(target_seconds=0.0)
    with pytest.raises(ValueError):
        TimingObservation(0, 10.0)
    with pytest.raises(ValueError):
        TimingObservation(1, -1.0)


def test_bundled_timings_fit_near_reference():
    path = sample_taxonomy_path().parent / "sample_timings.csv"
    obs = read_timings_csv(path)
    assert len(obs) >= 20
    model = fit_time_model(obs)
    assert abs(model.base_seconds - 14.1) / 14.1 < 0.10
    assert abs(model.per_question_seconds - 1.15) / 1.15 < 0.10


def test_read_timings_reports_bad_line(tmp_path):
    path = tmp_path / "timings.csv"
    path.write_text("questions,seconds,video_seconds\n5,abc,30.1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_timings_csv(path)
