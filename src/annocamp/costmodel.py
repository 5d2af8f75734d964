"""Linear task-time model and HIT packing arithmetic.

Annotating one video with Q questions takes a + b*Q seconds: a fixed
video-watching overhead plus a per-question reading/answering cost. The
bundled default (a=14.1, b=1.15) was fitted on measured worker timings for
30.1-second videos played at double speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .output import read_records

REFERENCE_VIDEO_SECONDS = 30.1


@dataclass(frozen=True)
class TimeModel:
    base_seconds: float
    per_question_seconds: float

    def __post_init__(self):
        for name, value in (
            ("base_seconds", self.base_seconds),
            ("per_question_seconds", self.per_question_seconds),
        ):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def to_json(self) -> str:
        return json.dumps({"a": self.base_seconds, "b": self.per_question_seconds})


DEFAULT_TIME_MODEL = TimeModel(14.1, 1.15)


@dataclass(frozen=True)
class TimingObservation:
    questions: int
    seconds: float
    video_seconds: float = REFERENCE_VIDEO_SECONDS

    def __post_init__(self):
        if self.questions < 1:
            raise ValueError("questions must be >= 1")
        if self.seconds <= 0 or self.video_seconds <= 0:
            raise ValueError("seconds and video_seconds must be positive")


@dataclass(frozen=True)
class HitBudget:
    target_seconds: float = 150.0
    pay_per_hit: float = 0.40

    def __post_init__(self):
        if self.target_seconds <= 0:
            raise ValueError("target_seconds must be positive")


def fit_time_model(observations) -> TimeModel:
    """Least squares of task seconds on the model's own prediction.

    Q questions on a d-second video take task_time(scale_base_for_duration(
    TimeModel(a, b), d), Q) seconds: a*d/ref + b*Q for a <= ref/2 and
    a + (d - ref)/2 + b*Q above, linear in (a, b) on each side. The best of
    the consistent side fits and the fit on the kink a = ref/2 is kept.
    """
    obs = list(observations)
    if len(obs) < 2:
        raise ValueError("need at least 2 timing observations")
    q = np.array([o.questions for o in obs], dtype=float)
    y = np.array([o.seconds for o in obs], dtype=float)
    d = np.array([o.video_seconds for o in obs], dtype=float) / REFERENCE_VIDEO_SECONDS
    if np.unique(q).size < 2:
        raise ValueError("need at least 2 distinct question counts to fit a line")
    half = REFERENCE_VIDEO_SECONDS / 2.0
    kink = float(np.dot(q, y - half * d) / np.dot(q, q))
    fits = [(float(np.sum((half * d + kink * q - y) ** 2)), half, kink)]
    for below, x, target in ((True, d, y), (False, np.ones_like(d), y - (d - 1.0) * half)):
        # Columns scaled as np.polyfit scales them, so that reference-length
        # timings fit to the same bits as a plain line.
        lhs = np.column_stack([q, x])
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        b, a = np.linalg.lstsq(lhs / scale, target, rcond=len(q) * np.finfo(float).eps)[0] / scale
        if (a <= half) == below:
            fits.append((float(np.sum((x * a + q * b - target) ** 2)), a, b))
    _, intercept, slope = min(fits)
    if intercept < 0 or slope < 0:
        raise ValueError(
            f"fitted model has negative coefficients (a={intercept:.3f}, "
            f"b={slope:.3f}); timing data is inconsistent with the model"
        )
    return TimeModel(float(intercept), float(slope))


def task_time(model: TimeModel, questions: int) -> float:
    """Expected seconds to annotate one video with `questions` questions."""
    if questions < 1:
        raise ValueError("questions must be >= 1")
    return model.base_seconds + model.per_question_seconds * questions


def subset_sizes(qtop: int, k: int) -> list[int]:
    """Sizes of the ceil(qtop/k) subsets covering qtop questions."""
    if not 1 <= k <= qtop:
        raise ValueError(f"k must be in [1, {qtop}], got {k}")
    sizes = [k] * (qtop // k)
    if qtop % k:
        sizes.append(qtop % k)
    return sizes


def iteration_time(model: TimeModel, k: int, qtop: int) -> float:
    """Seconds for one complete pass over all qtop questions, k at a time."""
    return sum(task_time(model, size) for size in subset_sizes(qtop, k))


def videos_per_hit(model: TimeModel, k: int, budget: HitBudget) -> int:
    """How many k-question videos fit into one HIT's effort target."""
    per_video = task_time(model, k)
    return max(1, int(budget.target_seconds // per_video))


def scale_base_for_duration(model: TimeModel, video_seconds: float) -> TimeModel:
    """Rescale the watching overhead for videos of a different length.

    The fitted base folds double-speed watching of a reference-length video
    together with a fixed interaction overhead. The overhead is whatever the
    base exceeds half the reference duration by (clamped at zero); the watch
    component scales proportionally with duration.
    """
    if video_seconds <= 0:
        raise ValueError("video_seconds must be positive")
    overhead = max(0.0, model.base_seconds - REFERENCE_VIDEO_SECONDS / 2.0)
    watch = model.base_seconds - overhead
    scaled = overhead + watch * video_seconds / REFERENCE_VIDEO_SECONDS
    return TimeModel(scaled, model.per_question_seconds)


def read_timings_csv(source: str | Path) -> list[TimingObservation]:
    """Read observations from a `questions,seconds[,video_seconds]` CSV."""
    return read_records(
        source,
        ("questions", "seconds"),
        lambda row: TimingObservation(
            questions=int(row["questions"]),
            seconds=float(row["seconds"]),
            video_seconds=float(row.get("video_seconds") or REFERENCE_VIDEO_SECONDS),
        ),
    )
