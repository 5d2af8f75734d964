"""Budget-optimal planning, simulation and evaluation of multi-label
video annotation campaigns."""

from .costmodel import (
    DEFAULT_TIME_MODEL,
    HitBudget,
    TimeModel,
    TimingObservation,
    fit_time_model,
    iteration_time,
    scale_base_for_duration,
    task_time,
    videos_per_hit,
)
from .events import EventTable
from .evaluate import (
    LabelMatrix,
    Metrics,
    aggregate,
    metrics,
    truth_matrix,
)
from .planner import BudgetConstraint, Plan, enumerate_plans, optimize
from .taxonomy import (
    Label,
    QuestionGroup,
    Taxonomy,
    expand_answer,
    load_taxonomy,
    partition_questions,
    singleton_taxonomy,
)
from .workersim import (
    DEFAULT_ANCHORS,
    AccuracyAnchor,
    ModifierSet,
    VideoTruth,
    Worker,
    WorkerBehavior,
    apply_modifiers,
    calibrate,
    default_behavior,
    fit_hard_mixture,
    make_random_truth,
    mixture_union_recall,
    sample_worker_pool,
)

__version__ = "0.1.0"
