"""Stochastic crowd-worker model calibrated to measured interface accuracy.

The model is anchored on per-interface-size measurements: with k questions
per task a worker finds a true activity with probability r(k) and falsely
marks an absent one with probability f(k). f(k) is derived from measured
precision through the identity

    precision = r*g / (r*g + f*(Qtop - g))

where g is the expected number of positive questions per video. Repeated
annotation passes miss less and less, but real passes are not independent:
some (video, label) pairs are intrinsically hard for everyone. A
two-component difficulty mixture (hard fraction h, hard-recall multiplier)
reconciles single-pass anchors with measured multi-pass recall.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .costmodel import DEFAULT_TIME_MODEL  # noqa: F401 (re-exported)
from .seeding import draw_key, fold, id_key, id_keys, order, uniforms
from .taxonomy import Taxonomy

ELAPSED_SIGMA = 0.25
FEW_QUESTION_MAX = 7

# Reference calibration bundled with the package: accuracy and per-iteration
# minutes measured for the 1-question and 52-question interfaces.
DEFAULT_QTOP = 52
DEFAULT_PREVALENCE = 3.7
DEFAULT_MULTI_PASS_RECALL = ((3, 0.767), (5, 0.853))


@dataclass(frozen=True)
class AccuracyAnchor:
    """Measured single-iteration accuracy for a k-question interface."""

    k: int
    recall: float
    precision: float
    iteration_minutes: float

    def __post_init__(self):
        if not (0.0 <= self.recall <= 1.0 and 0.0 <= self.precision <= 1.0):
            raise ValueError(f"anchor k={self.k}: recall/precision must lie in [0, 1]")
        if self.iteration_minutes <= 0:
            raise ValueError(f"anchor k={self.k}: iteration_minutes must be positive")


DEFAULT_ANCHORS = (
    AccuracyAnchor(k=1, recall=0.563, precision=0.810, iteration_minutes=8.61),
    AccuracyAnchor(k=52, recall=0.450, precision=0.864, iteration_minutes=1.10),
)


@dataclass(frozen=True)
class ModifierSet:
    """Interface modifiers switched on for a task.

    Field order is the order effects multiply in and labels join in; each
    field's metadata holds its short label.
    """

    positive_bias: bool = field(default=False, metadata={"label": "bias"})
    grouping: bool = field(default=False, metadata={"label": "group"})
    summary_prompt: bool = field(default=False, metadata={"label": "summary"})
    forced_response: bool = field(default=False, metadata={"label": "forced"})

    @property
    def any(self) -> bool:
        return any(getattr(self, name) for name, _ in MODIFIERS)

    def label(self) -> str:
        names = [short for name, short in MODIFIERS if getattr(self, name)]
        return "+".join(names) if names else "none"


# The modifier registry: (ModifierSet field, short label), in field order.
MODIFIERS = tuple((f.name, f.metadata["label"]) for f in fields(ModifierSet))


@dataclass(frozen=True)
class ModifierEffect:
    recall_ratio: float
    precision_ratio: float
    time_ratio: float
    extra_seconds: float = 0.0


# A/B-measured effects, keyed by (modifier, regime). Regimes: interfaces with
# at most FEW_QUESTION_MAX questions are "few", the rest "many". The summary
# prompt costs a flat 36 s per iteration instead of scaling the time.
MODIFIER_EFFECTS = {
    ("positive_bias", "few"): ModifierEffect(57.9 / 53.2, 81.3 / 79.0, 3.6 / 4.6),
    ("grouping", "few"): ModifierEffect(67.2 / 70.4, 81.4 / 77.7, 5.1 / 5.9),
    ("grouping", "many"): ModifierEffect(55.2 / 62.0, 79.0 / 80.2, 1.4 / 1.6),
    ("summary_prompt", "many"): ModifierEffect(53.2 / 54.2, 88.3 / 87.1, 1.0, 36.0),
    ("forced_response", "many"): ModifierEffect(55.7 / 63.3, 84.6 / 88.8, 2.2 / 1.6),
}


def regime(k: int) -> str:
    return "few" if k <= FEW_QUESTION_MAX else "many"


def fp_rate_from_precision(recall: float, precision: float, prevalence: float, qtop: int) -> float:
    """Per-negative-question false-positive rate implied by measured precision."""
    if precision <= 0.0:
        raise ValueError("precision must be positive to derive a false-positive rate")
    if not 0 < prevalence < qtop:
        raise ValueError(f"prevalence must lie in (0, {qtop})")
    f = recall * prevalence * (1.0 - precision) / (precision * (qtop - prevalence))
    return min(1.0, f)


def easy_recall(r, hard_fraction, hard_multiplier):
    """Inflate r so the hard/easy mixture has marginal single-pass recall r.

    The arguments broadcast as numpy arrays; a mixture with no easy mass
    left (denominator <= 0) has easy recall 0.
    """
    denom = (1.0 - hard_fraction) + hard_fraction * hard_multiplier
    return np.minimum(1.0, r / np.where(denom > 0, denom, np.inf))


def mixture_union_recall(r, n: int, hard_fraction, hard_multiplier):
    """Expected recall after n union-aggregated passes at single-pass recall r.

    A fraction `hard_fraction` of positive pairs is found at a reduced rate;
    the easy-pair rate is inflated so the single-pass marginal stays r. r,
    `hard_fraction` and `hard_multiplier` broadcast as numpy arrays.
    """
    h = hard_fraction
    m = hard_multiplier
    r_easy = easy_recall(r, h, m)
    easy_term = (1.0 - h) * (1.0 - (1.0 - r_easy) ** n)
    hard_term = h * (1.0 - (1.0 - m * r_easy) ** n)
    return easy_term + hard_term


def _interp(points: tuple[tuple[int, float], ...], k: int) -> float:
    ks, vs = zip(*points)
    return float(np.interp(k, ks, vs))


@dataclass(frozen=True)
class WorkerBehavior:
    """Piecewise-linear accuracy curves plus the difficulty mixture."""

    recall_points: tuple[tuple[int, float], ...]
    fp_points: tuple[tuple[int, float], ...]
    prevalence: float = DEFAULT_PREVALENCE
    qtop: int = DEFAULT_QTOP
    hard_fraction: float = 0.0
    hard_recall_multiplier: float = 0.0
    observed_minutes: tuple[tuple[int, float], ...] = ()

    def recall(self, k: int) -> float:
        return _interp(self.recall_points, k)

    def fp_rate(self, k: int) -> float:
        return _interp(self.fp_points, k)

    def precision(self, k: int) -> float:
        r, f, g = self.recall(k), self.fp_rate(k), self.prevalence
        tp = r * g
        fp = f * (self.qtop - g)
        return tp / (tp + fp) if tp + fp > 0 else 1.0

    def observed_iteration_minutes(self, k: int) -> float | None:
        for anchor_k, minutes in self.observed_minutes:
            if anchor_k == k:
                return minutes
        return None

    @property
    def correlated(self) -> bool:
        return self.hard_fraction > 0.0


def calibrate(
    anchors,
    prevalence: float = DEFAULT_PREVALENCE,
    qtop: int = DEFAULT_QTOP,
) -> WorkerBehavior:
    """Build a worker model from measured per-interface accuracy anchors."""
    anchors = sorted(anchors, key=lambda a: a.k)
    if len(anchors) < 2 or len({a.k for a in anchors}) < 2:
        raise ValueError("need at least 2 anchors with distinct k")
    recall_points = tuple((a.k, a.recall) for a in anchors)
    fp_points = tuple(
        (a.k, fp_rate_from_precision(a.recall, a.precision, prevalence, qtop))
        for a in anchors
    )
    observed = tuple((a.k, a.iteration_minutes) for a in anchors)
    return WorkerBehavior(
        recall_points=recall_points,
        fp_points=fp_points,
        prevalence=prevalence,
        qtop=qtop,
        observed_minutes=observed,
    )


def default_behavior() -> WorkerBehavior:
    return calibrate(DEFAULT_ANCHORS)


HARD_FRACTION_GRID = np.arange(0.0, 0.3001, 0.0025)
HARD_MULTIPLIER_GRID = np.arange(0.0, 0.5001, 0.02)


def fit_hard_mixture(
    behavior: WorkerBehavior,
    k: int = DEFAULT_QTOP,
    targets=DEFAULT_MULTI_PASS_RECALL,
) -> WorkerBehavior:
    """Grid-search the difficulty mixture against measured multi-pass recall.

    Finds (hard_fraction, hard_recall_multiplier) minimizing squared error
    against the observed union recall at the given iteration counts, keeping
    the single-pass recall anchored at recall(k). The whole grid is scored
    at once, then walked in (h, m) order: the fit moves to each point whose
    error is more than 1e-15 below the current fit's.
    """
    r = behavior.recall(k)
    h, m = HARD_FRACTION_GRID[:, None], HARD_MULTIPLIER_GRID[None, :]
    sse = sum(
        ((mixture_union_recall(r, n, h, m) - target) ** 2 for n, target in targets),
        np.zeros((len(HARD_FRACTION_GRID), len(HARD_MULTIPLIER_GRID))),
    )
    errors, best, level = sse.ravel(), 0, np.inf
    while (lower := np.flatnonzero(errors[best:] < level - 1e-15)).size:
        best += lower[0]
        level = errors[best]
    i, j = np.unravel_index(best, sse.shape)
    return replace(
        behavior,
        hard_fraction=float(HARD_FRACTION_GRID[i]),
        hard_recall_multiplier=float(HARD_MULTIPLIER_GRID[j]),
    )


@dataclass(frozen=True)
class AdjustedBehavior:
    """Recall / false-positive rate / timing after interface modifiers."""

    recall: float
    fp_rate: float
    time_ratio: float
    extra_seconds: float


def apply_modifiers(
    behavior: WorkerBehavior, modifiers: ModifierSet, k: int
) -> AdjustedBehavior:
    """Fold A/B-measured modifier effects into the k-question operating point.

    With no modifier on, this is the calibrated point itself: recall(k),
    fp_rate(k), time ratio 1 and no extra seconds.
    """
    reg = regime(k)
    r, f = behavior.recall(k), behavior.fp_rate(k)
    time_ratio = 1.0
    extra_seconds = 0.0
    if not modifiers.any:
        return AdjustedBehavior(r, f, time_ratio, extra_seconds)
    p = behavior.precision(k)
    for name, _ in MODIFIERS:
        if not getattr(modifiers, name):
            continue
        effect = MODIFIER_EFFECTS.get((name, reg))
        if effect is None:
            raise ValueError(
                f"modifier {name!r} has no measured effect in the {reg}-question regime"
            )
        r *= effect.recall_ratio
        p *= effect.precision_ratio
        time_ratio *= effect.time_ratio
        extra_seconds += effect.extra_seconds
    r = min(1.0, r)
    p = min(1.0, p)
    f = fp_rate_from_precision(r, p, behavior.prevalence, behavior.qtop)
    return AdjustedBehavior(recall=r, fp_rate=f, time_ratio=time_ratio, extra_seconds=extra_seconds)


@dataclass(frozen=True)
class VideoTruth:
    """Ground truth for one video: its duration and positive labels."""

    video_id: str
    duration_seconds: float = 30.1
    labels: frozenset[int] = frozenset()


def _column(dtype):
    return field(metadata={"dtype": dtype})


@dataclass(frozen=True, eq=False)
class EventTable:
    """Annotation events as columns: one numpy array per field, one row per answer.

    `worker` and `video` index the `worker_ids` and `video_ids` vocabularies;
    `members` is the bitmask of the selected labels (`taxonomy.members_mask`);
    `gold` rows are positive-bias duplicates, which never vote. The columns
    are declared in CSV order.
    """

    worker_ids: tuple[str, ...]
    video_ids: tuple[str, ...]
    worker: np.ndarray = _column(np.int64)
    video: np.ndarray = _column(np.int64)
    question: np.ndarray = _column(np.int64)
    gate: np.ndarray = _column(bool)
    members: np.ndarray = _column(np.uint64)
    elapsed: np.ndarray = _column(np.float64)
    iteration: np.ndarray = _column(np.int64)
    gold: np.ndarray = _column(bool)

    def __post_init__(self):
        for f in EVENT_FIELDS:
            column = np.asarray(getattr(self, f.name), f.metadata["dtype"])
            object.__setattr__(self, f.name, column)
        if len({getattr(self, f.name).shape for f in EVENT_FIELDS}) > 1 or self.worker.ndim != 1:
            raise ValueError("event columns must be 1-D and of one length")

    def __len__(self) -> int:
        return len(self.worker)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return (self.worker_ids, self.video_ids) == (other.worker_ids, other.video_ids) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in EVENT_FIELDS
        )

    @classmethod
    def concat(cls, tables) -> "EventTable":
        """The rows of tables that share their vocabularies, in order; a lone table itself."""
        first, *rest = tables
        if not rest:
            return first
        if any((t.worker_ids, t.video_ids) != (first.worker_ids, first.video_ids) for t in rest):
            raise ValueError("event tables with different vocabularies cannot be concatenated")
        columns = (np.concatenate([getattr(t, f.name) for t in (first, *rest)])
                   for f in EVENT_FIELDS)
        return cls(first.worker_ids, first.video_ids, *columns)

EVENT_FIELDS = fields(EventTable)[2:]


@dataclass(frozen=True)
class Worker:
    worker_id: str
    recall_scale: float = 1.0
    time_scale: float = 1.0
    spammer: bool = False


SPAMMER_YES_RATE = 0.5
SPAMMER_TIME_SCALE = 0.2


def sample_worker_pool(
    n: int, behavior: WorkerBehavior, spammer_fraction: float, seed: int
) -> list[Worker]:
    """Honest workers w0000, w0001, ... with +/-10% recall jitter plus fast
    random-guess spammers.

    The spammer count is floor(n * fraction) or ceil(n * fraction), decided
    deterministically by the seed; the spammers are the first of a seeded
    shuffle of the ids, and each id draws its own jitter.
    """
    if n < 1:
        raise ValueError(f"a worker pool needs at least one worker, got {n}")
    if not 0.0 <= spammer_fraction <= 1.0:
        raise ValueError("spammer_fraction must lie in [0, 1]")
    ids = [f"w{i:04d}" for i in range(n)]
    quota = n * spammer_fraction
    n_spam = int(quota) + int(uniforms(draw_key(seed, "spam-quota"), 0)[0] < quota - int(quota))
    spammers = set(order(seed, ids, "spammers")[:n_spam].tolist())
    jitter = 1.0 + (uniforms(draw_key(seed, "jitter", id_keys(ids)), 0) * 0.2 - 0.1)
    return [
        Worker(w, spammer=True, time_scale=SPAMMER_TIME_SCALE) if i in spammers
        else Worker(w, recall_scale=float(jitter[i]))
        for i, w in enumerate(ids)
    ]


def hard_pairs(master_seed: int, video_ids, labels, hard_fraction: float) -> np.ndarray:
    """The shared hard set as a (videos x labels) boolean mask.

    A pair's draw depends only on the campaign seed and the pair, so every
    worker and every iteration sees the same difficulty (the correlation
    lives in the data, not the workers).
    """
    labels = np.asarray(labels, dtype=np.uint64)
    if hard_fraction <= 0.0:
        return np.zeros((len(video_ids), len(labels)), dtype=bool)
    keys = draw_key(master_seed, id_keys(video_ids), "hard-pair")
    return uniforms(keys[:, None], labels) < hard_fraction


def _select_members(probs: np.ndarray, u: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Member masks of affirmative multi-member gates, one per row.

    Row i's count[i] members are independent Bernoullis with probabilities
    probs[i] (0 past its members) and uniforms u[i], conditioned on a
    non-empty outcome by the exact sequential scheme: until the first pick,
    member j is taken with probability p_j / P(some member from j on), then
    with p_j.
    """
    none_later = 1.0 - np.cumprod(1.0 - probs[:, ::-1], axis=1)[:, ::-1]
    bit = np.arange(probs.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(none_later > 0, u < probs / none_later, bit == count[:, None] - 1)
    start = np.where(first.any(axis=1), first.argmax(axis=1), len(bit))[:, None]
    take = (bit == start) | ((bit > start) & (u < probs))
    return (take.astype(np.uint64) << bit.astype(np.uint64)).sum(axis=1)


def simulate_block(
    behavior: WorkerBehavior,
    tax: Taxonomy,
    modifiers: ModifierSet,
    seed: int,
    *,
    worker_ids,
    worker_keys: np.ndarray,
    recall_scale: np.ndarray,
    time_scale: np.ndarray,
    spammer: np.ndarray,
    video_ids,
    video_keys: np.ndarray,
    truth: np.ndarray,
    hard: np.ndarray,
    base_seconds: np.ndarray,
    per_question_seconds: float,
    worker: np.ndarray,
    video: np.ndarray,
    size: np.ndarray,
    subset_key: np.ndarray,
    lengths: np.ndarray,
    question: np.ndarray,
    gold: np.ndarray,
    iteration: int = 0,
) -> EventTable:
    """Simulate task i: worker row worker[i] answering a size[i]-question
    subset of `tax` about video row video[i].

    `worker_ids`, `worker_keys`, `recall_scale`, `time_scale` and `spammer`
    are indexed by worker row; `video_ids`, `video_keys`, `truth` and `hard`
    (the campaign's videos x labels truth matrix and hard-pair mask) and
    `base_seconds` (the time model's base, scaled to the video's duration) by
    video row. Task i's events are its lengths[i] consecutive slots:
    `question` holds each slot's position in tax.questions and `gold` flags
    gold duplicates, the other slots naming each question of the subset
    once. Each distinct size resolves its operating point once, in task
    order. Draws are keyed by (seed, worker, video, iteration, subset key,
    stream) and count question ids, member label ids or gold ordinals, so a
    task's events depend neither on the other tasks nor on its slot order.
    """
    if (size < 1).any():
        raise ValueError("a task needs at least one question")
    # The operating point of each distinct size, resolved in task order so
    # that the first subset without a measured effect is the one named.
    sizes, first = np.unique(size, return_index=True)
    points = np.zeros((4, size.max(initial=0) + 1))
    for k in sizes[np.argsort(first)].tolist():
        point = apply_modifiers(behavior, modifiers, k)
        points[:, k] = point.recall, point.fp_rate, point.time_ratio, point.extra_seconds
    recall, fp, time_ratio, extra = points
    hard_mult = behavior.hard_recall_multiplier

    def easy(at: np.ndarray) -> np.ndarray:
        """The easy-pair recall of tasks `at`, their workers' scales applied."""
        r = np.minimum(1.0, recall[size[at]] * recall_scale[worker[at]])
        return easy_recall(r, behavior.hard_fraction, hard_mult)

    spam = spammer[worker]
    task = draw_key(seed, worker_keys[worker], video_keys[video], iteration, subset_key)

    def stream(name: str, at=slice(None)) -> np.ndarray:
        return fold(task[at], id_key(name))

    # One entry per slot: its task, question id and member labels, and the
    # truth and hard flags of those labels. Past a question's members the
    # label is -1: it indexes the last label, and `valid` masks it out.
    owner = np.repeat(np.arange(len(worker)), lengths)
    slot_video = video[owner]
    qid = tax.question_ids[question]
    members = tax.member_table[question]
    valid = members >= 0
    is_true = truth[slot_video[:, None], members] & valid
    is_hard = hard[slot_video[:, None], members]
    del members

    # A positive question is hard when all of its positive members are. A
    # gold duplicate repeats a question known positive for the video; its
    # gate is drawn by its ordinal among the task's gold slots.
    positive = np.flatnonzero(is_true.any(axis=1))
    p_yes = fp[size][owner]
    p_yes[positive] = easy(owner[positive])
    all_hard = ~(is_true[positive] & ~is_hard[positive]).any(axis=1)
    p_yes[positive[all_hard]] *= hard_mult
    p_yes[spam[owner]] = SPAMMER_YES_RATE
    gate = uniforms(stream("gate")[owner], qid) < p_yes
    del p_yes
    at = owner[gold]
    ordinal = np.arange(len(at)) - np.searchsorted(at, at)
    p_gold = np.where(spam[at], SPAMMER_YES_RATE, easy(at))
    gate[gold] = uniforms(stream("gold", at), ordinal) < p_gold

    # A yes selects the first member (bit 0) of a gold duplicate or a
    # one-member question. On a multi-member question a spammer picks one
    # member at random and an honest worker runs `_select_members`.
    mask = gate.astype(np.uint64)
    multi = np.flatnonzero(gate & ~gold & valid[:, 1:].any(axis=1))
    if len(multi):
        at, n = owner[multi], valid[multi].sum(axis=1)
        spam_pick = (uniforms(stream("spam-pick", at), qid[multi]) * n).astype(np.uint64)
        rm = easy(at)[:, None]
        probs = np.where(is_true[multi], np.where(is_hard[multi], rm * hard_mult, rm),
                         fp[size[at]][:, None])
        probs *= valid[multi]
        u = uniforms(stream("members", at)[:, None], tax.member_table[question[multi]])
        picks = _select_members(probs, u, n)
        mask[multi] = np.where(spam[at], np.uint64(1) << spam_pick, picks)
    del valid, is_true, is_hard

    # Log-normal elapsed-time noise from a Box-Muller pair of uniforms, then
    # the task's expected seconds, the worker's speed and the modifiers'
    # time, applied in place in the order of the scalar formula.
    key = stream("elapsed")
    total = np.sqrt(-2.0 * np.log1p(-uniforms(key, 0)))
    total *= np.cos(2.0 * np.pi * uniforms(key, 1))
    total *= ELAPSED_SIGMA
    np.exp(total, out=total)
    total *= per_question_seconds * size + base_seconds[video]
    total *= time_scale[worker]
    total *= time_ratio[size]
    total += extra[size]
    total /= size
    elapsed = total[owner]
    slot_worker = worker[owner]
    del key, total, task, owner
    return EventTable(worker_ids, video_ids, slot_worker, slot_video, qid, gate, mask, elapsed,
                      np.full(len(qid), iteration), gold.copy())


def make_random_truth(
    n_videos: int,
    label_count: int,
    prevalence: float,
    seed: int,
    duration_seconds: float = 30.1,
    min_labels: int = 0,
) -> list[VideoTruth]:
    """Synthetic ground truth for videos v00000, v00001, ...: each label
    positive independently at rate g/N, by a uniform keyed by (seed, video,
    label).

    A video with fewer than `min_labels` positives takes the first
    `min_labels` labels of `order` over those same uniforms: its positives,
    then the labels that came closest to positive.
    """
    if not 0 < prevalence < label_count:
        raise ValueError("prevalence must lie in (0, label_count)")
    if min_labels > label_count:
        raise ValueError(f"min_labels {min_labels} exceeds label_count {label_count}")
    ids = [f"v{i:05d}" for i in range(n_videos)]
    keys = draw_key(seed, "truth", id_keys(ids)[:, None], id_keys(range(label_count)))
    truths = []
    for video_id, positive in zip(ids, uniforms(keys, 0) < prevalence / label_count):
        labels = np.flatnonzero(positive)
        if len(labels) < min_labels:
            labels = order(seed, range(label_count), "truth", video_id)[:min_labels]
        truths.append(VideoTruth(video_id, duration_seconds, frozenset(labels.tolist())))
    return truths


def load_truths(source) -> list[VideoTruth]:
    """Read ground truth from JSON lines.

    Each line is an object {"video": id, "duration": seconds, "labels":
    [ids]}; "duration" (default 30.1) and "labels" (default none) may be
    left out, and any other key is an error. The duration must be a finite
    and positive JSON number and the labels integers. A video id may appear
    on one line only and may not hold a carriage return, which an events CSV
    cannot carry unquoted.
    """
    truths, lines = [], {}
    with open(source, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("not a JSON object")
                unknown = [key for key in doc if key not in ("video", "duration", "labels")]
                if unknown:
                    raise ValueError(f"unknown key {unknown[0]!r}")
                if "video" not in doc:
                    raise ValueError("missing key 'video'")
                video_id = str(doc["video"])
                if "\r" in video_id:
                    raise ValueError(f"video id {video_id!r} holds a carriage return")
                if lines.setdefault(video_id, line_num) != line_num:
                    raise ValueError(f"video {video_id!r} repeats line {lines[video_id]}")
                duration = doc.get("duration", 30.1)
                if type(duration) not in (int, float):
                    raise ValueError(f"video {video_id!r}: duration must be a number, "
                                     f"got {duration!r}")
                duration = float(duration)
                if not 0 < duration < np.inf:
                    raise ValueError(f"video {video_id!r}: duration must be finite and "
                                     f"positive, got {duration}")
                labels = doc.get("labels", [])
                if not isinstance(labels, list) or any(type(l) is not int for l in labels):
                    raise ValueError(f"video {video_id!r}: labels must be an array of integers")
                truths.append(VideoTruth(video_id, duration, frozenset(labels)))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{source}: line {line_num}: {exc}") from exc
    return truths
