"""Monte Carlo harness for the sequential and fixed-length classifiers.

Every trial draws fresh training sequences and its own test stream.  Trial
``t`` of an ``M``-class experiment owns ``M + 1`` Philox streams, keyed by
``(master_seed, t * (M + 1) + role)`` with roles ``0 .. M-1`` for the
training sequences and role ``M`` for the test stream.  Outcomes therefore
depend only on the configuration, never on scheduling: ``estimate`` reduces
per-trial outcomes in trial-index order and returns identical reports for
any worker count.

Trials run in batches of ``BLOCK_TRIALS`` and are scored by the count
kernel of :mod:`seqstat.classifiers`: the sequential test in lockstep,
pulling each batch's test streams block by block, and the fixed-length test
as one block at the single prefix ``n_test``.  A batch's outcome is a set of
arrays: stopping times, verdict codes (class index, or -1 for no decision or
reject) and first crossings.  ``estimate`` keeps only the times and codes,
concatenated in trial order (workers return them as arrays too), and reduces
them with exact integer sums; no per-trial object is built.
:class:`~seqstat.classifiers.TrialTrace` and its verdict are built only for
``run_trial`` (a recorded batch of one) and ``seqstat simulate
--trace-dir`` (recorded batches of ``BLOCK_TRIALS``).  ``estimate`` and
``exponent_probe`` start at most one worker pool per call and feed it the
trial blocks of every hypothesis or training length.
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classifiers import (
    BLOCK_ENTRIES,
    GutmanConfig,
    SequentialConfig,
    TrialTrace,
    Verdict,
    _block_scores,
    _fixed_length_codes,
    _lockstep,
    _phi_array,
    _verdict,
    gutman_binary,  # noqa: F401  (wrapped by name in bench/spans.py)
    gutman_multiclass,  # noqa: F401  (wrapped by name in bench/spans.py)
)
from .divergence import gjs  # noqa: F401  (wrapped by name in bench/spans.py)
from .exponents import bayes_multiclass_gutman, gutman_bayes_exponent
from .errors import (
    AlphabetMismatch,
    InsufficientErrors,
    NoSolution,
    SizeMismatch,
    ValidationError,
)
from .fixedpoint import solve_fixed_point
from .probability import (
    Distribution,
    SeedSpec,
    _check_index,
    _check_real,
    bit_generator,  # noqa: F401  (wrapped by name in bench/spans.py)
    sample_indices,  # noqa: F401  (wrapped by name in bench/spans.py)
    stream_indices,
)

# Trials run in batches of this size.
BLOCK_TRIALS = 128
# Two-sided normal quantile used for the 95% confidence half-widths.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte Carlo experiment."""

    distributions: tuple[Distribution, ...]
    gamma: float
    train_len: int
    trials: int
    master_seed: int
    true_class: int | None = None
    cap: int | None = None
    priors: tuple[float, ...] | None = None
    test_kind: str = "sequential"
    n_test: int | None = None
    gutman_lambda: float | None = None
    gutman_mode: str = "raw"

    def __post_init__(self) -> None:
        m = len(self.distributions)
        if m < 2:
            raise SizeMismatch("an experiment needs at least two distributions")
        alphabet = self.distributions[0].alphabet
        for d in self.distributions[1:]:
            if d.alphabet != alphabet:
                raise AlphabetMismatch("experiment distributions share one alphabet")
        for name in ("train_len", "cap", "trials", "n_test", "true_class"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _check_index(value, SizeMismatch, name))
        if self.trials < 1:
            raise SizeMismatch(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)
        if self.true_class is not None and not (0 <= self.true_class < m):
            raise SizeMismatch(f"true_class {self.true_class} out of range")
        if self.priors is not None:
            if len(self.priors) != m:
                raise SizeMismatch("one prior per distribution")
            priors = tuple(_check_real(p, ValidationError, "prior") for p in self.priors)
            if not all(p >= 0 for p in priors):
                raise ValidationError(f"priors must be nonnegative numbers, got {self.priors}")
            if abs(math.fsum(priors) - 1.0) > 1e-9:
                raise ValidationError("priors must sum to 1")
            object.__setattr__(self, "priors", priors)
        if self.test_kind not in ("sequential", "gutman"):
            raise ValidationError(f"unknown test kind {self.test_kind!r}")
        if self.test_kind == "gutman":
            if self.n_test is None or self.n_test < 1:
                raise SizeMismatch("a fixed-length run needs n_test >= 1")
            if self.gutman_lambda is None:
                raise ValidationError("a fixed-length run needs a threshold")
        # constructing the configs validates gamma / train_len / cap, and
        # the fixed-length threshold and mode
        self.sequential_config()
        if self.test_kind == "gutman":
            self.gutman_config()

    def sequential_config(self) -> SequentialConfig:
        return SequentialConfig(self.gamma, self.train_len, self.cap)

    def gutman_config(self) -> GutmanConfig:
        """Fixed-length test parameters at ``alpha = train_len / n_test``."""
        return GutmanConfig(self.train_len / self.n_test, self.gutman_lambda, self.gutman_mode)

    @property
    def num_classes(self) -> int:
        return len(self.distributions)

    @property
    def effective_cap(self) -> int:
        return self.sequential_config().cap

    @property
    def effective_priors(self) -> tuple[float, ...]:
        if self.priors is not None:
            return self.priors
        m = self.num_classes
        return tuple(1.0 / m for _ in range(m))


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregate outcome of all trials under one true class."""

    hypothesis: int
    trials: int
    errors: int
    nodecisions: int
    error_rate: float
    error_half_width: float
    mean_T: float
    stddev_T: float
    mean_T_half_width: float
    min_T: int
    max_T: int
    predicted_mean_T: float
    nodecision_rate: float


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple[HypothesisReport, ...]
    bayes_error_rate: float | None
    master_seed: int
    wall_time: float


@dataclass(frozen=True)
class ProbeRow:
    train_len: int
    trials: int
    errors: int
    error_rate: float
    mean_T: float
    exponent_per_sample: float
    exponent_per_train: float
    usable: bool


@dataclass(frozen=True)
class ProbeReport:
    """Error decay against training length, with a regression slope."""

    rows: tuple[ProbeRow, ...]
    slope: float


def _stream_counts(
    dist: Distribution, master_seed: int, streams: Sequence[int], length: int
) -> np.ndarray:
    """Symbol counts ``(len(streams), K)`` of the first ``length`` draws of each stream."""
    k = dist.alphabet.size
    out = np.empty((len(streams), k), dtype=np.int64)
    # at most BLOCK_ENTRIES symbols are drawn at once, whatever the batch and length
    rows = max(1, BLOCK_ENTRIES // length)
    for lo in range(0, len(streams), rows):
        idx = stream_indices(dist, master_seed, streams[lo : lo + rows], 0, length)
        for x in range(k):
            out[lo : lo + rows, x] = np.count_nonzero(idx == x, axis=1)
    return out


def _training_counts(cfg: ExperimentConfig, indices: Sequence[int]) -> np.ndarray:
    """Training counts ``(B, M, K)`` of the trials ``indices``, from their role streams."""
    m = cfg.num_classes
    per_role = [
        _stream_counts(dist, cfg.master_seed, [t * (m + 1) + role for t in indices], cfg.train_len)
        for role, dist in enumerate(cfg.distributions)
    ]
    return np.stack(per_role, axis=1)


# A batch's outcome: stopping times (B,), verdict codes (B,) (class index, or
# -1 for no decision or reject), first crossings (B, M) (0 where a class had
# not crossed by the stopping time) and, when recorded, each trial's score
# rows.
Outcome = tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray] | None]


def _sequential_trials(cfg: ExperimentConfig, indices: Sequence[int], record: bool) -> Outcome:
    """Sequential test on the trials ``indices``, run as one lockstep batch."""
    m = cfg.num_classes
    train = _training_counts(cfg, indices)
    streams = [t * (m + 1) + m for t in indices]
    source = cfg.distributions[cfg.true_class]

    def draw(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
        keys = [streams[r] for r in rows.tolist()]
        return stream_indices(source, cfg.master_seed, keys, start, stop)

    rule = "smaller" if m == 2 else "none"
    return _lockstep(train, cfg.sequential_config(), rule, draw, record)


def _fixed_length_trials(cfg: ExperimentConfig, indices: Sequence[int], record: bool) -> Outcome:
    """Fixed-length test on the trials ``indices``, scored as one batch.

    A trace's one row holds each class's ``gjs(T_train, T_test, N / n)``:
    its score at the single prefix ``n_test``, divided by ``n_test``.
    """
    m = cfg.num_classes
    big_n = cfg.train_len
    n_test = cfg.n_test
    train = _training_counts(cfg, indices)
    streams = [t * (m + 1) + m for t in indices]
    test = _stream_counts(cfg.distributions[cfg.true_class], cfg.master_seed, streams, n_test)
    phi_train = _phi_array(train.transpose(2, 0, 1), big_n, big_n)
    scores = _block_scores(train, phi_train, test.T[:, :, None], np.array([n_test]), big_n)
    values = scores[:, :, 0] / n_test
    threshold = cfg.gutman_config().raw_threshold
    codes = _fixed_length_codes(values, threshold, binary=m == 2)
    times = np.full(len(values), n_test, dtype=np.int64)
    firsts = np.where(values > threshold, n_test, 0)
    return times, codes, firsts, list(values[:, None]) if record else None


def _trials(cfg: ExperimentConfig, indices: Sequence[int], record: bool) -> Outcome:
    """The configured test on the trials ``indices``, run as one batch."""
    if cfg.test_kind == "gutman":
        return _fixed_length_trials(cfg, indices, record)
    return _sequential_trials(cfg, indices, record)


def _traced_trials(cfg: ExperimentConfig, indices: Sequence[int]) -> list[TrialTrace]:
    """Full traces of the trials ``indices``, run as one recorded batch."""
    times, codes, firsts, rows = _trials(cfg, indices, record=True)
    fail = Verdict.rejected() if cfg.test_kind == "gutman" else Verdict.undecided()
    return [
        TrialTrace(r, t, _verdict(c, fail), tuple(f or None for f in fs))
        for r, t, c, fs in zip(rows, times.tolist(), codes.tolist(), firsts.tolist())
    ]


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialTrace:
    """Run one fully traced trial; deterministic in ``(config, index)``."""
    if cfg.true_class is None:
        raise ValidationError("run_trial needs a configured true class")
    trial_index = _check_index(trial_index, ValidationError, "trial index")
    if trial_index < 0:
        raise ValidationError(f"trial index must be >= 0, got {trial_index}")
    return _traced_trials(cfg, [trial_index])[0]


def _summaries_serial(cfg: ExperimentConfig, indices: range) -> tuple[np.ndarray, np.ndarray]:
    """Stopping times and verdict codes of the trials ``indices``, in trial order."""
    parts = [
        _trials(cfg, range(lo, min(lo + BLOCK_TRIALS, indices.stop)), record=False)
        for lo in range(indices.start, indices.stop, BLOCK_TRIALS)
    ]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _summary_batch(args) -> tuple[np.ndarray, np.ndarray]:
    cfg, start, stop = args
    return _summaries_serial(cfg, range(start, stop))


def _collect_summaries(
    configs: list[ExperimentConfig], workers: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stopping times and verdict codes of each configuration, in trial order.

    All configurations share one trial count; with a worker pool their trial
    spans go to the same pool, and the results come back in submission
    order.  A span is about a quarter of a worker's share, rounded up to
    whole ``BLOCK_TRIALS`` batches, so only a configuration's last span runs
    a partial batch.
    """
    workers = _check_index(workers, ValidationError, "workers")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    trials = configs[0].trials if configs else 0
    if workers == 1 or trials < 4 * workers:
        return [_summaries_serial(cfg, range(trials)) for cfg in configs]
    block = BLOCK_TRIALS * -(-trials // (workers * 4 * BLOCK_TRIALS))
    starts = range(0, trials, block)
    spans = [(cfg, start, min(start + block, trials)) for cfg in configs for start in starts]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        batches = list(pool.map(_summary_batch, spans))
    out = []
    for c in range(len(configs)):
        mine = batches[c * len(starts) : (c + 1) * len(starts)]
        out.append((np.concatenate([b[0] for b in mine]), np.concatenate([b[1] for b in mine])))
    return out


def _predicted_mean_t(cfg: ExperimentConfig, hypothesis: int) -> float:
    if cfg.test_kind == "gutman":
        return float(cfg.n_test)
    # the test waits for every competitor score to cross, so the
    # smallest root (the slowest crossing) sets the expected length
    slowest = math.inf
    source = cfg.distributions[hypothesis]
    for j, other in enumerate(cfg.distributions):
        if j == hypothesis:
            continue
        try:
            root = solve_fixed_point(other, source, cfg.gamma).theta_star
        except NoSolution:
            continue
        slowest = min(slowest, root)
    return cfg.train_len / slowest if math.isfinite(slowest) else math.nan


def _aggregate(
    cfg: ExperimentConfig, hypothesis: int, times: np.ndarray, codes: np.ndarray,
    predict: bool = True,
) -> HypothesisReport:
    """Report of one hypothesis from its trials' stopping times and verdict codes.

    Counts and sums are exact Python integers, whatever the size of ``T``.
    Without ``predict`` the predicted mean length is NaN and no root is solved.
    """
    trials = len(times)
    errors = int(np.count_nonzero(codes != hypothesis))
    nodecisions = int(np.count_nonzero(codes < 0))
    stopping = times.tolist()
    total_t = sum(stopping)
    total_t_sq = sum(map(operator.mul, stopping, stopping))
    rate = errors / trials
    mean_t = total_t / trials
    if trials > 1:
        variance = max(0.0, (total_t_sq - trials * mean_t * mean_t) / (trials - 1))
    else:
        variance = 0.0
    stddev = math.sqrt(variance)
    return HypothesisReport(
        hypothesis=hypothesis,
        trials=trials,
        errors=errors,
        nodecisions=nodecisions,
        error_rate=rate,
        error_half_width=_Z95 * math.sqrt(rate * (1.0 - rate) / trials),
        mean_T=mean_t,
        stddev_T=stddev,
        mean_T_half_width=_Z95 * stddev / math.sqrt(trials),
        min_T=min(stopping),
        max_T=max(stopping),
        predicted_mean_T=_predicted_mean_t(cfg, hypothesis) if predict else math.nan,
        nodecision_rate=nodecisions / trials,
    )


def estimate(cfg: ExperimentConfig, workers: int = 1) -> SimulationReport:
    """Estimate error rates and stopping times over all configured trials.

    With ``true_class`` unset, every hypothesis is swept with the same trial
    budget and the prior-weighted error rate is reported alongside.
    """
    start = time.perf_counter()
    if cfg.true_class is None:
        hypotheses = list(range(cfg.num_classes))
    else:
        hypotheses = [cfg.true_class]
    configs = [replace(cfg, true_class=hypothesis) for hypothesis in hypotheses]
    summaries = _collect_summaries(configs, workers)
    rows = [
        _aggregate(cfg_h, hypothesis, *summary)
        for cfg_h, hypothesis, summary in zip(configs, hypotheses, summaries)
    ]
    bayes = None
    if len(hypotheses) == cfg.num_classes:
        priors = cfg.effective_priors
        bayes = math.fsum(priors[r.hypothesis] * r.error_rate for r in rows)
    return SimulationReport(
        rows=tuple(rows),
        bayes_error_rate=bayes,
        master_seed=cfg.master_seed,
        wall_time=time.perf_counter() - start,
    )


def gutman_reference_run(
    cfg: ExperimentConfig, n_test: int, workers: int = 1
) -> SimulationReport:
    """Fixed-length benchmark on the same harness, stopping at ``n_test``.

    When the configuration carries no threshold the balanced one is used:
    the crossing point that equalizes the two Bayes error exponents at
    ``alpha = train_len / n_test``.
    """
    n_test = _check_index(n_test, SizeMismatch, "n_test")
    if n_test < 1:
        raise SizeMismatch("a fixed-length run needs n_test >= 1")
    lam = cfg.gutman_lambda
    mode = cfg.gutman_mode
    if lam is None:
        alpha = cfg.train_len / n_test
        if cfg.num_classes == 2:
            lam = gutman_bayes_exponent(alpha, *cfg.distributions)
        else:
            lam = bayes_multiclass_gutman(list(cfg.distributions), alpha)
        mode = "scaled"
    fixed = replace(
        cfg, test_kind="gutman", n_test=n_test, gutman_lambda=lam, gutman_mode=mode
    )
    return estimate(fixed, workers=workers)


def exponent_probe(
    cfg: ExperimentConfig, n_grid: list[int], workers: int = 1
) -> ProbeReport:
    """Measure the error-rate decay of the sequential test across ``n_grid``.

    For each training length the error rate and its two normalized
    exponents are reported: per expected test sample and per training
    sample.  Lengths with zero observed errors are kept in the table but
    flagged unusable; the regression slope of ``-ln(rate)`` against the
    training length uses the usable rows only and needs at least two.
    """
    if cfg.true_class is None:
        raise ValidationError("the probe needs a configured true class")
    configs = [replace(cfg, train_len=train_len, cap=None) for train_len in n_grid]
    rows = []
    for train_len, cfg_n, summaries in zip(n_grid, configs, _collect_summaries(configs, workers)):
        report = _aggregate(cfg_n, cfg.true_class, *summaries, predict=False)
        usable = report.errors > 0
        if usable:
            neg_log = -math.log(report.error_rate)
            per_sample = neg_log / report.mean_T
            per_train = neg_log / train_len
        else:
            per_sample = math.nan
            per_train = math.nan
        rows.append(
            ProbeRow(
                train_len=train_len,
                trials=report.trials,
                errors=report.errors,
                error_rate=report.error_rate,
                mean_T=report.mean_T,
                exponent_per_sample=per_sample,
                exponent_per_train=per_train,
                usable=usable,
            )
        )
    points = [(r.train_len, -math.log(r.error_rate)) for r in rows if r.usable]
    if len(points) < 2:
        raise InsufficientErrors(
            "fewer than two training lengths produced any errors"
        )
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ProbeReport(rows=tuple(rows), slope=slope)
