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
as one block at the single prefix ``n_test``.  The hypothesis is not part of
a stream's key, so the hypotheses of a sweep (``true_class`` unset) read the
same streams, and a batch draws each of them once for all hypotheses: its
training counts serve every hypothesis, the sequential test runs every
(trial, hypothesis) row in one lockstep that maps each block's uniforms
through each row's hypothesis, and the fixed-length test counts each test
stream through each hypothesis's thresholds.  ``_trials`` is the one batch
function, and ``_spans`` the one list of a run's batches: spans ``(cfg,
hypotheses, start, stop)`` of ``BLOCK_TRIALS`` trials (the last may be
shorter), each under every hypothesis the run covers.  ``estimate`` and
``exponent_probe`` (one configuration per training length) map each
configuration's spans in order, or hand them all to one worker pool, and
``seqstat simulate --trace-dir`` runs the recorded form of the same spans;
``run_trial`` runs a recorded span of one trial.  A batch's outcome is a
set of arrays per hypothesis: stopping times, verdict codes (class index,
or -1 for no decision or reject) and first crossings.  ``estimate`` keeps
only the times and codes, concatenated in trial order (workers return them
as arrays too), and reduces them with exact integer sums; no per-trial
object is built.  :class:`~seqstat.classifiers.TrialTrace` and its verdict
are built only for recorded spans.
"""

from __future__ import annotations

import math
import operator
import time
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
from .errors import InsufficientErrors, NoSolution, SizeMismatch, ValidationError
from .fixedpoint import solve_fixed_point
from .probability import (
    Distribution,
    SeedSpec,
    _check_classes,
    _check_index,
    _check_real,
    _counts_from_uniforms,
    _indices_from_uniforms,
    _stream_uniforms,
    bit_generator,  # noqa: F401  (wrapped by name in bench/spans.py)
    sample_indices,  # noqa: F401  (wrapped by name in bench/spans.py)
)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: its module pulls in
    ``multiprocessing``, ``socket``, ``subprocess`` and ``logging``, which a
    run at one worker never needs.  Once imported it is a module global, so
    it can be replaced like one."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


# Trials run in batches of this size.
BLOCK_TRIALS = 128
# Two-sided normal quantile used for the 95% confidence bounds.
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
        _check_classes(self.distributions, "distributions")
        m = len(self.distributions)
        object.__setattr__(self, "trials", _check_index(self.trials, SizeMismatch, "trials", 1))
        for name in ("train_len", "cap", "n_test", "true_class"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _check_index(value, SizeMismatch, name))
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
    """Aggregate outcome of all trials under one true class.

    ``error_half_width`` is the Wald half-width, 0 at zero errors;
    ``error_upper_95`` is the upper end of the 95% Wilson score interval,
    which stays above 0 there.
    """

    hypothesis: int
    trials: int
    errors: int
    nodecisions: int
    error_rate: float
    error_half_width: float
    error_upper_95: float
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
    weights: Sequence[np.ndarray], master_seed: int, streams: Sequence[int], length: int
) -> np.ndarray:
    """Symbol counts ``(len(weights), len(streams), K)`` of each stream's first ``length`` draws.

    Each stream is drawn once and counted through the thresholds of each
    entry of ``weights``.
    """
    out = np.empty((len(weights), len(streams), len(weights[0])), dtype=np.int64)
    # at most BLOCK_ENTRIES symbols are drawn at once, whatever the batch and length
    rows = max(1, BLOCK_ENTRIES // length)
    for lo in range(0, len(streams), rows):
        uniforms = _stream_uniforms(master_seed, streams[lo : lo + rows], 0, length)
        for counts, w in zip(out, weights):
            counts[lo : lo + rows] = _counts_from_uniforms(w, uniforms)
    return out


def _training_counts(cfg: ExperimentConfig, indices: Sequence[int]) -> np.ndarray:
    """Training counts ``(B, M, K)`` of the trials ``indices``, from their role streams."""
    m = cfg.num_classes
    per_role = [
        _stream_counts(
            [dist.as_array()], cfg.master_seed, [t * (m + 1) + role for t in indices], cfg.train_len
        )[0]
        for role, dist in enumerate(cfg.distributions)
    ]
    return np.stack(per_role, axis=1)


# A batch's outcome: stopping times (B,), verdict codes (B,) (class index, or
# -1 for no decision or reject), first crossings (B, M) (0 where a class had
# not crossed by the stopping time) and, when recorded, each trial's score
# rows.
Outcome = tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray] | None]


def _trials(
    cfg: ExperimentConfig, hypotheses: Sequence[int], indices: Sequence[int], record: bool
) -> list[Outcome]:
    """The configured test on the trials ``indices`` under each of ``hypotheses``.

    Every stream of a trial is drawn once, whatever the number of
    hypotheses.  The training counts serve every hypothesis, and the test
    runs on the rows ``j * B + i`` (trial ``indices[i]`` under
    ``hypotheses[j]``) at once: the sequential test in one lockstep that
    maps each block's uniforms through each row's hypothesis, the
    fixed-length test by counting each test stream through each
    hypothesis's thresholds.  A fixed-length trace's one row holds each
    class's ``gjs(T_train, T_test, N / n)``: its score at the single prefix
    ``n_test``, divided by ``n_test``.  One outcome per hypothesis, in order.
    """
    m = cfg.num_classes
    big_n = cfg.train_len
    train = _training_counts(cfg, indices)
    batch = len(train)
    streams = [t * (m + 1) + m for t in indices]
    weights = [cfg.distributions[h].as_array() for h in hypotheses]
    rows = np.tile(train, (len(weights), 1, 1))
    if cfg.test_kind == "sequential":

        def draw(active: np.ndarray, start: int, stop: int) -> np.ndarray:
            if len(weights) == 1:
                # each row is its own trial, so no trial's uniforms are shared
                keys = [streams[r] for r in active.tolist()]
                uniforms = _stream_uniforms(cfg.master_seed, keys, start, stop)
                return _indices_from_uniforms(weights[0], uniforms)
            trials, inverse = np.unique(active % batch, return_inverse=True)
            keys = [streams[i] for i in trials.tolist()]
            uniforms = _stream_uniforms(cfg.master_seed, keys, start, stop)
            symbols = np.empty((len(active), stop - start), dtype=np.intp)
            hypothesis = active // batch
            for j, w in enumerate(weights):
                mine = hypothesis == j
                symbols[mine] = _indices_from_uniforms(w, uniforms[inverse[mine]])
            return symbols

        rule = "smaller" if m == 2 else "none"
        times, codes, firsts, traces = _lockstep(rows, cfg.sequential_config(), rule, draw, record)
    else:
        n_test = cfg.n_test
        test = _stream_counts(weights, cfg.master_seed, streams, n_test).reshape(len(rows), -1)
        phi_train = _phi_array(rows.transpose(2, 0, 1), big_n, big_n)
        scores = _block_scores(rows, phi_train, test.T[:, :, None], np.array([n_test]), big_n)
        values = scores[:, :, 0] / n_test
        threshold = cfg.gutman_config().raw_threshold
        codes = _fixed_length_codes(values, threshold, binary=m == 2)
        times = np.full(len(values), n_test, dtype=np.int64)
        firsts = np.where(values > threshold, n_test, 0)
        traces = list(values[:, None]) if record else None
    return [
        (times[lo : lo + batch], codes[lo : lo + batch], firsts[lo : lo + batch],
         traces[lo : lo + batch] if record else None)
        for lo in range(0, len(rows), batch)
    ]


# A span of trials: ``(cfg, hypotheses, start, stop)``.
_Span = tuple[ExperimentConfig, Sequence[int], int, int]


def _spans(cfg: ExperimentConfig) -> list[_Span]:
    """The run's trials in whole ``BLOCK_TRIALS`` batches, each under every hypothesis it covers.

    A run covers its true class, or every class in a sweep.  Only the last
    batch may be partial.
    """
    hypotheses = list(range(cfg.num_classes)) if cfg.true_class is None else [cfg.true_class]
    return [
        (cfg, hypotheses, lo, min(lo + BLOCK_TRIALS, cfg.trials))
        for lo in range(0, cfg.trials, BLOCK_TRIALS)
    ]


# Stopping times and verdict codes of one hypothesis's trials, in trial order.
_Summary = tuple[np.ndarray, np.ndarray]


def _batch(span: _Span) -> list[_Summary]:
    """Summaries of the span ``(cfg, hypotheses, start, stop)``, one per hypothesis."""
    cfg, hypotheses, start, stop = span
    return [o[:2] for o in _trials(cfg, hypotheses, range(start, stop), record=False)]


def _traces(span: _Span) -> list[list[TrialTrace]]:
    """Full traces of the span ``(cfg, hypotheses, start, stop)``, one list per hypothesis."""
    cfg, hypotheses, start, stop = span
    fail = Verdict.rejected() if cfg.test_kind == "gutman" else Verdict.undecided()
    return [
        [
            TrialTrace(r, t, _verdict(c, fail), tuple(f or None for f in fs))
            for r, t, c, fs in zip(rows, times.tolist(), codes.tolist(), firsts.tolist())
        ]
        for times, codes, firsts, rows in _trials(cfg, hypotheses, range(start, stop), record=True)
    ]


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialTrace:
    """Run one fully traced trial; deterministic in ``(config, index)``."""
    if cfg.true_class is None:
        raise ValidationError("run_trial needs a configured true class")
    trial_index = _check_index(trial_index, ValidationError, "trial index", 0)
    return _traces((cfg, [cfg.true_class], trial_index, trial_index + 1))[0][0]


def _collect_summaries(
    configs: list[ExperimentConfig], workers: int
) -> list[list[tuple[int, np.ndarray, np.ndarray]]]:
    """Per configuration, ``(hypothesis, times, codes)`` of each hypothesis its run covers.

    All configurations share one trial count.  Their batches (see
    :func:`_spans`) run in order, or go to one worker pool, whose results
    come back in submission order; each hypothesis's batches are then joined.
    """
    workers = _check_index(workers, ValidationError, "workers", 1)
    runs = [_spans(cfg) for cfg in configs]
    spans = [span for run in runs for span in run]
    trials = configs[0].trials if configs else 0
    if workers == 1 or trials < 4 * workers:
        batches = list(map(_batch, spans))
    else:
        # a replaced pool class is a global; the real one is imported here
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        # a few tasks per worker: short batches stop paying one round trip
        # each, and the last tasks still even out the workers' loads
        chunksize = -(-len(spans) // (4 * workers))
        with pool_class(max_workers=workers) as pool:
            batches = list(pool.map(_batch, spans, chunksize=chunksize))
    done = iter(batches)
    return [
        [
            (h, np.concatenate([o[0] for o in mine]), np.concatenate([o[1] for o in mine]))
            for h, mine in zip(run[0][1], zip(*[next(done) for _ in run]))
        ]
        for run in runs
    ]


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


def _wilson_upper(rate: float, trials: int) -> float:
    """Upper end of the 95% Wilson score interval for ``rate`` observed over ``trials``."""
    z2 = _Z95 * _Z95
    spread = _Z95 * math.sqrt(rate * (1.0 - rate) / trials + z2 / (4.0 * trials * trials))
    return (rate + z2 / (2.0 * trials) + spread) / (1.0 + z2 / trials)


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
        error_upper_95=_wilson_upper(rate, trials),
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
    [summaries] = _collect_summaries([cfg], workers)
    rows = [_aggregate(cfg, *summary) for summary in summaries]
    bayes = None
    if len(rows) == cfg.num_classes:
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
    for train_len, cfg_n, [summary] in zip(n_grid, configs, _collect_summaries(configs, workers)):
        report = _aggregate(cfg_n, *summary, predict=False)
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
