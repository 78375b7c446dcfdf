"""Slow references for the fast paths in ``src/``.

``SequentialEngine`` is the per-symbol engine the lockstep kernel replaced.
It scores with the divergence form of the statistic, one ``math.log`` per
symbol and class, and draws every stream from a freshly constructed Philox
generator, so it shares neither the kernel's table arithmetic nor the
re-keyed sampler.

``fixed_length_trial`` is the per-trial fixed-length path the batched one
replaced: it draws every stream through the public ``sample_indices`` and
decides through the public ``gutman_binary`` / ``gutman_multiclass``, which
score with ``gjs`` on ``Distribution`` objects.

``bisect_fixed_point`` is the bisection the safeguarded Newton solver in
``seqstat.fixedpoint`` replaced: it halves the bracket on the sign of the
validated public ``gjs`` until the bracket is ``RELATIVE_BRACKET_WIDTH``
wide.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from seqstat import (
    EmpiricalType,
    GutmanConfig,
    SeedSpec,
    TrialTrace,
    Verdict,
    bit_generator,
    gjs,
    gutman_binary,
    gutman_multiclass,
    kl,
    sample_indices,
)
from seqstat.errors import AlphabetMismatch, LengthMismatch, NoSolution, NonConvergence, StreamExhausted
from seqstat.fixedpoint import (
    BRACKET_LOW,
    RELATIVE_BRACKET_WIDTH,
    RESIDUAL_BOUND,
    FixedPointResult,
    _check_gamma,
)

# Test symbols are drawn from the stream generator in blocks of this size.
STREAM_CHUNK = 128


def score_one(
    train_counts: Sequence[int],
    train_freqs: Sequence[float],
    counts: Sequence[int],
    n: int,
    big_n: int,
) -> float:
    total = big_n + n
    inv_n = 1.0 / n
    s = 0.0
    for big_c, t, c in zip(train_counts, train_freqs, counts):
        if big_c == 0 and c == 0:
            continue
        m = (big_c + c) / total
        if big_c:
            s += big_n * t * math.log(t / m)
        if c:
            s += c * math.log(c * inv_n / m)
    return s


class SequentialEngine:
    """Scorer and stopping logic of the sequential tests, one step at a time.

    ``simultaneous`` picks the verdict when the final step rules out every
    class at once: ``"smaller"`` (binary rule) declares the class with the
    strictly smaller score and gives up on an exact tie, ``"none"`` gives up
    outright.  Scores within ``1e-10 * (N + n) ln(N + n)`` of each other are
    compared exactly, as integer powers of the counts.
    """

    def __init__(self, train_counts: Sequence[Sequence[int]], config):
        big_n = config.train_len
        for counts in train_counts:
            if sum(counts) != big_n:
                raise LengthMismatch(
                    f"training sequence of length {sum(counts)}, expected {big_n}"
                )
        self.config = config
        self.big_n = big_n
        self.threshold = config.threshold
        self.num_classes = len(train_counts)
        self.train_counts = [tuple(int(c) for c in counts) for counts in train_counts]
        self.train_freqs = [tuple(c / big_n for c in counts) for counts in self.train_counts]
        self.counts = [0] * len(self.train_counts[0])
        self.n = 0
        self.scores = [0.0] * self.num_classes
        self.crossed: list[int | None] = [None] * self.num_classes

    def step(self, symbol_index: int) -> list[float]:
        self.counts[symbol_index] += 1
        self.n += 1
        n = self.n
        self.scores = [
            score_one(bc, tf, self.counts, n, self.big_n)
            for bc, tf in zip(self.train_counts, self.train_freqs)
        ]
        for i, s in enumerate(self.scores):
            if self.crossed[i] is None and s >= self.threshold:
                self.crossed[i] = n
        return self.scores

    def ruled_out(self) -> int:
        return sum(1 for c in self.crossed if c is not None)

    def resolve(self, simultaneous: str) -> Verdict:
        survivors = [i for i, c in enumerate(self.crossed) if c is None]
        if len(survivors) == 1:
            return Verdict.of_class(survivors[0])
        if simultaneous == "smaller" and self.num_classes == 2:
            s0, s1 = self.scores
            total = self.big_n + self.n
            if abs(s0 - s1) <= 1e-10 * total * math.log(total):
                # s0 - s1 = sum_x [C0 ln C0 - (C0+c) ln(C0+c) - C1 ln C1 + (C1+c) ln(C1+c)]
                s0 = s1 = 1
                for a, b, c in zip(*self.train_counts, self.counts):
                    s0 *= a**a * (b + c) ** (b + c)
                    s1 *= b**b * (a + c) ** (a + c)
            if s0 < s1:
                return Verdict.of_class(0)
            if s1 < s0:
                return Verdict.of_class(1)
        return Verdict.undecided()

    def run(self, stream: Iterator[int], simultaneous: str) -> TrialTrace:
        rows: list[list[float]] = []
        cap = self.config.cap
        while True:
            try:
                idx = next(stream)
            except StopIteration:
                raise StreamExhausted(
                    f"test stream ended after {self.n} symbols, before a verdict",
                    trace=self._trace(rows, Verdict.undecided()),
                ) from None
            rows.append(list(self.step(idx)))
            if self.ruled_out() >= self.num_classes - 1:
                return self._trace(rows, self.resolve(simultaneous))
            if self.n >= cap:
                return self._trace(rows, Verdict.undecided())

    def _trace(self, rows: list[list[float]], verdict: Verdict) -> TrialTrace:
        matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), self.num_classes)
        return TrialTrace(matrix, self.n, verdict, tuple(self.crossed))


def fresh_indices(weights: Sequence[float], seed: SeedSpec, n: int) -> np.ndarray:
    """``n`` symbol indices from a newly constructed generator on ``seed``."""
    cdf = np.cumsum(weights)
    uniforms = bit_generator(seed).random(n)
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def stream_indices(weights: Sequence[float], seed: SeedSpec, limit: int) -> Iterator[int]:
    """Lazy iid index stream; the draw pattern depends only on the seed."""
    rng = bit_generator(seed)
    cdf = np.cumsum(weights)
    top = len(cdf) - 1
    produced = 0
    while produced < limit:
        block = min(STREAM_CHUNK, limit - produced)
        uniforms = rng.random(block)
        indices = np.minimum(np.searchsorted(cdf, uniforms, side="right"), top)
        for value in indices:
            yield int(value)
        produced += block


def run_trial(cfg, trial_index: int) -> TrialTrace:
    """One sequential trial of an ``ExperimentConfig``, scalar from end to end."""
    m = cfg.num_classes
    k = cfg.distributions[0].alphabet.size
    base = trial_index * (m + 1)
    train = [
        np.bincount(
            fresh_indices(d.weights, SeedSpec(cfg.master_seed, base + role), cfg.train_len),
            minlength=k,
        ).tolist()
        for role, d in enumerate(cfg.distributions)
    ]
    engine = SequentialEngine(train, cfg.sequential_config())
    source = cfg.distributions[cfg.true_class]
    stream = stream_indices(source.weights, SeedSpec(cfg.master_seed, base + m), cfg.effective_cap)
    return engine.run(stream, "smaller" if m == 2 else "none")


def fixed_length_trial(cfg, trial_index: int) -> tuple[Verdict, list[float]]:
    """Verdict and ``gjs`` row of one fixed-length trial, through public calls only."""
    alphabet = cfg.distributions[0].alphabet
    m = cfg.num_classes

    def type_of(dist, role: int, length: int) -> EmpiricalType:
        seed = SeedSpec(cfg.master_seed, trial_index * (m + 1) + role)
        counts = np.bincount(sample_indices(dist, length, seed), minlength=alphabet.size)
        return EmpiricalType(alphabet, tuple(counts.tolist()))

    types = [type_of(d, role, cfg.train_len) for role, d in enumerate(cfg.distributions)]
    ty = type_of(cfg.distributions[cfg.true_class], m, cfg.n_test)
    gcfg = GutmanConfig(cfg.train_len / cfg.n_test, cfg.gutman_lambda, cfg.gutman_mode)
    if m == 2:
        verdict = gutman_binary(types[0], ty, gcfg)
    else:
        verdict = gutman_multiclass(types, ty, gcfg)
    row = [gjs(t.as_distribution(), ty.as_distribution(), gcfg.alpha) for t in types]
    return verdict, row


def bisect_fixed_point(p, q, gamma: float) -> FixedPointResult:
    """Root of ``gjs(p, q, theta) = gamma * theta`` by doubling, then bisection.

    ``iterations`` counts the doublings and the bisection steps.
    """
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch("distributions live on different alphabets")
    gamma = _check_gamma(gamma)
    slope_at_zero = kl(p, q)
    if gamma >= slope_at_zero:
        raise NoSolution(
            f"no positive root: gamma={gamma} is not below D(p||q)={slope_at_zero}"
        )

    def excess(theta: float) -> float:
        return gjs(p, q, theta) - gamma * theta

    iterations = 0
    lo, hi = BRACKET_LOW, 1.0
    while excess(hi) > 0.0:
        lo = hi
        hi *= 2.0
        iterations += 1
        if iterations > 1100:
            raise NonConvergence("root bracketing did not terminate")
    while (hi - lo) > RELATIVE_BRACKET_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    theta = 0.5 * (lo + hi)
    residual = abs(gjs(p, q, theta) - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo, hi, iterations)
