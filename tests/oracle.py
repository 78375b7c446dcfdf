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

``exact_rate_gate`` is the rate gate that the Bhattacharyya bound replaced
in ``seqstat.fixedpoint``: it maximises every pair's Chernoff information
for the cap (once per grid) and reads every ordered pair's ``D(p || q)``
through the public ``kl``.  ``exact_exponent_report`` and
``exact_multiclass_thetas`` are the reports on it, solving each root with
the public ``solve_fixed_point`` and evaluating the exponents at the roots
with the public ``gjs``.

``bisect_fixed_point`` is the bisection that ``seqstat.fixedpoint`` first
replaced by a safeguarded Newton iteration: it halves the bracket on the
sign of the validated public ``gjs`` until the bracket is
``RELATIVE_BRACKET_WIDTH`` wide.  ``search_fixed_point`` is the path that
followed it and that monotone Newton steps in ``1 / theta`` replaced:
doubling from ``theta = 1``, then the shared Illinois search in
``seqstat.divergence`` with Newton steps on the slope ``D(q || m) /
theta^2``, on the same evaluator of the pair.  ``newton_fixed_point`` is
the loop that Halley steps replaced: monotone Newton steps in ``1 / theta``
behind the same safeguards, on one ``_End`` per evaluation, with the
doubling from ``theta = 1`` where ``D(q || p)`` is infinite.

``gjs_kl_form`` and ``gjs_entropy_form`` are the two forms the public
``gjs`` chose between before one ``log1p`` evaluator replaced both: the
relative-entropy form with ``log(p / m)`` ratios, and the entropy form
``(1 + alpha) H(m) - alpha H(p) - H(q)``, which cancels on near-identical
pairs.

``numpy_mixture_divergences`` and ``numpy_chernoff`` are the numpy forms
of the divergence evaluator and of ``chernoff`` that the scalar ``math``
loops in ``seqstat.divergence`` replaced: the same formulas and branches on
masked arrays, except that the Chernoff slope takes its log-ratio as
``log p - log q``.

``dense_derivatives``, ``dense_simplex_solve``, ``dense_slope_terms``,
``dense_curvature`` and ``numpy_relax`` are the numpy forms of the
exponent programs' relaxation that the scalar ``math`` loops in
``seqstat.exponents`` replaced: the Hessian as a dense matrix and the KKT
step by ``np.linalg.solve`` on the bordered matrix, where the package
solves it in closed form.  ``dense_curvature`` is the Bayes crossing's
excess slope in the multiplier at a relaxed state and the tangent of the
relaxed path: the Newton step on the multiplier and the move of ``W``
that the crossing's joint step takes from a relaxed state.
``numpy_relax`` holds no coordinate: it halves a step that would empty
one.  ``exact_simplex_solve`` solves the same bordered system in rational
arithmetic on the same floats.  These forms and
``sweep_relax`` read a program's sources and states, which are lists of
floats, as arrays.

``separate_sweep`` and ``separate_joint_step`` are ``_PairProgram.sweep``
and ``_PairProgram.joint_step`` as they were before their passes over the
symbols were fused: every sum is its own ``sum`` over a finished list, the
gradient and the Hessian's factors come from ``derivatives``, and the two
right-hand sides of the joint step are two one-sided calls of
``_simplex_solve``.  Each sum adds the same terms in the same order as the
fused form, so the two give the same bits; they count sweeps and solves as
the methods do.

``binary_fixed_length_errors`` is the exact error probability of the binary
fixed-length test on a two-symbol alphabet: the rule reads only class 1's
score, so each hypothesis's error is a finite sum over the training count
of class 1 and the test count, with binomial weights.

``sweep_relax`` and ``bisect_bayes_crossing`` are the plain block-descent
relaxation and the multiplier bisection that the damped Newton relaxation,
the Illinois search and the joint Newton steps in ``seqstat.exponents``
replaced: ``sweep_relax`` repeats the sweep until one moves no coordinate
more than ``INNER_TOLERANCE`` (alternating minimization, which shares no
arithmetic with Newton steps on the reduced Lagrangian), and the crossing
halves the multiplier bracket, warm-starting every relaxation from its
upper end.  ``bisect_bayes_crossings`` runs the same doubling and bisection
(``_bisection_steps``) for many pairs in lockstep, with the sweeps of all
pairs of one size as rows of arrays (``batch_sweep_relax``).

``bisect_program`` is the multiplier bisection that the same Illinois search
replaced in ``_PairProgram.solve``: it doubles and then halves the
multiplier on the sign of the constraint slack, with the program's own
damped Newton relaxations warm-started from the upper end, until the
bracket is ``RELATIVE_BRACKET_WIDTH`` wide, and certifies the upper end's
duality gap.

``illinois_program`` is the multiplier search that the joint Newton loop
(``_PairProgram.newton``) replaced in ``_PairProgram.solve``: doubling from
1 (``_bracket``) and the shared Illinois search on the slack
(``_search``), with a full relaxation at every multiplier it tries, each
from the last relaxed state.

``bisect_chernoff`` and ``bisect_constrained_kl_min`` are the bisections
that the same search, now in ``seqstat.divergence``, replaced in
``chernoff`` and ``constrained_kl_min``: the first halves [0, 1] on the
sign of the slope of ``ln sum p^eta q^(1-eta)`` until the bracket is 1e-12
wide and takes the value at its midpoint; the second halves the geometric
path parameter on the sign of ``D(V_t || center) - radius`` until the
bracket is 1e-14 wide and takes the value at its upper end.

``indices_from_uniforms`` is the inverse-CDF lookup that the threshold map
in ``seqstat.probability`` replaced: ``searchsorted(cdf, u, side="right")``
clamped to ``K - 1``.  ``fresh_indices`` and ``stream_indices`` map the
uniforms of a freshly constructed generator through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from seqstat import (
    EmpiricalType,
    GutmanConfig,
    SeedSpec,
    TrialTrace,
    Verdict,
    bit_generator,
    chernoff,
    gjs,
    gutman_binary,
    gutman_multiclass,
    kl,
    sample_indices,
    solve_fixed_point,
)
from seqstat.divergence import (
    CROSSING_MAX_STEPS,
    RELATIVE_BRACKET_WIDTH,
    _End,
    _bracket,
    _mixture_divergences,
    _search,
    kl_array,
)
from seqstat.exponents import (
    GAP_BOUND,
    INNER_MAX_SWEEPS,
    INNER_TOLERANCE,
    _PairProgram,
    _check_alpha,
    _log_step,
    _simplex_solve,
)
from seqstat.errors import (
    AlphabetMismatch,
    GammaOutOfRange,
    Infeasible,
    LengthMismatch,
    NoSolution,
    NonConvergence,
    StreamExhausted,
)
from seqstat.fixedpoint import (
    BRACKET_LOW,
    NEAR_CAP_WIDTH,
    RESIDUAL_BOUND,
    ExponentReport,
    FixedPointResult,
    _check_gamma,
)
from seqstat.probability import _check_classes, _check_distinct, _same_pair

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


def indices_from_uniforms(weights: Sequence[float], uniforms: np.ndarray) -> np.ndarray:
    """Symbol indices of ``uniforms`` by binary search on the cumulative weights."""
    cdf = np.cumsum(weights)
    # the top of the cdf can land a hair under 1.0
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def fresh_indices(weights: Sequence[float], seed: SeedSpec, n: int) -> np.ndarray:
    """``n`` symbol indices from a newly constructed generator on ``seed``."""
    return indices_from_uniforms(weights, bit_generator(seed).random(n))


def stream_indices(weights: Sequence[float], seed: SeedSpec, limit: int) -> Iterator[int]:
    """Lazy iid index stream; the draw pattern depends only on the seed."""
    rng = bit_generator(seed)
    produced = 0
    while produced < limit:
        block = min(STREAM_CHUNK, limit - produced)
        indices = indices_from_uniforms(weights, rng.random(block))
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


def binary_fixed_length_errors(cfg) -> tuple[list[float], float]:
    """Exact P(error | H_h) of the binary fixed-length test for |X| = 2.

    Class 1's training type has ``x`` of its ``N`` symbols equal to the
    first one, with weight ``Bin(x; N, P1)``, and the test type ``c`` of its
    ``n``, with weight ``Bin(c; n, P_h)``; class 1 is declared iff the public
    ``gjs`` of the two types is at or below the raw threshold.  Also returns
    the smallest distance of a score from the threshold.
    """
    big_n, n = cfg.train_len, cfg.n_test
    gcfg = cfg.gutman_config()
    alphabet = cfg.distributions[0].alphabet

    def binomial(k: int, trials: int, p: float) -> float:
        return math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)

    accepted = {}
    closest = math.inf
    for x in range(big_n + 1):
        train = EmpiricalType(alphabet, (x, big_n - x)).as_distribution()
        for c in range(n + 1):
            test = EmpiricalType(alphabet, (c, n - c)).as_distribution()
            score = gjs(train, test, gcfg.alpha)
            closest = min(closest, abs(score - gcfg.raw_threshold))
            accepted[x, c] = score <= gcfg.raw_threshold
    p1 = cfg.distributions[0].weights[0]
    errors = []
    for h, source in enumerate(cfg.distributions):
        errors.append(
            math.fsum(
                binomial(x, big_n, p1) * binomial(c, n, source.weights[0])
                for (x, c), yes in accepted.items()
                if yes != (h == 0)
            )
        )
    return errors, closest


def exact_rate_gate(dists, gamma: float, cap: float | None = None) -> tuple[float, float]:
    """``(gamma, cap)`` for a rate in range; raises :class:`GammaOutOfRange`
    when ``gamma`` exceeds the smallest pairwise ``chernoff`` by more than
    1e-12 or is not below every ordered pair's ``kl``."""
    gamma = _check_gamma(gamma)
    if cap is None:
        cap = min(chernoff(p, q) for i, p in enumerate(dists) for q in dists[i + 1 :])
    if gamma > cap + 1e-12:
        raise GammaOutOfRange(
            f"gamma={gamma} exceeds the smallest pairwise Chernoff information {cap}"
        )
    for i, p in enumerate(dists):
        for j, q in enumerate(dists):
            if i != j and gamma >= kl(p, q):
                raise GammaOutOfRange(
                    f"gamma={gamma} is not below D(P{i + 1}||P{j + 1})={kl(p, q)}, "
                    "so the threshold equation has no root"
                )
    return gamma, cap


def exact_exponent_report(p1, p2, gamma: float, cap: float | None = None) -> tuple[ExponentReport, float]:
    """``exponent_report`` on :func:`exact_rate_gate`, and the cap for the next rate."""
    gamma, cap = exact_rate_gate([p1, p2], gamma, cap)
    beta = solve_fixed_point(p2, p1, gamma)
    theta = solve_fixed_point(p1, p2, gamma)
    report = ExponentReport(
        gamma=gamma,
        beta_star=beta.theta_star,
        theta_star=theta.theta_star,
        exponent_type1=gjs(p2, p1, beta.theta_star),
        exponent_type2=gjs(p1, p2, theta.theta_star),
        bayes_exponent=gamma,
        near_cap=(cap - gamma) <= NEAR_CAP_WIDTH,
    )
    return report, cap


def exact_multiclass_thetas(dists, gamma: float) -> np.ndarray:
    """``multiclass_thetas`` on :func:`exact_rate_gate`."""
    _check_distinct(dists)
    gamma, _ = exact_rate_gate(dists, gamma)
    out = np.full((len(dists), len(dists)), math.nan)
    for i in range(len(dists)):
        for j in range(len(dists)):
            if i != j:
                out[i, j] = solve_fixed_point(dists[j], dists[i], gamma).theta_star
    return out


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
    value = gjs(p, q, theta)
    residual = abs(value - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo, hi, iterations, value)


def search_fixed_point(p, q, gamma: float) -> FixedPointResult:
    """Root of ``gjs(p, q, theta) = gamma * theta`` by doubling from ``theta = 1``
    and the shared bracketed search with the slope ``D(q || m) / theta^2``.

    The search runs on the scaled excess ``gamma - D(p || m) - D(q || m) /
    theta``, read from the pair's evaluator as in ``solve_fixed_point``, with
    the lower end at ``BRACKET_LOW`` and the excess ``gamma - D(p || q)``
    there.  ``iterations`` counts the excess evaluations: the doubling's,
    the search's and the sign check at ``BRACKET_LOW`` when the bracket ends
    there.
    """
    _check_classes((p, q), "distributions")
    gamma = _check_gamma(gamma)
    divergences = _mixture_divergences(p.weights, q.weights)
    slope_at_zero = divergences(0.0)[0]
    if gamma >= slope_at_zero:
        raise NoSolution(f"no positive root: gamma={gamma} is not below D(p||q)={slope_at_zero}")
    evaluations = 0

    def end(theta: float) -> _End:
        nonlocal evaluations
        evaluations += 1
        d_p, d_q, _ = divergences(theta)
        return _End(theta, gamma - d_p - d_q / theta, math.inf, None, d_q / (theta * theta))

    floor = _End(BRACKET_LOW, gamma - slope_at_zero, math.inf, None)
    lo, hi = _search(end, *_bracket(end, floor))
    if lo.mu == BRACKET_LOW and end(BRACKET_LOW).excess > 0.0:
        raise NonConvergence(f"the root lies below BRACKET_LOW={BRACKET_LOW}")
    theta = 0.5 * (lo.mu + hi.mu)
    d_p, d_q, _ = divergences(theta)
    value = theta * d_p + d_q
    residual = abs(value - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo.mu, hi.mu, evaluations, value)


def newton_fixed_point(p, q, gamma: float) -> FixedPointResult:
    """Root of ``gjs(p, q, theta) = gamma * theta`` by monotone Newton steps
    in ``u = 1 / theta`` from ``D(q || p) / gamma``, with the doubling from
    ``theta = 1`` where that start is infinite or its excess is not positive.

    The safeguards are ``solve_fixed_point``'s (the floor chord, the probes,
    ``rtsafe``'s slow test, the quarter-width clamp, the bisection on a
    non-positive denominator), on one ``_End`` per evaluation; only the step
    is Newton's ratio ``F / F'``.  ``iterations`` counts the excess
    evaluations as ``solve_fixed_point`` does.
    """
    _check_classes((p, q), "distributions")
    gamma = _check_gamma(gamma)
    divergences = _mixture_divergences(p.weights, q.weights)
    slope_at_zero = divergences(0.0)[0]
    if gamma >= slope_at_zero:
        raise NoSolution(f"no positive root: gamma={gamma} is not below D(p||q)={slope_at_zero}")
    reverse = _mixture_divergences(q.weights, p.weights)(0.0)[0]
    evaluations = 0

    def end(theta: float) -> _End:
        nonlocal evaluations
        evaluations += 1
        d_p, d_q, _ = divergences(theta)
        return _End(theta, gamma - d_p - d_q / theta, math.inf, None, -d_q or math.nan)

    lo = floor = _End(BRACKET_LOW, gamma - slope_at_zero, math.inf, None)
    hi = end(start) if 0.0 < (start := reverse / gamma) < math.inf else lo
    if not hi.excess > 0.0:
        lo, hi = _bracket(end, lo)
    newest, reach, moves, steps = hi, 0.5, (math.inf, math.inf), 0
    while (span := hi.mu - lo.mu) > RELATIVE_BRACKET_WIDTH * hi.mu:
        if steps == CROSSING_MAX_STEPS:
            raise NonConvergence(f"threshold root unfinished after {steps} steps")
        steps += 1
        width = RELATIVE_BRACKET_WIDTH * newest.mu
        denominator = 1.0 - newest.mu * newest.excess / newest.slope
        theta = newest.mu / denominator if denominator > 0.0 else math.nan
        if lo is floor:
            theta = min(theta, hi.mu - hi.excess * span / (hi.excess - lo.excess))
        if abs(theta - newest.mu) <= 0.25 * width:
            theta += (reach if newest is lo else -reach) * width
            reach *= 2.0
        slow = reach == 0.5 and not abs(theta - newest.mu) <= 0.5 * moves[0]
        if slow or not lo.mu + 0.25 * width <= theta <= hi.mu - 0.25 * width:
            theta = 0.5 * (lo.mu + hi.mu)
        moves, newest = (moves[1], abs(theta - newest.mu)), end(theta)
        lo, hi = (lo, newest) if newest.excess > 0.0 else (newest, hi)
    if lo.mu == BRACKET_LOW and end(BRACKET_LOW).excess > 0.0:
        raise NonConvergence(f"the root lies below BRACKET_LOW={BRACKET_LOW}")
    theta = 0.5 * (lo.mu + hi.mu)
    d_p, d_q, _ = divergences(theta)
    value = theta * d_p + d_q
    residual = abs(value - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo.mu, hi.mu, evaluations, value)


def _kl_log_ratio(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    pm = p[mask]
    return float(np.sum(pm * np.log(pm / q[mask])))


def _entropy(p: np.ndarray) -> float:
    pm = p[p > 0.0]
    return float(-np.sum(pm * np.log(pm)))


def gjs_kl_form(p, q, alpha: float) -> float:
    """gjs computed as alpha * D(p || m) + D(q || m) with ``log(p / m)`` ratios."""
    if alpha == 0.0:
        return 0.0
    pa, qa = p.as_array(), q.as_array()
    m = (alpha * pa + qa) / (1.0 + alpha)
    return alpha * _kl_log_ratio(pa, m) + _kl_log_ratio(qa, m)


def gjs_entropy_form(p, q, alpha: float) -> float:
    """gjs computed as (1 + alpha) H(m) - alpha H(p) - H(q)."""
    if alpha == 0.0:
        return 0.0
    pa, qa = p.as_array(), q.as_array()
    m = (alpha * pa + qa) / (1.0 + alpha)
    return (1.0 + alpha) * _entropy(m) - alpha * _entropy(pa) - _entropy(qa)


def numpy_mixture_divergences(p: np.ndarray, q: np.ndarray):
    """The numpy form of ``divergence._mixture_divergences``: the same
    formulas and branches on masked arrays, with ``np.log1p`` and dot
    products in place of the scalar loop."""
    both = (p > 0.0) & (q > 0.0)
    p_only = float(p[q == 0.0].sum())
    q_only = float(q[p == 0.0].sum())
    p, q = p[both], q[both]
    diff = p - q
    to_p, to_q = diff / p, diff / q
    far_to_p = float(to_p.max()) if to_p.size else 0.0

    def divergences(alpha: float) -> tuple[float, float]:
        share = 1.0 / (1.0 + alpha)
        if alpha > 0.0:
            p_tail = p_only * math.log1p(1.0 / alpha)
            d_q = q_only * math.log1p(alpha) - float(q @ np.log1p(alpha * share * to_q))
        else:
            p_tail = math.inf if p_only else 0.0
            d_q = 0.0
        switch = 0.5 * (1.0 + alpha)
        if far_to_p < switch:
            log_m_p = np.log1p(-share * to_p)
        else:
            near = to_p < switch
            log_m_p = np.log((alpha + q / p) / (1.0 + alpha) if alpha > 0.0 else q / p)
            log_m_p[near] = np.log1p(-share * to_p[near])
        return p_tail - float(p @ log_m_p), d_q

    return divergences


def numpy_chernoff(p, q) -> float:
    """The numpy form of ``chernoff``: the same search on the slope of
    ``ln sum p^eta q^(1-eta)``, with the log-ratio taken as ``log p - log q``."""
    _check_classes((p, q), "distributions")
    pa, qa = p.as_array(), q.as_array()
    common = (pa > 0.0) & (qa > 0.0)
    if not np.any(common):
        return math.inf
    lp = np.log(pa[common])
    lq = np.log(qa[common])
    rise = 1.0

    def end(eta: float) -> _End:
        terms = np.exp(eta * lp + (1.0 - eta) * lq)
        total = float(np.sum(terms))
        return _End(eta, float(np.sum(terms * (lp - lq))) / total / rise, -math.log(total), None)

    lo, hi = end(0.0), end(1.0)
    if lo.excess < 0.0 < hi.excess:
        rise = hi.excess - lo.excess
        lo = lo._replace(excess=lo.excess / rise)
        lo, hi = _search(end, lo, hi._replace(excess=hi.excess / rise))
    return max(lo.value, hi.value)


def sweep_relax(program: _PairProgram, mu: float, state):
    """Plain block descent on ``program``'s Lagrangian at multiplier ``mu``."""
    q1, q2, w = (np.asarray(x, dtype=float) for x in state)
    a, b = np.asarray(program.a), np.asarray(program.b)
    e = 1.0 / (1.0 + mu)
    supp_a = a > 0.0
    supp_b = b > 0.0
    log_a = np.log(a[supp_a])
    log_b = np.log(b[supp_b])
    k = len(a)
    for _ in range(INNER_MAX_SWEEPS):
        x1 = np.exp(e * log_a + (1.0 - e) * np.log(w[supp_a]))
        q1n = np.zeros(k)
        q1n[supp_a] = x1 / x1.sum()
        x2 = np.exp(e * log_b + (1.0 - e) * np.log(w[supp_b]))
        q2n = np.zeros(k)
        q2n[supp_b] = x2 / x2.sum()
        wn = (program.alpha * q1n + q2n) / (1.0 + program.alpha)
        delta = max(
            np.max(np.abs(q1n - q1)),
            np.max(np.abs(q2n - q2)),
            np.max(np.abs(wn - w)),
        )
        q1, q2, w = q1n, q2n, wn
        if delta <= INNER_TOLERANCE:
            return q1, q2, w
    raise NonConvergence(
        f"block descent at mu={mu} still moving {delta} after {INNER_MAX_SWEEPS} sweeps"
    )


def dense_derivatives(program: _PairProgram, w, q1, q2, t_w, e: float):
    """The numpy form of ``_PairProgram.derivatives``: the gradient and the
    Hessian as a dense K x K matrix."""
    w, q1, q2, t_w = (np.asarray(x, dtype=float) for x in (w, q1, q2, t_w))
    hess = (1.0 - e) ** 2 * (program.alpha * q1[:, None] * q1 + q2[:, None] * q2)
    hess.flat[:: len(w) + 1] += e * (1.0 - e) * (1.0 + program.alpha) * t_w
    return (1.0 - e) * (1.0 + program.alpha) * (w - t_w), hess


def dense_simplex_solve(hess: np.ndarray, w, rhs) -> np.ndarray:
    """The numpy form of ``exponents._simplex_solve``: ``np.linalg.solve`` on
    the bordered KKT matrix ``[[hess, w], [w^T, 0]]``."""
    k = len(w)
    kkt, full = np.zeros((k + 1, k + 1)), np.zeros(k + 1)
    kkt[:k, :k] = hess
    kkt[:k, k] = kkt[k, :k] = w
    full[:k] = rhs
    return np.linalg.solve(kkt, full)[:k]


def exact_simplex_solve(diag, u1, u2, w, rhs) -> list[float]:
    """``exponents._simplex_solve`` in exact rational arithmetic on the same
    floats: Gauss-Jordan elimination of the bordered KKT matrix with
    ``Fraction`` entries, rounded once at the end."""
    k = len(w)
    rows = [
        [Fraction(diag[i] * (i == j)) + Fraction(u1[i]) * Fraction(u1[j])
         + Fraction(u2[i]) * Fraction(u2[j]) for j in range(k)]
        + [Fraction(w[i]), Fraction(rhs[i])]
        for i in range(k)
    ]
    rows.append([Fraction(x) for x in w] + [Fraction(0), Fraction(0)])
    for col in range(k + 1):
        pivot = next(r for r in range(col, k + 1) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k + 1):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [float(rows[i][-1] / rows[i][i]) for i in range(k)]


def separate_sweep(program: _PairProgram, w, e: float):
    """``_PairProgram.sweep`` with one pass per list and per sum."""
    program.sweeps += 1
    f = 1.0 - e
    x1, x2 = [], []
    for (log_a, log_b), x in zip(program.logs, w):
        log_w = f * math.log(x)
        x1.append(math.exp(e * log_a + log_w))
        x2.append(math.exp(e * log_b + log_w))
    s1, s2 = sum(x1), sum(x2)
    q1 = [x / s1 for x in x1]
    q2 = [x / s2 for x in x2]
    alpha = program.alpha
    return q1, q2, [(alpha * y1 + y2) / (1.0 + alpha) for y1, y2 in zip(q1, q2)]


def separate_joint_step(program: _PairProgram, mu: float, w, swept, budget=None):
    """``_PairProgram.joint_step`` on the crossing's row (``budget`` None)
    with one pass per list and per sum and a one-sided ``_simplex_solve``
    per right-hand side."""
    if budget is not None:
        raise ValueError("the separate passes take the crossing's row only")
    e = 1.0 / (1.0 + mu)
    f = 1.0 - e
    alpha = program.alpha
    q1, q2, t_w = swept
    u1, u2, r = [], [], []
    for (log_a, log_b), x, t in zip(program.logs, w, t_w):
        log_w = math.log(x)
        u1.append(log_a - log_w if log_a > -math.inf else 0.0)
        u2.append(log_b - log_w if log_b > -math.inf else 0.0)
        r.append(log_w - math.log(t))
    m1, m2 = sum(map(mul, q1, u1)), sum(map(mul, q2, u2))
    excess = -((1.0 + alpha) * sum(map(mul, t_w, r)) + alpha * m1 + m2) / alpha
    r1, r2 = sum(map(mul, q1, r)), sum(map(mul, q2, r))
    c, h = [], []
    second = 0.0
    for x, t, y1, y2, c1, c2, ri in zip(w, t_w, q1, q2, u1, u2, r):
        c1 -= m1
        c2 -= m2
        v1, v2 = y1 * c1, y2 * c2
        second += alpha * v1 * (c1 + ri) + v2 * (c2 + ri)
        c.append(-(1.0 + alpha) * (x - t) - f * (alpha * v1 + v2))
        h.append(alpha * y1 * (c1 + ri - r1) + y2 * (c2 + ri - r2))
    grad, hess = program.derivatives(w, q1, q2, t_w, e)
    program.solves += 2
    d0 = _simplex_solve(*hess, w, [-g for g in grad])
    z = _simplex_solve(*hess, w, c)
    schur = (f * sum(map(mul, h, z)) - second) / alpha
    rise = excess - f * sum(map(mul, h, d0)) / alpha
    de = -rise / schur if schur < 0.0 else math.nan
    return excess, _log_step(w, [x - de * y for x, y in zip(d0, z)]), mu - de / (e * e)


def numpy_relax(program: _PairProgram, mu: float, state):
    """The numpy form of ``_PairProgram.relax``: the same sweep, damped
    Newton step, line search and plain-sweep fallback on arrays, with the
    dense derivatives and KKT solve and no held coordinates."""
    e = 1.0 / (1.0 + mu)
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(program.a), np.log(program.b)

    def sweep(w):
        log_w = np.log(w)
        x1 = np.exp(e * log_a + (1.0 - e) * log_w)
        x2 = np.exp(e * log_b + (1.0 - e) * log_w)
        q1, q2 = x1 / x1.sum(), x2 / x2.sum()
        return q1, q2, (program.alpha * q1 + q2) / (1.0 + program.alpha)

    w = state[2]
    for _ in range(INNER_MAX_SWEEPS):
        q1, q2, t_w = sweep(w)
        move = abs(t_w - w).max()
        if move <= INNER_TOLERANCE:
            return q1, q2, w
        grad, hess = dense_derivatives(program, w, q1, q2, t_w, e)
        d = dense_simplex_solve(hess, w, -grad)
        slope, mass, lowest = grad @ d, w @ d, d.min()
        t = 1.0
        while t == 1.0 or t * abs(d).max() >= np.finfo(float).eps:
            if t * lowest > -1.0:
                z = np.expm1((1.0 - e) * np.log1p(t * d))
                change = (1.0 - e) * (1.0 + program.alpha) * t * mass
                change -= program.alpha * math.log1p(q1 @ z) + math.log1p(q2 @ z)
                if change <= 0.25 * t * slope:
                    w = w * (1.0 + t * d)
                    break
            t *= 0.5
        else:
            w = t_w
    raise NonConvergence(
        f"block descent at mu={mu} still moving {move} after {INNER_MAX_SWEEPS} sweeps"
    )


def dense_slope_terms(program: _PairProgram, mu: float, state) -> tuple[float, np.ndarray]:
    """``(psi, c)`` at the relaxed ``state``: the second derivative of the
    reduced Lagrangian in ``e`` and its mixed derivative in ``e`` and the
    relative step (``u1 = log a - log w``, ``u2 = log b - log w``, centred
    under ``q1`` and ``q2``; ``psi = -alpha Var_q1(u1) - Var_q2(u2)``)."""
    e = 1.0 / (1.0 + mu)
    q1, q2, w = (np.asarray(x, dtype=float) for x in state)
    a, b = np.asarray(program.a), np.asarray(program.b)
    log_w = np.log(w)
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    u1 = np.where(a > 0.0, log_a - log_w, 0.0)
    u2 = np.where(b > 0.0, log_b - log_w, 0.0)
    u1 = u1 - q1 @ u1
    u2 = u2 - q2 @ u2
    v1, v2 = q1 * u1, q2 * u2
    psi = -program.alpha * (v1 @ u1) - v2 @ u2
    return psi, -(1.0 - e) * (program.alpha * v1 + v2)


def dense_curvature(program: _PairProgram, mu: float, state) -> tuple[float, np.ndarray]:
    """The Bayes crossing's excess slope in ``mu`` at the relaxed ``state``
    and the tangent ``z = -d log W / de`` of the relaxed path, with the
    dense KKT solve.

    The excess is ``(Lambda - (1 + mu) Lambda') / alpha`` for the dual
    function ``Lambda``, so its slope is ``-(1 + mu) Lambda'' / alpha``, and
    ``Lambda'' = e^3 (psi - c . z)`` where ``z`` solves ``H z = c`` under the
    border ``w . z = 0`` (the implicit function theorem on the relaxation's
    stationarity)."""
    e = 1.0 / (1.0 + mu)
    q1, q2, w = state
    psi, c = dense_slope_terms(program, mu, state)
    z = dense_simplex_solve(dense_derivatives(program, w, q1, q2, w, e)[1], w, c)
    return float(-e * e * (psi - c @ z) / program.alpha), z


def bisect_bayes_crossing(alpha: float, p1, p2) -> float:
    """``gutman_bayes_exponent`` by doubling and bisecting the multiplier."""
    alpha = _check_alpha(alpha, strict=True)
    _check_classes((p1, p2), "distributions")
    if _same_pair(p1, p2):
        return 0.0
    program = _PairProgram(p1.as_array(), p2.as_array(), alpha)

    def split(state) -> tuple[float, float]:
        q1, q2, _ = state
        return program.objective_value(q1, q2) / alpha, program.constraint_value(q1, q2) / alpha

    mu_lo = 0.0
    mu_hi = 1.0
    state_hi = sweep_relax(program, mu_hi, program.start())
    doublings = 0
    while True:
        objective, constraint = split(state_hi)
        if objective > constraint:
            break
        mu_lo = mu_hi
        mu_hi *= 2.0
        state_hi = sweep_relax(program, mu_hi, state_hi)
        doublings += 1
        if doublings > 200:
            raise NonConvergence("crossing multiplier bracketing diverged")
    steps = 0
    while True:
        if abs(objective - constraint) <= 1e-12 or (mu_hi - mu_lo) <= RELATIVE_BRACKET_WIDTH * mu_hi:
            return 0.5 * (objective + constraint)
        if steps == CROSSING_MAX_STEPS:
            raise NonConvergence(f"crossing multiplier bisection unfinished after {steps} steps")
        steps += 1
        mu_mid = 0.5 * (mu_lo + mu_hi)
        state_mid = sweep_relax(program, mu_mid, state_hi)
        o_mid, c_mid = split(state_mid)
        if o_mid > c_mid:
            mu_hi, state_hi, objective, constraint = mu_mid, state_mid, o_mid, c_mid
        else:
            mu_lo = mu_mid


def _bisection_steps(program: _PairProgram):
    """``bisect_bayes_crossing``'s doubling and bisection for one program, as
    a generator: it yields ``(mu, state)`` for each relaxation it needs, is
    sent the relaxed state back, and returns the crossing."""
    alpha = program.alpha

    def split(state) -> tuple[float, float]:
        q1, q2, _ = state
        return program.objective_value(q1, q2) / alpha, program.constraint_value(q1, q2) / alpha

    mu_lo = 0.0
    mu_hi = 1.0
    state_hi = yield mu_hi, program.start()
    doublings = 0
    while True:
        objective, constraint = split(state_hi)
        if objective > constraint:
            break
        mu_lo = mu_hi
        mu_hi *= 2.0
        state_hi = yield mu_hi, state_hi
        doublings += 1
        if doublings > 200:
            raise NonConvergence("crossing multiplier bracketing diverged")
    steps = 0
    while True:
        if abs(objective - constraint) <= 1e-12 or (mu_hi - mu_lo) <= RELATIVE_BRACKET_WIDTH * mu_hi:
            return 0.5 * (objective + constraint)
        if steps == CROSSING_MAX_STEPS:
            raise NonConvergence(f"crossing multiplier bisection unfinished after {steps} steps")
        steps += 1
        mu_mid = 0.5 * (mu_lo + mu_hi)
        state_mid = yield mu_mid, state_hi
        o_mid, c_mid = split(state_mid)
        if o_mid > c_mid:
            mu_hi, state_hi, objective, constraint = mu_mid, state_mid, o_mid, c_mid
        else:
            mu_lo = mu_mid


def batch_sweep_relax(programs: list[_PairProgram], requests: list) -> list:
    """``sweep_relax(program, mu, state)`` for each program and its ``(mu,
    state)`` request at once: the programs keep the same number of symbols,
    and each is a row of the arrays.  Every sweep runs on the rows still
    moving; a row stops, as ``sweep_relax`` does, once a sweep moves none of
    its coordinates more than ``INNER_TOLERANCE``.  A weight off a source's
    support has log ``-inf``, which the sweep maps to 0 as ``sweep_relax``'s
    support mask does."""
    with np.errstate(divide="ignore"):
        log_a = np.log([program.a for program in programs])
        log_b = np.log([program.b for program in programs])
    alpha = np.array([[program.alpha] for program in programs])
    e = np.array([[1.0 / (1.0 + mu)] for mu, _ in requests])
    q1, q2, w = (np.array([state[j] for _, state in requests], dtype=float) for j in range(3))
    relaxed = [None] * len(programs)
    rows = np.arange(len(programs))
    for _ in range(INNER_MAX_SWEEPS):
        log_w = np.log(w)
        x1 = np.exp(e * log_a + (1.0 - e) * log_w)
        x2 = np.exp(e * log_b + (1.0 - e) * log_w)
        q1n = x1 / x1.sum(axis=1, keepdims=True)
        q2n = x2 / x2.sum(axis=1, keepdims=True)
        wn = (alpha * q1n + q2n) / (1.0 + alpha)
        delta = np.maximum.reduce([
            np.abs(q1n - q1).max(axis=1), np.abs(q2n - q2).max(axis=1), np.abs(wn - w).max(axis=1),
        ])
        q1, q2, w = q1n, q2n, wn
        moving = delta > INNER_TOLERANCE
        if not moving.all():
            for i in np.flatnonzero(~moving):
                relaxed[rows[i]] = (q1[i], q2[i], w[i])
            if not moving.any():
                return relaxed
            # the rows still moving, as arrays of their own
            rows, log_a, log_b, alpha, e, q1, q2, w = (
                x[moving] for x in (rows, log_a, log_b, alpha, e, q1, q2, w)
            )
    raise NonConvergence(
        f"block descent still moving {delta.max()} after {INNER_MAX_SWEEPS} sweeps"
    )


def bisect_bayes_crossings(cases) -> list[float]:
    """``bisect_bayes_crossing`` on each ``(alpha, p1, p2)`` of ``cases``:
    the pairs with the same number of kept symbols run their doublings and
    bisections in lockstep, one :func:`batch_sweep_relax` per round over
    the pairs still searching."""
    results: list[float] = [0.0] * len(cases)
    groups: dict[int, dict[int, _PairProgram]] = {}
    for i, (alpha, p1, p2) in enumerate(cases):
        alpha = _check_alpha(alpha, strict=True)
        _check_classes((p1, p2), "distributions")
        if not _same_pair(p1, p2):
            program = _PairProgram(p1.as_array(), p2.as_array(), alpha)
            groups.setdefault(len(program.a), {})[i] = program
    for programs in groups.values():
        steps = {i: _bisection_steps(program) for i, program in programs.items()}
        pending = {i: next(step) for i, step in steps.items()}
        while pending:
            order = list(pending)
            relaxed = batch_sweep_relax([programs[i] for i in order], [pending[i] for i in order])
            for i, state in zip(order, relaxed):
                try:
                    pending[i] = steps[i].send(state)
                except StopIteration as done:
                    results[i] = done.value
                    del pending[i]
    return results


def bisect_program(program: _PairProgram, budget: float):
    """``program.solve(budget)`` by doubling and bisecting the multiplier."""
    if budget < 0.0:
        raise Infeasible(f"divergence budget {budget} is negative")
    slack0 = program.constraint_value(program.a, program.b)
    if slack0 <= budget:
        return 0.0, program.a.copy(), program.b.copy()
    if not program.common:
        return math.inf, None, None
    if budget == 0.0:
        value, q = program.collapsed()
        return value, q, q.copy()
    mu_lo = 0.0
    mu_hi = 1.0
    state_hi = program.relax(mu_hi, program.start())
    doublings = 0
    while program.constraint_value(state_hi[0], state_hi[1]) > budget:
        mu_lo = mu_hi
        mu_hi *= 2.0
        state_hi = program.relax(mu_hi, state_hi)
        doublings += 1
        if doublings > 200:
            raise NonConvergence("constraint multiplier bracketing diverged")
    while (mu_hi - mu_lo) > RELATIVE_BRACKET_WIDTH * mu_hi:
        mu_mid = 0.5 * (mu_lo + mu_hi)
        state_mid = program.relax(mu_mid, state_hi)
        if program.constraint_value(state_mid[0], state_mid[1]) > budget:
            mu_lo = mu_mid
        else:
            mu_hi, state_hi = mu_mid, state_mid
    q1, q2, _ = state_hi
    value = program.objective_value(q1, q2)
    slack = budget - program.constraint_value(q1, q2)
    gap = mu_hi * slack
    if not (0.0 <= gap <= GAP_BOUND * (1.0 + abs(value))):
        raise NonConvergence(f"duality gap {gap} above the certified bound")
    return value, q1, q2


def illinois_program(program: _PairProgram, budget: float):
    """``program.solve(budget)`` as it was before the joint Newton loop:
    doubling the multiplier from 1, then the shared Illinois search on the
    constraint slack, with a full relaxation at every multiplier tried,
    each started from the last relaxed state, and the feasible end's
    duality gap certified."""
    if budget < 0.0:
        raise Infeasible(f"divergence budget {budget} is negative")
    slack0 = program.constraint_value(program.a, program.b)
    if slack0 <= budget:
        return 0.0, program.a, program.b
    if not program.common:
        return math.inf, None, None
    if budget == 0.0:
        value, q = program.collapsed()
        return value, q, q
    state = program.start()

    def evaluate(mu: float) -> _End:
        nonlocal state
        q1, q2, _ = state = program.relax(mu, state)
        slack = budget - program.constraint_value(q1, q2)
        value = program.objective_value(q1, q2) if slack >= 0.0 else math.inf
        return _End(mu, slack, value, (q1, q2))

    lo, hi = _search(evaluate, *_bracket(evaluate, _End(0.0, budget - slack0, math.inf, None)))
    end = lo if lo.value < math.inf else hi  # lo is feasible only at slack 0
    gap = end.mu * end.excess
    if not (0.0 <= gap <= GAP_BOUND * (1.0 + abs(end.value))):
        raise NonConvergence(f"duality gap {gap} above the certified bound")
    return (end.value, *end.state)


def bisect_chernoff(p, q) -> float:
    """``chernoff`` by bisecting the sign of the slope on [0, 1]."""
    _check_classes((p, q), "distributions")
    pa, qa = p.as_array(), q.as_array()
    common = (pa > 0.0) & (qa > 0.0)
    if not np.any(common):
        return math.inf
    lp = np.log(pa[common])
    lq = np.log(qa[common])

    def derivative(eta: float) -> float:
        terms = np.exp(eta * lp + (1.0 - eta) * lq)
        return float(np.sum(terms * (lp - lq)) / np.sum(terms))

    lo, hi = 0.0, 1.0
    if derivative(lo) >= 0.0:
        eta_star = 0.0
    elif derivative(hi) <= 0.0:
        eta_star = 1.0
    else:
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if derivative(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        eta_star = 0.5 * (lo + hi)
    return -math.log(float(np.sum(np.exp(eta_star * lp + (1.0 - eta_star) * lq))))


def bisect_constrained_kl_min(p_center, p_obj, radius: float) -> float:
    """``constrained_kl_min`` by bisecting the geometric path parameter."""
    _check_classes((p_center, p_obj), "distributions")
    radius = float(radius)
    if radius < 0.0:
        raise Infeasible(f"radius {radius} is negative")
    center = p_center.as_array()
    obj = p_obj.as_array()
    if radius == 0.0:
        return kl_array(center, obj)
    if kl_array(obj, center) <= radius:
        return 0.0
    common = (center > 0.0) & (obj > 0.0)
    if not np.any(common):
        return math.inf
    log_center = np.log(center[common])
    log_obj = np.log(obj[common])

    def point(t: float) -> np.ndarray:
        x = np.exp((1.0 - t) * log_obj + t * log_center)
        v = np.zeros(len(center))
        v[common] = x / x.sum()
        return v

    v0 = point(0.0)
    if kl_array(v0, center) <= radius:
        return kl_array(v0, obj)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if kl_array(point(mid), center) > radius:
            lo = mid
        else:
            hi = mid
    return kl_array(point(hi), obj)
