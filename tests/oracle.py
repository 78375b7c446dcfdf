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

``bisect_fixed_point`` is the bisection that ``seqstat.fixedpoint`` first
replaced by a safeguarded Newton iteration and now by the shared Illinois
search: it halves the bracket on the sign of the validated public ``gjs``
until the bracket is ``RELATIVE_BRACKET_WIDTH`` wide.

``gjs_kl_form`` and ``gjs_entropy_form`` are the two forms the public
``gjs`` chose between before one ``log1p`` evaluator replaced both: the
relative-entropy form with ``log(p / m)`` ratios, and the entropy form
``(1 + alpha) H(m) - alpha H(p) - H(q)``, which cancels on near-identical
pairs.

``binary_fixed_length_errors`` is the exact error probability of the binary
fixed-length test on a two-symbol alphabet: the rule reads only class 1's
score, so each hypothesis's error is a finite sum over the training count
of class 1 and the test count, with binomial weights.

``sweep_relax`` and ``bisect_bayes_crossing`` are the plain block-descent
relaxation and the multiplier bisection that the damped Newton relaxation
and the Illinois search in ``seqstat.exponents`` replaced: ``sweep_relax``
repeats the sweep until one moves no coordinate more than
``INNER_TOLERANCE`` (alternating minimization, which shares no arithmetic
with Newton steps on the reduced Lagrangian), and the crossing halves the
multiplier bracket, warm-starting every relaxation from its upper end.

``bisect_program`` is the multiplier bisection that the same Illinois search
replaced in ``_PairProgram.solve``: it doubles and then halves the
multiplier on the sign of the constraint slack, with the program's own
damped Newton relaxations warm-started from the upper end, until the
bracket is ``RELATIVE_BRACKET_WIDTH`` wide, and certifies the upper end's
duality gap.

``bisect_chernoff`` and ``bisect_constrained_kl_min`` are the bisections
that the same search, now in ``seqstat.divergence``, replaced in
``chernoff`` and ``constrained_kl_min``: the first halves [0, 1] on the
sign of the slope of ``ln sum p^eta q^(1-eta)`` until the bracket is 1e-12
wide and takes the value at its midpoint; the second halves the geometric
path parameter on the sign of ``D(V_t || center) - radius`` until the
bracket is 1e-14 wide and takes the value at its upper end.
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
from seqstat.divergence import CROSSING_MAX_STEPS, RELATIVE_BRACKET_WIDTH, kl_array
from seqstat.exponents import (
    GAP_BOUND,
    INNER_MAX_SWEEPS,
    INNER_TOLERANCE,
    _PairProgram,
    _check_alpha,
)
from seqstat.errors import (
    AlphabetMismatch,
    Infeasible,
    LengthMismatch,
    NoSolution,
    NonConvergence,
    StreamExhausted,
)
from seqstat.fixedpoint import BRACKET_LOW, RESIDUAL_BOUND, FixedPointResult, _check_gamma
from seqstat.probability import _check_pair, _same_pair

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


def sweep_relax(program: _PairProgram, mu: float, state):
    """Plain block descent on ``program``'s Lagrangian at multiplier ``mu``."""
    q1, q2, w = state
    e = 1.0 / (1.0 + mu)
    supp_a = program.a > 0.0
    supp_b = program.b > 0.0
    log_a = np.log(program.a[supp_a])
    log_b = np.log(program.b[supp_b])
    k = len(program.a)
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


def bisect_bayes_crossing(alpha: float, p1, p2) -> float:
    """``gutman_bayes_exponent`` by doubling and bisecting the multiplier."""
    alpha = _check_alpha(alpha, strict=True)
    _check_pair(p1, p2)
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


def bisect_chernoff(p, q) -> float:
    """``chernoff`` by bisecting the sign of the slope on [0, 1]."""
    _check_pair(p, q)
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
    _check_pair(p_center, p_obj)
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
