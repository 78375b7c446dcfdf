"""Threshold equations behind the sequential test's stopping behavior.

For a rate ``gamma > 0`` the equation

    gjs(p, q, theta) = gamma * theta

has exactly one root ``theta > 0`` whenever ``gamma < D(p || q)``, because
the left side is concave in ``theta``, vanishes at 0 with slope
``D(p || q)``, and saturates at ``D(q || p)``.  The root fixes both the
error exponent (``gamma * theta``) and the expected-stopping-time scale
(training length divided by the root) of the sequential classifier.
:func:`solve_fixed_point` finds it; its docstring gives the steps.

The reports (:func:`exponent_report`, :func:`multiclass_thetas`) check the
rate against the Chernoff cap and every pair's divergence, and solve every
root, in one rate gate (``_rate_gate``, which gives the account).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import divergence
from .divergence import _End, _bhattacharyya, _bracket, _mixture_divergences, chernoff
from .divergence import gjs, kl  # noqa: F401  (wrapped by name in bench/spans.py)
from .errors import GammaOutOfRange, NoSolution, NonConvergence
from .probability import (
    Distribution, EmpiricalType, _check_alpha, _check_classes, _check_distinct, _check_gamma,
)

# |gjs(p, q, root) - gamma * root| must come out at or below this.
RESIDUAL_BOUND = 1e-10
# Initial lower bracket edge; the root is strictly positive when it exists.
BRACKET_LOW = 1e-12
# Reports flag rates within this distance of the Chernoff cap.
NEAR_CAP_WIDTH = 1e-9


@dataclass(frozen=True)
class FixedPointResult:
    """Root of ``gjs(p, q, theta) = gamma * theta`` with solve diagnostics.

    The excess ``gjs - gamma * theta`` is not negative at ``bracket_low``
    and negative at ``bracket_high``.  ``gjs_at_root`` is ``gjs(p, q,
    theta_star)``, the exponent at the root, and ``residual`` the excess's
    magnitude there, both read from the solve's own evaluator: the bits the
    public ``gjs`` gives.  ``iterations`` counts the excess evaluations of the
    solve: the start's, the doubling's, the loop's, and the sign check at
    ``BRACKET_LOW`` when the bracket ends there.
    """

    theta_star: float
    residual: float
    bracket_low: float
    bracket_high: float
    iterations: int
    gjs_at_root: float


@dataclass(frozen=True)
class ExponentReport:
    """Error exponents of the binary sequential test at rate ``gamma``.

    ``beta_star`` and ``theta_star`` are the roots for the two argument
    orders; the type-I and type-II exponents are the corresponding
    ``gamma * root`` values and the prior-weighted (Bayesian) exponent is
    ``gamma`` itself.
    """

    gamma: float
    beta_star: float
    theta_star: float
    exponent_type1: float
    exponent_type2: float
    bayes_exponent: float
    near_cap: bool


def _rate_gate(dists: list[Distribution], gamma: float, limits: list | None = None):
    """Check ``gamma`` as a rate for the sequential test on ``dists`` and
    solve every root.

    Raises :class:`GammaOutOfRange` when ``gamma`` exceeds the cap, the
    smallest pairwise Chernoff information, by more than 1e-12, or is not
    below every ordered pair's divergence, so that every threshold equation
    has a root; both checks run on every pair before any root is solved.
    The first check starts from each pair's Bhattacharyya bound ``L = -log
    sum sqrt(p q)`` (Cover and Thomas, *Elements of Information Theory*, 2nd
    ed., 11.9), a lower bound on its Chernoff information.  A pair with ``L
    - gamma > NEAR_CAP_WIDTH`` can neither raise nor flag the rate:
    :func:`chernoff` takes this same ``L`` as a candidate, so the computed
    Chernoff information ``C`` is at least the computed ``L``, bit for bit,
    and ``C - gamma`` rounds to at least ``L - gamma``, which leaves no
    rounding for a margin to cover.  Only the other pairs' ``C`` is
    maximised, and the check and the near-cap flag ``cap - gamma <=
    NEAR_CAP_WIDTH`` read the smallest of those, which is the cap wherever
    the exact rule raises or flags: the decision, the flag and the message
    are those of the exact cap.  The second check builds each ordered
    pair's evaluator once and reads ``D(p || q)`` from it at ``alpha = 0``;
    each root's solve reuses it, with the reverse pair's ``D(q || p)`` for
    its start, as :func:`solve_fixed_point`'s private ``_pair``, through
    that module global, which the benchmark's trace wraps.

    ``limits`` is None for a single rate.  A grid's caller passes one list,
    empty at first, to every gate on the same ``dists``.  The gate fills it
    with each unordered pair's ``(L, None)`` and puts in ``C`` in place of
    None once some rate needs it, so that a grid computes each at most
    once.  Returns ``(gamma, near_cap, roots)``, with ``roots[i, j]`` the
    :class:`FixedPointResult` of ``gjs(P(i+1), P(j+1), theta) = gamma *
    theta``.
    """
    gamma = _check_gamma(gamma)
    _check_classes(dists, "distributions")
    unordered = [(p, q) for i, p in enumerate(dists) for q in dists[i + 1 :]]
    if limits is None:
        limits = []
    if not limits:
        limits.extend((_bhattacharyya(p.weights, q.weights), None) for p, q in unordered)
    for k, ((p, q), (bound, cap)) in enumerate(zip(unordered, limits)):
        if cap is None and not bound - gamma > NEAR_CAP_WIDTH:
            limits[k] = bound, chernoff(p, q)
    cap = min((cap for _, cap in limits if cap is not None), default=math.inf)
    if gamma > cap + 1e-12:
        raise GammaOutOfRange(
            f"gamma={gamma} exceeds the smallest pairwise Chernoff information {cap}"
        )
    near_cap = (cap - gamma) <= NEAR_CAP_WIDTH
    pairs = {}
    for i, p in enumerate(dists):
        for j, q in enumerate(dists):
            if i != j:
                divergences = _mixture_divergences(p.weights, q.weights)
                slope_at_zero = divergences(0.0)[0]
                if gamma >= slope_at_zero:
                    divergence = max(slope_at_zero, 0.0)  # as kl reports it
                    raise GammaOutOfRange(
                        f"gamma={gamma} is not below D(P{i + 1}||P{j + 1})={divergence}, "
                        "so the threshold equation has no root"
                    )
                pairs[i, j] = (divergences, slope_at_zero)
    roots = {(i, j): solve_fixed_point(dists[i], dists[j], gamma, (*pair, pairs[j, i][1]))
             for (i, j), pair in pairs.items()}
    return gamma, near_cap, roots


def _certified_start(p: Distribution, q: Distribution, gamma: float) -> float:
    """A start above the root for a pair where ``q`` has mass that ``p``
    lacks, so that ``D(q || p) / gamma`` is infinite.

    ``m >= theta p / (1 + theta)``, so ``D(p || m) <= log1p(1 / theta)``; on
    ``q``'s own mass ``m = q / (1 + theta)``, and on the common support,
    which ``q`` gives mass ``c``, ``m / q <= (1 + theta) / (1 + r theta)``
    with ``r = min(1, min p / q)``.  So ``gjs(p, q, theta) <= g(theta) =
    theta log1p(1 / theta) + log1p(theta) - c log1p(r theta)``, concave,
    rising and 0 at 0, and the excess is positive wherever ``gamma theta >
    g(theta)``, which holds above the bound's root.  ``theta = 2 (1 +
    log1p(2 / gamma)) / gamma`` has ``gamma theta > 1 + log1p(theta) >=
    g(theta)``, and each step ``theta <- g(theta) / gamma`` falls toward
    the bound's root without passing it (floored at ``BRACKET_LOW``, which
    a root below would not pass either).  Three steps take 5.0 to 5.1
    evaluations per solve on the exponent table's zero-weight pairs, against
    8.4 to 8.75 for the doubling from 1 (README, "Performance notes").
    """
    common, r = 0.0, 1.0
    for a, b in zip(p.weights, q.weights):
        if a > 0.0 and b > 0.0:
            common, r = common + b, min(r, a / b)
    theta = 2.0 * (1.0 + math.log1p(2.0 / gamma)) / gamma
    for _ in range(3):
        theta = max((theta * math.log1p(1.0 / theta) + math.log1p(theta)
                     - common * math.log1p(r * theta)) / gamma, BRACKET_LOW)
    return theta


def solve_fixed_point(
    p: Distribution, q: Distribution, gamma: float, _pair: tuple | None = None
) -> FixedPointResult:
    """Find the positive root of ``gjs(p, q, theta) = gamma * theta``.

    Raises :class:`NoSolution` when ``gamma >= D(p || q)``, the exact
    nonexistence condition.  The solve runs on the scaled excess ``F = gamma
    - gjs / theta = gamma - D(p || m) - D(q || m) / theta``, which rises from
    ``gamma - D(p || q)`` at 0, the floor, which needs no evaluation.  In ``u
    = 1 / theta`` it is ``gamma`` less the perspective of the concave ``gjs``
    (Boyd and Vandenberghe, *Convex Optimization*, 3.2.6): convex, of slope
    ``F' = -D(q || m)`` and curvature ``F'' = chi2(q || m) / (1 + u)``,
    which each evaluation returns.  The steps start from ``theta = D(q || p)
    / gamma``, of excess ``gamma (1 - gjs / D(q || p)) > 0``, or, where
    ``q`` has mass that ``p`` lacks, from a bound's start above the root
    (``_certified_start``); where that start's excess rounds to 0 or below,
    the doubling from 1 runs first.  Each step is Halley's in ``u`` from the
    newest end, ``(F / F') / (1 - F F'' / (2 F'^2))`` (Traub, *Iterative
    Methods for the Solution of Equations*, 1964), where that denominator
    is positive, and Newton's ``F / F'`` elsewhere; a step past ``u = 0``
    is a bisection.  A lower chord to the floor replaces a point it
    undercuts (near 0 the excess is almost linear in ``theta``).  A step
    under a quarter of ``RELATIVE_BRACKET_WIDTH`` relative turns into a
    probe half a width past, each later one twice as far, to certify the
    other end; one slow by ``rtsafe``'s test before any probe (Press et al.,
    *Numerical Recipes*, 3rd ed., 9.4), or not a quarter width inside the
    bracket, into a bisection, so the final midpoint, the root, lies
    strictly inside.  The gate, the steps and the residual read one
    evaluator.  Raises :class:`NonConvergence` when the doubling overflows,
    after ``CROSSING_MAX_STEPS`` steps, for a root below ``BRACKET_LOW``, or
    for a residual over ``RESIDUAL_BOUND``.  On the exponent table that is a
    mean of 4.3 evaluations per solve, against 5.8 for Newton's steps alone
    (README, "Performance notes").

    ``_pair`` is private: the evaluator, ``D(p || q)`` and ``D(q || p)`` from
    a rate gate that has checked the classes and ``gamma < D(p || q)``.
    """
    if _pair is None:
        _check_classes((p, q), "distributions")
        gamma = _check_gamma(gamma)
        divergences = _mixture_divergences(p.weights, q.weights)
        slope_at_zero = divergences(0.0)[0]
        if gamma >= slope_at_zero:
            raise NoSolution(
                f"no positive root: gamma={gamma} is not below D(p||q)={slope_at_zero}"
            )
        reverse = _mixture_divergences(q.weights, p.weights)(0.0)[0]
    else:
        divergences, slope_at_zero, reverse = _pair
    evaluations = 0

    def excess(theta: float) -> tuple[float, float, float]:
        # the scaled excess, its slope (NaN at 0) and its curvature in u = 1 / theta
        nonlocal evaluations
        evaluations += 1
        d_p, d_q, curvature = divergences(theta)
        return gamma - d_p - d_q / theta, -d_q or math.nan, curvature

    def end(theta: float) -> _End:
        # an end for the doubling, with the evaluated point as its state
        point = excess(theta)
        return _End(theta, point[0], math.inf, point)

    lo, lo_f = BRACKET_LOW, gamma - slope_at_zero  # the floor, from the gate's D(p || q)
    hi = reverse / gamma if reverse < math.inf else _certified_start(p, q, gamma)
    hi_f, slope, curvature = excess(hi) if 0.0 < hi < math.inf else (lo_f, None, None)
    if not hi_f > 0.0:
        low, high = _bracket(end, _End(lo, lo_f, math.inf, None))
        lo, lo_f, hi, (hi_f, slope, curvature) = low.mu, low.excess, high.mu, high.state
    newest, f, reach, moves, steps = hi, hi_f, 0.5, (math.inf, math.inf), 0
    while (span := hi - lo) > divergence.RELATIVE_BRACKET_WIDTH * hi:
        if steps == divergence.CROSSING_MAX_STEPS:
            raise NonConvergence(f"threshold root unfinished after {steps} steps")
        steps += 1
        width = divergence.RELATIVE_BRACKET_WIDTH * newest
        # Halley in u from the newest end where its correction is positive,
        # else Newton (NaN past u = 0, so bisected), or the floor chord if lower
        ratio = f / slope
        correction = 1.0 - 0.5 * ratio * curvature / slope
        if correction > 0.0:
            ratio /= correction
        denominator = 1.0 - newest * ratio
        theta = newest / denominator if denominator > 0.0 else math.nan
        if lo == BRACKET_LOW:
            theta = min(theta, hi - hi_f * span / (hi_f - lo_f))
        if abs(theta - newest) <= 0.25 * width:
            theta += (reach if newest == lo else -reach) * width  # a probe
            reach *= 2.0
        slow = reach == 0.5 and not abs(theta - newest) <= 0.5 * moves[0]  # rtsafe's test
        if slow or not lo + 0.25 * width <= theta <= hi - 0.25 * width:
            theta = 0.5 * (lo + hi)
        moves, newest = (moves[1], abs(theta - newest)), theta
        f, slope, curvature = excess(theta)
        if f > 0.0:
            hi, hi_f = theta, f
        else:
            lo, lo_f = theta, f
    if lo == BRACKET_LOW and excess(BRACKET_LOW)[0] > 0.0:
        raise NonConvergence(f"the root lies below BRACKET_LOW={BRACKET_LOW}")
    theta = 0.5 * (lo + hi)
    d_p, d_q, _ = divergences(theta)
    value = theta * d_p + d_q
    residual = abs(value - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo, hi, evaluations, value)


def exponent_report(
    p1: Distribution, p2: Distribution, gamma: float, *, _limits: list | None = None
) -> ExponentReport:
    """Exponent summary for the binary sequential test at rate ``gamma``.

    Valid rates are ``0 < gamma <= chernoff(p1, p2)`` with ``gamma`` below
    both ``D(p1 || p2)`` and ``D(p2 || p1)``, so that both roots exist.  The
    Chernoff information never exceeds either divergence; it equals one of
    them when a distribution is proportional to the other on its own
    support (a point mass, for instance), and the cap itself is then out of
    range.  Out-of-range rates raise :class:`GammaOutOfRange` before any
    root is solved; so does ``gamma = inf``, the Chernoff information of
    two distributions with disjoint supports, while NaN, zero and negative
    rates raise :class:`NonPositiveGamma`.  The report flags rates within
    ``NEAR_CAP_WIDTH`` of the cap.  The rate gate (``_rate_gate``) decides
    most rates from the Bhattacharyya bound, with the decision, flag and
    message of the exact :func:`chernoff`, and solves both roots; the
    exponents are each root's ``gjs_at_root``.

    ``_limits`` is private: the list a grid of rates on the same pair hands
    to every gate (see ``_rate_gate``).
    """
    gamma, near_cap, roots = _rate_gate([p1, p2], gamma, _limits)
    beta, theta = roots[1, 0], roots[0, 1]
    return ExponentReport(
        gamma=gamma,
        beta_star=beta.theta_star,
        theta_star=theta.theta_star,
        exponent_type1=beta.gjs_at_root,
        exponent_type2=theta.gjs_at_root,
        bayes_exponent=gamma,
        near_cap=near_cap,
    )


def multiclass_thetas(
    dists: list[Distribution], gamma: float, *, _limits: list | None = None
) -> np.ndarray:
    """Matrix of pairwise roots for the multiclass sequential test.

    Entry ``(i, j)``, for ``i != j``, is the root of
    ``gjs(dists[j], dists[i], theta) = gamma * theta``; the diagonal is NaN.
    Requires ``0 < gamma <= min pairwise chernoff`` and ``gamma`` below every
    pairwise divergence, so every entry exists (see :func:`exponent_report`).
    ``_limits`` is private, as in :func:`exponent_report`.
    """
    _check_distinct(dists)
    gamma, _, roots = _rate_gate(dists, gamma, _limits)
    out = np.full((len(dists), len(dists)), math.nan)
    for (i, j), root in roots.items():
        out[j, i] = root.theta_star
    return out


def empirical_fixed_point(
    t: EmpiricalType, q: Distribution, gamma: float, fallback: float = 1.0
) -> float:
    """Root of the threshold equation with an empirical type as first slot.

    When ``D(T || q) <= gamma`` no positive root exists and ``fallback`` is
    returned; any positive constant works there because the plug-in root
    only matters on the event that the empirical type stays close to its
    source, which forces the root to exist.  A ``fallback`` that is not a
    finite number above 0 raises :class:`NegativeAlpha`, whether or not the
    root exists.
    """
    fallback = _check_alpha(fallback, strict=True, what="fallback")
    try:
        return solve_fixed_point(t.as_distribution(), q, gamma).theta_star
    except NoSolution:
        return fallback
