"""Threshold equations behind the sequential test's stopping behavior.

For a rate ``gamma > 0`` the equation

    gjs(p, q, theta) = gamma * theta

has exactly one root ``theta > 0`` whenever ``gamma < D(p || q)``, because
the left side is concave in ``theta``, vanishes at 0 with slope
``D(p || q)``, and saturates at ``D(q || p)``.  The root fixes both the
error exponent (``gamma * theta``) and the expected-stopping-time scale
(training length divided by the root) of the sequential classifier.

The solver brackets the root by doubling from ``theta = 1`` and narrows the
bracket with a safeguarded Newton iteration on the excess ``gjs - gamma *
theta`` and its slope ``D(p || m) - gamma``.  Both come from the pair's
``(D(p || m), D(q || m))`` as the one evaluator in
:mod:`seqstat.divergence` returns them, so the root solves the equation the
public ``gjs`` evaluates.  Concavity makes every Newton step from the
bracket top land between the root and the top, so the iterates descend
monotonically; a probe just left of the Newton root then closes the bracket
from below.  A step that fails to halve the bracket is followed by a
bisection, so any two steps at least halve it and ``MAX_REFINE_STEPS``
bounds every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _mixture_divergences, chernoff, gjs
from .errors import GammaOutOfRange, NoSolution, NonConvergence
from .probability import Distribution, EmpiricalType, _check_distinct, _check_gamma, _check_pair, kl

# The root's bracket is narrowed until it is this narrow relative to its top.
RELATIVE_BRACKET_WIDTH = 1e-13
# Refinement steps allowed after the doubling.  Any two consecutive steps at
# least halve the bracket, and 84 halvings take a bracket of width 1 below
# RELATIVE_BRACKET_WIDTH * BRACKET_LOW, so a finished solve never needs more.
MAX_REFINE_STEPS = 168
# |gjs(p, q, root) - gamma * root| must come out at or below this.
RESIDUAL_BOUND = 1e-10
# Initial lower bracket edge; the root is strictly positive when it exists.
BRACKET_LOW = 1e-12
# Reports flag rates within this distance of the Chernoff cap.
NEAR_CAP_WIDTH = 1e-9


@dataclass(frozen=True)
class FixedPointResult:
    """Root of ``gjs(p, q, theta) = gamma * theta`` with solve diagnostics.

    The excess ``gjs - gamma * theta`` is positive at ``bracket_low`` and not
    positive at ``bracket_high``, and ``residual`` is the public ``gjs``'s
    excess at ``theta_star``.  ``iterations`` counts the excess evaluations
    of the solve: the doubling's (``theta = 1`` included), the Newton,
    probe and bisection steps, and the sign check at ``BRACKET_LOW`` when
    the bracket ends there.
    """

    theta_star: float
    residual: float
    bracket_low: float
    bracket_high: float
    iterations: int


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


def _check_below_divergences(dists: list[Distribution], gamma: float) -> None:
    """Reject ``gamma`` unless every ordered pair of ``dists`` has a root."""
    for i, p in enumerate(dists):
        for j, q in enumerate(dists):
            if i != j and gamma >= kl(p, q):
                raise GammaOutOfRange(
                    f"gamma={gamma} is not below D(P{i + 1}||P{j + 1})={kl(p, q)}, "
                    "so the threshold equation has no root"
                )


def solve_fixed_point(p: Distribution, q: Distribution, gamma: float) -> FixedPointResult:
    """Find the positive root of ``gjs(p, q, theta) = gamma * theta``.

    Raises :class:`NoSolution` when ``gamma >= D(p || q)``, the exact
    nonexistence condition.  The root is bracketed by doubling from
    ``theta = 1``; a safeguarded Newton iteration then narrows the bracket
    to a relative width of ``RELATIVE_BRACKET_WIDTH`` (see the module
    docstring), one evaluation of the pair's divergences per step.  The
    result carries the bracket's certified signs and the residual of the
    public :func:`gjs` (see :class:`FixedPointResult`).  Raises
    :class:`NonConvergence` when the doubling overflows, when the
    refinement takes more than ``MAX_REFINE_STEPS`` steps, when the root
    lies below ``BRACKET_LOW``, or when the residual exceeds
    ``RESIDUAL_BOUND``.
    """
    _check_pair(p, q)
    gamma = _check_gamma(gamma)
    slope_at_zero = kl(p, q)
    if gamma >= slope_at_zero:
        raise NoSolution(
            f"no positive root: gamma={gamma} is not below D(p||q)={slope_at_zero}"
        )
    divergences = _mixture_divergences(p.as_array(), q.as_array())

    def excess(theta: float) -> tuple[float, float]:
        # the excess gjs - gamma * theta and its slope D(p || m) - gamma
        d_p, d_q = divergences(theta)
        return theta * d_p + d_q - gamma * theta, d_p - gamma

    lo, hi = BRACKET_LOW, 1.0
    value, slope = excess(hi)
    iterations = 1
    while value > 0.0:
        lo, hi = hi, 2.0 * hi
        if math.isinf(hi):
            raise NonConvergence("root bracketing did not terminate")
        value, slope = excess(hi)
        iterations += 1
    # The excess is concave, so a Newton step from hi (right of the root)
    # lands between the root and hi.  Once that step is under 3/4 of the
    # target width tol, a probe 3/4 tol below hi, left of the root, closes
    # the bracket from below.  Newton points stay tol / 4 clear of lo, so
    # the final bracket always holds its midpoint strictly inside.
    halved = True
    for _ in range(MAX_REFINE_STEPS):
        width = hi - lo
        tol = RELATIVE_BRACKET_WIDTH * hi
        if width <= tol:
            break
        bisect = not (halved and slope < 0.0)
        if bisect:
            x = 0.5 * (lo + hi)
        else:
            x = max(hi - max(value / slope, 0.75 * tol), lo + 0.25 * tol)
        fx, dx = excess(x)
        iterations += 1
        if fx > 0.0:
            lo = x
        else:
            hi, value, slope = x, fx, dx
        halved = bisect or hi - lo <= 0.5 * width
    else:
        if hi - lo > RELATIVE_BRACKET_WIDTH * hi:
            raise NonConvergence(
                f"fixed-point bracket still {hi - lo} wide after {MAX_REFINE_STEPS} steps"
            )
    if lo == BRACKET_LOW:
        iterations += 1
        if excess(lo)[0] <= 0.0:
            raise NonConvergence(f"the root lies below BRACKET_LOW={BRACKET_LOW}")
    theta = 0.5 * (lo + hi)
    residual = abs(gjs(p, q, theta) - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo, hi, iterations)


def exponent_report(p1: Distribution, p2: Distribution, gamma: float) -> ExponentReport:
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
    ``NEAR_CAP_WIDTH`` of the cap.
    """
    gamma = _check_gamma(gamma)
    cap = chernoff(p1, p2)
    if gamma > cap + 1e-12:
        raise GammaOutOfRange(
            f"gamma={gamma} exceeds the Chernoff information {cap} of the pair"
        )
    _check_below_divergences([p1, p2], gamma)
    beta = solve_fixed_point(p2, p1, gamma)
    theta = solve_fixed_point(p1, p2, gamma)
    return ExponentReport(
        gamma=gamma,
        beta_star=beta.theta_star,
        theta_star=theta.theta_star,
        exponent_type1=gjs(p2, p1, beta.theta_star),
        exponent_type2=gjs(p1, p2, theta.theta_star),
        bayes_exponent=gamma,
        near_cap=(cap - gamma) <= NEAR_CAP_WIDTH,
    )


def multiclass_thetas(dists: list[Distribution], gamma: float) -> np.ndarray:
    """Matrix of pairwise roots for the multiclass sequential test.

    Entry ``(i, j)``, for ``i != j``, is the root of
    ``gjs(dists[j], dists[i], theta) = gamma * theta``; the diagonal is NaN.
    Requires ``0 < gamma <= min pairwise chernoff`` and ``gamma`` below every
    pairwise divergence, so every entry exists (see :func:`exponent_report`).
    """
    gamma = _check_gamma(gamma)
    m = len(dists)
    if m < 2:
        raise GammaOutOfRange("need at least two distributions")
    _check_distinct(dists)
    cap = min(
        chernoff(dists[i], dists[j]) for i in range(m) for j in range(i + 1, m)
    )
    if gamma > cap + 1e-12:
        raise GammaOutOfRange(
            f"gamma={gamma} exceeds the smallest pairwise Chernoff information {cap}"
        )
    _check_below_divergences(dists, gamma)
    out = np.full((m, m), math.nan)
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = solve_fixed_point(dists[j], dists[i], gamma).theta_star
    return out


def empirical_fixed_point(
    t: EmpiricalType, q: Distribution, gamma: float, fallback: float = 1.0
) -> float:
    """Root of the threshold equation with an empirical type as first slot.

    When ``D(T || q) <= gamma`` no positive root exists and ``fallback`` is
    returned; any positive constant works there because the plug-in root
    only matters on the event that the empirical type stays close to its
    source, which forces the root to exist.
    """
    gamma = _check_gamma(gamma)
    t_dist = t.as_distribution()
    if kl(t_dist, q) > gamma:
        return solve_fixed_point(t_dist, q, gamma).theta_star
    return float(fallback)
