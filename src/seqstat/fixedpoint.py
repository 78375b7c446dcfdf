"""Threshold equations behind the sequential test's stopping behavior.

For a rate ``gamma > 0`` the equation

    gjs(p, q, theta) = gamma * theta

has exactly one root ``theta > 0`` whenever ``gamma < D(p || q)``, because
the left side is concave in ``theta``, vanishes at 0 with slope
``D(p || q)``, and saturates at ``D(q || p)``.  The root fixes both the
error exponent (``gamma * theta``) and the expected-stopping-time scale
(training length divided by the root) of the sequential classifier.

The solver searches on the scaled excess ``(gamma * theta - gjs) / theta =
gamma - D(p || m) - D(q || m) / theta``, which rises with ``theta`` from
``gamma - D(p || q)`` at 0, so the lower end needs no evaluation.  It
brackets the root by doubling from ``theta = 1`` and narrows the bracket
with the package's one bracketed search (``_bracket`` and ``_search`` in
:mod:`seqstat.divergence`).  Both divergences come from the one evaluator
in :mod:`seqstat.divergence`, so the root solves the equation the public
``gjs`` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _End, _bracket, _mixture_divergences, _search, chernoff, gjs
from .errors import GammaOutOfRange, NoSolution, NonConvergence
from .probability import Distribution, EmpiricalType, _check_distinct, _check_gamma, _check_pair, kl

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
    and negative at ``bracket_high``, and ``residual`` is the public
    ``gjs``'s excess at ``theta_star``.  ``iterations`` counts the excess
    evaluations of the solve: the doubling's (``theta = 1`` included), the
    search's, and the sign check at ``BRACKET_LOW`` when the bracket ends
    there.
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


def _rate_gate(
    dists: list[Distribution], gamma: float, cap: float | None = None
) -> tuple[float, float]:
    """Check ``gamma`` as a rate for the sequential test on ``dists``.

    Returns ``(gamma, cap)`` with ``cap`` the smallest pairwise Chernoff
    information, computed here unless a gate on the same ``dists`` earlier
    in the call returned it.  Raises :class:`GammaOutOfRange` when ``gamma``
    exceeds the cap or is not below every ordered pair's divergence, so that
    every threshold equation has a root; see :func:`exponent_report`.
    """
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


def solve_fixed_point(p: Distribution, q: Distribution, gamma: float) -> FixedPointResult:
    """Find the positive root of ``gjs(p, q, theta) = gamma * theta``.

    Raises :class:`NoSolution` when ``gamma >= D(p || q)``, the exact
    nonexistence condition.  The root is bracketed by doubling from
    ``theta = 1`` and the bracket narrowed to a relative width of
    ``RELATIVE_BRACKET_WIDTH`` by the shared search (see the module
    docstring), one evaluation of the pair's divergences per step.  The
    result carries the bracket's certified signs and the residual of the
    public :func:`gjs` (see :class:`FixedPointResult`).  Raises
    :class:`NonConvergence` when the doubling overflows, when the search
    takes more than ``CROSSING_MAX_STEPS`` steps, when the root lies below
    ``BRACKET_LOW``, or when the residual exceeds ``RESIDUAL_BOUND``.
    """
    _check_pair(p, q)
    gamma = _check_gamma(gamma)
    slope_at_zero = kl(p, q)
    if gamma >= slope_at_zero:
        raise NoSolution(
            f"no positive root: gamma={gamma} is not below D(p||q)={slope_at_zero}"
        )
    divergences = _mixture_divergences(p.as_array(), q.as_array())
    evaluations = 0

    def end(theta: float, state=None) -> _End:
        # the scaled excess (gamma * theta - gjs) / theta; no value to report
        nonlocal evaluations
        evaluations += 1
        d_p, d_q = divergences(theta)
        return _End(theta, gamma - d_p - d_q / theta, math.inf, None)

    floor = _End(BRACKET_LOW, gamma - slope_at_zero, math.inf, None)
    lo, hi = _search(end, *_bracket(end, floor))
    if lo.mu == BRACKET_LOW and end(BRACKET_LOW).excess > 0.0:
        raise NonConvergence(f"the root lies below BRACKET_LOW={BRACKET_LOW}")
    theta = 0.5 * (lo.mu + hi.mu)
    residual = abs(gjs(p, q, theta) - gamma * theta)
    if residual > RESIDUAL_BOUND:
        raise NonConvergence(f"fixed-point residual {residual} exceeds {RESIDUAL_BOUND}")
    return FixedPointResult(theta, residual, lo.mu, hi.mu, evaluations)


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
    return _exponent_report(p1, p2, gamma)[0]


def _exponent_report(
    p1: Distribution, p2: Distribution, gamma: float, cap: float | None = None
) -> tuple[ExponentReport, float]:
    """:func:`exponent_report` and the cap, for the next rate of a grid."""
    gamma, cap = _rate_gate([p1, p2], gamma, cap)
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


def multiclass_thetas(dists: list[Distribution], gamma: float) -> np.ndarray:
    """Matrix of pairwise roots for the multiclass sequential test.

    Entry ``(i, j)``, for ``i != j``, is the root of
    ``gjs(dists[j], dists[i], theta) = gamma * theta``; the diagonal is NaN.
    Requires ``0 < gamma <= min pairwise chernoff`` and ``gamma`` below every
    pairwise divergence, so every entry exists (see :func:`exponent_report`).
    """
    return _multiclass_thetas(dists, gamma)[0]


def _multiclass_thetas(
    dists: list[Distribution], gamma: float, cap: float | None = None
) -> tuple[np.ndarray, float]:
    """:func:`multiclass_thetas` and the cap, for the next rate of a grid."""
    m = len(dists)
    if m < 2:
        raise GammaOutOfRange("need at least two distributions")
    _check_distinct(dists)
    gamma, cap = _rate_gate(dists, gamma, cap)
    out = np.full((m, m), math.nan)
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = solve_fixed_point(dists[j], dists[i], gamma).theta_star
    return out, cap


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
