"""Generalized Jensen-Shannon divergence and related information measures.

All logarithms in this package are natural, so every information quantity is
reported in nats.  For a weight ``alpha >= 0`` and distributions ``p``, ``q``
on one alphabet, the generalized Jensen-Shannon divergence is

    gjs(p, q, alpha) = alpha * D(p || m) + D(q || m),
    m = (alpha * p + q) / (1 + alpha).

It is finite for every pair (the mixture dominates both arguments), equals
twice the classical Jensen-Shannon divergence at ``alpha = 1``, vanishes as
``alpha -> 0``, and tends to ``D(q || p)`` as ``alpha -> inf``; its
derivative in ``alpha`` is ``D(p || m)``, and at ``alpha = 0`` that is
``D(p || q)``.

``gjs``, its derivative and the relative entropy (:func:`kl`, the first
value at ``alpha = 0``), on distributions and on weight sequences, all come
from one evaluator, ``_mixture_divergences``: built once per pair, it maps
``alpha`` to ``(D(p || m), D(q || m))``.  On the common support its
log-ratios are ``log1p`` of the exact difference ``p - q``, so near-identical
pairs keep their digits, except where ``m <= p / 2``, where ``log(m / p)``
comes from the ratio ``q / p``; off it they are ``log1p(1 / alpha)`` (mass
of ``p`` only) and ``log1p(alpha)`` (mass of ``q`` only).  The
threshold-equation solver in :mod:`seqstat.fixedpoint` evaluates the same
function: its no-root gate, its search and its residual all read the one
evaluator of the pair.  The evaluator and :func:`chernoff` are scalar
``math`` loops over the kept symbols (the common support): the package's
alphabets have a handful of symbols, where one numpy call costs more than
the loop's arithmetic; past about 32 symbols numpy would win (README,
"Performance notes").  The relative entropy and the alpha-derivative are
floored at 0, which a near-identical pair's sum can round below.

The entropy form ``(1 + alpha) * H(m) - alpha * H(p) - H(q)`` is the same
quantity, ``(1 + alpha)`` times the mutual information between a mixture
label with prior ``(alpha, 1) / (1 + alpha)`` and the emitted symbol; it
cancels on near-identical pairs and is kept only as
:func:`gjs_mutual_info_form`, on the package's one Shannon entropy,
:func:`entropy`.

``_bracket`` and ``_search``, the package's one bracketed search (doubling
from 1, then an Illinois search safeguarded by bisection, with Newton steps
where the ends carry slopes), live here, below
every module that runs them, with its one width, ``RELATIVE_BRACKET_WIDTH``,
and its one step budget, ``CROSSING_MAX_STEPS``: :func:`chernoff` runs it on
its exponent, :mod:`seqstat.fixedpoint` on the threshold equation, and
:mod:`seqstat.exponents` on the exponent program's multiplier and in
``constrained_kl_min``.  The Bayes crossing's joint Newton steps bisect
their own bracket with the same width and budget.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import NonConvergence, NotInterior
from .probability import Distribution, EmpiricalType, _check_alpha, _check_classes

# Bracketed searches run until the bracket is this narrow relative to its top.
RELATIVE_BRACKET_WIDTH = 1e-13
# Search steps allowed on any bracket (the threshold equation's root, the
# exponent programs' multipliers, the crossing's, the Chernoff exponent's
# eta) before the search raises.  A step that fails to halve the bracket is
# followed by a bisection, so any two steps at least halve it, and 84
# halvings take a bracket of width 1 below RELATIVE_BRACKET_WIDTH times the
# threshold equation's lowest bracket end, fixedpoint.BRACKET_LOW = 1e-12.
CROSSING_MAX_STEPS = 168


# --------------------------------------------------------------------------
# the evaluator, its sequence forms and the bracketed search, shared with the
# solvers
# --------------------------------------------------------------------------

def _mixture_divergences(p: Sequence[float], q: Sequence[float]):
    """``alpha -> (D(p || m), D(q || m))`` with ``m = (alpha * p + q) / (1 + alpha)``.

    On the common support ``log(m / p) = log1p(-(p - q) / ((1 + alpha) p))``
    and ``log(m / q) = log1p(alpha (p - q) / ((1 + alpha) q))``; mass of
    ``p`` only contributes ``log1p(1 / alpha)`` per unit and mass of ``q``
    only ``log1p(alpha)``.  At ``alpha = 0``, where the first value is
    ``D(p || q)``, mass of ``p`` only makes it ``inf``.  Symbols with
    ``m <= p / 2`` take ``log((alpha + q / p) / (1 + alpha))`` instead, which
    keeps the digits of a small ratio that ``1 - (p - q) / ((1 + alpha) p)``
    rounds away.  Both sums are one scalar loop over the kept symbols.
    """
    p_only = q_only = 0.0
    kept = []  # (p, q, (p - q) / p, (p - q) / q) on the common support
    for a, b in zip(p, q):
        if a > 0.0 and b > 0.0:
            diff = a - b
            kept.append((a, b, diff / a, diff / b))
        elif b == 0.0:
            p_only += a
        elif a == 0.0:
            q_only += b

    def divergences(alpha: float) -> tuple[float, float]:
        share = 1.0 / (1.0 + alpha)
        switch = 0.5 * (1.0 + alpha)  # m <= p / 2 exactly where to_p >= switch
        to_m = alpha * share
        d_p = d_q = 0.0
        for a, b, to_p, to_q in kept:
            if to_p < switch:
                d_p += a * math.log1p(-share * to_p)
            else:
                # there 1 - share * to_p has lost the digits of m / p
                d_p += a * math.log((alpha + b / a) / (1.0 + alpha) if alpha > 0.0 else b / a)
            d_q += b * math.log1p(to_m * to_q)
        if alpha > 0.0:
            return p_only * math.log1p(1.0 / alpha) - d_p, q_only * math.log1p(alpha) - d_q
        # m = q
        return (math.inf if p_only else 0.0) - d_p, 0.0

    return divergences


def kl_array(p: Sequence[float], q: Sequence[float]) -> float:
    """D(p || q) >= 0 for raw weight sequences; inf when q misses the support of p."""
    return max(_mixture_divergences(p, q)(0.0)[0], 0.0)


def gjs_array(p: Sequence[float], q: Sequence[float], alpha: float) -> float:
    """gjs on raw weight sequences, for ``alpha >= 0``."""
    if alpha == 0.0:
        return 0.0
    d_p, d_q = _mixture_divergences(p, q)(alpha)
    return alpha * d_p + d_q


def _bhattacharyya(p: Sequence[float], q: Sequence[float]) -> float:
    """``-psi(1/2) = -log sum sqrt(p q)``, the Bhattacharyya bound on the
    Chernoff information (see :func:`chernoff`), ``inf`` on disjoint
    supports; ``sqrt(p) * sqrt(q)`` cannot underflow where ``p * q`` can."""
    total = 0.0
    for a, b in zip(p, q):
        total += math.sqrt(a) * math.sqrt(b)
    return -math.log(total) if total else math.inf


class _End(NamedTuple):
    """One end of a multiplier bracket: the relaxed state at ``mu``, the
    caller's signed excess (growing with ``mu``), the value the caller
    reports at this end, ``inf`` where it reports none, and the excess's
    slope in ``mu`` where the caller has one."""

    mu: float
    excess: float
    value: float
    state: tuple
    slope: float | None = None


def _bracket(evaluate, lo: _End) -> tuple[_End, _End]:
    """Double the multiplier from 1 until the excess is positive.

    The threshold equation starts at ``theta = 1`` and the exponent
    program at ``mu = 1``, block exponent 1/2.  ``lo``, below 1, has excess
    at most 0; ``evaluate(mu, state)`` returns the end at ``mu``, relaxed
    from ``state``: from ``lo``'s state first, then from the previous end,
    which becomes the lower end.  Raises :class:`NonConvergence` when the
    next doubling would overflow.
    """
    hi = evaluate(1.0, lo.state)
    while hi.excess <= 0.0:
        if math.isinf(2.0 * hi.mu):
            raise NonConvergence(f"bracketing overflowed past {hi.mu}, excess still {hi.excess}")
        lo, hi = hi, evaluate(2.0 * hi.mu, hi.state)
    return lo, hi


def _search(evaluate, lo: _End, hi: _End) -> tuple[_End, _End]:
    """Illinois search for the multiplier at which the excess changes sign,
    with Newton steps where the ends carry slopes.

    The excess is at most 0 at ``lo`` and positive at ``hi``;
    ``evaluate(mu, state)`` returns the end at ``mu``, relaxed from
    ``state``.  Each step is a regula falsi step on the ends' excesses,
    with the excess of an end kept twice in a row halved (Illinois),
    clamped strictly inside the bracket and relaxed from the nearer end.
    The excess grows with ``mu``, so every step narrows the bracket and
    lowers the smaller excess magnitude of its ends; a step that halves
    neither is followed by a bisection.  (Regula falsi closing in from one
    side cuts the excess while it leaves the bracket wide, so the width
    alone would call for needless bisections.)  While an end's excess is
    infinite, as the threshold equation's lower end is when ``D(p || q) =
    inf``, regula falsi would land on the other end, so every step there
    is a bisection.  Where the end of smaller excess magnitude has a
    positive finite slope, a step that would be regula falsi's is a Newton
    step from that end instead, if it lands inside the same clamped bracket
    (Press et al., *Numerical Recipes*, 3rd ed., 9.4, ``rtsafe``); it too is
    followed by a bisection unless it halves the bracket or the excess.
    Two callers give slopes: the threshold equation
    (``fixedpoint.solve_fixed_point``, ``D(q || m) / theta^2``) and
    :func:`chernoff` (``psi''``).  Ends without a slope, as in the exponent
    program's slack search and ``constrained_kl_min``, get the Illinois
    steps alone.
    The search returns the final ``(lo, hi)``, from which the caller picks its answer, once an
    end of finite value has its excess within 1e-12 of 0 or the bracket is
    ``RELATIVE_BRACKET_WIDTH`` wide; :class:`NonConvergence` is raised when
    ``CROSSING_MAX_STEPS`` steps end before either.  A caller whose ends all
    have value ``inf`` gets a bracket of that width.
    """
    f_lo, f_hi = lo.excess, hi.excess
    kept = None
    halved = True
    steps = 0
    while True:
        width = hi.mu - lo.mu
        tol = RELATIVE_BRACKET_WIDTH * hi.mu
        if (
            width <= tol
            or (abs(lo.excess) <= 1e-12 and lo.value < math.inf)
            or (abs(hi.excess) <= 1e-12 and hi.value < math.inf)
        ):
            return lo, hi
        if steps == CROSSING_MAX_STEPS:
            raise NonConvergence(
                f"bracketed search unfinished after {steps} steps: "
                f"excess {lo.excess} to {hi.excess}"
            )
        steps += 1
        smaller = min(hi.excess, -lo.excess)
        bisect = not halved or math.isinf(f_hi - f_lo)
        if bisect:
            mu = 0.5 * (lo.mu + hi.mu)
        else:
            # Newton from the end of smaller excess: a missing or zero slope
            # gives NaN, and a negative or infinite one a point at or beyond
            # that end, so only a positive finite slope can pass the clamp
            better = hi if hi.excess <= -lo.excess else lo
            mu = better.mu - better.excess / (better.slope or math.nan)
            if not lo.mu + 0.25 * tol <= mu <= hi.mu - 0.25 * tol:
                mu = hi.mu - f_hi * width / (f_hi - f_lo)
                mu = min(max(mu, lo.mu + 0.25 * tol), hi.mu - 0.25 * tol)
        nearer = lo if mu - lo.mu < hi.mu - mu else hi
        end = evaluate(mu, nearer.state)
        if end.excess > 0.0:
            hi, f_hi = end, end.excess
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo = end, end.excess
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        halved = bisect or hi.mu - lo.mu <= 0.5 * width or abs(end.excess) <= 0.5 * smaller


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def kl(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p || q) in nats: :func:`kl_array` on the stored weights.

    Returns ``inf`` when ``p`` puts mass outside the support of ``q``.
    """
    _check_classes((p, q), "distributions")
    return kl_array(p.weights, q.weights)


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats; zero-weight terms contribute nothing."""
    return -math.fsum(w * math.log(w) for w in p.weights if w > 0.0)


def gjs(p: Distribution, q: Distribution, alpha: float) -> float:
    """Generalized Jensen-Shannon divergence, in nats.

    Finite for every pair of distributions on a common alphabet, including
    boundary ones.  Concave and differentiable in ``alpha``, jointly convex
    in ``(p, q)``.
    """
    _check_classes((p, q), "distributions")
    alpha = _check_alpha(alpha, strict=False)
    return gjs_array(p.weights, q.weights, alpha)


def gjs_alpha_derivative(p: Distribution, q: Distribution, alpha: float) -> float:
    """Partial derivative of ``gjs`` in ``alpha``: D(p || m) >= 0 at the mixture m.

    Requires interior inputs so the derivative is finite and stable.
    """
    _check_classes((p, q), "distributions")
    alpha = _check_alpha(alpha, strict=False)
    if not (p.interior and q.interior):
        raise NotInterior("the alpha-derivative needs interior distributions")
    return max(_mixture_divergences(p.weights, q.weights)(alpha)[0], 0.0)


def gjs_mutual_info_form(p: Distribution, q: Distribution, alpha: float) -> float:
    """gjs written as (1 + alpha) times a label-symbol mutual information.

    The label picks ``p`` with prior ``alpha / (1 + alpha)`` and ``q``
    otherwise; the symbol is emitted by the picked distribution.
    """
    _check_classes((p, q), "distributions")
    alpha = _check_alpha(alpha, strict=False)
    if alpha == 0.0 or p.weights == q.weights:
        return 0.0
    pairs = zip(p.weights, q.weights)
    m = Distribution(p.alphabet, tuple((alpha * a + b) / (1.0 + alpha) for a, b in pairs))
    w1 = alpha / (1.0 + alpha)
    mutual_info = entropy(m) - w1 * entropy(p) - (1.0 - w1) * entropy(q)
    return (1.0 + alpha) * mutual_info


def chernoff(p: Distribution, q: Distribution) -> float:
    """Chernoff information C(p, q) = -min over eta in [0,1] of ln sum p^eta q^(1-eta).

    The sum runs over the common support.  The inner function psi is convex
    in eta; when its slope changes sign inside [0, 1], :func:`_search` finds
    the root of the slope divided by its rise over [0, 1], so that the
    search stops on a relative excess.  With ``t = p^eta q^(1-eta)`` and
    ``r = log(p / q)`` on each symbol, ``psi' = sum t r / sum t`` and
    ``psi'' = sum t r^2 / sum t - psi'^2 >= 0``, the variance of ``r``
    under the normalised ``t``; one loop sums all three, and each end
    carries ``psi''`` over the rise as the slope of its excess, so that the
    search takes Newton steps.  At the root ``psi'`` is near 0, so the
    difference does not cancel there; where rounding leaves it at 0 or
    below, the search takes no Newton step.  Every ``-psi(eta)`` is a lower
    bound on C, and the value is the largest one at the final ends, which is
    an endpoint's own value when the optimum sits there, at ``eta = 1/2``
    (the Bhattacharyya bound ``-log sum sqrt(p q)``), or 0: ``-psi(0) = -ln
    sum q`` over the common support is at least 0, though its rounded sum
    can exceed 1 by an ulp on near-identical pairs.  So the value is never
    below the bound that ``fixedpoint``'s rate gate reads, bit for bit, even
    where rounding, or a slope that has lost its digits, stops the search
    short of the optimum.
    """
    _check_classes((p, q), "distributions")
    # log p, log q and the log-ratio log(p / q) = log1p((p - q) / q) on the
    # common support: the slope's ratio keeps its digits on near-identical
    # pairs, where log p - log q would carry the rounding of both logs.
    # Below p / q = 2^-53 the quotient rounds to -1, outside log1p's domain,
    # and past the largest double it is inf; there log p - log q cancels
    # nothing
    kept = []
    for a, b in zip(p.weights, q.weights):
        if a > 0.0 and b > 0.0:
            log_a, log_b, shift = math.log(a), math.log(b), (a - b) / b
            ratio = math.log1p(shift) if -1.0 < shift < math.inf else log_a - log_b
            kept.append((log_a, log_b, ratio))
    if not kept:
        return math.inf
    rise = 1.0  # psi'(1) - psi'(0), once known, scales every later excess and slope

    def end(eta: float, state=None) -> _End:
        total = first = second = 0.0
        for lp, lq, ratio in kept:
            term = math.exp(eta * lp + (1.0 - eta) * lq)
            total += term
            first += term * ratio
            second += term * ratio * ratio
        mean = first / total  # psi'(eta)
        return _End(eta, mean / rise, -math.log(total), None, (second / total - mean * mean) / rise)

    lo, hi = end(0.0), end(1.0)
    if lo.excess < 0.0 < hi.excess:
        rise = hi.excess - lo.excess
        lo, hi = (e._replace(excess=e.excess / rise, slope=e.slope / rise) for e in (lo, hi))
        lo, hi = _search(end, lo, hi)
    return max(lo.value, hi.value, _bhattacharyya(p.weights, q.weights), 0.0)


def joint_sequence_exponent(t1: EmpiricalType, t2: EmpiricalType, w: Distribution) -> float:
    """Large-deviation exponent of observing the type pair under iid ``w``.

    Equals ``(N/n) * [D(T1 || w) + H(T1)] + D(T2 || w) + H(T2)`` where ``N``
    and ``n`` are the two sequence lengths.  Minimizing over ``w`` lands on
    the ``(N/n)``-mixture of the two types, where the value collapses to
    ``gjs(T1, T2, N/n)`` plus the same entropy terms.  May be ``inf`` when
    ``w`` misses either support.
    """
    _check_classes((t1, t2, w), "types and reference distribution")
    d1 = t1.as_distribution()
    d2 = t2.as_distribution()
    ratio = t1.total / t2.total
    return ratio * (kl(d1, w) + entropy(d1)) + kl(d2, w) + entropy(d2)
