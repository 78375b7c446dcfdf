"""Generalized Jensen-Shannon divergence and related information measures.

For a weight ``alpha >= 0`` and distributions ``p``, ``q`` on one alphabet,
the generalized Jensen-Shannon divergence is

    gjs(p, q, alpha) = alpha * D(p || m) + D(q || m),
    m = (alpha * p + q) / (1 + alpha).

It is finite for every pair (the mixture dominates both arguments), equals
twice the classical Jensen-Shannon divergence at ``alpha = 1``, vanishes as
``alpha -> 0``, and tends to ``D(q || p)`` as ``alpha -> inf``; its
derivative in ``alpha`` is ``D(p || m)``, and at ``alpha = 0`` that is
``D(p || q)``.

``gjs``, its derivative and the relative entropy, on distributions and on
raw weight arrays, all come from one evaluator, ``_mixture_divergences``:
built once per pair, it maps ``alpha`` to ``(D(p || m), D(q || m))``.  On the common support its
log-ratios are ``log1p`` of the exact difference ``p - q``, so near-identical
pairs keep their digits, except where ``m <= p / 2``, where ``log(m / p)``
comes from the ratio ``q / p``; off it they are ``log1p(1 / alpha)`` (mass
of ``p`` only) and ``log1p(alpha)`` (mass of ``q`` only).  The
threshold-equation solver in :mod:`seqstat.fixedpoint` evaluates the same
function.

The entropy form ``(1 + alpha) * H(m) - alpha * H(p) - H(q)`` is the same
quantity, ``(1 + alpha)`` times the mutual information between a mixture
label with prior ``(alpha, 1) / (1 + alpha)`` and the emitted symbol; it
cancels on near-identical pairs and is kept only as
:func:`gjs_mutual_info_form`.

``_bracket`` and ``_search``, the package's one bracketed search (doubling
from 1, then an Illinois search safeguarded by bisection), live here, below
every module that runs them, with its one width, ``RELATIVE_BRACKET_WIDTH``,
and its one step budget, ``CROSSING_MAX_STEPS``: :func:`chernoff` runs it on
its exponent, :mod:`seqstat.fixedpoint` on the threshold equation, and
:mod:`seqstat.exponents` on its multiplier and in ``constrained_kl_min``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import AlphabetMismatch, NonConvergence, NotInterior
from .probability import Distribution, EmpiricalType, _check_alpha, _check_pair, entropy, kl

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
# the evaluator, its array forms and the bracketed search, shared with the
# solvers
# --------------------------------------------------------------------------

def _mixture_divergences(p: np.ndarray, q: np.ndarray):
    """``alpha -> (D(p || m), D(q || m))`` with ``m = (alpha * p + q) / (1 + alpha)``.

    On the common support ``log(m / p) = log1p(-(p - q) / ((1 + alpha) p))``
    and ``log(m / q) = log1p(alpha (p - q) / ((1 + alpha) q))``; mass of
    ``p`` only contributes ``log1p(1 / alpha)`` per unit and mass of ``q``
    only ``log1p(alpha)``.  At ``alpha = 0``, where the first value is
    ``D(p || q)``, mass of ``p`` only makes it ``inf``.  Symbols with
    ``m <= p / 2`` take ``log((alpha + q / p) / (1 + alpha))`` instead, which
    keeps the digits of a small ratio that ``1 - (p - q) / ((1 + alpha) p)``
    rounds away; one comparison with the pair's largest ``(p - q) / p`` skips them
    when no symbol needs it.
    """
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
            # m = q
            p_tail = math.inf if p_only else 0.0
            d_q = 0.0
        switch = 0.5 * (1.0 + alpha)  # m <= p / 2 exactly where to_p >= switch
        if far_to_p < switch:
            log_m_p = np.log1p(-share * to_p)
        else:
            # there 1 - share * to_p has lost the digits of m / p
            near = to_p < switch
            log_m_p = np.log((alpha + q / p) / (1.0 + alpha) if alpha > 0.0 else q / p)
            log_m_p[near] = np.log1p(-share * to_p[near])
        return p_tail - float(p @ log_m_p), d_q

    return divergences


def kl_array(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) for raw weight arrays; inf when q misses the support of p."""
    return _mixture_divergences(p, q)(0.0)[0]


def gjs_array(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """gjs on raw weight arrays, for ``alpha >= 0``."""
    if alpha == 0.0:
        return 0.0
    d_p, d_q = _mixture_divergences(p, q)(alpha)
    return alpha * d_p + d_q


def _entropy_array(p: np.ndarray) -> float:
    mask = p > 0.0
    pm = p[mask]
    return float(-np.sum(pm * np.log(pm)))


class _End(NamedTuple):
    """One end of a multiplier bracket: the relaxed state at ``mu``, the
    caller's signed excess (growing with ``mu``) and the value the caller
    reports at this end, ``inf`` where it reports none."""

    mu: float
    excess: float
    value: float
    state: tuple


def _bracket(evaluate, lo: _End) -> tuple[_End, _End]:
    """Double the multiplier from 1 until the excess is positive.

    Every caller starts at 1: ``theta = 1`` for the threshold equation, and
    ``mu = 1``, block exponent 1/2, for the exponent program.  ``lo`` has
    excess at most 0; ``evaluate(mu, state)`` returns the end at ``mu``,
    relaxed from ``state``: from ``lo``'s state first, then from the
    previous end, which becomes the lower end.  Raises
    :class:`NonConvergence` when the next doubling would overflow.
    """
    hi = evaluate(1.0, lo.state)
    while hi.excess <= 0.0:
        if math.isinf(2.0 * hi.mu):
            raise NonConvergence(f"bracketing overflowed past {hi.mu}, excess still {hi.excess}")
        lo, hi = hi, evaluate(2.0 * hi.mu, hi.state)
    return lo, hi


def _search(evaluate, lo: _End, hi: _End) -> tuple[_End, _End]:
    """Illinois search for the multiplier at which the excess changes sign.

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
    is a bisection.  The search returns the
    final ``(lo, hi)``, from which the caller picks its answer, once an end
    of finite value has its excess within 1e-12 of 0 or the bracket is
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

def gjs(p: Distribution, q: Distribution, alpha: float) -> float:
    """Generalized Jensen-Shannon divergence, in nats.

    Finite for every pair of distributions on a common alphabet, including
    boundary ones.  Concave and differentiable in ``alpha``, jointly convex
    in ``(p, q)``.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha, strict=False)
    return gjs_array(p.as_array(), q.as_array(), alpha)


def gjs_alpha_derivative(p: Distribution, q: Distribution, alpha: float) -> float:
    """Partial derivative of ``gjs`` in ``alpha``: D(p || m) at the mixture m.

    Requires interior inputs so the derivative is finite and stable.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha, strict=False)
    if not (p.interior and q.interior):
        raise NotInterior("the alpha-derivative needs interior distributions")
    return _mixture_divergences(p.as_array(), q.as_array())(alpha)[0]


def gjs_mutual_info_form(p: Distribution, q: Distribution, alpha: float) -> float:
    """gjs written as (1 + alpha) times a label-symbol mutual information.

    The label picks ``p`` with prior ``alpha / (1 + alpha)`` and ``q``
    otherwise; the symbol is emitted by the picked distribution.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha, strict=False)
    if alpha == 0.0 or p.weights == q.weights:
        return 0.0
    pa, qa = p.as_array(), q.as_array()
    m = (alpha * pa + qa) / (1.0 + alpha)
    w1 = alpha / (1.0 + alpha)
    mutual_info = _entropy_array(m) - w1 * _entropy_array(pa) - (1.0 - w1) * _entropy_array(qa)
    return (1.0 + alpha) * mutual_info


def chernoff(p: Distribution, q: Distribution) -> float:
    """Chernoff information C(p, q) = -min over eta in [0,1] of ln sum p^eta q^(1-eta).

    The sum runs over the common support.  The inner function psi is convex
    in eta; when its slope changes sign inside [0, 1], :func:`_search` finds
    the root of the slope divided by its rise over [0, 1], so that the
    search stops on a relative excess.  Every ``-psi(eta)`` is a lower bound
    on C, and the value is the larger one at the final ends, which is an
    endpoint's own value when the optimum sits there.
    """
    _check_pair(p, q)
    pa, qa = p.as_array(), q.as_array()
    common = (pa > 0.0) & (qa > 0.0)
    if not np.any(common):
        return math.inf
    lp = np.log(pa[common])
    lq = np.log(qa[common])
    rise = 1.0  # the endpoints' raw slopes set the scale of every later one

    def end(eta: float, state=None) -> _End:
        terms = np.exp(eta * lp + (1.0 - eta) * lq)
        total = float(np.sum(terms))
        return _End(eta, float(np.sum(terms * (lp - lq))) / total / rise, -math.log(total), None)

    lo, hi = end(0.0), end(1.0)
    if lo.excess < 0.0 < hi.excess:
        rise = hi.excess - lo.excess
        lo = lo._replace(excess=lo.excess / rise)
        lo, hi = _search(end, lo, hi._replace(excess=hi.excess / rise))
    return max(lo.value, hi.value)


def joint_sequence_exponent(t1: EmpiricalType, t2: EmpiricalType, w: Distribution) -> float:
    """Large-deviation exponent of observing the type pair under iid ``w``.

    Equals ``(N/n) * [D(T1 || w) + H(T1)] + D(T2 || w) + H(T2)`` where ``N``
    and ``n`` are the two sequence lengths.  Minimizing over ``w`` lands on
    the ``(N/n)``-mixture of the two types, where the value collapses to
    ``gjs(T1, T2, N/n)`` plus the same entropy terms.  May be ``inf`` when
    ``w`` misses either support.
    """
    if t1.alphabet != t2.alphabet or t1.alphabet != w.alphabet:
        raise AlphabetMismatch("types and reference distribution must share one alphabet")
    d1 = t1.as_distribution()
    d2 = t2.as_distribution()
    ratio = t1.total / t2.total
    return ratio * (kl(d1, w) + entropy(d1)) + kl(d2, w) + entropy(d2)
