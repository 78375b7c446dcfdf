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
pairs keep their digits; off it they are ``log1p(1 / alpha)`` (mass of ``p``
only) and ``log1p(alpha)`` (mass of ``q`` only).  The threshold-equation
solver in :mod:`seqstat.fixedpoint` evaluates the same function.

The entropy form ``(1 + alpha) * H(m) - alpha * H(p) - H(q)`` is the same
quantity, ``(1 + alpha)`` times the mutual information between a mixture
label with prior ``(alpha, 1) / (1 + alpha)`` and the emitted symbol; it
cancels on near-identical pairs and is kept only as
:func:`gjs_mutual_info_form`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphabetMismatch, NotInterior
from .probability import Distribution, EmpiricalType, _check_alpha, _check_pair, entropy, kl

# Bracket width, in eta, at which the Chernoff exponent search stops.
CHERNOFF_ETA_TOLERANCE = 1e-12


# --------------------------------------------------------------------------
# the evaluator and its array forms, shared with the solvers
# --------------------------------------------------------------------------

def _mixture_divergences(p: np.ndarray, q: np.ndarray):
    """``alpha -> (D(p || m), D(q || m))`` with ``m = (alpha * p + q) / (1 + alpha)``.

    On the common support ``log(m / p) = log1p(-(p - q) / ((1 + alpha) p))``
    and ``log(m / q) = log1p(alpha (p - q) / ((1 + alpha) q))``; mass of
    ``p`` only contributes ``log1p(1 / alpha)`` per unit and mass of ``q``
    only ``log1p(alpha)``.  At ``alpha = 0``, where the first value is
    ``D(p || q)``, mass of ``p`` only makes it ``inf``, and symbols with
    ``q <= p / 2`` take ``log(q / p)`` instead, which keeps the digits of a
    small ratio that ``1 - (p - q) / p`` rounds away.
    """
    both = (p > 0.0) & (q > 0.0)
    p_only = float(p[q == 0.0].sum())
    q_only = float(q[p == 0.0].sum())
    p, q = p[both], q[both]
    to_p, to_q = (p - q) / p, (p - q) / q

    def divergences(alpha: float) -> tuple[float, float]:
        share = 1.0 / (1.0 + alpha)
        if alpha > 0.0:
            p_tail = p_only * math.log1p(1.0 / alpha)
            log_m_p = np.log1p(-share * to_p)
        else:
            # m = q; where q <= p / 2, 1 - to_p has lost the digits of q / p
            p_tail = math.inf if p_only else 0.0
            near = to_p < 0.5
            log_m_p = np.log(q / p)
            log_m_p[near] = np.log1p(-to_p[near])
        d_p = p_tail - float(p @ log_m_p)
        d_q = q_only * math.log1p(alpha) - float(q @ np.log1p(alpha * share * to_q))
        return d_p, d_q

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

    The sum runs over the common support.  The inner function is convex in
    eta; its minimizer is located by bisection on the analytic derivative
    sign, which also handles pairs whose optimum sits at an endpoint.
    """
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
        while hi - lo > CHERNOFF_ETA_TOLERANCE:
            mid = 0.5 * (lo + hi)
            if derivative(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        eta_star = 0.5 * (lo + hi)
    value = math.log(float(np.sum(np.exp(eta_star * lp + (1.0 - eta_star) * lq))))
    return -value


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
