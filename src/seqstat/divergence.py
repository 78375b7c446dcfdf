"""Generalized Jensen-Shannon divergence and related information measures.

For a weight ``alpha >= 0`` and distributions ``p``, ``q`` on one alphabet,
the generalized Jensen-Shannon divergence is

    gjs(p, q, alpha) = alpha * D(p || m) + D(q || m),
    m = (alpha * p + q) / (1 + alpha).

It is finite for every pair (the mixture dominates both arguments), equals
twice the classical Jensen-Shannon divergence at ``alpha = 1``, vanishes as
``alpha -> 0``, and tends to ``D(q || p)`` as ``alpha -> inf``.  Two
algebraically equivalent forms are implemented: a direct relative-entropy
form and an entropy (mixture) form

    gjs(p, q, alpha) = (1 + alpha) * H(m) - alpha * H(p) - H(q),

which is also ``(1 + alpha)`` times the mutual information between a mixture
label with prior ``(alpha, 1) / (1 + alpha)`` and the emitted symbol.  The
public ``gjs`` uses the entropy form on interior inputs and the
relative-entropy form otherwise; both forms stay exposed so tests can pit
them against each other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphabetMismatch, NegativeAlpha, NotInterior
from .probability import Distribution, EmpiricalType, _check_pair, entropy, kl

# Bracket width, in eta, at which the Chernoff exponent search stops.
CHERNOFF_ETA_TOLERANCE = 1e-12


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise NegativeAlpha(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


# --------------------------------------------------------------------------
# array kernels, shared with the simplex optimizers
# --------------------------------------------------------------------------

def kl_array(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) for raw weight arrays; inf when q misses the support of p."""
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    pm = p[mask]
    return float(np.sum(pm * np.log(pm / q[mask])))


def gjs_array(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Relative-entropy form of gjs on raw weight arrays."""
    if alpha == 0.0:
        return 0.0
    m = (alpha * p + q) / (1.0 + alpha)
    return alpha * kl_array(p, m) + kl_array(q, m)


def _entropy_array(p: np.ndarray) -> float:
    mask = p > 0.0
    pm = p[mask]
    return float(-np.sum(pm * np.log(pm)))


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def gjs_kl_form(p: Distribution, q: Distribution, alpha: float) -> float:
    """gjs computed as alpha * D(p || m) + D(q || m)."""
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
    return gjs_array(p.as_array(), q.as_array(), alpha)


def gjs_entropy_form(p: Distribution, q: Distribution, alpha: float) -> float:
    """gjs computed as (1 + alpha) H(m) - alpha H(p) - H(q)."""
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
    if alpha == 0.0:
        return 0.0
    pa, qa = p.as_array(), q.as_array()
    m = (alpha * pa + qa) / (1.0 + alpha)
    return (1.0 + alpha) * _entropy_array(m) - alpha * _entropy_array(pa) - _entropy_array(qa)


def gjs(p: Distribution, q: Distribution, alpha: float) -> float:
    """Generalized Jensen-Shannon divergence, in nats.

    Finite for every pair of distributions on a common alphabet, including
    boundary ones.  Concave and differentiable in ``alpha``, jointly convex
    in ``(p, q)``.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
    if p.weights == q.weights:
        return 0.0
    if p.interior and q.interior:
        return gjs_entropy_form(p, q, alpha)
    return gjs_kl_form(p, q, alpha)


def gjs_alpha_derivative(p: Distribution, q: Distribution, alpha: float) -> float:
    """Partial derivative of ``gjs`` in ``alpha``: D(p || m) at the mixture m.

    Requires interior inputs so the derivative is finite and stable.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
    if not (p.interior and q.interior):
        raise NotInterior("the alpha-derivative needs interior distributions")
    if p.weights == q.weights:
        return 0.0
    pa, qa = p.as_array(), q.as_array()
    m = (alpha * pa + qa) / (1.0 + alpha)
    return kl_array(pa, m)


def gjs_mutual_info_form(p: Distribution, q: Distribution, alpha: float) -> float:
    """gjs written as (1 + alpha) times a label-symbol mutual information.

    The label picks ``p`` with prior ``alpha / (1 + alpha)`` and ``q``
    otherwise; the symbol is emitted by the picked distribution.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
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
