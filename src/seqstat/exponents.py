"""Error-exponent programs for the fixed-length (Gutman) classifier.

The type-II exponent of the fixed-length test with training-to-test ratio
``alpha`` and acceptance threshold ``lam`` is the value of the convex program

    minimize    alpha * D(Q1 || P1) + D(Q2 || P2)
    subject to  gjs(Q1, Q2, alpha) <= lam

over pairs of distributions on the alphabet of ``P1``; its value is
:func:`gutman_type2_exponent` and :func:`minimize_over_simplices` also
returns its argmin.  Its value at threshold ``lam * alpha``, divided by
``alpha``, is :func:`gutman_bayes_curve`, the exponent per training sample,
whose crossing with the identity line (:func:`gutman_bayes_exponent`) fixes
the prior-weighted (Bayesian) exponent of the test; swapping ``P1`` and
``P2`` gives the mirror-image curve.

The solver exploits the variational identity

    gjs(Q1, Q2, alpha) = min over W of [alpha * D(Q1 || W) + D(Q2 || W)],

whose minimizer is the ``alpha``-mixture of the pair.  Dualizing the
divergence constraint with multiplier ``mu`` makes every block of the
Lagrangian a weighted relative-entropy sum, so each block minimizer is a
normalized weighted geometric mean, both with the exponent ``1 / (1 + mu)``
on their source.  Minimizing both blocks in closed form leaves a convex
function of the mixture ``W`` alone, whose minimizer on the simplex is the
fixed point ``W = T(W)`` of one block-descent sweep.  A relaxation
minimizes it by damped Newton steps and returns once a sweep moves no
coordinate more than ``INNER_TOLERANCE``.

Every multiplier search doubles the multiplier from 1 (block exponent 1/2),
with ``mu = 0`` (the sources) as the first lower end, and narrows the
bracket by an Illinois (modified regula falsi) search safeguarded by
bisection (``_bracket`` and ``_search`` in :mod:`seqstat.divergence`, which
:func:`constrained_kl_min` also runs on its path).  The program searches on
the constraint slack and returns a feasible end with its duality gap ``mu *
slack`` certified; the Bayes crossing searches on the relaxed objective
minus the relaxed constraint, both divided by ``alpha``.

Sources that share no symbol have a defined answer everywhere: every pair of
finite objective then has the sources' own ``gjs``, so the programs are
infeasible below it (value ``inf``) and solved by the sources at or above it
(value 0), and the Bayes crossing is ``gjs(P1, P2, alpha) / alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _End, _bracket, _search, gjs, gjs_array, kl_array
from .errors import EmptyWeights, Infeasible, NonConvergence, NotNormalized
from .fixedpoint import _exponent_report
from .fixedpoint import exponent_report  # noqa: F401  (wrapped by name in bench/spans.py)
from .probability import (
    Distribution, _check_alpha, _check_distinct, _check_pair, _check_real, _same_pair,
)

# A relaxation stops once its sweep moves no coordinate more than this; one
# that needs more than INNER_MAX_SWEEPS sweeps (Newton iterations) raises.
INNER_TOLERANCE = 1e-15
INNER_MAX_SWEEPS = 20000
# Certified duality gap allowed on a returned optimal value.
GAP_BOUND = 1e-8

@dataclass(frozen=True)
class ComparisonRow:
    """Sequential-versus-fixed-length exponent comparison at one rate."""

    gamma: float
    theta_star: float
    beta_star: float
    alpha_used: float
    sequential_bayes: float
    gutman_bayes: float
    margin: float


def _check_budget(value: float, what: str) -> float:
    """``value`` as a float; :class:`Infeasible` if negative, NaN or not a number."""
    value = _check_real(value, Infeasible, what)
    if not value >= 0.0:
        raise Infeasible(f"{what} {value} is {'negative' if value < 0.0 else 'not a number'}")
    return value


class _PairProgram:
    """minimize alpha*D(Q1||A) + D(Q2||B) s.t. gjs(Q1,Q2,alpha) <= budget.

    The program lives on the union of the two supports: symbols outside
    it carry no mass in any pair of finite objective, so ``keep`` marks the
    alphabet positions of the stored arrays and every state ``(q1, q2, w)``
    has one entry per kept symbol, with ``w > 0`` throughout.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, alpha: float):
        self.keep = (a > 0.0) | (b > 0.0)
        self.a = a[self.keep]
        self.b = b[self.keep]
        self.alpha = alpha
        self.common = bool(np.any((self.a > 0.0) & (self.b > 0.0)))
        with np.errstate(divide="ignore"):
            self.log_a = np.log(self.a)
            self.log_b = np.log(self.b)

    def start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The relaxed state at ``mu = 0``: the sources and their mixture."""
        return self.a.copy(), self.b.copy(), (self.alpha * self.a + self.b) / (1.0 + self.alpha)

    def sweep(self, w: np.ndarray, e: float):
        """One block-descent sweep from ``w``: ``(q1(w), q2(w), T(w))``.

        ``q1`` is the normalized geometric mean ``a^e * w^(1-e)``, ``q2``
        likewise on ``b``, and ``T(w)`` their ``alpha``-mixture.
        """
        log_w = np.log(w)
        x1 = np.exp(e * self.log_a + (1.0 - e) * log_w)
        x2 = np.exp(e * self.log_b + (1.0 - e) * log_w)
        q1 = x1 / x1.sum()
        q2 = x2 / x2.sum()
        return q1, q2, (self.alpha * q1 + q2) / (1.0 + self.alpha)

    def derivatives(self, w: np.ndarray, q1: np.ndarray, q2: np.ndarray, t_w: np.ndarray, e: float):
        """Gradient and Hessian of ``L_mu / (1 + mu) + (1 - e)(1 + alpha) sum
        W`` (see :meth:`relax`) in the relative step ``d = dW / w`` at ``d =
        0``, from the sweep ``(q1(w), q2(w), T(w))``."""
        hess = (1.0 - e) ** 2 * (self.alpha * q1[:, None] * q1 + q2[:, None] * q2)
        hess.flat[:: len(w) + 1] += e * (1.0 - e) * (1.0 + self.alpha) * t_w
        return (1.0 - e) * (1.0 + self.alpha) * (w - t_w), hess

    def relax(self, mu: float, state):
        """Minimize the Lagrangian at multiplier ``mu``, starting from ``state``.

        Over ``(Q1, Q2)`` its minimum is ``L_mu(W) = -(1 + mu) * [alpha * log
        S1 + log S2]``, ``S1 = sum a^e W^(1-e)``, ``S2 = sum b^e W^(1-e)``, ``e
        = 1 / (1 + mu)``, convex in the mixture ``W``.  Each iteration is one
        sweep from ``w``, whose block minimizers give the derivatives, and one
        Newton step under ``sum W = 1``, halved until it stays positive and
        lowers ``L_mu`` by a quarter of the slope's prediction (Boyd &
        Vandenberghe, *Convex Optimization*, 9.5 and 10.2), or else, once it
        moves no coordinate by a relative machine epsilon, the sweep's
        ``T(w)``, which never raises ``L_mu``.  Returns ``(q1(w), q2(w), w)``
        once that sweep moves no coordinate more than ``INNER_TOLERANCE``;
        :class:`NonConvergence` after ``INNER_MAX_SWEEPS``.
        """
        e = 1.0 / (1.0 + mu)
        w = state[2]
        k = len(w)
        kkt, rhs = np.zeros((k + 1, k + 1)), np.zeros(k + 1)
        for _ in range(INNER_MAX_SWEEPS):
            q1, q2, t_w = self.sweep(w, e)
            move = abs(t_w - w).max()
            if move <= INNER_TOLERANCE:
                return q1, q2, w
            # adding (1 - e)(1 + alpha) sum W, constant on the simplex, makes
            # the gradient vanish where the sweep stands still
            grad, kkt[:k, :k] = self.derivatives(w, q1, q2, t_w, e)
            kkt[:k, k] = kkt[k, :k] = w
            rhs[:k] = -grad
            d = np.linalg.solve(kkt, rhs)[:k]
            slope, mass, lowest = grad @ d, w @ d, d.min()
            t = 1.0  # the full step is always tried; the bound costs a reduction
            while t == 1.0 or t * abs(d).max() >= np.finfo(float).eps:
                if t * lowest > -1.0:
                    # S(w (1 + t d)) / S(w) = 1 + q . z keeps the change's digits
                    z = np.expm1((1.0 - e) * np.log1p(t * d))
                    change = (1.0 - e) * (1.0 + self.alpha) * t * mass
                    change -= self.alpha * math.log1p(q1 @ z) + math.log1p(q2 @ z)
                    if change <= 0.25 * t * slope:
                        w = w * (1.0 + t * d)
                        break
                t *= 0.5
            else:
                w = t_w
        raise NonConvergence(
            f"block descent at mu={mu} still moving {move} after {INNER_MAX_SWEEPS} sweeps"
        )

    def objective_value(self, q1: np.ndarray, q2: np.ndarray) -> float:
        return self.alpha * kl_array(q1, self.a) + kl_array(q2, self.b)

    def constraint_value(self, q1: np.ndarray, q2: np.ndarray) -> float:
        # on the weights that Distribution objects of the pair hold
        return gjs_array(q1 / math.fsum(q1), q2 / math.fsum(q2), self.alpha)

    def collapsed(self) -> tuple[float, np.ndarray]:
        """Zero-budget case: both arguments coincide with one distribution."""
        common = (self.a > 0.0) & (self.b > 0.0)
        share = self.alpha / (1.0 + self.alpha)
        x = np.exp(share * self.log_a[common] + (1.0 - share) * self.log_b[common])
        q = np.zeros(len(self.a))
        q[common] = x / x.sum()
        return self.objective_value(q, q), q

    def solve(self, budget: float):
        """Constrained minimum with a certified duality gap.

        Returns ``(value, q1, q2)`` where the pair is feasible and the value
        sits within ``GAP_BOUND`` of the true optimum.  When the sources
        share no symbol, every pair of finite objective has the sources'
        own ``gjs``, so a budget below it has no feasible pair: the value is
        ``inf`` and the pair ``None``.
        """
        budget = _check_budget(budget, "divergence budget")
        slack0 = self.constraint_value(self.a, self.b)
        if slack0 <= budget:
            return 0.0, self.a.copy(), self.b.copy()
        if not self.common:
            return math.inf, None, None
        if budget == 0.0:
            value, q = self.collapsed()
            return value, q, q.copy()

        # Dual ascent: locate the multiplier whose relaxed solution meets
        # the budget exactly.  The slack grows with mu.
        def evaluate(mu: float, state) -> _End:
            q1, q2, w = self.relax(mu, state)
            slack = budget - self.constraint_value(q1, q2)
            value = self.objective_value(q1, q2) if slack >= 0.0 else math.inf
            return _End(mu, slack, value, (q1, q2, w))

        lo = _End(0.0, budget - slack0, math.inf, self.start())
        lo, hi = _search(evaluate, *_bracket(evaluate, lo))
        # The lower end is feasible only when its slack is exactly 0.
        end = lo if lo.value < math.inf else hi
        gap = end.mu * end.excess
        if not (0.0 <= gap <= GAP_BOUND * (1.0 + abs(end.value))):
            raise NonConvergence(f"duality gap {gap} above the certified bound")
        q1, q2, _ = end.state
        return end.value, q1, q2


def _program(alpha: float, p1: Distribution, p2: Distribution) -> _PairProgram:
    """The fixed-length program at ratio ``alpha``, after checking the ratio and the pair."""
    alpha = _check_alpha(alpha, strict=True)
    _check_pair(p1, p2)
    return _PairProgram(p1.as_array(), p2.as_array(), alpha)


def minimize_over_simplices(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> tuple[float, tuple[Distribution, Distribution]]:
    """Solve the type-II program of the fixed-length test.

    Returns the optimal value, :func:`gutman_type2_exponent`, together with
    the feasible argmin pair.  Raises :class:`Infeasible` when no pair of
    finite objective meets the threshold, which happens exactly when the
    sources share no symbol and ``lam`` is below their own divergence.
    """
    program = _program(alpha, p1, p2)
    value, q1, q2 = program.solve(lam)
    if q1 is None:
        raise Infeasible(
            f"sources with disjoint supports: no pair of finite objective meets "
            f"the divergence budget {lam}"
        )
    pair = []
    for q in (q1, q2):
        full = np.zeros(p1.alphabet.size)
        full[program.keep] = q
        pair.append(Distribution(p1.alphabet, tuple(full)))
    return value, (pair[0], pair[1])


def gutman_type2_exponent(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Type-II exponent of the fixed-length test, per test sample.

    For sources with disjoint supports it is ``inf`` below ``gjs(P1, P2,
    alpha)`` and 0 at or above it.
    """
    return _program(alpha, p1, p2).solve(lam)[0]


def gutman_bayes_curve(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Fixed-length type-II exponent, normalized per training sample.

    For sources with disjoint supports it is ``inf`` below ``gjs(P1, P2,
    alpha) / alpha`` and 0 at or above it.
    """
    program = _program(alpha, p1, p2)
    budget = _check_budget(lam, "divergence budget") * program.alpha
    return program.solve(budget)[0] / program.alpha


def gutman_bayes_curve_swapped(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Mirror-image curve with the two sources exchanged."""
    return gutman_bayes_curve(alpha, lam, p2, p1)


def gutman_bayes_exponent(alpha: float, p1: Distribution, p2: Distribution) -> float:
    """Prior-weighted exponent of the fixed-length test at ratio ``alpha``.

    This is the threshold at which the per-training-sample exponent curve
    crosses the identity line.  Along the program's dual path, as the
    multiplier grows, the relaxed objective rises from 0 while the relaxed
    constraint falls from ``gjs(P1, P2, alpha)``, so their difference,
    divided by ``alpha``, changes sign exactly once.  :func:`_bracket` and
    :func:`_search` find that multiplier, and the crossing is the mean of
    objective and constraint over ``alpha`` at an end where they agree within
    1e-12, else at the end where they are closer.  For an identical pair the
    curve is identically zero and so is the crossing.  For sources with
    disjoint supports the curve is ``inf`` below ``gjs(P1, P2, alpha) /
    alpha`` and 0 from there on, so the crossing is that value, the supremum
    of ``min(lam, curve(lam))``.
    """
    program = _program(alpha, p1, p2)
    if _same_pair(p1, p2):
        return 0.0
    alpha = program.alpha
    sources = program.start()
    full = program.constraint_value(sources[0], sources[1]) / alpha
    if not program.common:
        return full

    def evaluate(mu: float, state) -> _End:
        q1, q2, w = program.relax(mu, state)
        objective = program.objective_value(q1, q2) / alpha
        constraint = program.constraint_value(q1, q2) / alpha
        return _End(mu, objective - constraint, 0.5 * (objective + constraint), (q1, q2, w))

    lo = _End(0.0, -full, 0.5 * full, sources)
    lo, hi = _search(evaluate, *_bracket(evaluate, lo))
    # the end of smaller excess, hi first; an excess within 1e-12 counts as 0
    return min(hi, lo, key=lambda end: max(abs(end.excess), 1e-12)).value


def bayes_multiclass_gutman(dists: list[Distribution], alpha: float) -> float:
    """Prior-weighted exponent of the multiclass fixed-length test.

    Equals the smallest ``gjs(P_i, P_j, alpha) / alpha`` over ordered pairs
    of distinct classes.
    """
    alpha = _check_alpha(alpha, strict=True)
    m = len(dists)
    if m < 2:
        raise EmptyWeights("need at least two distributions")
    _check_distinct(dists)
    return min(
        gjs(p, q, alpha) / alpha for i, p in enumerate(dists) for j, q in enumerate(dists) if i != j
    )


def constrained_kl_min(
    p_center: Distribution, p_obj: Distribution, radius: float
) -> float:
    """min D(V || p_obj) over distributions with D(V || p_center) <= radius.

    The optimizer lies on the geometric path ``V_t`` from ``p_obj`` (t = 0)
    to ``p_center`` (t = 1) restricted to their common support, along which
    ``D(V_t || p_center)`` falls, so the value follows from :func:`_search`
    on ``radius - D(V_t || p_center)`` over [0, 1]; it is ``inf`` when even
    ``V_1`` lies outside the ball.  The value is nonincreasing in ``radius``
    and compares to ``radius`` itself exactly as the radius compares to the
    Chernoff information of the pair.
    """
    _check_pair(p_center, p_obj)
    radius = _check_budget(radius, "radius")
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

    def end(t: float, state=None) -> _End:
        x = np.exp((1.0 - t) * log_obj + t * log_center)
        v = np.zeros(len(center))
        v[common] = x / x.sum()
        slack = radius - kl_array(v, center)
        return _End(t, slack, kl_array(v, obj) if slack >= 0.0 else math.inf, None)

    # t = 0 is the objective's unconstrained optimum on the common support.
    lo, hi = end(0.0), end(1.0)
    if lo.excess < 0.0 <= hi.excess:
        lo, hi = _search(end, lo, hi)
    # the value of the feasible end nearer the objective, inf if neither is
    return min(lo.value, hi.value)


def lp_closed_form(weights: list[float], delta: float) -> float:
    """Minimum of ``sum w_i e_i`` over ``sum |e_i| <= delta, sum e_i = 0``.

    The optimum moves ``delta/2`` of mass from the largest weight to the
    smallest, giving ``(delta / 2) * (min w - max w)``.
    """
    if len(weights) == 0:
        raise EmptyWeights("weight vector is empty")
    weights = [_check_real(w, NotNormalized, "weight") for w in weights]
    if not all(math.isfinite(w) for w in weights):
        raise NotNormalized(f"weights must be finite, got {list(weights)}")
    delta = _check_budget(delta, "delta")
    spread = min(weights) - max(weights)
    return 0.5 * delta * spread if spread else 0.0  # 0 for equal weights at any delta


def compare_sequential_vs_gutman(
    p1: Distribution, p2: Distribution, gamma_grid: list[float]
) -> list[ComparisonRow]:
    """Sequential-versus-fixed-length Bayesian exponents at matched budgets.

    For each rate the sequential test realizes exponent ``gamma`` with
    expected test length ``N / max(theta, beta)`` under the worst class, so
    the fixed-length competitor is granted the same budget through
    ``alpha = min(theta, beta)`` and its crossing exponent is evaluated
    there.  The margin column is positive throughout the valid rate range,
    except for sources with disjoint supports: there the crossing is
    ``gjs(P1, P2, alpha) / alpha``, which equals ``gamma`` at the root, so the
    margin is 0 up to the root's residual.
    """
    rows = []
    cap = None
    for gamma in gamma_grid:
        report, cap = _exponent_report(p1, p2, gamma, cap)
        alpha_used = min(report.theta_star, report.beta_star)
        gutman = gutman_bayes_exponent(alpha_used, p1, p2)
        rows.append(
            ComparisonRow(
                gamma=report.gamma,
                theta_star=report.theta_star,
                beta_star=report.beta_star,
                alpha_used=alpha_used,
                sequential_bayes=report.bayes_exponent,
                gutman_bayes=gutman,
                margin=report.bayes_exponent - gutman,
            )
        )
    return rows
