"""Error-exponent programs for the fixed-length (Gutman) classifier.

The type-II exponent of the fixed-length test with training-to-test ratio
``alpha`` and acceptance threshold ``lam`` is the value of the convex program

    minimize    alpha * D(Q1 || P1) + D(Q2 || P2)
    subject to  gjs(Q1, Q2, alpha) <= lam

over pairs of distributions on the alphabet of ``P1``; its value is
:func:`gutman_type2_exponent` and :func:`minimize_over_simplices` also
returns its argmin.  Rescaling the objective by ``1/alpha`` and the
threshold to ``lam * alpha`` gives :func:`gutman_bayes_curve`, the variant
normalized per training sample, whose crossing with the identity line
(:func:`gutman_bayes_exponent`) fixes the prior-weighted (Bayesian)
exponent of the test; swapping the roles of ``P1`` and ``P2`` gives the
mirror-image curve.  One builder, ``_program``, makes the program at
either scaling.

The solver exploits the variational identity

    gjs(Q1, Q2, alpha) = min over W of [alpha * D(Q1 || W) + D(Q2 || W)],

whose minimizer is the ``alpha``-mixture of the pair.  Dualizing the
divergence constraint with multiplier ``mu`` makes every block of the
Lagrangian a weighted relative-entropy sum, so each block minimizer is a
normalized weighted geometric mean, and the Lagrangian's minimizer is the
fixed point ``W = T(W)`` of one block-descent sweep (the Lagrangian is
jointly convex with unique block minimizers).  A relaxation iterates the
sweep and, once the iterate is near the fixed point, replaces it by the
Newton point of ``W - T(W)``, whose Jacobian has a closed form; it returns
only after a plain sweep that moves no coordinate more than
``INNER_TOLERANCE``.

Every multiplier search doubles the multiplier from the program's starting
one, with ``mu = 0`` (the sources) as the first lower end, and narrows the
bracket by an Illinois (modified regula falsi) search safeguarded by
bisection.  The constrained programs search on the constraint slack and
return a feasible end with its duality gap ``mu * slack`` certified, not an
iteration heuristic; the Bayes crossing searches on the relaxed objective
minus the relaxed constraint.

Sources that share no symbol have a defined answer everywhere: every pair of
finite objective then has the sources' own ``gjs``, so the programs are
infeasible below it (value ``inf``) and solved by the sources at or above it
(value 0), and the Bayes crossing is ``gjs(P1, P2, alpha) / alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import chernoff, gjs, gjs_array, kl_array
from .errors import EmptyWeights, Infeasible, NonConvergence
from .fixedpoint import exponent_report
from .probability import Distribution, _check_alpha, _check_distinct, _check_pair, _same_pair

# Block-descent sweep stops once no coordinate moves more than this; a
# relaxation that needs more than INNER_MAX_SWEEPS sweeps raises.
INNER_TOLERANCE = 1e-15
INNER_MAX_SWEEPS = 20000
# Relaxations take Newton steps once a sweep moves the mixture no more than
# this; a Newton iteration counts as one sweep against INNER_MAX_SWEEPS.
NEWTON_MOVE = 1e-2
# Multiplier searches run until the bracket is this narrow relatively.
MU_RELATIVE_WIDTH = 1e-12
# Search steps allowed on any multiplier bracket (the constrained programs'
# and the crossing's) before the search raises.
CROSSING_MAX_STEPS = 200
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


class _End(NamedTuple):
    """One end of a multiplier bracket: the relaxed state at ``mu``, the
    caller's signed excess (growing with ``mu``) and the value the caller
    reports at this end, ``inf`` where it reports none."""

    mu: float
    excess: float
    value: float
    state: tuple


def _bracket(evaluate, lo: _End, mu: float) -> tuple[_End, _End]:
    """Double the multiplier from ``mu`` until the excess is positive.

    ``lo`` has excess at most 0; ``evaluate(mu, state)`` returns the end at
    ``mu``, relaxed from ``state``: from ``lo``'s state first, then from the
    previous end, which becomes the lower end.  Raises
    :class:`NonConvergence` after 200 doublings.
    """
    hi = evaluate(mu, lo.state)
    doublings = 0
    while hi.excess <= 0.0:
        lo = hi
        hi = evaluate(2.0 * hi.mu, hi.state)
        doublings += 1
        if doublings > 200:
            raise NonConvergence("multiplier bracketing diverged")
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
    alone would call for needless bisections.)  The search returns the
    final ``(lo, hi)``, from which the caller picks its answer, once an end
    of finite value has its excess within 1e-12 of 0 or the bracket is
    ``MU_RELATIVE_WIDTH`` wide; :class:`NonConvergence` is raised when
    ``CROSSING_MAX_STEPS`` steps end before either.
    """
    f_lo, f_hi = lo.excess, hi.excess
    kept = None
    halved = True
    steps = 0
    while True:
        width = hi.mu - lo.mu
        tol = MU_RELATIVE_WIDTH * hi.mu
        smaller = min(hi.excess, -lo.excess)
        if width <= tol or any(abs(e.excess) <= 1e-12 and e.value < math.inf for e in (lo, hi)):
            return lo, hi
        if steps == CROSSING_MAX_STEPS:
            raise NonConvergence(
                f"multiplier search unfinished after {steps} steps: "
                f"excess {lo.excess} to {hi.excess}"
            )
        steps += 1
        bisect = not halved
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


class _PairProgram:
    """minimize u*D(Q1||A) + v*D(Q2||B) s.t. gjs(Q1,Q2,alpha) <= budget.

    The program lives on the union of the two supports: symbols outside
    it carry no mass in any pair of finite objective, so ``keep`` marks the
    alphabet positions of the stored arrays and every state ``(q1, q2, w)``
    has one entry per kept symbol, with ``w > 0`` throughout.
    """

    def __init__(self, u: float, v: float, a: np.ndarray, b: np.ndarray, alpha: float):
        self.keep = (a > 0.0) | (b > 0.0)
        self.u = u
        self.v = v
        self.a = a[self.keep]
        self.b = b[self.keep]
        self.alpha = alpha
        self.common = bool(np.any((self.a > 0.0) & (self.b > 0.0)))
        with np.errstate(divide="ignore"):
            self.log_a = np.log(self.a)
            self.log_b = np.log(self.b)

    @property
    def mu_start(self) -> float:
        """Multiplier at which every multiplier search starts.

        The block exponents ``u / (u + mu * alpha)`` and ``v / (v + mu)``
        are both 1/2 at ``mu = v``, since every program here has
        ``u = v * alpha``.  Relaxations at multipliers far above the
        solution's converge slowly, so searches start there, not at 1.
        """
        return self.v

    def start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The relaxed state at ``mu = 0``: the sources and their mixture."""
        q1 = self.a.copy()
        q2 = self.b.copy()
        w = (self.alpha * q1 + q2) / (1.0 + self.alpha)
        return q1, q2, w

    def exponents(self, mu: float) -> tuple[float, float]:
        """Block exponents ``e1``, ``e2`` of the sources at multiplier ``mu``."""
        return self.u / (self.u + mu * self.alpha), self.v / (self.v + mu)

    def sweep(self, w: np.ndarray, e1: float, e2: float):
        """One block-descent sweep from ``w``: ``(q1(w), q2(w), T(w))``.

        ``q1`` is the normalized geometric mean ``a^e1 * w^(1-e1)``, ``q2``
        likewise on ``b``, and ``T(w)`` their ``alpha``-mixture.
        """
        log_w = np.log(w)
        x1 = np.exp(e1 * self.log_a + (1.0 - e1) * log_w)
        x2 = np.exp(e2 * self.log_b + (1.0 - e2) * log_w)
        q1 = x1 / x1.sum()
        q2 = x2 / x2.sum()
        return q1, q2, (self.alpha * q1 + q2) / (1.0 + self.alpha)

    def jacobian(self, q1: np.ndarray, q2: np.ndarray, w: np.ndarray, e1: float, e2: float):
        """Jacobian of ``T`` at ``w``, given ``q1 = q1(w)`` and ``q2 = q2(w)``.

        ``dq/dw = (1 - e) * (diag q - q q^T) * diag(1 / w)`` for each block.
        """
        c1 = self.alpha * (1.0 - e1)
        c2 = 1.0 - e2
        jac = np.diag(c1 * q1 + c2 * q2)
        jac -= c1 * np.outer(q1, q1) + c2 * np.outer(q2, q2)
        return jac / (w * (1.0 + self.alpha))

    def relax(self, mu: float, state):
        """Minimize the Lagrangian at multiplier ``mu``, starting from ``state``.

        The minimizer's mixture is the fixed point of the sweep map ``T``.
        Each iteration is one sweep.  When the sweep moved the mixture by
        more than ``INNER_TOLERANCE`` but at most ``NEWTON_MOVE``, the next
        iterate is the Newton point ``w + (I - J)^-1 (T(w) - w)`` instead of
        ``T(w)``, unless that point leaves the positive orthant.  The state
        is returned after a plain sweep that moved no coordinate more than
        ``INNER_TOLERANCE``; :class:`NonConvergence` is raised when
        ``INNER_MAX_SWEEPS`` iterations end before one.
        """
        e1, e2 = self.exponents(mu)
        q1, q2, w = state
        eye = np.eye(len(w))
        for _ in range(INNER_MAX_SWEEPS):
            q1n, q2n, wn = self.sweep(w, e1, e2)
            move = abs(wn - w).max()
            delta = max(abs(q1n - q1).max(), abs(q2n - q2).max(), move)
            if delta <= INNER_TOLERANCE:
                return q1n, q2n, wn
            # A move already at the tolerance takes the plain sweep: the
            # Newton point's rounding, amplified by (I - J)^-1, would keep the
            # q moves above it.
            if INNER_TOLERANCE < move <= NEWTON_MOVE:
                jac = self.jacobian(q1n, q2n, w, e1, e2)
                newton = w + np.linalg.solve(eye - jac, wn - w)
                if (newton > 0.0).all():
                    wn = newton
            q1, q2, w = q1n, q2n, wn
        raise NonConvergence(
            f"block descent at mu={mu} still moving {delta} after {INNER_MAX_SWEEPS} sweeps"
        )

    def objective_value(self, q1: np.ndarray, q2: np.ndarray) -> float:
        return self.u * kl_array(q1, self.a) + self.v * kl_array(q2, self.b)

    def constraint_value(self, q1: np.ndarray, q2: np.ndarray) -> float:
        return gjs_array(q1, q2, self.alpha)

    def collapsed(self) -> tuple[float, np.ndarray]:
        """Zero-budget case: both arguments coincide with one distribution."""
        common = (self.a > 0.0) & (self.b > 0.0)
        share = self.u / (self.u + self.v)
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
        if budget < 0.0:
            raise Infeasible(f"divergence budget {budget} is negative")
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
        lo, hi = _search(evaluate, *_bracket(evaluate, lo, self.mu_start))
        # The lower end is feasible only when its slack is exactly 0.
        end = lo if lo.value < math.inf else hi
        gap = end.mu * end.excess
        if not (0.0 <= gap <= GAP_BOUND * (1.0 + abs(end.value))):
            raise NonConvergence(f"duality gap {gap} above the certified bound")
        q1, q2, _ = end.state
        return end.value, q1, q2


def _program(alpha: float, p1: Distribution, p2: Distribution, per_test: bool) -> _PairProgram:
    """The fixed-length program at ratio ``alpha``, after checking the ratio
    and the pair: its objective per test sample (``u = alpha``) or per
    training sample (``u = 1``), with ``v = u / alpha`` in both."""
    alpha = _check_alpha(alpha, strict=True)
    _check_pair(p1, p2)
    u = alpha if per_test else 1.0
    return _PairProgram(u, u / alpha, p1.as_array(), p2.as_array(), alpha)


def minimize_over_simplices(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> tuple[float, tuple[Distribution, Distribution]]:
    """Solve the type-II program of the fixed-length test.

    Returns the optimal value, :func:`gutman_type2_exponent`, together with
    the feasible argmin pair.  Raises :class:`Infeasible` when no pair of
    finite objective meets the threshold, which happens exactly when the
    sources share no symbol and ``lam`` is below their own divergence.
    """
    program = _program(alpha, p1, p2, per_test=True)
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
    return _program(alpha, p1, p2, per_test=True).solve(lam)[0]


def gutman_bayes_curve(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Fixed-length type-II exponent, normalized per training sample.

    For sources with disjoint supports it is ``inf`` below ``gjs(P1, P2,
    alpha) / alpha`` and 0 at or above it.
    """
    program = _program(alpha, p1, p2, per_test=False)
    if lam < 0.0:
        raise Infeasible(f"divergence budget {lam} is negative")
    return program.solve(lam * program.alpha)[0]


def gutman_bayes_curve_swapped(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Mirror-image curve with the two sources exchanged."""
    return gutman_bayes_curve(alpha, lam, p2, p1)


def gutman_bayes_exponent(alpha: float, p1: Distribution, p2: Distribution) -> float:
    """Prior-weighted exponent of the fixed-length test at ratio ``alpha``.

    This is the threshold at which the per-training-sample exponent curve
    crosses the identity line.  The crossing is found by following the dual
    path of the curve's program: as the multiplier grows, the relaxed
    objective rises from 0 while the relaxed constraint falls from
    ``gjs(P1, P2, alpha) / alpha``, so their difference changes sign exactly
    once.  The multiplier is found by :func:`_bracket` and :func:`_search`
    on that difference, and the crossing is the mean of objective and
    constraint at an end where they agree within 1e-12, else at the end
    where they are closer.  For an identical pair the curve is
    identically zero and so is the crossing.  For sources with disjoint
    supports the curve is ``inf`` below ``gjs(P1, P2, alpha) / alpha`` and 0
    from there on, so the crossing is that value, the supremum of
    ``min(lam, curve(lam))``.
    """
    program = _program(alpha, p1, p2, per_test=False)
    if _same_pair(p1, p2):
        return 0.0
    alpha = program.alpha
    sources = program.start()
    full = program.constraint_value(sources[0], sources[1]) / alpha
    if not program.common:
        return full

    def evaluate(mu: float, state) -> _End:
        q1, q2, w = program.relax(mu, state)
        objective = program.objective_value(q1, q2)
        constraint = program.constraint_value(q1, q2) / alpha
        return _End(mu, objective - constraint, 0.5 * (objective + constraint), (q1, q2, w))

    lo = _End(0.0, -full, 0.5 * full, sources)
    lo, hi = _search(evaluate, *_bracket(evaluate, lo, program.mu_start))
    for end in (hi, lo):
        if abs(end.excess) <= 1e-12:
            return end.value
    return min(hi, lo, key=lambda end: abs(end.excess)).value


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
        gjs(dists[i], dists[j], alpha) / alpha
        for i in range(m)
        for j in range(m)
        if i != j
    )


def constrained_kl_min(
    p_center: Distribution, p_obj: Distribution, radius: float
) -> float:
    """min D(V || p_obj) over distributions with D(V || p_center) <= radius.

    The optimizer lies on the geometric path between ``p_obj`` and
    ``p_center`` restricted to their common support, so the value follows
    from a one-dimensional bisection on the path parameter.  The value is
    nonincreasing in ``radius`` and compares to ``radius`` itself exactly
    as the radius compares to the Chernoff information of the pair.
    """
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
    k = len(center)

    def point(t: float) -> np.ndarray:
        x = np.exp((1.0 - t) * log_obj + t * log_center)
        v = np.zeros(k)
        v[common] = x / x.sum()
        return v

    # t = 0 is the objective's unconstrained optimum on the common support.
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


def lp_closed_form(weights: list[float], delta: float) -> float:
    """Minimum of ``sum w_i e_i`` over ``sum |e_i| <= delta, sum e_i = 0``.

    The optimum moves ``delta/2`` of mass from the largest weight to the
    smallest, giving ``(delta / 2) * (min w - max w)``.
    """
    if len(weights) == 0:
        raise EmptyWeights("weight vector is empty")
    delta = float(delta)
    if delta < 0.0:
        raise Infeasible(f"delta {delta} is negative")
    return 0.5 * delta * (min(weights) - max(weights))


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
    for gamma in gamma_grid:
        report = exponent_report(p1, p2, gamma)
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
