"""Error-exponent programs for the fixed-length (Gutman) classifier.

The type-II exponent of the fixed-length test with training-to-test ratio
``alpha`` and acceptance threshold ``lam`` is the value of the convex program

    minimize    alpha * D(Q1 || P1) + D(Q2 || P2)
    subject to  gjs(Q1, Q2, alpha) <= lam

over pairs of distributions on the alphabet of ``P1``.  Rescaling the
objective by ``1/alpha`` and the threshold to ``lam * alpha`` gives the
variant normalized per training sample, whose crossing with the identity
line fixes the prior-weighted (Bayesian) exponent of the test; swapping the
roles of ``P1`` and ``P2`` gives the mirror-image curve.

The solver exploits the variational identity

    gjs(Q1, Q2, alpha) = min over W of [alpha * D(Q1 || W) + D(Q2 || W)],

whose minimizer is the ``alpha``-mixture of the pair.  Dualizing the
divergence constraint with multiplier ``mu`` makes every block of the
Lagrangian a weighted relative-entropy sum, so each block minimizer is a
normalized weighted geometric mean and cyclic block descent converges to
the joint optimum (the Lagrangian is jointly convex with unique block
minimizers).  The dual is maximized by bisecting ``mu`` on the sign of the
constraint slack.  Both sides of the final bracket yield primal and dual
bounds, so every returned value carries a certified duality gap instead of
relying on an iteration heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import chernoff, gjs, gjs_array, kl_array
from .errors import (
    EmptyWeights,
    Infeasible,
    NegativeAlpha,
    NonConvergence,
)
from .fixedpoint import exponent_report
from .probability import Distribution, _check_distinct, _check_pair, _same_pair

# Block-descent sweep stops once no coordinate moves more than this; a
# relaxation that needs more than INNER_MAX_SWEEPS sweeps raises.
INNER_TOLERANCE = 1e-15
INNER_MAX_SWEEPS = 20000
# Multiplier bisection runs until the bracket is this narrow relatively.
MU_RELATIVE_WIDTH = 1e-12
# Bisection steps allowed on the crossing multiplier before it raises.
CROSSING_MAX_STEPS = 200
# Certified duality gap allowed on a returned optimal value.
GAP_BOUND = 1e-8

OBJECTIVE_FIXED_LENGTH = "fixed_length"
OBJECTIVE_BAYES = "bayes"
OBJECTIVE_BAYES_SWAPPED = "bayes_swapped"


@dataclass(frozen=True)
class SimplexOptProblem:
    """One instance of the constrained divergence program."""

    objective: str
    alpha: float
    threshold: float
    p1: Distribution
    p2: Distribution


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


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise NegativeAlpha(f"alpha must be finite and > 0, got {alpha}")
    return alpha


class _PairProgram:
    """minimize u*D(Q1||A) + v*D(Q2||B) s.t. gjs(Q1,Q2,alpha) <= budget."""

    def __init__(self, u: float, v: float, a: np.ndarray, b: np.ndarray, alpha: float):
        self.u = u
        self.v = v
        self.a = a
        self.b = b
        self.alpha = alpha
        self.supp_a = a > 0.0
        self.supp_b = b > 0.0
        self.log_a = np.log(a[self.supp_a])
        self.log_b = np.log(b[self.supp_b])

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
        q1 = self.a.copy()
        q2 = self.b.copy()
        w = (self.alpha * q1 + q2) / (1.0 + self.alpha)
        return q1, q2, w

    def relax(self, mu: float, state):
        """Block descent on the Lagrangian at multiplier ``mu``.

        Raises :class:`NonConvergence` when ``INNER_MAX_SWEEPS`` sweeps end
        with a coordinate still moving more than ``INNER_TOLERANCE``.
        """
        q1, q2, w = state
        e1 = self.u / (self.u + mu * self.alpha)
        e2 = self.v / (self.v + mu)
        k = len(self.a)
        for _ in range(INNER_MAX_SWEEPS):
            x1 = np.exp(e1 * self.log_a + (1.0 - e1) * np.log(w[self.supp_a]))
            q1n = np.zeros(k)
            q1n[self.supp_a] = x1 / x1.sum()
            x2 = np.exp(e2 * self.log_b + (1.0 - e2) * np.log(w[self.supp_b]))
            q2n = np.zeros(k)
            q2n[self.supp_b] = x2 / x2.sum()
            wn = (self.alpha * q1n + q2n) / (1.0 + self.alpha)
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

    def objective_value(self, q1: np.ndarray, q2: np.ndarray) -> float:
        return self.u * kl_array(q1, self.a) + self.v * kl_array(q2, self.b)

    def constraint_value(self, q1: np.ndarray, q2: np.ndarray) -> float:
        return gjs_array(q1, q2, self.alpha)

    def collapsed(self) -> tuple[float, np.ndarray]:
        """Zero-budget case: both arguments coincide with one distribution."""
        common = self.supp_a & self.supp_b
        if not np.any(common):
            return math.inf, np.zeros(len(self.a))
        share = self.u / (self.u + self.v)
        x = np.exp(
            share * np.log(self.a[common]) + (1.0 - share) * np.log(self.b[common])
        )
        q = np.zeros(len(self.a))
        q[common] = x / x.sum()
        return self.objective_value(q, q), q

    def solve(self, budget: float):
        """Constrained minimum with a certified duality gap.

        Returns ``(value, q1, q2)`` where the pair is feasible and the value
        sits within ``GAP_BOUND`` of the true optimum.
        """
        if budget < 0.0:
            raise Infeasible(f"divergence budget {budget} is negative")
        slack0 = self.constraint_value(self.a, self.b)
        if slack0 <= budget:
            return 0.0, self.a.copy(), self.b.copy()
        if budget == 0.0:
            value, q = self.collapsed()
            return value, q, q.copy()

        # Dual ascent: locate the multiplier whose relaxed solution meets
        # the budget exactly.  The constraint value is nonincreasing in mu.
        mu_lo = 0.0
        mu_hi = self.mu_start
        state_hi = self.relax(mu_hi, self.start())
        doublings = 0
        while self.constraint_value(state_hi[0], state_hi[1]) > budget:
            mu_lo = mu_hi
            mu_hi *= 2.0
            state_hi = self.relax(mu_hi, state_hi)
            doublings += 1
            if doublings > 200:
                raise NonConvergence("constraint multiplier bracketing diverged")
        while (mu_hi - mu_lo) > MU_RELATIVE_WIDTH * mu_hi:
            mu_mid = 0.5 * (mu_lo + mu_hi)
            state_mid = self.relax(mu_mid, (state_hi[0].copy(), state_hi[1].copy(), state_hi[2].copy()))
            if self.constraint_value(state_mid[0], state_mid[1]) > budget:
                mu_lo = mu_mid
            else:
                mu_hi, state_hi = mu_mid, state_mid
        q1, q2, _ = state_hi
        value = self.objective_value(q1, q2)
        slack = budget - self.constraint_value(q1, q2)
        gap = mu_hi * slack
        if not (0.0 <= gap <= GAP_BOUND * (1.0 + abs(value))):
            raise NonConvergence(f"duality gap {gap} above the certified bound")
        return value, q1, q2


def _program_for(problem: SimplexOptProblem) -> tuple[_PairProgram, float]:
    alpha = _check_alpha(problem.alpha)
    _check_pair(problem.p1, problem.p2)
    a1 = problem.p1.as_array()
    a2 = problem.p2.as_array()
    if problem.objective == OBJECTIVE_FIXED_LENGTH:
        return _PairProgram(alpha, 1.0, a1, a2, alpha), problem.threshold
    if problem.objective == OBJECTIVE_BAYES:
        return _PairProgram(1.0, 1.0 / alpha, a1, a2, alpha), problem.threshold * alpha
    if problem.objective == OBJECTIVE_BAYES_SWAPPED:
        return _PairProgram(1.0, 1.0 / alpha, a2, a1, alpha), problem.threshold * alpha
    raise Infeasible(f"unknown objective {problem.objective!r}")


def minimize_over_simplices(
    problem: SimplexOptProblem,
) -> tuple[float, tuple[Distribution, Distribution]]:
    """Solve one constrained divergence program.

    Returns the optimal value together with the feasible argmin pair.
    """
    program, budget = _program_for(problem)
    value, q1, q2 = program.solve(budget)
    alphabet = problem.p1.alphabet
    pair = (
        Distribution(alphabet, tuple(q1)),
        Distribution(alphabet, tuple(q2)),
    )
    return value, pair


def gutman_type2_exponent(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Type-II exponent of the fixed-length test, per test sample."""
    value, _ = minimize_over_simplices(
        SimplexOptProblem(OBJECTIVE_FIXED_LENGTH, alpha, lam, p1, p2)
    )
    return value

def gutman_bayes_curve(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Fixed-length type-II exponent, normalized per training sample."""
    value, _ = minimize_over_simplices(
        SimplexOptProblem(OBJECTIVE_BAYES, alpha, lam, p1, p2)
    )
    return value


def gutman_bayes_curve_swapped(
    alpha: float, lam: float, p1: Distribution, p2: Distribution
) -> float:
    """Mirror-image curve with the two sources exchanged."""
    value, _ = minimize_over_simplices(
        SimplexOptProblem(OBJECTIVE_BAYES_SWAPPED, alpha, lam, p1, p2)
    )
    return value


def gutman_bayes_exponent(alpha: float, p1: Distribution, p2: Distribution) -> float:
    """Prior-weighted exponent of the fixed-length test at ratio ``alpha``.

    This is the threshold at which the per-training-sample exponent curve
    crosses the identity line.  The crossing is found by following the dual
    path of the curve's program: as the multiplier grows, the relaxed
    objective rises from 0 while the relaxed constraint falls from the full
    divergence, so their difference changes sign exactly once.  For an
    identical pair the curve is identically zero and so is the crossing.
    The multiplier is bisected until objective and constraint agree within
    1e-12 or its bracket is ``MU_RELATIVE_WIDTH`` wide; :class:`NonConvergence`
    is raised when ``CROSSING_MAX_STEPS`` steps end before either.
    """
    alpha = _check_alpha(alpha)
    _check_pair(p1, p2)
    if _same_pair(p1, p2):
        return 0.0
    a1 = p1.as_array()
    a2 = p2.as_array()
    program = _PairProgram(1.0, 1.0 / alpha, a1, a2, alpha)

    def split(state) -> tuple[float, float]:
        q1, q2, _ = state
        objective = program.objective_value(q1, q2)
        constraint = program.constraint_value(q1, q2) / alpha
        return objective, constraint

    mu_lo = 0.0
    mu_hi = program.mu_start
    state_hi = program.relax(mu_hi, program.start())
    doublings = 0
    while True:
        objective, constraint = split(state_hi)
        if objective > constraint:
            break
        mu_lo = mu_hi
        mu_hi *= 2.0
        state_hi = program.relax(mu_hi, state_hi)
        doublings += 1
        if doublings > 200:
            raise NonConvergence("crossing multiplier bracketing diverged")
    steps = 0
    while True:
        if abs(objective - constraint) <= 1e-12 or (mu_hi - mu_lo) <= MU_RELATIVE_WIDTH * mu_hi:
            return 0.5 * (objective + constraint)
        if steps == CROSSING_MAX_STEPS:
            raise NonConvergence(
                f"crossing multiplier bisection unfinished after {steps} steps: "
                f"objective {objective} against constraint {constraint}"
            )
        steps += 1
        mu_mid = 0.5 * (mu_lo + mu_hi)
        state_mid = program.relax(
            mu_mid, (state_hi[0].copy(), state_hi[1].copy(), state_hi[2].copy())
        )
        o_mid, c_mid = split(state_mid)
        if o_mid > c_mid:
            mu_hi, state_hi, objective, constraint = mu_mid, state_mid, o_mid, c_mid
        else:
            mu_lo = mu_mid


def bayes_multiclass_gutman(dists: list[Distribution], alpha: float) -> float:
    """Prior-weighted exponent of the multiclass fixed-length test.

    Equals the smallest ``gjs(P_i, P_j, alpha) / alpha`` over ordered pairs
    of distinct classes.
    """
    alpha = _check_alpha(alpha)
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
    there.  The margin column is positive throughout the valid rate range.
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
