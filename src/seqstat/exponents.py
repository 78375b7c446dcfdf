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
coordinate more than ``INNER_TOLERANCE``.  The Hessian is a diagonal plus a
rank-two term, so each step's KKT system, bordered by ``sum W = 1``, is
solved in closed form (``_simplex_solve``), and the sweep, the step and its
line search are scalar ``math`` loops over the kept symbols: on the package's
alphabets of a handful of symbols one numpy call costs more than the
loop's arithmetic (README, "Performance notes").  A coordinate that the
full step would empty is held at the relative step ``-HELD_STEP`` and the
others are solved again (``_newton_step``).  From a distribution's
``weights`` to the returned pair, every state and value is a Python float.

The program's multiplier search doubles the multiplier from 1 (block
exponent 1/2), with ``mu = 0`` (the sources) as the first lower end, and
narrows the bracket by an Illinois (modified regula falsi) search
safeguarded by bisection (``_bracket`` and ``_search`` in
:mod:`seqstat.divergence`, which :func:`constrained_kl_min` also runs on
its path).  It searches on the constraint slack and returns a feasible end
with its duality gap ``mu * slack`` certified.  It keeps the Illinois
steps: Newton steps close in from the infeasible side, and that search
stops only on a feasible end.

The Bayes crossing looks for the multiplier at which the relaxed objective
minus the relaxed constraint, both divided by ``alpha``, changes sign.  It
does not relax ``W`` at every multiplier it tries: from the mixture at
``mu = 1`` it takes Newton steps on ``(W, mu)`` together
(:meth:`_PairProgram.joint_step`), on the relaxation's stationarity and the
excess at once, each one sweep and one two-sided solve of the
relaxation's KKT system (``_simplex_solve``; Boyd & Vandenberghe, *Convex
Optimization*, 10.3; Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
ch. 11).  A step is taken only if ``mu``
stays inside the bracket of relaxed ends and the residual falls; an
iterate whose sweep moves no coordinate more than ``INNER_TOLERANCE``
passes :meth:`_PairProgram.relax`'s own stop, so it is a relaxed end.  A
refused step is replaced by a relaxation at a safeguard point, the
bracket's midpoint, or twice its lower end while no end has a positive
excess, started from the current iterate; that end enters the bracket and
the steps go on from it (a safeguarded Newton iteration: Press et al.,
*Numerical Recipes*, 3rd ed., 9.4, ``rtsafe``).  From a relaxed state a
joint step is a Newton step on ``mu`` alone, with the excess's slope, and
it moves ``W`` along the tangent of the relaxed path, so no separate slope
or start is computed.  :func:`_bayes_crossing` returns the crossing with
its certificate (:class:`_Crossing`).

Sources that share no symbol have a defined answer everywhere: every pair of
finite objective then has the sources' own ``gjs``, so the programs are
infeasible below it (value ``inf``) and solved by the sources at or above it
(value 0), and the Bayes crossing is ``gjs(P1, P2, alpha) / alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub
from typing import NamedTuple, Sequence

from . import divergence
from .divergence import _End, _bracket, _search, gjs, gjs_array, kl_array
from .errors import EmptyWeights, Infeasible, NonConvergence, NotNormalized
from .fixedpoint import exponent_report
from .probability import (
    Distribution, _check_alpha, _check_classes, _check_distinct, _check_real, _same_pair,
)

# A relaxation stops once its sweep moves no coordinate more than this; one
# that needs more than INNER_MAX_SWEEPS sweeps (Newton iterations) raises.
# The crossing's joint Newton steps, each one sweep and one search step,
# raise once they exceed either this or divergence.CROSSING_MAX_STEPS.
INNER_TOLERANCE = 1e-15
INNER_MAX_SWEEPS = 20000
# Certified duality gap allowed on a returned optimal value.
GAP_BOUND = 1e-8
# Relative step of a coordinate that a full Newton step would empty: it
# shrinks by a factor 1 - HELD_STEP per full step.
HELD_STEP = 0.99

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


def _simplex_solve(
    diag: list[float], u1: list[float], u2: list[float], w: list[float], rhs: list[float],
    mass: float = 0.0, other: list[float] | None = None,
) -> list[float] | tuple[list[float], list[float]]:
    """The relative step ``d`` with ``H d = rhs`` up to a multiple of ``w``,
    and ``w . d = mass`` (0 keeps ``sum W`` put): the KKT system ``[[H, w],
    [w^T, 0]] [d; nu] = [rhs; mass]`` for ``H = diag(diag) + u1 u1^T + u2
    u2^T``, the factored Hessian of :meth:`_PairProgram.derivatives`.

    Woodbury's identity gives ``H^-1 x = D^-1 x - D^-1 U M^-1 U^T D^-1 x``
    with ``U = [u1 u2]`` and the 2x2 ``M = I + U^T D^-1 U``; then ``d =
    H^-1 rhs - nu H^-1 w`` with ``nu = (w^T H^-1 rhs - mass) / w^T H^-1 w``
    (KKT block elimination; Boyd & Vandenberghe, *Convex Optimization*,
    10.2).  Each row is divided by its own diagonal entry, so a coordinate
    of ``W`` many orders below the others keeps its relative step's digits,
    which a dense solve of the bordered matrix loses to that row's scale.

    With ``other`` it returns the pair ``(d, z)``, where ``z`` solves the
    same system for the right-hand side ``other`` and mass 0: the two sides
    share ``M``, ``H^-1 w`` and ``w^T H^-1 w``, one pass over the symbols
    takes both sides' Woodbury sums and ``sum w``, and one more builds both
    raw steps and their ``w . d`` sums.  Every sum adds its terms in the
    order of a one-sided call, so each step has the bits of its own
    one-sided solve; without ``other`` no second side is computed.
    """
    two = other is not None
    m11 = m22 = 1.0
    m12 = r1 = r2 = w1 = w2 = wr = ww = total = o1 = o2 = wo = 0.0
    for x, y1, y2, wi, ri, oi in zip(diag, u1, u2, w, rhs, other if two else w):
        a1, a2 = y1 / x, y2 / x
        m11 += y1 * a1
        m12 += y1 * a2
        m22 += y2 * a2
        r1 += a1 * ri
        r2 += a2 * ri
        w1 += a1 * wi
        w2 += a2 * wi
        wr += wi * ri / x
        ww += wi * wi / x
        total += wi
        if two:
            o1 += a1 * oi
            o2 += a2 * oi
            wo += wi * oi / x
    det = m11 * m22 - m12 * m12
    # M^-1 (U^T D^-1 w), M^-1 (U^T D^-1 rhs) and the multiplier nu
    t1, t2 = (m22 * w1 - m12 * w2) / det, (m11 * w2 - m12 * w1) / det
    border = ww - w1 * t1 - w2 * t2
    s1, s2 = (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det
    nu = (wr - w1 * s1 - w2 * s2 - mass) / border
    s1 -= nu * t1
    s2 -= nu * t2
    if two:
        o1, o2 = (m22 * o1 - m12 * o2) / det, (m11 * o2 - m12 * o1) / det
        no = (wo - w1 * o1 - w2 * o2) / border
        o1 -= no * t1
        o2 -= no * t2
    d, z = [], []
    wd = wz = 0.0
    for x, y1, y2, wi, ri, oi in zip(diag, u1, u2, w, rhs, other if two else w):
        di = (ri - nu * wi - y1 * s1 - y2 * s2) / x
        d.append(di)
        wd += wi * di
        if two:
            zi = (oi - no * wi - y1 * o1 - y2 * o2) / x
            z.append(zi)
            wz += wi * zi
    # nu carries the rounding of sums as large as 1 / diag, which leaves w . d
    # off its mass by as much; an equal shift of every relative step takes it out
    shift = (wd - mass) / total
    if not two:
        return [x - shift for x in d]
    shift_z = wz / total
    return [x - shift for x in d], [x - shift_z for x in z]


def _newton_step(
    diag: list[float], u1: list[float], u2: list[float], w: list[float], rhs: list[float]
) -> list[float]:
    """:func:`_simplex_solve`'s step, with every coordinate that its full
    step would empty (``d <= -1``) held at ``-HELD_STEP`` instead.

    The step of the others is solved again with the held ones fixed: their
    Hessian columns move to the right-hand side and their mass to the
    constraint, until no free coordinate would be emptied.  Without this,
    one coordinate on its way to 0, as a symbol of only one source's support
    goes at large ``mu``, caps the step length of all the others, and the
    relaxation stalls while that coordinate shrinks toward underflow.
    """
    d = _simplex_solve(diag, u1, u2, w, rhs)
    held: set[int] = set()
    while min(d) <= -1.0:
        held.update(i for i, x in enumerate(d) if x <= -1.0)
        free = [i for i in range(len(d)) if i not in held]
        c1 = -HELD_STEP * sum(u1[i] for i in held)
        c2 = -HELD_STEP * sum(u2[i] for i in held)
        step = _simplex_solve(
            [diag[i] for i in free], [u1[i] for i in free], [u2[i] for i in free],
            [w[i] for i in free], [rhs[i] - u1[i] * c1 - u2[i] * c2 for i in free],
            HELD_STEP * sum(w[i] for i in held),
        )
        d = [-HELD_STEP] * len(d)
        for i, x in zip(free, step):
            d[i] = x
    return d


def _log_step(w: list[float], d: list[float]) -> list[float] | None:
    """``w * exp(d)``, renormalised: the step ``d`` in ``log W``; None where
    a coordinate of it is not finite and positive."""
    try:
        guess = [x * math.exp(y) for x, y in zip(w, d)]
    except OverflowError:  # math.exp raises past the largest float
        return None
    total = sum(guess)
    if not 0.0 < total < math.inf:  # NaN fails here too
        return None
    guess = [x / total for x in guess]
    return guess if min(guess) > 0.0 else None


class _Crossing(NamedTuple):
    """Certificate of one Bayes crossing (:func:`_bayes_crossing`).

    ``value`` is what :func:`gutman_bayes_exponent` returns and ``excess``
    the signed excess of the end it comes from; ``lo`` and ``hi`` are the
    multipliers of the final bracket's ends, relaxed states whose excesses
    are at most 0 and positive (``hi`` is ``inf`` while no end has a
    positive excess).  The counts are the program's relaxations, sweeps
    and KKT solves (:class:`_PairProgram`).
    """

    value: float
    excess: float
    lo: float
    hi: float
    relaxations: int
    sweeps: int
    solves: int


class _PairProgram:
    """minimize alpha*D(Q1||A) + D(Q2||B) s.t. gjs(Q1,Q2,alpha) <= budget.

    The program lives on the union of the two supports: symbols outside
    it carry no mass in any pair of finite objective, so ``keep`` lists the
    alphabet positions of the kept symbols, ``a`` and ``b`` hold the
    sources' weights there and ``logs`` their logs.  Every state ``(q1, q2,
    w)`` is three float sequences with one entry per kept symbol and ``w >
    0`` throughout, read and passed on but never changed in place.

    ``relaxations``, ``sweeps`` and ``solves`` count the program's calls of
    :meth:`relax` and :meth:`sweep` and its KKT solves: one per Newton step
    of a relaxation (with the re-solves of :func:`_newton_step` that hold
    coordinates) and two per :meth:`joint_step`.
    """

    relaxations = sweeps = solves = 0

    def __init__(self, a: Sequence[float], b: Sequence[float], alpha: float):
        self.keep = [i for i, (x, y) in enumerate(zip(a, b)) if x > 0.0 or y > 0.0]
        self.a = [a[i] for i in self.keep]
        self.b = [b[i] for i in self.keep]
        self.alpha = alpha
        self.common = any(x > 0.0 and y > 0.0 for x, y in zip(self.a, self.b))
        # -inf off a source's support, where the sweep's weight is exp(-inf) = 0
        self.logs = [tuple(math.log(x) if x > 0.0 else -math.inf for x in pair)
                     for pair in zip(self.a, self.b)]

    def start(self) -> tuple[list[float], list[float], list[float]]:
        """The relaxed state at ``mu = 0``: the sources and their mixture."""
        alpha = self.alpha
        return self.a, self.b, [(alpha * x + y) / (1.0 + alpha) for x, y in zip(self.a, self.b)]

    def sweep(self, w, e: float) -> tuple[list[float], list[float], list[float]]:
        """One block-descent sweep from ``w``: ``(q1(w), q2(w), T(w))``.

        ``q1`` is the normalized geometric mean ``a^e * w^(1-e)``, ``q2``
        likewise on ``b``, and ``T(w)`` their ``alpha``-mixture.
        """
        self.sweeps += 1
        f = 1.0 - e
        x1, x2 = [], []
        s1 = s2 = 0.0
        for (log_a, log_b), x in zip(self.logs, w):
            log_w = f * math.log(x)
            y1, y2 = math.exp(e * log_a + log_w), math.exp(e * log_b + log_w)
            x1.append(y1)
            x2.append(y2)
            s1 += y1
            s2 += y2
        alpha = self.alpha
        share = 1.0 + alpha
        q1, q2, t_w = [], [], []
        for y1, y2 in zip(x1, x2):
            y1 /= s1
            y2 /= s2
            q1.append(y1)
            q2.append(y2)
            t_w.append((alpha * y1 + y2) / share)
        return q1, q2, t_w

    def derivatives(self, w, q1, q2, t_w, e: float):
        """Gradient and Hessian of ``L_mu / (1 + mu) + (1 - e)(1 + alpha) sum
        W`` (see :meth:`relax`) in the relative step ``d = dW / w`` at ``d =
        0``, from the sweep ``(q1(w), q2(w), T(w))``.

        The Hessian ``(1 - e)^2 (alpha q1 q1^T + q2 q2^T) + e (1 - e)(1 +
        alpha) diag(T(w))`` comes factored as ``(diag, u1, u2)``: ``diag =
        e (1 - e)(1 + alpha) T(w)``, ``u1 = (1 - e) sqrt(alpha) q1`` and
        ``u2 = (1 - e) q2``, the form :func:`_simplex_solve` takes.
        """
        f = 1.0 - e
        scale = f * (1.0 + self.alpha)
        root = f * math.sqrt(self.alpha)
        grad = [scale * (x - t) for x, t in zip(w, t_w)]
        return grad, (
            [e * scale * t for t in t_w], [root * y for y in q1], [f * y for y in q2],
        )

    def relax(self, mu: float, state):
        """Minimize the Lagrangian at multiplier ``mu``, starting from ``state``.

        Over ``(Q1, Q2)`` its minimum is ``L_mu(W) = -(1 + mu) * [alpha * log
        S1 + log S2]``, ``S1 = sum a^e W^(1-e)``, ``S2 = sum b^e W^(1-e)``, ``e
        = 1 / (1 + mu)``, convex in the mixture ``W``.  Each iteration is one
        sweep from ``w``, whose block minimizers give the derivatives, and one
        Newton step under ``sum W = 1`` (:func:`_newton_step`), halved until
        it stays positive and lowers ``L_mu`` by a quarter of the slope's
        prediction (Boyd & Vandenberghe, *Convex Optimization*, 9.5 and
        10.2), or else, once it moves no coordinate by a relative machine
        epsilon, the sweep's ``T(w)``, which never raises ``L_mu``.  Returns ``(q1(w), q2(w), w)``
        once that sweep moves no coordinate more than ``INNER_TOLERANCE``;
        :class:`NonConvergence` after ``INNER_MAX_SWEEPS``.
        """
        self.relaxations += 1
        e = 1.0 / (1.0 + mu)
        f = 1.0 - e
        shift = f * (1.0 + self.alpha)
        w = state[2]
        for _ in range(INNER_MAX_SWEEPS):
            q1, q2, t_w = self.sweep(w, e)
            move = max(map(abs, map(sub, t_w, w)))
            if move <= INNER_TOLERANCE:
                return q1, q2, w
            # adding (1 - e)(1 + alpha) sum W, constant on the simplex, makes
            # the gradient vanish where the sweep stands still
            grad, hess = self.derivatives(w, q1, q2, t_w, e)
            d = _newton_step(*hess, w, [-g for g in grad])
            self.solves += 1
            slope, mass, lowest = sum(map(mul, grad, d)), sum(map(mul, w, d)), min(d)
            largest = max(map(abs, d))
            t = 1.0  # the full step is always tried; the bound costs a reduction
            while t == 1.0 or t * largest >= math.ulp(1.0):
                if t * lowest > -1.0:
                    # S(w (1 + t d)) / S(w) = 1 + q . z keeps the change's digits
                    z = [math.expm1(f * math.log1p(t * x)) for x in d]
                    g1, g2 = sum(map(mul, q1, z)), sum(map(mul, q2, z))
                    change = shift * t * mass - (self.alpha * math.log1p(g1) + math.log1p(g2))
                    if change <= 0.25 * t * slope:
                        w = [x * (1.0 + t * y) for x, y in zip(w, d)]
                        break
                t *= 0.5
            else:
                w = t_w
        raise NonConvergence(
            f"block descent at mu={mu} still moving {move} after {INNER_MAX_SWEEPS} sweeps"
        )

    def joint_step(self, mu: float, w, swept) -> tuple[float, list[float] | None, float]:
        """The crossing's excess at the unrelaxed ``(w, mu)`` and one Newton
        step on ``(W, mu)`` together, from the sweep ``swept = (q1(w),
        q2(w), T(w))``.

        With ``u1 = log a - log w`` and ``u2 = log b - log w`` (0 off each
        source's support, where its block has no mass) and ``r = log w -
        log T(w)``, objective minus constraint at ``(q1(w), q2(w))`` is
        ``(1 + alpha) D(T(w) || w) - alpha q1 . u1 - q2 . u2``, the excess
        times ``alpha``, with no divergence of its own to evaluate.  The
        step solves the stationarity of :meth:`relax` and the linearised
        excess together: ``H d + c de = -g`` up to the border's multiple of
        ``w``, with ``w . d = 0``, and ``h . d + E_e de = -excess``.  ``g``
        and ``H`` are :meth:`derivatives`'s, taken in the pass over the
        symbols that computes ``c`` and ``h``; ``c``, the gradient's
        derivative in ``e`` at fixed ``W``, is ``-(1 + alpha)(w - T(w)) -
        (1 - e)(alpha v1 + v2)`` with ``v = q (u - q . u)``; ``h`` and
        ``E_e`` are the excess's derivatives in the relative step and in
        ``e``, ``h = -(1 - e)(alpha q1 (s1 - q1 . s1) + q2 (s2 - q2 . s2)) /
        alpha`` with ``s = u + r``.  Block elimination (Boyd & Vandenberghe,
        *Convex Optimization*, 10.3) solves it with two right-hand sides of
        the KKT system, ``H d0 = -g`` and ``H z = c`` (one call of
        :func:`_simplex_solve`, which counts as two solves), and a scalar
        Schur complement: ``d = d0 - de z`` and ``de = -(excess + h . d0) /
        (E_e - h . z)``.  The sums over ``u`` take centred terms: ``sum q u
        (u - m)`` would carry ``m``'s rounding times ``m``, which swamps a
        variance below ``m^2 eps``.

        At a relaxed state ``g = 0`` and ``r = 0``, so ``d0 = 0`` and the
        step is a Newton step on the multiplier alone.  The dual function
        ``Lambda(mu) = min_W L_mu(W)`` has the relaxed constraint as its
        slope, so the excess is ``(Lambda - (1 + mu) Lambda') / alpha``,
        and its slope ``-(1 + mu) Lambda'' / alpha`` is ``-e^2 (E_e - h .
        z) >= 0`` (the implicit function theorem gives ``Lambda''``
        through ``z``); ``W`` moves along the tangent ``-z = d log W / de``
        of the relaxed path.  ``H`` misses the gradient's Jacobian by
        ``diag(g)``, which vanishes at the solution, so the steps still
        converge quadratically; ``h`` does not vanish there, and leaving it
        out makes the convergence linear.

        Returns ``(excess, w', mu')``: the step is taken in the multiplier,
        ``mu' = mu - de / e^2``, and in ``log W`` (:func:`_log_step`), so
        that no coordinate can leave the simplex; ``w'`` is None where that
        fails and ``mu'`` NaN where the Schur complement has the wrong
        sign.
        """
        e = 1.0 / (1.0 + mu)
        f = 1.0 - e
        alpha = self.alpha
        q1, q2, t_w = swept
        u1, u2, r = [], [], []
        m1 = m2 = tr = r1 = r2 = 0.0
        for (log_a, log_b), x, t, y1, y2 in zip(self.logs, w, t_w, q1, q2):
            log_w = math.log(x)
            c1 = log_a - log_w if log_a > -math.inf else 0.0
            c2 = log_b - log_w if log_b > -math.inf else 0.0
            ri = log_w - math.log(t)
            u1.append(c1)
            u2.append(c2)
            r.append(ri)
            m1 += y1 * c1
            m2 += y2 * c2
            tr += t * ri
            r1 += y1 * ri
            r2 += y2 * ri
        excess = -((1.0 + alpha) * tr + alpha * m1 + m2) / alpha
        # centred: v = q (u - m) and s - q . s = (u - m) + (r - q . r); the
        # negated gradient and the Hessian's factors as derivatives() has them
        scale = f * (1.0 + alpha)
        root = f * math.sqrt(alpha)
        curve = e * scale
        pull = -(1.0 + alpha)
        c, h, rhs, diag, f1, f2 = [], [], [], [], [], []
        second = 0.0
        for x, t, y1, y2, c1, c2, ri in zip(w, t_w, q1, q2, u1, u2, r):
            c1 -= m1
            c2 -= m2
            v1, v2 = y1 * c1, y2 * c2
            second += alpha * v1 * (c1 + ri) + v2 * (c2 + ri)
            gap = x - t
            c.append(pull * gap - f * (alpha * v1 + v2))
            h.append(alpha * y1 * (c1 + ri - r1) + y2 * (c2 + ri - r2))
            rhs.append(-(scale * gap))
            diag.append(curve * t)
            f1.append(root * y1)
            f2.append(f * y2)
        self.solves += 2
        d0, z = _simplex_solve(diag, f1, f2, w, rhs, 0.0, c)
        # E_e - h . z with E_e = -second / alpha and h scaled by -(1 - e) / alpha
        schur = (f * sum(map(mul, h, z)) - second) / alpha
        rise = excess - f * sum(map(mul, h, d0)) / alpha
        de = -rise / schur if schur < 0.0 else math.nan
        return excess, _log_step(w, [x - de * y for x, y in zip(d0, z)]), mu - de / (e * e)

    def objective_value(self, q1: Sequence[float], q2: Sequence[float]) -> float:
        return self.alpha * kl_array(q1, self.a) + kl_array(q2, self.b)

    def constraint_value(self, q1: Sequence[float], q2: Sequence[float]) -> float:
        # on the weights that Distribution objects of the pair hold
        s1, s2 = math.fsum(q1), math.fsum(q2)
        return gjs_array([x / s1 for x in q1], [x / s2 for x in q2], self.alpha)

    def collapsed(self) -> tuple[float, list[float]]:
        """Zero-budget case: both arguments coincide with one distribution."""
        share = self.alpha / (1.0 + self.alpha)
        x = [math.exp(share * la + (1.0 - share) * lb) if min(la, lb) > -math.inf else 0.0
             for la, lb in self.logs]
        total = sum(x)
        q = [y / total for y in x]
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
            return 0.0, self.a, self.b
        if not self.common:
            return math.inf, None, None
        if budget == 0.0:
            value, q = self.collapsed()
            return value, q, q

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
        return (end.value, *end.state[:2])


def _program(alpha: float, p1: Distribution, p2: Distribution) -> _PairProgram:
    """The fixed-length program at ratio ``alpha``, after checking the ratio and the pair."""
    alpha = _check_alpha(alpha, strict=True)
    _check_classes((p1, p2), "distributions")
    return _PairProgram(p1.weights, p2.weights, alpha)


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
        full = [0.0] * p1.alphabet.size
        for i, x in zip(program.keep, q):
            full[i] = x
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
    divided by ``alpha``, changes sign exactly once.  Joint Newton steps on
    the mixture and the multiplier together find that multiplier, with a
    relaxation at the bracket's midpoint in place of a refused step (module
    docstring).  The crossing is the mean of objective and constraint over
    ``alpha`` at a relaxed end where they agree within ``EXCESS_STOP``
    (:mod:`seqstat.divergence`), else at the end of the final bracket where
    they are closer, once it is ``RELATIVE_BRACKET_WIDTH`` wide.  For an
    identical pair the curve is identically zero and so is the crossing;
    where ``gjs(P1, P2, alpha) / alpha <= EXCESS_STOP`` the sources already
    meet the stop.  For sources with disjoint supports the curve is ``inf``
    below ``gjs(P1, P2, alpha) / alpha`` and 0 from there on, so the
    crossing is that value, the supremum of ``min(lam, curve(lam))``.
    :func:`_bayes_crossing` returns the value with its certificate.
    """
    return _bayes_crossing(alpha, p1, p2).value


def _bayes_crossing(alpha: float, p1: Distribution, p2: Distribution) -> _Crossing:
    """:func:`gutman_bayes_exponent` with its certificate, :class:`_Crossing`.

    Where no search runs, the bracket is ``(0, inf)``, and the excess is
    that of the sources (``-gjs(P1, P2, alpha) / alpha``), or 0 where the
    crossing is exact: for an identical pair and for disjoint supports.
    """
    program = _program(alpha, p1, p2)

    def certify(value: float, excess: float, lo: float = 0.0, hi: float = math.inf) -> _Crossing:
        return _Crossing(
            value, excess, lo, hi, program.relaxations, program.sweeps, program.solves,
        )

    if _same_pair(p1, p2):
        return certify(0.0, 0.0)
    alpha = program.alpha
    sources = program.start()
    full = program.constraint_value(sources[0], sources[1]) / alpha
    if not program.common:
        return certify(full, 0.0)
    lo = _End(0.0, -full, 0.5 * full, None)
    if full <= divergence.EXCESS_STOP:  # the sources already meet the stop
        return certify(lo.value, lo.excess)
    hi = _End(math.inf, math.inf, math.inf, None)  # no end with a positive excess yet

    # Joint Newton steps on (W, mu) from the mixture at mu = 1, each taken
    # only if it keeps mu inside the bracket and lowers the residual (the
    # sweep's move and the excess).  An iterate whose sweep moves no
    # coordinate more than INNER_TOLERANCE passes relax's own stop, so it
    # is relax's answer at its mu, and it enters the bracket as an end.  A
    # refused step relaxes at the bracket's midpoint instead, or at twice
    # its lower end while no end has a positive excess, and the steps go on
    # from that end with the merit reset.  Each step is a sweep and a search
    # step, so the loop has the smaller of the two budgets.
    budget = min(divergence.CROSSING_MAX_STEPS, INNER_MAX_SWEEPS)
    mu, w = 1.0, sources[2]
    best = math.inf
    for _ in range(budget):
        e = 1.0 / (1.0 + mu)
        swept = program.sweep(w, e)
        q1, q2, t_w = swept
        move = max(map(abs, map(sub, t_w, w)))
        if move <= INNER_TOLERANCE:
            objective = program.objective_value(q1, q2) / alpha
            constraint = program.constraint_value(q1, q2) / alpha
            end = _End(mu, objective - constraint, 0.5 * (objective + constraint), None)
            if abs(end.excess) <= divergence.EXCESS_STOP:
                return certify(end.value, end.excess, lo.mu, hi.mu)
            if end.excess > 0.0:
                hi = end
            else:
                lo = end
            # an infinite hi is never narrow, though inf - mu <= inf holds
            if hi.mu - lo.mu <= divergence.RELATIVE_BRACKET_WIDTH * hi.mu < math.inf:
                # the end of smaller excess, hi first; an excess within the stop counts as 0
                end = min(hi, lo, key=lambda end: max(abs(end.excess), divergence.EXCESS_STOP))
                return certify(end.value, end.excess, lo.mu, hi.mu)
        excess, w_next, mu_next = program.joint_step(mu, w, swept)
        merit = math.hypot(move, excess)
        if merit < best and w_next is not None and lo.mu < mu_next < hi.mu:
            best, mu, w = merit, mu_next, w_next
        else:
            mu = 0.5 * (lo.mu + hi.mu) if hi.mu < math.inf else max(1.0, 2.0 * lo.mu)
            w = program.relax(mu, (q1, q2, w))[2]
            best = math.inf
    unit = "sweeps" if INNER_MAX_SWEEPS < divergence.CROSSING_MAX_STEPS else "steps"
    raise NonConvergence(
        f"Bayes crossing unfinished after {budget} {unit}: excess {lo.excess} to {hi.excess}"
    )


def bayes_multiclass_gutman(dists: list[Distribution], alpha: float) -> float:
    """Prior-weighted exponent of the multiclass fixed-length test.

    Equals the smallest ``gjs(P_i, P_j, alpha) / alpha`` over ordered pairs
    of distinct classes.
    """
    alpha = _check_alpha(alpha, strict=True)
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
    ``V_1`` lies outside the ball.  ``V_1`` is ``p_center`` renormalised on
    the common support, at ``-log`` of its mass there from ``p_center``;
    that sum is taken as :func:`chernoff` takes it at the center's end, so
    that where the Chernoff optimum sits at ``V_1`` the radius
    ``chernoff(p_center, p_obj)`` reaches ``V_1``.  The value is
    nonincreasing in ``radius``, above ``radius`` below the Chernoff
    information ``C`` of the pair and below it above ``C``.  At ``radius =
    C`` it is ``C``, except where the Chernoff optimum sits at ``V_1``:
    there it is ``D(V_1 || p_obj)``, below ``C``.
    """
    _check_classes((p_center, p_obj), "distributions")
    radius = _check_budget(radius, "radius")
    center, obj = p_center.weights, p_obj.weights
    if radius == 0.0:
        return kl_array(center, obj)
    if kl_array(obj, center) <= radius:
        return 0.0
    common = [(c, o) for c, o in zip(center, obj) if c > 0.0 and o > 0.0]
    if not common:
        return math.inf
    center, obj = zip(*common)  # D(V_t || .) reads only V_t's support
    logs = [(math.log(c), math.log(o)) for c, o in common]

    def end(t: float, state=None) -> _End:
        x = [math.exp((1.0 - t) * log_obj + t * log_center) for log_center, log_obj in logs]
        total = 0.0
        for y in x:  # in order, as chernoff sums (sum() compensates from Python 3.12)
            total += y
        v = [y / total for y in x]
        slack = radius - (-math.log(total) if t == 1.0 else kl_array(v, center))
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
    limits = []  # the rate gate's, carried from one rate to the next
    for gamma in gamma_grid:
        report = exponent_report(p1, p2, gamma, _limits=limits)
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
