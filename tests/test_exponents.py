"""Constrained simplex programs, crossing points, and comparison tables."""

import math

import numpy as np
import pytest

from seqstat import (
    Alphabet,
    bayes_multiclass_gutman,
    chernoff,
    compare_sequential_vs_gutman,
    constrained_kl_min,
    exponent_report,
    gjs,
    gutman_bayes_curve,
    gutman_bayes_curve_swapped,
    gutman_bayes_exponent,
    gutman_type2_exponent,
    kl,
    lp_closed_form,
    make_distribution,
    minimize_over_simplices,
    multiclass_thetas,
)
from seqstat import divergence, exponents, fixedpoint
from seqstat.exponents import (
    GAP_BOUND,
    HELD_STEP,
    INNER_TOLERANCE,
    _End,
    _PairProgram,
    _bayes_crossing,
    _newton_step,
    _program,
    _search,
    _simplex_solve,
)
from seqstat.errors import (
    DuplicateDistribution,
    EmptyWeights,
    GammaOutOfRange,
    Infeasible,
    NonConvergence,
    NonPositiveGamma,
    NotNormalized,
    ValidationError,
)
from conftest import alphabet, random_interior_pair
import oracle

WIDE_PAIR = ([0.1, 0.3, 0.6], [0.45, 0.45, 0.1])
DISJOINT_PAIR = ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5])
TRIO = ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4])
EPS = 1e-9


def _kl2(x, a):
    """KL of Bernoulli(x) from Bernoulli(a), vectorized in x."""
    return x * np.log(x / a) + (1 - x) * np.log((1 - x) / (1 - a))


def _gjs2(x, y, alpha):
    """gjs of Bernoulli(x) against Bernoulli(y), broadcasting."""
    m = (alpha * x + y) / (1 + alpha)
    out = alpha * (x * np.log(x / m) + (1 - x) * np.log((1 - x) / (1 - m)))
    out += y * np.log(y / m) + (1 - y) * np.log((1 - y) / (1 - m))
    return out


def binary_program_oracle(u, v, alpha, budget, a, b, stages=4, points=401):
    """Shrinking-window grid minimum of u*D(Q1||a)+v*D(Q2||b) on the
    gjs(Q1,Q2,alpha) <= budget set, binary alphabet."""
    lo1, hi1 = EPS, 1 - EPS
    lo2, hi2 = EPS, 1 - EPS
    best = math.inf
    for _ in range(stages):
        q1 = np.linspace(lo1, hi1, points)
        q2 = np.linspace(lo2, hi2, points)
        total = u * _kl2(q1, a)[:, None] + v * _kl2(q2, b)[None, :]
        feasible = _gjs2(q1[:, None], q2[None, :], alpha) <= budget
        total = np.where(feasible, total, math.inf)
        k = int(total.argmin())
        i, j = divmod(k, points)
        best = float(total[i, j])
        h1 = q1[1] - q1[0]
        h2 = q2[1] - q2[0]
        lo1 = max(EPS, q1[i] - 3 * h1)
        hi1 = min(1 - EPS, q1[i] + 3 * h1)
        lo2 = max(EPS, q2[j] - 3 * h2)
        hi2 = min(1 - EPS, q2[j] + 3 * h2)
    return best


def ternary_program_oracle(u, v, alpha, budget, a, b, stages=6, points=21):
    """Shrinking-box oracle on a pair of ternary simplices."""
    box = [(EPS, 1 - EPS)] * 4

    def simplex(grid_x, grid_y):
        x, y = np.meshgrid(grid_x, grid_y, indexing="ij")
        z = 1.0 - x - y
        ok = z > EPS
        return x[ok], y[ok], z[ok]

    best = math.inf
    argmin = None
    for _ in range(stages):
        g = [np.linspace(lo, hi, points) for lo, hi in box]
        x1, y1, z1 = simplex(g[0], g[1])
        x2, y2, z2 = simplex(g[2], g[3])
        q1 = np.stack([x1, y1, z1], axis=1)
        q2 = np.stack([x2, y2, z2], axis=1)
        d1 = (q1 * np.log(q1 / np.array(a))).sum(axis=1)
        d2 = (q2 * np.log(q2 / np.array(b))).sum(axis=1)
        m = (alpha * q1[:, None, :] + q2[None, :, :]) / (1 + alpha)
        con = alpha * (q1[:, None, :] * np.log(q1[:, None, :] / m)).sum(axis=2)
        con += (q2[None, :, :] * np.log(q2[None, :, :] / m)).sum(axis=2)
        total = u * d1[:, None] + v * d2[None, :]
        total = np.where(con <= budget, total, math.inf)
        k = int(total.argmin())
        i, j = divmod(k, total.shape[1])
        best = float(total[i, j])
        center = (x1[i], y1[i], x2[j], y2[j])
        new_box = []
        for c, (lo, hi) in zip(center, box):
            h = 2.5 * (hi - lo) / (points - 1)
            new_box.append((max(EPS, c - h), min(1 - EPS, c + h)))
        box = new_box
        argmin = (q1[i], q2[j])
    return best, argmin


def fixed_length_value(alpha, lam, p1, p2):
    return gutman_type2_exponent(alpha, lam, p1, p2)


class TestFixedLengthProgram:
    def test_zero_when_pair_feasible(self, rng):
        p1, p2 = random_interior_pair(rng, 3)
        alpha = 1.3
        lam = gjs(p1, p2, alpha) * 1.0001
        assert fixed_length_value(alpha, lam, p1, p2) == 0.0

    def test_zero_lambda_identical_sources(self):
        alph = alphabet(2)
        p = make_distribution([0.6, 0.4], alph)
        assert fixed_length_value(1.0, 0.0, p, p) == pytest.approx(0.0, abs=1e-12)

    def test_zero_lambda_single_simplex_reduction(self):
        # with no slack the two arguments collapse to one distribution
        alph = alphabet(2)
        p1 = make_distribution([0.8, 0.2], alph)
        p2 = make_distribution([0.3, 0.7], alph)
        alpha = 1.7
        value = fixed_length_value(alpha, 0.0, p1, p2)
        qs = np.linspace(EPS, 1 - EPS, 2000001)
        direct = (alpha * _kl2(qs, 0.8) + _kl2(qs, 0.3)).min()
        assert abs(value - float(direct)) <= 1e-6

    def test_binary_grid_certification(self):
        alph = alphabet(2)
        p1 = make_distribution([0.8, 0.2], alph)
        p2 = make_distribution([0.3, 0.7], alph)
        value = fixed_length_value(1.0, 0.05, p1, p2)
        oracle = binary_program_oracle(1.0, 1.0, 1.0, 0.05, 0.8, 0.3)
        assert abs(value - oracle) <= 1e-5

    def test_binary_grid_certification_random(self, rng):
        for _ in range(15):
            a = float(rng.uniform(0.1, 0.9))
            b = float(rng.uniform(0.1, 0.9))
            if abs(a - b) < 0.15:
                continue
            alph = alphabet(2)
            p1 = make_distribution([a, 1 - a], alph)
            p2 = make_distribution([b, 1 - b], alph)
            alpha = float(rng.uniform(0.3, 4.0))
            lam = float(rng.uniform(0.1, 0.8)) * gjs(p1, p2, alpha)
            value = fixed_length_value(alpha, lam, p1, p2)
            oracle = binary_program_oracle(alpha, 1.0, alpha, lam, a, b)
            assert abs(value - oracle) <= 1e-5

    def test_ternary_grid_value(self):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        value = fixed_length_value(1.0, 0.1, p1, p2)
        oracle, _ = ternary_program_oracle(1.0, 1.0, 1.0, 0.1, WIDE_PAIR[0], WIDE_PAIR[1])
        assert abs(value - oracle) <= 5e-5

    def test_argmin_is_feasible_and_attains_value(self, rng):
        p1, p2 = random_interior_pair(rng, 4)
        alpha = 2.0
        lam = 0.3 * gjs(p1, p2, alpha)
        value, (q1, q2) = minimize_over_simplices(alpha, lam, p1, p2)
        assert gjs(q1, q2, alpha) <= lam + 1e-8
        attained = alpha * kl(q1, p1) + kl(q2, p2)
        assert abs(attained - value) <= 1e-9

    def test_nonincreasing_in_lambda(self, rng):
        for _ in range(5):
            p1, p2 = random_interior_pair(rng, 3)
            alpha = float(rng.uniform(0.5, 3.0))
            lams = np.linspace(0.0, gjs(p1, p2, alpha), 10)
            vals = [fixed_length_value(alpha, float(l), p1, p2) for l in lams]
            assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))

    def test_negative_threshold_rejected(self, rng):
        p1, p2 = random_interior_pair(rng, 3)
        with pytest.raises(Infeasible):
            fixed_length_value(1.0, -0.1, p1, p2)


@pytest.mark.parametrize(
    "solve",
    [gutman_type2_exponent, minimize_over_simplices, gutman_bayes_curve, gutman_bayes_curve_swapped],
    ids=lambda solve: solve.__name__,
)
def test_nan_threshold_rejected_before_any_relaxation(solve, rng, monkeypatch):
    # nan passes a "< 0" check; an infinite threshold is valid and admits
    # the sources themselves
    p1, p2 = random_interior_pair(rng, 3)
    value = solve(2.5, math.inf, p1, p2)
    assert (value[0] if isinstance(value, tuple) else value) == 0.0

    def relax(*args):
        raise AssertionError("relaxed a program at a NaN threshold")

    monkeypatch.setattr(_PairProgram, "relax", relax)
    with pytest.raises(Infeasible, match="budget nan is not a number"):
        solve(2.5, math.nan, p1, p2)


class TestBayesCurves:
    @pytest.mark.parametrize("curve", [gutman_bayes_curve, gutman_bayes_curve_swapped])
    def test_negative_threshold_named_as_passed(self, curve, rng):
        # the curve scales the threshold by alpha; the error must report
        # the caller's number, not the scaled budget
        p1, p2 = random_interior_pair(rng, 3)
        with pytest.raises(Infeasible, match=r"budget -0\.1 is negative"):
            curve(2.5, -0.1, p1, p2)

    def test_alpha_one_matches_fixed_length(self, rng):
        p1, p2 = random_interior_pair(rng, 3)
        lam = 0.4 * gjs(p1, p2, 1.0)
        assert gutman_bayes_curve(1.0, lam, p1, p2) == fixed_length_value(1.0, lam, p1, p2)

    def test_scaling_identity(self, rng):
        # per-training-sample curve equals the raw program rescaled
        for _ in range(10):
            p1, p2 = random_interior_pair(rng, 3)
            alpha = float(rng.uniform(0.3, 5.0))
            lam = float(rng.uniform(0.05, 0.6)) * gjs(p1, p2, alpha) / alpha
            lhs = gutman_bayes_curve(alpha, lam, p1, p2)
            rhs = fixed_length_value(alpha, lam * alpha, p1, p2) / alpha
            assert abs(lhs - rhs) <= 1e-9

    def test_curve_is_the_rescaled_type2_exponent(self):
        # one program at one scale: the curve divides the type-II value at
        # the budget lam * alpha by alpha, bit for bit
        for alpha, p1, p2 in crossing_family(20191203, 40):
            for share in (0.3, 0.6, 0.9):
                lam = share * gjs(p1, p2, alpha) / alpha
                curve = gutman_bayes_curve(alpha, lam, p1, p2)
                assert curve == gutman_type2_exponent(alpha, lam * alpha, p1, p2) / alpha

    def test_zero_beyond_scaled_divergence(self, rng):
        p1, p2 = random_interior_pair(rng, 3)
        alpha = 2.5
        lam = gjs(p1, p2, alpha) / alpha * 1.0001
        assert gutman_bayes_curve(alpha, lam, p1, p2) == 0.0

    def test_swap_symmetry(self, rng):
        for _ in range(10):
            p1, p2 = random_interior_pair(rng, 3)
            alpha = float(rng.uniform(0.3, 4.0))
            lam = float(rng.uniform(0.0, 0.5)) * gjs(p1, p2, alpha) / alpha
            assert gutman_bayes_curve_swapped(alpha, lam, p1, p2) == gutman_bayes_curve(
                alpha, lam, p2, p1
            )

    def test_binary_grid_certification(self, rng):
        alph = alphabet(2)
        p1 = make_distribution([0.75, 0.25], alph)
        p2 = make_distribution([0.35, 0.65], alph)
        alpha = 0.5
        lam = 0.05
        value = gutman_bayes_curve(alpha, lam, p1, p2)
        oracle = binary_program_oracle(1.0, 1.0 / alpha, alpha, lam * alpha, 0.75, 0.35)
        assert abs(value - oracle) <= 1e-5


class TestBayesCrossing:
    def test_identical_pair_zero(self):
        alph = alphabet(2)
        p = make_distribution([0.5, 0.5], alph)
        assert gutman_bayes_exponent(1.0, p, p) == 0.0

    def test_self_consistency_residual(self, rng):
        for _ in range(10):
            p1, p2 = random_interior_pair(rng, int(rng.integers(2, 5)))
            alpha = float(rng.uniform(0.4, 6.0))
            lam = gutman_bayes_exponent(alpha, p1, p2)
            assert abs(gutman_bayes_curve(alpha, lam, p1, p2) - lam) <= 1e-6

    def test_within_bisection_domain(self, rng):
        p1, p2 = random_interior_pair(rng, 3)
        alpha = 1.8
        lam = gutman_bayes_exponent(alpha, p1, p2)
        assert 0.0 < lam <= gjs(p1, p2, alpha) / alpha

    def test_strictly_decreasing_in_alpha(self, rng):
        for _ in range(10):
            p1, p2 = random_interior_pair(rng, 3)
            alphas = np.linspace(0.5, 8.0, 8)
            vals = [gutman_bayes_exponent(float(a), p1, p2) for a in alphas]
            assert all(b < a + 1e-7 for a, b in zip(vals, vals[1:]))
            assert vals[-1] < vals[0]

    def test_below_sequential_exponent_small_gamma(self):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        gamma = 0.1 * chernoff(p1, p2)
        report = exponent_report(p1, p2, gamma)
        alpha = min(report.theta_star, report.beta_star)
        assert gutman_bayes_exponent(alpha, p1, p2) < gamma

    def test_crossing_budget_exhausted_raises(self, monkeypatch):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        gutman_bayes_exponent(1.8, p1, p2)
        gutman_bayes_curve(1.8, 0.01, p1, p2)
        monkeypatch.setattr(divergence, "CROSSING_MAX_STEPS", 1)
        with pytest.raises(NonConvergence, match="after 1 steps"):
            gutman_bayes_exponent(1.8, p1, p2)
        with pytest.raises(NonConvergence, match="after 1 steps"):
            gutman_bayes_curve(1.8, 0.01, p1, p2)

    def test_sweep_budget_exhausted_raises(self, monkeypatch):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        monkeypatch.setattr(exponents, "INNER_MAX_SWEEPS", 2)
        with pytest.raises(NonConvergence, match="after 2 sweeps"):
            gutman_bayes_exponent(1.8, p1, p2)
        with pytest.raises(NonConvergence, match="after 2 sweeps"):
            gutman_bayes_curve(1.8, 0.01, p1, p2)

    def test_large_alpha_relaxations_converge(self):
        # the matched ratio at gamma = 1e-3 C is about 3500; a multiplier
        # search that starts at the block exponent 1 / (1 + alpha) instead of
        # 1/2 needs 58,277 sweeps for its first relaxation, above
        # INNER_MAX_SWEEPS
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        report = exponent_report(p1, p2, 1e-3 * chernoff(p1, p2))
        alpha = min(report.theta_star, report.beta_star)
        assert alpha > 3000
        lam = gutman_bayes_exponent(alpha, p1, p2)
        assert 0.0 < lam < report.gamma
        assert gutman_bayes_curve(alpha, 0.5 * lam, p1, p2) > 0.5 * lam


def crossing_family(seed, count):
    """Seeded ``(alpha, P1, P2)``: |X| = 2..5, every fourth pair with one zero
    weight, alpha log-uniform in [0.05, 5000]."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        size = int(rng.integers(2, 6))
        weights = [rng.dirichlet(np.ones(size)) for _ in range(2)]
        if i % 4 == 0:
            side = weights[int(rng.integers(2))]
            side[int(rng.integers(size))] = 0.0
            side /= side.sum()
        alph = Alphabet(tuple(range(size)))
        alpha = float(np.exp(rng.uniform(math.log(0.05), math.log(5000.0))))
        out.append((alpha, *(make_distribution(list(w), alph) for w in weights)))
    return out


def wide_pair_at_tiny_rate():
    """WIDE_PAIR with its matched ratio at gamma = 1e-3 C (about 3500)."""
    alph = alphabet(3)
    p1 = make_distribution(WIDE_PAIR[0], alph)
    p2 = make_distribution(WIDE_PAIR[1], alph)
    report = exponent_report(p1, p2, 1e-3 * chernoff(p1, p2))
    return min(report.theta_star, report.beta_star), p1, p2


def plain_move(program, state, mu):
    """Largest coordinate move of one plain sweep from ``state``."""
    q1, q2, w = state
    q1n, q2n, wn = program.sweep(w, 1.0 / (1.0 + mu))
    return max(np.max(np.abs(np.subtract(new, old))) for new, old in ((q1n, q1), (q2n, q2), (wn, w)))


def joint_slope(program, mu, state):
    """The excess's slope in ``mu`` that :meth:`_PairProgram.joint_step`
    takes from the relaxed ``state = (q1(w), q2(w), w)``: its step on the
    multiplier is Newton's, so the slope is ``excess / (mu - mu')``.

    The state is passed as its own sweep, ``T(w) = w``, which relax meets
    to ``INNER_TOLERANCE``: with it exactly, the gradient and the log-ratio
    ``log w - log T(w)`` vanish, so the step carries no trace of the
    relaxation's residual, which a pair with a point mass at large ``mu``,
    whose slope is as small as 1e-20, would read as the slope's own error.
    """
    excess, _, mu_next = program.joint_step(mu, state[2], state)
    return excess / (mu - mu_next)


def tangent_start(w, z, step):
    """The relaxed ``W`` predicted ``step`` away in the block exponent along
    the tangent ``z = -d log W / de``: ``w exp(-step z)``, renormalised."""
    guess = np.multiply(w, np.exp(-step * np.asarray(z)))
    return guess / guess.sum()


def reduced_lagrangian(program, w, e):
    """``L_mu(w) / (1 + mu)``, the Lagrangian minimized over both blocks,
    plus ``(1 - e)(1 + alpha) sum w``, a constant on the simplex."""
    a, b = np.asarray(program.a), np.asarray(program.b)
    s1 = np.sum(a**e * w ** (1.0 - e))
    s2 = np.sum(b**e * w ** (1.0 - e))
    shift = (1.0 - e) * (1.0 + program.alpha) * np.sum(w)
    return shift - (program.alpha * math.log(s1) + math.log(s2))


class TestNewtonRelaxation:
    def test_derivatives_match_central_differences(self, rng):
        # in the relative step d = dW / w: the gradient against central
        # differences of the shifted L_mu(w (1 + d)), the Hessian against
        # central differences of that gradient
        for case in range(40):
            size = int(rng.integers(2, 6))
            a = rng.dirichlet(np.ones(size))
            b = rng.dirichlet(np.ones(size))
            if case % 4 == 0 and size >= 3:
                a[int(rng.integers(size))] = 0.0
                a /= a.sum()
            alpha = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
            program = _PairProgram(a, b, alpha)
            e = 1.0 / (1.0 + float(rng.uniform(0.01, 10.0)))
            w = rng.dirichlet(np.ones(size))

            def gradient(x):
                # the gradient at x in the step relative to w, not to x
                return program.derivatives(x, *program.sweep(x, e), e)[0] / x * w

            grad, (diag, u1, u2) = program.derivatives(w, *program.sweep(w, e), e)
            hess = np.diag(diag) + np.outer(u1, u1) + np.outer(u2, u2)
            for j in range(size):
                up, down = w.copy(), w.copy()
                up[j] += 1e-5 * w[j]
                down[j] -= 1e-5 * w[j]
                rise = reduced_lagrangian(program, up, e) - reduced_lagrangian(program, down, e)
                assert abs(rise / 2e-5 - grad[j]) <= 1e-7
                column = (gradient(up) - gradient(down)) / 2e-5
                assert np.max(np.abs(column - hess[:, j])) <= 1e-7

    def test_every_relaxation_passes_a_plain_sweep(self, monkeypatch):
        returns = []
        relax = _PairProgram.relax

        def spy(program, mu, state):
            out = relax(program, mu, state)
            returns.append((program, mu, out))
            return out

        monkeypatch.setattr(_PairProgram, "relax", spy)
        for alpha, p1, p2 in crossing_family(11, 100) + [wide_pair_at_tiny_rate()]:
            lam = gutman_bayes_exponent(alpha, p1, p2)
            gutman_bayes_curve(alpha, 0.5 * lam, p1, p2)
        assert len(returns) > 1000
        worst = max(plain_move(program, state, mu) for program, mu, state in returns)
        assert worst <= INNER_TOLERANCE

    def test_matches_plain_sweeps(self, rng):
        for _ in range(20):
            p1, p2 = random_interior_pair(rng, int(rng.integers(2, 6)))
            alpha = float(rng.uniform(0.2, 20.0))
            program = _PairProgram(p1.as_array(), p2.as_array(), alpha)
            mu = float(rng.uniform(0.1, 10.0))
            fast = program.relax(mu, program.start())
            slow = oracle.sweep_relax(program, mu, program.start())
            for x, y in zip(fast, slow):
                assert np.max(np.abs(x - y)) <= 1e-12

    def test_newton_point_outside_the_orthant_falls_back(self):
        # from the sources, the full Newton step of this relaxation leaves
        # the positive orthant (its smallest relative step is about -210);
        # the step must be halved
        a = np.array([0.02, 0.48, 0.5, 0.0])
        b = np.array([0.5, 0.0, 0.2, 0.3])
        alpha = 70.0
        program = _PairProgram(a, b, alpha)
        mu = 64.0
        state = program.relax(mu, program.start())
        assert plain_move(program, state, mu) <= INNER_TOLERANCE
        slow = oracle.sweep_relax(program, mu, program.start())
        for x, y in zip(state, slow):
            assert np.max(np.abs(x - y)) <= 1e-12

    def test_ascent_steps_fall_back_to_the_plain_sweep(self, monkeypatch):
        # with the gradient negated every trial step climbs; the halving
        # stops once the step is below machine epsilon and the plain sweep
        # moves instead (it used to halve until t underflowed to 0)
        derivatives = _PairProgram.derivatives

        def negated(self, *args):
            grad, hess = derivatives(self, *args)
            return [-g for g in grad], hess

        monkeypatch.setattr(_PairProgram, "derivatives", negated)
        program = _PairProgram(np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.1, 0.3]), 2.0)
        with np.errstate(all="raise"):
            state = program.relax(1.0, program.start())
        assert plain_move(program, state, 1.0) <= INNER_TOLERANCE
        slow = oracle.sweep_relax(program, 1.0, program.start())
        for x, y in zip(state, slow):
            assert np.max(np.abs(x - y)) <= 1e-12

    def test_newton_iterations_count_as_sweeps(self, monkeypatch):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        program = _PairProgram(p1.as_array(), p2.as_array(), 1.8)
        calls = []
        sweep = _PairProgram.sweep

        def counting(self, *args):
            calls.append(1)
            return sweep(self, *args)

        monkeypatch.setattr(_PairProgram, "sweep", counting)
        program.relax(4.0, program.start())
        needed = len(calls)
        monkeypatch.setattr(exponents, "INNER_MAX_SWEEPS", needed)
        program.relax(4.0, program.start())
        monkeypatch.setattr(exponents, "INNER_MAX_SWEEPS", needed - 1)
        with pytest.raises(NonConvergence, match=f"after {needed - 1} sweeps"):
            program.relax(4.0, program.start())

    def test_sweeps_per_crossing(self, monkeypatch):
        # the plain-sweep bisection needs about 1,000 sweeps per crossing
        calls = []
        sweep = _PairProgram.sweep

        def counting(self, *args):
            calls.append(1)
            return sweep(self, *args)

        monkeypatch.setattr(_PairProgram, "sweep", counting)
        for alpha, p1, p2 in crossing_family(12, 50):
            calls.clear()
            gutman_bayes_exponent(alpha, p1, p2)
            assert len(calls) <= 150

    def test_crossing_slope_matches_central_differences(self):
        # the slope of the joint step from the relaxed state at mu against
        # the excess's central difference, relaxed from that state; the
        # excesses are good to about 1e-16 (relax stops on INNER_TOLERANCE),
        # so the difference carries about 1e-16 / h of noise
        def excess(program, mu, state):
            q1, q2, _ = program.relax(mu, state)
            objective = program.objective_value(q1, q2)
            return (objective - program.constraint_value(q1, q2)) / program.alpha

        with np.errstate(all="raise"):
            for alpha, p1, p2 in crossing_family(12, 50):
                program = _program(alpha, p1, p2)
                for mu in (0.3, 1.0, 2.5, 7.0):
                    state = program.relax(mu, program.start())
                    slope = joint_slope(program, mu, state)
                    h = 1e-5 * mu
                    rise = excess(program, mu + h, state) - excess(program, mu - h, state)
                    assert abs(rise / (2.0 * h) - slope) <= 1e-6 * slope + 1e-16 / h

    def test_relaxations_per_crossing(self, monkeypatch):
        # the Illinois search alone took a median of 9 relaxations per
        # crossing here, and at most 13
        calls = []
        relax = _PairProgram.relax

        def counting(self, *args):
            calls.append(1)
            return relax(self, *args)

        monkeypatch.setattr(_PairProgram, "relax", counting)
        counts = []
        for alpha, p1, p2 in crossing_family(12, 50):
            calls.clear()
            gutman_bayes_exponent(alpha, p1, p2)
            counts.append(len(calls))
        assert np.median(counts) <= 6
        assert max(counts) <= 13

    def test_relaxations_per_curve_point(self, monkeypatch):
        # bisecting the multiplier took a median of 43 relaxations per point
        calls = []
        relax = _PairProgram.relax

        def counting(self, *args):
            calls.append(1)
            return relax(self, *args)

        monkeypatch.setattr(_PairProgram, "relax", counting)
        counts = []
        for alpha, p1, p2 in crossing_family(12, 50):
            for share in (0.3, 0.6, 0.9):
                calls.clear()
                gutman_bayes_curve(alpha, share * gjs(p1, p2, alpha) / alpha, p1, p2)
                counts.append(len(calls))
        assert np.median(counts) <= 12


def kkt_family(seed, count):
    """Seeded ``(program, mu)`` for the KKT step: the pairs of
    :func:`crossing_family` (every fourth with one zero weight, alpha
    log-uniform in [0.05, 5000]) with every eighth first source made a
    point mass, mu log-uniform in [1e-3, 1e6], then
    :func:`wide_pair_at_tiny_rate` at mu = 1e-3, 1, 1e3 and 1e6.  Pairs that
    share no symbol have no relaxation and are left out."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i, (alpha, p1, p2) in enumerate(crossing_family(seed, count)):
        if i % 8 == 3:
            mass = [0.0] * p1.alphabet.size
            mass[int(rng.integers(len(mass)))] = 1.0
            p1 = make_distribution(mass, p1.alphabet)
        pairs.append((alpha, p1, p2, float(np.exp(rng.uniform(math.log(1e-3), math.log(1e6))))))
    alpha, p1, p2 = wide_pair_at_tiny_rate()
    pairs += [(alpha, p1, p2, mu) for mu in (1e-3, 1.0, 1e3, 1e6)]
    for alpha, p1, p2, mu in pairs:
        program = _program(alpha, p1, p2)
        if program.common:
            yield program, mu


class TestKktSolve:
    """The scalar KKT step and slope against the dense forms in the oracle."""

    @staticmethod
    def relaxed(program, mu):
        state = program.relax(mu, program.start())
        # large mu drives a symbol of one source only toward W = 0, which
        # must not stall the relaxation
        assert plain_move(program, state, mu) <= INNER_TOLERANCE
        return state

    def test_step_matches_the_dense_and_exact_solves(self, monkeypatch):
        # The right-hand sides the package solves for: joint_step's two (the
        # negated gradient and c) from the sources' mixture and at the
        # relaxed state, the first of which is also relax's first step.  The
        # KKT system's condition number grows like 1 / e = 1 + mu (the
        # Hessian's diagonal is e (1 - e)(1 + alpha) T(w), its rank-two part
        # O(1)), so no solve on the rounded entries beats eps (1 + mu)
        # relative.  The dense solve is normwise stable: a coordinate of W
        # far below the others has no digits in its relative step there, so
        # the two forms are compared on the move w d in W, and the exact
        # rational solve of the same floats checks d itself.  Each side of
        # the two-sided solve has the bits of its own one-sided solve, also
        # where the first side carries a mass, which the second (mass 0)
        # must not read.
        calls = []

        def recording(*args):
            calls.append(args)
            return _simplex_solve(*args)

        states = []
        for program, mu in kkt_family(24, 200):
            e = 1.0 / (1.0 + mu)
            w = program.start()[2]
            relaxed = self.relaxed(program, mu)
            states.append((program, mu, w, program.sweep(w, e)))
            states.append((program, mu, relaxed[2], relaxed))
        monkeypatch.setattr(exponents, "_simplex_solve", recording)
        solves = []
        for program, mu, w, swept in states:
            program.joint_step(mu, w, swept)
            solves.append((program, mu, w, swept, calls.pop()))
        monkeypatch.undo()
        assert not calls
        checked = 0
        with np.errstate(all="raise"):
            for program, mu, w, (q1, q2, t_w), args in solves:
                e = 1.0 / (1.0 + mu)
                bound = 1e-13 * (1.0 + mu)
                diag, u1, u2, _, rhs, _, other = args
                dense_hess = oracle.dense_derivatives(program, w, q1, q2, t_w, e)[1]
                d, z = _simplex_solve(diag, u1, u2, w, rhs, 0.0, other)
                assert d == _simplex_solve(diag, u1, u2, w, rhs)
                assert z == _simplex_solve(diag, u1, u2, w, other)
                d1, z1 = _simplex_solve(diag, u1, u2, w, rhs, 0.25, other)
                assert d1 == _simplex_solve(diag, u1, u2, w, rhs, 0.25) and z1 == z
                for step, side in ((d, rhs), (z, other)):
                    if not any(side):
                        continue
                    step = np.array(step)
                    dense = oracle.dense_simplex_solve(dense_hess, w, side)
                    exact = np.array(oracle.exact_simplex_solve(diag, u1, u2, w, side))
                    move, dense_move = np.multiply(w, step), np.multiply(w, dense)
                    assert np.max(np.abs(move - dense_move)) <= bound * np.max(np.abs(dense_move))
                    assert np.max(np.abs(step - exact)) <= bound * np.max(np.abs(exact))
                    checked += 1
        assert checked >= 600

    def test_curvature_matches_the_dense_form(self):
        with np.errstate(all="raise"):
            for program, mu in kkt_family(24, 200):
                state = self.relaxed(program, mu)
                slope = joint_slope(program, mu, state)
                want = oracle.dense_curvature(program, mu, state)[0]
                assert abs(slope - want) <= 1e-11 * want

    def test_relaxation_matches_the_numpy_form(self, rng):
        for _ in range(40):
            p1, p2 = random_interior_pair(rng, int(rng.integers(2, 6)))
            program = _PairProgram(p1.as_array(), p2.as_array(), float(rng.uniform(0.2, 20.0)))
            mu = float(rng.uniform(0.1, 10.0))
            fast = program.relax(mu, program.start())
            slow = oracle.numpy_relax(program, mu, program.start())
            # both stop within a sweep move of 1e-15 of the fixed point
            for x, y in zip(fast, slow):
                assert np.max(np.abs(x - y)) <= 1e-13

    def test_emptied_coordinates_are_held(self):
        # from the sources the full step of this relaxation sends the
        # relative step of the second symbol to about -210 (see
        # test_newton_point_outside_the_orthant_falls_back)
        a = np.array([0.02, 0.48, 0.5, 0.0])
        program = _PairProgram(a, np.array([0.5, 0.0, 0.2, 0.3]), 70.0)
        e = 1.0 / 65.0
        w = program.start()[2]
        q1, q2, t_w = program.sweep(w, e)
        grad, hess = program.derivatives(w, q1, q2, t_w, e)
        rhs = [-g for g in grad]
        assert min(_simplex_solve(*hess, w, rhs)) < -100.0
        d = _newton_step(*hess, w, rhs)
        held = [i for i, x in enumerate(d) if x == -HELD_STEP]
        assert held and min(d) == -HELD_STEP
        assert abs(np.dot(w, d)) <= 1e-16
        # the free coordinates solve the KKT system with the held ones fixed
        dense = np.diag(hess[0]) + np.outer(hess[1], hess[1]) + np.outer(hess[2], hess[2])
        free = [i for i in range(len(d)) if i not in held]
        residual = (dense @ d - rhs)[free]
        nu = residual[0] / w[free[0]]
        assert np.max(np.abs(residual - nu * np.array(w)[free])) <= 1e-12 * np.max(np.abs(rhs))


class TestCrossingSearch:
    @staticmethod
    def search(excess, lo, hi, slope=None):
        """``_search`` on a scalar excess, with the crossing's value (the mean
        of the excess and 0) and, if given, ``slope(mu)`` on every end;
        returns the value at the final end of smaller excess and the ``(mu,
        state)`` of every evaluation, where an end's state is its mu."""
        calls = []

        def end(mu):
            return _End(mu, excess(mu), 0.5 * excess(mu), mu, slope(mu) if slope else None)

        def evaluate(mu, state):
            calls.append((mu, state))
            return end(mu)

        ends = _search(evaluate, end(lo), end(hi))
        return min(ends, key=lambda e: abs(e.excess)).value, calls

    def test_jump_is_bracketed_within_the_step_budget(self):
        # regula falsi alone creeps toward a jump from one side and runs out
        # of steps; the bisections keep halving the bracket
        def excess(mu):
            return -1e-3 if mu < 0.5 else 1e6 * (mu - 0.5) + 1e-9

        _, calls = self.search(excess, 0.0, 1.0)
        assert len(calls) <= 90
        assert abs(calls[-1][0] - 0.5) <= 1e-9

    def test_infinite_excess_is_bisected(self):
        # while an end's excess is infinite, regula falsi's point is NaN or
        # that end, so every step is the bracket's midpoint; once both ends
        # are finite the search closes in as on any excess and certifies
        def excess(mu):
            if mu < 0.2:
                return -math.inf
            return math.inf if mu > 0.7 else math.expm1(3.0 * (mu - 0.6))

        value, calls = self.search(excess, 0.0, 1.0)
        lo, hi = 0.0, 1.0
        bisections = 0
        for mu, _ in calls:
            if math.isinf(excess(lo)) or math.isinf(excess(hi)):
                assert mu == 0.5 * (lo + hi)
                bisections += 1
            else:
                assert lo < mu < hi
            if excess(mu) > 0.0:
                hi = mu
            else:
                lo = mu
        assert bisections == 3 and len(calls) > bisections
        assert excess(lo) <= 0.0 < excess(hi) < math.inf
        width = divergence.RELATIVE_BRACKET_WIDTH * hi
        assert abs(value) <= 0.5 * divergence.EXCESS_STOP or hi - lo <= width

    def test_smooth_roots_converge_from_both_sides(self):
        # regula falsi keeps one end of a convex or concave excess for good;
        # halving that end's excess (Illinois) moves it, from either side
        for k in (1.0, 3.0, 10.0):
            for excess in (
                lambda mu: math.expm1(k * (mu - 0.3)),
                lambda mu: -math.expm1(-k * (mu - 0.3)),
            ):
                value, calls = self.search(excess, 0.0, 1.0)
                assert len(calls) <= 14
                assert abs(value) <= 1e-12

    @staticmethod
    def smooth_family():
        """The convex and concave expm1 excesses with root 0.3, and their slopes."""
        for k in (1.0, 3.0, 10.0):
            yield (
                lambda mu, k=k: math.expm1(k * (mu - 0.3)),
                lambda mu, k=k: k * math.exp(k * (mu - 0.3)),
            )
            yield (
                lambda mu, k=k: -math.expm1(-k * (mu - 0.3)),
                lambda mu, k=k: k * math.exp(-k * (mu - 0.3)),
            )

    def test_exact_slopes_take_fewer_steps(self):
        for excess, slope in self.smooth_family():
            _, plain = self.search(excess, 0.0, 1.0)
            value, newton = self.search(excess, 0.0, 1.0, slope)
            assert len(newton) < len(plain)
            assert abs(value) <= 1e-12

    @pytest.mark.parametrize("scale, budget", [(1e-3, 14), (-1.0, 14), (1e3, 90)])
    def test_wrong_slopes_stay_bracketed(self, scale, budget):
        # too flat a slope sends the Newton point out of the bracket, a
        # negative one is never used, and too steep a one creeps, so that
        # bisections take over; every step stays strictly inside the bracket
        for excess, slope in self.smooth_family():
            value, calls = self.search(excess, 0.0, 1.0, lambda mu: scale * slope(mu))
            assert len(calls) <= budget
            assert abs(value) <= 1e-12
            lo, hi = 0.0, 1.0
            for mu, _ in calls:
                assert lo < mu < hi
                if excess(mu) > 0.0:
                    hi = mu
                else:
                    lo = mu

    def test_ends_without_slopes_keep_the_illinois_steps(self):
        # the evaluations the search made before ends carried slopes
        _, calls = self.search(lambda mu: math.expm1(3.0 * (mu - 0.3)), 0.0, 1.0)
        assert [mu for mu, _ in calls] == [
            0.07647692160987252, 0.5382384608049362, 0.22372303370929308,
            0.2752636716196671, 0.30696397710095735, 0.29973934292266996,
            0.2999972863147011, 0.30000265511900015, 0.29999999998919225,
            0.29999999999999993,
        ]
        _, calls = self.search(lambda mu: -math.expm1(-3.0 * (mu - 0.3)), 0.0, 1.0)
        assert [mu for mu, _ in calls] == [
            0.6245235362563352, 0.3122617681281676, 0.2975370406080633,
            0.3000455212639665, 0.300000167972246, 0.29999983329009144,
            0.300000000000042,
        ]

    def test_relaxes_from_the_nearer_end(self):
        def excess(mu):
            return (mu - 0.31) ** 9 + 1e-3 * (mu - 0.31)

        lo, hi = 0.0, 1.0
        _, calls = self.search(excess, lo, hi)
        assert len(calls) >= 5
        for mu, state in calls:
            nearer = lo if mu - lo < hi - mu else hi
            assert state == nearer
            if excess(mu) > 0.0:
                hi = mu
            else:
                lo = mu

    def test_agrees_with_bisection_oracle(self):
        worst = 0.0
        cases = crossing_family(20191203, 400) + [wide_pair_at_tiny_rate()]
        for (alpha, p1, p2), want in zip(cases, oracle.bisect_bayes_crossings(cases)):
            lam = gutman_bayes_exponent(alpha, p1, p2)
            worst = max(worst, abs(lam - want))
        assert worst <= 1e-12

    def test_batched_oracle_matches_the_scalar_one(self):
        # the lockstep bisections run the scalar oracle's steps on rows of
        # arrays; here they agree with it bit for bit
        cases = crossing_family(20191203, 400)[::25] + [wide_pair_at_tiny_rate()]
        batched = oracle.bisect_bayes_crossings(cases)
        for (alpha, p1, p2), got in zip(cases, batched):
            assert abs(got - oracle.bisect_bayes_crossing(alpha, p1, p2)) <= 1e-14


class TestCrossingCertificate:
    """Every crossing returns a certificate: the end's excess, its bracket, its counts."""

    @staticmethod
    def relaxed_excess(program, mu):
        q1, q2, _ = program.relax(mu, program.start())
        return (program.objective_value(q1, q2) - program.constraint_value(q1, q2)) / program.alpha

    def test_every_crossing_is_certified(self):
        # the returned end has |excess| <= 1e-12, or its bracket is
        # RELATIVE_BRACKET_WIDTH wide; each finite end of the bracket,
        # relaxed afresh from the sources, has the sign it certifies, up to
        # the 1e-12 within which the search counts an excess as 0
        for alpha, p1, p2 in crossing_family(12, 50) + crossing_family(20191203, 400):
            cert = _bayes_crossing(alpha, p1, p2)
            assert cert.value == gutman_bayes_exponent(alpha, p1, p2)
            assert 0.0 <= cert.lo < cert.hi
            if abs(cert.excess) > 1e-12:
                assert cert.hi - cert.lo <= divergence.RELATIVE_BRACKET_WIDTH * cert.hi
            program = _program(alpha, p1, p2)
            if cert.lo > 0.0:
                assert self.relaxed_excess(program, cert.lo) <= 1e-12
            if cert.hi < math.inf:
                assert self.relaxed_excess(program, cert.hi) > -1e-12
            assert cert.relaxations <= cert.sweeps and cert.solves > 0

    def test_counts_match_spies(self, monkeypatch):
        # the certificate's counts are the calls a spy on the test side sees
        calls = {"relax": 0, "sweep": 0}
        for name in calls:
            method = getattr(_PairProgram, name)

            def counting(self, *args, name=name, method=method):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(_PairProgram, name, counting)
        for alpha, p1, p2 in crossing_family(12, 50):
            calls.update(relax=0, sweep=0)
            cert = _bayes_crossing(alpha, p1, p2)
            assert (cert.relaxations, cert.sweeps) == (calls["relax"], calls["sweep"])

    def test_degenerate_pairs_need_no_search(self):
        alph = alphabet(3)
        p = make_distribution([0.2, 0.3, 0.5], alph)
        assert _bayes_crossing(2.0, p, p) == (0.0, 0.0, 0.0, math.inf, 0, 0, 0)
        p1, p2 = (make_distribution(w, alph) for w in DISJOINT_PAIR)
        full = gjs(p1, p2, 2.0) / 2.0
        assert _bayes_crossing(2.0, p1, p2) == (full, 0.0, 0.0, math.inf, 0, 0, 0)

    def test_fused_passes_keep_every_bit(self, monkeypatch):
        # the sweep and the joint step with one pass per sum and two
        # one-sided solves (the oracle) give the same certificate, field for
        # field and bit for bit (repr tells -0.0 from 0.0), counts included
        cases = crossing_family(12, 50) + crossing_family(20191203, 400)
        fused = [_bayes_crossing(alpha, p1, p2) for alpha, p1, p2 in cases]
        monkeypatch.setattr(_PairProgram, "sweep", oracle.separate_sweep)
        monkeypatch.setattr(_PairProgram, "joint_step", oracle.separate_joint_step)
        for cert, (alpha, p1, p2) in zip(fused, cases):
            want = _bayes_crossing(alpha, p1, p2)
            assert cert == want and repr(cert) == repr(want)


class TestTangentStart:
    """The tangent of the relaxed path, along which a joint step from a
    relaxed state moves ``W``."""

    def test_tangent_matches_central_differences(self):
        # d log W / de = -z, with the oracle's z: the central difference of
        # the relaxed W at e +- h against the tangent's move -w z.  Both
        # relaxations start from the state at e and stop on INNER_TOLERANCE,
        # so the difference carries about 1e-15 / h of noise.  The start
        # that the tangent predicts at e + h misses the relaxed W there by
        # O(h^2), far less than the move, plus the relaxation's own error
        # (up to about 1e-13).
        checked = 0
        for alpha, p1, p2 in crossing_family(12, 50):
            program = _program(alpha, p1, p2)
            if not program.common:
                continue
            for mu in (0.3, 1.0, 2.5, 7.0):
                state = program.relax(mu, program.start())
                z = oracle.dense_curvature(program, mu, state)[1]
                e = 1.0 / (1.0 + mu)
                h = 1e-4 * e
                up = program.relax(1.0 / (e + h) - 1.0, state)[2]
                down = program.relax(1.0 / (e - h) - 1.0, state)[2]
                move = -np.multiply(state[2], z)
                error = np.max(np.abs(np.subtract(up, down) / (2.0 * h) - move))
                assert error <= 1e-6 * np.max(np.abs(move)) + 1e-15 / h
                start = tangent_start(state[2], z, h)
                miss = np.max(np.abs(np.subtract(start, up)))
                assert miss <= 1e-3 * np.max(np.abs(np.subtract(state[2], up))) + 1e-12
                checked += 1
        assert checked >= 150


class TestJointStep:
    """Newton steps on the crossing's mixture and multiplier together."""

    def test_excess_matches_the_divergences(self, rng):
        # at an unrelaxed w the step's excess is objective minus constraint
        # at (q1(w), q2(w)), over alpha, without evaluating either
        for alpha, p1, p2 in crossing_family(12, 50):
            program = _program(alpha, p1, p2)
            if not program.common:
                continue
            for mu in (0.3, 1.0, 7.0):
                w = list(rng.dirichlet(np.ones(len(program.a))))
                swept = program.sweep(w, 1.0 / (1.0 + mu))
                q1, q2, _ = swept
                want = (program.objective_value(q1, q2) - program.constraint_value(q1, q2)) / alpha
                excess = program.joint_step(mu, w, swept)[0]
                assert excess == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_step_from_a_relaxed_state_is_newton_with_the_tangent_start(self):
        # at a relaxed state the gradient is 0, so the step is a Newton step
        # on mu with the oracle's slope, and W moves along its tangent.
        # Checked on the steps that keep mu > 0, as the crossing takes them:
        # relax leaves a gradient of up to about (1 + alpha) 1e-15 on a
        # coordinate near 1e-13 (alpha about 4300 here), and a step to mu <
        # 0 multiplies that coordinate by e^30 and its residual with it
        checked = 0
        for alpha, p1, p2 in crossing_family(12, 50):
            program = _program(alpha, p1, p2)
            if not program.common:
                continue
            for mu in (0.3, 1.0, 2.5):
                state = program.relax(mu, program.start())
                e = 1.0 / (1.0 + mu)
                excess, w, mu_next = program.joint_step(mu, state[2], program.sweep(state[2], e))
                slope, z = oracle.dense_curvature(program, mu, state)
                if mu_next > 0.0:
                    assert mu_next == pytest.approx(mu - excess / slope, rel=1e-9)
                    # the step in e that the step in mu linearises
                    tangent = tangent_start(state[2], z, (mu - mu_next) * e * e)
                    assert np.max(np.abs(np.subtract(w, tangent))) <= 1e-12
                    checked += 1
        assert checked >= 100

    def test_refused_steps_relax_at_the_safeguard_point(self, monkeypatch):
        # a step with no usable W, a multiplier outside the bracket or NaN,
        # or a residual that does not fall is refused; the crossing relaxes
        # at the bracket's midpoint, or at twice its lower end, instead, so
        # with every step refused it doubles and bisects the multiplier
        joint_step = _PairProgram.joint_step
        cases = crossing_family(20191203, 16)
        wants = oracle.bisect_bayes_crossings(cases)
        for bad in (
            lambda excess, w, mu: (excess, None, mu),
            lambda excess, w, mu: (excess, w, math.nan),
            lambda excess, w, mu: (excess, w, -mu),
            lambda excess, w, mu: (math.inf, w, mu),
        ):
            def broken(self, *args, bad=bad):
                return bad(*joint_step(self, *args))

            with monkeypatch.context() as patch:
                patch.setattr(_PairProgram, "joint_step", broken)
                for (alpha, p1, p2), want in zip(cases, wants):
                    cert = _bayes_crossing(alpha, p1, p2)
                    assert cert.relaxations > 0
                    assert abs(cert.value - want) <= 1e-12


class TestStartDependence:
    def test_pair_344_values_do_not_depend_on_the_start(self):
        # P1 = (0, 1) and alpha about 2024: relax stops on an absolute move
        # of 1e-15, so the relaxed W's coordinate near 1e-12 at mu = 2.5
        # lands about 3e-3 relative apart from different starts.  From the
        # mixture, from the joint step off the relaxation at mu = 1 and
        # from the crossing's first joint iterate, the objective, the
        # constraint and the crossing value, at mu = 2.5 and at both ends
        # of the crossing's bracket, agree to 1e-12.
        alpha, p1, p2 = crossing_family(20191203, 400)[344]
        program = _program(alpha, p1, p2)
        cert = _bayes_crossing(alpha, p1, p2)
        assert 0.0 < cert.lo < cert.hi < 2.5
        mixture = program.start()
        at_one = program.relax(1.0, mixture)
        tangent = program.joint_step(1.0, at_one[2], program.sweep(at_one[2], 0.5))[1]
        joint = program.joint_step(1.0, mixture[2], program.sweep(mixture[2], 0.5))[1]
        for mu in (2.5, cert.lo, cert.hi):
            values = []
            for w in (mixture[2], tangent, joint):
                q1, q2, _ = program.relax(mu, (*mixture[:2], w))
                objective = program.objective_value(q1, q2) / alpha
                constraint = program.constraint_value(q1, q2) / alpha
                values.append((objective, constraint, 0.5 * (objective + constraint)))
            spread = np.ptp(values, axis=0)
            assert np.all(spread <= 1e-12)


class TestConstrainedPrograms:
    def test_agrees_with_bisection_oracle(self):
        # on zero-weight pairs 0, 12 and 20 an end lands within 1e-12 above
        # the budget while the feasible end is still well inside it, up to
        # 2.5e-5 above the optimum; the search must not stop there
        for alpha, p1, p2 in crossing_family(20191203, 40):
            full = gjs(p1, p2, alpha)
            program = _program(alpha, p1, p2)
            for share in (0.3, 0.6, 0.9):
                lam = share * full / alpha
                # the type-II exponent's budget, then the curve's
                for budget in (share * full, lam * alpha):
                    value, q1, q2 = program.solve(budget)
                    assert value == gutman_type2_exponent(alpha, budget, p1, p2)
                    want, _, _ = oracle.bisect_program(program, budget)
                    assert abs(value - want) <= GAP_BOUND * (1.0 + abs(want))
                    assert program.constraint_value(q1, q2) <= budget
                assert value / alpha == gutman_bayes_curve(alpha, lam, p1, p2)
                value, (q1, q2) = minimize_over_simplices(alpha, share * full, p1, p2)
                assert value == gutman_type2_exponent(alpha, share * full, p1, p2)
                assert gjs(q1, q2, alpha) <= share * full

    def test_exact_zero_slack_end_is_the_answer(self, monkeypatch):
        # a budget equal to the constraint at the search's first relaxed end
        # (mu = 1, relaxed from the sources) is met exactly there; that end
        # sorts to the lower end and is the answer, on the type-II scale
        # and on the curve's, whose budget (budget / alpha) * alpha is the
        # same number for this pair
        ends = []
        search = exponents._search

        def spy(*args):
            ends.append(search(*args))
            return ends[-1]

        monkeypatch.setattr(exponents, "_search", spy)
        alpha, p1, p2 = crossing_family(20191203, 40)[36]
        program = _program(alpha, p1, p2)
        q1, q2, _ = program.relax(1.0, program.start())
        budget = program.constraint_value(q1, q2)
        type2 = gutman_type2_exponent(alpha, budget, p1, p2)
        curve = gutman_bayes_curve(alpha, budget / alpha, p1, p2)
        assert [lo.excess for lo, _ in ends] == [0.0, 0.0]
        assert curve == type2 / alpha

    def test_zero_weight_pairs_at_a_small_budget(self):
        # alpha about 415, 369 and 397 with one zero weight: relaxing every
        # bisection point from the upper end runs out of sweeps on the first
        # two; on pair 32 (P2 = (0, 1)) plain sweeps contract at 0.99928 and
        # ran out of sweeps at mu about 1592 and 4.0 before damped Newton
        family = crossing_family(20191203, 73)
        for i, type2_want, curve_want in (
            (12, 53.6829, 0.129306),
            (72, 72.4710, 0.196401),
            (32, 358.2061, 0.901251),
        ):
            alpha, p1, p2 = family[i]
            lam = 0.05 * gjs(p1, p2, alpha)
            type2 = gutman_type2_exponent(alpha, lam, p1, p2)
            curve = gutman_bayes_curve(alpha, lam / alpha, p1, p2)
            assert abs(curve * alpha - type2) <= 1e-9 * alpha
            assert type2 == pytest.approx(type2_want, abs=1e-4)
            assert curve == pytest.approx(curve_want, abs=1e-6)


class TestDisjointSupports:
    @staticmethod
    def pair():
        alph = alphabet(3)
        return tuple(make_distribution(w, alph) for w in DISJOINT_PAIR)

    def test_crossing_is_the_scaled_divergence(self, monkeypatch):
        p1, p2 = self.pair()

        def refuse(*args):
            raise AssertionError("no relaxation expected")

        monkeypatch.setattr(_PairProgram, "relax", refuse)
        for alpha in (0.05, 1.0, 2.5, 3500.0):
            assert gutman_bayes_exponent(alpha, p1, p2) == pytest.approx(
                gjs(p1, p2, alpha) / alpha, rel=1e-14
            )

    def test_curves_step_from_inf_to_zero(self):
        p1, p2 = self.pair()
        alpha = 2.5
        full = gjs(p1, p2, alpha)
        for curve in (gutman_bayes_curve, gutman_bayes_curve_swapped):
            assert curve(alpha, 0.0, p1, p2) == math.inf
            assert curve(alpha, 0.5 * full / alpha, p1, p2) == math.inf
            assert curve(alpha, 1.0001 * full / alpha, p1, p2) == 0.0
        assert gutman_type2_exponent(alpha, 0.999 * full, p1, p2) == math.inf
        assert gutman_type2_exponent(alpha, 1.0001 * full, p1, p2) == 0.0

    def test_no_feasible_pair_is_infeasible(self):
        p1, p2 = self.pair()
        alpha = 2.5
        full = gjs(p1, p2, alpha)
        for lam in (0.0, 0.5 * full):
            with pytest.raises(Infeasible):
                minimize_over_simplices(alpha, lam, p1, p2)
        value, (q1, q2) = minimize_over_simplices(alpha, 1.0001 * full, p1, p2)
        assert value == 0.0
        assert (q1, q2) == (p1, p2)

    def test_comparison_margin_vanishes(self):
        # the matched ratio solves gjs(theta) = gamma * theta, so both tests
        # reach gamma
        p1, p2 = self.pair()
        rows = compare_sequential_vs_gutman(p1, p2, [0.1, 1.0])
        for row in rows:
            assert row.gutman_bayes == pytest.approx(row.gamma, rel=1e-12)
            assert abs(row.margin) <= 1e-12


    def test_chernoff_rate_is_out_of_range(self):
        # disjoint supports have Chernoff information inf, a rate no
        # threshold equation reaches
        p1, p2 = self.pair()
        cap = chernoff(p1, p2)
        assert cap == math.inf
        with pytest.raises(GammaOutOfRange) as info:
            compare_sequential_vs_gutman(p1, p2, [cap])
        assert isinstance(info.value, ValidationError)
        for gamma in (math.nan, 0.0, -1.0, -math.inf):
            with pytest.raises(NonPositiveGamma):
                compare_sequential_vs_gutman(p1, p2, [gamma])


class TestConstrainedKlMin:
    def test_objective_inside_ball(self, rng):
        p, q = random_interior_pair(rng, 3)
        assert constrained_kl_min(p, q, kl(q, p) * 1.001) == 0.0

    def test_zero_radius(self, rng):
        p, q = random_interior_pair(rng, 3)
        assert math.isclose(constrained_kl_min(p, q, 0.0), kl(p, q), abs_tol=1e-12)

    def test_negative_radius(self, rng):
        p, q = random_interior_pair(rng, 3)
        with pytest.raises(Infeasible):
            constrained_kl_min(p, q, -0.01)

    def test_nan_radius(self, rng):
        p, q = random_interior_pair(rng, 3)
        with pytest.raises(Infeasible, match="radius nan is not a number"):
            constrained_kl_min(p, q, math.nan)

    def test_ball_outside_the_objective_support(self):
        # every V of finite D(V || objective) is the point mass on symbol 0,
        # at D = ln 2 from the center, so a smaller ball holds none of them
        alph = alphabet(2)
        center = make_distribution([0.5, 0.5], alph)
        objective = make_distribution([1.0, 0.0], alph)
        assert constrained_kl_min(center, objective, 0.5) == math.inf
        assert constrained_kl_min(center, objective, math.log(2.0)) == 0.0

    def test_nonincreasing_in_radius(self, rng):
        for _ in range(10):
            p, q = random_interior_pair(rng, 4)
            radii = np.linspace(0.0, kl(q, p) * 1.1, 12)
            vals = [constrained_kl_min(p, q, float(r)) for r in radii]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_chernoff_characterization(self, rng):
        # the value stays at or above the radius exactly while the radius
        # is at most the Chernoff information of the pair
        for _ in range(50):
            p, q = random_interior_pair(rng, int(rng.integers(2, 5)))
            cap = chernoff(p, q)
            for r in np.linspace(0.01, 1.6, 20) * cap:
                value = constrained_kl_min(p, q, float(r))
                if r <= cap - 1e-9:
                    assert value >= r - 1e-9
                elif r >= cap + 1e-9:
                    assert value < r + 1e-9

    def test_binary_grid_oracle(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.15, 0.85))
            b = float(rng.uniform(0.15, 0.85))
            if abs(a - b) < 0.1:
                continue
            alph = alphabet(2)
            center = make_distribution([a, 1 - a], alph)
            objective = make_distribution([b, 1 - b], alph)
            radius = float(rng.uniform(0.1, 0.9)) * kl(objective, center)
            value = constrained_kl_min(center, objective, radius)
            vs = np.linspace(EPS, 1 - EPS, 2000001)
            feasible = _kl2(vs, a) <= radius
            oracle = float(_kl2(vs[feasible], b).min())
            assert abs(value - oracle) <= 1e-6

    def test_agrees_with_bisection_oracle(self, rng):
        # the families above: random pairs over radii up to 1.1 D(q || p)
        # and up to 1.6 times the Chernoff information, and binary pairs
        cases = []
        for _ in range(30):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            radii = [*np.linspace(0.0, kl(q, p) * 1.1, 12), *np.linspace(0.01, 1.6, 20) * chernoff(p, q)]
            cases += [(p, q, float(r)) for r in radii]
        alph = alphabet(2)
        for a, b in rng.uniform(0.15, 0.85, (20, 2)):
            center = make_distribution([a, 1 - a], alph)
            objective = make_distribution([b, 1 - b], alph)
            cases.append((center, objective, float(rng.uniform(0.1, 0.9)) * kl(objective, center)))
        for center, objective, radius in cases:
            value = constrained_kl_min(center, objective, radius)
            want = oracle.bisect_constrained_kl_min(center, objective, radius)
            assert abs(value - want) <= 1e-11, (center, objective, radius)


class TestLpClosedForm:
    def test_constant_weights(self):
        assert lp_closed_form([2.0, 2.0, 2.0], 0.7) == 0.0

    def test_zero_delta(self):
        assert lp_closed_form([1.0, 5.0], 0.0) == 0.0

    def test_three_weights(self):
        # brute force over the on-grid epsilon lattice
        assert math.isclose(lp_closed_form([1.0, 2.0, 3.0], 1.0), -1.0, abs_tol=1e-15)
        step = 1e-3
        grid = np.arange(-0.5, 0.5 + step / 2, step)
        best = math.inf
        for e1 in grid:
            for e2 in grid:
                e3 = -(e1 + e2)
                if abs(e1) + abs(e2) + abs(e3) <= 1.0 + 1e-12:
                    best = min(best, e1 + 2 * e2 + 3 * e3)
        assert abs(best - (-1.0)) <= 1e-12

    def test_random_instances_against_grid(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 5))
            w = [float(x) for x in rng.uniform(-3.0, 3.0, m)]
            delta = float(rng.uniform(0.1, 2.0))
            closed = lp_closed_form(w, delta)
            # grid with delta/2 on the lattice so the optimum is exactly on-grid
            steps = 20
            axis = np.linspace(-delta / 2, delta / 2, steps + 1)
            grids = np.meshgrid(*([axis] * (m - 1)), indexing="ij")
            eps = [g.ravel() for g in grids]
            last = -sum(eps)
            total_abs = sum(abs(e) for e in eps) + abs(last)
            value = sum(e * wi for e, wi in zip(eps, w[:-1])) + last * w[-1]
            value = np.where(total_abs <= delta + 1e-12, value, math.inf)
            brute = float(value.min())
            assert abs(closed - brute) <= 1e-6 * delta * (max(w) - min(w) + 1e-12)

    def test_empty_weights(self):
        with pytest.raises(EmptyWeights):
            lp_closed_form([], 1.0)

    def test_negative_delta(self):
        with pytest.raises(Infeasible):
            lp_closed_form([1.0, 2.0], -1.0)

    def test_nan_delta(self):
        with pytest.raises(Infeasible, match="delta nan is not a number"):
            lp_closed_form([1.0, 2.0], math.nan)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight(self, weight):
        with pytest.raises(NotNormalized, match="weights must be finite"):
            lp_closed_form([1.0, weight], 0.5)

    def test_infinite_delta(self):
        # no mass moves between equal weights, however much may
        assert lp_closed_form([2.0, 2.0], math.inf) == 0.0
        assert lp_closed_form([1.0, 2.0], math.inf) == -math.inf


class TestMulticlassBayes:
    def test_two_class_symmetric(self):
        alph = alphabet(2)
        p1 = make_distribution([0.8, 0.2], alph)
        p2 = make_distribution([0.2, 0.8], alph)
        alpha = 1.6
        want = min(gjs(p1, p2, alpha), gjs(p2, p1, alpha)) / alpha
        assert bayes_multiclass_gutman([p1, p2], alpha) == pytest.approx(want, abs=1e-15)

    def test_duplicate_rejected(self):
        alph = alphabet(3)
        p = make_distribution(TRIO[0], alph)
        q = make_distribution(TRIO[1], alph)
        with pytest.raises(DuplicateDistribution):
            bayes_multiclass_gutman([p, q, p], 1.0)

    def test_matched_alpha_identity(self):
        # at the smallest pairwise root the multiclass exponent returns
        # the sequential threshold rate itself
        gamma = 0.03
        alph = alphabet(3)
        dists = [make_distribution(w, alph) for w in TRIO]
        thetas = multiclass_thetas(dists, gamma)
        alpha_min = float(np.nanmin(thetas))
        value = bayes_multiclass_gutman(dists, alpha_min)
        assert abs(value - gamma) <= 1e-8
        # every ordered pair sits at or above the threshold line there
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert gjs(dists[i], dists[j], alpha_min) >= gamma * alpha_min - 1e-12


class TestComparisonTable:
    def test_wide_pair_margins_positive(self):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        cap = chernoff(p1, p2)
        grid = [cap * k / 10 for k in range(1, 11)]
        rows = compare_sequential_vs_gutman(p1, p2, grid)
        assert len(rows) == 10
        for row in rows:
            assert row.margin > 1e-6
            assert row.sequential_bayes == row.gamma
            assert row.alpha_used == min(row.theta_star, row.beta_star)
            assert math.isclose(row.margin, row.gamma - row.gutman_bayes, abs_tol=1e-15)

    def test_endpoint_reaches_chernoff(self):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        cap = chernoff(p1, p2)
        rows = compare_sequential_vs_gutman(p1, p2, [cap])
        assert rows[0].sequential_bayes == cap

    def test_tiny_gamma_margin_positive(self):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        rows = compare_sequential_vs_gutman(p1, p2, [1e-3 * chernoff(p1, p2)])
        assert rows[0].margin > 0

    def test_gamma_at_a_divergence_rejected(self):
        # [1, 0] against [0.3, 0.7]: the Chernoff cap equals D(P1||P2)
        alph = alphabet(2)
        p1 = make_distribution([1.0, 0.0], alph)
        p2 = make_distribution([0.3, 0.7], alph)
        with pytest.raises(GammaOutOfRange):
            compare_sequential_vs_gutman(p1, p2, [1.2039728043259361])
        rows = compare_sequential_vs_gutman(p1, p2, [0.5 * 1.2039728043259361])
        assert rows[0].margin > 0

    def test_gamma_above_cap_rejected(self):
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        with pytest.raises(GammaOutOfRange):
            compare_sequential_vs_gutman(p1, p2, [chernoff(p1, p2) * 1.05])

    def test_one_cap_per_call(self, monkeypatch):
        # the cap was computed once per rate
        alph = alphabet(3)
        p1 = make_distribution(WIDE_PAIR[0], alph)
        p2 = make_distribution(WIDE_PAIR[1], alph)
        cap = chernoff(p1, p2)
        calls = []

        def counting(*args):
            calls.append(args)
            return chernoff(*args)

        monkeypatch.setattr(fixedpoint, "chernoff", counting)
        rows = compare_sequential_vs_gutman(p1, p2, [cap * k / 5 for k in range(1, 6)])
        assert len(rows) == 5 and rows[-1].gamma == cap
        assert calls == [(p1, p2)]
