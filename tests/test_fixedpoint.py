"""Threshold-equation roots and the exponent reports built from them."""

import decimal
import math

import numpy as np
import pytest

from seqstat import (
    SeedSpec,
    SequentialConfig,
    chernoff,
    empirical_fixed_point,
    empirical_type,
    exponent_report,
    gjs,
    kl,
    make_distribution,
    multiclass_thetas,
    sample_iid,
    solve_fixed_point,
)
from seqstat import divergence, fixedpoint
from seqstat.divergence import CROSSING_MAX_STEPS, RELATIVE_BRACKET_WIDTH, kl_array
from seqstat.errors import (
    DuplicateDistribution,
    GammaOutOfRange,
    NegativeAlpha,
    NonConvergence,
    NonPositiveGamma,
    NoSolution,
    SeqstatError,
)
from seqstat.fixedpoint import BRACKET_LOW, NEAR_CAP_WIDTH, RESIDUAL_BOUND
from conftest import alphabet, random_interior, random_interior_pair
from test_contract import boundary_family, near_identical_family
from test_search_cost import interior_family
import oracle

NEAR_PAIR = ([0.1, 0.7, 0.2], [0.05, 0.55, 0.4])
TRIO = ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4])


def _gjs_theta_grid(p, q, thetas):
    """Vectorized gjs over a theta grid, interior pairs only."""
    pw = np.array(p.weights)
    qw = np.array(q.weights)
    t = thetas[:, None]
    m = (t * pw + qw) / (1.0 + t)
    return thetas * (np.log(pw / m) * pw).sum(axis=1) + (np.log(qw / m) * qw).sum(axis=1)


def grid_scan_root(p, q, gamma, stages=3, points=4001):
    """Independent sign-change scan of gjs(p,q,t) - gamma*t.

    Returns (root estimate, number of sign changes seen in stage one).
    """
    hi = 1.0
    while gjs(p, q, hi) - gamma * hi > 0:
        hi *= 2.0
    lo = 1e-9
    sign_changes = None
    for _ in range(stages):
        thetas = np.linspace(lo, hi, points)
        f = _gjs_theta_grid(p, q, thetas) - gamma * thetas
        crossings = np.nonzero((f[:-1] > 0) & (f[1:] <= 0))[0]
        if sign_changes is None:
            sign_changes = len(crossings) + (1 if f[0] <= 0 else 0)
        k = int(crossings[-1]) if len(crossings) else 0
        lo, hi = float(thetas[k]), float(thetas[k + 1])
    return 0.5 * (lo + hi), sign_changes


class TestSolveFixedPoint:
    def test_no_solution_at_or_above_kl(self, rng):
        for _ in range(20):
            p, q = random_interior_pair(rng, int(rng.integers(2, 5)))
            divergence = kl(p, q)
            with pytest.raises(NoSolution):
                solve_fixed_point(p, q, divergence)
            with pytest.raises(NoSolution):
                solve_fixed_point(p, q, divergence * 1.5)
            # just below the boundary a root exists
            result = solve_fixed_point(p, q, divergence * 0.999)
            assert result.theta_star > 0

    def test_nonpositive_gamma(self, rng):
        p, q = random_interior_pair(rng, 3)
        with pytest.raises(NonPositiveGamma):
            solve_fixed_point(p, q, 0.0)

    def test_infinite_gamma_out_of_range(self, rng):
        # every rate check shares one validator: inf is out of range, NaN is
        # not a positive rate
        p, q = random_interior_pair(rng, 3)
        for check in (
            lambda g: solve_fixed_point(p, q, g),
            lambda g: SequentialConfig(gamma=g, train_len=5),
        ):
            with pytest.raises(GammaOutOfRange):
                check(math.inf)
            with pytest.raises(NonPositiveGamma):
                check(math.nan)

    def test_symmetric_binary_example(self):
        alph = alphabet(2)
        p = make_distribution([0.9, 0.1], alph)
        q = make_distribution([0.1, 0.9], alph)
        result = solve_fixed_point(p, q, 0.05)
        root, changes = grid_scan_root(p, q, 0.05)
        assert changes == 1
        assert abs(result.theta_star - root) <= 1e-5
        assert result.residual <= 1e-10

    def test_near_pair_root(self):
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        result = solve_fixed_point(p, q, 0.02)
        root, changes = grid_scan_root(p, q, 0.02)
        assert changes == 1
        assert abs(result.theta_star - root) <= 1e-5

    def test_random_instances_against_oracle(self, rng):
        for _ in range(100):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            gamma = float(rng.uniform(0.1, 0.9)) * kl(p, q)
            result = solve_fixed_point(p, q, gamma)
            assert result.residual <= 1e-10
            assert result.bracket_low < result.theta_star < result.bracket_high
            root, changes = grid_scan_root(p, q, gamma)
            assert changes == 1
            assert abs(result.theta_star - root) <= 1e-5

    def test_residual_definition(self, rng):
        p, q = random_interior_pair(rng, 4)
        gamma = 0.25 * kl(p, q)
        result = solve_fixed_point(p, q, gamma)
        direct = abs(gjs(p, q, result.theta_star) - gamma * result.theta_star)
        assert math.isclose(result.residual, direct, rel_tol=0, abs_tol=1e-15)

    def test_monotone_in_gamma(self, rng):
        for _ in range(10):
            p, q = random_interior_pair(rng, 3)
            top = kl(p, q)
            roots = [
                solve_fixed_point(p, q, float(g)).theta_star
                for g in np.linspace(0.05, 0.95, 10) * top
            ]
            assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_gate_reads_the_searched_divergence(self):
        # a root exists at half of D(p || q), so neither the gate nor the
        # search may refuse it: both must read the D that the evaluator
        # gives, on near-identical pairs and zero weights too
        mismatched, refused, stalled = [], [], []
        for i, (p, q) in enumerate(divergence_family()):
            d = kl_array(p.as_array(), q.as_array())
            if kl(p, q) != d:
                mismatched.append(i)
            if not 0.0 < d < math.inf:
                continue
            try:
                solve_fixed_point(p, q, 0.5 * d)
            except NoSolution:
                refused.append(i)
            except NonConvergence:
                # the root lies below BRACKET_LOW at a divergence near rounding
                stalled.append(d)
        assert (mismatched, refused) == ([], [])
        assert all(d < 1e-15 for d in stalled), stalled


def divergence_family(seed=99, count=600):
    """Pairs on 2 to 6 symbols: every third near-identical, ``q = p (1 + eps d)``
    renormalized with ``eps`` log-uniform in [1e-8, 1e-2] and ``d`` uniform in
    [-1, 1] per symbol, the others independent; every fifth ``p`` has one zero
    weight, so ``D(p || q)`` stays finite."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        size = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(size))
        if i % 5 == 0:
            p[rng.integers(size)] = 0.0
            p /= p.sum()
        if i % 3 == 0:
            eps = 10.0 ** rng.uniform(-8.0, -2.0)
            q = p * (1.0 + eps * rng.uniform(-1.0, 1.0, size))
            q /= q.sum()
        else:
            q = rng.dirichlet(np.ones(size))
        alph = alphabet(size)
        yield make_distribution(list(p), alph), make_distribution(list(q), alph)


def boundary_pair(rng, size):
    """A pair with zero weights or point masses on either side, often both."""
    alph = alphabet(size)
    pair = []
    for _ in range(2):
        weights = rng.dirichlet(np.ones(size))
        shape = rng.random()
        if shape < 0.25:
            weights = np.zeros(size)
            weights[rng.integers(size)] = 1.0
        elif shape < 0.6:
            weights[rng.integers(size)] = 0.0
            weights /= weights.sum()
        pair.append(make_distribution(list(weights), alph))
    return pair[0], pair[1]


def refine_steps(p, q, gamma, result):
    """Steps of a solve's loop: the part CROSSING_MAX_STEPS bounds.

    Before the loop the solve evaluates the excess at its start, ``D(q ||
    p) / gamma`` or, where ``D(q || p) = inf``, the bound's start
    (``fixedpoint._certified_start``), where that is positive and finite, and
    doubles from ``theta = 1`` where it is not or its excess is not
    positive; after the loop it checks the sign at ``BRACKET_LOW`` when the
    bracket ends there.
    """
    start = kl(q, p) / gamma
    if math.isinf(kl(q, p)):
        start = fixedpoint._certified_start(p, q, gamma)
    bracket_evaluations = 0
    if 0.0 < start < math.inf:
        d_p, d_q, _ = divergence._mixture_divergences(p.weights, q.weights)(start)
        bracket_evaluations = 1
        started = gamma - d_p - d_q / start > 0.0
    else:
        started = False
    if not started:
        bracket_evaluations += 1 + max(0, math.ceil(math.log2(result.theta_star)))
    floor_check = 1 if result.bracket_low == BRACKET_LOW else 0
    return result.iterations - bracket_evaluations - floor_check


def outcome(solve, p, q, gamma):
    try:
        return solve(p, q, gamma)
    except (NoSolution, NonConvergence, GammaOutOfRange, NonPositiveGamma) as exc:
        return type(exc)


class TestNewtonAgainstBisection:
    """The fixed-point solver (a safeguarded Newton, then the shared
    bracketed search, now Newton steps in ``1 / theta``) against the
    bisection the first replaced."""

    def test_boundary_and_interior_pairs(self):
        rng = np.random.default_rng(31)
        smallest = math.inf
        for i in range(2400):
            size = int(rng.integers(2, 6))
            p, q = boundary_pair(rng, size) if i % 2 else random_interior_pair(rng, size)
            top = kl(p, q)
            if math.isinf(top) or rng.random() < 0.5:
                # a rate whose root is a chosen theta, down to about 1e-12
                target = 10.0 ** rng.uniform(-11.9, 3.0)
                gamma = gjs(p, q, target) / target
            else:
                gamma = float(rng.uniform(0.02, 1.2)) * top
            if not gamma > 0.0:
                continue
            want = outcome(oracle.bisect_fixed_point, p, q, gamma)
            got = outcome(solve_fixed_point, p, q, gamma)
            if isinstance(got, type) and got is want:
                continue
            assert not isinstance(got, type), (p, q, gamma, got, want)
            smallest = min(smallest, got.theta_star)
            assert got.bracket_low < got.theta_star < got.bracket_high
            assert got.bracket_high - got.bracket_low <= RELATIVE_BRACKET_WIDTH * got.bracket_high
            assert got.residual <= RESIDUAL_BOUND
            assert 0 < refine_steps(p, q, gamma, got) <= CROSSING_MAX_STEPS
        assert smallest < 1e-11

    def test_roots_agree_on_the_interior_family(self, rng):
        evaluations = []
        for _ in range(1000):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            gamma = float(rng.uniform(0.05, 0.95)) * kl(p, q)
            got = solve_fixed_point(p, q, gamma)
            want = oracle.bisect_fixed_point(p, q, gamma).theta_star
            assert abs(got.theta_star - want) <= 1e-12 * want
            evaluations.append(got.iterations)
        # the safeguarded Newton this search replaced took 12 and 17 here
        assert np.median(evaluations) <= 12 and max(evaluations) <= 17

    def test_acceptance_pair_agrees_to_1e12(self):
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        cases = [(a, b, gamma, 7) for gamma in (0.02, 0.05) for a, b in ((p, q), (q, p))]
        # D(p || q) = inf: the floor's excess is -inf, so its chord is never
        # lower than the Newton point (29 evaluations for the Illinois search
        # once, where a regula falsi step landed on the upper end)
        far = make_distribution([0.3, 0.4, 0.3], alph), make_distribution([0.0, 0.5, 0.5], alph)
        cases.append((*far, 2.0, 10))
        for a, b, gamma, evaluations in cases:
            got = solve_fixed_point(a, b, gamma)
            want = oracle.bisect_fixed_point(a, b, gamma)
            assert abs(got.theta_star - want.theta_star) <= 1e-12 * want.theta_star
            assert got.iterations <= evaluations

    def test_budget_cut_to_one_raises(self, monkeypatch):
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        assert refine_steps(p, q, 0.02, solve_fixed_point(p, q, 0.02)) > 1
        monkeypatch.setattr(divergence, "CROSSING_MAX_STEPS", 1)
        with pytest.raises(NonConvergence, match="unfinished"):
            solve_fixed_point(p, q, 0.02)

    def test_root_beyond_float_range_raises(self):
        # the root of a subnormal rate lies past the largest float, so the
        # doubling overflows; the bisection fails there on gjs(p, q, inf)
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        with pytest.raises(NonConvergence, match="bracketing"):
            solve_fixed_point(p, q, 1e-310)

    def test_tiny_rate_root_near_float_max(self):
        # the root is about 1.1e299: the doubling runs until just short of
        # overflow, far past any fixed count of doublings
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        result = solve_fixed_point(p, q, 1e-300)
        assert result.theta_star > 1e299
        assert result.residual <= RESIDUAL_BOUND

    def test_root_below_bracket_low_raises(self):
        # the bisection settles on BRACKET_LOW itself; the solver refuses
        # because the excess is negative there
        alph = alphabet(2)
        p = make_distribution([0.3, 0.7], alph)
        q = make_distribution([1.0, 0.0], alph)
        stuck = oracle.bisect_fixed_point(p, q, 25.0)
        assert stuck.bracket_low == BRACKET_LOW
        assert gjs(p, q, BRACKET_LOW) < 25.0 * BRACKET_LOW
        with pytest.raises(NonConvergence, match="BRACKET_LOW"):
            solve_fixed_point(p, q, 25.0)


def certified(result, gamma, divergences, slope_at_zero):
    """The bracket contract, read from the evaluator the solve used: the
    excess ``gjs - gamma * theta`` is not negative at the low end (or that
    end is ``BRACKET_LOW`` with ``gamma < D(p || q)``), negative at the high
    end, the bracket at most one relative width wide and the root strictly
    inside it."""
    def excess(theta):
        d_p, d_q, _ = divergences(theta)
        return gamma - d_p - d_q / theta

    low, high = result.bracket_low, result.bracket_high
    assert excess(low) <= 0.0 or (low == BRACKET_LOW and gamma < slope_at_zero)
    assert excess(high) > 0.0
    assert low < result.theta_star < high
    assert high - low <= RELATIVE_BRACKET_WIDTH * high


class TestNewtonInInverseTheta:
    """The branches of the root's loop: Halley steps in ``u = 1 / theta`` from
    ``D(q || p) / gamma`` or the bound's start, the doubling where that start
    fails, and the probe that certifies the bracket's other end.  The fake
    evaluators give a curvature of 0, so their steps are Newton's."""

    def _spied(self, monkeypatch):
        doublings = []

        def counting(*args):
            doublings.append(1)
            return divergence._bracket(*args)

        monkeypatch.setattr(fixedpoint, "_bracket", counting)
        return doublings

    def test_agrees_with_the_replaced_search(self):
        for p, q in interior_family():
            for share in (0.1, 0.5, 0.9, 1.0):
                gamma = share * chernoff(p, q)
                got = solve_fixed_point(p, q, gamma).theta_star
                want = oracle.search_fixed_point(p, q, gamma).theta_star
                assert abs(got - want) <= 1e-12 * want

    def test_infinite_reverse_divergence_starts_from_the_bound(self, monkeypatch):
        # q has mass that p lacks, as on the exponent table's zero-weight
        # pairs: D(q || p) = inf gives no start, and the start from the bound
        # on gjs (fixedpoint._certified_start) lies above the root with a
        # positive excess, so no doubling runs (the doubling ran 3 times here)
        doublings = self._spied(monkeypatch)
        alph = alphabet(3)
        p = make_distribution([0.6, 0.4, 0.0], alph)
        q = make_distribution([0.3, 0.3, 0.4], alph)
        assert kl(q, p) == math.inf
        evaluate = divergence._mixture_divergences(p.weights, q.weights)
        for gamma in (0.02, 0.2, 0.9 * kl(p, q)):
            got = solve_fixed_point(p, q, gamma)
            want = oracle.search_fixed_point(p, q, gamma)
            assert abs(got.theta_star - want.theta_star) <= 1e-12 * want.theta_star
            certified(got, gamma, evaluate, kl(p, q))
            assert got.iterations < oracle.newton_fixed_point(p, q, gamma).iterations
        assert doublings == []
        solve_fixed_point(q, p, 0.02)
        assert doublings == []
        # the bound holds on every boundary pair with mass of q only
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(400):
            p, q = boundary_pair(rng, int(rng.integers(2, 6)))
            top = kl(p, q)
            if kl(q, p) < math.inf or not top > 0.0:
                continue
            evaluate = divergence._mixture_divergences(p.weights, q.weights)
            for share in (1e-3, 0.1, 0.5, 0.99):
                gamma = share * min(top, 10.0)
                start = fixedpoint._certified_start(p, q, gamma)
                d_p, d_q, _ = evaluate(start)
                assert gamma - d_p - d_q / start > 0.0, (p, q, gamma)
                got = outcome(solve_fixed_point, p, q, gamma)
                if not isinstance(got, type):
                    assert start > got.theta_star
                    checked += 1
        assert checked >= 200

    def test_start_rounded_below_the_root_doubles(self, monkeypatch):
        # at gamma = 1e-17 the start D(q || p) / gamma lies within rounding
        # of the root, about 1e16, and its excess rounds below zero
        doublings = self._spied(monkeypatch)
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[1], alph)
        q = make_distribution(NEAR_PAIR[0], alph)
        gamma = 1e-17
        evaluate = divergence._mixture_divergences(p.weights, q.weights)
        start = kl(q, p) / gamma
        d_p, d_q, _ = evaluate(start)
        assert gamma - d_p - d_q / start <= 0.0
        got = solve_fixed_point(p, q, gamma)
        want = oracle.search_fixed_point(p, q, gamma)
        assert doublings == [1]
        assert abs(got.theta_star - want.theta_star) <= 1e-12 * want.theta_star
        certified(got, gamma, evaluate, kl(p, q))

    def test_newton_landing_on_zero_excess_probes_above(self):
        # an evaluator whose excess is linear in u = 1 / theta: the one
        # Newton step from the start lands on the root, theta = 1/2, at an
        # excess of exactly 0.0, which certifies a low end; one probe half a
        # width above it closes the bracket, where bisecting back toward the
        # start would take about 46 steps
        def divergences(theta):
            return 0.5, 0.25, 0.0

        gamma, slope_at_zero = 1.0, 2.0
        got = solve_fixed_point(None, None, gamma, (divergences, slope_at_zero, 4.0))
        assert got.bracket_low == 0.5
        assert got.iterations == 3
        certified(got, gamma, divergences, slope_at_zero)

    def test_near_zero_roots_take_the_chord_to_the_floor(self):
        # near theta = 0 the excess is almost linear in theta, and Newton in
        # u alone only halves theta per step: up to 67 evaluations here
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        for a, b in ((p, q), (q, p)):
            for target in (1e-3, 1e-5, 1e-7, 1e-9):
                gamma = gjs(a, b, target) / target
                got = solve_fixed_point(a, b, gamma)
                assert got.iterations <= 30
                assert abs(got.theta_star - target) <= 1e-5 * target

    def test_zero_slope_bisects(self):
        # D(q || m) = 0.0 gives the Newton step no slope: the steps bisect
        # instead of dividing by zero
        def divergences(theta):
            return gamma + 1.0 - theta, 0.0, 0.0

        gamma, slope_at_zero = 0.5, 1.5
        got = solve_fixed_point(None, None, gamma, (divergences, slope_at_zero, 2.0))
        assert abs(got.theta_star - 1.0) <= 1e-13
        certified(got, gamma, divergences, slope_at_zero)

    def test_step_past_infinity_bisects(self):
        # from theta = 4 Newton lands at 0.2, where D(p || m) = gamma makes the
        # next step's denominator 1 - u * excess / slope exactly 0.0: the
        # steps bisect instead of dividing by zero
        def divergences(theta):
            t = min(max(theta - 1.0, 0.0), 1.0)  # 0 up to theta = 1, 1 from 2
            return 0.5 * (1.0 - t), 1.0 - 0.9 * t, 0.0

        gamma, slope_at_zero = 0.5, 1.5
        seen = []
        got = solve_fixed_point(
            None, None, gamma, (lambda theta: seen.append(theta) or divergences(theta),
                                slope_at_zero, 2.0)
        )
        assert seen[0] == 4.0 and seen[1] == pytest.approx(0.2, rel=1e-15)
        assert 1.0 < got.theta_star < 2.0
        certified(got, gamma, divergences, slope_at_zero)

    def test_sign_change_between_adjacent_floats(self):
        # an excess that jumps from -1e-14 to 1e-14 between two adjacent
        # floats, with a slope that points every Newton step past the jump:
        # the probes and bisections must still leave a bracket around the
        # jump with the root strictly inside
        for jump in (0.7, 3.0, 1234.5):
            above = math.nextafter(jump, math.inf)

            def divergences(theta, jump=jump):
                step = 1e-14 if theta > jump else -1e-14
                return gamma - 1.0 / theta - step, 1.0, 0.0

            gamma, slope_at_zero = 0.5, 1.0
            got = solve_fixed_point(None, None, gamma, (divergences, slope_at_zero, 4.0 * jump))
            assert got.bracket_low <= jump and got.bracket_high >= above
            certified(got, gamma, divergences, slope_at_zero)


class TestHalleySteps:
    """Halley steps in ``u = 1 / theta`` on the evaluator's curvature, against
    the Newton loop they replaced (``oracle.newton_fixed_point``)."""

    def test_roots_agree_with_the_newton_loop(self):
        cases = [(p, q, share * chernoff(p, q))
                 for p, q in interior_family() for share in (0.1, 0.5, 0.9, 1.0)]
        rng = np.random.default_rng(33)
        kinds = {"zero-weight": 0, "point-mass": 0}
        while min(kinds.values()) < 100:
            p, q = boundary_pair(rng, int(rng.integers(3, 6)))
            kind = "point-mass" if 1.0 in p.weights + q.weights else "zero-weight"
            if kl(q, p) < math.inf and kind == "zero-weight":
                continue  # only pairs where q has mass that p lacks take the new start
            top = kl(p, q)
            if top > 0.0:
                kinds[kind] += 1
                cases += [(p, q, share * min(top, 2.0)) for share in (0.05, 0.5, 0.95)]
        moved = 0.0
        for p, q, gamma in cases:
            want = outcome(oracle.newton_fixed_point, p, q, gamma)
            got = outcome(solve_fixed_point, p, q, gamma)
            if isinstance(want, type):
                assert got is want, (p, q, gamma)
                continue
            moved = max(moved, abs(got.theta_star - want.theta_star) / want.theta_star)
            certified(got, gamma, divergence._mixture_divergences(p.weights, q.weights), kl(p, q))
        assert moved <= 1e-12

    def test_curvature_matches_a_50_digit_value(self):
        # the curvature's other form, -d D(q || m) / du = sum over q > 0 of
        # q (q - p) / ((1 + u) (p + u q)), whose terms cancel, in 50 digits;
        # the evaluator's nonnegative terms take sum q = sum p, so the
        # weights' own rounding, (sum q - sum p) / (1 + u)^2, is taken out
        decimal.getcontext().prec = 50
        rng = np.random.default_rng(5)
        pairs = list(divergence_family(5, 120)) + [boundary_pair(rng, 4) for _ in range(120)]
        for p, q in pairs:
            evaluate = divergence._mixture_divergences(p.weights, q.weights)
            exact = [(decimal.Decimal(a), decimal.Decimal(b)) for a, b in zip(p.weights, q.weights)]
            imbalance = sum(b - a for a, b in exact)
            for theta in (1e-6, 0.03, 1.0, 7.5, 4e4):
                u = 1 / decimal.Decimal(theta)
                want = sum(b * (b - a) / ((1 + u) * (a + u * b)) for a, b in exact if b > 0)
                want -= imbalance / (1 + u) ** 2
                got = evaluate(theta)[2]
                assert got >= 0.0
                assert abs(decimal.Decimal(got) - want) <= decimal.Decimal(1e-12) * want, \
                    (p, q, theta, got, want)

    def test_step_is_halley_where_its_correction_is_positive(self):
        # an excess 1/2 - 1/theta with slope -1 in u and a chosen curvature c:
        # from theta = 4 Newton lands on the root 2; Halley's correction 1 -
        # c / 8 makes it 4 / 3 at c = 4, and at c = 8 (a zero correction, a
        # division by zero) and c = 16 (negative, a step the wrong way) the
        # step is Newton's
        for curvature, landing in ((0.0, 2.0), (4.0, 4.0 / 3.0), (8.0, 2.0), (16.0, 2.0)):
            seen = []

            def divergences(theta, curvature=curvature):
                seen.append(theta)
                return 0.5, 1.0, curvature

            gamma, slope_at_zero = 1.0, 2.0
            got = solve_fixed_point(None, None, gamma, (divergences, slope_at_zero, 4.0))
            assert seen[:2] == [4.0, landing], curvature
            certified(got, gamma, divergences, slope_at_zero)
            assert abs(got.theta_star - 2.0) <= 1e-13


class TestExponentReport:
    def test_identical_sources_rejected(self, rng):
        alph = alphabet(3)
        p = make_distribution([0.2, 0.3, 0.5], alph)
        with pytest.raises(GammaOutOfRange):
            exponent_report(p, p, 0.01)

    def test_exchange_symmetric_pair(self):
        alph = alphabet(2)
        p = make_distribution([0.8, 0.2], alph)
        q = make_distribution([0.2, 0.8], alph)
        report = exponent_report(p, q, 0.05)
        assert math.isclose(report.beta_star, report.theta_star, rel_tol=1e-11)

    def test_gamma_above_chernoff(self, rng):
        p, q = random_interior_pair(rng, 3)
        with pytest.raises(GammaOutOfRange):
            exponent_report(p, q, chernoff(p, q) * 1.01)

    def test_gamma_at_a_divergence_rejected_before_solving(self, monkeypatch):
        # on |X| = 2 a point mass makes C = D(p1||p2): the cap has no root
        alph = alphabet(2)
        p1 = make_distribution([1.0, 0.0], alph)
        p2 = make_distribution([0.3, 0.7], alph)
        cap = chernoff(p1, p2)
        assert cap == 1.2039728043259361 == kl(p1, p2)

        def unreachable(*args):
            raise AssertionError("solved a root for an out-of-range rate")

        monkeypatch.setattr(fixedpoint, "solve_fixed_point", unreachable)
        with pytest.raises(GammaOutOfRange, match="D\\(P1\\|\\|P2\\)"):
            exponent_report(p1, p2, cap)
        with pytest.raises(GammaOutOfRange):
            multiclass_thetas([p1, p2], cap)
        monkeypatch.undo()
        report = exponent_report(p1, p2, 0.99 * cap)
        assert report.theta_star > 0 and report.beta_star > 0

    def test_gamma_at_cap_accepted_and_flagged(self, rng):
        p, q = random_interior_pair(rng, 3)
        report = exponent_report(p, q, chernoff(p, q))
        assert report.near_cap
        far = exponent_report(p, q, 0.5 * chernoff(p, q))
        assert not far.near_cap

    def test_exponent_identities(self, rng):
        for _ in range(30):
            p, q = random_interior_pair(rng, int(rng.integers(2, 5)))
            gamma = 0.5 * chernoff(p, q)
            r = exponent_report(p, q, gamma)
            assert abs(r.exponent_type1 - gjs(q, p, r.beta_star)) <= 1e-9
            assert abs(r.exponent_type1 - gamma * r.beta_star) <= 1e-9
            assert abs(r.exponent_type2 - gjs(p, q, r.theta_star)) <= 1e-9
            assert abs(r.exponent_type2 - gamma * r.theta_star) <= 1e-9
            assert r.bayes_exponent == gamma

    def test_sprt_sandwich(self, rng):
        for _ in range(50):
            p, q = random_interior_pair(rng, int(rng.integers(2, 5)))
            gamma = float(rng.uniform(0.1, 1.0)) * chernoff(p, q)
            r = exponent_report(p, q, gamma)
            assert r.exponent_type1 * r.exponent_type2 <= kl(p, q) * kl(q, p) + 1e-9

    def test_small_gamma_limits(self, rng):
        # as gamma shrinks the exponents approach the one-shot divergences:
        # gamma*beta* climbs to kl(p,q) and gamma*theta* to kl(q,p)
        for _ in range(10):
            p, q = random_interior_pair(rng, 3)
            r = exponent_report(p, q, 1e-4)
            assert abs(r.exponent_type1 - kl(p, q)) <= 0.02 * kl(p, q)
            assert abs(r.exponent_type2 - kl(q, p)) <= 0.02 * kl(q, p)

    def test_grid_oracle_over_sweep(self):
        alph = alphabet(3)
        p = make_distribution([0.1, 0.3, 0.6], alph)
        q = make_distribution([0.45, 0.45, 0.1], alph)
        cap = chernoff(p, q)
        for gamma in np.linspace(0.1, 1.0, 10) * cap:
            r = exponent_report(p, q, float(gamma))
            theta_root, _ = grid_scan_root(p, q, float(gamma))
            beta_root, _ = grid_scan_root(q, p, float(gamma))
            assert abs(r.theta_star - theta_root) <= 1e-5
            assert abs(r.beta_star - beta_root) <= 1e-5


class TestMulticlassThetas:
    def test_binary_reduction(self):
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        report = exponent_report(p, q, 0.02)
        matrix = multiclass_thetas([p, q], 0.02)
        assert math.isclose(matrix[0, 1], report.beta_star, rel_tol=1e-12)
        assert math.isclose(matrix[1, 0], report.theta_star, rel_tol=1e-12)

    def test_trio_entries_grid_verified(self):
        alph = alphabet(3)
        dists = [make_distribution(w, alph) for w in TRIO]
        matrix = multiclass_thetas(dists, 0.03)
        for i in range(3):
            assert math.isnan(matrix[i, i])
            for j in range(3):
                if i == j:
                    continue
                root, changes = grid_scan_root(dists[j], dists[i], 0.03)
                assert changes == 1
                assert abs(matrix[i, j] - root) <= 1e-5

    def test_permutation_equivariance(self):
        alph = alphabet(3)
        dists = [make_distribution(w, alph) for w in TRIO]
        matrix = multiclass_thetas(dists, 0.03)
        perm = [2, 0, 1]
        permuted = multiclass_thetas([dists[k] for k in perm], 0.03)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                assert math.isclose(
                    permuted[i, j], matrix[perm[i], perm[j]], rel_tol=1e-12
                )

    def test_duplicate_rejected(self):
        alph = alphabet(3)
        p = make_distribution(TRIO[0], alph)
        q = make_distribution(TRIO[1], alph)
        with pytest.raises(DuplicateDistribution):
            multiclass_thetas([p, q, p], 0.03)

    def test_gamma_gate_uses_min_pairwise_chernoff(self):
        alph = alphabet(3)
        dists = [make_distribution(w, alph) for w in TRIO]
        cap = min(
            chernoff(dists[i], dists[j])
            for i in range(3)
            for j in range(3)
            if i != j
        )
        with pytest.raises(GammaOutOfRange):
            multiclass_thetas(dists, cap * 1.01)
        multiclass_thetas(dists, cap)


def gate_family(seed, count):
    """Seeded ``(kind, pair, triple)``: ``count`` pairs of each of
    ``test_contract``'s boundary kinds (zero weights, point masses,
    disjoint supports) and near-identical pairs, ``count`` interior pairs,
    and ``count`` pairs whose ``q`` permutes ``p``, every other one by
    swapping pairs of symbols, where the Chernoff optimum sits at eta = 1/2
    and the Bhattacharyya bound is the cap.  The triple adds a third source
    to the pair: another permutation of ``p`` for that kind, an independent
    interior one for the others."""
    rng = np.random.default_rng(seed)
    pairs = list(boundary_family(seed, count))
    pairs += [("near", p, q) for p, q in near_identical_family(seed, count)]
    for i in range(count):
        size = int(rng.integers(2, 7))
        pairs.append(("interior", *random_interior_pair(rng, size)))
        p, order = random_interior(rng, size), rng.permutation(size)
        swap = np.arange(size)
        for a in range(0, size - 1, 2):
            swap[order[a]], swap[order[a + 1]] = order[a + 1], order[a]
        weights = np.asarray(p.weights)
        q = weights[swap] if i % 2 else np.roll(weights, 1)
        pairs.append(("permutation", p, make_distribution(list(q), p.alphabet), weights[order]))
    out = []
    for kind, p, q, *third in pairs:
        third = third[0] if third else rng.dirichlet(np.ones(len(p.weights)))
        out.append((kind, [p, q], [p, q, make_distribution(list(third / third.sum()), p.alphabet)]))
    return out


def step_ulps(x, steps):
    """``x`` moved ``steps`` doubles up (or down, for negative ``steps``)."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        x = math.nextafter(x, toward)
    return x


class TestRateGate:
    """The gate's Bhattacharyya certificate against the exact cap it replaced
    (``oracle.exact_rate_gate``): at rates around each class set's cap, the
    reports pass or raise alike, with the same error type and message, the
    same near-cap flag and the same bits, fresh and along a grid."""

    @staticmethod
    def rates(cap):
        rates = [share * cap for share in (0.1, 0.5, 0.9, 1.0, 1.1)]
        for center in (cap - NEAR_CAP_WIDTH, cap + 1e-12):
            rates += [step_ulps(center, steps) for steps in range(-3, 4)]
        return rates

    @staticmethod
    def outcome(call, *args):
        """The value's repr, which tells every bit of a float, or the error."""
        try:
            value = call(*args)
        except SeqstatError as error:
            return type(error), str(error)
        return value.tobytes() if isinstance(value, np.ndarray) else repr(value)

    def test_reports_decide_as_the_exact_cap(self, monkeypatch):
        exact_caps = []

        def counting(*args):
            exact_caps.append(1)
            return chernoff(*args)

        monkeypatch.setattr(fixedpoint, "chernoff", counting)
        mismatched = []
        calls = certified = 0
        for i, (kind, pair, triple) in enumerate(gate_family(20191203, 10)):
            for dists, report, want in (
                (pair, exponent_report, lambda p, q, g: oracle.exact_exponent_report(p, q, g)[0]),
                (triple, lambda *d: multiclass_thetas(list(d[:-1]), d[-1]),
                 lambda *d: oracle.exact_multiclass_thetas(list(d[:-1]), d[-1])),
            ):
                cap = min(chernoff(p, q) for j, p in enumerate(dists) for q in dists[j + 1 :])
                for gamma in self.rates(cap):
                    before = len(exact_caps)
                    got = self.outcome(report, *dists, gamma)
                    calls += 1
                    certified += len(exact_caps) == before
                    if got != self.outcome(want, *dists, gamma):
                        mismatched.append((i, kind, len(dists), gamma, got))
        assert mismatched == []
        # both the certificate and the exact cap decided some of them
        assert 0 < certified < calls

    def test_grid_decides_as_the_exact_cap(self):
        # the rates in turn through one grid's limits, where a cap computed
        # for one rate serves the rates after it
        mismatched = []
        for i, (kind, (p, q), _) in enumerate(gate_family(7, 10)):
            rates = self.rates(chernoff(p, q))
            limits, cap = [], None
            for gamma in rates[3:] + rates[:3]:
                try:
                    got = repr(exponent_report(p, q, gamma, _limits=limits))
                except SeqstatError as error:
                    got = type(error), str(error)
                try:
                    report, cap = oracle.exact_exponent_report(p, q, gamma, cap)
                    want = repr(report)
                except SeqstatError as error:
                    want = type(error), str(error)
                if got != want:
                    mismatched.append((i, kind, gamma, got, want))
        assert mismatched == []


class TestEmpiricalFixedPoint:
    def test_fallback_when_type_too_close(self):
        alph = alphabet(2)
        q = make_distribution([0.5, 0.5], alph)
        t = empirical_type([0, 1, 0, 1], alph)
        # kl(type, q) = 0 <= gamma, no root exists
        assert empirical_fixed_point(t, q, 0.1, fallback=7.5) == 7.5

    def test_fallback_must_be_finite_and_positive(self):
        alph = alphabet(2)
        q = make_distribution([0.3, 0.7], alph)
        close = empirical_type([0, 1, 1], alph)  # no root at gamma = 0.1
        far = empirical_type([0] * 9 + [1], alph)  # a root
        for t in (close, far):
            for fallback in (math.nan, -3.0, 0.0, math.inf, "abc", None):
                with pytest.raises(NegativeAlpha, match="fallback"):
                    empirical_fixed_point(t, q, 0.1, fallback=fallback)
        assert empirical_fixed_point(close, q, 0.1, fallback="2.5") == 2.5

    def test_exact_type_matches_solver(self):
        alph = alphabet(2)
        q = make_distribution([0.3, 0.7], alph)
        t = empirical_type([0] * 9 + [1], alph)
        p = t.as_distribution()
        gamma = 0.25 * kl(p, q)
        direct = solve_fixed_point(p, q, gamma).theta_star
        assert abs(empirical_fixed_point(t, q, gamma) - direct) <= 1e-10

    def test_monte_carlo_consistency(self):
        alph = alphabet(3)
        p = make_distribution([0.1, 0.7, 0.2], alph)
        q = make_distribution([0.6, 0.2, 0.2], alph)
        gamma = 0.3 * kl(p, q)
        target = solve_fixed_point(p, q, gamma).theta_star
        hits = 0
        seeds = 40
        for seed in range(seeds):
            t = empirical_type(sample_iid(p, 10**5, SeedSpec(seed, 1)), alph)
            value = empirical_fixed_point(t, q, gamma)
            hits += abs(value - target) <= 0.05
        assert hits >= math.ceil(0.95 * seeds)
