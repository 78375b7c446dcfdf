"""Threshold-equation roots and the exponent reports built from them."""

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
    NonConvergence,
    NonPositiveGamma,
    NoSolution,
)
from seqstat.fixedpoint import BRACKET_LOW, RESIDUAL_BOUND
from conftest import alphabet, random_interior_pair
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


def refine_steps(result):
    """Search steps of a solve: the part CROSSING_MAX_STEPS bounds."""
    bracket_evaluations = 1 + max(0, math.ceil(math.log2(result.theta_star)))
    floor_check = 1 if result.bracket_low == BRACKET_LOW else 0
    return result.iterations - bracket_evaluations - floor_check


def outcome(solve, p, q, gamma):
    try:
        return solve(p, q, gamma)
    except (NoSolution, NonConvergence, GammaOutOfRange, NonPositiveGamma) as exc:
        return type(exc)


class TestNewtonAgainstBisection:
    """The fixed-point solver (once a safeguarded Newton, now the shared
    bracketed search) against the bisection it replaced."""

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
            assert 0 < refine_steps(got) <= CROSSING_MAX_STEPS
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
        cases = [(a, b, gamma, 15) for gamma in (0.02, 0.05) for a, b in ((p, q), (q, p))]
        # D(p || q) = inf: the search starts from a lower excess of -inf, where
        # a regula falsi step lands on the upper end (29 evaluations then)
        far = make_distribution([0.3, 0.4, 0.3], alph), make_distribution([0.0, 0.5, 0.5], alph)
        cases.append((*far, 2.0, 20))
        for a, b, gamma, evaluations in cases:
            got = solve_fixed_point(a, b, gamma)
            want = oracle.bisect_fixed_point(a, b, gamma)
            assert abs(got.theta_star - want.theta_star) <= 1e-12 * want.theta_star
            assert got.iterations <= evaluations

    def test_budget_cut_to_one_raises(self, monkeypatch):
        alph = alphabet(3)
        p = make_distribution(NEAR_PAIR[0], alph)
        q = make_distribution(NEAR_PAIR[1], alph)
        assert refine_steps(solve_fixed_point(p, q, 0.02)) > 1
        monkeypatch.setattr(divergence, "CROSSING_MAX_STEPS", 1)
        with pytest.raises(NonConvergence):
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
        with pytest.raises(NonConvergence):
            solve_fixed_point(p, q, 25.0)


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


class TestEmpiricalFixedPoint:
    def test_fallback_when_type_too_close(self):
        alph = alphabet(2)
        q = make_distribution([0.5, 0.5], alph)
        t = empirical_type([0, 1, 0, 1], alph)
        # kl(type, q) = 0 <= gamma, no root exists
        assert empirical_fixed_point(t, q, 0.1, fallback=7.5) == 7.5

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
