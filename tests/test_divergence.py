"""GJS divergence calculus, Chernoff information, and the deviation bound."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from seqstat import (
    EmpiricalType,
    chernoff,
    entropy,
    gjs,
    gjs_alpha_derivative,
    gjs_mutual_info_form,
    joint_sequence_exponent,
    kl,
    make_distribution,
)
from seqstat import divergence
from seqstat.divergence import _bhattacharyya, kl_array
from seqstat.errors import AlphabetMismatch, NegativeAlpha, NotInterior
from conftest import alphabet, random_interior, random_interior_pair
from oracle import (
    bisect_chernoff,
    gjs_entropy_form,
    gjs_kl_form,
    numpy_chernoff,
    numpy_mixture_divergences,
)

AB = alphabet(2)


def jsd(p, q):
    """Plain Jensen-Shannon divergence, written out independently."""
    m = [(a + b) / 2 for a, b in zip(p.weights, q.weights)]
    total = 0.0
    for pw, qw, mw in zip(p.weights, q.weights, m):
        if pw:
            total += 0.5 * pw * math.log(pw / mw)
        if qw:
            total += 0.5 * qw * math.log(qw / mw)
    return total


def chernoff_grid(p, q, points=20001):
    """Two-stage dense eta grid for the Chernoff information."""
    pw = np.array(p.weights)
    qw = np.array(q.weights)
    mask = (pw > 0) & (qw > 0)
    if not mask.any():
        return math.inf
    lp = np.log(pw[mask])
    lq = np.log(qw[mask])

    def value(etas):
        return np.log(np.exp(etas[:, None] * lp + (1 - etas[:, None]) * lq).sum(axis=1))

    etas = np.linspace(0.0, 1.0, points)
    vals = value(etas)
    k = int(vals.argmin())
    lo = etas[max(k - 2, 0)]
    hi = etas[min(k + 2, points - 1)]
    fine = np.linspace(lo, hi, points)
    return -float(value(fine).min())


class TestGjsBasics:
    def test_identical_arguments(self, rng):
        for _ in range(50):
            p = random_interior(rng, int(rng.integers(2, 6)))
            alpha = float(rng.uniform(0.0, 10.0))
            assert gjs(p, p, alpha) == 0.0

    def test_alpha_zero(self, rng):
        p, q = random_interior_pair(rng, 3)
        assert gjs(p, q, 0.0) == 0.0

    def test_twice_jsd(self, rng):
        for _ in range(300):
            p, q = random_interior_pair(rng, int(rng.integers(2, 7)))
            assert abs(gjs(p, q, 1.0) - 2.0 * jsd(p, q)) <= 1e-12

    def test_boundary_pair_finite(self):
        p = make_distribution([1.0, 0.0], AB)
        q = make_distribution([0.0, 1.0], AB)
        assert math.isclose(gjs(p, q, 1.0), 2.0 * math.log(2.0), abs_tol=1e-12)

    def test_large_alpha_limit(self, rng):
        for _ in range(100):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            assert abs(gjs(p, q, 1e8) - kl(q, p)) <= 1e-4

    def test_negative_alpha(self, rng):
        p, q = random_interior_pair(rng, 3)
        with pytest.raises(NegativeAlpha):
            gjs(p, q, -0.5)

    def test_alphabet_mismatch(self):
        p = make_distribution([0.5, 0.5], AB)
        q = make_distribution([0.5, 0.5], alphabet(3).__class__(("x", "y")))
        with pytest.raises(AlphabetMismatch):
            gjs(p, q, 1.0)

    def test_forms_agree(self, rng):
        for _ in range(200):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            alpha = float(rng.uniform(0.01, 30.0))
            a = gjs_kl_form(p, q, alpha)
            b = gjs_entropy_form(p, q, alpha)
            assert abs(a - b) <= 1e-12
            assert abs(gjs(p, q, alpha) - a) <= 1e-12


def near_identical(rng):
    """An interior ``p``, ``q = p (1 + eps d)`` renormalized, and a weight alpha.

    ``eps`` is log-uniform in [1e-6, 1e-1], ``d`` uniform in [-1, 1] per
    symbol, and alpha log-uniform in [0.1, 20].
    """
    size = int(rng.integers(2, 6))
    p = random_interior(rng, size)
    eps = 10.0 ** rng.uniform(-6.0, -1.0)
    w = p.as_array() * (1.0 + eps * rng.uniform(-1.0, 1.0, size))
    q = make_distribution(list(w / w.sum()), p.alphabet)
    alpha = float(10.0 ** rng.uniform(-1.0, math.log10(20.0)))
    return p, q, alpha


def decimal_reference(p, q, alpha):
    """``(gjs, D(p || m), D(p || q))`` at 50 digits.

    Every input enters as ``Decimal(x)`` of the float itself, the exact
    stored value; ``Decimal(repr(x))`` would round it to 17 digits, an
    error of about 1e-12 relative at D = 1e-10.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        ps = [Decimal(x) for x in p.weights]
        qs = [Decimal(x) for x in q.weights]
        ms = [(a * x + y) / (1 + a) for x, y in zip(ps, qs)]
        d_pm = sum(x * (x / m).ln() for x, m in zip(ps, ms))
        d_qm = sum(y * (y / m).ln() for y, m in zip(qs, ms))
        d_pq = sum(x * (x / y).ln() for x, y in zip(ps, qs))
        return float(a * d_pm + d_qm), float(d_pm), float(d_pq)


class TestDecimalReference:
    """gjs, its alpha-derivative and kl_array on near-identical pairs."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_identical_pairs(self, seed):
        rng = np.random.default_rng(seed)
        checked = {1e-9: 0, 2e-12: 0}
        for _ in range(1000):
            p, q, alpha = near_identical(rng)
            want = decimal_reference(p, q, alpha)
            divergence = want[2]
            if divergence < 1e-10:
                continue
            bound = 2e-12 if divergence >= 1e-5 else 1e-9
            got = (
                gjs(p, q, alpha),
                gjs_alpha_derivative(p, q, alpha),
                kl_array(p.as_array(), q.as_array()),
            )
            for name, x, y in zip(("gjs", "derivative", "kl_array"), got, want):
                assert abs(x - y) <= bound * y, (name, divergence, alpha, x, y)
            checked[bound] += 1
        # both bands are populated: 480-503 and 152-188 draws at these seeds
        assert min(checked.values()) >= 100, checked

    def test_kl_array_far_pairs(self):
        # a symbol with q far below p: 1 - (p - q) / p would round q / p away
        rng = np.random.default_rng(4)
        pairs = [
            (np.array([0.5, 0.5]), np.array([0.5 * r, 1.0 - 0.5 * r]))
            for r in 10.0 ** -np.arange(1.0, 18.0)
        ]
        for _ in range(500):
            size = int(rng.integers(2, 6))
            p, q = rng.dirichlet(np.full(size, 0.3), 2)
            if (p > 0.0).all() and (q > 0.0).all():
                pairs.append((p, q))
        for p, q in pairs:
            with localcontext() as ctx:
                ctx.prec = 50
                want = float(
                    sum(Decimal(x) * (Decimal(x) / Decimal(y)).ln() for x, y in zip(p, q))
                )
            assert abs(kl_array(p, q) - want) <= 1e-13 * want, (p, q)

    @pytest.mark.parametrize("alpha", [1e-9, 1e-12])
    def test_small_alpha_far_pair(self, alpha):
        # m <= p / 2 on the first symbol: 1 - (p - q) / ((1 + alpha) p)
        # would round the digits of m / p away
        p = make_distribution([0.5, 0.5], AB)
        q = make_distribution([2e-9, 1.0 - 2e-9], AB)
        want = decimal_reference(p, q, alpha)[:2]
        got = (gjs(p, q, alpha), gjs_alpha_derivative(p, q, alpha))
        for name, x, y in zip(("gjs", "derivative"), got, want):
            assert abs(x - y) <= 1e-13 * y, (name, x, y)


class TestScalarAgainstNumpy:
    """The scalar evaluator and ``chernoff`` against their numpy forms in
    ``tests/oracle.py``, on ``divergence_family`` and boundary pairs.

    The two evaluators differ only in rounding: ``math.log1p`` against
    ``np.log1p`` and a left-to-right sum against a dot product.  So each
    value must agree to ``EVALUATOR_BOUND`` relative to the sum of its
    terms' magnitudes ``sum_x w_x |log(m_x / w_x)|``, not to the value,
    which cancels on near-identical pairs.  The Chernoff value is ``-ln``
    of a sum within ``C`` of 1, whose rounding is absolute, and the two
    searches stop on their own noisy slopes, so it must agree to
    ``CHERNOFF_BOUND`` times ``max(1, C)``.
    """

    EVALUATOR_BOUND = 4 * 2.0**-52  # 1.4 units measured on the family
    CHERNOFF_BOUND = 8 * 2.0**-52  # 6.7e-16 measured on the family
    ALPHAS = (0.0, 1e-3, 1.0, 50.0, 5000.0)
    BOUNDARY = [
        ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]),  # disjoint supports
        ([0.2, 0.8, 0.0], [0.1, 0.3, 0.6]),  # mass of q only
        ([0.2, 0.3, 0.5], [0.4, 0.6, 0.0]),  # mass of p only
        ([0.5, 0.5], [2e-9, 1.0 - 2e-9]),  # m <= p / 2 at every alpha below 1
        ([0.0, 1.0], [0.0, 1.0]),  # one common symbol, equal weights
    ]

    @staticmethod
    def magnitude(w, m):
        # sum_x w_x |log(m_x / w_x)| over w > 0; inf where m_x = 0 < w_x
        kept = w > 0.0
        with np.errstate(divide="ignore"):
            return float(np.sum(w[kept] * np.abs(np.log(m[kept] / w[kept]))))

    def pairs(self):
        from test_fixedpoint import divergence_family

        yield from divergence_family()
        for weights in self.BOUNDARY:
            p, q = (make_distribution(w, alphabet(len(w))) for w in weights)
            yield p, q
            yield q, p

    def test_evaluator(self):
        ratio_branch = 0
        for p, q in self.pairs():
            pa, qa = p.as_array(), q.as_array()
            got = divergence._mixture_divergences(pa, qa)
            want = numpy_mixture_divergences(pa, qa)
            both = (pa > 0.0) & (qa > 0.0)
            for alpha in self.ALPHAS:
                m = (alpha * pa + qa) / (1.0 + alpha)
                ratio_branch += bool(np.any(pa[both] - qa[both] >= 0.5 * (1.0 + alpha) * pa[both]))
                for x, y, w in zip(got(alpha), want(alpha), (pa, qa)):
                    if math.isinf(y):
                        assert x == y, (p, q, alpha)
                    else:
                        bound = self.EVALUATOR_BOUND * self.magnitude(w, m)
                        assert abs(x - y) <= bound, (p, q, alpha, x, y)
        # the m <= p / 2 branch ran (623 (pair, alpha) points on the family alone)
        assert ratio_branch >= 100

    def test_chernoff(self):
        for p, q in self.pairs():
            want = numpy_chernoff(p, q)
            got = chernoff(p, q)
            if math.isinf(want):
                assert got == want, (p, q)
            else:
                assert abs(got - want) <= self.CHERNOFF_BOUND * max(1.0, want), (p, q, got, want)


class TestDerivative:
    def test_equal_pair_zero(self, rng):
        p = random_interior(rng, 4)
        for alpha in (0.0, 0.3, 2.0):
            assert gjs_alpha_derivative(p, p, alpha) == 0.0

    def test_alpha_zero_is_kl(self, rng):
        p, q = random_interior_pair(rng, 3)
        assert math.isclose(gjs_alpha_derivative(p, q, 0.0), kl(p, q), abs_tol=1e-12)

    def test_finite_difference(self, rng):
        step = 1e-5
        for _ in range(300):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            alpha = float(rng.uniform(0.05, 20.0))
            fd = (gjs(p, q, alpha + step) - gjs(p, q, alpha - step)) / (2 * step)
            assert abs(gjs_alpha_derivative(p, q, alpha) - fd) <= 1e-6

    def test_decreasing_in_alpha(self, rng):
        p, q = random_interior_pair(rng, 4)
        grid = np.linspace(0.1, 15.0, 12)
        vals = [gjs_alpha_derivative(p, q, float(a)) for a in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_not_interior(self):
        p = make_distribution([1.0, 0.0], AB)
        q = make_distribution([0.5, 0.5], AB)
        with pytest.raises(NotInterior):
            gjs_alpha_derivative(p, q, 1.0)


class TestMutualInfoForm:
    def test_equal_pair(self, rng):
        p = random_interior(rng, 3)
        assert gjs_mutual_info_form(p, p, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports(self):
        p = make_distribution([1.0, 0.0], AB)
        q = make_distribution([0.0, 1.0], AB)
        assert math.isclose(gjs_mutual_info_form(p, q, 1.0), 2.0 * math.log(2.0), abs_tol=1e-12)

    def test_matches_gjs(self, rng):
        for _ in range(300):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            alpha = float(rng.uniform(0.01, 25.0))
            assert abs(gjs_mutual_info_form(p, q, alpha) - gjs(p, q, alpha)) <= 1e-12


class TestChernoff:
    def test_identical(self, rng):
        p = random_interior(rng, 3)
        assert chernoff(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_bernoulli(self):
        p = make_distribution([0.8, 0.2], AB)
        q = make_distribution([0.2, 0.8], AB)
        assert abs(chernoff(p, q) - (-math.log(0.8))) <= 1e-6

    def test_wide_pair_grid(self):
        p = make_distribution([0.1, 0.3, 0.6], alphabet(3))
        q = make_distribution([0.45, 0.45, 0.1], alphabet(3))
        assert abs(chernoff(p, q) - chernoff_grid(p, q)) <= 1e-8

    def test_grid_oracle_random(self, rng):
        for _ in range(50):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            assert abs(chernoff(p, q) - chernoff_grid(p, q)) <= 1e-8

    def test_symmetry(self, rng):
        for _ in range(100):
            p, q = random_interior_pair(rng, int(rng.integers(2, 5)))
            assert abs(chernoff(p, q) - chernoff(q, p)) <= 1e-12

    def test_bounded_by_kl(self, rng):
        for _ in range(100):
            p, q = random_interior_pair(rng, int(rng.integers(2, 5)))
            assert chernoff(p, q) <= min(kl(p, q), kl(q, p)) + 1e-12

    def test_boundary_eta(self):
        # a pair whose inner function is minimized at an endpoint
        p = make_distribution([1.0, 0.0], AB)
        q = make_distribution([0.5, 0.5], AB)
        v = chernoff(p, q)
        assert v == pytest.approx(chernoff_grid(p, q), abs=1e-8)

    def test_disjoint_support(self):
        p = make_distribution([1.0, 0.0], AB)
        q = make_distribution([0.0, 1.0], AB)
        assert chernoff(p, q) == math.inf

    def test_weight_ratio_below_rounding(self):
        # p / q below 2^-53 on a common symbol rounded (p - q) / q to -1,
        # and log1p(-1) raised a bare ValueError; in the other order a
        # subnormal q makes the quotient overflow to inf
        for small in (1e-17, 1e-20, 1e-100, 1e-300, 1e-310):
            p = make_distribution([small, 1.0 - small], AB)
            q = make_distribution([0.5, 0.5], AB)
            assert abs(chernoff(p, q) - chernoff_grid(p, q)) <= 1e-8
            assert chernoff(q, p) == chernoff(p, q)

    def test_never_below_the_bhattacharyya_bound(self):
        # the rate gate in fixedpoint certifies rates from this bound, so
        # the value may not fall below it, not even by an ulp: on pairs
        # that swap symbols the optimum is eta = 1/2 and the bound is the
        # value, and the search stopped up to 6e-16 below it; on the pair
        # below, with weights down to 1.8e-227, the slope's log-ratios had
        # lost their digits and the search stopped 3.3e-5 below it
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(300):
            size = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(size))
            swap = np.arange(size)
            order = rng.permutation(size)
            for a in range(0, size - 1, 2):
                swap[order[a]], swap[order[a + 1]] = order[a + 1], order[a]
            pairs.append((p, p[swap]))
        wide = np.array([4.527723795527808e-17, 9.10906958159616e-33, 0.7932203089478829,
                         0.20677969105211713, 1.1479495877670183e-137, 1.759240625995607e-227,
                         6.761698302570297e-146])
        pairs.append((wide, wide[[1, 0, 4, 5, 2, 3, 6]]))
        for p, q in pairs:
            alph = alphabet(len(p))
            p, q = make_distribution(list(p), alph), make_distribution(list(q), alph)
            assert chernoff(p, q) >= _bhattacharyya(p.weights, q.weights), (p, q)
        assert chernoff(p, q) == pytest.approx(chernoff_grid(p, q), abs=1e-8)

    def test_nonnegative_on_near_identical_pairs(self):
        # q = p (1 + eps d), renormalized, eps log-uniform in [1e-8, 1e-3]:
        # the endpoint sums round to 1 + ulp, and without the floor at 0
        # seven of these pairs read -2.2e-16
        rng = np.random.default_rng(2024)
        for _ in range(4000):
            size = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(size))
            eps = 10.0 ** rng.uniform(-8.0, -3.0)
            q = p * (1.0 + eps * rng.uniform(-1.0, 1.0, size))
            alph = alphabet(size)
            p, q = make_distribution(list(p), alph), make_distribution(list(q / q.sum()), alph)
            assert chernoff(p, q) >= 0.0, (p, q)

    def test_agrees_with_bisection_oracle(self, monkeypatch):
        # |X| = 2..5: interior pairs, a zero weight on one side, a point
        # mass, and supports that overlap partly or not at all
        rng = np.random.default_rng(20191203)
        evaluations = []
        search = divergence._search

        def counting(evaluate, lo, hi):
            calls = []

            def counted(eta, state):
                calls.append(eta)
                return evaluate(eta, state)

            ends = search(counted, lo, hi)
            evaluations.append(2 + len(calls))
            return ends

        monkeypatch.setattr(divergence, "_search", counting)
        for i in range(320):
            size = int(rng.integers(2, 6))
            p, q = rng.dirichlet(np.ones(size), 2)
            kind = ("interior", "zero", "point", "split")[i % 4]
            if kind == "zero":
                p[int(rng.integers(size))] = 0.0
            elif kind == "point":
                p = np.eye(size)[int(rng.integers(size))]
            elif kind == "split":
                cut = int(rng.integers(1, size))
                p[:cut] = 0.0
                q[cut + int(rng.integers(3)) :] = 0.0
            alph = alphabet(size)
            p, q = (make_distribution(list(x / x.sum()), alph) for x in (p, q))
            got, want = chernoff(p, q), bisect_chernoff(p, q)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-15 + 1e-12 * want, (p, q, got, want)
        # evaluations per call with an interior optimum, endpoints included
        assert len(evaluations) >= 100, len(evaluations)
        assert np.median(evaluations) <= 10
        assert max(evaluations) <= 20


class TestJointSequenceExponent:
    def test_all_uniform(self):
        alph = alphabet(3)
        t1 = EmpiricalType(alph, (2, 2, 2))
        t2 = EmpiricalType(alph, (1, 1, 1))
        w = make_distribution([1 / 3] * 3, alph)
        want = (6 / 3 + 1) * math.log(3)
        assert math.isclose(joint_sequence_exponent(t1, t2, w), want, abs_tol=1e-12)

    def test_mixture_attains_gjs_decomposition(self, rng):
        alph = alphabet(2)
        t1 = EmpiricalType(alph, (5, 3))
        t2 = EmpiricalType(alph, (1, 4))
        alpha = t1.total / t2.total
        p1 = t1.as_distribution()
        p2 = t2.as_distribution()
        mix = [
            (alpha * a + b) / (1 + alpha)
            for a, b in zip(p1.weights, p2.weights)
        ]
        w = make_distribution(mix, alph)
        want = gjs(p1, p2, alpha) + alpha * entropy(p1) + entropy(p2)
        assert math.isclose(joint_sequence_exponent(t1, t2, w), want, abs_tol=1e-12)

    def test_grid_minimum_at_mixture(self):
        alph = alphabet(2)
        t1 = EmpiricalType(alph, (6, 2))
        t2 = EmpiricalType(alph, (2, 3))
        alpha = t1.total / t2.total
        p1 = t1.as_distribution()
        p2 = t2.as_distribution()
        best = math.inf
        for t in np.linspace(1e-9, 1 - 1e-9, 40001):
            w = make_distribution([float(t), float(1 - t)], alph)
            best = min(best, joint_sequence_exponent(t1, t2, w))
        want = gjs(p1, p2, alpha) + alpha * entropy(p1) + entropy(p2)
        assert best >= want - 1e-12
        assert best - want <= 1e-6


class TestShapeProperties:
    def test_concavity_in_alpha(self, rng):
        # second central differences stay at or below numerical noise
        for _ in range(100):
            p, q = random_interior_pair(rng, int(rng.integers(2, 6)))
            grid = np.linspace(0.01, 20.0, 25)
            h = float(grid[1] - grid[0])
            vals = [gjs(p, q, float(a)) for a in grid]
            for a, b, c in zip(vals, vals[1:], vals[2:]):
                assert a - 2 * b + c <= 1e-8

    def test_joint_convexity(self, rng):
        for _ in range(1000):
            size = int(rng.integers(2, 5))
            p1, q1 = random_interior_pair(rng, size)
            p2, q2 = random_interior_pair(rng, size)
            theta = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.01, 10.0))
            pm = make_distribution(
                [theta * a + (1 - theta) * b for a, b in zip(p1.weights, p2.weights)],
                p1.alphabet,
            )
            qm = make_distribution(
                [theta * a + (1 - theta) * b for a, b in zip(q1.weights, q2.weights)],
                q1.alphabet,
            )
            lhs = gjs(pm, qm, alpha)
            rhs = theta * gjs(p1, q1, alpha) + (1 - theta) * gjs(p2, q2, alpha)
            assert lhs <= rhs + 1e-12


class TestDeviationBound:
    def test_same_source_exact_enumeration(self):
        # exact tail probability over all binary type pairs, N,n <= 8
        from math import comb

        alph = alphabet(2)
        for source in (0.5, 0.3, 0.1, 0.7):
            for big_n in range(1, 9):
                for n in range(1, 9):
                    for gamma in (0.1, 0.5, 1.0):
                        tail = 0.0
                        for k in range(big_n + 1):
                            p_k = comb(big_n, k) * source**k * (1 - source) ** (big_n - k)
                            t1 = EmpiricalType(alph, (k, big_n - k)).as_distribution()
                            for j in range(n + 1):
                                p_j = comb(n, j) * source**j * (1 - source) ** (n - j)
                                t2 = EmpiricalType(alph, (j, n - j)).as_distribution()
                                if n * gjs(t1, t2, big_n / n) >= gamma * big_n:
                                    tail += p_k * p_j
                        bound = math.exp(-gamma * big_n) * (n + big_n + 1) ** 2
                        assert tail <= bound + 1e-15
