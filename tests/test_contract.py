"""The public numeric API's contract on seeded input families.

On near-identical pairs every divergence and exponent below must come out
finite and nonnegative, and no call may raise: each input has a defined
answer.  On zero weights, point masses and disjoint supports the Bayes
crossing and curve, the type-II program (by value and with its argmin), the
Chernoff information and the constrained relative-entropy minimum must
return their defined value or raise a :class:`SeqstatError`.  On all four
families the reports at rates up to the Chernoff cap must return finite,
nonnegative roots and exponents or raise a :class:`SeqstatError`.  The calls run under ``np.errstate(all="raise")``, so
a numpy warning fails them too.
"""

import math

import numpy as np

from seqstat import (
    chernoff,
    compare_sequential_vs_gutman,
    constrained_kl_min,
    exponent_report,
    gjs,
    gjs_alpha_derivative,
    gutman_bayes_curve,
    gutman_bayes_exponent,
    gutman_type2_exponent,
    kl,
    make_distribution,
    minimize_over_simplices,
    multiclass_thetas,
)
from seqstat.errors import SeqstatError
from conftest import alphabet, random_interior

ALPHAS = (1.0, 50.0, 5000.0)
# q so close to p that gjs / alpha is about 1e-20: the crossing's excess
# never clears its rounding, and a doubled multiplier reached about 1e17,
# where the KKT solve's 2x2 determinant cancelled to 0 (ZeroDivisionError)
REPRO_PAIR = (
    (0.0886171476914497, 0.8643319882300091, 0.04705086407854129),
    (0.08861714746561408, 0.8643319883558921, 0.047050864178493815),
)


def near_identical_family(seed, count):
    """Seeded interior pairs ``(p, q)`` with ``q = p (1 + eps d)`` renormalised,
    |X| = 2..6, ``d`` standard normal and ``eps`` log-uniform in [1e-12,
    1e-2], then :data:`REPRO_PAIR`."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        size = int(rng.integers(2, 7))
        p = random_interior(rng, size)
        eps = math.exp(rng.uniform(math.log(1e-12), math.log(1e-2)))
        weights = np.asarray(p.weights) * (1.0 + eps * rng.standard_normal(size))
        pairs.append((p, make_distribution(list(weights / weights.sum()), p.alphabet)))
    alph = alphabet(3)
    pairs.append(tuple(make_distribution(list(w), alph) for w in REPRO_PAIR))
    return pairs


class TestNearIdenticalPairs:
    @staticmethod
    def calls(p, q):
        """``(name, thunk)`` for every divergence and exponent of the pair."""
        yield "kl(p, q)", lambda: kl(p, q)
        yield "kl(q, p)", lambda: kl(q, p)
        for alpha in ALPHAS:
            full = gjs(p, q, alpha)
            yield f"gjs_alpha_derivative@{alpha}", lambda a=alpha: gjs_alpha_derivative(p, q, a)
            yield f"gutman_type2_exponent@{alpha}", (
                lambda a=alpha, lam=0.99 * full: gutman_type2_exponent(a, lam, p, q)
            )
            yield f"gutman_bayes_curve@{alpha}", (
                lambda a=alpha, lam=0.99 * full / alpha: gutman_bayes_curve(a, lam, p, q)
            )
            yield f"gutman_bayes_exponent@{alpha}", lambda a=alpha: gutman_bayes_exponent(a, p, q)

    def test_divergences_and_exponents_are_finite_and_nonnegative(self):
        broken = []
        with np.errstate(all="raise"):
            for i, (p, q) in enumerate(near_identical_family(20191203, 300)):
                for name, call in self.calls(p, q):
                    try:
                        value = call()
                    except Exception as error:  # any exception breaks the contract
                        broken.append((i, name, repr(error)))
                        continue
                    if not (math.isfinite(value) and value >= 0.0):
                        broken.append((i, name, value))
        assert broken == []


CROSSING_ALPHAS = (0.05, 1.0, 50.0, 5000.0)
SHARES = (0.05, 0.3, 0.9, 0.99)
# radii of constrained_kl_min, as shares of the pair's Chernoff information
RADIUS_SHARES = (0.05, 0.3, 0.9, 0.99, 1.0)


def boundary_family(seed, count):
    """Seeded ``(kind, p, q)`` on |X| = 2..6, ``count`` of each kind:
    ``"zero"`` pairs with one to |X| - 1 zero weights spread over the two
    sides and a common symbol kept, ``"point"`` pairs whose first or second
    side is a point mass, and ``"disjoint"`` pairs whose supports split the
    alphabet."""
    rng = np.random.default_rng(seed)
    pairs = []
    for kind in ("zero", "point", "disjoint"):
        for _ in range(count):
            size = int(rng.integers(2, 7))
            p, q = rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))
            order = rng.permutation(size)
            if kind == "zero":
                zeros = order[1:1 + int(rng.integers(1, size))]
                for i in zeros:
                    (p, q)[int(rng.integers(2))][i] = 0.0
            elif kind == "point":
                mass = np.zeros(size)
                mass[order[0]] = 1.0
                p, q = (mass, q) if rng.integers(2) else (p, mass)
            else:
                cut = int(rng.integers(1, size))
                p[order[cut:]] = 0.0
                q[order[:cut]] = 0.0
            alph = alphabet(size)
            pairs.append((kind, *(make_distribution(list(w / w.sum()), alph) for w in (p, q))))
    return pairs


class TestBoundaryPairs:
    """The crossing, the curve, the type-II program, the Chernoff information
    and the constrained relative-entropy minimum on zero weights, point
    masses and disjoint supports: each call returns a finite value >= 0 or
    its defined ``inf``, or raises a package error."""

    @staticmethod
    def calls(kind, p, q):
        """``(name, thunk, infinite)`` for each call on the pair, with
        ``infinite`` where ``inf`` is the call's defined value."""
        # below gjs, no pair of finite objective meets the budget on disjoint
        # supports (minimize_over_simplices raises Infeasible there)
        disjoint = kind == "disjoint"
        for alpha in CROSSING_ALPHAS:
            yield f"gutman_bayes_exponent@{alpha}", lambda a=alpha: gutman_bayes_exponent(a, p, q), False
            full = gjs(p, q, alpha)
            for share in SHARES:
                yield f"gutman_bayes_curve@{alpha},{share}", (
                    lambda a=alpha, lam=share * (full / alpha): gutman_bayes_curve(a, lam, p, q)
                ), disjoint
                yield f"gutman_type2_exponent@{alpha},{share}", (
                    lambda a=alpha, lam=share * full: gutman_type2_exponent(a, lam, p, q)
                ), disjoint
                yield f"minimize_over_simplices@{alpha},{share}", (
                    lambda a=alpha, lam=share * full: minimize_over_simplices(a, lam, p, q)[0]
                ), False
        for order, (center, obj) in (("p,q", (p, q)), ("q,p", (q, p))):
            yield f"chernoff({order})", lambda c=center, o=obj: chernoff(c, o), disjoint
            cap = chernoff(center, obj)
            # a distribution of finite objective lives on obj's support, where
            # the nearest one to center is center renormalised there, at
            # relative entropy -log(center's mass there) from it.  The value
            # jumps from inf to finite where the radius reaches that entropy,
            # which can be the cap itself (the Chernoff optimum at eta = 1);
            # there rounding decides, so either value is defined
            kept = math.fsum(c for c, o in zip(center.weights, obj.weights) if o > 0.0)
            nearest = -math.log(kept) if kept else math.inf
            for share in RADIUS_SHARES:
                yield f"constrained_kl_min({order})@{share}", (
                    lambda c=center, o=obj, r=share * cap: constrained_kl_min(c, o, r)
                ), share * cap <= nearest * (1.0 + 1e-12)

    def test_values_are_defined_or_errors_are_the_package_own(self):
        broken = []
        with np.errstate(all="raise"):
            for i, (kind, p, q) in enumerate(boundary_family(20191203, 40)):
                for name, call, infinite in self.calls(kind, p, q):
                    try:
                        value = call()
                    except SeqstatError:
                        continue
                    except Exception as error:  # a bare exception breaks the contract
                        broken.append((i, kind, name, repr(error)))
                        continue
                    if not (math.isfinite(value) or infinite and value == math.inf) or value < 0.0:
                        broken.append((i, kind, name, value))
        assert broken == []

    def test_radius_at_the_cap_reaches_the_objective_support(self):
        # at radius = chernoff(center, obj) the ball holds a distribution of
        # finite objective.  Where the Chernoff optimum sits at the center's
        # end of the path (pair 33: the cap is -log of p's mass on q's
        # support) that end is the one, so its radius must be summed as
        # chernoff sums it.  Pair 33 returned inf at its cap and
        # 0.5153653299796975 one ulp above
        family = boundary_family(20191203, 40)
        infinite = []
        for i, (kind, p, q) in enumerate(family):
            for center, obj in ((p, q), (q, p)):
                cap = chernoff(center, obj)
                if math.isfinite(cap) and constrained_kl_min(center, obj, cap) == math.inf:
                    infinite.append((i, kind, cap))
        assert infinite == []
        _, p, q = family[33]
        cap = chernoff(p, q)
        assert cap == 0.5549931135695446
        value = constrained_kl_min(p, q, cap)
        assert value == constrained_kl_min(p, q, math.nextafter(cap, math.inf)) == 0.5153653299796975


RATE_SHARES = (1e-3, 0.5, 1.0 - 1e-9, 1.0)


class TestReports:
    """``exponent_report``, ``multiclass_thetas`` and
    ``compare_sequential_vs_gutman`` at shares of the Chernoff cap, on the
    boundary families and on near-identical pairs: each call returns finite
    values >= 0 (the comparison's margin, a difference, only finite) or
    raises a package error.  The comparison also runs the whole grid of
    rates, which carries the gate's limits from one rate to the next."""

    @staticmethod
    def calls(p, q):
        cap = chernoff(p, q)
        grid = [share * cap for share in RATE_SHARES]
        for share, gamma in zip(RATE_SHARES, grid):
            yield f"exponent_report@{share}", lambda g=gamma: exponent_report(p, q, g)
            yield f"multiclass_thetas@{share}", lambda g=gamma: multiclass_thetas([p, q], g)
            yield f"compare@{share}", lambda g=gamma: compare_sequential_vs_gutman(p, q, [g])
        yield "compare@grid", lambda: compare_sequential_vs_gutman(p, q, grid)

    @staticmethod
    def values(value):
        """The finite nonnegative numbers a result must hold, and the others."""
        if isinstance(value, np.ndarray):
            return [x for x in value.flat if not math.isnan(x)], []  # NaN diagonal
        if isinstance(value, list):
            rows = [TestReports.values(row) for row in value]
            return [x for good, _ in rows for x in good], [x for _, rest in rows for x in rest]
        fields = {k: v for k, v in vars(value).items() if k != "near_cap"}
        margin = fields.pop("margin", 0.0)
        return list(fields.values()), [margin]

    def test_values_are_defined_or_errors_are_the_package_own(self):
        families = [(kind, p, q) for kind, p, q in boundary_family(20191203, 25)]
        families += [("near", p, q) for p, q in near_identical_family(20191203, 60)]
        broken = []
        with np.errstate(all="raise"):
            for i, (kind, p, q) in enumerate(families):
                for name, call in self.calls(p, q):
                    try:
                        value = call()
                    except SeqstatError:
                        continue
                    except Exception as error:  # a bare exception breaks the contract
                        broken.append((i, kind, name, repr(error)))
                        continue
                    nonnegative, finite = self.values(value)
                    if not all(math.isfinite(x) and x >= 0.0 for x in nonnegative) or not all(
                        math.isfinite(x) for x in finite
                    ):
                        broken.append((i, kind, name, value))
        assert broken == []
