"""Distribution and sampling primitives."""

import itertools
import math
import pickle

import numpy as np
import pytest

from seqstat import (
    Alphabet,
    Distribution,
    EmpiricalType,
    ExperimentConfig,
    GutmanConfig,
    SeedSpec,
    SequentialConfig,
    constrained_kl_min,
    empirical_type,
    entropy,
    exponent_report,
    gjs,
    gutman_type2_exponent,
    kl,
    lp_closed_form,
    make_distribution,
    sample_iid,
    solve_fixed_point,
)
from seqstat.errors import (
    AlphabetMismatch,
    BadSeed,
    EmptySequence,
    NegativeWeight,
    NotNormalized,
    SizeMismatch,
    UnknownSymbol,
    ValidationError,
)
from conftest import alphabet, random_interior

AB = Alphabet(("a", "b"))


class TestAlphabet:
    def test_size(self):
        assert alphabet(4).size == 4

    def test_duplicate_labels_rejected(self):
        with pytest.raises(Exception):
            Alphabet(("a", "a"))

    def test_index_of(self):
        assert AB.index_of("b") == 1

    def test_index_map_is_not_part_of_the_value(self):
        # the symbol-to-index map lives on each alphabet, outside eq, hash
        # and repr, and survives pickling
        other = Alphabet(("a", "b"))
        assert other == AB and hash(other) == hash(AB)
        assert repr(AB) == "Alphabet(symbols=('a', 'b'))"
        copy = pickle.loads(pickle.dumps(AB))
        assert copy == AB and copy.index_of("b") == 1
        with pytest.raises(UnknownSymbol):
            copy.index_of("c")


class TestMakeDistribution:
    def test_uniform(self):
        d = make_distribution([0.5, 0.5], AB)
        assert d.weights == (0.5, 0.5)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_distribution([0.7, 0.4], AB)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_distribution([1.2, -0.2], AB)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            make_distribution([1.0], AB)

    def test_interior_ternary(self):
        d = make_distribution([0.1, 0.7, 0.2], alphabet(3))
        assert math.isclose(sum(d.weights), 1.0, abs_tol=1e-12)
        assert d.interior

    def test_renormalizes_small_drift(self):
        # inside the 1e-9 input tolerance, stored weights sum to 1 tightly
        d = make_distribution([0.5 + 2e-10, 0.5], AB)
        assert abs(math.fsum(d.weights) - 1.0) <= 1e-12

    def test_interior_false_on_boundary(self):
        assert not make_distribution([1.0, 0.0], AB).interior

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight(self, bad):
        # every comparison with NaN is false, so it would pass the sign and
        # normalization tests
        with pytest.raises(NotNormalized, match="not finite"):
            make_distribution([bad, 0.5, 0.5], alphabet(3))


class TestEmpiricalType:
    def test_counts(self):
        t = empirical_type(list("aab"), AB)
        assert t.counts == (2, 1)
        assert t.total == 3

    def test_degenerate(self):
        t = empirical_type(list("bbbb"), AB)
        assert t.counts == (0, 4)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            empirical_type(["a", "c"], AB)

    def test_empty(self):
        with pytest.raises(EmptySequence):
            empirical_type([], AB)

    def test_total_matches_recount(self, rng):
        # independent recount oracle on a random 400-symbol sequence
        alph = alphabet(3)
        p = random_interior(rng, 3)
        seq = sample_iid(p, 400, SeedSpec(5, 0))
        t = empirical_type(seq, alph)
        manual = [sum(1 for s in seq if s == a) for a in alph.symbols]
        assert list(t.counts) == manual
        assert t.total == 400

    def test_total_exhaustive_binary(self):
        for n in range(1, 11):
            for bits in itertools.product("ab", repeat=n):
                assert empirical_type(list(bits), AB).total == n

    def test_as_distribution(self):
        t = EmpiricalType(AB, (3, 1))
        assert t.as_distribution().weights == (0.75, 0.25)


class TestEntropy:
    def test_point_mass(self):
        assert entropy(make_distribution([1.0, 0.0], AB)) == 0.0

    def test_uniform_three(self):
        assert math.isclose(entropy(make_distribution([1 / 3] * 3, alphabet(3))), math.log(3), abs_tol=1e-12)

    def test_direct_summation(self):
        d = make_distribution([0.3, 0.7], AB)
        want = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert math.isclose(entropy(d), want, abs_tol=1e-15)

    def test_range(self, rng):
        for _ in range(200):
            size = int(rng.integers(2, 7))
            h = entropy(random_interior(rng, size))
            assert -1e-12 <= h <= math.log(size) + 1e-12


class TestKl:
    def test_identity(self, rng):
        p = random_interior(rng, 4)
        assert kl(p, p) == 0.0

    def test_single_surviving_term(self):
        p = make_distribution([1.0, 0.0], AB)
        q = make_distribution([0.5, 0.5], AB)
        assert math.isclose(kl(p, q), math.log(2), abs_tol=1e-15)

    def test_direct_summation(self):
        p = make_distribution([0.5, 0.5], AB)
        q = make_distribution([0.25, 0.75], AB)
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert math.isclose(kl(p, q), want, abs_tol=1e-15)

    def test_support_mismatch_infinite(self):
        p = make_distribution([0.5, 0.5], AB)
        q = make_distribution([1.0, 0.0], AB)
        assert kl(p, q) == math.inf

    def test_alphabet_mismatch(self):
        p = make_distribution([0.5, 0.5], AB)
        q = make_distribution([0.5, 0.5], alphabet(2))
        with pytest.raises(AlphabetMismatch):
            kl(p, q)

    def test_nonnegative_zero_iff_equal(self, rng):
        for _ in range(200):
            size = int(rng.integers(2, 6))
            p = random_interior(rng, size)
            q = random_interior(rng, size)
            v = kl(p, q)
            assert v >= 0.0
            gap = max(abs(a - b) for a, b in zip(p.weights, q.weights))
            if gap <= 1e-12:
                assert v == 0.0
            if v == 0.0:
                assert gap <= 1e-12


class TestSampling:
    def test_deterministic(self):
        p = make_distribution([0.4, 0.6], AB)
        s1 = sample_iid(p, 5, SeedSpec(9, 3))
        s2 = sample_iid(p, 5, SeedSpec(9, 3))
        assert s1 == s2

    def test_point_mass(self):
        p = make_distribution([1.0, 0.0], AB)
        assert sample_iid(p, 10, SeedSpec(0, 0)) == ["a"] * 10

    def test_streams_differ(self):
        p = make_distribution([0.5, 0.5], AB)
        assert sample_iid(p, 64, SeedSpec(9, 3)) != sample_iid(p, 64, SeedSpec(9, 4))

    def test_law_of_large_numbers(self):
        p = make_distribution([0.5, 0.5], AB)
        t = empirical_type(sample_iid(p, 10**5, SeedSpec(1, 0)), AB)
        l1 = abs(t.counts[0] / t.total - 0.5) + abs(t.counts[1] / t.total - 0.5)
        assert l1 <= 0.01

    def test_empirical_convergence_many_seeds(self, rng):
        # interior ternary target, 100 seeds, 99% within 0.02 in L1
        alph = alphabet(3)
        p = random_interior(rng, 3)
        hits = 0
        for seed in range(100):
            t = empirical_type(sample_iid(p, 10**5, SeedSpec(seed, 0)), alph)
            l1 = sum(abs(c / t.total - w) for c, w in zip(t.counts, p.weights))
            hits += l1 <= 0.02
        assert hits >= 99

    def test_chi_square_uniformity(self):
        # marginal frequencies consistent with the target at n=1e5
        p = make_distribution([0.2, 0.5, 0.3], alphabet(3))
        t = empirical_type(sample_iid(p, 10**5, SeedSpec(3, 1)), alphabet(3))
        stat = sum(
            (c - t.total * w) ** 2 / (t.total * w)
            for c, w in zip(t.counts, p.weights)
        )
        # chi-square with 2 dof: 0.999 quantile is 13.8
        assert stat <= 13.8

    def test_bad_seed(self):
        with pytest.raises(BadSeed):
            SeedSpec(-1, 0)
        with pytest.raises(BadSeed):
            SeedSpec(2**64, 0)

    def test_seed_must_be_an_integer(self):
        # a float key would silently replay the stream of its integer part
        with pytest.raises(BadSeed, match="master_seed"):
            SeedSpec(1.5, 0)
        with pytest.raises(BadSeed, match="stream_index"):
            SeedSpec(1, 2.7)
        spec = SeedSpec(np.uint64(3), np.int64(4))
        assert (type(spec.master_seed), type(spec.stream_index)) == (int, int)
        assert spec == SeedSpec(3, 4)


class TestImmutability:
    def test_distribution_frozen(self):
        d = make_distribution([0.5, 0.5], AB)
        with pytest.raises(Exception):
            d.weights = (1.0, 0.0)


P_AB = make_distribution([0.3, 0.7], AB)
Q_AB = make_distribution([0.6, 0.4], AB)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gjs(P_AB, Q_AB, "x"),
        lambda: gjs(P_AB, Q_AB, None),
        lambda: solve_fixed_point(P_AB, Q_AB, "x"),
        lambda: exponent_report(P_AB, Q_AB, None),
        lambda: gutman_type2_exponent(1.0, "x", P_AB, Q_AB),
        lambda: constrained_kl_min(P_AB, Q_AB, "x"),
        lambda: lp_closed_form([0.1, 0.2], "x"),
        lambda: lp_closed_form(["a", 0.2], 0.1),
        lambda: make_distribution(["a", 0.5], AB),
        lambda: GutmanConfig(1.0, "x"),
        lambda: SequentialConfig("x", 10),
        lambda: ExperimentConfig((P_AB, Q_AB), 0.1, 10, 1, 0, priors=("a", "b")),
    ],
    ids=[
        "gjs-alpha-str", "gjs-alpha-none", "fixed-point-gamma", "report-gamma",
        "type2-threshold", "kl-min-radius", "lp-delta", "lp-weight", "weight",
        "gutman-threshold", "sequential-gamma", "priors",
    ],
)
def test_non_numeric_input_is_a_validation_error(call):
    # a bare float() would leak ValueError or TypeError
    with pytest.raises(ValidationError, match="must be a number"):
        call()


def test_numeric_strings_are_numbers():
    assert gjs(P_AB, Q_AB, "0.5") == gjs(P_AB, Q_AB, 0.5)
    assert make_distribution(["0.3", 0.7], AB) == P_AB
    assert GutmanConfig("2", "0.5").raw_threshold == 0.5
    assert SequentialConfig("0.5", 10).threshold == 5.0
    cfg = ExperimentConfig((P_AB, Q_AB), 0.1, 10, 1, 0, priors=("0.25", 0.75))
    assert cfg.effective_priors == (0.25, 0.75)
