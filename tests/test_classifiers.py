"""Fixed-length and sequential decision rules."""

import math

import numpy as np
import pytest

from seqstat import (
    Alphabet,
    GutmanConfig,
    SequentialConfig,
    Verdict,
    empirical_type,
    gjs,
    gutman_binary,
    gutman_multiclass,
    make_distribution,
    score,
    seq_binary_start,
    seq_binary_step,
    seq_multiclass_run,
)
from seqstat import classifiers
from seqstat.errors import (
    AlphabetMismatch,
    Infeasible,
    LengthMismatch,
    NegativeAlpha,
    SizeMismatch,
    SteppedAfterStop,
    StreamExhausted,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def type_of(counts, alphabet):
    seq = [s for s, c in zip(alphabet.symbols, counts) for _ in range(c)]
    return empirical_type(seq, alphabet)


class TestVerdict:
    def test_class_labels(self):
        v = Verdict.of_class(0)
        assert v.is_class and not v.is_reject and not v.is_no_decision
        assert v.label() == "class_1"
        assert Verdict.of_class(2).label() == "class_3"

    def test_reject(self):
        v = Verdict.rejected()
        assert v.is_reject and v.label() == "reject"

    def test_no_decision(self):
        v = Verdict.undecided()
        assert v.is_no_decision and v.label() == "no_decision"


class TestScore:
    def test_matches_divergence_oracle(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 5))
            alphabet = Alphabet(tuple(range(k)))
            big_n = int(rng.integers(k, 40))
            n = int(rng.integers(1, 30))
            train = rng.integers(0, k, big_n).tolist()
            test = rng.integers(0, k, n).tolist()
            t1 = empirical_type(train, alphabet)
            ty = empirical_type(test, alphabet)
            want = n * gjs(t1.as_distribution(), ty.as_distribution(), big_n / n)
            assert math.isclose(score(t1, ty), want, rel_tol=0, abs_tol=1e-12)

    def test_proportional_types_score_zero(self):
        for train, test, alphabet in (
            ([2, 2], [1, 1], AB),
            ([40, 280, 80], [1, 7, 2], ABC),
        ):
            t1 = type_of(train, alphabet)
            ty = type_of(test, alphabet)
            assert score(t1, ty) == 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            score(type_of([1, 1], AB), type_of([1, 1, 1], ABC))

    def test_bound_exhaustive_binary(self):
        # score never exceeds 2 ln2 sqrt(nN), checked over every binary
        # type pair with lengths up to 8
        for big_n in range(1, 9):
            for n in range(1, 9):
                cap = 2.0 * math.log(2.0) * math.sqrt(n * big_n)
                for c1 in range(big_n + 1):
                    t1 = type_of([c1, big_n - c1], AB)
                    for c2 in range(n + 1):
                        ty = type_of([c2, n - c2], AB)
                        assert score(t1, ty) <= cap + 1e-12

    def test_bound_random_types(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            alphabet = Alphabet(tuple(range(k)))
            big_n = int(rng.integers(k, 60))
            n = int(rng.integers(1, 60))
            t1 = empirical_type(rng.integers(0, k, big_n).tolist(), alphabet)
            ty = empirical_type(rng.integers(0, k, n).tolist(), alphabet)
            assert score(t1, ty) <= 2.0 * math.log(2.0) * math.sqrt(n * big_n) + 1e-12


class TestGutmanBinary:
    def test_matching_type_accepts_first(self):
        t1 = type_of([6, 2], AB)
        ty = type_of([3, 1], AB)
        cfg = GutmanConfig(alpha=2.0, lam=0.0)
        assert gutman_binary(t1, ty, cfg) == Verdict.of_class(0)

    def test_huge_threshold_accepts_first(self, rng):
        cfg = GutmanConfig(alpha=1.0, lam=50.0)
        for _ in range(10):
            t1 = empirical_type(["ab"[i] for i in rng.integers(0, 2, 12)], AB)
            ty = empirical_type(["ab"[i] for i in rng.integers(0, 2, 6)], AB)
            assert gutman_binary(t1, ty, cfg) == Verdict.of_class(0)

    def test_direct_evaluation(self):
        t1 = type_of([8, 2], AB)
        ty = type_of([2, 8], AB)
        value = gjs(t1.as_distribution(), ty.as_distribution(), 1.0)
        assert value > 0.1
        assert gutman_binary(t1, ty, GutmanConfig(1.0, 0.1)) == Verdict.of_class(1)
        assert gutman_binary(t1, ty, GutmanConfig(1.0, value)) == Verdict.of_class(0)

    def test_boundary_equality_is_acceptance(self):
        # with alpha a power of two the scaled threshold reproduces the raw
        # one exactly, so the boundary case lands on <=
        t1 = type_of([8, 2], AB)
        ty = type_of([2, 8], AB)
        value = gjs(t1.as_distribution(), ty.as_distribution(), 2.0)
        raw = GutmanConfig(2.0, value, "raw")
        scaled = GutmanConfig(2.0, value / 2.0, "scaled")
        assert raw.raw_threshold == scaled.raw_threshold
        assert gutman_binary(t1, ty, raw) == Verdict.of_class(0)
        assert gutman_binary(t1, ty, scaled) == Verdict.of_class(0)

    def test_scaled_mode_consistency(self, rng):
        for _ in range(30):
            t1 = empirical_type(["abc"[i] for i in rng.integers(0, 3, 16)], ABC)
            ty = empirical_type(["abc"[i] for i in rng.integers(0, 3, 8)], ABC)
            lam = float(rng.uniform(0.0, 0.5))
            raw = gutman_binary(t1, ty, GutmanConfig(4.0, lam * 4.0, "raw"))
            scaled = gutman_binary(t1, ty, GutmanConfig(4.0, lam, "scaled"))
            assert raw == scaled

    def test_config_validation(self):
        with pytest.raises(NegativeAlpha):
            GutmanConfig(alpha=-1.0, lam=0.1)
        with pytest.raises(Infeasible):
            GutmanConfig(alpha=1.0, lam=-0.1)
        with pytest.raises(Infeasible):
            GutmanConfig(alpha=1.0, lam=0.1, threshold_mode="mystery")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            gutman_binary(type_of([1, 1], AB), type_of([1, 1, 0], ABC), GutmanConfig(1.0, 0.1))


class TestGutmanMulticlass:
    def test_unique_match_wins(self):
        types = [type_of([8, 1, 1], ABC), type_of([1, 8, 1], ABC), type_of([1, 1, 8], ABC)]
        ty = type_of([4, 1, 0], ABC)
        verdict = gutman_multiclass(types, ty, GutmanConfig(2.0, 0.2))
        assert verdict == Verdict.of_class(0)

    def test_zero_threshold_exact_match(self):
        types = [type_of([8, 1, 1], ABC), type_of([1, 8, 1], ABC)]
        ty = type_of([8, 1, 1], ABC)
        assert gutman_multiclass(types, ty, GutmanConfig(1.0, 0.0)) == Verdict.of_class(0)

    def test_no_match_rejects(self):
        types = [type_of([10, 0, 0], ABC), type_of([0, 10, 0], ABC)]
        ty = type_of([0, 0, 5], ABC)
        assert gutman_multiclass(types, ty, GutmanConfig(2.0, 0.05)) == Verdict.rejected()

    def test_two_matches_reject(self):
        types = [type_of([5, 5, 0], ABC), type_of([5, 4, 1], ABC)]
        ty = type_of([5, 5, 0], ABC)
        assert gutman_multiclass(types, ty, GutmanConfig(1.0, 10.0)) == Verdict.rejected()

    def test_direct_oracle(self, rng):
        for _ in range(25):
            types = [
                empirical_type(["abc"[i] for i in rng.integers(0, 3, 30)], ABC)
                for _ in range(3)
            ]
            ty = empirical_type(["abc"[i] for i in rng.integers(0, 3, 10)], ABC)
            lam = float(rng.uniform(0.01, 0.4))
            cfg = GutmanConfig(3.0, lam)
            values = [
                gjs(t.as_distribution(), ty.as_distribution(), 3.0) for t in types
            ]
            below = [i for i, v in enumerate(values) if v <= lam]
            want = Verdict.of_class(below[0]) if len(below) == 1 else Verdict.rejected()
            assert gutman_multiclass(types, ty, cfg) == want

    def test_needs_two_classes(self):
        with pytest.raises(SizeMismatch):
            gutman_multiclass([type_of([1, 1], AB)], type_of([1, 1], AB), GutmanConfig(1.0, 0.1))


class TestSeqBinary:
    def test_start_state(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4)
        state = seq_binary_start("aabb", "abab", cfg, AB)
        assert state.n == 0
        assert state.scores == (0.0, 0.0)
        assert state.crossed == (None, None)
        assert state.verdict is None
        assert cfg.cap == 16

    def test_training_length_checked(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4)
        with pytest.raises(LengthMismatch):
            seq_binary_start("aab", "abab", cfg, AB)
        with pytest.raises(LengthMismatch):
            seq_binary_start("aabb", "ababa", cfg, AB)

    def test_stepwise_scores_match_oracle(self):
        cfg = SequentialConfig(gamma=5.0, train_len=4, cap=20)
        state = seq_binary_start("aaaa", "bbbb", cfg, AB)
        t1 = empirical_type("aaaa", AB)
        t2 = empirical_type("bbbb", AB)
        seen = []
        for sym in "babab":
            state, verdict = seq_binary_step(state, sym)
            seen.append(sym)
            ty = empirical_type(seen, AB)
            n = len(seen)
            want1 = n * gjs(t1.as_distribution(), ty.as_distribution(), 4 / n)
            want2 = n * gjs(t2.as_distribution(), ty.as_distribution(), 4 / n)
            assert math.isclose(state.scores[0], want1, abs_tol=1e-12)
            assert math.isclose(state.scores[1], want2, abs_tol=1e-12)
            assert verdict is None

    def test_crossing_declares_other_class(self):
        # training types are pure, the stream matches class 2 exactly, so
        # the class-1 score climbs while the class-2 score stays at zero
        cfg = SequentialConfig(gamma=0.1, train_len=4, cap=100)
        state = seq_binary_start("aaaa", "bbbb", cfg, AB)
        verdict = None
        while verdict is None:
            state, verdict = seq_binary_step(state, "b")
        assert verdict == Verdict.of_class(1)
        assert state.crossed[0] == state.n
        assert state.crossed[1] is None
        assert state.scores[0] >= cfg.threshold

    def test_boundary_equality_counts_as_crossing(self):
        # gamma engineered so the threshold equals the step-2 score exactly
        # (train_len a power of two keeps the arithmetic lossless)
        probe = seq_binary_start("aaaa", "bbbb", SequentialConfig(50.0, 4), AB)
        probe, _ = seq_binary_step(probe, "b")
        probe, _ = seq_binary_step(probe, "b")
        target = probe.scores[0]
        gamma = target / 4
        assert gamma * 4 == target
        cfg = SequentialConfig(gamma=gamma, train_len=4, cap=100)
        state = seq_binary_start("aaaa", "bbbb", cfg, AB)
        state, v1 = seq_binary_step(state, "b")
        assert v1 is None
        state, v2 = seq_binary_step(state, "b")
        assert v2 == Verdict.of_class(1)
        assert state.crossed[0] == 2

    def test_simultaneous_crossing_smaller_score_wins(self):
        # an unseen symbol makes both scores jump past the threshold on the
        # same step; the strictly smaller score keeps its class
        cfg = SequentialConfig(gamma=0.1769122997321274, train_len=4, cap=100)
        state = seq_binary_start("aaaa", "aaab", cfg, ABC)
        stream = iter("aacc")
        verdict = None
        while verdict is None:
            state, verdict = seq_binary_step(state, next(stream))
        assert state.n == 3
        assert state.crossed == (3, 3)
        assert state.scores[0] < state.scores[1]
        assert verdict == Verdict.of_class(0)

    def test_exact_tie_gives_no_decision(self):
        # identical training sequences keep the two scores equal forever
        cfg = SequentialConfig(gamma=0.05, train_len=4, cap=100)
        state = seq_binary_start("abab", "abab", cfg, AB)
        verdict = None
        while verdict is None:
            state, verdict = seq_binary_step(state, "a")
        assert state.scores[0] == state.scores[1]
        assert verdict == Verdict.undecided()

    def test_simultaneous_tie_broken_exactly(self):
        # On step 1 a score depends only on N and the training count of the
        # symbol seen, so equal counts of "a" tie exactly; rounding leaves
        # the two floats apart, and the verdict must not follow it.
        cfg = SequentialConfig(gamma=0.05, train_len=50)
        train = ("aaa" + "b" * 35 + "c" * 12, "aaa" + "b" * 27 + "c" * 20)
        state = seq_binary_start(*train, cfg, ABC)
        state, verdict = seq_binary_step(state, "a")
        assert state.crossed == (1, 1)
        assert state.scores[0] != state.scores[1]
        assert verdict == Verdict.undecided()

        def only_a(rows, start, stop):
            return np.zeros((len(rows), stop - start), dtype=np.int64)

        counts = np.array([[[3, 35, 12], [3, 27, 20]]])
        outcome = classifiers._lockstep(counts, cfg, "smaller", only_a, record=False)
        times, codes, firsts, _ = outcome
        assert (times.tolist(), firsts.tolist()) == ([1], [[1, 1]])
        assert codes.tolist() == [-1]

    def test_cap_yields_no_decision(self):
        # threshold far above the score bound, tiny cap
        cfg = SequentialConfig(gamma=50.0, train_len=3, cap=9)
        state = seq_binary_start("aab", "abb", cfg, AB)
        verdict = None
        steps = 0
        while verdict is None:
            state, verdict = seq_binary_step(state, "ab"[steps % 2])
            steps += 1
        assert steps == 9
        assert verdict == Verdict.undecided()
        assert state.crossed == (None, None)

    def test_step_after_stop_raises(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4, cap=100)
        state = seq_binary_start("aaaa", "bbbb", cfg, AB)
        verdict = None
        while verdict is None:
            state, verdict = seq_binary_step(state, "b")
        with pytest.raises(SteppedAfterStop):
            seq_binary_step(state, "b")

    def test_unknown_symbol_rejected(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4)
        state = seq_binary_start("aabb", "abab", cfg, AB)
        with pytest.raises(Exception):
            seq_binary_step(state, "z")


class TestSeqMulticlass:
    def test_matches_binary_on_two_classes(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4, cap=100)
        stream = "bbbbbbbb"
        trace = seq_multiclass_run(["aaaa", "bbbb"], stream, cfg, AB)
        state = seq_binary_start("aaaa", "bbbb", cfg, AB)
        verdict = None
        for sym in stream:
            state, verdict = seq_binary_step(state, sym)
            if verdict is not None:
                break
        assert trace.verdict == verdict
        assert trace.stopping_time == state.n
        assert trace.crossing_times == state.crossed
        np.testing.assert_allclose(trace.scores[-1], state.scores, atol=0)

    def test_survivor_declared(self):
        cfg = SequentialConfig(gamma=0.2, train_len=6, cap=200)
        trains = ["aaaaaa", "bbbbbb", "cccccc"]
        trace = seq_multiclass_run(trains, "c" * 60, cfg, ABC)
        assert trace.verdict == Verdict.of_class(2)
        assert trace.crossing_times[2] is None
        assert trace.crossing_times[0] is not None
        assert trace.crossing_times[1] is not None
        assert trace.stopping_time == max(
            t for t in trace.crossing_times if t is not None
        )

    def test_trace_rows_cover_every_step(self):
        cfg = SequentialConfig(gamma=0.2, train_len=6, cap=200)
        trains = ["aaaaaa", "bbbbbb", "cccccc"]
        trace = seq_multiclass_run(trains, "c" * 60, cfg, ABC)
        assert trace.scores.shape == (trace.stopping_time, 3)
        threshold = cfg.threshold
        for i, t in enumerate(trace.crossing_times):
            if t is None:
                assert (trace.scores[:, i] < threshold).all()
            else:
                assert trace.scores[t - 1, i] >= threshold
                assert (trace.scores[: t - 1, i] < threshold).all()

    def test_identical_trainings_give_no_decision(self):
        cfg = SequentialConfig(gamma=0.05, train_len=4, cap=100)
        trace = seq_multiclass_run(["abab", "abab", "abab"], "a" * 50, cfg, AB)
        assert trace.verdict == Verdict.undecided()
        assert all(t == trace.stopping_time for t in trace.crossing_times)

    def test_simultaneous_final_pair_gives_no_decision(self):
        # the binary smaller-score tiebreak does not apply here: when the
        # last two classes fall together the run gives up
        cfg = SequentialConfig(gamma=0.1769122997321274, train_len=4, cap=100)
        trace = seq_multiclass_run(["aaaa", "aaab"], "aacc", cfg, ABC)
        assert trace.verdict == Verdict.undecided()
        assert trace.crossing_times == (3, 3)

    def test_cap_gives_no_decision(self):
        cfg = SequentialConfig(gamma=60.0, train_len=3, cap=9)
        trace = seq_multiclass_run(["aab", "abb", "bba"], "ab" * 40, cfg, AB)
        assert trace.verdict == Verdict.undecided()
        assert trace.stopping_time == 9

    def test_stream_exhausted_keeps_partial_trace(self):
        cfg = SequentialConfig(gamma=40.0, train_len=4, cap=1000)
        with pytest.raises(StreamExhausted) as err:
            seq_multiclass_run(["aaaa", "bbbb"], "abab", cfg, AB)
        trace = err.value.trace
        assert trace.scores.shape == (4, 2)
        assert trace.verdict == Verdict.undecided()
        assert trace.stopping_time == 4

    def test_deterministic_trace(self):
        cfg = SequentialConfig(gamma=0.15, train_len=6, cap=200)
        trains = ["aabbcc", "abcabc", "ccccba"]
        stream = "abcabcaabbccabc" * 4
        first = seq_multiclass_run(trains, stream, cfg, ABC)
        second = seq_multiclass_run(trains, stream, cfg, ABC)
        assert first.scores.tobytes() == second.scores.tobytes()
        assert first.verdict == second.verdict
        assert first.stopping_time == second.stopping_time

    def test_needs_two_classes(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4)
        with pytest.raises(SizeMismatch):
            seq_multiclass_run(["aaaa"], "abab", cfg, AB)

    def test_training_length_checked(self):
        cfg = SequentialConfig(gamma=0.1, train_len=4)
        with pytest.raises(LengthMismatch):
            seq_multiclass_run(["aaaa", "bbb"], "abab", cfg, AB)


class TestSequentialConfig:
    def test_default_cap(self):
        assert SequentialConfig(gamma=0.1, train_len=7).cap == 49

    def test_cap_below_train_len_rejected(self):
        with pytest.raises(SizeMismatch):
            SequentialConfig(gamma=0.1, train_len=10, cap=5)

    def test_gamma_validated(self):
        from seqstat.errors import NonPositiveGamma

        with pytest.raises(NonPositiveGamma):
            SequentialConfig(gamma=0.0, train_len=5)
        with pytest.raises(NonPositiveGamma):
            SequentialConfig(gamma=-1.0, train_len=5)

    def test_threshold_scale(self):
        cfg = SequentialConfig(gamma=0.25, train_len=8)
        assert cfg.threshold == 2.0
