"""The count kernel against the per-trial paths it replaced (``oracle.py``).

The sequential oracle scores with one ``math.log`` per symbol and class and
draws from freshly constructed generators; the fixed-length oracle draws
through ``sample_indices`` and decides through ``gutman_binary`` /
``gutman_multiclass``, which score with ``gjs``.  The kernel scores from a
table of ``j ln j`` and draws from one re-keyed generator.  Outcomes must
agree trial for trial: a disagreement can only come from a score landing
within rounding distance of the threshold, and none of the runs below has
one.
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from seqstat import (
    Alphabet,
    EmpiricalType,
    ExperimentConfig,
    SeedSpec,
    SequentialConfig,
    bayes_multiclass_gutman,
    gutman_bayes_exponent,
    make_distribution,
    run_trial,
    sample_iid,
    sample_indices,
    score,
    seq_binary_start,
    seq_binary_step,
    seq_multiclass_run,
    solve_fixed_point,
)
from seqstat import classifiers
from seqstat.classifiers import BLOCK_ENTRIES, FIRST_WIDTH, GROWTH
from seqstat.errors import BadSeed, StreamExhausted, UnknownSymbol
from seqstat.probability import _counts_from_uniforms, _indices_from_uniforms, stream_indices
from seqstat.simulator import (
    BLOCK_TRIALS,
    _collect_summaries,
    _traces,
    _training_counts,
    _trials,
)

import oracle

ALPH2 = Alphabet((0, 1))
ALPH3 = Alphabet((0, 1, 2))

# the configurations of acceptance tests 09, 10 and 11
ACCEPTANCE = {
    "09": (ALPH3, ([0.1, 0.7, 0.2], [0.05, 0.55, 0.4]), 0.02, (400,)),
    "10": (ALPH3, ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4]), 0.03, (300,)),
    "11": (ALPH2, ([0.8, 0.2], [0.3, 0.7]), 0.05, (25, 50, 100)),
}
SEEDS = range(20)
TRIALS = 6


def experiment(alphabet, weights, gamma, train_len, seed, true_class, **extra):
    return ExperimentConfig(
        distributions=tuple(make_distribution(w, alphabet) for w in weights),
        gamma=gamma,
        train_len=train_len,
        trials=TRIALS,
        master_seed=seed,
        true_class=true_class,
        **extra,
    )


def outcome(trace):
    return trace.stopping_time, trace.verdict, trace.crossing_times


def coded(trace):
    """A trace's outcome in the kernel's terms: (T, class index or -1, first crossings or 0)."""
    verdict = trace.verdict
    code = verdict.index if verdict.is_class else -1
    return trace.stopping_time, code, tuple(t or 0 for t in trace.crossing_times)


def kernel_outcomes(cfg, trials):
    """``(T, code, first crossings)`` of each trial from the unrecorded batch."""
    times, codes, firsts, rows = _trials(cfg, [cfg.true_class], range(trials), record=False)[0]
    assert rows is None
    return list(zip(times.tolist(), codes.tolist(), map(tuple, firsts.tolist())))


def mismatches(cfg, trials):
    return [
        (cfg.master_seed, cfg.true_class, t, k, coded(o))
        for t, k in enumerate(kernel_outcomes(cfg, trials))
        if k != coded(o := oracle.run_trial(cfg, t))
    ]


@pytest.mark.parametrize("tag", sorted(ACCEPTANCE))
def test_acceptance_configs_match_oracle(tag):
    alphabet, weights, gamma, lengths = ACCEPTANCE[tag]
    found = []
    for train_len in lengths:
        for seed in SEEDS:
            for h in range(len(weights)):
                cfg = experiment(alphabet, weights, gamma, train_len, seed, h)
                found.extend(mismatches(cfg, TRIALS))
    assert found == []


def test_runs_across_several_blocks_match_oracle():
    # a long training sequence makes the test run for hundreds of symbols
    cfg = experiment(ALPH3, ACCEPTANCE["09"][1], 0.02, 2000, 3, 0)
    times = sorted(t for t, _, _ in kernel_outcomes(cfg, 12))
    # half the trials stop past the third block boundary
    assert times[6] > FIRST_WIDTH * (1 + GROWTH + GROWTH**2)
    assert mismatches(cfg, 12) == []


def test_step_one_ties_match_oracle():
    # N = 50, gamma = 0.05 on the acceptance-09 pair: both classes often
    # cross on step 1 with mathematically equal scores, which the binary
    # rule must leave undecided however the floats round
    weights = ACCEPTANCE["09"][1]
    ties = 0
    for h in range(2):
        cfg = experiment(ALPH3, weights, 0.05, 50, 7, h)
        assert mismatches(cfg, 1000) == []
        for trace in _traces((cfg, [h], 0, 1000))[0]:
            # unequal training counts of the first symbol put the two
            # step-1 scores at least 0.1 apart
            s0, s1 = trace.scores[0]
            if trace.crossing_times == (1, 1) and abs(s0 - s1) < 1e-9:
                ties += 1
                assert trace.verdict.is_no_decision
    assert ties >= 5  # seven at seed 7


@pytest.mark.parametrize("tag", [*sorted(ACCEPTANCE), "tie"])
def test_record_modes_give_identical_arrays(tag):
    # recording keeps the score rows and nothing else may differ; "tie" is
    # the step-1 exact-tie config of test_step_one_ties_match_oracle
    if tag == "tie":
        alphabet, weights, gamma = ALPH3, ACCEPTANCE["09"][1], 0.05
        lengths, trials = (50,), 1000
    else:
        alphabet, weights, gamma, lengths = ACCEPTANCE[tag]
        trials = 200
    for train_len in lengths:
        for h in range(len(weights)):
            cfg = experiment(alphabet, weights, gamma, train_len, 7, h)
            [plain] = _trials(cfg, [h], range(trials), record=False)
            [kept] = _trials(cfg, [h], range(trials), record=True)
            for a, b in zip(plain[:3], kept[:3]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert plain[3] is None
            assert [r.shape for r in kept[3]] == [(t, len(weights)) for t in kept[0].tolist()]


def test_cap_hit_stops_at_cap_with_no_decision():
    # both classes share one distribution and the threshold sits far above
    # the score's typical size, so no class is ever ruled out
    same = [0.2, 0.5, 0.3]
    cfg = experiment(ALPH3, (same, same), 0.2, 200, 5, 0, cap=1000)
    for stopping_time, code, _ in kernel_outcomes(cfg, 8):
        assert stopping_time == 1000
        assert code == -1
    assert mismatches(cfg, 8) == []


def test_run_trial_matches_batch_and_step_api():
    # the estimate path, run_trial and the step API share one scoring
    # definition, so their scores agree bit for bit
    alphabet, weights, gamma, _ = ACCEPTANCE["09"]
    cfg = experiment(alphabet, weights, gamma, 400, 11, 1)
    batch = kernel_outcomes(cfg, TRIALS)
    d1, d2 = cfg.distributions
    seq_cfg = cfg.sequential_config()
    for t in range(TRIALS):
        trace = run_trial(cfg, t)
        assert coded(trace) == batch[t]
        assert trace.scores.shape == (trace.stopping_time, 2)
        x1 = sample_iid(d1, 400, SeedSpec(cfg.master_seed, 3 * t))
        x2 = sample_iid(d2, 400, SeedSpec(cfg.master_seed, 3 * t + 1))
        stream = sample_iid(d2, trace.stopping_time, SeedSpec(cfg.master_seed, 3 * t + 2))
        state = seq_binary_start(x1, x2, seq_cfg, alphabet)
        for step, y in enumerate(stream):
            state, verdict = seq_binary_step(state, y)
            assert state.scores == tuple(trace.scores[step].tolist())
        assert (state.n, verdict, state.crossed) == outcome(trace)


def test_stream_exhausted_matches_oracle():
    # the stream ends in the third block, after one of three classes crossed
    cfg = SequentialConfig(gamma=0.5, train_len=30, cap=10_000)
    trains = ["a" * 30, "b" * 15 + "c" * 15, "b" * 14 + "c" * 14 + "aa"]
    stream = "bc" * 65
    with pytest.raises(StreamExhausted) as err:
        seq_multiclass_run(trains, stream, cfg, Alphabet(("a", "b", "c")))
    got = err.value.trace
    counts = [[seq.count(s) for s in "abc"] for seq in trains]
    with pytest.raises(StreamExhausted) as want_err:
        oracle.SequentialEngine(counts, cfg).run(iter("abc".index(s) for s in stream), "none")
    want = want_err.value.trace
    assert got.stopping_time == len(stream) > FIRST_WIDTH * (1 + GROWTH)
    assert outcome(got) == outcome(want)
    assert sum(t is not None for t in got.crossing_times) == 1
    assert got.scores.shape == (len(stream), 3)
    np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-11)


def test_block_scores_exact_zero_on_proportional_types():
    # the prefix of length 10 has the training type's proportions exactly
    alphabet = Alphabet(("a", "b", "c"))
    stream = "bbbabbbcbc"
    train = np.array([[[40, 280, 80]]])
    symbols = np.array([["abc".index(s) for s in stream]])
    counts = np.stack([np.cumsum(symbols == x, axis=1) for x in range(3)])
    phi_train = classifiers._phi_array(train.transpose(2, 0, 1), 400, 400)
    block = classifiers._block_scores(train, phi_train, counts, np.arange(1, 11), 400)[0, 0]
    assert block[9] == 0.0
    big = EmpiricalType(alphabet, (40, 280, 80))
    assert block[8] == score(big, EmpiricalType(alphabet, (1, 7, 1)))
    # the step-at-a-time path gives the same bits
    cfg = SequentialConfig(gamma=0.5, train_len=400, cap=400)
    with pytest.raises(StreamExhausted) as err:
        seq_multiclass_run(["a" * 40 + "b" * 280 + "c" * 80, "b" * 400], stream, cfg, alphabet)
    assert err.value.trace.scores[:, 0].tolist() == block.tolist()


def test_multiclass_run_matches_kernel_and_stops_reading():
    # seq_multiclass_run steps one symbol at a time, scoring one prefix per
    # step; run_trial scores whole blocks of prefixes with the same rule
    alphabet, weights, gamma, _ = ACCEPTANCE["10"]
    for true_class in range(3):
        cfg = experiment(alphabet, weights, gamma, 300, 11, true_class)
        m = cfg.num_classes
        for t in range(TRIALS):
            trace = run_trial(cfg, t)
            base = (m + 1) * t
            trains = [
                sample_iid(d, 300, SeedSpec(11, base + r)) for r, d in enumerate(cfg.distributions)
            ]
            source = cfg.distributions[true_class]
            stream = iter(sample_iid(source, trace.stopping_time + 50, SeedSpec(11, base + m)))
            got = seq_multiclass_run(trains, stream, cfg.sequential_config(), alphabet)
            assert outcome(got) == outcome(trace)
            assert got.scores.tolist() == trace.scores.tolist()
            # the symbols after the stopping point are left in the stream
            assert len(list(stream)) == 50


def fixed_length(tag, seed, true_class, mode):
    """Fixed-length run of an acceptance config at the sequential test's budget.

    ``n_test`` is ``N`` over the smallest pairwise root, as in
    ``seqstat exponents``.  Scaled mode uses the balanced threshold; raw
    mode uses the same number on the raw scale, a threshold ``alpha``
    times lower, so the two modes decide differently.
    """
    alphabet, weights, gamma, (train_len,) = ACCEPTANCE[tag]
    dists = [make_distribution(w, alphabet) for w in weights]
    roots = [solve_fixed_point(a, b, gamma).theta_star for a in dists for b in dists if a is not b]
    n_test = round(train_len / min(roots))
    alpha = train_len / n_test
    if len(dists) == 2:
        lam = gutman_bayes_exponent(alpha, *dists)
    else:
        lam = bayes_multiclass_gutman(dists, alpha)
    return experiment(
        alphabet, weights, gamma, train_len, seed, true_class,
        test_kind="gutman", n_test=n_test, gutman_lambda=lam, gutman_mode=mode,
    )


@pytest.mark.parametrize("mode", ["raw", "scaled"])
@pytest.mark.parametrize("tag", ["09", "10"])
def test_fixed_length_batches_match_oracle(tag, mode):
    # more trials than one batch holds, so a batch boundary is crossed
    trials = BLOCK_TRIALS + 12
    found = []
    kinds = set()
    for seed in range(3):
        for h in range(len(ACCEPTANCE[tag][1])):
            cfg = fixed_length(tag, seed, h, mode)
            [[(_, times, codes)]] = _collect_summaries([replace(cfg, trials=trials)], 1)
            for t, got in enumerate(zip(times.tolist(), codes.tolist())):
                verdict, _ = oracle.fixed_length_trial(cfg, t)
                kinds.add(verdict.kind if verdict.kind != "class" else verdict.index == h)
                if got != (cfg.n_test, verdict.index if verdict.is_class else -1):
                    found.append((seed, h, t, got, verdict))
    assert found == []
    # the runs see more than the right verdict: wrong classes or rejects
    assert True in kinds and len(kinds) >= 2


def test_fixed_length_rows_equal_gjs():
    # The row is Phi(C) + Phi(c) - Phi(C + c) over n, three sums of size
    # (N + n) ln(N + n) that cancel, so on near-identical types (gjs near
    # 1e-4) only the absolute error stays at rounding level; against 50-digit
    # references it stayed below 1e-15 of that scale over n.
    for tag in ("09", "10"):
        cfg = fixed_length(tag, 7, 1, "scaled")
        threshold = cfg.gutman_config().raw_threshold
        total = cfg.train_len + cfg.n_test
        rounding = 1e-14 * total * math.log(total) / cfg.n_test
        for t in range(3 * TRIALS):
            trace = run_trial(cfg, t)
            verdict, row = oracle.fixed_length_trial(cfg, t)
            assert trace.scores.shape == (1, cfg.num_classes)
            np.testing.assert_allclose(trace.scores[0], row, rtol=1e-12, atol=rounding)
            assert (trace.stopping_time, trace.verdict) == (cfg.n_test, verdict)
            want = tuple(cfg.n_test if v > threshold else None for v in row)
            assert trace.crossing_times == want


def test_unknown_symbol_raises_only_when_reached():
    cfg = SequentialConfig(gamma=0.1, train_len=4, cap=100)
    trace = seq_multiclass_run(["aaaa", "bbbb"], "bbbbbbbbz", cfg, Alphabet(("a", "b")))
    assert trace.verdict.index == 1
    high = SequentialConfig(gamma=5.0, train_len=4, cap=100)
    with pytest.raises(UnknownSymbol):
        seq_multiclass_run(["aaaa", "abab"], "abz" + "a" * 40, high, Alphabet(("a", "b")))


def test_scores_past_the_table_match_the_table(monkeypatch):
    # with the table cut to 64 entries, every j ln j past it is computed
    # directly; the scores and outcomes must keep their bits
    same = [0.2, 0.5, 0.3]
    cfg = experiment(ALPH3, (same, [0.25, 0.45, 0.3]), 0.2, 40, 5, 0, cap=300)
    want = _traces((cfg, [0], 0, TRIALS))[0]
    t = max(range(TRIALS), key=lambda t: want[t].stopping_time)
    x1 = sample_iid(cfg.distributions[0], 40, SeedSpec(5, 3 * t))
    x2 = sample_iid(cfg.distributions[1], 40, SeedSpec(5, 3 * t + 1))
    stream = sample_iid(cfg.distributions[0], want[t].stopping_time, SeedSpec(5, 3 * t + 2))
    monkeypatch.setattr(classifiers, "_TABLE_SIZE", 64)
    monkeypatch.setattr(classifiers, "_JLNJ", np.zeros(1))
    got = _traces((cfg, [0], 0, TRIALS))[0]
    assert len(classifiers._JLNJ) == 64
    assert want[t].stopping_time > 64
    for g, w in zip(got, want):
        assert outcome(g) == outcome(w)
        assert g.scores.tolist() == w.scores.tolist()
    state = seq_binary_start(x1, x2, cfg.sequential_config(), ALPH3)
    for step, y in enumerate(stream):
        state, _ = seq_binary_step(state, y)
        assert state.scores == tuple(want[t].scores[step].tolist())
    assert len(classifiers._JLNJ) == 64


@pytest.mark.parametrize(
    "master_seed, streams", [(-1, [0]), (2**64, [0]), (0, [1, -1]), (0, [2**64, 0])]
)
def test_stream_keys_outside_64_bits_rejected(master_seed, streams):
    p = make_distribution([0.25, 0.5, 0.25], ALPH3)
    with pytest.raises(BadSeed):
        stream_indices(p, master_seed, streams, 0, 10)


@pytest.mark.parametrize("master_seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_rekeyed_draws_equal_fresh_generator(master_seed):
    p = make_distribution([0.25, 0.5, 0.25], ALPH3)
    streams = [0, 1, 17, 2**64 - 1]
    length = 301
    fresh = np.array(
        [oracle.fresh_indices(p.weights, SeedSpec(master_seed, s), length) for s in streams]
    )
    # uneven pieces, so pieces start at every offset modulo four
    cuts = [0, 1, 2, 7, 40, 41, 130, 255, length]
    pieces = [stream_indices(p, master_seed, streams, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces, axis=1), fresh)
    for s, row in zip(streams, fresh):
        assert np.array_equal(sample_indices(p, length, SeedSpec(master_seed, s)), row)


def test_long_training_draws_in_chunks_match_fresh_generator():
    # N this long leaves room for only two trials' draws per chunk
    cfg = experiment(ALPH3, ACCEPTANCE["09"][1], 0.02, 50_000, 7, 0)
    assert BLOCK_ENTRIES // cfg.train_len == 2
    counts = _training_counts(cfg, range(5))
    for t in range(5):
        for role, d in enumerate(cfg.distributions):
            idx = oracle.fresh_indices(d.weights, SeedSpec(7, 3 * t + role), cfg.train_len)
            assert counts[t, role].tolist() == np.bincount(idx, minlength=3).tolist()


def weights_with_zeros(k, zeros, seed):
    """Random weights on ``k`` symbols with the positions ``zeros`` set to 0."""
    w = np.random.default_rng(seed).random(k) + 0.05
    w[list(zeros)] = 0.0
    return (w / w.sum()).tolist()


def zero_placements(k):
    """No zero weight, one first, in the middle or last, and all three where they fit."""
    spread = [(0, k // 2, k - 1)] if k > 3 else []
    return [(), (0,), (k // 2,), (k - 1,), *spread]


@pytest.mark.parametrize("k", [2, 3, 5, 16, 64])
def test_threshold_map_equals_binary_search_on_fresh_generator(k):
    # the sampler's threshold compares against the searchsorted lookup
    # it replaced, with zero weights first, in the middle and last
    alphabet = Alphabet(tuple(range(k)))
    streams = [0, 5, 2**64 - 1]
    length = 67
    # uneven pieces, so pieces start at every offset modulo four
    cuts = [0, 1, 2, 3, 7, 12, 30, 45, length]
    for zeros in zero_placements(k):
        p = make_distribution(weights_with_zeros(k, zeros, k), alphabet)
        fresh = np.array(
            [oracle.fresh_indices(p.weights, SeedSpec(11, s), length) for s in streams]
        )
        pieces = [stream_indices(p, 11, streams, a, b) for a, b in zip(cuts, cuts[1:])]
        got = np.concatenate(pieces, axis=1)
        assert got.dtype == fresh.dtype
        assert np.array_equal(got, fresh)
        assert not np.isin(np.flatnonzero(np.array(p.weights) == 0.0), got).any()


@pytest.mark.parametrize(
    "weights",
    [
        [0.1, 0.7, 0.2],
        [0.0, 0.5, 0.0, 0.5, 0.0],
        [0.25, 0.0, 0.0, 0.75],
        # the cdf's top is 0.9999999999999999: u from there up is the last symbol
        [0.1] * 10,
        [1.0],
    ],
)
def test_threshold_map_on_hand_placed_uniforms(weights):
    cdf = np.cumsum(weights)
    u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), [np.nextafter(1.0, 0.0)]])
    u = u[u < 1.0][None, :]
    want = oracle.indices_from_uniforms(weights, u)
    assert np.array_equal(_indices_from_uniforms(np.array(weights), u), want)
    counts = _counts_from_uniforms(np.array(weights), u)
    assert counts.tolist() == [np.bincount(want[0], minlength=len(weights)).tolist()]


@pytest.mark.parametrize(
    "alphabet, weights",
    [
        (ALPH2, ([0.0, 1.0], [0.3, 0.7], [1.0, 0.0])),
        (Alphabet(tuple(range(5))), tuple(weights_with_zeros(5, z, 5) for z in zero_placements(5))),
    ],
)
def test_training_counts_equal_fresh_generator_counts(alphabet, weights):
    cfg = experiment(alphabet, weights, 0.05, 97, 13, 0)
    counts = _training_counts(cfg, range(4))
    m = len(weights)
    for t in range(4):
        for role, d in enumerate(cfg.distributions):
            idx = oracle.fresh_indices(d.weights, SeedSpec(13, t * (m + 1) + role), cfg.train_len)
            assert counts[t, role].tolist() == np.bincount(idx, minlength=alphabet.size).tolist()


def test_concurrent_draws_keep_their_streams():
    # threads share the one re-keyed generator; its lock must keep every
    # draw on its own key
    p = make_distribution([0.25, 0.5, 0.25], ALPH3)
    want = {s: oracle.fresh_indices(p.weights, SeedSpec(99, s), 2000) for s in range(6)}
    wrong = []

    def work(s):
        for _ in range(100):
            if not np.array_equal(sample_indices(p, 2000, SeedSpec(99, s)), want[s]):
                wrong.append(s)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in want]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
