"""Monte Carlo harness: determinism, aggregation, and reference runs."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from seqstat import (
    Alphabet,
    ExperimentConfig,
    estimate,
    exponent_probe,
    gutman_reference_run,
    make_distribution,
    multiclass_thetas,
    run_trial,
    solve_fixed_point,
)
from seqstat import simulator
from seqstat.errors import (
    AlphabetMismatch,
    BadSeed,
    Infeasible,
    InsufficientErrors,
    NonConvergence,
    SizeMismatch,
    ValidationError,
)
import oracle

ALPH2 = Alphabet((0, 1))
ALPH3 = Alphabet((0, 1, 2))
LN2 = math.log(2.0)

NEAR_PAIR = ([0.1, 0.7, 0.2], [0.05, 0.55, 0.4])
TRIO = ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4])


def bern(x):
    return make_distribution([x, 1 - x], ALPH2)


def tern(weights):
    return make_distribution(weights, ALPH3)


def basic_config(**overrides):
    base = dict(
        distributions=(bern(0.8), bern(0.2)),
        gamma=0.1,
        train_len=30,
        trials=16,
        master_seed=42,
        true_class=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def report_key(report):
    """Everything except the wall clock."""
    return (report.rows, report.bayes_error_rate, report.master_seed)


class TestExperimentConfig:
    def test_needs_two_distributions(self):
        with pytest.raises(SizeMismatch):
            basic_config(distributions=(bern(0.5),))

    def test_alphabets_must_match(self):
        with pytest.raises(AlphabetMismatch):
            basic_config(distributions=(bern(0.5), tern([0.2, 0.3, 0.5])))

    def test_trials_positive(self):
        with pytest.raises(SizeMismatch):
            basic_config(trials=0)

    def test_seed_validated(self):
        with pytest.raises(BadSeed):
            basic_config(master_seed=-1)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("master_seed", 1.5, BadSeed),
            ("train_len", 30.0, SizeMismatch),
            ("cap", 30.5, SizeMismatch),
            ("trials", 2.0, SizeMismatch),
            ("true_class", 0.5, SizeMismatch),
        ],
    )
    def test_integer_fields(self, field, value, error):
        with pytest.raises(error, match=field):
            basic_config(**{field: value})

    def test_n_test_must_be_an_integer(self):
        with pytest.raises(SizeMismatch, match="n_test"):
            basic_config(test_kind="gutman", n_test=5.5, gutman_lambda=0.1)

    def test_numpy_integers_stored_as_ints(self):
        cfg = basic_config(train_len=np.int64(30), master_seed=np.uint64(42), trials=np.int32(16))
        assert cfg == basic_config()
        assert all(type(v) is int for v in (cfg.train_len, cfg.master_seed, cfg.trials))
        assert type(estimate(cfg).rows[0].predicted_mean_T) is float

    def test_true_class_range(self):
        with pytest.raises(SizeMismatch):
            basic_config(true_class=2)

    def test_priors_validated(self):
        with pytest.raises(SizeMismatch):
            basic_config(priors=(1.0,))
        with pytest.raises(ValidationError):
            basic_config(priors=(1.2, -0.2))
        with pytest.raises(ValidationError):
            basic_config(priors=(0.6, 0.6))

    def test_nan_prior_rejected(self):
        # nan passes both "p < 0" and the sum test; estimate would report a
        # nan Bayes error rate
        with pytest.raises(ValidationError, match="nonnegative"):
            basic_config(priors=(math.nan, 1.0))

    def test_unknown_test_kind(self):
        with pytest.raises(ValidationError):
            basic_config(test_kind="bootstrap")

    def test_gutman_needs_budget_and_threshold(self):
        with pytest.raises(SizeMismatch):
            basic_config(test_kind="gutman", gutman_lambda=0.1)
        with pytest.raises(ValidationError):
            basic_config(test_kind="gutman", n_test=5)

    def test_gutman_threshold_and_mode_checked_at_construction(self):
        with pytest.raises(Infeasible, match="threshold"):
            basic_config(test_kind="gutman", n_test=5, gutman_lambda=-1.0)
        with pytest.raises(Infeasible, match="mode"):
            basic_config(test_kind="gutman", n_test=5, gutman_lambda=0.1, gutman_mode="odd")

    def test_default_cap_and_priors(self):
        cfg = basic_config()
        assert cfg.effective_cap == 900
        assert cfg.effective_priors == (0.5, 0.5)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = basic_config(trials=40)
        assert report_key(estimate(cfg)) == report_key(estimate(cfg))

    def test_worker_count_does_not_change_results(self):
        cfg = basic_config(trials=24, true_class=None)
        serial = estimate(cfg, workers=1)
        parallel = estimate(cfg, workers=2)
        assert report_key(serial) == report_key(parallel)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            estimate(basic_config(), workers=workers)

    def test_worker_count_must_be_an_integer(self, monkeypatch):
        # 16 trials would go to a pool at 1.5 workers
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValidationError, match="workers must be an integer"):
            estimate(basic_config(), workers=1.5)

    def test_worker_spans_are_whole_batches(self, monkeypatch):
        cfg = basic_config(trials=300, true_class=None)
        serial = estimate(cfg, workers=1)
        spans = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                spans.extend((start, stop) for _, start, stop in jobs)
                return map(fn, jobs)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", InlinePool)
        assert report_key(estimate(cfg, workers=2)) == report_key(serial)
        assert simulator.BLOCK_TRIALS == 128
        assert spans == [(0, 128), (128, 256), (256, 300)] * 2

    def test_trial_traces_repeat(self):
        cfg = basic_config()
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.verdict == b.verdict
        assert a.stopping_time == b.stopping_time

    def test_trials_draw_fresh_training(self):
        cfg = basic_config()
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 1)
        assert a.scores.shape != b.scores.shape or a.scores.tobytes() != b.scores.tobytes()

    def test_seed_changes_results(self):
        cfg = basic_config(trials=60, gamma=0.4)
        other = replace(cfg, master_seed=43)
        ra = estimate(cfg).rows[0]
        rb = estimate(other).rows[0]
        assert (ra.mean_T, ra.errors) != (rb.mean_T, rb.errors)


class TestTrialMechanics:
    def test_run_trial_needs_true_class(self):
        cfg = basic_config(true_class=None)
        with pytest.raises(ValidationError):
            run_trial(cfg, 0)

    def test_run_trial_names_negative_index(self):
        # a negative index must not reach the stream keys as a negative stream
        with pytest.raises(ValidationError, match="trial index must be >= 0, got -1"):
            run_trial(basic_config(), -1)

    def test_run_trial_index_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="trial index must be an integer"):
            run_trial(basic_config(), 1.5)

    def test_single_trial_aggregation_identity(self):
        cfg = basic_config(trials=1)
        trace = run_trial(cfg, 0)
        row = estimate(cfg).rows[0]
        assert row.trials == 1
        assert row.mean_T == trace.stopping_time
        assert row.min_T == row.max_T == trace.stopping_time
        assert row.stddev_T == 0.0
        correct = trace.verdict.is_class and trace.verdict.index == 0
        assert row.errors == (0 if correct else 1)

    def test_aggregates_match_per_trial_reruns(self):
        cfg = basic_config(trials=16, gamma=0.3)
        row = estimate(cfg, workers=2).rows[0]
        times = []
        errors = 0
        nodecisions = 0
        for i in range(cfg.trials):
            trace = run_trial(cfg, i)
            times.append(trace.stopping_time)
            if not (trace.verdict.is_class and trace.verdict.index == 0):
                errors += 1
            if not trace.verdict.is_class:
                nodecisions += 1
        assert row.errors == errors
        assert row.nodecisions == nodecisions
        assert row.mean_T == pytest.approx(np.mean(times), abs=1e-12)
        assert row.stddev_T == pytest.approx(np.std(times, ddof=1), abs=1e-12)
        assert row.min_T == min(times)
        assert row.max_T == max(times)

    def test_stopping_floor_holds_everywhere(self):
        cfg = basic_config(
            distributions=(bern(0.9), bern(0.1)), gamma=0.5, train_len=60, trials=200
        )
        row = estimate(cfg).rows[0]
        floor = (cfg.gamma / (2 * LN2)) ** 2 * cfg.train_len
        assert row.min_T >= floor
        assert row.errors == 0


class TestAggregation:
    def test_unreachable_threshold_all_nodecision(self):
        # gamma so large the score bound can never reach gamma * N
        cfg = basic_config(gamma=50.0, train_len=10, cap=100, trials=20)
        row = estimate(cfg).rows[0]
        assert row.nodecisions == 20
        assert row.errors == 20
        assert row.error_rate == 1.0
        assert row.nodecision_rate == 1.0
        assert row.min_T == row.max_T == 100
        assert row.stddev_T == 0.0

    def test_clean_separation_no_errors(self):
        cfg = basic_config(
            distributions=(bern(0.95), bern(0.05)),
            gamma=0.2,
            train_len=60,
            trials=50,
            master_seed=11,
        )
        row = estimate(cfg).rows[0]
        assert row.errors == 0
        assert row.nodecisions == 0
        assert row.error_rate == 0.0
        assert row.error_half_width == 0.0

    def test_sweep_covers_every_hypothesis(self):
        cfg = basic_config(true_class=None, trials=12)
        report = estimate(cfg)
        assert [r.hypothesis for r in report.rows] == [0, 1]
        assert all(r.trials == 12 for r in report.rows)

    def test_bayes_error_is_prior_weighted(self):
        cfg = basic_config(
            true_class=None, trials=30, gamma=0.4, priors=(0.3, 0.7)
        )
        report = estimate(cfg)
        want = 0.3 * report.rows[0].error_rate + 0.7 * report.rows[1].error_rate
        assert report.bayes_error_rate == pytest.approx(want, abs=1e-15)

    def test_fixed_hypothesis_has_no_bayes_rate(self):
        assert estimate(basic_config()).bayes_error_rate is None

    @pytest.mark.parametrize("kind", ["sequential", "gutman"])
    def test_report_fields_keep_python_types(self, kind):
        # the CLI prints a field that is not a Python int through float(),
        # so a numpy integer min_T would come out as "5.0"
        extra = dict(test_kind="gutman", n_test=20, gutman_lambda=0.05) if kind == "gutman" else {}
        cfg = basic_config(true_class=None, trials=150, gamma=0.3, **extra)
        for row in estimate(cfg).rows:
            for f in fields(row):
                value = getattr(row, f.name)
                assert type(value) is {"int": int, "float": float}[f.type], (f.name, value)

    def test_aggregate_sums_exactly_past_int64(self):
        # sum T^2 = 1.8e19 > 2^63 - 1: an int64 reduction would wrap silently
        cfg = basic_config()
        stopping = [3 * 10**9, 3 * 10**9 + 1, 7, 1]
        assert sum(t * t for t in stopping) > 2**63
        codes = [0, -1, 1, 0]
        row = simulator._aggregate(cfg, 0, np.array(stopping), np.array(codes))
        n = len(stopping)
        mean = sum(stopping) / n
        variance = max(0.0, (sum(t * t for t in stopping) - n * mean * mean) / (n - 1))
        assert (row.trials, row.errors, row.nodecisions) == (4, 2, 1)
        assert (row.min_T, row.max_T) == (1, 3 * 10**9 + 1)
        assert row.mean_T == mean
        assert row.stddev_T == math.sqrt(variance) > 0.0


class TestPredictedMeanT:
    def test_binary_prediction_uses_smallest_root(self):
        p1, p2 = bern(0.8), bern(0.3)
        cfg = basic_config(distributions=(p1, p2), gamma=0.05, trials=1)
        row0 = estimate(cfg).rows[0]
        root = solve_fixed_point(p2, p1, 0.05).theta_star
        assert row0.predicted_mean_T == pytest.approx(cfg.train_len / root, rel=1e-12)

    def test_multiclass_prediction_matches_theta_table(self):
        dists = tuple(tern(w) for w in TRIO)
        cfg = ExperimentConfig(
            dists, gamma=0.03, train_len=50, trials=1, master_seed=1, true_class=None
        )
        thetas = multiclass_thetas(list(dists), 0.03)
        report = estimate(cfg)
        for i, row in enumerate(report.rows):
            want = cfg.train_len / np.nanmin(thetas[i])
            assert row.predicted_mean_T == pytest.approx(want, rel=1e-12)

    def test_no_root_gives_nan(self):
        cfg = basic_config(gamma=50.0, train_len=10, cap=100, trials=2)
        assert math.isnan(estimate(cfg).rows[0].predicted_mean_T)


class TestGutmanReference:
    def test_zero_test_length_rejected(self, monkeypatch):
        # without a threshold the run divides train_len by n_test
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SizeMismatch, match="n_test >= 1"):
            gutman_reference_run(basic_config(), 0)

    def test_fixed_length_budget_respected(self):
        cfg = basic_config(trials=25, true_class=None)
        report = gutman_reference_run(cfg, n_test=7)
        for row in report.rows:
            assert row.min_T == row.max_T == 7
            assert row.predicted_mean_T == 7.0

    def test_huge_threshold_always_first_class(self):
        cfg = ExperimentConfig(
            (bern(0.8), bern(0.3)),
            gamma=0.05,
            train_len=32,
            trials=40,
            master_seed=9,
            test_kind="gutman",
            n_test=8,
            gutman_lambda=50.0,
        )
        report = estimate(cfg)
        assert report.rows[0].errors == 0
        assert report.rows[1].errors == 40
        assert report.bayes_error_rate == 0.5

    def test_binary_error_rates_match_the_exact_oracle(self):
        # P1 = (0.3, 0.7), P2 = (0.6, 0.4), N = n = 10: the exact rates are
        # about 0.3044 and 0.3865; 40,000 trials put each Monte Carlo rate
        # within 4 binomial standard errors of them
        cfg = ExperimentConfig(
            (bern(0.3), bern(0.6)),
            gamma=0.05,
            train_len=10,
            trials=40000,
            master_seed=7,
            true_class=None,
            test_kind="gutman",
            n_test=10,
            gutman_lambda=0.06,
        )
        exact, closest = oracle.binary_fixed_length_errors(cfg)
        assert closest > 1e-9
        for row, p in zip(estimate(cfg).rows, exact):
            z = (row.error_rate - p) / math.sqrt(p * (1.0 - p) / row.trials)
            assert abs(z) <= 4.0

    def test_scaled_mode_matches_rescaled_raw(self):
        # alpha = 32 / 8 = 4, a power of two, so the rescaling is lossless
        raw = ExperimentConfig(
            (bern(0.8), bern(0.3)),
            gamma=0.05,
            train_len=32,
            trials=60,
            master_seed=9,
            true_class=None,
            test_kind="gutman",
            n_test=8,
            gutman_lambda=0.2,
            gutman_mode="raw",
        )
        scaled = replace(raw, gutman_lambda=0.05, gutman_mode="scaled")
        assert report_key(estimate(raw)) == report_key(estimate(scaled))

    def test_multiclass_rejects_count_as_nodecisions(self):
        dists = tuple(tern(w) for w in TRIO)
        cfg = ExperimentConfig(
            dists,
            gamma=0.03,
            train_len=40,
            trials=30,
            master_seed=4,
            true_class=0,
            test_kind="gutman",
            n_test=10,
            gutman_lambda=1e-9,
        )
        row = estimate(cfg).rows[0]
        # a near-zero threshold rejects every trial
        assert row.nodecisions == 30
        assert row.errors == 30

    def test_sequential_beats_fixed_length_on_matched_budget(self):
        # the headline comparison: give the fixed-length rule the sequential
        # test's own predicted budget and it still makes more Bayes errors
        p1, p2 = bern(0.8), bern(0.2)
        cfg = ExperimentConfig(
            (p1, p2),
            gamma=0.15,
            train_len=40,
            trials=600,
            master_seed=13,
            true_class=None,
        )
        seq = estimate(cfg)
        theta = solve_fixed_point(p1, p2, cfg.gamma).theta_star
        beta = solve_fixed_point(p2, p1, cfg.gamma).theta_star
        budget = math.ceil(cfg.train_len / min(theta, beta))
        fixed = gutman_reference_run(cfg, n_test=budget)
        assert seq.bayes_error_rate <= fixed.bayes_error_rate


class TestExponentProbe:
    def test_probe_rows_and_slope(self):
        cfg = ExperimentConfig(
            (bern(0.8), bern(0.2)),
            gamma=0.2,
            train_len=10,
            trials=400,
            master_seed=3,
            true_class=0,
        )
        probe = exponent_probe(cfg, [10, 20])
        assert [r.train_len for r in probe.rows] == [10, 20]
        for row in probe.rows:
            assert row.trials == 400
            assert row.usable
            assert row.error_rate == row.errors / row.trials
            neg_log = -math.log(row.error_rate)
            assert row.exponent_per_train == pytest.approx(
                neg_log / row.train_len, abs=1e-12
            )
            assert row.exponent_per_sample == pytest.approx(
                neg_log / row.mean_T, abs=1e-12
            )
        y = [-math.log(r.error_rate) for r in probe.rows]
        want_slope = (y[1] - y[0]) / 10.0
        assert probe.slope == pytest.approx(want_slope, abs=1e-12)
        assert probe.slope > 0

    def test_probe_starts_one_pool(self, monkeypatch):
        # every training length's trial blocks go to one pool, and the
        # report is the serial one
        cfg = ExperimentConfig(
            (bern(0.8), bern(0.2)),
            gamma=0.1,
            train_len=10,
            trials=40,
            master_seed=3,
            true_class=0,
        )
        serial = exponent_probe(cfg, [10, 15, 20])
        assert all(row.usable for row in serial.rows)
        started = []

        class CountingPool(simulator.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", CountingPool)
        assert exponent_probe(cfg, [10, 15, 20], workers=2) == serial
        assert started == [2]

    def test_probe_solves_no_roots(self, monkeypatch):
        # probe rows carry no predicted length, so no threshold root is solved
        def explode(*args, **kwargs):
            raise NonConvergence("the probe solved a root")

        monkeypatch.setattr(simulator, "solve_fixed_point", explode)
        cfg = ExperimentConfig(
            (bern(0.8), bern(0.2)),
            gamma=0.2,
            train_len=10,
            trials=400,
            master_seed=3,
            true_class=0,
        )
        probe = exponent_probe(cfg, [10, 20])
        assert [r.train_len for r in probe.rows] == [10, 20]

    def test_probe_needs_true_class(self):
        cfg = basic_config(true_class=None)
        with pytest.raises(ValidationError):
            exponent_probe(cfg, [10, 20])

    def test_insufficient_errors(self):
        cfg = ExperimentConfig(
            (bern(0.99), bern(0.01)),
            gamma=0.1,
            train_len=80,
            trials=30,
            master_seed=2,
            true_class=0,
        )
        with pytest.raises(InsufficientErrors):
            exponent_probe(cfg, [80, 100])
