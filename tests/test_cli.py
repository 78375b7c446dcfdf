"""Command-line interface: exit codes, stdout formats, CSV contracts."""

import csv
import json
import math

import pytest

from seqstat import (
    Alphabet,
    ExperimentConfig,
    bayes_multiclass_gutman,
    chernoff,
    gjs,
    make_distribution,
    multiclass_thetas,
    run_trial,
    solve_fixed_point,
)
from seqstat import cli
from seqstat.cli import COMPARISON_COLUMNS, REPORT_COLUMNS, main
from seqstat.errors import NonConvergence
from seqstat.simulator import BLOCK_TRIALS

NEAR_PAIR = {"P1": [0.1, 0.7, 0.2], "P2": [0.05, 0.55, 0.4]}
TRIO = {"P1": [0.1, 0.7, 0.2], "P2": [0.4, 0.5, 0.1], "P3": [0.3, 0.3, 0.4]}


def write_config(tmp_path, name="config.json", **fields):
    body = {"alphabet": [0, 1, 2], "distributions": NEAR_PAIR}
    body.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; each call still parses afresh
    # and argparse writes to the stderr of the moment
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["gjs", "--workers", "x"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
    assert main(["gjs", "--p", "0.5,0.5", "--q", "0.3,0.7", "--alpha", "1"]) == 0
    capsys.readouterr()
    # no flag carries over from the call before
    assert main(["gjs", "--p", "0.5,0.5", "--q", "0.3,0.7"]) == 2
    assert "alpha is required" in capsys.readouterr().err


class TestScalarCommands:
    def test_gjs_inline(self, capsys):
        assert main(["gjs", "--p", "0.1,0.3,0.6", "--q", "0.45,0.45,0.1", "--alpha", "2"]) == 0
        out = capsys.readouterr().out.strip()
        alph = Alphabet((0, 1, 2))
        want = gjs(
            make_distribution([0.1, 0.3, 0.6], alph),
            make_distribution([0.45, 0.45, 0.1], alph),
            2.0,
        )
        assert out == f"{want:.12g}"

    def test_gjs_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=2.0, pair=["P1", "P2"])
        assert main(["gjs", "--config", cfg]) == 0
        inline = f"{gjs(*_near_pair(), 2.0):.12g}"
        assert capsys.readouterr().out.strip() == inline

    def test_gjs_alpha_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=2.0)
        assert main(["gjs", "--config", cfg, "--alpha", "3.0"]) == 0
        assert capsys.readouterr().out.strip() == f"{gjs(*_near_pair(), 3.0):.12g}"

    def test_chernoff_inline(self, capsys):
        assert main(["chernoff", "--p", "0.8,0.2", "--q", "0.2,0.8"]) == 0
        out = capsys.readouterr().out.strip()
        alph = Alphabet((0, 1))
        want = chernoff(
            make_distribution([0.8, 0.2], alph), make_distribution([0.2, 0.8], alph)
        )
        assert out == f"{want:.12g}"
        assert len(out.replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_fixed_point_inline(self, capsys):
        code = main(
            ["fixed-point", "--p", "0.1,0.7,0.2", "--q", "0.05,0.55,0.4", "--gamma", "0.02"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = dict(line.split() for line in lines)
        want = solve_fixed_point(*_near_pair(), 0.02)
        assert parsed["theta_star"] == f"{want.theta_star:.12g}"
        assert float(parsed["residual"]) <= 1e-10
        assert int(parsed["iterations"]) >= 1

    def test_gjs_needs_alpha(self, capsys):
        assert main(["gjs", "--p", "0.5,0.5", "--q", "0.4,0.6"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_pair_flags_must_come_together(self, capsys):
        assert main(["gjs", "--p", "0.5,0.5", "--alpha", "1"]) == 2
        assert "--q" in capsys.readouterr().err

    def test_pair_lengths_must_match(self, capsys):
        assert main(["gjs", "--p", "0.5,0.5", "--q", "0.2,0.3,0.5", "--alpha", "1"]) == 2
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["chernoff", "--p=-0.1,0.6,0.5", "--q", "0.3,0.3,0.4"], "--p"),
            (["gjs", "--p", "nan,0.5,0.5", "--q", "0.2,0.3,0.5", "--alpha", "1"], "--p"),
            (["chernoff", "--p", "0.3,0.3,0.4", "--q", "0.7,0.7,0.1"], "--q"),
        ],
        ids=["negative", "nan", "unnormalized"],
    )
    def test_bad_inline_weights_name_their_flag(self, capsys, flags, named):
        assert main(flags) == 2
        assert f"{named}: " in capsys.readouterr().err

    def test_pair_or_config_required(self, capsys):
        assert main(["chernoff"]) == 2
        assert "--p" in capsys.readouterr().err

    def test_negative_alpha_rejected(self, capsys):
        assert main(["gjs", "--p", "0.5,0.5", "--q", "0.4,0.6", "--alpha", "-1"]) == 2


class TestConfigValidation:
    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gammma=0.02)
        assert main(["chernoff", "--config", cfg]) == 2
        assert "gammma" in capsys.readouterr().err

    def test_unknown_test_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, test={"kind": "sequential", "lenght": 3})
        assert main(["chernoff", "--config", cfg]) == 2
        assert "test.lenght" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["chernoff", "--config", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["chernoff", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_unknown_true_class(self, tmp_path, capsys):
        cfg = write_config(tmp_path, true_class="P9")
        assert main(["chernoff", "--config", cfg]) == 2
        assert "true_class" in capsys.readouterr().err

    def test_priors_must_cover_all(self, tmp_path, capsys):
        cfg = write_config(tmp_path, priors={"P1": 1.0})
        assert main(["chernoff", "--config", cfg]) == 2
        assert "priors" in capsys.readouterr().err

    def test_unknown_pair_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair=["P1", "P7"])
        assert main(["chernoff", "--config", cfg]) == 2
        assert "P7" in capsys.readouterr().err

    def test_seed_required_for_simulate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, gamma=0.02, train_len=20, trials=2, true_class="P1"
        )
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_out_required_for_csv_commands(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma=0.02)
        assert main(["compare-gutman", "--config", cfg]) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, fields, named",
        [
            ("compare-gutman", {"gamma_grid": ["abc"]}, "gamma_grid"),
            ("compare-gutman", {"gamma_grid": [None]}, "gamma_grid"),
            # a pair far enough apart that gamma 1.0 is in range: a boolean
            # entry must not be read as 1.0
            (
                "compare-gutman",
                {
                    "alphabet": [0, 1],
                    "distributions": {"P1": [0.999, 0.001], "P2": [0.001, 0.999]},
                    "gamma_grid": [True],
                },
                "gamma_grid",
            ),
            (
                "chernoff",
                {"distributions": {"P1": ["a", 0.5, 0.5], "P2": NEAR_PAIR["P2"]}},
                "distributions.P1",
            ),
            (
                "chernoff",
                {"distributions": {"P1": [-0.1, 0.6, 0.5], "P2": NEAR_PAIR["P2"]}},
                "distributions.P1",
            ),
            (
                "chernoff",
                {"distributions": {"P1": NEAR_PAIR["P1"], "P2": [0.2, 0.2, 0.2]}},
                "distributions.P2",
            ),
            ("simulate", {"priors": {"P1": "x", "P2": 0.5}}, "priors.P1"),
            ("simulate", {"test": {"kind": "gutman", "n_test": 2.5, "lambda": 0.05}}, "test.n_test"),
            ("simulate", {"test": {"kind": "gutman", "n_test": "5", "lambda": 0.05}}, "test.n_test"),
            ("simulate", {"test": {"kind": "gutman", "n_test": 5, "lambda": "x"}}, "test.lambda"),
            ("simulate", {"test": {"kind": "gutman", "n_test": 5, "lambda": -1}}, "test.lambda"),
            (
                "simulate",
                {"test": {"kind": "gutman", "n_test": 5, "lambda": 0.05, "mode": "odd"}},
                "test.mode",
            ),
            ("simulate", {"test": {"kind": "gutman", "n_test": 0, "lambda": 0.05}}, "test.n_test"),
            ("simulate", {"seed": -1}, "seed"),
            ("gjs", {"alpha": -1}, "alpha"),
            ("trace", {"trial_index": -1}, "trial_index"),
            ("compare-gutman", {"gamma_grid": [0.02, -0.01]}, "gamma_grid"),
            ("simulate", {"priors": {"P1": -0.5, "P2": 1.5}}, "priors.P1"),
            ("simulate", {"gamma": math.inf}, "gamma"),
            ("simulate", {"gamma_grid": [math.nan]}, "gamma_grid"),
            (
                "chernoff",
                {"distributions": {"P1": [math.nan, 0.5, 0.5], "P2": NEAR_PAIR["P2"]}},
                "distributions.P1",
            ),
            ("chernoff", {"alphabet": [[0], [1], [2]]}, "alphabet"),
            ("chernoff", {"pair": [["P1"], "P2"]}, "pair"),
            ("chernoff", {"true_class": ["P1"]}, "true_class"),
        ],
        ids=[
            "gamma_grid-string",
            "gamma_grid-null",
            "gamma_grid-boolean",
            "weight-string",
            "weight-negative",
            "weight-unnormalized",
            "prior-string",
            "n_test-fraction",
            "n_test-string",
            "lambda-string",
            "lambda-negative",
            "mode-unknown",
            "n_test-zero",
            "seed-negative",
            "alpha-negative",
            "trial_index-negative",
            "gamma_grid-negative",
            "prior-negative",
            "gamma-infinity",
            "gamma_grid-nan",
            "weight-nan",
            "alphabet-arrays",
            "pair-array-name",
            "true_class-array",
        ],
    )
    def test_malformed_field_named(self, tmp_path, capsys, command, fields, named):
        base = dict(gamma=0.02, train_len=20, trials=2, seed=7, true_class="P1")
        cfg = write_config(tmp_path, **{**base, **fields})
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"'{named}'" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_checked_like_field(self, tmp_path, capsys):
        assert main(["fixed-point", "--config", write_config(tmp_path, gamma=-1)]) == 2
        from_field = capsys.readouterr().err
        assert "'gamma'" in from_field
        inline = ["--p", "0.1,0.7,0.2", "--q", "0.05,0.55,0.4"]
        over_config = ["--config", write_config(tmp_path, name="ok.json", gamma=0.02)]
        for source in (inline, over_config):
            assert main(["fixed-point", *source, "--gamma", "-1"]) == 2
            assert capsys.readouterr().err == from_field


class TestExitCodes:
    def test_gamma_above_information_rate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma=5.0)
        out = tmp_path / "t.csv"
        assert main(["compare-gutman", "--config", cfg, "--out", str(out)]) == 2

    def test_gamma_at_a_divergence_is_out_of_range(self, tmp_path, capsys):
        # [1, 0] against [0.3, 0.7]: the Chernoff cap equals D(P1||P2), so
        # the cap itself is rejected as out of range before any root solve
        cfg = write_config(
            tmp_path,
            alphabet=[0, 1],
            distributions={"P1": [1.0, 0.0], "P2": [0.3, 0.7]},
            gamma=1.2039728043259361,
        )
        for command in ("exponents", "compare-gutman"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert "is not below D(P1||P2)" in capsys.readouterr().err
            assert not out.exists()

    def test_fixed_point_without_root(self, capsys):
        code = main(
            ["fixed-point", "--p", "0.6,0.4", "--q", "0.4,0.6", "--gamma", "3.0"]
        )
        assert code == 2

    def test_numerical_failure_maps_to_three(self, tmp_path, capsys, monkeypatch):
        import seqstat.cli as cli_module

        def explode(*args, **kwargs):
            raise NonConvergence("mu search stalled")

        monkeypatch.setattr(cli_module, "solve_fixed_point", explode)
        code = main(["fixed-point", "--p", "0.6,0.4", "--q", "0.4,0.6", "--gamma", "0.01"])
        assert code == 3
        assert "stalled" in capsys.readouterr().err


class TestComparisonCsv:
    def test_schema_and_values(self, tmp_path):
        cfg = write_config(tmp_path, gamma_grid=[0.005, 0.01, 0.02])
        out = tmp_path / "cmp.csv"
        assert main(["compare-gutman", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert tuple(header) == COMPARISON_COLUMNS
        assert len(rows) == 3
        p1, p2 = _near_pair()
        for row in rows:
            gamma = float(row[0])
            theta = float(row[1])
            beta = float(row[2])
            assert float(row[3]) == min(theta, beta)
            assert float(row[4]) == gamma
            assert math.isclose(float(row[6]), gamma - float(row[5]), abs_tol=1e-15)
            assert float(row[1]) == solve_fixed_point(p1, p2, gamma).theta_star
            assert float(row[2]) == solve_fixed_point(p2, p1, gamma).theta_star

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, gamma_grid=[0.005, 0.02])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["compare-gutman", "--config", cfg, "--out", str(a)]) == 0
        assert main(["compare-gutman", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_disjoint_supports_write_a_row(self, tmp_path):
        # no common symbol: the fixed-length exponent is gjs(P1, P2, alpha)
        # / alpha, which equals gamma at the matched ratio
        cfg = write_config(
            tmp_path, distributions={"P1": [1.0, 0.0, 0.0], "P2": [0.0, 0.5, 0.5]}, gamma=0.5
        )
        out = tmp_path / "disjoint.csv"
        assert main(["compare-gutman", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 1
        assert float(rows[0][5]) == pytest.approx(0.5, rel=1e-12)
        assert abs(float(rows[0][6])) <= 1e-12

    def test_gamma_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, gamma=0.005)
        out = tmp_path / "o.csv"
        assert main(["compare-gutman", "--config", cfg, "--gamma", "0.02", "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        assert float(rows[0][0]) == 0.02

    def test_exponents_adds_multiclass_rows(self, tmp_path):
        cfg = write_config(
            tmp_path, distributions=TRIO, gamma_grid=[0.02, 0.03], pair=["P1", "P2"]
        )
        out = tmp_path / "exp.csv"
        assert main(["exponents", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert tuple(header) == COMPARISON_COLUMNS
        assert len(rows) == 4
        pairwise, summary = rows[:2], rows[2:]
        for row in pairwise:
            assert row[1] != "" and row[2] != ""
        alph = Alphabet((0, 1, 2))
        dists = [make_distribution(w, alph) for w in TRIO.values()]
        for row, gamma in zip(summary, (0.02, 0.03)):
            assert float(row[0]) == gamma
            assert row[1] == "" and row[2] == ""
            import numpy as np

            thetas = multiclass_thetas(dists, gamma)
            alpha_min = float(np.nanmin(thetas))
            assert float(row[3]) == alpha_min
            lam = bayes_multiclass_gutman(dists, alpha_min)
            assert float(row[5]) == lam
            assert math.isclose(float(row[6]), gamma - lam, abs_tol=1e-15)

    def test_exponents_computes_each_cap_once(self, tmp_path, monkeypatch):
        # one cap for the pair's rows and one for the class set's, where the
        # cap was computed again for every rate (5 + 5 x 3 calls)
        from seqstat import fixedpoint

        calls = []

        def counting(*args):
            calls.append(args)
            return chernoff(*args)

        monkeypatch.setattr(fixedpoint, "chernoff", counting)
        grid = [0.01, 0.015, 0.02, 0.025, 0.03]
        cfg = write_config(tmp_path, distributions=TRIO, gamma_grid=grid, pair=["P1", "P2"])
        out = tmp_path / "exp.csv"
        assert main(["exponents", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_csv(str(out))[1]) == 10
        assert len(calls) == 1 + 3


class TestSimulateCsv:
    def simulate_config(self, tmp_path, **extra):
        fields = dict(
            gamma=0.05,
            train_len=40,
            trials=12,
            seed=7,
            true_class="sweep",
        )
        fields.update(extra)
        return write_config(tmp_path, **fields)

    def test_schema_and_sweep_rows(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert tuple(header) == REPORT_COLUMNS
        assert [r[0] for r in rows] == ["1", "2"]
        for row in rows:
            assert row[1] == "12"
            assert int(row[2]) >= 0
            assert float(row[4]) == int(row[2]) / 12
            assert int(row[7]) <= float(row[5]) <= int(row[8])
            assert row[10] == "7"

    def test_report_matches_library(self, tmp_path):
        cfg = self.simulate_config(tmp_path, true_class="P2")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 1
        alph = Alphabet((0, 1, 2))
        experiment = ExperimentConfig(
            distributions=tuple(make_distribution(w, alph) for w in NEAR_PAIR.values()),
            gamma=0.05,
            train_len=40,
            trials=12,
            master_seed=7,
            true_class=1,
        )
        from seqstat import estimate

        want = estimate(experiment).rows[0]
        row = rows[0]
        assert int(row[0]) == 2
        assert int(row[2]) == want.errors
        assert float(row[5]) == want.mean_T
        assert float(row[9]) == want.predicted_mean_T

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_two(self, tmp_path, capsys, workers):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_count_keeps_bytes(self, tmp_path):
        cfg = self.simulate_config(tmp_path, trials=16)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_keeps_bytes_across_batches(self, tmp_path):
        # 300 trials per class: at 2 workers each class runs as spans of
        # 128, 128 and 44 trials
        for kind in ({}, {"test": {"kind": "gutman", "n_test": 20, "lambda": 0.05}}):
            cfg = self.simulate_config(tmp_path, trials=300, distributions=TRIO, **kind)
            a = tmp_path / "a.csv"
            b = tmp_path / "b.csv"
            assert main(["simulate", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
            assert main(["simulate", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_column(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
        _, rows = read_csv(str(out))
        assert all(r[10] == "99" for r in rows)

    def test_trials_override(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--trials", "5"]) == 0
        _, rows = read_csv(str(out))
        assert all(r[1] == "5" for r in rows)

    def test_trace_dir_writes_per_trial_files(self, tmp_path):
        cfg = self.simulate_config(tmp_path, trials=3)
        out = tmp_path / "report.csv"
        traces = tmp_path / "traces"
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--trace-dir", str(traces)]
        )
        assert code == 0
        names = sorted(p.name for p in traces.iterdir())
        assert names == [
            f"trace_h{h}_t{t}.csv" for h in (1, 2) for t in (0, 1, 2)
        ]

    @pytest.mark.parametrize(
        "test",
        [None, {"kind": "gutman", "n_test": 30, "lambda": 0.02, "mode": "raw"}],
        ids=["sequential", "gutman"],
    )
    def test_trace_dir_files_match_run_trial(self, tmp_path, test):
        # traces are written from recorded batches of BLOCK_TRIALS trials;
        # every file, on both sides of a batch boundary, must be the one
        # `seqstat trace` writes from run_trial for that trial alone
        extra = {} if test is None else {"test": test}
        trials = BLOCK_TRIALS + 2
        cfg = self.simulate_config(tmp_path, trials=trials, **extra)
        traces = tmp_path / "traces"
        out = str(tmp_path / "report.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--trace-dir", str(traces)]) == 0
        for h in (1, 2):
            for t in range(trials):
                single = self.simulate_config(
                    tmp_path, name="one.json", trials=1, true_class=f"P{h}", trial_index=t, **extra
                )
                want = tmp_path / "one.csv"
                assert main(["trace", "--config", single, "--out", str(want)]) == 0
                got = traces / f"trace_h{h}_t{t}.csv"
                assert got.read_bytes() == want.read_bytes(), got.name


class TestTraceCsv:
    def trace_config(self, tmp_path, **extra):
        fields = dict(
            gamma=0.05,
            train_len=40,
            trials=1,
            seed=7,
            true_class="P2",
            trial_index=0,
        )
        fields.update(extra)
        return write_config(tmp_path, **fields)

    def test_trace_contract(self, tmp_path):
        cfg = self.trace_config(tmp_path)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert tuple(header) == ("step", "score_1", "score_2", "crossed_flags", "verdict", "gamma_n")
        threshold = 0.05 * 40
        alph = Alphabet((0, 1, 2))
        experiment = ExperimentConfig(
            distributions=tuple(make_distribution(w, alph) for w in NEAR_PAIR.values()),
            gamma=0.05,
            train_len=40,
            trials=1,
            master_seed=7,
            true_class=1,
        )
        trace = run_trial(experiment, 0)
        assert len(rows) == trace.stopping_time
        previous_flags = "00"
        for i, row in enumerate(rows):
            assert int(row[0]) == i + 1
            assert float(row[1]) == trace.scores[i, 0]
            assert float(row[2]) == trace.scores[i, 1]
            assert float(row[5]) == threshold
            flags = row[3]
            assert all(a <= b for a, b in zip(previous_flags, flags))
            previous_flags = flags
            if i + 1 < len(rows):
                assert row[4] == ""
        assert rows[-1][4] == trace.verdict.label()

    def test_fixed_length_trace(self, tmp_path):
        # one row, numbered as the stopping step, compared with the raw
        # threshold lambda * N / n_test of scaled mode
        n_test, lam = 44, 0.03
        cfg = self.trace_config(
            tmp_path,
            distributions=TRIO,
            gamma=0.03,
            train_len=300,
            true_class="P1",
            test={"kind": "gutman", "n_test": n_test, "lambda": lam, "mode": "scaled"},
        )
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header[-3:] == ["crossed_flags", "verdict", "gamma_n"]
        (row,) = rows
        threshold = lam * (300 / n_test)
        scores = [float(v) for v in row[1:4]]
        assert int(row[0]) == n_test
        assert float(row[6]) == threshold
        assert row[4] == "".join("1" if s > threshold else "0" for s in scores)
        # class 1's score is below the threshold, the other two above it
        assert row[4] == "011"
        assert row[5] == "class_1"

    def test_trace_needs_named_class(self, tmp_path, capsys):
        cfg = self.trace_config(tmp_path, true_class="sweep")
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 2
        assert "true_class" in capsys.readouterr().err

    def test_trial_index_selects_trial(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg0 = self.trace_config(tmp_path, name="c0.json", trial_index=0)
        cfg1 = self.trace_config(tmp_path, name="c1.json", trial_index=1)
        assert main(["trace", "--config", cfg0, "--out", str(out_a)]) == 0
        assert main(["trace", "--config", cfg1, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()


def _near_pair():
    alph = Alphabet((0, 1, 2))
    return (
        make_distribution(NEAR_PAIR["P1"], alph),
        make_distribution(NEAR_PAIR["P2"], alph),
    )
