"""Command-line front end.

Subcommands::

    gjs             print the weighted divergence of a configured pair
    chernoff        print the Chernoff information of a configured pair
    fixed-point     print the threshold-equation root for a pair and rate
    exponents       write the exponent comparison CSV (plus multiclass rows)
    compare-gutman  write the binary sequential-versus-fixed-length CSV
    simulate        run the Monte Carlo experiment and write the report CSV
    trace           write the per-step score trace of a single trial

Inputs come from a JSON config (``--config``); ``--seed``, ``--gamma``,
``--trials`` and ``--workers`` override the matching config entries.
The scalar pair commands (gjs, chernoff, fixed-point) also accept the
distributions inline as ``--p`` / ``--q`` comma-separated weights, in
which case the config file is optional.  Scalars are printed with 12
significant digits; CSV numbers use the shortest round-trip decimal
form.  Exit codes: 0 on success, 2 on validation failure, 3 on a
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

from .classifiers import TrialTrace
from .divergence import chernoff, gjs
from .errors import NumericalError, SeqstatError, ValidationError
from .exponents import (
    bayes_multiclass_gutman,
    compare_sequential_vs_gutman,
    gutman_bayes_exponent,
)
from .fixedpoint import multiclass_thetas, solve_fixed_point
from .probability import Alphabet, Distribution, make_distribution
from .simulator import (
    BLOCK_TRIALS,
    ExperimentConfig,
    SimulationReport,
    _traced_trials,
    estimate,
    run_trial,
)

_TOP_KEYS = {
    "alphabet",
    "distributions",
    "gamma",
    "gamma_grid",
    "train_len",
    "cap",
    "trials",
    "seed",
    "true_class",
    "priors",
    "test",
    "pair",
    "alpha",
    "trial_index",
}
_TEST_KEYS = {"kind", "n_test", "lambda", "mode"}

COMPARISON_COLUMNS = (
    "gamma",
    "theta_star",
    "beta_star",
    "alpha_used",
    "seq_exponent",
    "gutman_exponent",
    "margin",
)
REPORT_COLUMNS = (
    "hypothesis",
    "trials",
    "errors",
    "nodecisions",
    "error_rate",
    "mean_T",
    "stddev_T",
    "min_T",
    "max_T",
    "predicted_T",
    "seed",
)


def _fmt(value) -> str:
    """Shortest decimal that round-trips; integers and strings stay as they are."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    return repr(float(value))


@dataclass
class _Config:
    """Parsed and cross-checked contents of the JSON config file."""

    alphabet: Alphabet
    names: list[str]
    dists: dict[str, Distribution]
    gamma: float | None
    gamma_grid: list[float] | None
    train_len: int | None
    cap: int | None
    trials: int | None
    seed: int | None
    true_class: str | None
    priors: dict[str, float] | None
    test: dict
    pair: list[str]
    alpha: float | None
    trial_index: int

    def pair_dists(self) -> tuple[Distribution, Distribution]:
        return self.dists[self.pair[0]], self.dists[self.pair[1]]

    def ordered_dists(self) -> list[Distribution]:
        return [self.dists[name] for name in self.names]


def _fail(message: str) -> None:
    raise ValidationError(message)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        _fail(message)


def _load_config(path: str) -> _Config:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(f"unknown config field: {sorted(unknown)[0]}")

    _expect("alphabet" in raw, "config field 'alphabet' is required")
    _expect(
        isinstance(raw["alphabet"], list) and raw["alphabet"],
        "config field 'alphabet' must be a nonempty list",
    )
    alphabet = Alphabet(tuple(raw["alphabet"]))

    _expect(
        isinstance(raw.get("distributions"), dict) and raw["distributions"],
        "config field 'distributions' must be a nonempty object",
    )
    names = list(raw["distributions"])
    dists = {}
    for name, weights in raw["distributions"].items():
        _expect(
            isinstance(weights, list),
            f"distribution {name!r} must be a list of weights",
        )
        dists[name] = make_distribution(weights, alphabet)

    def opt_number(key, kind, positive=False):
        if key not in raw or raw[key] is None:
            return None
        value = raw[key]
        _expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"config field {key!r} must be a number",
        )
        if kind is int:
            _expect(float(value).is_integer(), f"config field {key!r} must be an integer")
            value = int(value)
        else:
            value = float(value)
        if positive:
            _expect(value > 0, f"config field {key!r} must be positive")
        return value

    gamma = opt_number("gamma", float, positive=True)
    train_len = opt_number("train_len", int, positive=True)
    cap = opt_number("cap", int, positive=True)
    trials = opt_number("trials", int, positive=True)
    seed = opt_number("seed", int)
    alpha = opt_number("alpha", float)
    trial_index = opt_number("trial_index", int) or 0

    gamma_grid = None
    if raw.get("gamma_grid") is not None:
        _expect(
            isinstance(raw["gamma_grid"], list) and raw["gamma_grid"],
            "config field 'gamma_grid' must be a nonempty list",
        )
        gamma_grid = [float(v) for v in raw["gamma_grid"]]

    true_class = raw.get("true_class")
    if true_class is not None:
        _expect(
            true_class == "sweep" or true_class in dists,
            f"config field 'true_class' must name a distribution or be 'sweep', got {true_class!r}",
        )

    priors = raw.get("priors")
    if priors is not None:
        _expect(isinstance(priors, dict), "config field 'priors' must be an object")
        unknown_priors = set(priors) - set(dists)
        if unknown_priors:
            _fail(f"prior for unknown distribution: {sorted(unknown_priors)[0]}")
        _expect(
            set(priors) == set(dists),
            "config field 'priors' must cover every distribution",
        )

    test = raw.get("test", {"kind": "sequential"})
    _expect(isinstance(test, dict), "config field 'test' must be an object")
    unknown_test = set(test) - _TEST_KEYS
    if unknown_test:
        _fail(f"unknown config field: test.{sorted(unknown_test)[0]}")
    kind = test.get("kind", "sequential")
    _expect(
        kind in ("sequential", "gutman"),
        f"config field 'test.kind' must be 'sequential' or 'gutman', got {kind!r}",
    )

    pair = raw.get("pair", names[:2])
    _expect(
        isinstance(pair, list) and len(pair) == 2,
        "config field 'pair' must list exactly two distribution names",
    )
    for name in pair:
        _expect(name in dists, f"config field 'pair' names unknown distribution {name!r}")

    return _Config(
        alphabet=alphabet,
        names=names,
        dists=dists,
        gamma=gamma,
        gamma_grid=gamma_grid,
        train_len=train_len,
        cap=cap,
        trials=trials,
        seed=seed,
        true_class=true_class,
        priors=priors,
        test={"kind": kind, **{k: v for k, v in test.items() if k != "kind"}},
        pair=pair,
        alpha=alpha,
        trial_index=trial_index,
    )


def _apply_overrides(cfg: _Config, ns: argparse.Namespace) -> None:
    if getattr(ns, "seed", None) is not None:
        cfg.seed = ns.seed
    if getattr(ns, "gamma", None) is not None:
        cfg.gamma = ns.gamma
    if getattr(ns, "trials", None) is not None:
        cfg.trials = ns.trials
    if getattr(ns, "alpha", None) is not None:
        cfg.alpha = ns.alpha


def _experiment(cfg: _Config) -> ExperimentConfig:
    _expect(cfg.gamma is not None, "config field 'gamma' is required")
    _expect(cfg.train_len is not None, "config field 'train_len' is required")
    _expect(cfg.trials is not None, "config field 'trials' is required")
    _expect(cfg.seed is not None, "config field 'seed' is required (seeds are mandatory)")
    if cfg.true_class is None or cfg.true_class == "sweep":
        true_class = None
    else:
        true_class = cfg.names.index(cfg.true_class)
    priors = None
    if cfg.priors is not None:
        priors = tuple(float(cfg.priors[name]) for name in cfg.names)
    test = cfg.test
    return ExperimentConfig(
        distributions=tuple(cfg.ordered_dists()),
        gamma=cfg.gamma,
        train_len=cfg.train_len,
        trials=cfg.trials,
        master_seed=cfg.seed,
        true_class=true_class,
        cap=cfg.cap,
        priors=priors,
        test_kind=test["kind"],
        n_test=test.get("n_test"),
        gutman_lambda=test.get("lambda"),
        gutman_mode=test.get("mode", "raw"),
    )


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _parse_weights(text: str, flag: str) -> list[float]:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        _fail(f"{flag} must be a comma-separated list of numbers")
    _expect(len(weights) >= 2, f"{flag} needs at least two weights")
    return weights


def _resolve_pair(cfg: _Config | None, ns: argparse.Namespace):
    if ns.p is not None or ns.q is not None:
        _expect(
            ns.p is not None and ns.q is not None,
            "--p and --q must be given together",
        )
        p_weights = _parse_weights(ns.p, "--p")
        q_weights = _parse_weights(ns.q, "--q")
        _expect(
            len(p_weights) == len(q_weights),
            "--p and --q must have the same length",
        )
        alphabet = Alphabet(tuple(range(len(p_weights))))
        return (
            make_distribution(p_weights, alphabet),
            make_distribution(q_weights, alphabet),
        )
    _expect(cfg is not None, "either --config or --p/--q is required")
    return cfg.pair_dists()


def _cmd_gjs(cfg: _Config | None, ns: argparse.Namespace) -> int:
    alpha = ns.alpha if ns.alpha is not None else (cfg.alpha if cfg else None)
    _expect(alpha is not None, "alpha is required for gjs (--alpha or config)")
    p, q = _resolve_pair(cfg, ns)
    print(f"{gjs(p, q, alpha):.12g}")
    return 0


def _cmd_chernoff(cfg: _Config | None, ns: argparse.Namespace) -> int:
    p, q = _resolve_pair(cfg, ns)
    print(f"{chernoff(p, q):.12g}")
    return 0


def _cmd_fixed_point(cfg: _Config | None, ns: argparse.Namespace) -> int:
    gamma = ns.gamma if ns.gamma is not None else (cfg.gamma if cfg else None)
    _expect(gamma is not None, "gamma is required for fixed-point (--gamma or config)")
    p, q = _resolve_pair(cfg, ns)
    result = solve_fixed_point(p, q, gamma)
    print(f"theta_star {result.theta_star:.12g}")
    print(f"residual {result.residual:.12g}")
    print(f"iterations {result.iterations}")
    return 0


def _gamma_grid(cfg: _Config) -> list[float]:
    if cfg.gamma_grid is not None:
        return cfg.gamma_grid
    _expect(cfg.gamma is not None, "config needs 'gamma' or 'gamma_grid'")
    return [cfg.gamma]


def _comparison_rows(cfg: _Config) -> list[tuple]:
    p1, p2 = cfg.pair_dists()
    rows = []
    for row in compare_sequential_vs_gutman(p1, p2, _gamma_grid(cfg)):
        rows.append(
            (
                row.gamma,
                row.theta_star,
                row.beta_star,
                row.alpha_used,
                row.sequential_bayes,
                row.gutman_bayes,
                row.margin,
            )
        )
    return rows


def _cmd_exponents(cfg: _Config, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for exponents")
    rows = _comparison_rows(cfg)
    if len(cfg.names) >= 3:
        # one summary row per rate for the full class set: the matched
        # budget is the smallest pairwise root and the fixed-length
        # exponent is evaluated there
        dists = cfg.ordered_dists()
        for gamma in _gamma_grid(cfg):
            thetas = multiclass_thetas(dists, gamma)
            alpha_min = float(min(t for t in thetas.flat if not math.isnan(t)))
            lam = bayes_multiclass_gutman(dists, alpha_min)
            rows.append((gamma, None, None, alpha_min, gamma, lam, gamma - lam))
    _write_csv(ns.out, COMPARISON_COLUMNS, rows)
    return 0


def _cmd_compare_gutman(cfg: _Config, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for compare-gutman")
    _write_csv(ns.out, COMPARISON_COLUMNS, _comparison_rows(cfg))
    return 0


def _report_rows(report: SimulationReport) -> list[tuple]:
    rows = []
    for r in report.rows:
        rows.append(
            (
                r.hypothesis + 1,
                r.trials,
                r.errors,
                r.nodecisions,
                r.error_rate,
                r.mean_T,
                r.stddev_T,
                r.min_T,
                r.max_T,
                r.predicted_mean_T,
                report.master_seed,
            )
        )
    return rows


def _cmd_simulate(cfg: _Config, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for simulate")
    experiment = _experiment(cfg)
    report = estimate(experiment, workers=ns.workers)
    _write_csv(ns.out, REPORT_COLUMNS, _report_rows(report))
    if ns.trace_dir is not None:
        _dump_traces(experiment, ns.trace_dir)
    return 0


def _trace_threshold(experiment: ExperimentConfig) -> float:
    """The threshold a trace's score rows are compared with, on their scale."""
    if experiment.test_kind == "sequential":
        return experiment.sequential_config().threshold
    return experiment.gutman_config().raw_threshold


def _dump_traces(experiment: ExperimentConfig, trace_dir: str) -> None:
    import dataclasses
    import os

    os.makedirs(trace_dir, exist_ok=True)
    if experiment.true_class is None:
        hypotheses = range(experiment.num_classes)
    else:
        hypotheses = [experiment.true_class]
    threshold = _trace_threshold(experiment)
    trials = experiment.trials
    for hyp in hypotheses:
        fixed = dataclasses.replace(experiment, true_class=hyp)
        for lo in range(0, trials, BLOCK_TRIALS):
            batch = range(lo, min(lo + BLOCK_TRIALS, trials))
            for trial, trace in zip(batch, _traced_trials(fixed, batch)):
                path = os.path.join(trace_dir, f"trace_h{hyp + 1}_t{trial}.csv")
                _write_trace_csv(path, trace, threshold)


def _cmd_trace(cfg: _Config, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for trace")
    experiment = _experiment(cfg)
    _expect(
        experiment.true_class is not None,
        "config field 'true_class' must name a distribution for trace",
    )
    trace = run_trial(experiment, cfg.trial_index)
    _write_trace_csv(ns.out, trace, _trace_threshold(experiment))
    return 0


def _write_trace_csv(path: str, trace: TrialTrace, threshold: float) -> None:
    m = trace.scores.shape[1]
    header = (
        ("step",)
        + tuple(f"score_{i + 1}" for i in range(m))
        + ("crossed_flags", "verdict", "gamma_n")
    )
    rows = []
    # the last row is the stopping step; a fixed-length trace has that row only
    last = trace.stopping_time
    first = last - trace.scores.shape[0] + 1
    for step, scores in zip(range(first, last + 1), trace.scores.tolist()):
        flags = "".join(
            "1" if (t is not None and t <= step) else "0"
            for t in trace.crossing_times
        )
        verdict = trace.verdict.label() if step == last else ""
        rows.append((step,) + tuple(scores) + (flags, verdict, threshold))
    _write_csv(path, header, rows)


_COMMANDS = {
    "gjs": _cmd_gjs,
    "chernoff": _cmd_chernoff,
    "fixed-point": _cmd_fixed_point,
    "exponents": _cmd_exponents,
    "compare-gutman": _cmd_compare_gutman,
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqstat",
        description="Sequential and fixed-length classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inline_pair = ("gjs", "chernoff", "fixed-point")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name not in inline_pair, help="JSON config file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--gamma", type=float, help="override the config gamma")
        p.add_argument("--trials", type=int, help="override the config trials")
        p.add_argument("--alpha", type=float, help="override the config alpha")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        if name in inline_pair:
            p.add_argument("--p", help="first distribution, comma-separated weights")
            p.add_argument("--q", help="second distribution, comma-separated weights")
        if name == "simulate":
            p.add_argument("--trace-dir", help="directory for per-trial trace CSVs")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _load_config(ns.config) if ns.config is not None else None
        if cfg is not None:
            _apply_overrides(cfg, ns)
        return _COMMANDS[ns.command](cfg, ns)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SeqstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
