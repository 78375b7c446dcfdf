"""Command-line front end.

Subcommands::

    gjs             print the weighted divergence of a configured pair
    chernoff        print the Chernoff information of a configured pair
    fixed-point     print the threshold-equation root for a pair and rate
    exponents       write the exponent comparison CSV (plus multiclass rows)
    compare-gutman  write the binary sequential-versus-fixed-length CSV
    simulate        run the Monte Carlo experiment and write the report CSV
    trace           write the per-step score trace of a single trial

Inputs come from a JSON config (``--config``).  ``--seed``, ``--gamma``,
``--trials`` and ``--alpha`` are merged into the config before anything is
checked, so a flag is checked exactly like the field it replaces.  One
table lists the number fields with whether each must be an integer and
whether it must be positive or nonnegative, and one checker validates every
number the config holds: those fields, each ``gamma_grid`` entry, each
weight and each prior.  JSON booleans, ``NaN`` and ``Infinity`` are not
accepted as numbers.  The scalar pair commands (gjs, chernoff, fixed-point)
also accept the distributions inline as ``--p`` / ``--q`` comma-separated
weights, in which case the config file is optional and the config is the
flags alone.  A rejected weight names its field or flag.  Scalars are
printed with 12 significant digits; CSV numbers use the shortest round-trip
decimal form.  Exit codes: 0 on success, 2 on validation failure, 3 on a
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import astuple

from .classifiers import TrialTrace
from .divergence import chernoff, gjs
from .errors import NumericalError, SeqstatError, ValidationError
from .exponents import (
    bayes_multiclass_gutman,
    compare_sequential_vs_gutman,
)
from .fixedpoint import _multiclass_thetas, solve_fixed_point
from .probability import Alphabet, Distribution, make_distribution
from .simulator import (
    ExperimentConfig,
    SimulationReport,
    _spans,
    _traces,
    estimate,
    run_trial,
)

_TOP_KEYS = {
    "alphabet", "distributions", "gamma", "gamma_grid", "train_len", "cap", "trials",
    "seed", "true_class", "priors", "test", "pair", "alpha", "trial_index",
}
_TEST_KEYS = {"kind", "n_test", "lambda", "mode"}
# Number fields of the config and of its test object: (integer, sign), the
# sign "positive" or "nonnegative".
_NUMBERS = {
    "gamma": (False, "positive"),
    "train_len": (True, "positive"),
    "cap": (True, "positive"),
    "trials": (True, "positive"),
    "seed": (True, "nonnegative"),
    "alpha": (False, "nonnegative"),
    "trial_index": (True, "nonnegative"),
    "test.n_test": (True, "positive"),
    "test.lambda": (False, "nonnegative"),
}

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


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _number(value, field: str, integer: bool = False, sign: str | None = None):
    """``value`` checked as a finite number of the config ``field``.

    An integer field comes back as an ``int`` (JSON ``5.0`` is ``5``); any
    other number comes back as given.  JSON's ``NaN`` and ``Infinity`` are
    rejected.
    """
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"config field {field!r} must be a number, got {value!r}",
    )
    _expect(
        isinstance(value, int) or math.isfinite(value),
        f"config field {field!r} must be finite, got {value!r}",
    )
    if integer:
        _expect(
            isinstance(value, int) or value.is_integer(),
            f"config field {field!r} must be an integer",
        )
        value = int(value)
    if sign is not None:
        _expect(
            value > 0 or (sign == "nonnegative" and value == 0),
            f"config field {field!r} must be {sign}",
        )
    return value


def _name(value, field: str, names: list[str]) -> None:
    _expect(
        isinstance(value, str) and value in names,
        f"config field {field!r} names unknown distribution {value!r}",
    )


def _distribution(weights: list, alphabet: Alphabet, source: str) -> Distribution:
    """``make_distribution``, whose rejection names ``source``: the weights' flag or field."""
    try:
        return make_distribution(weights, alphabet)
    except ValidationError as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown config field: {sorted(unknown)[0]}")
    return raw


def _check_file(cfg: dict) -> None:
    """Check what only a config file holds; weights become :class:`Distribution` objects."""
    _expect("alphabet" in cfg, "config field 'alphabet' is required")
    symbols = cfg["alphabet"]
    scalars = isinstance(symbols, list) and not any(isinstance(s, (list, dict)) for s in symbols)
    _expect(scalars and symbols, "config field 'alphabet' must be a nonempty list of JSON scalars")
    alphabet = Alphabet(tuple(symbols))

    dists = cfg.get("distributions")
    _expect(
        isinstance(dists, dict) and dists,
        "config field 'distributions' must be a nonempty object",
    )
    for name, weights in dists.items():
        _expect(isinstance(weights, list), f"distribution {name!r} must be a list of weights")
        field = f"distributions.{name}"
        checked = [_number(w, field) for w in weights]
        dists[name] = _distribution(checked, alphabet, f"config field {field!r}")
    names = list(dists)

    grid = cfg.get("gamma_grid")
    if grid is not None:
        _expect(
            isinstance(grid, list) and grid,
            "config field 'gamma_grid' must be a nonempty list",
        )
        for gamma in grid:
            _number(gamma, "gamma_grid", sign="positive")

    if cfg.get("true_class") not in (None, "sweep"):
        _name(cfg["true_class"], "true_class", names)

    priors = cfg.get("priors")
    if priors is not None:
        _expect(isinstance(priors, dict), "config field 'priors' must be an object")
        for name, weight in priors.items():
            _name(name, "priors", names)
            _number(weight, f"priors.{name}", sign="nonnegative")
        _expect(set(priors) == set(names), "config field 'priors' must cover every distribution")

    test = cfg.setdefault("test", {"kind": "sequential"})
    _expect(isinstance(test, dict), "config field 'test' must be an object")
    unknown_test = set(test) - _TEST_KEYS
    if unknown_test:
        raise ValidationError(f"unknown config field: test.{sorted(unknown_test)[0]}")
    kind = test.setdefault("kind", "sequential")
    _expect(
        kind in ("sequential", "gutman"),
        f"config field 'test.kind' must be 'sequential' or 'gutman', got {kind!r}",
    )
    mode = test.get("mode", "raw")
    _expect(
        mode in ("raw", "scaled"),
        f"config field 'test.mode' must be 'raw' or 'scaled', got {mode!r}",
    )

    pair = cfg.setdefault("pair", names[:2])
    _expect(
        isinstance(pair, list) and len(pair) == 2,
        "config field 'pair' must list exactly two distribution names",
    )
    for name in pair:
        _name(name, "pair", names)


def _load_config(ns: argparse.Namespace) -> dict:
    """The config file, or ``{}`` without one, with the flags merged in and checked."""
    cfg = {} if ns.config is None else _read_json(ns.config)
    flags = {key: getattr(ns, key) for key in ("seed", "gamma", "trials", "alpha")}
    cfg.update({key: value for key, value in flags.items() if value is not None})
    if ns.config is not None:
        _check_file(cfg)
    for field, (integer, sign) in _NUMBERS.items():
        *outer, key = field.split(".")
        holder = cfg.get(outer[0], {}) if outer else cfg
        if holder.get(key) is not None:
            holder[key] = _number(holder[key], field, integer, sign)
    return cfg


def _experiment(cfg: dict) -> ExperimentConfig:
    for field in ("gamma", "train_len", "trials"):
        _expect(cfg.get(field) is not None, f"config field {field!r} is required")
    _expect(cfg.get("seed") is not None, "config field 'seed' is required (seeds are mandatory)")
    names = list(cfg["distributions"])
    true_class = cfg.get("true_class")
    priors = cfg.get("priors")
    test = cfg["test"]
    return ExperimentConfig(
        distributions=tuple(cfg["distributions"].values()),
        gamma=float(cfg["gamma"]),
        train_len=cfg["train_len"],
        trials=cfg["trials"],
        master_seed=cfg["seed"],
        true_class=None if true_class in (None, "sweep") else names.index(true_class),
        cap=cfg.get("cap"),
        priors=None if priors is None else tuple(priors[name] for name in names),
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
        raise ValidationError(f"{flag} must be a comma-separated list of numbers")
    _expect(len(weights) >= 2, f"{flag} needs at least two weights")
    return weights


def _pair(cfg: dict) -> list[Distribution]:
    return [cfg["distributions"][name] for name in cfg["pair"]]


def _resolve_pair(cfg: dict, ns: argparse.Namespace):
    if ns.p is not None or ns.q is not None:
        _expect(ns.p is not None and ns.q is not None, "--p and --q must be given together")
        p_weights = _parse_weights(ns.p, "--p")
        q_weights = _parse_weights(ns.q, "--q")
        _expect(len(p_weights) == len(q_weights), "--p and --q must have the same length")
        alphabet = Alphabet(tuple(range(len(p_weights))))
        return _distribution(p_weights, alphabet, "--p"), _distribution(q_weights, alphabet, "--q")
    _expect(ns.config is not None, "either --config or --p/--q is required")
    return _pair(cfg)


def _cmd_gjs(cfg: dict, ns: argparse.Namespace) -> int:
    _expect(cfg.get("alpha") is not None, "alpha is required for gjs (--alpha or config)")
    p, q = _resolve_pair(cfg, ns)
    print(f"{gjs(p, q, cfg['alpha']):.12g}")
    return 0


def _cmd_chernoff(cfg: dict, ns: argparse.Namespace) -> int:
    p, q = _resolve_pair(cfg, ns)
    print(f"{chernoff(p, q):.12g}")
    return 0


def _cmd_fixed_point(cfg: dict, ns: argparse.Namespace) -> int:
    _expect(cfg.get("gamma") is not None, "gamma is required for fixed-point (--gamma or config)")
    p, q = _resolve_pair(cfg, ns)
    result = solve_fixed_point(p, q, float(cfg["gamma"]))
    print(f"theta_star {result.theta_star:.12g}")
    print(f"residual {result.residual:.12g}")
    print(f"iterations {result.iterations}")
    return 0


def _gamma_grid(cfg: dict) -> list[float]:
    grid = cfg.get("gamma_grid")
    if grid is None:
        _expect(cfg.get("gamma") is not None, "config needs 'gamma' or 'gamma_grid'")
        grid = [cfg["gamma"]]
    return [float(gamma) for gamma in grid]


def _comparison_rows(cfg: dict) -> list[tuple]:
    # ComparisonRow's fields are in COMPARISON_COLUMNS order
    return [astuple(row) for row in compare_sequential_vs_gutman(*_pair(cfg), _gamma_grid(cfg))]


def _cmd_exponents(cfg: dict, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for exponents")
    rows = _comparison_rows(cfg)
    dists = list(cfg["distributions"].values())
    if len(dists) >= 3:
        # one summary row per rate for the full class set: the matched
        # budget is the smallest pairwise root and the fixed-length
        # exponent is evaluated there
        cap = None
        for gamma in _gamma_grid(cfg):
            thetas, cap = _multiclass_thetas(dists, gamma, cap)
            alpha_min = float(min(t for t in thetas.flat if not math.isnan(t)))
            lam = bayes_multiclass_gutman(dists, alpha_min)
            rows.append((gamma, None, None, alpha_min, gamma, lam, gamma - lam))
    _write_csv(ns.out, COMPARISON_COLUMNS, rows)
    return 0


def _cmd_compare_gutman(cfg: dict, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for compare-gutman")
    _write_csv(ns.out, COMPARISON_COLUMNS, _comparison_rows(cfg))
    return 0


def _report_rows(report: SimulationReport) -> list[tuple]:
    return [
        (r.hypothesis + 1, r.trials, r.errors, r.nodecisions, r.error_rate, r.mean_T,
         r.stddev_T, r.min_T, r.max_T, r.predicted_mean_T, report.master_seed)
        for r in report.rows
    ]


def _cmd_simulate(cfg: dict, ns: argparse.Namespace) -> int:
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
    os.makedirs(trace_dir, exist_ok=True)
    threshold = _trace_threshold(experiment)
    for span in _spans(experiment):
        _, hypotheses, start, _ = span
        for hyp, traces in zip(hypotheses, _traces(span)):
            for trial, trace in enumerate(traces, start):
                path = os.path.join(trace_dir, f"trace_h{hyp + 1}_t{trial}.csv")
                _write_trace_csv(path, trace, threshold)


def _cmd_trace(cfg: dict, ns: argparse.Namespace) -> int:
    _expect(ns.out is not None, "--out is required for trace")
    experiment = _experiment(cfg)
    _expect(
        experiment.true_class is not None,
        "config field 'true_class' must name a distribution for trace",
    )
    trace = run_trial(experiment, cfg.get("trial_index") or 0)
    _write_trace_csv(ns.out, trace, _trace_threshold(experiment))
    return 0


def _write_trace_csv(path: str, trace: TrialTrace, threshold: float) -> None:
    m = trace.scores.shape[1]
    header = ("step", *(f"score_{i + 1}" for i in range(m)), "crossed_flags", "verdict", "gamma_n")
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


# built once per process: parsing is cheap, building is not
@functools.cache
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
    ns = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[ns.command](_load_config(ns), ns)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SeqstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
