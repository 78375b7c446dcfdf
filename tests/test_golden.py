"""Golden record: the draws, verdicts and reported numbers of a fixed set of runs.

Every determinism test elsewhere compares a run with another run of the same
tree; this module compares a fixed set of runs with a committed record, so a
change that moves a draw or a verdict fails Tier-1.  Each run is simulated at
seeds 7 and 20191203 with ``TRIALS`` trials per hypothesis:

- the acceptance-09 pair at N = 50 and N = 400, both hypotheses, sequential;
- the acceptance-10 trio at N = 300, sequential, and fixed-length at the
  matched budget ``n_test = round(N / min theta)`` with the multiclass Bayes
  threshold, as the cli-mixed bench workload runs it;
- acceptance 11's |X| = 2 pair at N = 25;
- the zero-weight pair [0, 0.6, 0.4] against [0.3, 0.3, 0.4];
- the acceptance-09 pair at N = 64 with ``gamma * N`` equal to the score a
  class takes on the first test symbol 0 when its training sequence holds
  that symbol 4 times, so that the threshold compare's boundary is hit.

The record holds, per run, a SHA-256 over every trial's stopping time,
verdict code and first crossings and over the integer columns of the
``simulate`` CSV (``trials``, ``errors``, ``nodecisions``, ``min_T``,
``max_T``), plus the matched budget; a one-byte tag per trial, which only
locates the first trial that moved; and the float columns ``mean_T``,
``stddev_T`` and ``predicted_T``, compared at ``FLOAT_TOLERANCE``.  The
``seqstat exponents`` table on the README config is compared at the same
tolerance: solver changes may move floats in their last bits (the largest
such move logged so far is 5.4e-12 relative), never by more.

The record was made with Python 3.11.7 and numpy 2.4.6.  Rewrite it, with
``PYTHONPATH=src python tests/test_golden.py --record``, only for a change
meant to move these values, and log which runs moved and by how much; a
numpy upgrade that moves it is a finding, not a reason to rewrite it.
"""

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from seqstat import (
    Alphabet, ExperimentConfig, bayes_multiclass_gutman, empirical_type, estimate,
    make_distribution, multiclass_thetas, score,
)
from seqstat import cli, simulator

RECORD = Path(__file__).with_name("golden_record.json")
SEEDS = (7, 20191203)
TRIALS = 256
FLOAT_TOLERANCE = 1e-9

NEAR_PAIR = ([0.1, 0.7, 0.2], [0.05, 0.55, 0.4])
TRIO = ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4])
README_CONFIG = {
    "alphabet": [0, 1, 2],
    "distributions": {"P1": NEAR_PAIR[0], "P2": NEAR_PAIR[1]},
    "gamma_grid": [0.005, 0.01, 0.02],
}
# the integer and float columns of the simulate CSV
INTEGER_COLUMNS = ("trials", "errors", "nodecisions", "min_T", "max_T")
FLOAT_COLUMNS = ("mean_T", "stddev_T", "predicted_mean_T")


def matched_budget(dists, gamma, train_len):
    """``(n_test, lambda)`` of the fixed-length run at the sequential test's budget."""
    n_test = round(train_len / float(np.nanmin(multiclass_thetas(dists, gamma))))
    return n_test, bayes_multiclass_gutman(dists, train_len / n_test)


def run_configs():
    """Run name -> keyword arguments of its ``ExperimentConfig``, seed and trials aside."""
    def dists(*weights):
        alphabet = Alphabet(tuple(range(len(weights[0]))))
        return tuple(make_distribution(w, alphabet) for w in weights)

    trio = dists(*TRIO)
    n_test, lam = matched_budget(list(trio), 0.03, 300)
    # N a power of two keeps gamma * N equal to the score it was divided from
    alphabet = trio[0].alphabet
    boundary = score(empirical_type([0] * 4 + [1] * 60, alphabet), empirical_type([0], alphabet))
    return {
        "acc09-N50": dict(distributions=dists(*NEAR_PAIR), gamma=0.02, train_len=50),
        "acc09-N400": dict(distributions=dists(*NEAR_PAIR), gamma=0.02, train_len=400),
        "acc10-sequential": dict(distributions=trio, gamma=0.03, train_len=300),
        "acc10-fixed": dict(
            distributions=trio, gamma=0.03, train_len=300, test_kind="gutman",
            n_test=n_test, gutman_lambda=lam, gutman_mode="scaled",
        ),
        "acc11-N25": dict(distributions=dists([0.8, 0.2], [0.3, 0.7]), gamma=0.05, train_len=25),
        "zero-weight": dict(
            distributions=dists([0.0, 0.6, 0.4], [0.3, 0.3, 0.4]), gamma=0.05, train_len=100,
        ),
        "boundary-N64": dict(distributions=dists(*NEAR_PAIR), gamma=boundary / 64, train_len=64),
    }


def observe(kwargs, seed):
    """A run's record entry: digest, per-trial tags, integer and float columns."""
    cfg = ExperimentConfig(trials=TRIALS, master_seed=seed, true_class=None, **kwargs)
    digest = hashlib.sha256()
    tags = []
    outcomes = simulator._trials(cfg, range(cfg.num_classes), range(TRIALS), record=False)
    for times, codes, firsts, _ in outcomes:
        rows = np.column_stack([times, codes, firsts]).astype("<i8")
        tags.append("".join(hashlib.sha256(row.tobytes()).hexdigest()[:2] for row in rows))
        digest.update(rows.tobytes())
    report = estimate(cfg)
    ints = [[getattr(r, c) for c in INTEGER_COLUMNS] for r in report.rows]
    digest.update(np.array(ints, dtype="<i8").tobytes())
    digest.update(np.array([cfg.n_test or 0], dtype="<i8").tobytes())
    return {
        "sha256": digest.hexdigest(),
        "trials": tags,
        "integers": ints,
        "floats": [[getattr(r, c) for c in FLOAT_COLUMNS] for r in report.rows],
    }


def exponents_table(directory):
    """``seqstat exponents`` on the README config: the CSV's rows as floats."""
    config, out = Path(directory) / "config.json", Path(directory) / "exponents.csv"
    config.write_text(json.dumps(README_CONFIG))
    assert cli.main(["exponents", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        return [[float(x) for x in row] for row in list(csv.reader(handle))[1:]]


def assert_close(got, want, where):
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            assert abs(g - w) <= FLOAT_TOLERANCE * abs(w), (
                f"{where}: row {i} column {j} moved from {w!r} to {g!r}, "
                f"{abs(g - w) / abs(w):.2e} relative"
            )
    assert len(got) == len(want), where


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def configs():
    return run_configs()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(run_configs()))
def test_run_matches_record(record, configs, name, seed):
    key = f"{name}@{seed}"
    want, got = record["runs"][key], observe(configs[name], seed)
    if got["sha256"] != want["sha256"]:
        for h, (g_tags, w_tags) in enumerate(zip(got["trials"], want["trials"])):
            moved = [i // 2 for i in range(0, len(w_tags), 2) if g_tags[i : i + 2] != w_tags[i : i + 2]]
            assert not moved, f"{key}: hypothesis {h + 1} moved first at trial {moved[0]}"
        assert got["integers"] == want["integers"], f"{key}: integer CSV columns moved"
        pytest.fail(f"{key}: digest moved (matched budget or a trial the tags miss)")
    assert_close(got["floats"], want["floats"], f"{key} mean_T/stddev_T/predicted_T")


def test_exponents_table_matches_record(record, tmp_path):
    assert_close(exponents_table(tmp_path), record["exponents"], "seqstat exponents")


def test_matched_budget_is_far_from_a_tie():
    # round(N / min theta) flips on a last-bit move of the root only near a .5
    alphabet = Alphabet((0, 1, 2))
    trio = [make_distribution(w, alphabet) for w in TRIO]
    ratio = 300 / float(np.nanmin(multiclass_thetas(trio, 0.03)))
    assert round(ratio) == 44 and abs(ratio - math.floor(ratio) - 0.5) > 1e-3


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    configs = run_configs()
    with tempfile.TemporaryDirectory() as directory:
        table = exponents_table(directory)
    body = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "runs": {f"{n}@{s}": observe(configs[n], s) for n in configs for s in SEEDS},
        "exponents": table,
    }
    RECORD.write_text(json.dumps(body, indent=1) + "\n")
