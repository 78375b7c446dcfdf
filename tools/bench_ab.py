"""A/B record of the benchmark: alternated ``bench/run.py`` runs of two trees.

Usage, from the repository root::

    python3 tools/bench_ab.py --base HEAD~1 --workload exponent-table \\
        --seed 7 --seed 20191203 --scratch /tmp/bench-ab --out BENCH_<pr>.json

The base revision is extracted with ``git archive`` into a directory under
``--scratch``; the repository's own checkout, index and ``.git`` are left as
they are, so a cut run leaves nothing to prune.  For every workload and
seed the script runs ``bench/run.py --trace 0``, at the benchmark's own
length, in the base tree and in the working tree ``PAIRS`` times, the base
first in even pairs and the working tree first in odd ones, and reads the
JSON result on each run's last output line.  ``--trace`` adds one
``--trace 1`` run per side for the per-layer metrics.

The record (``--out``) holds, per workload and seed and per side, every
end-to-end metric's runs, median and quartiles, the pairs each side won
(ties count for neither; ``better`` comes from ``BENCHMARK.json``),
``failed`` and ``attempted`` summed over the runs, and the traced run's
metrics; and, once, the machine, both revisions and ``src_loc`` for both
trees: the code, docstring, comment and blank lines of ``src/``, where a
blank line inside a docstring counts as docstring.  Standard library and
numpy only; nothing under ``bench/`` is read but its output.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10  # the fewest alternated pairs a claimed gain is judged on


def last_json(output: str) -> dict:
    """The JSON object on the last non-empty line of a ``bench/run.py`` run's output."""
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def src_loc(src: Path) -> dict:
    """Code, docstring, comment and blank lines of the ``*.py`` files under ``src``.

    A docstring is the string expression that opens a module, class or
    function body, every line of it, blank ones included; a comment line
    holds only a comment; a blank line outside docstrings holds nothing.
    """
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        docstring = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = body[0] if body else None
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                        and isinstance(first.value.value, str):
                    docstring.update(range(first.lineno, first.end_lineno + 1))
        comments = {
            token.start[0]
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.COMMENT and token.line.lstrip().startswith("#")
        }
        for number, line in enumerate(text.splitlines(), 1):
            if number in docstring:
                counts["docstring"] += 1
            elif not line.strip():
                counts["blank"] += 1
            elif number in comments:
                counts["comment"] += 1
            else:
                counts["code"] += 1
    counts["total"] = sum(counts.values())
    return counts


def _spread(values: list[float]) -> dict:
    low, high = np.percentile(values, [25, 75])
    return {"runs": values, "median": statistics.median(values),
            "quartiles": [float(low), float(high)]}


def summarize(runs: list[dict], better: dict[str, str], traced: list[dict] = ()) -> dict:
    """The record's per-workload part from the runs' results.

    ``runs`` holds one dict per run: ``workload``, ``seed``, ``pair``, ``side``
    (``"base"`` or ``"change"``) and ``result``, the run's JSON result;
    ``traced`` the same for ``--trace 1`` runs.  ``better`` maps each
    end-to-end metric to ``"higher"`` or ``"lower"``.  A pair is won by the
    side whose value is better; equal values count for neither.
    """
    out: dict[str, dict] = {}
    keys = sorted({(run["workload"], run["seed"]) for run in runs})
    for workload, seed in keys:
        mine = [run for run in runs if (run["workload"], run["seed"]) == (workload, seed)]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [by_pair[k] for k in sorted(by_pair) if set(by_pair[k]) == set(SIDES)]
        entry = {"pairs": len(pairs)}
        for side in SIDES:
            results = [pair[side] for pair in pairs]
            entry[side] = {
                "attempted": sum(result["attempted"] for result in results),
                "failed": sum(result["failed"] for result in results),
                "metrics": {
                    name: _spread([result["metrics"][name]["value"] for result in results])
                    for name in better
                },
                "traced": next(
                    (run["result"]["metrics"] for run in traced
                     if (run["workload"], run["seed"], run["side"]) == (workload, seed, side)),
                    None,
                ),
            }
        entry["pairs_won"] = {}
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            gains = [
                sign * (pair["change"]["metrics"][name]["value"]
                        - pair["base"]["metrics"][name]["value"])
                for pair in pairs
            ]
            entry["pairs_won"][name] = {
                "change": sum(gain > 0.0 for gain in gains),
                "base": sum(gain < 0.0 for gain in gains),
            }
        out[f"{workload}/seed{seed}"] = entry
    return out


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ("git", *args), cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(revision: str, scratch: Path) -> Path:
    """The tree of ``revision``, extracted once under ``scratch`` with ``git archive``.

    The tree is extracted into a temporary sibling and renamed into place, so
    an existing target is always complete, even after a cut run.
    """
    target = scratch / revision[:12]
    if not target.exists():
        archive = subprocess.run(
            ("git", "archive", "--format=tar", revision), cwd=ROOT, check=True, capture_output=True
        ).stdout
        scratch.mkdir(parents=True, exist_ok=True)
        partial = Path(tempfile.mkdtemp(prefix=f"{target.name}.partial-", dir=scratch))
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial, filter="data")
        partial.rename(target)
    return target


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``: its JSON result."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return last_json(done.stdout)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="revision to compare the working tree with")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--trace", action="store_true", help="add one traced run per side")
    parser.add_argument("--scratch", type=Path, required=True, help="directory for the base tree")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    base_revision = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    trees = {"base": extract(base_revision, args.scratch.resolve()), "change": ROOT}
    runs, traced = [], []
    for workload in args.workload:
        for seed in args.seed:
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_bench(trees[side], workload, seed, 0)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "result": result})
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"work_per_ref {result['metrics']['work_per_ref']['value']:.4g}",
                          file=sys.stderr, flush=True)
            if args.trace:
                for side in SIDES:
                    result = run_bench(trees[side], workload, seed, 1)
                    traced.append({"workload": workload, "seed": seed, "side": side,
                                   "result": result})
    head = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain", "--", "src", "bench"):
        head += "+dirty"
    record = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "revisions": {"base": base_revision, "change": head},
        "src_loc": {side: src_loc(tree / "src") for side, tree in trees.items()},
        "settings": {"pairs": PAIRS, "command": "bench/run.py --trace 0"},
        "workloads": summarize(runs, better, traced),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for key, entry in record["workloads"].items():
        base, change = (entry[side]["metrics"]["work_per_ref"]["median"] for side in SIDES)
        won = entry["pairs_won"]["work_per_ref"]["change"]
        print(f"{key}: work_per_ref {base:.4g} -> {change:.4g}, "
              f"{won} of {entry['pairs']} pairs won")
    return 0


if __name__ == "__main__":
    sys.exit(main())
