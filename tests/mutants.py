"""Mutant catalogue: small edits to ``src/`` that named tests must catch.

Each entry is one mutant: the module under ``src/seqstat``, the exact text
it replaces (which occurs exactly once there), the replacement, the tests
expected to kill it (pytest node ids) and where it came from.
``tests/test_tooling.py::test_mutants_still_apply`` checks that every old
text still occurs exactly once, so a refactor that moves or removes the
code fails loudly instead of leaving the catalogue stale.  pytest does not
collect this file.

Run it from the repository root::

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named ones

For each mutant the runner copies ``src/`` into a temporary directory,
applies the edit to the copy and runs only the mutant's tests, with
pytest's ``pythonpath`` pointed at the copy; the working tree is never
edited.  It prints one line per mutant: killed (a test failed) or
survived, with the wall time.  It exits 1 if a mutant not marked as a
survivor survives, or if a killer test is missing.  A surviving mutant
stays in the catalogue, marked ``survivor=True``, and is logged as a fault
of the tests; no mutant is removed to make the run pass.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/seqstat
    old: str
    new: str
    killers: tuple[str, ...]
    source: str
    survivor: bool = False


MUTANTS = [
    Mutant(
        "sampler-threshold-strict", "probability.py",
        "idx += uniforms >= c", "idx += uniforms > c",
        ("tests/test_kernel.py::test_threshold_map_on_hand_placed_uniforms",),
        "the threshold map: the golden record does not see it",
    ),
    Mutant(
        "stop-threshold-strict", "classifiers.py",
        "crossed = scores >= cfg.threshold", "crossed = scores > cfg.threshold",
        ("tests/test_golden.py",),
        "the lockstep kernel's stopping rule",
    ),
    Mutant(
        "second-side-reads-mass", "exponents.py",
        "no = (wo - w1 * o1 - w2 * o2) / border",
        "no = (wo - w1 * o1 - w2 * o2 - mass) / border",
        ("tests/test_exponents.py::TestKktSolve::test_step_matches_the_dense_and_exact_solves",),
        "the two-sided KKT solve: the second side has mass 0",
    ),
    Mutant(
        "second-side-no-mass-correction", "exponents.py",
        "return [x - shift for x in d], [x - shift_z for x in z]",
        "return [x - shift for x in d], z",
        ("tests/test_exponents.py::TestCrossingCertificate::test_fused_passes_keep_every_bit",
         "tests/test_exponents.py::TestKktSolve::test_step_matches_the_dense_and_exact_solves"),
        "the two-sided KKT solve: the shift that puts w . z back on 0",
    ),
    Mutant(
        "second-side-sums-swapped", "exponents.py",
        "o1 += a1 * oi\n            o2 += a2 * oi",
        "o1 += a2 * oi\n            o2 += a1 * oi",
        ("tests/test_exponents.py::TestKktSolve::test_step_matches_the_dense_and_exact_solves",
         "tests/test_exponents.py::TestCrossingCertificate::test_fused_passes_keep_every_bit"),
        "the two-sided KKT solve: the second side's Woodbury sums",
    ),
    Mutant(
        "search-infinite-excess-regula-falsi", "divergence.py",
        "bisect = not halved or math.isinf(f_hi - f_lo)", "bisect = not halved",
        ("tests/test_exponents.py::TestCrossingSearch::test_infinite_excess_is_bisected",),
        "FOUND: no test reached _search's bisection on an infinite excess",
    ),
    Mutant(
        "root-no-floor-check", "fixedpoint.py",
        "if lo == BRACKET_LOW and excess(BRACKET_LOW)[0] > 0.0:",
        "if False:",
        ("tests/test_fixedpoint.py::TestNewtonAgainstBisection::test_root_below_bracket_low_raises",),
        "Newton steps in 1/theta for the threshold root: the check at BRACKET_LOW",
    ),
    Mutant(
        "root-zero-slope-divides", "fixedpoint.py",
        "-d_q or math.nan, curvature", "-d_q, curvature",
        ("tests/test_fixedpoint.py::TestNewtonInInverseTheta::test_zero_slope_bisects",),
        "Newton steps in 1/theta for the threshold root: NaN for a zero slope",
    ),
    Mutant(
        "root-no-denominator-guard", "fixedpoint.py",
        "theta = newest / denominator if denominator > 0.0 else math.nan",
        "theta = newest / denominator",
        ("tests/test_fixedpoint.py::TestNewtonInInverseTheta::test_step_past_infinity_bisects",),
        "FOUND: a Newton step whose denominator was exactly 0.0 raised ZeroDivisionError",
    ),
    Mutant(
        "root-no-floor-chord", "fixedpoint.py",
        "if lo == BRACKET_LOW:", "if False:",
        ("tests/test_fixedpoint.py::TestNewtonInInverseTheta::test_near_zero_roots_take_the_chord_to_the_floor",),
        "Newton steps in 1/theta for the threshold root: the chord to the floor",
    ),
    Mutant(
        "root-no-rtsafe-slow-test", "fixedpoint.py",
        "slow = reach == 0.5 and not abs(theta - newest) <= 0.5 * moves[0]",
        "slow = False",
        ("tests/test_fixedpoint.py::TestNewtonInInverseTheta::test_sign_change_between_adjacent_floats",),
        "Newton steps in 1/theta for the threshold root: rtsafe's slow-step test",
    ),
    Mutant(
        "halley-no-curvature", "fixedpoint.py",
        "correction = 1.0 - 0.5 * ratio * curvature / slope", "correction = 1.0",
        ("tests/test_fixedpoint.py::TestHalleySteps::test_step_is_halley_where_its_correction_is_positive",
         "tests/test_search_cost.py::test_threshold_root_evaluations"),
        "Halley steps for the threshold root: Newton's step again",
    ),
    Mutant(
        "halley-correction-sign", "fixedpoint.py",
        "correction = 1.0 - 0.5 * ratio * curvature / slope",
        "correction = 1.0 + 0.5 * ratio * curvature / slope",
        ("tests/test_fixedpoint.py::TestHalleySteps::test_step_is_halley_where_its_correction_is_positive",
         "tests/test_search_cost.py::test_threshold_root_evaluations"),
        "Halley steps for the threshold root: the correction's sign",
    ),
    Mutant(
        "halley-no-positive-guard", "fixedpoint.py",
        "if correction > 0.0:\n            ratio /= correction",
        "if True:\n            ratio /= correction",
        ("tests/test_fixedpoint.py::TestHalleySteps::test_step_is_halley_where_its_correction_is_positive",),
        "Halley steps for the threshold root: Newton's step where the correction is not positive",
    ),
    Mutant(
        "zero-weight-start-doubles", "fixedpoint.py",
        "hi = reverse / gamma if reverse < math.inf else _certified_start(p, q, gamma)",
        "hi = reverse / gamma",
        ("tests/test_fixedpoint.py::TestNewtonInInverseTheta::test_infinite_reverse_divergence_starts_from_the_bound",),
        "the bound's start where D(q || p) = inf: the doubling from 1 again",
    ),
    Mutant(
        "curvature-no-p-only-mass", "divergence.py",
        "curvature = to_m * to_m * (p_only + alpha * (q_only + spread))",
        "curvature = to_m * to_m * alpha * (q_only + spread)",
        ("tests/test_fixedpoint.py::TestHalleySteps::test_curvature_matches_a_50_digit_value",),
        "the evaluator's curvature: the term of mass of p only",
    ),
]


def run(mutant: Mutant) -> tuple[bool, float]:
    """Apply ``mutant`` to a copy of ``src/`` and run its killers there:
    ``(killed, seconds)``.  Raises ``RuntimeError`` where pytest does not
    run the tests (a missing node id, a usage or internal error)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "seqstat" / mutant.module
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: the old text does not occur exactly once")
        path.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={src}", "-o", "addopts=", *mutant.killers]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode not in (0, 1):  # 0: every test passed, 1: some failed
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
    return done.returncode == 1, seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        try:
            killed, seconds = run(mutant)
        except RuntimeError as error:
            print(f"{mutant.name:40s} ERROR  {error}")
            bad += 1
            continue
        verdict = "killed" if killed else "survived" + (" (known)" if mutant.survivor else "")
        print(f"{mutant.name:40s} {verdict:17s} {seconds:6.1f} s  {', '.join(mutant.killers)}",
              flush=True)
        bad += not killed and not mutant.survivor
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
