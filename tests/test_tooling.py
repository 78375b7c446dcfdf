"""The benchmark's hooks into the package still resolve, and nothing leans
on a package the project does not declare.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``TARGETS`` by
name, without a default, and swaps ``seqstat.simulator.ProcessPoolExecutor``
for a traced pool; a name the package drops would only fail a traced
benchmark run, so this checks every one of them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
# Installed in some environments but not declared in pyproject.toml.
UNDECLARED = {"scipy", "mpmath", "hypothesis", "pytest_benchmark"}


def test_no_undeclared_imports():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in UNDECLARED
            ]
    assert found == []


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, attr) for module, attr, _ in spans.TARGETS]
    targets.append(("seqstat.simulator", "ProcessPoolExecutor"))
    missing = [
        (module, attr)
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_comparison_calls_the_crossing_by_name(monkeypatch):
    # bench/spans.py counts exponents.crossings by wrapping this module
    # global; a comparison that computed the crossing inline would read 0
    from seqstat import Alphabet, make_distribution
    from seqstat import exponents

    alphabet = Alphabet((0, 1, 2))
    p1 = make_distribution([0.1, 0.3, 0.6], alphabet)
    p2 = make_distribution([0.45, 0.45, 0.1], alphabet)
    calls = []
    crossing = exponents.gutman_bayes_exponent

    def counting(*args):
        calls.append(args[0])
        return crossing(*args)

    monkeypatch.setattr(exponents, "gutman_bayes_exponent", counting)
    rows = exponents.compare_sequential_vs_gutman(p1, p2, [0.02, 0.05, 0.1])
    assert calls == [row.alpha_used for row in rows]
