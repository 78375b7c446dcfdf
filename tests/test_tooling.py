"""The benchmark's hooks into the package still resolve, every public name
resolves and is listed once, nothing leans on a package the project does not
declare, every module imports only the modules below it, every root, report
and crossing of the comparison goes through the names the benchmark wraps,
an import kept only for the benchmark names one of them, ``estimate`` builds no
per-trial objects, no private name in ``src/`` goes unused there, every
symbol is drawn by one sampler, one module defines the relative entropy,
one scalar evaluator computes it, the solvers pass float sequences rather
than arrays, one validator module raises every alphabet mismatch, every
mutant in ``tests/mutants.py`` still applies, and the README's example
config still runs.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``TARGETS`` by
name, without a default, and swaps ``seqstat.simulator.ProcessPoolExecutor``
for a traced pool; a name the package drops would only fail a traced
benchmark run, so this checks every one of them.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
README = ROOT / "README.md"
# Installed in some environments but not declared in pyproject.toml.
UNDECLARED = {"scipy", "mpmath", "hypothesis", "pytest_benchmark"}
# The package's layers, lowest first; a module may import only earlier ones.
LAYERS = ["errors", "probability", "divergence", "fixedpoint", "exponents", "classifiers",
          "simulator", "cli"]


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


def test_imports_follow_the_layers():
    modules = sorted(path.stem for path in (ROOT / "src" / "seqstat").glob("*.py"))
    assert modules == sorted([*LAYERS, "__init__"])
    upward = []
    for name in LAYERS:
        path = ROOT / "src" / "seqstat" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                # "from . import x" names the module in the alias
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [
                    f"{name}:{node.lineno} {target}"
                    for target in targets
                    if target not in LAYERS[: LAYERS.index(name)]
                ]
    assert upward == []


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


def test_public_names_resolve_once():
    seqstat = importlib.import_module("seqstat")
    names = seqstat.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(seqstat, name)] == []


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


def test_comparison_reports_by_name(monkeypatch):
    # bench/spans.py traces the comparison's reports by wrapping this module
    # global; each rate's report gets the one list of gate limits the grid
    # carries from rate to rate
    from seqstat import Alphabet, make_distribution
    from seqstat import exponents

    alphabet = Alphabet((0, 1, 2))
    p1 = make_distribution([0.1, 0.3, 0.6], alphabet)
    p2 = make_distribution([0.45, 0.45, 0.1], alphabet)
    calls = []
    report = exponents.exponent_report

    def recording(*args, **kwargs):
        calls.append((args, kwargs["_limits"]))
        return report(*args, **kwargs)

    monkeypatch.setattr(exponents, "exponent_report", recording)
    grid = [0.02, 0.05, 0.1]
    rows = exponents.compare_sequential_vs_gutman(p1, p2, grid)
    assert [args for args, _ in calls] == [(p1, p2, gamma) for gamma in grid]
    limits = calls[0][1]
    assert all(got is limits for _, got in calls)
    assert len(limits) == 1 and len(rows) == len(grid)


def test_bench_only_imports_are_span_targets():
    # an import kept only for bench/spans.py to wrap (marked noqa: F401)
    # names one of its TARGETS and is read nowhere else in its module; once
    # the module calls the name itself, the import is a real one and loses
    # its noqa
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = {(module, attr) for module, attr, _ in spans.TARGETS}
    marked, read_again = [], []
    for path in sorted((ROOT / "src" / "seqstat").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if "noqa: F401" in lines[alias.lineno - 1]:
                        marked.append((f"seqstat.{path.stem}", name))
                        if name in read:
                            read_again.append(f"{path.stem}:{alias.lineno} {name}")
    assert marked and read_again == []
    assert [target for target in marked if target not in targets] == []


def test_roots_are_solved_by_name(monkeypatch):
    # bench/spans.py traces fixedpoint.solves, solve_ms and residual_max by
    # wrapping these two module globals; a path that solved its roots some
    # other way would drop out of all three
    from seqstat import (
        Alphabet,
        ExperimentConfig,
        compare_sequential_vs_gutman,
        estimate,
        exponent_report,
        make_distribution,
        multiclass_thetas,
    )
    from seqstat import fixedpoint, simulator

    calls = []
    for module in (fixedpoint, simulator):
        solve = module.solve_fixed_point

        def recording(*args, _module=module.__name__, _solve=solve):
            calls.append(_module)
            return _solve(*args)

        monkeypatch.setattr(module, "solve_fixed_point", recording)
    alphabet = Alphabet((0, 1, 2))
    pair = [make_distribution(w, alphabet) for w in ([0.1, 0.7, 0.2], [0.05, 0.55, 0.4])]
    trio = [
        make_distribution(w, alphabet)
        for w in ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4])
    ]
    cfg = ExperimentConfig(distributions=tuple(pair), gamma=0.02, train_len=40, trials=8, master_seed=7)
    runs = {
        "exponent_report": (lambda: exponent_report(*pair, 0.02), 2 * ["seqstat.fixedpoint"]),
        "multiclass_thetas": (lambda: multiclass_thetas(trio, 0.03), 6 * ["seqstat.fixedpoint"]),
        "compare_sequential_vs_gutman": (
            lambda: compare_sequential_vs_gutman(*pair, [0.01, 0.02]),
            4 * ["seqstat.fixedpoint"],
        ),
        # the predicted mean length of each hypothesis of the sweep
        "estimate": (lambda: estimate(cfg), 2 * ["seqstat.simulator"]),
    }
    got = {}
    for name, (run, _) in runs.items():
        calls.clear()
        run()
        got[name] = list(calls)
    assert got == {name: want for name, (_, want) in runs.items()}


def test_one_relative_entropy():
    # kl and entropy live beside the divergence evaluator, which they read,
    # and a root's gate and residual read the solve's own evaluator: one D
    # for the gate and the search
    def names(node):
        return getattr(node, "attr", getattr(node, "id", None))

    homes = []
    for path in sorted((ROOT / "src" / "seqstat").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        homes += [
            (node.name, path.stem)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("kl", "entropy")
        ]
        if path.stem == "probability":
            logs = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and names(node.func) in ("log", "log1p")
            ]
            assert logs == []
        if path.stem == "fixedpoint":
            [solve] = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "solve_fixed_point"
            ]
            called = {names(node.func) for node in ast.walk(solve) if isinstance(node, ast.Call)}
            assert called & {"kl", "gjs", "kl_array", "gjs_array"} == set()
    assert sorted(homes) == [("entropy", "divergence"), ("kl", "divergence")]


def test_one_evaluator():
    # one divergence evaluator, the scalar loop in divergence.py: the array
    # forms and the threshold-equation solver call it, and divergence.py
    # keeps no numpy log or exp beside it (the numpy forms are the oracle's)
    def names(node):
        return getattr(node, "attr", getattr(node, "id", None))

    homes = []
    callers = set()
    for path in sorted((ROOT / "src" / "seqstat").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_mixture_divergences":
                    homes.append(path.stem)
                if any(
                    isinstance(call, ast.Call) and names(call.func) == "_mixture_divergences"
                    for call in ast.walk(node)
                ):
                    callers.add(node.name)
        if path.stem == "divergence":
            vectorised = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "np"
                and node.attr in ("log", "log1p", "exp", "expm1")
            ]
            assert vectorised == []
    assert homes == ["divergence"]
    assert {"kl_array", "gjs_array", "solve_fixed_point"} <= callers


def test_no_dense_solver():
    # the relaxation's KKT step is the scalar Woodbury solve in exponents.py;
    # the dense np.linalg solve it replaced lives only in tests/oracle.py
    uses = [
        f"{path.stem}:{line}"
        for path in sorted((ROOT / "src" / "seqstat").glob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if "linalg" in text
    ]
    assert uses == []


def test_solvers_pass_float_sequences():
    # the pair evaluator, the threshold root and the fixed-length programs
    # take a distribution's weights as they are and pass lists of floats
    # between them: divergence.py and exponents.py import no numpy, and no
    # solver module converts a value to or from an array (multiclass_thetas
    # fills its public matrix with np.full)
    found = []
    for name in ("divergence", "fixedpoint", "exponents"):
        path = ROOT / "src" / "seqstat" / f"{name}.py"
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if name != "fixedpoint":
                found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] == "numpy"]
        found += [
            f"{name}:{line} {token}"
            for line, row in enumerate(text.splitlines(), 1)
            for token in ("as_array", ".tolist()", "np.array(", "np.asarray(")
            if token in row
        ]
    assert found == []


def test_one_bracketed_search(monkeypatch):
    # every multiplier search in the package and Chernoff's runs the one
    # search in seqstat.divergence, looked up in the caller's own globals;
    # the Bayes crossing and the threshold root run none: the crossing's
    # joint Newton steps bisect its bracket themselves where a step is
    # refused, as the first one is against a point mass at alpha = 10, and
    # the root takes monotone Newton steps in 1 / theta from D(q || p) /
    # gamma, on a pair with D(q || p) = inf from the doubling
    from seqstat import (
        Alphabet,
        chernoff,
        constrained_kl_min,
        divergence,
        gjs,
        gutman_type2_exponent,
        make_distribution,
        solve_fixed_point,
    )
    from seqstat.exponents import _bayes_crossing

    calls = []
    search = divergence._search

    def recording(*args):
        calls.append(args)
        return search(*args)

    patched = []
    for name in LAYERS:
        module = importlib.import_module(f"seqstat.{name}")
        if getattr(module, "_search", None) is search:
            monkeypatch.setattr(module, "_search", recording)
            patched.append(name)
    assert patched == ["divergence", "exponents"]
    alphabet = Alphabet((0, 1, 2))
    p1 = make_distribution([0.1, 0.7, 0.2], alphabet)
    p2 = make_distribution([0.05, 0.55, 0.4], alphabet)
    point = make_distribution([1.0, 0.0, 0.0], alphabet)
    cap = chernoff(p1, p2)
    runs = {
        # an interior pair: the optimal eta lies inside (0, 1)
        "chernoff": lambda: chernoff(p1, p2),
        "constrained_kl_min": lambda: constrained_kl_min(p1, p2, 0.5 * cap),
        "gutman_type2_exponent": lambda: gutman_type2_exponent(1.0, 0.5 * gjs(p1, p2, 1.0), p1, p2),
    }
    silent = []
    for name, run in runs.items():
        before = len(calls)
        run()
        if len(calls) == before:
            silent.append(name)
    assert silent == []
    calls.clear()
    cert = _bayes_crossing(10.0, p1, point)
    assert cert.relaxations > 0 and calls == []
    roots = [solve_fixed_point(p1, p2, 0.02), solve_fixed_point(point, p1, 0.02)]
    assert [root.iterations > 0 for root in roots] == [True, True] and calls == []


def test_no_private_name_is_left_unused():
    # every private function, class and method (a method of a private class
    # counts as private) and every module constant defined in src/ is read
    # somewhere in src/ outside its own definition: a slow path that a fast
    # one replaced lives on as a reference in tests/oracle.py, not as an
    # unused name in the package.  A method counts as read wherever an
    # attribute of its name is
    trees = {
        path.relative_to(ROOT): ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (path, f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                    and (node.name.startswith("_") or item.name.startswith("_"))
                ]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (path, target.id, node)
                    for target in targets
                    if isinstance(target, ast.Name) and not target.id.startswith("__")
                    and (target.id.startswith("_") or target.id.isupper())
                ]
    read = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                read.append((path, node.lineno, node.attr))
    unused = [
        f"{path}:{node.lineno} {name}"
        for path, name, node in defined
        if not any(
            used == name.split(".")[-1]
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, used in read
        )
    ]
    assert len(defined) > 100
    assert unused == []


def test_one_sampler():
    # symbols come from the threshold map on the uniforms of one function;
    # the binary-search lookup it replaced lives only in tests/oracle.py
    searches = []
    draws = []
    home = None
    for path in sorted((ROOT / "src" / "seqstat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if getattr(node, "attr", getattr(node, "id", None)) == "searchsorted":
                searches.append(f"{path.stem}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "random":
                draws.append((path.stem, node.lineno))
            if getattr(node, "name", None) == "_stream_uniforms" and path.stem == "probability":
                home = range(node.lineno, node.end_lineno + 1)
    assert searches == []
    assert draws and all(stem == "probability" and line in home for stem, line in draws)


def test_mutants_still_apply():
    # every catalogued mutant edits text that occurs exactly once in its
    # module, and every test named to kill it is defined in its file
    import mutants

    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        text = (ROOT / "src" / "seqstat" / mutant.module).read_text()
        assert text.count(mutant.old) == 1 and mutant.new != mutant.old, mutant.name
        for killer in mutant.killers:
            path, *names = killer.split("::")
            source = (ROOT / path).read_text()
            assert all(re.search(rf"^\s*(class|def) {name}\b", source, re.M) for name in names), killer


def test_one_alphabet_check():
    # the class-set validator in probability.py is the only code that
    # raises AlphabetMismatch; every other module calls it
    built = []
    for path in sorted((ROOT / "src" / "seqstat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "AlphabetMismatch":
                    built.append(path.stem)
    assert built and set(built) == {"probability"}


def test_one_list_of_batches():
    # simulator.py alone cuts a run into batches: the CLI never names the
    # batch size, and only the summary and trace forms of a span call _trials
    def names(node):
        return {getattr(node, field, None) for field in ("id", "name", "attr")}

    cli = ast.parse((ROOT / "src" / "seqstat" / "cli.py").read_text())
    assert [node.lineno for node in ast.walk(cli) if "BLOCK_TRIALS" in names(node)] == []
    calls = []
    homes = []
    for path in sorted((ROOT / "src" / "seqstat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "_trials" in names(node.func):
                calls.append((path.stem, node.lineno))
            if path.stem == "simulator" and getattr(node, "name", None) in ("_batch", "_traces"):
                homes.append(range(node.lineno, node.end_lineno + 1))
    assert len(homes) == 2 and len(calls) == 2
    assert all(stem == "simulator" and any(line in home for home in homes) for stem, line in calls)


class _Forbidden:
    """Stands in for a per-trial class; any use fails the run."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} built on the estimate path")

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} used on the estimate path")


def test_estimate_builds_no_per_trial_objects(monkeypatch):
    # estimate reduces array outcomes; traces and verdicts are built only
    # for run_trial and --trace-dir.  The pinned rows are the reports of the
    # per-trial implementation this replaced: (hypothesis, trials, errors,
    # nodecisions, mean_T, stddev_T, min_T, max_T), then the Bayes rate.
    from seqstat import Alphabet, ExperimentConfig, estimate, make_distribution
    from seqstat import classifiers, simulator

    for module in (classifiers, simulator):
        for name in ("TrialTrace", "Verdict"):
            monkeypatch.setattr(module, name, _Forbidden(name))
    alphabet = Alphabet((0, 1, 2))
    pair = ([0.1, 0.7, 0.2], [0.05, 0.55, 0.4])
    trio = ([0.1, 0.7, 0.2], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4])

    def config(weights, **fields):
        dists = tuple(make_distribution(w, alphabet) for w in weights)
        return ExperimentConfig(distributions=dists, master_seed=7, trials=300, **fields)

    runs = [
        (
            # both classes hit the cap (N^2 = 1600) on some trials
            config(pair, gamma=0.05, train_len=40),
            [
                (0, 300, 80, 13, 42.13, 223.80391807521912, 1, 1600),
                (1, 300, 100, 14, 58.99666666666667, 272.4460671777523, 1, 1600),
            ],
            0.3,
        ),
        (
            config(pair, gamma=0.05, train_len=40, test_kind="gutman", n_test=30, gutman_lambda=0.02),
            [(0, 300, 169, 0, 30.0, 0.0, 30, 30), (1, 300, 37, 0, 30.0, 0.0, 30, 30)],
            0.3433333333333333,
        ),
        (
            config(
                trio, gamma=0.03, train_len=300, test_kind="gutman", n_test=44,
                gutman_lambda=0.0123, gutman_mode="scaled",
            ),
            [
                (0, 300, 14, 14, 44.0, 0.0, 44, 44),
                (1, 300, 14, 14, 44.0, 0.0, 44, 44),
                (2, 300, 11, 11, 44.0, 0.0, 44, 44),
            ],
            0.043333333333333335,
        ),
    ]
    for cfg, rows, bayes in runs:
        report = estimate(cfg, workers=1)
        got = [
            (r.hypothesis, r.trials, r.errors, r.nodecisions, r.mean_T, r.stddev_T, r.min_T, r.max_T)
            for r in report.rows
        ]
        assert (got, report.bayes_error_rate) == (rows, bayes)


@pytest.mark.parametrize(
    "command",
    [["exponents"], ["compare-gutman"], ["gjs"], ["simulate", "--trials", "8"]],
    ids=lambda command: command[0],
)
def test_readme_config_runs(tmp_path, command):
    # the JSON block under "A config that exercises most commands"
    from seqstat.cli import main

    text = README.read_text()
    after = text[text.index("A config that exercises most commands") :]
    block = re.search(r"```json\n(.*?)```", after, re.DOTALL).group(1)
    config = tmp_path / "config.json"
    config.write_text(block)
    out = tmp_path / "out.csv"
    assert main([command[0], "--config", str(config), "--out", str(out), *command[1:]]) == 0
