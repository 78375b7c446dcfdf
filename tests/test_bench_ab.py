"""``tools/bench_ab.py`` on canned ``bench/run.py`` output: the JSON it reads
from each run's last line, the summary it makes of alternated pairs, its
``src/`` line split and the record it writes.  No benchmark runs here."""

import importlib.util
import io
import json
import tarfile
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_ab)

BETTER = {"work_per_ref": "higher", "row_ref_p50": "lower"}


def canned(work: float, p50: float, failed: int = 0, attempted: int = 100) -> str:
    """What a ``--trace 0`` run prints: metric lines, then its JSON result."""
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "work_per_ref": {"value": work, "unit": "1/ref"},
            "row_ref_p50": {"value": p50, "unit": "ref"},
        },
    }
    return f"exponent-table seed 7\n  work_per_ref {work} 1/ref\n\n{json.dumps(result)}\n\n"


def test_last_json_reads_the_last_line():
    assert bench_ab.last_json(canned(5.5, 0.2))["metrics"]["work_per_ref"]["value"] == 5.5
    with pytest.raises(ValueError):
        bench_ab.last_json("\n  \n")


def test_summary_of_alternated_pairs():
    # four pairs: the change wins work_per_ref in three, ties one; row_ref_p50
    # (lower is better) is won by the base once
    base = [(5.0, 0.20), (5.2, 0.19), (5.1, 0.21), (5.3, 0.18)]
    change = [(6.0, 0.17), (5.2, 0.16), (6.4, 0.22), (6.1, 0.15)]
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        runs.append({"workload": "exponent-table", "seed": 7, "pair": pair, "side": "base",
                     "result": bench_ab.last_json(canned(*b, failed=int(pair == 1)))})
        runs.append({"workload": "exponent-table", "seed": 7, "pair": pair, "side": "change",
                     "result": bench_ab.last_json(canned(*c))})
    # an unpaired run does not count
    runs.append({"workload": "exponent-table", "seed": 7, "pair": 4, "side": "change",
                 "result": bench_ab.last_json(canned(9.0, 0.1))})
    traced = [{"workload": "exponent-table", "seed": 7, "side": "change",
               "result": {"metrics": {"fixedpoint.iterations_mean": {"value": 5.8}}}}]
    [(key, entry)] = bench_ab.summarize(runs, BETTER, traced).items()
    assert key == "exponent-table/seed7"
    assert entry["pairs"] == 4
    assert entry["pairs_won"] == {
        "work_per_ref": {"change": 3, "base": 0},
        "row_ref_p50": {"change": 3, "base": 1},
    }
    work = entry["change"]["metrics"]["work_per_ref"]
    assert work["runs"] == [6.0, 5.2, 6.4, 6.1]
    assert work["median"] == pytest.approx(6.05)
    assert work["quartiles"] == pytest.approx([5.8, 6.175])
    assert entry["base"]["metrics"]["row_ref_p50"]["median"] == pytest.approx(0.195)
    assert (entry["base"]["failed"], entry["base"]["attempted"]) == (1, 400)
    assert (entry["change"]["failed"], entry["change"]["attempted"]) == (0, 400)
    assert entry["change"]["traced"]["fixedpoint.iterations_mean"]["value"] == 5.8
    assert entry["base"]["traced"] is None


def test_src_loc_split(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        '"""Module.\n\nMore."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    return x  # trailing\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Two\n'
        "\n"
        '    lines."""\n'
        "    y = 1\n"
    )
    assert bench_ab.src_loc(tmp_path) == {
        "code": 4, "docstring": 7, "comment": 1, "blank": 3, "total": 15,
    }


def test_record_alternates_the_order_and_writes_every_field(tmp_path, monkeypatch):
    order = []
    trees = {"base": tmp_path / "base", "change": tmp_path / "change"}
    for tree in trees.values():
        (tree / "src").mkdir(parents=True)
        (tree / "src" / "m.py").write_text("x = 1\n")

    def fake_run(tree, workload, seed, trace):
        side = "base" if tree == trees["base"] else "change"
        order.append((side, trace))
        work = 5.0 if side == "base" else 6.0
        return bench_ab.last_json(canned(work, 0.2))

    def fake_git(*args, cwd=None):
        return {"rev-parse": "a" * 40, "status": ""}[args[0]]

    monkeypatch.setattr(bench_ab, "run_bench", fake_run)
    monkeypatch.setattr(bench_ab, "extract", lambda revision, scratch: trees["base"])
    monkeypatch.setattr(bench_ab, "_git", fake_git)
    monkeypatch.setattr(bench_ab, "ROOT", trees["change"])
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": name, "better": way} for name, way in BETTER.items()]}
    ))
    out = tmp_path / "BENCH.json"
    assert bench_ab.main([
        "--base", "HEAD~1", "--workload", "exponent-table", "--seed", "7", "--trace",
        "--scratch", str(tmp_path / "scratch"), "--out", str(out),
    ]) == 0
    alternated = [("base", 0), ("change", 0), ("change", 0), ("base", 0)] * 5
    assert bench_ab.PAIRS == 10
    assert order == alternated + [("base", 1), ("change", 1)]
    record = json.loads(out.read_text())
    assert set(record) == {"machine", "revisions", "src_loc", "settings", "workloads"}
    assert record["revisions"] == {"base": "a" * 40, "change": "a" * 40}
    assert record["src_loc"]["base"]["code"] == record["src_loc"]["change"]["code"] == 1
    entry = record["workloads"]["exponent-table/seed7"]
    assert record["settings"] == {"pairs": 10, "command": "bench/run.py --trace 0"}
    assert entry["pairs_won"]["work_per_ref"] == {"change": 10, "base": 0}
    assert entry["base"]["traced"]["work_per_ref"]["value"] == 5.0


def test_extract_renames_a_complete_tree_into_place(tmp_path, monkeypatch):
    # an extraction cut after bench/ is written leaves no target behind, so
    # the next call extracts the whole tree again
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        for name in ("bench/run.py", "src/m.py"):
            info = tarfile.TarInfo(name)
            info.size = len(b"x = 1\n")
            tar.addfile(info, io.BytesIO(b"x = 1\n"))
    monkeypatch.setattr(bench_ab.subprocess, "run",
                        lambda *args, **kwargs: SimpleNamespace(stdout=archive.getvalue()))
    revision, scratch = "b" * 40, tmp_path / "scratch"
    extractall = tarfile.TarFile.extractall

    def cut(tar, path, **kwargs):
        (Path(path) / "bench").mkdir()
        (Path(path) / "bench" / "run.py").write_text("x = 1\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(tarfile.TarFile, "extractall", cut)
    with pytest.raises(KeyboardInterrupt):
        bench_ab.extract(revision, scratch)
    assert not (scratch / revision[:12]).exists()
    monkeypatch.setattr(tarfile.TarFile, "extractall", extractall)
    target = bench_ab.extract(revision, scratch)
    assert target == scratch / revision[:12]
    assert (target / "bench" / "run.py").exists() and (target / "src" / "m.py").exists()
