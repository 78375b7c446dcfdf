"""The benchmark's hooks into the package still resolve.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``TARGETS`` by
name, without a default, and swaps ``seqstat.simulator.ProcessPoolExecutor``
for a traced pool; a name the package drops would only fail a traced
benchmark run, so this checks every one of them.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
