"""The attributes the benchmark's traced run wraps must exist.

``perfbench/spans.py`` wraps each entry of its ``BOUNDARIES`` at the module
attribute through which tailtilt's own callers reach it. An attribute that
is renamed or dropped, an unused import included, would only show when a
traced benchmark runs; this test imports the table and checks every entry.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_boundary_names_an_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in spans.BOUNDARIES
               if not hasattr(mod, attr)]
    assert missing == []
