"""The attributes the benchmark's traced run wraps must exist.

``perfbench/spans.py`` wraps each entry of its ``BOUNDARIES`` at the module
attribute through which tailtilt's own callers reach it. An attribute that
is renamed or dropped, an unused import included, would only show when a
traced benchmark runs; one test imports the table and checks every entry.
Another checks that ``replicate`` reaches both inverse maps through their
attributes, so that the traced run's map spans open.
"""

import importlib.util
from pathlib import Path

import numpy as np

from tailtilt import estimators
from tailtilt.copulas import CopulaSpec, CornerEvent, vine_preset
from tailtilt.randkit import MarginSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_boundary_names_an_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in spans.BOUNDARIES
               if not hasattr(mod, attr)]
    assert missing == []


def test_replicate_reaches_both_chain_maps_through_their_attributes(monkeypatch):
    # the traced run's two map spans open only if ``estimators`` looks each
    # map up by name when it runs, not through a table bound at import
    calls = {}
    for attr in ("rosenblatt_inverse", "vine_rosenblatt_inverse"):
        def counted(*args, _orig=getattr(estimators, attr), _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(estimators, attr, counted)

    gauss = CopulaSpec("gaussian", (MarginSpec("std-normal"),) * 2,
                       sigma=np.array([[1.0, 0.5], [0.5, 1.0]]))
    estimators.replicate(estimators.ExperimentConfig(
        gauss, CornerEvent("upper", (1.0, 1.0)), "is-t1", n=20, M=2, theta=(0.5, 0.5)))
    assert set(calls) == {"rosenblatt_inverse"}
    estimators.replicate(estimators.ExperimentConfig(
        vine_preset("3d"), CornerEvent("upper", (0.8,) * 3), "naive", n=20, M=2))
    assert set(calls) == {"rosenblatt_inverse", "vine_rosenblatt_inverse"}
