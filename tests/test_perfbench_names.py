"""The epkit attributes the benchmark harness reaches by name exist.

perfbench/spans.py wraps module attributes by name for the traced run and
perfbench/worker.py calls a few directly; a rename or deletion in epkit would
otherwise show only when `perfbench/run.py --trace 1` fails.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_and_called_attribute_exists():
    wrapped = [(layer, attr) for layer, entries in _spans_module().WRAPPED.items() for attr, _hook in entries]
    called = [("config", "rpca_config"), ("synth", "gen_lowrank_sparse"), ("rpca", "decompose")]
    missing = [
        f"epkit.{layer}.{attr}"
        for layer, attr in wrapped + called
        if not callable(getattr(importlib.import_module(f"epkit.{layer}"), attr, None))
    ]
    assert missing == []
