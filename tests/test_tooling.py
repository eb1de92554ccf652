"""The benchmark's tracer wraps nakao functions by name; a deleted or renamed
function would otherwise surface only when the benchmark runs."""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load read-only
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, attrs in spans.TARGETS.items():
        module = importlib.import_module(f"nakao.{mod_name}")
        for attr in attrs:
            # "Class.method" is wrapped on the class itself
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or not callable(vars(holder).get(name)):
                missing.append(f"{mod_name}.{attr}")
    assert not missing
