"""Tooling outside the package: the benchmark's tracer wraps nakao functions
by name, and the scripts call the package API; a deleted or renamed function
would otherwise surface only when the benchmark or a script runs."""
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load(path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load read-only
    spec = importlib.util.spec_from_file_location(f"_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _load(SPANS, monkeypatch)
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


def test_lifespan_experiment_script_runs(monkeypatch, capsys):
    script = _load(ROOT / "scripts" / "lifespan_experiment.py", monkeypatch)
    assert script.main(["--h", "0.05"]) == 0
    assert "consistent=True" in capsys.readouterr().out


def test_region_figures_script_runs(monkeypatch, tmp_path):
    script = _load(ROOT / "scripts" / "region_figures.py", monkeypatch)
    assert script.main(["--grid", "5", "--dims", "1,3",
                        "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "region_n1.csv", "region_n1.svg", "region_n3.csv", "region_n3.svg"]
