"""Tooling outside the package: the benchmark's tracer wraps nakao functions
by name, and the scripts call the package API; a deleted or renamed function
would otherwise surface only when the benchmark or a script runs."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nakao
from nakao.cli import dispatch
from oracles import assert_bound_matches, lifespan_bound_via_report

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load(path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load read-only
    spec = importlib.util.spec_from_file_location(f"_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # registered while the test runs: dataclasses look their module up there
    monkeypatch.setitem(sys.modules, spec.name, module)
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


def test_tracer_hooks_read_simulate_and_sweep(monkeypatch, tmp_path):
    # the hooks read positional arguments of the traced calls (step's params,
    # run's numerics) and run's result; a signature change must fail here
    spans = _load(SPANS, monkeypatch)
    tracer = spans.Tracer()
    model = ["--n", "1", "--p", "2", "--q", "2", "--h", "0.1"]
    with tracer.installed():
        assert dispatch(["simulate", *model, "--t-max", "2",
                         "--out", str(tmp_path / "sim")]) == 0
    assert tracer.support_excess_h is not None
    assert tracer.counts["pde.node_steps"] > 0
    tracer.reset()
    with tracer.installed():
        assert dispatch(["sweep", *model, "--t-max", "20",
                         "--epsilons", "1,0.8,0.6,0.5",
                         "--out", str(tmp_path / "sweep")]) == 0
    assert tracer.counts["pde.node_steps"] > 0
    assert tracer.counts["lifespan.points"] == 4


@pytest.mark.parametrize("workload", ["ladder", "region-csv", "radial-n3"])
def test_benchmark_ladder_smoke_is_correct(workload):
    # ladder: the benchmark's batched sweep, columns retiring mid-march,
    # traced; region-csv: its perturbed boxes pass region_axes' checks;
    # radial-n3: the one workload that runs pde.run
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--trace", "1", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_benchmark_certify_seed0_matches_reference(monkeypatch):
    # the certify workload's reference inputs, in this process: every c2 and
    # log candidate within the benchmark's tolerance of reference.json
    workloads = _load(ROOT / "perfbench" / "workloads.py", monkeypatch)
    certify = workloads.WORKLOADS["certify"]
    inp = certify.inputs(nakao, 0, False)
    assert inp["reference"]
    checked = certify.check(inp, certify.call(nakao, inp))
    assert checked.attempted == 47
    assert checked.failed == 0


def test_certify_bounds_match_report_reference(monkeypatch):
    # every seed-0 certify point in both constant modes, against the bound
    # that reads the verdict and F1..F4 from critical_values
    workloads = _load(ROOT / "perfbench" / "workloads.py", monkeypatch)
    points = workloads.WORKLOADS["certify"].inputs(nakao, 0, False)["points"]
    assert len(points) == 47
    data = nakao.DataConstants(*workloads.CERTIFY_DATA)
    for n, p, q in points:
        params = nakao.ProblemParams(n, p, q, R=1.0,
                                     epsilon=workloads.CERTIFY_EPS)
        explicit = dict(constant_mode=nakao.ConstantMode.EXPLICIT, data=data,
                        holder_constant=nakao.c2_constant(
                            nakao.PhiEvaluator(n), p, 1.0))
        for kwargs in ({}, explicit):
            assert_bound_matches(nakao.lifespan_upper_bound(params, **kwargs),
                                 lifespan_bound_via_report(params, **kwargs))


def test_region_figures_script_runs(monkeypatch, tmp_path):
    script = _load(ROOT / "scripts" / "region_figures.py", monkeypatch)
    assert script.main(["--grid", "5", "--dims", "1,3",
                        "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "region_n1.csv", "region_n1.svg", "region_n3.csv", "region_n3.svg"]
