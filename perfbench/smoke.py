"""Fast self-test of the benchmark: every workload at a tiny size, untraced and
traced, must pass its checks and print every metric of BENCHMARK.json with its
unit; and the benchmark must refuse to run without the package sources.

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def check_workload(name: str, trace: int, spec: dict) -> None:
    proc = run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    for key, m in metrics.items():
        assert m["unit"] == units[key], key
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        assert f"# {key} " in proc.stdout, key
    if trace:
        v = {k: m["value"] for k, m in metrics.items()}
        selfs = sum(v[f"{mod}.self_s"] for mod in
                    ("pde", "lifespan", "exponents", "output", "cli",
                     "slicing", "testfn"))
        assert math.isclose(selfs + v["untraced_s"], v["traced_wall_s"],
                            rel_tol=1e-9), (selfs, v)
        assert 0.0 <= v["untraced_s"] < 0.5 * v["traced_wall_s"], v
    else:
        assert all(m["value"] > 0 for m in metrics.values()), metrics
    print(f"ok {name} trace={trace}")


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".perfbench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "ladder", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses without sources")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace, spec)
    check_refuses_without_sources(spec)


if __name__ == "__main__":
    main()
