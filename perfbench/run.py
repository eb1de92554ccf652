"""nakao benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from `src/`.
`--trace 0` prints the end-to-end metrics (setup_s, wall_s, us_per_unit,
peak_rss_mb).  `--trace 1` alternates untraced and traced operations and
prints the per-layer metrics plus the tracing overhead.  Lines starting with
`#` are for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One caller, no extra threads: keep BLAS/LAPACK (Gauss-Legendre nodes in
# testfn) single-threaded.  Set before numpy is imported; the set-up probes
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import UNITS, Tracer  # noqa: E402
from workloads import WORK, WORKLOADS, Checked, count_lines  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "us_per_unit": "us",
                    "peak_rss_mb": "MB"}


def import_nakao():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "nakao" / "__init__.py").is_file():
        raise SystemExit(f"error: no nakao package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nakao
    import nakao.cli
    if Path(nakao.__file__).resolve().parent != SRC / "nakao":
        raise SystemExit(f"error: imported nakao from {nakao.__file__}")
    return nakao


def probe(args) -> None:
    """Set-up only: import nakao, build the workload's inputs, report ready."""
    nk = import_nakao()
    WORKLOADS[args.workload].inputs(nk, args.seed, args.smoke)
    print("ready", flush=True)


def setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter until it has imported
    nakao and built the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit("error: set-up probe failed")
    return statistics.median(times)


@dataclass
class Op:
    """One operation: wall time, checks, and (traced) per-layer metrics."""

    wall_s: float
    checked: Checked
    layers: dict | None = None


def run_op(nk, workload, inp, tracer=None) -> Op:
    # start from an empty output directory, so no check reads a file that an
    # earlier operation wrote
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    result = workload.call(nk, inp)
    wall = time.perf_counter() - t0
    try:
        checked = workload.check(inp, result)
    except (OSError, ValueError, KeyError):
        # an output is missing or malformed: every operation of this one failed
        traceback.print_exc()
        n = workload.attempts(inp)
        checked = Checked(1, n, n, "unreadable output")
    layers = None
    if tracer is not None:
        rows = sum(count_lines(Path(p)) - 2 for p in tracer.csv_paths)
        size = sum(os.path.getsize(p) for p in tracer.csv_paths)
        layers = tracer.layers(wall, rows, size)
    return Op(wall, checked, layers)


def measure(nk, workload, inp, budget, tracer=None):
    """Back-to-back rounds until the next one would overrun `budget`.

    A round is one untraced operation, followed by one traced operation when
    a tracer is given, so that drift in the machine's speed affects both
    alike.  There are at least two operations, so that the outputs of two
    repeats can be compared."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_op(nk, workload, inp))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_op(nk, workload, inp, tracer))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds + len(traced) >= 2 and elapsed * (rounds + 1) / rounds > budget:
            return plain, traced


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def machine_facts(nk, workload, inp) -> dict:
    import numpy
    facts = {"python": platform.python_version(), "numpy": numpy.__version__,
             "nproc": os.cpu_count(), "caches_per_cpu0": cache_sizes(),
             "nakao": nk.__version__}
    if "nodes" in inp:
        # computed, not measured: one leapfrog step reads u, u_prev, v,
        # v_prev and the two sources and writes u_next, v_next (float64)
        facts["nodes"] = inp["nodes"]
        facts["computed_bytes_per_step"] = 8 * 8 * inp["nodes"]
    return facts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, checked by invariants only")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.probe:
        probe(args)
        return 0
    nk = import_nakao()
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args)
    inp = workload.inputs(nk, args.seed, args.smoke)
    try:
        plain, traced = measure(nk, workload, inp, args.seconds,
                                Tracer() if args.trace else None)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    ops = plain + traced
    attempted = sum(op.checked.attempted for op in ops)
    failed = sum(op.checked.failed for op in ops)
    digests = {op.checked.digest for op in ops}
    correct = failed == 0 and len(digests) == 1

    walls = [op.wall_s for op in plain]
    print(f"# workload {workload.name} (seed {args.seed}, trace {args.trace}"
          f"{', smoke' if args.smoke else ''}): {workload.why}")
    print("# machine " + json.dumps(machine_facts(nk, workload, inp)))
    q1, q3 = quartiles(walls)
    print(f"# {len(plain)} untraced ops, wall_s median {statistics.median(walls):.6g}"
          f" quartiles {q1:.6g}..{q3:.6g}: " + " ".join(f"{w:.4g}" for w in walls))
    if traced:
        print(f"# {len(traced)} traced ops: "
              + " ".join(f"{op.wall_s:.4g}" for op in traced))
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted}); "
          f"outputs identical across ops: {len(digests) == 1}")

    if args.trace:
        metrics = {}
        for name in traced[0].layers:
            values = [op.layers[name] for op in traced]
            # counts repeat exactly across ops; keep them exact
            same = all(v == values[0] for v in values)
            metrics[name] = values[0] if same else statistics.fmean(values)
        metrics["trace_overhead_s"] = (
            statistics.median(op.wall_s for op in traced)
            - statistics.median(walls))
        units = UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "us_per_unit": statistics.median(
                op.wall_s / op.checked.units * 1e6 for op in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"# {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
