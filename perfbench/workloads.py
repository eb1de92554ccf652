"""The four benchmark workloads: seeded inputs, one timed operation each, and
the checks on its outputs.

Every workload is a closed loop: one caller in one process runs operations
back to back, with no process pool (jobs=1) and no extra threads.  Seed 0 is
the reference input set and is checked against `reference.json`; any other
seed perturbs the inputs deterministically and is checked by invariants.
`smoke=True` shrinks every workload to a size that runs in about a second.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Benchmark outputs go here, relative to the checkout root.  The name is fixed
# because the region CSV embeds it in its config line, which the reference
# SHA-256 covers.
WORK = Path(".perfbench_work")
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Certify uses fixed data constants: the ones the integration test measures
# from the n=1, p=q=2, eps=0.2, h=0.02 run, rounded to three digits.
CERTIFY_DATA = (2.61, 2.01, 1.21)
CERTIFY_EPS = 0.1
CERTIFY_AXIS = (1.1, 1.3, 1.5, 2.0)

# Loose enough for an O(h^2) change of the radial stencil (h = 0.01 gives
# ~1e-4), tight enough to catch a wrong operator or a lost source term.
RADIAL_REL_TOL = 1e-2
# The balance residuals are second order: at seed 0 (h = 0.01) they are
# 3.0e-6 (u) and 1.1e-6 (v), so h^2 leaves a margin of ~30.
RADIAL_RES_PER_H2 = 1.0
# Quadrature changes that keep the 1e-12 order criterion stay far inside this.
CERTIFY_REL_TOL = 1e-8


@dataclass
class Checked:
    """What the checks made of one operation's outputs."""

    units: int      # leapfrog steps, CSV rows or certify points
    attempted: int
    failed: int
    digest: str     # hash of the outputs; equal across repeats of one input


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(b), 1e-300)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


class CliWorkload:
    """A workload whose operation is one `nakao` command line."""

    def attempts(self, inp: dict) -> int:
        return 1

    def call(self, nk, inp: dict) -> int:
        return nk.cli.dispatch(inp["argv"])


class Ladder(CliWorkload):
    name = "ladder"
    why = ("short runs that end at blow-up, so only ~14% of the full-interval "
           "grid is inside the light cone and per-call numpy overhead dominates")
    base_eps = (0.4, 0.3, 0.2, 0.15, 0.1)

    def inputs(self, nk, seed: int, smoke: bool) -> dict:
        eps = list(self.base_eps)
        if seed:
            rng = random.Random(seed)
            eps = [_jitter(rng, e, 0.01) for e in eps]
        h = 0.05 if smoke else 0.02
        argv = ["sweep", "--n", "1", "--p", "2", "--q", "2", "--R", "1",
                "--epsilons", ",".join(repr(e) for e in eps),
                "--h", repr(h), "--cfl", "0.45", "--t-max", "60",
                "--threshold", "1e8", "--jobs", "1",
                "--out", str(WORK / "ladder")]
        return {"argv": argv, "eps": eps, "dt": 0.45 * h,
                "nodes": 2 * math.ceil(61.5 / h) + 1,
                "reference": seed == 0 and not smoke}

    def attempts(self, inp: dict) -> int:
        return len(inp["eps"])

    def check(self, inp: dict, rc: int) -> Checked:
        raw = (WORK / "ladder.json").read_bytes()
        doc = json.loads(raw)
        eps, ref = inp["eps"], REFERENCE["ladder"]["t_values"]
        got = dict(zip(doc.get("epsilons", []), doc.get("t_values", [])))
        sane = rc == 0 and doc.get("consistent") is True \
            and not doc.get("inconclusive")
        failed, prev, steps = 0, 0.0, 0
        for i, e in enumerate(eps):
            t = got.get(e)
            ok = sane and t is not None and t > prev
            if ok and inp["reference"]:
                ok = t == ref[i]
            failed += not ok
            if t is not None:
                prev = t
                steps += round(t / inp["dt"])
        digest = hashlib.sha256(raw + (WORK / "ladder.csv").read_bytes())
        return Checked(max(steps, 1), len(eps), failed, digest.hexdigest())


class RadialN3(CliWorkload):
    name = "radial-n3"
    why = ("n=3 run with no blow-up, so all 8,889 steps of the n>=2 stencil "
           "and its per-step diagnostics run; one epsilon, ~50% active nodes")

    def inputs(self, nk, seed: int, smoke: bool) -> dict:
        eps = 0.1 if not seed else _jitter(random.Random(seed), 0.1, 0.05)
        h, t_max = (0.05, 5.0) if smoke else (0.01, 40.0)
        argv = ["simulate", "--n", "3", "--p", "2", "--q", "2", "--R", "1",
                "--epsilon", repr(eps), "--h", repr(h), "--cfl", "0.45",
                "--t-max", repr(t_max), "--threshold", "1e8",
                "--out", str(WORK / "radial")]
        return {"argv": argv, "steps": int(round(t_max / (0.45 * h))),
                "res_bound": RADIAL_RES_PER_H2 * h * h,
                "nodes": math.ceil((1.0 + t_max + max(0.5, 4 * h)) / h) + 1,
                "reference": seed == 0 and not smoke}

    def check(self, inp: dict, rc: int) -> Checked:
        meta_raw = (WORK / "radial.meta.json").read_bytes()
        csv_raw = (WORK / "radial.csv").read_bytes()
        meta = json.loads(meta_raw)
        rows = [[float(c) for c in line.split(",")]
                for line in csv_raw.decode().splitlines()[2:]]
        ok = (rc == 0 and meta["blowup_reason"] == "none"
              and meta["t_blowup"] is None
              and len(rows) == inp["steps"] + 1
              and all(math.isfinite(v) for row in rows for v in row)
              and meta["res_u_max"] < inp["res_bound"]
              and meta["res_v_max"] < inp["res_bound"])
        if ok and inp["reference"]:
            ref = REFERENCE["radial-n3"]
            ok = _close(rows[-1][1], ref["U_end"], RADIAL_REL_TOL) \
                and _close(rows[-1][2], ref["V_end"], RADIAL_REL_TOL)
        digest = hashlib.sha256(meta_raw + csv_raw).hexdigest()
        return Checked(max(len(rows) - 1, 1), 1, int(not ok), digest)


class RegionCsv(CliWorkload):
    name = "region-csv"
    why = ("1e6-row p-q classification where CSV writing (float repr per "
           "cell) is ~99% of the time and scan_arrays ~1%; largest peak memory")

    def inputs(self, nk, seed: int, smoke: bool) -> dict:
        grid = 40 if smoke else 1000
        argv = ["region", "--n", "2", "--grid", str(grid)]
        if seed:
            rng = random.Random(seed)
            argv += ["--p-min", repr(round(1.005 * (1 + rng.uniform(0, 0.02)), 6)),
                     "--p-max", repr(_jitter(rng, 6.0, 0.02)),
                     "--q-min", repr(round(1.005 * (1 + rng.uniform(0, 0.02)), 6)),
                     "--q-max", repr(_jitter(rng, 6.0, 0.02))]
        argv += ["--out", str(WORK / "region")]
        return {"argv": argv, "cells": grid * grid,
                "reference": seed == 0 and not smoke}

    def check(self, inp: dict, rc: int) -> Checked:
        path = WORK / "region.csv"
        rows = count_lines(path) - 2
        with open(path, "rb") as fh:
            fh.readline()
            header = fh.readline()
        digest = _sha256(path)
        ok = (rc == 0 and rows == inp["cells"]
              and header == b"p,q,alphaN,F,verdict,binding_component\n")
        if ok and inp["reference"]:
            ok = digest == REFERENCE["region-csv"]["sha256"]
        return Checked(max(rows, 1), 1, int(not ok), digest)


class Certify:
    name = "certify"
    why = ("explicit-constant chain: one c2_constant (Phi quadrature) per "
           "(n, p) plus slicing bounds per blow-up point; pde and output unused")

    def inputs(self, nk, seed: int, smoke: bool) -> dict:
        ns, axis = ((1, 2), (1.5, 2.0)) if smoke else ((1, 2, 3), CERTIFY_AXIS)

        def blow_up(n, p, q):
            rep = nk.critical_values(nk.ProblemParams(n, p, q))
            return rep.verdict is nk.Verdict.BLOW_UP

        rng = random.Random(seed)
        points = []
        for n in ns:
            base = [(i, j) for i, p in enumerate(axis) for j, q in enumerate(axis)
                    if blow_up(n, p, q)]
            ps = qs = axis
            # redraw until the perturbed axes keep the same blow-up points,
            # so every seed certifies the same number of points
            while seed:
                ps = [_jitter(rng, v, 0.01) for v in axis]
                qs = [_jitter(rng, v, 0.01) for v in axis]
                if all(blow_up(n, ps[i], qs[j]) for i, j in base):
                    break
            points += [(n, ps[i], qs[j]) for i, j in base]
        return {"points": points, "reference": seed == 0 and not smoke}

    def attempts(self, inp: dict) -> int:
        return len(inp["points"])

    def call(self, nk, inp: dict) -> list:
        data = nk.DataConstants(*CERTIFY_DATA)
        explicit = nk.ConstantMode.EXPLICIT
        c2 = {}
        out = []
        for n, p, q in inp["points"]:
            if (n, p) not in c2:
                c2[n, p] = nk.c2_constant(nk.PhiEvaluator(n), p, 1.0)
            params = nk.ProblemParams(n, p, q, R=1.0, epsilon=CERTIFY_EPS)
            unit = nk.lifespan_upper_bound(params)
            expl = nk.lifespan_upper_bound(params, explicit, data,
                                           holder_constant=c2[n, p])
            thr = [nk.thresholds(nk.IterationConfig(
                       params=params, init_mode=mode, constant_mode=explicit,
                       data=data, holder_constant=c2[n, p]))
                   for mode in nk.InitMode]
            out.append({"point": [n, p, q], "c2": c2[n, p],
                        "unit": unit.log_candidates,
                        "explicit": expl.log_candidates,
                        "floor": [unit.floor, expl.floor],
                        "t_upper": [unit.t_upper, expl.t_upper],
                        "thresholds": thr})
        return out

    def check(self, inp: dict, out: list) -> Checked:
        ref = REFERENCE["certify"]
        failed = 0
        for rec in out:
            logs = list(rec["unit"].values()) + list(rec["explicit"].values())
            ok = (math.isfinite(rec["c2"]) and rec["c2"] > 0.0
                  and len(logs) > 0 and all(math.isfinite(v) for v in logs)
                  and all(t >= f for t, f in zip(rec["t_upper"], rec["floor"]))
                  and all(j % 2 == 1 for pair in rec["thresholds"] for j in pair))
            if ok and inp["reference"]:
                key = "{},{},{}".format(*rec["point"])
                want = ref["points"][key]
                ok = (_close(rec["c2"], want["c2"], CERTIFY_REL_TOL)
                      and all(rec[mode].keys() == want[mode].keys()
                              and all(_close(rec[mode][k], want[mode][k],
                                             CERTIFY_REL_TOL)
                                      for k in want[mode])
                              for mode in ("unit", "explicit")))
            failed += not ok
        digest = hashlib.sha256(
            json.dumps(out, sort_keys=True).encode()).hexdigest()
        return Checked(max(len(out), 1), len(out), failed, digest)


WORKLOADS = {w.name: w for w in (Ladder(), RadialN3(), RegionCsv(), Certify())}
