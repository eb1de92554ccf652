#!/usr/bin/env python3
"""Reproduce the p-q plane blow-up classification figures for n = 1..4.

Writes region_n{n}.csv / .svg into --out-dir (default out/).  The colored
grid separates the iteration-method blow-up region, the test-function-only
region, and the unclassified remainder; for n >= 3 the box is clipped at the
admissibility cap n/(n-2).
"""
import argparse
import pathlib
import sys

from nakao.cli import dispatch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--grid", type=int, default=200)
    ap.add_argument("--dims", default="1,2,3,4")
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n in (int(v) for v in args.dims.split(",")):
        rc = dispatch(["region", "--n", str(n), "--grid", str(args.grid),
                       "--svg", "--out", str(out / f"region_n{n}")])
        if rc != 0:
            return rc
        print(f"n={n}: wrote {out}/region_n{n}.csv and .svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
