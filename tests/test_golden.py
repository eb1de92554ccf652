"""Byte identity of the CLI outputs against recorded SHA-256 digests.

Each case runs in-process through `dispatch` in its own directory with a
relative `--out` name (or none, to pin the default name), so the echoed
config is the same on every machine.  `tests/golden.json` maps
"<case>/<file>" to the digest of that file.  To re-record it after a change
that is meant to move the bytes:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from nakao.cli import dispatch

GOLDEN = Path(__file__).resolve().with_name("golden.json")

_P2Q2 = ["--p", "2", "--q", "2"]
CASES = {
    "simulate-n1": (0, ["simulate", "--n", "1", *_P2Q2, "--epsilon", "0.5",
                        "--h", "0.04", "--t-max", "10", "--out", "sim"]),
    "simulate-n2": (0, ["simulate", "--n", "2", "--p", "1.5", "--q", "1.5",
                        "--h", "0.05", "--t-max", "6", "--shape", "cosine",
                        "--amp-v1", "0.5", "--out", "sim"]),
    "simulate-n3": (0, ["simulate", "--n", "3", "--p", "1.2", "--q", "1.8",
                        "--h", "0.05", "--t-max", "5", "--cfl", "0.3"]),
    "sweep-ok": (0, ["sweep", "--n", "1", *_P2Q2, "--h", "0.04",
                     "--t-max", "30", "--epsilons", "0.5,0.4,0.3,0.2",
                     "--out", "sw"]),
    "sweep-inconclusive": (3, ["sweep", "--n", "1", *_P2Q2, "--h", "0.04",
                               "--t-max", "3",
                               "--epsilons", "0.5,0.4,0.3,0.2"]),
    "region-n1": (0, ["region", "--n", "1", "--grid", "9", "--svg",
                      "--out", "r"]),
    "region-n2": (0, ["region", "--n", "2", "--grid", "12", "--svg",
                      "--out", "r"]),
    "region-n3": (0, ["region", "--n", "3", "--grid", "10", "--svg"]),
    "region-n3-grid130": (0, ["region", "--n", "3", "--grid", "130",
                              "--svg"]),
    "region-n4": (0, ["region", "--n", "4", "--grid", "11", "--svg",
                      "--out", "r"]),
    "region-box": (0, ["region", "--n", "2", "--grid", "7", "--p-min", "1.2",
                       "--q-max", "3.5", "--out", "r"]),
    "curves": (0, ["curves", "--n-min", "1", "--n-max", "8"]),
    "sequences-eig": (0, ["sequences", "--n", "2", "--p", "1.7", "--q", "2.3",
                          "--jmax", "15", "--out", "seq"]),
    "sequences-direct": (0, ["sequences", "--n", "1", *_P2Q2, "--R", "2",
                             "--epsilon", "0.1", "--mode", "direct",
                             "--jmax", "21", "--out", "seq"]),
    "testfn-n1": (0, ["testfn", "--n", "1", "--r-max", "800", "--num", "17"]),
    "testfn-n3": (0, ["testfn", "--n", "3", "--r-max", "4", "--num", "21",
                      "--out", "phi"]),
    "report-n1": (0, ["report", "--n", "1", *_P2Q2, "--epsilon", "0.001",
                      "--out", "rep"]),
    "report-n2": (0, ["report", "--n", "2", "--p", "1.5", "--q", "1.5",
                      "--out", "rep"]),
    "report-n3": (0, ["report", "--n", "3", "--p", "1.2", "--q", "1.8",
                      "--R", "1.5"]),
}


def digests(case: str) -> dict:
    """run one case in the current directory and return "<case>/<file>" ->
    SHA-256 of each file it wrote."""
    code, argv = CASES[case]
    assert dispatch(argv) == code, case
    return {f"{case}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path().iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch, case):
    golden = {k: v for k, v in json.loads(GOLDEN.read_text()).items()
              if k.startswith(f"{case}/")}
    monkeypatch.chdir(tmp_path)
    assert digests(case) == golden


if __name__ == "__main__":
    import tempfile
    found = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            found.update(digests(name))
    GOLDEN.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
