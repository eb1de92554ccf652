"""The columnar CSV writer against the row-at-a-time formatter it replaced."""
import math
from pathlib import Path

import numpy as np
import pytest

from nakao import output
from nakao.cli import dispatch
from nakao.exponents import scan_arrays
from nakao.output import config_line, write_csv


# -- reference: the per-cell formatter and row writer, kept verbatim ---------

def _ref_native(value):
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, np.ndarray):
        return [_ref_native(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _ref_native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ref_native(v) for v in value]
    return value


def _ref_cell(value) -> str:
    value = _ref_native(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _ref_lines(header, rows):
    return [",".join(header)] + [",".join(_ref_cell(c) for c in row)
                                 for row in rows]


def _ref_write_csv(path, config, header, rows):
    lines = [config_line(config)] + _ref_lines(header, rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- columns ----------------------------------------------------------------

FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
          0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0 * 1e10, 1.2345678901234567e-5,
          1e16, 1e-7, 123456789012345680.0, 1.7976931348623157e308, 2.0]
INTS = [0, -1, 7, 2**62, -(2**63), 42]
STRS = ["blow_up", "", "none_known", "x y", "wakasugi_only"]
MIXED = [None, True, False, 1.5, math.nan, -math.inf, np.float64(0.1 + 0.2),
         np.int64(-3), 4, "ok", np.float64(math.inf), -0.0]
BLOCK = 4


def _cycle(values, length):
    return [values[i % len(values)] for i in range(length)]


def _columns(length):
    return {
        "f": np.array(_cycle(FLOATS, length), dtype=np.float64),
        "i": np.array(_cycle(INTS, length), dtype=np.int64),
        "s": np.array(_cycle(STRS, length)),
        "label": np.array(_cycle(STRS, length), dtype=object)[::-1],
        "mixed": tuple(_cycle(MIXED, length)),
        "mixed_obj": np.array(_cycle(MIXED, length), dtype=object),
        "listed": _cycle(MIXED[::-1], length),
    }


@pytest.mark.parametrize("length", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                    3 * BLOCK + 2])
def test_write_csv_matches_row_formatter(tmp_path, monkeypatch, length):
    monkeypatch.setattr(output, "_BLOCK_ROWS", BLOCK)
    cols = _columns(length)
    header = list(cols)
    config = {"n": 2, "eps": 0.1, "tag": "x"}
    write_csv(tmp_path / "new.csv", config, header, cols.values())
    _ref_write_csv(tmp_path / "ref.csv", config, header,
                   zip(*cols.values()))
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_write_csv_from_rows_transposed(tmp_path):
    rows = [(1, 2.5, None, "ok"), (2, math.nan, True, "FAIL")]
    header = ["j", "x", "flag", "note"]
    write_csv(tmp_path / "new.csv", {}, header, zip(*rows))
    _ref_write_csv(tmp_path / "ref.csv", {}, header, rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    # no rows: zip(*[]) gives no columns, and only the header is written
    write_csv(tmp_path / "empty.csv", {}, header, zip(*[]))
    assert (tmp_path / "empty.csv").read_text().splitlines()[1:] == \
        [",".join(header)]


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", {}, ["a", "b"], [np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "b.csv", {}, ["a", "b"],
                  [np.zeros(2), np.zeros(3)])


def test_region_csv_matches_scan_arrays(tmp_path):
    out = tmp_path / "reg"
    res = 37
    assert dispatch(["region", "--n", "2", "--grid", str(res),
                     "--out", str(out)]) == 0
    # default box for n = 2: (1 + 5/res, 6] on both axes
    axis = np.linspace(1.0 + 5.0 / res, 6.0, res)
    P, Q = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    aN, F, codes, binding = scan_arrays(2, P, Q)
    names = {0: "blow_up", 1: "wakasugi_only", 2: "none_known",
             3: "inadmissible"}
    rows = [(float(p), float(q), float(a), float(f), names[int(c)], int(b))
            for p, q, a, f, c, b in zip(P, Q, aN, F, codes, binding)]
    header = ["p", "q", "alphaN", "F", "verdict", "binding_component"]
    body = Path(f"{out}.csv").read_text().splitlines()[1:]
    assert body == _ref_lines(header, rows)
    assert len(set(codes.tolist())) > 1 and len(set(binding.tolist())) > 1
