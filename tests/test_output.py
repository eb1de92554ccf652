"""The columnar CSV writer against the row-at-a-time formatter it replaced."""
import errno
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from nakao import output
from nakao.cli import dispatch
from nakao.exponents import scan_arrays
from nakao.output import config_line, write_csv


# -- reference: the per-cell formatter and row writer, kept verbatim ---------

def _ref_native(value):
    if isinstance(value, np.bool_):
        return bool(value)
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
         np.int64(-3), 4, "ok", np.float64(math.inf), -0.0, np.bool_(True),
         np.bool_(False)]
BOOLS = [True, False, False]
BLOCK = 4
LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]


def _cycle(values, length):
    return [values[i % len(values)] for i in range(length)]


def _codes(values, length):
    return np.arange(length, dtype=np.int64) % len(values)


def _columns(length):
    return {
        "f": np.array(_cycle(FLOATS, length), dtype=np.float64),
        "i": np.array(_cycle(INTS, length), dtype=np.int64),
        "s": np.array(_cycle(STRS, length)),
        "label": np.array(_cycle(STRS, length), dtype=object)[::-1],
        "mixed": tuple(_cycle(MIXED, length)),
        "mixed_obj": np.array(_cycle(MIXED, length), dtype=object),
        "listed": _cycle(MIXED[::-1], length),
        "b": np.array(_cycle(BOOLS, length), dtype=bool),
    }


def _indexed_columns(length):
    """The columns of _columns(length) as (values, codes) pairs, which the
    row function of _indexed_rows looks up."""
    return {
        "f": (np.array(FLOATS, dtype=np.float64), _codes(FLOATS, length)),
        "i": (np.array(INTS, dtype=np.int64), _codes(INTS, length)),
        "s": (np.array(STRS), _codes(STRS, length)),
        "label": (np.array(STRS, dtype=object), _codes(STRS, length)[::-1]),
        "mixed": (tuple(MIXED), _codes(MIXED, length)),
        "mixed_obj": (np.array(MIXED, dtype=object), _codes(MIXED, length)),
        "listed": (MIXED[::-1], _codes(MIXED, length)),
        "b": (np.array(BOOLS, dtype=bool), _codes(BOOLS, length)),
    }


def _indexed_rows(columns):
    """A write_csv row function over (values, codes) columns that formats
    each value once and looks its rows up, as the region command does."""
    texts = [np.array(list(output.column_texts(values)), dtype=object)
             for values, _ in columns]
    return lambda lo, hi: [t[codes[lo:hi]].tolist()
                           for t, (_, codes) in zip(texts, columns)]


def _on_cpus(cases):
    """Each case on 1 CPU under its plain id (as one process writes), then
    on 2 and 3 CPUs."""
    params = []
    for workers in (1, 2, 3):
        for case in cases:
            ident = "-".join(map(str, case))
            if workers > 1:
                ident += f"-cpus{workers}"
            params.append(pytest.param(*case, workers, id=ident))
    return params


def _split(monkeypatch, block, workers):
    """Blocks of `block` rows, formatted on `workers` CPUs."""
    monkeypatch.setattr(output, "_BLOCK_ROWS", block)
    monkeypatch.setattr(output, "_usable_cpus", lambda: workers)


@pytest.mark.parametrize("length, workers",
                         _on_cpus([(n,) for n in LENGTHS]))
def test_write_csv_matches_row_formatter(tmp_path, monkeypatch, length,
                                         workers):
    _split(monkeypatch, BLOCK, workers)
    # whole blocks, at most one part per worker
    parts = output._parts(length)
    assert len(parts) == max(1, min(workers, length // BLOCK))
    assert parts[0][0] == 0 and parts[-1][1] == length
    assert all(a[1] == b[0] and a[1] % BLOCK == 0
               for a, b in zip(parts, parts[1:]))
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


@pytest.mark.parametrize("length, block, workers",
                         _on_cpus([(n, b) for b in (1, BLOCK) for n in LENGTHS]))
def test_indexed_columns_match_plain(tmp_path, monkeypatch, block, length,
                                     workers):
    _split(monkeypatch, block, workers)
    plain, indexed = _columns(length), _indexed_columns(length)
    header = list(plain)
    config = {"n": 2}
    write_csv(tmp_path / "plain.csv", config, header, plain.values())
    write_csv(tmp_path / "indexed.csv", config, header,
              _indexed_rows(list(indexed.values())), length)
    assert (tmp_path / "indexed.csv").read_bytes() == \
        (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("length", LENGTHS + [2 * BLOCK, 2 * BLOCK - 1])
def test_ragged_last_block_is_folded(tmp_path, monkeypatch, length):
    _split(monkeypatch, BLOCK, 1)
    calls = []

    def rows(lo, hi):
        calls.append((lo, hi))
        return [map(str, range(lo, hi))]

    write_csv(tmp_path / "r.csv", {}, ["i"], rows, length)
    assert (tmp_path / "r.csv").read_text().splitlines()[2:] == \
        [str(i) for i in range(length)]
    # whole blocks, the last one taking a ragged tail of up to BLOCK - 1 rows
    whole = max(1, length // BLOCK) if length else 0
    assert calls == [(i * BLOCK, length if i == whole - 1 else (i + 1) * BLOCK)
                     for i in range(whole)]


class _Unprintable:
    def __str__(self):
        raise ValueError("no text for this cell")


@pytest.mark.parametrize("bad_row, error", [
    (0, ValueError),                           # in the caller's own part
    (3 * BLOCK + 1, ChildProcessError)])       # in the last worker's part
def test_failed_cell_leaves_no_file_and_no_child(tmp_path, monkeypatch,
                                                 bad_row, error):
    _split(monkeypatch, BLOCK, 3)
    length = 3 * BLOCK + 2
    assert len(output._parts(length)) == 3
    mixed = _cycle(MIXED, length)
    mixed[bad_row] = _Unprintable()

    def rows(lo, hi):   # a row function that fails on the same row
        if lo <= bad_row < hi:
            raise ValueError(f"no texts for row {bad_row}")
        return [map(str, range(lo, hi))]

    path = tmp_path / "bad.csv"
    for header, columns, n_rows in (
            (["f", "mixed"], [np.zeros(length), mixed], None),
            (["i"], rows, length)):
        with pytest.raises(error):
            write_csv(path, {}, header, columns, n_rows)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


class _FullDisk(io.TextIOWrapper):
    """A text file whose disk fills halfway through the first write."""

    def write(self, text):
        super().write(text[:len(text) // 2])
        self.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_json_write_leaves_no_file(tmp_path, monkeypatch):
    # Path.write_text left the half that fitted
    monkeypatch.setattr(output, "open", lambda path, mode, encoding: _FullDisk(
        io.FileIO(path, mode), encoding=encoding), raising=False)
    with pytest.raises(OSError, match="No space left"):
        output.write_json(tmp_path / "r.json", {"config": {"n": 2}})
    assert list(tmp_path.iterdir()) == []


def test_numpy_bools_spelled_like_bools(tmp_path):
    write_csv(tmp_path / "b.csv", {}, ["b", "mixed"],
              [np.array([True, False]), [np.bool_(False), 1.5]])
    assert (tmp_path / "b.csv").read_text().splitlines()[2:] == \
        ["true,false", "false,1.5"]
    output.write_json(tmp_path / "b.json",
                      {"a": np.bool_(True), "v": np.array([False, True])})
    assert json.loads((tmp_path / "b.json").read_text()) == \
        {"a": True, "v": [False, True]}


def test_write_csv_rejects_ragged_columns(tmp_path):
    for columns in (
            [np.zeros(2)],
            [np.zeros(2), np.zeros(3)]):
        path = tmp_path / "a.csv"
        with pytest.raises(ValueError):
            write_csv(path, {}, ["a", "b"], columns)
        assert not path.exists()


_REGION_HEADER = ["p", "q", "alphaN", "F", "verdict", "binding_component"]
_VERDICT_NAMES = {0: "blow_up", 1: "wakasugi_only", 2: "none_known",
                  3: "inadmissible"}


def _check_region_csv(out, n, box, res):
    """Run region over the box (None: the default one) and compare its CSV
    rows with one scan_arrays call on the meshgrid; returns the codes."""
    argv = ["region", "--n", str(n), "--grid", str(res), "--out", str(out)]
    if box is None:
        box = (1.0 + 5.0 / res, 6.0) * 2
    else:
        argv += [f"--{k}={v!r}" for k, v in
                 zip(("p-min", "p-max", "q-min", "q-max"), box)]
    assert dispatch(argv) == 0
    P, Q = (a.ravel() for a in np.meshgrid(
        np.linspace(box[0], box[1], res), np.linspace(box[2], box[3], res),
        indexing="ij"))
    aN, F, codes, binding = scan_arrays(n, P, Q)
    rows = [(float(p), float(q), float(a), float(f),
             _VERDICT_NAMES[int(c)], int(b))
            for p, q, a, f, c, b in zip(P, Q, aN, F, codes, binding)]
    body = Path(f"{out}.csv").read_text().splitlines()[1:]
    assert body == _ref_lines(_REGION_HEADER, rows)
    return set(codes.tolist()), set(binding.tolist())


def test_region_csv_matches_scan_arrays(tmp_path):
    for n, box, res in [
            # default box for n = 2: (1 + 5/res, 6] on both axes
            (2, None, 37),
            # off the lattice: every p and q prints all its digits
            (2, (1.0123, 5.91, 1.0071, 6.07), 23),
            # crosses the n = 3 admissibility cap: all four verdicts and all
            # three binding components
            (3, (1.01, 3.6, 1.01, 3.6), 41),
            # 90,000 rows: ten full 8,192-row blocks, the last of them
            # taking the ragged tail
            (2, None, 300)]:
        codes, binding = _check_region_csv(tmp_path / f"reg{n}_{res}", n,
                                           box, res)
        assert len(codes) > 1 and len(binding) > 1
        if n == 3:
            assert codes == {0, 1, 2, 3} and binding == {1, 2, 3}


# 49 rows in blocks of 4: twelve blocks, the last taking a ragged row, and
# parts that start inside a row of the grid (at row 24 on 2 CPUs, rows 16
# and 32 on 3); the box crosses the n = 3 and 4 admissibility caps
@pytest.mark.parametrize("n, workers", _on_cpus([(n,) for n in (1, 2, 3, 4)]))
def test_region_csv_streamed_in_blocks(tmp_path, monkeypatch, n, workers):
    _split(monkeypatch, BLOCK, workers)
    assert len(output._parts(49)) == workers
    _check_region_csv(tmp_path / "reg", n, (1.01, 3.6, 1.01, 3.6), 7)
