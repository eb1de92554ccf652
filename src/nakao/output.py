"""Deterministic CSV/JSON emission: identical config in, identical bytes out."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_BLOCK_ROWS = 1 << 16  # rows formatted and written per block; bounds memory


def _native(value):
    """Convert numpy scalars/arrays so json and repr behave predictably;
    non-finite floats become strings (strict JSON has no Infinity token)."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, np.ndarray):
        return [_native(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


def _cell(value) -> str:
    """Shortest round-trip text for one CSV cell of a mixed column."""
    if type(value) is str:
        return value
    value = _native(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _column_text(col):
    """Cell texts of one column block: repr for float64 (which spells nan and
    inf as _cell does), str for int and str arrays, else _cell per cell."""
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return map(repr, col.tolist())
        if col.dtype.kind in "iuU":
            return map(str, col.tolist())
    return map(_cell, col)


def config_line(config: dict) -> str:
    return "# config: " + json.dumps(_native(config), sort_keys=True,
                                     separators=(",", ":"))


def _indexed(col) -> bool:
    """An indexed column is a pair (values, codes): row i reads values[codes[i]]."""
    return (type(col) is tuple and len(col) == 2
            and isinstance(col[1], np.ndarray))


def _length(col) -> int:
    """Row count of one column; refuses codes that do not index `values`
    (a negative code would silently read from the end)."""
    if not _indexed(col):
        return len(col)
    values, codes = col
    if (codes.dtype.kind not in "iu" or codes.ndim != 1
            or codes.size and (codes.min() < 0 or codes.max() >= len(values))):
        raise ValueError("codes must be integers in [0, len(values))")
    return codes.size


def _blocks(col):
    """(start, stop) -> cell texts of one column.  An indexed column formats
    each value once, by the plain-column rule, and looks its rows up."""
    if not _indexed(col):
        return lambda start, stop: _column_text(col[start:stop])
    values, codes = col
    texts = np.array(list(_column_text(values)), dtype=object)
    return lambda start, stop: texts[codes[start:stop]].tolist()


def write_csv(path, config: dict, header: list[str], columns) -> None:
    """CSV with the resolved config as a leading comment line; `columns` holds
    one sequence or indexed (values, codes) pair per header entry (none at
    all, as zip(*[]) gives, is 0 rows).  Nothing is written if they are
    ragged or a code is out of range."""
    columns = list(columns)
    lengths = [_length(col) for col in columns]
    if columns and (len(columns) != len(header) or len(set(lengths)) > 1):
        raise ValueError("need one column per header entry, all one length")
    n_rows = lengths[0] if columns else 0
    blocks = [_blocks(col) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_line(config) + "\n" + ",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            texts = [block(start, stop) for block in blocks]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_json(path, obj: dict) -> None:
    text = json.dumps(_native(obj), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")
