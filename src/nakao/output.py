"""Deterministic CSV/JSON emission: identical config in, identical bytes out."""
from __future__ import annotations

import json
import math
import os
import signal
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

_BLOCK_ROWS = 1 << 13  # rows formatted and written per block; bounds memory


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


def _usable_cpus() -> int:
    """CPUs this process may run on (its Linux affinity mask)."""
    return len(os.sched_getaffinity(0))


def _parts(n_rows: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges that write_csv formats at once: contiguous
    runs of whole _BLOCK_ROWS blocks, at most one per usable CPU.  One part
    off Linux, since joining the parts needs os.fork and an os.sendfile that
    writes into a regular file."""
    k = 1
    if sys.platform.startswith("linux"):
        k = max(1, min(_usable_cpus(), n_rows // _BLOCK_ROWS))
    n_blocks = -(-n_rows // _BLOCK_ROWS)
    cuts = [i * n_blocks // k * _BLOCK_ROWS for i in range(k)] + [n_rows]
    return list(zip(cuts, cuts[1:]))


def _write_rows(fh, blocks, start: int, stop: int) -> None:
    """Rows start..stop of the formatted columns, one block per write."""
    for lo in range(start, stop, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, stop)
        texts = [block(lo, hi) for block in blocks]
        fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _worker(tmp, blocks, start: int, stop: int):
    """Body of a forked child: rows start..stop into tmp, then exit 0, or 1
    with the traceback on stderr.  os._exit runs none of the caller's atexit
    or finally handlers and flushes none of its buffers."""
    code = 1
    try:
        _write_rows(tmp, blocks, start, stop)
        tmp.flush()
        code = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _write_parts(fh, blocks, parts) -> None:
    """Every part into fh, in order.  The caller formats part 0; each later
    part is formatted by a forked child into an unnamed file in the output's
    directory and appended by a kernel copy (os.sendfile, no user buffer)
    once the child exits.  On any failure the children left are killed and
    reaped."""
    if len(parts) == 1:
        _write_rows(fh, blocks, *parts[0])
        return
    workdir = os.path.dirname(os.path.abspath(fh.name))
    tmps, pids = [], []  # one per later part; pids holds the unreaped ones
    try:
        for start, stop in parts[1:]:
            tmps.append(tempfile.TemporaryFile("w", encoding="utf-8",
                                               dir=workdir))
            pid = os.fork()
            if pid == 0:
                _worker(tmps[-1], blocks, start, stop)
            pids.append(pid)
        _write_rows(fh, blocks, *parts[0])
        fh.flush()
        for (start, stop), tmp in zip(parts[1:], tmps):
            status = os.waitpid(pids[0], 0)[1]
            pids.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise ChildProcessError(
                    f"formatting CSV rows {start}..{stop} failed "
                    f"(worker exit status {code})")
            size, done = os.fstat(tmp.fileno()).st_size, 0
            while done < size:
                done += os.sendfile(fh.fileno(), tmp.fileno(), done,
                                    size - done)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for tmp in tmps:
            tmp.close()


def write_csv(path, config: dict, header: list[str], columns) -> None:
    """CSV with the resolved config as a leading comment line; `columns` holds
    one sequence or indexed (values, codes) pair per header entry (none at
    all, as zip(*[]) gives, is 0 rows).  Nothing is written if they are
    ragged or a code is out of range, and the file is removed if writing
    fails.  Large outputs are formatted on every usable CPU (see _parts);
    the bytes are the same."""
    columns = list(columns)
    lengths = [_length(col) for col in columns]
    if columns and (len(columns) != len(header) or len(set(lengths)) > 1):
        raise ValueError("need one column per header entry, all one length")
    n_rows = lengths[0] if columns else 0
    # built before any fork, so that the children inherit each indexed
    # column's texts instead of formatting them again
    blocks = [_blocks(col) for col in columns]
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(config_line(config) + "\n" + ",".join(header) + "\n")
            _write_parts(fh, blocks, _parts(n_rows))
    except BaseException:
        os.unlink(path)
        raise


def write_json(path, obj: dict) -> None:
    text = json.dumps(_native(obj), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")
