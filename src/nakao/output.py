"""Deterministic CSV/JSON emission: identical config in, identical bytes out."""
from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import sys
import tempfile
import traceback

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


def column_texts(col):
    """Cell texts of one column block: repr for float64 (which spells nan and
    inf as _cell does), str for int and str arrays, else _cell per cell."""
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return map(repr, col.tolist())
        if col.dtype.kind in "iuU":
            return map(str, col.tolist())
    return map(_cell, col)


def config_json(config: dict) -> str:
    """The resolved config as sorted, compact JSON, as every output embeds it."""
    return json.dumps(_native(config), sort_keys=True, separators=(",", ":"))


def config_line(config: dict) -> str:
    return "# config: " + config_json(config)


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


def _write_rows(fh, texts, start: int, stop: int) -> None:
    """Rows start..stop, _BLOCK_ROWS per write; a ragged last block is folded
    into the one before it (so a write holds up to 2 * _BLOCK_ROWS - 1)."""
    lo = start
    while lo < stop:
        hi = stop if stop - lo < 2 * _BLOCK_ROWS else lo + _BLOCK_ROWS
        fh.write("\n".join(map(",".join, zip(*texts(lo, hi)))) + "\n")
        lo = hi


def _worker(tmp, texts, start: int, stop: int):
    """Body of a forked child: rows start..stop into tmp, then exit 0, or 1
    with the traceback on stderr.  os._exit runs none of the caller's atexit
    or finally handlers and flushes none of its buffers."""
    code = 1
    try:
        _write_rows(tmp, texts, start, stop)
        tmp.flush()
        code = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _write_parts(fh, texts, parts) -> None:
    """Every part into fh, in order.  The caller formats part 0; each later
    part is formatted by a forked child into an unnamed file in the output's
    directory and appended by a kernel copy (os.sendfile, no user buffer)
    once the child exits.  On any failure the children left are killed and
    reaped."""
    if len(parts) == 1:
        _write_rows(fh, texts, *parts[0])
        return
    workdir = os.path.dirname(os.path.abspath(fh.name))
    tmps, pids = [], []  # one per later part; pids holds the unreaped ones
    try:
        for start, stop in parts[1:]:
            tmps.append(tempfile.TemporaryFile("w", encoding="utf-8",
                                               dir=workdir))
            pid = os.fork()
            if pid == 0:
                _worker(tmps[-1], texts, start, stop)
            pids.append(pid)
        _write_rows(fh, texts, *parts[0])
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


def check_room(out, need: int) -> None:
    """Refuse (ValueError) output of at least `need` bytes, to files named
    out.*, that cannot fit in the space left on out's filesystem."""
    st = os.statvfs(os.path.dirname(os.path.abspath(out)))
    free = st.f_bavail * st.f_frsize
    if need > free:
        raise ValueError(f"{out}.* need at least {need} bytes; {free} free")


@contextlib.contextmanager
def written(path):
    """path opened for writing text, and removed if the block fails.  A
    forked CSV worker leaves through os._exit, so it never removes it."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(path)
        raise


def write_csv(path, config: dict, header: list[str], columns,
              n_rows: int | None = None) -> None:
    """CSV with the resolved config as a leading comment line.  `columns`
    holds one sequence per header entry (none at all, as zip(*[]) gives, is
    0 rows), or is a function (lo, hi) -> one iterable of cell texts per
    header entry for rows lo..hi of n_rows.  Nothing is written if the
    sequences are ragged, and the file is removed if writing fails.  Large
    outputs are formatted on every usable CPU (see _parts); the bytes are
    the same."""
    texts = columns
    if n_rows is None:
        columns = list(columns)
        lengths = {len(col) for col in columns}
        if columns and (len(columns) != len(header) or len(lengths) > 1):
            raise ValueError("need one column per header entry, all one length")
        n_rows = lengths.pop() if columns else 0
        texts = lambda lo, hi: [column_texts(col[lo:hi]) for col in columns]
    with written(path) as fh:
        fh.write(config_line(config) + "\n" + ",".join(header) + "\n")
        _write_parts(fh, texts, _parts(n_rows))


def write_json(path, obj: dict) -> None:
    with written(path) as fh:
        fh.write(json.dumps(_native(obj), sort_keys=True, indent=2) + "\n")
