"""Matrix export: exact-value CSV and plain-text PGM brightness maps."""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, TextIO

import numpy as np

#: Rows the helper formats between its checks that the parent is still alive.
_BLOCK_ROWS = 256
#: Characters per read when the parent appends the helper's file to ``out``.
_COPY_CHARS = 64 * 1024


def format_row(values: np.ndarray) -> str:
    """Comma-separated floats with full round-trip precision (``repr`` of each)."""
    return ",".join(map(repr, values.tolist()))


def write_rows(out: TextIO, tables: Iterable[tuple[Iterable[str], np.ndarray]]) -> None:
    """Write ``prefix + format_row(row) + "\\n"`` for each row of each (prefixes, table) pair.

    The text is that of one serial loop over the rows, in order. Where ``os``
    has ``fork``, a helper process formats the rows after the split into an
    unlinked temporary file while this process writes the rows before it to
    ``out``, then reaps the helper and appends its file. ``repr`` of a nonzero
    float costs about ten times that of a zero, so the split balances the
    rows' zeros plus ten times their nonzeros.
    """
    tables = list(tables)
    # a row at a time, so no temporary the size of a table is made
    cost = np.fromiter(
        (table.shape[1] + 9 * np.count_nonzero(row) for _, table in tables for row in table),
        float, sum(len(table) for _, table in tables),
    )
    np.cumsum(cost, out=cost)
    rows = chain.from_iterable(zip(prefixes, table) for prefixes, table in tables)
    if len(cost) < 2 or not hasattr(os, "fork"):
        _write(out, rows)
        return
    # the parent takes the rows up to half the cost, and at least one; the helper the rest
    split = min(max(int(np.searchsorted(cost, cost[-1] / 2, side="right")), 1), len(cost) - 1)
    for stream in (out, sys.stdout, sys.stderr):  # so the helper inherits no pending text
        stream.flush()
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spill:
        parent, helper = os.getpid(), 0
        try:
            helper = os.fork()
            if helper == 0:
                code = 1
                try:
                    code = _format_rest(spill, islice(rows, split, None), len(cost) - split, parent)
                finally:
                    os._exit(code)  # never returns into the caller
            _write(out, islice(rows, split))
            _, status = os.waitpid(helper, 0)
            helper = 0
        finally:
            if helper:  # the write failed or was interrupted: the helper's rows are not wanted
                os.kill(helper, signal.SIGKILL)
                os.waitpid(helper, 0)
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise OSError(f"the row-formatting helper process {how}")
        spill.seek(0)
        shutil.copyfileobj(spill, out, _COPY_CHARS)


def _write(out: TextIO, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    for prefix, row in rows:
        out.write(prefix + format_row(row) + "\n")


def _format_rest(spill: TextIO, rows: Iterator[tuple[str, np.ndarray]], count: int,
                 parent: int) -> int:
    """The helper's work: 0 once every row is in ``spill``, 1 if the parent has gone."""
    for _ in range(0, count, _BLOCK_ROWS):
        if os.getppid() != parent:  # orphaned: nobody will read the file
            return 1
        _write(spill, islice(rows, _BLOCK_ROWS))
    spill.flush()
    return 0


def write_matrix_csv(matrix: np.ndarray, out: TextIO) -> None:
    """Write one comma-separated line per matrix row."""
    write_rows(out, [(repeat(""), np.asarray(matrix, dtype=float))])


def write_matrix_pgm(matrix: np.ndarray, out: TextIO) -> None:
    """Write a matrix as plain-text grayscale (PGM P2), one image row per line.

    Pixels scale by the matrix maximum: round(255 * value / max), so the
    largest probability is white and zeros are black.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    peak = matrix.max()
    out.write(f"P2\n{cols} {rows}\n255\n")
    for row in matrix:  # a row at a time, so no M x M temporary is built
        out.write(" ".join(map(str, np.rint(255.0 * row / peak).astype(int).tolist())) + "\n")
