"""Matrix export: exact-value CSV and plain-text PGM brightness maps.

It also holds the package's one helper-process lifecycle, ``_with_helper``,
which ``write_rows`` and ``experiment.run_experiment`` use to put a second
core to work.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import sys
import tempfile
from itertools import chain, islice, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

import numpy as np

#: Rows the helper formats between its checks that the parent is still alive.
_BLOCK_ROWS = 256


def format_row(values: np.ndarray) -> str:
    """Comma-separated floats with full round-trip precision (``repr`` of each)."""
    return ",".join(map(repr, values.tolist()))


def write_rows(out: TextIO, tables: Iterable[tuple[Iterable[str], np.ndarray]]) -> None:
    """Write ``prefix + format_row(row) + "\\n"`` for each row of each (prefixes, table) pair.

    The text is that of one serial loop over the rows, in order. Where ``os``
    has ``fork``, a helper process formats the rows after the split into an
    unlinked temporary file while this process writes the rows before it to
    ``out``, then this process appends the helper's file. ``repr`` of a
    nonzero float costs about ten times that of a zero, so the split balances
    the rows' zeros plus ten times their nonzeros. The helper's failure is an
    ``OSError`` that names its cause, except a ``MemoryError``, which is
    raised unchanged.
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
    out.flush()  # so the helper inherits no pending text
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spill:
        _with_helper("row-formatting", _format_rest(spill, islice(rows, split, None)),
                     lambda: _write(out, islice(rows, split)))
        spill.seek(0)
        shutil.copyfileobj(spill, out)


def _write(out: TextIO, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    for prefix, row in rows:
        out.write(prefix + format_row(row) + "\n")


def _format_rest(spill: TextIO, rows: Iterator[tuple[str, np.ndarray]]) -> Iterator[None]:
    """The helper's steps: write ``rows`` to ``spill`` a block of rows at a time."""
    try:
        while block := list(islice(rows, _BLOCK_ROWS)):
            _write(spill, block)
            yield
        spill.flush()
    except MemoryError:
        raise  # reaches ``main`` unchanged, as the command's own out-of-memory does
    except Exception as exc:
        raise OSError(f"the row-formatting helper process failed: "
                      f"{type(exc).__name__}: {exc}") from None


def _with_helper(name: str, helper_steps: Iterable, own_work: Callable[[], object]) -> tuple:
    """(``own_work()``, ``list(helper_steps)``), the steps run by a helper process.

    The helper is started with ``os.fork`` after stdout and stderr are
    flushed, so it inherits no pending text, and it runs only inside
    ``try/finally: os._exit``, so it never returns into the caller. It runs
    the steps while this process runs ``own_work``, and after each step it
    stops with status 1 if this process has gone, as nobody would read its
    results. Its results, or the exception that a step raised, come back
    pickled through a pipe, which is read to its end before the helper is
    reaped: the results are returned, the exception is raised here unchanged.
    If ``own_work`` raises or is interrupted, the helper is killed (SIGKILL)
    and reaped first. A helper that ends without a result raises ``OSError``:
    ``the NAME helper process exited with status N`` or ``was killed by
    signal N``.
    """
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    parent, helper = os.getpid(), 0
    reader, writer = os.pipe()
    with open(reader, "rb") as incoming, open(writer, "wb") as outgoing:
        try:
            helper = os.fork()
            if helper == 0:
                code = 1
                try:
                    code = _run_steps(helper_steps, outgoing, parent)
                finally:
                    os._exit(code)  # never returns into the caller
            outgoing.close()  # the helper's end is then the pipe's only writer
            own = own_work()
            payload = incoming.read()  # to the end: a result can exceed the pipe's buffer
            _, status = os.waitpid(helper, 0)
            helper = 0
        finally:
            if helper:  # own_work failed or was interrupted: the helper's results are not wanted
                os.kill(helper, signal.SIGKILL)
                os.waitpid(helper, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise OSError(f"the {name} helper process {how}")
    results, error = pickle.loads(payload)
    if error is not None:
        raise error
    return own, results


def _run_steps(steps: Iterable, outgoing: BinaryIO, parent: int) -> int:
    """The helper's work: 0 once its results or its exception are sent, 1 if orphaned."""
    try:
        results = []
        for result in steps:
            if os.getppid() != parent:  # orphaned: nobody will read the results
                return 1
            results.append(result)
        payload = results, None
    except Exception as exc:
        payload = None, exc
    outgoing.write(pickle.dumps(payload))
    outgoing.flush()
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
