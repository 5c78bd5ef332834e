"""Matrix export: exact-value CSV and plain-text PGM brightness maps.

CSV rows hold each float as its ``repr``, and ``format_rows`` writes those
bytes for a block of rows with numpy. Its shortest round-trip digits come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
in ``uint64`` arithmetic; its layout follows ``repr``'s rules.

It also holds the package's one helper-process lifecycle, ``_with_helper``,
which ``write_rows`` and ``experiment.run_experiment`` use to put a second
core to work.
"""

from __future__ import annotations

import functools
import os
import pickle
import shutil
import signal
import sys
import tempfile
from itertools import chain, islice, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

import numpy as np

#: ``format_rows`` takes about as long for a nonzero value as for this many zeros
#: (measured), so a row's cost is its zeros plus this many times its nonzeros.
_NONZERO_COST = 40
#: A block of rows holds at most this many values and nonzero values, or is one
#: row. ``format_rows`` takes about 12 bytes of working memory per value and 400
#: per nonzero (measured), and no array of a block reaches 128 KiB: larger ones
#: raise glibc malloc's mmap threshold, and the heap then keeps what it frees.
#: The helper checks after each block that the parent is still alive.
_BLOCK_VALUES, _BLOCK_NONZEROS = 1 << 14, 1 << 11

_U64, _U32 = np.uint64, np.uint32
_LOW32, _LOW63 = _U64(0xFFFFFFFF), _U64((1 << 63) - 1)
_POW10 = 10 ** np.arange(17, dtype=_U64)
#: A value's record: sign, first digit, point, 16 more digits, a 3-digit exponent
#: and the separator, in 32 bytes. Those that ``repr`` does not write become NUL.
_RECORD = b"-0.0000000000000000e+000,".ljust(32, b"\0")
_ZERO_CELL = np.frombuffer(b"0.0,", _U32)[0]
#: Masks of a record's 23 characters after the sign: row 24 * e + w keeps the
#: first w and, for e = 1 or 2, an exponent of 2 or 3 digits.
_EXPONENTS = np.array([[0] * 23, [0] * 18 + [1, 1, 0, 1, 1], [0] * 18 + [1] * 5], bool)
_KEEP = np.uint8(255) * (_EXPONENTS[:, None]
                         | (np.arange(23) < np.arange(24)[:, None])).reshape(-1, 23)


@functools.cache
def _g() -> np.ndarray:
    """Schubfach's g = floor(10**e * 2**-r) + 1, 2**125 <= g < 2**126, for e = -292..324.

    Its rows, built at first use from Python ints, are g1 = g >> 63 and g0 =
    g mod 2**63 in 32-bit halves, then g1.
    """
    g = [((10**e >> r if r >= 0 else 10**e << -r) if e >= 0 else (1 << -r) // 10**-e) + 1
         for e in range(-292, 325) for r in [((e * 913124641741) >> 38) - 125]]
    return np.array([[x >> 95 for x in g], [x >> 63 & 0xFFFFFFFF for x in g],
                     [x >> 32 & 0x7FFFFFFF for x in g], [x & 0xFFFFFFFF for x in g],
                     [x >> 63 for x in g]], _U64)


def _round_odd(g, cp):
    """Schubfach's rop(g * cp * 2**-127), as Java's ``DoubleToDecimal.rop``, element-wise."""
    g11, g10, g01, g00, g1 = g
    c1, c0 = cp >> _U64(32), cp & _LOW32

    def high64(a1, a0):  # of (a1 * 2**32 + a0) * cp, from 32-bit halves
        cross1, cross0 = a1 * c0, a0 * c1
        carry = (((a0 * c0) >> _U64(32)) + (cross1 & _LOW32) + (cross0 & _LOW32)) >> _U64(32)
        return a1 * c1 + (cross1 >> _U64(32)) + (cross0 >> _U64(32)) + carry

    z = ((g1 * cp) >> _U64(1)) + high64(g01, g00)
    return (high64(g11, g10) + (z >> _U64(63))) | (((z & _LOW63) + _LOW63) >> _U64(63))


def _shortest(bits):
    """(f, k) with f * 10**k the shortest decimal, and of those the nearest, that
    reads back as each finite nonzero double of ``bits``; the shorter candidate is
    tried at any length, so 5e-324 keeps one digit, as in ``repr``."""
    fraction = bits & _U64((1 << 52) - 1)
    biased = (bits >> _U64(52)).astype(np.int64) & 0x7FF
    c = np.where(biased > 0, fraction | _U64(1 << 52), fraction)
    q = np.maximum(biased, 1) - 1075
    irregular = (fraction == 0) & (biased > 1)  # the gap below is half the gap above
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    cb = c << _U64(2)
    vb, vbl, vbr = _round_odd(_g()[:, 292 - k], np.stack(
        [cb, cb - _U64(2) + irregular.astype(_U64), cb + _U64(2)]) << h)
    odd = c & _U64(1)  # an even c's interval includes its ends
    vbl, vbr = vbl + odd, vbr - odd
    s = vb >> _U64(2)
    shorter = s // _U64(10) * _U64(10)
    low_in, high_in = vbl <= shorter << _U64(2), (shorter + _U64(10)) << _U64(2) <= vbr
    s_in, next_in = vbl <= s << _U64(2), (s + _U64(1)) << _U64(2) <= vbr
    half = (s << _U64(2)) + _U64(2)
    up = np.where(s_in != next_in, next_in, (vb > half) | ((vb == half) & (s & _U64(1) > 0)))
    f = np.where(low_in != high_in, np.where(high_in, shorter + _U64(10), shorter), s + up)
    return f, k


def _digits(f):
    """(f's 17 digit characters, left-aligned; f's digits but trailing zeros; f's digits)."""
    length = np.searchsorted(_POW10, f, side="right")
    f = f * _POW10[17 - length]
    high = f // _U64(10**9)
    rest = np.stack([high, f - high * _U64(10**9)], 1).astype(_U32)  # 8 and 9 digits
    digits = np.empty((f.size, 2, 9), np.uint8)
    for j in range(8, -1, -1):
        quotient = rest // _U32(10)
        digits[:, :, j] = rest - quotient * _U32(10)
        rest = quotient
    digits = digits.reshape(-1, 18)[:, 1:]
    significant = 17 - np.argmax(digits[:, ::-1] != 0, axis=1)
    return digits + np.uint8(48), significant, length


def _records(bits):
    """Each value of ``bits`` as ``repr`` writes it, then ",", in a record."""
    f, k = _shortest(bits)
    digits, n, length = _digits(f)
    point = k + length  # the value is 0.ddd * 10**point
    scientific = (point < -3) | (point > 16)
    exponent = np.abs(point - 1)
    text = np.empty((bits.size, len(_RECORD)), np.uint8)
    text.view(f"V{len(_RECORD)}")[:, 0] = np.void(_RECORD)
    text[:, 1] = digits[:, 0]
    text[:, 3:19] = digits[:, 1:]
    text[:, 20] = np.where(point < 1, 45, 43)  # "-", "+"
    tens = exponent // 10
    text[:, 21] = tens // 10 + 48
    text[:, 22] = tens - tens // 10 * 10 + 48
    text[:, 23] = exponent - tens * 10 + 48
    for shift in set(point[~scientific & (point != 1)].tolist()):  # fixed notation moves the point
        at = np.flatnonzero(point == shift)
        if shift > 1:  # "ddd.ddd"
            text[at, 1:1 + shift] = digits[at, :shift]
            text[at, 1 + shift] = 46
            text[at, 2 + shift:19] = digits[at, shift:]
        else:  # "0.00ddd"
            text[at, 1:3 - shift] = np.frombuffer(b"0.000", np.uint8)[:2 - shift]
            text[at, 3 - shift:20 - shift] = digits[at]
    # the characters kept: "0.00ddd", "ddd.ddd" or "ddd000.0"; or "d.ddd" and an exponent
    keep = np.where(scientific, n + (n > 1) + 24 + 24 * (exponent > 99),
                    np.where(point <= 0, 2 - point + n, point + 1 + np.maximum(n - point, 1)))
    values = bits.view(float)
    for i in np.flatnonzero(~np.isfinite(values) | (values == 0)).tolist():  # -0.0, inf, nan
        text[i, 1:4] = np.frombuffer(repr(abs(values[i].item())).encode(), np.uint8)
        keep[i] = 3
    text[:, 1:24] &= np.take(_KEEP, keep, axis=0)
    text[:, 0] *= (bits >> _U64(63) > 0) & ~np.isnan(values)  # the sign
    return text


def format_rows(prefixes: list[str], rows: np.ndarray) -> str:
    """Each row's prefix, ``repr`` of each of its floats joined by commas, and ``"\\n"``."""
    width = rows.shape[1]
    if not width:
        return "".join(prefix + "\n" for prefix in prefixes)
    bits = np.ascontiguousarray(rows, dtype=float).reshape(-1).view(_U64)
    where = np.flatnonzero(bits)  # every value but +0.0 takes a record of eight 4-byte cells
    cells = np.full(bits.size + 7 * where.size, _ZERO_CELL)  # +0.0 takes one
    records = _records(bits[where]).view(_U32)
    cells[(where + 7 * np.arange(where.size))[:, None] + np.arange(8)] = records
    ends = np.arange(width - 1, bits.size, width)  # each row's last value ends in "\n"
    last = ends + 7 * np.searchsorted(where, ends, side="right")  # its last cell
    cells.view(np.uint8)[4 * last + np.where(bits[ends] == 0, 3, -4)] = 10
    csv = cells.tobytes().translate(None, b"\0").decode("ascii")
    if not any(prefixes):
        return csv
    return "".join(map(str.__add__, prefixes, csv.splitlines(keepends=True)))


def _blocks(tables: list, start: int, stop: int):
    """(prefixes, rows) of rows start..stop of the tables in turn, a block at a time."""
    offset = 0
    for prefixes, table in tables:
        first, last = max(start - offset, 0), min(stop - offset, len(table))
        offset += len(table)
        prefixes = islice(prefixes, first, None)
        while first < last:
            rows = table[first:min(first + _block_rows(table), last)]
            # of those, the rows within _BLOCK_NONZEROS, and at least one
            nonzeros = np.count_nonzero(rows, axis=1).cumsum()
            rows = rows[:max(int(np.searchsorted(nonzeros, _BLOCK_NONZEROS, side="right")), 1)]
            yield list(islice(prefixes, len(rows))), rows
            first += len(rows)


def _block_rows(table: np.ndarray) -> int:
    return max(_BLOCK_VALUES // max(table.shape[1], 1), 1)


def write_rows(out: TextIO, tables: Iterable[tuple[Iterable[str], np.ndarray]]) -> None:
    """Write ``format_rows`` of each (prefixes, table) pair's rows, a block at a time.

    The text is that of one serial loop over the rows, in order. Where ``os``
    has ``fork``, a helper process formats the rows after the split into an
    unlinked temporary file while this process writes the rows before it to
    ``out``, then this process appends the helper's file. The split balances
    the rows' costs (``_NONZERO_COST``). The helper's failure is an
    ``OSError`` that names its cause, except a ``MemoryError``, which is
    raised unchanged.
    """
    tables = list(tables)
    # a block at a time, so no temporary the size of a table is made
    cost = np.fromiter(chain.from_iterable(
        table.shape[1] + (_NONZERO_COST - 1) * np.count_nonzero(table[a:a + step], axis=1)
        for _, table in tables for step in [_block_rows(table)] for a in range(0, len(table), step)
    ), float, sum(len(table) for _, table in tables))
    np.cumsum(cost, out=cost)
    if len(cost) < 2 or not hasattr(os, "fork"):
        _write(out, _blocks(tables, 0, len(cost)))
        return
    # the parent takes the rows up to half the cost, and at least one; the helper the rest
    split = min(max(int(np.searchsorted(cost, cost[-1] / 2, side="right")), 1), len(cost) - 1)
    out.flush()  # so the helper inherits no pending text
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spill:
        _with_helper("row-formatting", _format_rest(spill, _blocks(tables, split, len(cost))),
                     lambda: _write(out, _blocks(tables, 0, split)))
        spill.seek(0)
        shutil.copyfileobj(spill, out)


def _write(out: TextIO, blocks: Iterable[tuple[list[str], np.ndarray]]) -> None:
    for prefixes, rows in blocks:
        out.write(format_rows(prefixes, rows))


def _format_rest(spill: TextIO, blocks: Iterator[tuple[list[str], np.ndarray]]) -> Iterator[None]:
    """The helper's steps: write ``blocks`` to ``spill``, a step per block."""
    try:
        for prefixes, rows in blocks:
            spill.write(format_rows(prefixes, rows))
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


def write_matrix_csv(matrix, out: TextIO) -> None:
    """Write one comma-separated line per matrix row.

    ``matrix`` is an array, or any object with its ``shape`` and ``len`` whose
    slices are blocks of its rows; it is read a block of rows at a time.
    """
    write_rows(out, [(repeat(""), matrix)])


def write_matrix_pgm(matrix, out: TextIO) -> None:
    """Write a matrix as plain-text grayscale (PGM P2), one image row per line.

    Pixels scale by the matrix maximum: round(255 * value / max), so the
    largest probability is white and zeros are black. ``matrix`` is read a
    block of rows at a time, as in ``write_matrix_csv``: once for its maximum,
    once for its pixels.
    """
    rows, cols = matrix.shape
    step = _block_rows(matrix)
    blocks = [slice(a, a + step) for a in range(0, rows, step)]
    peak = max(np.max(matrix[block]) for block in blocks)
    out.write(f"P2\n{cols} {rows}\n255\n")
    for block in blocks:
        for row in matrix[block]:
            out.write(" ".join(map(str, np.rint(255.0 * row / peak).astype(int).tolist())) + "\n")
