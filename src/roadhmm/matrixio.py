"""Matrix export: exact-value CSV and plain-text PGM brightness maps."""

from __future__ import annotations

from typing import TextIO

import numpy as np


def format_row(values: np.ndarray) -> str:
    """Comma-separated floats with full round-trip precision (``repr`` of each)."""
    return ",".join(map(repr, values.tolist()))


def write_matrix_csv(matrix: np.ndarray, out: TextIO) -> None:
    """Write one comma-separated line per matrix row."""
    for row in np.asarray(matrix, dtype=float):
        out.write(format_row(row) + "\n")


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
