"""Observation model: a discrete confusion base plus index-distance Gaussian.

The base matrix concentrates probability on the true position and spreads
the rest over graph neighbors. The Gaussian over node-index distance, a 1-D
kernel of M values, is then superimposed on every column and the column
renormalized: entry [j-1, i-1] = P(measure j | at i) =
(base[j-1, i-1] + kernel[|j - i|]) / total[i-1]. Far from the diagonal the
kernel underflows to exactly 0 (from index distance 39 at sigma = 1), so an
entry whose base is also 0 stays 0: a measurement there is impossible under
the model. Matrices are column-stochastic.

``ObservationModel`` keeps that matrix in its parts: the kernel, the column
totals and the base's nonzeros as (row, column, value) triples. It builds
the likelihood rows of a set of measured ids, and each column's nonzeros a
block of columns at a time, without an M x M array. Every read computes an
entry with the same two rounded operations, ``_noisy``, so all reads agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .roadmap import RoadGraph

#: Probability that a node with neighbors is measured as itself, before noise.
_DIAGONAL = 0.7

#: Cells of the window a block of columns is read through in ``column_entries``
_BLOCK_CELLS = 1 << 16


def gaussian_kernel(j, i, sigma: float):
    """Normal density with std ``sigma`` at index distance j - i; symmetric in (i, j).

    ``j`` and ``i`` are node indices or arrays of them that broadcast together.
    """
    # The kernel divides by 2 sigma^2: it overflows above sigma ~ 1e154 (a flat,
    # noise-free kernel) and is 0 below ~ 1e-162, where the kernel's peak is 0/0.
    if not (sigma > 0 and 0.0 < 2.0 * (sigma * sigma) < math.inf):
        raise ValueError(f"sigma must be positive and finite, and so must 2*sigma^2, got {sigma}")
    d = np.asarray(j, dtype=float) - np.asarray(i, dtype=float)
    with np.errstate(over="ignore"):  # d^2 / (2 sigma^2) = inf is a density of exactly 0
        return np.exp(-(d * d) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


def confusion_entries(graph: RoadGraph):
    """The confusion base's nonzeros: (rows, columns, values), sorted by column, then row.

    Column i puts 0.7 on i itself and splits the remaining mass uniformly
    over the nodes adjacent to i in either direction; pairs that are not
    directly connected get zero. A node with no neighbors observes itself
    with probability 1. Indices are 0-based.
    """
    m = graph.num_nodes
    off = graph.src != graph.dst
    a, b = graph.src[off] - 1, graph.dst[off] - 1
    diagonal = np.arange(m)
    # (row, column) of every neighbor entry, in both directions, then every diagonal entry
    rows, columns = np.concatenate([a, b, diagonal]), np.concatenate([b, a, diagonal])
    keys = columns * m + rows
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([[True], keys[1:] != keys[:-1]])  # each entry once
    rows, columns = rows[order][first], columns[order][first]
    neighbor = rows != columns
    neighbors = np.bincount(columns[neighbor], minlength=m)
    values = np.where(neighbor, (1.0 - _DIAGONAL) / np.maximum(neighbors, 1)[columns],
                      np.where(neighbors > 0, _DIAGONAL, 1.0)[columns])
    return rows, columns, values


def _noise(m: int, sigma: float):
    """(kernel, totals, k): kernel[d] = gaussian_kernel(d, 0, sigma) for d = 0..M-1,
    column i's normalizer 1 + sum_j kernel[|j - i|], and the kernel's nonzero extent.

    The sum covers only the band |j - i| < k, the kernel being 0 from distance
    k on, and adds its rows in increasing order, as a dense sum over axis 0
    does; the exact zeros it skips change nothing.
    """
    kernel = gaussian_kernel(np.arange(m), 0, sigma)
    k = int(np.flatnonzero(kernel)[-1]) + 1 if m else 0
    totals = np.zeros(m)
    for d in range(1 - k, k):  # d = j - i, increasing
        totals[max(-d, 0):m - max(d, 0)] += kernel[abs(d)]
    totals += 1.0
    return kernel, totals, k


def _noisy(base, kernel, totals):
    """The observation entries (base + kernel) / totals, written into ``base``."""
    base += kernel
    base /= totals
    return base


@dataclass(frozen=True, eq=False)
class ObservationModel:
    """The M x M observation matrix of ``observation_model``, kept in its parts.

    ``kernel`` (M,) holds the Gaussian at index distance 0..M-1, zero from
    ``extent`` on; ``totals`` (M,) the column normalizers; ``rows``,
    ``columns`` and ``values`` the confusion base's nonzeros, 0-based and
    sorted by column, then row. ``shape`` is (M, M), so ``np.shape`` reads it
    without building the matrix.
    """

    kernel: np.ndarray
    totals: np.ndarray
    extent: int
    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.kernel.size, self.kernel.size)

    @cached_property
    def _grid(self) -> np.ndarray:
        """Read-only M x M view with [j, i] = kernel[|j - i|], over 2M - 1 values."""
        mirrored = np.concatenate([self.kernel[:0:-1], self.kernel])  # [M - 1 + d] = kernel[|d|]
        return np.lib.stride_tricks.sliding_window_view(mirrored, self.kernel.size)[::-1]

    def likelihood_table(self, ids):
        """(table, index): rows ``ids`` of the matrix are ``table[index]``.

        ``ids`` are 0-based measured nodes of any shape, repeats allowed;
        ``table`` holds each distinct id's row once, found with an O(M)
        presence mask, and ``index`` has the shape of ``ids``.
        """
        ids = np.asarray(ids, dtype=np.intp)
        present = np.zeros(self.kernel.size, dtype=bool)
        present[ids] = True
        distinct = np.flatnonzero(present)
        slot = np.full(self.kernel.size, -1)  # node -> its row in the table
        slot[distinct] = np.arange(distinct.size)
        at = slot[self.rows]
        keep = at >= 0
        base = np.zeros((distinct.size, self.kernel.size))
        base[at[keep], self.columns[keep]] = self.values[keep]
        return _noisy(base, self._grid[distinct], self.totals), slot[ids]

    def column_entries(self):
        """(width, groups): every column's nonzeros, a block of columns at a time.

        Each group is (rows, columns, values), sorted by column, then row, and
        a column's groups come in increasing row order. A block reads the band
        of its columns through one window of rows, plus the base entries above
        and below that window; ``width`` bounds any column's count of nonzeros.
        """
        m, k = self.kernel.size, self.extent
        ids = np.arange(m)
        off_band = np.abs(self.rows - self.columns) >= k
        band = np.minimum(m, ids + k) - np.maximum(0, ids - k + 1)
        width = int((band + np.bincount(self.columns[off_band], minlength=m)).max())
        # the window is (block) x (block + 2k - 2) cells at most
        block = max(1, math.isqrt(k * k + _BLOCK_CELLS) - k)
        return width, self._column_groups(block)

    def _column_groups(self, block: int):
        m, k = self.kernel.size, self.extent
        grid = self._grid
        starts = np.searchsorted(self.columns, np.arange(0, m + block, block))
        for c0, a, b in zip(range(0, m, block), starts, starts[1:]):
            c1 = min(c0 + block, m)
            lo, hi = max(0, c0 - k + 1), min(m, c1 + k - 1)  # the rows of the block's band
            rows, columns, values = self.rows[a:b], self.columns[a:b], self.values[a:b]
            inside = (rows >= lo) & (rows < hi)
            # window[c - c0, r - lo] is entry [r, c]; the grid is symmetric
            window = np.zeros((c1 - c0, hi - lo))
            window[columns[inside] - c0, rows[inside] - lo] = values[inside]
            _noisy(window, grid[c0:c1, lo:hi], self.totals[c0:c1, None])
            hits = np.flatnonzero(window)
            # base entries off the window lie off the band, and a base entry over
            # its column total is never 0
            r, c = rows[~inside], columns[~inside]
            v = _noisy(values[~inside], self.kernel[np.abs(r - c)], self.totals[c])
            below = r < lo
            yield r[below], c[below], v[below]
            yield lo + hits % (hi - lo), c0 + hits // (hi - lo), window.reshape(-1)[hits]
            yield r[~below], c[~below], v[~below]


def observation_model(graph: RoadGraph, sigma: float) -> ObservationModel:
    """The graph's observation model at ``sigma``; raises on a bad sigma."""
    kernel, totals, extent = _noise(graph.num_nodes, sigma)
    return ObservationModel(kernel, totals, extent, *confusion_entries(graph))
