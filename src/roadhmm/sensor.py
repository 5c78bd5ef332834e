"""Observation model: a discrete confusion base plus index-distance Gaussian.

The base matrix concentrates probability on the true position and spreads
the rest over graph neighbors. The Gaussian over node-index distance, a 1-D
kernel of M values, is then superimposed on every column and the column
renormalized, in the base's own storage. Far from the diagonal the kernel
underflows to exactly 0 (from index distance 39 at sigma = 1), so an entry
whose base is also 0 stays 0: a measurement there is impossible under the
model. Matrices are column-stochastic: entry [j-1, i-1] = P(measure j | at i).
"""

from __future__ import annotations

import math

import numpy as np

from .roadmap import RoadGraph

#: Probability that a node with neighbors is measured as itself, before noise.
_DIAGONAL = 0.7


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


def build_confusion_base(graph: RoadGraph) -> np.ndarray:
    """Discrete confusion matrix before noise.

    Column i puts 0.7 on i itself and splits the remaining mass uniformly
    over the nodes adjacent to i in either direction; pairs that are not
    directly connected get zero. A node with no neighbors observes itself
    with probability 1.
    """
    m = graph.num_nodes
    pairs = {(e.src - 1, e.dst - 1) for e in graph.edges if e.src != e.dst}
    # (row, column) of every neighbor entry, each once
    entries = pairs | {(j, i) for i, j in pairs}
    rows, columns = np.array(list(entries), dtype=np.intp).reshape(-1, 2).T
    neighbors = np.bincount(columns, minlength=m)
    base = np.zeros((m, m))
    base[rows, columns] = ((1.0 - _DIAGONAL) / np.maximum(neighbors, 1))[columns]
    np.fill_diagonal(base, np.where(neighbors > 0, _DIAGONAL, 1.0))
    return base


def _diagonal(a: np.ndarray, d: int) -> np.ndarray:
    """Writable view of diagonal d of a C-contiguous square array: a[i + d, i]."""
    m = a.shape[0]
    return a.reshape(-1)[d * m if d >= 0 else -d::m + 1][:m - abs(d)]


def apply_gaussian_noise(base: np.ndarray, sigma: float) -> np.ndarray:
    """Superimpose the index Gaussian on every column and renormalize, in place.

    Column i becomes (base[:, i] + g[:, i]) / (1 + sum_j g[j, i]) with
    g[j, i] = kernel[|j - i|], where kernel[d] = gaussian_kernel(d, 0, sigma)
    is computed once for d = 0..M-1; columns still sum to 1. An entry is 0
    where base is 0 and the kernel has underflowed to 0.

    Only the band |j - i| < K is touched, K being the kernel's nonzero extent
    (39 at sigma = 1). Each column's kernel sum adds its rows in increasing
    order, as a dense sum over axis 0 does; the exact zeros it skips change
    nothing, so every byte equals the dense build's. The result is written
    into, and returned as, a C-contiguous float ``base``: pass a copy to keep it.
    """
    base = np.ascontiguousarray(base, dtype=float)
    m = base.shape[0]
    kernel = gaussian_kernel(np.arange(m), 0, sigma)
    k = int(np.flatnonzero(kernel)[-1]) + 1 if m else 0  # the kernel is 0 from distance k on
    total = np.zeros(m)
    for d in range(1 - k, k):  # d = j - i, increasing
        total[max(-d, 0):m - max(d, 0)] += kernel[abs(d)]
        _diagonal(base, d)[...] += kernel[abs(d)]
    total += 1.0
    base /= total
    return base
