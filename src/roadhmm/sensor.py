"""Observation model: a discrete confusion base plus index-distance Gaussian.

The base matrix concentrates probability on the true position and spreads
the rest over graph neighbors. The Gaussian kernel over node-index distance
is then superimposed on every column and the column renormalized, which
leaves every entry strictly positive (no measurement can deadlock the
filter). Matrices are column-stochastic: entry [j-1, i-1] = P(measure j | at i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roadmap import RoadGraph


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviation of the superimposed Gaussian, in node-index units."""

    sigma: float

    def __post_init__(self):
        _check_sigma(self.sigma)


def _check_sigma(sigma: float) -> None:
    # an infinite sigma would flatten the kernel to zero and leave a noise-free model
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def gaussian_kernel(j, i, sigma: float):
    """Normal density with std ``sigma`` at index distance j - i; symmetric in (i, j).

    ``j`` and ``i`` are node indices or arrays of them that broadcast together.
    """
    _check_sigma(sigma)
    d = np.asarray(j, dtype=float) - np.asarray(i, dtype=float)
    return np.exp(-(d * d) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


def build_confusion_base(graph: RoadGraph, diagonal_target: float = 0.7) -> np.ndarray:
    """Discrete confusion matrix before noise.

    Column i puts ``diagonal_target`` on i itself and splits the remaining
    mass uniformly over the nodes adjacent to i in either direction; pairs
    that are not directly connected get zero. A node with no neighbors
    observes itself with probability 1.
    """
    if not 0.5 < diagonal_target < 1.0:
        raise ValueError("diagonal_target must lie in (0.5, 1)")
    m = graph.num_nodes
    adjacent = graph.adjacency_matrix()
    base = np.zeros((m, m))
    for i in range(m):
        neighbors = np.flatnonzero(adjacent[:, i])
        if neighbors.size == 0:
            base[i, i] = 1.0
        else:
            base[i, i] = diagonal_target
            base[neighbors, i] = (1.0 - diagonal_target) / neighbors.size
    return base


def apply_gaussian_noise(base: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Superimpose the index Gaussian on every column and renormalize.

    Column i becomes (base[:, i] + g[:, i]) / (1 + sum_j g[j, i]) with
    g[j, i] = gaussian_kernel(j, i, sigma); columns still sum to 1 and every
    entry is strictly positive.
    """
    base = np.asarray(base, dtype=float)
    ids = np.arange(1, base.shape[0] + 1)
    g = gaussian_kernel(ids[:, None], ids[None, :], noise.sigma)
    return (base + g) / (1.0 + g.sum(axis=0))


def likelihood_vector(obs: np.ndarray, y: int) -> np.ndarray:
    """P(measure y | at i) for every state i: row y of the observation matrix."""
    m = obs.shape[0]
    if not 1 <= y <= m:
        raise ValueError(f"measurement {y} out of range 1..{m}")
    return np.array(obs[int(y) - 1, :], dtype=float)
