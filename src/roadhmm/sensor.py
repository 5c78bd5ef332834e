"""Observation model: a discrete confusion base plus index-distance Gaussian.

The base matrix concentrates probability on the true position and spreads
the rest over graph neighbors. The Gaussian kernel over node-index distance
is then superimposed on every column and the column renormalized. Far from
the diagonal the kernel underflows to exactly 0 (from index distance 39 at
sigma = 1), so an entry whose base is also 0 stays 0: a measurement there is
impossible under the model. Matrices are column-stochastic:
entry [j-1, i-1] = P(measure j | at i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roadmap import RoadGraph

#: Probability that a node with neighbors is measured as itself, before noise.
_DIAGONAL = 0.7


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviation of the superimposed Gaussian, in node-index units."""

    sigma: float

    def __post_init__(self):
        _check_sigma(self.sigma)


def _check_sigma(sigma: float) -> None:
    # The kernel divides by 2 sigma^2: it overflows above sigma ~ 1e154 (a flat,
    # noise-free kernel) and is 0 below ~ 1e-162, where the kernel's peak is 0/0.
    if not (sigma > 0 and 0.0 < 2.0 * (sigma * sigma) < math.inf):
        raise ValueError(f"sigma must be positive and finite, and so must 2*sigma^2, got {sigma}")


def gaussian_kernel(j, i, sigma: float):
    """Normal density with std ``sigma`` at index distance j - i; symmetric in (i, j).

    ``j`` and ``i`` are node indices or arrays of them that broadcast together.
    """
    _check_sigma(sigma)
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
    adjacent = graph.adjacency_matrix()
    neighbors = adjacent.sum(axis=0)
    base = adjacent * ((1.0 - _DIAGONAL) / np.maximum(neighbors, 1))
    np.fill_diagonal(base, np.where(neighbors > 0, _DIAGONAL, 1.0))
    return base


def apply_gaussian_noise(base: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Superimpose the index Gaussian on every column and renormalize.

    Column i becomes (base[:, i] + g[:, i]) / (1 + sum_j g[j, i]) with
    g[j, i] = gaussian_kernel(j, i, sigma); columns still sum to 1. An entry
    is 0 where base is 0 and the kernel has underflowed to 0.
    """
    base = np.asarray(base, dtype=float)
    ids = np.arange(1, base.shape[0] + 1)
    g = gaussian_kernel(ids[:, None], ids[None, :], noise.sigma)
    return (base + g) / (1.0 + g.sum(axis=0))
