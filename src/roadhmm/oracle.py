"""Brute-force posteriors by explicit path enumeration.

Correctness reference for the recursive inference code on small instances:
every state path is materialized and weighted by initial probability times
transition and observation factors, in plain (non-log) arithmetic. Slow by
design; guarded by a path budget.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_PATHS = 10_000_000
_CHUNK = 1 << 18


def enumerate_posteriors(
    A, obs, initial, measurements, max_paths: int = DEFAULT_MAX_PATHS
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact filtered and smoothed marginals plus the evidence p(y_1..y_T).

    filtered[k-1] sums over all paths consistent with measurements 1..k;
    smoothed[k-1] over all paths consistent with the full sequence. Raises
    ValueError at the first step k whose prefix evidence p(y_1..y_k) is 0.
    """
    A = np.asarray(A, dtype=float)
    obs = np.asarray(obs, dtype=float)
    initial = np.asarray(initial, dtype=float)
    m = A.shape[0]
    steps = len(measurements)
    if m**steps > max_paths:
        raise ValueError(f"enumeration budget exceeded: {m}^{steps} > {max_paths}")
    y = np.asarray(measurements, dtype=int) - 1

    filtered = np.empty((steps, m))
    for k in range(1, steps + 1):
        evidence_k, marginals_k = _sum_over_paths(A, obs, initial, y[:k])
        if evidence_k == 0:
            raise ValueError(f"step {k}: measurement impossible under model")
        filtered[k - 1] = marginals_k[k - 1] / evidence_k
    evidence, marginals = _sum_over_paths(A, obs, initial, y)
    smoothed = marginals / evidence if steps else np.empty((0, m))
    return filtered, smoothed, float(evidence)


def _sum_over_paths(A, obs, initial, y):
    """Total weight and per-time marginals over every path (x_0, .., x_T)."""
    m = A.shape[0]
    steps = len(y)
    total_paths = m ** (steps + 1)
    marginals = np.zeros((steps, m))
    evidence = 0.0
    for start in range(0, total_paths, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, total_paths))
        path = np.empty((index.size, steps + 1), dtype=np.int64)
        remainder = index
        for pos in range(steps, -1, -1):
            path[:, pos] = remainder % m
            remainder = remainder // m
        weight = initial[path[:, 0]].copy()
        for k in range(1, steps + 1):
            weight *= A[path[:, k], path[:, k - 1]]
            weight *= obs[y[k - 1], path[:, k]]
        evidence += weight.sum()
        for k in range(1, steps + 1):
            marginals[k - 1] += np.bincount(path[:, k], weights=weight, minlength=m)
    return evidence, marginals
