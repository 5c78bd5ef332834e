"""Correctness references for the recursive inference code and the observation model.

``enumerate_posteriors`` is brute force for small instances: every state
path is materialized and weighted by initial probability times transition
and observation factors, in plain (non-log) arithmetic. Slow by design;
guarded by a path budget. ``log_domain_smoother`` runs the unscaled
recursions in log space, so no message underflows at any length.
``reference_noise(reference_confusion_base(graph), sigma)`` is the dense
M x M observation matrix, built with a per-column loop and a full distance
grid, independently of ``sensor.ObservationModel``, and
``reference_transition(graph)`` the dense transition matrix, built without
its edge entries. ``edge_triples(graph)`` gives a graph's edges as
(src, dst, weight) triples, read from its columns. ``sampling_table(matrix)``
gives a dense matrix's sampling table, for the tests that sample from a
hand-built model: (ids, cdf), both (K, M), column i's nonzero rows (0-based)
and their running sums down ``ids[:, i]`` and ``cdf[:, i]``, as
``roadmap.padded_columns`` lays them out, the layout of the passes' padded
rows too, and
``models(transition, observation)`` gives two dense matrices as the models
that the passes take. ``reference_graph(num_nodes, edges)`` validates a map
one edge at a time, as ``roadmap.RoadGraph`` did before it checked columns,
and ``padded_row_product(ids, values, b)`` sums padded rows one k at a time,
as ``inference._product`` did before it gathered a chunk of k at once.
"""

from __future__ import annotations

import math

import numpy as np

from roadhmm import roadmap, sensor

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


def _log_sum_exp(values, axis):
    """log(sum(exp(values))) along ``axis``; -inf where every value is -inf."""
    peak = np.max(values, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(values - peak).sum(axis=axis)) + np.squeeze(peak, axis)


def log_domain_smoother(A, obs, initial, measurements) -> np.ndarray:
    """Smoothed marginals (T, M) of one sequence from log alpha + log beta.

    log alpha_k(i) = log obs[y_k, i] + logsumexp_j(log A[i, j] + log alpha_{k-1}(j)),
    log beta_k(j) = logsumexp_i(log A[i, j] + log obs[y_{k+1}, i] + log beta_{k+1}(i)).
    """
    with np.errstate(divide="ignore"):
        log_a, log_obs, previous = np.log(A), np.log(obs), np.log(initial)
    y = np.asarray(measurements, dtype=int) - 1
    log_alpha = np.empty((len(y), len(previous)))
    for k, row in enumerate(y):
        previous = log_alpha[k] = log_obs[row] + _log_sum_exp(log_a + previous, axis=1)
    log_beta = np.zeros_like(log_alpha)
    for k in range(len(y) - 2, -1, -1):
        log_beta[k] = _log_sum_exp(log_a + (log_obs[y[k + 1]] + log_beta[k + 1])[:, None], axis=0)
    joint = log_alpha + log_beta
    return np.exp(joint - _log_sum_exp(joint, axis=1)[:, None])


def edge_triples(graph):
    """The graph's edges in order, as (src, dst, weight) triples of Python numbers."""
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist()))


def adjacency(graph):
    """Boolean adjacency over the graph's edges, symmetric in direction, self loops excluded."""
    adjacent = np.zeros((graph.num_nodes, graph.num_nodes), dtype=bool)
    for src, dst, _ in edge_triples(graph):
        if src != dst:
            adjacent[dst - 1, src - 1] = adjacent[src - 1, dst - 1] = True
    return adjacent


def reference_confusion_base(graph):
    """The confusion base, M x M, one column at a time: 0.7 on the node and the
    rest split over its neighbors, or 1.0 on a node without neighbors."""
    m = graph.num_nodes
    adjacent = adjacency(graph)
    base = np.zeros((m, m))
    for i in range(m):
        neighbors = np.flatnonzero(adjacent[:, i])
        if neighbors.size == 0:
            base[i, i] = 1.0
        else:
            base[i, i] = 0.7
            base[neighbors, i] = (1.0 - 0.7) / neighbors.size
    return base


def reference_noise(base, sigma):
    """``base`` with the index Gaussian added to every column and renormalized,
    over the dense M x M distance grid."""
    base = np.asarray(base, dtype=float)
    ids = np.arange(1, base.shape[0] + 1)
    g = sensor.gaussian_kernel(ids[:, None], ids[None, :], sigma)
    return (base + g) / (1.0 + g.sum(axis=0))


def reference_transition(graph):
    """The two-array build that build_transition_matrix replaced: weights in an
    M x M array, divided by its column sums."""
    src, dst, weight = graph.src, graph.dst, graph.weight
    weights = np.zeros((graph.num_nodes, graph.num_nodes))
    weights[dst - 1, src - 1] = weight
    return weights / weights.sum(axis=0)


def _entries(matrix):
    """(rows, columns, values) of a dense matrix's nonzeros; ``nonzero`` of the
    transpose sorts them by column, then row."""
    matrix = np.asarray(matrix, dtype=float)
    columns, rows = np.nonzero(matrix.T)
    return rows, columns, matrix[rows, columns]


def sampling_table(matrix):
    """``experiment.sampling_tables``' table of a dense column-stochastic matrix: its
    nonzeros' ``roadmap.padded_columns``, with the values summed down each column."""
    rows, columns, values = _entries(matrix)
    width = int(np.bincount(columns).max())
    ids, cdf = roadmap.padded_columns(np.shape(matrix)[1], width, [(rows, columns, values)])
    return ids, np.cumsum(cdf, axis=0, out=cdf)


def models(transition, observation):
    """(``roadmap.TransitionModel``, ``sensor.ObservationModel``) of two dense
    column-stochastic matrices, each kept in its nonzeros: the models that the
    passes take.

    The observation model gets a zero kernel and unit totals, so every entry
    it reads is (b + 0.0) / 1.0 == b, the dense entry itself.
    """
    m, n = len(transition), len(observation)
    return (roadmap.TransitionModel(m, *_entries(transition)),
            sensor.ObservationModel(np.zeros(n), np.ones(n), 1, *_entries(observation)))


def reference_graph(num_nodes, edges):
    """(num_nodes, edges) of a valid map, the edges as (src, dst, weight) triples
    with int ids and float weights, or the ``roadmap.MapError`` of an invalid
    one, checked one edge at a time in order:
    endpoints are integers in range, the weight a finite nonnegative number, the
    (src, dst) pair new; then every node needs an outgoing positive weight."""
    if not _is_int(num_nodes) or num_nodes < 1:
        raise roadmap.MapError("num_nodes must be a positive integer")
    normalized = []
    seen = set()
    sources = set()
    for src, dst, weight in edges:
        for node in (src, dst):
            if not _is_int(node):
                raise roadmap.MapError(f"node id {node!r} is not an integer")
            if not 1 <= node <= num_nodes:
                raise roadmap.MapError(
                    f"node {int(node)} out of range 1..{num_nodes} on edge ({src}, {dst})")
        if not isinstance(weight, (int, float, np.floating)) or isinstance(weight, bool):
            raise roadmap.MapError(f"weight {weight!r} on edge ({src}, {dst}) is not a number")
        try:
            weight = float(weight)
        except OverflowError:
            weight = math.inf if weight > 0 else -math.inf
        if not np.isfinite(weight):
            raise roadmap.MapError(f"non-finite weight {weight} on edge ({src}, {dst})")
        if weight < 0:
            raise roadmap.MapError(f"negative weight {weight} on edge ({src}, {dst})")
        key = (int(src), int(dst))
        if key in seen:
            raise roadmap.MapError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        if weight > 0:
            sources.add(key[0])
        normalized.append((key[0], key[1], weight))
    if len(sources) < num_nodes:
        missing = next(n for n in range(1, num_nodes + 1) if n not in sources)
        raise roadmap.MapError(f"node {missing} has no outgoing edge with positive weight")
    return int(num_nodes), tuple(normalized)


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def padded_row_product(ids, values, b):
    """The sum over k of values[k] * b[ids[k]] for (K, M) padded rows and (M, N)
    columns b: one gather per k, added into one total in k order."""
    values = values[:, :, None]
    total = np.take(b, ids[0], axis=0)
    total *= values[0]
    term = np.empty_like(total)
    for k in range(1, len(ids)):
        np.take(b, ids[k], axis=0, out=term)
        term *= values[k]
        total += term
    return total
