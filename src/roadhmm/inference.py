"""HMM filter and forward-backward smoother with per-step scaling.

The raw forward/backward recursions multiply T likelihoods together and
underflow long before T = 50 at M = 105, so every message is renormalized
to sum 1 at each step and the log of the divided-out normalizer is kept.
The smoother's final elementwise product cancels the factors, so results
are identical to the unscaled recursions up to floating point.

The passes, the smoother and map_estimate take one sequence or a batch of N
independent ones; every belief and prior keeps the state axis last. One
sequence has measurements (T,), a prior (M,) and beliefs (T, M); a batch has
measurements (T, N), a prior (N, M) or a shared (M,), and beliefs (T, N, M).
A step of the whole batch is one transition product over (M, N) columns, A @ B
forward and A^T @ B backward, followed by N column normalizers; one sequence
runs as the batch of one. The transition is a ``roadmap.TransitionModel``,
and ``_product`` picks the product's kernel by the number of states alone.
Below ``_SPARSE_STATES`` it is BLAS on the dense A, the model's ``matrix``,
which may round a batch's columns differently in the last bit from one
column's, so batched beliefs can differ by an ulp. From there on it is a
fixed-order sum over A's padded rows, about four entries each on a road map:
it costs O(K M) per column instead of O(M^2), never builds the dense A, and
gives a column's product the same bits alone, in a batch and at any BLAS
thread count.

The observation model is a ``sensor.ObservationModel``. The passes read its
likelihood rows a chunk of steps at a time, building the rows of the chunk's
distinct measured ids once; a chunk's rows take at most 1 MiB, whatever T is.
The passes read the two models only through ``shape``, ``matrix``,
``padded_rows`` and ``likelihood_table``.

``run_smoother`` is the one composition of the passes, and every command
that infers runs it: the forward pass, then, when smoothing, the backward
pass and the smoothing product. The product is written into the backward
messages' storage, so a smoothing run holds two belief arrays, the forward
and the smoothed ones. The two passes depend only on the models and the
measurements, so for one long sequence (``infer``'s) the backward pass runs
in a helper process while this process runs the forward pass; a batch of
trials always runs both here, so the Monte Carlo helper never forks another.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import matrixio

#: Bytes of likelihood rows that one chunk of steps may build
_CHUNK_BYTES = 1 << 20

#: States from which the passes predict with padded rows instead of BLAS on
#: the dense A. Measured on a 2-core Linux VM with one BLAS thread, on
#: generated maps at each size's batch width for T = 50 (forward product, best
#: of 5), against padded rows summed one k at a time: BLAS 28-75 us against
#: 57-115 us at M = 300-400, 235-306 us against 85-150 us at M = 500-700, and
#: 1.9 ms against 0.1 ms at M = 3000. Not re-measured against ``_product``'s
#: chunked gather (43-45 us per column at M = 3000, the loop 71-72 us).
_SPARSE_STATES = 500

#: Bytes of one sequence's (T, M) belief array from which ``run_smoother`` runs
#: the backward pass in a helper process beside the forward pass. Measured on a
#: 2-core Linux VM as ``infer --method both`` wall time with the helper minus
#: without, medians of 9 alternating runs: on the default map (M = 105) +25 ms
#: at 2 MiB (T = 2 500), -33 ms at 4 MiB and -62 to -135 ms at 8 MiB (T = 10 000);
#: on a generated 3000-node map, whose passes cost less per byte and whose fork
#: costs more, in two sets of runs, +18 and +24 ms at 4 MiB, +19 and -5 ms at
#: 8 MiB, +17 and +71 ms at 16 MiB, -84 and -42 ms at 23 MiB. One byte count
#: cannot fit both maps; this one keeps the default map's gain.
_CONCURRENT_BYTES = 4 << 20


class InferenceError(ValueError):
    """A measurement is out of range or has zero probability under the model.

    ``step`` (1-based) and ``trial`` (the index in the batch) say where, when
    known; the message then starts ``trial i: step k:``.
    """

    def __init__(self, reason: str, step: int | None = None, trial: int | None = None):
        self.reason, self.step, self.trial = reason, step, trial
        where = f"trial {trial}: " if trial is not None else ""
        if step is not None:
            where += f"step {step}: "
        super().__init__(where + reason)


@dataclass(frozen=True)
class ScaledMessages:
    """Per-step normalized forward or backward messages.

    ``vectors[t]`` sums to 1; ``log_scale_factors[t]`` is the natural log of
    the normalizer divided out at step t+1. The unnormalized message is
    vectors[t] * exp(cumulative factors): prefix sums for a forward pass,
    suffix sums for a backward pass. The cumulative forward factor at step k
    equals log p(y_1..y_k). Shapes are (T, M) and (T,) for one sequence,
    (T, N, M) and (T, N) for a batch.
    """

    vectors: np.ndarray
    log_scale_factors: np.ndarray


@dataclass(frozen=True)
class InferenceResult:
    """Filter and smoother beliefs for one measurement sequence or a batch.

    ``smoothed`` is None when ``run_smoother`` ran without the smoother.
    ``log_likelihood`` is a numpy float for one sequence and an (N,) array for a batch.
    """

    filtered: np.ndarray
    smoothed: np.ndarray | None
    log_likelihood: np.floating | np.ndarray


def point_mass_belief(num_states: int, node: int) -> np.ndarray:
    """Belief certain of one node id: the one range check of an initial state."""
    if not 1 <= node <= num_states:
        raise ValueError(f"initial state {node} out of range 1..{num_states}")
    belief = np.zeros(num_states)
    belief[int(node) - 1] = 1.0
    return belief


def _check(normalizers: np.ndarray, reason: str, batched: bool, step_of=lambda t: t + 1) -> None:
    """Raise at the first normalizer that is not positive and finite, if any.

    ``normalizers`` has the step axis first and the trial axis second, in the
    order the recursion ran; ``step_of`` turns a row index into the 1-based step.
    """
    bad = np.argwhere(~((normalizers > 0.0) & np.isfinite(normalizers)))
    if bad.size:
        first = bad[0]
        raise InferenceError(reason, step_of(int(first[0])), int(first[1]) if batched else None)


def _observation_rows(obs, measurements) -> tuple[np.ndarray, bool]:
    """Measurements as 0-based observation rows of shape (T, N), and whether they were a batch."""
    ids = np.asarray(measurements)
    batched = ids.ndim == 2
    if not batched:
        ids = ids.reshape(-1, 1)
    m = np.shape(obs)[0]
    bad = np.argwhere(~((ids >= 1) & (ids <= m)))
    if bad.size:
        step, trial = (int(i) for i in bad[0])
        raise InferenceError(
            f"measurement {ids[step, trial]} out of range 1..{m}",
            step + 1,
            trial if batched else None,
        )
    return ids.astype(np.intp) - 1, batched


def _likelihood(obs, rows: np.ndarray):
    """A function of step t: the (N, M) likelihood rows of the measurements ``rows[t]``.

    The rows are built a chunk of C steps at a time, once per distinct id in
    the chunk. C depends on M and N alone: the chunk's C * N ids need at most
    ``_CHUNK_BYTES`` of rows, whatever T is. Steps may come in either direction.
    """
    size = max(1, _CHUNK_BYTES // (8 * max(np.shape(obs)[0] * rows.shape[1], 1)))
    table = index = start = None

    def at(t: int) -> np.ndarray:
        nonlocal table, index, start
        if start is None or not start <= t < start + size:
            table = None  # free the previous chunk's rows first
            start = t - t % size
            table, index = obs.likelihood_table(rows[start:start + size])
        return table[index[t - start]]

    return at


def _product(A, transpose: bool):
    """The transition product B -> A @ B, or A^T @ B with ``transpose``, of (M, N) columns B.

    ``A`` is a ``roadmap.TransitionModel``. Below ``_SPARSE_STATES`` states
    the product is BLAS on the dense A, the model's ``matrix``. From there on
    it sums A's padded rows, a chunk of k at a time: one gather of B's rows
    by the chunk's entry ids into a buffer of at most ``_CHUNK_BYTES`` (or
    one k), times the chunk's entry values in place, then each term added
    into one (M, N) total in k order. Each column's sum is then a fixed
    sequence of elementwise operations, and a padding term adds 0.0. A map
    with a hub, whose padded rows are as wide as its degree, gathers no
    K x M x N block.
    """
    if np.shape(A)[0] < _SPARSE_STATES:
        return partial(np.matmul, A.matrix.T if transpose else A.matrix)
    ids, values = A.padded_rows[transpose]
    values = values[:, :, None]  # broadcast over the N columns

    def product(b: np.ndarray) -> np.ndarray:
        step = min(len(ids), max(1, _CHUNK_BYTES // (8 * b.size)))  # the k's of one gather
        terms = np.empty((step, *b.shape))
        total = None
        for k in range(0, len(ids), step):
            chunk = terms[:len(ids[k:k + step])]
            # the ids are in range, and mode="raise" would gather into a copy of ``out``
            np.take(b, ids[k:k + step], axis=0, out=chunk, mode="clip")
            chunk *= values[k:k + step]
            # a term at a time: np.add.reduce over the k axis would loop over it innermost
            for term in chunk:
                if total is None:
                    total = term.copy()
                else:
                    total += term
        return total

    return product


def _messages(vectors: np.ndarray, logs: np.ndarray, batched: bool) -> ScaledMessages:
    """Messages from (T, N, M) storage: the storage itself for a batch, (T, M) for one sequence."""
    return ScaledMessages(vectors, logs) if batched else ScaledMessages(vectors[:, 0], logs[:, 0])


def forward_pass(A, obs, measurements, initial) -> ScaledMessages:
    """Scaled forward recursion; vectors equal the filter beliefs.

    Each step predicts with A, weights by the likelihood of the measurement
    and renormalizes, for all N sequences at once. For a batch, ``initial``
    is (N, M), or one (M,) prior shared by all N.
    """
    predict = _product(A, transpose=False)
    rows, batched = _observation_rows(obs, measurements)
    likelihood = _likelihood(obs, rows)
    steps, n = rows.shape
    m = np.shape(A)[0]
    # a C-contiguous (M, N) copy, so A @ belief runs the same BLAS call for every layout
    belief = np.array(np.broadcast_to(initial, (n, m)).T, dtype=float, order="C")
    vectors = np.empty((steps, n, m))
    normalizers = np.empty((steps, n))
    # A bad normalizer only turns later steps into NaN; the check after the
    # loop names the first one, and checking once keeps it out of the loop.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(steps):
            unnormalized = likelihood(t).T * predict(belief)
            normalizers[t] = unnormalized.sum(axis=0)
            belief = unnormalized / normalizers[t]
            vectors[t] = belief.T
    _check(normalizers, "measurement impossible under model", batched)
    return _messages(vectors, np.log(normalizers), batched)


def backward_pass(A, obs, measurements, out: np.ndarray | None = None) -> ScaledMessages:
    """Scaled backward recursion: it predicts with the transpose of the transition matrix.

    The final message is the all-ones vector (stored normalized, factor
    log M); earlier messages fold in future measurements one at a time.
    The messages are written into ``out`` when it is given, a C-contiguous
    float array of their shape, (T, M) or (T, N, M), and else into a new one.
    """
    predict = _product(A, transpose=True)
    rows, batched = _observation_rows(obs, measurements)
    likelihood = _likelihood(obs, rows)
    steps, n = rows.shape
    m = np.shape(A)[0]
    vectors = np.empty((steps, n, m)) if out is None else out.reshape(steps, n, m)
    normalizers = np.full((steps, n), float(m))
    if steps:
        vectors[-1] = 1.0 / m
    with np.errstate(divide="ignore", invalid="ignore"):  # checked after the loop
        for t in range(steps - 2, -1, -1):
            raw = predict((likelihood(t + 1) * vectors[t + 1]).T)
            normalizers[t] = raw.sum(axis=0)
            vectors[t] = (raw / normalizers[t]).T
    # the recursion runs backwards, so the first bad normalizer is the last in time:
    # row t of the reversed normalizers folded in step steps - t + 1
    _check(normalizers[::-1], "measurement impossible under model", batched,
           lambda t: steps - t + 1)
    return _messages(vectors, np.log(normalizers), batched)


def smooth(forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Smoother beliefs: elementwise product of the two passes' vectors, renormalized.

    The per-step scale factors cancel in the normalization, so the scaled
    vectors can be multiplied directly, and ``smooth`` takes only those, the
    passes' ``vectors``. The result is written into, and returned as,
    ``backward``: a smoothing run holds two belief arrays, not three. Pass a
    copy of the backward vectors to keep them.

    Where the forward mass sits only where the backward message is tiny, the
    product of the two can underflow although the sequence is possible. At
    the steps whose product sums below the smallest normal float, the
    product is taken in log space and rescaled to a peak of 1 instead.
    """
    if forward.shape != backward.shape:
        raise ValueError(f"forward/backward shape mismatch: {forward.shape} vs {backward.shape}")
    underflows = np.einsum("...i,...i->...", forward, backward) < np.finfo(float).tiny
    with np.errstate(divide="ignore", invalid="ignore"):  # disjoint supports give NaN, checked below
        logs = np.log(forward[underflows]) + np.log(backward[underflows])
        product = np.multiply(forward, backward, out=backward)
        product[underflows] = np.exp(logs - logs.max(axis=-1, keepdims=True, initial=-np.inf))
    sums = product.sum(axis=-1, keepdims=True)
    _check(sums, "inconsistent forward/backward messages", product.ndim == 3)
    product /= sums
    return product


def run_smoother(A, obs, measurements, initial, smoother: bool = True) -> InferenceResult:
    """Filter beliefs, and smoother beliefs if ``smoother``: the one composition of the passes.

    The forward pass always runs. With ``smoother``, the backward pass and
    ``smooth`` follow, and the smoothed beliefs take the backward messages'
    storage; without it, no backward pass runs and ``smoothed`` is None.

    The two passes depend only on the models and the measurements. Where
    ``os`` has ``fork`` and one sequence's (T, M) belief array takes at least
    ``_CONCURRENT_BYTES``, ``matrixio._with_helper`` runs the backward pass in
    a helper process while this process runs the forward pass. The helper
    writes the messages into a shared anonymous mapping made before the fork
    and sends back nothing, as ``smooth`` reads only their vectors and the
    log-likelihood comes from the forward pass. The result has the same
    bytes as the serial run's, and so has an error: the forward pass's comes
    first, and the backward pass's comes back unchanged.
    """
    ids = np.asarray(measurements)
    num_bytes = 8 * ids.size * np.shape(A)[0]
    if smoother and ids.ndim == 1 and num_bytes >= _CONCURRENT_BYTES and hasattr(os, "fork"):
        import mmap  # only here: a command that never forks leaves its 36 KiB unmapped

        vectors = np.frombuffer(mmap.mmap(-1, num_bytes)).reshape(len(ids), -1)

        def backward_steps():  # the helper's one step
            backward_pass(A, obs, ids, vectors)
            yield

        forward, _ = matrixio._with_helper(
            "backward-pass", backward_steps(), lambda: forward_pass(A, obs, ids, initial))
    else:
        forward = forward_pass(A, obs, ids, initial)
        vectors = backward_pass(A, obs, ids).vectors if smoother else None
    smoothed = smooth(forward.vectors, vectors) if smoother else None
    return InferenceResult(forward.vectors, smoothed, forward.log_scale_factors.sum(axis=0))


def map_estimate(belief) -> np.integer | np.ndarray:
    """Most probable node id along the last (state) axis; ties go to the smallest id.

    One belief (M,) gives a numpy integer; beliefs (T, M) or (T, N, M), or priors
    (N, M), give ids of shape (T,), (T, N) or (N,).
    """
    belief = np.asarray(belief)
    if belief.shape[-1] == 0:
        raise ValueError("empty belief")
    return np.argmax(belief, axis=-1) + 1
