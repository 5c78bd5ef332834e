"""HMM filter and forward-backward smoother with per-step scaling.

The raw forward/backward recursions multiply T likelihoods together and
underflow long before T = 50 at M = 105, so every message is renormalized
to sum 1 at each step and the log of the divided-out normalizer is kept.
The smoother's final elementwise product cancels the factors, so results
are identical to the unscaled recursions up to floating point.

The passes, the smoother and map_estimate take one sequence or a batch of N
independent ones. One sequence has measurements of shape (T,) and beliefs
of shape (M,). A batch
has measurements (T, N) and beliefs (M, N), one column per sequence, so a
step of the whole batch is one product A @ B followed by N column
normalizers. A single sequence runs as the batch of one, where that product
is a matrix-vector product. For N > 1 the matrix-matrix product may round
differently in the last bit, so batched beliefs can differ from
one-sequence beliefs by an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InferenceError(ValueError):
    """A measurement is out of range or has zero probability under the model.

    ``step`` (1-based) and ``trial`` (the batch column) say where, when
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
    (T, M, N) and (T, N) for a batch.
    """

    vectors: np.ndarray
    log_scale_factors: np.ndarray


@dataclass(frozen=True)
class InferenceResult:
    """Filter and smoother beliefs for one measurement sequence or a batch.

    ``log_likelihood`` is a float for one sequence and an (N,) array for a batch.
    """

    filtered: np.ndarray
    smoothed: np.ndarray
    log_likelihood: float | np.ndarray


def point_mass_belief(num_states: int, node: int) -> np.ndarray:
    """Belief certain of one node id: the one range check of an initial state."""
    if not 1 <= node <= num_states:
        raise ValueError(f"initial state {node} out of range 1..{num_states}")
    belief = np.zeros(num_states)
    belief[int(node) - 1] = 1.0
    return belief


def _first_bad(normalizers: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first normalizer that is not positive and finite, if any."""
    ok = (normalizers > 0.0) & np.isfinite(normalizers)
    if ok.all():
        return None
    return tuple(int(i) for i in np.argwhere(~ok)[0])


def _observation_rows(obs: np.ndarray, measurements) -> tuple[np.ndarray, bool]:
    """Measurements as 0-based observation rows of shape (T, N), and whether they were a batch."""
    ids = np.asarray(measurements)
    batched = ids.ndim == 2
    if not batched:
        ids = ids.reshape(-1, 1)
    m = obs.shape[0]
    bad = np.argwhere(~((ids >= 1) & (ids <= m)))
    if bad.size:
        step, trial = (int(i) for i in bad[0])
        raise InferenceError(
            f"measurement {ids[step, trial]} out of range 1..{m}",
            step + 1,
            trial if batched else None,
        )
    return ids.astype(np.intp) - 1, batched


def _messages(vectors: np.ndarray, logs: np.ndarray, batched: bool) -> ScaledMessages:
    """Messages from (T, N, M) storage: a (T, M, N) view for a batch, (T, M) for one sequence.

    Storing each trial's belief contiguously lets sums and argmaxes over the
    state axis run along rows without copying.
    """
    if batched:
        return ScaledMessages(vectors.transpose(0, 2, 1), logs)
    return ScaledMessages(vectors[:, 0, :], logs[:, 0])


def forward_pass(A, obs, measurements, initial) -> ScaledMessages:
    """Scaled forward recursion; vectors equal the filter beliefs.

    Each step predicts with A, weights by the likelihood of the measurement
    and renormalizes, for all N columns at once. For a batch, ``initial`` is
    (M, N), or one (M,) prior shared by all N.
    """
    A = np.asarray(A, dtype=float)
    obs = np.asarray(obs, dtype=float)
    rows, batched = _observation_rows(obs, measurements)
    steps, n = rows.shape
    m = A.shape[0]
    belief = np.array(np.broadcast_to(np.reshape(initial, (m, -1)), (m, n)), dtype=float)
    vectors = np.empty((steps, n, m))
    normalizers = np.empty((steps, n))
    # A bad normalizer only turns later steps into NaN; the check after the
    # loop names the first one, and checking once keeps it out of the loop.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(steps):
            unnormalized = obs[rows[t]].T * (A @ belief)
            normalizers[t] = unnormalized.sum(axis=0)
            belief = unnormalized / normalizers[t]
            vectors[t] = belief.T
    bad = _first_bad(normalizers)
    if bad is not None:
        step, trial = bad
        raise InferenceError(
            "measurement impossible under model", step + 1, trial if batched else None
        )
    return _messages(vectors, np.log(normalizers), batched)


def _log_likelihood(messages: ScaledMessages) -> float | np.ndarray:
    total = messages.log_scale_factors.sum(axis=0)
    return float(total) if total.ndim == 0 else total


def backward_pass(A, obs, measurements) -> ScaledMessages:
    """Scaled backward recursion using the transpose of the transition matrix.

    The final message is the all-ones vector (stored normalized, factor
    log M); earlier messages fold in future measurements one at a time.
    """
    A = np.asarray(A, dtype=float)
    obs = np.asarray(obs, dtype=float)
    rows, batched = _observation_rows(obs, measurements)
    steps, n = rows.shape
    m = A.shape[0]
    vectors = np.empty((steps, n, m))
    normalizers = np.full((steps, n), float(m))
    if steps:
        vectors[-1] = 1.0 / m
    transposed = A.T
    with np.errstate(divide="ignore", invalid="ignore"):  # checked after the loop
        for t in range(steps - 2, -1, -1):
            raw = transposed @ (obs[rows[t + 1]] * vectors[t + 1]).T
            normalizers[t] = raw.sum(axis=0)
            vectors[t] = (raw / normalizers[t]).T
    # the recursion runs backwards, so the first bad normalizer is the last in time
    bad = _first_bad(normalizers[::-1])
    if bad is not None:
        step, trial = steps - 1 - bad[0], bad[1]
        raise InferenceError(
            "measurement impossible under model", step + 2, trial if batched else None
        )
    return _messages(vectors, np.log(normalizers), batched)


def smooth(forward: ScaledMessages, backward: ScaledMessages) -> np.ndarray:
    """Smoother beliefs: elementwise product of the two passes, renormalized.

    The per-step scale factors cancel in the normalization, so the scaled
    vectors can be multiplied directly.
    """
    if forward.vectors.shape != backward.vectors.shape:
        raise ValueError(
            f"forward/backward shape mismatch: {forward.vectors.shape} "
            f"vs {backward.vectors.shape}"
        )
    product = forward.vectors * backward.vectors
    sums = product.sum(axis=1, keepdims=True)
    bad = _first_bad(sums)
    if bad is not None:
        trial = bad[2] if product.ndim == 3 else None
        raise InferenceError("inconsistent forward/backward messages", bad[0] + 1, trial)
    product /= sums
    return product


def run_smoother(A, obs, measurements, initial) -> InferenceResult:
    """Run both passes and combine into filter and smoother beliefs."""
    fwd = forward_pass(A, obs, measurements, initial)
    bwd = backward_pass(A, obs, measurements)
    return InferenceResult(
        filtered=fwd.vectors,
        smoothed=smooth(fwd, bwd),
        log_likelihood=_log_likelihood(fwd),
    )


def map_estimate(belief) -> int | np.ndarray:
    """Most probable node id; ties go to the smallest id.

    ``belief`` is one belief (M,), giving an int, or beliefs stacked with the
    state axis second, (T, M) or (T, M, N), giving ids of shape (T,) or (T, N).
    """
    belief = np.asarray(belief)
    axis = 0 if belief.ndim == 1 else 1
    if belief.shape[axis] == 0:
        raise ValueError("empty belief")
    ids = np.argmax(belief, axis=axis) + 1
    return int(ids) if ids.ndim == 0 else ids
