"""Monte Carlo harness: trajectory sampling and per-trial accuracy.

A run's one result is its per-trial filter and smoother accuracies, and
``TABLE1_SCENARIOS`` lists the paper's three reference scenarios. Trials are
seeded independently from a master seed through a SplitMix64 stream and run
in batches whose width is a fixed function of the run's size, so a run's
results are a function of its configuration alone. ``simulate_trials``
checks a configuration and builds its model once, at the call, and hands
out its batches: ``simulate`` runs them in order, and ``run_experiment``,
where ``os.fork`` exists, runs the later half of them in a helper process,
which leaves every result unchanged. Drives are drawn by inverse CDF from
each model's ``roadmap.padded_columns``, summed down each column.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import inference, matrixio, roadmap, sensor

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BATCH_BYTES = 1 << 20

#: Steps per drive in every Table 1 scenario
TABLE1_STEPS = 50

#: (initial state, sigma, reported filter accuracy, reported smoother accuracy)
TABLE1_SCENARIOS = (
    (5, 1.0, 0.76, 0.88),
    (5, 2.0, 0.68, 0.82),
    (90, 1.0, 0.76, 0.82),
)


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer: maps a 64-bit value to a well-mixed 64-bit value."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial RNG seed: element ``trial`` + 1 of the SplitMix64 stream.

    trial_seed(s, t) = splitmix64(s + (t + 1) * 0x9E3779B97F4A7C15 mod 2^64).
    Fixed and documented so experiment results stay reproducible across
    versions.
    """
    return splitmix64((master_seed + (trial + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class ExperimentConfig:
    initial_state: int
    sigma: float
    steps: int = 50
    trials: int = 1
    master_seed: int = 0
    map_source: str = "default"


def inverse_cdf_sample(cdf, u):
    """Smallest 1-based position whose cumulative probability exceeds ``u``.

    ``cdf`` is the running sum of a probability column in ascending node-id
    order, over all M entries (the position is then the node id) or over the
    nonzeros only, as down a ``sampling_tables`` column. An (L,) column and
    a scalar u give a numpy integer, (L, N) columns and N uniforms N
    positions. Counting entries <= u equals ``searchsorted(side="right")`` on
    a sorted column; a u at or beyond a rounded-down total is clamped just
    below it, so a zero-probability state is never selected.
    """
    cdf = np.asarray(cdf)
    return (cdf <= np.minimum(u, np.nextafter(cdf[-1], 0.0))).sum(axis=0) + 1


def sampling_tables(transition: roadmap.TransitionModel, observation: sensor.ObservationModel):
    """``sample_trajectory``'s (ids, cdf) tables: each model's ``roadmap.padded_columns``
    with its values summed down each column, the transition's ids its ``padded_rows[1]``'s.

    Adding 0.0 leaves a running sum unchanged, so ``cdf[:, i]`` equals the dense
    ``np.cumsum(matrix, axis=0)[ids[:, i], i]`` bit for bit, padding included.
    """
    ids, values = transition.padded_rows[1]
    table = roadmap.padded_columns(transition.num_nodes, *observation.column_entries())
    return (ids, np.cumsum(values, axis=0)), (table[0], np.cumsum(table[1], axis=0, out=table[1]))


def _draw(table, x, u):
    """Node ids drawn from columns ``x`` (1-based) with uniforms ``u``."""
    ids, cdf = table
    return ids[inverse_cdf_sample(cdf[:, x - 1], u) - 1, x - 1] + 1


def sample_trajectory(transition_cdfs, observation_cdfs, initial_state: int, steps: int, seed):
    """Simulate a true path and its measurements by inverse-CDF sampling.

    The two tables are those of the transition and observation that
    ``sampling_tables`` builds, (ids, cdf) pairs of shape (K, M), so the
    states are a table's columns. Each step draws the next state from
    column x_{k-1} of the transition, then the measurement from column x_k of
    the observation, consuming one uniform per draw in that order; the draws
    equal those from the dense ``np.cumsum(matrix, axis=0)`` columns. A
    trial's 2T uniforms come from one ``default_rng(seed).random(2 * steps)``
    call, the same stream as 2T single draws.

    Returns (true_states, measurements), int arrays of node ids: (steps,)
    for one ``seed``, (steps, N) with one column per seed for a sequence of N
    seeds.
    """
    inference.point_mass_belief(transition_cdfs[0].shape[1], initial_state)  # checks initial_state
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    uniforms = np.array([np.random.default_rng(s).random(2 * steps) for s in seeds])
    uniforms = uniforms.T.reshape(steps, 2, len(seeds))
    states = np.empty((steps, len(seeds)), dtype=np.int64)
    measurements = np.empty_like(states)
    x = np.full(len(seeds), int(initial_state))
    for k in range(steps):
        x = states[k] = _draw(transition_cdfs, x, uniforms[k, 0])
        measurements[k] = _draw(observation_cdfs, x, uniforms[k, 1])
    return (states[:, 0], measurements[:, 0]) if single else (states, measurements)


def accuracy(true_states, estimates):
    """Fraction of steps where the estimate equals the true state.

    Two (T,) sequences give a numpy float; (N, T) arrays give one fraction
    per row, as an (N,) array.
    """
    truth = np.asarray(true_states)
    estimate = np.asarray(estimates)
    if truth.shape != estimate.shape:
        raise ValueError(f"length mismatch: shape {truth.shape} true vs {estimate.shape} estimated")
    if truth.size == 0:
        raise ValueError("empty sequences")
    return np.mean(truth == estimate, axis=-1)


def read_graph(map_source: str) -> roadmap.RoadGraph:
    """The map of ``map_source``: the generated default map for "default", else a map file."""
    if map_source == "default":
        return roadmap.generate_default_map()
    return roadmap.read_map(map_source)


def build_model(graph: roadmap.RoadGraph, sigma: float):
    """The graph's (transition, observation) model; check every input before calling.

    Both are kept in their parts, and neither builds an M x M array: the
    transition is a ``roadmap.TransitionModel``, the edges' entries from one
    ``transition_entries`` call, and the observation a
    ``sensor.ObservationModel``. The passes build the transition's dense
    ``matrix`` only on a map below the sparse crossover; ``export-matrices``
    writes both a block of rows at a time.
    """
    observation = sensor.observation_model(graph, sigma)
    return roadmap.transition_model(graph), observation


def batch_width(steps: int, num_states: int) -> int:
    """Trials sampled and inferred together: each (T, M, W) belief array stays within 1 MiB."""
    return max(1, _BATCH_BYTES // (8 * steps * num_states))


def simulate_trials(config: ExperimentConfig, smoother: bool = True):
    """Check a configuration and build its model once: (starts, run_batch).

    The map is read, sigma, the initial state, steps and trials are checked
    in that order, and only then does one ``build_model`` call build the
    model and one ``sampling_tables`` call its sampling tables, both from the
    same transition entries. ``starts`` are the batches'
    first trials, in order. ``run_batch(start)`` samples and infers the batch
    from trial ``start`` and returns (true_states, measurements,
    filter_estimates, smoother_estimates): (W, steps) int arrays of node ids,
    row i for the batch's i-th trial, with W = ``batch_width`` and a shorter
    last batch. Each trial gets its own seed via ``trial_seed``, so a batch is
    a function of the config and its start alone. With ``smoother=False`` the
    backward pass and the smoothing product are skipped and
    ``smoother_estimates`` is None.
    """
    graph = read_graph(config.map_source)
    sensor.gaussian_kernel(0, 0, config.sigma)  # raises on a bad sigma
    prior = inference.point_mass_belief(graph.num_nodes, config.initial_state)
    if config.steps < 1:
        raise ValueError("steps must be >= 1")
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    transition, observation = build_model(graph, config.sigma)
    tables = sampling_tables(transition, observation)
    width = batch_width(config.steps, graph.num_nodes)

    def run_batch(start: int):
        batch = slice(start, start + width)
        seeds = [trial_seed(config.master_seed, t) for t in range(config.trials)[batch]]
        x, y = sample_trajectory(*tables, config.initial_state, config.steps, seeds)
        try:
            # both belief arrays are freed on return, before the next batch's passes
            result = inference.run_smoother(transition, observation, y, prior, smoother)
        except inference.InferenceError as exc:
            raise inference.InferenceError(exc.reason, exc.step, start + exc.trial) from exc
        filtered = inference.map_estimate(result.filtered).T
        smoothed = inference.map_estimate(result.smoothed).T if smoother else None
        return x.T, y.T, filtered, smoothed

    return range(0, config.trials, width), run_batch


def run_experiment(config: ExperimentConfig):
    """(filter, smoother) accuracies of the sampled drives: two (trials,) arrays in trial order.

    ``simulate_trials`` builds the model once. Where ``os`` has ``fork`` and
    there are two batches or more, a helper process forked after the build
    runs the later half of the batches while this process runs the earlier
    half. A batch's results depend only on the config and its start, so the
    arrays equal those of one serial loop, and so does the error of the first
    failing trial: this process's half comes first in trial order.
    """
    starts, run_batch = simulate_trials(config)

    def accuracies(batch_starts):
        for start in batch_starts:
            x, _, filtered, smoothed = run_batch(start)
            yield accuracy(x, filtered), accuracy(x, smoothed)

    if len(starts) < 2 or not hasattr(os, "fork"):
        batches = list(accuracies(starts))
    else:
        split = (len(starts) + 1) // 2
        own, rest = matrixio._with_helper("Monte Carlo", accuracies(starts[split:]),
                                          lambda: list(accuracies(starts[:split])))
        batches = own + rest
    return tuple(np.concatenate(column) for column in zip(*batches))
