"""Monte Carlo harness: trajectory sampling, accuracy, scenario comparison.

Trials are seeded independently from a master seed through a SplitMix64
stream and run in batches whose width is a fixed function of the run's size,
so a run's results are a function of its configuration alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inference, roadmap, sensor

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BATCH_BYTES = 1 << 20

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
class TrajectorySample:
    """A simulated true path x_1..x_T with its measurements y_1..y_T."""

    initial_state: int
    true_states: tuple[int, ...]
    measurements: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class TrialTraces:
    """Every trial of a run: (trials, steps) int arrays of node ids, row i for trial i.

    ``smoother_estimates`` is None when the smoother was not run.
    """

    seeds: tuple[int, ...]
    true_states: np.ndarray
    measurements: np.ndarray
    filter_estimates: np.ndarray
    smoother_estimates: np.ndarray | None


@dataclass(frozen=True)
class ExperimentConfig:
    initial_state: int
    sigma: float
    steps: int = 50
    trials: int = 1
    master_seed: int = 0
    map_source: str = "default"


@dataclass(frozen=True)
class ExperimentResult:
    """Per-trial accuracies with their seeds; summary stats are derived."""

    filter_accuracies: tuple[float, ...]
    smoother_accuracies: tuple[float, ...]
    trial_seeds: tuple[int, ...]

    @property
    def filter_mean(self) -> float:
        return float(np.mean(self.filter_accuracies))

    @property
    def smoother_mean(self) -> float:
        return float(np.mean(self.smoother_accuracies))

    @property
    def filter_std(self) -> float:
        return _sample_std(self.filter_accuracies)

    @property
    def smoother_std(self) -> float:
        return _sample_std(self.smoother_accuracies)


@dataclass(frozen=True)
class Table1Row:
    label: str
    config: ExperimentConfig
    result: ExperimentResult
    reference_filter: float
    reference_smoother: float


def _sample_std(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def inverse_cdf_sample(cdf, u):
    """Smallest node id whose cumulative probability exceeds ``u``.

    ``cdf`` is the running sum of a probability column in ascending node-id
    order; zero-probability states are never selected. Given N such columns
    side by side, (M, N), and N uniforms, it returns N node ids. Counting the
    entries <= u equals ``searchsorted(side="right")`` on a non-decreasing
    column; the cap at M keeps a u beyond a rounded-down total in range.
    """
    cdf = np.asarray(cdf)
    ids = np.minimum((cdf <= u).sum(axis=0), len(cdf) - 1) + 1
    return int(ids) if ids.ndim == 0 else ids


def sample_trajectory(A, obs, initial_state: int, steps: int, seed, *, cdfs=None):
    """Simulate a true path and its measurements by inverse-CDF sampling.

    Each step draws the next state from column x_{k-1} of the transition
    matrix, then the measurement from column x_k of the observation matrix,
    consuming one uniform per draw in that order. A trial's 2T uniforms come
    from one ``default_rng(seed).random(2 * steps)`` call, the same stream as
    2T single draws.

    ``seed`` is one seed, giving a TrajectorySample, or a sequence of N
    seeds, giving (true_states, measurements) as (steps, N) int arrays of node
    ids with one column per seed. ``cdfs`` is ``(np.cumsum(A, axis=0),
    np.cumsum(obs, axis=0))`` for a caller that samples many batches.
    """
    m = np.shape(A)[0]
    if not 1 <= initial_state <= m:
        raise ValueError(f"initial state {initial_state} out of range 1..{m}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if cdfs is None:
        cdfs = (np.cumsum(np.asarray(A, dtype=float), axis=0),
                np.cumsum(np.asarray(obs, dtype=float), axis=0))
    transition_cdf, observation_cdf = cdfs
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    uniforms = np.array([np.random.default_rng(s).random(2 * steps) for s in seeds])
    uniforms = uniforms.T.reshape(steps, 2, len(seeds))
    states = np.empty((steps, len(seeds)), dtype=np.int64)
    measurements = np.empty_like(states)
    x = np.full(len(seeds), int(initial_state))
    for k in range(steps):
        x = states[k] = inverse_cdf_sample(transition_cdf[:, x - 1], uniforms[k, 0])
        measurements[k] = inverse_cdf_sample(observation_cdf[:, x - 1], uniforms[k, 1])
    if single:
        return TrajectorySample(
            initial_state=int(initial_state),
            true_states=tuple(states[:, 0].tolist()),
            measurements=tuple(measurements[:, 0].tolist()),
        )
    return states, measurements


def accuracy(true_states, estimates):
    """Fraction of steps where the estimate equals the true state.

    For (N, T) arrays, one fraction per row, as an (N,) array.
    """
    truth = np.asarray(true_states)
    estimate = np.asarray(estimates)
    if truth.shape != estimate.shape:
        raise ValueError(f"length mismatch: shape {truth.shape} true vs {estimate.shape} estimated")
    if truth.size == 0:
        raise ValueError("empty sequences")
    fractions = np.mean(truth == estimate, axis=-1)
    return float(fractions) if fractions.ndim == 0 else fractions


def build_model(map_source: str, sigma: float):
    """Load (or generate) the map and derive its transition and observation matrices."""
    if map_source == "default":
        graph = roadmap.generate_default_map()
    else:
        with open(map_source, encoding="utf-8") as handle:
            graph = roadmap.load_map(handle.read())
    transition = roadmap.build_transition_matrix(graph)
    base = sensor.build_confusion_base(graph)
    observation = sensor.apply_gaussian_noise(base, sensor.NoiseSpec(sigma))
    return graph, transition, observation


def batch_width(steps: int, num_states: int) -> int:
    """Trials sampled and inferred together: each (T, M, W) belief array stays within 1 MiB."""
    return max(1, _BATCH_BYTES // (8 * steps * num_states))


def simulate_trials(config: ExperimentConfig, smoother: bool = True) -> TrialTraces:
    """Run all trials of a configuration; deterministic for fixed config.

    Each trial gets its own seed via ``trial_seed``. Trials run in batches of
    ``batch_width`` through one sampling and inference pass each; with
    ``smoother=False`` the backward pass and the smoothing product are
    skipped and ``smoother_estimates`` is None.
    """
    graph, transition, observation = build_model(config.map_source, config.sigma)
    prior = inference.point_mass_belief(graph.num_nodes, config.initial_state)
    if config.steps < 1:
        raise ValueError("steps must be >= 1")
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    seeds = tuple(trial_seed(config.master_seed, t) for t in range(config.trials))
    cdfs = (np.cumsum(transition, axis=0), np.cumsum(observation, axis=0))
    shape = (config.trials, config.steps)
    states, measurements, filtered = (np.empty(shape, dtype=np.int64) for _ in range(3))
    smoothed = np.empty(shape, dtype=np.int64) if smoother else None
    width = batch_width(config.steps, graph.num_nodes)
    for start in range(0, config.trials, width):
        batch = slice(start, start + width)
        x, y = sample_trajectory(
            transition, observation, config.initial_state, config.steps, seeds[batch], cdfs=cdfs
        )
        states[batch], measurements[batch] = x.T, y.T
        try:
            forward = inference.forward_pass(transition, observation, y, prior)
            filtered[batch] = inference.map_estimate(forward.vectors).T
            if smoother:
                backward = inference.backward_pass(transition, observation, y)
                smoothed[batch] = inference.map_estimate(inference.smooth(forward, backward)).T
        except inference.InferenceError as exc:
            raise inference.InferenceError(exc.reason, exc.step, start + exc.trial) from exc
    return TrialTraces(seeds, states, measurements, filtered, smoothed)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Sample, filter and smooth ``config.trials`` trajectories; report accuracies."""
    traces = simulate_trials(config)
    return ExperimentResult(
        filter_accuracies=tuple(accuracy(traces.true_states, traces.filter_estimates).tolist()),
        smoother_accuracies=tuple(
            accuracy(traces.true_states, traces.smoother_estimates).tolist()
        ),
        trial_seeds=traces.seeds,
    )


def replicate_table1(master_seed: int = 0, trials: int = 500) -> tuple[Table1Row, ...]:
    """Run the three reference scenarios on the default map at T = 50.

    All scenarios share the master seed, so per-trial uniforms act as common
    random numbers across rows and sigma comparisons are paired.
    """
    rows = []
    for initial_state, sigma, reference_filter, reference_smoother in TABLE1_SCENARIOS:
        config = ExperimentConfig(
            initial_state=initial_state,
            sigma=sigma,
            steps=50,
            trials=trials,
            master_seed=master_seed,
            map_source="default",
        )
        rows.append(
            Table1Row(
                label=f"init={initial_state} sigma={sigma:g}",
                config=config,
                result=run_experiment(config),
                reference_filter=reference_filter,
                reference_smoother=reference_smoother,
            )
        )
    return tuple(rows)
