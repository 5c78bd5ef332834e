import numpy as np
import pytest
from numpy.testing import assert_allclose

from roadhmm import experiment, inference, roadmap
from roadhmm.experiment import ExperimentConfig


SINGLE_NODE_MAP = '{"num_nodes": 1, "edges": [{"from": 1, "to": 1, "weight": 1.0}]}'


# ---- seed mixing ----


def test_splitmix64_is_deterministic_and_64_bit():
    values = {experiment.splitmix64(v) for v in range(1000)}
    assert len(values) == 1000
    assert all(0 <= v < 2**64 for v in values)
    assert experiment.splitmix64(12345) == experiment.splitmix64(12345)


def test_trial_seeds_distinct_across_trials_and_masters():
    seeds = {experiment.trial_seed(master, trial) for master in range(20) for trial in range(50)}
    assert len(seeds) == 1000


def test_trial_seed_handles_negative_master():
    assert 0 <= experiment.trial_seed(-17, 0) < 2**64


# ---- inverse_cdf_sample ----


def test_inverse_cdf_never_picks_zero_probability_states():
    cdf = np.cumsum([0.3, 0.0, 0.7])
    rng = np.random.default_rng(2)
    drawn = {experiment.inverse_cdf_sample(cdf, rng.random()) for _ in range(2000)}
    assert drawn == {1, 3}


def test_inverse_cdf_boundaries():
    cdf = np.cumsum([0.25, 0.25, 0.5])
    assert experiment.inverse_cdf_sample(cdf, 0.0) == 1
    assert experiment.inverse_cdf_sample(cdf, 0.2499) == 1
    assert experiment.inverse_cdf_sample(cdf, 0.25) == 2
    assert experiment.inverse_cdf_sample(cdf, 0.9999) == 3
    # float-roundoff guard: u beyond the accumulated total still lands in range
    short_cdf = np.array([0.5, 0.9999999999999998])
    assert experiment.inverse_cdf_sample(short_cdf, 0.9999999999999999) == 2


def test_inverse_cdf_frequencies_track_column():
    rng = np.random.default_rng(101)
    probabilities = np.array([0.1, 0.0, 0.4, 0.2, 0.3])
    cdf = np.cumsum(probabilities)
    n = 20000
    counts = np.bincount(
        [experiment.inverse_cdf_sample(cdf, u) - 1 for u in rng.random(n)], minlength=5
    )
    assert np.abs(counts / n - probabilities).max() < 0.02


def test_inverse_cdf_batch_matches_searchsorted():
    rng = np.random.default_rng(7)
    columns = rng.random((6, 40)) * (rng.random((6, 40)) < 0.6)
    columns[0] += 1e-3
    cdf = np.cumsum(columns / columns.sum(axis=0), axis=0)
    u = rng.random(40)
    u[:3] = (cdf[-1, 0], cdf[2, 1], 0.0)
    expected = [min(int(np.searchsorted(cdf[:, i], u[i], side="right")), 5) + 1 for i in range(40)]
    assert experiment.inverse_cdf_sample(cdf, u).tolist() == expected


# ---- sample_trajectory ----


def test_sample_trajectory_deterministic(default_transition, default_observation):
    a = experiment.sample_trajectory(default_transition, default_observation, 5, 50, seed=99)
    b = experiment.sample_trajectory(default_transition, default_observation, 5, 50, seed=99)
    assert a == b


def test_sample_trajectory_starts_at_initial_state(default_transition, default_observation):
    for initial in (5, 90):
        sample = experiment.sample_trajectory(
            default_transition, default_observation, initial, 10, seed=1
        )
        assert sample.initial_state == initial
        assert len(sample.true_states) == 10
        assert len(sample.measurements) == 10


def test_sampled_pairs_have_positive_probability(default_transition, default_observation):
    sample = experiment.sample_trajectory(default_transition, default_observation, 5, 200, seed=3)
    previous = sample.initial_state
    for state, measurement in zip(sample.true_states, sample.measurements):
        assert default_transition[state - 1, previous - 1] > 0.0
        assert default_observation[measurement - 1, state - 1] > 0.0
        previous = state


def scalar_reference_sample(A, obs, initial_state, steps, seed):
    """One scalar draw per step and per measurement, searched with searchsorted."""
    rng = np.random.default_rng(seed)
    transition_cdf, observation_cdf = np.cumsum(A, axis=0), np.cumsum(obs, axis=0)
    last = A.shape[0] - 1
    x, states, measurements = initial_state, [], []
    for _ in range(steps):
        x = min(int(np.searchsorted(transition_cdf[:, x - 1], rng.random(), side="right")), last) + 1
        y = min(int(np.searchsorted(observation_cdf[:, x - 1], rng.random(), side="right")), last) + 1
        states.append(x)
        measurements.append(y)
    return tuple(states), tuple(measurements)


def test_sample_trajectory_matches_scalar_draws(default_transition, default_observation):
    seeds = [experiment.trial_seed(3, t) for t in range(6)]
    states, measurements = experiment.sample_trajectory(
        default_transition, default_observation, 90, 60, seeds
    )
    assert states.shape == measurements.shape == (60, 6)
    for i, seed in enumerate(seeds):
        reference = scalar_reference_sample(default_transition, default_observation, 90, 60, seed)
        single = experiment.sample_trajectory(default_transition, default_observation, 90, 60, seed)
        assert (single.true_states, single.measurements) == reference
        assert (tuple(states[:, i].tolist()), tuple(measurements[:, i].tolist())) == reference


def test_sample_trajectory_rejects_bad_initial(default_transition, default_observation):
    with pytest.raises(ValueError, match="out of range"):
        experiment.sample_trajectory(default_transition, default_observation, 0, 5, seed=1)


def test_sample_trajectory_rejects_negative_steps(default_transition, default_observation):
    with pytest.raises(ValueError, match="^steps must be nonnegative$"):
        experiment.sample_trajectory(default_transition, default_observation, 5, -1, seed=1)


# ---- accuracy ----


@pytest.mark.parametrize(
    "true_states,estimates,expected",
    [
        (list(range(1, 51)), list(range(1, 51)), 1.0),
        ([1] * 50, [1] * 38 + [2] * 12, 0.76),
        ([1, 2, 3], [4, 5, 6], 0.0),
    ],
)
def test_accuracy_values(true_states, estimates, expected):
    assert experiment.accuracy(true_states, estimates) == pytest.approx(expected, abs=1e-15)


def test_accuracy_rejects_mismatch_and_empty():
    with pytest.raises(ValueError, match="length mismatch"):
        experiment.accuracy([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match=r"length mismatch: shape \(2, 50\) true vs \(3, 50\) estimated"):
        experiment.accuracy(np.ones((2, 50)), np.ones((3, 50)))
    with pytest.raises(ValueError, match="empty"):
        experiment.accuracy([], [])


# ---- run_experiment ----


def test_single_node_map_is_always_right(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(SINGLE_NODE_MAP)
    config = ExperimentConfig(
        initial_state=1, sigma=1.0, steps=5, trials=3, master_seed=7, map_source=str(path)
    )
    result = experiment.run_experiment(config)
    assert result.filter_accuracies == (1.0, 1.0, 1.0)
    assert result.smoother_accuracies == (1.0, 1.0, 1.0)


def test_run_experiment_deterministic_and_thread_invariant():
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=20, trials=8, master_seed=42)
    sequential = experiment.run_experiment(config)
    again = experiment.run_experiment(config)
    assert sequential == again


def test_run_experiment_statistics_consistent():
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=25, trials=6, master_seed=3)
    result = experiment.run_experiment(config)
    assert result.filter_mean == pytest.approx(np.mean(result.filter_accuracies), abs=1e-12)
    assert result.smoother_mean == pytest.approx(np.mean(result.smoother_accuracies), abs=1e-12)
    assert result.filter_std == pytest.approx(np.std(result.filter_accuracies, ddof=1), abs=1e-12)
    for value in result.filter_accuracies + result.smoother_accuracies:
        assert 0.0 <= value <= 1.0
        assert abs(value * config.steps - round(value * config.steps)) <= 1e-9
    assert len(result.trial_seeds) == 6


def test_single_trial_std_is_zero():
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=10, trials=1, master_seed=0)
    result = experiment.run_experiment(config)
    assert result.filter_std == 0.0
    assert result.smoother_std == 0.0


def test_run_experiment_rejects_bad_config():
    with pytest.raises(ValueError, match="initial state 999 out of range"):
        experiment.run_experiment(ExperimentConfig(initial_state=999, sigma=1.0))
    with pytest.raises(ValueError, match="steps"):
        experiment.run_experiment(ExperimentConfig(initial_state=5, sigma=1.0, steps=0))
    with pytest.raises(ValueError, match="trials"):
        experiment.run_experiment(ExperimentConfig(initial_state=5, sigma=1.0, trials=0))


def test_perfect_sensor_filter_is_always_right(default_transition):
    from roadhmm import inference

    identity = np.eye(105)
    prior = inference.point_mass_belief(105, 5)
    for trial in range(3):
        sample = experiment.sample_trajectory(
            default_transition, identity, 5, 30, experiment.trial_seed(0, trial)
        )
        result = inference.run_smoother(default_transition, identity, sample.measurements, prior)
        estimates = tuple(inference.map_estimate(b) for b in result.filtered)
        assert experiment.accuracy(sample.true_states, estimates) == 1.0


# ---- batched engine against a per-trial reference ----


def per_trial_reference(config):
    """sample_trajectory + run_smoother + map_estimate, one trial at a time."""
    _, transition, observation = experiment.build_model(config.map_source, config.sigma)
    prior = inference.point_mass_belief(transition.shape[0], config.initial_state)
    rows = []
    for trial in range(config.trials):
        sample = experiment.sample_trajectory(
            transition, observation, config.initial_state, config.steps,
            experiment.trial_seed(config.master_seed, trial),
        )
        result = inference.run_smoother(transition, observation, sample.measurements, prior)
        rows.append((
            sample.true_states,
            sample.measurements,
            [inference.map_estimate(b) for b in result.filtered],
            [inference.map_estimate(b) for b in result.smoothed],
        ))
    return [np.array(column) for column in zip(*rows)]


def assert_matches_reference(config):
    traces = experiment.simulate_trials(config)
    states, measurements, filtered, smoothed = per_trial_reference(config)
    assert traces.seeds == tuple(experiment.trial_seed(config.master_seed, t) for t in range(config.trials))
    assert np.array_equal(traces.true_states, states)
    assert np.array_equal(traces.measurements, measurements)
    assert np.array_equal(traces.filter_estimates, filtered)
    assert np.array_equal(traces.smoother_estimates, smoothed)


def test_engine_matches_per_trial_reference_with_partial_batch():
    assert experiment.batch_width(50, 105) == 24  # 50 trials run as 24 + 24 + 2
    for initial_state, sigma in ((5, 1.0), (90, 2.0)):
        assert_matches_reference(
            ExperimentConfig(initial_state=initial_state, sigma=sigma, steps=50, trials=50, master_seed=11)
        )


def test_engine_matches_per_trial_reference_at_width_one(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(roadmap.save_map(roadmap.generate_default_map(num_nodes=700, seed=5)))
    assert experiment.batch_width(100, 700) == 1
    assert_matches_reference(
        ExperimentConfig(initial_state=5, sigma=1.0, steps=100, trials=3, master_seed=2, map_source=str(path))
    )


def test_engine_filter_only_skips_smoother():
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=50, trials=30, master_seed=4)
    both = experiment.simulate_trials(config)
    filter_only = experiment.simulate_trials(config, smoother=False)
    assert filter_only.smoother_estimates is None
    assert np.array_equal(filter_only.filter_estimates, both.filter_estimates)


def test_engine_error_names_run_trial_and_step(monkeypatch):
    sample = experiment.sample_trajectory
    calls = []

    def corrupt_second_batch(*args, **kwargs):
        states, measurements = sample(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            measurements[2, 1] = 0
        return states, measurements

    monkeypatch.setattr(experiment, "sample_trajectory", corrupt_second_batch)
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=50, trials=30, master_seed=1)
    with pytest.raises(inference.InferenceError, match="^trial 25: step 3: measurement 0 out of range"):
        experiment.simulate_trials(config)


# ---- replicate_table1 ----


def test_replicate_table1_structure():
    rows = experiment.replicate_table1(master_seed=1, trials=2)
    assert len(rows) == 3
    assert [row.label for row in rows] == ["init=5 sigma=1", "init=5 sigma=2", "init=90 sigma=1"]
    assert [(r.reference_filter, r.reference_smoother) for r in rows] == [
        (0.76, 0.88),
        (0.68, 0.82),
        (0.76, 0.82),
    ]
    for row in rows:
        assert row.config.steps == 50
        assert len(row.result.filter_accuracies) == 2


def test_replicate_table1_deterministic():
    a = experiment.replicate_table1(master_seed=9, trials=2)
    b = experiment.replicate_table1(master_seed=9, trials=2)
    assert a == b


# ---- build_model ----


def test_build_model_default_and_file(tmp_path, default_graph):
    graph, transition, observation = experiment.build_model("default", 1.0)
    assert graph == default_graph
    assert_allclose(transition.sum(axis=0), 1.0, atol=1e-12)
    assert_allclose(observation.sum(axis=0), 1.0, atol=1e-12)
    path = tmp_path / "map.json"
    path.write_text(roadmap.save_map(default_graph))
    file_graph, _, _ = experiment.build_model(str(path), 1.0)
    assert file_graph == default_graph
