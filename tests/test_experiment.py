import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from conftest import observation_matrix, run_trials, transition_matrix
from roadhmm import cli, experiment, inference, roadmap, sensor
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


def test_inverse_cdf_skips_zero_probability_state_beyond_rounded_down_total():
    cdf = np.cumsum([0.5, 0.4999999999999998, 0.0])
    assert experiment.inverse_cdf_sample(cdf, 0.9999999999999999) == 2


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_largest_uniform_draws_positive_probability_state_on_default_map(sigma):
    transition, observation = experiment.build_model(experiment.read_graph("default"), sigma)
    largest = 1.0 - 2.0**-53  # the largest value Generator.random() returns
    for matrix in (transition.matrix, observation_matrix(observation)):
        ids = experiment.inverse_cdf_sample(
            np.cumsum(matrix, axis=0), np.full(matrix.shape[1], largest)
        )
        assert np.all(matrix[ids - 1, np.arange(matrix.shape[1])] > 0.0)


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
    # a column whose total rounds down and whose last state has probability 0
    cdf = np.column_stack([cdf, np.cumsum([0.5, 0.4999999999999998, 0.0, 0.0, 0.0, 0.0])])
    u = rng.random(41)
    u[:3] = (cdf[-1, 0], cdf[2, 1], 0.0)
    u[-1] = 1.0 - 2.0**-53  # the largest value Generator.random() returns
    expected = [scalar_reference_draw(cdf[:, i], u[i]) for i in range(41)]
    assert experiment.inverse_cdf_sample(cdf, u).tolist() == expected


def test_single_values_are_numpy_scalars():
    assert isinstance(experiment.inverse_cdf_sample(np.cumsum([0.25, 0.75]), 0.5), np.integer)
    assert isinstance(experiment.accuracy([1, 2, 3], [1, 2, 4]), np.floating)


# ---- column_cdfs ----


def assert_column_cdfs_match_dense(table, matrix):
    """Each column holds its nonzeros' rows (0-based) and the dense cumsum at them,
    padded with id 0 and the column total."""
    ids, cdf = table
    dense = np.cumsum(matrix, axis=0)
    counts = np.count_nonzero(matrix, axis=0)
    assert ids.shape == cdf.shape == (counts.max(), matrix.shape[1])
    for i, n in enumerate(counts):
        assert np.all(np.diff(ids[:n, i]) > 0)
        assert np.array_equal(ids[:n, i], np.flatnonzero(matrix[:, i]))
        assert not ids[n:, i].any()
        assert np.array_equal(cdf[:n, i], dense[ids[:n, i], i])
        assert np.array_equal(cdf[n:, i], np.full(cdf.shape[0] - n, dense[-1, i]))
    # a draw through the padded pair is the dense draw, at cdf values and at the largest u
    columns = np.arange(matrix.shape[1])
    u = np.random.default_rng(0).random(columns.size)
    u[::3] = cdf[0, ::3]
    u[-1] = 1.0 - 2.0**-53  # the largest value Generator.random() returns
    drawn = experiment._draw(table, columns + 1, u)
    assert np.array_equal(drawn, experiment.inverse_cdf_sample(dense, u))


def assert_tables_match_dense(graph, sigma, observation=True):
    """``sampling_tables`` and the oracle's tables of the dense matrices all match the
    dense cumsum, and the two transition tables are the same bits."""
    transition = transition_matrix(graph)
    model = sensor.observation_model(graph, sigma)
    transition_table, observation_table = experiment.sampling_tables(
        roadmap.transition_model(graph), model
    )
    assert_column_cdfs_match_dense(transition_table, transition)
    assert_same_cdfs(transition_table, oracle.sampling_table(transition))
    if observation:
        dense = observation_matrix(model)
        assert_column_cdfs_match_dense(observation_table, dense)
        assert_column_cdfs_match_dense(oracle.sampling_table(dense), dense)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_column_cdfs_match_dense_cumsum_on_default_model(sigma):
    assert_tables_match_dense(experiment.read_graph("default"), sigma)


def test_column_cdfs_match_dense_cumsum_on_generated_map():
    assert_tables_match_dense(roadmap.generate_default_map(num_nodes=700, seed=5), 1.0)


def test_column_cdfs_match_dense_cumsum_on_the_3000_node_transition():
    # the bench map; its dense observation matrix, 72 MB, is left out
    assert_tables_match_dense(roadmap.generate_default_map(num_nodes=3000, seed=0), 1.0, False)


def test_transition_tables_hold_little_beyond_their_output():
    # 12 017 edges at M = 3000: the padded rows of A and of its transpose are each
    # two 10 x 3000 arrays, and their build's peak measured 1.2 MiB, against 68.7 MiB
    # for the dense matrix. The transition table reads the transpose's ids, the
    # array itself, so beyond the observation table its build allocates its cdf
    graph = roadmap.generate_default_map(num_nodes=3000, seed=0)
    transition = roadmap.transition_model(graph)
    observation = sensor.observation_model(graph, 1.0)
    assert traced_peak(lambda: transition.padded_rows) <= 2 << 20
    observation_peak = traced_peak(
        lambda: roadmap.padded_columns(3000, *observation.column_entries()))
    tables = []
    peak = traced_peak(lambda: tables.append(experiment.sampling_tables(transition, observation)))
    (ids, cdf), _ = tables[0]
    assert np.shares_memory(ids, transition.padded_rows[1][0])
    assert cdf.shape == (10, 3000)
    assert peak <= observation_peak + cdf.nbytes + (16 << 10)


def test_column_cdfs_of_identity_have_width_one():
    ids, cdf = oracle.sampling_table(np.eye(3))
    assert ids.tolist() == [[0, 1, 2]] and cdf.tolist() == [[1.0] * 3]
    assert_column_cdfs_match_dense((ids, cdf), np.eye(3))


def test_column_cdfs_keep_an_entry_the_running_sum_absorbs():
    matrix = np.array([[0.5, 1.0], [1e-300, 0.0], [0.5, 0.0]])
    ids, cdf = oracle.sampling_table(matrix)
    assert ids.tolist() == [[0, 0], [1, 0], [2, 0]]
    assert cdf.tolist() == [[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]
    assert_column_cdfs_match_dense((ids, cdf), matrix)


def test_column_cdfs_draw_below_a_rounded_down_total():
    matrix = np.array([[0.5, 1.0], [0.4999999999999998, 0.0], [0.0, 0.0]])
    ids, cdf = oracle.sampling_table(matrix)
    assert_column_cdfs_match_dense((ids, cdf), matrix)
    largest = 1.0 - 2.0**-53
    dense = experiment.inverse_cdf_sample(np.cumsum(matrix[:, 0]), largest)
    assert ids[experiment.inverse_cdf_sample(cdf[:, 0], largest) - 1, 0] + 1 == dense == 2


def assert_same_cdfs(actual, expected):
    """Two (ids, cdf) pairs with the same shapes and the same bits."""
    for a, b in zip(actual, expected, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint64), b.view(np.uint64))


@pytest.fixture(scope="module")
def cdf_graphs(default_graph, far_graph):
    return {"default": default_graph, "700": roadmap.generate_default_map(num_nodes=700),
            "far": far_graph}


CDF_CASES = [("default", 1.0), ("default", 2.0), ("default", 0.05), ("default", 0.7),
             ("default", 60.0), ("700", 1.0), ("700", 0.05), ("700", 0.7), ("far", 1.0)]


@pytest.mark.parametrize("block_cells", [None, 64], ids=["blocks", "small-blocks"])
@pytest.mark.parametrize("name, sigma", CDF_CASES, ids=[f"{n}-{s:g}" for n, s in CDF_CASES])
def test_column_cdfs_of_an_observation_model_equal_the_dense_scan(
    monkeypatch, cdf_graphs, name, sigma, block_cells
):
    # sigma 0.7 is where the kernel's last nonzero rounds to 0 in most columns,
    # so the count of nonzeros is below the band's width
    if block_cells is not None:  # many blocks, so off-window entries occur on small maps
        monkeypatch.setattr(sensor, "_BLOCK_CELLS", block_cells)
    graph = cdf_graphs[name]
    dense = oracle.reference_noise(oracle.reference_confusion_base(graph), sigma)
    expected = oracle.sampling_table(dense)
    model = sensor.observation_model(graph, sigma)
    _, table = experiment.sampling_tables(roadmap.transition_model(graph), model)
    assert_same_cdfs(table, expected)
    assert_column_cdfs_match_dense(expected, dense)


def test_column_cdfs_of_an_observation_model_hold_little_beyond_their_output():
    # at sigma 1e4 every column is nonzero, so K = M and the two outputs take 2 M x M
    num_nodes = 1500
    graph = roadmap.generate_default_map(num_nodes=num_nodes, seed=0)
    model = sensor.observation_model(graph, 1e4)
    transition = roadmap.transition_model(graph)
    transition.padded_rows  # the transition's table reads them, and they take 0.5 MiB
    peak = traced_peak(lambda: experiment.sampling_tables(transition, model))
    assert peak <= 2.25 * num_nodes**2 * 8


# ---- sample_trajectory ----


def test_sample_trajectory_deterministic(default_tables):
    a = experiment.sample_trajectory(*default_tables, 5, 50, seed=99)
    b = experiment.sample_trajectory(*default_tables, 5, 50, seed=99)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_trajectory_starts_at_initial_state(default_transition, default_tables):
    for initial in (5, 90):
        states, measurements = experiment.sample_trajectory(*default_tables, initial, 10, seed=1)
        assert states.shape == measurements.shape == (10,)
        assert default_transition[states[0] - 1, initial - 1] > 0.0


def test_single_seed_is_column_zero_of_a_batch(default_tables):
    single = experiment.sample_trajectory(*default_tables, 90, 40, 17)
    batch = experiment.sample_trajectory(*default_tables, 90, 40, [17])
    for one, many in zip(single, batch, strict=True):
        assert one.shape == (40,)
        assert np.array_equal(one, many[:, 0])


def test_sampled_pairs_have_positive_probability(
    default_transition, default_observation, default_tables
):
    states, measurements = experiment.sample_trajectory(*default_tables, 5, 200, seed=3)
    previous = 5
    for state, measurement in zip(states, measurements):
        assert default_transition[state - 1, previous - 1] > 0.0
        assert default_observation[measurement - 1, state - 1] > 0.0
        previous = state


def scalar_reference_draw(cdf, u):
    """searchsorted on one column, with u clamped just below the column total."""
    return int(np.searchsorted(cdf, min(u, np.nextafter(cdf[-1], 0.0)), side="right")) + 1


def test_scalar_reference_draw_matches_sampler_beyond_rounded_down_total():
    cdf = np.cumsum([0.5, 0.4999999999999998, 0.0])
    largest = 1.0 - 2.0**-53
    assert scalar_reference_draw(cdf, largest) == experiment.inverse_cdf_sample(cdf, largest) == 2


def scalar_reference_sample(A, obs, initial_state, steps, seed):
    """One scalar draw per step and per measurement, searched with searchsorted."""
    rng = np.random.default_rng(seed)
    transition_cdf, observation_cdf = np.cumsum(A, axis=0), np.cumsum(obs, axis=0)
    x, states, measurements = initial_state, [], []
    for _ in range(steps):
        x = scalar_reference_draw(transition_cdf[:, x - 1], rng.random())
        y = scalar_reference_draw(observation_cdf[:, x - 1], rng.random())
        states.append(x)
        measurements.append(y)
    return tuple(states), tuple(measurements)


def test_sample_trajectory_matches_scalar_draws(
    default_transition, default_observation, default_tables
):
    seeds = [experiment.trial_seed(3, t) for t in range(6)]
    states, measurements = experiment.sample_trajectory(*default_tables, 90, 60, seeds)
    assert states.shape == measurements.shape == (60, 6)
    for i, seed in enumerate(seeds):
        reference = scalar_reference_sample(default_transition, default_observation, 90, 60, seed)
        single = experiment.sample_trajectory(*default_tables, 90, 60, seed)
        assert tuple(tuple(c.tolist()) for c in single) == reference
        assert (tuple(states[:, i].tolist()), tuple(measurements[:, i].tolist())) == reference


@pytest.mark.parametrize("model", ["generated700-sigma1", "default-sigma2"])
def test_sample_trajectory_matches_dense_reference_on_sparse_models(model):
    if model == "generated700-sigma1":
        graph, sigma = roadmap.generate_default_map(num_nodes=700, seed=5), 1.0
    else:
        graph, sigma = experiment.read_graph("default"), 2.0
    transition, observation = experiment.build_model(graph, sigma)
    tables = experiment.sampling_tables(transition, observation)
    seeds = [experiment.trial_seed(8, t) for t in range(6)]
    states, measurements = experiment.sample_trajectory(*tables, 5, 60, seeds)
    observation = observation_matrix(observation)
    for i, seed in enumerate(seeds):
        reference = scalar_reference_sample(transition.matrix, observation, 5, 60, seed)
        assert (tuple(states[:, i].tolist()), tuple(measurements[:, i].tolist())) == reference


def test_sample_trajectory_rejects_bad_initial(default_tables):
    with pytest.raises(ValueError, match="out of range"):
        experiment.sample_trajectory(*default_tables, 0, 5, seed=1)
    # the range is the tables' 105 columns, not their K rows
    with pytest.raises(ValueError, match="initial state 106 out of range"):
        experiment.sample_trajectory(*default_tables, 106, 5, seed=1)
    assert experiment.sample_trajectory(*default_tables, 105, 5, seed=1)[0].shape == (5,)


def test_sample_trajectory_rejects_negative_steps(default_tables):
    with pytest.raises(ValueError, match="^steps must be nonnegative$"):
        experiment.sample_trajectory(*default_tables, 5, -1, seed=1)


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
    filter_accuracies, smoother_accuracies = experiment.run_experiment(config)
    assert np.array_equal(filter_accuracies, [1.0, 1.0, 1.0])
    assert np.array_equal(smoother_accuracies, [1.0, 1.0, 1.0])


def test_run_experiment_deterministic():
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=20, trials=8, master_seed=42)
    first = experiment.run_experiment(config)
    again = experiment.run_experiment(config)
    assert len(first) == len(again) == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_run_experiment_statistics_consistent():
    # the mean and std that replicate-table1 prints are checked in tests/test_cli.py
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=25, trials=6, master_seed=3)
    result = experiment.run_experiment(config)
    assert len(result) == 2
    for accuracies in result:
        assert accuracies.shape == (config.trials,)
        assert accuracies.dtype == np.float64
    for value in np.concatenate(result):
        assert 0.0 <= value <= 1.0
        assert abs(value * config.steps - round(value * config.steps)) <= 1e-9


def test_run_experiment_rejects_bad_config():
    with pytest.raises(ValueError, match="initial state 999 out of range"):
        experiment.run_experiment(ExperimentConfig(initial_state=999, sigma=1.0))
    with pytest.raises(ValueError, match="steps"):
        experiment.run_experiment(ExperimentConfig(initial_state=5, sigma=1.0, steps=0))
    with pytest.raises(ValueError, match="trials"):
        experiment.run_experiment(ExperimentConfig(initial_state=5, sigma=1.0, trials=0))


def test_perfect_sensor_filter_is_always_right(default_transition, default_tables):
    from roadhmm import inference

    identity = np.eye(105)
    tables = default_tables[0], oracle.sampling_table(identity)
    prior = inference.point_mass_belief(105, 5)
    for trial in range(3):
        states, measurements = experiment.sample_trajectory(
            *tables, 5, 30, experiment.trial_seed(0, trial)
        )
        result = inference.run_smoother(*oracle.models(default_transition, identity), measurements,
                                        prior)
        estimates = tuple(inference.map_estimate(b) for b in result.filtered)
        assert experiment.accuracy(states, estimates) == 1.0


# ---- batched engine against a per-trial reference ----


def per_trial_reference(config):
    """sample_trajectory + run_smoother + map_estimate, one trial at a time."""
    graph = experiment.read_graph(config.map_source)
    transition, observation = experiment.build_model(graph, config.sigma)
    tables = experiment.sampling_tables(transition, observation)
    prior = inference.point_mass_belief(transition.shape[0], config.initial_state)
    rows = []
    for trial in range(config.trials):
        states, measurements = experiment.sample_trajectory(
            *tables, config.initial_state, config.steps,
            experiment.trial_seed(config.master_seed, trial),
        )
        result = inference.run_smoother(transition, observation, measurements, prior)
        rows.append((
            states,
            measurements,
            [inference.map_estimate(b) for b in result.filtered],
            [inference.map_estimate(b) for b in result.smoothed],
        ))
    return [np.array(column) for column in zip(*rows)]


def assert_matches_reference(config):
    true_states, measured, filter_estimates, smoother_estimates = (
        np.concatenate(column) for column in zip(*run_trials(config))
    )
    states, measurements, filtered, smoothed = per_trial_reference(config)
    assert np.array_equal(true_states, states)
    assert np.array_equal(measured, measurements)
    assert np.array_equal(filter_estimates, filtered)
    assert np.array_equal(smoother_estimates, smoothed)


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
    both = list(run_trials(config))
    filter_only = list(run_trials(config, smoother=False))
    assert all(batch[3] is None for batch in filter_only)
    assert np.array_equal(
        np.concatenate([batch[2] for batch in filter_only]),
        np.concatenate([batch[2] for batch in both]),
    )


def test_engine_derives_seeds_one_batch_at_a_time(monkeypatch):
    seed = experiment.trial_seed
    derived = []

    def counting_seed(master_seed, trial):
        derived.append(trial)
        return seed(master_seed, trial)

    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(experiment, "trial_seed", counting_seed)
    monkeypatch.setattr(inference, "forward_pass", stop)
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=50, trials=1000, master_seed=0)
    with pytest.raises(Stop):
        next(run_trials(config))
    assert derived == list(range(experiment.batch_width(50, 105)))


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
        list(run_trials(config))


def test_simulate_trials_checks_at_the_call_and_builds_once(monkeypatch):
    calls = {"build_model": 0, "sampling_tables": 0, "sample_trajectory": 0}

    def counting(name):
        original = getattr(experiment, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(experiment, name, counting(name))
    bad = [
        ({"sigma": float("nan")}, "sigma must be positive"),
        ({"initial_state": 0}, "initial state 0 out of range"),
        ({"steps": 0}, "steps must be >= 1"),
        ({"trials": 0}, "trials must be >= 1"),
    ]
    for fields, message in bad:
        config = ExperimentConfig(**{"initial_state": 5, "sigma": 1.0, **fields})
        with pytest.raises(ValueError, match=message):
            experiment.simulate_trials(config)
    assert calls == {"build_model": 0, "sampling_tables": 0, "sample_trajectory": 0}
    # 50 trials of 50 steps run as 24 + 24 + 2
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=50, trials=50, master_seed=3)
    assert len(list(run_trials(config))) == 3
    assert calls == {"build_model": 1, "sampling_tables": 1, "sample_trajectory": 3}


# ---- the stream: rows across batch boundaries, memory flat in the trial count ----


@pytest.fixture(scope="module")
def fifty_trials():
    """Per-trial reference of 50 default-map trials, which the engine runs as 24 + 24 + 2."""
    assert experiment.batch_width(50, 105) == 24
    return per_trial_reference(ExperimentConfig(initial_state=5, sigma=1.0, trials=50, master_seed=7))


@pytest.mark.parametrize("method", ["filter", "smoother", "both"])
def test_simulate_rows_across_batches_match_per_trial_reference(tmp_path, capsys, fifty_trials, method):
    states, measurements, filtered, smoothed = fifty_trials
    shown = {name: method in (name, "both") for name in ("filter", "smoother")}
    expected = [cli.RESULTS_HEADER] + [
        f"{trial},{k + 1},{states[trial, k]},{measurements[trial, k]},"
        f"{filtered[trial, k] if shown['filter'] else ''},"
        f"{smoothed[trial, k] if shown['smoother'] else ''}"
        for trial in range(50)
        for k in range(50)
    ]
    summary = [
        f"{name} mean accuracy: {np.mean(experiment.accuracy(states, estimates)):.4f}"
        for name, estimates in (("filter", filtered), ("smoother", smoothed))
        if shown[name]
    ]
    out = tmp_path / "sim.csv"
    args = ["simulate", "--init", "5", "--trials", "50", "--seed", "7", "--method", method,
            "--out", str(out)]
    assert cli.main(args) == 0
    assert out.read_text().splitlines() == expected
    assert capsys.readouterr().out.splitlines() == summary


def test_simulate_error_in_a_later_batch_exits_1_after_the_rows_before_it(tmp_path, capsys, monkeypatch):
    sample = experiment.sample_trajectory
    calls = []

    def corrupt_second_batch(*args, **kwargs):
        states, measurements = sample(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            measurements[2, 1] = 0
        return states, measurements

    monkeypatch.setattr(experiment, "sample_trajectory", corrupt_second_batch)
    out = tmp_path / "sim.csv"
    args = ["simulate", "--init", "5", "--trials", "30", "--seed", "1", "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: trial 25: step 3: measurement 0 out of range")
    rows = out.read_text().splitlines()
    assert rows[0] == cli.RESULTS_HEADER
    assert [row.split(",", 1)[0] for row in rows[1:]] == [str(t) for t in range(24) for _ in range(50)]


def traced_peak(run):
    """Peak bytes that tracemalloc sees allocated while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_trials_holds_at_most_two_model_matrices(tmp_path):
    # at most half of one: at M = 1500 the passes take the transition's sparse
    # product, so no dense transition is built; the observation model is its
    # kernel, totals and confusion entries, and its sampling tables are M x K
    # with K about 80 (0.30 matrices measured). So one M x M numpy temporary
    # fails this. The first batch of one step, then two trials of 50 steps.
    bound = 0.5
    num_nodes = 1500
    path = tmp_path / "map.json"
    path.write_text(roadmap.save_map(roadmap.generate_default_map(num_nodes=num_nodes, seed=0)))
    for steps, trials, run in ((1, 1, next), (50, 2, list)):
        config = ExperimentConfig(initial_state=5, sigma=1.0, steps=steps, trials=trials,
                                  map_source=str(path))
        peak = traced_peak(lambda: run(run_trials(config)))
        assert peak <= bound * num_nodes**2 * 8


def test_simulate_trials_frees_each_batch_before_the_next(monkeypatch):
    # 8 MiB belief arrays, so that the model and the per-step arrays (about 0.7 MiB) count little
    monkeypatch.setattr(experiment, "_BATCH_BYTES", 8 << 20)
    steps = 400
    width = experiment.batch_width(steps, 105)
    belief = steps * width * 105 * 8
    config = ExperimentConfig(initial_state=5, sigma=1.0, steps=steps, trials=2 * width)
    peak = traced_peak(lambda: [None for _ in run_trials(config)])
    # a batch's forward and backward arrays; the previous batch's backward array,
    # kept alive through the next batch's passes, would make three (3.2 measured)
    assert peak < 2.5 * belief


NAN_SIGMA = "error: sigma must be positive and finite, and so must 2*sigma^2, got nan\n"


@pytest.fixture(scope="module")
def map700(tmp_path_factory):
    """A generated 700-node map file: one M x M float array is 3.9 MB."""
    path = tmp_path_factory.mktemp("map700") / "map.json"
    path.write_text(roadmap.save_map(roadmap.generate_default_map(num_nodes=700, seed=5)))
    return str(path)


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` that return, from here on: their first arguments."""
    calls, original = [], getattr(module, name)

    def count(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(args[0])
        return result

    monkeypatch.setattr(module, name, count)
    return calls


def rejected_below_one_matrix(args, map_path, capsys, monkeypatch):
    """Run ``args`` on ``map_path``: (exit code, stderr, tracemalloc peak as a share
    of M x M, model builds). No command builds an M x M array on this map, so only
    the count shows that the model was not built."""
    codes, builds = [], counting(monkeypatch, experiment, "build_model")
    peak = traced_peak(lambda: codes.append(cli.main([*args, "--map", map_path])))
    return codes[0], capsys.readouterr().err, peak / (700**2 * 8), len(builds)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--steps", "0", "error: steps must be >= 1\n", id="--steps"),
        pytest.param("--trials", "0", "error: trials must be >= 1\n", id="--trials"),
        pytest.param("--init", "0", "error: initial state 0 out of range 1..700\n", id="--init"),
        pytest.param("--sigma", "nan", NAN_SIGMA, id="--sigma"),
    ],
)
def test_simulate_rejects_zero_steps_or_trials_before_building_the_model(
    tmp_path, capsys, monkeypatch, map700, flag, value, message
):
    out = tmp_path / "sim.csv"
    args = ["simulate", "--init", "5", flag, value, "--out", str(out)]
    code, err, peak, builds = rejected_below_one_matrix(args, map700, capsys, monkeypatch)
    assert (code, err) == (1, message) and not out.exists()
    assert peak < 1.0 and builds == 0


@pytest.mark.parametrize(
    "args, measured, code, message",
    [
        (["infer", "--init-state", "0"], "5\n6\n", 1, "error: initial state 0 out of range 1..700\n"),
        (["infer"], None, 2, "I/O error: [Errno 2] No such file or directory: 'meas.txt'\n"),
        (["infer"], "5\n701\n", 1, "error: line 2: measurement 701 out of range 1..700\n"),
        (["infer", "--sigma", "nan"], "5\n6\n", 1, NAN_SIGMA),
        (["export-matrices", "--sigma", "nan", "--out-prefix", "m"], None, 1, NAN_SIGMA),
    ],
    ids=["infer-init-state", "infer-missing-file", "infer-out-of-range", "infer-sigma", "export-sigma"],
)
def test_infer_and_export_reject_bad_input_before_building_the_model(
    tmp_path, capsys, monkeypatch, map700, args, measured, code, message
):
    monkeypatch.chdir(tmp_path)
    if measured is not None:
        (tmp_path / "meas.txt").write_text(measured)
    if args[0] == "infer":
        args = ["infer", "--measurements", "meas.txt", "--init-state", "5", "--out", "beliefs.csv",
                *args[1:]]
    exit_code, err, peak, builds = rejected_below_one_matrix(args, map700, capsys, monkeypatch)
    assert (exit_code, err) == (code, message) and peak < 1.0 and builds == 0
    assert [path.name for path in tmp_path.iterdir()] == ([] if measured is None else ["meas.txt"])


@pytest.mark.parametrize(
    "args, builds",
    [
        (["simulate", "--init", "5", "--steps", "5", "--trials", "30", "--out", "sim.csv"], 1),
        (["replicate-table1", "--trials", "1"], 3),
        (["infer", "--measurements", "meas.txt", "--init-state", "5", "--out", "beliefs.csv"], 1),
        (["export-matrices", "--out-prefix", "m"], 1),
    ],
    ids=["simulate", "replicate-table1", "infer", "export-matrices"],
)
def test_every_command_builds_each_model_once_through_build_model(
    tmp_path, capsys, monkeypatch, args, builds
):
    built = []
    build_model = experiment.build_model

    def counting(graph, sigma):
        built.append(sigma)
        return build_model(graph, sigma)

    monkeypatch.setattr(experiment, "build_model", counting)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "meas.txt").write_text("5\n6\n")
    assert cli.main(args) == 0
    capsys.readouterr()
    assert len(built) == builds


def test_the_transition_entries_are_read_once_per_run(tmp_path, monkeypatch, capsys, map700):
    entries = counting(monkeypatch, roadmap, "transition_entries")
    for map_source in ("default", map700):
        config = ExperimentConfig(initial_state=5, sigma=1.0, steps=5, trials=30, master_seed=2,
                                  map_source=map_source)
        starts, run_batch = experiment.simulate_trials(config)
        assert len(entries) == 1  # the model and both sampling tables take the same entries
        for start in starts:
            run_batch(start)
        assert len(entries) == 1
        entries.clear()
        (tmp_path / "meas.txt").write_text("5\n6\n")
        args = ["infer", "--map", map_source, "--measurements", str(tmp_path / "meas.txt"),
                "--init-state", "5", "--out", str(tmp_path / "beliefs.csv")]
        assert cli.main(args) == 0
        assert len(entries) == 1
        entries.clear()
    capsys.readouterr()


def test_simulate_and_infer_above_the_crossover_never_build_the_dense_transition(
    tmp_path, monkeypatch, capsys, map700
):
    builds = counting(monkeypatch, roadmap, "build_transition_matrix")
    (tmp_path / "meas.txt").write_text("5\n6\n7\n")
    for args in (
        ["simulate", "--init", "5", "--steps", "20", "--trials", "4", "--out", "sim.csv"],
        ["replicate-table1", "--trials", "1"],  # the default map: one build per scenario
        ["infer", "--measurements", "meas.txt", "--init-state", "5", "--out", "beliefs.csv"],
    ):
        monkeypatch.chdir(tmp_path)
        map_args = [] if args[0] == "replicate-table1" else ["--map", map700]
        assert cli.main([*args, *map_args]) == 0
        assert len(builds) == (3 if args[0] == "replicate-table1" else 0), args[0]
        builds.clear()
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "pgm"])
def test_export_matrices_still_builds_the_dense_transition_above_the_crossover(
    tmp_path, monkeypatch, capsys, map700, fmt
):
    """The export still writes the bytes of the dense reference builds, which know
    nothing of the models' parts: it writes each matrix a block of rows at a time,
    and never calls ``build_transition_matrix``."""
    builds = counting(monkeypatch, roadmap, "build_transition_matrix")
    prefix = tmp_path / "m"
    args = ["export-matrices", "--map", map700, "--format", fmt, "--out-prefix", str(prefix)]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert len(builds) == 0
    graph = roadmap.read_map(map700)
    for name, matrix in (
        ("transition", oracle.reference_transition(graph)),
        ("observation", oracle.reference_noise(oracle.reference_confusion_base(graph), 1.0)),
    ):
        if fmt == "csv":
            expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)
        else:
            pixels = np.rint(255.0 * matrix / matrix.max()).astype(int)
            expected = "P2\n700 700\n255\n" + "".join(
                " ".join(str(v) for v in row) + "\n" for row in pixels)
        assert (tmp_path / f"m_{name}.{fmt}").read_bytes() == expected.encode(), name


def test_infer_both_holds_two_belief_arrays(tmp_path, default_tables):
    steps = 3000
    _, measured = experiment.sample_trajectory(*default_tables, 5, steps, 1)
    path = tmp_path / "measurements.txt"
    path.write_text("".join(f"{y}\n" for y in measured))
    args = ["infer", "--measurements", str(path), "--init-state", "5", "--method", "both",
            "--out", str(tmp_path / "beliefs.csv")]
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(args)))
    # two (T, M) arrays: the filter beliefs and the smoothed ones, which reuse the
    # backward messages' storage
    assert codes == [0]
    assert peak < 2.5 * steps * 105 * 8


def assert_peak_flat_in_trials(run):
    """Peak at 2000 trials within 256 KiB of the peak at two full batches (W = 124 at T = 10)."""
    small = 2 * experiment.batch_width(10, 105)
    run(small)  # warm-up: one-time allocations then count in neither peak
    assert traced_peak(lambda: run(2000)) - traced_peak(lambda: run(small)) <= 256 * 1024


def test_run_experiment_peak_memory_is_flat_in_trials():
    assert_peak_flat_in_trials(
        lambda trials: experiment.run_experiment(ExperimentConfig(5, 1.0, steps=10, trials=trials))
    )


def test_simulate_peak_memory_is_flat_in_trials(tmp_path, capsys):
    def run(trials):
        args = ["simulate", "--init", "5", "--steps", "10", "--trials", str(trials),
                "--method", "filter", "--out", str(tmp_path / "sim.csv")]
        assert cli.main(args) == 0

    assert_peak_flat_in_trials(run)


# ---- calibration ----


def calibration_gaps(transition, observation, sampler_observation):
    """Paired gaps (filter, smoother), in standard errors, of measured over predicted accuracy.

    2000 drives of 50 steps from node 5 (seeds ``trial_seed(0, t)``) are sampled with
    ``sampler_observation`` and decoded under ``observation``. When the two are
    the same model, the largest belief at a step is the probability that its
    MAP estimate is right, so the per-drive difference d between the fraction
    of MAP hits and the mean largest belief has mean 0; the gap is
    mean(d) / (sd(d) / sqrt(n)). Drives run 250 at a time to bound memory.
    """
    prior = inference.point_mass_belief(transition.shape[0], 5)
    tables = oracle.sampling_table(transition), oracle.sampling_table(sampler_observation)
    models = oracle.models(transition, observation)
    differences = ([], [])
    for start in range(0, 2000, 250):
        seeds = [experiment.trial_seed(0, t) for t in range(start, start + 250)]
        states, measured = experiment.sample_trajectory(*tables, 5, 50, seeds)
        forward = inference.forward_pass(*models, measured, prior)
        backward = inference.backward_pass(*models, measured)
        smoothed = inference.smooth(forward.vectors, backward.vectors)
        for d, beliefs in zip(differences, (forward.vectors, smoothed)):
            hits = inference.map_estimate(beliefs) == states
            d.append(hits.mean(axis=0) - beliefs.max(axis=-1).mean(axis=0))
    d = np.array([np.concatenate(parts) for parts in differences])
    return d.mean(axis=1) / (d.std(axis=1, ddof=1) / np.sqrt(d.shape[1]))


def test_posterior_predicts_its_own_accuracy_and_catches_a_mismatched_sampler(
    default_graph, default_transition, default_observation
):
    # 2000 drives on the default map at sigma 1; measured +0.51 (filter) and -0.56 (smoother)
    gaps = calibration_gaps(default_transition, default_observation, default_observation)
    assert np.all(np.abs(gaps) < 4), gaps
    # drives whose measurements are sampled at sigma 1.5: measured -22.19 and -12.30
    misread = observation_matrix(sensor.observation_model(default_graph, 1.5))
    gaps = calibration_gaps(default_transition, default_observation, misread)
    assert np.all(np.abs(gaps) > 4), gaps


# ---- likelihood ratio ----


def log_evidence_gaps(graph, drives, sampler_sigma, sigmas):
    """Paired gaps, in standard errors, of log p(y) at ``sampler_sigma`` over each of ``sigmas``.

    ``drives`` drives of 50 steps from node 5 (seeds ``trial_seed(0, t)``) are
    sampled from the graph's model at ``sampler_sigma`` and filtered at each
    sigma. Under the sampler's own model, the mean of log p(y | true) -
    log p(y | other) is a KL divergence, so it is >= 0 (Wald; for HMMs, Leroux
    1992), and a gap of several standard errors shows which model made y.
    """
    transition = roadmap.transition_model(graph)
    observation = sensor.observation_model(graph, sampler_sigma)
    tables = experiment.sampling_tables(transition, observation)
    seeds = [experiment.trial_seed(0, t) for t in range(drives)]
    _, measured = experiment.sample_trajectory(*tables, 5, 50, seeds)
    prior = inference.point_mass_belief(graph.num_nodes, 5)

    def log_evidence(sigma):
        forward = inference.forward_pass(
            transition, sensor.observation_model(graph, sigma), measured, prior
        )
        return forward.log_scale_factors.sum(axis=0)

    truth = log_evidence(sampler_sigma)
    d = np.array([truth - log_evidence(sigma) for sigma in sigmas])
    return d.mean(axis=1) / (d.std(axis=1, ddof=1) / np.sqrt(drives))


@pytest.mark.parametrize("num_nodes, drives", [(105, 100), (700, 100), (3000, 20)])
def test_log_evidence_peaks_at_the_true_sigma_and_catches_a_mismatched_sampler(
    default_graph, num_nodes, drives
):
    # Measured gaps, in SE: on the default map, drives sampled at sigma 1 give
    # +7.9 over sigma 0.8 and +5.1 over 1.25; at generate_default_map(700, 1),
    # +7.1 and +7.8. A sigma 1.5 sampler gives +11.6, +10.4 and +8.2 over the
    # model's sigma 1 at M = 105, 700 and 3000 (1.2 s at 3000, so the sigma 1
    # sweep is left out there; it read +4.1 and +6.7).
    # A transition mismatch, 20 % or 50 % extra parking weight in the sampler,
    # is too weak to assert on at this cost: x1.2 reads +1.3, +1.0 and 0.0 SE
    # at M = 105, 700 and 3000 (100, 100 and 20 drives), and x1.5 +3.6, +3.5
    # and +1.0 SE.
    graph = default_graph if num_nodes == 105 else roadmap.generate_default_map(num_nodes, 1)
    if num_nodes < 3000:
        gaps = log_evidence_gaps(graph, drives, 1.0, [0.8, 1.25])
        assert np.all(gaps > 4), gaps
    gap = log_evidence_gaps(graph, drives, 1.5, [1.0])
    assert np.all(gap > 4), gap


# ---- fixed-lag smoothing ----


def fixed_lag_estimates(transition, observation, measured, forward, lag):
    """MAP estimate of each step k from y_1..y_{k+lag}, shaped like ``measured``.

    The forward message at k times the first message of a backward pass over
    the window y_k..y_{k+lag} (cut at the last step) is the lag-``lag`` posterior
    up to a constant.
    """
    steps = len(measured)
    beliefs = np.empty_like(forward.vectors)
    for k in range(steps):
        window = measured[k:min(k + lag + 1, steps)]
        backward = inference.backward_pass(transition, observation, window)
        beliefs[k] = forward.vectors[k] * backward.vectors[0]
    return inference.map_estimate(beliefs)


def test_fixed_lag_estimates_run_from_the_filter_to_the_smoother(default_model, default_tables):
    # 1000 drives on the default map, init 5, sigma 1, T 50, seeds trial_seed(0, t),
    # 250 at a time; lag 5 measured 99.954 % agreement with the full smoother
    (transition, observation), steps = default_model, 50
    prior = inference.point_mass_belief(transition.shape[0], 5)
    agree = total = 0
    for start in range(0, 1000, 250):
        seeds = [experiment.trial_seed(0, t) for t in range(start, start + 250)]
        _, measured = experiment.sample_trajectory(*default_tables, 5, steps, seeds)
        forward = inference.forward_pass(transition, observation, measured, prior)
        filtered = inference.map_estimate(forward.vectors)
        backward = inference.backward_pass(transition, observation, measured)
        smoothed = inference.map_estimate(inference.smooth(forward.vectors, backward.vectors))
        lag = functools.partial(fixed_lag_estimates, transition, observation, measured, forward)
        assert np.array_equal(lag(0), filtered)
        assert np.array_equal(lag(steps - 1), smoothed)
        agree += np.count_nonzero(lag(5) == smoothed)
        total += smoothed.size
    assert agree >= 0.99 * total, agree / total


# ---- build_model ----


def test_build_model_default_and_file(tmp_path, default_graph):
    graph = experiment.read_graph("default")
    transition, observation = experiment.build_model(graph, 1.0)
    assert graph == default_graph
    assert_allclose(transition.matrix.sum(axis=0), 1.0, atol=1e-12)
    assert_allclose(observation_matrix(observation).sum(axis=0), 1.0, atol=1e-12)
    path = tmp_path / "map.json"
    path.write_text(roadmap.save_map(default_graph))
    file_graph = experiment.read_graph(str(path))
    assert file_graph == default_graph
