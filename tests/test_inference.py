import functools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from roadhmm import experiment, inference, roadmap
from roadhmm.inference import InferenceError

# Exact posteriors for the worked 2-state instance, derived by enumerating
# all state paths by hand (shared denominators 104 and 791).
FILTERED_1 = (77 / 104, 27 / 104)
FILTERED_2 = (498 / 791, 293 / 791)
SMOOTHED_1 = (539 / 791, 252 / 791)
EVIDENCE = 0.2373


def suffix_logs(messages):
    return np.cumsum(messages.log_scale_factors[::-1])[::-1]


def prefix_logs(messages):
    return np.cumsum(messages.log_scale_factors)


# Reference implementations: one predict/update cycle done by hand, and the
# filter as a thin wrapper over forward_pass.


def filter_step(
    prior: np.ndarray, A: np.ndarray, likelihood: np.ndarray
) -> tuple[np.ndarray, float]:
    """One predict/update cycle.

    Returns the posterior (likelihood-weighted prediction, renormalized) and
    the normalizer, i.e. the probability of the measurement given the prior.
    """
    predicted = np.asarray(A) @ np.asarray(prior)
    unnormalized = np.asarray(likelihood) * predicted
    normalizer = float(unnormalized.sum())
    if not normalizer > 0.0 or not math.isfinite(normalizer):
        raise InferenceError("measurement impossible under model")
    return unnormalized / normalizer, normalizer


def run_filter(A, obs, measurements, initial) -> tuple[np.ndarray, float | np.ndarray]:
    """Filter beliefs after each measurement plus log p(y_1..y_T)."""
    messages = inference.forward_pass(*oracle.models(A, obs), measurements, initial)
    return messages.vectors, messages.log_scale_factors.sum(axis=0)


# ---- filter_step ----


def test_filter_step_worked_example(two_state):
    transition, _, initial, _ = two_state
    posterior, normalizer = filter_step(initial, transition, np.array([0.7, 0.3]))
    assert_allclose(posterior, FILTERED_1, atol=1e-12)
    assert normalizer == pytest.approx(0.52, abs=1e-12)


def test_filter_step_uninformative_likelihood_is_prediction(two_state):
    transition, _, initial, _ = two_state
    posterior, normalizer = filter_step(initial, transition, np.ones(2))
    assert_allclose(posterior, transition @ initial, atol=1e-15)
    assert normalizer == pytest.approx(1.0, abs=1e-12)


def test_filter_step_perfect_measurement(two_state):
    transition, _, initial, _ = two_state
    posterior, _ = filter_step(initial, transition, np.array([1.0, 0.0]))
    assert_allclose(posterior, [1.0, 0.0])


def test_filter_step_impossible_measurement():
    with pytest.raises(InferenceError, match="measurement impossible"):
        filter_step(np.array([1.0, 0.0]), np.eye(2), np.array([0.0, 1.0]))


# ---- run_filter / forward_pass ----


def test_run_filter_worked_example(two_state):
    beliefs, log_likelihood = run_filter(*two_state[:2], two_state[3], two_state[2])
    assert_allclose(beliefs, [FILTERED_1, FILTERED_2], atol=1e-12)
    assert log_likelihood == pytest.approx(math.log(EVIDENCE), abs=1e-12)


def test_run_filter_reports_spec_decimals(two_state):
    transition, observation, initial, measurements = two_state
    beliefs, _ = run_filter(transition, observation, measurements, initial)
    assert_allclose(beliefs, [[0.74038, 0.25962], [0.62958, 0.37042]], atol=1e-4)


def test_run_filter_empty_sequence(two_state):
    transition, observation, initial, _ = two_state
    beliefs, log_likelihood = run_filter(transition, observation, (), initial)
    assert beliefs.shape == (0, 2)
    assert log_likelihood == 0.0


def test_run_filter_single_state():
    transition = np.array([[1.0]])
    observation = np.array([[1.0]])
    beliefs, _ = run_filter(transition, observation, (1, 1, 1), np.array([1.0]))
    assert_allclose(beliefs, np.ones((3, 1)))


def test_run_filter_error_carries_step_index():
    transition = np.eye(2)
    observation = np.eye(2)
    with pytest.raises(InferenceError, match="step 2"):
        run_filter(transition, observation, (1, 2), np.array([1.0, 0.0]))


def test_forward_pass_equals_run_filter(random_instance):
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(2, 21))
        t = int(rng.integers(1, 101))
        transition, observation, initial, measurements = random_instance(rng, m, t)
        beliefs, log_likelihood = run_filter(
            transition, observation, measurements, initial
        )
        messages = inference.forward_pass(*oracle.models(transition, observation),
                                          measurements, initial)
        assert np.abs(messages.vectors - beliefs).max() <= 1e-12
        assert messages.log_scale_factors.sum() == pytest.approx(log_likelihood, abs=1e-12)


def test_forward_pass_cumulative_factor_is_log_evidence(two_state):
    transition, observation, initial, measurements = two_state
    messages = inference.forward_pass(*oracle.models(transition, observation), measurements, initial)
    assert prefix_logs(messages)[-1] == pytest.approx(math.log(EVIDENCE), abs=1e-12)


def test_forward_pass_uniform_model_stays_uniform():
    m = 4
    transition = np.full((m, m), 1.0 / m)
    observation = np.full((m, m), 1.0 / m)
    messages = inference.forward_pass(
        *oracle.models(transition, observation), (1, 3, 2, 4), np.full(m, 1.0 / m)
    )
    assert_allclose(messages.vectors, np.full((4, m), 1.0 / m), atol=1e-15)


def test_forward_pass_single_step_equals_filter_step(two_state):
    transition, observation, initial, _ = two_state
    messages = inference.forward_pass(*oracle.models(transition, observation), (1,), initial)
    posterior, normalizer = filter_step(initial, transition, observation[0])
    assert_allclose(messages.vectors[0], posterior, atol=1e-15)
    assert messages.log_scale_factors[0] == pytest.approx(math.log(normalizer), abs=1e-12)


def test_forward_pass_matches_unscaled_recursion(random_instance):
    rng = np.random.default_rng(29)
    transition, observation, initial, measurements = random_instance(rng, 4, 6)
    messages = inference.forward_pass(*oracle.models(transition, observation), measurements, initial)
    alpha = initial.copy()
    for t, y in enumerate(measurements):
        alpha = observation[y - 1] * (transition @ alpha)
        reconstructed = messages.vectors[t] * math.exp(prefix_logs(messages)[t])
        assert_allclose(reconstructed, alpha, rtol=1e-12)


# ---- backward_pass ----


def test_backward_pass_worked_example(two_state):
    transition, observation, _, measurements = two_state
    messages = inference.backward_pass(*oracle.models(transition, observation), measurements)
    assert_allclose(messages.vectors[-1], [0.5, 0.5])
    reconstructed = messages.vectors[0] * math.exp(suffix_logs(messages)[0])
    assert_allclose(reconstructed, [0.42, 0.56], atol=1e-12)


def test_backward_pass_empty():
    messages = inference.backward_pass(*oracle.models(np.eye(3), np.eye(3)), ())
    assert messages.vectors.shape[0] == 0


def test_backward_pass_uniform_model_stays_uniform():
    m = 5
    transition = np.full((m, m), 1.0 / m)
    observation = np.full((m, m), 1.0 / m)
    messages = inference.backward_pass(*oracle.models(transition, observation), (2, 5, 1))
    assert_allclose(messages.vectors, np.full((3, m), 1.0 / m), atol=1e-15)


def test_backward_pass_matches_unscaled_recursion(random_instance):
    rng = np.random.default_rng(31)
    transition, observation, _, measurements = random_instance(rng, 4, 6)
    messages = inference.backward_pass(*oracle.models(transition, observation), measurements)
    suffixes = suffix_logs(messages)
    beta = np.ones(4)
    for t in range(len(measurements) - 1, -1, -1):
        reconstructed = messages.vectors[t] * math.exp(suffixes[t])
        assert_allclose(reconstructed, beta, rtol=1e-12)
        beta = transition.T @ (observation[measurements[t] - 1] * beta)


# ---- smooth / run_smoother ----


def test_smooth_worked_example(two_state):
    transition, observation, initial, measurements = two_state
    models = oracle.models(transition, observation)
    forward = inference.forward_pass(*models, measurements, initial)
    backward = inference.backward_pass(*models, measurements)
    smoothed = inference.smooth(forward.vectors, backward.vectors)
    assert_allclose(smoothed, [SMOOTHED_1, FILTERED_2], atol=1e-12)
    assert_allclose(smoothed, [[0.68141, 0.31859], [0.62958, 0.37042]], atol=1e-4)
    assert_allclose(smoothed.sum(axis=1), 1.0, atol=1e-12)


def test_smooth_final_step_equals_filter(random_instance):
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        t = int(rng.integers(1, 30))
        transition, observation, initial, measurements = random_instance(rng, m, t)
        result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
        assert np.abs(result.smoothed[-1] - result.filtered[-1]).max() <= 1e-12


def test_smooth_rejects_mismatched_messages(two_state):
    transition, observation, initial, measurements = two_state
    models = oracle.models(transition, observation)
    forward = inference.forward_pass(*models, measurements, initial)
    backward = inference.backward_pass(*models, (1,))
    with pytest.raises(ValueError, match="mismatch"):
        inference.smooth(forward.vectors, backward.vectors)


def test_smooth_rejects_messages_with_disjoint_support():
    forward = np.array([[0.5, 0.5], [1.0, 0.0]])
    backward = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(InferenceError, match="^step 2: inconsistent forward/backward messages$"):
        inference.smooth(forward, backward)


def test_smooth_names_trial_of_inconsistent_batch_messages():
    forward = np.ones((2, 3, 2)) / 2
    forward[1, 2] = [1.0, 0.0]
    backward = np.ones((2, 3, 2)) / 2
    backward[1, 2] = [0.0, 1.0]
    with pytest.raises(InferenceError, match="^trial 2: step 2: inconsistent forward/backward"):
        inference.smooth(forward, backward)


# Drives of 50 steps on the default map at sigma 1 from node 5, sampled with the
# observation columns rolled by one node (a sensor that reads one node high) and
# seeded with trial_seed(0, trial). Of the first 4000 such drives, these eight have
# a step where the product of the forward and backward messages sums below the
# smallest normal float. In the last four the backward message itself has
# underflowed to 0 on the whole forward support, which the log-space product
# cannot recover.
UNDERFLOWING_DRIVES = [734, 1825, 2442, 3196]
LOST_BACKWARD_DRIVES = [1130, 2941, 3496, 3993]


@pytest.mark.parametrize(
    "trial",
    [
        *range(20),
        *UNDERFLOWING_DRIVES,
        *(
            pytest.param(trial, marks=pytest.mark.xfail(
                raises=InferenceError, strict=True,
                reason="the backward message is 0 on the forward support",
            ))
            for trial in LOST_BACKWARD_DRIVES
        ),
    ],
)
def test_smoother_agrees_with_log_domain_reference_on_misread_drives(
    default_model, default_transition, default_observation, default_tables, trial
):
    misread = np.roll(default_observation, 1, axis=1)
    seed = experiment.trial_seed(0, trial)
    tables = default_tables[0], oracle.sampling_table(misread)
    _, measured = experiment.sample_trajectory(*tables, 5, 50, seed)
    prior = inference.point_mass_belief(105, 5)
    forward = inference.forward_pass(*default_model, measured, prior)
    backward = inference.backward_pass(*default_model, measured)
    tiny = np.finfo(float).tiny
    underflows = np.einsum("ij,ij->i", forward.vectors, backward.vectors) < tiny
    assert underflows.any() == (trial >= 20)
    factors = np.stack([forward.vectors, backward.vectors])
    shared = (factors > 0).all(axis=0)
    subnormal = (shared & (factors < tiny).any(axis=0)).any(axis=1)
    smoothed = inference.smooth(forward.vectors, backward.vectors)
    expected = oracle.log_domain_smoother(default_transition, default_observation, prior, measured)
    error = np.abs(smoothed - expected).max(axis=1)
    # A subnormal factor, or a backward message it descends from, keeps fewer
    # than 53 bits (as few as 16 on these drives); at those steps the beliefs
    # agree to 1e-9 (worst 3.1e-10, drive 1825 step 1), elsewhere to 1e-12.
    assert error[~subnormal].max(initial=0.0) <= 1e-12
    assert error.max() <= 1e-9


@pytest.mark.parametrize("batch", [None, 4])
def test_smooth_writes_into_the_backward_messages(random_instance, batch):
    rng = np.random.default_rng(31)
    transition, observation, initial, measurements = random_instance(rng, 60, 3000)
    if batch:
        measurements = np.stack([measurements] * batch, axis=1)
    models = oracle.models(transition, observation)
    forward = inference.forward_pass(*models, measurements, initial)
    backward = inference.backward_pass(*models, measurements)
    expected = forward.vectors * backward.vectors
    expected /= expected.sum(axis=-1, keepdims=True)
    tracemalloc.start()
    try:
        smoothed = inference.smooth(forward.vectors, backward.vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the per-step sums, 1/M of a belief array, are allocated
    assert peak < 0.1 * backward.vectors.nbytes
    assert smoothed is backward.vectors
    assert smoothed.tobytes() == expected.tobytes()


def test_constancy_of_evidence(two_state, random_instance):
    rng = np.random.default_rng(23)
    instances = [two_state[:4]] + [
        random_instance(rng, int(rng.integers(2, 10)), int(rng.integers(1, 25)))
        for _ in range(10)
    ]
    for transition, observation, initial, measurements in instances:
        models = oracle.models(transition, observation)
        forward = inference.forward_pass(*models, measurements, initial)
        backward = inference.backward_pass(*models, measurements)
        assert np.abs(forward.vectors.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(backward.vectors.sum(axis=1) - 1.0).max() <= 1e-12
        log_evidence = float(forward.log_scale_factors.sum())
        prefixes, suffixes = prefix_logs(forward), suffix_logs(backward)
        for t in range(len(measurements)):
            value = (
                math.log(float(np.dot(forward.vectors[t], backward.vectors[t])))
                + prefixes[t]
                + suffixes[t]
            )
            assert value == pytest.approx(log_evidence, abs=1e-9)


def test_worked_example_common_value(two_state):
    transition, observation, initial, measurements = two_state
    forward = inference.forward_pass(*oracle.models(transition, observation), measurements, initial)
    assert forward.log_scale_factors.sum() == pytest.approx(math.log(0.2373), abs=1e-12)


def test_run_smoother_long_sequence_stays_finite(random_instance):
    rng = np.random.default_rng(5)
    transition, observation, initial, _ = random_instance(rng, 15, 1)
    measurements = tuple(int(v) for v in rng.integers(1, 16, size=2000))
    result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
    assert np.isfinite(result.filtered).all()
    assert np.isfinite(result.smoothed).all()
    assert math.isfinite(result.log_likelihood)
    assert np.abs(result.smoothed.sum(axis=1) - 1.0).max() <= 1e-12


# ---- batches ----


def vector_forward(transition, observation, measurements, initial):
    """The matrix-vector recursion, one sequence at a time."""
    belief, beliefs = np.asarray(initial, dtype=float), []
    for y in measurements:
        unnormalized = observation[y - 1] * (transition @ belief)
        belief = unnormalized / float(unnormalized.sum())
        beliefs.append(belief)
    return np.array(beliefs)


def vector_backward(transition, observation, measurements):
    m = transition.shape[0]
    beliefs = [np.full(m, 1.0 / m)]
    for y in measurements[:0:-1]:
        raw = transition.T @ (observation[y - 1] * beliefs[-1])
        beliefs.append(raw / float(raw.sum()))
    return np.array(beliefs[::-1])


def test_single_sequence_is_bit_identical_to_vector_recursion(
    default_model, default_transition, default_observation, default_tables
):
    _, measurements = experiment.sample_trajectory(*default_tables, 5, 2000, seed=4)
    prior = inference.point_mass_belief(105, 5)
    result = inference.run_smoother(*default_model, measurements, prior)
    filtered = vector_forward(default_transition, default_observation, measurements, prior)
    backward = vector_backward(default_transition, default_observation, measurements)
    product = filtered * backward
    assert np.array_equal(result.filtered, filtered)
    assert np.array_equal(result.smoothed, product / product.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("batched", [False, True])
def test_run_smoother_without_the_smoother_is_the_forward_pass(random_instance, monkeypatch,
                                                               batched):
    rng = np.random.default_rng(47)
    transition, observation, initial, measurements = random_instance(rng, 6, 30)
    if batched:
        measurements = rng.integers(1, 7, size=(30, 4))
    models = oracle.models(transition, observation)
    forward = inference.forward_pass(*models, measurements, initial)

    def no_backward_pass(*args, **kwargs):
        raise AssertionError("backward_pass called")

    monkeypatch.setattr(inference, "backward_pass", no_backward_pass)
    result = inference.run_smoother(*models, measurements, initial, smoother=False)
    assert result.smoothed is None
    assert result.filtered.shape == ((30, 4, 6) if batched else (30, 6))
    assert np.array_equal(result.filtered, forward.vectors)
    expected = forward.log_scale_factors.sum(axis=0)
    assert np.shape(result.log_likelihood) == np.shape(expected)
    assert np.array_equal(result.log_likelihood, expected)


def test_batch_matches_single_sequences(random_instance):
    rng = np.random.default_rng(41)
    models = oracle.models(*random_instance(rng, 6, 1)[:2])
    measurements = rng.integers(1, 7, size=(30, 5))
    priors = rng.random((6, 5)).T + 0.05
    priors /= priors.sum(axis=1, keepdims=True)
    batch = inference.run_smoother(*models, measurements, priors)
    assert batch.filtered.shape == batch.smoothed.shape == (30, 5, 6)
    assert batch.log_likelihood.shape == (5,)
    for i in range(5):
        single = inference.run_smoother(*models, measurements[:, i], priors[i])
        assert_allclose(batch.filtered[:, i], single.filtered, rtol=1e-12, atol=1e-15)
        assert_allclose(batch.smoothed[:, i], single.smoothed, rtol=1e-12, atol=1e-15)
        assert batch.log_likelihood[i] == pytest.approx(single.log_likelihood, abs=1e-10)
        assert np.array_equal(
            inference.map_estimate(batch.smoothed)[:, i], inference.map_estimate(single.smoothed)
        )


def test_batch_of_one_equals_single_sequence(random_instance):
    rng = np.random.default_rng(43)
    transition, observation, initial, measurements = random_instance(rng, 7, 40)
    models = oracle.models(transition, observation)
    single = inference.run_smoother(*models, measurements, initial)
    batch = inference.run_smoother(*models, np.array(measurements)[:, None], initial[None, :])
    assert np.array_equal(batch.filtered[:, 0], single.filtered)
    assert np.array_equal(batch.smoothed[:, 0], single.smoothed)


def test_batch_shares_a_one_dimensional_prior(two_state):
    transition, observation, initial, measurements = two_state
    columns = np.array([measurements, measurements]).T
    shared = inference.forward_pass(*oracle.models(transition, observation), columns, initial)
    assert_allclose(shared.vectors[:, 1], [FILTERED_1, FILTERED_2], atol=1e-12)


def test_batch_error_names_trial_and_step():
    models = oracle.models(np.eye(2), np.eye(2))
    measurements = np.array([[1, 1, 1], [1, 1, 2], [1, 2, 2]])
    prior = np.array([1.0, 0.0])
    with pytest.raises(InferenceError, match="^trial 2: step 2: measurement impossible") as info:
        inference.forward_pass(*models, measurements, prior)
    assert (info.value.trial, info.value.step) == (2, 2)
    with pytest.raises(InferenceError, match="^trial 1: step 2: measurement impossible"):
        inference.backward_pass(*models, measurements)
    with pytest.raises(InferenceError, match="^step 2: measurement impossible"):
        inference.forward_pass(*models, measurements[:, 2], prior)


def test_batch_out_of_range_measurement_names_trial_and_step(two_state):
    transition, observation, initial, _ = two_state
    models = oracle.models(transition, observation)
    measurements = np.array([[1, 2], [2, 3]])
    with pytest.raises(InferenceError, match="^trial 1: step 2: measurement 3 out of range 1..2"):
        inference.forward_pass(*models, measurements, initial)
    with pytest.raises(InferenceError, match="^step 2: measurement 0 out of range 1..2"):
        inference.backward_pass(*models, (1, 0))


def test_map_estimate_batches_along_state_axis():
    # (T, N, M) = (2, 3, 4): no two axes have the same length
    beliefs = np.array([
        [[0.1, 0.6, 0.2, 0.1], [0.4, 0.1, 0.1, 0.4], [0.0, 0.0, 0.0, 1.0]],
        [[0.25, 0.25, 0.25, 0.25], [0.0, 0.2, 0.7, 0.1], [0.3, 0.3, 0.3, 0.1]],
    ])
    assert np.array_equal(inference.map_estimate(beliefs), [[2, 1, 4], [1, 3, 1]])
    assert np.array_equal(inference.map_estimate(beliefs[:, 1]), [1, 3])
    assert np.array_equal(inference.map_estimate(beliefs[0]), [2, 1, 4])  # an (N, M) prior


# ---- the transition product: BLAS below the crossover, padded rows from there on ----


@pytest.fixture(scope="module", params=[(700, 5), (3000, 0)], ids=["700-seed5", "3000-seed0"])
def large_model(request):
    """(transition, observation, measurements (50, 4)) of a generated map above the crossover."""
    num_nodes, seed = request.param
    assert num_nodes >= inference._SPARSE_STATES
    graph = roadmap.generate_default_map(num_nodes, seed)
    transition, observation = experiment.build_model(graph, 1.0)
    tables = experiment.sampling_tables(transition, observation)
    seeds = [experiment.trial_seed(seed, t) for t in range(4)]
    _, measured = experiment.sample_trajectory(*tables, 5, 50, seeds)
    return transition, observation, measured


def dense_blas(monkeypatch):
    """Make every map take the BLAS product on the dense A, as maps below the crossover do."""
    monkeypatch.setattr(inference, "_SPARSE_STATES", math.inf)


@pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
def test_sparse_product_agrees_with_the_dense_blas_reference(monkeypatch, large_model, batch):
    transition, observation, measured = large_model
    measured = measured if batch else measured[:, 0]
    prior = inference.point_mass_belief(transition.shape[0], 5)
    sparse = inference.run_smoother(transition, observation, measured, prior)
    dense_blas(monkeypatch)  # the same model, now through BLAS on its dense matrix
    dense = inference.run_smoother(transition, observation, measured, prior)
    for got, expected in ((sparse.filtered, dense.filtered), (sparse.smoothed, dense.smoothed)):
        assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert_allclose(sparse.log_likelihood, dense.log_likelihood, rtol=1e-12)


@pytest.mark.parametrize("transpose", [False, True], ids=["A", "A^T"])
def test_sparse_product_of_a_column_is_the_same_bits_alone_or_in_a_batch(large_model, transpose):
    transition = large_model[0]
    product = inference._product(transition, transpose)
    width = max(experiment.batch_width(50, transition.shape[0]), 3)
    batch = np.random.default_rng(3).random((transition.shape[0], width))
    together = product(batch)
    for i in range(width):
        assert np.array_equal(product(batch[:, i:i + 1]), together[:, i:i + 1])
    # the backward pass hands in a transposed view, which gives the same bits
    assert np.array_equal(product(np.ascontiguousarray(batch.T).T), together)


@functools.cache
def map_3000(hub: bool):
    """The transition of generate_default_map(3000, 0), or with ``hub`` of that map with
    node 3000 joined to every node, whose transpose's padded rows are then 3000 wide."""
    graph = roadmap.generate_default_map(3000, 0)
    if hub:
        edges = oracle.edge_triples(graph)
        joined = {d for s, d, _ in edges if s == 3000}
        edges += [(3000, j, 1.0) for j in range(1, 3001) if j not in joined]
        graph = roadmap.RoadGraph(3000, edges)
    return roadmap.transition_model(graph)


@pytest.mark.parametrize("transpose", [False, True], ids=["A", "A^T"])
@pytest.mark.parametrize("width", [1, 7, 24])
@pytest.mark.parametrize("hub", [False, True], ids=["3000-seed0", "3000-hub"])
def test_sparse_product_has_the_bits_of_the_k_order_loop(hub, transpose, width):
    model = map_3000(hub)
    ids, values = model.padded_rows[transpose]
    b = np.random.default_rng(width).random((3000, width))
    b[::5] = 0.0  # zero terms, as where a belief vanishes
    got = inference._product(model, transpose)(b)
    assert got.shape == b.shape and got.dtype == b.dtype
    assert got.tobytes() == oracle.padded_row_product(ids, values, b).tobytes()


def test_sparse_product_on_a_hub_gathers_a_bounded_chunk():
    model = map_3000(hub=True)
    assert model.padded_rows[True][0].shape == (3000, 3000)
    product = inference._product(model, transpose=True)
    b = np.random.default_rng(0).random((3000, 24))
    tracemalloc.start()
    try:
        out = product(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one gather of the whole 3000 x 3000 x 24 block would take 1.7 GB
    assert peak <= 1.05 * (inference._CHUNK_BYTES + out.nbytes)


def errors_of_both_products(monkeypatch, run):
    """The InferenceErrors that ``run()`` raises with the sparse product, then with BLAS."""
    errors = []
    for product in ("sparse", "dense"):
        if product == "dense":
            dense_blas(monkeypatch)
        with pytest.raises(InferenceError) as info:
            run()
        errors.append((str(info.value), info.value.step, info.value.trial))
    return errors


def test_sparse_product_raises_at_the_impossible_measurement_where_blas_does(
    monkeypatch, default_model_and_sinks, default_tables
):
    transition, observation = oracle.models(*default_model_and_sinks)
    seeds = [experiment.trial_seed(0, t) for t in range(3)]
    _, measured = experiment.sample_trajectory(*default_tables, 5, 20, seeds)
    measured[7, 2] = 300  # an extra state's reading: no state of the road map gives it
    prior = inference.point_mass_belief(transition.shape[0], 5)
    forward = errors_of_both_products(
        monkeypatch, lambda: inference.forward_pass(transition, observation, measured, prior))
    assert forward[0] == forward[1] == ("trial 2: step 8: measurement impossible under model", 8, 2)
    monkeypatch.undo()
    backward = errors_of_both_products(
        monkeypatch, lambda: inference.backward_pass(transition, observation, measured))
    assert backward[0] == backward[1] == forward[0]


def test_sparse_product_raises_at_disjoint_supports_where_blas_does(
    monkeypatch, default_model_and_sinks, default_observation, default_tables
):
    # drive 1130 of the misread drives above: its backward message underflows to 0
    # on the whole forward support, and it is the batch's second trial (index 1)
    transition, observation = oracle.models(*default_model_and_sinks)
    misread = np.roll(default_observation, 1, axis=1)
    tables = default_tables[0], oracle.sampling_table(misread)
    seeds = [experiment.trial_seed(0, t) for t in (0, LOST_BACKWARD_DRIVES[0], 1)]
    _, measured = experiment.sample_trajectory(*tables, 5, 50, seeds)
    prior = inference.point_mass_belief(transition.shape[0], 5)
    errors = errors_of_both_products(
        monkeypatch, lambda: inference.run_smoother(transition, observation, measured, prior))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith("trial 1: step ")
    assert errors[0][0].endswith(": inconsistent forward/backward messages")


# ---- map_estimate ----


@pytest.mark.parametrize(
    "belief,expected",
    [((0.7, 0.3), 1), ((0.5, 0.5), 1), ((0.2, 0.3, 0.5), 3), ((1.0,), 1)],
)
def test_map_estimate(belief, expected):
    assert inference.map_estimate(np.array(belief)) == expected


def test_map_estimate_scale_invariant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        belief = rng.random(int(rng.integers(1, 20)))
        scale = float(rng.uniform(1e-8, 1e8))
        assert inference.map_estimate(belief) == inference.map_estimate(belief * scale)


def test_one_sequence_gives_numpy_scalars(two_state):
    transition, observation, initial, measurements = two_state
    result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
    assert isinstance(result.log_likelihood, np.floating)
    assert isinstance(inference.map_estimate(result.smoothed[-1]), np.integer)


def test_map_estimate_rejects_empty():
    with pytest.raises(ValueError):
        inference.map_estimate(np.array([]))


# ---- belief helpers ----


def test_point_mass_belief():
    assert_allclose(inference.point_mass_belief(4, 3), [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        inference.point_mass_belief(4, 5)
