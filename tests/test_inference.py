import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from roadhmm import inference
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
    messages = inference.forward_pass(A, obs, measurements, initial)
    return messages.vectors, inference._log_likelihood(messages)


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
        messages = inference.forward_pass(transition, observation, measurements, initial)
        assert np.abs(messages.vectors - beliefs).max() <= 1e-12
        assert messages.log_scale_factors.sum() == pytest.approx(log_likelihood, abs=1e-12)


def test_forward_pass_cumulative_factor_is_log_evidence(two_state):
    transition, observation, initial, measurements = two_state
    messages = inference.forward_pass(transition, observation, measurements, initial)
    assert prefix_logs(messages)[-1] == pytest.approx(math.log(EVIDENCE), abs=1e-12)


def test_forward_pass_uniform_model_stays_uniform():
    m = 4
    transition = np.full((m, m), 1.0 / m)
    observation = np.full((m, m), 1.0 / m)
    messages = inference.forward_pass(
        transition, observation, (1, 3, 2, 4), np.full(m, 1.0 / m)
    )
    assert_allclose(messages.vectors, np.full((4, m), 1.0 / m), atol=1e-15)


def test_forward_pass_single_step_equals_filter_step(two_state):
    transition, observation, initial, _ = two_state
    messages = inference.forward_pass(transition, observation, (1,), initial)
    posterior, normalizer = filter_step(initial, transition, observation[0])
    assert_allclose(messages.vectors[0], posterior, atol=1e-15)
    assert messages.log_scale_factors[0] == pytest.approx(math.log(normalizer), abs=1e-12)


def test_forward_pass_matches_unscaled_recursion(random_instance):
    rng = np.random.default_rng(29)
    transition, observation, initial, measurements = random_instance(rng, 4, 6)
    messages = inference.forward_pass(transition, observation, measurements, initial)
    alpha = initial.copy()
    for t, y in enumerate(measurements):
        alpha = observation[y - 1] * (transition @ alpha)
        reconstructed = messages.vectors[t] * math.exp(prefix_logs(messages)[t])
        assert_allclose(reconstructed, alpha, rtol=1e-12)


# ---- backward_pass ----


def test_backward_pass_worked_example(two_state):
    transition, observation, _, measurements = two_state
    messages = inference.backward_pass(transition, observation, measurements)
    assert_allclose(messages.vectors[-1], [0.5, 0.5])
    reconstructed = messages.vectors[0] * math.exp(suffix_logs(messages)[0])
    assert_allclose(reconstructed, [0.42, 0.56], atol=1e-12)


def test_backward_pass_empty():
    messages = inference.backward_pass(np.eye(3), np.eye(3), ())
    assert messages.vectors.shape[0] == 0


def test_backward_pass_uniform_model_stays_uniform():
    m = 5
    transition = np.full((m, m), 1.0 / m)
    observation = np.full((m, m), 1.0 / m)
    messages = inference.backward_pass(transition, observation, (2, 5, 1))
    assert_allclose(messages.vectors, np.full((3, m), 1.0 / m), atol=1e-15)


def test_backward_pass_matches_unscaled_recursion(random_instance):
    rng = np.random.default_rng(31)
    transition, observation, _, measurements = random_instance(rng, 4, 6)
    messages = inference.backward_pass(transition, observation, measurements)
    suffixes = suffix_logs(messages)
    beta = np.ones(4)
    for t in range(len(measurements) - 1, -1, -1):
        reconstructed = messages.vectors[t] * math.exp(suffixes[t])
        assert_allclose(reconstructed, beta, rtol=1e-12)
        beta = transition.T @ (observation[measurements[t] - 1] * beta)


# ---- smooth / run_smoother ----


def test_smooth_worked_example(two_state):
    transition, observation, initial, measurements = two_state
    forward = inference.forward_pass(transition, observation, measurements, initial)
    backward = inference.backward_pass(transition, observation, measurements)
    smoothed = inference.smooth(forward, backward)
    assert_allclose(smoothed, [SMOOTHED_1, FILTERED_2], atol=1e-12)
    assert_allclose(smoothed, [[0.68141, 0.31859], [0.62958, 0.37042]], atol=1e-4)
    assert_allclose(smoothed.sum(axis=1), 1.0, atol=1e-12)


def test_smooth_final_step_equals_filter(random_instance):
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        t = int(rng.integers(1, 30))
        transition, observation, initial, measurements = random_instance(rng, m, t)
        result = inference.run_smoother(transition, observation, measurements, initial)
        assert np.abs(result.smoothed[-1] - result.filtered[-1]).max() <= 1e-12


def test_smooth_rejects_mismatched_messages(two_state):
    transition, observation, initial, measurements = two_state
    forward = inference.forward_pass(transition, observation, measurements, initial)
    backward = inference.backward_pass(transition, observation, (1,))
    with pytest.raises(ValueError, match="mismatch"):
        inference.smooth(forward, backward)


def test_smooth_rejects_messages_with_disjoint_support():
    forward = inference.ScaledMessages(np.array([[0.5, 0.5], [1.0, 0.0]]), np.zeros(2))
    backward = inference.ScaledMessages(np.array([[0.5, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(InferenceError, match="^step 2: inconsistent forward/backward messages$"):
        inference.smooth(forward, backward)


def test_smooth_names_trial_of_inconsistent_batch_messages():
    forward = np.ones((2, 2, 3)) / 2
    forward[1, :, 2] = [1.0, 0.0]
    backward = np.ones((2, 2, 3)) / 2
    backward[1, :, 2] = [0.0, 1.0]
    with pytest.raises(InferenceError, match="^trial 2: step 2: inconsistent forward/backward"):
        inference.smooth(
            inference.ScaledMessages(forward, np.zeros((2, 3))),
            inference.ScaledMessages(backward, np.zeros((2, 3))),
        )


def test_constancy_of_evidence(two_state, random_instance):
    rng = np.random.default_rng(23)
    instances = [two_state[:4]] + [
        random_instance(rng, int(rng.integers(2, 10)), int(rng.integers(1, 25)))
        for _ in range(10)
    ]
    for transition, observation, initial, measurements in instances:
        forward = inference.forward_pass(transition, observation, measurements, initial)
        backward = inference.backward_pass(transition, observation, measurements)
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
    forward = inference.forward_pass(transition, observation, measurements, initial)
    assert forward.log_scale_factors.sum() == pytest.approx(math.log(0.2373), abs=1e-12)


def test_run_smoother_long_sequence_stays_finite(random_instance):
    rng = np.random.default_rng(5)
    transition, observation, initial, _ = random_instance(rng, 15, 1)
    measurements = tuple(int(v) for v in rng.integers(1, 16, size=2000))
    result = inference.run_smoother(transition, observation, measurements, initial)
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


def test_single_sequence_is_bit_identical_to_vector_recursion(default_transition, default_observation):
    from roadhmm import experiment

    sample = experiment.sample_trajectory(default_transition, default_observation, 5, 2000, seed=4)
    prior = inference.point_mass_belief(105, 5)
    result = inference.run_smoother(default_transition, default_observation, sample.measurements, prior)
    filtered = vector_forward(default_transition, default_observation, sample.measurements, prior)
    backward = vector_backward(default_transition, default_observation, sample.measurements)
    product = filtered * backward
    assert np.array_equal(result.filtered, filtered)
    assert np.array_equal(result.smoothed, product / product.sum(axis=1, keepdims=True))


def test_batch_matches_single_sequences(random_instance):
    rng = np.random.default_rng(41)
    transition, observation, _, _ = random_instance(rng, 6, 1)
    measurements = rng.integers(1, 7, size=(30, 5))
    priors = rng.random((6, 5)) + 0.05
    priors /= priors.sum(axis=0)
    batch = inference.run_smoother(transition, observation, measurements, priors)
    assert batch.filtered.shape == batch.smoothed.shape == (30, 6, 5)
    assert batch.log_likelihood.shape == (5,)
    for i in range(5):
        single = inference.run_smoother(transition, observation, measurements[:, i], priors[:, i])
        assert_allclose(batch.filtered[:, :, i], single.filtered, rtol=1e-12, atol=1e-15)
        assert_allclose(batch.smoothed[:, :, i], single.smoothed, rtol=1e-12, atol=1e-15)
        assert batch.log_likelihood[i] == pytest.approx(single.log_likelihood, abs=1e-10)
        assert np.array_equal(
            inference.map_estimate(batch.smoothed)[:, i], inference.map_estimate(single.smoothed)
        )


def test_batch_of_one_equals_single_sequence(random_instance):
    rng = np.random.default_rng(43)
    transition, observation, initial, measurements = random_instance(rng, 7, 40)
    single = inference.run_smoother(transition, observation, measurements, initial)
    batch = inference.run_smoother(
        transition, observation, np.array(measurements)[:, None], initial[:, None]
    )
    assert np.array_equal(batch.filtered[:, :, 0], single.filtered)
    assert np.array_equal(batch.smoothed[:, :, 0], single.smoothed)


def test_batch_shares_a_one_dimensional_prior(two_state):
    transition, observation, initial, measurements = two_state
    columns = np.array([measurements, measurements]).T
    shared = inference.forward_pass(transition, observation, columns, initial)
    assert_allclose(shared.vectors[:, :, 1], [FILTERED_1, FILTERED_2], atol=1e-12)


def test_batch_error_names_trial_and_step():
    transition, observation = np.eye(2), np.eye(2)
    measurements = np.array([[1, 1, 1], [1, 1, 2], [1, 2, 2]])
    prior = np.array([1.0, 0.0])
    with pytest.raises(InferenceError, match="^trial 2: step 2: measurement impossible") as info:
        inference.forward_pass(transition, observation, measurements, prior)
    assert (info.value.trial, info.value.step) == (2, 2)
    with pytest.raises(InferenceError, match="^trial 1: step 2: measurement impossible"):
        inference.backward_pass(transition, observation, measurements)
    with pytest.raises(InferenceError, match="^step 2: measurement impossible"):
        inference.forward_pass(transition, observation, measurements[:, 2], prior)


def test_batch_out_of_range_measurement_names_trial_and_step(two_state):
    transition, observation, initial, _ = two_state
    measurements = np.array([[1, 2], [2, 3]])
    with pytest.raises(InferenceError, match="^trial 1: step 2: measurement 3 out of range 1..2"):
        inference.forward_pass(transition, observation, measurements, initial)
    with pytest.raises(InferenceError, match="^step 2: measurement 0 out of range 1..2"):
        inference.backward_pass(transition, observation, (1, 0))


def test_map_estimate_batches_along_state_axis():
    beliefs = np.array([[[0.1, 0.6], [0.9, 0.4]], [[0.5, 0.2], [0.5, 0.8]]])
    assert np.array_equal(inference.map_estimate(beliefs), [[2, 1], [1, 2]])
    assert np.array_equal(inference.map_estimate(beliefs[:, :, 0]), [2, 1])


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


def test_map_estimate_rejects_empty():
    with pytest.raises(ValueError):
        inference.map_estimate(np.array([]))


# ---- belief helpers ----


def test_point_mass_belief():
    assert_allclose(inference.point_mass_belief(4, 3), [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        inference.point_mass_belief(4, 5)
