import math
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from conftest import make_random_instance, observation_matrix
from roadhmm import experiment, inference


def hand_enumerate(transition, observation, initial, measurements):
    """Literal path sum in plain Python; the oracle's own cross-check."""
    m = transition.shape[0]
    steps = len(measurements)
    evidence = 0.0
    marginals = np.zeros((steps, m))
    for path in product(range(m), repeat=steps + 1):
        weight = initial[path[0]]
        for k in range(1, steps + 1):
            weight *= transition[path[k], path[k - 1]]
            weight *= observation[measurements[k - 1] - 1, path[k]]
        evidence += weight
        for k in range(1, steps + 1):
            marginals[k - 1, path[k]] += weight
    return evidence, marginals / evidence


def test_worked_example(two_state):
    filtered, smoothed, evidence = oracle.enumerate_posteriors(*two_state[:2], two_state[2], two_state[3])
    assert evidence == pytest.approx(0.2373, abs=1e-12)
    assert_allclose(filtered, [[77 / 104, 27 / 104], [498 / 791, 293 / 791]], atol=1e-12)
    assert_allclose(smoothed, [[539 / 791, 252 / 791], [498 / 791, 293 / 791]], atol=1e-12)
    assert_allclose(smoothed, [[0.68141, 0.31859], [0.62958, 0.37042]], atol=1e-4)


def test_oracle_agrees_with_literal_python_sum(two_state, random_instance):
    rng = np.random.default_rng(41)
    instances = [two_state[:4]] + [
        random_instance(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        for _ in range(5)
    ]
    for transition, observation, initial, measurements in instances:
        filtered, smoothed, evidence = oracle.enumerate_posteriors(
            transition, observation, initial, measurements
        )
        hand_evidence, hand_smoothed = hand_enumerate(
            transition, observation, initial, measurements
        )
        assert evidence == pytest.approx(hand_evidence, rel=1e-12)
        assert_allclose(smoothed, hand_smoothed, atol=1e-12)
        assert_allclose(filtered[-1], smoothed[-1], atol=1e-12)


def test_single_state():
    transition = np.array([[1.0]])
    observation = np.array([[1.0]])
    filtered, smoothed, evidence = oracle.enumerate_posteriors(
        transition, observation, np.array([1.0]), (1, 1, 1, 1)
    )
    assert_allclose(filtered, np.ones((4, 1)))
    assert_allclose(smoothed, np.ones((4, 1)))
    assert evidence == pytest.approx(1.0)


def test_single_state_evidence_is_product_of_likelihoods():
    observation = np.array([[0.25]])
    # an observation "matrix" with a single sub-unit entry is not stochastic,
    # but the enumeration handles any weights
    _, _, evidence = oracle.enumerate_posteriors(
        np.array([[1.0]]), observation, np.array([1.0]), (1, 1, 1)
    )
    assert evidence == pytest.approx(0.25**3, rel=1e-12)


def test_uniform_model_gives_uniform_beliefs():
    m = 3
    uniform = np.full((m, m), 1.0 / m)
    filtered, smoothed, _ = oracle.enumerate_posteriors(
        uniform, uniform, np.full(m, 1.0 / m), (1, 2, 3)
    )
    assert_allclose(filtered, np.full((3, m), 1.0 / m), atol=1e-12)
    assert_allclose(smoothed, np.full((3, m), 1.0 / m), atol=1e-12)


def test_empty_measurements():
    filtered, smoothed, evidence = oracle.enumerate_posteriors(
        np.eye(2), np.eye(2), np.array([0.5, 0.5]), ()
    )
    assert filtered.shape == (0, 2)
    assert smoothed.shape == (0, 2)
    assert evidence == pytest.approx(1.0)


def test_budget_exceeded():
    m = 10
    uniform = np.full((m, m), 0.1)
    with pytest.raises(ValueError, match="budget exceeded"):
        oracle.enumerate_posteriors(
            uniform, uniform, np.full(m, 0.1), tuple([1] * 9), max_paths=10**8
        )


def test_marginals_sum_to_one(random_instance):
    rng = np.random.default_rng(43)
    for _ in range(10):
        transition, observation, initial, measurements = random_instance(
            rng, int(rng.integers(2, 6)), int(rng.integers(1, 6))
        )
        filtered, smoothed, _ = oracle.enumerate_posteriors(
            transition, observation, initial, measurements
        )
        assert np.abs(filtered.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(smoothed.sum(axis=1) - 1.0).max() <= 1e-9


def test_evidence_matches_filter_likelihood(random_instance):
    rng = np.random.default_rng(47)
    for _ in range(10):
        transition, observation, initial, measurements = random_instance(
            rng, int(rng.integers(2, 6)), int(rng.integers(1, 6))
        )
        _, _, evidence = oracle.enumerate_posteriors(
            transition, observation, initial, measurements
        )
        log_likelihood = inference.forward_pass(
            *oracle.models(transition, observation), measurements, initial
        ).log_scale_factors.sum()
        assert math.exp(log_likelihood) == pytest.approx(evidence, rel=1e-9)


def test_chunked_enumeration_matches_single_chunk(monkeypatch, random_instance):
    rng = np.random.default_rng(53)
    transition, observation, initial, measurements = random_instance(rng, 4, 5)
    full = oracle.enumerate_posteriors(transition, observation, initial, measurements)
    monkeypatch.setattr(oracle, "_CHUNK", 17)
    chunked = oracle.enumerate_posteriors(transition, observation, initial, measurements)
    assert_allclose(chunked[0], full[0], atol=1e-12)
    assert_allclose(chunked[1], full[1], atol=1e-12)
    assert chunked[2] == pytest.approx(full[2], rel=1e-12)


def sparse_stochastic(rng, shape):
    """Column-stochastic weights with about half the entries exactly 0, but no all-zero column."""
    values = (0.05 + rng.random(shape)) * (rng.random(shape) < 0.5)
    empty = np.flatnonzero(values.sum(axis=0) == 0)
    values[rng.integers(0, shape[0], size=empty.size), empty] = 1.0
    return values / values.sum(axis=0)


def test_impossible_prefix_raises_in_oracle_and_forward_pass_at_one_step():
    rng = np.random.default_rng(59)
    impossible = 0
    for _ in range(300):
        m, steps = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        transition, observation = sparse_stochastic(rng, (m, m)), sparse_stochastic(rng, (m, m))
        initial = sparse_stochastic(rng, (m, 1))[:, 0]
        measurements = rng.integers(1, m + 1, size=steps)
        models = oracle.models(transition, observation)
        try:
            filtered, smoothed, evidence = oracle.enumerate_posteriors(
                transition, observation, initial, measurements
            )
        except ValueError as exc:
            impossible += 1
            with pytest.raises(inference.InferenceError) as caught:
                inference.forward_pass(*models, measurements, initial)
            assert str(caught.value) == str(exc)  # "step k: measurement impossible under model"
            continue
        result = inference.run_smoother(*models, measurements, initial)
        assert_allclose(result.filtered, filtered, rtol=0, atol=1e-12)
        assert_allclose(result.smoothed, smoothed, rtol=0, atol=1e-12)
        assert math.exp(result.log_likelihood) == pytest.approx(evidence, rel=1e-12)
    assert 50 < impossible < 250


def test_oracle_rejects_impossible_measurement_without_dividing():
    with pytest.raises(ValueError, match="^step 1: measurement impossible under model$"):
        oracle.enumerate_posteriors(np.eye(2), np.eye(2), np.array([1.0, 0.0]), [2])


def test_log_domain_smoother_agrees_with_enumeration_on_sparse_models():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(200):
        m, steps = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        transition, observation = sparse_stochastic(rng, (m, m)), sparse_stochastic(rng, (m, m))
        initial = sparse_stochastic(rng, (m, 1))[:, 0]
        measurements = rng.integers(1, m + 1, size=steps)
        try:
            _, smoothed, _ = oracle.enumerate_posteriors(transition, observation, initial, measurements)
        except ValueError:
            continue
        checked += 1
        assert_allclose(
            oracle.log_domain_smoother(transition, observation, initial, measurements),
            smoothed, rtol=0, atol=1e-12,
        )
    assert checked > 50


def same_bits(actual, expected):
    """Two arrays with the same shape, dtype and bytes, so -0.0 and 0.0 are told apart."""
    return (actual.shape == expected.shape and actual.dtype == expected.dtype
            and actual.tobytes() == expected.tobytes())


@pytest.mark.parametrize("case", ["two-state", "random", "default-misread", "default-and-sinks"])
def test_models_read_back_the_dense_matrices_bit_for_bit(request, case):
    # every test that hands the passes oracle.models(A, obs) relies on this: the
    # models are A and obs, and sample from the same tables
    if case == "two-state":
        transition, observation = request.getfixturevalue("two_state")[:2]
    elif case == "random":
        transition, observation = make_random_instance(np.random.default_rng(7), 9, 1)[:2]
    elif case == "default-misread":
        transition = request.getfixturevalue("default_transition")
        observation = np.roll(request.getfixturevalue("default_observation"), 1, axis=1)
    else:
        transition, observation = request.getfixturevalue("default_model_and_sinks")
    models = oracle.models(transition, observation)
    assert same_bits(models[0].matrix, transition)
    assert same_bits(observation_matrix(models[1]), observation)
    expected = oracle.sampling_table(transition), oracle.sampling_table(observation)
    for table, reference in zip(experiment.sampling_tables(*models), expected, strict=True):
        assert all(same_bits(a, b) for a, b in zip(table, reference, strict=True))
