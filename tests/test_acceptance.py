"""Acceptance suite: one test per exit criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion. Criteria cover: agreement with the brute-force enumeration
reference, the worked 2-state instance, qualitative replication of the
three-scenario accuracy table, final-step filter/smoother agreement,
stochasticity and numerical stability, CLI determinism, the observation
diagonal band, and the trajectory sampler's statistics.
"""

import functools
import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_random_instance, observation_matrix, transition_matrix
import oracle
from roadhmm import experiment, inference, roadmap, sensor
from roadhmm.cli import main

ORACLE_SEED = 20250810
ORACLE_INSTANCES = 200
TABLE1_SEED = 2025
TABLE1_TRIALS = 500


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(ORACLE_SEED)
    instances = []
    for _ in range(ORACLE_INSTANCES):
        num_states = int(rng.integers(2, 7))
        num_steps = int(rng.integers(1, 7))
        instances.append(make_random_instance(rng, num_states, num_steps))
    return instances


@pytest.fixture(scope="module")
def table1_rows():
    """(config, filter mean, smoother mean) of each Table 1 scenario, and the run time."""
    start = time.perf_counter()
    rows = []
    for initial_state, sigma, *_ in experiment.TABLE1_SCENARIOS:
        config = experiment.ExperimentConfig(
            initial_state,
            sigma,
            steps=experiment.TABLE1_STEPS,
            trials=TABLE1_TRIALS,
            master_seed=TABLE1_SEED,
        )
        filter_accuracies, smoother_accuracies = experiment.run_experiment(config)
        rows.append((config, np.mean(filter_accuracies), np.mean(smoother_accuracies)))
    return rows, time.perf_counter() - start


@criterion(1, "filtered/smoothed marginals and evidence match brute-force enumeration")
def test_criterion_1_oracle_equivalence(oracle_instances):
    start = time.perf_counter()
    for transition, observation, initial, measurements in oracle_instances:
        result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
        filtered, smoothed, evidence = oracle.enumerate_posteriors(
            transition, observation, initial, measurements
        )
        assert np.abs(result.filtered - filtered).max() <= 1e-9
        assert np.abs(result.smoothed - smoothed).max() <= 1e-9
        assert abs(math.exp(result.log_likelihood) - evidence) <= 1e-9 * evidence
        assert np.abs(result.filtered.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(result.smoothed.sum(axis=1) - 1.0).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "worked 2-state example reproduces the reference posteriors")
def test_criterion_2_worked_example(two_state):
    transition, observation, initial, measurements = two_state
    # re-derive the reference numbers with the enumeration oracle first
    filtered_ref, smoothed_ref, evidence_ref = oracle.enumerate_posteriors(
        transition, observation, initial, measurements
    )
    assert_allclose(filtered_ref, [[0.74038, 0.25962], [0.62958, 0.37042]], atol=1e-4)
    assert_allclose(smoothed_ref, [[0.68141, 0.31859], [0.62958, 0.37042]], atol=1e-4)
    assert evidence_ref == pytest.approx(0.2373, abs=1e-4)

    result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
    assert_allclose(result.filtered, [[0.74038, 0.25962], [0.62958, 0.37042]], atol=1e-4)
    assert_allclose(result.smoothed, [[0.68141, 0.31859], [0.62958, 0.37042]], atol=1e-4)
    assert math.exp(result.log_likelihood) == pytest.approx(0.2373, abs=1e-4)
    assert np.abs(result.filtered - filtered_ref).max() <= 1e-9
    assert np.abs(result.smoothed - smoothed_ref).max() <= 1e-9


@criterion(3, "three-scenario accuracy orderings replicate qualitatively")
def test_criterion_3_table1_qualitative(table1_rows):
    rows, elapsed = table1_rows
    # (filter mean, smoother mean) by (initial state, sigma)
    by_scenario = {(c.initial_state, c.sigma): means for c, *means in rows}
    sigma1 = by_scenario[5, 1.0]
    sigma2 = by_scenario[5, 2.0]
    init90 = by_scenario[90, 1.0]

    for filter_mean, smoother_mean in (sigma1, sigma2, init90):
        assert smoother_mean > filter_mean
    assert sigma2[0] < sigma1[0]
    assert sigma2[1] < sigma1[1]
    assert 0.50 <= sigma1[0] <= 0.95
    assert 0.50 <= init90[0] <= 0.95
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"


@criterion(4, "smoothed[T] equals filtered[T] within 1e-12 on every instance")
def test_criterion_4_final_step_agreement(oracle_instances, table1_rows):
    for transition, observation, initial, measurements in oracle_instances:
        result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
        assert np.abs(result.smoothed[-1] - result.filtered[-1]).max() <= 1e-12

    rows, _ = table1_rows
    for config, *_ in rows:
        graph = experiment.read_graph(config.map_source)
        transition, observation = experiment.build_model(graph, config.sigma)
        tables = experiment.sampling_tables(transition, observation)
        prior = inference.point_mass_belief(graph.num_nodes, config.initial_state)
        for trial in range(config.trials):
            seed = experiment.trial_seed(config.master_seed, trial)
            _, measurements = experiment.sample_trajectory(
                *tables, config.initial_state, config.steps, seed
            )
            result = inference.run_smoother(transition, observation, measurements, prior)
            assert np.abs(result.smoothed[-1] - result.filtered[-1]).max() <= 1e-12
            assert np.abs(result.filtered.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(result.smoothed.sum(axis=1) - 1.0).max() <= 1e-12


@criterion(5, "stochastic matrices, unit belief sums, finite at T=10000 / M=105")
def test_criterion_5_stochasticity_and_stability():
    graph = roadmap.generate_default_map()
    transition = roadmap.transition_model(graph)
    _, columns, values = sensor.confusion_entries(graph)
    assert np.abs(roadmap.build_transition_matrix(transition).sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(np.bincount(columns, values, graph.num_nodes) - 1.0).max() <= 1e-12
    for sigma in (1.0, 2.0):
        observation = observation_matrix(sensor.observation_model(graph, sigma))
        assert np.abs(observation.sum(axis=0) - 1.0).max() <= 1e-12

    observation = sensor.observation_model(graph, 1.0)
    tables = experiment.sampling_tables(transition, observation)
    _, measurements = experiment.sample_trajectory(*tables, 5, 10_000, seed=12345)
    prior = inference.point_mass_belief(graph.num_nodes, 5)
    result = inference.run_smoother(transition, observation, measurements, prior)
    assert np.isfinite(result.filtered).all()
    assert np.isfinite(result.smoothed).all()
    assert math.isfinite(result.log_likelihood)
    assert np.abs(result.filtered.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(result.smoothed.sum(axis=1) - 1.0).max() <= 1e-12


@criterion(6, "simulate CSV byte-identical across repeated runs and thread counts")
def test_criterion_6_cli_determinism(tmp_path):
    base_flags = [
        "simulate",
        "--map", "default",
        "--init", "5",
        "--sigma", "1",
        "--steps", "50",
        "--trials", "20",
        "--seed", "7",
        "--method", "both",
    ]
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / f"{name}.csv"
        code = main(base_flags + ["--threads", threads, "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]


@criterion(7, "observation diagonal: 0.7 +- 0.05 before noise, [0.45, 0.65] after")
def test_criterion_7_observation_diagonal(tmp_path):
    rows, columns, values = sensor.confusion_entries(roadmap.generate_default_map())
    assert abs(values[rows == columns].mean() - 0.7) <= 0.05

    prefix = str(tmp_path / "export")
    code = main(["export-matrices", "--sigma", "1", "--format", "csv", "--out-prefix", prefix])
    assert code == 0
    exported = np.loadtxt(f"{prefix}_observation.csv", delimiter=",", ndmin=2)
    assert 0.45 <= exported.diagonal().mean() <= 0.65


@criterion(8, "100k single-step samples match the transition column (99% band)")
def test_criterion_8_sampling_statistics():
    transition = transition_matrix(roadmap.generate_default_map())
    state = 5
    column = transition[:, state - 1]
    cdf = np.cumsum(column)
    n = 100_000
    rng = np.random.default_rng(777)
    counts = np.bincount(
        [experiment.inverse_cdf_sample(cdf, u) - 1 for u in rng.random(n)],
        minlength=len(column),
    )
    support = np.flatnonzero(column)
    z = NormalDist().inv_cdf(1.0 - 0.01 / (2 * support.size))
    for index in range(len(column)):
        p = column[index]
        if p == 0.0:
            assert counts[index] == 0
        else:
            band = z * math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[index] / n - p) <= band, (
                f"state {index + 1}: freq {counts[index] / n:.5f} vs p {p:.5f}"
            )
