import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from roadhmm import roadmap, sensor
from roadhmm.sensor import NoiseSpec

# Frozen reference values, evaluated directly from the normal density
# exp(-d^2 / (2 s^2)) / (s sqrt(2 pi)).
PHI_0_S1 = 0.3989422804014327
PHI_1_S1 = 0.24197072451914337
PHI_2_S1 = 0.05399096651318806
PHI_0_S2 = 0.19947114020071635


# ---- gaussian_kernel ----


@pytest.mark.parametrize(
    "j,i,sigma,expected",
    [
        (3, 3, 1.0, PHI_0_S1),
        (4, 3, 1.0, PHI_1_S1),
        (2, 3, 1.0, PHI_1_S1),
        (5, 3, 1.0, PHI_2_S1),
        (3, 3, 2.0, PHI_0_S2),
    ],
)
def test_kernel_matches_normal_density(j, i, sigma, expected):
    assert sensor.gaussian_kernel(j, i, sigma) == pytest.approx(expected, abs=1e-15)


def test_kernel_reference_decimals():
    assert sensor.gaussian_kernel(10, 10, 1.0) == pytest.approx(0.398942, abs=1e-6)
    assert sensor.gaussian_kernel(11, 10, 1.0) == pytest.approx(0.241971, abs=1e-6)
    assert sensor.gaussian_kernel(10, 10, 2.0) == pytest.approx(0.199471, abs=1e-6)


def test_kernel_symmetric_exactly():
    for sigma in (0.5, 1.0, 2.0, 3.7):
        for j in range(1, 12):
            for i in range(1, 12):
                assert sensor.gaussian_kernel(j, i, sigma) == sensor.gaussian_kernel(i, j, sigma)


def test_kernel_on_arrays_equals_scalar_calls():
    ids = np.arange(1, 31)
    for sigma in (0.5, 1.0, 2.0, 3.7):
        grid = sensor.gaussian_kernel(ids[:, None], ids[None, :], sigma)
        scalar = [[sensor.gaussian_kernel(int(j), int(i), sigma) for i in ids] for j in ids]
        assert grid.shape == (30, 30)
        assert np.array_equal(grid, np.array(scalar))


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_kernel_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError):
        sensor.gaussian_kernel(1, 2, sigma)
    with pytest.raises(ValueError):
        NoiseSpec(sigma)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_kernel_and_noise_reject_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        sensor.gaussian_kernel(1, 2, sigma)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        NoiseSpec(sigma)


# ---- build_confusion_base ----


def test_base_single_node_graph():
    graph = roadmap.RoadGraph(1, (roadmap.Edge(1, 1, 1.0),))
    assert_allclose(sensor.build_confusion_base(graph), [[1.0]])


def test_base_two_neighbor_column(chain5_graph):
    base = sensor.build_confusion_base(chain5_graph)
    # node 3 is adjacent to 2 and 4 only
    assert_allclose(base[:, 2], [0.0, 0.15, 0.7, 0.15, 0.0])


def test_base_non_adjacent_pairs_are_zero(chain5_graph):
    base = sensor.build_confusion_base(chain5_graph)
    assert base[4, 0] == 0.0
    assert base[0, 4] == 0.0
    assert base[3, 0] == 0.0


def test_base_counts_adjacency_in_either_direction():
    # only a one-way edge 1 -> 2, but both nodes still confuse each other
    graph = roadmap.RoadGraph(
        2, (roadmap.Edge(1, 2, 1.0), roadmap.Edge(1, 1, 1.0), roadmap.Edge(2, 2, 1.0))
    )
    base = sensor.build_confusion_base(graph)
    assert_allclose(base, [[0.7, 0.3], [0.3, 0.7]])


def test_base_columns_stochastic_and_diagonal_on_target(default_graph):
    base = sensor.build_confusion_base(default_graph)
    assert np.abs(base.sum(axis=0) - 1.0).max() <= 1e-12
    assert_allclose(base.diagonal(), 0.7)
    assert abs(base.diagonal().mean() - 0.7) <= 0.05


def test_base_zero_only_off_adjacency(default_graph):
    base = sensor.build_confusion_base(default_graph)
    adjacent = default_graph.adjacency_matrix()
    off_structure = ~adjacent & ~np.eye(105, dtype=bool)
    assert np.all(base[off_structure] == 0.0)
    assert np.all(base[adjacent] > 0.0)


@pytest.mark.parametrize("target", [0.5, 1.0, 0.2, 1.3])
def test_base_rejects_bad_target(chain5_graph, target):
    with pytest.raises(ValueError):
        sensor.build_confusion_base(chain5_graph, diagonal_target=target)


# ---- apply_gaussian_noise ----


def test_noise_single_state_stays_certain():
    out = sensor.apply_gaussian_noise(np.array([[1.0]]), NoiseSpec(1.0))
    assert_allclose(out, [[1.0]], atol=1e-15)


def test_noise_worked_five_node_column(chain5_graph):
    base = sensor.build_confusion_base(chain5_graph)
    out = sensor.apply_gaussian_noise(base, NoiseSpec(1.0))
    total = PHI_0_S1 + 2 * PHI_1_S1 + 2 * PHI_2_S1
    assert total == pytest.approx(0.990866, abs=1e-6)
    # frozen from (0.7 + phi(0)) / (1 + total)
    assert out[2, 2] == pytest.approx(0.5519921816523607, abs=1e-12)
    assert out[2, 2] == pytest.approx(0.55197, abs=1e-4)
    assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)


def test_noise_columns_stochastic_for_random_bases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 12))
        base = rng.random((m, m))
        base /= base.sum(axis=0)
        for sigma in (0.5, 1.0, 2.0):
            out = sensor.apply_gaussian_noise(base, NoiseSpec(sigma))
            assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.all(out > 0.0)


def test_noise_strictly_positive_within_float_range(default_base):
    # exp(-d^2/2) underflows float64 beyond index distance ~38, so strict
    # positivity can only be observed where the tail is representable
    out = sensor.apply_gaussian_noise(default_base, NoiseSpec(1.0))
    assert out.min() >= 0.0
    m = out.shape[0]
    ids = np.arange(m)
    near = np.abs(ids[:, None] - ids[None, :]) <= 35
    assert np.all(out[near] > 0.0)


def test_noise_minimum_entries_grow_with_sigma():
    # holds while sigma stays below the index distances that carry each
    # column's minimum (the density at distance d grows with sigma only for
    # sigma < d), so test at M = 30 where minima sit deep in the tail
    rng = np.random.default_rng(8)
    base = rng.random((30, 30))
    base /= base.sum(axis=0)
    previous = sensor.apply_gaussian_noise(base, NoiseSpec(1.0))
    for sigma in (2.0, 3.0):
        current = sensor.apply_gaussian_noise(base, NoiseSpec(sigma))
        assert np.all(current.min(axis=0) > previous.min(axis=0))
        previous = current


def test_noise_tiny_sigma_sharpens_to_diagonal(default_base):
    # As sigma -> 0 the density at zero distance diverges, so each column
    # collapses onto its own state rather than back onto the base.
    out = sensor.apply_gaussian_noise(default_base, NoiseSpec(1e-6))
    assert out.diagonal().min() >= 1.0 - 1e-4
    off = out - np.diag(out.diagonal())
    assert off.max() <= 1e-4


# ---- likelihood_vector ----


def test_likelihood_row_extraction():
    obs = np.array([[0.9, 0.2], [0.1, 0.8]])
    assert_allclose(sensor.likelihood_vector(obs, 1), [0.9, 0.2])
    assert_allclose(sensor.likelihood_vector(obs, 2), [0.1, 0.8])


def test_likelihood_single_state():
    assert_allclose(sensor.likelihood_vector(np.array([[1.0]]), 1), [1.0])


def test_likelihood_positive_after_noise(chain5_graph):
    base = sensor.build_confusion_base(chain5_graph)
    observation = sensor.apply_gaussian_noise(base, NoiseSpec(1.0))
    for y in (1, 3, 5):
        assert sensor.likelihood_vector(observation, y).min() > 0.0


@pytest.mark.parametrize("y", [0, -3, 106])
def test_likelihood_rejects_out_of_range(default_observation, y):
    with pytest.raises(ValueError, match="out of range"):
        sensor.likelihood_vector(default_observation, y)


def test_likelihood_returns_copy(default_observation):
    row = sensor.likelihood_vector(default_observation, 1)
    row[0] = math.nan
    assert not np.isnan(default_observation[0, 0])
