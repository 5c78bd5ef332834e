import math
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from conftest import observation_matrix
from roadhmm import cli, experiment, matrixio, roadmap, sensor

# Frozen reference values, evaluated directly from the normal density
# exp(-d^2 / (2 s^2)) / (s sqrt(2 pi)).
PHI_0_S1 = 0.3989422804014327
PHI_1_S1 = 0.24197072451914337
PHI_2_S1 = 0.05399096651318806
PHI_0_S2 = 0.19947114020071635


def bits(array):
    """The raw 64-bit patterns of a float array, so -0.0 and 0.0 or two NaNs are told apart."""
    return np.ascontiguousarray(array).view(np.uint64)


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
def test_kernel_rejects_bad_sigma(chain5_graph, sigma):
    with pytest.raises(ValueError):
        sensor.gaussian_kernel(1, 2, sigma)
    with pytest.raises(ValueError):
        sensor.observation_model(chain5_graph, sigma)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e300, 1e-200])
def test_kernel_and_noise_reject_non_finite_sigma(chain5_graph, sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        sensor.gaussian_kernel(1, 2, sigma)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        sensor.observation_model(chain5_graph, sigma)


def test_sigma_either_rejected_or_gives_finite_stochastic_matrix(default_graph):
    accepted = []
    for k in range(-320, 309):
        sigma = float(f"1e{k}")
        try:
            out = observation_matrix(sensor.observation_model(default_graph, sigma))
        except ValueError as exc:
            assert str(exc).startswith("sigma must be positive and finite")
            assert str(exc).endswith(f"got {sigma}")
            continue
        assert np.all(np.isfinite(out)), sigma
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12, sigma
        accepted.append(k)
    # one contiguous range of decades that includes the sigmas in use
    assert accepted == list(range(accepted[0], accepted[-1] + 1))
    assert accepted[0] <= -6 and accepted[-1] >= 4


# ---- confusion_entries ----


def scatter(graph):
    """The confusion base as an M x M array: ``confusion_entries`` written out."""
    rows, columns, values = sensor.confusion_entries(graph)
    base = np.zeros((graph.num_nodes, graph.num_nodes))
    base[rows, columns] = values
    return base


def test_base_single_node_graph():
    graph = roadmap.RoadGraph(1, ((1, 1, 1.0),))
    assert_allclose(scatter(graph), [[1.0]])


def test_base_two_neighbor_column(chain5_graph):
    base = scatter(chain5_graph)
    # node 3 is adjacent to 2 and 4 only
    assert_allclose(base[:, 2], [0.0, 0.15, 0.7, 0.15, 0.0])


def test_base_non_adjacent_pairs_are_zero(chain5_graph):
    base = scatter(chain5_graph)
    assert base[4, 0] == 0.0
    assert base[0, 4] == 0.0
    assert base[3, 0] == 0.0


def test_base_counts_adjacency_in_either_direction():
    # only a one-way edge 1 -> 2, but both nodes still confuse each other
    graph = roadmap.RoadGraph(
        2, ((1, 2, 1.0), (1, 1, 1.0), (2, 2, 1.0))
    )
    base = scatter(graph)
    assert_allclose(base, [[0.7, 0.3], [0.3, 0.7]])


def test_base_columns_stochastic_and_diagonal_on_target(default_graph):
    base = scatter(default_graph)
    assert np.abs(base.sum(axis=0) - 1.0).max() <= 1e-12
    assert_allclose(base.diagonal(), 0.7)
    assert abs(base.diagonal().mean() - 0.7) <= 0.05


def test_base_zero_only_off_adjacency(default_graph):
    base = scatter(default_graph)
    adjacent = oracle.adjacency(default_graph)
    off_structure = ~adjacent & ~np.eye(105, dtype=bool)
    assert np.all(base[off_structure] == 0.0)
    assert np.all(base[adjacent] > 0.0)


def test_base_off_diagonal_support_symmetric(default_graph):
    support = scatter(default_graph) > 0.0
    np.fill_diagonal(support, False)
    assert np.array_equal(support, support.T)
    assert support.any()


@pytest.fixture
def generated700_graph():
    return roadmap.generate_default_map(num_nodes=700)


@pytest.fixture
def isolated_graph():
    # nodes 3 and 5 only park; 4 has a one-way edge in from 1
    edges = [(1, 2), (2, 1), (1, 4), (1, 1), (3, 3), (4, 4), (5, 5)]
    return roadmap.RoadGraph(5, tuple((a, b, 1.0) for a, b in edges))


@pytest.mark.parametrize(
    "graph_fixture", ["default_graph", "generated700_graph", "chain5_graph", "isolated_graph"]
)
def test_base_equals_per_column_reference(request, graph_fixture):
    # the entries come sorted by column, then row, each (row, column) pair once,
    # as column_entries and padded_columns read them
    graph = request.getfixturevalue(graph_fixture)
    rows, columns, _ = sensor.confusion_entries(graph)
    keys = columns * graph.num_nodes + rows
    assert np.all(np.diff(keys) > 0)
    assert np.array_equal(scatter(graph), oracle.reference_confusion_base(graph))


# ---- the noise, through the likelihood rows of every id ----


def test_noise_single_state_stays_certain():
    graph = roadmap.RoadGraph(1, ((1, 1, 1.0),))
    out = observation_matrix(sensor.observation_model(graph, 1.0))
    assert_allclose(out, [[1.0]], atol=1e-15)


def test_noise_worked_five_node_column(chain5_graph):
    out = observation_matrix(sensor.observation_model(chain5_graph, 1.0))
    total = PHI_0_S1 + 2 * PHI_1_S1 + 2 * PHI_2_S1
    assert total == pytest.approx(0.990866, abs=1e-6)
    # frozen from (0.7 + phi(0)) / (1 + total)
    assert out[2, 2] == pytest.approx(0.5519921816523607, abs=1e-12)
    assert out[2, 2] == pytest.approx(0.55197, abs=1e-4)
    assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)


def test_noise_columns_stochastic_for_random_bases():
    for seed in range(20):
        graph = roadmap.generate_default_map(num_nodes=12 + seed, seed=seed)
        for sigma in (0.5, 1.0, 2.0):
            out = observation_matrix(sensor.observation_model(graph, sigma))
            assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12


def test_noise_strictly_positive_within_float_range(default_observation):
    # exp(-d^2/2) underflows float64 beyond index distance ~38, so strict
    # positivity can only be observed where the tail is representable
    out = default_observation
    assert out.min() >= 0.0
    m = out.shape[0]
    ids = np.arange(m)
    near = np.abs(ids[:, None] - ids[None, :]) <= 35
    assert np.all(out[near] > 0.0)


@pytest.mark.parametrize("sigma,zeros,first_zero_distance", [(1.0, 4282, 39), (2.0, 734, 78)])
def test_noise_zeros_are_base_zeros_where_kernel_underflows(
    default_graph, sigma, zeros, first_zero_distance
):
    out = observation_matrix(sensor.observation_model(default_graph, sigma))
    ids = np.arange(1, out.shape[0] + 1)
    kernel = sensor.gaussian_kernel(ids[:, None], ids[None, :], sigma)
    distance = np.abs(ids[:, None] - ids[None, :])
    assert out.size == 11025
    assert np.count_nonzero(out == 0.0) == zeros
    assert np.array_equal(out == 0.0, (scatter(default_graph) == 0.0) & (kernel == 0.0))
    assert distance[kernel == 0.0].min() == first_zero_distance
    assert np.all(kernel[distance < first_zero_distance] > 0.0)


def test_noise_smallest_positive_entry_is_subnormal(default_observation):
    out = default_observation
    smallest = out[out > 0.0].min()
    assert smallest < np.finfo(float).tiny
    assert smallest == pytest.approx(5.5e-315, rel=0.01)


def test_noise_minimum_entries_grow_with_sigma():
    # holds while sigma stays below the index distances that carry each
    # column's minimum (the density at distance d grows with sigma only for
    # sigma < d), so test at M = 30 where minima sit deep in the tail
    for seed in range(20):
        graph = roadmap.generate_default_map(num_nodes=30, seed=seed)
        previous = observation_matrix(sensor.observation_model(graph, 1.0))
        for sigma in (2.0, 3.0):
            current = observation_matrix(sensor.observation_model(graph, sigma))
            assert np.all(current.min(axis=0) > previous.min(axis=0)), (seed, sigma)
            previous = current


def test_noise_tiny_sigma_sharpens_to_diagonal(default_graph):
    # As sigma -> 0 the density at zero distance diverges, so each column
    # collapses onto its own state rather than back onto the base.
    out = observation_matrix(sensor.observation_model(default_graph, 1e-6))
    assert out.diagonal().min() >= 1.0 - 1e-4
    off = out - np.diag(out.diagonal())
    assert off.max() <= 1e-4


@pytest.fixture(scope="module")
def reference_graphs():
    return {
        "default": roadmap.generate_default_map(),
        "generated700": roadmap.generate_default_map(num_nodes=700, seed=5),
        "generated12": roadmap.generate_default_map(num_nodes=12, seed=5),
        "single": roadmap.RoadGraph(1, ((1, 1, 1.0),)),
    }


@pytest.mark.parametrize("name", ["default", "generated700", "generated12", "single"])
def test_noise_bytes_equal_dense_reference(reference_graphs, name):
    graph = reference_graphs[name]
    base = oracle.reference_confusion_base(graph)
    backwards = np.arange(graph.num_nodes)[::-1]
    for sigma in (0.5, 1.0, 2.0, 37.0, 1e-6, 1e4, 1e150, 1e-160):
        expected = oracle.reference_noise(base, sigma)
        model = sensor.observation_model(graph, sigma)
        out = observation_matrix(model)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert np.array_equal(bits(out), bits(expected)), sigma
        table, index = model.likelihood_table(backwards)
        assert np.array_equal(bits(table[index]), bits(expected[backwards])), sigma
        _, (ids, cdf) = experiment.sampling_tables(roadmap.transition_model(graph), model)
        expected_ids, expected_cdf = oracle.sampling_table(expected)
        assert np.array_equal(ids, expected_ids), sigma
        assert np.array_equal(bits(cdf), bits(expected_cdf)), sigma


def test_noise_peak_memory_is_one_matrix(reference_graphs):
    # export-matrices writes the matrix a block of rows at a time: the formatter's
    # blocks take 0.23 of the matrix's bytes (measured), so building the whole
    # matrix fails this
    model = sensor.observation_model(reference_graphs["generated700"], 1.0)
    rows = cli._RowBlocks(700, lambda a, b: model.likelihood_table(np.arange(a, b))[0])
    with open(os.devnull, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            matrixio.write_matrix_csv(rows, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 0.4 * 700 * 700 * 8


# ---- ObservationModel ----


# sigma 0.05: the band is 3 wide; 0.7: the kernel's last nonzero value is the
# smallest subnormal, which rounds to 0 against a column total above 2; 60: on
# the default map the band covers all of M
MODEL_CASES = [
    ("default", 1.0), ("default", 2.0), ("default", 0.05), ("default", 0.7), ("default", 60.0),
    ("generated700", 1.0), ("generated700", 0.05), ("generated700", 0.7), ("far", 1.0),
    ("single", 1.0),
]


@pytest.fixture(scope="module")
def model_graphs(reference_graphs, far_graph):
    return {**reference_graphs, "far": far_graph}


@pytest.mark.parametrize("name, sigma", MODEL_CASES, ids=[f"{n}-{s:g}" for n, s in MODEL_CASES])
def test_observation_model_reads_equal_the_dense_build_bit_for_bit(model_graphs, name, sigma):
    graph = model_graphs[name]
    dense = oracle.reference_noise(oracle.reference_confusion_base(graph), sigma)
    model = sensor.observation_model(graph, sigma)
    m = graph.num_nodes
    assert model.shape == np.shape(model) == dense.shape
    everything = np.arange(m)
    rng = np.random.default_rng(m)
    some = rng.permutation(m)[: max(1, m // 3)]  # distinct, unsorted
    repeated = rng.integers(0, m, size=(30, 7))  # (steps, trials), with repeats
    for ids in (everything, some, repeated):
        table, index = model.likelihood_table(ids)
        assert index.shape == ids.shape
        assert np.array_equal(bits(table[index]), bits(dense[ids]))
    table, _ = model.likelihood_table(repeated)
    assert table.shape == (np.unique(repeated).size, m)  # each distinct row once
    table, index = model.likelihood_table(everything)
    assert np.array_equal(bits(table), bits(dense)) and np.array_equal(index, everything)


def test_observation_model_cases_cover_the_band_shapes(model_graphs):
    def parts(name, sigma):
        model = sensor.observation_model(model_graphs[name], sigma)
        dense = observation_matrix(model)
        ids = np.arange(model.shape[0])
        band = np.abs(ids[:, None] - ids[None, :]) < model.extent
        off_band = np.abs(model.rows - model.columns) >= model.extent
        return model, dense, band, off_band

    model, _, _, off_band = parts("default", 0.05)
    assert model.extent == 2 and off_band.any()  # a 3-wide band, and entries off it
    model, dense, band, off_band = parts("default", 0.7)
    assert model.kernel[model.extent - 1] == 5e-324
    assert np.any(band & (dense == 0.0))  # outer band entries round to exactly 0
    model, dense, band, off_band = parts("default", 60.0)
    assert band.all() and not off_band.any() and np.all(dense > 0.0)
    model, dense, _, off_band = parts("far", 1.0)
    assert dense[119, 0] > 0.0 and dense[0, 119] > 0.0 and off_band.sum() == 2
    assert dense[59, 59] == (1.0 + model.kernel[0]) / model.totals[59]  # no neighbors


def test_observation_model_holds_no_matrix(reference_graphs):
    graph = reference_graphs["generated700"]
    tracemalloc.start()
    try:
        model = sensor.observation_model(graph, 1.0)
        rows, _ = model.likelihood_table(np.arange(0, 700, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the kernel, the totals, the confusion entries, and 35 rows built in two arrays
    assert rows.shape == (35, 700)
    assert peak < 0.25 * 700 * 700 * 8
