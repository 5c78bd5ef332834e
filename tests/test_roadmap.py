import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from roadhmm import roadmap
from roadhmm.roadmap import Edge, MapError, RoadGraph


def map_text(num_nodes, edges):
    return json.dumps(
        {
            "num_nodes": num_nodes,
            "edges": [{"from": s, "to": d, "weight": w} for s, d, w in edges],
        }
    )


# ---- load_map ----


def test_load_minimal_cycle():
    graph = roadmap.load_map(map_text(2, [(1, 2, 1.0), (2, 1, 1.0)]))
    assert graph.num_nodes == 2
    assert len(graph.edges) == 2
    assert graph.edge_map() == {(1, 2): 1.0, (2, 1): 1.0}


def test_load_rejects_node_out_of_range():
    with pytest.raises(MapError, match="node 7 out of range"):
        roadmap.load_map(map_text(5, [(1, 7, 1.0), (2, 1, 1.0)]))


def test_load_rejects_node_without_outgoing_edge():
    text = map_text(3, [(1, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)])
    with pytest.raises(MapError, match="node 3 has no outgoing edge"):
        roadmap.load_map(text)


def test_load_rejects_zero_weight_only_node():
    text = map_text(2, [(1, 2, 1.0), (2, 1, 0.0)])
    with pytest.raises(MapError, match="node 2 has no outgoing edge"):
        roadmap.load_map(text)


def test_load_names_first_node_without_outgoing_edge():
    text = map_text(6, [(1, 2, 1.0), (2, 1, 1.0), (5, 1, 1.0), (3, 4, 0.0)])
    with pytest.raises(MapError, match="^node 3 has no outgoing edge with positive weight$"):
        roadmap.load_map(text)


def test_load_rejects_huge_num_nodes_without_allocating():
    # a per-node table would need terabytes here; the check must scale with the edges
    with pytest.raises(MapError, match="^node 2 has no outgoing edge with positive weight$"):
        roadmap.load_map(map_text(10**12, [(1, 1, 1)]))


def test_load_rejects_negative_weight():
    with pytest.raises(MapError, match=r"negative weight .* \(1, 2\)"):
        roadmap.load_map(map_text(2, [(1, 2, -0.5), (2, 1, 1.0)]))


def test_load_rejects_duplicate_edge():
    text = map_text(2, [(1, 2, 1.0), (1, 2, 2.0), (2, 1, 1.0)])
    with pytest.raises(MapError, match=r"duplicate edge \(1, 2\)"):
        roadmap.load_map(text)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        "[1, 2, 3]",
        '{"edges": []}',
        '{"num_nodes": 2, "edges": [{"from": 1, "to": 2}]}',
        '{"num_nodes": 0, "edges": []}',
    ],
)
def test_load_rejects_malformed_documents(text):
    with pytest.raises(MapError):
        roadmap.load_map(text)


@pytest.mark.parametrize("seed", [0, 3, 44])
def test_save_load_round_trip(seed):
    graph = roadmap.generate_default_map(num_nodes=30, main_road_nodes=range(1, 6), seed=seed)
    assert roadmap.load_map(roadmap.save_map(graph)) == graph


def test_round_trip_preserves_default_map(default_graph):
    text = roadmap.save_map(default_graph)
    assert roadmap.load_map(text) == default_graph
    assert roadmap.save_map(roadmap.load_map(text)) == text


# ---- build_transition_matrix ----


def test_self_loop_only_node_parks_forever():
    graph = RoadGraph(2, (Edge(1, 1, 1.0), Edge(2, 1, 1.0), Edge(2, 2, 1.0)))
    matrix = roadmap.build_transition_matrix(graph)
    assert_allclose(matrix[:, 0], [1.0, 0.0])


def test_proportional_normalization():
    graph = RoadGraph(
        3,
        (
            Edge(1, 2, 2.0),
            Edge(1, 3, 1.0),
            Edge(1, 1, 1.0),
            Edge(2, 1, 1.0),
            Edge(3, 1, 1.0),
        ),
    )
    matrix = roadmap.build_transition_matrix(graph)
    assert_allclose(matrix[:, 0], [0.25, 0.5, 0.25])


@pytest.mark.parametrize("seed", range(5))
def test_columns_stochastic(seed):
    graph = roadmap.generate_default_map(num_nodes=40, main_road_nodes=range(1, 7), seed=seed)
    matrix = roadmap.build_transition_matrix(graph)
    assert np.all(matrix >= 0.0)
    assert np.all(matrix <= 1.0)
    assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_zero_pattern_matches_edges(seed):
    graph = roadmap.generate_default_map(num_nodes=25, main_road_nodes=range(1, 5), seed=seed)
    matrix = roadmap.build_transition_matrix(graph)
    pattern = np.zeros_like(matrix, dtype=bool)
    for src, dst, weight in graph.edges:
        pattern[dst - 1, src - 1] = weight > 0
    assert np.array_equal(matrix > 0, pattern)


@pytest.mark.parametrize("node,scale", [(1, 3.5), (7, 0.25), (20, 123.0)])
def test_scaling_outgoing_weights_leaves_column_unchanged(node, scale):
    graph = roadmap.generate_default_map(num_nodes=20, main_road_nodes=range(1, 4), seed=11)
    matrix = roadmap.build_transition_matrix(graph)
    scaled = RoadGraph(
        graph.num_nodes,
        tuple(
            Edge(e.src, e.dst, e.weight * scale if e.src == node else e.weight)
            for e in graph.edges
        ),
    )
    rescaled = roadmap.build_transition_matrix(scaled)
    assert_allclose(rescaled[:, node - 1], matrix[:, node - 1], atol=1e-12)


# ---- generate_default_map ----


def test_generator_deterministic():
    a = roadmap.generate_default_map(seed=42)
    b = roadmap.generate_default_map(seed=42)
    assert a == b
    assert roadmap.save_map(a) == roadmap.save_map(b)


def test_generator_seeds_differ():
    assert roadmap.generate_default_map(seed=1) != roadmap.generate_default_map(seed=2)


def test_default_map_shape(default_graph):
    assert default_graph.num_nodes == 105
    weights = default_graph.edge_map()
    assert all((n, n) in weights and weights[(n, n)] > 0 for n in range(1, 106))


def test_default_map_node1_ordering(default_transition):
    # straight to node 2 beats the turn to node 70 which beats parking
    assert default_transition[1, 0] > default_transition[69, 0] > default_transition[0, 0]


def test_main_road_ordering_holds_for_every_main_node(default_graph, default_transition):
    main = sorted(roadmap.MAIN_ROAD_NODES)
    weights = default_graph.edge_map()
    for pos, node in enumerate(main):
        straight = main[(pos + 1) % len(main)]
        straight_p = default_transition[straight - 1, node - 1]
        self_p = default_transition[node - 1, node - 1]
        turns = [
            default_transition[dst - 1, node - 1]
            for (src, dst) in weights
            if src == node and dst not in (node, straight)
        ]
        assert turns, f"main node {node} has no turns"
        for turn_p in turns:
            assert straight_p > turn_p > self_p


def test_side_nodes_have_roughly_equal_directions(default_graph):
    weights = default_graph.edge_map()
    side = [n for n in range(1, 106) if n not in roadmap.MAIN_ROAD_NODES]
    for node in side:
        out = [w for (s, d), w in weights.items() if s == node and d != node]
        assert out, f"side node {node} is isolated"
        assert max(out) / min(out) < 1.5
        assert weights[(node, node)] < min(out)


def test_generated_columns_stochastic(default_transition):
    assert np.abs(default_transition.sum(axis=0) - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 1},
        {"num_nodes": 10, "main_road_nodes": [0]},
        {"num_nodes": 10, "main_road_nodes": [11]},
        {"num_nodes": 10, "main_road_nodes": [1, 1, 2]},
    ],
)
def test_generator_rejects_invalid_parameters(kwargs):
    with pytest.raises(MapError):
        roadmap.generate_default_map(seed=0, **kwargs)


@pytest.mark.parametrize(
    "num_nodes,main",
    [(2, [1]), (2, []), (3, []), (3, [1, 2, 3]), (4, [2]), (12, range(1, 10))],
)
def test_generator_handles_small_maps(num_nodes, main):
    graph = roadmap.generate_default_map(num_nodes=num_nodes, main_road_nodes=main, seed=5)
    matrix = roadmap.build_transition_matrix(graph)
    assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12


def test_adjacency_matrix_symmetric_no_diagonal(default_graph):
    adjacent = default_graph.adjacency_matrix()
    assert np.array_equal(adjacent, adjacent.T)
    assert not adjacent.diagonal().any()
