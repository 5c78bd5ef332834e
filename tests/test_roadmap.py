import copy
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from conftest import transition_matrix
from roadhmm import roadmap
from roadhmm.roadmap import MapError, RoadGraph


def map_text(num_nodes, edges):
    return json.dumps(
        {
            "num_nodes": num_nodes,
            "edges": [{"from": s, "to": d, "weight": w} for s, d, w in edges],
        }
    )


def edge_weights(graph):
    return {(s, d): w for s, d, w in oracle.edge_triples(graph)}


# ---- load_map ----


def test_load_minimal_cycle():
    graph = roadmap.load_map(map_text(2, [(1, 2, 1.0), (2, 1, 1.0)]))
    assert graph.num_nodes == 2
    assert graph.src.size == 2
    assert edge_weights(graph) == {(1, 2): 1.0, (2, 1): 1.0}


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


MALFORMED_DOCUMENTS = [
    ("not json at all {", "invalid map JSON"),
    ("[1, 2, 3]", "map file must be a JSON object"),
    ('{"edges": []}', "map file must define 'num_nodes' and 'edges'"),
    (
        '{"num_nodes": 2, "edges": [{"from": 1, "to": 2}]}',
        "edge #0 must be an object with 'from', 'to' and 'weight'",
    ),
    ('{"num_nodes": 0, "edges": []}', "num_nodes must be a positive integer"),
    (
        '{"num_nodes": 2, "edges": [{"from": 1.5, "to": 2, "weight": 1}]}',
        "node id 1.5 is not an integer",
    ),
    (
        '{"num_nodes": 2, "edges": [{"from": 1, "to": 2, "weight": "heavy"}]}',
        "weight 'heavy' on edge (1, 2) is not a number",
    ),
    ('{"num_nodes": 2, "edges": {}}', "'edges' must be a list"),
    (
        '{"num_nodes": 2, "edges": [{"from": 1, "to": 2, "weight": 1}, [1, 2, 1], {"from": 2}]}',
        "edge #1 must be an object with 'from', 'to' and 'weight'",
    ),
    (
        '{"num_nodes": 0, "edges": [{"from": 1, "to": 2, "weight": 1}, "edge", null]}',
        "edge #1 must be an object with 'from', 'to' and 'weight'",
    ),
]


@pytest.mark.parametrize(
    "text,message", MALFORMED_DOCUMENTS, ids=[text for text, _ in MALFORMED_DOCUMENTS]
)
def test_load_rejects_malformed_documents(text, message):
    with pytest.raises(MapError, match=re.escape(message)):
        roadmap.load_map(text)


@pytest.mark.parametrize("seed", [0, 3, 44])
def test_save_load_round_trip(seed):
    graph = roadmap.generate_default_map(num_nodes=30, seed=seed)
    assert roadmap.load_map(roadmap.save_map(graph)) == graph


def test_round_trip_preserves_default_map(default_graph):
    text = roadmap.save_map(default_graph)
    assert roadmap.load_map(text) == default_graph
    assert roadmap.save_map(roadmap.load_map(text)) == text


def test_graphs_are_equal_when_their_node_counts_and_columns_are():
    graph = roadmap.generate_default_map(num_nodes=30, seed=3)
    assert roadmap.load_map(roadmap.save_map(graph)) == graph
    triples = oracle.edge_triples(graph)
    (src, dst, weight), rest = triples[0], triples[1:]
    taken = {d for s, d, _ in triples if s == src}
    other_dst = next(n for n in range(1, 31) if n not in taken)
    more_nodes = copy.copy(graph)  # no valid map has more nodes and the same edges
    object.__setattr__(more_nodes, "num_nodes", 31)
    for changed in (RoadGraph(30, [(src, dst, weight * 2)] + rest),
                    RoadGraph(30, [(src, other_dst, weight)] + rest),
                    RoadGraph(30, triples[::-1]),
                    more_nodes):
        assert changed != graph and not changed == graph
    # never numpy's elementwise == nor its ambiguous truth value
    for other in (graph.src, triples, None, 30):
        assert (graph == other) is False and (graph != other) is True


def test_loaded_graph_keeps_only_its_columns():
    # no edge triple or parsed object outlives load_map; 0.43 MB stays live
    # here, beside 0.29 MB of columns
    text = roadmap.save_map(roadmap.generate_default_map(num_nodes=3000, seed=0))
    tracemalloc.start()
    try:
        graph = roadmap.load_map(text)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live <= 2 * (graph.src.nbytes + graph.dst.nbytes + graph.weight.nbytes)


# ---- build_transition_matrix ----


def test_self_loop_only_node_parks_forever():
    graph = RoadGraph(2, ((1, 1, 1.0), (2, 1, 1.0), (2, 2, 1.0)))
    matrix = transition_matrix(graph)
    assert_allclose(matrix[:, 0], [1.0, 0.0])


def test_proportional_normalization():
    graph = RoadGraph(
        3,
        (
            (1, 2, 2.0),
            (1, 3, 1.0),
            (1, 1, 1.0),
            (2, 1, 1.0),
            (3, 1, 1.0),
        ),
    )
    matrix = transition_matrix(graph)
    assert_allclose(matrix[:, 0], [0.25, 0.5, 0.25])


@pytest.mark.parametrize("seed", range(5))
def test_columns_stochastic(seed):
    graph = roadmap.generate_default_map(num_nodes=40, seed=seed)
    matrix = transition_matrix(graph)
    assert np.all(matrix >= 0.0)
    assert np.all(matrix <= 1.0)
    assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_zero_pattern_matches_edges(seed):
    graph = roadmap.generate_default_map(num_nodes=25, seed=seed)
    matrix = transition_matrix(graph)
    pattern = np.zeros_like(matrix, dtype=bool)
    for src, dst, weight in oracle.edge_triples(graph):
        pattern[dst - 1, src - 1] = weight > 0
    assert np.array_equal(matrix > 0, pattern)


@pytest.mark.parametrize("node,scale", [(1, 3.5), (7, 0.25), (20, 123.0)])
def test_scaling_outgoing_weights_leaves_column_unchanged(node, scale):
    graph = roadmap.generate_default_map(num_nodes=20, seed=11)
    matrix = transition_matrix(graph)
    scaled = RoadGraph(
        graph.num_nodes,
        tuple((s, d, w * scale if s == node else w) for s, d, w in oracle.edge_triples(graph)),
    )
    rescaled = transition_matrix(scaled)
    assert_allclose(rescaled[:, node - 1], matrix[:, node - 1], atol=1e-12)


def overflow_graph(weight_1_2):
    # node 1's outgoing weights sum beyond the float range unless weight_1_2 is tiny
    return RoadGraph(2, ((1, 1, 1e308), (1, 2, weight_1_2), (2, 1, 1.0)))


@pytest.mark.parametrize(
    "weight_1_2,message",
    [
        (
            1e308,
            "weight 1e+308 on edge (1, 1) rounds to probability 0 "
            "against node 1's total outgoing weight inf",
        ),
        (
            5e-324,
            "weight 5e-324 on edge (1, 2) rounds to probability 0 "
            "against node 1's total outgoing weight 1e+308",
        ),
    ],
    ids=["overflow", "lost-weight"],
)
def test_positive_weight_that_would_get_probability_zero_is_rejected(weight_1_2, message):
    with pytest.raises(MapError, match=f"^{re.escape(message)}$"):
        roadmap.transition_model(overflow_graph(weight_1_2))


@pytest.mark.parametrize(
    "kwargs", [{}, {"num_nodes": 700, "seed": 5}, {"num_nodes": 12, "seed": 5}],
    ids=["default", "generated700", "generated12"],
)
def test_transition_bytes_equal_two_array_reference(kwargs):
    graph = roadmap.generate_default_map(**kwargs)
    matrix = transition_matrix(graph)
    expected = oracle.reference_transition(graph)
    assert matrix.shape == expected.shape and matrix.dtype == expected.dtype
    assert matrix.tobytes() == expected.tobytes()


#: Node 1 keeps a -0.0 weight on its edge to node 2, node 2 a 0 weight on its self loop
SIGNED_ZERO_GRAPH = RoadGraph(2, ((1, 1, 1.0), (1, 2, -0.0), (2, 1, 1.0), (2, 2, 0)))


def assert_entries_equal_reference(graph):
    """One entry per edge, sorted by column, then row, with the reference's bits;
    the matrix built from them is a C-contiguous, writeable float64 (M, M) array
    with the bytes of their np.zeros scatter and of the reference, signed zeros
    included."""
    rows, columns, values = roadmap.transition_entries(graph)
    expected = oracle.reference_transition(graph)
    assert rows.shape == columns.shape == values.shape == (graph.src.size,)
    assert np.all(np.diff(columns * graph.num_nodes + rows) > 0)
    assert {(r + 1, c + 1) for r, c in zip(rows.tolist(), columns.tolist())} == {
        (d, s) for s, d, _ in oracle.edge_triples(graph)
    }
    assert values.tobytes() == expected[rows, columns].tobytes()
    scattered = np.zeros((graph.num_nodes, graph.num_nodes))
    scattered[rows, columns] = values
    matrix = transition_matrix(graph)
    assert matrix.flags.c_contiguous and matrix.flags.writeable
    assert matrix.dtype == np.float64 and matrix.shape == scattered.shape
    assert matrix.tobytes() == scattered.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "kwargs", [{}, {"num_nodes": 700, "seed": 5}, {"num_nodes": 12, "seed": 5}],
    ids=["default", "generated700", "generated12"],
)
def test_transition_entries_equal_two_array_reference(kwargs):
    assert_entries_equal_reference(roadmap.generate_default_map(**kwargs))


def test_transition_entries_keep_zero_weight_edges_and_their_sign():
    reversed_graph = RoadGraph(2, tuple(reversed(oracle.edge_triples(SIGNED_ZERO_GRAPH))))
    for graph in (SIGNED_ZERO_GRAPH, reversed_graph, RoadGraph(1, ((1, 1, 1.0),))):
        assert_entries_equal_reference(graph)
    for graph in (SIGNED_ZERO_GRAPH, reversed_graph):
        _, _, values = roadmap.transition_entries(graph)
        assert values.tobytes() == np.array([1.0, -0.0, 1.0, 0.0]).tobytes()


@pytest.mark.parametrize(
    "graph", [SIGNED_ZERO_GRAPH, roadmap.generate_default_map(12, 5), roadmap.generate_default_map()],
    ids=["signed-zero", "generated12", "default"],
)
def test_transition_model_keeps_the_matrix_in_its_entries_and_padded_rows(graph):
    model = roadmap.transition_model(graph)
    assert model.shape == (graph.num_nodes, graph.num_nodes)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip((model.rows, model.columns, model.values),
                               roadmap.transition_entries(graph)))
    assert model.matrix is model.matrix  # built once, at the first read
    assert model.matrix.tobytes() == oracle.reference_transition(graph).tobytes()
    for (ids, values), matrix in zip(model.padded_rows, (model.matrix, model.matrix.T)):
        width = max(np.count_nonzero(row) for row in matrix)
        assert ids.shape == values.shape == (width, graph.num_nodes)
        for i, row in enumerate(matrix):
            nonzero = np.flatnonzero(row)  # in column order; signed zeros are no entries
            k = nonzero.size
            assert ids[:k, i].tolist() == nonzero.tolist()
            assert values[:k, i].tobytes() == row[nonzero].tobytes()
            assert ids[k:, i].tolist() == [0] * (width - k)
            assert values[k:, i].tobytes() == np.zeros(width - k).tobytes()


def test_transition_peak_memory_is_one_matrix():
    # the matrix in np.zeros and the entries scattered into it: 1.02 of nbytes
    # measured, so a second M x M temporary fails this
    graph = roadmap.generate_default_map(num_nodes=700, seed=5)
    tracemalloc.start()
    try:
        matrix = transition_matrix(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * matrix.nbytes


# ---- generate_default_map ----


# sha256 of save_map(generate_default_map(...)); a change to the generator's RNG call sequence
# changes them
@pytest.mark.parametrize(
    "kwargs,digest",
    [
        (
            {"num_nodes": 12, "seed": 5},
            "f696c16a3bb32224d1a0d89c432445c95c072f4b29563e13064c4a523920d36b",
        ),
        (
            {"num_nodes": 3000, "seed": 0},
            "a4803bfa091a7923e0962196be468350a12f963d4198bda511bfc1f325a80b18",
        ),
        ({}, "a9663a780cdfa100d186260b398cf0eaa19d0d1d3af3f0965d3de2f0d09d1128"),
    ],
)
def test_generated_map_bytes_are_pinned(kwargs, digest):
    text = roadmap.save_map(roadmap.generate_default_map(**kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generator_deterministic():
    a = roadmap.generate_default_map(seed=42)
    b = roadmap.generate_default_map(seed=42)
    assert a == b
    assert roadmap.save_map(a) == roadmap.save_map(b)


def test_generator_seeds_differ():
    assert roadmap.generate_default_map(seed=1) != roadmap.generate_default_map(seed=2)


def test_default_map_shape(default_graph):
    assert default_graph.num_nodes == 105
    weights = edge_weights(default_graph)
    assert all((n, n) in weights and weights[(n, n)] > 0 for n in range(1, 106))


def test_default_map_node1_ordering(default_transition):
    # straight to node 2 beats the turn to node 70 which beats parking
    assert default_transition[1, 0] > default_transition[69, 0] > default_transition[0, 0]


def test_main_road_ordering_holds_for_every_main_node(default_graph, default_transition):
    main = sorted(roadmap.MAIN_ROAD_NODES)
    weights = edge_weights(default_graph)
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
    weights = edge_weights(default_graph)
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
        {"num_nodes": 11},
    ],
)
def test_generator_rejects_invalid_parameters(kwargs):
    with pytest.raises(MapError):
        roadmap.generate_default_map(seed=0, **kwargs)


def test_generator_handles_small_maps():
    graph = roadmap.generate_default_map(num_nodes=12, seed=5)
    matrix = transition_matrix(graph)
    assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12
