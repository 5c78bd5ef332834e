"""Property tests over generated maps and small models (requires Hypothesis).

Examples are derandomized, so every run checks the same cases.
"""

import ast
import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracle  # noqa: E402
from conftest import transition_matrix  # noqa: E402
from roadhmm import cli, inference, matrixio, roadmap  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None)

weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
# bounded away from 0 so that no measurement is impossible
positive = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def graphs(draw):
    num_nodes = draw(st.integers(1, 8))
    node = st.integers(1, num_nodes)
    edges = draw(st.dictionaries(st.tuples(node, node), weights | st.integers(0, 100), max_size=20))
    for src in range(1, num_nodes + 1):
        if not any(w > 0 for (s, _), w in edges.items() if s == src):
            edges[(src, src)] = 1.0
    return roadmap.RoadGraph(num_nodes, tuple((s, d, w) for (s, d), w in edges.items()))


def _stochastic(draw, shape):
    values = np.array(draw(st.lists(positive, min_size=math.prod(shape), max_size=math.prod(shape))))
    values = values.reshape(shape)
    return values / values.sum(axis=0)


@st.composite
def models(draw, max_states=4, max_steps=5, trials=None):
    """(A, obs, initial, measurements); with ``trials``, a batch with (trials, M) priors."""
    m = draw(st.integers(1, max_states))
    t = draw(st.integers(1, max_steps))
    shape = (t,) if trials is None else (t, trials)
    ids = draw(st.lists(st.integers(1, m), min_size=math.prod(shape), max_size=math.prod(shape)))
    initial = _stochastic(draw, (m,) if trials is None else (m, trials)).T
    return _stochastic(draw, (m, m)), _stochastic(draw, (m, m)), initial, np.reshape(ids, shape)


@PROPERTY
@given(graphs())
def test_save_load_map_round_trip(graph):
    assert roadmap.load_map(roadmap.save_map(graph)) == graph


@PROPERTY
@given(graphs())
def test_transition_entries_equal_the_dense_reference(graph):
    # random weights, zeros and integers among them; a positive weight that the
    # reference rounds to 0 must be rejected instead
    expected = oracle.reference_transition(graph)
    triples = oracle.edge_triples(graph)
    if any(w > 0 and expected[d - 1, s - 1] == 0 for s, d, w in triples):
        with pytest.raises(roadmap.MapError, match="rounds to probability 0"):
            roadmap.transition_entries(graph)
        return
    rows, columns, values = roadmap.transition_entries(graph)
    assert np.all(np.diff(columns * graph.num_nodes + rows) > 0)
    assert sorted(zip(rows.tolist(), columns.tolist())) == sorted(
        (d - 1, s - 1) for s, d, _ in triples
    )
    assert values.tobytes() == expected[rows, columns].tobytes()
    assert transition_matrix(graph).tobytes() == expected.tobytes()


#: Endpoints that no map may hold whatever its size, and weights that are no
#: finite nonnegative number; -0.0 and the ints are valid weights
_BAD_IDS = [True, False, 1.0, 2.5, "1", None]
_WEIGHTS = [math.nan, math.inf, -math.inf, -1.0, -1e-300, -0.0, 0, 3, 10**309, -10**309,
            True, "1", None, np.float32(0.5), np.int64(2)]


@st.composite
def edge_lists(draw):
    """(num_nodes, edges): a map's edge triples, often valid, with drawn defects.

    Defects are endpoints of the wrong type, 0, M + 1 or beyond 2**63, weights
    from ``_WEIGHTS``, repeated (src, dst) pairs, nodes whose out-edges all
    weigh 0, and a num_nodes far above the edge count. Valid endpoints may be
    np.int64 and np.uint64, valid weights np.float32 or ints."""
    num_nodes = draw(st.integers(1, 5))
    node = st.integers(1, num_nodes)
    edges = draw(st.lists(st.tuples(node, node, weights | st.integers(0, 100)), max_size=10))
    if draw(st.integers(0, 3)):  # a positive out-edge for every node, none repeated
        unique = dict(((s, d), w) for s, d, w in edges)
        for n in range(1, num_nodes + 1):
            if not any(w > 0 for (s, _), w in unique.items() if s == n):
                unique[(n, n)] = 1.0
        edges = [(s, d, w) for (s, d), w in unique.items()]
    unusual_id = (st.sampled_from(_BAD_IDS + [0, num_nodes + 1])
                  | st.integers(2**63 - 2, 2**64 + 2) | node.map(np.int64) | node.map(np.uint64))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if edges else 0):
        pos, field = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 2))
        value = draw(st.sampled_from(_WEIGHTS) if field == 2 else unusual_id)
        edges[pos] = edges[pos][:field] + (value,) + edges[pos][field + 1:]
    if draw(st.integers(0, 4)) == 0:
        num_nodes = draw(st.sampled_from([10**12, 2**64]))
    return num_nodes, edges


@settings(PROPERTY, max_examples=1000)
@given(edge_lists())
def test_road_graph_validates_as_the_per_edge_reference(drawn):
    num_nodes, edges = drawn
    try:
        expected = oracle.reference_graph(num_nodes, edges)
    except roadmap.MapError as exc:
        expected = exc
    # a JSON map file can hold the same values, unless they are numpy scalars
    builds = [lambda: roadmap.RoadGraph(num_nodes, tuple(edges))]
    if all(type(v) in (bool, int, float, str, type(None)) for edge in edges for v in edge):
        text = json.dumps({"num_nodes": num_nodes,
                           "edges": [{"from": s, "to": d, "weight": w} for s, d, w in edges]})
        builds.append(lambda: roadmap.load_map(text))
    for build in builds:
        if isinstance(expected, roadmap.MapError):
            with pytest.raises(roadmap.MapError) as raised:
                build()
            assert str(raised.value) == str(expected)
        else:
            graph = build()
            assert graph.num_nodes == expected[0]
            assert graph.src.dtype == graph.dst.dtype == np.int64
            assert graph.src.tolist() == [s for s, _, _ in expected[1]]
            assert graph.dst.tolist() == [d for _, d, _ in expected[1]]
            assert graph.weight.tobytes() == np.array([w for _, _, w in expected[1]]).tobytes()


@PROPERTY
@given(models())
def test_scaled_recursions_equal_path_oracle(model):
    transition, observation, initial, measurements = model
    filtered, smoothed, evidence = oracle.enumerate_posteriors(
        transition, observation, initial, tuple(measurements.tolist())
    )
    result = inference.run_smoother(*oracle.models(transition, observation), measurements, initial)
    assert_allclose(result.filtered, filtered, atol=1e-12)
    assert_allclose(result.smoothed, smoothed, atol=1e-12)
    assert math.exp(result.log_likelihood) == pytest.approx(evidence, rel=1e-9)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: models(max_steps=8, trials=n)))
def test_batch_equals_single_sequences(model):
    transition, observation, initial, measurements = model
    models = oracle.models(transition, observation)
    batch = inference.run_smoother(*models, measurements, initial)
    for n in range(measurements.shape[1]):
        single = inference.run_smoother(*models, measurements[:, n], initial[n])
        assert_allclose(batch.filtered[:, n], single.filtered, rtol=1e-12)
        assert_allclose(batch.smoothed[:, n], single.smoothed, rtol=1e-12)
        assert batch.log_likelihood[n] == pytest.approx(single.log_likelihood, rel=1e-12)


# ---- the file contract of the CLI, driven in process ----
# Whatever the measurement file or map JSON holds, main returns 0, 1 or 2 and
# raises nothing, --out exists exactly when it returns 0, and an "error: line L"
# message names the line as an editor numbers it.

@settings(PROPERTY, max_examples=500)
@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=4)))
def test_format_rows_writes_each_float_as_its_repr(rows):
    expected = "".join("p," + ",".join(map(repr, row)) + "\n" for row in rows)
    assert matrixio.format_rows(["p,"] * len(rows), np.array(rows)) == expected


CONTRACT = settings(PROPERTY, max_examples=150)

RING4 = {"num_nodes": 4, "edges": [{"from": n, "to": n % 4 + 1, "weight": 1.0} for n in range(1, 5)]}

measurement_tokens = st.sampled_from(
    ["1", "2", "3", "4", "+2", "-1", "-0", "03", "007", "0", "1" + "0" * 39, "1_0", "٣", "1.0", "x", ""]
)
separators = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028", " "])
measurement_files = st.builds(
    lambda bom, pieces: "\ufeff" * bom + "".join(token + sep for token, sep in pieces),
    st.booleans(),
    st.lists(st.tuples(measurement_tokens, separators), max_size=12),
)

odd_values = st.one_of(
    st.integers(-1, 5),
    st.sampled_from([10**40, -(10**40), 2**63, True, False, None, "1", "x", ""]),
    st.floats(),
)


@st.composite
def map_objects(draw):
    """A valid map of at most 3 nodes with at most one field set to an odd value."""
    num_nodes = draw(st.integers(1, 3))
    node = st.integers(1, num_nodes)
    weight = st.integers(0, 3) | st.floats(0, 10)
    edge = st.fixed_dictionaries({"from": node, "to": node, "weight": weight})
    edges = draw(st.lists(edge, max_size=4, unique_by=lambda e: (e["from"], e["to"])))
    loops = {e["from"] for e in edges if e["from"] == e["to"]}
    edges += [{"from": n, "to": n, "weight": 1} for n in range(1, num_nodes + 1) if n not in loops]
    document = {"num_nodes": num_nodes, "edges": edges}
    field = draw(st.sampled_from([None, "num_nodes", "from", "to", "weight"]))
    if field == "num_nodes":
        document[field] = draw(odd_values)
    elif field:
        draw(st.sampled_from(edges))[field] = draw(odd_values)
    return document


map_documents = map_objects() | st.sampled_from([[], 3, "map", None, 1.5])


def run_main(argv):
    """Exit code and stderr of one in-process ``cli.main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    return code, err.getvalue()


def editor_lines(text):
    """The lines of a measurement file as an editor numbers them."""
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "ring4.json").write_text(json.dumps(RING4), encoding="utf-8")
    return path


@CONTRACT
@given(measurement_files)
def test_infer_keeps_the_file_contract(contract_dir, text):
    source, out = contract_dir / "measurements.txt", contract_dir / "beliefs.csv"
    source.write_bytes(text.encode("utf-8"))
    out.unlink(missing_ok=True)
    code, err = run_main(
        ["infer", "--map", str(contract_dir / "ring4.json"), "--init-state", "1",
         "--measurements", str(source), "--out", str(out)]
    )
    assert out.exists() == (code == 0)
    named = re.fullmatch(r"error: line (\d+): (.*)\n", err, re.S)
    if named:
        line = editor_lines(text)[int(named[1]) - 1].strip()
        invalid = re.fullmatch(r"invalid measurement (.*)", named[2], re.S)
        if invalid:
            assert ast.literal_eval(invalid[1]) == line
        else:
            assert int(re.fullmatch(r"measurement (-?\d+) out of range 1\.\.4", named[2])[1]) == int(line)


@CONTRACT
@given(map_documents)
def test_map_commands_keep_the_file_contract(contract_dir, document):
    source, out = contract_dir / "map.json", contract_dir / "trials.csv"
    source.write_text(json.dumps(document), encoding="utf-8")
    out.unlink(missing_ok=True)
    run_main(["validate-map", str(source)])
    code, _ = run_main(["simulate", "--map", str(source), "--init", "1", "--steps", "3", "--out", str(out)])
    assert out.exists() == (code == 0)
