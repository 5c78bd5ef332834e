"""Property tests over generated maps and small models (requires Hypothesis).

Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roadhmm import inference, oracle, roadmap  # noqa: E402

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
    return roadmap.RoadGraph(num_nodes, tuple(roadmap.Edge(s, d, w) for (s, d), w in edges.items()))


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
@given(models())
def test_scaled_recursions_equal_path_oracle(model):
    transition, observation, initial, measurements = model
    filtered, smoothed, evidence = oracle.enumerate_posteriors(
        transition, observation, initial, tuple(measurements.tolist())
    )
    result = inference.run_smoother(transition, observation, measurements, initial)
    assert_allclose(result.filtered, filtered, atol=1e-12)
    assert_allclose(result.smoothed, smoothed, atol=1e-12)
    assert math.exp(result.log_likelihood) == pytest.approx(evidence, rel=1e-9)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: models(max_steps=8, trials=n)))
def test_batch_equals_single_sequences(model):
    transition, observation, initial, measurements = model
    batch = inference.run_smoother(transition, observation, measurements, initial)
    for n in range(measurements.shape[1]):
        single = inference.run_smoother(transition, observation, measurements[:, n], initial[n])
        assert_allclose(batch.filtered[:, n], single.filtered, rtol=1e-12)
        assert_allclose(batch.smoothed[:, n], single.smoothed, rtol=1e-12)
        assert batch.log_likelihood[n] == pytest.approx(single.log_likelihood, rel=1e-12)
