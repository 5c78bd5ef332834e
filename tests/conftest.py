import numpy as np
import pytest

import oracle
from roadhmm import experiment, inference, roadmap, sensor


def make_random_instance(rng, num_states, num_steps):
    """Random strictly-positive column-stochastic model plus measurements."""
    transition = rng.random((num_states, num_states)) + 0.05
    transition /= transition.sum(axis=0)
    observation = rng.random((num_states, num_states)) + 0.05
    observation /= observation.sum(axis=0)
    initial = rng.random(num_states) + 0.05
    initial /= initial.sum()
    measurements = tuple(int(v) for v in rng.integers(1, num_states + 1, size=num_steps))
    return transition, observation, initial, measurements


def run_trials(config, smoother=True):
    """Yield ``experiment.simulate_trials``'s batches in trial order, each run at its ``next``."""
    starts, run_batch = experiment.simulate_trials(config, smoother)
    for start in starts:
        yield run_batch(start)


def transition_matrix(graph):
    """The M x M transition matrix of a graph: ``build_transition_matrix`` of its model."""
    return roadmap.build_transition_matrix(roadmap.transition_model(graph))


def observation_matrix(model):
    """The M x M matrix of a ``sensor.ObservationModel``: the likelihood rows of every id."""
    return model.likelihood_table(np.arange(model.shape[0]))[0]


@pytest.fixture
def random_instance():
    return make_random_instance


@pytest.fixture
def two_state():
    """Worked 2-state instance: (A, obs, initial, measurements)."""
    transition = np.array([[0.9, 0.2], [0.1, 0.8]])
    observation = np.array([[0.7, 0.3], [0.4, 0.6]])
    initial = np.array([0.5, 0.5])
    return transition, observation, initial, (1, 2)


@pytest.fixture
def chain5_graph():
    """Bidirectional chain 1-2-3-4-5 with unit weights and self loops."""
    edges = []
    for a in range(1, 5):
        edges.append((a, a + 1, 1.0))
        edges.append((a + 1, a, 1.0))
    edges.extend((n, n, 1.0) for n in range(1, 6))
    return roadmap.RoadGraph(num_nodes=5, edges=tuple(edges))


@pytest.fixture(scope="session")
def far_graph():
    """120 nodes on a two-way chain, plus a two-way edge 1 <-> 120 and node 60 that only parks."""
    pairs = [(a, a + 1) for a in range(1, 120) if 60 not in (a, a + 1)] + [(1, 120)]
    edges = [(a, b, 1.0) for a, b in pairs] + [(b, a, 1.0) for a, b in pairs]
    edges += [(n, n, 1.0) for n in range(1, 121)]
    return roadmap.RoadGraph(120, tuple(edges))


@pytest.fixture(scope="session")
def default_graph():
    return roadmap.generate_default_map()


def read_only(array):
    """``array``, flagged read-only: a session fixture shared by many tests, so
    a stray in-place call on it raises instead of changing the tests after it."""
    array.setflags(write=False)
    return array


@pytest.fixture(scope="session")
def default_transition(default_graph):
    return read_only(transition_matrix(default_graph))


@pytest.fixture(scope="session")
def default_observation(default_graph):
    return read_only(oracle.reference_noise(oracle.reference_confusion_base(default_graph), 1.0))


@pytest.fixture(scope="session")
def default_model(default_graph):
    """The default map's (transition, observation) models at sigma 1, as every command builds them."""
    return experiment.build_model(default_graph, 1.0)


@pytest.fixture(scope="session")
def default_model_and_sinks(default_transition, default_observation):
    """The default model at sigma 1 and ``_SPARSE_STATES`` more states, each its own
    sink and reading: block-diagonal transition and observation matrices."""
    extra = inference._SPARSE_STATES
    blocks = []
    for matrix in (default_transition, default_observation):
        padded = np.zeros((105 + extra, 105 + extra))
        padded[:105, :105] = matrix
        padded[105:, 105:] = np.eye(extra)
        blocks.append(read_only(padded))
    return tuple(blocks)


@pytest.fixture(scope="session")
def default_tables(default_graph):
    """``sample_trajectory``'s tables of the default model at sigma 1."""
    tables = experiment.sampling_tables(roadmap.transition_model(default_graph),
                                        sensor.observation_model(default_graph, 1.0))
    return tuple(tuple(read_only(part) for part in table) for table in tables)
