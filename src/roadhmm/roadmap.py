"""Position graph and transition-matrix construction.

Positions are integer node ids 1..M. Directed edges carry unnormalized
nonnegative weights; a self loop (src == dst) models stopping/parking at
that position. ``transition_entries`` normalizes each node's outgoing
weights into the edges' entries of a column-stochastic matrix A with

    A[i - 1, j - 1] = P(next = i | current = j),

which ``build_transition_matrix`` places in the dense A: ``A @ belief`` is
one prediction step. The map is directional:
the weight of (j -> i) is independent of the weight of (i -> j).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Node ids forming the one-way main-road loop of the generated default map.
MAIN_ROAD_NODES = frozenset(range(1, 10))

#: Number of positions in the generated default map.
DEFAULT_NUM_NODES = 105

#: Seed of the shipped default map. Fixed so every experiment and CLI run
#: sees the same map; on this map node 1's turn leads to node 70.
DEFAULT_MAP_SEED = 44

# Weight ranges for the procedural generator. Main-road nodes get a dominant
# straight-ahead weight, smaller turn weights and the smallest self loop;
# side nodes drive in each direction with roughly equal weight and park with
# a smaller one. Ranges are disjoint so the ordering holds for every draw.
_STRAIGHT_WEIGHT = (4.0, 6.0)
_TURN_WEIGHT = (1.0, 2.0)
_MAIN_SELF_WEIGHT = (0.3, 0.7)
_SIDE_WEIGHT = (0.9, 1.1)
_SIDE_SELF_WEIGHT = (0.25, 0.5)
_TURNS_PER_MAIN_NODE = 2


class MapError(ValueError):
    """Malformed map file or invalid graph structure."""


class Edge(NamedTuple):
    src: int
    dst: int
    weight: float


@dataclass(frozen=True)
class RoadGraph:
    """Directed weighted graph over positions 1..num_nodes.

    Weights are unnormalized ratios, not probabilities; the transition
    builder normalizes per node. Instances are immutable and validated on
    construction: endpoints in range, finite nonnegative weights, no duplicate
    (src, dst) pairs, and every node has at least one outgoing edge with
    positive weight (otherwise it would have no transition distribution).
    """

    num_nodes: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not _is_int(self.num_nodes) or self.num_nodes < 1:
            raise MapError("num_nodes must be a positive integer")
        object.__setattr__(self, "num_nodes", int(self.num_nodes))

        normalized = []
        seen: set[tuple[int, int]] = set()
        sources: set[int] = set()
        for edge in self.edges:
            src, dst, weight = edge
            for node in (src, dst):
                if not _is_int(node):
                    raise MapError(f"node id {node!r} is not an integer")
                if not 1 <= node <= self.num_nodes:
                    raise MapError(
                        f"node {int(node)} out of range 1..{self.num_nodes} "
                        f"on edge ({src}, {dst})"
                    )
            if not isinstance(weight, (int, float, np.floating)) or isinstance(weight, bool):
                raise MapError(f"weight {weight!r} on edge ({src}, {dst}) is not a number")
            try:
                weight = float(weight)
            except OverflowError:  # an integer beyond the float range
                weight = math.inf if weight > 0 else -math.inf
            if not np.isfinite(weight):
                raise MapError(f"non-finite weight {weight} on edge ({src}, {dst})")
            if weight < 0:
                raise MapError(f"negative weight {weight} on edge ({src}, {dst})")
            key = (int(src), int(dst))
            if key in seen:
                raise MapError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            if weight > 0:
                sources.add(key[0])
            normalized.append(Edge(key[0], key[1], weight))
        if len(sources) < self.num_nodes:  # sources lie in 1..num_nodes, so one is missing
            missing = next(n for n in range(1, self.num_nodes + 1) if n not in sources)
            raise MapError(f"node {missing} has no outgoing edge with positive weight")
        object.__setattr__(self, "edges", tuple(normalized))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def load_map(text: str) -> RoadGraph:
    """Parse a map file: {"num_nodes": M, "edges": [{"from", "to", "weight"}, ...]}."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise MapError(f"invalid map JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MapError("map file must be a JSON object")
    if "num_nodes" not in data or "edges" not in data:
        raise MapError("map file must define 'num_nodes' and 'edges'")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise MapError("'edges' must be a list")
    edges = []
    for pos, item in enumerate(raw_edges):
        if not isinstance(item, dict) or not {"from", "to", "weight"} <= set(item):
            raise MapError(f"edge #{pos} must be an object with 'from', 'to' and 'weight'")
        edges.append(Edge(item["from"], item["to"], item["weight"]))
    return RoadGraph(num_nodes=data["num_nodes"], edges=tuple(edges))


def read_map(path: str) -> RoadGraph:
    """Parse the UTF-8 map file at ``path``, BOM or not; a non-UTF-8 file raises MapError naming it."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MapError(f"map file {path}: {exc}") from None
    return load_map(text)


def save_map(graph: RoadGraph) -> str:
    """Serialize a RoadGraph to the JSON map format; inverse of load_map."""
    doc = {
        "num_nodes": graph.num_nodes,
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def transition_entries(graph: RoadGraph):
    """The transition's entry of every edge: (rows, columns, values), 0-based.

    Rows are destinations and columns sources, sorted by column, then row;
    value = weight(j -> i) / total outgoing weight of j, so a zero-weight edge
    keeps its signed zero. The totals add each column's weights in row order,
    as a dense column sum does. Raises MapError if a positive weight would get
    probability 0: its node's total overflows, or the weight is lost to
    rounding against it.
    """
    src, dst, weight = (np.array(column) for column in zip(*graph.edges))
    order = np.lexsort((dst, src))
    totals = np.bincount(src[order] - 1, weights=weight[order], minlength=graph.num_nodes)
    values = weight / totals[src - 1]
    lost = np.flatnonzero((weight > 0) & (values == 0))
    if lost.size:
        k = lost[0]
        raise MapError(
            f"weight {weight[k]} on edge ({src[k]}, {dst[k]}) rounds to probability 0 "
            f"against node {src[k]}'s total outgoing weight {totals[src[k] - 1]}"
        )
    return dst[order] - 1, src[order] - 1, values[order]


def build_transition_matrix(graph: RoadGraph) -> np.ndarray:
    """The column-stochastic M x M transition matrix: ``transition_entries`` in zeros.

    The zeros are a private anonymous mapping, not ``np.zeros``: A has about
    four entries per column, so most of its 4 KiB pages receive none, and the
    kernel backs each of those with its one shared zero page. They never count
    as resident, and the passes read them from cache (at M = 3000, 9 099 of
    17 579 pages hold an entry). ``np.zeros`` asks for 2 MiB huge pages on a
    large array, so scattering the entries would fault in every page of it;
    the mapping is advised against them. Values, dtype, shape and layout are
    those of ``np.zeros``, which stays the build where ``mmap`` has no
    ``MAP_PRIVATE`` (Windows).
    """
    rows, columns, values = transition_entries(graph)
    matrix = _zeros_on_demand(graph.num_nodes)
    matrix[rows, columns] = values
    return matrix


def _zeros_on_demand(m: int) -> np.ndarray:
    """A C-contiguous float64 (m, m) array of zeros whose pages are mapped as they are written."""
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros((m, m))
    nbytes = m * m * 8
    try:
        pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    except OSError as exc:  # the kernel refuses the commitment, as it would np.zeros
        raise MemoryError(
            f"Unable to allocate {nbytes:,} bytes for the ({m}, {m}) transition matrix"
            f" ({exc.strerror})"
        ) from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a kernel built without huge pages rejects the advice; its pages are small anyway
        with contextlib.suppress(OSError):
            pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=float).reshape(m, m)


def generate_default_map(
    num_nodes: int = DEFAULT_NUM_NODES, seed: int = DEFAULT_MAP_SEED
) -> RoadGraph:
    """Procedurally generate a city-like road graph; deterministic per seed.

    Main-road nodes (``MAIN_ROAD_NODES``) form a one-way loop (dominant
    straight-ahead weight, lower-weight turns onto side streets,
    smallest-weight parking self loop). The other nodes, at least three, sit
    on a shuffled two-way ring with random chords, so driving on in any
    direction is roughly equally likely and parking somewhat less. Every node
    carries a self loop.
    """
    if not _is_int(num_nodes) or num_nodes < 12:
        raise MapError("num_nodes must be an integer >= 12")
    main = sorted(MAIN_ROAD_NODES)
    side = [n for n in range(1, num_nodes + 1) if n not in MAIN_ROAD_NODES]
    rng = np.random.default_rng(seed)
    edges: dict[tuple[int, int], float] = {}

    def add(src: int, dst: int, weight_range: tuple[float, float]) -> None:
        edges[(src, dst)] = float(rng.uniform(*weight_range))

    # One-way main loop 1 -> 2 -> ... -> 9 -> 1.
    for a, b in zip(main, main[1:] + main[:1]):
        add(a, b, _STRAIGHT_WEIGHT)

    # Two-way ring over side nodes in shuffled order.
    order = np.array(side, dtype=int)
    rng.shuffle(order)
    ring = order.tolist()
    for a, b in zip(ring, ring[1:] + ring[:1]):
        add(a, b, _SIDE_WEIGHT)
        add(b, a, _SIDE_WEIGHT)

    # Random two-way chords between side streets.
    target_chords = len(side) // 2
    added = 0
    attempts = 0
    while added < target_chords and attempts < 20 * target_chords + 20:
        attempts += 1
        i, j = rng.choice(len(side), size=2, replace=False)
        a, b = side[int(i)], side[int(j)]
        if (a, b) in edges or (b, a) in edges:
            continue
        add(a, b, _SIDE_WEIGHT)
        add(b, a, _SIDE_WEIGHT)
        added += 1

    # Each main node joins two side streets, both directions.
    for m in main:
        for t in rng.choice(len(side), size=_TURNS_PER_MAIN_NODE, replace=False):
            s = side[int(t)]
            add(m, s, _TURN_WEIGHT)
            add(s, m, _SIDE_WEIGHT)

    # Parking self loops, smallest weight class per node.
    for n in range(1, num_nodes + 1):
        add(n, n, _MAIN_SELF_WEIGHT if n in MAIN_ROAD_NODES else _SIDE_SELF_WEIGHT)

    return RoadGraph(
        num_nodes=int(num_nodes),
        edges=tuple(Edge(s, d, w) for (s, d), w in edges.items()),
    )
