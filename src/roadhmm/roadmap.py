"""Position graph and transition-matrix construction.

Positions are integer node ids 1..M. Directed edges carry unnormalized
nonnegative weights; a self loop (src == dst) models stopping/parking at
that position. ``RoadGraph`` checks a map's edges as numpy columns, ids,
weights and pairs each as one array, so no Python loop runs per edge of a
valid map, and keeps only ``num_nodes`` and those three columns, which the
model builders read and ``save_map`` writes. ``transition_entries``
normalizes each node's outgoing weights into the edges' entries of a
column-stochastic matrix A with

    A[i - 1, j - 1] = P(next = i | current = j),

and ``A @ belief`` is one prediction step. ``TransitionModel`` keeps A in
those entries, about four per column, and is the one form of A that the
passes take: they predict with its padded rows on a large map, and with its
dense ``matrix`` on a small one. ``padded_columns``, the one padded layout,
builds A's padded rows and both sampling tables. ``transition_rows``
scatters any block of A's rows into zeros. The map is directional: the
weight of (j -> i) is independent of the weight of (i -> j).
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from operator import itemgetter

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


@dataclass(frozen=True, eq=False)
class RoadGraph:
    """Directed weighted graph over positions 1..num_nodes.

    Weights are unnormalized ratios, not probabilities; the transition
    builder normalizes per node. Built from ``edges``, (src, dst, weight)
    triples, which are validated and not kept: integer endpoints in range,
    finite nonnegative weights, no duplicate (src, dst) pairs, and every node
    has at least one outgoing edge with positive weight (otherwise it would
    have no transition distribution). A bad edge is named as the first in
    ``edges`` order, its checks in that order. An immutable graph holds the
    edges as three numpy columns in that order, ``src`` and ``dst`` (int64)
    and ``weight`` (float), and equals a graph with the same ``num_nodes``
    and columns.
    """

    num_nodes: int
    edges: InitVar[tuple]
    src: np.ndarray = field(init=False)
    dst: np.ndarray = field(init=False)
    weight: np.ndarray = field(init=False)

    def __post_init__(self, edges):
        if not _is_int(self.num_nodes) or self.num_nodes < 1:
            raise MapError("num_nodes must be a positive integer")
        num_nodes = int(self.num_nodes)
        # a valid map has an edge out of every node, so no more nodes than edges
        columns = _columns(edges, num_nodes) if num_nodes <= len(edges) else None
        if columns is None:
            _reject(edges, num_nodes)
        src, dst, weight = columns
        has_source = np.bincount(src[weight > 0] - 1, minlength=num_nodes)
        missing = int(np.argmin(has_source))  # the first node without one, if any
        if has_source[missing] == 0:
            raise MapError(f"node {missing + 1} has no outgoing edge with positive weight")
        for name, value in zip(("num_nodes", "src", "dst", "weight"), (num_nodes, *columns)):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        # False, not NotImplemented: a reflected numpy == would compare elementwise
        return isinstance(other, RoadGraph) and self.num_nodes == other.num_nodes and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("src", "dst", "weight"))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _columns(edges, num_nodes: int):
    """(src, dst, weight) as numpy columns if each edge passes its checks, else None.

    Types are checked over the set of each column's types, and ids, weights,
    ranges and duplicates as whole columns.
    """
    src, dst, weight = zip(*edges)
    id_types, weight_types = set(map(type, src + dst)), set(map(type, weight))
    if not all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in id_types):
        return None
    if not all(issubclass(t, (int, float, np.floating)) and not issubclass(t, bool)
               for t in weight_types):
        return None
    try:  # an int weight beyond the float range or an id beyond int64 overflows
        s, d = (np.fromiter(map(int, ids), np.int64, len(ids)) for ids in (src, dst))
        w = np.fromiter(map(float, weight), float, len(weight))
    except OverflowError:
        return None
    good = (s >= 1) & (s <= num_nodes) & (d >= 1) & (d <= num_nodes) & np.isfinite(w) & (w >= 0)
    order = np.lexsort((d, s))
    repeated = (np.diff(s[order]) == 0) & (np.diff(d[order]) == 0)
    # counted, not .all() and .any(): those reductions would page in numpy code
    # that no command runs otherwise, 64 KiB of resident memory
    if np.count_nonzero(good) < len(good) or np.count_nonzero(repeated):
        return None
    return s, d, w


def _reject(edges, num_nodes: int) -> None:
    """Raise the MapError of a map that ``_columns`` rejected or that has more nodes than
    edges: its first bad edge, each edge's checks in order, else its first node without a
    positive out-edge. It runs only on such a map, so it always raises."""
    seen: set[tuple[int, int]] = set()
    sources: set[int] = set()
    for src, dst, weight in edges:
        for node in (src, dst):
            if not _is_int(node):
                raise MapError(f"node id {node!r} is not an integer")
            if not 1 <= node <= num_nodes:
                raise MapError(
                    f"node {int(node)} out of range 1..{num_nodes} on edge ({src}, {dst})")
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
    # every edge passed, so the map has more nodes than edges: one has no out-edge
    missing = next(n for n in range(1, num_nodes + 1) if n not in sources)
    raise MapError(f"node {missing} has no outgoing edge with positive weight")


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
    try:  # only a JSON object with all three keys gives a triple
        edges = tuple(map(itemgetter("from", "to", "weight"), raw_edges))
    except (KeyError, TypeError):
        pos = next(pos for pos, item in enumerate(raw_edges)
                   if not isinstance(item, dict) or not {"from", "to", "weight"} <= item.keys())
        raise MapError(f"edge #{pos} must be an object with 'from', 'to' and 'weight'") from None
    return RoadGraph(data["num_nodes"], edges)


def read_map(path: str) -> RoadGraph:
    """Parse the UTF-8 map file at ``path``, BOM or not; a non-UTF-8 file raises MapError naming it."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MapError(f"map file {path}: {exc}") from None
    return load_map(text)


def save_map(graph: RoadGraph) -> str:
    """Serialize a RoadGraph to the JSON map format, from its columns; inverse of load_map."""
    columns = zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist())
    doc = {
        "num_nodes": graph.num_nodes,
        "edges": [{"from": s, "to": d, "weight": w} for s, d, w in columns],
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
    src, dst, weight = graph.src, graph.dst, graph.weight
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


def transition_model(graph: RoadGraph) -> TransitionModel:
    """The graph's transition matrix in its entries, from one ``transition_entries`` call."""
    return TransitionModel(graph.num_nodes, *transition_entries(graph))


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """The M x M transition matrix A of ``transition_entries``, kept in its entries.

    ``rows``, ``columns`` and ``values`` hold one entry per edge, 0-based and
    sorted by column, then row. ``shape`` is (M, M), so ``np.shape`` reads it
    without building A. The passes read ``matrix``, the dense A that
    ``build_transition_matrix`` builds at its first read, below the sparse
    crossover, and ``padded_rows``, A's and its transpose's rows, above it;
    the transition's sampling table holds the transpose's ids.
    """

    num_nodes: int
    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_nodes, self.num_nodes)

    @cached_property
    def matrix(self) -> np.ndarray:
        return build_transition_matrix(self)

    @cached_property
    def padded_rows(self):
        """((ids, values) of A, (ids, values) of its transpose): the ``padded_columns`` of
        A^T and of A, so (A @ b)[i] is the sum over k of values[k, i] * b[ids[k, i]]."""
        m, by_row = self.num_nodes, np.lexsort((self.columns, self.rows))
        rows = padded_columns(m, int(np.bincount(self.rows, minlength=m).max()),
                              [(self.columns[by_row], self.rows[by_row], self.values[by_row])])
        return rows, padded_columns(m, int(np.bincount(self.columns, minlength=m).max()),
                                    [(self.rows, self.columns, self.values)])


def padded_columns(num_nodes: int, width: int, groups):
    """(ids, values), both (K, M): column i's k-th nonzero entry, rows ascending, is
    row ``ids[k, i]`` with value ``values[k, i]``, padded with id 0 and value 0.0.

    ``groups`` yields the entries as 0-based (rows, columns, values), each group
    sorted by column, then row, and a column's groups in row order; a 0 value is
    no entry. ``width`` bounds K, the most nonzeros in any column, at least 1.
    """
    ids = np.zeros((max(1, width), num_nodes), dtype=np.intp)
    padded = np.zeros(ids.shape)
    filled = np.zeros(num_nodes, dtype=np.intp)  # entries placed so far, per column
    for rows, columns, values in groups:
        nonzero = values != 0
        rows, columns, values = rows[nonzero], columns[nonzero], values[nonzero]
        slot = filled[columns] + np.arange(columns.size) - np.searchsorted(columns, columns)
        ids[slot, columns] = rows
        padded[slot, columns] = values
        filled += np.bincount(columns, minlength=num_nodes)
    width = max(1, int(filled.max()))  # the width was a bound
    return ids[:width], padded[:width]


def transition_rows(transition: TransitionModel, a: int, b: int) -> np.ndarray:
    """Rows a..b of the transition matrix, its entries in those rows scattered into zeros."""
    inside = (transition.rows >= a) & (transition.rows < b)
    matrix = np.zeros((b - a, transition.num_nodes))
    matrix[transition.rows[inside] - a, transition.columns[inside]] = transition.values[inside]
    return matrix


def build_transition_matrix(transition: TransitionModel) -> np.ndarray:
    """The column-stochastic M x M transition matrix of a ``TransitionModel``: all its rows."""
    return transition_rows(transition, 0, transition.num_nodes)


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

    return RoadGraph(num_nodes, tuple((s, d, w) for (s, d), w in edges.items()))
