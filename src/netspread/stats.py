"""Snapshot statistics: clustering scores evaluated on infection vectors.

All statistics ignore censored vertices in their infected set (a
censored vertex contributes no evidence), and all are invariant under
relabelings that preserve the graph they are bound to, which is what
makes them usable inside the permutation tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedTerminalsError
from .graphs import UNREACHABLE, Graph, bfs_levels
from .spreading import INFECTED, InfectionVector

__all__ = [
    "edges_within",
    "infection_radius",
    "steiner_weight",
    "center_indicator",
    "orbit_count",
    "avg_edges_within",
    "StatisticSpec",
]

# distance matrices are cached per graph up to this size (33 MB of uint16
# at the limit); larger graphs run one packed BFS from the infected set
# per evaluation
_DMAT_LIMIT = 4096

# bytes of the (rows, n) running maximum one batched R step keeps at once
_R_GATHER_BYTES = 1 << 18


def edges_within(g: Graph, iv: InfectionVector) -> int:
    """Number of edges with both endpoints infected (censored never count)."""
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    eu, ev = g.edge_arrays
    if eu.size == 0:
        return 0
    s = iv.status
    return int(np.count_nonzero((s[eu] == INFECTED) & (s[ev] == INFECTED)))


def infection_radius(g: Graph, iv: InfectionVector) -> int | float:
    """Smallest ball radius covering the infected set.

    min over all centers v (any status) of max over infected u of
    d(u, v). Censored vertices never enter the inner max. Returns inf
    when no single component contains a center within reach of every
    infected vertex. Requires at least one infected vertex.
    """
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    if iv.k == 0:
        raise ValueError("infection radius needs at least one infected vertex")
    inf_idx = np.flatnonzero(iv.status == INFECTED)
    if g.n <= _DMAT_LIMIT:
        r = int(g.distance_matrix[inf_idx].max(axis=0).min())
        return inf if r == UNREACHABLE else r
    # the first BFS level at which some vertex is reached from every infected one
    for level, _, unreached in bfs_levels(g, inf_idx):
        if not unreached.any(axis=1).all():
            return level
    return inf


def _radius_batch(g: Graph, infected: np.ndarray) -> np.ndarray | None:
    """infection_radius of every row of a (rows, n) infected mask.

    Folds the distance-matrix rows of each row's infected vertices into
    a running maximum, one infected rank at a time, over chunks of rows
    whose (rows, n) maximum takes about _R_GATHER_BYTES. Needs the
    cached distance matrix and the same infected count k >= 1 in every
    row (relabelings keep it); returns None otherwise, leaving those
    cases to the per-row path.
    """
    rows = infected.shape[0]
    k = np.count_nonzero(infected, axis=1)
    if g.n > _DMAT_LIMIT or rows == 0 or k[0] == 0 or (k != k[0]).any():
        return None
    dmat = g.distance_matrix
    idx = np.nonzero(infected)[1].reshape(rows, int(k[0]))
    step = max(1, _R_GATHER_BYTES // (dmat.shape[1] * dmat.itemsize))
    hops = np.empty(rows, dtype=dmat.dtype)
    for lo in range(0, rows, step):
        cols = idx[lo : lo + step]
        worst = dmat[cols[:, 0]]
        for j in range(1, cols.shape[1]):
            np.maximum(worst, dmat[cols[:, j]], out=worst)
        hops[lo : lo + step] = worst.min(axis=1)
    radii = hops.astype(np.float64)
    radii[hops == UNREACHABLE] = inf
    return radii


def center_indicator(iv: InfectionVector, center: int) -> int:
    """1 when the designated center is infected, else 0 (censored counts 0)."""
    if not 0 <= center < iv.n:
        raise ValueError(f"center {center} out of range")
    return int(iv.status[center] == INFECTED)


def orbit_count(iv: InfectionVector, vertex_orbit: Iterable[int]) -> int:
    """Number of infected vertices inside the given orbit."""
    idx = list(vertex_orbit)
    if any(not 0 <= v < iv.n for v in idx):
        raise ValueError("orbit vertex out of range")
    return int(np.count_nonzero(iv.status[idx] == INFECTED))


def avg_edges_within(g: Graph, ivs: Sequence[InfectionVector]) -> float:
    """Mean edges-within across several snapshots (multi-spread aggregate)."""
    if not ivs:
        raise ValueError("need at least one snapshot")
    return float(np.mean([edges_within(g, iv) for iv in ivs]))


# -- Steiner approximation -----------------------------------------------------


def steiner_weight(g: Graph, iv: InfectionVector) -> int:
    """2-approximate minimum Steiner tree weight over the infected set.

    Voronoi construction: multi-source BFS from the terminals, an
    auxiliary terminal graph from boundary edges, its MST expanded back
    into graph paths, a spanning tree of the expansion, then non-terminal
    leaves pruned. Guarantees weight <= 2 * optimum. Raises
    DisconnectedTerminalsError when the infected set spans components.
    """
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    terminals = [int(v) for v in np.flatnonzero(iv.status == INFECTED)]
    if not terminals:
        raise ValueError("steiner weight needs at least one infected vertex")
    if len(terminals) == 1:
        return 0

    dist, src, parent = _voronoi(g, terminals)

    # cheapest boundary connection per terminal pair
    best: dict[tuple[int, int], tuple[int, int, int]] = {}
    for u, v in g.edges:
        su, sv = src[u], src[v]
        if su < 0 or sv < 0 or su == sv:
            continue
        pair = (su, sv) if su < sv else (sv, su)
        cand = (dist[u] + 1 + dist[v], u, v)
        if pair not in best or cand < best[pair]:
            best[pair] = cand

    mst_pairs = _kruskal(terminals, best)
    if len(mst_pairs) != len(terminals) - 1:
        raise DisconnectedTerminalsError(
            "infected vertices do not lie in one connected component"
        )

    # expand terminal-graph edges into real paths
    sub_edges: set[tuple[int, int]] = set()
    sub_vertices: set[int] = set(terminals)
    for pair in mst_pairs:
        _, u, v = best[pair]
        sub_edges.add((u, v) if u < v else (v, u))
        for x in (u, v):
            sub_vertices.add(x)
            while parent[x] >= 0:
                p = parent[x]
                sub_edges.add((x, p) if x < p else (p, x))
                sub_vertices.add(p)
                x = p

    tree = _spanning_tree(sub_vertices, sub_edges)
    return _prune_leaves(tree, set(terminals))


def _voronoi(g: Graph, terminals: list[int]):
    """Multi-source BFS: distance, owning terminal, and BFS parent per vertex."""
    n = g.n
    dist = [-1] * n
    src = [-1] * n
    parent = [-1] * n
    queue: deque[int] = deque()
    for t in sorted(terminals):
        dist[t] = 0
        src[t] = t
        queue.append(t)
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                src[w] = src[u]
                parent[w] = u
                queue.append(w)
    return dist, src, parent


def _kruskal(
    terminals: list[int], weighted: dict[tuple[int, int], tuple[int, int, int]]
) -> list[tuple[int, int]]:
    root = {t: t for t in terminals}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    chosen: list[tuple[int, int]] = []
    for pair in sorted(weighted, key=lambda p: (weighted[p], p)):
        ra, rb = find(pair[0]), find(pair[1])
        if ra != rb:
            root[ra] = rb
            chosen.append(pair)
    return chosen


def _spanning_tree(
    vertices: set[int], edges: set[tuple[int, int]]
) -> dict[int, list[int]]:
    """BFS spanning tree of the (connected) expansion, as an adjacency dict."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    start = min(vertices)
    seen = {start}
    tree: dict[int, list[int]] = {v: [] for v in vertices}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                tree[u].append(w)
                tree[w].append(u)
                queue.append(w)
    return tree


def _prune_leaves(tree: dict[int, list[int]], terminals: set[int]) -> int:
    """Drop non-terminal leaves until none remain; return edge count."""
    degree = {v: len(ws) for v, ws in tree.items()}
    edge_count = sum(degree.values()) // 2
    removable = deque(
        v for v, d in degree.items() if d == 1 and v not in terminals
    )
    gone: set[int] = set()
    while removable:
        v = removable.popleft()
        if v in gone or degree[v] != 1:
            continue
        gone.add(v)
        edge_count -= 1
        for w in tree[v]:
            if w in gone:
                continue
            degree[w] -= 1
            if degree[w] == 1 and w not in terminals:
                removable.append(w)
        degree[v] = 0
    return edge_count


# -- bound statistic specs -------------------------------------------------------


@dataclass(frozen=True)
class StatisticSpec:
    """A statistic bound to its graph/parameters, ready to evaluate.

    kind is one of edges_within, infection_radius, steiner_weight,
    center_indicator, orbit_count. tail says which side carries
    evidence of clustering: upper for counts, lower for radius and tree
    weight (small = concentrated).
    """

    kind: str
    graph: Graph | None = None
    center: int | None = None
    vertex_orbit: frozenset[int] | None = None

    _NEEDS_GRAPH = ("edges_within", "infection_radius", "steiner_weight")

    def __post_init__(self) -> None:
        if self.kind in self._NEEDS_GRAPH:
            if self.graph is None:
                raise ValueError(f"{self.kind} needs a graph")
        elif self.kind == "center_indicator":
            if self.center is None:
                raise ValueError("center_indicator needs a center vertex")
        elif self.kind == "orbit_count":
            if not self.vertex_orbit:
                raise ValueError("orbit_count needs a non-empty orbit")
        else:
            raise ValueError(f"unknown statistic kind {self.kind!r}")

    @classmethod
    def edges_within(cls, g: Graph) -> "StatisticSpec":
        return cls(kind="edges_within", graph=g)

    @classmethod
    def infection_radius(cls, g: Graph) -> "StatisticSpec":
        return cls(kind="infection_radius", graph=g)

    @classmethod
    def steiner_weight(cls, g: Graph) -> "StatisticSpec":
        return cls(kind="steiner_weight", graph=g)

    @classmethod
    def center_indicator(cls, center: int) -> "StatisticSpec":
        return cls(kind="center_indicator", center=center)

    @classmethod
    def orbit_count(cls, vertex_orbit: Iterable[int]) -> "StatisticSpec":
        return cls(kind="orbit_count", vertex_orbit=frozenset(vertex_orbit))

    @property
    def tail(self) -> str:
        if self.kind in ("infection_radius", "steiner_weight"):
            return "lower"
        return "upper"

    @property
    def name(self) -> str:
        return {
            "edges_within": "W",
            "infection_radius": "R",
            "steiner_weight": "T",
            "center_indicator": "C",
            "orbit_count": "orbit",
        }[self.kind]

    def evaluate(self, iv: InfectionVector) -> int | float:
        if self.kind == "edges_within":
            return edges_within(self.graph, iv)
        if self.kind == "infection_radius":
            return infection_radius(self.graph, iv)
        if self.kind == "steiner_weight":
            return steiner_weight(self.graph, iv)
        if self.kind == "center_indicator":
            return center_indicator(iv, self.center)
        return orbit_count(iv, self.vertex_orbit)

    def score(self, iv: InfectionVector) -> float:
        """Evaluate on the oriented evidence scale (larger = more clustered)."""
        value = self.evaluate(iv)
        return -float(value) if self.tail == "lower" else float(value)

    def score_batch(self, block: np.ndarray) -> np.ndarray:
        """score() of every row of a (rows, n) status block, as float64.

        Rows must hold valid statuses, as relabelings of a validated
        snapshot do. W is one gather over the edge arrays, C and orbit
        are column counts, and R folds rows of the cached distance
        matrix (see _radius_batch). T, and R on graphs above
        _DMAT_LIMIT or on rows that differ in infected count, score row
        by row through score().
        """
        n = block.shape[1]
        if self.graph is not None and self.graph.n != n:
            raise ValueError("graph and snapshot sizes differ")
        infected = block == INFECTED
        values = None
        if self.kind == "edges_within":
            eu, ev = self.graph.edge_arrays
            both = infected[:, eu]
            both &= infected[:, ev]
            values = np.count_nonzero(both, axis=1)
        elif self.kind == "center_indicator":
            if not 0 <= self.center < n:
                raise ValueError(f"center {self.center} out of range")
            values = infected[:, self.center]
        elif self.kind == "orbit_count":
            idx = list(self.vertex_orbit)
            if any(not 0 <= v < n for v in idx):
                raise ValueError("orbit vertex out of range")
            values = np.count_nonzero(infected[:, idx], axis=1)
        elif self.kind == "infection_radius":
            values = _radius_batch(self.graph, infected)
        if values is None:
            return np.array([self.score(InfectionVector(row)) for row in block], dtype=np.float64)
        scores = values.astype(np.float64)
        return -scores if self.tail == "lower" else scores
