"""Snapshot statistics: clustering scores evaluated on infection vectors.

All statistics ignore censored vertices in their infected set (a
censored vertex contributes no evidence). W and R are invariant under
relabelings that preserve the graph they are bound to, as the validity
condition of the permutation tests assumes. T is not: its Steiner
approximation breaks ties by vertex number, so an automorphic image of
the infected set can score differently (see steiner_weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Sequence

import numpy as np

from . import perms
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

# bytes of the (rows, n) BFS state one batched T chunk keeps at once
_T_CHUNK_BYTES = 1 << 18


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

    Mehlhorn's (1988) construction: a multi-source BFS from the sorted
    terminals splits the graph into Voronoi cells, Kruskal joins the
    cells by boundary edges (u, v) in (dist[u] + 1 + dist[v], u, v)
    order, and each chosen bridge expands into the BFS paths from its
    endpoints back to their cell terminals. Those paths stay inside
    disjoint cells, so the expansion is a tree whose leaves are all
    terminals: its weight is the k - 1 bridges plus one edge per
    non-terminal vertex on the paths. Guarantees weight <= 2 * optimum.
    The ties follow vertex numbers, so T is not invariant under graph
    automorphisms: on the 4x4 torus it is 3 on {0, 2, 5} and 4 on the
    image {0, 5, 8}. Raises DisconnectedTerminalsError when the
    infected set spans components.
    """
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    return int(_steiner_batch(g, (iv.status == INFECTED)[None, :])[0])


def _steiner_batch(g: Graph, infected: np.ndarray) -> np.ndarray:
    """steiner_weight of every row of a (rows, n) infected mask, as int64.

    Scores chunks of rows whose BFS state takes about _T_CHUNK_BYTES,
    vertex v of row r standing at r * n + v in one flat range. Ties
    break as a deque BFS and a Kruskal over (weight, u, v) break them,
    so every row equals steiner_weight of that row alone. Raises what
    steiner_weight raises for the first row that fails.
    """
    rows, n = infected.shape
    indptr, indices = g.csr
    eu, ev = g.edge_arrays
    out = np.empty(rows, dtype=np.int64)
    unclaimed = np.iinfo(np.int64).max
    step = max(1, _T_CHUNK_BYTES // (32 * n))  # four int64 entries per vertex
    for lo in range(0, rows, step):
        mask = infected[lo : lo + step]
        size = mask.size
        # 1. Voronoi cells: a BFS level by level, each frontier in deque order
        # (row, queue rank), so a vertex's first candidate is its deque parent
        dist = np.full(size, -1, dtype=np.int64)
        owner = np.full(size, -1, dtype=np.int64)  # the cell's terminal
        parent = np.full(size, -1, dtype=np.int64)
        claim = np.full(size, unclaimed)  # first candidate index, per level
        front = np.flatnonzero(mask)
        dist[front] = 0
        owner[front] = front
        level = 0
        while front.size:
            v = front % n
            deg = indptr[v + 1] - indptr[v]
            ends = np.cumsum(deg)
            cand = np.repeat(indptr[v] - ends + deg, deg)
            cand += np.arange(cand.size)
            cand = indices[cand]
            cand += np.repeat(front - v, deg)
            fresh = np.flatnonzero(dist[cand] < 0)
            reached = cand[fresh]
            np.minimum.at(claim, reached, fresh)
            first = fresh[claim[reached] == fresh]
            claim[reached] = unclaimed
            src = front[np.searchsorted(ends, first, side="right")]
            front = cand[first]
            level += 1
            dist[front] = level
            owner[front] = owner[src]
            parent[front] = src
        # 2. boundary edges, keyed in Kruskal order within a row:
        # (dist[u] + 1 + dist[v], edge index), the index standing in for (u, v)
        base = np.arange(0, size, n)[:, None]
        a, b = (base + eu).reshape(-1), (base + ev).reshape(-1)
        cut = np.flatnonzero(owner[a] != owner[b])
        a, b = a[cut], b[cut]
        key = (dist[a] + dist[b]) * cut.size + np.arange(cut.size)
        # 3. Boruvka: the keys are distinct, so the minimum spanning forest is
        # unique, and joining each group of cells along its cheapest outgoing
        # edge picks exactly the bridges Kruskal picks
        ca, cb = owner[a], owner[b]  # the groups each edge joins, named by a terminal
        none = 2 * n * cut.size  # above every key
        bridge = np.zeros(cut.size, dtype=bool)
        while key.size:
            best = np.full(size, none)
            np.minimum.at(best, ca, key)
            np.minimum.at(best, cb, key)
            by_a, by_b = key == best[ca], key == best[cb]
            bridge[key[by_a | by_b] % cut.size] = True
            link = np.arange(size)
            link[ca[by_a]] = cb[by_a]
            link[cb[by_b]] = ca[by_b]
            # two groups that picked the same edge keep the smaller name
            groups = np.flatnonzero(best < none)
            mutual = groups[(link[link[groups]] == groups) & (groups < link[groups])]
            link[mutual] = mutual
            while True:
                up = link[link[groups]]
                if (up == link[groups]).all():
                    break
                link[groups] = up
            ca, cb = link[ca], link[cb]
            joins = ca != cb
            ca, cb, key = ca[joins], cb[joins], key[joins]
        k = np.count_nonzero(mask, axis=1)
        bad = np.bincount(a[bridge] // n, minlength=k.size) != k - 1
        if bad.any():
            if k[np.argmax(bad)] == 0:
                raise ValueError("steiner weight needs at least one infected vertex")
            raise DisconnectedTerminalsError(
                "infected vertices do not lie in one connected component"
            )
        # 4. mark the BFS paths from every bridge endpoint back to its terminal
        on = np.zeros(size, dtype=bool)
        x = np.concatenate([a[bridge], b[bridge]])
        while x.size:
            on[x] = True
            x = parent[x]
            x = x[x >= 0]
            x = x[~on[x]]
        on &= dist > 0
        out[lo : lo + step] = k - 1 + np.count_nonzero(on.reshape(mask.shape), axis=1)
    return out


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

    @classmethod
    def from_name(cls, name: str, g: Graph, vertex: int = 0) -> "StatisticSpec":
        """The statistic W, R, T, C or orbit on g; vertex is C's center or the orbit's seed."""
        if name == "W":
            return cls.edges_within(g)
        if name == "R":
            return cls.infection_radius(g)
        if name == "T":
            return cls.steiner_weight(g)
        if name == "C":
            return cls.center_indicator(vertex)
        if name == "orbit":
            return cls.orbit_count(perms.orbit(perms.automorphism_group(g), vertex))
        raise ValueError(f"unknown statistic {name!r}; expected W, R, T, C or orbit")

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
        are column counts, R folds rows of the cached distance matrix
        (see _radius_batch), and T runs one Steiner kernel over the
        whole block (see _steiner_batch). R on graphs above _DMAT_LIMIT
        or on rows that differ in infected count scores row by row
        through score().
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
        elif self.kind == "steiner_weight":
            values = _steiner_batch(self.graph, infected)
        if values is None:
            return np.array([self.score(InfectionVector(row)) for row in block], dtype=np.float64)
        scores = values.astype(np.float64)
        return -scores if self.tail == "lower" else scores
