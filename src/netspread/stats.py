"""Snapshot statistics: clustering scores evaluated on infection vectors.

Each statistic is one kernel over a (rows, n) infected mask (_KINDS):
StatisticSpec.score_batch runs it on a block of relabelings (statuses,
or the infected masks the Monte-Carlo tests draw), evaluate and the
module-level functions on a one-row block.

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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import perms
from .errors import DisconnectedTerminalsError
from .graphs import Graph, bfs_levels
from .spreading import INFECTED, InfectionVector

__all__ = [
    "edges_within",
    "infection_radius",
    "steiner_weight",
    "center_indicator",
    "orbit_count",
    "StatisticSpec",
]

# distance matrices are cached per graph up to this size (16.8 MB of uint8
# at the limit, 33.6 MB of uint16 once a hop count exceeds 254); larger
# graphs run one packed BFS per snapshot
_DMAT_LIMIT = 4096

# bytes of the distance-matrix rows one batched R gather reads at once
_R_GATHER_BYTES = 1 << 20

# bytes of the (rows, n) BFS state one batched T chunk keeps at once
_T_CHUNK_BYTES = 1 << 18


def edges_within(g: Graph, iv: InfectionVector) -> int:
    """Number of edges with both endpoints infected (censored never count)."""
    return StatisticSpec.edges_within(g).evaluate(iv)


def infection_radius(g: Graph, iv: InfectionVector) -> int | float:
    """Smallest ball radius covering the infected set.

    min over all centers v (any status) of max over infected u of
    d(u, v). Censored vertices never enter the inner max. Returns inf
    when no single component contains a center within reach of every
    infected vertex. Requires at least one infected vertex.
    """
    return StatisticSpec.infection_radius(g).evaluate(iv)


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
    return StatisticSpec.steiner_weight(g).evaluate(iv)


def center_indicator(iv: InfectionVector, center: int) -> int:
    """1 when the designated center is infected, else 0 (censored counts 0)."""
    return StatisticSpec.center_indicator(center).evaluate(iv)


def orbit_count(iv: InfectionVector, vertex_orbit: Iterable[int]) -> int:
    """Number of infected vertices inside the given orbit."""
    orbit = frozenset(vertex_orbit)
    return StatisticSpec.orbit_count(orbit).evaluate(iv) if orbit else 0


# -- kernels over a (rows, n) infected mask ---------------------------------------


def _edges_batch(g: Graph, infected: np.ndarray) -> np.ndarray:
    """edges_within of every row: one gather over the edge arrays."""
    eu, ev = g.edge_arrays
    both = infected[:, eu]
    both &= infected[:, ev]
    return np.count_nonzero(both, axis=1)


def _radius_batch(g: Graph, infected: np.ndarray) -> np.ndarray:
    """infection_radius of every row, as float64.

    Rows may differ in infected count: then each row's infected vertices
    are padded to the largest count by repeating its last one, which
    leaves its max unchanged. The distance-matrix rows of those vertices are
    gathered for chunks of rows and ranks whose gather takes about
    _R_GATHER_BYTES, maxed over the ranks and minimized over the
    centers; a minimum at the matrix dtype's maximum means no covering
    center. Graphs above _DMAT_LIMIT run one packed BFS per row
    instead. Raises ValueError when a row has no infected vertex.
    """
    rows, n = infected.shape
    k = infected.sum(axis=1)
    if not k.all():
        raise ValueError("infection radius needs at least one infected vertex")
    if n > _DMAT_LIMIT:
        radii = np.empty(rows)
        for r, row in enumerate(infected):
            # the first BFS level at which some vertex is reached from every infected one
            levels = bfs_levels(g, np.flatnonzero(row))
            covered = (level for level, _, unreached in levels if not unreached.any(axis=1).all())
            radii[r] = next(covered, inf)
        return radii
    dmat = g.distance_matrix
    flat = np.flatnonzero(infected) % n
    kmax = int(k.max(initial=0))
    if flat.size == rows * kmax:  # every row has kmax infected vertices
        idx = flat.reshape(rows, kmax)
    else:
        ranks = np.minimum(np.arange(kmax), k[:, None] - 1) + (np.cumsum(k) - k)[:, None]
        idx = flat[ranks]
    per_rank = n * dmat.itemsize
    width = max(1, min(kmax, _R_GATHER_BYTES // per_rank))
    step = max(1, _R_GATHER_BYTES // (width * per_rank))
    hops = np.empty(rows, dtype=dmat.dtype)
    for lo in range(0, rows, step):
        cols = idx[lo : lo + step]
        worst = dmat[cols[:, :width]].max(axis=1)
        for j in range(width, kmax, width):
            np.maximum(worst, dmat[cols[:, j : j + width]].max(axis=1), out=worst)
        worst.min(axis=1, out=hops[lo : lo + step])
    return np.where(hops == np.iinfo(hops.dtype).max, inf, hops)


def _count_in(infected: np.ndarray, vertices: Iterable[int], what: str) -> np.ndarray:
    """Infected vertices among `vertices` in every row; what names them in the range error."""
    idx = list(vertices)
    if any(not 0 <= v < infected.shape[1] for v in idx):
        raise ValueError(f"{what} out of range")
    return np.count_nonzero(infected[:, idx], axis=1)


def _steiner_batch(g: Graph, infected: np.ndarray) -> np.ndarray:
    """steiner_weight of every row, as int64.

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


class _Kind(NamedTuple):
    """A statistic's short name, the tail that carries evidence of clustering
    (upper for counts, lower for radius and tree weight), the spec field it
    needs, and its kernel: (spec, (rows, n) infected mask) -> one value per row."""

    name: str
    tail: str
    needs: str
    kernel: Callable[["StatisticSpec", np.ndarray], np.ndarray]


_KINDS = {
    "edges_within": _Kind("W", "upper", "graph", lambda s, m: _edges_batch(s.graph, m)),
    "infection_radius": _Kind("R", "lower", "graph", lambda s, m: _radius_batch(s.graph, m)),
    "steiner_weight": _Kind("T", "lower", "graph", lambda s, m: _steiner_batch(s.graph, m)),
    "center_indicator": _Kind(
        "C", "upper", "center", lambda s, m: _count_in(m, [s.center], f"center {s.center}")
    ),
    "orbit_count": _Kind(
        "orbit", "upper", "vertex_orbit", lambda s, m: _count_in(m, s.vertex_orbit, "orbit vertex")
    ),
}


@dataclass(frozen=True)
class StatisticSpec:
    """A statistic bound to its graph/parameters, ready to evaluate.

    kind is one of edges_within, infection_radius, steiner_weight,
    center_indicator, orbit_count; name and tail come from _KINDS.
    """

    kind: str
    graph: Graph | None = None
    center: int | None = None
    vertex_orbit: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        field = _KINDS[self.kind].needs
        if getattr(self, field) in (None, frozenset()):
            raise ValueError(f"{self.kind} needs a {field}")

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
        kinds = {entry.name: kind for kind, entry in _KINDS.items()}
        if name not in kinds:
            raise ValueError(f"unknown statistic {name!r}; expected W, R, T, C or orbit")
        if name == "C":
            return cls.center_indicator(vertex)
        if name == "orbit":
            return cls.orbit_count(perms.orbit(perms.automorphism_group(g), vertex))
        return cls(kinds[name], graph=g)

    @property
    def tail(self) -> str:
        return _KINDS[self.kind].tail

    @property
    def name(self) -> str:
        return _KINDS[self.kind].name

    def _values(self, block: np.ndarray) -> np.ndarray:
        """The statistic's kernel on every row of a (rows, n) status block,
        or of a (rows, n) bool infected mask, which it reads as is."""
        if self.graph is not None and self.graph.n != block.shape[1]:
            raise ValueError("graph and snapshot sizes differ")
        infected = block if block.dtype == bool else block == INFECTED
        return _KINDS[self.kind].kernel(self, infected)

    def evaluate(self, iv: InfectionVector) -> int | float:
        """The raw statistic of one snapshot: an int, or inf where R has no covering center."""
        [value] = self._values(iv.status[None, :])
        return int(value) if value != inf else inf

    def score(self, iv: InfectionVector) -> float:
        """Evaluate on the oriented evidence scale (larger = more clustered)."""
        value = self.evaluate(iv)
        return -float(value) if self.tail == "lower" else float(value)

    def score_batch(self, block: np.ndarray) -> np.ndarray:
        """score() of every row of a (rows, n) status block, as float64.

        The same kernel as evaluate, run once over the whole block. A
        bool block is read as the rows' infected masks (True is
        INFECTED), which the Monte-Carlo tests draw.
        """
        scores = self._values(block).astype(np.float64)
        return -scores if self.tail == "lower" else scores
