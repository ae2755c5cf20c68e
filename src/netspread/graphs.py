"""Immutable simple graphs, generators, and edge-list IO.

Vertices are integers 0..n-1. Edges are undirected, stored once as
(u, v) with u < v, lexicographically sorted. Optional string labels are
display metadata only and never affect structural equality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import inf, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError
from .rng import substream

__all__ = [
    "Graph",
    "build_graph",
    "empty_graph",
    "complete_graph",
    "star_graph",
    "cycle_graph",
    "path_graph",
    "torus_grid",
    "erdos_renyi",
    "two_block",
    "correlated_pair",
    "generate",
    "from_spec",
    "bfs_distances",
    "eccentricity",
    "is_connected",
    "load_edge_list",
]

# bytes of the neighbour gather one packed BFS level step holds at once;
# one distance-matrix decode step fills rows of an eighth as many entries
_STEP_BYTES = 1 << 21
# _BYTE_TABLES[dtype][b, x]: the 8 distance-matrix entries that bit b of
# their hop counts adds for packed byte x, as itemsize uint64 words; the
# last table adds the dtype's maximum, the mark of pairs with no path
_BYTE_TABLES = {
    dtype: (
        (np.arange(256)[:, None] >> np.arange(8) & 1)
        * np.append(1 << np.arange(8 * dtype().itemsize), np.iinfo(dtype).max)[:, None, None]
    ).astype(dtype).view(np.uint64)
    for dtype in (np.uint8, np.uint16)
}


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Attributes
    ----------
    n : int
        Number of vertices (>= 1).
    edges : tuple of (int, int)
        Canonical edge list: each pair has u < v, no duplicates,
        sorted lexicographically.
    labels : tuple of str, optional
        Display names, one per vertex. Excluded from equality and hashing.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        prev = (-1, -1)
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) not canonical for n={self.n}")
            if (u, v) <= prev:
                raise ValueError(f"edge list not sorted/unique at ({u}, {v})")
            prev = (u, v)
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal n")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be distinct")

    # -- basic accessors ------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per vertex."""
        neigh: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return tuple(tuple(sorted(vs)) for vs in neigh)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(vs) for vs in self.adjacency)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int64 arrays (empty-safe)."""
        arr = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        arr.setflags(write=False)
        return arr[:, 0], arr[:, 1]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as read-only CSR arrays (indptr, indices).

        The sorted neighbours of v are indices[indptr[v]:indptr[v + 1]].
        """
        eu, ev = self.edge_arrays
        tails = np.concatenate([eu, ev])
        heads = np.concatenate([ev, eu])
        indices = heads[np.lexsort((heads, tails))]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.n), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return self.degrees[v]

    # -- labels ----------------------------------------------------------

    def label_of(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {self.label_of(v): v for v in range(self.n)}

    def index_of(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    # -- distances --------------------------------------------------------

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances in the narrowest unsigned type that holds them.

        uint8 when no finite hop count exceeds 254, else uint16; pairs
        with no path hold the dtype's maximum (255 or 65535). Cached and
        read-only; built by one packed BFS from every vertex at once
        (bfs_levels), whose hop counts are kept as bit planes and
        decoded in row chunks, each packed byte through a 256-row table
        of the 8 entries it adds. The 50x50 torus builds in about 40 ms.
        Meant for graphs up to a few thousand vertices; raises
        ValueError for n >= 65535, where a uint16 hop count could
        collide with the sentinel.
        """
        n = self.n
        limit = int(np.iinfo(np.uint16).max)
        if n >= limit:
            raise ValueError(f"distance matrix needs n < {limit}, got n={n}")
        # planes[b] holds bit b of each hop count d, the parity of the multiples of 2^b
        # in 1..d: d > level where unreached (pairs with no path take the sentinel table)
        planes: list[np.ndarray] = []
        for level, frontier, unreached in bfs_levels(self, range(n)):
            for b in range((level + 1 & -(level + 1)).bit_length()):
                if b == len(planes):
                    planes.append(np.zeros_like(unreached))
                planes[b] ^= unreached
        del frontier  # only the planes and unreached outlive the search
        # level is now the largest finite hop count
        dtype = np.uint8 if level < np.iinfo(np.uint8).max else np.uint16
        tables = _BYTE_TABLES[dtype]
        pairs = list(zip(planes, tables))
        if unreached.any():
            pairs.append((unreached, tables[-1]))
        width = unreached.view(np.uint8).shape[1]  # bytes per packed row
        del unreached
        mat = np.empty((n, n), dtype=dtype)
        rows = max(1, _STEP_BYTES // (8 * n))
        for lo in range(0, n, rows):
            block = np.zeros((min(rows, n - lo), width, mat.itemsize), dtype=np.uint64)
            for plane, table in pairs:
                block |= table.take(plane[lo : lo + rows].view(np.uint8), axis=0)
            mat[lo : lo + rows] = block.reshape(len(block), -1).view(dtype)[:, :n]
        mat.setflags(write=False)
        return mat


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """Construct a Graph, normalizing the edge list.

    Self-loops are rejected; duplicate edges (in either orientation)
    collapse to one.
    """
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        canon.add((u, v) if u < v else (v, u))
    lab = tuple(labels) if labels is not None else None
    return Graph(n=n, edges=tuple(sorted(canon)), labels=lab)


# -- deterministic families ------------------------------------------------


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and leaves 1..n-1. Requires n >= 2."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return build_graph(n, [(0, v) for v in range(1, n)])


def cycle_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0. Requires n >= 3."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def torus_grid(dims: Sequence[int]) -> Graph:
    """Torus grid: a cycle along every axis (wrap-around). Each dim >= 3.

    Vertices are row-major indices over the coordinate box.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("torus needs at least one dimension")
    if any(d < 3 for d in dims):
        raise ValueError(f"torus dims must all be >= 3, got {dims}")
    index = np.arange(prod(dims)).reshape(dims)
    # each cell with its successor along every axis
    heads = np.concatenate([np.roll(index, -1, axis).ravel() for axis in range(len(dims))])
    return build_graph(index.size, zip(np.tile(index.ravel(), len(dims)).tolist(), heads.tolist()))


# -- random families --------------------------------------------------------


def _pair_draws(n: int, seed: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(u, the vertices above u, one uniform draw for each pair with u) for
    u = 0..n-2, all drawn in that order from substream(seed)."""
    rng = substream(seed)
    for u in range(n - 1):
        yield u, np.arange(u + 1, n), rng.random(n - 1 - u)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n,2) pairs is an edge independently."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return build_graph(n, [(u, v) for u, vs, draws in _pair_draws(n, seed) for v in vs[draws < p].tolist()])


def two_block(n: int, p_in: float, p_out: float, seed: int) -> Graph:
    """Two-block stochastic block model; first ceil(n/2) vertices in block 0."""
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    half = (n + 1) // 2
    edges = []
    for u, vs, draws in _pair_draws(n, seed):
        hits = vs[draws < np.where((vs < half) == (u < half), p_in, p_out)]
        edges.extend((u, v) for v in hits.tolist())
    return build_graph(n, edges)


def correlated_pair(n: int, p: float, gamma: float, seed: int) -> tuple[Graph, Graph]:
    """Two marginally-G(n,p) graphs with P(edge in both) = gamma * p per pair.

    Requires max(0, 2 - 1/p) <= gamma <= 1 so all four joint cell
    probabilities are valid. gamma = 1 returns identical graphs.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if p > 0 and gamma < 2.0 - 1.0 / p - 1e-12:
        raise ValueError(f"gamma={gamma} too small for p={p}: pairs with neither edge would have negative probability")
    both, solo = gamma * p, p - gamma * p
    edges0, edges1 = [], []
    # a draw below both is an edge of both graphs, the next solo of g0 only,
    # the solo after that of g1 only
    for u, vs, draws in _pair_draws(n, seed):
        edges0.extend((u, v) for v in vs[draws < both + solo].tolist())
        only1 = (draws >= both + solo) & (draws < both + 2 * solo)
        edges1.extend((u, v) for v in vs[(draws < both) | only1].tolist())
    return build_graph(n, edges0), build_graph(n, edges1)


def _dims(text: str) -> list[int]:
    return [int(d) for d in text.split("x")]


# kind -> (generator, one parser per ':'-separated field of its spec)
_KINDS = {
    "empty": (empty_graph, (int,)),
    "complete": (complete_graph, (int,)),
    "star": (star_graph, (int,)),
    "cycle": (cycle_graph, (int,)),
    "path": (path_graph, (int,)),
    "torus": (torus_grid, (_dims,)),
    "er": (erdos_renyi, (int, float, int)),
    "two-block": (two_block, (int, float, float, int)),
}


def generate(kind: str, *args, **kwargs) -> Graph:
    """Dispatch to a named generator: empty|complete|star|cycle|path|torus|er|two-block."""
    if kind not in _KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    return _KINDS[kind][0](*args, **kwargs)


def from_spec(spec: str) -> Graph:
    """Parse a compact graph spec string.

    Forms: ``empty:N``, ``complete:N``, ``star:N``, ``cycle:N``,
    ``path:N``, ``torus:AxB[xC...]``, ``er:N:P:SEED``,
    ``two-block:N:PIN:POUT:SEED``, ``file:PATH`` (edge-list file).
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "file":
            if not rest:
                raise ValueError("file: needs a path")
            with open(rest, "r", encoding="utf-8") as fh:
                return load_edge_list(fh.read())
        if kind in _KINDS:
            make, parsers = _KINDS[kind]
            fields = rest.split(":")
            if len(fields) != len(parsers):
                raise ValueError(f"expected {len(parsers)} fields after '{kind}:'")
            return make(*(parse(f) for parse, f in zip(parsers, fields)))
    except (ValueError, OSError) as exc:
        raise ParseError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ParseError(f"unknown graph kind {kind!r} in spec {spec!r}")


# -- traversal ---------------------------------------------------------------


def bfs_distances(g: Graph, source: int) -> list[float]:
    """Hop distances from source to every vertex; inf when unreachable."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    dist: list[float] = [inf] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adj[u]:
            if dist[w] == inf:
                dist[w] = du + 1
                queue.append(w)
    return dist


def bfs_levels(
    g: Graph, sources: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Level-synchronous BFS from every source at once, on packed bits.

    Each yielded array has one row per vertex and one bit per source,
    packed little-endian into '<u8' words: bit j of row v stands for
    sources[j]. Yields (level, frontier, unreached) for level = 0, 1,
    ...: frontier marks the sources exactly level hops from v,
    unreached those not within level hops. unreached is updated in
    place by the next step. Stops after the last non-empty frontier.
    Sources must be distinct vertices. A step ORs one whole-row gather
    per neighbour slot below the minimum degree and reduceats the rest.
    """
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    k = src.size
    if k and (src.min() < 0 or src.max() >= g.n):
        raise ValueError("source out of range")
    if k and np.bincount(src).max() > 1:  # np.unique would import numpy.ma
        raise ValueError("sources must be distinct")
    width = 8 * max(1, -(-k // 64))  # bytes per row, whole words
    j = np.arange(k)
    frontier = np.zeros((g.n, width), dtype=np.uint8)
    frontier[src, j >> 3] = (1 << (j & 7)).astype(np.uint8)
    valid = np.zeros(8 * width, dtype=bool)
    valid[:k] = True
    unreached = np.tile(np.packbits(valid, bitorder="little"), (g.n, 1))
    unreached ^= frontier
    frontier, unreached = frontier.view("<u8"), unreached.view("<u8")
    plan = _step_plan(g, frontier.shape[1])
    level = 0
    while True:
        yield level, frontier, unreached
        frontier = _level_step(plan, frontier)
        frontier &= unreached
        if not frontier.any():
            return
        unreached ^= frontier
        level += 1


def _step_plan(g: Graph, words: int):
    """(first, indices, d, budget, chunks, gathered) for _level_step.

    Slot j < d = min degree of every vertex is indices[first + j], read
    budget rows (about _STEP_BYTES) at a time, past slot 0 into the rows
    gathered. chunks holds (vertices, neighbours, reduceat offsets) for
    the neighbours past slot d, each gather again about _STEP_BYTES:
    slices of indices when d is 0 (some vertex is isolated), else the
    plan's one copy of them.
    gathered has budget rows even where n would do: freed, a block that
    size lifts glibc's mmap threshold, which keeps the process's later
    1-2 MB temporaries (permutation keys) off fresh pages.
    """
    indptr, indices = g.csr
    degree = np.diff(indptr)
    d = int(degree.min())
    budget = max(1, _STEP_BYTES // (8 * words))
    verts = np.flatnonzero(degree > d)
    extra = degree[verts] - d
    ends = np.cumsum(extra)
    starts = ends - extra  # of each vertex's neighbours past slot d, in rest
    rest = indices[np.repeat(indptr[verts] + d - starts, extra) + np.arange(extra.sum())] if d else indices
    chunks = []
    a = 0
    while a < verts.size:
        lo = starts[a]
        b = max(a + 1, int(np.searchsorted(ends, lo + budget, side="right")))
        chunks.append((verts[a:b], rest[lo : ends[b - 1]], starts[a:b] - lo))
        a = b
    gathered = np.empty((budget if d > 1 else 0, words), dtype="<u8")
    return indptr[:-1], indices, d, budget, chunks, gathered


def _level_step(plan, frontier: np.ndarray) -> np.ndarray:
    """OR of the frontier rows of each vertex's neighbours: one whole-row
    gather per neighbour slot every vertex has, a reduceat over the rest."""
    first, indices, d, budget, chunks, gathered = plan
    out = np.empty_like(frontier) if d else np.zeros_like(frontier)
    for lo in range(0, first.size if d else 0, budget):
        block, slot = out[lo : lo + budget], first[lo : lo + budget]
        rows = gathered[: len(block)]
        # mode="clip" lets take write into its out without a temporary
        frontier.take(indices.take(slot), axis=0, out=block, mode="clip")
        for j in range(1, d):
            frontier.take(indices.take(slot + j), axis=0, out=rows, mode="clip")
            block |= rows
    for verts, neighbours, offsets in chunks:
        ored = np.bitwise_or.reduceat(frontier.take(neighbours, axis=0), offsets, axis=0)
        if d:
            ored |= out.take(verts, axis=0)
        out[verts] = ored
    return out


def eccentricity(g: Graph, v: int) -> float:
    """max_u d(v, u); inf when g is disconnected."""
    return max(bfs_distances(g, v))


def is_connected(g: Graph) -> bool:
    return eccentricity(g, 0) < inf


# -- IO ----------------------------------------------------------------------


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list file: one ``label label`` pair per line.

    Blank lines and lines starting with '#' are skipped. Vertices are
    numbered by first appearance; duplicate edges collapse. Self-loops
    and lines without exactly two tokens raise ParseError with the line
    number.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {len(parts)}")
        a, b = parts
        if a == b:
            raise ParseError(f"line {lineno}: self-loop on {a!r} not allowed")
        for lab in (a, b):
            if lab not in index:
                index[lab] = len(index)
        edges.append((index[a], index[b]))
    if not index:
        raise ParseError("edge list has no edges")
    labels = tuple(sorted(index, key=index.__getitem__))
    return build_graph(len(index), edges, labels=labels)
