"""Infection snapshots, the sequential spreading model, and censoring.

The spreading process infects one vertex per step: after m infections,
an uninfected vertex v is next with probability proportional to
1 + eta * (number of already-infected neighbors of v). eta = 0 is
uniform growth on any graph; large eta clings to the infected boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, fsum, isfinite, isqrt
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import GuardExceededError, ParseError
from .graphs import Graph
from .rng import as_generator

__all__ = [
    "UNINFECTED",
    "INFECTED",
    "CENSORED",
    "InfectionVector",
    "InfectionPath",
    "SpreadParams",
    "infection_from_infected",
    "simulate_spread",
    "path_probability",
    "censor_uniform",
    "censor_fixed",
    "ising_sample_exact",
    "infection_law_exact",
    "write_status_file",
    "read_status_file",
    "align_to_graph",
]

UNINFECTED, INFECTED, CENSORED = 0, 1, 2
_STATUS_TO_CHAR = {UNINFECTED: "0", INFECTED: "1", CENSORED: "*"}
_CHAR_TO_STATUS = {"0": UNINFECTED, "1": INFECTED, "*": CENSORED}


@dataclass(frozen=True, eq=False)
class InfectionVector:
    """A snapshot of vertex statuses: 0 uninfected, 1 infected, 2 censored."""

    status: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.status)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("status must be a non-empty 1-d array")
        # checked before the cast, which would wrap 256 to 0 and truncate 1.9 to 1
        if not ((raw == UNINFECTED) | (raw == INFECTED) | (raw == CENSORED)).all():
            raise ValueError("statuses must be 0, 1, or 2")
        arr = raw.astype(np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "status", arr)

    @property
    def n(self) -> int:
        return int(self.status.size)

    @cached_property
    def k(self) -> int:
        """Number of infected vertices."""
        return int(np.count_nonzero(self.status == INFECTED))

    @cached_property
    def c(self) -> int:
        """Number of censored vertices."""
        return int(np.count_nonzero(self.status == CENSORED))

    @cached_property
    def infected(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self.status == INFECTED))

    @cached_property
    def censored(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self.status == CENSORED))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfectionVector):
            return NotImplemented
        return self.status.shape == other.status.shape and bool(
            (self.status == other.status).all()
        )

    def __hash__(self) -> int:
        return hash(self.status.tobytes())

    def __repr__(self) -> str:
        body = "".join(_STATUS_TO_CHAR[int(s)] for s in self.status)
        return f"InfectionVector({body!r})"


def infection_from_infected(
    n: int, infected: Iterable[int], censored: Iterable[int] = ()
) -> InfectionVector:
    """Build a snapshot from index sets (must not overlap)."""
    status = np.zeros(n, dtype=np.int8)
    inf_idx = list(infected)
    cen_idx = list(censored)
    status[inf_idx] = INFECTED
    status[cen_idx] = CENSORED
    if len(set(inf_idx) & set(cen_idx)) > 0:
        raise ValueError("a vertex cannot be both infected and censored")
    return InfectionVector(status)


@dataclass(frozen=True)
class InfectionPath:
    """The ordered sequence of infected vertices."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("path vertices must be distinct")
        if not self.order:
            raise ValueError("path must infect at least one vertex")

    @property
    def k(self) -> int:
        return len(self.order)

    def to_infection(self, n: int) -> InfectionVector:
        if any(not 0 <= v < n for v in self.order):
            raise ValueError("path vertex out of range")
        return infection_from_infected(n, self.order)


@dataclass(frozen=True)
class SpreadParams:
    """eta >= 0 is the neighbor-affinity strength; k the infections to draw."""

    eta: float
    k: int

    def __post_init__(self) -> None:
        if not self.eta >= 0:  # NaN fails too
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def simulate_spread(
    g: Graph, params: SpreadParams, seed_or_rng: int | np.random.Generator
) -> InfectionPath:
    """Draw one infection path of length k from the sequential model.

    Each step draws the next vertex with a single uniform u against the
    cumulative weights in fixed vertex order: it takes the first vertex
    whose cumulative weight exceeds u, so results are reproducible
    across platforms and an infected (zero-weight) vertex is never
    drawn again. The k uniforms are one rng.random(k) call, the same
    values and end state as k scalar draws. On a graph with edges,
    n + 2|E| eta bounds the total weight and must be finite in float64.
    """
    _check_spread(g, params)
    eta = float(params.eta)
    draws = as_generator(seed_or_rng).random(params.k).tolist()
    walk = _blocked_path if _sums_exact(g, eta) else _sequential_path
    return InfectionPath(tuple(walk(g, eta, draws)))


def _check_spread(g: Graph, params: SpreadParams) -> None:
    """Raise ValueError when params cannot spread on g: k passes n, or the
    spread could overflow (on a graph with edges, n + 2|E| eta bounds the
    total weight and must be finite in float64)."""
    if params.k > g.n:
        raise ValueError(f"cannot infect k={params.k} of n={g.n} vertices")
    eta = float(params.eta)
    if g.num_edges and not isfinite(g.n + 2 * g.num_edges * eta):
        raise ValueError(f"eta={eta} overflows the spread weights: n + 2|E| eta is not finite")


def _sums_exact(g: Graph, eta: float) -> bool:
    """Whether every spread weight and every sum of them is exact in float64.

    With eta = p/d in lowest terms (d a power of two), each weight
    1 + eta*m is a multiple of 1/d, and all weights together never pass
    n + 2|E| eta. Below 2^53 / d every partial sum, in any grouping, is
    exact, so a blocked walk meets the same boundaries as one sequential
    cumulative sum. Without edges every weight stays 1, whatever eta.
    """
    if not g.num_edges:
        return True
    if not isfinite(eta):
        return False
    p, d = eta.as_integer_ratio()
    return g.n * d + 2 * g.num_edges * p < 2**53


def _blocked_path(g: Graph, eta: float, draws: list[float]) -> list[int]:
    """The spread path for the given uniforms, in O(sqrt(n)) per step.

    Weights sit in blocks of isqrt(n) vertices whose sums, and their
    total, are kept up to date as infections change weights. A step
    runs the cumulative sum over the block sums up to the first one
    past u, then on into that block's weights. Exact only under
    _sums_exact.
    """
    n = g.n
    size = isqrt(n)
    adjacency = g.adjacency
    weights = [1.0] * n
    hits = [0] * n  # infected neighbours
    blocks = [float(min(size, n - lo)) for lo in range(0, n, size)]
    total = float(n)
    order: list[int] = []
    for r in draws:
        u = r * total
        acc = 0.0
        j = 0
        for s in blocks:
            nxt = acc + s
            if nxt > u:
                break
            acc = nxt
            j += 1
        v = j * size
        for w in weights[v : v + size]:
            nxt = acc + w
            if nxt > u:
                break
            acc = nxt
            v += 1
        order.append(v)
        old = weights[v]
        weights[v] = 0.0
        blocks[j] -= old
        total -= old
        for w in adjacency[v]:
            hits[w] += 1
            old = weights[w]
            if old > 0.0:
                new = 1.0 + eta * hits[w]
                weights[w] = new
                blocks[w // size] += new - old
                total += new - old
    return order


# Fewest rows worth a lockstep walk. A lockstep step costs about 16 us of
# fixed numpy calls, one _blocked_path step 1.5-2 us per row. Timed as
# stacked / per-row walks of torus rows at eta 1, 10 and 100 mixed with
# null rows on the empty graph (best of 7, 2-CPU host), 24 rows take
# 1.26 of the per-row time on the 6x6 torus (k=8), 1.03 on 10x10 (k=20),
# 0.81 on 20x20 (k=80), 0.47 on 50x50 (k=500) and 0.27 on 100x100; 20
# rows take 1.23 on 10x10 and 0.93 on 20x20.
_STACK_MIN_ROWS = 24
# What one chunk of rows may hold: per row, its generator while the chunk
# is read (2 KB; a substream takes about 1.7), n + isqrt(n) int64 weights,
# and per step its uniform and its vertex.
_STACK_BYTES = 2 << 20


def _stackable(g: Graph, eta: float) -> bool:
    """Whether spreads on g at eta may join a lockstep walk: eta is a valid
    SpreadParams eta under _sums_exact, and no degree passes the block
    size, so the padded neighbour table costs no more per step than the
    block walk."""
    return eta >= 0 and _sums_exact(g, eta) and max(g.degrees, default=0) <= isqrt(g.n)


def _spread_paths(
    jobs: Iterable[tuple[Graph, float, np.random.Generator]], k: int
) -> Iterator[Sequence[int]]:
    """The infection order of each job (g, eta, rng), in job order: the
    order of simulate_spread(g, SpreadParams(eta=eta, k=k), rng).

    Jobs are read one chunk at a time: as many as fit _STACK_BYTES as
    rows on the n of the chunk's first job, and never fewer than
    _STACK_MIN_ROWS. When at least _STACK_MIN_ROWS of a chunk's jobs are
    _stackable with that n, they walk in lockstep (_stacked_paths), each
    row on the k uniforms of its own rng; every other job is one
    simulate_spread call.
    """
    jobs = iter(jobs)
    for first in jobs:
        n = first[0].n
        rows = max(_STACK_MIN_ROWS, _STACK_BYTES // (2048 + 8 * (n + isqrt(n) + 2 * k)))
        chunk = [first, *itertools.islice(jobs, rows - 1)]
        stack = [i for i, (g, eta, _) in enumerate(chunk) if g.n == n and _stackable(g, eta)]
        walked = {}
        if 1 <= k <= n and len(stack) >= _STACK_MIN_ROWS:
            draws = np.array([chunk[i][2].random(k) for i in stack])
            paths = _stacked_paths([chunk[i][:2] for i in stack], draws)
            walked = dict(zip(stack, paths.tolist()))
        for i, (g, eta, rng) in enumerate(chunk):
            yield walked[i] if i in walked else simulate_spread(g, SpreadParams(eta=eta, k=k), rng).order


def _stacked_paths(rows: Sequence[tuple[Graph, float]], draws: np.ndarray) -> np.ndarray:
    """The _blocked_path of every row (graph, eta) for the uniforms in its
    row of draws, walked in lockstep: one infection per step for every row.

    Every graph must have the same n and every row must be under
    _sums_exact. A row's weights are then multiples of 1/d, for eta = p/d
    in lowest terms, and the walk keeps them as the integers d + p * hits,
    whose block sums and cumulative sums are exact, as are the float sums
    of _blocked_path. Its step picks the first vertex whose running sum
    exceeds u = r * total; in units of 1/d, that is the first whose
    integer running sum exceeds floor(r * d * total), and r * d * total is
    the float u scaled by a power of two, so the paths are bit-identical.
    Neighbour updates read one table padded to the largest degree; the
    padding names a vertex of weight 0 in a last, empty block of each row.
    Returns the (rows, k) array of infected vertices in order.
    """
    count, k = draws.shape
    n = rows[0][0].n
    size = isqrt(n)
    nblocks = -(-n // size)
    dummy = nblocks * size  # first column of each row's empty last block
    graphs = list({id(g): g for g, _ in rows}.values())
    slab_of = {id(g): i * n for i, g in enumerate(graphs)}  # its rows of the neighbour table
    dmax = max(max(g.degrees, default=0) for g in graphs)
    # per vertex: its neighbours' columns, then their blocks
    table = np.full((len(graphs) * n, 2 * dmax), dummy, dtype=np.intp)
    for g in graphs:
        indptr, indices = g.csr
        degree = np.diff(indptr)
        slot = np.arange(indices.size) - np.repeat(indptr[:-1], degree)
        table[slab_of[id(g)] + np.repeat(np.arange(n), degree), slot] = indices
    table[:, dmax:] = table[:, :dmax] // size
    slab = np.array([slab_of[id(g)] for g, _ in rows], dtype=np.intp)
    # without edges every weight stays 1, whatever eta
    p, d = np.array([float(eta).as_integer_ratio() if g.num_edges else (0, 1) for g, eta in rows]).T
    block_base = np.arange(count) * (nblocks + 1)
    base = block_base * size
    weights = np.zeros((count, nblocks + 1, size), dtype=np.int64)
    weights.reshape(count, -1)[:, :n] = d[:, None]
    blocks = weights.sum(axis=2)
    by_block = weights.reshape(-1, size)
    weights = weights.ravel()
    flat_blocks = blocks.ravel()
    cum = np.zeros((count, nblocks + 2), dtype=np.int64)  # a leading 0, then running block sums
    flat_cum = cum.ravel()
    rows_at = np.arange(count)  # cum has one more column a row: block b of row r sums at b + r
    draws_by_step = np.ascontiguousarray(draws.T)
    p = p[:, None]
    order = np.empty((k, count), dtype=np.intp)
    shift = np.repeat(np.stack([base, block_base], axis=1), dmax, axis=1)  # table cell -> flat index
    for t in range(k):
        np.cumsum(blocks, axis=1, out=cum[:, 1:])
        # r * total in units of 1/d, floored: truncation, as it is never negative
        u = (draws_by_step[t] * cum[:, -1]).astype(np.int64)[:, None]
        b = block_base + (cum > u).argmax(axis=1) - 1  # cum[:, 0] = 0 is never past u
        inside = by_block[b]
        np.cumsum(inside, axis=1, out=inside)
        at = b * size + (inside > u - flat_cum[b + rows_at][:, None]).argmax(axis=1)
        v = at - base
        order[t] = v
        flat_blocks[b] -= weights[at]
        weights[at] = 0
        if dmax:
            near = table[slab + v]
            near += shift
            cols = near[:, :dmax]
            old = weights[cols]
            step = (old > 0) * p  # one more infected neighbour
            weights[cols] = old + step
            np.add.at(flat_blocks, near[:, dmax:].ravel(), step.ravel())
    return order.T


def _sequential_path(g: Graph, eta: float, draws: list[float]) -> list[int]:
    """The spread path for the given uniforms, one full cumulative sum per step."""
    n = g.n
    inf_neighbors = np.zeros(n, dtype=np.float64)
    weights = np.ones(n, dtype=np.float64)
    order: list[int] = []
    for r in draws:
        cum = np.cumsum(weights)
        v = int(np.searchsorted(cum, r * cum[-1], side="right"))
        order.append(v)
        weights[v] = 0.0
        for w in g.adjacency[v]:
            inf_neighbors[w] += 1.0
            if weights[w] > 0.0:
                weights[w] = 1.0 + eta * inf_neighbors[w]
    return order


def path_probability(g: Graph, eta: float, path: InfectionPath) -> float:
    """Exact probability of observing this ordered path.

    Step t contributes (1 + eta*a_t) / ((n+1-t) + eta*B_t) where a_t is
    the count of already-infected neighbors of the new vertex and B_t
    the size of the infected/uninfected edge boundary before the step.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    n = g.n
    if any(not 0 <= v < n for v in path.order):
        raise ValueError("path vertex out of range")
    infected: set[int] = set()
    boundary = 0
    prob = 1.0
    for t, v in enumerate(path.order, start=1):
        a = sum(1 for w in g.adjacency[v] if w in infected)
        prob *= (1.0 + eta * a) / ((n + 1 - t) + eta * boundary)
        infected.add(v)
        boundary += g.degree(v) - 2 * a
    return prob


def censor_uniform(
    iv: InfectionVector, c: int, seed_or_rng: int | np.random.Generator
) -> InfectionVector:
    """Censor c vertices chosen uniformly without replacement."""
    if iv.c:
        raise ValueError("snapshot is already censored")
    if not 0 <= c <= iv.n:
        raise ValueError(f"c={c} out of range for n={iv.n}")
    rng = as_generator(seed_or_rng)
    chosen = rng.permutation(iv.n)[:c]
    status = iv.status.copy()
    status[chosen] = CENSORED
    return InfectionVector(status)


def censor_fixed(iv: InfectionVector, censor_set: Iterable[int]) -> InfectionVector:
    """Censor exactly the given vertices."""
    if iv.c:
        raise ValueError("snapshot is already censored")
    idx = sorted(set(int(v) for v in censor_set))
    if idx and not (0 <= idx[0] and idx[-1] < iv.n):
        raise ValueError("censor vertex out of range")
    status = iv.status.copy()
    status[idx] = CENSORED
    return InfectionVector(status)


# the most subsets or paths an exact sampler or law enumerates
_EXACT_CAP = 10**6


def ising_sample_exact(
    g: Graph,
    eta: float,
    k: int,
    seed_or_rng: int | np.random.Generator,
) -> InfectionVector:
    """Sample a k-subset with probability proportional to exp(eta * edges inside).

    Exact enumeration over all C(n, k) subsets (guarded by _EXACT_CAP); no
    Markov chain approximation. Weights are computed relative to the
    maximum exponent so large eta cannot overflow.
    """
    n = g.n
    if not 0 < k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    total = comb(n, k)
    if total > _EXACT_CAP:
        raise GuardExceededError(
            f"exact sampling needs C({n},{k}) = {total} subset weights, cap is {_EXACT_CAP}"
        )
    rng = as_generator(seed_or_rng)
    subsets = list(itertools.combinations(range(n), k))
    eu, ev = g.edge_arrays
    exponents = np.empty(len(subsets), dtype=np.float64)
    member = np.zeros(n, dtype=bool)
    for i, sub in enumerate(subsets):
        member[list(sub)] = True
        exponents[i] = eta * int(np.count_nonzero(member[eu] & member[ev]))
        member[list(sub)] = False
    weights = np.exp(exponents - exponents.max())
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    pick = subsets[int(np.searchsorted(cum, u, side="left"))]
    return infection_from_infected(n, pick)


# -- status file IO -------------------------------------------------------------


def write_status_file(fh: IO[str], iv: InfectionVector, labels: Sequence[str] | None = None) -> None:
    """Write one ``label status`` line per vertex (status in {0, 1, *})."""
    if labels is not None and len(labels) != iv.n:
        raise ValueError("labels length must equal n")
    for v in range(iv.n):
        lab = labels[v] if labels is not None else str(v)
        fh.write(f"{lab} {_STATUS_TO_CHAR[int(iv.status[v])]}\n")


def read_status_file(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a status file into (labels, status codes).

    Blank lines and '#' comments are skipped; anything else must be a
    ``label status`` pair with status in {0, 1, *}. Duplicate labels and
    malformed lines raise ParseError with the line number.
    """
    labels: list[str] = []
    codes: list[int] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'label status', got {len(parts)} tokens")
        lab, code = parts
        if code not in _CHAR_TO_STATUS:
            raise ParseError(f"line {lineno}: status must be 0, 1 or *, got {code!r}")
        if lab in seen:
            raise ParseError(f"line {lineno}: duplicate label {lab!r}")
        seen.add(lab)
        labels.append(lab)
        codes.append(_CHAR_TO_STATUS[code])
    if not labels:
        raise ParseError("status file has no entries")
    return tuple(labels), np.asarray(codes, dtype=np.int8)


def align_to_graph(g: Graph, labels: Sequence[str], codes: np.ndarray) -> InfectionVector:
    """Reorder file statuses into the graph's vertex order by label.

    The file must cover exactly the graph's label set.
    """
    if len(labels) != g.n:
        raise ParseError(f"status file has {len(labels)} vertices, graph has {g.n}")
    status = np.zeros(g.n, dtype=np.int8)
    for lab, code in zip(labels, codes):
        try:
            status[g.index_of(lab)] = code
        except KeyError:
            raise ParseError(f"status file label {lab!r} not in graph") from None
    return InfectionVector(status)


def infection_law_exact(g: Graph, eta: float, k: int):
    """Exact snapshot law: dict mapping infected-set tuple -> probability.

    Sums path probabilities over all k! orderings of each k-subset.
    Guarded by _EXACT_CAP on the total number of paths.
    """
    n = g.n
    n_paths = comb(n, k) * factorial(k)
    if n_paths > _EXACT_CAP:
        raise GuardExceededError(
            f"exact law needs {n_paths} path evaluations, cap is {_EXACT_CAP}"
        )
    law: dict[tuple[int, ...], float] = {}
    for sub in itertools.combinations(range(n), k):
        law[sub] = fsum(
            path_probability(g, eta, InfectionPath(p))
            for p in itertools.permutations(sub)
        )
    return law
