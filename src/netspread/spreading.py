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
from fractions import Fraction
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
_STATUS_BYTES = np.frombuffer(b"01*", np.uint8)  # indexed by status code: its character's byte
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

    @classmethod
    def _trusted(cls, status: np.ndarray) -> "InfectionVector":
        """The snapshot of an int8 array of valid codes built in the package, unchecked.
        It takes ownership: a view is copied, and the array is set read-only."""
        arr = status if status.base is None else status.copy()
        arr.setflags(write=False)
        iv = object.__new__(cls)
        object.__setattr__(iv, "status", arr)
        return iv

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
        body = _STATUS_BYTES[self.status].tobytes().decode()
        return f"InfectionVector({body!r})"


def infection_from_infected(
    n: int, infected: Iterable[int], censored: Iterable[int] = ()
) -> InfectionVector:
    """Build a snapshot from index sets (must not overlap)."""
    if n < 1:
        raise ValueError("status must be a non-empty 1-d array")
    status = np.zeros(n, dtype=np.int8)
    inf_idx = list(infected)
    cen_idx = list(censored)
    for v in inf_idx + cen_idx:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
    status[inf_idx] = INFECTED
    status[cen_idx] = CENSORED
    if len(set(inf_idx) & set(cen_idx)) > 0:
        raise ValueError("a vertex cannot be both infected and censored")
    return InfectionVector._trusted(status)


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


def _nonnegative(name: str, x: float) -> None:
    """Raise ValueError unless x is a finite number >= 0 (any int is finite)."""
    if not isinstance(x, int) and not isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    if x < 0:
        raise ValueError(f"{name} must be >= 0, got {x}")


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
    The walk runs at eta rounded onto the grid of _scale, on which every
    sum is exact; any eta in practical dyadic use (0, 0.5, 1, 10, 1000)
    is its own value there.
    """
    _check_spread(g, params)
    draws = as_generator(seed_or_rng).random(params.k).tolist()
    p, d = _scale(g, params.eta)
    return InfectionPath(tuple(_blocked_path(g, p / d, draws)))


def _check_spread(g: Graph, params: SpreadParams) -> None:
    """Raise ValueError when params cannot spread on g: k passes n, or the
    spread could overflow (on a graph with edges, n + 2|E| eta bounds the
    total weight and must be finite in float64)."""
    if params.k > g.n:
        raise ValueError(f"cannot infect k={params.k} of n={g.n} vertices")
    eta = float(params.eta)
    if g.num_edges and not isfinite(g.n + 2 * g.num_edges * eta):
        raise ValueError(f"eta={eta} overflows the spread weights: n + 2|E| eta is not finite")


def _scale(g: Graph, eta: float) -> tuple[int, int]:
    """eta as p/d on the finest grid of 1/d on which every spread sum on g
    is exact: d a power of two and n d + 2|E| p < 2^53.

    Every weight 1 + eta*m is then a multiple of 1/d, and all weights
    together never pass n + 2|E| eta, so every partial sum, in any
    grouping, is exact. That is eta's own ratio (in lowest terms) when
    it fits; otherwise the largest d that fits, with p = round(eta d),
    within 1/(2d) of eta; at d = 1, p is capped at (2^53 - 1 - n) // 2|E|.
    Without edges every weight stays 1, whatever eta: (0, 1).
    """
    if not g.num_edges:
        return 0, 1
    n, edges = g.n, 2 * g.num_edges
    eta = float(eta)
    if isfinite(eta):
        p, d = eta.as_integer_ratio()
        if n * d + edges * p < 2**53:
            return p, d
        # n 2^j + 2|E| eta 2^j is below 2^53 at j = top and at least 2^53 at
        # top + 1; rounding eta 2^j moves the left side by at most |E|, so the
        # largest j that fits is top + 1, top or top - 1 (below d's exponent)
        top = d.bit_length() + 52 - (n * d + edges * p).bit_length()
        for j in range(top + 1, max(top - 2, -1), -1):
            q = round(Fraction(p, d) * 2**j)
            if n * 2**j + edges * q < 2**53:
                return q, 2**j
    return (2**53 - 1 - n) // edges, 1


def _blocked_path(g: Graph, eta: float, draws: list[float]) -> list[int]:
    """The spread path for the given uniforms, in O(sqrt(n)) per step.

    Weights sit in blocks of isqrt(n) vertices whose sums, and their
    total, are kept up to date as infections change weights. A step
    runs the cumulative sum over the block sums up to the first one
    past u, then on into that block's weights. Exact, and so the same
    pick as one sequential cumulative sum, when eta = p/d from _scale.
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


def _spread_paths(
    jobs: Iterable[tuple[Graph, float, np.random.Generator]], k: int
) -> Iterator[Sequence[int]]:
    """The infection order of each job (g, eta, rng), in job order: the
    order of simulate_spread(g, SpreadParams(eta=eta, k=k), rng).

    Jobs are read one chunk at a time: as many as fit _STACK_BYTES as
    rows on the n of the chunk's first job, and never fewer than
    _STACK_MIN_ROWS. A chunk of at least _STACK_MIN_ROWS jobs, all on
    that n, walks in lockstep (_stacked_paths), each row on the k
    uniforms of its own rng, once _check_spread accepts each distinct
    (g, eta) in it; any other chunk is one simulate_spread call per job.
    """
    jobs = iter(jobs)
    for first in jobs:
        n = first[0].n
        rows = max(_STACK_MIN_ROWS, _STACK_BYTES // (2048 + 8 * (n + isqrt(n) + 2 * k)))
        chunk = [first, *itertools.islice(jobs, rows - 1)]
        if len(chunk) < _STACK_MIN_ROWS or any(g.n != n for g, _, _ in chunk):
            yield from (simulate_spread(g, SpreadParams(eta=eta, k=k), rng).order for g, eta, rng in chunk)
            continue
        for g, eta in {(id(g), eta): (g, eta) for g, eta, _ in chunk}.values():
            _check_spread(g, SpreadParams(eta=eta, k=k))
        draws = np.array([rng.random(k) for _, _, rng in chunk])
        yield from _stacked_paths([(g, eta) for g, eta, _ in chunk], draws).tolist()


def _stacked_paths(rows: Sequence[tuple[Graph, float]], draws: np.ndarray) -> np.ndarray:
    """The _blocked_path of every row (graph, eta) for the uniforms in its
    row of draws, walked in lockstep: one infection per step for every row.

    Every graph must have the same n. A row's weights are multiples of 1/d,
    for (p, d) = _scale(g, eta), and the walk keeps them as the integers
    d + p * hits, whose block sums and cumulative sums are exact, as are
    the float sums of _blocked_path at p/d. Its step picks the first
    vertex whose running sum exceeds u = r * total; in units of 1/d, that
    is the first whose integer running sum exceeds floor(r * d * total),
    and r * d * total is the float u scaled by a power of two, so the
    paths are bit-identical.
    Neighbour updates read one CSR of every distinct graph, end to end,
    so a hub costs its own degree and no more.
    Returns the (rows, k) array of infected vertices in order.
    """
    count, k = draws.shape
    n = rows[0][0].n
    size = isqrt(n)
    nblocks = -(-n // size)
    graphs = list({id(g): g for g, _ in rows}.values())
    slab_of = {id(g): i * n for i, g in enumerate(graphs)}  # its first vertex in the joint CSR
    degrees = np.concatenate([np.diff(g.csr[0]) for g in graphs])
    ends = degrees.cumsum()  # of each vertex's neighbours in the joint indices
    indices = np.concatenate([g.csr[1] for g in graphs])
    p, d = np.array([_scale(g, eta) for g, eta in rows]).T
    block_base = np.arange(count) * nblocks
    base = block_base * size
    slab = np.array([slab_of[id(g)] for g, _ in rows]) - base  # flat index -> vertex of the joint CSR
    weights = np.zeros((count, nblocks, size), dtype=np.int64)
    weights.reshape(count, -1)[:, :n] = d[:, None]
    blocks = weights.sum(axis=2)
    by_block = weights.reshape(-1, size)
    weights = weights.ravel()
    flat_blocks = blocks.ravel()
    cum = np.zeros((count, nblocks + 1), dtype=np.int64)  # a leading 0, then running block sums
    flat_cum = cum.ravel()
    rows_at = np.arange(count)  # cum has one more column a row: block b of row r sums at b + r
    order = np.empty((k, count), dtype=np.intp)
    for t in range(k):
        blocks.cumsum(axis=1, out=cum[:, 1:])
        # r * total in units of 1/d, floored: truncation, as it is never negative
        u = (draws[:, t] * cum[:, -1]).astype(np.int64)[:, None]
        b = block_base + (cum > u).argmax(axis=1) - 1  # cum[:, 0] = 0 is never past u
        inside = by_block[b]
        inside.cumsum(axis=1, out=inside)
        at = b * size + (inside > u - flat_cum[b + rows_at][:, None]).argmax(axis=1)
        np.subtract(at, base, out=order[t])
        flat_blocks[b] -= weights[at]
        weights[at] = 0
        # the picked vertices' neighbours, one CSR slice a row, as in stats._steiner_batch
        vertex = at + slab
        deg = degrees[vertex]
        upto = deg.cumsum()
        near = indices[(ends[vertex] - upto).repeat(deg) + np.arange(upto[-1])]
        near += base.repeat(deg)
        old = weights[near]
        step = p.repeat(deg)
        step *= old > 0  # one more infected neighbour
        old += step
        weights[near] = old
        near //= size
        np.add.at(flat_blocks, near, step)
    return order.T


def path_probability(g: Graph, eta: float, path: InfectionPath) -> float:
    """Exact probability of observing this ordered path.

    Step t contributes (1 + eta*a_t) / ((n+1-t) + eta*B_t) where a_t is
    the count of already-infected neighbors of the new vertex and B_t
    the size of the infected/uninfected edge boundary before the step.
    """
    _nonnegative("eta", eta)
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
    return InfectionVector._trusted(status)


def censor_fixed(iv: InfectionVector, censor_set: Iterable[int]) -> InfectionVector:
    """Censor exactly the given vertices."""
    if iv.c:
        raise ValueError("snapshot is already censored")
    idx = sorted(set(int(v) for v in censor_set))
    if idx and not (0 <= idx[0] and idx[-1] < iv.n):
        raise ValueError("censor vertex out of range")
    status = iv.status.copy()
    status[idx] = CENSORED
    return InfectionVector._trusted(status)


# the most subsets or paths an exact sampler or law enumerates
_EXACT_CAP = 10**6
# statuses per block of masks, drawn (permtest) or enumerated (_subset_masks):
# bounds a block, its keys and the per-row temporaries its scoring allocates,
# at any number of rows
_BLOCK_STATUSES = 1 << 18


def _subset_masks(n: int, k: int, per_set: int = 1) -> Iterator[np.ndarray]:
    """Every k-subset of the n vertices, in itertools.combinations order, as
    (rows, n) bool masks in blocks of up to _BLOCK_STATUSES entries.

    Refuses with GuardExceededError, in place of the first block, when the
    C(n, k) sets times the per_set evaluations each costs pass _EXACT_CAP.
    """
    total = comb(n, k)
    if total * per_set > _EXACT_CAP:
        raise GuardExceededError(
            f"exact enumeration of C({n},{k}) = {total} sets needs {total * per_set} "
            f"evaluations, cap is {_EXACT_CAP}"
        )
    members = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    step = max(1, _BLOCK_STATUSES // n)
    for lo in range(0, total, step):
        rows = min(step, total - lo)
        block = np.zeros((rows, n), dtype=bool)
        idx = np.fromiter(members, np.intp, count=rows * k).reshape(rows, k)
        np.put_along_axis(block, idx, True, axis=1)
        yield block


def ising_sample_exact(
    g: Graph,
    eta: float,
    k: int,
    seed_or_rng: int | np.random.Generator,
) -> InfectionVector:
    """Sample a k-subset with probability proportional to exp(eta * edges inside).

    Exact enumeration over all C(n, k) subsets (guarded by _EXACT_CAP); no
    Markov chain approximation. Weights are computed relative to the
    maximum exponent so large eta cannot overflow; eta must be finite.
    """
    n = g.n
    if not 0 < k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if not isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    from .stats import _edges_batch  # the W kernel; stats imports this module

    exponents = eta * np.concatenate([_edges_batch(g, b) for b in _subset_masks(n, k)])
    cum = np.cumsum(np.exp(exponents - exponents.max()))
    pick = int(np.searchsorted(cum, as_generator(seed_or_rng).random() * cum[-1], side="left"))
    chosen = itertools.islice(itertools.combinations(range(n), k), pick, None)
    return infection_from_infected(n, next(chosen))


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
    masks = itertools.chain.from_iterable(_subset_masks(g.n, k, factorial(k)))
    subsets = (tuple(np.flatnonzero(row).tolist()) for row in masks)
    return {sub: _set_probability(g, eta, sub) for sub in subsets}


def _set_probability(g: Graph, eta: float, infected: Sequence[int]) -> float:
    """Probability that the first len(infected) infections are exactly these
    vertices: the fsum of path_probability over their orderings."""
    return fsum(path_probability(g, eta, InfectionPath(p)) for p in itertools.permutations(infected))
