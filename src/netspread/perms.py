"""Vertex permutations, permutation groups, and graph automorphisms.

A group is held by what defines it, never by its elements: the full
symmetric group and the stabilizer of one vertex in closed form, a
connected cycle's dihedral group by its cycle, and any other graph's
automorphism group by its graph, with the order counted by search when
it is first read. Every group has its exact big-integer order, so
validity checks stay exact at any n; no group is ever listed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial

import numpy as np

from .errors import GuardExceededError
from .graphs import Graph, build_graph, is_connected
from .spreading import InfectionVector

__all__ = [
    "Permutation",
    "PermGroup",
    "apply_to_infection",
    "apply_to_graph",
    "automorphism_group",
    "product_group_is_full",
    "orbit",
]

SYMMETRIC = "symmetric"
STABILIZER = "stabilizer"
DIHEDRAL = "dihedral"
GRAPH = "graph"

# automorphism_group counts a graph of no recognized structure up to this n
_N_MAX = 10


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(map(operator.index, self.image)) != list(range(n)):
            raise ValueError(f"image {self.image} is not a bijection of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    @cached_property
    def as_array(self) -> np.ndarray:
        arr = np.asarray(self.image, dtype=np.int64)
        arr.setflags(write=False)
        return arr


def apply_to_infection(pi: Permutation, iv):
    """Relabel an infection snapshot: vertex pi(v) gets v's old status."""
    if pi.n != iv.n:
        raise ValueError("permutation size does not match snapshot size")
    new = np.empty(iv.n, dtype=np.int8)
    new[pi.as_array] = iv.status
    return InfectionVector._trusted(new)


def apply_to_graph(pi: Permutation, g: Graph) -> Graph:
    """Relabel a graph: edge (u, v) becomes (pi(u), pi(v))."""
    if pi.n != g.n:
        raise ValueError("permutation size does not match graph size")
    labels = None
    if g.labels is not None:
        moved = [""] * g.n
        for v in range(g.n):
            moved[pi(v)] = g.labels[v]
        labels = tuple(moved)
    return build_graph(g.n, [(pi(u), pi(v)) for u, v in g.edges], labels=labels)


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on {0..n-1}.

    kind is "symmetric" (all of S_n), "stabilizer" (every permutation
    fixing one vertex), "dihedral" (the 2n rotations and reflections of
    the connected cycle `graph`), or "graph" (every permutation
    preserving the edge set of `graph`). order is the exact group order
    as a Python int, found when first read: a graph group's by search.

    A dihedral or graph group keeps only its graph: contains checks the
    graph's edges, a dihedral group moves every vertex to every other,
    and a graph group's orbits are found by search.
    """

    n: int
    kind: str
    fixed_vertex: int | None = None
    graph: Graph | None = None

    def __post_init__(self) -> None:
        if self.kind in (DIHEDRAL, GRAPH):
            if self.graph is None or self.graph.n != self.n:
                raise ValueError(f"{self.kind} group needs a graph on its n vertices")
        elif self.kind not in (SYMMETRIC, STABILIZER):
            raise ValueError(f"unknown group kind {self.kind!r}")
        elif self.graph is not None:
            raise ValueError(f"{self.kind} group takes no graph")
        elif self.kind == STABILIZER and (self.fixed_vertex is None or not 0 <= self.fixed_vertex < self.n):
            raise ValueError("stabilizer needs a fixed vertex in range")

    # -- constructors -----------------------------------------------------

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        return cls(n=n, kind=SYMMETRIC)

    @classmethod
    def vertex_stabilizer(cls, n: int, v: int) -> "PermGroup":
        return cls(n=n, kind=STABILIZER, fixed_vertex=v)

    # -- queries -----------------------------------------------------------

    @cached_property
    def order(self) -> int:
        if self.kind == GRAPH:
            return _count(*_coloring(self.n, [self.graph]))
        return {SYMMETRIC: factorial(self.n), STABILIZER: factorial(self.n - 1), DIHEDRAL: 2 * self.n}[self.kind]

    @property
    def is_full_symmetric(self) -> bool:
        """Whether the group is S_n: a graph's iff it is empty or complete."""
        if self.kind in (DIHEDRAL, GRAPH):
            return self.graph.num_edges in (0, comb(self.n, 2))
        return self.kind == SYMMETRIC or self.n == 1

    def contains(self, pi: Permutation) -> bool:
        if pi.n != self.n:
            return False
        if self.kind == SYMMETRIC:
            return True
        if self.kind == STABILIZER:
            return pi(self.fixed_vertex) == self.fixed_vertex
        return _keeps_edges(self.graph, pi.image)

    def orbit_of(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        if self.kind in (SYMMETRIC, DIHEDRAL):
            return frozenset(range(self.n))
        if self.kind == STABILIZER:
            if v == self.fixed_vertex:
                return frozenset({v})
            return frozenset(w for w in range(self.n) if w != self.fixed_vertex)
        return frozenset(_orbit(*_coloring(self.n, [self.graph]), (), v))


def _keeps_edges(g: Graph, image) -> bool:
    """Whether the bijection with this image tuple sends every edge of g
    to an edge, and so preserves g's edge set."""
    adj = g.adjacency
    return all(image[v] in adj[image[u]] for u, v in g.edges)


def orbit(group: PermGroup, v: int) -> frozenset[int]:
    """The orbit of vertex v under the group."""
    return group.orbit_of(v)


# -- automorphisms ------------------------------------------------------------


def automorphism_group(g: Graph) -> PermGroup:
    """The full automorphism group of g.

    Structured families (empty, complete, star, cycle) are recognized and
    returned in closed form at any size. Any other graph, guarded at
    _N_MAX vertices, becomes a "graph" group whose order is counted when
    first read, not enumerated: pinning the base 0, 1, ... in turn, the
    order is the product of each base vertex's orbit under the
    automorphisms that fix the earlier ones, and each orbit member costs
    at most one backtracking search, which stops at the first
    automorphism sending the vertex there.
    """
    n, m = g.n, g.num_edges
    if m == 0 or m == comb(n, 2):
        return PermGroup.symmetric(n)
    degs = g.degrees
    if n >= 3:
        hubs = [v for v in range(n) if degs[v] == n - 1]
        if len(hubs) == 1 and all(degs[v] == 1 for v in range(n) if v != hubs[0]):
            return PermGroup.vertex_stabilizer(n, hubs[0])
        if all(d == 2 for d in degs) and is_connected(g):
            return PermGroup(n=n, kind=DIHEDRAL, graph=g)
    if n > _N_MAX:
        raise GuardExceededError(
            f"automorphism search guarded at n_max={_N_MAX}, got n={n} "
            "with no recognized structure"
        )
    return PermGroup(n=n, kind=GRAPH, graph=g)


def _coloring(n: int, graphs) -> tuple[list[list[int]], list[list[int]]]:
    """Color classes and pair codes whose preservers are the common automorphisms.

    Bit i of code[u][v] is set when (u, v) is an edge of graphs[i]. A
    vertex's color is its degree in each graph, so a permutation
    preserving colors and codes preserves every edge set. same[v] lists
    the vertices of v's color in increasing order.
    """
    code = [[0] * n for _ in range(n)]
    for bit, g in enumerate(graphs):
        for u, v in g.edges:
            code[u][v] |= 1 << bit
            code[v][u] |= 1 << bit
    classes: dict[tuple, list[int]] = {}
    same = [classes.setdefault(tuple(g.degrees[v] for g in graphs), []) for v in range(n)]
    for v in range(n):
        same[v].append(v)
    return same, code


def _search(code, order, cands) -> tuple[int, ...] | None:
    """The image of the first code-preserving permutation sending each
    order[t] to one of cands[t], None when there is none.

    Vertices are placed in `order`, each trying its candidates in the
    order listed, and an image must keep the vertex's code to every
    vertex placed before it.
    """
    n = len(order)
    placed = [order[:t] for t in range(n)]
    image = [-1] * n
    used = [False] * n

    def extend(t: int) -> bool:
        if t == n:
            return True
        v = order[t]
        row_v = code[v]
        for w in cands[t]:
            if used[w]:
                continue
            row_w = code[w]
            for u in placed[t]:
                if row_v[u] != row_w[image[u]]:
                    break
            else:
                image[v] = w
                used[w] = True
                if extend(t + 1):
                    return True
                used[w] = False
        image[v] = -1
        return False

    return tuple(image) if extend(0) else None


def _orbit(same, code, fixed, v: int) -> set[int]:
    """The orbit of v under the color- and code-preserving permutations
    that fix every vertex in fixed.

    One search per candidate image w stops at the first permutation
    sending v to w. The orbit so far is closed under every permutation
    found, so a candidate it already holds needs no search.
    """
    fixed = list(fixed)
    order = fixed + [v] + [u for u in range(len(same)) if u != v and u not in fixed]
    cands = [[u] for u in fixed] + [[]] + [same[u] for u in order[len(fixed) + 1 :]]
    found: list[tuple[int, ...]] = []
    reached = {v}
    for w in same[v]:
        if w in reached or w in fixed:
            continue
        cands[len(fixed)] = [w]
        hit = _search(code, order, cands)
        if hit is not None:
            found.append(hit)
            todo = list(reached)
            while todo:
                x = todo.pop()
                for image in found:
                    y = image[x]
                    if y not in reached:
                        reached.add(y)
                        todo.append(y)
    return reached


def _count(same, code) -> int:
    """Order of the color- and code-preserving group, by orbit-stabilizer.

    |G| = |orbit of 0| * |G fixing 0|, applied along the base 0, 1, ...,
    n - 2; the automorphisms fixing all but one vertex fix it too.
    """
    order = 1
    for i in range(len(same) - 1):
        order *= len(_orbit(same, code, range(i), i))
    return order


# -- validity condition --------------------------------------------------------


def product_group_is_full(p1: PermGroup, p0: PermGroup) -> bool:
    """Whether the products {a b} over a in p1, b in p0 are all of S_n,
    that is whether |p1 p0| = |p1| |p0| / |p1 ∩ p0| is n! (exact integers).

    A stabilizer A of a vertex v meets the other side B in B_v, so by
    orbit-stabilizer |A B| = (n-1)! |v^B|: only the orbit of v is found.
    Two dihedral or graph groups of one edge set multiply to that group,
    not S_n; a pair with |p1| |p0| < n! falls short of it (two dihedral
    groups do from n = 5 on, as 4n^2 < n!); any other pair counts
    |p1 ∩ p0| as the permutations preserving both graphs' edge sets.
    """
    if p1.n != p0.n:
        raise ValueError("groups act on different vertex sets")
    n = p1.n
    if p1.is_full_symmetric or p0.is_full_symmetric:
        return True
    for a, b in ((p1, p0), (p0, p1)):
        if a.kind == STABILIZER:
            return len(b.orbit_of(a.fixed_vertex)) == n
    if p1.graph.edges == p0.graph.edges or p1.order * p0.order < factorial(n):
        return False
    num, inter = p1.order * p0.order, _count(*_coloring(n, [p1.graph, p0.graph]))
    if num % inter:
        raise RuntimeError("intersection does not divide product order")
    return num // inter == factorial(n)
