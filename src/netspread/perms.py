"""Vertex permutations, permutation groups, and graph automorphisms.

Groups come in three flavors: explicit element lists (a cycle's
rotations and reflections), the automorphism group of a graph that
keeps only the graph and counts its order without listing its elements,
and symbolic forms for groups too large to materialize (the full
symmetric group, the stabilizer of one vertex). Every group keeps its
exact big-integer order, so validity checks stay exact at any n; no
group is ever listed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
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
EXPLICIT = "explicit"
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

    kind is "explicit" (elements materialized), "graph" (every
    permutation preserving the edge set of `graph`), "symmetric" (all of
    S_n), or "stabilizer" (every permutation fixing one vertex).
    order is always the exact group order as a Python int.

    A graph group keeps only its graph: order, orbit_of and contains are
    answered from the graph by search.
    """

    n: int
    order: int
    kind: str
    elements: tuple[Permutation, ...] | None = field(default=None, compare=False)
    fixed_vertex: int | None = None
    graph: Graph | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind == EXPLICIT:
            if self.elements is None or len(self.elements) != self.order:
                raise ValueError("explicit group must carry exactly `order` elements")
        elif self.kind == GRAPH:
            if self.graph is None or self.graph.n != self.n:
                raise ValueError("graph group needs a graph on its n vertices")
        elif self.kind == SYMMETRIC:
            if self.order != factorial(self.n):
                raise ValueError("symmetric group order must be n!")
        elif self.kind == STABILIZER:
            if self.fixed_vertex is None or not 0 <= self.fixed_vertex < self.n:
                raise ValueError("stabilizer needs a fixed vertex in range")
            if self.order != factorial(self.n - 1):
                raise ValueError("stabilizer order must be (n-1)!")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def explicit(cls, n: int, elements) -> "PermGroup":
        elems = tuple(elements)
        return cls(n=n, order=len(elems), kind=EXPLICIT, elements=elems)

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        return cls(n=n, order=factorial(n), kind=SYMMETRIC)

    @classmethod
    def vertex_stabilizer(cls, n: int, v: int) -> "PermGroup":
        return cls(n=n, order=factorial(n - 1), kind=STABILIZER, fixed_vertex=v)

    # -- queries -----------------------------------------------------------

    @property
    def is_full_symmetric(self) -> bool:
        return self.kind == SYMMETRIC or self.order == factorial(self.n)

    @cached_property
    def _image_set(self) -> frozenset[tuple[int, ...]]:
        assert self.elements is not None
        return frozenset(p.image for p in self.elements)

    def contains(self, pi: Permutation) -> bool:
        if pi.n != self.n:
            return False
        if self.kind == SYMMETRIC:
            return True
        if self.kind == STABILIZER:
            return pi(self.fixed_vertex) == self.fixed_vertex
        if self.kind == GRAPH:
            # a bijection sending every edge to an edge preserves the edge set
            adj = self.graph.adjacency
            return all(pi(v) in adj[pi(u)] for u, v in self.graph.edges)
        return pi.image in self._image_set

    def orbit_of(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        if self.kind == SYMMETRIC:
            return frozenset(range(self.n))
        if self.kind == STABILIZER:
            if v == self.fixed_vertex:
                return frozenset({v})
            return frozenset(w for w in range(self.n) if w != self.fixed_vertex)
        if self.kind == GRAPH:
            return frozenset(_orbit(*_coloring(self.n, [self.graph]), (), v))
        # explicit groups are closed, so one sweep gives the full orbit
        return frozenset(p(v) for p in self.elements)


def orbit(group: PermGroup, v: int) -> frozenset[int]:
    """The orbit of vertex v under the group."""
    return group.orbit_of(v)


# -- automorphisms ------------------------------------------------------------


def automorphism_group(g: Graph) -> PermGroup:
    """The full automorphism group of g.

    Structured families (empty, complete, star, cycle) are recognized and
    returned in closed form at any size. Any other graph, guarded at
    _N_MAX vertices, becomes a "graph" group whose order is counted, not
    enumerated: pinning the base 0, 1, ... in turn, the order is the
    product of each base vertex's orbit under the automorphisms that fix
    the earlier ones, and each orbit member costs at most one
    backtracking search, which stops at the first automorphism sending
    the vertex there.
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
            return _dihedral_group(g)
    if n > _N_MAX:
        raise GuardExceededError(
            f"automorphism search guarded at n_max={_N_MAX}, got n={n} "
            "with no recognized structure"
        )
    return PermGroup(n=n, order=_count(*_coloring(n, [g])), kind=GRAPH, graph=g)


def _dihedral_group(g: Graph) -> PermGroup:
    """Rotations and reflections of a single cycle, built along its order."""
    n = g.n
    order = [0, g.adjacency[0][0]]
    while len(order) < n:
        a, b = order[-2], order[-1]
        nxt = [w for w in g.adjacency[b] if w != a]
        order.append(nxt[0])
    elems = []
    for s in range(n):
        rot = [0] * n
        ref = [0] * n
        for i in range(n):
            rot[order[i]] = order[(i + s) % n]
            ref[order[i]] = order[(s - i) % n]
        elems.append(Permutation(tuple(rot)))
        elems.append(Permutation(tuple(ref)))
    return PermGroup.explicit(n, elems)


def _coloring(n: int, graphs, fixed=()) -> tuple[list[list[int]], list[list[int]]]:
    """Color classes and pair codes whose preservers are the common automorphisms.

    Bit i of code[u][v] is set when (u, v) is an edge of graphs[i]. A
    vertex's color is its degree in each graph, and each vertex in fixed
    gets a color of its own, so a permutation preserving colors and
    codes preserves every edge set and fixes every vertex in fixed.
    same[v] lists the vertices of v's color in increasing order.
    """
    code = [[0] * n for _ in range(n)]
    for bit, g in enumerate(graphs):
        for u, v in g.edges:
            code[u][v] |= 1 << bit
            code[v][u] |= 1 << bit
    classes: dict[tuple, list[int]] = {}
    same = [
        classes.setdefault((tuple(g.degrees[v] for g in graphs), v if v in fixed else -1), [])
        for v in range(n)
    ]
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
    """Whether the products {a b} over a in p1, b in p0 are all of S_n.

    Uses |p1 p0| = |p1| |p0| / |p1 ∩ p0| with exact integers; the
    product set is the whole symmetric group iff that count equals n!.
    """
    if p1.n != p0.n:
        raise ValueError("groups act on different vertex sets")
    n = p1.n
    if p1.is_full_symmetric or p0.is_full_symmetric:
        return True
    inter = _intersection_order(p1, p0)
    num = p1.order * p0.order
    if num % inter:
        raise RuntimeError("intersection does not divide product order")
    return num // inter == factorial(n)


def _intersection_order(a: PermGroup, b: PermGroup) -> int:
    # symmetric sides were handled by the caller
    if a.kind == STABILIZER and b.kind == STABILIZER:
        if a.fixed_vertex == b.fixed_vertex:
            return factorial(a.n - 1)
        return factorial(a.n - 2)
    if EXPLICIT in (a.kind, b.kind):
        # iterate the explicit side (the smaller, if both) and
        # membership-test the other
        if a.kind != EXPLICIT or (b.kind == EXPLICIT and b.order < a.order):
            a, b = b, a
        return sum(1 for p in a.elements if b.contains(p))
    # graph groups and at most one stabilizer: count the permutations
    # preserving every edge set, with the stabilized vertex pinned
    graphs = [x.graph for x in (a, b) if x.kind == GRAPH]
    fixed = [x.fixed_vertex for x in (a, b) if x.kind == STABILIZER]
    return _count(*_coloring(a.n, graphs, fixed))
