"""Independent brute-force oracles the tests check the package against.

Nothing here imports package internals beyond the Graph container; every
computation re-derives its answer from first principles (recursive
enumeration, subset search, permutation filtering) or through networkx's
isomorphism matcher, so agreement with the package is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
from math import comb, fsum

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match


def spread_law(g, eta: float, k: int) -> dict[frozenset, float]:
    """Exact law of the infected set after k sequential infections.

    Recomputes every step probability directly: an uninfected vertex's
    weight is 1 + eta * (infected neighbors), normalized over all
    currently uninfected vertices.
    """
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]
    law: dict[frozenset, float] = {}

    def recurse(infected: tuple, prob: float) -> None:
        if len(infected) == k:
            key = frozenset(infected)
            law[key] = law.get(key, 0.0) + prob
            return
        inside = set(infected)
        weights = {}
        for v in range(n):
            if v not in inside:
                weights[v] = 1.0 + eta * sum(1 for u in adj[v] if u in inside)
        total = fsum(weights.values())
        for v, w in weights.items():
            recurse(infected + (v,), prob * (w / total))

    recurse((), 1.0)
    return law


def uniform_subset_law(n: int, k: int) -> dict[frozenset, float]:
    """Uniform law over k-subsets (what uniform relabeling induces)."""
    p = 1.0 / comb(n, k)
    return {frozenset(s): p for s in itertools.combinations(range(n), k)}


def statistic_law(law: dict[frozenset, float], stat_fn) -> dict[float, float]:
    """Push a set-law through a statistic of the infected set."""
    out: dict[float, float] = {}
    for subset, p in law.items():
        v = float(stat_fn(subset))
        out[v] = out.get(v, 0.0) + p
    return out


def total_variation(a: dict[float, float], b: dict[float, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(x, 0.0) - b.get(x, 0.0)) for x in keys)


def steiner_optimum(g, terminals) -> int:
    """Exact Steiner weight: smallest connected superset of the terminals.

    Enumerates vertex supersets by size; tree weight is |S| - 1.
    Exponential; intended for n <= 10.
    """
    terms = sorted(set(terminals))
    if len(terms) <= 1:
        return 0
    n = g.n
    others = [v for v in range(n) if v not in terms]
    adj = [set(g.neighbors(v)) for v in range(n)]

    def connected(vertices: set) -> bool:
        start = next(iter(vertices))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u] & vertices:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vertices)

    for extra in range(len(others) + 1):
        for added in itertools.combinations(others, extra):
            candidate = set(terms) | set(added)
            if connected(candidate):
                return len(candidate) - 1
    raise AssertionError("terminals not connected in any superset")


def brute_automorphisms(g) -> set[tuple[int, ...]]:
    """All relabelings preserving the edge set, by filtering S_n."""
    edges = {frozenset(e) for e in g.edges}
    autos = set()
    for image in itertools.permutations(range(g.n)):
        if {frozenset((image[u], image[v])) for u, v in g.edges} == edges:
            autos.add(image)
    return autos


def nx_orbit(g, v: int, fixed=()) -> set[int]:
    """Vertices w that some automorphism fixing every vertex in fixed maps v to.

    Each w outside fixed is one networkx isomorphism test of g onto
    itself: every fixed vertex carries a node color of its own on both
    sides, and v on one side and w on the other share one more, so a
    color-preserving isomorphism is exactly such an automorphism. Node
    degrees are matched too, and a w of another degree than v is ruled
    out without a test (an isomorphism keeps degrees anyway): that
    spares the matcher futile branches among isolated vertices.
    """
    base = nx.Graph()
    base.add_nodes_from(range(g.n), pin=-1)
    base.add_edges_from(g.edges)
    for x in base:
        base.nodes[x]["deg"] = base.degree(x)
    for u in fixed:
        base.nodes[u]["pin"] = u
    match = categorical_node_match(["pin", "deg"], [-1, 0])
    out = set()
    for w in set(range(g.n)) - set(fixed):
        if base.degree(w) != base.degree(v):
            continue
        a, b = base.copy(), base.copy()
        a.nodes[v]["pin"] = b.nodes[w]["pin"] = g.n
        if GraphMatcher(a, b, node_match=match).is_isomorphic():
            out.add(w)
    return out


def nx_automorphism_order(g) -> int:
    """|Aut(g)| by orbit-stabilizer along the base 0, 1, ..., n - 1.

    |G| = |orbit of v in G| * |G fixing v|, with each orbit taken in the
    automorphisms that fix the earlier base vertices (nx_orbit).
    """
    order = 1
    for v in range(g.n):
        order *= len(nx_orbit(g, v, fixed=range(v)))
    return order


def hypergeometric_pmf(n: int, good: int, draws: int, x: int) -> float:
    """P(X = x) drawing `draws` without replacement from `good` marked of n."""
    if x < 0 or x > draws or x > good or draws - x > n - good:
        return 0.0
    return comb(good, x) * comb(n - good, draws - x) / comb(n, draws)


def cascade_orderings(g, k: int, u: int, v: int) -> int:
    """Growth orderings containing u and v, by direct permutation filtering."""
    if k >= g.n or k < 2:
        return 0
    adj = [set(g.neighbors(w)) for w in range(g.n)]
    count = 0
    for subset in itertools.combinations(range(g.n), k):
        if u not in subset or v not in subset:
            continue
        for order in itertools.permutations(subset):
            ok = True
            placed: set[int] = set()
            for i, w in enumerate(order):
                if i and not (adj[w] & placed):
                    ok = False
                    break
                placed.add(w)
            count += ok
    return count


def path_law_probability(g, eta: float, order: tuple[int, ...]) -> float:
    """Probability of one ordered infection path, recomputed from scratch."""
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]
    inside: set[int] = set()
    prob = 1.0
    for v in order:
        weights = {
            x: 1.0 + eta * sum(1 for u in adj[x] if u in inside)
            for x in range(n)
            if x not in inside
        }
        prob *= weights[v] / fsum(weights.values())
        inside.add(v)
    return prob


def spread_path_reference(g, eta: float, k: int, rng) -> tuple[int, ...]:
    """One sequential spread path: one rng.random() per step, walked against
    the running sum of the weights in vertex order, taking the first vertex
    whose running sum exceeds the uniform times the total."""
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    weights = [1.0] * n
    hits = [0] * n
    order = []
    for _ in range(k):
        r = rng.random()
        running = []
        acc = 0.0
        for w in weights:
            acc += w
            running.append(acc)
        u = r * acc
        v = next(i for i, s in enumerate(running) if s > u)
        order.append(v)
        weights[v] = 0.0
        for x in adj[v]:
            hits[x] += 1
            if weights[x] > 0.0:
                weights[x] = 1.0 + eta * hits[x]
    return tuple(order)
