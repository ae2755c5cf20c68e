"""Independent brute-force oracles the tests check the package against.

Nothing here imports package internals beyond the graph and snapshot
containers, the status codes and one exception type; every
computation re-derives its answer from first principles (recursive
enumeration, subset search, permutation filtering), through networkx's
isomorphism matcher and shortest paths, or through the per-snapshot
implementations of W, R, T, C and orbit that the package's batched
kernels replaced, so agreement with the package is evidence, not
tautology. relabeled_rows is the per-draw loop of the key draw that
the package's blocked subset draw must reproduce.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import comb, fsum, inf

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from netspread.errors import DisconnectedTerminalsError
from netspread.graphs import Graph
from netspread.spreading import CENSORED, INFECTED, UNINFECTED, InfectionVector


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


def relabeled_rows(status: np.ndarray, B: int, rng, positions=None) -> np.ndarray:
    """B relabelings of a (..., n) status array, drawn one at a time.

    Per draw and snapshot in row-major order: one uint32 key per vertex,
    or per vertex at `positions` when given, drawn again at once while
    the k-th and (k+1)-th smallest keys are equal (k the snapshot's
    infected count). The vertices in key order, ties by vertex number,
    take the snapshot's k infected statuses, then its censored ones,
    then the uninfected ones.
    """
    rows = []
    for _ in range(B):
        row = status.copy()
        for snap in row.reshape(-1, status.shape[-1]):
            movable = np.arange(snap.size) if positions is None else np.asarray(positions)
            k = int(np.count_nonzero(snap[movable] == INFECTED))
            c = int(np.count_nonzero(snap[movable] == CENSORED))
            while True:
                keys = rng.integers(0, 1 << 32, size=movable.size, dtype=np.uint32)
                ordered = sorted(keys.tolist())
                if k in (0, movable.size) or ordered[k - 1] != ordered[k]:
                    break
            by_key = movable[np.argsort(keys, kind="stable")]
            snap[by_key] = UNINFECTED
            snap[by_key[:k]] = INFECTED
            snap[by_key[k : k + c]] = CENSORED
        rows.append(row)
    return np.array(rows, dtype=status.dtype)


# -- the statistics, per snapshot ---------------------------------------------------
# The package's per-row W, R, C and orbit before one batched kernel per
# statistic replaced them (R now from networkx distances), kept as the
# references the kernels must equal value for value and error for error.


def edges_within(g: Graph, iv: InfectionVector) -> int:
    """Number of edges with both endpoints infected (censored never count)."""
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    s = iv.status
    return sum(1 for u, v in g.edges if s[u] == INFECTED and s[v] == INFECTED)


def infection_radius(g: Graph, iv: InfectionVector) -> int | float:
    """min over centers v of max over infected u of d(u, v); inf when no
    vertex is reachable from every infected one."""
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    infected = [int(u) for u in np.flatnonzero(iv.status == INFECTED)]
    if not infected:
        raise ValueError("infection radius needs at least one infected vertex")
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    worst: dict[int, list[int]] = {}
    for u in infected:
        for v, d in nx.single_source_shortest_path_length(ref, u).items():
            worst.setdefault(v, []).append(d)
    covering = [max(ds) for ds in worst.values() if len(ds) == len(infected)]
    return min(covering) if covering else inf


def center_indicator(iv: InfectionVector, center: int) -> int:
    """1 when the designated center is infected, else 0 (censored counts 0)."""
    if not 0 <= center < iv.n:
        raise ValueError(f"center {center} out of range")
    return int(iv.status[center] == INFECTED)


def orbit_count(iv: InfectionVector, vertex_orbit) -> int:
    """Number of infected vertices inside the given orbit."""
    idx = list(vertex_orbit)
    if any(not 0 <= v < iv.n for v in idx):
        raise ValueError("orbit vertex out of range")
    return sum(int(iv.status[v] == INFECTED) for v in idx)


def statistic(spec, iv: InfectionVector) -> int | float:
    """The raw value of a StatisticSpec on one snapshot, from the references here."""
    if spec.kind == "edges_within":
        return edges_within(spec.graph, iv)
    if spec.kind == "infection_radius":
        return infection_radius(spec.graph, iv)
    if spec.kind == "steiner_weight":
        return steiner_weight(spec.graph, iv)
    if spec.kind == "center_indicator":
        return center_indicator(iv, spec.center)
    return orbit_count(iv, spec.vertex_orbit)


def score(spec, iv: InfectionVector) -> float:
    """statistic() on the oriented evidence scale: radius and tree weight negated."""
    value = float(statistic(spec, iv))
    return -value if spec.kind in ("infection_radius", "steiner_weight") else value


# -- Mehlhorn's Steiner approximation, per snapshot -------------------------------
# The package's per-row T before the batched kernel replaced it, kept as the
# reference the kernel must equal value for value and error for error.


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
