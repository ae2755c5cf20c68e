"""Independent oracles the benchmark checks netspread's outputs against.

Each oracle re-derives its answer without netspread's code paths: W by
a pure-Python recount over the edge list, R by networkx BFS, T through
bounds from networkx's Steiner tree, automorphism coverage by networkx
isomorphism tests, and Clopper-Pearson bounds by bisection on the
binomial distribution. :func:`self_check` holds them against the
brute-force oracles in ``tests/oracles.py`` on small graphs.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from math import comb, exp, factorial, inf, lgamma, log, log1p
from pathlib import Path

import networkx as nx
from networkx.algorithms import isomorphism
from networkx.algorithms.approximation import steiner_tree

INFECTED, CENSORED = 1, 2


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def edges_within(edges, status) -> int:
    """W: edges with both endpoints infected, counted one by one."""
    return sum(1 for u, v in edges if status[u] == INFECTED and status[v] == INFECTED)


def radius(g: nx.Graph, status) -> float:
    """R: min over centres of the max BFS distance to an infected vertex."""
    worst = {v: 0 for v in g}
    for u in (v for v in g if status[v] == INFECTED):
        dist = nx.single_source_shortest_path_length(g, u)
        for v in g:
            worst[v] = max(worst[v], dist.get(v, inf))
    return min(worst.values())


def steiner_bounds(g: nx.Graph, status) -> tuple[float, float]:
    """Bounds (k - 1, 2 w) on a 2-approximate Steiner weight, w from networkx.

    w is the weight of an actual Steiner tree, so it is at least the
    optimum, and any 2-approximation lies at or below 2 w. Terminals in
    different components have no tree: both bounds are inf.
    """
    terminals = [v for v in g if status[v] == INFECTED]
    if len(terminals) <= 1:
        return 0.0, 0.0
    comp = nx.node_connected_component(g, terminals[0])
    if any(t not in comp for t in terminals):
        return inf, inf
    w = steiner_tree(g.subgraph(comp), terminals).number_of_edges()
    return float(len(terminals) - 1), 2.0 * w


def automorphism_order(n: int, edge_sets) -> int:
    """Order of the group preserving every edge set, by orbit-stabilizer.

    |G| = |orbit of v| * |stabilizer of v|, applied along v = 0, 1, ...
    with the earlier vertices pinned by distinct colours; each orbit is
    found by asking networkx whether an isomorphism maps v to w.
    """
    union = set().union(*edge_sets)
    g = nx_graph(n, union)
    for u, v in union:
        g[u][v]["c"] = tuple((u, v) in es or (v, u) in es for es in edge_sets)
    edge_match = isomorphism.categorical_edge_match("c", None)
    node_match = isomorphism.categorical_node_match("col", None)
    order = 1
    pinned: dict[int, int] = {}
    for v in range(n):
        size = 0
        for w in range(n):
            if w in pinned:
                continue
            a, b = g.copy(), g.copy()
            for h in (a, b):
                for x in h:
                    h.nodes[x]["col"] = pinned.get(x, -1)
            a.nodes[v]["col"] = -2
            b.nodes[w]["col"] = -2
            gm = isomorphism.GraphMatcher(a, b, node_match=node_match, edge_match=edge_match)
            size += gm.is_isomorphic()
        order *= size
        pinned[v] = v
    return order


def _symmetric(n: int, edges) -> bool:
    m = len(set(map(frozenset, edges)))
    return m == 0 or m == comb(n, 2)


def coverage_verdict(n: int, edges0, edges1) -> bool | None:
    """Does Aut(G1) Aut(G0) cover all n! relabelings?

    Uses |Aut(G1)| |Aut(G0)| / |Aut(G1) & Aut(G0)| = n!. A graph with no
    edges or every edge is preserved by all n! relabelings, which settles
    the answer at any n; otherwise None above n = 12.
    """
    if _symmetric(n, edges0) or _symmetric(n, edges1):
        return True
    if n > 12:
        return None
    e0 = {tuple(sorted(e)) for e in edges0}
    e1 = {tuple(sorted(e)) for e in edges1}
    a0 = automorphism_order(n, [e0])
    a1 = automorphism_order(n, [e1])
    both = automorphism_order(n, [e0, e1])
    return a0 * a1 // both == factorial(n)


def orbit_of(n: int, edges, v: int) -> set[int]:
    """Vertices some automorphism maps v to, by networkx enumeration."""
    g = nx_graph(n, edges)
    return {m[v] for m in isomorphism.GraphMatcher(g, g).isomorphisms_iter()}


# -- Clopper-Pearson ---------------------------------------------------------------


def _binom_cdf(x: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if x >= n else 0.0
    lp, lq = log(p), log1p(-p)
    return sum(
        exp(lgamma(n + 1) - lgamma(i + 1) - lgamma(n - i + 1) + i * lp + (n - i) * lq)
        for i in range(x + 1)
    )


def _bisect(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Root of an increasing f on [lo, hi]."""
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def cp_lower(x: int, n: int, tail: float) -> float:
    """One-sided Clopper-Pearson lower bound: P(X >= x; p) = tail."""
    if x == 0:
        return 0.0
    return _bisect(lambda p: (1.0 - _binom_cdf(x - 1, n, p)) - tail)


def cp_upper(x: int, n: int, tail: float) -> float:
    """One-sided Clopper-Pearson upper bound: P(X <= x; p) = tail."""
    if x == n:
        return 1.0
    return _bisect(lambda p: tail - _binom_cdf(x, n, p))


# -- self-check ------------------------------------------------------------------


def _load_brute(root: Path):
    spec = importlib.util.spec_from_file_location("netspread_brute_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _Adj:
    """The two members of a graph that tests/oracles.py reads."""

    def __init__(self, n: int, edges) -> None:
        self.n = n
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self._adj = {v: set() for v in range(n)}
        for u, v in self.edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    def neighbors(self, v: int):
        return tuple(sorted(self._adj[v]))


def _small_graphs(rng: random.Random):
    """Named small graphs plus random ones, all with n <= 8."""
    yield 6, [(i, (i + 1) % 6) for i in range(6)]          # cycle
    yield 6, [(0, i) for i in range(1, 6)]                  # star
    yield 6, [(i, i + 1) for i in range(5)]                 # path
    yield 7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]       # disconnected
    yield 8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for n in (5, 6, 7, 8):
        pairs = list(itertools.combinations(range(n), 2))
        yield n, [e for e in pairs if rng.random() < 0.4]


def self_check(root: Path) -> list[str]:
    """Compare each oracle with brute force on n <= 8; return mismatches."""
    brute = _load_brute(root)
    rng = random.Random(20170522)
    bad: list[str] = []
    graphs = list(_small_graphs(rng))
    for n, edges in graphs:
        g = nx_graph(n, edges)
        adj = _Adj(n, edges)
        for _ in range(4):
            k = rng.randint(1, n - 1)
            status = [0] * n
            for v in rng.sample(range(n), k):
                status[v] = INFECTED
            pairs = sum(
                1 for u, v in itertools.combinations(range(n), 2)
                if status[u] == status[v] == INFECTED and v in adj._adj[u]
            )
            if edges_within(edges, status) != pairs:
                bad.append(f"W recount on n={n}")
            # R against all-pairs distances by repeated relaxation
            dist = [[0 if a == b else (1 if b in adj._adj[a] else inf) for b in range(n)] for a in range(n)]
            for m in range(n):
                for a in range(n):
                    for b in range(n):
                        dist[a][b] = min(dist[a][b], dist[a][m] + dist[m][b])
            infected = [v for v in range(n) if status[v] == INFECTED]
            want_r = min(max(dist[u][c] for u in infected) for c in range(n))
            if radius(g, status) != want_r:
                bad.append(f"R by BFS on n={n}")
            lo, hi = steiner_bounds(g, status)
            if lo != inf:
                opt = brute.steiner_optimum(adj, infected)
                if not lo <= opt <= hi / 2.0 <= 2 * opt:
                    bad.append(f"Steiner bounds on n={n}")
        autos = brute.brute_automorphisms(adj)
        if automorphism_order(n, [set(adj.edges)]) != len(autos):
            bad.append(f"automorphism order on n={n}")
    # coverage verdicts on pairs, against the brute-force product count
    for (n0, e0), (n1, e1) in itertools.combinations(graphs, 2):
        if n0 != n1 or n0 > 7:
            continue
        a0 = brute.brute_automorphisms(_Adj(n0, e0))
        a1 = brute.brute_automorphisms(_Adj(n1, e1))
        want = len(a0) * len(a1) // len(a0 & a1) == factorial(n0)
        if coverage_verdict(n0, e0, e1) != want:
            bad.append(f"coverage verdict on n={n0}")
    # Clopper-Pearson bounds meet their defining tail equations, summed directly
    def direct_cdf(x: int, n: int, p: float) -> float:
        return sum(comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(x + 1))

    tail = 1e-3
    for x, n in ((0, 50), (3, 50), (17, 200), (199, 200)):
        lo, hi = cp_lower(x, n, tail), cp_upper(x, n, tail)
        if x and abs(1.0 - direct_cdf(x - 1, n, lo) - tail) > 1e-9:
            bad.append(f"Clopper-Pearson lower bound at x={x}, n={n}")
        if abs(direct_cdf(x, n, hi) - tail) > 1e-9:
            bad.append(f"Clopper-Pearson upper bound at x={x}, n={n}")
    return bad
