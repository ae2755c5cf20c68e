"""Independent brute-force oracles the tests check the package against.

Nothing here imports package internals beyond the graph and snapshot
containers, the status codes and one exception type; every
computation re-derives its answer from first principles (recursive
enumeration, subset search, permutation filtering), through networkx's
isomorphism matcher and shortest paths, or through the per-snapshot
implementations of W, R, T, C and orbit that the package's batched
kernels replaced, so agreement with the package is evidence, not
tautology. spread_path_float_reference is the float walk of the spread
sampler before it rounded eta onto a dyadic grid. relabeled_rows is the
per-draw loop of the key draw that the package's blocked subset draw
must reproduce. The exact layer's references enumerate relabelings where
the package enumerates infected sets. The graph family references are the
per-vertex loops of the random families and of the torus.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from math import comb, floor, fsum, inf, prod

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from netspread.errors import DisconnectedTerminalsError
from netspread.graphs import Graph, build_graph
from netspread.spreading import CENSORED, INFECTED, UNINFECTED, InfectionVector

# one-sided tail of the Clopper-Pearson checks: a correct program fails one
# this rarely
CP_TAIL = 1e-6


def clopper_pearson(x: int, n: int, tail: float = CP_TAIL) -> tuple[float, float]:
    """The Clopper-Pearson interval of x successes in n trials, each side
    at the given tail (scipy's beta quantiles)."""
    from scipy.stats import beta

    lower = beta.ppf(tail, x, n - x + 1) if x else 0.0
    upper = beta.ppf(1 - tail, x + 1, n - x) if x < n else 1.0
    return lower, upper


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


def spread_scale(g, eta: float) -> tuple[int, int]:
    """eta as p/d on the finest dyadic grid whose spread sums stay exact:
    d = 1, 2, 4, ... with p = round(eta d), doubling d while
    n d + 2|E| p < 2^53 still holds and p/d is not yet eta. At d = 1, p is
    at most (2^53 - 1 - n) // 2|E|; without edges the answer is (0, 1)."""
    n, edges = g.n, 2 * g.num_edges
    if not edges:
        return 0, 1
    cap = (2**53 - 1 - n) // edges
    if eta == inf:
        return cap, 1
    exact = Fraction(eta)
    p, d = min(round(exact), cap), 1
    while Fraction(p, d) != exact:
        q = round(exact * 2 * d)
        if n * 2 * d + edges * q >= 2**53:
            break
        p, d = q, 2 * d
    return p, d


def spread_path_reference(g, eta: float, k: int, rng) -> tuple[int, ...]:
    """One sequential spread path at eta on the grid of spread_scale, in exact
    integer sums: weights d + p * (infected neighbours) in units of 1/d, one
    rng.random() r per step, and the first vertex in vertex order whose
    running sum exceeds u = r * total, that product rounded to float64."""
    p, d = spread_scale(g, eta)
    adj = [g.neighbors(v) for v in range(g.n)]
    weights = [d] * g.n
    hits = [0] * g.n
    order = []
    for _ in range(k):
        u = rng.random() * sum(weights)
        v = next(i for i, s in enumerate(itertools.accumulate(weights)) if s > u)
        order.append(v)
        weights[v] = 0
        for x in adj[v]:
            hits[x] += 1
            if weights[x]:
                weights[x] = d + p * hits[x]
    return tuple(order)


def spread_path_float_reference(g, eta: float, k: int, rng) -> tuple[int, ...]:
    """One sequential spread path at eta itself, in float64: the walk the
    sampler took for every eta before it rounded eta onto the grid of
    spread_scale. One rng.random() per step, walked against the running
    sum of the weights in vertex order, taking the first vertex whose
    running sum exceeds the uniform times the total."""
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    weights = [1.0] * n
    hits = [0] * n
    order = []
    for _ in range(k):
        r = rng.random()
        running = list(itertools.accumulate(weights))
        u = r * running[-1]
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


# -- graph families, per vertex -----------------------------------------------------
# The package's constructors before one pair-draw reader served the random
# families and an index grid the torus, kept as the references they must
# equal graph for graph. The stream is built here as substream(seed) builds it.


def _pair_stream(seed: int):
    return np.random.default_rng(np.random.SeedSequence((seed,)))


def erdos_renyi_reference(n: int, p: float, seed: int) -> Graph:
    rng = _pair_stream(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p)
        edges.extend((u, u + 1 + int(h)) for h in hits)
    return build_graph(n, edges)


def two_block_reference(n: int, p_in: float, p_out: float, seed: int) -> Graph:
    half = (n + 1) // 2
    rng = _pair_stream(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        draws = rng.random(n - 1 - u)
        vs = np.arange(u + 1, n)
        same = (vs < half) == (u < half)
        thresh = np.where(same, p_in, p_out)
        for h in np.flatnonzero(draws < thresh):
            edges.append((u, int(vs[h])))
    return build_graph(n, edges)


def correlated_pair_reference(n: int, p: float, gamma: float, seed: int) -> tuple[Graph, Graph]:
    rng = _pair_stream(seed)
    edges0: list[tuple[int, int]] = []
    edges1: list[tuple[int, int]] = []
    both, solo = gamma * p, p - gamma * p
    for u in range(n - 1):
        draws = rng.random(n - 1 - u)
        for h in np.flatnonzero(draws < both + 2 * solo):
            v = u + 1 + int(h)
            d = draws[h]
            if d < both:
                edges0.append((u, v))
                edges1.append((u, v))
            elif d < both + solo:
                edges0.append((u, v))
            else:
                edges1.append((u, v))
    return build_graph(n, edges0), build_graph(n, edges1)


def torus_grid_reference(dims) -> Graph:
    dims = [int(d) for d in dims]
    n = prod(dims)
    strides = [prod(dims[a + 1 :]) for a in range(len(dims))]

    def coords(v: int) -> list[int]:
        out = []
        for a, d in enumerate(dims):
            out.append((v // strides[a]) % d)
        return out

    edges = []
    for v in range(n):
        cs = coords(v)
        for a, d in enumerate(dims):
            w = v + strides[a] * ((cs[a] + 1) % d - cs[a])
            edges.append((v, w))
    return build_graph(n, edges)


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
    vertex is reachable from every infected one, 0 when none is infected."""
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    infected = [int(u) for u in np.flatnonzero(iv.status == INFECTED)]
    if not infected:
        return 0
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
    if len(terminals) <= 1:
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


# -- the exact layer, by relabelings ----------------------------------------------
# exact_test, topology_sup_likelihood and ising_sample_exact before they
# enumerated infected sets: the n! relabelings of the snapshot, the n!
# relabeled graphs and a per-subset loop. Kept as the references the set
# enumeration must equal field for field, value for value and draw for draw;
# the last two call the package's likelihood_exact and apply_to_graph, as
# the loops they replaced did.


def relabeled_statuses(status: np.ndarray) -> np.ndarray:
    """All n! relabelings of a status vector, in itertools.permutations
    order: row i sends vertex j's status to the i-th permutation's j-th entry."""
    targets = np.array(list(itertools.permutations(range(status.size))))
    rows = np.empty(targets.shape, dtype=status.dtype)
    rows[np.arange(len(targets))[:, None], targets] = status
    return rows


def exact_calibration(observed: float, counts: dict[float, int], alpha: float) -> dict:
    """The TestResult fields of an exact test from its law, given as
    score -> count: the least score whose tail count is at most
    floor(alpha * total), or the top score, saturated, when none is."""
    total = sum(counts.values())
    budget = floor(Fraction(repr(alpha)) * total)
    values = sorted(counts)
    fits = [v for i, v in enumerate(values) if sum(counts[u] for u in values[i:]) <= budget]
    threshold = fits[0] if fits else values[-1]
    ge = sum(c for v, c in counts.items() if v >= observed)
    return dict(
        observed=observed,
        threshold=threshold,
        p_value=ge / total,
        reject=observed > threshold,
        histogram=tuple((v, counts[v]) for v in values),
        raw_ge_count=ge,
        n_draws=total,
        saturated=not fits,
    )


def exact_test_reference(spec, iv: InfectionVector, alpha: float) -> dict:
    """exact_test's fields but validity_warning, from spec.score_batch over
    all n! relabelings of iv; raises what that scoring raises."""
    scores = spec.score_batch(relabeled_statuses(iv.status))
    fields = exact_calibration(spec.score(iv), Counter(scores.tolist()), alpha)
    return fields | dict(statistic=spec.name, tail=spec.tail, mode="exact")


def topology_sup_reference(g: Graph, eta: float, iv: InfectionVector) -> float:
    """max over the n! relabelings of g of likelihood_exact on iv, each
    distinct relabeled graph once."""
    from netspread.likelihood import likelihood_exact
    from netspread.perms import Permutation, apply_to_graph

    best = 0.0
    seen: dict[tuple[tuple[int, int], ...], float] = {}
    for image in itertools.permutations(range(g.n)):
        relabeled = apply_to_graph(Permutation(image), g)
        if relabeled.edges not in seen:
            seen[relabeled.edges] = likelihood_exact(relabeled, eta, iv).value
        best = max(best, seen[relabeled.edges])
    return best


def ising_sample_reference(g: Graph, eta: float, k: int, rng) -> tuple[int, ...]:
    """The k-subset an exp(eta * edges inside) draw picks from rng: each
    subset's edges counted alone, in itertools.combinations order."""
    subsets = list(itertools.combinations(range(g.n), k))
    eu, ev = g.edge_arrays
    exponents = np.empty(len(subsets), dtype=np.float64)
    member = np.zeros(g.n, dtype=bool)
    for i, sub in enumerate(subsets):
        member[list(sub)] = True
        exponents[i] = eta * int(np.count_nonzero(member[eu] & member[ev]))
        member[list(sub)] = False
    cum = np.cumsum(np.exp(exponents - exponents.max()))
    return subsets[int(np.searchsorted(cum, rng.random() * cum[-1], side="left"))]
