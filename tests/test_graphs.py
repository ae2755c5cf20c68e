import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netspread import (
    Graph,
    ParseError,
    bfs_distances,
    build_graph,
    complete_graph,
    correlated_pair,
    cycle_graph,
    eccentricity,
    edges_within,
    empty_graph,
    erdos_renyi,
    from_spec,
    generate,
    infection_from_infected,
    infection_radius,
    is_connected,
    load_edge_list,
    path_graph,
    star_graph,
    torus_grid,
    two_block,
)
from netspread import graphs

import oracles


@pytest.mark.parametrize(
    "kind,n,count",
    [
        ("empty", 7, 0),
        ("complete", 6, 15),
        ("star", 9, 8),
        ("cycle", 5, 5),
        ("path", 8, 7),
    ],
)
def test_family_edge_counts(kind, n, count):
    assert generate(kind, n).num_edges == count


def test_torus_edge_count_and_regularity():
    g = torus_grid([3, 4])
    assert g.n == 12
    assert g.num_edges == 12 * 2  # one cycle per axis
    assert set(g.degrees) == {4}


def test_torus_rejects_small_dims():
    with pytest.raises(ValueError):
        torus_grid([2, 5])


def test_torus_3d():
    g = torus_grid([3, 3, 3])
    assert g.n == 27
    assert set(g.degrees) == {6}
    assert is_connected(g)


def test_build_graph_normalizes():
    g = build_graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))


def test_build_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])


def test_graph_is_immutable():
    g = cycle_graph(4)
    with pytest.raises(AttributeError):
        g.n = 5


def test_equality_ignores_labels():
    a = build_graph(3, [(0, 1)], labels=["x", "y", "z"])
    b = build_graph(3, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_adjacency_and_degrees():
    g = star_graph(5)
    assert g.neighbors(0) == (1, 2, 3, 4)
    assert g.degrees == (4, 1, 1, 1, 1)
    assert g.neighbors(3) == (0,)


def test_bfs_distances_path():
    g = path_graph(5)
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]


def test_bfs_unreachable_is_inf():
    g = build_graph(4, [(0, 1)])
    d = bfs_distances(g, 0)
    assert d[1] == 1
    assert d[2] == math.inf


def test_eccentricity_and_connectivity():
    assert eccentricity(cycle_graph(6), 0) == 3
    assert is_connected(cycle_graph(6))
    assert not is_connected(build_graph(3, [(0, 1)]))


def test_distance_matrix_matches_bfs():
    g = torus_grid([3, 3])
    mat = g.distance_matrix
    assert mat.shape == (9, 9)
    assert mat.dtype == np.uint8
    assert np.array_equal(mat[4], bfs_distances(g, 4))
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0)


@st.composite
def sparse_graphs(draw):
    """Graphs on 1..140 vertices with up to ~1.5 edges per vertex, often
    disconnected and with isolated vertices; n crosses 64-bit word edges."""
    n = draw(st.one_of(st.integers(1, 140), st.sampled_from([63, 64, 65, 128, 129])))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n // 2))
    return build_graph(n, [(u, v) for u, v in pairs if u != v])


def _networkx_distances(g):
    """All-pairs hop distances from networkx, as uint8 when no finite one
    exceeds 254 and as uint16 otherwise; no path holds the dtype's max."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    lengths = dict(nx.all_pairs_shortest_path_length(ref))
    longest = max(d for row in lengths.values() for d in row.values())
    dtype = np.uint8 if longest <= 254 else np.uint16
    want = np.full((g.n, g.n), np.iinfo(dtype).max, dtype=dtype)
    for s, row in lengths.items():
        for t, d in row.items():
            want[s, t] = d
    return want


@settings(max_examples=80)
@given(sparse_graphs())
@example(build_graph(1, []))
@example(empty_graph(64))
@example(path_graph(65))
@example(build_graph(129, [(0, 128), (63, 64), (64, 65)]))
@example(complete_graph(63))
def test_distance_matrix_matches_networkx(g):
    mat = g.distance_matrix
    want = _networkx_distances(g)
    assert mat.dtype == want.dtype == np.uint8
    assert np.array_equal(mat, want)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0)


@st.composite
def small_graphs(draw):
    """Graphs on 1..60 vertices, sparse enough to split into several
    components, isolated vertices included, the vertex numbers of each
    component scattered by a shuffle."""
    n = draw(st.integers(1, 60))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=draw(st.sampled_from([n // 2, n, 2 * n]))))
    return build_graph(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=300)
@given(small_graphs())
@example(build_graph(1, []))
@example(path_graph(60))
@example(build_graph(6, [(4, 5), (3, 4), (2, 3), (1, 2)]))
@example(build_graph(7, [(0, 6), (6, 1), (1, 5), (5, 2), (2, 4)]))
def test_component_labels_equal_networkx_components(g):
    # each vertex is named by the smallest vertex of its component
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    want = np.empty(g.n, dtype=np.int64)
    for comp in nx.connected_components(ref):
        want[list(comp)] = min(comp)
    assert g._components.tolist() == want.tolist()
    assert is_connected(g) == nx.is_connected(ref)


@st.composite
def covered_graphs(draw):
    """Graphs on 2..140 vertices of minimum degree 1 or more and mixed
    degrees: a random cover by cycles and single edges, chords, and an
    optional hub; n crosses 64-bit word edges."""
    n = draw(st.one_of(st.integers(2, 140), st.sampled_from([63, 64, 65, 128, 129])))
    order = draw(st.permutations(range(n)))
    edges = []
    while order:
        size = len(order) if len(order) < 4 else draw(st.integers(2, len(order) - 2))
        part, order = order[:size], order[size:]
        edges += zip(part, part[1:] + part[:1]) if size > 2 else [tuple(part)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    if draw(st.booleans()):
        hub = draw(vertex)
        edges += [(hub, v) for v in draw(st.lists(vertex, max_size=n))]
    return build_graph(n, [(u, v) for u, v in edges if u != v])


@settings(max_examples=80, deadline=None)
@given(covered_graphs(), st.sampled_from([None, 1, 64, 1000]))
@example(cycle_graph(65), None)
@example(star_graph(129), 64)
@example(build_graph(3, [(0, 1), (1, 2)]), 1)
def test_distance_matrix_by_neighbour_slots_matches_networkx(g, step_bytes):
    # every vertex has a neighbour, so the level step gathers slot 0 of
    # every vertex whole; the default step and chunks of 1, 64 and 1000
    # bytes give networkx's matrix
    assert min(g.degrees) >= 1
    with pytest.MonkeyPatch.context() as mp:
        if step_bytes is not None:
            mp.setattr(graphs, "_STEP_BYTES", step_bytes)
        mat = g.distance_matrix
    want = _networkx_distances(g)
    assert mat.dtype == want.dtype
    assert np.array_equal(mat, want)


@pytest.mark.parametrize("step_bytes", [1, 64, 1000])
def test_distance_matrix_in_small_chunks(monkeypatch, step_bytes):
    # BFS gathers and decode rows split into many chunks give the same matrix;
    # the 70- and 130-vertex graphs have isolated vertices, so their level
    # step is a reduceat over every neighbour (no whole-slot gather)
    monkeypatch.setattr(graphs, "_STEP_BYTES", step_bytes)
    isolated = (build_graph(70, [(0, 1), (1, 2), (5, 69), (30, 31), (31, 40)]), erdos_renyi(130, 0.02, 4))
    assert all(min(g.degrees) == 0 for g in isolated)
    for g in (torus_grid([5, 7]), *isolated):
        assert np.array_equal(g.distance_matrix, _networkx_distances(g))


def test_distance_matrix_marks_unreachable():
    g = build_graph(5, [(0, 1), (2, 3)])
    mat = g.distance_matrix
    assert mat.dtype == np.uint8
    assert mat[0, 1] == 1
    assert mat[0, 2] == 255
    assert mat[4, 4] == 0
    assert np.count_nonzero(mat == 255) == 5 * 5 - 2 * 4 - 1


@pytest.mark.parametrize(
    "g, dtype, unreachable",
    [
        (path_graph(255), np.uint8, 0),  # longest hop count 254
        (path_graph(256), np.uint16, 0),  # 255, the uint8 sentinel
        # the same paths and three isolated vertices
        (build_graph(258, [(v, v + 1) for v in range(254)]), np.uint8, 258**2 - 255**2 - 3),
        (build_graph(259, [(v, v + 1) for v in range(255)]), np.uint16, 259**2 - 256**2 - 3),
    ],
)
def test_distance_matrix_dtype_is_the_narrowest_that_holds_it(g, dtype, unreachable):
    mat = g.distance_matrix
    want = _networkx_distances(g)
    assert mat.dtype == want.dtype == dtype
    assert np.array_equal(mat, want)
    # pairs with no path hold the dtype's own maximum
    assert np.count_nonzero(mat == np.iinfo(dtype).max) == unreachable


def test_distance_matrix_rejects_sentinel_sized_graphs():
    with pytest.raises(ValueError):
        empty_graph(65535).distance_matrix


def test_distance_matrix_build_memory():
    # building the 50x50 torus matrix, and the 2500-vertex star's, whose
    # hub alone has neighbours past slot 0, peaks at no more than twice
    # the finished matrix
    for g in (torus_grid([50, 50]), star_graph(2500)):
        g.csr
        tracemalloc.start()
        try:
            mat = g.distance_matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mat.nbytes == 2500 * 2500
        assert peak <= 2 * mat.nbytes, peak


def test_cached_arrays_are_read_only():
    g = cycle_graph(8)
    iv = infection_from_infected(8, [0, 1, 4])
    assert (edges_within(g, iv), infection_radius(g, iv)) == (1, 2)
    mat, (eu, ev) = g.distance_matrix, g.edge_arrays
    for arr, rows in ((mat, [0, 4]), (eu, [0]), (ev, [0])):
        with pytest.raises(ValueError):
            arr[rows] = 0
    assert (edges_within(g, iv), infection_radius(g, iv)) == (1, 2)
    assert eu.tolist() == [0, 0, 1, 2, 3, 4, 5, 6] and ev.tolist() == [1, 7, 2, 3, 4, 5, 6, 7]
    assert empty_graph(3).edge_arrays[0].flags.writeable is False


@pytest.mark.parametrize("sources", [[1, 3, 1], [0, 0], [0, 5], [-1]])
def test_bfs_levels_rejects_repeated_or_out_of_range_sources(sources):
    with pytest.raises(ValueError):
        next(graphs.bfs_levels(path_graph(5), sources))


def test_bfs_levels_from_no_source_stops_at_level_zero():
    assert [level for level, _, _ in graphs.bfs_levels(path_graph(5), [])] == [0]


def test_csr_lists_sorted_neighbours():
    g = build_graph(5, [(3, 0), (0, 1), (1, 3), (2, 3)])
    indptr, indices = g.csr
    assert indptr.tolist() == [0, 2, 4, 5, 8, 8]
    for v in range(g.n):
        assert tuple(indices[indptr[v] : indptr[v + 1]]) == g.neighbors(v)
    assert not indices.flags.writeable


def test_load_edge_list_basic():
    text = "# contact list\na b\nb c\n\na c\n"
    g = load_edge_list(text)
    assert g.n == 3
    assert g.labels == ("a", "b", "c")
    assert g.num_edges == 3


def test_load_edge_list_collapses_duplicates():
    g = load_edge_list("a b\nb a\na b\n")
    assert g.num_edges == 1


def test_load_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list("a b\na b c\n")
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list("a a\n")
    with pytest.raises(ParseError):
        load_edge_list("# only a comment\n")


def test_label_lookup():
    g = load_edge_list("u v\nv w\n")
    assert g.index_of("w") == 2
    assert g.label_of(0) == "u"
    with pytest.raises(KeyError):
        g.index_of("nope")


def test_from_spec_families():
    assert from_spec("cycle:10") == cycle_graph(10)
    assert from_spec("torus:3x3") == torus_grid([3, 3])
    assert from_spec("empty:4") == empty_graph(4)


def test_from_spec_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("a b\nb c\n")
    g = from_spec(f"file:{p}")
    assert g.n == 3


def test_from_spec_bad_inputs():
    with pytest.raises(ParseError):
        from_spec("hexagon:4")
    with pytest.raises(ParseError):
        from_spec("cycle:notanumber")
    with pytest.raises(ParseError):
        from_spec("file:/no/such/file")
    with pytest.raises(ParseError, match="expected 3 fields"):
        from_spec("er:10:0.5")


@pytest.mark.parametrize(
    "spec, args",
    [
        ("empty:4", (4,)),
        ("complete:5", (5,)),
        ("star:6", (6,)),
        ("cycle:7", (7,)),
        ("path:8", (8,)),
        ("torus:3x4", ([3, 4],)),
        ("er:12:0.5:3", (12, 0.5, 3)),
        ("two-block:10:0.8:0.1:2", (10, 0.8, 0.1, 2)),
    ],
)
def test_generate_and_from_spec_share_one_kind_table(spec, args):
    assert from_spec(spec) == generate(spec.partition(":")[0], *args)


@pytest.mark.parametrize("kind", ["sbm", "two_block"])
def test_kind_aliases_are_rejected(kind):
    with pytest.raises(ValueError, match="unknown graph kind"):
        generate(kind, 10, 1.0, 0.0, 1)
    with pytest.raises(ParseError, match="unknown graph kind"):
        from_spec(f"{kind}:10:1:0:1")


def test_erdos_renyi_extremes_and_determinism():
    assert erdos_renyi(20, 0.0, 1).num_edges == 0
    assert erdos_renyi(12, 1.0, 1) == complete_graph(12)
    assert erdos_renyi(30, 0.4, 9) == erdos_renyi(30, 0.4, 9)
    assert erdos_renyi(30, 0.4, 9) != erdos_renyi(30, 0.4, 10)


def test_erdos_renyi_edge_count_is_plausible():
    # mean p*C(n,2) = 522, sd ~ 19; a 5-sigma band is a safe deterministic check
    g = erdos_renyi(60, 0.295, 123)
    mean = 0.295 * math.comb(60, 2)
    sd = math.sqrt(math.comb(60, 2) * 0.295 * 0.705)
    assert abs(g.num_edges - mean) < 5 * sd


def test_two_block_extremes():
    g = two_block(8, 1.0, 0.0, 3)
    within = [(u, v) for u, v in g.edges if (u < 4) == (v < 4)]
    assert len(within) == g.num_edges == 2 * math.comb(4, 2)


def test_correlated_pair_identical_at_gamma_one():
    a, b = correlated_pair(25, 0.3, 1.0, 11)
    assert a == b


def test_correlated_pair_disjoint_at_gamma_zero():
    a, b = correlated_pair(25, 0.5, 0.0, 4)
    assert not (set(a.edges) & set(b.edges))


def test_correlated_pair_rejects_invalid_gamma():
    with pytest.raises(ValueError):
        correlated_pair(10, 0.8, 0.1, 1)


@settings(max_examples=150)
@given(
    n=st.integers(1, 40),
    p=st.floats(0.0, 1.0),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**63),
)
@example(n=101, p=0.5, share=0.5, seed=1)
def test_random_families_equal_their_per_vertex_loops(n, p, share, seed):
    assert erdos_renyi(n, p, seed) == oracles.erdos_renyi_reference(n, p, seed)
    assert two_block(n, p, share, seed) == oracles.two_block_reference(n, p, share, seed)
    # share maps onto the valid gammas, [max(0, 2 - 1/p), 1]
    low = max(0.0, 2.0 - 1.0 / p) if p > 0 else 0.0
    gamma = low + share * (1.0 - low)
    assert correlated_pair(n, p, gamma, seed) == oracles.correlated_pair_reference(n, p, gamma, seed)


@settings(max_examples=60)
@given(st.lists(st.integers(3, 9), min_size=1, max_size=4))
@example([50, 50])
@example([4, 3, 5])
def test_torus_grid_equals_its_per_vertex_loop(dims):
    assert torus_grid(dims) == oracles.torus_grid_reference(dims)


def test_generate_dispatch():
    assert generate("er", 10, 0.5, 3) == erdos_renyi(10, 0.5, 3)
    with pytest.raises(ValueError):
        generate("mobius", 5)


def test_graph_needs_vertices():
    with pytest.raises(ValueError):
        Graph(n=0, edges=())
