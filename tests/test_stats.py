import tracemalloc
from collections import Counter
from itertools import combinations, islice
from math import inf

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netspread import (
    DisconnectedTerminalsError,
    InfectionVector,
    SpreadParams,
    StatisticSpec,
    TestConfig,
    build_graph,
    censor_uniform,
    center_indicator,
    complete_graph,
    cycle_graph,
    edges_within,
    empty_graph,
    erdos_renyi,
    infection_from_infected,
    infection_radius,
    mc_test,
    orbit_count,
    path_graph,
    simulate_spread,
    star_graph,
    steiner_weight,
    substream,
    torus_grid,
)
from netspread import stats as stats_mod
from netspread.graphs import from_spec
from networkx.algorithms.isomorphism import GraphMatcher
from oracles import edges_within as edges_oracle
from oracles import infection_radius as radius_oracle
from oracles import steiner_optimum
from oracles import steiner_weight as mehlhorn_oracle


def iv_of(n, infected, censored=()):
    return infection_from_infected(n, infected, censored)


def test_edges_within_examples():
    g = cycle_graph(6)
    assert edges_within(g, iv_of(6, [0, 1, 2])) == 2
    assert edges_within(g, iv_of(6, [0, 2, 4])) == 0
    assert edges_within(g, iv_of(6, [0, 1], censored=[2])) == 1
    assert edges_within(complete_graph(5), iv_of(5, [1, 2, 4])) == 3
    assert edges_within(empty_graph(5), iv_of(5, [0, 1, 2])) == 0


def test_edges_within_censored_never_count():
    g = path_graph(4)
    # 1-1 edge counts; 1-* and *-* edges never do
    assert edges_within(g, InfectionVector((1, 1, 2, 2))) == 1
    assert edges_within(g, InfectionVector((1, 2, 2, 1))) == 0


def test_edges_within_size_mismatch():
    with pytest.raises(ValueError):
        edges_within(cycle_graph(4), iv_of(5, [0]))


def test_infection_radius_examples():
    g = cycle_graph(6)
    assert infection_radius(g, iv_of(6, [0, 3])) == 2
    assert infection_radius(g, iv_of(6, [0, 1])) == 1
    assert infection_radius(g, iv_of(6, [0])) == 0
    assert infection_radius(path_graph(7), iv_of(7, [0, 6])) == 3
    assert infection_radius(star_graph(7), iv_of(7, [1, 2, 3])) == 1


def test_infection_radius_center_may_be_any_vertex():
    # best center (vertex 1) is uninfected
    g = path_graph(3)
    assert infection_radius(g, iv_of(3, [0, 2])) == 1


def test_infection_radius_ignores_censored():
    g = path_graph(5)
    assert infection_radius(g, iv_of(5, [0, 1], censored=[4])) == 1


def test_infection_radius_disconnected_is_inf():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert infection_radius(g, iv_of(4, [0, 2])) == inf
    assert infection_radius(g, iv_of(4, [0, 1])) == 1


def test_infection_radius_of_no_visible_infected_is_zero():
    # every ball covers the empty set
    assert infection_radius(cycle_graph(4), InfectionVector((0, 0, 0, 0))) == 0
    assert infection_radius(cycle_graph(4), InfectionVector((2, 0, 2, 0))) == 0


def test_infection_radius_large_graph_bfs_fallback():
    # same answer through the packed BFS path as through the cached matrix
    g = torus_grid((4, 5))
    iv = iv_of(g.n, [0, 7, 13])
    via_matrix = infection_radius(g, iv)
    old = stats_mod._DMAT_LIMIT
    stats_mod._DMAT_LIMIT = 1
    try:
        via_bfs = infection_radius(g, iv)
    finally:
        stats_mod._DMAT_LIMIT = old
    assert via_matrix == via_bfs


@st.composite
def graphs_and_snapshots(draw):
    """A random graph on 1..80 vertices (often disconnected) and a snapshot
    with at least one infected vertex, censored ones included."""
    n = draw(st.integers(1, 80))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    status = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    status[draw(vertex)] = 1
    return g, InfectionVector(status)


@settings(max_examples=120)
@given(graphs_and_snapshots())
@example((build_graph(1, []), InfectionVector([1])))
@example((build_graph(4, [(0, 1), (2, 3)]), InfectionVector([1, 0, 1, 0])))
@example((path_graph(70), iv_of(70, [0, 69], censored=[35])))
def test_infection_radius_packed_bfs_equals_matrix(case):
    g, iv = case
    via_matrix = infection_radius(g, iv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats_mod, "_DMAT_LIMIT", 0)
        via_bfs = infection_radius(g, iv)
    assert via_bfs == via_matrix
    assert type(via_bfs) is type(via_matrix)


def test_infection_radius_packed_bfs_disconnected_is_inf(monkeypatch):
    monkeypatch.setattr(stats_mod, "_DMAT_LIMIT", 0)
    g = build_graph(6, [(0, 1), (1, 2), (3, 4)])
    assert infection_radius(g, iv_of(6, [0, 2])) == 1
    assert infection_radius(g, iv_of(6, [0, 4])) == inf
    assert infection_radius(g, iv_of(6, [5])) == 0


def _table_bytes(n):
    return 8 * n * -(-n // 64)


def _radius_with_guess(g, mask, guess, **knobs):
    """_radius_batch on a (rows, n) mask with the ball kernel's guess forced
    (where the first row's R is finite) and the given module knobs; the
    cache keeps to its table count (it is emptied first where the knobs
    change that count)."""
    ball_radii = stats_mod._ball_radii
    with pytest.MonkeyPatch.context() as mp:
        for name, value in knobs.items():
            mp.setattr(stats_mod, name, value)
        mp.setattr(stats_mod, "_ball_radii", lambda g, idx, _, radii: ball_radii(g, idx, guess, radii))
        if knobs.keys() & {"_BALL_BYTES", "_BALL_UP"}:
            g.__dict__.pop("_ball_tables", None)
        got = stats_mod._radius_batch(g, mask)
        assert len(g.__dict__.get("_ball_tables", {})) <= stats_mod._tables_kept(g.n)
    return got.tolist()


def _masks(n, rows):
    mask = np.zeros((len(rows), n), dtype=bool)
    for row, vertices in zip(mask, rows):
        row[list(vertices)] = True
    return mask


@st.composite
def graphs_and_radius_blocks(draw):
    """A random graph on 1..70 vertices (often disconnected, isolated
    vertices included), rows of 1..n infected vertices each, and a guess
    from 0 to past every distance."""
    n = draw(st.integers(1, 70))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    rows = draw(st.lists(st.sets(vertex, min_size=1), min_size=2, max_size=10))
    if draw(st.booleans()):
        rows.append(set(range(n)))
    return g, _masks(n, rows), draw(st.integers(0, n + 2))


# the ball kernel's budgets: the default (tables to gallop down and step up
# two radii); no byte budget, so that the floor of 2 * _BALL_UP + 1 tables
# binds: one table (the guess's, so every other row gathers), three and
# five (the 50x50 torus's); and one-byte chunks (one row per table build
# chunk, one rank per AND gather and a look for empty ANDs after each)
_KERNEL_KNOBS = [
    {},
    {"_BALL_BYTES": 0, "_BALL_UP": 0},
    {"_BALL_BYTES": 0, "_BALL_UP": 1},
    {"_BALL_BYTES": 0, "_BALL_UP": 2},
    {"_CHUNK_BYTES": 1},
]


@settings(max_examples=150)
@given(graphs_and_radius_blocks(), st.sampled_from(range(len(_KERNEL_KNOBS))))
@example((build_graph(1, []), np.ones((3, 1), dtype=bool), 0), 0)
@example((build_graph(1, []), np.ones((2, 1), dtype=bool), 2), 1)
@example((build_graph(4, [(0, 1), (2, 3)]), _masks(4, [[0, 1], [0, 2], [3], [0, 1, 2, 3]]), 1), 0)
@example((cycle_graph(9), _masks(9, [[0], [0, 4], [0, 3, 6], range(9), [2, 3]]), 0), 4)
@example((path_graph(12), _masks(12, [[0, 11], [0, 5], [3, 4], [6], [0, 8], [2, 9]]), 4), 2)
def test_radius_kernel_equals_oracle_and_gather(case, knobs):
    # k = 1, k = n, unequal k (padding), inf rows, n = 1, guesses below the
    # least radius and above the largest; one row always gathers
    g, mask, guess = case
    want = [float(radius_oracle(g, InfectionVector(row.astype(np.int8)))) for row in mask]
    assert [stats_mod._radius_batch(g, row[None])[0] for row in mask] == want
    assert _radius_with_guess(g, mask, guess, **_KERNEL_KNOBS[knobs]) == want


def test_radius_kernel_runs_every_branch(monkeypatch):
    # 20x20 torus relabelings with k = 80 fall on radii 15-17; forced
    # guesses send them down the gallop, up the window and past either end
    # of it into the gather, with 93 tables and with floors of one and three
    g = torus_grid((20, 20))
    rng = np.random.default_rng(0)
    mask = _masks(400, [rng.choice(400, 80, replace=False) for _ in range(40)])
    want = stats_mod._radius_batch(build_graph(400, g.edges), mask).tolist()
    assert set(want) == {15, 16, 17}
    at = Counter(want[1:])
    gathered = []  # rows each gather is given
    real = stats_mod._gathered_radii
    monkeypatch.setattr(stats_mod, "_gathered_radii", lambda dmat, idx: gathered.append(len(idx)) or real(dmat, idx))
    one, three = {"_BALL_BYTES": 0, "_BALL_UP": 0}, {"_BALL_BYTES": 0, "_BALL_UP": 1}
    # the first row always gathers: it gives the guess
    for guess, knobs, rows in [
        (20, {}, 1),  # gallop down 20 -> 14
        (15, {}, 1),  # 15 one down, up 16 and 17
        (13, {}, 1 + at[16] + at[17]),  # up 14, 15 and the rest gathered
        (17, one, 40),  # the guess's table alone
        (15, three, 1 + at[17]),  # 16 one up, 15 one down, 17 gathered
        (17, three, 1 + at[15] + at[16]),  # one down, 16 and 15 still pass
    ]:
        gathered.clear()
        assert _radius_with_guess(g, mask, guess, **knobs) == want
        assert sum(gathered) == rows, (guess, knobs)
    # 50x50 relabelings with k = 500 at the guess and one radius under it
    # gallop down two of the five tables the floor keeps, so none reaches
    # the gather; two radii under, they pass the lowest table and gather
    big = torus_grid((50, 50))
    rng = np.random.default_rng(1)
    mask = _masks(2500, [rng.choice(2500, 500, replace=False) for _ in range(24)])
    want = [stats_mod._radius_batch(big, row[None])[0] for row in mask]
    mask = mask[np.isin(want, [45, 46])]
    want = [value for value in want if value in (45, 46)]
    at = Counter(want[1:])
    assert at.keys() == {45, 46}
    for guess, rows in [(46, 1), (47, 1 + at[45])]:
        gathered.clear()
        assert _radius_with_guess(big, mask, guess) == want
        assert sum(gathered) == rows, guess
    assert list(big.__dict__["_ball_tables"]) == [44, 47, 46, 45]  # least recently used first


def test_radius_kernel_on_uint16_distances_and_near_the_sentinel():
    # a 300-vertex path has uint16 distances; a 255-vertex path plus an
    # isolated vertex has uint8 ones up to 254, so a guess of 253 may step
    # up to 254 only: a table at 255 would count the unreachable pairs
    path = path_graph(300)
    mask = _masks(300, [[0, 299], [0, 150], [7, 8], [3, 200, 299], range(300)])
    for guess in (0, 74, 148, 150, 299, 302):
        assert _radius_with_guess(path, mask, guess) == [150, 75, 1, 148, 150]
        for knobs in _KERNEL_KNOBS[1:4]:
            assert _radius_with_guess(path, mask, guess, **knobs) == [150, 75, 1, 148, 150]
    g = build_graph(256, [(v, v + 1) for v in range(254)])
    assert g.distance_matrix.dtype == np.uint8 and g.distance_matrix[0, 254] == 254
    mask = _masks(256, [[0, 254], [0, 255], [255]])
    assert _radius_with_guess(g, mask, 253) == [127, inf, 0]


def test_ball_tables_build_in_chunks_and_keep_to_their_budget():
    g = torus_grid((50, 50))
    g.distance_matrix
    # 2 MB holds two tables of 800 KB, so the floor binds: the guess and two
    # radii either side
    kept = stats_mod._tables_kept(2500)
    assert kept == 2 * stats_mod._BALL_UP + 1 == 5
    tracemalloc.start()
    try:
        table = stats_mod._ball_table(g, 45)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one table and one chunk of comparisons: never an (n, n) temporary
    assert table.nbytes == _table_bytes(2500) == 800_000
    assert peak <= table.nbytes + stats_mod._CHUNK_BYTES, peak
    # a build with the cache full evicts the least recently used first, so
    # the tables and one chunk never pass five tables
    tracemalloc.start()
    try:
        for r in (44, 46, 47, 45, 48, 49):
            stats_mod._ball_table(g, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(g.__dict__["_ball_tables"]) == [46, 47, 45, 48, 49]
    assert peak <= kept * table.nbytes + stats_mod._CHUNK_BYTES, peak
    # blocks of 10, 100 and 500 infected vertices land on radii far apart,
    # more tables than the floor keeps; the tables, a chunk of comparisons
    # and a row block's gathers stay below one (n, n) matrix
    rng = np.random.default_rng(1)
    cache = g.__dict__["_ball_tables"]
    for k in (500, 10, 100, 500):
        mask = _masks(2500, [rng.choice(2500, k, replace=False) for _ in range(20)])
        tracemalloc.start()
        try:
            got = stats_mod._radius_batch(g, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cache) == kept
        assert peak <= kept * table.nbytes + 2 * stats_mod._CHUNK_BYTES < g.distance_matrix.nbytes, peak
        # single rows always gather
        assert got.tolist() == [stats_mod._radius_batch(g, row[None])[0] for row in mask]


def _two_tori():
    torus = torus_grid((35, 35))
    return build_graph(2 * torus.n, list(torus.edges) + [(u + torus.n, v + torus.n) for u, v in torus.edges])


# the sizes where the floor of five tables binds (n above about 1,800) or
# distances need uint16 (cycle and path), which the hypothesis cases never
# reach; an Erdos-Renyi graph below its connectivity threshold and the two
# tori have rows of infinite R
@pytest.mark.parametrize("make", [
    lambda: torus_grid((50, 50)),
    lambda: star_graph(2500),
    lambda: cycle_graph(1000),
    lambda: path_graph(300),
    lambda: from_spec("er:2500:0.002:1"),
    lambda: from_spec("two-block:2000:0.01:0.001:1"),
    _two_tori,
], ids=["torus", "star", "cycle", "path", "er", "two-block", "two-tori"])
def test_radius_blocks_on_large_graphs_equal_one_row_scores(make):
    g = make()
    n = g.n
    rng = np.random.default_rng(n)
    for ks in ([1] * 8, [2] * 8, [n // 10] * 16, [n // 5] * 16, rng.integers(1, n // 5, 16)):
        mask = _masks(n, [rng.choice(n, k, replace=False) for k in ks])
        want = [stats_mod._radius_batch(g, row[None])[0] for row in mask]
        assert stats_mod._radius_batch(g, mask).tolist() == want


@pytest.mark.slow
def test_mc_test_radius_on_100x100_torus():
    # above the distance-matrix limit every draw runs one packed BFS
    g = torus_grid((100, 100))
    assert g.n > stats_mod._DMAT_LIMIT
    iv = simulate_spread(g, SpreadParams(eta=10.0, k=50), 5).to_infection(g.n)
    res = mc_test(
        StatisticSpec.infection_radius(g), iv, TestConfig(alpha=0.05, B=20, seed=2),
        null_graph=empty_graph(g.n),
    )
    # networkx BFS oracle; the torus is connected, so every vertex is reached
    ref = nx.Graph(g.edges)
    worst = np.zeros(g.n, dtype=np.int64)
    for u in iv.infected:
        for v, d in nx.single_source_shortest_path_length(ref, u).items():
            worst[v] = max(worst[v], d)
    assert res.observed == -worst.min()
    assert res.n_draws == 20
    assert "distance_matrix" not in g.__dict__


def test_center_indicator():
    assert center_indicator(iv_of(5, [0, 2]), 0) == 1
    assert center_indicator(iv_of(5, [0, 2]), 1) == 0
    assert center_indicator(iv_of(5, [0], censored=[1]), 1) == 0
    with pytest.raises(ValueError):
        center_indicator(iv_of(5, [0]), 5)


def test_orbit_count():
    iv = iv_of(6, [0, 1, 5], censored=[2])
    assert orbit_count(iv, {0, 5}) == 2
    assert orbit_count(iv, {2, 3}) == 0
    assert orbit_count(iv, range(6)) == 3
    with pytest.raises(ValueError):
        orbit_count(iv, {9})


def test_steiner_weight_simple_cases():
    g = path_graph(6)
    assert steiner_weight(g, iv_of(6, [2])) == 0
    assert steiner_weight(g, iv_of(6, [0, 5])) == 5
    assert steiner_weight(g, iv_of(6, [1, 3])) == 2
    star = star_graph(8)
    # leaves only connect through the hub
    assert steiner_weight(star, iv_of(8, [1, 2, 3])) == 3
    assert steiner_weight(star, iv_of(8, [0, 4])) == 1


def test_steiner_weight_cycle():
    g = cycle_graph(8)
    assert steiner_weight(g, iv_of(8, [0, 1, 2])) == 2
    # antipodal pair: either arc works, weight 4
    assert steiner_weight(g, iv_of(8, [0, 4])) == 4


def test_steiner_weight_disconnected():
    g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
    with pytest.raises(DisconnectedTerminalsError):
        steiner_weight(g, iv_of(5, [0, 2]))


def test_steiner_weight_of_no_visible_infected_is_zero():
    # the empty tree weighs 0
    assert steiner_weight(cycle_graph(4), InfectionVector((0, 0, 2, 0))) == 0
    assert steiner_weight(build_graph(4, [(0, 1)]), InfectionVector((0, 0, 0, 0))) == 0


@pytest.mark.parametrize("kernel", [stats_mod._radius_batch, stats_mod._steiner_batch])
def test_rows_with_no_visible_infected_score_zero_in_a_block(kernel):
    # k = 0 rows first, between and last leave the other rows as scored alone
    g = torus_grid((8, 8))
    rng = np.random.default_rng(4)
    mask = _masks(64, [rng.choice(64, 12, replace=False) for _ in range(6)])
    alone = [kernel(g, row[None])[0] for row in mask]
    mixed = np.insert(mask, [0, 3, 6], False, axis=0)
    assert kernel(g, mixed).tolist() == [0] + alone[:3] + [0] + alone[3:] + [0]
    assert kernel(g, mixed[[0, 4]]).tolist() == [0, 0]


def test_steiner_weight_within_factor_two_of_optimum():
    # every terminal set on a few small graphs: exact lower bound and
    # the approximation guarantee OPT <= T <= 2*OPT
    graphs = [
        cycle_graph(7),
        path_graph(7),
        star_graph(7),
        complete_graph(6),
        torus_grid((3, 3)),
        erdos_renyi(7, 0.5, 11),
    ]
    for g in graphs:
        if not all(
            steiner_is_defined(g, terms) for terms in combinations(range(g.n), 2)
        ):
            continue
        for k in (2, 3, 4):
            for terms in combinations(range(g.n), k):
                iv = iv_of(g.n, terms)
                try:
                    got = steiner_weight(g, iv)
                except DisconnectedTerminalsError:
                    continue
                opt = steiner_optimum(g, terms)
                assert opt <= got <= 2 * opt


def _oracle_or_error(g, block):
    """The oracle's T per row, or the type the first failing row raises."""
    try:
        return [mehlhorn_oracle(g, InfectionVector(row)) for row in block]
    except (ValueError, DisconnectedTerminalsError) as exc:
        return type(exc)


def _assert_batch_matches_oracle(g, block):
    """Each row alone, _steiner_batch and score_batch all agree with the oracle."""
    for row in block:
        want = _oracle_or_error(g, [row])
        if isinstance(want, type):
            with pytest.raises(want):
                steiner_weight(g, InfectionVector(row))
        else:
            assert steiner_weight(g, InfectionVector(row)) == want[0]
    want = _oracle_or_error(g, block)
    if isinstance(want, type):
        with pytest.raises(want):
            stats_mod._steiner_batch(g, block == 1)
        with pytest.raises(want):
            StatisticSpec.steiner_weight(g).score_batch(block)
        return
    assert stats_mod._steiner_batch(g, block == 1).tolist() == want
    assert StatisticSpec.steiner_weight(g).score_batch(block).tolist() == [-float(t) for t in want]


@st.composite
def graphs_and_steiner_blocks(draw):
    """A random graph on 1..30 vertices (often disconnected, isolated vertices
    included) and a status block with censoring. Rows are relabelings of one
    snapshot, as the tests draw them, or independent rows whose infected
    counts differ."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    statuses = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    if draw(st.booleans()):
        status = draw(statuses)
        perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=8))
        rows = [[status[p] for p in perm] for perm in perms]
    else:
        rows = draw(st.lists(statuses, min_size=1, max_size=8))
    return g, np.array(rows, dtype=np.int8)


_TWO_PATHS = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


@settings(max_examples=300)
@given(graphs_and_steiner_blocks(), st.sampled_from([None, 1, 64]))
@example((build_graph(1, []), np.array([[1], [0], [2]], dtype=np.int8)), None)
@example((cycle_graph(7), np.ones((2, 7), dtype=np.int8)), 1)
@example((_TWO_PATHS, np.array([[1, 1, 0, 0, 0, 1], [0, 0, 0, 0, 2, 0]], dtype=np.int8)), None)
@example((_TWO_PATHS, np.array([[1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0]], dtype=np.int8)), 64)
@example((_TWO_PATHS, np.array([[0, 2, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0]], dtype=np.int8)), 64)
def test_steiner_batch_equals_mehlhorn_oracle(case, chunk_bytes):
    # chunk budgets of 1 and 64 bytes score one row per chunk
    g, block = case
    with pytest.MonkeyPatch.context() as mp:
        if chunk_bytes is not None:
            mp.setattr(stats_mod, "_CHUNK_BYTES", chunk_bytes)
        _assert_batch_matches_oracle(g, block)


@st.composite
def graphs_and_status_blocks(draw):
    """A random graph on 1..40 vertices (edgeless ones included) and a block
    of 0..8 independent status rows with censoring."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), max_size=8))
    return g, np.array(rows, dtype=np.int8).reshape(len(rows), n)


@settings(max_examples=200)
@given(graphs_and_status_blocks())
@example((empty_graph(5), np.ones((3, 5), dtype=np.int8)))
@example((cycle_graph(6), np.zeros((0, 6), dtype=np.int8)))
@example((cycle_graph(6), np.array([[1, 1, 2, 1, 1, 1]], dtype=np.int8)))
def test_edges_batch_equals_per_row_oracle(case):
    # the vertex-major gather counts what the per-row edge loop counts, on
    # bool masks and on int8 status blocks alike
    g, block = case
    want = [edges_oracle(g, InfectionVector(row)) for row in block]
    assert stats_mod._edges_batch(g, block == 1).tolist() == want
    assert StatisticSpec.edges_within(g).score_batch(block).tolist() == [float(w) for w in want]


def test_edges_within_counts_past_the_narrow_accumulator():
    # K_363 has 65,703 edges, past the 65,535 a uint16 byte sum holds: W
    # sums that column in uint32 (a uint16 sum would give 167)
    g = complete_graph(363)
    w = StatisticSpec.edges_within(g)
    assert g.num_edges == 65_703
    assert w.evaluate(iv_of(363, range(363))) == 65_703
    assert w.score_batch(np.ones((2, 363), dtype=bool)).tolist() == [65_703.0, 65_703.0]


@pytest.mark.parametrize("shape, axis", [((1 << 16, 2), 0), ((2, 1 << 16), 1)])
def test_count_true_is_exact_at_65536_entries(shape, axis):
    counts = stats_mod._count_true(np.ones(shape, dtype=bool), axis)
    assert counts.dtype == np.int64
    assert counts.tolist() == [1 << 16, 1 << 16]


@st.composite
def bool_blocks_and_views(draw):
    """A random (0..9, 0..70) bool block, read as is, transposed, sliced
    with steps (reversed included) or through a fancy column list, as
    _count_in reads infected[:, idx]."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 70))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    mask = np.array(bits, dtype=bool).reshape(rows, cols)
    view = draw(st.sampled_from(["as is", "transposed", "sliced", "fancy columns"]))
    if view == "transposed":
        return mask.T
    if view == "sliced":
        row_step, col_step = draw(st.sampled_from([1, 2, -1])), draw(st.sampled_from([1, 3, -2]))
        return mask[::row_step, draw(st.integers(0, 3)) :: col_step]
    if view == "fancy columns":
        return mask[:, draw(st.lists(st.integers(0, cols - 1), max_size=20))] if cols else mask[:, []]
    return mask


@given(bool_blocks_and_views(), st.sampled_from([0, 1]))
def test_count_true_equals_count_nonzero(mask, axis):
    counts = stats_mod._count_true(mask, axis)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.count_nonzero(mask, axis=axis))


def test_steiner_batch_on_an_analyst_session_block():
    # the shape of a T test on a simulated torus snapshot: k about 35 of 400
    # vertices after 40 uniform censorings, 200 relabelings over several chunks
    g = torus_grid((20, 20))
    iv = simulate_spread(g, SpreadParams(eta=10.0, k=40), substream(7, 0)).to_infection(g.n)
    iv = censor_uniform(iv, 40, substream(7, 1))
    block = np.random.default_rng(7).permuted(np.tile(iv.status, (200, 1)), axis=1)
    _assert_batch_matches_oracle(g, block)


def steiner_is_defined(g, terms):
    try:
        steiner_weight(g, iv_of(g.n, terms))
        return True
    except DisconnectedTerminalsError:
        return False


@st.composite
def graphs_automorphisms_and_snapshots(draw):
    """A random graph on 1..9 vertices, up to 40 of its automorphisms found by
    networkx's matcher, and a snapshot with censoring and at least one
    infected vertex."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    autos = [
        [m[v] for v in range(n)] for m in islice(GraphMatcher(ref, ref).isomorphisms_iter(), 40)
    ]
    status = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    status[draw(st.integers(0, n - 1))] = 1
    return build_graph(n, edges), autos, np.array(status, dtype=np.int8)


# T is left out: Mehlhorn's tie-breaks follow vertex numbers, so T can change
# under an automorphism (on the 4x4 torus it is 3 on {0, 2, 5} and 4 on its
# image {0, 5, 8})
@settings(max_examples=150)
@given(graphs_automorphisms_and_snapshots())
@example((cycle_graph(6), [[(v + 2) % 6 for v in range(6)]], np.array([1, 0, 2, 1, 0, 0], dtype=np.int8)))
def test_edges_within_and_radius_are_automorphism_invariant(case):
    g, autos, status = case
    iv = InfectionVector(status)
    want = (edges_within(g, iv), infection_radius(g, iv))
    for image in autos:
        moved = np.empty_like(status)
        moved[image] = status
        assert g.edges == build_graph(g.n, [(image[u], image[v]) for u, v in g.edges]).edges
        iv_moved = InfectionVector(moved)
        assert (edges_within(g, iv_moved), infection_radius(g, iv_moved)) == want


def test_statistic_spec_names_and_tails():
    g = cycle_graph(6)
    w = StatisticSpec.edges_within(g)
    r = StatisticSpec.infection_radius(g)
    t = StatisticSpec.steiner_weight(g)
    c = StatisticSpec.center_indicator(0)
    o = StatisticSpec.orbit_count({0, 5})
    assert [s.name for s in (w, r, t, c, o)] == ["W", "R", "T", "C", "orbit"]
    assert [s.tail for s in (w, r, t, c, o)] == [
        "upper",
        "lower",
        "lower",
        "upper",
        "upper",
    ]


def test_statistic_spec_from_name():
    g = star_graph(6)
    assert StatisticSpec.from_name("W", g) == StatisticSpec.edges_within(g)
    assert StatisticSpec.from_name("R", g) == StatisticSpec.infection_radius(g)
    assert StatisticSpec.from_name("T", g) == StatisticSpec.steiner_weight(g)
    assert StatisticSpec.from_name("C", g, 3) == StatisticSpec.center_indicator(3)
    # the orbit of a leaf under Aut(star) is every leaf; the hub is alone
    assert StatisticSpec.from_name("orbit", g, 2).vertex_orbit == {1, 2, 3, 4, 5}
    assert StatisticSpec.from_name("orbit", g).vertex_orbit == {0}
    with pytest.raises(ValueError, match="unknown statistic"):
        StatisticSpec.from_name("Q", g)


def test_statistic_spec_evaluate_and_score():
    g = cycle_graph(6)
    iv = iv_of(6, [0, 1, 3])
    w = StatisticSpec.edges_within(g)
    assert w.evaluate(iv) == 1
    assert w.score(iv) == 1.0
    r = StatisticSpec.infection_radius(g)
    assert r.evaluate(iv) == 2
    # lower-tail statistics flip sign so larger score = more clustered
    assert r.score(iv) == -2.0
    t = StatisticSpec.steiner_weight(g)
    assert t.score(iv) == -float(t.evaluate(iv))


def test_statistic_spec_validation():
    with pytest.raises(ValueError):
        StatisticSpec(kind="edges_within")
    with pytest.raises(ValueError):
        StatisticSpec(kind="center_indicator")
    with pytest.raises(ValueError):
        StatisticSpec(kind="orbit_count")
    with pytest.raises(ValueError):
        StatisticSpec(kind="nonsense", graph=cycle_graph(4))
