"""The batched permutation pipeline: score_batch against per-row scoring,
and fixed-seed results pinned to those of the per-draw loop it replaced."""

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
    composite_mc_test,
    conditional_mc_test,
    cycle_graph,
    empty_graph,
    exact_test,
    infection_from_infected,
    mc_test,
    multi_spread_mc_test,
    simulate_spread,
    torus_grid,
)
from netspread import permtest, stats


def _specs(g, center, orbit):
    return [
        StatisticSpec.edges_within(g),
        StatisticSpec.infection_radius(g),
        StatisticSpec.steiner_weight(g),
        StatisticSpec.center_indicator(center),
        StatisticSpec.orbit_count(orbit),
    ]


def _assert_batch_matches_rows(spec, block):
    """score_batch equals score() row by row, or raises what score() raises."""
    try:
        want = [spec.score(InfectionVector(row)) for row in block]
    except (ValueError, DisconnectedTerminalsError) as exc:
        with pytest.raises(type(exc)):
            spec.score_batch(block)
        return
    got = spec.score_batch(block)
    assert got.dtype == np.float64 and got.shape == (len(block),)
    assert got.tolist() == want


@st.composite
def graphs_and_blocks(draw):
    """A random graph on 1..9 vertices (often disconnected) and a status block.

    Rows are either relabelings of one snapshot, as the tests draw them,
    or independent snapshots with differing infected counts.
    """
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    statuses = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    if draw(st.booleans()):
        status = draw(statuses)
        perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
        rows = [[status[p] for p in perm] for perm in perms]
    else:
        rows = draw(st.lists(statuses, min_size=1, max_size=6))
    center = draw(st.integers(0, n - 1))
    orbit = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return build_graph(n, edges), np.array(rows, dtype=np.int8), center, orbit


@settings(max_examples=150)
@given(graphs_and_blocks())
@example((build_graph(1, []), np.array([[1], [1]], dtype=np.int8), 0, {0}))
@example((cycle_graph(5), np.ones((3, 5), dtype=np.int8), 2, {0, 3}))
@example(
    (
        build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        np.array([[1, 0, 2, 0, 1, 0], [0, 1, 0, 2, 0, 1]], dtype=np.int8),
        0,
        {1, 4},
    )
)
def test_score_batch_equals_per_row_score(case):
    g, block, center, orbit = case
    for spec in _specs(g, center, orbit):
        _assert_batch_matches_rows(spec, block)


def test_score_batch_disconnected_radius_is_minus_inf():
    g = build_graph(4, [(0, 1), (2, 3)])
    block = np.array([[1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.int8)
    assert StatisticSpec.infection_radius(g).score_batch(block).tolist() == [-1.0, -np.inf]


def test_score_batch_radius_chunks_and_bfs_path(monkeypatch):
    g = torus_grid((6, 6))
    rng = np.random.default_rng(3)
    status = infection_from_infected(36, [0, 1, 7, 20, 33], censored=[4, 5]).status
    block = np.array([status[rng.permutation(36)] for _ in range(23)])
    spec = StatisticSpec.infection_radius(g)
    want = spec.score_batch(block)
    # one row per gather chunk
    monkeypatch.setattr(stats, "_R_GATHER_BYTES", 1)
    assert spec.score_batch(block).tolist() == want.tolist()
    # above the distance-matrix limit: per-row BFS
    monkeypatch.setattr(stats, "_DMAT_LIMIT", 0)
    assert spec.score_batch(block).tolist() == want.tolist()


def test_score_batch_rejects_size_mismatch():
    block = np.zeros((2, 5), dtype=np.int8)
    for spec in _specs(cycle_graph(6), 0, {0}):
        if spec.graph is not None:
            with pytest.raises(ValueError):
                spec.score_batch(block)
    with pytest.raises(ValueError):
        StatisticSpec.center_indicator(5).score_batch(block)
    with pytest.raises(ValueError):
        StatisticSpec.orbit_count([1, 7]).score_batch(block)


# -- fixed-seed canaries ---------------------------------------------------------
# Results of the per-draw loop (one validated snapshot and one score() call per
# draw) that the batched pipeline replaced; the random stream must not move.

_G = torus_grid((5, 5))
_IV = infection_from_infected(25, [0, 1, 5, 6, 12, 18], censored=[3, 24])
_NULL = empty_graph(25)
_SPECS = dict(
    W=StatisticSpec.edges_within(_G),
    R=StatisticSpec.infection_radius(_G),
    T=StatisticSpec.steiner_weight(_G),
    C=StatisticSpec.center_indicator(6),
    orbit=StatisticSpec.orbit_count([0, 1, 2, 3, 4, 5, 6]),
)
_NO_NULL = "unverifiable: no null graph provided"

MC = {
    "W": ((6.0, False, 15), ((0.0, 3), (1.0, 9), (2.0, 19), (3.0, 14), (4.0, 11), (5.0, 3), (6.0, 1))),
    "R": ((-2.0, True, 60), ((-3.0, 48), (-2.0, 12))),
    "T": ((-5.0, False, 28), ((-10.0, 4), (-9.0, 12), (-8.0, 16), (-7.0, 17), (-6.0, 9), (-5.0, 2))),
    "C": ((1.0, True, 13), ((0.0, 47), (1.0, 13))),
    "orbit": ((3.0, True, 0), ((0.0, 3), (1.0, 22), (2.0, 22), (3.0, 13))),
}
CONDITIONAL = {
    "W": ((5.0, False, 6), ((1.0, 4), (2.0, 8), (3.0, 22), (4.0, 5), (5.0, 1))),
    "R": ((-2.0, True, 40), ((-3.0, 29), (-2.0, 11))),
    "T": ((-5.0, False, 29), ((-9.0, 3), (-8.0, 8), (-7.0, 22), (-6.0, 6), (-5.0, 1))),
    "C": ((1.0, True, 7), ((0.0, 33), (1.0, 7))),
    "orbit": ((4.0, False, 1), ((0.0, 6), (1.0, 18), (2.0, 11), (3.0, 4), (4.0, 1))),
}


def _null_for(spec):
    return _NULL if spec.graph is not None else None


@pytest.mark.parametrize("name", sorted(MC))
def test_mc_test_canary(name):
    spec = _SPECS[name]
    res = mc_test(spec, _IV, TestConfig(alpha=0.05, B=60, seed=17), null_graph=_null_for(spec))
    (threshold, saturated, ge), hist = MC[name]
    assert (res.threshold, res.saturated, res.raw_ge_count, res.histogram) == (
        threshold, saturated, ge, hist
    )
    assert res.p_value == (ge + 1) / 61
    assert res.observed == spec.score(_IV)
    assert res.validity_warning == (None if spec.graph is not None else _NO_NULL)


@pytest.mark.parametrize("name", sorted(CONDITIONAL))
def test_conditional_mc_test_canary(name):
    spec = _SPECS[name]
    cfg = TestConfig(alpha=0.1, B=40, seed=5, mode="censor-fixing")
    res = conditional_mc_test(spec, _IV, cfg, null_graph=_null_for(spec))
    (threshold, saturated, ge), hist = CONDITIONAL[name]
    assert (res.threshold, res.saturated, res.raw_ge_count, res.histogram) == (
        threshold, saturated, ge, hist
    )
    assert res.p_value == (ge + 1) / 41


def test_composite_mc_test_canary():
    res = composite_mc_test(
        _SPECS["W"], _SPECS["R"], _IV, TestConfig(alpha=0.1, B=80, seed=9), null_graph=_NULL
    )
    assert res.observed == (4.0, -3.0)
    assert res.threshold == (5.0, -2.0)
    assert res.p_value == 0.4691358024691358
    assert not res.reject
    assert res.histogram == ((0.0, 6), (1.0, 11), (2.0, 25), (3.0, 20), (4.0, 13), (5.0, 5))
    assert (res.raw_ge_count, res.n_draws, res.saturated) == (18, 80, (True, True))
    assert (res.statistic, res.tail, res.mode) == ("W+R", "upper+lower", "composite")


_IVS = [
    _IV,
    infection_from_infected(25, [2, 7, 8, 13]),
    infection_from_infected(25, [20, 21, 22], censored=[0]),
]


def test_multi_spread_mc_test_canary():
    cfg = TestConfig(alpha=0.05, B=50, seed=4)
    w = multi_spread_mc_test(_SPECS["W"], _IVS, cfg, null_graph=_NULL)
    assert (w.observed, w.threshold, w.p_value, w.reject) == (
        3.0, 2.6666666666666665, 0.0196078431372549, True
    )
    assert w.histogram == (
        (0.3333333333333333, 1), (0.6666666666666666, 9), (1.0, 6), (1.3333333333333333, 11),
        (1.6666666666666667, 12), (2.0, 8), (2.3333333333333335, 2), (2.6666666666666665, 1),
    )
    r = multi_spread_mc_test(_SPECS["R"], _IVS, cfg)
    assert (r.observed, r.threshold, r.p_value, r.saturated) == (
        -2.0, -1.6666666666666667, 0.29411764705882354, False
    )
    assert r.histogram == (
        (-2.6666666666666665, 7), (-2.3333333333333335, 29), (-2.0, 12), (-1.6666666666666667, 2)
    )


def test_exact_test_canary():
    g = cycle_graph(7)
    iv = infection_from_infected(7, [0, 1, 3], censored=[5])
    w = exact_test(StatisticSpec.edges_within(g), iv, 0.1, null_graph=empty_graph(7))
    assert (w.observed, w.threshold, w.p_value, w.saturated, w.n_draws) == (1.0, 2.0, 0.8, True, 5040)
    assert w.histogram == ((0.0, 1008), (1.0, 3024), (2.0, 1008))
    assert w.validity_warning is None
    r = exact_test(StatisticSpec.infection_radius(g), iv, 0.1)
    assert r.histogram == ((-2.0, 4032), (-1.0, 1008))
    t = exact_test(StatisticSpec.steiner_weight(g), iv, 0.2)
    assert (t.threshold, t.p_value, t.saturated) == (-2.0, 0.6, False)
    assert t.histogram == ((-4.0, 2016), (-3.0, 2016), (-2.0, 1008))


def test_readme_quick_start_p_value():
    alt = torus_grid((6, 6))
    iv = simulate_spread(alt, SpreadParams(eta=8.0, k=6), 3).to_infection(alt.n)
    res = mc_test(
        StatisticSpec.edges_within(alt), iv, TestConfig(alpha=0.05, B=500, seed=1),
        null_graph=empty_graph(36),
    )
    assert (res.observed, res.threshold, res.p_value, res.reject) == (
        4.0, 4.0, 0.041916167664670656, False
    )


def test_results_do_not_depend_on_block_size(monkeypatch):
    cfg = TestConfig(alpha=0.05, B=60, seed=17)
    cond = TestConfig(alpha=0.1, B=40, seed=5, mode="censor-fixing")
    runs = []
    for size in (permtest._BLOCK_STATUSES, 60, 1):
        monkeypatch.setattr(permtest, "_BLOCK_STATUSES", size)
        seen = []
        res = mc_test(_SPECS["W"], _IV, cfg, on_resample=lambda b, row: seen.append((b, row.tobytes())))
        runs.append((
            res,
            seen,
            conditional_mc_test(_SPECS["R"], _IV, cond),
            multi_spread_mc_test(_SPECS["W"], _IVS, cfg),
            exact_test(StatisticSpec.center_indicator(0), infection_from_infected(6, [0, 2]), 0.1),
        ))
    assert runs[0] == runs[1] == runs[2]
    assert [b for b, _ in runs[0][1]] == list(range(60))
