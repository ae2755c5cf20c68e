"""The batched permutation pipeline: each statistic's kernel, on one row
and on a block, against the per-row oracles, fixed-seed results pinned,
the blocked subset draw against a per-draw loop of the key draw (ties
included), mc_risk_curve's early-decided
alternatives against full tests, and mc_risk_curves against one
mc_risk_curve call per statistic."""

from collections import Counter
from itertools import combinations, product
from dataclasses import replace
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netspread import (
    DisconnectedTerminalsError,
    RiskCurve,
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
    mc_risk_curve,
    mc_risk_curves,
    mc_test,
    multi_spread_mc_test,
    path_graph,
    simulate_spread,
    torus_grid,
)
from netspread import permtest, spreading, stats
from netspread.rng import substream
from netspread.spreading import censor_uniform

import oracles


def _specs(g, center, orbit):
    return [
        StatisticSpec.edges_within(g),
        StatisticSpec.infection_radius(g),
        StatisticSpec.steiner_weight(g),
        StatisticSpec.center_indicator(center),
        StatisticSpec.orbit_count(orbit),
    ]


def _assert_batch_matches_oracle(spec, block):
    """evaluate() and score() row by row and score_batch on the block equal
    the per-row oracle, or raise what it raises (for the block: for the
    first row that fails)."""
    for row in block:
        iv = InfectionVector(row)
        try:
            want = oracles.statistic(spec, iv)
        except (ValueError, DisconnectedTerminalsError) as exc:
            with pytest.raises(type(exc)):
                spec.evaluate(iv)
            continue
        got = spec.evaluate(iv)
        assert got == want and type(got) is type(want)
        assert spec.score(iv) == oracles.score(spec, iv)
    try:
        want = [oracles.score(spec, InfectionVector(row)) for row in block]
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


_TWO_PATHS = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


# R's knobs: every graph above the distance-matrix limit (one BFS per row), and
# a gather budget of one byte (one row and one infected rank per gather)
@settings(max_examples=150)
@given(graphs_and_blocks(), st.sampled_from([{}, {"_DMAT_LIMIT": 0}, {"_R_GATHER_BYTES": 1}]))
@example((build_graph(1, []), np.array([[1], [1]], dtype=np.int8), 0, {0}), {})
@example((build_graph(1, []), np.array([[1], [0], [2]], dtype=np.int8), 0, {0}), {"_DMAT_LIMIT": 0})
@example((cycle_graph(5), np.ones((3, 5), dtype=np.int8), 2, {0, 3}), {"_R_GATHER_BYTES": 1})
@example((_TWO_PATHS, np.array([[1, 0, 2, 0, 1, 0], [0, 1, 0, 2, 0, 1]], dtype=np.int8), 0, {1, 4}), {})
@example(
    (_TWO_PATHS, np.array([[1, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0], [0, 0, 2, 1, 1, 1]], dtype=np.int8), 3, {2}),
    {},
)
@example(
    (cycle_graph(6), np.array([[1, 1, 0, 2, 0, 0], [0, 0, 2, 0, 0, 0], [1, 0, 0, 0, 0, 0]], dtype=np.int8), 5, {1}),
    {"_R_GATHER_BYTES": 1},
)
def test_score_batch_equals_per_row_score(case, knobs):
    # rows whose infected counts differ, rows with none infected, and n = 1
    g, block, center, orbit = case
    with pytest.MonkeyPatch.context() as mp:
        for name, value in knobs.items():
            mp.setattr(stats, name, value)
        for spec in _specs(g, center, orbit):
            _assert_batch_matches_oracle(spec, block)


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


def test_score_batch_radius_rows_of_equal_and_unequal_counts():
    # equal counts take the plain index reshape, unequal ones the padding
    g = torus_grid((6, 6))
    spec = StatisticSpec.infection_radius(g)
    rng = np.random.default_rng(5)
    status = infection_from_infected(36, [0, 1, 7, 20, 33], censored=[4, 5]).status
    equal = np.array([status[rng.permutation(36)] for _ in range(9)])
    unequal = equal.copy()
    unequal[::2, 3] = 1  # vertex 3 infected on every other row, a sixth where it was not
    for block in (equal, unequal, equal[:1], unequal[:1]):
        want = [oracles.score(spec, InfectionVector(row)) for row in block]
        assert spec.score_batch(block).tolist() == want
    assert len(set(np.count_nonzero(unequal == 1, axis=1))) == 2


# a path of 300 vertices needs uint16 distances; with one more, isolated,
# vertex its unreachable pairs hold 65535, and those of _TWO_PATHS 255
@pytest.mark.parametrize(
    "g, dtype, infected, want",
    [
        (path_graph(300), np.uint16, [[0, 299], [0, 150], [7, 8], [3, 200, 299]], [150, 75, 1, 148]),
        (build_graph(301, [(v, v + 1) for v in range(299)]), np.uint16, [[0, 299], [0, 300], [300]], [150, inf, 0]),
        (_TWO_PATHS, np.uint8, [[0, 2], [0, 5], [3], [2, 3]], [1, inf, 0, inf]),
    ],
)
@pytest.mark.parametrize("knobs", [{}, {"_R_GATHER_BYTES": 1}])
def test_score_batch_radius_at_either_distance_width(monkeypatch, g, dtype, infected, want, knobs):
    assert g.distance_matrix.dtype == dtype
    for name, value in knobs.items():
        monkeypatch.setattr(stats, name, value)
    block = np.array([infection_from_infected(g.n, row).status for row in infected])
    spec = StatisticSpec.infection_radius(g)
    assert [spec.evaluate(InfectionVector(row)) for row in block] == want
    _assert_batch_matches_oracle(spec, block)


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
# Fixed-seed results of the subset draw, which oracles.relabeled_rows
# reproduces draw by draw; they move only with a named change of the stream.

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
    "W": ((5.0, True, 11), ((0.0, 5), (1.0, 7), (2.0, 20), (3.0, 17), (4.0, 7), (5.0, 4))),
    "R": ((-2.0, True, 60), ((-3.0, 47), (-2.0, 13))),
    "T": ((-5.0, False, 34), ((-10.0, 1), (-9.0, 8), (-8.0, 17), (-7.0, 26), (-6.0, 6), (-5.0, 2))),
    "C": ((1.0, True, 19), ((0.0, 41), (1.0, 19))),
    "orbit": ((4.0, False, 3), ((0.0, 8), (1.0, 22), (2.0, 19), (3.0, 8), (4.0, 3))),
}
CONDITIONAL = {
    "W": ((5.0, False, 15), ((0.0, 1), (1.0, 10), (2.0, 8), (3.0, 6), (4.0, 13), (5.0, 2))),
    "R": ((-2.0, True, 40), ((-3.0, 32), (-2.0, 8))),
    "T": ((-5.0, False, 21), ((-10.0, 2), (-9.0, 7), (-8.0, 10), (-7.0, 9), (-6.0, 11), (-5.0, 1))),
    "C": ((1.0, True, 10), ((0.0, 30), (1.0, 10))),
    "orbit": ((3.0, True, 0), ((0.0, 7), (1.0, 17), (2.0, 9), (3.0, 7))),
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
    assert res.p_value == 0.4444444444444444
    assert not res.reject
    assert res.histogram == ((0.0, 3), (1.0, 12), (2.0, 22), (3.0, 26), (4.0, 13), (5.0, 3), (6.0, 1))
    assert (res.raw_ge_count, res.n_draws, res.saturated) == (17, 80, (False, True))
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
        3.0, 2.3333333333333335, 0.0196078431372549, True
    )
    assert w.histogram == (
        (0.3333333333333333, 2), (0.6666666666666666, 3), (1.0, 12), (1.3333333333333333, 14),
        (1.6666666666666667, 11), (2.0, 6), (2.3333333333333335, 2),
    )
    r = multi_spread_mc_test(_SPECS["R"], _IVS, cfg)
    assert (r.observed, r.threshold, r.p_value, r.saturated) == (
        -2.0, -1.6666666666666667, 0.37254901960784315, False
    )
    assert r.histogram == (
        (-2.6666666666666665, 2), (-2.3333333333333335, 30), (-2.0, 17), (-1.6666666666666667, 1)
    )


def test_multi_spread_radius_with_differing_k_equals_per_snapshot_loop():
    # every block scores snapshots with different infected counts together
    g = torus_grid((6, 6))
    ivs = [
        simulate_spread(g, SpreadParams(eta=4.0, k=k), substream(11, k)).to_infection(g.n)
        for k in (6, 4, 3)
    ]
    ivs[0] = censor_uniform(ivs[0], 5, substream(11, 0))
    cfg = TestConfig(alpha=0.1, B=300, seed=8)
    spec = StatisticSpec.infection_radius(g)
    res = multi_spread_mc_test(spec, ivs, cfg, null_graph=empty_graph(g.n))
    draws = oracles.relabeled_rows(np.stack([iv.status for iv in ivs]), cfg.B, substream(cfg.seed))
    means = [
        sum(oracles.score(spec, InfectionVector(snap)) for snap in draw) / len(ivs) for draw in draws
    ]
    assert res.observed == sum(oracles.score(spec, iv) for iv in ivs) / len(ivs)
    assert res.histogram == tuple(
        (float(v), int(c)) for v, c in zip(*np.unique(means, return_counts=True))
    )
    assert res.raw_ge_count == sum(m >= res.observed for m in means)


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
        4.0, 4.0, 0.05189620758483034, False
    )


def test_results_do_not_depend_on_block_size(monkeypatch):
    cfg = TestConfig(alpha=0.05, B=60, seed=17)
    cond = TestConfig(alpha=0.1, B=40, seed=5, mode="censor-fixing")
    runs = []
    for size in (permtest._BLOCK_STATUSES, 60, 1):
        monkeypatch.setattr(permtest, "_BLOCK_STATUSES", size)
        seen = [(b, row.tobytes()) for b, row in enumerate(permtest._resampled(_IV.status[None], cfg))]
        runs.append((
            mc_test(_SPECS["W"], _IV, cfg),
            seen,
            conditional_mc_test(_SPECS["R"], _IV, cond),
            multi_spread_mc_test(_SPECS["W"], _IVS, cfg),
            exact_test(StatisticSpec.center_indicator(0), infection_from_infected(6, [0, 2]), 0.1),
        ))
    assert runs[0] == runs[1] == runs[2]
    assert [b for b, _ in runs[0][1]] == list(range(60))


# -- the blocked subset draw -----------------------------------------------------


@st.composite
def relabel_cases(draw):
    """An (m, n) int8 status stack, B, the positions a censor-fixing draw
    moves (the uncensored ones, shared by the snapshots) or None, a first
    block size, the block cap in statuses, and a seed."""
    n = draw(st.integers(1, 70))
    m = draw(st.integers(1, 3))
    stack = np.array(
        draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n)), dtype=np.int8
    ).reshape(m, n)
    positions = None
    if draw(st.booleans()) and (stack[0] != 2).any():
        stack[1:][stack[1:] == 2] = 0
        stack[:, stack[0] == 2] = 2
        positions = np.flatnonzero(stack[0] != 2)
    B = draw(st.integers(1, 40))
    first_rows = draw(st.sampled_from([None, 1, 3, 16]))
    block_cap = draw(st.sampled_from([permtest._BLOCK_STATUSES, 1, 64]))
    return stack, B, positions, first_rows, block_cap, draw(st.integers(0, 2**32 - 1))


def _drawn_blocks(stack, B, rng, positions, first_rows, block_cap):
    """_infected_blocks under a block cap, each block with its statuses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permtest, "_BLOCK_STATUSES", block_cap)
        blocks = list(permtest._infected_blocks(stack, B, rng, positions, first_rows))
    return [(infected, permtest._statuses(stack, positions, infected, keys)) for infected, keys in blocks]


def _assert_blocks_equal_oracle(stack, B, seed_rng, positions, first_rows, block_cap):
    """The blocked draw's masks and statuses equal the per-draw loop's, and
    both leave the generator in one state."""
    want_rng, got_rng = seed_rng(), seed_rng()
    want = oracles.relabeled_rows(stack, B, want_rng, positions)
    blocks = _drawn_blocks(stack, B, got_rng, positions, first_rows, block_cap)
    infected = np.concatenate([mask for mask, _ in blocks])
    assert infected.dtype == bool
    assert np.array_equal(infected, want == 1)
    assert np.array_equal(np.concatenate([status for _, status in blocks]), want)
    assert _position(got_rng) == _position(want_rng)
    return blocks


def _position(rng):
    """How far a generator has drawn: a _TiedStream's key count and its inner
    generator's state, or a generator's state."""
    return getattr(rng, "drawn", None), getattr(rng, "inner", rng).bit_generator.state


@settings(max_examples=200)
@given(relabel_cases())
@example((np.array([[1]], dtype=np.int8), 5, None, None, 1, 0))
@example((np.ones((2, 70), dtype=np.int8), 40, None, 3, 64, 7))
@example((np.array([[1, 2, 0, 1, 2, 0]] * 2, dtype=np.int8), 9, np.array([0, 2, 3, 5]), 1, 64, 3))
def test_relabel_blocks_equal_per_draw_permutations(case):
    stack, B, positions, first_rows, block_cap, seed = case
    blocks = _assert_blocks_equal_oracle(
        stack, B, lambda: np.random.default_rng(seed), positions, first_rows, block_cap
    )
    assert all(status.dtype == np.int8 for _, status in blocks)
    # block sizes: first_rows, then doubling, never above the block cap
    step = max(1, block_cap // stack.size)
    sizes, rows = [], step if first_rows is None else min(first_rows, step)
    while sum(sizes) < B:
        sizes.append(min(rows, B - sum(sizes)))
        rows = min(2 * rows, step)
    assert [len(mask) for mask, _ in blocks] == sizes


class _TiedStream:
    """A generator whose uint32 keys are np.random.default_rng(seed)'s,
    except that key vector i of the stream (keys i*p .. i*p + p - 1,
    counted from its start, redraws included) is vectors[i] where given.
    It has no bit_generator, so a draw that read or rewound the state of
    its generator fails here."""

    def __init__(self, seed, p, vectors):
        self.inner, self.p, self.vectors, self.drawn = np.random.default_rng(seed), p, vectors, 0

    def integers(self, low, high, size, dtype):
        keys = self.inner.integers(low, high, size=size, dtype=dtype)
        flat = keys.reshape(-1)
        for i, vector in self.vectors.items():
            for at in range(i * self.p, (i + 1) * self.p):
                if self.drawn <= at < self.drawn + flat.size:
                    flat[at - self.drawn] = vector[at - i * self.p]
        self.drawn += flat.size
        return keys


@pytest.mark.parametrize(
    "stack, positions",
    [
        (np.array([[1, 1, 2, 2, 0, 0]], dtype=np.int8), None),
        (np.array([[1, 1, 2, 2, 0, 0], [0, 1, 1, 0, 1, 0]], dtype=np.int8), None),
        (np.array([[1, 1, 0, 0, 0, 2]], dtype=np.int8), np.arange(5)),
    ],
)
def test_tied_keys_are_redrawn_whatever_the_block_size(stack, positions):
    p = stack.shape[1] if positions is None else positions.size
    vectors = {
        0: [7] * p,  # ties at every k, then its redraw ties again
        1: [7] * p,
        4: [1, 9, 2, 9, 9, 9][:p],  # two infected, then a tie among the censored
        6: [4, 4, 4, 0, 8, 8][:p],  # a tie at k = 2 and k = 3, in a later row
        9: [3] * p,
    }
    B = 8
    for block_cap in (permtest._BLOCK_STATUSES, 3 * stack.size):
        blocks = _assert_blocks_equal_oracle(
            stack, B, lambda: _TiedStream(11, p, vectors), positions, None, block_cap
        )
        infected = np.concatenate([mask for mask, _ in blocks])
        assert (np.count_nonzero(infected, axis=2) == np.count_nonzero(stack == 1, axis=1)).all()
    stream = _TiedStream(11, p, vectors)
    list(permtest._infected_blocks(stack, B, stream, positions))
    assert stream.drawn > B * stack.shape[0] * p  # some vectors were redrawn
    if positions is None and stack.shape[0] == 1:
        # row 2 is vector 4: infected {0, 2}, and the tie at key 9 gives the
        # two censored marks to the lowest vertices, 1 and 3
        [(_, statuses)] = _drawn_blocks(stack, B, _TiedStream(11, p, vectors), None, None, permtest._BLOCK_STATUSES)
        assert statuses[2, 0].tolist() == [1, 2, 1, 2, 0, 0]


def test_hooked_and_unhooked_runs_agree():
    # mc_test scores exactly the masks _mc_draws yields from its generator,
    # and both leave that generator at one place
    for mode, p in (("full-permute", 25), ("censor-fixing", 23)):
        cfg = TestConfig(alpha=0.1, B=30, seed=2, mode=mode)
        tied = lambda: _TiedStream(3, p, {2: [5] * p, 3: [5] * p})  # noqa: E731
        for rng in (lambda: None, lambda: substream(8), tied):
            drawn_rng, test_rng = rng(), rng()
            masks = np.concatenate(list(permtest._mc_draws(_IV.status[None], cfg, drawn_rng)))
            res = mc_test(_SPECS["R"], _IV, cfg, rng=test_rng)
            scores = _SPECS["R"].score_batch(masks)
            assert res.histogram == tuple(sorted(Counter(scores.tolist()).items()))
            assert res.raw_ge_count == np.count_nonzero(scores >= res.observed)
            assert len(masks) == 30
            if drawn_rng is not None:
                assert _position(drawn_rng) == _position(test_rng)


@pytest.mark.parametrize("mode", ["full-permute", "censor-fixing"])
@pytest.mark.parametrize("tie", [False, True])
def test_resampled_rows_hold_the_drawn_masks(monkeypatch, mode, tie):
    # the --debug-dump replay draws what the test draws, in both modes,
    # for two snapshots, and through tied keys
    stack = np.array([_IV.status, infection_from_infected(25, [2, 7, 8, 13], censored=[3, 24]).status])
    cfg = TestConfig(alpha=0.1, B=12, seed=3, mode=mode)
    p = 25 if mode == "full-permute" else 23
    tied = [_TiedStream(3, p, {1: [5] * p, 2: [5] * p, 7: [9] * p}) for _ in range(2)]
    if tie:
        streams = iter(tied)
        monkeypatch.setattr(permtest, "substream", lambda seed: next(streams))
    masks = np.concatenate(list(permtest._mc_draws(stack, cfg)))
    rows = np.array(list(permtest._resampled(stack, cfg)))
    if tie:
        # both drew past their 12 * 2 * p keys: the tied vectors were redrawn
        assert all(stream.drawn > 12 * 2 * p for stream in tied)
    assert rows.shape == (12, 2 * 25)
    assert np.array_equal(rows.reshape(-1, 25) == 1, masks)
    counts = [np.count_nonzero(rows.reshape(12, 2, 25) == code, axis=2) for code in (0, 1, 2)]
    assert all((c == np.count_nonzero(stack == code, axis=1)).all() for code, c in enumerate(counts))


# -- the law of the draw ------------------------------------------------------------

# one-sided Clopper-Pearson tail of the checks below: a correct draw fails
# one this rarely
CP_TAIL = 1e-6


def _exact_cells(stack, mode):
    """The equally likely (infected, censored) pairs of a relabeled (m, n)
    stack, one pair per snapshot: in full-permute mode a snapshot's k
    infected vertices are any k-subset and its c censored ones any c-subset
    of the rest; in censor-fixing mode the infected set is any k-subset of
    the uncensored vertices and the censored set stays. Snapshots are
    independent."""
    per_snapshot = []
    for snap in stack.tolist():
        n, k, c = len(snap), snap.count(1), snap.count(2)
        if mode == "censor-fixing":
            fixed = frozenset(v for v in range(n) if snap[v] == 2)
            cells = [(frozenset(i), fixed) for i in combinations(sorted(set(range(n)) - fixed), k)]
        else:
            cells = [
                (frozenset(i), frozenset(j))
                for i in combinations(range(n), k)
                for j in combinations(sorted(set(range(n)) - set(i)), c)
            ]
        per_snapshot.append(cells)
    return list(product(*per_snapshot))


@pytest.mark.parametrize(
    "stack, mode",
    [
        ([[1, 1, 2, 0, 0, 0]], "full-permute"),
        ([[1, 2, 1, 0, 1, 0, 2]], "full-permute"),
        ([[1, 1, 1, 2, 0, 0, 0]], "censor-fixing"),
        ([[1, 0, 2, 0], [1, 1, 0, 0]], "full-permute"),
        ([[1, 0, 2, 0, 0], [1, 1, 2, 0, 0]], "censor-fixing"),
    ],
)
def test_hooked_draws_follow_the_exact_law(stack, mode):
    chisquare = pytest.importorskip("scipy.stats").chisquare
    stack = np.array(stack, dtype=np.int8)
    cells = _exact_cells(stack, mode)
    seen = Counter()
    cfg = TestConfig(alpha=0.1, B=60 * len(cells), seed=21, mode=mode)
    for row in permtest._resampled(stack, cfg):
        snaps = row.reshape(stack.shape)
        seen[tuple((frozenset(np.flatnonzero(s == 1).tolist()), frozenset(np.flatnonzero(s == 2).tolist())) for s in snaps)] += 1
    assert set(seen) == set(cells)
    assert chisquare([seen[cell] for cell in cells]).pvalue > CP_TAIL


def _exact_tail(spec, stack, mode):
    """The permutation probability that the mean score of a relabeled stack
    is at least the observed one, enumerated over every snapshot's infected
    sets (no statistic reads the censored set)."""
    per_snapshot = []
    for snap in stack:
        movable = np.flatnonzero(snap != 2) if mode == "censor-fixing" else range(len(snap))
        scores = []
        for subset in combinations(movable, int(np.count_nonzero(snap == 1))):
            status = np.zeros(len(snap), dtype=np.int8)
            status[list(subset)] = 1
            scores.append(oracles.score(spec, InfectionVector(status)))
        per_snapshot.append(scores)
    observed = _oracle_mean(spec, stack)
    means = [sum(draw) / len(draw) for draw in product(*per_snapshot)]
    return sum(mean >= observed for mean in means) / len(means)


@pytest.mark.parametrize("mode", ["full-permute", "censor-fixing"])
@pytest.mark.parametrize(
    "spec, stack",
    [
        (StatisticSpec.edges_within(cycle_graph(7)), [[1, 1, 0, 2, 0, 1, 0]]),
        (StatisticSpec.infection_radius(path_graph(6)), [[1, 0, 1, 2, 0, 0]]),
        (StatisticSpec.edges_within(cycle_graph(6)), [[1, 1, 0, 2, 0, 0], [0, 1, 0, 2, 1, 1]]),
    ],
)
def test_mc_p_values_agree_with_the_exact_law(spec, stack, mode):
    beta = pytest.importorskip("scipy.stats").beta
    stack = np.array(stack, dtype=np.int8)
    ivs = [InfectionVector(snap) for snap in stack]
    exact = _exact_tail(spec, stack, mode)
    cfg = TestConfig(alpha=0.1, B=4000, seed=6, mode=mode)
    res = multi_spread_mc_test(spec, ivs, cfg) if len(ivs) > 1 else mc_test(spec, ivs[0], cfg)
    ge, B = res.raw_ge_count, cfg.B
    lower = beta.ppf(CP_TAIL, ge, B - ge + 1) if ge else 0.0
    upper = beta.ppf(1 - CP_TAIL, ge + 1, B - ge) if ge < B else 1.0
    assert 0.0 < exact < 1.0 and lower <= exact <= upper
    if mode == "full-permute" and len(ivs) == 1:
        assert exact_test(spec, ivs[0], 0.1).p_value == exact


@pytest.mark.parametrize(
    "stack, mode",
    [
        ([[0, 0, 2, 0]], "full-permute"),  # k = 0
        ([[0, 0, 2, 0]], "censor-fixing"),
        ([[1, 1, 1, 1]], "full-permute"),  # k = n
        ([[1, 2, 1, 1, 2]], "censor-fixing"),  # every uncensored vertex infected
        ([[1, 2, 1, 1, 2]], "full-permute"),
        ([[1]], "full-permute"),  # n = 1
        ([[0]], "censor-fixing"),
        ([[2]], "full-permute"),
        ([[1, 0, 0], [1, 1, 1]], "full-permute"),  # k = 1 and k = n in one stack
    ],
)
@pytest.mark.parametrize("B, first_rows", [(1, None), (7, 1), (7, None)])
def test_edge_case_draws(stack, mode, B, first_rows):
    stack = np.array(stack, dtype=np.int8)
    cfg = TestConfig(alpha=0.1, B=B, seed=4, mode=mode)
    positions = permtest._shuffled(stack, cfg)
    blocks = _assert_blocks_equal_oracle(
        stack, B, lambda: substream(4), positions, first_rows, permtest._BLOCK_STATUSES
    )
    infected = np.concatenate([mask for mask, _ in blocks])
    assert (np.count_nonzero(infected, axis=2) == np.count_nonzero(stack == 1, axis=1)).all()
    masks = np.concatenate(list(permtest._mc_draws(stack, cfg, None, first_rows)))
    statuses = np.array(list(permtest._resampled(stack, cfg))).reshape(B, *stack.shape)
    assert np.array_equal(masks.reshape(statuses.shape), statuses == 1)
    scores = StatisticSpec.center_indicator(0).score_batch(masks).reshape(B, -1).mean(axis=1)
    assert scores.tolist() == (statuses[:, :, 0] == 1).mean(axis=1).tolist()
    for code in (0, 1, 2):
        assert (np.count_nonzero(statuses == code, axis=2) == np.count_nonzero(stack == code, axis=1)).all()
    if mode == "censor-fixing":
        assert (statuses[..., stack[0] == 2] == 2).all()


# -- composite and multi-spread tests in both modes -------------------------------


@st.composite
def stack_cases(draw):
    """m = 1..3 snapshots of a random graph on 2..10 vertices sharing one
    censored set, each with an infected vertex, two of W, R and T, and a
    config in either mode."""
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    censored = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    free = [v for v in range(n) if v not in censored]
    ivs = []
    for _ in range(draw(st.integers(1, 3))):
        status = [2 if v in censored else draw(st.integers(0, 1)) for v in range(n)]
        status[draw(st.sampled_from(free))] = 1
        ivs.append(InfectionVector(status))
    kinds = [StatisticSpec.edges_within, StatisticSpec.infection_radius, StatisticSpec.steiner_weight]
    first, second = (kind(g) for kind in draw(st.permutations(kinds))[:2])
    cfg = TestConfig(
        alpha=draw(st.sampled_from([0.05, 0.1, 0.3])),
        B=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 1000)),
        mode=draw(st.sampled_from(["full-permute", "censor-fixing"])),
    )
    return (first, second), ivs, cfg


def _oracle_draws(stack, cfg):
    """The per-draw loop: cfg.B relabelings of an (m, n) status stack from substream(cfg.seed)."""
    positions = np.flatnonzero(stack[0] != 2) if cfg.mode == "censor-fixing" else None
    return oracles.relabeled_rows(stack, cfg.B, substream(cfg.seed), positions)


def _oracle_mean(spec, snaps):
    return sum(oracles.score(spec, InfectionVector(snap)) for snap in snaps) / len(snaps)


def _oracle_composite(first, second, iv, cfg):
    """composite_mc_test from the oracle's draws and per-row scores."""
    draws = _oracle_draws(iv.status[None], cfg)[:, 0]
    o1, o2 = oracles.score(first, iv), oracles.score(second, iv)
    s1 = np.array([oracles.score(first, InfectionVector(row)) for row in draws])
    s2 = np.array([oracles.score(second, InfectionVector(row)) for row in draws])
    labels = dict(
        statistic=f"{first.name}+{second.name}", tail=f"{first.tail}+{second.tail}",
        mode="composite", validity_warning="unverifiable: no null graph provided",
    )
    one = permtest._calibrate(o1, s1, cfg.alpha / 2, **labels)
    two = permtest._calibrate(o2, s2[s1 <= one.threshold], cfg.alpha / 2, total=cfg.B, **labels)
    return replace(
        one,
        observed=(o1, o2),
        threshold=(one.threshold, two.threshold),
        p_value=min(1.0, 2 * min(one.p_value, two.p_value)),
        reject=one.reject or two.reject,
        saturated=(one.saturated, two.saturated),
    )


@settings(max_examples=150)
@given(stack_cases())
@example((
    (StatisticSpec.edges_within(cycle_graph(6)), StatisticSpec.steiner_weight(cycle_graph(6))),
    [infection_from_infected(6, [0, 1], censored=[3, 4])] * 3,
    TestConfig(alpha=0.3, B=40, seed=2, mode="censor-fixing"),
))
def test_composite_and_multi_spread_equal_per_draw_loop(case):
    (first, second), ivs, cfg = case
    stack = np.stack([iv.status for iv in ivs])
    try:
        want_multi = permtest._calibrate(
            _oracle_mean(first, stack),
            np.array([_oracle_mean(first, draw) for draw in _oracle_draws(stack, cfg)]),
            cfg.alpha,
            statistic=f"avg-{first.name}", tail=first.tail, mode="multi-spread",
            validity_warning="unverifiable: no null graph provided",
        )
    except DisconnectedTerminalsError:
        with pytest.raises(DisconnectedTerminalsError):
            multi_spread_mc_test(first, ivs, cfg)
    else:
        assert multi_spread_mc_test(first, ivs, cfg) == want_multi
    try:
        want_composite = _oracle_composite(first, second, ivs[0], cfg)
    except DisconnectedTerminalsError:
        with pytest.raises(DisconnectedTerminalsError):
            composite_mc_test(first, second, ivs[0], cfg)
    else:
        assert composite_mc_test(first, second, ivs[0], cfg) == want_composite


def test_multi_spread_censor_fixing_needs_one_censored_set():
    g = cycle_graph(8)
    ivs = [
        infection_from_infected(8, [0, 1], censored=[4]),
        infection_from_infected(8, [2, 3], censored=[5]),
    ]
    spec = StatisticSpec.edges_within(g)
    cfg = TestConfig(alpha=0.1, B=20, seed=1)
    assert multi_spread_mc_test(spec, ivs, cfg).n_draws == 20
    with pytest.raises(ValueError, match="share one censored set"):
        multi_spread_mc_test(spec, ivs, replace(cfg, mode="censor-fixing"))


# -- early-decided alternatives in mc_risk_curve ------------------------------------


def _curve_of_full_tests(g0, g1, eta0, etas, k, c, cfg, reps, stat):
    """mc_risk_curve as a plain loop of full tests over the same substreams."""
    test_fn = conditional_mc_test if cfg.mode == "censor-fixing" else mc_test

    def run(g, eta, tag, rep):
        iv = simulate_spread(g, SpreadParams(eta=eta, k=k), substream(cfg.seed, tag, rep)).to_infection(g.n)
        if c:
            iv = censor_uniform(iv, c, substream(cfg.seed, tag + 1, rep))
        return test_fn(stat, iv, cfg, null_graph=g0, rng=substream(cfg.seed, tag + 2, rep))

    null = [run(g0, eta0, 0, rep) for rep in range(reps)]
    alts = {eta: [run(g1, eta, 10 * (i + 1), rep) for rep in range(reps)] for i, eta in enumerate(etas)}
    for res in null + [res for col in alts.values() for res in col]:
        assert res.n_draws == cfg.B and sum(count for _, count in res.histogram) == cfg.B
    return RiskCurve(
        type_i=sum(res.reject for res in null) / reps,
        mean_threshold=sum(res.raw_scale()[1] for res in null) / reps,
        type_ii={eta: (reps - sum(res.reject for res in col)) / reps for eta, col in alts.items()},
        reps=reps,
        alt_values={eta: [res.raw_scale()[0] for res in col] for eta, col in alts.items()},
    )


@st.composite
def curve_cases(draw):
    """Random graphs on 2..12 vertices (often disconnected, where R scores
    -inf), a test config, and spread sizes."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = st.lists(st.sampled_from(pairs), unique=True)
    g1 = build_graph(n, draw(edges))
    g0 = empty_graph(n) if draw(st.booleans()) else build_graph(n, draw(edges))
    k = draw(st.integers(1, n))
    c = draw(st.integers(0, n - k))
    # 0.29 * 100 is the exact-budget edge; B < 1/alpha saturates every test
    alpha, B = draw(st.sampled_from([(0.29, 100), (0.05, 10), (0.01, 100), (0.2, 30), (0.1, 1)]))
    mode = draw(st.sampled_from(["full-permute", "censor-fixing"]))
    cfg = TestConfig(alpha=alpha, B=B, seed=draw(st.integers(0, 1000)), mode=mode)
    stat = draw(st.sampled_from([StatisticSpec.edges_within, StatisticSpec.infection_radius]))(g1)
    return g0, g1, k, c, cfg, stat, draw(st.integers(1, 4))


_TWO_PATHS = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


@settings(max_examples=60)
@given(curve_cases())
@example((empty_graph(6), _TWO_PATHS, 3, 1, TestConfig(alpha=0.29, B=100, seed=2),
          StatisticSpec.infection_radius(_TWO_PATHS), 3))
def test_mc_risk_curve_equals_full_tests(case):
    g0, g1, k, c, cfg, stat, reps = case
    args = (g0, g1, 0.0, [0.0, 1.0, 10.0], k, c, cfg, reps)
    try:
        want = _curve_of_full_tests(*args, stat)
    except ValueError:
        # R of a snapshot whose infected vertices were all censored
        with pytest.raises(ValueError, match="at least one infected"):
            mc_risk_curve(*args, stat=stat)
        return
    assert mc_risk_curve(*args, stat=stat) == want


@pytest.mark.parametrize("mode", ["full-permute", "censor-fixing"])
def test_mc_risk_curve_torus_equals_full_tests(mode):
    g1 = torus_grid((8, 8))
    cfg = TestConfig(alpha=0.05, B=60, seed=3, mode=mode)
    for stat in (StatisticSpec.edges_within(g1), StatisticSpec.infection_radius(g1)):
        args = (empty_graph(64), g1, 0.0, [1.0, 10.0, 100.0], 12, 8, cfg, 6)
        got = mc_risk_curve(*args, stat=stat)
        assert got == _curve_of_full_tests(*args, stat)


def _lockstep_calls(monkeypatch):
    """The rows of every lockstep walk mc_risk_curve runs, one list per call."""
    calls = []
    walk = spreading._stacked_paths

    def counting(rows, draws):
        calls.append([eta for _, eta in rows])
        return walk(rows, draws)

    monkeypatch.setattr(spreading, "_stacked_paths", counting)
    return calls


@pytest.mark.parametrize("reps", [5, 6])
def test_mc_risk_curve_lockstep_either_side_of_the_stack_size(monkeypatch, reps):
    # four exact snapshots a replicate: 20 rows walk one by one, 24 in lockstep
    assert spreading._STACK_MIN_ROWS == 24
    calls = _lockstep_calls(monkeypatch)
    g1 = torus_grid((6, 6))
    args = (empty_graph(36), g1, 0.0, [1.0, 10.0, 100.0], 8, 4, TestConfig(alpha=0.1, B=40, seed=5), reps)
    for stat in (StatisticSpec.edges_within(g1), StatisticSpec.infection_radius(g1)):
        assert mc_risk_curve(*args, stat=stat) == _curve_of_full_tests(*args, stat)
    assert calls == ([[0.0, 1.0, 10.0, 100.0] * reps] * 2 if reps == 6 else [])


@pytest.mark.parametrize("n_stats", [None, 2])
def test_mc_risk_curve_lockstep_across_chunks(monkeypatch, n_stats):
    # chunks of 24 rows: 12 replicates of four exact snapshots split into
    # two chunks of six replicates, each one lockstep walk; None is
    # mc_risk_curve's default statistic, 2 is mc_risk_curves with W and R,
    # which share the same two walks
    monkeypatch.setattr(spreading, "_STACK_BYTES", 0)
    calls = _lockstep_calls(monkeypatch)
    g1 = torus_grid((6, 6))
    cfg = TestConfig(alpha=0.1, B=40, seed=6)
    args = (empty_graph(36), g1, 0.5, [1.0, 10.0, 1e6], 12, 3, cfg, 12)
    if n_stats is None:
        assert mc_risk_curve(*args) == _curve_of_full_tests(*args, StatisticSpec.edges_within(g1))
    else:
        stats_ = [StatisticSpec.edges_within(g1), StatisticSpec.infection_radius(g1)]
        assert mc_risk_curves(*args, stats_) == [_curve_of_full_tests(*args, stat) for stat in stats_]
    assert calls == [[0.5, 1.0, 10.0, 1e6] * 6] * 2


def test_mc_risk_curve_alternatives_stop_early(monkeypatch):
    g1 = torus_grid((10, 10))
    stat = StatisticSpec.infection_radius(g1)
    etas, reps, k, cfg = [1.0, 10.0], 5, 20, TestConfig(alpha=0.01, B=100, seed=1)
    budget = 1  # floor(0.01 * 100)
    ends, rows = [], permtest._FIRST_ROWS
    while not ends or ends[-1] < cfg.B:
        ends.append(min(cfg.B, (ends[-1] if ends else 0) + rows))
        rows *= 2
    # each alternative scores up to the end of the block holding its
    # (budget + 1)-th draw at or above the observed score, else all B rows
    want = 0
    for i, eta in enumerate(etas):
        tag = 10 * (i + 1)
        for rep in range(reps):
            iv = simulate_spread(g1, SpreadParams(eta=eta, k=k), substream(cfg.seed, tag, rep)).to_infection(g1.n)
            drawn = oracles.relabeled_rows(iv.status, cfg.B, substream(cfg.seed, tag + 2, rep))
            over = np.flatnonzero(np.cumsum(stat.score_batch(drawn) >= stat.score(iv)) > budget)
            want += ends[np.searchsorted(ends, over[0] + 1)] if over.size else cfg.B
    scored = []
    score_batch = StatisticSpec.score_batch

    def counting(self, block):
        scored.append(len(block))
        return score_batch(self, block)

    monkeypatch.setattr(StatisticSpec, "score_batch", counting)
    mc_risk_curve(empty_graph(100), g1, 0.0, etas, k, 0, cfg, reps, stat=stat)
    # the null replicates draw all B rows each
    alternatives = sum(scored) - reps * cfg.B
    assert alternatives == want
    assert alternatives < reps * len(etas) * cfg.B


# -- statistics sharing one pass: mc_risk_curves -------------------------------------


@st.composite
def shared_curve_cases(draw):
    """A connected random graph on 3..12 vertices, a null graph, k, c < k
    (so every snapshot keeps an infected vertex and W, R and T all score
    it), a test config whose B may fall below ceil(1/alpha) - 1 and a
    replicate count."""
    n = draw(st.integers(3, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g1 = build_graph(n, tree + draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)))
    g0 = draw(st.sampled_from([empty_graph, cycle_graph]))(n)
    k = draw(st.integers(1, n - 1))
    c = draw(st.sampled_from([0, min(k - 1, n - k)]))
    # B=10 < 19 at alpha 0.05 and B=3 < 4 at alpha 0.2 saturate every test
    alpha, B = draw(st.sampled_from([(0.05, 10), (0.2, 3), (0.29, 100), (0.1, 40), (0.01, 50)]))
    mode = draw(st.sampled_from(["full-permute", "censor-fixing"]))
    cfg = TestConfig(alpha=alpha, B=B, seed=draw(st.integers(0, 1000)), mode=mode)
    return g0, g1, k, c, cfg, draw(st.integers(1, 3))


@settings(max_examples=40)
@given(shared_curve_cases())
@example((empty_graph(6), cycle_graph(6), 3, 2, TestConfig(alpha=0.29, B=100, seed=2), 3))
@example((cycle_graph(8), path_graph(8), 4, 0,
          TestConfig(alpha=0.05, B=10, seed=1, mode="censor-fixing"), 2))
def test_mc_risk_curves_equal_one_call_per_statistic(case):
    g0, g1, k, c, cfg, reps = case
    stats_ = [StatisticSpec.edges_within(g1), StatisticSpec.infection_radius(g1), StatisticSpec.steiner_weight(g1)]
    args = (g0, g1, 0.0, [0.0, 1.0, 10.0], k, c, cfg, reps)
    want = [mc_risk_curve(*args, stat=stat) for stat in stats_]
    assert mc_risk_curves(*args, stats_) == want
    assert mc_risk_curves(*args, stats_[::-1]) == want[::-1]


def test_mc_risk_curves_score_each_statistic_only_until_it_settles(monkeypatch):
    g1 = torus_grid((10, 10))
    stats_ = [StatisticSpec.edges_within(g1), StatisticSpec.infection_radius(g1), StatisticSpec.steiner_weight(g1)]
    args = (empty_graph(100), g1, 0.0, [1.0, 10.0], 20, 5, TestConfig(alpha=0.01, B=100, seed=1), 5)
    scored, drawn = Counter(), Counter()
    score_batch, infected_blocks = StatisticSpec.score_batch, permtest._infected_blocks

    def counting_scores(self, block):
        scored[self.name] += len(block)
        return score_batch(self, block)

    def counting_draws(stack, B, rng, positions=None, first_rows=None):
        # keyed by the snapshot, and whether it is an early-decided alternative
        for infected, keys in infected_blocks(stack, B, rng, positions, first_rows):
            drawn[stack.tobytes(), first_rows is not None] += len(infected)
            yield infected, keys

    monkeypatch.setattr(StatisticSpec, "score_batch", counting_scores)
    monkeypatch.setattr(permtest, "_infected_blocks", counting_draws)
    alone = []
    for stat in stats_:
        mc_risk_curve(*args, stat=stat)
        alone.append(Counter(drawn))
        drawn.clear()
    alone_scored = dict(scored)
    scored.clear()
    mc_risk_curves(*args, stats_)
    # every statistic scores exactly the rows it scores alone
    assert dict(scored) == alone_scored
    # a null snapshot draws B rows per statistic, an alternative the rows
    # of the statistic that settles last
    assert set(drawn) == set(alone[0])
    for key, rows in drawn.items():
        counts = [each[key] for each in alone]
        assert rows == (max(counts) if key[1] else sum(counts)), key
    assert sum(v for (_, early), v in drawn.items() if early) < sum(
        v for each in alone for (_, early), v in each.items() if early
    )


def test_mc_risk_curves_needs_a_statistic():
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="at least one statistic"):
        mc_risk_curves(empty_graph(6), g, 0.0, [1.0], 2, 0, TestConfig(alpha=0.1, B=10), 2, [])
