import gc
import weakref
from dataclasses import replace
from itertools import permutations
from math import comb, factorial, isclose

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netspread import (
    CENSORED,
    GuardExceededError,
    InfectionVector,
    StatisticSpec,
    TestConfig,
    build_graph,
    check_validity,
    complete_graph,
    composite_mc_test,
    conditional_mc_test,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    exact_test,
    infection_from_infected,
    mc_test,
    multi_spread_mc_test,
    path_graph,
    star_graph,
    substream,
    torus_grid,
)
from netspread import permtest
from netspread.permtest import _threshold_rule


def test_config_validation():
    TestConfig(alpha=0.05)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TestConfig(alpha=1.0)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.05, B=0)
    with pytest.raises(ValueError):
        TestConfig(alpha=0.05, mode="bogus")


def test_threshold_rule_basic():
    scores = np.array([0.0] * 90 + [1.0] * 8 + [2.0] * 2)
    t, sat = _threshold_rule(scores, 0.05, 100)
    assert (t, sat) == (2.0, False)
    t, sat = _threshold_rule(scores, 0.10, 100)
    assert (t, sat) == (1.0, False)
    # nothing has tail mass <= 1%: saturated, threshold pinned at the max
    t, sat = _threshold_rule(scores, 0.01, 100)
    assert (t, sat) == (2.0, True)


def test_threshold_rule_edge_cases():
    one = np.array([3.0])
    assert _threshold_rule(one, 0.999, 1) == (3.0, True)
    many = np.arange(10, dtype=np.float64)
    t, sat = _threshold_rule(many, 0.999, 10)
    assert not sat and t == 1.0
    t, sat = _threshold_rule(many, 0.10, 10)
    assert (t, sat) == (9.0, False)
    # all ties: the single value carries all the mass
    ties = np.zeros(50)
    assert _threshold_rule(ties, 0.05, 50) == (0.0, True)


def test_threshold_rule_exact_tail_budget():
    # 0.29 * 100 is 28.999999999999996 in floats; the budget is 29 draws
    top = np.array([0.0] * 50 + [1.0] * 21 + [2.0] * 29)
    assert _threshold_rule(top, 0.29, 100) == (2.0, False)
    two_top = np.array([0.0] * 71 + [1.0] * 19 + [2.0] * 10)
    assert _threshold_rule(two_top, 0.29, 100) == (1.0, False)
    assert _threshold_rule(two_top, np.float64(0.29), 100) == (1.0, False)


def test_exact_test_uniform_statistic_never_rejects():
    # statistic constant across relabelings: always saturated, never rejects
    g = cycle_graph(5)
    iv = infection_from_infected(5, [0, 1])
    spec = StatisticSpec.orbit_count(range(5))
    res = exact_test(spec, iv, alpha=0.05)
    assert res.saturated and not res.reject
    assert res.p_value == 1.0


def test_exact_test_counts_and_pvalue():
    g = cycle_graph(6)
    iv = infection_from_infected(6, [0, 1, 2])
    spec = StatisticSpec.edges_within(g)
    res = exact_test(spec, iv, alpha=0.05)
    assert res.n_draws == factorial(6)
    assert res.mode == "exact"
    # W = 2 happens exactly when the relabeled set is 3 consecutive
    # vertices: 6 sets, each from 3! * 3! orderings
    want_top = 6 * 36
    hist = dict(res.histogram)
    assert hist[2.0] == want_top
    assert res.observed == 2.0
    assert res.p_value == want_top / factorial(6)
    assert res.raw_ge_count == want_top
    # 216/720 = 0.3 > alpha so the test cannot reject at 0.05... but the
    # threshold rule still yields the top value; observed == threshold
    assert not res.reject


def test_exact_test_level_is_respected():
    # decision rule applied to every relabeling rejects at most alpha of them
    g = cycle_graph(6)
    iv = infection_from_infected(6, [0, 1, 3])
    spec = StatisticSpec.edges_within(g)
    for alpha in (0.05, 0.1, 0.2, 0.5):
        res = exact_test(spec, iv, alpha=alpha)
        scores = np.array(
            [c for _, c in res.histogram], dtype=np.int64
        )  # counts per distinct value
        values = np.array([v for v, _ in res.histogram])
        # a saturated threshold sits at the max, so the filter is then empty
        rejected = scores[values > res.threshold].sum()
        assert rejected <= alpha * factorial(6)


def test_exact_test_guard():
    iv = infection_from_infected(9, [0])
    with pytest.raises(GuardExceededError):
        exact_test(StatisticSpec.center_indicator(0), iv, alpha=0.1)


def test_exact_test_alpha_validation():
    iv = infection_from_infected(4, [0])
    with pytest.raises(ValueError):
        exact_test(StatisticSpec.center_indicator(0), iv, alpha=1.5)


def test_mc_test_deterministic_and_invariant():
    g = cycle_graph(8)
    iv = infection_from_infected(8, [0, 1, 2])
    spec = StatisticSpec.edges_within(g)
    cfg = TestConfig(alpha=0.05, B=400, seed=11)
    a = mc_test(spec, iv, cfg, null_graph=empty_graph(8))
    b = mc_test(spec, iv, cfg, null_graph=empty_graph(8))
    assert a == b
    assert a.reject == (a.observed > a.threshold)
    assert a.n_draws == 400
    assert sum(c for _, c in a.histogram) == 400
    # add-one p-value
    assert isclose(a.p_value, (a.raw_ge_count + 1) / 401)
    assert a.validity_warning is None


def test_mc_test_pvalue_bounds():
    g = star_graph(8)
    iv = infection_from_infected(8, [0, 1, 2, 3])
    spec = StatisticSpec.edges_within(g)
    res = mc_test(spec, iv, TestConfig(alpha=0.05, B=200, seed=3))
    assert 1 / 201 <= res.p_value <= 1.0


def test_mc_test_saturated_tie_does_not_reject():
    # constant statistic: the observed value equals the pinned-at-max
    # threshold, so the strict rule cannot fire
    iv = infection_from_infected(6, [0, 1])
    spec = StatisticSpec.orbit_count(range(6))
    res = mc_test(spec, iv, TestConfig(alpha=0.05, B=100, seed=0))
    assert res.saturated and not res.reject
    assert res.observed == res.threshold


def test_mc_test_saturated_full_exceedance_rejects():
    # every draw misses the center, so the threshold saturates at 0 while
    # the observation sits strictly above it; the strict rule still fires
    iv = infection_from_infected(40, [0, 1, 2])
    spec = StatisticSpec.center_indicator(0)
    res = mc_test(spec, iv, TestConfig(alpha=0.01, B=20, seed=25))
    assert dict(res.histogram) == {0.0: 20}
    assert res.saturated
    assert res.threshold == 0.0 and res.observed == 1.0
    assert res.reject


def test_mc_test_rejects_clustered_snapshot_on_torus():
    g = torus_grid((6, 6))
    # a tight 2x2 block is wildly clustered relative to uniform relabeling
    iv = infection_from_infected(36, [0, 1, 6, 7])
    spec = StatisticSpec.edges_within(g)
    res = mc_test(spec, iv, TestConfig(alpha=0.05, B=500, seed=1))
    assert res.observed == 4.0
    assert res.reject


def test_mc_test_lower_tail_statistic_orientation():
    g = cycle_graph(40)
    iv = infection_from_infected(40, [0, 1, 2])
    spec = StatisticSpec.infection_radius(g)
    res = mc_test(spec, iv, TestConfig(alpha=0.05, B=800, seed=5))
    assert res.tail == "lower"
    # radius 1 is the tightest possible for k=3: strong evidence
    assert res.observed == -1.0
    assert res.reject
    assert res.raw_scale() == (1.0, -res.threshold, "below")
    upper = mc_test(StatisticSpec.edges_within(g), iv, TestConfig(alpha=0.05, B=100, seed=5))
    assert upper.raw_scale() == (upper.observed, upper.threshold, "above")


def test_conditional_test_keeps_censored_fixed():
    g = cycle_graph(8)
    iv = infection_from_infected(8, [0, 1], censored=[4, 5])
    spec = StatisticSpec.edges_within(g)
    cfg = TestConfig(alpha=0.1, B=50, seed=2, mode="censor-fixing")
    res = conditional_mc_test(spec, iv, cfg)
    seen = list(permtest._resampled(iv.status[None], cfg))
    assert res.mode == "censor-fixing"
    assert len(seen) == 50
    for arr in seen:
        assert arr[4] == CENSORED and arr[5] == CENSORED
        assert np.count_nonzero(arr == CENSORED) == 2
        assert np.count_nonzero(arr == 1) == 2


def test_conditional_test_all_censored_raises():
    iv = InfectionVector((2, 2, 2))
    spec = StatisticSpec.center_indicator(0)
    with pytest.raises(ValueError, match="every vertex is censored; nothing to permute"):
        conditional_mc_test(spec, iv, TestConfig(alpha=0.1, B=10))


def test_mc_test_follows_cfg_mode():
    # mc_test ran full-permute whatever cfg.mode said; now censor-fixing makes it
    # conditional_mc_test, whose body it shares without calling it
    g = cycle_graph(8)
    iv = infection_from_infected(8, [0, 1], censored=[4, 5])
    spec = StatisticSpec.edges_within(g)
    cfg = TestConfig(alpha=0.1, B=50, seed=2, mode="censor-fixing")
    res = mc_test(spec, iv, cfg)
    seen = list(permtest._resampled(iv.status[None], cfg))
    assert res.mode == "censor-fixing"
    assert all(arr[4] == CENSORED and arr[5] == CENSORED for arr in seen)
    assert res == conditional_mc_test(spec, iv, cfg)
    # conditional_mc_test fixes the censored vertices whatever cfg.mode says
    assert res == conditional_mc_test(spec, iv, replace(cfg, mode="full-permute"))
    assert mc_test(spec, iv, replace(cfg, mode="full-permute")).mode == "full-permute"


def test_mc_test_and_conditional_mc_test_do_not_call_each_other(monkeypatch):
    # a tracer that wraps both must see one call per test
    def refuse(*args, **kwargs):
        raise AssertionError("one Monte Carlo entry called the other")

    iv = infection_from_infected(6, [0], censored=[1])
    spec = StatisticSpec.center_indicator(0)
    cfg = TestConfig(alpha=0.1, B=20, mode="censor-fixing")
    original_mc, original_conditional = permtest.mc_test, permtest.conditional_mc_test
    monkeypatch.setattr(permtest, "conditional_mc_test", refuse)
    original_mc(spec, iv, cfg)
    monkeypatch.setattr(permtest, "mc_test", refuse)
    original_conditional(spec, iv, cfg)


def test_full_mode_shuffles_censored_too():
    iv = infection_from_infected(6, [0], censored=[1])
    cfg = TestConfig(alpha=0.1, B=200, seed=4)
    positions = {int(v) for row in permtest._resampled(iv.status[None], cfg) for v in np.flatnonzero(row == CENSORED)}
    # the censored mark moves around under full permutation
    assert len(positions) > 1


def test_composite_test_stage_structure():
    g = torus_grid((4, 4))
    iv = infection_from_infected(16, [0, 1, 4, 5])
    w = StatisticSpec.edges_within(g)
    r = StatisticSpec.infection_radius(g)
    cfg = TestConfig(alpha=0.1, B=400, seed=7)
    res = composite_mc_test(w, r, iv, cfg)
    assert res.mode == "composite"
    assert res.statistic == "W+R"
    assert isinstance(res.observed, tuple) and isinstance(res.threshold, tuple)
    o1, o2 = res.observed
    t1, t2 = res.threshold
    fire1 = o1 > t1
    fire2 = o1 <= t1 and o2 > t2
    assert res.reject == (fire1 or fire2)
    assert 0.0 < res.p_value <= 1.0


@st.composite
def composite_cases(draw):
    """W then R, or R then W, on a random graph of 2..12 vertices with a
    snapshot, a level and a B small enough that stages often saturate."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    status = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    status[draw(st.integers(0, n - 1))] = 1
    stats = [StatisticSpec.edges_within(g), StatisticSpec.infection_radius(g)]
    if draw(st.booleans()):
        stats.reverse()
    cfg = TestConfig(
        alpha=draw(st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.6])),
        B=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 1000)),
    )
    return stats, InfectionVector(status), cfg


@settings(max_examples=150)
@given(composite_cases())
@example((
    [StatisticSpec.edges_within(cycle_graph(6)), StatisticSpec.infection_radius(cycle_graph(6))],
    infection_from_infected(6, [0, 1, 2]),
    TestConfig(alpha=0.1, B=5, seed=3),
))
def test_composite_reject_is_stagewise_exceedance(case):
    stats, iv, cfg = case
    stages = []

    def recording(*args, **kwargs):
        stages.append(calibrate(*args, **kwargs))
        return stages[-1]

    calibrate = permtest._calibrate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permtest, "_calibrate", recording)
        res = composite_mc_test(*stats, iv, cfg)
    assert len(stages) == 2
    for stage in stages:
        assert stage.reject == (stage.observed > stage.threshold)
        if stage.saturated:
            assert stage.reject == (stage.raw_ge_count == 0)
    assert res.observed == tuple(s.observed for s in stages)
    assert res.threshold == tuple(s.threshold for s in stages)
    assert res.saturated == tuple(s.saturated for s in stages)
    assert res.reject == any(s.reject for s in stages)


def test_composite_level_under_uniform_null():
    # empirical level: uniformly scattered snapshots on the null should be
    # rejected at most ~alpha of the time
    g = torus_grid((4, 4))
    w = StatisticSpec.edges_within(g)
    r = StatisticSpec.infection_radius(g)
    alpha = 0.2
    rejections = 0
    reps = 120
    for i in range(reps):
        rng = substream(900, i)
        infected = rng.permutation(16)[:4]
        iv = infection_from_infected(16, infected)
        res = composite_mc_test(w, r, iv, TestConfig(alpha=alpha, B=150, seed=i))
        rejections += res.reject
    # allow generous slack over alpha for Monte-Carlo noise
    assert rejections / reps <= alpha + 0.1


def test_composite_validity_warning_covers_both_statistics():
    # star:6 validates W on cycle:6 but not W on path:6, in either order
    null = star_graph(6)
    on_cycle = StatisticSpec.edges_within(cycle_graph(6))
    on_path = StatisticSpec.edges_within(path_graph(6))
    iv = infection_from_infected(6, [0, 1])
    cfg = TestConfig(alpha=0.1, B=20, seed=1)
    assert check_validity(null, cycle_graph(6)) == "valid"
    assert check_validity(null, path_graph(6)) == "invalid"
    for stats in ((on_cycle, on_path), (on_path, on_cycle)):
        res = composite_mc_test(*stats, iv, cfg, null_graph=null)
        assert res.validity_warning.startswith("invalid"), stats
    assert composite_mc_test(on_cycle, on_cycle, iv, cfg, null_graph=null).validity_warning is None


def test_composite_raw_scale_maps_each_stage_by_its_tail():
    g = torus_grid((4, 4))
    w, r = StatisticSpec.edges_within(g), StatisticSpec.infection_radius(g)
    iv = infection_from_infected(16, [0, 1, 4, 5])
    res = composite_mc_test(w, r, iv, TestConfig(alpha=0.1, B=100, seed=7))
    (o1, o2), (t1, t2) = res.observed, res.threshold
    assert res.raw_scale() == ((o1, -o2), (t1, -t2), ("above", "below"))
    assert res.raw_scale()[0] == (w.evaluate(iv), r.evaluate(iv))
    flipped = composite_mc_test(r, w, iv, TestConfig(alpha=0.1, B=100, seed=7))
    assert flipped.raw_scale()[2] == ("below", "above")
    single = mc_test(r, iv, TestConfig(alpha=0.1, B=100, seed=7))
    assert single.raw_scale() == (-single.observed, -single.threshold, "below")


def test_composite_and_multi_spread_follow_cfg_mode():
    # both ran full-permute whatever cfg.mode said; censor-fixing now keeps the marks
    g = torus_grid((6, 6))
    censored = [3, 9, 10, 14, 20, 23, 27, 30, 33, 35]
    iv = infection_from_infected(36, [0, 1, 6, 7, 12], censored=censored)
    w, r = StatisticSpec.edges_within(g), StatisticSpec.infection_radius(g)
    full = TestConfig(alpha=0.1, B=200, seed=5)
    fixing = replace(full, mode="censor-fixing")
    assert composite_mc_test(w, r, iv, full) != composite_mc_test(w, r, iv, fixing)
    assert multi_spread_mc_test(w, [iv, iv], full) != multi_spread_mc_test(w, [iv, iv], fixing)
    # with one snapshot, censor-fixing multi-spread is the conditional test
    one = multi_spread_mc_test(w, [iv], fixing)
    cond = conditional_mc_test(w, iv, full)
    assert one.observed == cond.observed and one.threshold == cond.threshold
    assert one.histogram == cond.histogram


def test_multi_spread_one_snapshot_equals_mc_test():
    g = cycle_graph(7)
    iv = infection_from_infected(7, [0, 1, 2])
    spec = StatisticSpec.edges_within(g)
    cfg = TestConfig(alpha=0.1, B=300, seed=13)
    single = mc_test(spec, iv, cfg)
    multi = multi_spread_mc_test(spec, [iv], cfg)
    assert multi.observed == single.observed
    assert multi.threshold == single.threshold
    assert multi.histogram == single.histogram
    assert multi.reject == single.reject
    assert multi.statistic == "avg-W"


def test_multi_spread_aggregates_mean():
    g = cycle_graph(6)
    ivs = [
        infection_from_infected(6, [0, 1, 2]),
        infection_from_infected(6, [0, 2, 4]),
    ]
    spec = StatisticSpec.edges_within(g)
    res = multi_spread_mc_test(spec, ivs, TestConfig(alpha=0.1, B=100, seed=1))
    assert res.observed == 1.0  # (2 + 0) / 2
    assert res.mode == "multi-spread"
    with pytest.raises(ValueError):
        multi_spread_mc_test(spec, [], TestConfig(alpha=0.1, B=10))
    with pytest.raises(ValueError):
        multi_spread_mc_test(
            spec,
            [ivs[0], infection_from_infected(5, [0])],
            TestConfig(alpha=0.1, B=10),
        )


def test_multi_spread_concentrates():
    # many aligned snapshots drive rejection even when one would not
    g = cycle_graph(10)
    spec = StatisticSpec.edges_within(g)
    ivs = [infection_from_infected(10, [0, 1]) for _ in range(6)]
    res = multi_spread_mc_test(spec, ivs, TestConfig(alpha=0.05, B=400, seed=2))
    assert res.reject


def test_check_validity_verdicts():
    assert check_validity(star_graph(6), cycle_graph(6)) == "valid"
    assert check_validity(cycle_graph(6), star_graph(6)) == "valid"
    assert check_validity(cycle_graph(6), cycle_graph(6)) == "invalid"
    assert check_validity(star_graph(6), star_graph(6)) == "invalid"
    # rigid-ish big graphs exceed the guard
    a = erdos_renyi(24, 0.4, 1)
    b = erdos_renyi(24, 0.4, 2)
    assert check_validity(a, b) == "unverifiable"


def test_check_validity_symmetric_null_short_circuits():
    # an empty or complete null validates any alternative at any size
    big = torus_grid((20, 20))
    assert check_validity(empty_graph(400), big) == "valid"
    assert check_validity(complete_graph(400), big) == "valid"
    # and symmetric alternative with an unverifiable null is still valid
    assert check_validity(erdos_renyi(24, 0.4, 1), empty_graph(24)) == "valid"


def test_validity_verdict_is_computed_once_per_graph_pair(monkeypatch):
    import netspread.permtest as permtest

    searched = []
    real = permtest.automorphism_group

    def counting(g, n_max=10):
        searched.append(g.n)
        return real(g, n_max=n_max)

    monkeypatch.setattr(permtest, "automorphism_group", counting)
    null, alt = cycle_graph(6), erdos_renyi(6, 0.5, 2)
    iv = infection_from_infected(6, [0, 1])
    cfg = TestConfig(alpha=0.1, B=20, seed=0)
    spec = StatisticSpec.edges_within(alt)
    first = mc_test(spec, iv, cfg, null_graph=null)
    assert len(searched) == 2
    assert first.validity_warning.startswith("invalid")
    for _ in range(3):
        again = conditional_mc_test(spec, iv, cfg, null_graph=null)
        assert again.validity_warning == first.validity_warning
    assert len(searched) == 2
    # the memo is keyed by graph object: an equal but distinct alternative
    # is a new pair, searched afresh to the same verdict
    twin = StatisticSpec.edges_within(erdos_renyi(6, 0.5, 2))
    assert mc_test(twin, iv, cfg, null_graph=null).validity_warning == first.validity_warning
    assert len(searched) == 4
    # and another pair gets its own verdict
    star = StatisticSpec.edges_within(star_graph(6))
    assert mc_test(star, iv, cfg, null_graph=null).validity_warning is None
    # the memo on the null graph does not keep an alternative alive
    gone = weakref.ref(star.graph)
    del star
    gc.collect()
    assert gone() is None


def test_validity_warning_threading():
    g = cycle_graph(6)
    iv = infection_from_infected(6, [0, 1])
    spec = StatisticSpec.edges_within(g)
    cfg = TestConfig(alpha=0.1, B=20, seed=0)
    ok = mc_test(spec, iv, cfg, null_graph=star_graph(6))
    assert ok.validity_warning is None
    bad = mc_test(spec, iv, cfg, null_graph=cycle_graph(6))
    assert bad.validity_warning is not None and "invalid" in bad.validity_warning
    none_given = mc_test(spec, iv, cfg)
    assert none_given.validity_warning is not None
    assert "unverifiable" in none_given.validity_warning
    no_alt = mc_test(
        StatisticSpec.center_indicator(0), iv, cfg, null_graph=star_graph(6)
    )
    assert no_alt.validity_warning is not None


def test_validity_without_alternative_graph_needs_symmetric_null():
    # C and orbit carry no graph: an empty or complete null (Aut = S_n)
    # settles validity, any other null leaves it unverifiable
    iv = infection_from_infected(6, [0, 1])
    cfg = TestConfig(alpha=0.1, B=20, seed=0)
    for spec in (StatisticSpec.center_indicator(0), StatisticSpec.orbit_count([0, 1, 2])):
        for null in (empty_graph(6), complete_graph(6)):
            assert mc_test(spec, iv, cfg, null_graph=null).validity_warning is None
        warning = mc_test(spec, iv, cfg, null_graph=cycle_graph(6)).validity_warning
        assert warning == "unverifiable: statistic carries no alternative graph"


def test_mc_level_on_exchangeable_null():
    # under a truly uniform null the rejection rate stays near alpha
    g = cycle_graph(9)
    spec = StatisticSpec.edges_within(g)
    alpha = 0.1
    reps = 200
    rejections = 0
    for i in range(reps):
        rng = substream(31, i)
        infected = rng.permutation(9)[:3]
        iv = infection_from_infected(9, infected)
        res = mc_test(spec, iv, TestConfig(alpha=alpha, B=120, seed=i))
        rejections += res.reject
    assert rejections / reps <= alpha + 0.07
