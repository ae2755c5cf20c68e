from math import exp, isclose, log

import pytest

from netspread import (
    BoundValue,
    GuardExceededError,
    MultiSpreadBounds,
    RiskCurve,
    RiskInputs,
    SpreadParams,
    StatisticSpec,
    TestConfig,
    baseline_diagnosis,
    baseline_risk_curve,
    baseline_rule,
    cascade_count,
    cascade_count_cycle,
    censor_uniform,
    center_test_risk_bounds,
    cycle_graph,
    eccentricity,
    empty_graph,
    h_eta,
    infection_reach_probability,
    line_cycle_bound,
    mc_risk_curve,
    min_cascade_count,
    multi_spread_bounds,
    path_graph,
    simulate_spread,
    star_graph,
    star_null_risk_bound,
    substream,
    tb_threshold,
    torus_grid,
    tt_threshold,
)
from oracles import cascade_orderings


def test_risk_inputs_validation():
    RiskInputs(n=10, k=3)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=0)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=11)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=3, c=8)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=3, eta=-1.0)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=3, alpha=0.0)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=3, D=0)
    with pytest.raises(ValueError):
        RiskInputs(n=10, k=3, m=0)


def test_h_eta_closed_behavior():
    assert h_eta(100, 1, 5.0, 2.0) == 1.0
    assert h_eta(100, 3, 0.0, 2.0) == 0.0
    # product of the printed factors
    want = (2.0 / (10 - 1 + 2.0 * 2.0)) * (2.0 / (10 - 2 + 2.0 * 2.0))
    assert isclose(h_eta(10, 3, 2.0, 2.0), want)
    # eta -> infinity limit is nt_min^-(k-1)
    assert isclose(h_eta(50, 4, 1e12, 2.0), 2.0 ** -3, rel_tol=1e-6)
    with pytest.raises(ValueError):
        h_eta(10, 0, 1.0, 2.0)


def test_h_eta_monotone_in_eta():
    values = [h_eta(30, 5, eta, 2.0) for eta in (0.1, 1.0, 10.0, 100.0)]
    assert values == sorted(values)


def test_cascade_count_matches_oracle():
    cases = [
        (cycle_graph(6), 3, 0, 1),
        (cycle_graph(6), 4, 0, 1),
        (path_graph(6), 3, 0, 1),
        (path_graph(6), 3, 2, 3),
        (star_graph(6), 3, 0, 2),
        (star_graph(6), 4, 1, 2),
    ]
    for g, k, u, v in cases:
        assert cascade_count(g, k, u, v) == cascade_orderings(g, k, u, v)


def test_cascade_count_cycle_closed_form():
    for k in (2, 3, 4, 5):
        assert cascade_count_cycle(k) == (k - 1) * 2 ** (k - 1)
        # adjacent pair on a long-enough cycle realizes the closed form
        assert cascade_count(cycle_graph(10), k, 0, 1) == cascade_count_cycle(k)
    # and via the independent oracle beyond the package guard
    assert cascade_orderings(cycle_graph(12), 5, 0, 1) == cascade_count_cycle(5)


def test_cascade_count_edge_cases():
    g = cycle_graph(6)
    assert cascade_count(g, 1, 0, 1) == 0
    assert cascade_count(g, 6, 0, 1) == 0  # nothing may stay uninfected
    with pytest.raises(ValueError):
        cascade_count(g, 3, 2, 2)
    with pytest.raises(GuardExceededError):
        cascade_count(cycle_graph(11), 3, 0, 1)
    with pytest.raises(GuardExceededError):
        cascade_count(cycle_graph(9), 7, 0, 1)


def test_cascade_path_sum_identity():
    # sum over the path's edges: (k-1) (n-k+1) 2^(k-1)
    for n, k in [(4, 2), (4, 3), (5, 3), (6, 4)]:
        g = path_graph(n)
        total = sum(cascade_count(g, k, u, v) for u, v in g.edges)
        assert total == (k - 1) * (n - k + 1) * 2 ** (k - 1)


def test_min_cascade_count():
    # all cycle edges are equivalent, so min == the closed form
    assert min_cascade_count(cycle_graph(8), 4) == cascade_count_cycle(4)
    # path end-edges see fewer growth orderings than middle edges
    g = path_graph(6)
    assert min_cascade_count(g, 3) == cascade_count(g, 3, 0, 1)
    assert min_cascade_count(g, 3) < cascade_count(g, 3, 2, 3)
    with pytest.raises(ValueError):
        min_cascade_count(empty_graph(3), 2)


def test_star_null_bound_vacuous_at_weak_signal():
    inputs = RiskInputs(n=500, k=6, eta=0.5, alpha=0.05)
    b = star_null_risk_bound(inputs, c_k=cascade_count_cycle(6), d=2)
    assert b.vacuous and b.value == inputs.alpha + 1.0


def test_star_null_bound_informative_at_strong_signal():
    inputs = RiskInputs(n=10_000, k=20, eta=1e6, alpha=0.05)
    b = star_null_risk_bound(inputs, c_k=cascade_count_cycle(20), d=2)
    assert not b.vacuous
    assert inputs.alpha < b.value < 1.0
    assert float(b) == b.value


def test_star_null_bound_monotone_in_eta():
    values = []
    for eta in (1.0, 10.0, 100.0, 1e4, 1e6):
        inputs = RiskInputs(n=10_000, k=20, eta=eta, alpha=0.05)
        values.append(star_null_risk_bound(inputs, c_k=cascade_count_cycle(20), d=2).value)
    for a, b in zip(values, values[1:]):
        assert b <= a


def test_center_test_bounds_bracket_and_branches():
    for n, k, eta in [(50, 5, 0.5), (50, 5, 2.0), (200, 20, 1.0), (30, 3, 10.0)]:
        lower, upper = center_test_risk_bounds(RiskInputs(n=n, k=k, eta=eta))
        assert lower <= upper
        assert lower >= k / n
    # printed formulas, both eta branches
    low, up = center_test_risk_bounds(RiskInputs(n=50, k=5, eta=0.5))
    strength = 5 + 0.5 * 5 * 4 / 2
    assert isclose(low, 5 / 50 + exp(-strength / 45))
    assert isclose(up, 5 / 50 + exp(-strength / 50))
    low, up = center_test_risk_bounds(RiskInputs(n=50, k=5, eta=3.0))
    strength = 5 + 3.0 * 5 * 4 / 2
    assert isclose(up, 5 / 50 + exp(-strength / (46 + 4 * 3.0)))
    with pytest.raises(ValueError):
        center_test_risk_bounds(RiskInputs(n=5, k=5))


def test_infection_reach_probability():
    inputs = RiskInputs(n=50, k=5, eta=3.0)
    _, upper = center_test_risk_bounds(inputs)
    assert isclose(infection_reach_probability(inputs), 1.0 - (upper - 5 / 50))
    # more contagion, more reach
    p_low = infection_reach_probability(RiskInputs(n=100, k=10, eta=1.0))
    p_high = infection_reach_probability(RiskInputs(n=100, k=10, eta=5.0))
    assert p_high > p_low


def test_multi_spread_reduces_to_single_at_m_one():
    inputs = RiskInputs(n=10_000, k=20, eta=1e5, alpha=0.05, m=1)
    c_k = cascade_count_cycle(20)
    ms = multi_spread_bounds(inputs, c_k=c_k, d=2)
    single = star_null_risk_bound(inputs, c_k=c_k, d=2)
    assert ms.avg_edges == single


def test_multi_spread_improves_with_m():
    c_k = cascade_count_cycle(20)
    edge_vals = []
    center_vals = []
    for m in (1, 10, 100):
        inputs = RiskInputs(n=1000, k=30, eta=2.0, alpha=0.05, m=m)
        ms = multi_spread_bounds(inputs, c_k=c_k, d=2)
        edge_vals.append(ms.avg_edges.value)
        center_vals.append(ms.avg_center.value)
    assert edge_vals == sorted(edge_vals, reverse=True)
    assert center_vals == sorted(center_vals, reverse=True)
    # repetition rescues the center test even when one spread is useless
    assert multi_spread_bounds(
        RiskInputs(n=100, k=30, eta=2.0, alpha=0.05, m=1), c_k=c_k
    ).avg_center.vacuous
    strong = multi_spread_bounds(
        RiskInputs(n=100, k=30, eta=2.0, alpha=0.05, m=50), c_k=c_k
    )
    assert not strong.avg_center.vacuous
    assert strong.avg_center.value < 0.1


def test_line_cycle_bound_dominates_cycle_bound():
    # separating line from cycle is the harder problem: its guarantee is
    # never better than the star-null cycle guarantee at the same inputs
    for n, k, eta in [(10_000, 20, 1e6), (10_000, 20, 1e3), (500, 6, 2.0)]:
        inputs = RiskInputs(n=n, k=k, eta=eta, alpha=0.05)
        line = line_cycle_bound(inputs)
        cyc = star_null_risk_bound(inputs, c_k=cascade_count_cycle(k), d=2)
        assert float(line) >= float(cyc)


def test_line_cycle_bound_censoring_and_guard():
    base = RiskInputs(n=10_000, k=20, eta=1e6, alpha=0.05)
    v0 = line_cycle_bound(base).value
    vc = line_cycle_bound(RiskInputs(n=10_000, k=20, c=2_000, eta=1e6, alpha=0.05)).value
    assert vc >= v0
    with pytest.raises(ValueError):
        line_cycle_bound(RiskInputs(n=10, k=5, eta=1.0))


def test_baseline_thresholds_formulas():
    ll = log(log(1000))
    assert isclose(tb_threshold(2, 1000, 50, 0), 1.1 * 4 * (50 * ll) ** 0.5)
    assert isclose(tb_threshold(3, 1000, 50, 100), 1.1 * 9 * (50 * 1000 * ll / 900) ** (1 / 3))
    assert isclose(tt_threshold(1000, 50, 0), 50 * ll**3)
    assert isclose(tt_threshold(1000, 50, 100), 50 * 1000 * ll**3 / 900)


def test_baseline_threshold_validation():
    with pytest.raises(ValueError):
        tb_threshold(0, 1000, 50, 0)
    with pytest.raises(ValueError):
        tb_threshold(2, 1000, 50, 1000)
    with pytest.raises(ValueError):
        tb_threshold(2, 2, 1, 0)
    with pytest.raises(ValueError):
        tt_threshold(1000, 0, 0)


def test_baseline_diagnosis():
    assert baseline_diagnosis(10.0, 0.0, 5.0) == "always rejects"
    assert baseline_diagnosis(5.0, 0.0, 5.0) == "always rejects"
    assert baseline_diagnosis(-1.0, 0.0, 5.0) == "never rejects"
    assert baseline_diagnosis(3.0, 0.0, 5.0) == "data-dependent"


def test_mc_risk_curve_deterministic_and_thread_invariant():
    g0 = star_graph(20)
    g1 = cycle_graph(20)
    cfg = TestConfig(alpha=0.1, B=60, seed=5)
    kwargs = dict(eta0=0.0, etas=[0.0, 4.0], k=4, c=0, cfg=cfg, reps=20)
    serial = mc_risk_curve(g0, g1, **kwargs)
    again = mc_risk_curve(g0, g1, **kwargs)
    assert serial == again
    assert serial.reps == 20
    assert set(serial.type_ii) == {0.0, 4.0}


def test_mc_risk_curve_detects_contagion():
    g0 = star_graph(30)
    g1 = cycle_graph(30)
    cfg = TestConfig(alpha=0.1, B=99, seed=3)
    curve = mc_risk_curve(g0, g1, 0.0, [0.0, 1000.0], k=5, c=0, cfg=cfg, reps=60)
    # level holds under the null spread...
    assert curve.type_i <= 0.1 + 0.08
    # ...and strongly contagious spreads on the cycle cluster enough to catch
    assert curve.type_ii[1000.0] < curve.type_ii[0.0]
    assert curve.type_ii[1000.0] < 0.3


def test_mc_risk_curve_collects_alt_values():
    g0 = star_graph(12)
    g1 = cycle_graph(12)
    cfg = TestConfig(alpha=0.1, B=40, seed=2)
    curve = mc_risk_curve(g0, g1, 0.0, [1.0, 5.0], k=3, c=0, cfg=cfg, reps=8)
    assert set(curve.alt_values) == {1.0, 5.0}
    for vals in curve.alt_values.values():
        assert len(vals) == 8
        assert all(v >= 0 for v in vals)
    # the values, like the estimates, are reproducible
    assert mc_risk_curve(g0, g1, 0.0, [1.0, 5.0], k=3, c=0, cfg=cfg, reps=8) == curve


def _snapshot(g, eta, k, c, seed, tag, rep):
    """The replicate snapshot the Monte Carlo risk functions draw."""
    iv = simulate_spread(g, SpreadParams(eta=eta, k=k), substream(seed, tag, rep)).to_infection(g.n)
    return censor_uniform(iv, c, substream(seed, tag + 1, rep)) if c else iv


def test_mc_risk_curve_alt_values_are_the_raw_statistic():
    g1 = torus_grid((5, 5))
    spec = StatisticSpec.infection_radius(g1)
    cfg = TestConfig(alpha=0.1, B=30, seed=6, mode="censor-fixing")
    etas = [1.0, 50.0]
    curve = mc_risk_curve(
        empty_graph(25), g1, 0.0, etas, k=4, c=3, cfg=cfg, reps=5, stat=spec
    )
    for i, eta in enumerate(etas):
        want = [spec.evaluate(_snapshot(g1, eta, 4, 3, 6, 10 * (i + 1), rep)) for rep in range(5)]
        assert curve.alt_values[eta] == want


def test_baseline_rule_thresholds_and_ranges():
    g = torus_grid((20, 20))
    tb = baseline_rule("TB", g, 5, 10, d=1)
    assert (tb.stat.name, tb.threshold) == ("R", tb_threshold(1, 400, 5, 10))
    assert tb.ceiling == eccentricity(g, 0) == 20
    tt = baseline_rule("TT", g, 5, 10)
    assert (tt.stat.name, tt.threshold, tt.ceiling) == ("T", tt_threshold(400, 5, 10), 399)
    assert tb.diagnosis == tt.diagnosis == "data-dependent"
    assert baseline_rule("TB", cycle_graph(10), 5, 0).diagnosis == "always rejects"
    assert baseline_rule("TT", cycle_graph(10), 5, 0).diagnosis == "never rejects"
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_rule("TX", g, 5, 0)


@pytest.mark.parametrize("algorithm", ["TB", "TT"])
def test_baseline_risk_curve_matches_a_replicate_loop(algorithm):
    g = torus_grid((20, 20))
    rule = baseline_rule(algorithm, g, 5, 10, d=1)
    etas, reps, seed = [1.0, 10.0], 30, 3
    curve = baseline_risk_curve(rule, etas, 5, 10, reps, seed)

    def value(g_, eta, tag, rep):
        return float(rule.stat.evaluate(_snapshot(g_, eta, 5, 10, seed, tag, rep)))

    hits = sum(value(empty_graph(400), 0.0, 0, rep) <= rule.threshold for rep in range(reps))
    assert curve.type_i == hits / reps
    for i, eta in enumerate(etas):
        misses = sum(value(g, eta, 10 * (i + 1), rep) > rule.threshold for rep in range(reps))
        assert curve.type_ii[eta] == misses / reps
    assert (curve.mean_threshold, curve.reps) == (rule.threshold, reps)


def test_baseline_risk_curve_skips_rules_that_ignore_the_data():
    etas = [0.0, 2.0]
    always = baseline_risk_curve(baseline_rule("TB", cycle_graph(10), 5, 0), etas, 5, 0, 8)
    assert (always.type_i, always.type_ii) == (1.0, {0.0: 0.0, 2.0: 0.0})
    never = baseline_risk_curve(baseline_rule("TT", cycle_graph(10), 5, 0), etas, 5, 0, 8)
    assert (never.type_i, never.type_ii) == (0.0, {0.0: 1.0, 2.0: 1.0})


def test_baseline_risk_curve_shortcut_refuses_what_a_simulation_refuses():
    always = baseline_rule("TT", torus_grid((4, 4)), 20, 0)
    assert always.diagnosis == "always rejects"
    with pytest.raises(ValueError, match="cannot infect k=20 of n=16"):
        baseline_risk_curve(always, [1.0], 20, 0, 3)
    data_dependent = baseline_rule("TB", torus_grid((20, 20)), 5, 10, d=1)
    assert data_dependent.diagnosis == "data-dependent"
    for rule in (baseline_rule("TB", cycle_graph(10), 5, 0), data_dependent):
        for reps in (0, -3):
            with pytest.raises(ValueError, match=f"reps must be >= 1, got {reps}"):
                baseline_risk_curve(rule, [1.0], 5, 0, reps)
        with pytest.raises(ValueError, match="need at least one alternative eta"):
            baseline_risk_curve(rule, [], 5, 0, 3)


def test_mc_risk_curve_censoring_modes():
    g0 = star_graph(16)
    g1 = cycle_graph(16)
    full = TestConfig(alpha=0.1, B=40, seed=4)
    fixing = TestConfig(alpha=0.1, B=40, seed=4, mode="censor-fixing")
    a = mc_risk_curve(g0, g1, 0.0, [2.0], k=3, c=4, cfg=full, reps=10)
    b = mc_risk_curve(g0, g1, 0.0, [2.0], k=3, c=4, cfg=fixing, reps=10)
    for curve in (a, b):
        assert 0.0 <= curve.type_i <= 1.0
        assert 0.0 <= curve.type_ii[2.0] <= 1.0
    # different resampling laws, same seeds: conditioning changes the draw
    assert isinstance(a, RiskCurve) and isinstance(b, RiskCurve)


def test_mc_risk_curve_custom_statistic():
    g0 = star_graph(14)
    g1 = cycle_graph(14)
    cfg = TestConfig(alpha=0.1, B=40, seed=8)
    spec = StatisticSpec.infection_radius(g1)
    curve = mc_risk_curve(g0, g1, 0.0, [4.0], k=3, c=0, cfg=cfg, reps=10, stat=spec)
    # thresholds reported on the raw statistic scale: radii are >= 0
    assert curve.mean_threshold >= 0.0


@pytest.mark.parametrize(
    "stat",
    [None, StatisticSpec.center_indicator(0), StatisticSpec.orbit_count([0, 1])],
    ids=["W", "C", "orbit"],
)
@pytest.mark.parametrize("n0", [10, 30])
def test_mc_risk_curve_refuses_graphs_of_different_sizes(monkeypatch, stat, n0):
    import netspread.spreading

    def no_spread(*args, **kwargs):
        raise AssertionError("a snapshot spread before the sizes were checked")

    monkeypatch.setattr(netspread.spreading, "simulate_spread", no_spread)
    monkeypatch.setattr(netspread.spreading, "_stacked_paths", no_spread)
    cfg = TestConfig(alpha=0.1, B=20, seed=1)
    with pytest.raises(ValueError, match=f"^null and alternative graphs differ in size: n={n0} and n=16$"):
        mc_risk_curve(empty_graph(n0), cycle_graph(16), 0.0, [1.0, 100.0], 3, 0, cfg, 20, stat=stat)


def test_mc_risk_curve_validation():
    g0 = star_graph(10)
    g1 = cycle_graph(10)
    cfg = TestConfig(alpha=0.1, B=10, seed=0)
    with pytest.raises(ValueError):
        mc_risk_curve(g0, g1, 0.0, [], k=2, c=0, cfg=cfg, reps=5)
    with pytest.raises(ValueError):
        mc_risk_curve(g0, g1, 0.0, [1.0], k=2, c=0, cfg=cfg, reps=0)
