from itertools import combinations
from math import comb, fsum, isclose

import pytest

from netspread import (
    GuardExceededError,
    InfectionVector,
    LikelihoodReport,
    build_graph,
    complete_graph,
    cycle_graph,
    edges_within,
    empty_graph,
    erdos_renyi,
    first_order_residual,
    infection_from_infected,
    infection_law_exact,
    likelihood_censored,
    likelihood_exact,
    likelihood_ratio,
    path_graph,
    star_graph,
    topology_sup_likelihood,
)

import oracles


def iv_of(n, infected, censored=()):
    return infection_from_infected(n, infected, censored)


def test_empty_graph_closed_form():
    rep = likelihood_exact(empty_graph(5), 3.0, iv_of(5, [1, 4]))
    assert isclose(rep.value, 1.0 / 10.0)
    assert rep.n_paths == 2
    # closed form holds at any k, even past the path guard
    rep = likelihood_exact(empty_graph(30), 2.0, iv_of(30, range(12)))
    assert isclose(rep.value, 1.0 / comb(30, 12))


def test_complete_graph_is_uniform_at_any_eta():
    g = complete_graph(3)
    for eta in (0.0, 1.0, 7.5):
        for pair in combinations(range(3), 2):
            assert isclose(likelihood_exact(g, eta, iv_of(3, pair)).value, 1 / 3)


def test_single_infection_is_uniform():
    g = star_graph(6)
    for v in range(6):
        assert isclose(likelihood_exact(g, 4.0, iv_of(6, [v])).value, 1 / 6)


def test_likelihood_matches_exact_law():
    g = cycle_graph(5)
    eta, k = 2.0, 3
    law = infection_law_exact(g, eta, k)
    for subset, p in law.items():
        rep = likelihood_exact(g, eta, iv_of(5, subset))
        assert isclose(rep.value, p, rel_tol=1e-12)
    assert isclose(
        fsum(likelihood_exact(g, eta, iv_of(5, s)).value for s in law), 1.0
    )


def test_adjacent_pair_beats_spread_pair():
    g = star_graph(6)
    hub_pair = likelihood_exact(g, 5.0, iv_of(6, [0, 3])).value
    leaf_pair = likelihood_exact(g, 5.0, iv_of(6, [2, 3])).value
    assert hub_pair > leaf_pair


def test_likelihood_exact_validation():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        likelihood_exact(g, 1.0, iv_of(5, [0], censored=[1]))
    with pytest.raises(ValueError):
        likelihood_exact(g, 1.0, iv_of(4, [0]))
    with pytest.raises(ValueError):
        likelihood_exact(g, 1.0, InfectionVector((0, 0, 0, 0, 0)))
    with pytest.raises(GuardExceededError):
        likelihood_exact(complete_graph(12), 1.0, iv_of(12, range(9)))


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), -3.0])
@pytest.mark.parametrize(
    "law",
    [
        lambda g, eta, iv: likelihood_exact(g, eta, iv),
        lambda g, eta, iv: infection_law_exact(g, eta, iv.k),
        lambda g, eta, iv: topology_sup_likelihood(g, eta, iv),
        lambda g, eta, iv: likelihood_censored(g, eta, iv_of(g.n, iv.infected, [5])),
    ],
    ids=["likelihood_exact", "infection_law_exact", "topology_sup_likelihood", "likelihood_censored"],
)
def test_exact_laws_refuse_a_non_finite_eta(law, eta):
    # both etas used to give nan likelihoods, and a sup of 0.0 (max(0.0, nan) keeps 0.0);
    # the edgeless graph's closed form used to take any eta
    message = f"eta must be finite, got {eta}" if eta != -3.0 else "eta must be >= 0, got -3.0"
    for g in (cycle_graph(6), empty_graph(6)):
        with pytest.raises(ValueError, match=message):
            law(g, eta, iv_of(6, [0, 1, 2]))


def test_censored_delegates_when_no_censoring():
    g = cycle_graph(5)
    iv = iv_of(5, [0, 1])
    assert likelihood_censored(g, 2.0, iv) == likelihood_exact(g, 2.0, iv)


def test_censored_empty_graph_multinomial():
    rep = likelihood_censored(empty_graph(4), 9.0, iv_of(4, [1], censored=[2]))
    assert isclose(rep.value, 1.0 / (comb(4, 1) * comb(3, 1)))
    assert rep.censor_terms == 2
    # 1! + 2! paths over the two completions, as on a graph with edges
    assert rep.n_paths == 3


_MASS_CASES = [
    (cycle_graph(4), [(1, 1), (2, 1), (1, 2), (1, 3), (2, 2)]),
    (star_graph(5), [(1, 1), (2, 2), (1, 4), (2, 3)]),
    (empty_graph(5), [(1, 2), (3, 2)]),
    (build_graph(6, [(0, 1), (2, 3)]), [(1, 1), (2, 1), (1, 2), (2, 4)]),
]


def test_censored_total_mass_is_one():
    # the normalizer C(n+1, c) is exact on any graph at any eta, k + c = n included
    for g, pairs in _MASS_CASES:
        for k, c in pairs:
            for eta in (0.0, 1.0, 1e3):
                total = []
                for infected in combinations(range(g.n), k):
                    rest = [v for v in range(g.n) if v not in infected]
                    for cens in combinations(rest, c):
                        total.append(likelihood_censored(g, eta, iv_of(g.n, infected, cens)).value)
                assert isclose(fsum(total), 1.0, rel_tol=1e-12), (g.n, g.edges, k, c, eta)


def test_censored_likelihood_is_its_completion_sum():
    # C(12, 3) * C(9, 3) * 2^3 * 6! ~ 1.06e8 paths for a normalizing enumeration
    g = cycle_graph(12)
    rep = likelihood_censored(g, 2.0, iv_of(12, [0, 1, 2], censored=[5, 6, 7]))
    completions = [s for r in range(4) for s in combinations([5, 6, 7], r)]
    terms = [likelihood_exact(g, 2.0, iv_of(12, [0, 1, 2, *s])).value for s in completions]
    assert rep.value == fsum(terms) / comb(13, 3)
    assert (rep.n_paths, rep.censor_terms) == (6 + 3 * 24 + 3 * 120 + 720, 8)


def test_censored_validation_and_guards():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        likelihood_censored(g, 1.0, InfectionVector((0, 0, 2, 0, 0)))
    big = cycle_graph(12)
    with pytest.raises(GuardExceededError):
        likelihood_censored(big, 1.0, iv_of(12, range(6), censored=[7, 8, 9]))


def test_ratio_factorization():
    # ratios chain: (g1/g0) * (g0/empty) == (g1/empty)
    g0 = star_graph(5)
    g1 = cycle_graph(5)
    e = empty_graph(5)
    for eta in (0.5, 2.0):
        for subset in combinations(range(5), 3):
            iv = iv_of(5, subset)
            lhs = likelihood_ratio(g0, g1, eta, iv) * likelihood_ratio(e, g0, eta, iv)
            rhs = likelihood_ratio(e, g1, eta, iv)
            assert isclose(lhs, rhs, rel_tol=1e-12)


def test_ratio_under_censoring_runs():
    g1 = cycle_graph(4)
    iv = iv_of(4, [0], censored=[2])
    r = likelihood_ratio(empty_graph(4), g1, 2.0, iv)
    assert r > 0.0


def test_ratio_orders_snapshots_like_edge_count_at_small_eta():
    # at small eta the ratio against the no-edge null is approximately
    # 1 + eta*W, so sorting by ratio matches sorting by W
    g = cycle_graph(6)
    eta = 1e-3
    subsets = list(combinations(range(6), 3))
    ratios = {s: likelihood_ratio(empty_graph(6), g, eta, iv_of(6, s)) for s in subsets}
    for s in subsets:
        for t in subsets:
            w_s = edges_within(g, iv_of(6, s))
            w_t = edges_within(g, iv_of(6, t))
            if w_s > w_t:
                assert ratios[s] > ratios[t]


def test_first_order_residual_vanishes_linearly():
    g = cycle_graph(5)
    iv = iv_of(5, [0, 1])
    etas = [0.1, 0.01, 0.001, 0.0001]
    residuals = [abs(first_order_residual(g, eta, iv)) for eta in etas]
    # residual -> 0 and residual/eta stays bounded
    assert residuals[-1] < residuals[0]
    assert residuals[-1] < 1e-4
    assert all(r / eta < 10.0 for r, eta in zip(residuals, etas))


def test_first_order_residual_exact_at_eta_zero_limit():
    g = star_graph(5)
    iv = iv_of(5, [0, 2, 3])
    assert abs(first_order_residual(g, 1e-9, iv)) < 1e-7
    with pytest.raises(ValueError):
        first_order_residual(g, 0.5, iv_of(5, [0], censored=[1]))


def test_topology_sup_constant_over_same_size_snapshots():
    # relabeling the cycle can carry any k-set onto any other, so the sup
    # cannot depend on which one was observed
    g = cycle_graph(5)
    eta = 2.0
    values = {
        topology_sup_likelihood(g, eta, iv_of(5, s)) for s in combinations(range(5), 2)
    }
    assert len(values) == 1
    (v,) = values
    adjacent = likelihood_exact(g, eta, iv_of(5, [0, 1])).value
    apart = likelihood_exact(g, eta, iv_of(5, [0, 2])).value
    assert isclose(v, max(adjacent, apart), rel_tol=1e-12)


def test_topology_sup_guards():
    # cycle:7 with k=1 sums 7 paths; the cap refuses paths, not vertices
    assert topology_sup_likelihood(cycle_graph(7), 1.0, iv_of(7, [0])) == 1 / 7
    # C(16, 6) * 6! = 5,765,760 paths
    with pytest.raises(GuardExceededError, match="needs 5765760 evaluations"):
        topology_sup_likelihood(cycle_graph(16), 1.0, iv_of(16, range(6)))
    with pytest.raises(ValueError):
        topology_sup_likelihood(cycle_graph(5), 1.0, iv_of(5, [0], censored=[1]))
    with pytest.raises(ValueError, match="sizes differ"):
        topology_sup_likelihood(cycle_graph(5), 1.0, iv_of(6, [0]))


_SUP_GRAPHS = [
    empty_graph(6), complete_graph(5), cycle_graph(5), path_graph(5), cycle_graph(6), path_graph(6),
    star_graph(6), build_graph(6, [(0, 1), (1, 2), (3, 4)]), erdos_renyi(6, 0.4, 2),
]


@pytest.mark.parametrize("g", _SUP_GRAPHS, ids=lambda g: f"{g.n}:{g.edges}")
def test_topology_sup_equals_relabeled_graph_loop(g):
    # the max over infected sets on the fixed graph is the max over its
    # n! relabelings, bit for bit
    # the loop relabels the graph n! times: k stays small on 6 vertices
    for eta in (0.0, 0.5, 1.0, 3.0, 1e3):
        for k in range(1, 4 if g.n == 6 else g.n + 1):
            iv = iv_of(g.n, range(g.n - k, g.n))
            assert topology_sup_likelihood(g, eta, iv) == oracles.topology_sup_reference(g, eta, iv)


def test_topology_sup_keeps_the_empty_graph_closed_form():
    # the max of infection_law_exact sums 4! paths to 0.0666...65, an ulp under 1/C(6, 4)
    assert topology_sup_likelihood(empty_graph(6), 2.0, iv_of(6, [0, 1, 2, 3])) == 1 / comb(6, 4)


def test_report_fields():
    rep = likelihood_exact(cycle_graph(5), 1.5, iv_of(5, [0, 1, 2]))
    assert isinstance(rep, LikelihoodReport)
    assert rep.n_paths == 6
    assert rep.eta == 1.5
    assert rep.censor_terms == 0
