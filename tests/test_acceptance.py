"""Acceptance suite: ten end-to-end checks, one verdict line each.

Each check exercises a different contract of the package at full
strength: frozen baseline-threshold values, exact distribution equality
under relabeling, level control, a separating counterexample, the
desk-scale grid experiment, the small-eta likelihood expansion, the
relabeling-sup constancy, cascade counting identities, the Steiner
factor-two bound, and exhaustive automorphism invariance. Expected
values come from closed forms or from the independent oracles in
oracles.py, never from the code under test.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from math import floor

import numpy as np
import pytest

from netspread import (
    CENSORED,
    INFECTED,
    UNINFECTED,
    InfectionPath,
    InfectionVector,
    Permutation,
    StatisticSpec,
    TestConfig,
    apply_to_infection,
    automorphism_group,
    build_graph,
    cascade_count,
    cascade_count_cycle,
    check_validity,
    complete_graph,
    cycle_graph,
    edges_within,
    empty_graph,
    erdos_renyi,
    exact_test,
    first_order_residual,
    infection_from_infected,
    infection_radius,
    is_connected,
    mc_risk_curve,
    orbit_count,
    path_graph,
    path_probability,
    star_graph,
    steiner_weight,
    tb_threshold,
    topology_sup_likelihood,
    torus_grid,
    tt_threshold,
    two_block,
)
from netspread import risk

from oracles import (
    brute_automorphisms,
    cascade_orderings,
    hypergeometric_pmf,
    spread_law,
    statistic_law,
    steiner_optimum,
    total_variation,
    uniform_subset_law,
)


@contextmanager
def verdict(name: str):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def law_via_paths(g, eta: float, k: int) -> dict[frozenset, float]:
    """Snapshot law assembled by summing path_probability over orderings."""
    law: dict[frozenset, float] = {}
    for order in itertools.permutations(range(g.n), k):
        p = path_probability(g, eta, InfectionPath(tuple(order)))
        key = frozenset(order)
        law[key] = law.get(key, 0.0) + p
    return law


def test_acceptance_01_baseline_thresholds():
    # frozen table: (computed value, printed integer); the printed value
    # is the floor of the formula, and the pre-floor value must sit
    # within 0.2% of the unit-interval midpoint
    with verdict("acceptance 01 baseline thresholds"):
        midpoint_rows = [
            (tb_threshold(2, 2500, 500, 500), 157),
            (tb_threshold(2, 10000, 500, 500), 150),
            (tt_threshold(2500, 500, 500), 5441),
            (tt_threshold(10000, 500, 500), 5760),
            (tt_threshold(2040, 200, 300), 1964),
        ]
        for value, printed in midpoint_rows:
            assert floor(value) == printed, (value, printed)
            mid = printed + 0.5
            assert abs(value - mid) / mid <= 0.002, (value, printed)
        # the 1567-vertex social graph straddles 1965/1966 pre-floor
        fb2 = tt_threshold(1567, 200, 300)
        assert floor(fb2) in (1965, 1966)
        assert abs(fb2 - 1965.5) / 1965.5 <= 0.002
        # dimension-3 ball thresholds on the same social graphs
        assert floor(tb_threshold(3, 2040, 200, 300)) == 77
        assert floor(tb_threshold(3, 1567, 200, 300)) == 78


def test_acceptance_02_relabeling_law_equality():
    # valid pair (star null, cycle alternative): the edges-within law of
    # the spreading snapshot equals the law after a uniform relabeling,
    # atom by atom
    with verdict("acceptance 02 relabeling law equality"):
        star6, cyc6 = star_graph(6), cycle_graph(6)
        perms = list(itertools.permutations(range(6)))
        for eta in (0.5, 2.0):
            null_law = law_via_paths(star6, eta, 3)
            oracle_law = spread_law(star6, eta, 3)
            assert set(null_law) == set(oracle_law)
            for s, mass in null_law.items():
                assert abs(mass - oracle_law[s]) <= 1e-14

            def w_of(subset):
                return edges_within(cyc6, infection_from_infected(6, subset))

            lw_null = statistic_law(null_law, w_of)
            relabeled: dict[frozenset, float] = {}
            for pi in perms:
                for s, mass in null_law.items():
                    key = frozenset(pi[v] for v in s)
                    relabeled[key] = relabeled.get(key, 0.0) + mass / 720.0
            lw_perm = statistic_law(relabeled, w_of)
            lw_unif = statistic_law(uniform_subset_law(6, 3), w_of)
            atoms = set(lw_null) | set(lw_perm) | set(lw_unif)
            for a in atoms:
                assert abs(lw_null.get(a, 0.0) - lw_perm.get(a, 0.0)) <= 1e-12
                assert abs(lw_perm.get(a, 0.0) - lw_unif.get(a, 0.0)) <= 1e-12


def test_acceptance_03_exact_test_level_control():
    # decision rule averaged over the exact null law never exceeds alpha
    with verdict("acceptance 03 exact test level control"):
        star6, cyc6 = star_graph(6), cycle_graph(6)
        spec = StatisticSpec.edges_within(cyc6)
        for eta in (0.5, 2.0):
            null_law = spread_law(star6, eta, 3)
            assert abs(sum(null_law.values()) - 1.0) <= 1e-12
            for alpha in (0.05, 0.1, 0.2, 0.5):
                reject_prob = sum(
                    mass
                    * exact_test(
                        spec, infection_from_infected(6, s), alpha, null_graph=star6
                    ).reject
                    for s, mass in null_law.items()
                )
                assert reject_prob <= alpha + 1e-12, (eta, alpha, reject_prob)


def test_acceptance_04_invalid_pair_separates():
    # star null against path alternative fails the product condition and
    # an orbit count certifies the gap: its spreading law and its
    # uniformly relabeled law are measurably different
    with verdict("acceptance 04 invalid pair separates"):
        star6, path6 = star_graph(6), path_graph(6)
        assert check_validity(star6, path6) == "invalid"
        orb = sorted(automorphism_group(path6).orbit_of(0))
        assert orb == [0, 5]

        def endpoints_hit(subset):
            return orbit_count(infection_from_infected(6, subset), orb)

        null_law = statistic_law(spread_law(star6, 2.0, 2), endpoints_hit)
        perm_law = statistic_law(uniform_subset_law(6, 2), endpoints_hit)
        for x in range(3):
            want = hypergeometric_pmf(6, 2, 2, x)
            assert abs(perm_law.get(float(x), 0.0) - want) <= 1e-12
        assert total_variation(null_law, perm_law) > 1e-3


def test_acceptance_05_grid_experiment():
    # desk-scale torus run: the edges-within test holds its level and
    # has full power at strong contagion; the radius test's miss rate
    # falls as contagion strengthens
    with verdict("acceptance 05 grid experiment"):
        g1 = torus_grid((20, 20))
        g0 = empty_graph(400)
        cfg = TestConfig(alpha=0.01, B=100, seed=7)
        etas = [1.0, 10.0, 100.0]
        w_curve = mc_risk_curve(g0, g1, 0.0, etas, k=80, c=80, cfg=cfg, reps=500)
        assert w_curve.type_i <= 0.05, w_curve.type_i
        assert w_curve.type_ii[100.0] <= 0.01, w_curve.type_ii
        r_curve = mc_risk_curve(
            g0, g1, 0.0, etas, k=80, c=80, cfg=cfg, reps=500,
            stat=StatisticSpec.infection_radius(g1),
        )
        misses = [r_curve.type_ii[e] for e in etas]
        assert misses[0] >= misses[1] >= misses[2], misses
        assert misses[0] - misses[2] > 0.1, misses


def test_acceptance_06_likelihood_expansion():
    # the likelihood ratio against the no-edge null approaches
    # 1 + eta * edges_within as eta shrinks, with residual/eta bounded
    with verdict("acceptance 06 likelihood expansion"):
        c5 = cycle_graph(5)
        snapshots = [
            infection_from_infected(5, s) for s in itertools.combinations(range(5), 2)
        ]
        worsts = []
        for eta in (0.1, 0.01, 0.001):
            worst = max(abs(first_order_residual(c5, eta, iv)) for iv in snapshots)
            worsts.append((eta, worst))
        for (ea, wa), (eb, wb) in itertools.pairwise(worsts):
            assert wa > wb
            assert wa / ea > wb / eb
        assert all(w / e <= 1.0 for e, w in worsts)
        assert worsts[-1][1] < 1e-3


def test_acceptance_07_relabeling_sup_constant():
    # maximizing the likelihood over all relabelings of the cycle wipes
    # out any dependence on which two vertices are infected
    with verdict("acceptance 07 relabeling sup constant"):
        c4 = cycle_graph(4)
        for eta in (0.5, 2.0):
            vals = [
                topology_sup_likelihood(c4, eta, infection_from_infected(4, s))
                for s in itertools.combinations(range(4), 2)
            ]
            assert vals[0] > 0.0
            assert max(vals) - min(vals) <= 1e-12


def test_acceptance_08_cascade_identities(monkeypatch):
    # growth-ordering counts: the cycle closed form (k-1)*2^(k-1) and
    # the path edge sum (k-1)*(n-k+1)*2^(k-1), both against brute force
    monkeypatch.setattr(risk, "_CASCADE_N_GUARD", 12)
    with verdict("acceptance 08 cascade identities"):
        for k in range(2, 7):
            closed = (k - 1) * 2 ** (k - 1)
            assert cascade_count_cycle(k) == closed
            for n in (k + 1, k + 2, 10):
                g = cycle_graph(n)
                assert cascade_orderings(g, k, 0, 1) == closed
                assert cascade_count(g, k, 0, 1) == closed
        for k in range(2, 6):
            for n in range(k + 1, 11):
                g = path_graph(n)
                closed = (k - 1) * (n - k + 1) * 2 ** (k - 1)
                brute = sum(cascade_orderings(g, k, u, v) for u, v in g.edges)
                mine = sum(cascade_count(g, k, u, v) for u, v in g.edges)
                assert brute == mine == closed, (n, k, brute, mine, closed)


def test_acceptance_09_steiner_factor_two():
    # approximate Steiner weight within a factor two of the exhaustive
    # optimum over named families plus 160 seeded connected random draws
    with verdict("acceptance 09 steiner factor two"):
        corpus = []
        for n in range(2, 9):
            corpus.append(path_graph(n))
            if n >= 3:
                corpus.append(cycle_graph(n))
            corpus.append(star_graph(n))
            corpus.append(complete_graph(n))
        blocks = two_block(8, 0.9, 0.4, seed=5)
        assert is_connected(blocks)
        corpus.append(blocks)
        grid = [(n, p) for n in range(4, 9) for p in (0.3, 0.5, 0.8)]
        draws: list = []
        seed = 0
        while len(draws) < 160:
            n, p = grid[seed % len(grid)]
            g = erdos_renyi(n, p, seed=seed)
            seed += 1
            if is_connected(g):
                draws.append(g)
        corpus.extend(draws)
        for g in corpus:
            for t in range(2, 5):
                if t > g.n:
                    continue
                for terms in itertools.combinations(range(g.n), t):
                    approx = steiner_weight(g, infection_from_infected(g.n, terms))
                    opt = steiner_optimum(g, terms)
                    assert opt <= approx <= 2 * opt, (g.edges, terms, approx, opt)


def test_acceptance_10_automorphism_invariance():
    # every statistic is constant on automorphism orbits, checked over
    # every status vector of six symmetric families; step-level path
    # counts are likewise invariant
    with verdict("acceptance 10 automorphism invariance"):
        families = [
            cycle_graph(7),
            star_graph(6),
            path_graph(6),
            complete_graph(5),
            build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
            build_graph(7, [(i, 3 + j) for i in range(3) for j in range(4)]),
        ]
        for g in families:
            n = g.n
            aut = automorphism_group(g)
            images = brute_automorphisms(g)
            assert aut.order == len(images)
            assert all(aut.contains(Permutation(image)) for image in images)
            table = {}
            for status in itertools.product((UNINFECTED, INFECTED, CENSORED), repeat=n):
                iv = InfectionVector(np.array(status, dtype=np.int8))
                if iv.k:
                    table[status] = (
                        edges_within(g, iv),
                        infection_radius(g, iv),
                        steiner_weight(g, iv),
                    )
                else:
                    table[status] = (edges_within(g, iv),)
            for pi in map(Permutation, images):
                for status, vals in table.items():
                    iv = InfectionVector(np.array(status, dtype=np.int8))
                    moved = tuple(int(x) for x in apply_to_infection(pi, iv).status)
                    assert table[moved] == vals, (g.edges, pi.image, status)

        # ordered-path level: infected-neighbor and boundary counts at
        # every step match between a path and its relabeled image
        def step_counts(g, order):
            adj = [set(g.neighbors(v)) for v in range(g.n)]
            inside: set[int] = set()
            boundary = 0
            seq = []
            for v in order:
                a = len(adj[v] & inside)
                seq.append((boundary, a))
                inside.add(v)
                boundary += len(adj[v]) - 2 * a
            return tuple(seq)

        for g in (cycle_graph(5), star_graph(5), path_graph(5)):
            images = brute_automorphisms(g)
            for k in (1, 2, 3):
                for order in itertools.permutations(range(g.n), k):
                    counts = step_counts(g, order)
                    probs = [
                        path_probability(g, e, InfectionPath(order))
                        for e in (0.0, 0.7, 3.0)
                    ]
                    for image in images:
                        moved = tuple(image[v] for v in order)
                        assert step_counts(g, moved) == counts
                        assert [
                            path_probability(g, e, InfectionPath(moved))
                            for e in (0.0, 0.7, 3.0)
                        ] == probs


@pytest.mark.slow
def test_full_scale_grid_row():
    # 50x50 torus at full parameter strength: the ball and tree baseline
    # thresholds exceed their statistic ceilings (the tests degenerate to
    # always rejecting), while the permutation test keeps its level and
    # gains full power by eta = 10
    g1 = torus_grid((50, 50))
    g0 = empty_graph(2500)
    assert tb_threshold(2, 2500, 500, 500) > 50  # radius never exceeds 50
    assert tt_threshold(2500, 500, 500) > 2499  # tree weight tops out at n-1
    cfg = TestConfig(alpha=0.01, B=100, seed=11)
    curve = mc_risk_curve(
        g0, g1, 0.0, [1.0, 10.0, 100.0, 1000.0], k=500, c=500, cfg=cfg, reps=150
    )
    assert curve.type_i <= 0.05
    assert curve.type_ii[1.0] <= 0.01
    assert curve.type_ii[10.0] <= 0.01
    assert curve.type_ii[100.0] <= 0.01
    assert curve.type_ii[1000.0] <= 0.01
