import io
from itertools import combinations, permutations
from math import fsum, isclose

import numpy as np
import pytest

from netspread import (
    CENSORED,
    INFECTED,
    UNINFECTED,
    GuardExceededError,
    InfectionPath,
    InfectionVector,
    ParseError,
    SpreadParams,
    align_to_graph,
    build_graph,
    censor_fixed,
    censor_uniform,
    complete_graph,
    cycle_graph,
    edges_within,
    empty_graph,
    infection_from_infected,
    infection_law_exact,
    ising_sample_exact,
    path_graph,
    path_probability,
    read_status_file,
    simulate_spread,
    star_graph,
    substream,
    write_status_file,
)
from oracles import path_law_probability, spread_law, total_variation


def test_status_constants():
    assert (UNINFECTED, INFECTED, CENSORED) == (0, 1, 2)


def test_infection_vector_basics():
    iv = InfectionVector((1, 0, 2, 1))
    assert iv.n == 4
    assert iv.k == 2
    assert iv.c == 1
    assert iv.infected == (0, 3)
    assert iv.censored == (2,)
    assert repr(iv) == "InfectionVector('10*1')"


def test_infection_vector_is_immutable_and_hashable():
    iv = InfectionVector((1, 0, 0))
    with pytest.raises(ValueError):
        iv.status[0] = 0
    assert iv == InfectionVector(np.array([1, 0, 0]))
    assert hash(iv) == hash(InfectionVector((1, 0, 0)))
    assert iv != InfectionVector((0, 1, 0))
    assert iv != InfectionVector((1, 0, 0, 0))


def test_infection_vector_rejects_bad_status():
    for bad in ((0, 3), (-1, 0), (1, 2, 1, 7)):
        with pytest.raises(ValueError, match="statuses must be 0, 1, or 2"):
            InfectionVector(bad)
    with pytest.raises(ValueError):
        InfectionVector(())


def test_infection_from_infected():
    iv = infection_from_infected(5, [4, 1], censored=[0])
    assert iv.status.tolist() == [2, 1, 0, 0, 1]
    with pytest.raises(ValueError):
        infection_from_infected(5, [1], censored=[1])


def test_infection_path_to_infection():
    path = InfectionPath((3, 0, 2))
    assert path.k == 3
    iv = path.to_infection(5)
    assert iv.infected == (0, 2, 3)
    with pytest.raises(ValueError):
        InfectionPath((1, 1, 2))
    with pytest.raises(ValueError):
        InfectionPath(())
    with pytest.raises(ValueError):
        InfectionPath((0, 4)).to_infection(3)


def test_spread_params_validation():
    SpreadParams(eta=0.0, k=1)
    with pytest.raises(ValueError):
        SpreadParams(eta=-0.5, k=2)
    with pytest.raises(ValueError):
        SpreadParams(eta=1.0, k=0)


def test_path_probability_uniform_when_eta_zero():
    g = cycle_graph(5)
    # eta=0 ignores the graph: every ordered k-tuple has prob 1/(n...(n-k+1))
    want = 1.0 / (5 * 4 * 3)
    for path in [(0, 1, 2), (0, 2, 4), (3, 1, 0)]:
        assert isclose(path_probability(g, 0.0, InfectionPath(path)), want)


def test_path_probability_against_oracle():
    cases = [
        (cycle_graph(5), (0, 1, 2), 2.0),
        (cycle_graph(5), (0, 2, 4), 2.0),
        (star_graph(6), (0, 3, 5), 1.5),
        (star_graph(6), (3, 0, 5), 1.5),
        (path_graph(6), (2, 3, 4, 5), 0.7),
        (complete_graph(4), (1, 0, 3), 3.0),
    ]
    for g, path, eta in cases:
        got = path_probability(g, eta, InfectionPath(path))
        want = path_law_probability(g, eta, path)
        assert isclose(got, want, rel_tol=1e-12)


def test_path_probability_rejects_bad_input():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        path_probability(g, -1.0, InfectionPath((0, 1)))
    with pytest.raises(ValueError):
        path_probability(g, 1.0, InfectionPath((0, 9)))


@pytest.mark.parametrize(
    "g,eta,k",
    [
        (cycle_graph(5), 2.0, 3),
        (star_graph(5), 0.7, 4),
        (path_graph(4), 5.0, 4),
        (empty_graph(4), 3.0, 2),
    ],
)
def test_path_probabilities_sum_to_one(g, eta, k):
    total = fsum(
        path_probability(g, eta, InfectionPath(p)) for p in permutations(range(g.n), k)
    )
    assert isclose(total, 1.0, rel_tol=1e-10)


def test_infection_law_matches_oracle():
    for g, eta, k in [
        (cycle_graph(5), 2.0, 3),
        (star_graph(6), 1.5, 3),
        (path_graph(5), 0.5, 2),
    ]:
        law = infection_law_exact(g, eta, k)
        want = spread_law(g, eta, k)
        as_sets = {frozenset(s): p for s, p in law.items()}
        assert set(as_sets) == set(want)
        assert total_variation(as_sets, want) < 1e-12
        assert isclose(fsum(law.values()), 1.0, rel_tol=1e-10)


def test_infection_law_guard():
    with pytest.raises(GuardExceededError):
        infection_law_exact(cycle_graph(30), 1.0, 10)


def test_simulate_spread_deterministic():
    g = cycle_graph(8)
    params = SpreadParams(eta=2.0, k=4)
    a = simulate_spread(g, params, substream(123))
    b = simulate_spread(g, params, substream(123))
    assert a.order == b.order
    assert isinstance(simulate_spread(g, params, substream(124)), InfectionPath)


def test_simulate_spread_accepts_plain_seed():
    g = star_graph(6)
    params = SpreadParams(eta=1.0, k=3)
    assert simulate_spread(g, params, 7).order == simulate_spread(g, params, 7).order


def test_simulate_spread_k_bounds():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        simulate_spread(g, SpreadParams(eta=1.0, k=6), substream(0))


def test_simulate_spread_frequencies_match_law():
    # empirical snapshot frequencies vs the exact law, chi-square at alpha=1e-3
    scipy_stats = pytest.importorskip("scipy.stats")
    g = star_graph(5)
    params = SpreadParams(eta=2.0, k=2)
    law = infection_law_exact(g, params.eta, params.k)
    rng = substream(42)
    draws = 20000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        iv = simulate_spread(g, params, rng).to_infection(g.n)
        counts[iv.infected] = counts.get(iv.infected, 0) + 1
    keys = sorted(law)
    observed = [counts.get(kk, 0) for kk in keys]
    expected = [law[kk] * draws for kk in keys]
    res = scipy_stats.chisquare(observed, expected)
    assert res.pvalue > 1e-3


def test_censor_uniform():
    iv = infection_from_infected(6, [0, 1])
    out = censor_uniform(iv, 2, substream(9))
    assert out.c == 2
    assert out.n == iv.n
    # censoring overwrites, never uncovers: k can only shrink
    assert out.k <= iv.k
    assert out == censor_uniform(iv, 2, substream(9))
    with pytest.raises(ValueError):
        censor_uniform(out, 1, substream(0))
    with pytest.raises(ValueError):
        censor_uniform(iv, 7, substream(0))


def test_censor_uniform_zero_is_identity():
    iv = infection_from_infected(4, [2])
    assert censor_uniform(iv, 0, substream(1)) == iv


def test_censor_fixed():
    iv = infection_from_infected(5, [0, 1])
    out = censor_fixed(iv, [1, 3])
    assert out.status.tolist() == [1, 2, 0, 2, 0]
    with pytest.raises(ValueError):
        censor_fixed(out, [0])
    with pytest.raises(ValueError):
        censor_fixed(iv, [9])


def test_ising_sample_exact_matches_enumeration():
    g = cycle_graph(6)
    eta, k = 1.5, 3
    rng = substream(5)
    draws = 12000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        iv = ising_sample_exact(g, eta, k, rng)
        counts[iv.infected] = counts.get(iv.infected, 0) + 1
    # target weights proportional to exp(eta * edges inside the set)
    weights = {}
    for subset in combinations(range(6), k):
        iv = infection_from_infected(6, subset)
        weights[subset] = float(np.exp(eta * edges_within(g, iv)))
    total = fsum(weights.values())
    law = {s: w / total for s, w in weights.items()}
    emp = {s: c / draws for s, c in counts.items()}
    assert total_variation(law, emp) < 0.03


def test_ising_guard():
    with pytest.raises(GuardExceededError):
        ising_sample_exact(cycle_graph(40), 1.0, 20, substream(0))


def test_status_file_round_trip():
    iv = InfectionVector((1, 0, 2, 1, 0))
    buf = io.StringIO()
    write_status_file(buf, iv, labels=["a", "b", "c", "d", "e"])
    text = buf.getvalue()
    assert "c *" in text
    labels, codes = read_status_file(text)
    assert labels == ("a", "b", "c", "d", "e")
    assert InfectionVector(codes) == iv


def test_write_status_file_default_labels():
    buf = io.StringIO()
    write_status_file(buf, InfectionVector((0, 1)))
    assert buf.getvalue() == "0 0\n1 1\n"
    with pytest.raises(ValueError):
        write_status_file(io.StringIO(), InfectionVector((0, 1)), labels=["x"])


def test_read_status_file_errors():
    with pytest.raises(ParseError, match="line 2"):
        read_status_file("a 1\nb 5\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_status_file("a 1\na 0\n")
    with pytest.raises(ParseError):
        read_status_file("# only comments\n")
    with pytest.raises(ParseError, match="line 1"):
        read_status_file("a 1 extra\n")


def test_read_status_file_skips_comments_and_blanks():
    labels, codes = read_status_file("# header\n\na 1\nb *\n")
    assert labels == ("a", "b")
    assert codes.tolist() == [1, 2]


def test_align_to_graph():
    g = build_graph(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
    labels, codes = read_status_file("c 1\na 0\nb *\n")
    aligned = align_to_graph(g, labels, codes)
    assert aligned.status.tolist() == [0, 2, 1]
    with pytest.raises(ParseError):
        align_to_graph(g, ("c", "a", "x"), codes)
    with pytest.raises(ParseError):
        align_to_graph(g, ("c", "a"), codes[:2])
