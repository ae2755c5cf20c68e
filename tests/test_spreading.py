import io
from itertools import combinations, permutations
from math import fsum, isclose

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netspread.spreading as spreading
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
    erdos_renyi,
    infection_from_infected,
    infection_law_exact,
    ising_sample_exact,
    path_graph,
    path_probability,
    read_status_file,
    simulate_spread,
    star_graph,
    substream,
    torus_grid,
    write_status_file,
)
from oracles import path_law_probability, spread_law, spread_path_reference, total_variation


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
    # 256 and -255 wrap to valid int8 statuses, and 0.5 and 1.9 truncate to them
    for bad in ((0, 3), (-1, 0), (1, 2, 1, 7), [256, 1, 0], [-255, 1, 0], [0.5, 1.0, 1.9]):
        with pytest.raises(ValueError, match="statuses must be 0, 1, or 2"):
            InfectionVector(np.array(bad))
    with pytest.raises(ValueError):
        InfectionVector(())


def test_infection_vector_accepts_exact_statuses_of_any_dtype():
    for good in (np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2], dtype=np.uint64), [False, True, 2]):
        iv = InfectionVector(good)
        assert iv.status.dtype == np.int8 and iv.status.tolist() == [0, 1, 2]


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
        SpreadParams(eta=float("nan"), k=2)
    with pytest.raises(ValueError):
        SpreadParams(eta=1.0, k=0)


@pytest.mark.parametrize("eta", [float("inf"), 1e308])
def test_spread_rejects_eta_whose_weights_overflow(eta):
    with pytest.raises(ValueError, match="not finite"):
        simulate_spread(cycle_graph(10), SpreadParams(eta=eta, k=5), 0)
    # without edges every weight stays 1, whatever eta
    assert len(simulate_spread(empty_graph(10), SpreadParams(eta=eta, k=5), 0).order) == 5
    # the largest total weight, n + 2|E| eta, still fits in float64
    assert len(simulate_spread(cycle_graph(10), SpreadParams(eta=1e306, k=10), 0).order) == 10


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


class FixedUniforms:
    """A generator stand-in that hands out chosen uniforms, one or many at a time."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def _path_for(monkeypatch, g, eta, uniforms):
    monkeypatch.setattr(spreading, "as_generator", lambda _: FixedUniforms(uniforms))
    return simulate_spread(g, SpreadParams(eta=eta, k=len(uniforms)), 0).order


@pytest.mark.parametrize("g,eta", [(empty_graph(5), 0.0), (path_graph(5), 1.0), (path_graph(5), 0.3)])
def test_spread_pick_at_zero_skips_infected_vertices(monkeypatch, g, eta):
    # u = 0 equals the cumulative weight of every infected vertex before
    # the first uninfected one; the pick is the first sum strictly above u
    assert _path_for(monkeypatch, g, eta, [0.0, 0.0, 0.0]) == (0, 1, 2)
    assert spread_path_reference(g, eta, 3, FixedUniforms([0.0] * 3)) == (0, 1, 2)


def test_spread_pick_at_exact_block_boundaries(monkeypatch):
    # 16 vertices sit in blocks of 4; each u below is an exact cumulative sum:
    # 4 ends block 0, 4 again once vertex 4 is out, 7 inside block 2, 6 ends block 1
    g = empty_graph(16)
    uniforms = [0.25, 4 / 15, 0.5, 6 / 13]
    assert [r * (16 - t) for t, r in enumerate(uniforms)] == [4.0, 4.0, 7.0, 6.0]
    assert _path_for(monkeypatch, g, 0.0, uniforms) == (4, 5, 9, 8)
    assert spread_path_reference(g, 0.0, 4, FixedUniforms(uniforms)) == (4, 5, 9, 8)


def test_spread_sums_exact_condition():
    torus = torus_grid((50, 50))
    for eta in (0, 0.5, 1.0, 2.0, 8.0, 10.0, 100.0, 1000.0, 0.25, 1e6):
        assert spreading._sums_exact(torus, eta)
    for eta in (0.3, 1 / 3, 0.1, float("inf"), float("nan")):
        assert not spreading._sums_exact(torus, eta)
    # weights never sum past n + 2|E| eta; in units of 1/d that must stay below 2^53
    assert spreading._sums_exact(path_graph(2), 2.0**-51)
    assert not spreading._sums_exact(path_graph(2), 2.0**-52)
    assert spreading._sums_exact(complete_graph(3), 2.0**50)
    assert not spreading._sums_exact(complete_graph(3), 2.0**51)
    # with no edges the weights stay 1 whatever eta is
    for eta in (0.3, float("inf")):
        assert spreading._sums_exact(empty_graph(2500), eta)


def test_spread_inexact_eta_follows_the_sequential_sum(monkeypatch):
    # eta = 0.1 makes the block sums round differently from the sequential
    # cumulative sum; this last uniform falls between the two roundings
    g = cycle_graph(9)
    uniforms = [0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
                0.016527635528529094, 0.2037037037037037]
    want = spread_path_reference(g, 0.1, 5, FixedUniforms(uniforms))
    assert want == (5, 2, 0, 1, 4)
    assert _path_for(monkeypatch, g, 0.1, uniforms) == want
    assert tuple(spreading._blocked_path(g, 0.1, uniforms)) != want


_SPREAD_ETAS = [0.0, 0.25, 0.5, 1.0, 10.0, 1e6, 0.3, 1 / 3]


@st.composite
def spread_cases(draw):
    """A graph on 1..80 vertices (often disconnected, with isolated vertices),
    an eta, a path length k in 1..n and a seed."""
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    else:
        g = draw(st.sampled_from([empty_graph, star_graph, cycle_graph, path_graph, complete_graph]))(
            max(n, 3)
        )
    k = draw(st.one_of(st.just(1), st.just(g.n), st.integers(1, g.n)))
    return g, draw(st.sampled_from(_SPREAD_ETAS)), k, draw(st.integers(0, 2**32))


def _assert_matches_reference(g, eta, k, seed):
    rng, ref_rng = substream(seed), substream(seed)
    path = simulate_spread(g, SpreadParams(eta=eta, k=k), rng)
    assert path.order == spread_path_reference(g, eta, k, ref_rng)
    assert rng.random() == ref_rng.random()


@settings(max_examples=200)
@given(spread_cases())
@example((build_graph(1, []), 0.0, 1, 0))
@example((star_graph(40), 10.0, 40, 1))
@example((star_graph(40), 0.3, 40, 2))
@example((build_graph(12, [(0, 1), (2, 3), (5, 11)]), 1e6, 12, 3))
def test_simulate_spread_matches_reference(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("n", [5, 10, 17, 26, 50, 98])
@pytest.mark.parametrize("eta", [0.0, 1.0, 1 / 3])
def test_simulate_spread_ragged_last_block(n, eta):
    # the block size isqrt(n) divides none of these n, so the last block is short
    for g in (path_graph(n), erdos_renyi(n, 0.2, n)):
        for seed in range(3):
            _assert_matches_reference(g, eta, n, seed)


@pytest.mark.parametrize(
    "g,eta", [(torus_grid((50, 50)), 10.0), (torus_grid((50, 50)), 1.0), (empty_graph(2500), 0.0)]
)
def test_simulate_spread_matches_reference_at_benchmark_scale(g, eta):
    for seed in (1, 2):
        _assert_matches_reference(g, eta, 500, seed)


_DYADIC_ETAS = [0.0, 0.25, 0.5, 1.0, 10.0, 1e6]


@st.composite
def stack_cases(draw):
    """Rows of one lockstep walk: two graphs on the same 1..40 vertices
    (random ones, often with isolated vertices, or the empty, star, cycle,
    path or complete graph), and per row one of them, a dyadic eta and its
    own substream; one k in 1..n for all rows."""
    n = draw(st.integers(1, 40))

    def graph():
        if draw(st.booleans()):
            vertex = st.integers(0, n - 1)
            pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
            return build_graph(n, [(u, v) for u, v in pairs if u != v])
        families = [empty_graph, path_graph, complete_graph]
        families += [star_graph] * (n >= 2) + [cycle_graph] * (n >= 3)
        return draw(st.sampled_from(families))(n)

    graphs = (graph(), graph())
    rows = draw(st.lists(st.tuples(st.sampled_from(graphs), st.sampled_from(_DYADIC_ETAS)), min_size=1, max_size=30))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return rows, k, draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(stack_cases())
@example(([(build_graph(1, []), 0.0)], 1, 0))
@example(([(star_graph(17), 10.0), (empty_graph(17), 0.0)] * 13, 17, 1))
@example(([(build_graph(12, [(0, 1), (2, 3), (5, 11)]), 1e6), (complete_graph(12), 1e6)], 12, 3))
@example(([(torus_grid((5, 5)), eta) for eta in _DYADIC_ETAS] * 5, 25, 4))
def test_stacked_paths_equal_per_row_walks(case):
    rows, k, seed = case
    draws = np.array([substream(seed, i).random(k) for i in range(len(rows))])
    got = spreading._stacked_paths(rows, draws)
    assert got.shape == (len(rows), k)
    for i, ((g, eta), path) in enumerate(zip(rows, got.tolist())):
        want = simulate_spread(g, SpreadParams(eta=eta, k=k), substream(seed, i)).order
        assert tuple(path) == want
        assert want == spread_path_reference(g, eta, k, substream(seed, i))


def test_stacked_pick_at_zero_and_at_exact_block_boundaries():
    # the uniforms of the two block-walk tests above, in one stack: u = 0
    # skips infected vertices, and an exact cumulative sum is not a pick
    rows = [(empty_graph(16), 0.0), (path_graph(16), 1.0), (empty_graph(16), 0.0)]
    draws = np.array([[0.0] * 4, [0.0] * 4, [0.25, 4 / 15, 0.5, 6 / 13]])
    assert spreading._stacked_paths(rows, draws).tolist() == [[0, 1, 2, 3], [0, 1, 2, 3], [4, 5, 9, 8]]


def test_stackable_rows():
    torus = torus_grid((6, 6))
    assert spreading._stackable(torus, 10.0) and spreading._stackable(empty_graph(36), float("inf"))
    # a row whose walk is not exact in blocks, or whose eta SpreadParams refuses
    for eta in (0.3, -1.0, float("nan"), float("inf")):
        assert not spreading._stackable(torus, eta)
    # a hub pads every row of the neighbour table past the block size
    assert spreading._stackable(cycle_graph(36), 1.0) and not spreading._stackable(star_graph(36), 1.0)


def test_spread_paths_equal_one_spread_per_job(monkeypatch):
    k = 5
    torus, cycle = torus_grid((6, 6)), cycle_graph(20)
    # a chunk led by an n=36 job reads 40 jobs, one led by an n=20 job 42
    monkeypatch.setattr(spreading, "_STACK_BYTES", 40 * (2048 + 8 * (36 + 6 + 2 * k)))
    exact = [(torus, 1.0), (torus, 10.0), (empty_graph(36), 0.0)]
    # not stackable on n=36: an eta whose sums are not exact, a hub past
    # the block size, another n
    others = [(torus, 0.3), (star_graph(36), 1.0), (cycle, 1.0)]

    def chunk(lead, rest):
        return [lead] + [rest[i] for i in np.random.default_rng(len(rest)).permutation(len(rest))]

    specs = (
        chunk((torus, 1.0), [exact[i % 3] for i in range(22)] + [others[i % 3] for i in range(17)])  # 23 stack: none walks
        + chunk((torus, 1.0), [exact[i % 3] for i in range(29)] + [others[i % 3] for i in range(10)])  # 30 walk
        + chunk((cycle, 1.0), [(cycle, 0.5)] * 24 + [(torus, 1.0)] * 5)  # the last, short chunk: 25 walk
    )
    ends = [40, 80, 110]
    read = []

    def jobs():
        for i, (g, eta) in enumerate(specs):
            read.append(i)
            yield g, eta, substream(7, i)

    walks, spreads = [], []
    walk, spread = spreading._stacked_paths, spreading.simulate_spread

    def counting_rows(rows, draws):
        walks.append(len(rows))
        return walk(rows, draws)

    def counting(*args):
        spreads.append(args[1].eta)
        return spread(*args)

    monkeypatch.setattr(spreading, "_stacked_paths", counting_rows)
    monkeypatch.setattr(spreading, "simulate_spread", counting)
    got = []
    for i, order in enumerate(spreading._spread_paths(jobs(), k)):
        # at most the chunk that holds job i has been read
        assert len(read) <= next(end for end in ends if end > i)
        got.append(list(order))
    assert walks == [30, 25] and len(spreads) == 110 - 55
    want = [list(simulate_spread(g, SpreadParams(eta=eta, k=k), substream(7, i)).order) for i, (g, eta) in enumerate(specs)]
    assert got == want


@pytest.mark.parametrize("k, message", [(37, "cannot infect k=37 of n=36"), (0, "k must be >= 1, got 0")])
def test_spread_paths_refuse_what_simulate_spread_refuses(k, message):
    # 30 stackable jobs, but no lockstep walk for a k that cannot spread
    jobs = ((torus_grid((6, 6)), 1.0, substream(7, i)) for i in range(30))
    with pytest.raises(ValueError, match=message):
        next(spreading._spread_paths(jobs, k))


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
