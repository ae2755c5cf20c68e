import itertools
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netspread import (
    GuardExceededError,
    PermGroup,
    Permutation,
    apply_to_graph,
    apply_to_infection,
    automorphism_group,
    build_graph,
    check_validity,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    from_spec,
    infection_from_infected,
    orbit,
    path_graph,
    product_group_is_full,
    star_graph,
    two_block,
)
from netspread import perms
from netspread.cli import main as cli_main
from oracles import brute_automorphisms, nx_automorphism_order, nx_orbit


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


# two disjoint K5: the alternative of the benchmark's check-aut command
TWO_K5 = from_spec("two-block:10:1:0:1")
PETERSEN = _petersen()


def test_permutation_validates_bijection():
    Permutation((1, 0, 2))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))


def test_apply_to_infection_moves_statuses():
    iv = infection_from_infected(3, [0])
    pi = Permutation((1, 2, 0))
    moved = apply_to_infection(pi, iv)
    # vertex pi(0)=1 inherits vertex 0's infected mark
    assert moved.infected == (1,)


def test_apply_to_infection_composes_like_action():
    iv = infection_from_infected(5, [0, 3], censored=[1])
    p = Permutation((4, 2, 3, 0, 1))
    q = Permutation((1, 0, 3, 2, 4))
    # (p . q)(v) = p(q(v))
    via_compose = apply_to_infection(Permutation(tuple(p(w) for w in q.image)), iv)
    stepwise = apply_to_infection(p, apply_to_infection(q, iv))
    assert via_compose == stepwise


def test_apply_to_graph_is_isomorphism():
    g = star_graph(5)
    pi = Permutation((2, 0, 1, 4, 3))
    h = apply_to_graph(pi, g)
    assert sorted(h.degrees) == sorted(g.degrees)
    assert h.degree(pi(0)) == 4


@pytest.mark.parametrize(
    "graph,order",
    [
        (empty_graph(5), 120),
        (complete_graph(5), 120),
        (star_graph(5), 24),
        (cycle_graph(4), 8),
        (cycle_graph(7), 14),
        (path_graph(4), 2),
        (path_graph(3), 2),
        (path_graph(2), 2),
        (build_graph(6, [(0, 1), (2, 3), (4, 5)]), 48),
    ],
)
def test_automorphism_group_orders(graph, order):
    assert automorphism_group(graph).order == order


def test_automorphism_group_matches_brute_force():
    cases = [
        path_graph(5),
        cycle_graph(5),
        star_graph(6),
        build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        erdos_renyi(6, 0.5, 2),
        erdos_renyi(6, 0.4, 5),
    ]
    for g in cases:
        group = automorphism_group(g)
        expected = brute_automorphisms(g)
        assert group.order == len(expected)
        # the group holds exactly the brute-force automorphisms of S_n
        for image in itertools.permutations(range(g.n)):
            assert group.contains(Permutation(image)) == (image in expected)


def test_petersen_group_order():
    assert automorphism_group(PETERSEN).order == 120


def test_complete_bipartite_33():
    g = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    # 3! * 3! within sides, times the side swap
    assert automorphism_group(g).order == 72


def test_dihedral_group_is_closed_under_composition():
    g = cycle_graph(6)
    group = automorphism_group(g)
    assert (group.kind, group.order, group.orbit_of(3)) == ("dihedral", 12, set(range(6)))
    expected = brute_automorphisms(g)
    for image in itertools.permutations(range(6)):
        assert group.contains(Permutation(image)) == (image in expected)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(4), cycle_graph(5), cycle_graph(7), two_block(6, 1.0, 0.0, 1), two_block(8, 0.6, 0.3, 2)],
)
def test_intersection_of_one_graphs_groups_is_that_group(monkeypatch, g):
    # two groups of one edge set intersect in the whole group, so their
    # product is that group, not S_n: decided with no search and no count
    def stop(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(perms, "_count", stop)
    monkeypatch.setattr(perms, "_search", stop)
    a, b = automorphism_group(g), automorphism_group(build_graph(g.n, g.edges))
    assert a is not b
    assert product_group_is_full(a, b) is False
    assert product_group_is_full(b, a) is False


def test_two_relabelled_large_cycles_stop_at_the_order_bound(monkeypatch):
    # 2n * 2n < n!, so no common automorphism is counted or walked
    n = 2000
    relabelled = _cycle_through([(7 * i) % n for i in range(n)])

    def stop(*args):
        raise AssertionError("searched")

    for name in ("_keeps_edges", "_count", "_search"):
        monkeypatch.setattr(perms, name, stop)
    assert automorphism_group(relabelled).kind == "dihedral"
    assert check_validity(cycle_graph(n), relabelled) == "invalid"


def test_cycle_against_clique_plus_vertex_counts_the_pair():
    # 20 * 9! / 2 = 10!: the pair passes the order bound and its two
    # common automorphisms are counted
    g1, g0 = cycle_graph(10), _k1_plus_clique(10)
    p1, p0 = automorphism_group(g1), automorphism_group(g0)
    assert (p1.kind, p0.kind) == ("dihedral", "graph")
    assert product_group_is_full(p1, p0) and product_group_is_full(p0, p1)
    assert check_validity(g0, g1) == check_validity(g1, g0) == "valid"


def test_star_group_is_symbolic_stabilizer():
    group = automorphism_group(star_graph(30))
    assert group.order == factorial(29)
    pi = Permutation(tuple([0] + list(range(2, 30)) + [1]))
    assert group.contains(pi)
    swap_hub = Permutation(tuple([1, 0] + list(range(2, 30))))
    assert not group.contains(swap_hub)


def test_guard_on_structureless_large_graph(monkeypatch):
    g = erdos_renyi(11, 0.5, 7)
    with pytest.raises(GuardExceededError):
        automorphism_group(g)
    with pytest.raises(GuardExceededError):
        automorphism_group(two_block(12, 1.0, 0.0, 1))
    # at the guard a structureless graph is counted; structured families
    # pass it at any size
    assert automorphism_group(erdos_renyi(10, 0.5, 7)).order >= 1
    for big in (star_graph(11), cycle_graph(11), empty_graph(11), complete_graph(11)):
        automorphism_group(big)
    monkeypatch.setattr(perms, "_N_MAX", 9)
    with pytest.raises(GuardExceededError, match="guarded at n_max=9, got n=10 "):
        automorphism_group(erdos_renyi(10, 0.5, 7))


def test_orbits():
    assert orbit(automorphism_group(star_graph(5)), 0) == {0}
    assert orbit(automorphism_group(star_graph(5)), 3) == {1, 2, 3, 4}
    assert orbit(automorphism_group(cycle_graph(6)), 2) == set(range(6))
    assert orbit(automorphism_group(path_graph(4)), 0) == {0, 3}
    assert orbit(automorphism_group(path_graph(4)), 1) == {1, 2}


def test_vertex_transitivity():
    def transitive(g):
        return orbit(automorphism_group(g), 0) == set(range(g.n))

    assert transitive(cycle_graph(8))
    assert transitive(complete_graph(4))
    assert transitive(empty_graph(5))
    assert not transitive(path_graph(4))
    assert not transitive(star_graph(5))


def test_product_full_star_vs_cycle():
    # the validity workhorse: stabilizer times dihedral covers everything
    for n in (6, 7):
        p1 = automorphism_group(cycle_graph(n))
        p0 = automorphism_group(star_graph(n))
        assert product_group_is_full(p1, p0)
        assert product_group_is_full(p0, p1)


def test_product_not_full_for_weak_pairs():
    cyc = automorphism_group(cycle_graph(6))
    assert not product_group_is_full(cyc, cyc)
    star_a = automorphism_group(star_graph(6))
    assert not product_group_is_full(star_a, star_a)
    # distinct hubs still fall short: (n-1)! (n-1)! / (n-2)! < n!
    hub1 = PermGroup.vertex_stabilizer(6, 1)
    assert not product_group_is_full(star_a, hub1)


def test_product_with_symmetric_is_always_full():
    sym = automorphism_group(empty_graph(6))
    cyc = automorphism_group(cycle_graph(6))
    assert product_group_is_full(sym, cyc)
    assert product_group_is_full(cyc, sym)


def test_validity_refuses_graphs_of_different_sizes():
    # the empty null used to validate it, the star to fail in the product
    for null in (empty_graph(5), star_graph(5)):
        with pytest.raises(ValueError, match="graphs differ in size: n=5 and n=6"):
            check_validity(null, cycle_graph(6))


def test_product_size_mismatch():
    with pytest.raises(ValueError):
        product_group_is_full(
            automorphism_group(cycle_graph(5)), automorphism_group(cycle_graph(6))
        )


def test_product_full_brute_force_cross_check():
    # materialize the actual product set on a small pair
    p1 = automorphism_group(cycle_graph(5))
    p0 = automorphism_group(star_graph(5))
    product = {
        tuple(a[w] for w in b)
        for a in brute_automorphisms(cycle_graph(5))
        for b in brute_automorphisms(star_graph(5))
    }
    assert (len(product) == factorial(5)) == product_group_is_full(p1, p0)


# -- counted groups against independent oracles ----------------------------------


@st.composite
def graphs_on(draw, n):
    """Random, regular (circulant) or many-copies graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["random", "circulant", "copies"]))
    if kind == "random":
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    elif kind == "circulant":
        # vertex i joined to i + j for every drawn jump j: a regular graph
        jumps = draw(st.sets(st.integers(1, max(1, n // 2))))
        edges = {(i, (i + j) % n) for i in range(n) for j in jumps if (i + j) % n != i}
    else:
        # disjoint copies of one piece; the vertices left over are isolated
        size = draw(st.integers(1, n))
        copies = draw(st.integers(1, n // size))
        piece_pairs = list(itertools.combinations(range(size), 2))
        piece = draw(st.sets(st.sampled_from(piece_pairs))) if piece_pairs else set()
        edges = {(u + c * size, v + c * size) for c in range(copies) for u, v in piece}
    return build_graph(n, edges)


@settings(max_examples=100)
@given(st.integers(1, 10).flatmap(graphs_on))
@example(TWO_K5)
@example(PETERSEN)
@example(build_graph(10, [(0, 1), (2, 3), (4, 5)]))
def test_automorphism_group_matches_networkx_oracle(g):
    group = automorphism_group(g)
    assert group.order == nx_automorphism_order(g)
    expected: dict[int, set[int]] = {}
    for v in range(g.n):
        if v not in expected:
            orb = nx_orbit(g, v)
            expected.update(dict.fromkeys(orb, orb))
    for v in range(g.n):
        assert group.orbit_of(v) == expected[v]


def _brute_product_is_full(g1, g0) -> bool:
    """Whether {a . b} over brute-force automorphisms a of g1, b of g0 is S_n."""
    a1, a0 = brute_automorphisms(g1), brute_automorphisms(g0)
    product = {tuple(a[x] for x in b) for a in a1 for b in a0}
    return len(product) == factorial(g1.n)


def _k1_plus_clique(n):
    return build_graph(n, itertools.combinations(range(1, n), 2))


def _k33():
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _cycle_through(order):
    """The cycle visiting the vertices in this order."""
    return build_graph(len(order), [(order[i - 1], order[i]) for i in range(len(order))])


RELABELED_C7 = _cycle_through([0, 2, 4, 6, 1, 3, 5])
TWO_TRIANGLES = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@settings(max_examples=100)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(graphs_on(n), graphs_on(n))))
# stabilizer x counted, with the hub at 0 and elsewhere
@example((star_graph(7), path_graph(7)))
@example((build_graph(6, [(5, v) for v in range(5)]), _k33()))
@example((_k1_plus_clique(6), star_graph(6)))
# dihedral x counted
@example((cycle_graph(7), erdos_renyi(7, 0.5, 3)))
@example((cycle_graph(6), _k1_plus_clique(6)))
# counted x counted, valid and not
@example((_k1_plus_clique(6), _k33()))
@example((path_graph(7), erdos_renyi(7, 0.4, 5)))
# settled by the orbit rule or by walking dihedral images
@example((RELABELED_C7, star_graph(7)))
@example((RELABELED_C7, cycle_graph(7)))
@example((build_graph(6, [(5, v) for v in range(5)]), star_graph(6)))
@example((TWO_TRIANGLES, star_graph(6)))
@example((build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]), star_graph(7)))
def test_product_and_validity_match_brute_force(pair):
    g1, g0 = pair
    assume(len(brute_automorphisms(g1)) * len(brute_automorphisms(g0)) <= 50_000)
    full = _brute_product_is_full(g1, g0)
    p1, p0 = automorphism_group(g1), automorphism_group(g0)
    assert product_group_is_full(p1, p0) == full
    assert product_group_is_full(p0, p1) == full
    assert check_validity(g0, g1) == ("valid" if full else "invalid")


def test_counted_validity_builds_no_permutation(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(Permutation, "__post_init__", lambda self: built.append(self))
    assert check_validity(star_graph(10), TWO_K5) == "valid"
    assert cli_main(["check-aut", "star:10", "two-block:10:1:0:1"]) == 0
    assert capsys.readouterr().out == "valid (Aut(alt)*Aut(null) = S_10)\n"
    # a star null settles a cycle by one orbit at any size
    assert cli_main(["check-aut", "star:2500", "cycle:2500"]) == 0
    assert capsys.readouterr().out == "valid (Aut(alt)*Aut(null) = S_2500)\n"
    assert built == []
    # the stub is live
    Permutation((1, 0, 2))
    assert len(built) == 1


def test_graph_group_order_is_counted_only_when_read(monkeypatch):
    # an orbit, the stabilizer rule of a star null and a full-symmetry check
    # never count a graph group's order; the first read of order counts it once
    counts = []
    real = perms._count
    monkeypatch.setattr(perms, "_count", lambda *a: counts.append(1) or real(*a))
    tb, pg = two_block(10, 1.0, 0.0, 1), path_graph(10)
    assert orbit(automorphism_group(pg), 0) == {0, 9}
    assert orbit(automorphism_group(tb), 0) == set(range(10))
    assert check_validity(star_graph(10), tb) == "valid"
    assert check_validity(star_graph(10), pg) == "invalid"
    assert counts == []
    group = automorphism_group(tb)
    assert (group.order, group.order, counts) == (2 * factorial(5) ** 2, 2 * factorial(5) ** 2, [1])


@pytest.mark.parametrize(
    "group, full",
    [
        (PermGroup(n=4, kind="graph", graph=empty_graph(4)), True),
        (PermGroup(n=4, kind="graph", graph=complete_graph(4)), True),
        (PermGroup(n=4, kind="graph", graph=path_graph(4)), False),
        (PermGroup(n=3, kind="dihedral", graph=cycle_graph(3)), True),
        (PermGroup(n=5, kind="dihedral", graph=cycle_graph(5)), False),
        (PermGroup.vertex_stabilizer(1, 0), True),
        (PermGroup.vertex_stabilizer(2, 0), False),
        (PermGroup.symmetric(6), True),
    ],
)
def test_full_symmetry_is_read_off_the_kind_and_graph(group, full):
    # the same verdict as comparing the counted order with n!
    assert group.is_full_symmetric is full
    assert (group.order == factorial(group.n)) is full


@pytest.mark.parametrize("kind, fixed", [("symmetric", None), ("stabilizer", 0)])
def test_closed_form_groups_take_no_graph(kind, fixed):
    # a graph there would be ignored by order yet read by is_full_symmetric and equality
    with pytest.raises(ValueError, match=f"{kind} group takes no graph"):
        PermGroup(n=4, kind=kind, fixed_vertex=fixed, graph=empty_graph(4))
