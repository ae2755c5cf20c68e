"""Graph construction, edge lists and status files against the per-edge and
per-line loops they replaced (tests/oracles.py): every result, exception
type and message must be the same, the first bad line or edge in order
winning."""

import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netspread import build_graph, from_spec, load_edge_list
from netspread.spreading import InfectionVector, align_to_graph, read_status_file, write_status_file

import oracles

# whitespace that splits lines (\r, \x0b, \x0c, \x1c, \x85, \u2028) and whitespace
# that does not (space, tab, \x1f, \xa0), comment marks and status characters
_ALPHABET = ["a", "b", "c", "0", "1", "*", "2", "#", " ", "\t", "\r", "\n", "\x0b", "\x0c",
             "\x1c", "\x1f", "\x85", "\xa0", "\u2028"]
_SPACE = st.sampled_from([" ", "\t", "\x1f", "\xa0"])
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])


def _outcome(f, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _same_graph(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got == want
        return
    g, ref = got[1], want[1]
    assert (g.n, g.edges, g.labels) == (ref.n, ref.edges, ref.labels)
    assert all(type(x) is int for e in g.edges for x in e)
    for a, b in zip(g.edge_arrays, ref.edge_arrays):
        assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist() and not a.flags.writeable
    if g.n <= 1000:  # both are built per vertex
        assert g.label_index == ref.label_index
        assert g.adjacency == ref.adjacency


_ENDPOINT = st.one_of(
    st.integers(-3, 14),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(-(2**64), -(2**63) + 1),
)


@st.composite
def edge_inputs(draw):
    """n, the edges in one of the forms a caller may pass, and labels."""
    n = draw(st.integers(-1, 12))
    small = st.integers(0, max(n, 1) - 1)
    pairs = draw(st.lists(st.tuples(st.one_of(small, small, _ENDPOINT), st.one_of(small, small, _ENDPOINT)),
                          max_size=12))
    # repeats in both orientations
    pairs += draw(st.lists(st.sampled_from(pairs).map(lambda e: e[::-1]), max_size=3)) if pairs else []
    form = draw(st.sampled_from(["tuples", "lists", "iterator", "numpy ints", "numpy rows", "array",
                                 "uint64 array", "floats"]))
    fits = all(-(2**63) <= x < 2**63 for e in pairs for x in e)
    if form in ("lists", "iterator"):
        edges = [list(e) for e in pairs]
    elif form == "numpy ints" and fits:
        kind = draw(st.sampled_from([np.int64, np.int32, np.uint16]))
        edges = [tuple(kind(x) if np.can_cast(np.min_scalar_type(x), kind) else x for x in e) for e in pairs]
    elif form == "numpy rows" and fits:
        edges = list(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    elif form == "array":
        edges = np.array(pairs, dtype=np.int64 if fits else object).reshape(-1, 2)
    elif form == "uint64 array" and all(0 <= x < 2**64 for e in pairs for x in e):
        edges = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
    elif form == "floats" and fits:
        edges = [(float(u), float(v)) for u, v in pairs]
    else:
        edges = pairs
    labels = draw(st.one_of(
        st.none(),
        st.lists(st.text("xyz", max_size=2), min_size=max(n, 0), max_size=max(n, 0), unique=True),
        st.lists(st.text("xy", max_size=1), max_size=4),  # wrong lengths, repeats
    ))
    return n, edges, labels, form == "iterator"


@settings(max_examples=600)
@given(edge_inputs())
@example((3, [], None, False))
@example((0, [], None, False))
@example((4, [(1, 1)], None, False))
@example((4, [(0, 2**63)], None, False))
@example((4, [(5, 1), (2, 2)], None, True))
@example((4, np.array([[0, 2**63]], dtype=np.uint64), None, False))
@example((4, [(2, 1), (1, 2), (3, 0)], ["p", "q", "r", "s"], True))
@example((4, [(0, 1), (2,)], None, False))
@example((4, [(0, 1, 2)], None, False))
@example((4, np.array([0, 1]), None, False))
@example((2, [(0, 1)], ["p", "p"], False))
@example((10**10, [(10**10 - 1, 10**10 - 2), (5 * 10**9, 10**10 - 1), (3, 4 * 10**9)], None, False))  # n * n past int64
def test_build_graph_equals_the_per_edge_loop(case):
    n, edges, labels, once = case
    edges_of = (lambda: iter(edges)) if once else (lambda: edges)  # an iterator is read once
    got = _outcome(build_graph, n, edges_of(), labels)
    _same_graph(got, _outcome(oracles.build_graph_reference, n, edges_of(), labels))


def test_graph_families_keep_their_edge_arrays():
    for spec in ("torus:4x5", "torus:3x3x3", "cycle:7", "star:5", "complete:5", "empty:3", "er:12:0.3:1"):
        g = from_spec(spec)
        ref = oracles.build_graph_reference(g.n, g.edges)
        _same_graph(("ok", g), ("ok", ref))


_TOKEN = st.sampled_from(["a", "b", "c", "ab", "#c", "a#"])


@st.composite
def edge_list_texts(draw):
    """Mostly well-formed edge lists with random whitespace, breaks, comments,
    blank lines, self-loops and lines of 1 or 3 tokens; or raw text."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(_ALPHABET), max_size=30))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["blank", "comment", "one", "three", "loop"]))
        tokens = {
            "pair": [draw(_TOKEN), draw(_TOKEN)],
            "blank": [],
            "comment": ["#", draw(_TOKEN)],
            "one": [draw(_TOKEN)],
            "three": [draw(_TOKEN), draw(_TOKEN), draw(_TOKEN)],
            "loop": [draw(_TOKEN)] * 2,
        }[kind]
        line = draw(st.text(_SPACE, max_size=2)) + draw(st.text(_SPACE, min_size=1, max_size=2)).join(tokens) + draw(st.text(_SPACE, max_size=1))
        lines.append(line + draw(_BREAK))
    return "".join(lines)


@settings(max_examples=600)
@given(edge_list_texts())
@example("a b\nb c\n# c d\n\nc a\n")
@example("a b\nb b\nc\n")
@example("a\nb b\n")
@example("# only\n \n")
@example("a\x1fb\xa0\n")
@example("a b\x85c c\n")
def test_load_edge_list_equals_the_per_line_loop(text):
    _same_graph(_outcome(load_edge_list, text), _outcome(oracles.load_edge_list_reference, text))


@st.composite
def status_texts(draw):
    """Mostly well-formed status files with random whitespace and breaks, and
    blank lines, comments, three-token lines, bad codes and repeated labels;
    or raw text over the same alphabet."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(_ALPHABET), max_size=30))
    labels = st.sampled_from(["a", "b", "c", "d", "ab", "a#"])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["entry"] * 6 + ["blank", "comment", "three", "bad", "one"]))
        tokens = {
            "entry": [draw(labels), draw(st.sampled_from("01*"))],
            "blank": [],
            "comment": ["#" + draw(labels), "1"],
            "three": [draw(labels), "1", "0"],
            "bad": [draw(labels), draw(st.sampled_from(["2", "01", "**", "x", "#"]))],
            "one": [draw(labels)],
        }[kind]
        line = draw(st.text(_SPACE, max_size=2)) + draw(st.text(_SPACE, min_size=1, max_size=2)).join(tokens) + draw(st.text(_SPACE, max_size=1))
        lines.append(line + draw(_BREAK))
    return "".join(lines)


def _same_status(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got == want
        return
    (labels, codes), (ref_labels, ref_codes) = got[1], want[1]
    assert type(labels) is tuple and labels == ref_labels
    assert codes.dtype == ref_codes.dtype == np.int8 and codes.tolist() == ref_codes.tolist()


@settings(max_examples=800)
@given(status_texts())
@example("a 1\nb 5\n")
@example("a 1\na 0\n")
@example("a 1 extra\nb 7\n")
@example("a 7\na 1\n")
@example("a 1\na 1\nb\n")
@example("# header\n\na 1\nb *\n")
@example("a\u20281\n")
def test_read_status_file_equals_the_per_line_loop(text):
    _same_status(_outcome(read_status_file, text), _outcome(oracles.read_status_file_reference, text))


@st.composite
def aligned_inputs(draw):
    """A labelled or unlabelled graph, and file labels and codes: a shuffle of
    its labels with some missing, repeated or foreign, of any length."""
    g = draw(st.sampled_from([from_spec("cycle:5"), from_spec("empty:3"),
                              load_edge_list("p q\nq r\nr s\n"), load_edge_list("x y\n")]))
    names = [g.label_of(v) for v in range(g.n)]
    labels = draw(st.permutations(names))
    pool = st.sampled_from(names + ["zz", "9"])
    for _ in range(draw(st.integers(0, 2))):
        labels[draw(st.integers(0, len(labels) - 1))] = draw(pool)
    labels = (labels + draw(st.lists(pool, max_size=1)))[: draw(st.integers(g.n - 1, g.n + 1))]
    codes = np.array(draw(st.lists(st.integers(0, 2), min_size=len(labels), max_size=len(labels))), dtype=np.int8)
    if draw(st.integers(0, 5)) == 0:
        codes = codes[: draw(st.integers(0, len(codes)))]
    return g, tuple(labels) if draw(st.booleans()) else labels, codes


@settings(max_examples=600)
@given(aligned_inputs())
@example((from_spec("cycle:3"), ("0", "0", "2"), np.array([1, 2, 1], dtype=np.int8)))
@example((from_spec("cycle:3"), ("2", "x", "y"), np.array([1, 2, 1], dtype=np.int8)))
@example((from_spec("cycle:3"), ("2", "1", "0", "x"), np.array([1, 2, 1, 0], dtype=np.int8)))
@example((from_spec("cycle:3"), ("2", "1", "x"), np.array([1, 2], dtype=np.int8)))
def test_align_to_graph_equals_the_per_label_loop(case):
    g, labels, codes = case
    got = _outcome(align_to_graph, g, labels, codes)
    want = _outcome(oracles.align_to_graph_reference, g, labels, codes)
    assert got[0] == want[0], (got, want)
    assert got == want if got[0] != "ok" else got[1] == want[1]


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=12),
    st.one_of(st.none(), st.lists(st.one_of(st.text("pq ", max_size=2), st.integers(-5, 99)), max_size=13)),
)
@example([0, 1, 2], None)
@example([0, 1, 2], ["a", "b"])
def test_write_status_file_equals_the_per_vertex_loop(status, labels):
    iv = InfectionVector(np.array(status))
    got, want = io.StringIO(), io.StringIO()
    out = _outcome(write_status_file, got, iv, labels)
    assert out == _outcome(oracles.write_status_file_reference, want, iv, labels)
    assert got.getvalue() == want.getvalue()
