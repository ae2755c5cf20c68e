import json
import sys
from math import factorial, log
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netspread import (
    cascade_count_cycle,
    cycle_graph,
    eccentricity,
    h_eta,
    min_cascade_count,
    path_graph,
    read_status_file,
    star_null_risk_bound,
    tb_threshold,
    tt_threshold,
)
from netspread import RiskInputs
from netspread import cli
from netspread.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- simulate --------------------------------------------------------------------


def test_simulate_writes_deterministic_status_file(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["simulate", "--graph", "cycle:10", "--eta", "2.0", "--k", "4", "--seed", "7"]
    code, stdout, _ = run(capsys, *args, "--out", str(out1))
    assert code == 0
    assert f"wrote {out1}" in stdout
    run(capsys, *args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    labels, codes = read_status_file(out1.read_text())
    assert labels == tuple(str(v) for v in range(10))
    assert int((codes == 1).sum()) == 4


def test_simulate_with_uniform_censoring(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, _, _ = run(
        capsys,
        "simulate", "--graph", "star:8", "--eta", "1.0", "--k", "3",
        "--c", "2", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    _, codes = read_status_file(out.read_text())
    assert int((codes == 2).sum()) == 2


def test_simulate_with_censor_file(tmp_path, capsys):
    cf = tmp_path / "cens.txt"
    cf.write_text("# censor these\n3\n5\n")
    out = tmp_path / "snap.txt"
    code, _, _ = run(
        capsys,
        "simulate", "--graph", "path:9", "--eta", "0.5", "--k", "2",
        "--censor-file", str(cf), "--seed", "3", "--out", str(out),
    )
    assert code == 0
    labels, codes = read_status_file(out.read_text())
    assert codes[3] == 2 and codes[5] == 2


def test_simulate_unknown_censor_label_is_data_error(tmp_path, capsys):
    cf = tmp_path / "cens.txt"
    cf.write_text("3\nnope\n")
    code, stdout, err = run(
        capsys,
        "simulate", "--graph", "path:9", "--eta", "0.5", "--k", "2",
        "--censor-file", str(cf), "--out", str(tmp_path / "snap.txt"),
    )
    assert code == 3
    assert stdout == ""
    assert f"{cf}: unknown vertex label 'nope'" in err
    assert not (tmp_path / "snap.txt").exists()


def test_simulate_k_too_large_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "simulate", "--graph", "cycle:5", "--eta", "1.0", "--k", "9",
        "--out", str(tmp_path / "x.txt"),
    )
    assert code == 2
    assert "invalid parameters" in err


@pytest.mark.parametrize("eta", ["nan", "inf", "1e308"])
def test_simulate_non_finite_or_overflowing_eta_is_usage_error(tmp_path, capsys, eta):
    out = tmp_path / "x.txt"
    argv = ["simulate", "--eta", eta, "--k", "5", "--out", str(out)]
    code, stdout, err = run(capsys, *argv, "--graph", "cycle:10")
    assert (code, stdout) == (2, "")
    assert err.startswith("invalid parameters: eta")
    assert list(tmp_path.iterdir()) == []
    # a graph without edges spreads uniformly at any eta, NaN aside
    code, _, _ = run(capsys, *argv, "--graph", "empty:10")
    assert (code, out.exists()) == ((2, False) if eta == "nan" else (0, True))


def test_simulate_bad_graph_spec_is_parse_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "simulate", "--graph", "dodecahedron:5", "--eta", "1.0", "--k", "2",
        "--out", str(tmp_path / "x.txt"),
    )
    assert code == 3


# -- test ------------------------------------------------------------------------


def simulate_snapshot(tmp_path, capsys, graph="cycle:12", eta="8.0", k="4", seed="5", c=None):
    out = tmp_path / "infection.txt"
    argv = ["simulate", "--graph", graph, "--eta", eta, "--k", k, "--seed", seed]
    if c is not None:
        argv += ["--c", c]
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    return str(out)


def test_test_json_output(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys)
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "star:12", "--alt-graph", "cycle:12",
        "--statistic", "W", "--infection", snap,
        "--alpha", "0.1", "--B", "200", "--seed", "2", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["statistic"] == "W"
    assert payload["B"] == 200
    assert payload["reject_direction"] == "above"
    assert payload["validity"] == "valid"
    assert isinstance(payload["reject"], bool)
    assert payload["reject"] == (payload["observed"] > payload["threshold"])


def test_test_text_output_lower_tail(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys)
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "star:12", "--alt-graph", "cycle:12",
        "--statistic", "R", "--infection", snap,
        "--alpha", "0.1", "--B", "100", "--seed", "2",
    )
    assert code == 0
    assert "statistic:  R" in stdout
    assert "(reject below)" in stdout
    assert "validity:   valid" in stdout


def test_test_json_lower_tail_raw_scale(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys)
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "star:12", "--alt-graph", "cycle:12",
        "--statistic", "R", "--infection", snap,
        "--alpha", "0.1", "--B", "100", "--seed", "2", "--json",
    )
    payload = json.loads(stdout)
    assert payload["reject_direction"] == "below"
    # raw radius values are nonnegative
    assert payload["observed"] >= 0
    if not payload["saturated"]:
        assert payload["reject"] == (payload["observed"] < payload["threshold"])


def test_test_negative_seed_is_a_labeled_usage_error(tmp_path, capsys):
    # a labeled message, not numpy's "expected non-negative integer"
    snap = simulate_snapshot(tmp_path, capsys, graph="cycle:8", eta="1.0", k="3")
    code, stdout, err = run(
        capsys,
        "test", "--null-graph", "empty:8", "--alt-graph", "cycle:8",
        "--statistic", "W", "--infection", snap, "--B", "50", "--seed", "-1",
    )
    assert (code, stdout, err) == (2, "", "invalid parameters: seed must be a non-negative integer, got -1\n")


def test_test_orbit_and_center_statistics(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys, graph="star:8", eta="2.0", k="3")
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "empty:8", "--alt-graph", "star:8",
        "--statistic", "C", "--center", "0", "--infection", snap,
        "--alpha", "0.2", "--B", "50", "--json",
    )
    assert code == 0
    assert json.loads(stdout)["statistic"] == "C"
    assert json.loads(stdout)["validity"] == "valid"
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "empty:8", "--alt-graph", "star:8",
        "--statistic", "orbit", "--orbit-vertex", "3", "--infection", snap,
        "--alpha", "0.2", "--B", "50", "--json",
    )
    assert code == 0
    assert json.loads(stdout)["statistic"] == "orbit"
    assert json.loads(stdout)["validity"] == "valid"


def test_test_text_radius_on_disconnected_graph_prints_inf(tmp_path, capsys):
    # two triangles; an infected vertex in each puts no center within reach
    graph = tmp_path / "two.txt"
    graph.write_text("a b\nb c\nc a\nx y\ny z\nz x\n")
    snap = tmp_path / "snap.txt"
    snap.write_text("a 1\nb 0\nc 0\nx 1\ny 0\nz 0\n")
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "empty:6", "--alt-graph", f"file:{graph}",
        "--statistic", "R", "--infection", str(snap), "--B", "20",
    )
    assert code == 0
    assert "observed:   inf\n" in stdout


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_test_json_radius_on_disconnected_graph_is_strict(tmp_path, capsys):
    graph = tmp_path / "two.txt"
    graph.write_text("a b\nb c\nc a\nx y\ny z\nz x\n")
    snap = tmp_path / "snap.txt"
    snap.write_text("a 1\nb 0\nc 0\nx 1\ny 0\nz 0\n")
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "empty:6", "--alt-graph", f"file:{graph}",
        "--statistic", "R", "--infection", str(snap), "--B", "20", "--json",
    )
    assert code == 0
    doc = _strict_json(stdout)
    assert doc["observed"] == "inf"
    assert doc["reject_direction"] == "below"


def test_baseline_json_on_disconnected_graph_is_strict(tmp_path, capsys):
    graph = tmp_path / "two.txt"
    graph.write_text("a b\nb c\nc a\nx y\ny z\nz x\n")
    cfg = write_config(tmp_path, "b.json", {"schema": 1, "graph": f"file:{graph}", "k": 2})
    code, stdout, _ = run(capsys, "baseline", "--config", cfg, "--json")
    assert code == 0
    assert _strict_json(stdout)["radius_ceiling"] == "inf"


def test_dumps_encodes_non_finite_values_as_strings():
    from netspread.cli import _dumps

    doc = _strict_json(_dumps({"a": [float("inf"), -float("inf")], "b": (float("nan"), 1.5)}))
    assert doc == {"a": ["inf", "-inf"], "b": ["nan", 1.5]}


def test_test_debug_dump_full_mode(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys, k="3")
    dump = tmp_path / "draws.txt"
    code, _, _ = run(
        capsys,
        "test", "--null-graph", "star:12", "--alt-graph", "cycle:12",
        "--statistic", "W", "--infection", snap,
        "--alpha", "0.1", "--B", "25", "--debug-dump", str(dump),
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 25
    for line in lines:
        assert len(line) == 12
        assert line.count("1") == 3
        assert set(line) <= {"0", "1", "*"}


def test_test_debug_dump_censor_fixed_keeps_marks(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys, graph="cycle:10", k="3", c="2")
    _, codes = read_status_file(Path(snap).read_text())
    censored_at = [i for i, s in enumerate(codes) if s == 2]
    dump = tmp_path / "draws.txt"
    code, _, _ = run(
        capsys,
        "test", "--null-graph", "star:10", "--alt-graph", "cycle:10",
        "--statistic", "W", "--infection", snap, "--mode", "censor-fixed",
        "--alpha", "0.1", "--B", "30", "--debug-dump", str(dump),
    )
    assert code == 0
    for line in dump.read_text().splitlines():
        for v in censored_at:
            assert line[v] == "*"


@pytest.mark.parametrize("statistic, flag", [("C", "--center"), ("orbit", "--orbit-vertex")])
def test_test_unknown_vertex_label_is_usage_error(tmp_path, capsys, statistic, flag):
    snap = simulate_snapshot(tmp_path, capsys, graph="cycle:10", k="3")
    code, stdout, err = run(
        capsys,
        "test", "--null-graph", "empty:10", "--alt-graph", "cycle:10",
        "--statistic", statistic, flag, "nope", "--infection", snap, "--B", "20",
    )
    assert code == 2
    assert stdout == ""
    assert f"{flag}: unknown vertex label 'nope'" in err


def test_test_missing_infection_file(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "test", "--null-graph", "star:6", "--alt-graph", "cycle:6",
        "--statistic", "W", "--infection", str(tmp_path / "nope.txt"),
    )
    assert code == 3


def test_test_invalid_pair_warns(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys, graph="cycle:10", k="3")
    code, stdout, _ = run(
        capsys,
        "test", "--null-graph", "cycle:10", "--alt-graph", "cycle:10",
        "--statistic", "W", "--infection", snap, "--B", "30", "--json",
    )
    assert code == 0
    assert "invalid" in json.loads(stdout)["validity"]


@pytest.mark.parametrize("statistic", ["W", "C", "orbit"])
@pytest.mark.parametrize("null", ["empty:10", "cycle:10"])
def test_test_null_graph_of_another_size_is_refused(tmp_path, capsys, statistic, null):
    # the snapshot has the alternative's 12 vertices; C and orbit carry no graph
    snap = simulate_snapshot(tmp_path, capsys, k="3")
    code, stdout, err = run(
        capsys,
        "test", "--null-graph", null, "--alt-graph", "cycle:12",
        "--statistic", statistic, "--infection", snap, "--B", "100",
    )
    assert (code, stdout) == (2, "")
    assert "invalid parameters: null and alternative graphs differ in size: n=10 and n=12" in err


# -- check-aut --------------------------------------------------------------------


def test_check_aut_valid(capsys):
    code, stdout, _ = run(capsys, "check-aut", "star:6", "cycle:6")
    assert code == 0
    assert "valid (Aut(alt)*Aut(null) = S_6)" in stdout


def test_check_aut_invalid(capsys):
    code, stdout, _ = run(capsys, "check-aut", "cycle:6", "cycle:6")
    assert code == 0
    assert stdout.startswith("invalid")


def test_check_aut_unverifiable(capsys):
    code, stdout, _ = run(capsys, "check-aut", "er:24:0.4:1", "er:24:0.4:2")
    assert code == 0
    assert stdout.startswith("unverifiable")


_VALID_10 = "valid (Aut(alt)*Aut(null) = S_10)\n"
_INVALID_6 = "invalid (automorphism products cover only part of the 720 relabelings)\n"
_VALID_12 = "valid (Aut(alt)*Aut(null) = S_12)\n"


_CHECK_AUT_CASES = [
    ("star:10", "two-block:10:1:0:1", _VALID_10),
    ("two-block:10:1:0:1", "star:10", _VALID_10),
    ("star:6", "path:6", _INVALID_6),
    ("path:6", "star:6", _INVALID_6),
    # a structureless side past the guard is settled by a symmetric other side
    ("er:12:0.5:7", "empty:12", _VALID_12),
    ("empty:12", "er:12:0.5:7", _VALID_12),
    (
        "er:24:0.4:1",
        "er:24:0.4:2",
        "unverifiable: automorphism search guarded at n_max=10, got n=24 "
        "with no recognized structure\n",
    ),
]


@pytest.mark.parametrize(
    "null,alt,expected", _CHECK_AUT_CASES, ids=[f"{c[0]}-{c[1]}" for c in _CHECK_AUT_CASES]
)
def test_check_aut_stdout(capsys, null, alt, expected):
    code, stdout, _ = run(capsys, "check-aut", null, alt)
    assert code == 0
    assert stdout == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_check_aut_names_a_count_past_the_digit_limit(capsys):
    # 1558! has 4,300 digits, the most the interpreter converts by default;
    # 1559! and the cycle pair's 2500! are named, not printed
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for spec, count in (("star:1558", factorial(1558)), ("star:1559", "1559!"), ("cycle:2500", "2500!")):
            code, stdout, _ = run(capsys, "check-aut", spec, spec)
            assert code == 0
            assert stdout == f"invalid (automorphism products cover only part of the {count} relabelings)\n"
    finally:
        sys.set_int_max_str_digits(old)


def test_check_aut_size_mismatch(capsys):
    code, stdout, err = run(capsys, "check-aut", "cycle:5", "cycle:6")
    assert (code, stdout) == (2, "")
    assert "invalid parameters: null and alternative graphs differ in size: n=5 and n=6" in err
    code, _, err = run(capsys, "check-aut", "empty:10", "torus:6x6")
    assert code == 2 and "null and alternative graphs differ in size: n=10 and n=36" in err


# -- baseline ---------------------------------------------------------------------


def test_baseline_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "b.json", {"schema": 1, "graph": "cycle:1000", "k": 50, "c": 100, "d": 2}
    )
    code, stdout, _ = run(capsys, "baseline", "--config", cfg, "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["tb_threshold"] == tb_threshold(2, 1000, 50, 100)
    assert payload["tt_threshold"] == tt_threshold(1000, 50, 100)
    assert payload["radius_ceiling"] == eccentricity(cycle_graph(1000), 0)
    assert payload["tb_diagnosis"] in ("always rejects", "never rejects", "data-dependent")


def test_baseline_json_stdout(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "b.json", {"schema": 1, "graph": "torus:20x20", "k": 5, "c": 10, "d": 1}
    )
    expected = (
        '{\n  "c": 10,\n  "d": 1,\n  "k": 5,\n  "n": 400,\n  "radius_ceiling": 20,\n'
        '  "tb_diagnosis": "data-dependent",\n  "tb_threshold": 10.099330610345557,\n'
        '  "tree_ceiling": 399,\n  "tt_diagnosis": "data-dependent",\n'
        '  "tt_threshold": 29.428554841405887\n}\n'
    )
    assert run(capsys, "baseline", "--config", cfg, "--json") == (0, expected, "")


def test_baseline_text_flags_always_rejecting_rule(tmp_path, capsys):
    # on a small cycle the radius rule's threshold clears the whole range
    cfg = write_config(tmp_path, "b.json", {"schema": 1, "graph": "cycle:10", "k": 5})
    code, stdout, _ = run(capsys, "baseline", "--config", cfg)
    assert code == 0
    assert "always rejects" in stdout
    assert "never rejects" in stdout  # the tree rule's threshold is below k-1


def test_baseline_refuses_k_past_n(tmp_path, capsys):
    # the experiment's TB and TT rows refuse this k with the same message
    cfg = write_config(tmp_path, "b.json", {"schema": 1, "graph": "path:3", "k": 5})
    code, stdout, err = run(capsys, "baseline", "--config", cfg)
    assert (code, stdout) == (2, "")
    assert "invalid parameters: cannot infect k=5 of n=3 vertices" in err


def test_baseline_schema_violations(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {"schema": 2, "graph": "cycle:10", "k": 5})
    code, _, err = run(capsys, "baseline", "--config", cfg)
    assert code == 2
    cfg = write_config(tmp_path, "b2.json", {"schema": 1, "graph": "cycle:10"})
    code, _, err = run(capsys, "baseline", "--config", cfg)
    assert code == 2 and "k: missing" in err
    cfg = write_config(tmp_path, "b3.json", {"schema": 1, "graph": "cycle:10", "k": "5"})
    code, _, err = run(capsys, "baseline", "--config", cfg)
    assert code == 2 and "expected int" in err


def test_baseline_missing_config_file(tmp_path, capsys):
    code, _, _ = run(capsys, "baseline", "--config", str(tmp_path / "nope.json"))
    assert code == 3


def test_baseline_invalid_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, _ = run(capsys, "baseline", "--config", str(p))
    assert code == 3


# -- risk -------------------------------------------------------------------------


def test_risk_bounds_config(tmp_path, capsys):
    doc = {
        "schema": 1,
        "kind": "bounds",
        "entries": [
            {"type": "h-eta", "n": 100, "k": 3, "eta": 2.0, "nt_min": 2.0},
            {"type": "cascade-cycle", "k": 5},
            {"type": "cascade-min", "graph": "cycle:8", "k": 4},
            {"type": "star-null", "n": 10000, "k": 20, "eta": 1e6, "alpha": 0.05},
            {"type": "center", "n": 50, "k": 5, "eta": 2.0},
            {"type": "multi-spread", "n": 100, "k": 30, "eta": 2.0, "m": 50},
            {"type": "line-cycle", "n": 10000, "k": 20, "eta": 1e6},
        ],
    }
    cfg = write_config(tmp_path, "r.json", doc)
    code, stdout, _ = run(capsys, "risk", "--config", cfg)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["kind"] == "bounds"
    results = payload["results"]
    assert results[0]["value"] == h_eta(100, 3, 2.0, 2.0)
    assert results[1]["value"] == cascade_count_cycle(5)
    assert results[2]["value"] == min_cascade_count(cycle_graph(8), 4)
    want = star_null_risk_bound(
        RiskInputs(n=10000, k=20, eta=1e6, alpha=0.05), c_k=cascade_count_cycle(20)
    )
    assert results[3]["value"] == want.value
    assert results[3]["vacuous"] == want.vacuous
    assert results[4]["lower"] <= results[4]["upper"]
    assert "avg_edges" in results[5] and "avg_center" in results[5]
    assert results[6]["type"] == "line-cycle"


def test_risk_bounds_c_k_from_graph_for_star_null_and_multi_spread(tmp_path, capsys):
    # c_k is taken from "c_k", else from "graph" by min_cascade_count, else
    # from the cycle closed form, for both bound types that use it
    shared = {"n": 100, "k": 3, "eta": 1e6}
    entries = []
    for etype in ("star-null", "multi-spread"):
        entries += [
            dict(shared, type=etype, graph="path:8"),
            dict(shared, type=etype, c_k=5),
            dict(shared, type=etype),
        ]
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": entries})
    code, stdout, _ = run(capsys, "risk", "--config", cfg)
    assert code == 0
    c_k = [r["c_k"] for r in json.loads(stdout)["results"]]
    assert min_cascade_count(path_graph(8), 3) == 4
    assert c_k == [4.0, 5.0, 8.0] * 2


def test_risk_bounds_to_file(tmp_path, capsys):
    doc = {"schema": 1, "kind": "bounds", "entries": [{"type": "cascade-cycle", "k": 4}]}
    cfg = write_config(tmp_path, "r.json", doc)
    out = tmp_path / "bounds.json"
    code, stdout, _ = run(capsys, "risk", "--config", cfg, "--out", str(out))
    assert code == 0
    assert f"wrote {out}" in stdout
    assert json.loads(out.read_text())["results"][0]["value"] == 24


def test_risk_mc_config(tmp_path, capsys):
    doc = {
        "schema": 1,
        "kind": "mc",
        "alt_graph": "cycle:12",
        "null_graph": "star:12",
        "etas": [0, 3],
        "k": 3,
        "alpha": 0.2,
        "B": 40,
        "replicates": 6,
        "seed": 4,
    }
    cfg = write_config(tmp_path, "m.json", doc)
    code, stdout, _ = run(capsys, "risk", "--config", cfg)
    assert code == 0
    payload = json.loads(stdout)
    results = payload["results"]
    assert results["statistic"] == "W"
    assert results["replicates"] == 6
    assert set(results["type_ii"]) == {"0", "3"}
    assert 0.0 <= results["type_i"] <= 1.0


def _mc_json(statistic, mean_threshold, type_i, type_ii):
    return (
        '{\n  "kind": "mc",\n  "results": {\n'
        f'    "mean_threshold": {mean_threshold},\n    "replicates": 12,\n'
        f'    "statistic": "{statistic}",\n    "type_i": {type_i},\n    "type_ii": {{\n'
        f'      "1": {type_ii[0]},\n      "1000": {type_ii[1]}\n'
        '    }\n  },\n  "schema": 1\n}\n'
    )


@pytest.mark.parametrize(
    "statistic, expected",
    [
        ("W", _mc_json("W", "3.25", "0.08333333333333333", ("1.0", "0.25"))),
        ("R", _mc_json("R", "2.0833333333333335", "0.0", ("1.0", "1.0"))),
        ("T", _mc_json("T", "6.5", "0.08333333333333333", ("1.0", "0.0"))),
    ],
)
def test_risk_mc_censor_fixed_stdout(tmp_path, capsys, statistic, expected):
    doc = {
        "schema": 1, "kind": "mc", "alt_graph": "torus:6x6", "null_graph": "empty:36",
        "etas": [1.0, 1000.0], "k": 6, "c": 4, "mode": "censor-fixed", "alpha": 0.2,
        "B": 40, "replicates": 12, "seed": 5, "statistic": statistic,
    }
    cfg = write_config(tmp_path, "m.json", doc)
    assert run(capsys, "risk", "--config", cfg) == (0, expected, "")


def test_risk_mc_type_ii_is_the_correctly_rounded_miss_rate(tmp_path, capsys):
    # 2 misses in 3 replicates at eta 2: (3 - 1) / 3, not 1 - 1 / 3 = 0.6666666666666667
    doc = {
        "schema": 1, "kind": "mc", "alt_graph": "torus:6x6", "null_graph": "empty:36",
        "etas": [0.5, 1, 2], "k": 6, "alpha": 0.2, "B": 40, "replicates": 3, "seed": 1,
    }
    cfg = write_config(tmp_path, "m.json", doc)
    code, stdout, _ = run(capsys, "risk", "--config", cfg)
    assert code == 0
    assert json.loads(stdout)["results"]["type_ii"] == {"0.5": 1.0, "1": 1.0, "2": 2 / 3}
    assert '"2": 0.6666666666666666\n' in stdout


def test_risk_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "mystery"})
    code, _, err = run(capsys, "risk", "--config", cfg)
    assert code == 2


def test_risk_guard_exceeded_exit_code(tmp_path, capsys):
    doc = {
        "schema": 1,
        "kind": "bounds",
        "entries": [{"type": "cascade-min", "graph": "cycle:12", "k": 3}],
    }
    cfg = write_config(tmp_path, "r.json", doc)
    code, _, err = run(capsys, "risk", "--config", cfg)
    assert code == 4
    assert "guard exceeded" in err


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
@pytest.mark.parametrize("etype", ["star-null", "center", "multi-spread", "line-cycle", "h-eta"])
def test_risk_bounds_refuse_a_non_finite_eta(tmp_path, capsys, etype, eta):
    # json.loads reads the NaN and Infinity that json.dumps writes
    entry = {"type": etype, "n": 30, "k": 5, "eta": eta}
    if etype not in ("center", "line-cycle"):  # the types whose formula reads nt_min
        entry["nt_min"] = 2.0
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": [entry]})
    code, stdout, err = run(capsys, "risk", "--config", cfg)
    assert (code, stdout, err) == (2, "", f"invalid parameters: eta must be finite, got {eta}\n")


# at n=10, eta=9, an nt_min of -1 zeroes h_eta's first denominator
_BOUND_ENTRIES = [
    {"type": "h-eta", "n": 10, "k": 3, "eta": 9, "nt_min": 2},
    {"type": "cascade-cycle", "k": 4},
    {"type": "star-null", "n": 10, "k": 3, "eta": 9, "alpha": 0.05, "D": 2, "c_k": 8, "nt_min": 2},
    {"type": "center", "n": 10, "k": 3, "eta": 9},
    {"type": "multi-spread", "n": 10, "k": 3, "eta": 9, "alpha": 0.05, "D": 2, "m": 3, "c_k": 8, "nt_min": 2},
    {"type": "line-cycle", "n": 10, "k": 3, "c": 2, "eta": 9, "alpha": 0.05},
]


def test_risk_bounds_never_raise_on_bad_numbers(tmp_path, capsys):
    # every numeric field of every bound type, in turn, at each value: a
    # documented exit code, and no nan or inf in a result it accepts
    cfg = tmp_path / "r.json"
    wrong = []
    for base in _BOUND_ENTRIES:
        cfg.write_text(json.dumps({"schema": 1, "kind": "bounds", "entries": [base]}))
        assert run(capsys, "risk", "--config", str(cfg))[0] == 0, base
        for key in [k for k in base if k != "type"]:
            for value in (float("nan"), float("inf"), -float("inf"), -1, 0):
                entry = dict(base, **{key: value})
                cfg.write_text(json.dumps({"schema": 1, "kind": "bounds", "entries": [entry]}))
                try:
                    code, stdout, _ = run(capsys, "risk", "--config", str(cfg))
                except Exception as exc:  # any traceback is the failure looked for
                    wrong.append((base["type"], key, value, repr(exc)))
                    continue
                if code not in (0, 2, 3, 4) or code == 0 and ("nan" in stdout or "inf" in stdout):
                    wrong.append((base["type"], key, value, code, stdout))
    assert wrong == []


# the fields each bound type needs, and those it reads when given
_BOUND_NEEDS = {
    "h-eta": ("n", "k", "eta", "nt_min"),
    "cascade-cycle": ("k",),
    "cascade-min": ("graph", "k"),
    "star-null": ("n", "k", "eta"),
    "center": ("n", "k", "eta"),
    "multi-spread": ("n", "k", "eta"),
    "line-cycle": ("n", "k", "eta"),
}
_BOUND_OPTIONS = {
    "star-null": ("alpha", "D", "c_k", "graph", "nt_min"),
    "multi-spread": ("alpha", "D", "m", "c_k", "graph", "nt_min"),
    "line-cycle": ("c", "alpha"),
}


@st.composite
def bound_entries(draw):
    """A bound entry of any type on n = 1..5,000 and k = 0..n+1, with each
    optional field its type reads given or left out."""
    etype = draw(st.sampled_from(sorted(_BOUND_NEEDS)))
    n = draw(st.integers(1, 5000))
    fields = {
        "n": n,
        "k": draw(st.integers(0, n + 1)),
        "eta": draw(st.sampled_from([0, 0.5, 1, 10, 1e6, 1e300])),
        "nt_min": draw(st.sampled_from([0, 0.5, 2, 1e6])),
        "alpha": draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        "D": draw(st.integers(1, 8)),
        "m": draw(st.integers(1, 50)),
        "c": draw(st.integers(0, n)),
        "c_k": draw(st.floats(0, 1e300)),
        "graph": draw(st.sampled_from(["cycle:6", "path:5", "star:7", "empty:4", "cycle:12"])),
    }
    keys = _BOUND_NEEDS[etype] + tuple(key for key in _BOUND_OPTIONS.get(etype, ()) if draw(st.booleans()))
    return {"type": etype, **{key: fields[key] for key in keys}}


@settings(max_examples=150)
@given(bound_entries())
@example({"type": "line-cycle", "n": 5000, "k": 1100, "eta": 10})
@example({"type": "star-null", "n": 5000, "k": 1016, "eta": 10})
@example({"type": "multi-spread", "n": 5000, "k": 1016, "eta": 10, "m": 3})
def test_random_bound_entries_end_in_a_documented_exit_code(tmp_path_factory, entry):
    cfg = tmp_path_factory.mktemp("bounds") / "r.json"
    cfg.write_text(json.dumps({"schema": 1, "kind": "bounds", "entries": [entry]}))
    assert main(["risk", "--config", str(cfg)]) in (0, 2, 3, 4)


def test_large_k_bounds_are_returned_with_an_exact_c_k(tmp_path, capsys):
    # (k-1) 2^(k-1) is past a float from k = 1016 on; c_k h_eta is near k - 1
    entries = [
        {"type": "line-cycle", "n": 5000, "k": 1100, "eta": 10},
        {"type": "star-null", "n": 2000, "k": 1100, "eta": 1e300},
        {"type": "star-null", "n": 2000, "k": 1015, "eta": 1e300},
    ]
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": entries})
    code, stdout, _ = run(capsys, "risk", "--config", cfg)
    results = json.loads(stdout)["results"]
    assert code == 0
    assert results[0] == {"type": "line-cycle", "value": 1.05, "vacuous": True}
    assert results[1]["c_k"] == cascade_count_cycle(1100)
    assert f'"c_k": {cascade_count_cycle(1100)},' in stdout
    assert (results[1]["value"], results[1]["vacuous"]) == (0.05, False)
    # below k = 1016, c_k prints as the float it fits
    assert results[2]["c_k"] == float(cascade_count_cycle(1015))
    assert f'"c_k": {float(cascade_count_cycle(1015))!r},' in stdout


@pytest.mark.parametrize(
    "command, doc, error",
    [
        # a typo of null_graph would run against empty:30
        (
            "experiment",
            {"entries": [{"algorithm": "perm", "statistic": "W", "alt_graph": "cycle:30", "null_graph": "star:30",
                          "etas": [1], "k": 5, "alpha": 0.2, "B": 20, "replicates": 2, "long_out": "w.csv"},
                         {"algorithm": "perm", "statistic": "W", "alt_graph": "cycle:30", "null_grpah": "star:30",
                          "etas": [1], "k": 5, "alpha": 0.2, "B": 20, "replicates": 2}]},
            "entries[1].null_grpah",
        ),
        # a TT row reads no degree bound
        (
            "experiment",
            {"entries": [{"algorithm": "TT", "alt_graph": "cycle:30", "etas": [1], "k": 5, "replicates": 2, "d": 3}]},
            "entries[0].d",
        ),
        (
            "experiment",
            {"entries": [{"algorithm": "TT", "alt_graph": "cycle:30", "etas": [1], "k": 5, "replicates": 2}], "seed": 3},
            "seed",
        ),
        # C for c would run with c = 0
        ("baseline", {"graph": "cycle:30", "k": 5, "C": 3}, "C"),
        # sead for seed would run with seed 0
        (
            "risk",
            {"kind": "mc", "alt_graph": "cycle:12", "etas": [1], "k": 3, "alpha": 0.2, "B": 20,
             "replicates": 2, "sead": 4},
            "sead",
        ),
        ("risk", {"kind": "bounds", "entries": [{"type": "cascade-cycle", "k": 4}], "seed": 1}, "seed"),
        # the star-null formula reads no m, and center no alpha or c
        ("risk", {"kind": "bounds", "entries": [{"type": "star-null", "n": 30, "k": 5, "eta": 1, "m": 50}]},
         "entries[0].m"),
        ("risk", {"kind": "bounds", "entries": [{"type": "star-null", "n": 30, "k": 5, "eta": 1, "bogus": 3}]},
         "entries[0].bogus"),
        ("risk", {"kind": "bounds", "entries": [{"type": "center", "n": 30, "k": 5, "eta": 1, "alpha": 0.1}]},
         "entries[0].alpha"),
        ("risk", {"kind": "bounds", "entries": [{"type": "line-cycle", "n": 30, "k": 5, "eta": 1, "D": 3}]},
         "entries[0].D"),
    ],
)
def test_unknown_config_keys_are_refused_before_any_row_runs(tmp_path, capsys, monkeypatch, command, doc, error):
    import netspread.cli

    def no_run(*args, **kwargs):
        raise AssertionError("a row ran")

    for name in ("mc_risk_curves", "mc_risk_curve", "baseline_risk_curve", "baseline_rule", "star_null_risk_bound"):
        monkeypatch.setattr(netspread.cli, name, no_run)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "c.json", {"schema": 1, **doc})
    code, stdout, err = run(capsys, command, "--config", cfg)
    assert (code, stdout, err) == (2, "", f"config error: {cfg}.{error}: unknown key\n")
    assert not (tmp_path / "w.csv").exists()


def test_c_k_and_graph_are_not_both_read(tmp_path, capsys):
    entry = {"type": "star-null", "n": 30, "k": 5, "eta": 1, "c_k": 8, "graph": "cycle:6"}
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": [entry]})
    code, stdout, err = run(capsys, "risk", "--config", cfg)
    assert (code, stdout, err) == (2, "", f"config error: {cfg}.entries[0].graph: not read when c_k is given\n")


def test_a_number_past_a_float_is_a_config_error(tmp_path, capsys):
    entry = {"type": "star-null", "n": 30, "k": 5, "eta": 1, "c_k": 10**400}
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": [entry]})
    code, stdout, err = run(capsys, "risk", "--config", cfg)
    assert (code, stdout, err) == (2, "", f"config error: {cfg}.entries[0].c_k: too large for a float\n")


def test_risk_empty_entries(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": []})
    code, _, _ = run(capsys, "risk", "--config", cfg)
    assert code == 2


# -- experiment ---------------------------------------------------------------------


def experiment_doc():
    return {
        "schema": 1,
        "entries": [
            {
                "algorithm": "perm",
                "statistic": "W",
                "alt_graph": "cycle:10",
                "null_graph": "star:10",
                "etas": [0, 2],
                "k": 5,
                "alpha": 0.2,
                "B": 60,
                "replicates": 8,
                "seed": 1,
            },
            {
                "algorithm": "TB",
                "alt_graph": "cycle:10",
                "etas": [0, 2],
                "k": 5,
                "replicates": 8,
            },
            {
                "algorithm": "TT",
                "alt_graph": "cycle:10",
                "etas": [0, 2],
                "k": 5,
                "replicates": 8,
            },
        ],
    }


def test_experiment_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", experiment_doc())
    code, stdout, _ = run(capsys, "experiment", "--config", cfg)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "algorithm,statistic,threshold,diagnosis,typeI,typeII@eta=0,typeII@eta=2"
    assert len(lines) == 4
    perm, tb, tt = (line.split(",") for line in lines[1:])
    assert perm[0] == "perm" and perm[1] == "W" and perm[3] == "data-dependent"
    assert tb[0] == "TB" and tb[1] == "R"
    # the radius rule's threshold tops the cycle's eccentricity here
    assert tb[3] == "always rejects" and tb[4] == "1" and tb[5] == "0"
    assert tt[0] == "TT" and tt[1] == "T"
    assert tt[3] == "never rejects" and tt[4] == "0" and tt[5] == "1"
    for row in (perm, tb, tt):
        float(row[2])
        assert 0.0 <= float(row[4]) <= 1.0


@pytest.mark.parametrize("threads", [None, "2"])
def test_experiment_data_dependent_baselines_stdout(tmp_path, capsys, monkeypatch, threads):
    # on a 20x20 torus with k=5 both baseline rules are data-dependent, so
    # their rows run the Monte Carlo replicates
    # (set or unset, NETSPREAD_THREADS leaves the stdout as it is)
    shared = {
        "alt_graph": "torus:20x20", "etas": [1, 10], "k": 5, "c": 10, "replicates": 30, "seed": 3,
    }
    doc = {
        "schema": 1,
        "entries": [
            dict(shared, algorithm="TB", d=1),
            dict(shared, algorithm="TT"),
            dict(shared, algorithm="perm", statistic="R", null_graph="empty:400", alpha=0.1, B=50),
        ],
    }
    if threads is None:
        monkeypatch.delenv("NETSPREAD_THREADS", raising=False)
    else:
        monkeypatch.setenv("NETSPREAD_THREADS", threads)
    cfg = write_config(tmp_path, "e.json", doc)
    expected = (
        "algorithm,statistic,threshold,diagnosis,typeI,typeII@eta=1,typeII@eta=10\n"
        "TB,R,10.0993,data-dependent,0.9,0.1,0.0333333\n"
        "TT,T,29.4286,data-dependent,0.7,0.233333,0.0333333\n"
        "perm,R,6.6,data-dependent,0.0333333,1,0.9\n"
    )
    assert run(capsys, "experiment", "--config", cfg) == (0, expected, "")


def test_experiment_long_out(tmp_path, capsys):
    doc = experiment_doc()
    long_path, tb_path = tmp_path / "values.csv", tmp_path / "tb.csv"
    doc["entries"][0]["long_out"] = str(long_path)
    doc["entries"][1]["long_out"] = str(tb_path)
    cfg = write_config(tmp_path, "e.json", doc)
    code, _, _ = run(capsys, "experiment", "--config", cfg)
    assert code == 0
    lines = long_path.read_text().strip().splitlines()
    assert lines[0] == "eta,replicate,W"
    assert len(lines) == 1 + 2 * 8
    # the TB row writes the radius of each alternative snapshot it scored
    lines = tb_path.read_text().strip().splitlines()
    assert lines[0] == "eta,replicate,R"
    assert [line.split(",")[:2] for line in lines[1:]] == [[eta, str(rep)] for eta in "02" for rep in range(8)]
    assert all(0 <= int(line.split(",")[2]) <= 5 for line in lines[1:])


def test_experiment_tt_row_counts_censored_vertices_in_its_floor(tmp_path, capsys):
    # with c = 2 of k = 5 infected vertices censored, T can fall to 2, below
    # the threshold 3.626, so the rule is data-dependent and fires on some
    # snapshots
    entry = {"algorithm": "TT", "alt_graph": "cycle:10", "k": 5, "c": 2, "etas": [1, 10], "replicates": 200}
    cfg = write_config(tmp_path, "e.json", {"schema": 1, "entries": [entry]})
    assert run(capsys, "experiment", "--config", cfg) == (
        0, "algorithm,statistic,threshold,diagnosis,typeI,typeII@eta=1,typeII@eta=10\n"
        "TT,T,3.62601,data-dependent,0.09,0.865,0.755\n", "",
    )


def test_experiment_tt_row_on_a_graph_that_splits_its_terminals_exits_3(tmp_path, capsys):
    # TT never rejects on two triangles with k = 3, but the row still scores
    # its null snapshots, which scatter the infected vertices over both
    graph = tmp_path / "two.txt"
    graph.write_text("a b\nb c\nc a\nx y\ny z\nz x\n")
    entry = {"algorithm": "TT", "alt_graph": f"file:{graph}", "k": 3, "etas": [1], "replicates": 5}
    cfg = write_config(tmp_path, "e.json", {"schema": 1, "entries": [entry]})
    code, stdout, err = run(capsys, "experiment", "--config", cfg)
    assert (code, stdout) == (3, "")
    assert "connected component" in err


def test_experiment_mismatched_eta_grids(tmp_path, capsys):
    doc = experiment_doc()
    doc["entries"][1]["etas"] = [0, 3]
    cfg = write_config(tmp_path, "e.json", doc)
    code, _, err = run(capsys, "experiment", "--config", cfg)
    assert code == 2
    assert "eta grid" in err


def test_experiment_unknown_algorithm(tmp_path, capsys):
    doc = experiment_doc()
    doc["entries"][0]["algorithm"] = "magic"
    cfg = write_config(tmp_path, "e.json", doc)
    code, _, _ = run(capsys, "experiment", "--config", cfg)
    assert code == 2


def _eta_configs(tmp_path, etas):
    """(risk mc config, experiment config) paths, both over the given etas."""
    mc = write_config(tmp_path, "mc.json", {
        "schema": 1, "kind": "mc", "alt_graph": "cycle:10", "etas": etas, "k": 3,
        "alpha": 0.1, "B": 20, "replicates": 2,
    })
    doc = experiment_doc()
    for entry in doc["entries"]:
        entry["etas"] = etas
    return mc, write_config(tmp_path, "e.json", doc)


@pytest.mark.parametrize(
    "eta, message",
    [
        (float("nan"), "config error: {cfg}.etas[1]: expected number >= 0"),
        (float("inf"), "invalid parameters: eta=inf overflows"),
        (1e308, "invalid parameters: eta=1e+308 overflows"),
    ],
)
def test_risk_and_experiment_reject_non_finite_or_overflowing_etas(tmp_path, capsys, eta, message):
    # json.loads reads the NaN and Infinity that json.dumps writes
    mc, exp = _eta_configs(tmp_path, [1, eta])
    out = tmp_path / "out.txt"
    for command, cfg in (("risk", mc), ("experiment", exp)):
        code, stdout, err = run(capsys, command, "--config", cfg, "--out", str(out))
        assert (code, stdout) == (2, ""), command
        where = cfg if command == "risk" else f"{cfg}.entries[0]"
        assert err.startswith(message.format(cfg=where)), command
        assert not out.exists(), command


def test_experiment_rejects_nan_eta_on_a_baseline_row(tmp_path, capsys):
    # TB on cycle:10 always rejects; the config check refuses the eta
    doc = {"schema": 1, "entries": [dict(experiment_doc()["entries"][1], etas=[float("nan")])]}
    code, stdout, err = run(capsys, "experiment", "--config", write_config(tmp_path, "e.json", doc))
    assert (code, stdout) == (2, "")
    assert "etas[0]: expected number >= 0" in err


@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("eta, text", [(float("inf"), "inf"), (1e308, "1e+308")])
def test_experiment_rejects_overflowing_eta_on_a_baseline_row(tmp_path, capsys, row, eta, text):
    # TB on cycle:10 always rejects and TT never does; the run is refused
    # before any spread
    doc = {"schema": 1, "entries": [dict(experiment_doc()["entries"][row], etas=[1, eta])]}
    code, stdout, err = run(capsys, "experiment", "--config", write_config(tmp_path, "e.json", doc))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"invalid parameters: eta={text} overflows")


@pytest.mark.parametrize("statistic", ["W", "R", "T"])
def test_experiment_rejects_null_and_alternative_graphs_of_different_sizes(tmp_path, capsys, statistic):
    entry = dict(experiment_doc()["entries"][0], statistic=statistic, null_graph="empty:10", alt_graph="torus:4x4")
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, "e.json", {"schema": 1, "entries": [entry]})
    code, stdout, err = run(capsys, "experiment", "--config", cfg, "--out", str(out))
    assert (code, stdout, err) == (
        2, "", "invalid parameters: null and alternative graphs differ in size: n=10 and n=16\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("row, line", [
    ({"algorithm": "perm", "statistic": "R", "alpha": 0.1, "B": 19}, "perm,R,0,data-dependent,0,1"),
    ({"algorithm": "perm", "statistic": "T", "alpha": 0.1, "B": 19}, "perm,T,0,data-dependent,0,1"),
    ({"algorithm": "TB"}, "TB,R,8.32597,data-dependent,1,0"),
], ids=["R", "T", "TB"])
def test_experiment_scores_snapshots_whose_infected_vertex_is_censored(tmp_path, capsys, row, line):
    # one infected vertex among 200 censored of 400: some replicates show no
    # infected vertex, and R and T score them 0, as W does
    entry = dict(row, alt_graph="torus:20x20", k=1, c=200, etas=[1], replicates=10)
    cfg = write_config(tmp_path, "e.json", {"schema": 1, "entries": [entry]})
    code, stdout, err = run(capsys, "experiment", "--config", cfg)
    assert (code, err) == (0, "")
    assert stdout.splitlines()[1] == line


@pytest.mark.parametrize("statistic", ["R", "T"])
def test_test_scores_a_snapshot_whose_infected_vertices_are_censored(tmp_path, capsys, statistic):
    status = tmp_path / "s.txt"
    status.write_text("0 *\n1 0\n2 *\n3 0\n4 0\n5 0\n")
    code, stdout, err = run(
        capsys,
        "test", "--null-graph", "empty:6", "--alt-graph", "cycle:6", "--statistic", statistic,
        "--infection", str(status), "--B", "19", "--json",
    )
    assert (code, err) == (0, "")
    payload = json.loads(stdout)
    # every relabeling ties at 0, so the test cannot reject
    assert (payload["observed"], payload["threshold"], payload["p_value"], payload["reject"]) == (0, 0, 1, False)


@pytest.mark.parametrize("change, message", [
    ({"replicates": 0}, "reps must be >= 1, got 0"),
    ({"replicates": -3}, "reps must be >= 1, got -3"),
    ({"alt_graph": "torus:4x4", "k": 20, "c": 0}, "cannot infect k=20 of n=16 vertices"),
    ({"seed": -1}, "seed and substream path need non-negative integers, got -1"),
], ids=["reps-0", "reps-minus-3", "k-above-n", "seed-minus-1"])
@pytest.mark.parametrize("algorithm", ["TB", "TT"])
def test_experiment_rejects_impossible_runs_on_a_row_that_simulates_nothing(
    tmp_path, capsys, algorithm, change, message
):
    # both rules always reject on these rows; the run is refused before any spread
    entry = {"algorithm": algorithm, "alt_graph": "torus:20x20", "etas": [1, 10], "k": 80, "c": 80, "replicates": 5}
    doc = {"schema": 1, "entries": [dict(entry, **change)]}
    code, stdout, err = run(capsys, "experiment", "--config", write_config(tmp_path, "e.json", doc))
    assert (code, stdout, err) == (2, "", f"invalid parameters: {message}\n")


def test_risk_and_experiment_reject_etas_that_print_alike(tmp_path, capsys):
    # both would print as 1: one type_ii key, two typeII@eta=1 columns
    mc, exp = _eta_configs(tmp_path, [1.0000001, 1.0000002, 5])
    for command, cfg in (("risk", mc), ("experiment", exp)):
        code, stdout, err = run(capsys, command, "--config", cfg)
        assert (code, stdout) == (2, ""), command
        assert "etas[1]: prints as 1, the same as etas[0]" in err, command


def _mixed_experiment(tmp_path):
    """Entries of one eta grid: perm rows that share every setting but
    statistic and long_out (the first repeated without long_out), one
    that differs only in its seed, one in its mode, and TB/TT rows, with
    long_out files in tmp_path."""
    shared = {"alt_graph": "torus:6x6", "etas": [1, 10], "k": 8, "c": 4, "replicates": 6, "seed": 3}
    perm = dict(shared, algorithm="perm", null_graph="empty:36", alpha=0.1, B=30)
    return [
        dict(perm, statistic="W", long_out=str(tmp_path / "W.csv")),
        dict(shared, algorithm="TB", d=1),
        dict(perm, statistic="R", long_out=str(tmp_path / "R.csv")),
        dict(perm, statistic="R", seed=4, long_out=str(tmp_path / "R4.csv")),
        dict(perm, statistic="T", long_out=str(tmp_path / "T.csv")),
        dict(shared, algorithm="TT"),
        dict(perm, statistic="W", mode="censor-fixed"),
        dict(perm, statistic="W"),
    ]


def test_experiment_rows_equal_each_entry_run_alone(tmp_path, capsys):
    whole = tmp_path / "whole"
    whole.mkdir()
    entries = _mixed_experiment(whole)
    cfg = write_config(tmp_path, "e.json", {"schema": 1, "entries": entries})
    code, stdout, _ = run(capsys, "experiment", "--config", cfg)
    assert code == 0
    header, *lines = stdout.splitlines()
    assert len(lines) == len(entries)
    for i, entry in enumerate(entries):
        alone = tmp_path / f"alone{i}"
        alone.mkdir()
        if "long_out" in entry:
            entry = dict(entry, long_out=str(alone / "values.csv"))
        cfg = write_config(alone, "e.json", {"schema": 1, "entries": [entry]})
        code, stdout, _ = run(capsys, "experiment", "--config", cfg)
        assert (code, stdout) == (0, f"{header}\n{lines[i]}\n"), entry
        if "long_out" in entry:
            values = (whole / Path(entries[i]["long_out"]).name).read_bytes()
            assert (alone / "values.csv").read_bytes() == values, entry


def test_experiment_reads_every_entry_before_any_row_runs(tmp_path, capsys, monkeypatch):
    import netspread.cli

    def no_run(*args, **kwargs):
        raise AssertionError("a row ran before every entry was read")

    monkeypatch.setattr(netspread.cli, "mc_risk_curves", no_run)
    monkeypatch.setattr(netspread.cli, "baseline_risk_curve", no_run)
    doc = experiment_doc()
    doc["entries"].append(dict(doc["entries"][1], algorithm="magic"))
    cfg = write_config(tmp_path, "e.json", doc)
    code, stdout, err = run(capsys, "experiment", "--config", cfg)
    assert (code, stdout) == (2, "")
    assert err == f"config error: {cfg}.entries[3].algorithm: expected perm, TB, or TT\n"


@pytest.mark.parametrize("command", ["risk", "experiment"])
def test_entries_errors_keep_their_messages_and_order(tmp_path, capsys, command):
    if command == "risk":
        head, good = {"kind": "bounds"}, {"type": "cascade-cycle", "k": 4}
        bad, bad_error = {"type": "center"}, "entries[0].n: missing"
    else:
        head, good = {}, experiment_doc()["entries"][0]
        bad, bad_error = dict(good, algorithm="magic"), "entries[0].algorithm: expected perm, TB, or TT"
    cases = [
        ({}, "entries: missing"),
        ({"entries": {}}, "entries: expected list"),
        ({"entries": []}, "entries: must be non-empty"),
        ({"entries": [bad, 5]}, bad_error),  # an entry's own error before a later item's
        ({"entries": [good, 5]}, "entries[1]: expected object"),
    ]
    for doc, error in cases:
        cfg = write_config(tmp_path, "c.json", {"schema": 1, **head, **doc})
        code, stdout, err = run(capsys, command, "--config", cfg)
        assert (code, stdout, err) == (2, "", f"config error: {cfg}.{error}\n"), doc


def test_experiment_spreads_each_snapshot_once_for_rows_of_one_setting(tmp_path, capsys, monkeypatch):
    import netspread.spreading

    calls = []
    spread = netspread.spreading.simulate_spread

    def counting(*args, **kwargs):
        calls.append(args[1].eta)
        return spread(*args, **kwargs)

    monkeypatch.setattr(netspread.spreading, "simulate_spread", counting)
    entry = {
        "algorithm": "perm", "alt_graph": "torus:6x6", "null_graph": "empty:36", "k": 8, "c": 4,
        "alpha": 0.1, "B": 30, "etas": [1, 10, 100], "replicates": 5, "seed": 2,
    }
    doc = {"schema": 1, "entries": [dict(entry, statistic="W"), dict(entry, statistic="R")]}
    assert run(capsys, "experiment", "--config", write_config(tmp_path, "e.json", doc))[0] == 0
    # one spread per replicate and snapshot: the null at eta0 = 0, then each eta
    assert sorted(calls) == sorted([0.0, 1, 10, 100] * 5)


def test_experiment_walks_each_snapshot_once_in_lockstep_above_the_stack_size(tmp_path, capsys, monkeypatch):
    import netspread.spreading

    calls = []
    spread, walk = netspread.spreading.simulate_spread, netspread.spreading._stacked_paths

    def counting(*args, **kwargs):
        calls.append(args[1].eta)
        return spread(*args, **kwargs)

    def counting_rows(rows, draws):
        calls.extend(eta for _, eta in rows)
        return walk(rows, draws)

    monkeypatch.setattr(netspread.spreading, "simulate_spread", counting)
    monkeypatch.setattr(netspread.spreading, "_stacked_paths", counting_rows)
    entry = {
        "algorithm": "perm", "alt_graph": "torus:6x6", "null_graph": "empty:36", "k": 8, "c": 4,
        "alpha": 0.1, "B": 30, "etas": [1, 10, 100], "replicates": 8, "seed": 2,
    }
    doc = {"schema": 1, "entries": [dict(entry, statistic="W"), dict(entry, statistic="R")]}
    assert run(capsys, "experiment", "--config", write_config(tmp_path, "e.json", doc))[0] == 0
    # 32 rows, all in one lockstep walk: one spread per replicate and snapshot
    assert calls == [0.0, 1, 10, 100] * 8


def _experiment_csv_with_thread_env(tmp_path, capsys, monkeypatch, cfg, value):
    """Run experiment with NETSPREAD_THREADS set to value (unset for None)
    and return its exit code, stdout, stderr and CSV bytes."""
    out = tmp_path / f"{value}.csv"
    if value is None:
        monkeypatch.delenv("NETSPREAD_THREADS", raising=False)
    else:
        monkeypatch.setenv("NETSPREAD_THREADS", value)
    code, stdout, err = run(capsys, "experiment", "--config", cfg, "--out", str(out))
    assert (code, stdout, err) == (0, f"wrote {out}\n", "")
    return out.read_bytes()


def test_experiment_thread_env(tmp_path, capsys, monkeypatch):
    # NETSPREAD_THREADS is not read: a thread count leaves the CSV as it is
    cfg = write_config(tmp_path, "e.json", experiment_doc())
    unset = _experiment_csv_with_thread_env(tmp_path, capsys, monkeypatch, cfg, None)
    assert _experiment_csv_with_thread_env(tmp_path, capsys, monkeypatch, cfg, "4") == unset


def test_thread_env_rejects_garbage(tmp_path, capsys, monkeypatch):
    # a garbage NETSPREAD_THREADS is disregarded, not an error: exit 0 and
    # the CSV of the unset run
    cfg = write_config(tmp_path, "e.json", experiment_doc())
    unset = _experiment_csv_with_thread_env(tmp_path, capsys, monkeypatch, cfg, None)
    for value in ("lots", "-2"):
        assert _experiment_csv_with_thread_env(tmp_path, capsys, monkeypatch, cfg, value) == unset


def test_config_must_be_object(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    code, _, _ = run(capsys, "experiment", "--config", str(p))
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- unwritable output paths ----------------------------------------------------------


def _unwritable_commands(tmp_path, capsys):
    """(name, argv) of every command writing to a path in a missing directory."""
    missing = tmp_path / "missing"
    snap = simulate_snapshot(tmp_path, capsys, graph="cycle:10", k="3")
    bounds = write_config(
        tmp_path, "r.json", {"schema": 1, "kind": "bounds", "entries": [{"type": "cascade-cycle", "k": 4}]}
    )
    exp = write_config(tmp_path, "e.json", experiment_doc())
    long_doc = experiment_doc()
    long_doc["entries"][0]["long_out"] = str(missing / "values.csv")
    long_cfg = write_config(tmp_path, "long.json", long_doc)
    return [
        ("simulate --out", ["simulate", "--graph", "cycle:10", "--eta", "1", "--k", "3",
                            "--out", str(missing / "snap.txt")]),
        ("risk --out", ["risk", "--config", bounds, "--out", str(missing / "r.json")]),
        ("experiment --out", ["experiment", "--config", exp, "--out", str(missing / "e.csv")]),
        ("long_out", ["experiment", "--config", long_cfg]),
        ("--debug-dump", ["test", "--null-graph", "empty:10", "--alt-graph", "cycle:10",
                          "--statistic", "W", "--infection", snap, "--B", "20",
                          "--debug-dump", str(missing / "d.txt")]),
    ]


def test_unwritable_output_paths_are_data_errors(tmp_path, capsys):
    for name, argv in _unwritable_commands(tmp_path, capsys):
        code, stdout, err = run(capsys, *argv)
        assert code == 3, name
        assert stdout == "", name
        assert err.startswith(f"error: cannot write {tmp_path / 'missing'}"), name
    assert not (tmp_path / "missing").exists()


def test_unwritable_output_paths_fail_before_any_replicate(tmp_path, capsys, monkeypatch):
    import netspread.cli

    def no_run(*args, **kwargs):
        raise AssertionError("a row ran before every output path was checked")

    monkeypatch.setattr(netspread.cli, "mc_risk_curve", no_run)
    monkeypatch.setattr(netspread.cli, "mc_risk_curves", no_run)
    monkeypatch.setattr(netspread.cli, "baseline_risk_curve", no_run)
    missing = tmp_path / "missing"
    mc = write_config(tmp_path, "mc.json", {
        "schema": 1, "kind": "mc", "alt_graph": "cycle:10", "etas": [1], "k": 3,
        "alpha": 0.1, "B": 20, "replicates": 2,
    })
    exp = write_config(tmp_path, "e.json", experiment_doc())
    # the perm row with the unwritable long_out comes after both baseline rows
    doc = experiment_doc()
    doc["entries"] = doc["entries"][1:] + [dict(doc["entries"][0], long_out=str(missing / "v.csv"))]
    long_cfg = write_config(tmp_path, "long.json", doc)
    for argv in (
        ["risk", "--config", mc, "--out", str(missing / "r.json")],
        ["experiment", "--config", exp, "--out", str(missing / "e.csv")],
        ["experiment", "--config", long_cfg],
    ):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, ""), argv
        assert err.startswith(f"error: cannot write {missing}"), argv


def test_failed_experiment_leaves_no_output_behind(tmp_path, capsys):
    doc = experiment_doc()
    # fails once the other rows have run: a spread cannot infect 11 of 10 vertices
    doc["entries"].append(dict(doc["entries"][0], k=11))
    doc["entries"][0]["long_out"] = str(tmp_path / "values.csv")
    cfg = write_config(tmp_path, "e.json", doc)
    code, stdout, err = run(capsys, "experiment", "--config", cfg, "--out", str(tmp_path / "e.csv"))
    assert (code, stdout) == (2, "")
    assert "cannot infect k=11 of n=10 vertices" in err
    assert not (tmp_path / "values.csv").exists()
    assert not (tmp_path / "e.csv").exists()
    # an existing output file keeps its content
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier run\n")
    assert run(capsys, "experiment", "--config", cfg, "--out", str(kept))[0] == 2
    assert kept.read_text() == "earlier run\n"


@pytest.mark.parametrize("infected", ["a x", "a b"])
def test_failed_test_leaves_no_debug_dump_behind(tmp_path, capsys, infected):
    # T on two triangles: {a, x} spans both, so the observed snapshot fails;
    # {a, b} scores, but some draw spans both and fails after earlier draws
    graph = tmp_path / "two.txt"
    graph.write_text("a b\nb c\nc a\nx y\ny z\nz x\n")
    snap = tmp_path / "snap.txt"
    snap.write_text("".join(f"{v} {int(v in infected.split())}\n" for v in "abcxyz"))
    argv = ["test", "--null-graph", "empty:6", "--alt-graph", f"file:{graph}",
            "--statistic", "T", "--infection", str(snap), "--B", "50", "--debug-dump"]
    dump = tmp_path / "dump.txt"
    code, stdout, err = run(capsys, *argv, str(dump))
    assert (code, stdout) == (3, "")
    assert "connected component" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.txt", "two.txt"]
    # an existing dump keeps its content
    dump.write_text("earlier run\n")
    assert run(capsys, *argv, str(dump))[0] == 3
    assert dump.read_text() == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.txt", "snap.txt", "two.txt"]


def test_debug_dump_replaces_an_existing_file(tmp_path, capsys):
    snap = simulate_snapshot(tmp_path, capsys, k="3")
    dump = tmp_path / "draws.txt"
    dump.write_text("earlier run\n" * 100)
    code, _, _ = run(
        capsys,
        "test", "--null-graph", "star:12", "--alt-graph", "cycle:12",
        "--statistic", "W", "--infection", snap, "--B", "25", "--debug-dump", str(dump),
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 25 and all(len(line) == 12 for line in lines)
    # a directory cannot be replaced: a data error, and the partial file goes
    code, stdout, err = run(
        capsys,
        "test", "--null-graph", "star:12", "--alt-graph", "cycle:12",
        "--statistic", "W", "--infection", snap, "--B", "25", "--debug-dump", str(tmp_path),
    )
    assert (code, stdout) == (3, "")
    assert err.startswith(f"error: cannot write {tmp_path}")
    assert not list(tmp_path.parent.glob("*.partial"))


_OUTPUTS = ["simulate --out", "risk --out", "experiment --out", "long_out", "--debug-dump"]


def _failing_run(tmp_path, output):
    """(argv for a run that writes PATH to output and then fails, its exit code)."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    if output == "simulate --out":
        return lambda path: ["simulate", "--graph", "cycle:10", "--eta", "1", "--k", "11", "--out", path], 2
    if output == "risk --out":
        entries = [{"type": "cascade-cycle", "k": 4}, {"type": "mystery"}]
        cfg = write_config(inputs, "r.json", {"schema": 1, "kind": "bounds", "entries": entries})
        return lambda path: ["risk", "--config", cfg, "--out", path], 2
    if output == "--debug-dump":
        # T on two triangles: {a, b} scores, but some draw spans both and fails
        graph = inputs / "two.txt"
        graph.write_text("a b\nb c\nc a\nx y\ny z\nz x\n")
        snap = inputs / "snap.txt"
        snap.write_text("".join(f"{v} {int(v in 'ab')}\n" for v in "abcxyz"))
        return lambda path: ["test", "--null-graph", "empty:6", "--alt-graph", f"file:{graph}",
                             "--statistic", "T", "--infection", str(snap), "--B", "50",
                             "--debug-dump", path], 3
    # fails once the other rows have run: a spread cannot infect 11 of 10 vertices
    doc = experiment_doc()
    doc["entries"].append(dict(doc["entries"][0], k=11))
    if output == "experiment --out":
        cfg = write_config(inputs, "e.json", doc)
        return lambda path: ["experiment", "--config", cfg, "--out", path], 2

    def long_out(path):
        doc["entries"][0]["long_out"] = path
        return ["experiment", "--config", write_config(inputs, "e.json", doc)]

    return long_out, 2


@pytest.mark.parametrize("output", _OUTPUTS)
def test_failed_run_leaves_its_output_as_it_was(tmp_path, capsys, output):
    argv, failure = _failing_run(tmp_path, output)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "result"
    assert run(capsys, *argv(str(target)))[:2] == (failure, "")
    assert list(out_dir.iterdir()) == []
    earlier = b"earlier run\r\n\x00\xff"
    target.write_bytes(earlier)
    assert run(capsys, *argv(str(target)))[:2] == (failure, "")
    assert target.read_bytes() == earlier
    assert list(out_dir.iterdir()) == [target]


@pytest.mark.parametrize("output", _OUTPUTS)
def test_directory_output_fails_before_the_command_runs(tmp_path, capsys, monkeypatch, output):
    import netspread.cli

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran before its output paths were claimed")

    for name in ("simulate_spread", "mc_test", "mc_risk_curve", "mc_risk_curves", "baseline_risk_curve"):
        monkeypatch.setattr(netspread.cli, name, no_run)
    argv, _ = _failing_run(tmp_path, output)
    target = tmp_path / "out"
    target.mkdir()
    code, stdout, err = run(capsys, *argv(str(target)))
    assert (code, stdout) == (3, "")
    assert err == f"error: cannot write {target}: is a directory\n"
    assert list(target.iterdir()) == []
    assert not list(tmp_path.glob("*.partial"))


def test_two_outputs_on_one_path_fail_before_any_row(tmp_path, capsys):
    out = tmp_path / "v.csv"
    doc = experiment_doc()
    doc["entries"][0]["long_out"] = str(out)
    cfg = write_config(tmp_path, "e.json", doc)
    code, stdout, err = run(capsys, "experiment", "--config", cfg, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == f"error: cannot write {out}: named by two outputs\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json"]


def test_two_long_outs_on_one_path_fail_before_any_partial(tmp_path, capsys, monkeypatch):
    import netspread.cli

    def no_run(*args, **kwargs):
        raise AssertionError("a row ran before the output clash was found")

    monkeypatch.setattr(netspread.cli, "mc_risk_curves", no_run)
    doc = experiment_doc()
    # the same file spelled two ways, on rows with different statistics
    doc["entries"][0]["long_out"] = str(tmp_path / "v.csv")
    doc["entries"].append(dict(doc["entries"][0], statistic="R", long_out=f"{tmp_path}/./v.csv"))
    cfg = write_config(tmp_path, "e.json", doc)
    code, stdout, err = run(capsys, "experiment", "--config", cfg)
    assert (code, stdout) == (3, "")
    assert err == f"error: cannot write {tmp_path}/./v.csv: named by two outputs\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json"]


def test_output_replaces_its_file(tmp_path, capsys):
    # a new file moves onto the path: a symlink there is replaced, not written through
    cfg = write_config(tmp_path, "r.json", {
        "schema": 1, "kind": "bounds", "entries": [{"type": "cascade-cycle", "k": 4}],
    })
    linked = tmp_path / "linked.json"
    linked.write_text("earlier run\n")
    out = tmp_path / "out.json"
    out.symlink_to(linked)
    assert run(capsys, "risk", "--config", cfg, "--out", str(out)) == (0, f"wrote {out}\n", "")
    assert not out.is_symlink()
    assert json.loads(out.read_text())["results"][0]["value"] == 24
    assert linked.read_text() == "earlier run\n"


def test_main_parses_with_one_parser(tmp_path, capsys, monkeypatch):
    # stdout, stderr and exit codes of a mixed session are those of a
    # fresh parser per command
    monkeypatch.chdir(tmp_path)
    test = ["test", "--null-graph", "empty:10", "--alt-graph", "cycle:10", "--infection", "s.txt"]
    commands = [
        ["check-aut", "star:6", "path:6"],
        ["simulate", "--graph", "cycle:10", "--eta", "2", "--k", "3", "--c", "1", "--seed", "1", "--out", "s.txt"],
        test + ["--statistic", "W", "--B", "50", "--json", "--mode", "censor-fixed"],
        test + ["--statistic", "W", "--B", "50"],
        test + ["--statistic", "C", "--center", "99"],
        ["test", "--alt-graph", "cycle:10"],
        ["check-aut", "star:6", "path:7"],
        ["risk", "--config", "missing.json"],
    ]

    def session():
        outcomes = []
        for argv in commands * 2:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    assert cli._parser() is cli._parser()
    reused = session()
    assert [code for code, _, _ in reused[:8]] == [0, 0, 0, 0, 2, ("exit", 2), 2, 3]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert session() == reused
