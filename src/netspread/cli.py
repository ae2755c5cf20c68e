"""Command-line interface.

Subcommands: simulate | test | risk | baseline | check-aut | experiment.
All randomness flows from --seed / config seeds through named
substreams, so a fixed invocation produces byte-identical output files.
Numeric output uses 6 significant digits with '.' as the decimal
separator regardless of locale. Exit codes: 0 success, 2 usage or
config-schema error, 3 data/parse error, 4 combinatorial guard
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial, inf, isfinite
from typing import Any, Sequence

from .errors import ConfigError, GuardExceededError, NetspreadError, ParseError
from .graphs import Graph, eccentricity, empty_graph, from_spec
from .permtest import (
    MODE_CENSOR_FIXING,
    MODE_FULL,
    TestConfig,
    TestResult,
    conditional_mc_test,
    mc_test,
    validity_with_guard,
)
from .perms import automorphism_group, orbit
from .risk import (
    RiskInputs,
    baseline_diagnosis,
    cascade_count_cycle,
    center_test_risk_bounds,
    h_eta,
    line_cycle_bound,
    mc_risk_curve,
    min_cascade_count,
    multi_spread_bounds,
    resolve_threads,
    star_null_risk_bound,
    tb_threshold,
    tt_threshold,
)
from .rng import substream
from .spreading import (
    SpreadParams,
    align_to_graph,
    censor_fixed,
    censor_uniform,
    read_status_file,
    simulate_spread,
    write_status_file,
)
from .stats import StatisticSpec

__all__ = ["main", "build_parser"]

_STAT_FLAGS = ("W", "R", "T", "C", "orbit")


def _fmt(x: float) -> str:
    """Locale-independent 6-significant-digit formatting; inf and nan print as such."""
    if isfinite(x) and x == int(x) and abs(x) < 10**15:
        return str(int(x))
    return f"{x:.6g}"


def _dumps(payload) -> str:
    """Strict JSON text; inf, -inf and nan become the strings _fmt prints."""

    def strict(x):
        if isinstance(x, float) and not isfinite(x):
            return _fmt(x)
        if isinstance(x, dict):
            return {key: strict(v) for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        return x

    return json.dumps(strict(payload), sort_keys=True, indent=2, allow_nan=False)


def _threads_from_env() -> int | None:
    raw = os.environ.get("NETSPREAD_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"NETSPREAD_THREADS: expected integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"NETSPREAD_THREADS: must be >= 0, got {value}")
    return value


# -- config plumbing -----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not doc:
        raise ConfigError(f"{path}: config must be a non-empty JSON object")
    if doc.get("schema") != 1:
        raise ConfigError(f"{path}: schema: expected 1, got {doc.get('schema')!r}")
    return doc


def _need(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing")
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {getattr(kind, '__name__', kind)}")
    return value


def _opt(cfg: dict, key: str, kind, path: str, default):
    if key not in cfg:
        return default
    return _need(cfg, key, kind, path)


def _graph_from(cfg: dict, key: str, path: str) -> Graph:
    return from_spec(_need(cfg, key, str, path))


def _eta_list(cfg: dict, path: str) -> list[float]:
    raw = _need(cfg, "etas", list, path)
    if not raw:
        raise ConfigError(f"{path}.etas: must be non-empty")
    out = []
    for i, x in enumerate(raw):
        if not isinstance(x, (int, float)) or isinstance(x, bool) or x < 0:
            raise ConfigError(f"{path}.etas[{i}]: expected number >= 0")
        out.append(float(x))
    return out


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {out}")


# -- simulate -------------------------------------------------------------------


def _read_label_file(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    labels = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            labels.append(line)
    if not labels:
        raise ParseError(f"{path}: no labels found")
    return labels


def _cmd_simulate(args: argparse.Namespace) -> int:
    g = from_spec(args.graph)
    params = SpreadParams(eta=args.eta, k=args.k)
    path = simulate_spread(g, params, substream(args.seed, 0))
    iv = path.to_infection(g.n)
    if args.censor_file is not None:
        labels = _read_label_file(args.censor_file)
        iv = censor_fixed(iv, [g.index_of(lab) for lab in labels])
    elif args.c:
        iv = censor_uniform(iv, args.c, substream(args.seed, 1))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_status_file(fh, iv, labels=[g.label_of(v) for v in range(g.n)])
    print(f"wrote {args.out}")
    return 0


# -- test -----------------------------------------------------------------------


def _build_statistic(args: argparse.Namespace, alt: Graph) -> StatisticSpec:
    flag = args.statistic
    if flag == "W":
        return StatisticSpec.edges_within(alt)
    if flag == "R":
        return StatisticSpec.infection_radius(alt)
    if flag == "T":
        return StatisticSpec.steiner_weight(alt)
    if flag == "C":
        center = alt.index_of(args.center) if args.center is not None else 0
        return StatisticSpec.center_indicator(center)
    seed_vertex = alt.index_of(args.orbit_vertex) if args.orbit_vertex is not None else 0
    group = automorphism_group(alt)
    return StatisticSpec.orbit_count(orbit(group, seed_vertex))


def _raw_scale(result: TestResult) -> tuple[float, float, str]:
    """(observed, threshold, direction) on the raw statistic scale."""
    if result.tail == "lower":
        return -result.observed, -result.threshold, "below"
    return result.observed, result.threshold, "above"


def _cmd_test(args: argparse.Namespace) -> int:
    null_graph = from_spec(args.null_graph)
    alt = from_spec(args.alt_graph)
    try:
        with open(args.infection, "r", encoding="utf-8") as fh:
            labels, codes = read_status_file(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {args.infection}: {exc}") from exc
    iv = align_to_graph(alt, labels, codes)
    stat = _build_statistic(args, alt)
    mode = MODE_CENSOR_FIXING if args.mode == "censor-fixed" else MODE_FULL
    cfg = TestConfig(alpha=args.alpha, B=args.B, seed=args.seed, mode=mode)

    dump_fh = None
    on_resample = None
    if args.debug_dump is not None:
        dump_fh = open(args.debug_dump, "w", encoding="utf-8", newline="")
        chars = {0: "0", 1: "1", 2: "*"}

        def on_resample(_b: int, permuted) -> None:
            dump_fh.write("".join(chars[int(s)] for s in permuted) + "\n")

    try:
        if mode == MODE_CENSOR_FIXING:
            result = conditional_mc_test(stat, iv, cfg, null_graph=null_graph, on_resample=on_resample)
        else:
            result = mc_test(stat, iv, cfg, null_graph=null_graph, on_resample=on_resample)
    finally:
        if dump_fh is not None:
            dump_fh.close()

    observed, threshold, direction = _raw_scale(result)
    validity = result.validity_warning or "valid"
    if args.json:
        payload = {
            "statistic": result.statistic,
            "mode": result.mode,
            "alpha": args.alpha,
            "B": result.n_draws,
            "seed": args.seed,
            "observed": observed,
            "threshold": threshold,
            "reject_direction": direction,
            "p_value": result.p_value,
            "tail_count": result.raw_ge_count,
            "reject": result.reject,
            "saturated": result.saturated,
            "validity": validity,
        }
        print(_dumps(payload))
    else:
        print(f"statistic:  {result.statistic}")
        print(f"mode:       {result.mode}")
        print(f"observed:   {_fmt(observed)}")
        print(f"threshold:  {_fmt(threshold)} (reject {direction})")
        print(f"p-value:    {_fmt(result.p_value)} (tail count {result.raw_ge_count} of {result.n_draws})")
        print(f"reject:     {result.reject}")
        print(f"saturated:  {result.saturated}")
        print(f"validity:   {validity}")
    return 0


# -- check-aut --------------------------------------------------------------------


def _cmd_check_aut(args: argparse.Namespace) -> int:
    null_graph = from_spec(args.null_graph)
    alt = from_spec(args.alt_graph)
    if null_graph.n != alt.n:
        raise ParseError(
            f"graphs must share a vertex set: null has {null_graph.n}, alt has {alt.n}"
        )
    n = null_graph.n
    verdict, guard = validity_with_guard(null_graph, alt)
    if verdict == "unverifiable":
        print(f"unverifiable: {guard}")
    elif verdict == "valid":
        print(f"valid (Aut(alt)*Aut(null) = S_{n})")
    else:
        print(
            "invalid (automorphism products cover only part of the "
            f"{factorial(n)} relabelings)"
        )
    return 0


# -- baseline ---------------------------------------------------------------------


def _baseline_report(doc: dict, path: str) -> dict[str, Any]:
    g = _graph_from(doc, "graph", path)
    k = _need(doc, "k", int, path)
    c = _opt(doc, "c", int, path, 0)
    d = _opt(doc, "d", int, path, 2)
    radius_ceiling = eccentricity(g, 0)
    tb = tb_threshold(d, g.n, k, c)
    tt = tt_threshold(g.n, k, c)
    tb_diag = baseline_diagnosis(tb, 0.0, radius_ceiling)
    tt_diag = baseline_diagnosis(tt, float(max(k - 1, 0)), float(g.n - 1))
    return {
        "n": g.n,
        "k": k,
        "c": c,
        "d": d,
        "tb_threshold": tb,
        "tb_diagnosis": tb_diag,
        "radius_ceiling": radius_ceiling,
        "tt_threshold": tt,
        "tt_diagnosis": tt_diag,
        "tree_ceiling": g.n - 1,
    }


def _cmd_baseline(args: argparse.Namespace) -> int:
    doc = _load_config(args.config)
    report = _baseline_report(doc, args.config)
    if args.json:
        print(_dumps(report))
        return 0
    print(
        f"ball-radius baseline: threshold {_fmt(report['tb_threshold'])} "
        f"(floor {_fmt(float(int(report['tb_threshold'])))}), statistic ceiling "
        f"{_fmt(report['radius_ceiling'])} -> {report['tb_diagnosis']}"
    )
    print(
        f"tree-weight baseline: threshold {_fmt(report['tt_threshold'])}, "
        f"statistic ceiling {_fmt(float(report['tree_ceiling']))} -> {report['tt_diagnosis']}"
    )
    return 0


# -- risk --------------------------------------------------------------------------


def _bound_entry(entry: dict, path: str) -> dict[str, Any]:
    etype = _need(entry, "type", str, path)
    out: dict[str, Any] = {"type": etype}
    if etype == "h-eta":
        value = h_eta(
            _need(entry, "n", int, path),
            _need(entry, "k", int, path),
            _need(entry, "eta", float, path),
            _need(entry, "nt_min", float, path),
        )
        out["value"] = value
        return out

    if etype == "cascade-cycle":
        out["value"] = cascade_count_cycle(_need(entry, "k", int, path))
        return out

    if etype == "cascade-min":
        g = _graph_from(entry, "graph", path)
        out["value"] = min_cascade_count(g, _need(entry, "k", int, path))
        return out

    inputs = RiskInputs(
        n=_need(entry, "n", int, path),
        k=_need(entry, "k", int, path),
        c=_opt(entry, "c", int, path, 0),
        eta=_need(entry, "eta", float, path),
        alpha=_opt(entry, "alpha", float, path, 0.05),
        D=_opt(entry, "D", int, path, 2),
        m=_opt(entry, "m", int, path, 1),
    )
    if etype == "star-null":
        if "c_k" in entry:
            c_k = _need(entry, "c_k", float, path)
        elif "graph" in entry:
            c_k = float(min_cascade_count(_graph_from(entry, "graph", path), inputs.k))
        else:
            c_k = float(cascade_count_cycle(inputs.k))
        bound = star_null_risk_bound(inputs, c_k, nt_min=_opt(entry, "nt_min", float, path, 2.0))
        out.update(c_k=c_k, value=bound.value, vacuous=bound.vacuous)
    elif etype == "center":
        lower, upper = center_test_risk_bounds(inputs)
        out.update(lower=lower, upper=upper)
    elif etype == "multi-spread":
        if "c_k" in entry:
            c_k = _need(entry, "c_k", float, path)
        else:
            c_k = float(cascade_count_cycle(inputs.k))
        bounds = multi_spread_bounds(inputs, c_k, nt_min=_opt(entry, "nt_min", float, path, 2.0))
        out.update(
            c_k=c_k,
            m=inputs.m,
            avg_edges=bounds.avg_edges.value,
            avg_edges_vacuous=bounds.avg_edges.vacuous,
            avg_center=bounds.avg_center.value,
            avg_center_vacuous=bounds.avg_center.vacuous,
        )
    elif etype == "line-cycle":
        bound = line_cycle_bound(inputs)
        out.update(value=bound.value, vacuous=bound.vacuous)
    else:
        raise ConfigError(f"{path}.type: unknown bound type {etype!r}")
    return out


def _statistic_from_name(name: str, alt: Graph, path: str) -> StatisticSpec:
    if name == "W":
        return StatisticSpec.edges_within(alt)
    if name == "R":
        return StatisticSpec.infection_radius(alt)
    if name == "T":
        return StatisticSpec.steiner_weight(alt)
    raise ConfigError(f"{path}.statistic: expected W, R, or T, got {name!r}")


def _risk_mc_report(doc: dict, path: str, threads: int | None) -> dict[str, Any]:
    alt = _graph_from(doc, "alt_graph", path)
    null_spec = _opt(doc, "null_graph", str, path, None)
    g0 = from_spec(null_spec) if null_spec else empty_graph(alt.n)
    etas = _eta_list(doc, path)
    k = _need(doc, "k", int, path)
    c = _opt(doc, "c", int, path, 0)
    mode = _opt(doc, "mode", str, path, "full")
    if mode not in ("full", "censor-fixed"):
        raise ConfigError(f"{path}.mode: expected 'full' or 'censor-fixed'")
    cfg = TestConfig(
        alpha=_need(doc, "alpha", float, path),
        B=_need(doc, "B", int, path),
        seed=_opt(doc, "seed", int, path, 0),
        mode=MODE_CENSOR_FIXING if mode == "censor-fixed" else MODE_FULL,
    )
    stat = _statistic_from_name(_opt(doc, "statistic", str, path, "W"), alt, path)
    curve = mc_risk_curve(
        g0,
        alt,
        _opt(doc, "eta0", float, path, 0.0),
        etas,
        k,
        c,
        cfg,
        _need(doc, "replicates", int, path),
        stat=stat,
        threads=threads,
    )
    return {
        "statistic": stat.name,
        "type_i": curve.type_i,
        "mean_threshold": curve.mean_threshold,
        "type_ii": {_fmt(eta): curve.type_ii[eta] for eta in etas},
        "replicates": curve.reps,
    }


def _cmd_risk(args: argparse.Namespace) -> int:
    doc = _load_config(args.config)
    kind = _need(doc, "kind", str, args.config)
    if kind == "bounds":
        entries = _need(doc, "entries", list, args.config)
        if not entries:
            raise ConfigError(f"{args.config}.entries: must be non-empty")
        results = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ConfigError(f"{args.config}.entries[{i}]: expected object")
            results.append(_bound_entry(entry, f"{args.config}.entries[{i}]"))
        payload = {"schema": 1, "kind": "bounds", "results": results}
    elif kind == "mc":
        payload = {
            "schema": 1,
            "kind": "mc",
            "results": _risk_mc_report(doc, args.config, _threads_from_env()),
        }
    else:
        raise ConfigError(f"{args.config}.kind: expected 'bounds' or 'mc', got {kind!r}")
    _emit(_dumps(payload) + "\n", args.out)
    return 0


# -- experiment ----------------------------------------------------------------------


def _uniform_snapshot(n: int, k: int, c: int, seed: int, tag: int, rep: int):
    iv = simulate_spread(empty_graph(n), SpreadParams(eta=0.0, k=k), substream(seed, tag, rep)).to_infection(n)
    if c:
        iv = censor_uniform(iv, c, substream(seed, tag + 1, rep))
    return iv


def _baseline_row(
    entry: dict, path: str, etas: list[float], threads: int | None
) -> dict[str, Any]:
    algorithm = entry["algorithm"]
    alt = _graph_from(entry, "alt_graph", path)
    k = _need(entry, "k", int, path)
    c = _opt(entry, "c", int, path, 0)
    seed = _opt(entry, "seed", int, path, 0)
    reps = _need(entry, "replicates", int, path)
    if algorithm == "TB":
        d = _opt(entry, "d", int, path, 2)
        threshold = tb_threshold(d, alt.n, k, c)
        stat = StatisticSpec.infection_radius(alt)
        diagnosis = baseline_diagnosis(threshold, 0.0, eccentricity(alt, 0))
    else:
        threshold = tt_threshold(alt.n, k, c)
        stat = StatisticSpec.steiner_weight(alt)
        diagnosis = baseline_diagnosis(threshold, float(max(k - 1, 0)), float(alt.n - 1))

    if diagnosis == "always rejects":
        type_i, type_ii = 1.0, {eta: 0.0 for eta in etas}
    elif diagnosis == "never rejects":
        type_i, type_ii = 0.0, {eta: 1.0 for eta in etas}
    else:
        hits = 0
        for rep in range(reps):
            iv = _uniform_snapshot(alt.n, k, c, seed, 0, rep)
            if float(stat.evaluate(iv)) <= threshold:
                hits += 1
        type_i = hits / reps
        type_ii = {}
        for i, eta in enumerate(etas):
            misses = 0
            base = 10 * (i + 1)
            for rep in range(reps):
                p = simulate_spread(alt, SpreadParams(eta=eta, k=k), substream(seed, base, rep))
                iv = p.to_infection(alt.n)
                if c:
                    iv = censor_uniform(iv, c, substream(seed, base + 1, rep))
                if float(stat.evaluate(iv)) > threshold:
                    misses += 1
            type_ii[eta] = misses / reps
    return {
        "algorithm": algorithm,
        "statistic": stat.name,
        "threshold": threshold,
        "diagnosis": diagnosis,
        "type_i": type_i,
        "type_ii": type_ii,
    }


def _perm_row(
    entry: dict, path: str, etas: list[float], threads: int | None
) -> dict[str, Any]:
    alt = _graph_from(entry, "alt_graph", path)
    null_spec = _opt(entry, "null_graph", str, path, None)
    g0 = from_spec(null_spec) if null_spec else empty_graph(alt.n)
    stat = _statistic_from_name(_need(entry, "statistic", str, path), alt, path)
    mode = _opt(entry, "mode", str, path, "full")
    if mode not in ("full", "censor-fixed"):
        raise ConfigError(f"{path}.mode: expected 'full' or 'censor-fixed'")
    cfg = TestConfig(
        alpha=_need(entry, "alpha", float, path),
        B=_need(entry, "B", int, path),
        seed=_opt(entry, "seed", int, path, 0),
        mode=MODE_CENSOR_FIXING if mode == "censor-fixed" else MODE_FULL,
    )
    long_out = _opt(entry, "long_out", str, path, None)
    curve = mc_risk_curve(
        g0,
        alt,
        _opt(entry, "eta0", float, path, 0.0),
        etas,
        _need(entry, "k", int, path),
        _opt(entry, "c", int, path, 0),
        cfg,
        _need(entry, "replicates", int, path),
        stat=stat,
        threads=threads,
        collect_alt_values=long_out is not None,
    )
    if long_out is not None:
        lines = [f"eta,replicate,{stat.name}"]
        for eta in etas:
            for rep, value in enumerate(curve.alt_values[eta]):
                lines.append(f"{_fmt(eta)},{rep},{_fmt(value)}")
        with open(long_out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return {
        "algorithm": "perm",
        "statistic": stat.name,
        "threshold": curve.mean_threshold,
        "diagnosis": "data-dependent",
        "type_i": curve.type_i,
        "type_ii": curve.type_ii,
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    doc = _load_config(args.config)
    entries = _need(doc, "entries", list, args.config)
    if not entries:
        raise ConfigError(f"{args.config}.entries: must be non-empty")
    threads = _threads_from_env()
    rows = []
    grid: list[float] | None = None
    for i, entry in enumerate(entries):
        path = f"{args.config}.entries[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected object")
        etas = _eta_list(entry, path)
        if grid is None:
            grid = etas
        elif etas != grid:
            raise ConfigError(f"{path}.etas: all entries must share one eta grid")
        algorithm = _need(entry, "algorithm", str, path)
        if algorithm == "perm":
            rows.append(_perm_row(entry, path, etas, threads))
        elif algorithm in ("TB", "TT"):
            rows.append(_baseline_row(entry, path, etas, threads))
        else:
            raise ConfigError(f"{path}.algorithm: expected perm, TB, or TT")
    header = ["algorithm", "statistic", "threshold", "diagnosis", "typeI"]
    header += [f"typeII@eta={_fmt(eta)}" for eta in grid]
    lines = [",".join(header)]
    for row in rows:
        cells = [
            row["algorithm"],
            row["statistic"],
            _fmt(row["threshold"]),
            row["diagnosis"],
            _fmt(row["type_i"]),
        ]
        cells += [_fmt(row["type_ii"][eta]) for eta in grid]
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- parser ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netspread",
        description="Permutation tests for infection snapshots on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a spread and write a status file")
    sim.add_argument("--graph", required=True, help="graph spec, e.g. cycle:10 or file:edges.txt")
    sim.add_argument("--eta", type=float, required=True)
    sim.add_argument("--k", type=int, required=True)
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--c", type=int, default=0, help="censor this many uniform vertices")
    group.add_argument("--censor-file", help="file with one vertex label per line to censor")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    test = sub.add_parser("test", help="run a permutation test on a status file")
    test.add_argument("--null-graph", required=True)
    test.add_argument("--alt-graph", required=True)
    test.add_argument("--statistic", choices=_STAT_FLAGS, required=True)
    test.add_argument("--infection", required=True, help="status file path")
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--B", type=int, default=1000)
    test.add_argument("--mode", choices=("full", "censor-fixed"), default="full")
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--json", action="store_true")
    test.add_argument("--center", help="center vertex label for the C statistic")
    test.add_argument("--orbit-vertex", help="orbit seed vertex label for the orbit statistic")
    test.add_argument("--debug-dump", help="write every resampled status vector to this file")
    test.set_defaults(func=_cmd_test)

    risk = sub.add_parser("risk", help="evaluate risk bounds or Monte-Carlo risk from a config")
    risk.add_argument("--config", required=True)
    risk.add_argument("--out")
    risk.set_defaults(func=_cmd_risk)

    base = sub.add_parser("baseline", help="threshold baselines and their diagnosis")
    base.add_argument("--config", required=True)
    base.add_argument("--json", action="store_true")
    base.set_defaults(func=_cmd_baseline)

    chk = sub.add_parser("check-aut", help="check the automorphism validity condition")
    chk.add_argument("null_graph", help="null-hypothesis graph spec")
    chk.add_argument("alt_graph", help="alternative-hypothesis graph spec")
    chk.set_defaults(func=_cmd_check_aut)

    exp = sub.add_parser("experiment", help="run a table of tests from a config, emit CSV")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 4
    except NetspreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
