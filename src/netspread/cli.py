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
from contextlib import contextmanager, suppress
from functools import cache
from math import factorial, isfinite
from typing import Any, Callable, Iterator, Sequence, TextIO

from .errors import ConfigError, GuardExceededError, NetspreadError, ParseError
from .graphs import Graph, from_spec
from .permtest import (
    MODE_CENSOR_FIXING,
    MODE_FULL,
    TestConfig,
    _resampled,
    mc_test,
    validity_with_guard,
)
from .risk import (
    BaselineRule,
    RiskCurve,
    RiskInputs,
    baseline_risk_curve,
    baseline_rule,
    cascade_count_cycle,
    center_test_risk_bounds,
    h_eta,
    line_cycle_bound,
    mc_risk_curve,
    mc_risk_curves,
    min_cascade_count,
    multi_spread_bounds,
    star_null_risk_bound,
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
# the --mode and config "mode" names of the TestConfig modes
_MODES = {"full": MODE_FULL, "censor-fixed": MODE_CENSOR_FIXING}


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


# -- config plumbing -----------------------------------------------------------


def _read_text(path: str, what: str = "") -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what}{path}: {exc}") from exc


@contextmanager
def _outputs(
    paths: Sequence[str | None], claimed: Sequence[str | None] = ()
) -> Iterator[list[TextIO | None]]:
    """One text file per output path (None for None), written as
    PATH.<pid>.partial beside it and moved onto PATH once the block
    succeeds. Every partial is created before the block runs, and an
    unwritable path, a directory included, raises ParseError (exit 3)
    there; a failed block removes them, so it creates no output and
    leaves an existing file as it was. A path named twice, or also in
    claimed (the paths an enclosing _outputs holds), raises ParseError
    before any partial is created."""

    def where(path: str) -> str:
        # the file's own name is kept, so a symlink there is an output of its own
        return os.path.join(os.path.realpath(os.path.dirname(path) or "."), os.path.basename(path))

    seen = {where(path) for path in claimed if path is not None}
    for path in filter(None, paths):
        if where(path) in seen:
            raise ParseError(f"cannot write {path}: named by two outputs")
        seen.add(where(path))
    files: list[TextIO | None] = []
    try:
        for path in paths:
            if path is None:
                files.append(None)
                continue
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError("is a directory")
                files.append(open(f"{path}.{os.getpid()}.partial", "x", encoding="utf-8", newline=""))
            except OSError as exc:
                raise ParseError(f"cannot write {path}: {exc}") from exc
        yield files
        for path, fh in zip(paths, files):
            if fh is not None:
                fh.close()
                try:
                    os.replace(fh.name, path)
                except OSError as exc:
                    raise ParseError(f"cannot write {path}: {exc}") from exc
    finally:
        for fh in filter(None, files):
            fh.close()
            with suppress(OSError):  # gone after the replace; a failed cleanup must not hide an error
                os.remove(fh.name)


def _vertex(g: Graph, label: str, error: type[Exception], where: str) -> int:
    """g's index of label; an unknown label raises error naming where it came from."""
    try:
        return g.index_of(label)
    except KeyError:
        raise error(f"{where}: unknown vertex label {label!r}") from None


def _load_config(path: str) -> dict:
    text = _read_text(path, "config ")
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
    seen: dict[str, int] = {}  # printed text -> index, as keys and headers show etas
    for i, x in enumerate(raw):
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not x >= 0:
            raise ConfigError(f"{path}.etas[{i}]: expected number >= 0")
        text = _fmt(float(x))
        if text in seen:
            raise ConfigError(f"{path}.etas[{i}]: prints as {text}, the same as etas[{seen[text]}]")
        seen[text] = i
        out.append(float(x))
    return out


# -- simulate -------------------------------------------------------------------


def _read_label_file(path: str) -> list[str]:
    labels = []
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            labels.append(line)
    if not labels:
        raise ParseError(f"{path}: no labels found")
    return labels


def _cmd_simulate(args: argparse.Namespace) -> None:
    g = from_spec(args.graph)
    params = SpreadParams(eta=args.eta, k=args.k)
    path = simulate_spread(g, params, substream(args.seed, 0))
    iv = path.to_infection(g.n)
    if args.censor_file is not None:
        labels = _read_label_file(args.censor_file)
        iv = censor_fixed(iv, [_vertex(g, lab, ParseError, args.censor_file) for lab in labels])
    elif args.c:
        iv = censor_uniform(iv, args.c, substream(args.seed, 1))
    write_status_file(args.out_file, iv, labels=[g.label_of(v) for v in range(g.n)])


# -- test -----------------------------------------------------------------------


def _cmd_test(args: argparse.Namespace) -> None:
    null_graph = from_spec(args.null_graph)
    alt = from_spec(args.alt_graph)
    labels, codes = read_status_file(_read_text(args.infection))
    iv = align_to_graph(alt, labels, codes)
    label = {"C": args.center, "orbit": args.orbit_vertex}.get(args.statistic)
    flag = "--center" if args.statistic == "C" else "--orbit-vertex"
    vertex = _vertex(alt, label, ValueError, flag) if label is not None else 0
    stat = StatisticSpec.from_name(args.statistic, alt, vertex)
    cfg = TestConfig(alpha=args.alpha, B=args.B, seed=args.seed, mode=_MODES[args.mode])

    with _outputs([args.debug_dump]) as (dump,):
        result = mc_test(stat, iv, cfg, null_graph=null_graph)
        if dump is not None:
            chars = {0: "0", 1: "1", 2: "*"}
            for permuted in _resampled(iv.status[None], cfg):
                dump.write("".join(chars[int(s)] for s in permuted) + "\n")

    observed, threshold, direction = result.raw_scale()
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


# -- check-aut --------------------------------------------------------------------


def _cmd_check_aut(args: argparse.Namespace) -> None:
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


# -- baseline ---------------------------------------------------------------------


def _cmd_baseline(args: argparse.Namespace) -> None:
    doc = _load_config(args.config)
    g = _graph_from(doc, "graph", args.config)
    k = _need(doc, "k", int, args.config)
    c = _opt(doc, "c", int, args.config, 0)
    d = _opt(doc, "d", int, args.config, 2)
    tb = baseline_rule("TB", g, k, c, d)
    tt = baseline_rule("TT", g, k, c)
    report = {
        "n": g.n,
        "k": k,
        "c": c,
        "d": d,
        "tb_threshold": tb.threshold,
        "tb_diagnosis": tb.diagnosis,
        "radius_ceiling": tb.ceiling,
        "tt_threshold": tt.threshold,
        "tt_diagnosis": tt.diagnosis,
        "tree_ceiling": tt.ceiling,
    }
    if args.json:
        print(_dumps(report))
        return
    print(
        f"ball-radius baseline: threshold {_fmt(report['tb_threshold'])} "
        f"(floor {_fmt(float(int(report['tb_threshold'])))}), statistic ceiling "
        f"{_fmt(report['radius_ceiling'])} -> {report['tb_diagnosis']}"
    )
    print(
        f"tree-weight baseline: threshold {_fmt(report['tt_threshold'])}, "
        f"statistic ceiling {_fmt(float(report['tree_ceiling']))} -> {report['tt_diagnosis']}"
    )


# -- risk --------------------------------------------------------------------------


def _c_k(entry: dict, path: str, k: int) -> float:
    """c_k as given, else the minimum cascade count of "graph", else the cycle's."""
    if "c_k" in entry:
        return _need(entry, "c_k", float, path)
    if "graph" in entry:
        return float(min_cascade_count(_graph_from(entry, "graph", path), k))
    return float(cascade_count_cycle(k))


def _bound_entry(entry: dict, path: str) -> dict[str, Any]:
    etype = _need(entry, "type", str, path)
    out: dict[str, Any] = {"type": etype}
    if etype == "h-eta":
        out["value"] = h_eta(
            _need(entry, "n", int, path),
            _need(entry, "k", int, path),
            _need(entry, "eta", float, path),
            _need(entry, "nt_min", float, path),
        )
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
        c_k = _c_k(entry, path, inputs.k)
        bound = star_null_risk_bound(inputs, c_k, nt_min=_opt(entry, "nt_min", float, path, 2.0))
        out.update(c_k=c_k, value=bound.value, vacuous=bound.vacuous)
    elif etype == "center":
        lower, upper = center_test_risk_bounds(inputs)
        out.update(lower=lower, upper=upper)
    elif etype == "multi-spread":
        c_k = _c_k(entry, path, inputs.k)
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


_McSettings = tuple[Graph, Graph, float, int, int, TestConfig, int]


def _mc_settings(
    entry: dict, path: str, load: Callable[[str], Graph], statistic: str | None = None
) -> tuple[_McSettings, str]:
    """The settings and statistic name of a Monte Carlo config, its graphs
    built by load. The settings are the arguments of mc_risk_curves but
    etas and the statistics, with defaults applied: (g0, alt, eta0, k,
    c, cfg, reps). Runs with equal settings and one eta grid share their
    replicate snapshots.

    statistic is the name used when the entry gives none; without one
    the entry must name W, R or T. The null graph defaults to the empty
    graph on the alternative's vertices.
    """
    alt = load(_need(entry, "alt_graph", str, path))
    null_spec = _opt(entry, "null_graph", str, path, None)
    g0 = load(null_spec or f"empty:{alt.n}")
    if statistic is None:
        statistic = _need(entry, "statistic", str, path)
    name = _opt(entry, "statistic", str, path, statistic)
    if name not in ("W", "R", "T"):
        raise ConfigError(f"{path}.statistic: expected W, R, or T, got {name!r}")
    mode = _opt(entry, "mode", str, path, "full")
    if mode not in _MODES:
        raise ConfigError(f"{path}.mode: expected {' or '.join(map(repr, _MODES))}")
    cfg = TestConfig(
        alpha=_need(entry, "alpha", float, path),
        B=_need(entry, "B", int, path),
        seed=_opt(entry, "seed", int, path, 0),
        mode=_MODES[mode],
    )
    eta0 = _opt(entry, "eta0", float, path, 0.0)
    k = _need(entry, "k", int, path)
    c = _opt(entry, "c", int, path, 0)
    return (g0, alt, eta0, k, c, cfg, _need(entry, "replicates", int, path)), name


def _cmd_risk(args: argparse.Namespace) -> None:
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
    elif kind == "mc":
        etas = _eta_list(doc, args.config)
        (g0, alt, eta0, k, c, cfg, reps), name = _mc_settings(doc, args.config, from_spec, statistic="W")
        stat = StatisticSpec.from_name(name, alt)
        curve = mc_risk_curve(g0, alt, eta0, etas, k, c, cfg, reps, stat)
        results = {
            "statistic": stat.name,
            "type_i": curve.type_i,
            "mean_threshold": curve.mean_threshold,
            "type_ii": {_fmt(eta): curve.type_ii[eta] for eta in etas},
            "replicates": curve.reps,
        }
    else:
        raise ConfigError(f"{args.config}.kind: expected 'bounds' or 'mc', got {kind!r}")
    (args.out_file or sys.stdout).write(_dumps({"schema": 1, "kind": kind, "results": results}) + "\n")


# -- experiment ----------------------------------------------------------------------


def _baseline_setup(
    entry: dict, path: str, algorithm: str, load: Callable[[str], Graph]
) -> tuple[BaselineRule, int, int, int, int]:
    """The TB or TT rule of an entry, with its k, c, replicates and seed."""
    alt = load(_need(entry, "alt_graph", str, path))
    k = _need(entry, "k", int, path)
    c = _opt(entry, "c", int, path, 0)
    seed = _opt(entry, "seed", int, path, 0)
    reps = _need(entry, "replicates", int, path)
    d = _opt(entry, "d", int, path, 2) if algorithm == "TB" else 2
    return baseline_rule(algorithm, alt, k, c, d), k, c, reps, seed


def _cmd_experiment(args: argparse.Namespace) -> None:
    """Read every entry, then run the rows: perm rows with equal settings
    in one mc_risk_curves call when the first of them is reached, each
    TB/TT row in one baseline_risk_curve call. Rows and long_out files
    keep entry order."""
    doc = _load_config(args.config)
    entries = _need(doc, "entries", list, args.config)
    if not entries:
        raise ConfigError(f"{args.config}.entries: must be non-empty")
    load = cache(from_spec)  # one graph per spec for the whole experiment
    rows = []  # (algorithm, statistic, perm settings or baseline setup, long_out)
    groups: dict[_McSettings, list[str]] = {}  # settings -> its perm rows' statistics
    grid: list[float] = []
    for i, entry in enumerate(entries):
        path = f"{args.config}.entries[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected object")
        etas = _eta_list(entry, path)
        if i == 0:
            grid = etas
        elif etas != grid:
            raise ConfigError(f"{path}.etas: all entries must share one eta grid")
        algorithm = _need(entry, "algorithm", str, path)
        if algorithm == "perm":
            long_out = _opt(entry, "long_out", str, path, None)
            settings, name = _mc_settings(entry, path, load)
            names = groups.setdefault(settings, [])
            if name not in names:
                names.append(name)
            rows.append((algorithm, name, settings, long_out))
        elif algorithm in ("TB", "TT"):
            setup = _baseline_setup(entry, path, algorithm, load)
            rows.append((algorithm, setup[0].stat.name, setup, None))
        else:
            raise ConfigError(f"{path}.algorithm: expected perm, TB, or TT")

    long_outs = [long_out for *_, long_out in rows if long_out is not None]
    curves: dict[_McSettings, dict[str, RiskCurve]] = {}
    lines = []
    with _outputs(long_outs, claimed=[args.out]) as files:
        long_files = dict(zip(long_outs, files))
        for algorithm, name, setup, long_out in rows:
            if algorithm == "perm":
                if setup not in curves:
                    g0, alt, eta0, k, c, cfg, reps = setup
                    stats = [StatisticSpec.from_name(s, alt) for s in groups[setup]]
                    group = mc_risk_curves(g0, alt, eta0, grid, k, c, cfg, reps, stats)
                    curves[setup] = dict(zip(groups[setup], group))
                curve = curves[setup][name]
                threshold, diagnosis = curve.mean_threshold, "data-dependent"
            else:
                rule, k, c, reps, seed = setup
                curve = baseline_risk_curve(rule, grid, k, c, reps, seed)
                threshold, diagnosis = rule.threshold, rule.diagnosis
            if long_out is not None:
                values = curve.alt_values
                cells = [f"{_fmt(eta)},{rep},{_fmt(v)}" for eta in grid for rep, v in enumerate(values[eta])]
                long_files[long_out].write("\n".join([f"eta,replicate,{name}", *cells]) + "\n")
            cells = [algorithm, name, _fmt(threshold), diagnosis, _fmt(curve.type_i)]
            lines.append(",".join(cells + [_fmt(curve.type_ii[eta]) for eta in grid]))
        header = ["algorithm", "statistic", "threshold", "diagnosis", "typeI"]
        header += [f"typeII@eta={_fmt(eta)}" for eta in grid]
        (args.out_file or sys.stdout).write("\n".join([",".join(header), *lines]) + "\n")


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
    test.add_argument("--mode", choices=tuple(_MODES), default="full")
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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args keeps no
    state between calls, so a parser per command is only a fixed cost."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        with _outputs([out]) as (args.out_file,):
            args.func(args)
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
    if out is not None:
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
