"""Span tracing of netspread's public entry points, from outside the package.

The tracer replaces each traced function with a wrapper in every
netspread module that binds it (``from .x import f`` makes a second
binding), plus a few methods on their classes. A wrapper opens a span
named ``<layer>.<what>``, runs the original, and closes the span.

Spans are aggregated as they close rather than stored: each open span
keeps the time its direct children covered, so on close its self time
is its duration minus that, and the parent learns the child's
duration. A span's duration also counts as "outer" only when no
enclosing span has the same name, so nested constructors
(``from_spec`` -> ``torus_grid`` -> ``build_graph``, all
``graphs.build``) are not counted twice.

The package's source is not modified; everything here is undone by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_clock = time.process_time  # CPU time, as the end-to-end metrics


class _Agg:
    __slots__ = ("calls", "total", "self_time", "outer")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.outer = 0.0


class Tracer:
    """Aggregates spans and counters; installs and removes the wrappers."""

    def __init__(self, sample_per_stat: int = 0) -> None:
        self.aggs: dict[str, _Agg] = defaultdict(_Agg)
        self.counters: dict[str, float] = defaultdict(float)
        self.validity_pairs: set = set()
        # captured (stat, iv, cfg, result, null graph) tuples for output checks
        self.samples: list[tuple] = []
        self.sample_per_stat = sample_per_stat
        self._sampled: dict[str, int] = defaultdict(int)
        # every snapshot handed to a Monte-Carlo test: (k, c)
        self.snapshot_counts: list[tuple[int, int]] = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._graph_keys: dict[int, tuple] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, _clock(), 0.0, self._depth[name] == 0]
        self._depth[name] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        name, start, child, outermost = frame
        self._depth[name] -= 1
        dur = end - start
        agg = self.aggs[name]
        agg.calls += 1
        agg.total += dur
        agg.self_time += dur - child
        if outermost:
            agg.outer += dur
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, fn, name: str, after=None, name_of=None):
        """Wrap fn in a span; after(result, args, kwargs) runs once it closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr everywhere a netspread module binds it."""
        original = getattr(module, attr)
        wrapped = self.span(original, name, after=after)
        for modname, mod in list(sys.modules.items()):
            if modname != "netspread" and not modname.startswith("netspread."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None, name_of=None) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, self.span(original, name, after=after, name_of=name_of))

    def patch_cached_property(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        prop = functools.cached_property(self.span(original.func, name, after=after))
        prop.__set_name__(cls, attr)
        self._set(cls, attr, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- phases -------------------------------------------------------------

    def take(self) -> dict:
        """Return the aggregates so far as plain data and start afresh."""
        out = {
            "spans": {
                k: {"calls": a.calls, "total": a.total, "self": a.self_time, "outer": a.outer}
                for k, a in self.aggs.items()
            },
            "counters": dict(self.counters),
            "pairs": len(self.validity_pairs),
        }
        self.aggs.clear()
        self.counters.clear()
        self.validity_pairs.clear()
        return out

    def graph_key(self, g) -> tuple:
        """A structural key per graph object, hashed once; keeps g alive so ids stay unique."""
        if id(g) not in self._graph_keys:
            self._graph_keys[id(g)] = (g, hash(g))
        return self._graph_keys[id(g)][1]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured netspread module."""
    import netspread.cli as cli
    import netspread.graphs as graphs
    import netspread.perms as perms
    import netspread.permtest as permtest
    import netspread.risk as risk
    import netspread.rng as rng
    import netspread.spreading as spreading
    import netspread.stats as stats

    counters = tracer.counters

    # graphs: every public constructor, distances and BFS
    for attr in (
        "build_graph", "empty_graph", "complete_graph", "star_graph", "cycle_graph",
        "path_graph", "torus_grid", "erdos_renyi", "two_block", "correlated_pair",
        "generate", "from_spec", "load_edge_list",
    ):
        tracer.patch_function(graphs, attr, "graphs.build")

    def dmat_done(mat, args, kwargs):
        counters["dmat_bytes"] += mat.nbytes

    tracer.patch_cached_property(graphs.Graph, "distance_matrix", "graphs.distance_matrix", after=dmat_done)
    tracer.patch_function(graphs, "bfs_distances", "graphs.bfs")

    # spreading
    def spread_done(path, args, kwargs):
        counters["infections"] += path.k

    tracer.patch_function(spreading, "simulate_spread", "spreading.simulate", after=spread_done)
    tracer.patch_function(spreading, "censor_uniform", "spreading.censor")
    tracer.patch_function(spreading, "censor_fixed", "spreading.censor")
    for attr in ("read_status_file", "write_status_file", "align_to_graph"):
        tracer.patch_function(spreading, attr, "spreading.status_io")
    tracer.patch_method(spreading.InfectionVector, "__post_init__", "spreading.infection_vector")

    # stats: one span per evaluation, named by statistic
    def evaluated(value, args, kwargs):
        spec, iv = args[0], args[1]
        if spec.kind == "infection_radius":
            mat = spec.graph.__dict__.get("distance_matrix")
            if mat is not None:
                counters["R_bytes"] += iv.k * mat.shape[1] * mat.itemsize

    tracer.patch_method(
        stats.StatisticSpec, "evaluate", "stats.evaluate", after=evaluated,
        name_of=lambda args: "stats.evaluate." + args[0].name,
    )

    # permtest
    def tested(result, args, kwargs):
        counters["draws"] += result.n_draws
        stat, iv = args[0], args[1]
        tracer.snapshot_counts.append((iv.k, iv.c))
        if tracer._sampled[stat.name] < tracer.sample_per_stat:
            tracer._sampled[stat.name] += 1
            tracer.samples.append((stat, iv, args[2], result, kwargs.get("null_graph")))

    tracer.patch_function(permtest, "mc_test", "permtest.mc_test", after=tested)
    tracer.patch_function(permtest, "conditional_mc_test", "permtest.conditional_mc_test", after=tested)

    def validity_done(verdict, args, kwargs):
        tracer.validity_pairs.add((tracer.graph_key(args[0]), tracer.graph_key(args[1])))

    tracer.patch_function(permtest, "check_validity", "permtest.validity", after=validity_done)

    # perms
    tracer.patch_function(perms, "automorphism_group", "perms.automorphism")
    tracer.patch_function(perms, "product_group_is_full", "perms.product")

    # risk
    def curve_done(curve, args, kwargs):
        counters["replicates"] += curve.reps

    tracer.patch_function(risk, "mc_risk_curve", "risk.mc_risk_curve", after=curve_done)

    # rng
    tracer.patch_function(rng, "substream", "rng.substream")

    # cli: the benchmark calls cli.main through the module attribute
    tracer.patch_function(cli, "main", "cli.main")


# -- per-layer metrics ----------------------------------------------------------

STATS = ("W", "R", "T", "C", "orbit")

PER_LAYER = [
    ("graphs.build_ms", "ms", "lower"),
    ("graphs.distance_matrix_ms", "ms", "lower"),
    ("graphs.distance_matrix_mb", "MB", "lower"),
    ("graphs.bfs_calls", "count", "lower"),
    ("spreading.simulate_calls", "count", "higher"),
    ("spreading.simulate_ms", "ms", "lower"),
    ("spreading.us_per_infection", "us", "lower"),
    ("spreading.infection_vectors", "count", "lower"),
    ("spreading.infection_vector_ms", "ms", "lower"),
    ("spreading.infection_vectors_per_draw", "ratio", "lower"),
    ("spreading.status_io_ms", "ms", "lower"),
    *[(f"stats.score_calls.{s}", "count", "lower") for s in STATS],
    *[(f"stats.score_us.{s}", "us", "lower") for s in STATS],
    ("stats.R_bytes_per_score", "B", "lower"),
    ("permtest.tests", "count", "higher"),
    ("permtest.draws", "count", "higher"),
    ("permtest.self_ms", "ms", "lower"),
    ("permtest.validity_calls", "count", "lower"),
    ("permtest.validity_ms", "ms", "lower"),
    ("permtest.validity_calls_per_pair", "ratio", "lower"),
    ("perms.automorphism_calls", "count", "lower"),
    ("perms.automorphism_ms", "ms", "lower"),
    ("perms.product_ms", "ms", "lower"),
    ("risk.replicates", "count", "higher"),
    ("risk.self_ms", "ms", "lower"),
    ("rng.substreams", "count", "lower"),
    ("rng.substream_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
]


def _combine(setup: dict, timed: dict, rounds: int) -> dict:
    """One set-up plus one average round of the timed phase."""
    spans: dict[str, dict[str, float]] = {}
    for name in set(setup["spans"]) | set(timed["spans"]):
        a = setup["spans"].get(name, {})
        b = timed["spans"].get(name, {})
        spans[name] = {
            key: a.get(key, 0.0) + b.get(key, 0.0) / rounds
            for key in ("calls", "total", "self", "outer")
        }
    counters = {
        key: setup["counters"].get(key, 0.0) + timed["counters"].get(key, 0.0) / rounds
        for key in set(setup["counters"]) | set(timed["counters"])
    }
    return {"spans": spans, "counters": counters}


def per_layer_metrics(setup: dict, timed: dict, rounds: int) -> dict[str, float]:
    """Derive every per-layer metric; see bench/README.md for definitions."""
    both = _combine(setup, timed, rounds)
    spans, counters = both["spans"], both["counters"]

    def field(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(layer: str) -> float:
        return sum(s["self"] for n, s in spans.items() if n.split(".", 1)[0] == layer)

    ms = 1e3
    out = {
        "graphs.build_ms": field("graphs.build", "outer") * ms,
        "graphs.distance_matrix_ms": field("graphs.distance_matrix", "total") * ms,
        "graphs.distance_matrix_mb": counters.get("dmat_bytes", 0.0) / 1e6,
        "graphs.bfs_calls": field("graphs.bfs", "calls"),
        "spreading.simulate_calls": field("spreading.simulate", "calls"),
        "spreading.simulate_ms": field("spreading.simulate", "total") * ms,
        "spreading.us_per_infection": ratio(
            field("spreading.simulate", "total") * 1e6, counters.get("infections", 0.0)
        ),
        "spreading.infection_vectors": field("spreading.infection_vector", "calls"),
        "spreading.infection_vector_ms": field("spreading.infection_vector", "total") * ms,
        "spreading.infection_vectors_per_draw": ratio(
            field("spreading.infection_vector", "calls"), counters.get("draws", 0.0)
        ),
        "spreading.status_io_ms": field("spreading.status_io", "outer") * ms,
    }
    for s in STATS:
        name = f"stats.evaluate.{s}"
        out[f"stats.score_calls.{s}"] = field(name, "calls")
        out[f"stats.score_us.{s}"] = ratio(field(name, "total") * 1e6, field(name, "calls"))
    out["stats.R_bytes_per_score"] = ratio(
        counters.get("R_bytes", 0.0), field("stats.evaluate.R", "calls")
    )
    tests = field("permtest.mc_test", "calls") + field("permtest.conditional_mc_test", "calls")
    out.update({
        "permtest.tests": tests,
        "permtest.draws": counters.get("draws", 0.0),
        "permtest.self_ms": (
            field("permtest.mc_test", "self") + field("permtest.conditional_mc_test", "self")
        ) * ms,
        "permtest.validity_calls": field("permtest.validity", "calls"),
        "permtest.validity_ms": field("permtest.validity", "total") * ms,
        # calls per distinct (null, alt) pair within one round
        "permtest.validity_calls_per_pair": ratio(
            timed["spans"].get("permtest.validity", {}).get("calls", 0.0) / rounds,
            timed["pairs"],
        ),
        "perms.automorphism_calls": field("perms.automorphism", "calls"),
        "perms.automorphism_ms": field("perms.automorphism", "outer") * ms,
        "perms.product_ms": field("perms.product", "outer") * ms,
        "risk.replicates": counters.get("replicates", 0.0),
        "risk.self_ms": layer_self("risk") * ms,
        "rng.substreams": field("rng.substream", "calls"),
        "rng.substream_ms": field("rng.substream", "total") * ms,
        "cli.self_ms": layer_self("cli") * ms,
    })
    return out
