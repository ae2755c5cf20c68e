"""The three benchmark workloads: set-up, one timed round, output checks.

Every workload runs on netspread's default serial path and reaches the
package only through its public API or its CLI entry point
``netspread.cli.main``, called in-process. A round is a fixed list of
operations; the timed phase runs whole rounds, each with inputs drawn
from its own seed, so the share of failed operations is the same in
every run. Checks compare outputs with the independent oracles in
``oracles.py`` and run after the timed phase, so their cost and memory
stay out of every metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path



def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    The benchmark times CPU rather than wall-clock: on a shared host the
    hypervisor takes the core away for whole seconds, which moved
    wall-clock medians of identical runs by 20%.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


_clock = cpu_clock

# CPU seconds calibrate() took on the reference host (2-CPU Xeon,
# Python 3.11.7, numpy 2.4.6); setup_s and tests_per_s are scaled to it
CALIBRATION_REF_S = 0.048


def calibrate() -> float:
    """CPU seconds of a fixed kernel that shares no code with netspread.

    It mixes what the workloads spend their time on: interpreted Python,
    many small numpy calls, and repeated reads of a 1 MB array (small, so
    that it stays under every workload's peak resident set). Run
    between rounds, its time tracks how fast the host runs this process
    at the moment, which drifts by 10-15% between runs on a shared host.
    """
    import numpy as np

    start = cpu_clock()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    a = np.arange(400, dtype=np.float64)
    for _ in range(1500):
        a = np.cumsum(a % 7.0)
        a[np.argsort(a)[:3]] = 1.0
    block = np.random.default_rng(0).random((125, 1000))
    for _ in range(40):
        block.max(axis=0).sum()
    return cpu_clock() - start

# one-sided Clopper-Pearson tail for every rate check: a correct
# program fails a check this rarely, however many runs are made
CP_TAIL = 1e-6


def round_seed(workload: str, seed: int, rnd: int) -> int:
    """The seed of one round, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{rnd}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Round:
    seconds: float          # time spent in the round's measured operations
    attempted: int
    failed: int
    tests: int              # permutation tests completed
    latencies: dict[str, float] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int | str, str, float]:
    """Call netspread.cli.main in-process: (exit code or exception, stdout, seconds)."""
    import netspread.cli as cli

    out = io.StringIO()
    start = _clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is the failure being measured
        code = type(exc).__name__
    return code, out.getvalue(), _clock() - start


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


# -- rate checks shared by the two risk workloads ---------------------------------


def rate_problems(label: str, rej0: int, miss: dict[float, int], reps: int, alpha: float,
                  full_power: bool) -> list[str]:
    """Level, power and monotone-miss checks on counts over `reps` replicates."""
    from oracles import cp_lower, cp_upper

    bad = []
    if cp_lower(rej0, reps, CP_TAIL) > alpha:
        bad.append(f"{label}: Type I {rej0}/{reps} exceeds alpha={alpha}")
    etas = sorted(miss)
    if full_power and cp_lower(miss[etas[-1]], reps, CP_TAIL) > 0.01:
        bad.append(f"{label}: Type II {miss[etas[-1]]}/{reps} at eta={etas[-1]} above 0.01")
    if not full_power:
        for lo, hi in zip(etas, etas[1:]):
            if cp_lower(miss[hi], reps, CP_TAIL) > cp_upper(miss[lo], reps, CP_TAIL):
                bad.append(f"{label}: miss rate rises from eta={lo} to eta={hi}")
    return bad


def sample_problems(samples) -> list[str]:
    """Invariants of captured TestResults, and observed W/R against the oracles."""
    import oracles

    bad = []
    nx_graphs: dict[int, tuple] = {}  # id -> (graph, networkx copy); holding g keeps ids unique
    for stat, iv, cfg, res, null_graph in samples:
        tag = f"{stat.name} test"
        hist = res.histogram
        if res.reject != (res.observed > res.threshold):
            bad.append(f"{tag}: reject != observed > threshold")
        if res.p_value != (res.raw_ge_count + 1) / (cfg.B + 1):
            bad.append(f"{tag}: p-value is not (tail+1)/(B+1)")
        if sum(c for _, c in hist) != cfg.B or res.n_draws != cfg.B:
            bad.append(f"{tag}: histogram does not sum to B")
        if res.raw_ge_count != sum(c for v, c in hist if v >= res.observed):
            bad.append(f"{tag}: tail count disagrees with the histogram")
        if res.saturated:
            if res.threshold != max(v for v, _ in hist):
                bad.append(f"{tag}: saturated threshold is not the top draw")
        elif sum(c for v, c in hist if v > res.threshold) > cfg.alpha * cfg.B + 1e-9:
            bad.append(f"{tag}: more than alpha*B draws above the threshold")
        status = iv.status.tolist()
        g = stat.graph
        if stat.name in ("W", "R"):
            if id(g) not in nx_graphs:
                nx_graphs[id(g)] = (g, oracles.nx_graph(g.n, g.edges))
            nxg = nx_graphs[id(g)][1]
            want = oracles.edges_within(nxg.edges, status) if stat.name == "W" else -oracles.radius(nxg, status)
            if res.observed != want:
                bad.append(f"{tag}: observed {res.observed} but the oracle gives {want}")
        if null_graph is not None and g is not None:
            verdict = oracles.coverage_verdict(g.n, null_graph.edges, g.edges)
            if not _validity_agrees(res.validity_warning or "valid", verdict):
                bad.append(f"{tag}: validity {res.validity_warning!r} contradicts oracle {verdict}")
    return bad


def _validity_agrees(field_value: str, verdict: bool | None) -> bool:
    if verdict is None or field_value.startswith("unverifiable"):
        return True
    return field_value.startswith("valid") if verdict else field_value.startswith("invalid")


# -- grid-risk ---------------------------------------------------------------------


class GridRisk:
    """`netspread experiment` with W and R rows, 20x20 torus vs empty:400."""

    name = "grid-risk"
    etas = [1.0, 10.0, 100.0]
    reps = 20        # replicates per entry in one round
    alpha = 0.01
    sample_per_stat = 4
    snapshot_kc = (80, 80)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.counts = {"W": [0, {e: 0 for e in self.etas}], "R": [0, {e: 0 for e in self.etas}]}
        self.total_reps = 0
        self.problems: list[str] = []

    def imports(self) -> None:
        import netspread.cli  # noqa: F401

    def _config(self, seed: int, reps: int) -> Path:
        entry = {
            "algorithm": "perm", "alt_graph": "torus:20x20", "null_graph": "empty:400",
            "k": 80, "c": 80, "alpha": self.alpha, "B": 100, "etas": self.etas,
            "replicates": reps, "seed": seed,
        }
        doc = {"schema": 1, "entries": [dict(entry, statistic="W"), dict(entry, statistic="R")]}
        path = self.workdir / "experiment.json"
        path.write_text(json.dumps(doc))
        return path

    def setup(self) -> None:
        # warm-up: one replicate of the same experiment
        code, _, _ = run_cli(["experiment", "--config", str(self._config(round_seed(self.name, self.seed, -1), 1))])
        if code != 0:
            raise RuntimeError(f"warm-up experiment failed: {code}")

    def round(self, rnd: int) -> Round:
        path = self._config(round_seed(self.name, self.seed, rnd), self.reps)
        code, out, secs = run_cli(["experiment", "--config", str(path)])
        tests = 2 * self.reps * (1 + len(self.etas))
        if code != 0:
            self.problems.append(f"round {rnd}: experiment exited {code}")
            return Round(secs, tests, tests, 0)
        self._tally(out, rnd)
        return Round(secs, tests, 0, tests)

    def _tally(self, csv: str, rnd: int) -> None:
        lines = csv.strip().splitlines()
        header = lines[0].split(",")
        want = ["algorithm", "statistic", "threshold", "diagnosis", "typeI"] + [
            f"typeII@eta={e:g}" for e in self.etas
        ]
        if header != want or len(lines) != 3:
            self.problems.append(f"round {rnd}: unexpected CSV header {header}")
            return
        self.total_reps += self.reps
        for line in lines[1:]:
            cells = line.split(",")
            stat = cells[1]
            rates = [float(x) for x in cells[4:]]
            counts = [round(x * self.reps) for x in rates]
            if any(abs(x * self.reps - c) > 1e-3 for x, c in zip(rates, counts)):
                self.problems.append(f"round {rnd}: {stat} rates are not multiples of 1/{self.reps}")
            self.counts[stat][0] += counts[0]
            for eta, c in zip(self.etas, counts[1:]):
                self.counts[stat][1][eta] += c

    def check(self) -> list[str]:
        bad = list(self.problems)
        for stat in ("W", "R"):
            rej0, miss = self.counts[stat]
            bad += rate_problems(f"{self.name} {stat}", rej0, miss, self.total_reps, self.alpha, stat == "W")
        return bad


# -- large-torus ---------------------------------------------------------------------


class LargeTorus:
    """mc_risk_curve on a 50x50 torus vs empty:2500, mostly W, some R."""

    name = "large-torus"
    etas = [1.0, 10.0, 100.0, 1000.0]
    w_reps = 8       # W replicates per round
    r_reps = 1       # R replicates per round
    alpha = 0.01
    sample_per_stat = 2
    snapshot_kc = (500, 500)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.counts = {"W": [0, {e: 0 for e in self.etas}, 0], "R": [0, {e: 0 for e in self.etas}, 0]}

    def imports(self) -> None:
        import netspread  # noqa: F401

    def setup(self) -> None:
        import netspread as ns

        self.ns = ns
        self.g1 = ns.torus_grid((50, 50))
        self.g0 = ns.empty_graph(2500)
        self.stats = {"W": ns.StatisticSpec.edges_within(self.g1), "R": ns.StatisticSpec.infection_radius(self.g1)}
        self.g1.distance_matrix  # the cache every R score reads

    def round(self, rnd: int) -> Round:
        ns = self.ns
        cfg = ns.TestConfig(alpha=self.alpha, B=100, seed=round_seed(self.name, self.seed, rnd))
        secs = 0.0
        for stat, reps in (("W", self.w_reps), ("R", self.r_reps)):
            start = _clock()
            curve = ns.mc_risk_curve(
                self.g0, self.g1, 0.0, self.etas, k=500, c=500, cfg=cfg, reps=reps, stat=self.stats[stat]
            )
            secs += _clock() - start
            tally = self.counts[stat]
            tally[0] += round(curve.type_i * reps)
            for eta in self.etas:
                tally[1][eta] += round(curve.type_ii[eta] * reps)
            tally[2] += reps
        tests = (self.w_reps + self.r_reps) * (1 + len(self.etas))
        return Round(secs, tests, 0, tests)

    def check(self) -> list[str]:
        bad = []
        for stat in ("W", "R"):
            rej0, miss, reps = self.counts[stat]
            bad += rate_problems(f"{self.name} {stat}", rej0, miss, reps, self.alpha, stat == "W")
        return bad


# -- analyst-session -------------------------------------------------------------------


def _two_tori_edges() -> list[tuple[str, str]]:
    """Two disjoint 10x10 tori, labelled a<i>_<j> and b<i>_<j>."""
    edges = []
    for comp in "ab":
        for i in range(10):
            for j in range(10):
                v = f"{comp}{i}_{j}"
                edges.append((v, f"{comp}{(i + 1) % 10}_{j}"))
                edges.append((v, f"{comp}{i}_{(j + 1) % 10}"))
    return edges


def _parse_status(text: str) -> dict[str, int]:
    codes = {"0": 0, "1": 1, "*": 2}
    out = {}
    for line in text.splitlines():
        if line.strip():
            label, code = line.split()
            out[label] = codes[code]
    return out


def _write_status(path: Path, status: dict[str, int]) -> None:
    chars = {0: "0", 1: "1", 2: "*"}
    path.write_text("".join(f"{lab} {chars[c]}\n" for lab, c in status.items()))


# (kind, statistic, B, extra flags) of the seeded test commands
_SESSION_TESTS = [
    ("test_W", "W", 1000, []),
    ("test_R", "R", 1000, []),
    ("test_T", "T", 200, []),
    ("test_C", "C", 1000, ["--mode", "censor-fixed"]),
]


class AnalystSession:
    """A fixed script of single-snapshot CLI commands, fresh seed per round.

    The last two commands fail today on every round, with inputs that do
    not depend on the seed: text-mode R on two disjoint tori (the radius
    is inf and printing it raises OverflowError), and T on the same graph
    (a draw spanning both tori raises DisconnectedTerminalsError, exit 3).
    """

    name = "analyst-session"
    sample_per_stat = 2
    snapshot_kc = None
    kinds = ["simulate", "test_W", "test_R", "test_T", "test_C", "test_orbit", "check_aut",
             "fail_R_text", "fail_T"]
    latency_kinds = ["simulate", "test_W", "test_R", "test_T", "test_C", "test_orbit", "check_aut"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.records: list[tuple[str, list[str], int | str, str, dict]] = []

    def imports(self) -> None:
        import netspread.cli  # noqa: F401

    def setup(self) -> None:
        wd = self.workdir
        edges = _two_tori_edges()
        self.tori_file = wd / "two_tori.txt"
        self.tori_file.write_text("".join(f"{a} {b}\n" for a, b in edges))
        labels = [f"{c}{i}_{j}" for c in "ab" for i in range(10) for j in range(10)]
        spread = {"a0_0", "a0_1", "a1_1", "a2_1", "a2_2", "b3_3", "b3_4", "b4_4", "b5_4", "b5_5"}
        clump = {f"a{i}_{j}" for i in range(4) for j in range(5)}
        self.fail_r_status = wd / "spread_both.txt"
        self.fail_t_status = wd / "one_torus.txt"
        _write_status(self.fail_r_status, {lab: int(lab in spread) for lab in labels})
        _write_status(self.fail_t_status, {lab: int(lab in clump) for lab in labels})
        self.sim_file = wd / "snapshot.txt"
        self.path_file = wd / "path_snapshot.txt"

    def _script(self, s: int) -> list[tuple[str, list[str]]]:
        sim, path10 = str(self.sim_file), str(self.path_file)
        script = [("simulate", ["simulate", "--graph", "torus:20x20", "--eta", "10", "--k", "40",
                                "--c", "40", "--seed", str(s), "--out", sim])]
        for kind, stat, b, extra in _SESSION_TESTS:
            script.append((kind, ["test", "--null-graph", "empty:400", "--alt-graph", "torus:20x20",
                                  "--statistic", stat, "--infection", sim, "--B", str(b),
                                  "--seed", str(s), "--json", *extra]))
        script.append(("test_orbit", ["test", "--null-graph", "empty:10", "--alt-graph", "path:10",
                                      "--statistic", "orbit", "--infection", path10, "--B", "1000",
                                      "--seed", str(s), "--json"]))
        script.append(("check_aut", ["check-aut", "star:10", "two-block:10:1:0:1"]))
        tori = f"file:{self.tori_file}"
        script.append(("fail_R_text", ["test", "--null-graph", "empty:200", "--alt-graph", tori,
                                       "--statistic", "R", "--infection", str(self.fail_r_status),
                                       "--B", "1000", "--seed", "0"]))
        script.append(("fail_T", ["test", "--null-graph", "empty:200", "--alt-graph", tori,
                                  "--statistic", "T", "--infection", str(self.fail_t_status),
                                  "--B", "200", "--seed", "0", "--json"]))
        return script

    def round(self, rnd: int) -> Round:
        s = round_seed(self.name, self.seed, rnd)
        rng = random.Random(s)
        hit = set(rng.sample(range(10), 3))
        _write_status(self.path_file, {str(v): int(v in hit) for v in range(10)})
        latencies: dict[str, float] = {}
        failed = tests = 0
        total = 0.0
        for kind, argv in self._script(s):
            code, out, secs = run_cli(argv)
            total += secs
            inputs = {}
            if kind == "simulate" and code == 0:
                inputs["snapshot"] = self.sim_file.read_text()
            if kind == "test_orbit":
                inputs["snapshot"] = self.path_file.read_text()
            self.records.append((kind, argv, code, out, inputs))
            if code != 0:
                failed += 1
                continue
            latencies[kind] = secs * 1e3
            tests += argv[0] == "test"
        return Round(total, len(self.kinds), failed, tests, latencies)

    # -- checks ----------------------------------------------------------------

    def check(self) -> list[str]:
        import networkx as nx
        import oracles

        torus = nx.relabel_nodes(
            nx.grid_2d_graph(20, 20, periodic=True), lambda ij: str(ij[0] * 20 + ij[1])
        )
        path10 = nx.relabel_nodes(nx.path_graph(10), str)
        tori = nx.Graph(_two_tori_edges())
        orbit0 = {str(v) for v in oracles.orbit_of(10, list(nx.path_graph(10).edges), 0)}
        star = [(0, v) for v in range(1, 10)]
        blocks = [(u, v) for b in (0, 5) for u in range(b, b + 5) for v in range(u + 1, b + 5)]
        aut_valid = oracles.coverage_verdict(10, star, blocks)
        fixed = {
            "fail_R_text": _parse_status(self.fail_r_status.read_text()),
            "fail_T": _parse_status(self.fail_t_status.read_text()),
        }
        bad: list[str] = []
        snapshot: dict[str, int] | None = None
        for idx, (kind, argv, code, out, inputs) in enumerate(self.records):
            where = f"round {idx // len(self.kinds)} {kind}"
            if kind == "simulate":
                snapshot = None
                if code == 0:
                    snapshot = _parse_status(inputs["snapshot"])
                    codes = list(snapshot.values())
                    if sorted(snapshot, key=int) != [str(v) for v in range(400)]:
                        bad.append(f"{where}: snapshot labels are not the torus vertices")
                    if codes.count(2) != 40 or codes.count(1) > 40:
                        bad.append(f"{where}: snapshot has {codes.count(2)} censored, {codes.count(1)} infected")
                continue
            if code != 0:
                continue
            if kind == "check_aut":
                if out.startswith("unverifiable") or out.startswith("valid") != aut_valid:
                    bad.append(f"{where}: verdict {out.strip()!r}, networkx says valid={aut_valid}")
                continue
            if kind == "test_orbit":
                graph, status, null_edges = path10, _parse_status(inputs["snapshot"]), []
            elif kind.startswith("fail_"):
                graph, status, null_edges = tori, fixed[kind], []
            else:
                if snapshot is None:
                    bad.append(f"{where}: ran without a snapshot")
                    continue
                graph, status, null_edges = torus, snapshot, []
            stat = argv[argv.index("--statistic") + 1]
            B = int(argv[argv.index("--B") + 1])
            try:
                fields = strict_json(out) if "--json" in argv else _parse_text(out)
            except ValueError as exc:
                bad.append(f"{where}: output does not parse: {exc}")
                continue
            bad += [f"{where}: {p}" for p in self._test_problems(stat, B, fields, graph, status, orbit0)]
            verdict = oracles.coverage_verdict(graph.number_of_nodes(), null_edges, list(graph.edges))
            if not _validity_agrees(str(fields["validity"]), verdict):
                bad.append(f"{where}: validity {fields['validity']!r} contradicts oracle {verdict}")
        return bad

    @staticmethod
    def _test_problems(stat, B, f, graph, status, orbit0) -> list[str]:
        import oracles

        bad = []
        observed, threshold = f["observed"], f["threshold"]
        if f["B"] != B:
            bad.append(f"B is {f['B']}, asked for {B}")
        want_p = (f["tail_count"] + 1) / (B + 1)
        if f.get("rounded"):  # text mode prints 6 significant digits
            want_p = float(f"{want_p:.6g}")
        if f["p_value"] != want_p:
            bad.append("p-value is not (tail_count+1)/(B+1)")
        above = f["reject_direction"] == "above"
        if f["reject"] != (observed > threshold if above else observed < threshold):
            bad.append("reject disagrees with observed vs threshold")
        if stat == "W":
            want = oracles.edges_within(graph.edges, status)
            ok = observed == want
        elif stat == "R":
            want = oracles.radius(graph, status)
            ok = observed == want
        elif stat == "T":
            lo, hi = oracles.steiner_bounds(graph, status)
            want = (lo, hi)
            ok = lo <= observed <= hi
        elif stat == "C":
            want = int(status["0"] == 1)
            ok = observed == want
        else:
            want = sum(1 for v in orbit0 if status[v] == 1)
            ok = observed == want
        if not ok:
            bad.append(f"observed {stat}={observed}, oracle {want}")
        return bad


def _parse_text(out: str) -> dict:
    """The fields of text-mode `test` output, numbers as printed."""
    rows = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    rows = {k.strip(): v.strip() for k, v in rows.items()}
    obs = float(rows["observed"])
    thr_text, direction = rows["threshold"].split(" (reject ")
    p_text, rest = rows["p-value"].split(" (tail count ")
    tail, _, b = rest.rstrip(")").split()
    return {
        "observed": obs,
        "threshold": float(thr_text),
        "reject_direction": direction.rstrip(")"),
        "p_value": float(p_text),
        "tail_count": int(tail),
        "B": int(b),
        "reject": rows["reject"] == "True",
        "validity": rows["validity"],
        "rounded": True,
    }


WORKLOADS = {w.name: w for w in (GridRisk, LargeTorus, AnalystSession)}
