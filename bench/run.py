"""netspread benchmark: grid-risk, large-torus and analyst-session.

One workload (the last stdout line is the result object):

    python3 bench/run.py --workload grid-risk --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, with medians and quartiles
over repeats and one traced run each (last stdout line is the record):

    python3 bench/run.py [--seed 1] [--seconds 20] [--repeats 3]

Run from the root of a netspread checkout; it imports the package from
``src/`` and the brute-force oracles from ``tests/oracles.py``. See
bench/README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CALIBRATION_REF_S, WORKLOADS, calibrate, cpu_clock, sample_problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("tests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up time of the workload measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    setup_samples = []
    if not trace and not setup_only:
        setup_samples = [_setup_sample(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    os.environ.pop("NETSPREAD_THREADS", None)  # the package's default serial path

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        start = cpu_clock()
        sys.path.insert(0, str(ROOT / "src"))

        wl = WORKLOADS[name](seed, Path(tmp))
        wl.imports()
        tracer = None
        if trace:
            from tracing import Tracer, install

            tracer = Tracer(sample_per_stat=wl.sample_per_stat)
            install(tracer)
        wl.setup()
        setup_samples.append((cpu_clock() - start) * CALIBRATION_REF_S / calibrate())
        if setup_only:
            print(json.dumps({"setup_s": setup_samples[-1]}))
            return 0

        setup_trace = tracer.take() if tracer else None
        rounds, calibration = [], []
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < seconds:
            calibration.append(calibrate())
            rounds.append(wl.round(len(rounds)))
        timed_trace = tracer.take() if tracer else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer:
            tracer.uninstall()

        # checks, after every measurement
        import oracles

        problems = [f"oracle self-check: {p}" for p in oracles.self_check(ROOT)]
        problems += wl.check()
        if tracer:
            problems += sample_problems(tracer.samples)
            if wl.snapshot_kc is not None:
                k, c = wl.snapshot_kc
                wrong = [kc for kc in tracer.snapshot_counts if kc[1] != c or kc[0] > k]
                if wrong or not tracer.snapshot_counts:
                    problems.append(f"{len(wrong)} snapshots without c={c} censored and <= k={k} infected")
            if not tracer.samples:
                problems.append("traced run captured no tests to check")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    raw_tests_per_s = sum(r.tests for r in rounds) / sum(r.seconds for r in rounds)
    tests_per_s = raw_tests_per_s * _median(calibration) / CALIBRATION_REF_S
    detail = {
        "workload": name, "seed": seed, "trace": trace, "rounds": len(rounds),
        "tests_per_s": tests_per_s, "raw_tests_per_s": raw_tests_per_s,
        "calibration_s": _median(calibration), "setup_samples_s": setup_samples,
        "round_cpu_s": [r.seconds for r in rounds],
        "problems": problems[:20],
    }
    kinds = getattr(wl, "latency_kinds", [])
    detail["latency_ms"] = {
        f"{k}_ms": _median([r.latencies[k] for r in rounds if k in r.latencies]) for k in kinds
    }
    if trace:
        from tracing import PER_LAYER, per_layer_metrics

        values = per_layer_metrics(setup_trace, timed_trace, len(rounds))
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        values = {
            "setup_s": _median(setup_samples),
            "tests_per_s": tests_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# -- every workload ------------------------------------------------------------------


def _machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit,
    }


def _child(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S + 60, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} run failed: {proc.stderr.strip()[-1000:]}")
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def run_all(seed: int, seconds: int, repeats: int) -> int:
    record = {"machine": _machine(), "seed": seed, "seconds": seconds, "repeats": repeats, "workloads": {}}
    for name in WORKLOADS:
        runs = [_child(name, seed + i, seconds, False) for i in range(repeats)]
        traced_detail, traced = _child(name, seed, seconds, True)
        e2e = {
            m: dict(_spread([r["metrics"][m]["value"] for _, r in runs]), unit=u) for m, u in END_TO_END
        }
        kinds = runs[0][0]["latency_ms"]
        latency = {k: dict(_spread([d["latency_ms"][k] for d, _ in runs]), unit="ms") for k in kinds}
        record["workloads"][name] = {
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "correct": all(r["correct"] for _, r in runs) and traced["correct"],
            "end_to_end": e2e,
            "command_latency": latency,
            "tracing_overhead_tests_per_s": traced_detail["tests_per_s"] - e2e["tests_per_s"]["median"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "problems": sorted({p for d, _ in runs + [(traced_detail, traced)] for p in d["problems"]}),
        }
        w = record["workloads"][name]
        print(f"== {name}: attempted {w['attempted']}, failed {w['failed']}, correct {w['correct']}")
        for metric, s in list(e2e.items()) + list(latency.items()):
            print(f"  {metric:<16} {s['median']:>12.4f} {s['unit']:<4} (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
        print(f"  tracing overhead on tests_per_s: {w['tracing_overhead_tests_per_s']:+.3f} 1/s")
        for p in w["problems"]:
            print(f"  check failed: {p}")
    print(json.dumps(record))
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="netspread benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=int, default=20, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload (all only)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for need in (ROOT / "src" / "netspread" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a netspread checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.repeats)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
