"""One short traced run of every benchmark workload, as the benchmark's
own command runs it, so a change that leaves the traced run without
tests to check (and so the benchmark's record `correct: false`) fails
here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["grid-risk", "large-torus", "analyst-session"]


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "9001",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] is True, proc.stdout[-2000:]
    assert record["attempted"] > 0
    # only `netspread test` with T fails today: 1 command in 9 of analyst-session
    assert 9 * record["failed"] <= record["attempted"], record
    if workload != "analyst-session":
        assert record["failed"] == 0, record


def _netspread_bindings() -> dict:
    """Every attribute of every netspread module and of every class they
    define, keyed by (owner, name): whatever the tracer may patch."""
    bindings = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "netspread" or modname.startswith("netspread."):
            for owner in [mod, *(v for v in vars(mod).values() if isinstance(v, type))]:
                for key, value in list(vars(owner).items()):
                    bindings[(owner, key)] = value
    return bindings


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    # the benchmark's tracer binds traced names with getattr, so a deleted
    # name fails here, without --runslow, before any traced run
    import netspread.cli  # noqa: F401  (loads every module the tracer patches)

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    before = _netspread_bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        changed = [key for key, value in _netspread_bindings().items() if before.get(key) is not value]
        assert changed
    finally:
        tracer.uninstall()
    after = _netspread_bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
