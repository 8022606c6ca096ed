"""The benchmark in perfbench/ must keep running against this package.

A traced benchmark run wraps every function that ``perfbench/spans.py``
names and fails when one is missing or a required stage records no
calls.  These tests run the same resolution and one traced round, so a
rename or a skipped stage fails here first.  perfbench/ is only read.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    modules = {name: importlib.import_module(f"slicescope.{name}") for name in run.MODULES}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = spans.Tracer()
    try:
        tracer.install(modules)   # raises on a target that does not resolve
    finally:
        tracer.uninstall()
    assert {name for _, _, name, _ in spans.TARGETS} <= set(tracer.sites)
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before


def test_one_traced_verify_round_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cases",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
