"""The benchmark in perfbench/ must keep running against this package.

A traced benchmark run wraps every function that ``perfbench/spans.py``
names and fails when one is missing or a required stage records no
calls.  These tests run the same resolution, one traced verify round, and
the classify-sweep stages in process, so a rename or a skipped stage fails
here first.  perfbench/ is only read.
"""

import contextlib
import importlib
import io
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


def test_classify_sweep_spans_run_in_process(monkeypatch):
    """Small classify and sweep commands touch exactly the spans classify-sweep names.

    A full traced classify-sweep round takes about 20 s; these three
    commands reach the same stages in well under a second.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    workload = importlib.import_module("workloads").ClassifySweep
    modules = {name: importlib.import_module(f"slicescope.{name}") for name in run.MODULES}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        for argv in (["classify", "--family", "gl", "--rank", "8"],
                     ["classify", "--family", "so", "--size", "9"],
                     ["sweep", "--family", "sp", "--n-max", "8"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert modules["cli"].main(argv) == 0, argv
    finally:
        tracer.uninstall()
    calls, _ = tracer.totals()
    assert [name for name in workload.must_run if not calls[name]] == []
    assert [name for name in workload.must_not_run if calls[name]] == []


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
    # z(f) is looked up only where the squeeze's ends do not meet, to put
    # the rotations in its coordinates: every sample of the negative
    # controls, and no sample the squeeze decides.
    metrics = result["metrics"]
    assert (0 < metrics["realizations.zf_subspace.calls_per_check"]["value"]
            < metrics["verifier.attempts_per_check"]["value"])
