#!/usr/bin/env python3
"""The slicescope benchmark: one process, one thread, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-cases --seed 1 --seconds 50 --trace 0

Each operation starts when the previous one returns, as with a caller of
the CLI or the library that waits for the verdict.  The package is
imported from ``src/`` of the checkout, never from an installed copy.

Set-up (import, input generation, and the realizations that
``verify-seeds`` builds up front) runs several times and reports the
median.  Then whole rounds of the workload run until the next round would
end past ``--seconds``; at least one round always runs.  Every output is
checked, and an operation whose output is wrong, or that raises, counts
as failed.

Every time metric is in reference seconds.  A shared host changes speed
by up to a factor of two over seconds to minutes as other tenants load
it, far more than any change worth measuring.  So a fixed loop of
standard-library work (``reference_work``) is timed before and after
every operation and every set-up, and each measured time is scaled by
``REF_NOMINAL_S`` over the mean of the two reference times around it.
The result is the time the call would take with the host at the speed
at which the reference loop takes ``REF_NOMINAL_S``.  The wall-clock
figures stay in the run record, under ``raw``.

With ``--trace 1`` the run instead traces exactly one round (see
``spans.py``), so that every count repeats exactly for a given seed, and
it fails if a span the workload must exercise recorded no calls, or a
span it must not touch recorded some.

Standard output ends with two JSON lines: the full record of the run
(workload, seed, environment, sample counts, failures), which
``compare.py`` reads, and the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "slicescope"
MODULES = ("exactlinalg", "partitions", "liealg", "datasets", "classifier",
           "superdual", "realizations", "verifier", "cli")
# Set-up runs at least SETUP_MIN_REPS times and for at least SETUP_MIN_S
# seconds, so that the cheap set-ups (an import) get a median of many.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
# op_tail_s is the latency with this many slower operations beyond it.
TAIL_BEYOND = 10
# The reference loop's typical time on the baseline box (2-core x86-64,
# CPython 3.11); a reference second is a second at that speed.
REF_NOMINAL_S = 0.003


class BenchError(Exception):
    pass


def reference_work() -> int:
    """Fixed work of the package's kind: exact fractions, a dict, formatting."""
    table = {}
    for i in range(1, 400):
        x = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(i % 5, i + 2)
        table[i % 97] = f"{x.numerator}\t{x.denominator}"
    return len(table)


def reference_s() -> float:
    """Seconds the reference loop takes now, with the collector held off."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def to_reference(dt: float, before: float, after: float) -> float:
    """Wall seconds ``dt`` as reference seconds, given the reference times around it."""
    return dt * REF_NOMINAL_S * 2 / (before + after)


def fresh_import():
    """Import the package from the checkout's src/, dropping any earlier copy."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    for mod in modules.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"{mod.__name__} was imported from {mod.__file__}, not {SRC}")
    return modules


def git_commit() -> str:
    """The checked-out commit read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(threads_removed: str | None) -> dict:
    uname = os.uname()
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "slicescope_threads_removed": threads_removed,
    }


def load_config() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def run_rounds(workload, seconds: float, rounds: int | None):
    """Run whole rounds of the workload.

    Returns (latencies, pass times, raw latencies, raw pass times,
    reference loop times, rounds, failures, bytes out); the first two are
    in reference seconds, the raw ones in wall seconds.  With ``rounds``
    None, stop once the next round (predicted from the mean so far) would
    end past ``seconds`` of wall time.
    """
    clock = time.perf_counter
    latencies: list[float] = []
    pass_times: list[float] = []
    raw_latencies: list[float] = []
    raw_pass_times: list[float] = []
    failures: list[str] = []
    bytes_out = 0
    done = 0
    refs = [reference_s()]
    while True:
        for _ in range(workload.passes_per_round):
            elapsed = raw_elapsed = 0.0
            for label, call, check in workload.next_pass():
                start = clock()
                try:
                    result = call()
                except Exception as exc:  # a raising operation is a failed one
                    dt = clock() - start
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
                else:
                    dt = clock() - start
                    try:
                        error, nbytes = check(result)
                    except Exception as exc:
                        error, nbytes = f"unreadable output: {type(exc).__name__}: {exc}", 0
                    bytes_out += nbytes
                    if error is not None:
                        failures.append(f"{label}: {error}")
                refs.append(reference_s())
                ref_dt = to_reference(dt, refs[-2], refs[-1])
                latencies.append(ref_dt)
                raw_latencies.append(dt)
                elapsed += ref_dt
                raw_elapsed += dt
            pass_times.append(elapsed)
            raw_pass_times.append(raw_elapsed)
        done += 1
        if rounds is not None:
            if done == rounds:
                break
        elif sum(raw_pass_times) * (1 + 1 / done) > seconds:
            break
    return (latencies, pass_times, raw_latencies, raw_pass_times, refs, done,
            failures, bytes_out)


def timed_setup(workload_cls, seed: int):
    """Import the package and build the workload, at least SETUP_MIN_REPS times
    and for at least SETUP_MIN_S seconds.

    Returns (modules, workload, set-up times, raw set-up times), the first
    in reference seconds and the second in wall seconds.
    """
    times: list[float] = []
    raw: list[float] = []
    while len(raw) < SETUP_MIN_REPS or sum(raw) < SETUP_MIN_S:
        before = reference_s()
        start = time.perf_counter()
        modules = fresh_import()
        workload = workload_cls(SimpleNamespace(**modules), seed)
        dt = time.perf_counter() - start
        times.append(to_reference(dt, before, reference_s()))
        raw.append(dt)
        gc.collect()  # free the previous copy of the package before the next
    return modules, workload, times, raw


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the slowest operation and 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def coverage_errors(workload, calls: dict) -> list[str]:
    errors = [f"span {name} recorded no calls" for name in workload.must_run if not calls[name]]
    errors += [f"span {name} recorded {calls[name]} calls, expected none"
               for name in workload.must_not_run if calls[name]]
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads_removed = os.environ.pop("SLICESCOPE_THREADS", None)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} package under {SRC}")
    config = load_config()
    sys.path.insert(0, str(SRC))

    modules, workload, setup_times, raw_setup_times = timed_setup(
        WORKLOADS[args.workload], args.seed)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(modules)
    try:
        (latencies, pass_times, raw_latencies, raw_pass_times, refs, rounds,
         failures, bytes_out) = run_rounds(workload, args.seconds, 1 if tracer else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(latencies)
    tail_value, tail_pct = tail(latencies)
    if tracer is None:
        measured = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(pass_times), "s"),
            "ops_per_s": (attempted / sum(pass_times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        wanted = config["end_to_end"]
    else:
        measured = tracer.metrics(bytes_out, statistics.median(pass_times))
        wanted = config["per_layer"]
    mismatched = [m["name"] for m in wanted
                  if measured.get(m["name"], (None, None))[1] != m["unit"]]
    if mismatched:
        raise BenchError(f"metrics not measured in the unit BENCHMARK.json names: {mismatched}")
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(threads_removed),
        "setup_s_samples": setup_times,
        "rounds": rounds,
        "pass_s": pass_times,
        "raw": {
            "setup_s": statistics.median(raw_setup_times),
            "wall_s": statistics.median(raw_pass_times),
            "ops_per_s": attempted / sum(raw_pass_times),
            "op_p50_s": statistics.median(raw_latencies),
            "op_tail_s": tail(raw_latencies)[0],
            "setup_s_samples": raw_setup_times,
            "pass_s": raw_pass_times,
        },
        "reference_s": {"nominal": REF_NOMINAL_S, "samples": len(refs), "min": min(refs),
                        "median": statistics.median(refs), "max": max(refs)},
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "latency": {"op_p50_s": statistics.median(latencies), "op_tail_s": tail_value},
        "op_tail_percentile": tail_pct,
        "op_samples": attempted,
        "failures": failures[:20],
        "metrics": metrics,
    }
    if tracer is not None:
        calls, _ = tracer.totals()
        record["patched_sites"] = dict(tracer.sites)
        errors = coverage_errors(workload, calls)
        if errors:
            record["coverage_errors"] = errors
            print(json.dumps(record))
            for e in errors:
                print(f"trace coverage: {e}", file=sys.stderr)
            return 1
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
