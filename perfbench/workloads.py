"""The benchmark's three workloads, and the checks on every output they time.

Each workload is built during set-up from the freshly imported package
and the workload seed.  ``next_pass()`` returns one pass over the
workload's fixed list of cases or commands, in a seed-chosen order, as
(label, call, check) triples: the benchmark times ``call()`` alone and
then passes its result to ``check``, which returns (error or None, bytes
written to stdout).  A round is ``passes_per_round`` passes.  The lists of
cases, families and sizes never change; the seed only chooses slice-point
seeds and the order of operations.

``passes_per_round`` is sized so that one round takes 30 to 55 s of wall
time on a 2-core x86-64 box with CPython 3.11, whose speed drifts between
those ends.  Under ``BENCHMARK.json``'s 50 s a run is then one round, so the
sample count, and with it the percentile behind op_tail_s, is the same
in every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

EXPECTED_OUTPUT = Path(__file__).resolve().parent / "expected_output.json"

# Slice-point seeds are drawn from [0, SEED_RANGE).
SEED_RANGE = 1_000_000


def _criterion6_labels() -> list[str]:
    """The coisotropy cases of acceptance criterion 6, in its order."""
    labels = []
    for n in range(3, 7):
        labels += [f"gl{n}-hook{k}" for k in range(0, n - 1)]
    for size in (4, 6, 8):
        labels += [f"sp{size}-hook{k}" for k in range(0, size - 1)
                   if k % 2 == 0 and (size - k) % 2 == 0]
    for size in range(3, 9):
        labels += [f"so{size}-hook{k}" for k in range(0, size - 2)
                   if (size - k) % 2 == 1]
    labels.append("sp6-33")
    return labels


NEGATIVE_CONTROLS = ["gl5-3.2", "gl6-2.2.2"]
VERIFY_CASES = _criterion6_labels() + NEGATIVE_CONTROLS
SEED_CASES = ["sp8-hook6", "gl6-2.2.2", "so8-hook3"]

_EXACTLINALG = ["exactlinalg.kernel", "exactlinalg.matmul", "exactlinalg.bracket",
                "exactlinalg.trace_form", "exactlinalg.subspace_build",
                "exactlinalg.subspace_query", "exactlinalg.rank"]
_BUILD = ["realizations.build_case", "realizations.build_algebra",
          "realizations.invariant_form_on_block"]
_VERIFIER = ["verifier.coisotropy_check", "verifier.slice_point", "verifier.omega_gram",
             "verifier.orbit_tangent", "verifier.stabilizer_dim"]
_COMBINATORIAL = ["classifier.classify", "classifier.enumerate_and_classify",
                  "classifier.sweep_inequality_proof", "classifier.necessary_bound",
                  "liealg.orbit_datum", "partitions.valid_jordan_types", "superdual.s_dual"]


@dataclass(frozen=True)
class Expectation:
    """What the classifier predicts for one verify case."""

    status: str
    hyperspherical: bool
    dim_w_perp: int          # rk g + rk q, required when hyperspherical


def _orbit_of(ss, label: str):
    """(family, Jordan type) named by a verify case label."""
    if label == "sp6-33":
        return ss.liealg.sp(6), ss.partitions.Partition((3, 3))
    m = re.fullmatch(r"(gl|sp|so)(\d+)-(hook(\d+)|[\d.]+)", label)
    if m is None:
        raise ValueError(f"unknown case label {label!r}")
    size = int(m.group(2))
    if m.group(4) is not None:
        k = int(m.group(4))
        parts = (size - k,) + (1,) * k
    else:
        parts = tuple(int(x) for x in m.group(3).split("."))
    return getattr(ss.liealg, m.group(1))(size), ss.partitions.Partition(parts)


def _expectation(ss, family, p) -> Expectation:
    v = ss.classifier.classify(ss.liealg.orbit_datum(family, p))
    return Expectation(
        status=v.status.value,
        hyperspherical=v.status in ss.classifier.HYPERSPHERICAL_STATUSES,
        dim_w_perp=family.rank + ss.liealg.effective_centralizer(family, p).rank)


def check_verify_record(rec: dict, exp: Expectation, label: str, seed: int) -> str | None:
    """None when a coisotropy record agrees with the classifier's verdict.

    The record is checked, not the exit code: ``verify`` exits 0 even
    when nothing holds.
    """
    if rec.get("case") != label:
        return f"record is for {rec.get('case')!r}"
    if not seed <= rec.get("seed", -1) < seed + 3:
        return f"retained seed {rec.get('seed')} is not one of {seed}..{seed + 2}"
    if rec.get("inconclusive") is not False:
        return "inconclusive"
    if not exp.hyperspherical:
        return "negative control is coisotropic" if rec.get("contained") is not False else None
    if rec.get("contained") is not True:
        return f"{exp.status}: W does not contain W-perp"
    if rec.get("dim_W_perp") != exp.dim_w_perp:
        return f"dim W-perp {rec.get('dim_W_perp')}, expected {exp.dim_w_perp}"
    if rec.get("stabilizer_dim") != 0:
        return f"stabilizer dim {rec.get('stabilizer_dim')}, expected 0"
    return None


def run_cli(ss, argv: list[str]) -> tuple[int, str]:
    """``slicescope.cli.main(argv)`` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ss.cli.main(argv)
    return rc, buf.getvalue()


class VerifyCases:
    """Fresh build plus one coisotropy check per case, through the CLI."""

    name = "verify-cases"
    passes_per_round = 2
    must_run = _EXACTLINALG + _BUILD + ["realizations.zf_subspace"] + _VERIFIER + ["cli.main"]
    must_not_run: list[str] = []

    def __init__(self, ss, seed: int):
        self.ss = ss
        self.rng = random.Random(f"{self.name}/{seed}")
        self.expected = {label: _expectation(ss, *_orbit_of(ss, label))
                         for label in VERIFY_CASES}

    def next_pass(self):
        labels = list(VERIFY_CASES)
        self.rng.shuffle(labels)
        return [self._op(label, self.rng.randrange(SEED_RANGE)) for label in labels]

    def _op(self, label: str, seed: int):
        argv = ["verify", "--case", label, "--seed", str(seed)]

        def check(result):
            _, text = result
            lines = text.splitlines()
            if len(lines) != 1:
                return f"{len(lines)} output lines", len(text.encode())
            return (check_verify_record(json.loads(lines[0]), self.expected[label], label, seed),
                    len(text.encode()))

        return f"verify {label} {seed}", lambda: run_cli(self.ss, argv), check


class VerifySeeds:
    """Coisotropy checks over many seeds on three realizations built in set-up."""

    name = "verify-seeds"
    passes_per_round = 14
    must_run = _EXACTLINALG + ["realizations.zf_subspace"] + _VERIFIER
    must_not_run = _BUILD + _COMBINATORIAL + ["cli.main"]

    def __init__(self, ss, seed: int):
        self.ss = ss
        self.rng = random.Random(f"{self.name}/{seed}")
        self.realizations = [ss.realizations.build_case(label) for label in SEED_CASES]
        self.expected = {r.label: _expectation(ss, r.family, r.jordan_type)
                         for r in self.realizations}

    def next_pass(self):
        order = list(self.realizations)
        self.rng.shuffle(order)
        return [self._op(r, self.rng.randrange(SEED_RANGE)) for r in order]

    def _op(self, r, seed: int):
        def check(report):
            return check_verify_record(report.to_dict(), self.expected[r.label],
                                       r.label, seed), 0

        return (f"coisotropy_check {r.label} {seed}",
                lambda: self.ss.verifier.coisotropy_check(r, seed), check)


class ClassifySweep:
    """classify and sweep through the CLI; the exact matrix layer is never used."""

    name = "classify-sweep"
    passes_per_round = 9
    must_run = _COMBINATORIAL + ["cli.main"]
    must_not_run = _EXACTLINALG + _BUILD + ["realizations.zf_subspace"] + _VERIFIER

    def __init__(self, ss, seed: int):
        self.ss = ss
        self.rng = random.Random(f"{self.name}/{seed}")
        self.expected = json.loads(EXPECTED_OUTPUT.read_text())

    def next_pass(self):
        entries = list(self.expected)
        self.rng.shuffle(entries)
        return [self._op(e) for e in entries]

    def _op(self, entry: dict):
        argv = entry["argv"]

        def check(result):
            rc, text = result
            data = text.encode()
            if rc != 0:
                return f"exit code {rc}", len(data)
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                return (f"stdout differs from the stored digest "
                        f"({len(data)} bytes, expected {entry['bytes']})"), len(data)
            return None, len(data)

        return " ".join(argv), lambda: run_cli(self.ss, argv), check


WORKLOADS = {w.name: w for w in (VerifyCases, VerifySeeds, ClassifySweep)}
