"""Command line front end.

Subcommands: classify (full verdict table for one algebra), check (one
orbit), verify (sampled coisotropy check of a matrix realization), dual
(S-dual lookup), scan (exceptional orbit tables), sweep (brute-force
confirmation of the classification inequalities).  Output is TSV or JSON
lines, and classify and check also offer a human-readable pretty format;
identical invocations produce byte-identical output.  check, dual and
verify size the algebra from --partition when neither --size nor --rank
is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import itemgetter

from . import classifier, datasets, liealg, realizations, superdual, verifier
from .classifier import HYPERSPHERICAL_STATUSES, Status, Verdict
from .liealg import AlgebraFamily
from .partitions import Partition, parse_partition

_COLUMNS = ["family", "rank", "jordan_type", "dual", "slice_dim", "q_factors",
            "lhs", "rhs", "slack", "status", "sdual"]
_column_values = itemgetter(*_COLUMNS)


class UsageError(ValueError):
    pass


def _family_from_args(args, n_from_partition: int | None = None) -> AlgebraFamily:
    kind = args.family
    size = getattr(args, "size", None)
    rank = getattr(args, "rank", None)
    if size is None and rank is None:
        size = n_from_partition
    elif size is None:
        if kind == "gl":
            size = rank
        elif kind == "sp":
            size = 2 * rank
        else:
            raise UsageError("for the so family pass --size (matrix size), "
                             "since a rank names two algebras")
    if size is None:
        raise UsageError("no rank/size given")
    if size < 1:
        raise UsageError(f"invalid size {size}")
    maker = {"gl": liealg.gl, "sp": liealg.sp, "so": liealg.so}[kind]
    try:
        family = maker(size)
    except ValueError as exc:
        raise UsageError(str(exc))
    if rank is not None and rank != family.rank:
        raise UsageError(f"--rank {rank} conflicts with {family} (rank {family.rank})")
    return family


def _verdict_record(v: Verdict) -> dict:
    o = v.orbit
    sdual = str(superdual.s_dual(v)) if v.status in HYPERSPHERICAL_STATUSES else "-"
    note = f" [{v.note}]" if v.note else ""
    status = v.status.value + note + (" [two orbits]" if v.very_even else "")
    return {
        "family": str(o.family),
        "rank": o.family.rank,
        "jordan_type": str(o.jordan_type),
        "dual": str(o.dual),
        "slice_dim": o.slice_dim,
        "q_factors": str(o.centralizer),
        "lhs": v.bound.lhs,
        "rhs": v.bound.rhs,
        "slack": v.bound.slack,
        "status": status,
        "sdual": sdual,
    }


def _emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "tsv":
        out.write("\t".join(_COLUMNS) + "\n")
        for rec in records:
            out.write("\t".join(map(str, _column_values(rec))) + "\n")
    elif fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        for rec in records:
            out.write(f"{rec['family']}  {rec['jordan_type']}  -> {rec['status']}\n")
            out.write(f"    slice dim {rec['slice_dim']}, Q = {rec['q_factors']}, "
                      f"bound {rec['lhs']} vs {rec['rhs']} (slack {rec['slack']})\n")
            out.write(f"    S-dual: {rec['sdual']}\n")


def _pretty_identity(v: Verdict, out) -> None:
    """Teaching line: lhs - dim(G x Q) = rank sum, for equality cases."""
    if v.bound.slack != 0:
        return
    g = v.orbit.family
    q = v.orbit.effective_centralizer
    left = v.bound.lhs
    mid = g.dim + q.dim
    out.write(f"    identity: {left} - {mid} = {left - mid} = {g.rank} + {q.rank}\n")


def cmd_classify(args, out) -> int:
    family = _family_from_args(args)
    try:
        verdicts = classifier.enumerate_and_classify(family)
    except ValueError as exc:
        raise UsageError(str(exc))
    records = [_verdict_record(v) for v in verdicts]
    _emit_records(records, args.format, out)
    if args.format == "pretty":
        for v in verdicts:
            if v.status in (Status.HYPERSPHERICAL_HOOK, Status.HYPERSPHERICAL_SPECIAL):
                _pretty_identity(v, out)
    return 0


def _partition(args) -> Partition:
    """The --partition argument; a malformed one is bad input."""
    try:
        return parse_partition(args.partition)
    except ValueError as exc:
        raise UsageError(str(exc))


def _orbit(args) -> liealg.OrbitDatum:
    """The orbit named by --family/--partition; a type that does not fit is bad input."""
    p = _partition(args)
    family = _family_from_args(args, n_from_partition=p.n)
    try:
        return liealg.orbit_datum(family, p)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_check(args, out) -> int:
    v = classifier.classify(_orbit(args))
    _emit_records([_verdict_record(v)], args.format, out)
    if args.format == "pretty":
        _pretty_identity(v, out)
    return 0


def cmd_dual(args, out) -> int:
    v = classifier.classify(_orbit(args))
    try:
        dual = superdual.s_dual(v)
    except superdual.NoDualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.write(f"{dual} [{dual.provenance}]\n")
    return 0


def _realization(args) -> realizations.MatrixRealization:
    """The matrix model named by --case or by --family/--partition."""
    if args.case:
        given = (args.family, args.partition, args.size, args.rank)
        if any(x is not None for x in given):
            raise UsageError("--case takes no --family, --partition, --size or --rank")
        return realizations.build_case(args.case)
    if not args.partition:
        raise UsageError("verify needs --case or --family/--partition")
    if not args.family:
        raise UsageError("--partition needs --family")
    p = _partition(args)
    family = _family_from_args(args, n_from_partition=p.n)
    return realizations.classical_triple(family, p)


def cmd_verify(args, out) -> int:
    try:
        r = _realization(args)
        rep = verifier.coisotropy_check(r, args.seed)
    except realizations.InconsistentRealization as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except realizations.RealizationError as exc:
        raise UsageError(str(exc))
    out.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")
    wrong = verifier.disagreements(rep, classifier.predicted_coisotropy(r.verdict))
    if wrong:
        print(f"verify: {r.label} disagrees with the classifier "
              f"({r.verdict.status.value}): " + "; ".join(wrong), file=sys.stderr)
        return 1
    return 0


def cmd_scan(args, out) -> int:
    if args.data:
        if not args.algebra:
            raise UsageError("--data needs --algebra (G2|F4|E6|E7|E8)")
        table = datasets.load_table(args.data, liealg.exceptional(args.algebra))
    elif args.algebra not in (None, "G2"):
        raise UsageError(f"--algebra {args.algebra} needs --data "
                         "(only the G2 table is built in)")
    else:
        table = datasets.builtin_g2()
    rows = classifier.scan_exceptional(table)
    if args.format == "json":
        for row in rows:
            out.write(json.dumps({
                "algebra": str(row.algebra), "label": row.label,
                "orbit_dim": row.orbit_dim, "slice_dim": row.slice_dim,
                "centralizer": str(row.centralizer),
                "lhs": row.lhs, "rhs": row.rhs, "slack": row.slack,
                "passes_necessary_bound": row.passes_necessary_bound,
            }, sort_keys=True) + "\n")
    else:
        out.write("label\torbit_dim\tslice_dim\tcentralizer\tlhs\trhs\tslack\tpasses\n")
        for row in rows:
            out.write(f"{row.label}\t{row.orbit_dim}\t{row.slice_dim}"
                      f"\t{row.centralizer}\t{row.lhs}\t{row.rhs}\t{row.slack}"
                      f"\t{row.passes_necessary_bound}\n")
    return 0


def cmd_sweep(args, out) -> int:
    kind = {"gl": "GL", "sp": "Sp", "so": "SO"}[args.family]
    try:
        report = classifier.sweep_inequality_proof(kind, args.n_max)
    except ValueError as exc:
        raise UsageError(str(exc))
    names = sorted("(" + ",".join(map(str, t)) + ")"
                   for t in report.exceptions_beyond_hooks)
    out.write(f"family {args.family}, n_max {report.n_max}: "
              f"checked {report.checked} types\n")
    out.write("exceptions beyond hooks/zero/regular: "
              + (", ".join(names) if names else "none") + "\n")
    if report.mismatches:
        for line in report.mismatches:
            out.write(f"MISMATCH {line}\n")
        return 1
    if not report.matches_expected:
        out.write("MISMATCH exception set differs from the proven list\n")
        return 1
    out.write("reduced inequality agrees with the direct bound everywhere\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicescope",
        description="Classify and verify hyperspherical equivariant slices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, required=True):
        p.add_argument("--family", choices=["gl", "sp", "so"], required=required)
        p.add_argument("--rank", type=int)
        p.add_argument("--size", type=int,
                       help="matrix size (needed for so, optional elsewhere)")

    def add_format(p, choices=("tsv", "json", "pretty")):
        p.add_argument("--format", choices=choices, default="tsv")

    p = sub.add_parser("classify", help="classify every orbit of one algebra")
    add_family(p)
    add_format(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("check", help="report on a single orbit")
    add_family(p)
    p.add_argument("--partition", required=True)
    add_format(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dual", help="S-dual lookup for one orbit")
    add_family(p)
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("verify", help="sampled coisotropy verification")
    p.add_argument("--case", help="e.g. sp6-33, gl5-hook2, so7-3.3.1")
    add_family(p, required=False)
    p.add_argument("--partition")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="scan an exceptional orbit table")
    p.add_argument("--data", help="TSV table path (default: builtin G2 table)")
    p.add_argument("--algebra", choices=["G2", "F4", "E6", "E7", "E8"])
    add_format(p, ("tsv", "json"))
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("sweep", help="brute-force inequality sweep")
    p.add_argument("--family", choices=["gl", "sp", "so"], required=True)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(fn=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
