"""Command line front end.

Subcommands: classify (full verdict table for one algebra), check (one
orbit), verify (sampled coisotropy check of a matrix realization), dual
(S-dual lookup), scan (exceptional orbit tables), sweep (brute-force
confirmation of the classification inequalities).  Output is TSV or JSON
lines, and classify and check also offer a human-readable pretty format;
identical invocations produce byte-identical output.  check, dual and
verify size the algebra from --partition when neither --size nor --rank
is given.  Commands raise on failure and main maps each exception to an
exit code: 1 for a failed certificate, 2 for bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import itemgetter

from . import classifier, datasets, liealg, realizations, superdual, verifier
from .classifier import HYPERSPHERICAL_STATUSES, Verdict
from .liealg import AlgebraFamily
from .partitions import parse_partition

_COLUMNS = ["family", "rank", "jordan_type", "dual", "slice_dim", "q_factors",
            "lhs", "rhs", "slack", "status", "sdual"]
_column_values = itemgetter(*_COLUMNS)


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
            raise ValueError("for the so family pass --size (matrix size), "
                             "since a rank names two algebras")
    if size is None:
        raise ValueError("no rank/size given")
    if size < 1:
        raise ValueError(f"invalid size {size}")
    family = {"gl": liealg.gl, "sp": liealg.sp, "so": liealg.so}[kind](size)
    if rank is not None and rank != family.rank:
        raise ValueError(f"--rank {rank} conflicts with {family} (rank {family.rank})")
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


def _pretty_identity(v: Verdict, out) -> None:
    """Teaching line: lhs - dim(G x Q) = rank sum, for equality cases."""
    if v.bound.slack != 0:
        return
    g = v.orbit.family
    q = v.orbit.effective_centralizer
    left = v.bound.lhs
    mid = g.dim + q.dim
    out.write(f"    identity: {left} - {mid} = {left - mid} = {g.rank} + {q.rank}\n")


def _emit_records(verdicts: list[Verdict], fmt: str, out) -> None:
    """One record per verdict.  In pretty format each verdict of slack 0
    is followed by its identity line."""
    records = [_verdict_record(v) for v in verdicts]
    if fmt == "tsv":
        out.write("\t".join(_COLUMNS) + "\n")
        for rec in records:
            out.write("\t".join(map(str, _column_values(rec))) + "\n")
    elif fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        for v, rec in zip(verdicts, records):
            out.write(f"{rec['family']}  {rec['jordan_type']}  -> {rec['status']}\n")
            out.write(f"    slice dim {rec['slice_dim']}, Q = {rec['q_factors']}, "
                      f"bound {rec['lhs']} vs {rec['rhs']} (slack {rec['slack']})\n")
            out.write(f"    S-dual: {rec['sdual']}\n")
            _pretty_identity(v, out)


def cmd_classify(args, out) -> int:
    verdicts = classifier.enumerate_and_classify(_family_from_args(args))
    _emit_records(verdicts, args.format, out)
    return 0


def _orbit(args) -> liealg.OrbitDatum:
    """The orbit named by --family/--partition."""
    p = parse_partition(args.partition)
    return liealg.orbit_datum(_family_from_args(args, n_from_partition=p.n), p)


def cmd_check(args, out) -> int:
    _emit_records([classifier.classify(_orbit(args))], args.format, out)
    return 0


def cmd_dual(args, out) -> int:
    dual = superdual.s_dual(classifier.classify(_orbit(args)))
    out.write(f"{dual} [{dual.provenance}]\n")
    return 0


def _realization(args) -> realizations.MatrixRealization:
    """The matrix model named by --case or by --family/--partition."""
    if args.case:
        given = (args.family, args.partition, args.size, args.rank)
        if any(x is not None for x in given):
            raise ValueError("--case takes no --family, --partition, --size or --rank")
        return realizations.build_case(args.case)
    if not args.partition:
        raise ValueError("verify needs --case or --family/--partition")
    if not args.family:
        raise ValueError("--partition needs --family")
    p = parse_partition(args.partition)
    family = _family_from_args(args, n_from_partition=p.n)
    return realizations.classical_triple(family, p)


def cmd_verify(args, out) -> int:
    r = _realization(args)
    rep = verifier.coisotropy_check(r, args.seed)
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
            raise ValueError("--data needs --algebra (G2|F4|E6|E7|E8)")
        table = datasets.load_table(args.data, liealg.exceptional(args.algebra))
    elif args.algebra not in (None, "G2"):
        raise ValueError(f"--algebra {args.algebra} needs --data "
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
    report = classifier.sweep_inequality_proof(kind, args.n_max)
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
    """Run one command and map its failure, most specific first, to an
    exit code: a model fault or a missing S-dual is 1, any other
    ValueError is bad input and an unreadable file is 2."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (realizations.InconsistentRealization, superdual.NoDualError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
