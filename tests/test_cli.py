import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import slicescope
from slicescope import classifier, exactlinalg, liealg, realizations, verifier
from slicescope.cli import main
from slicescope.partitions import valid_jordan_types

# The classify/sweep commands of the benchmark, with the SHA-256 of their stdout.
EXPECTED_OUTPUT = (Path(__file__).resolve().parent.parent
                   / "perfbench" / "expected_output.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_tsv(capsys):
    code, out, err = run(capsys, "classify", "--family", "gl", "--rank", "4")
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0].startswith("family\trank\tjordan_type")
    assert len(lines) == 6      # header + five orbits
    row = dict(zip(lines[0].split("\t"), lines[2].split("\t")))
    assert row["jordan_type"] == "(3,1)"
    assert row["status"] == "HypersphericalHook"
    assert row["sdual"] == "gl(4|1)"
    assert row["slack"] == "0"


def test_classify_is_byte_identical(capsys):
    _, first, _ = run(capsys, "classify", "--family", "sp", "--rank", "3")
    _, second, _ = run(capsys, "classify", "--family", "sp", "--rank", "3")
    assert first == second


def test_classify_json_records(capsys):
    code, out, _ = run(capsys, "classify", "--family", "so", "--size", "7",
                       "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 7
    by_type = {r["jordan_type"]: r for r in records}
    assert by_type["(5,1,1)"]["status"] == "HypersphericalHook"
    assert by_type["(5,1,1)"]["sdual"] == "osp(2|6)"
    assert by_type["(3,3,1)"]["status"] == "NotHyperspherical"
    assert by_type["(3,3,1)"]["sdual"] == "-"


def test_check_pretty_identity_line(capsys):
    code, out, _ = run(capsys, "check", "--family", "so", "--partition",
                       "5,1,1", "--format", "pretty")
    assert code == 0
    assert "identity: 26 - 22 = 4 = 3 + 1" in out


def test_classify_pretty_puts_each_identity_under_its_orbit(capsys):
    code, out, _ = run(capsys, "classify", "--family", "gl", "--rank", "4",
                       "--format", "pretty")
    lines = out.splitlines()
    identities = [(lines[i - 3], line) for i, line in enumerate(lines) if "identity:" in line]
    assert code == 0 and identities == [
        ("GL(4)  (4)  -> RegularOrbit", "    identity: 20 - 16 = 4 = 4 + 0"),
        ("GL(4)  (3,1)  -> HypersphericalHook", "    identity: 22 - 17 = 5 = 4 + 1"),
        ("GL(4)  (2,2)  -> HypersphericalViaIsomorphism [(3,1,1,1) in SO(6)]",
         "    identity: 24 - 19 = 5 = 4 + 1"),
        ("GL(4)  (2,1,1)  -> HypersphericalHook", "    identity: 26 - 20 = 6 = 4 + 2"),
    ]


def test_check_sp6_33(capsys):
    code, out, _ = run(capsys, "check", "--family", "sp", "--rank", "3",
                       "--partition", "3,3", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["slice_dim"] == 7
    assert rec["lhs"] == 28 and rec["rhs"] == 28 and rec["slack"] == 0
    assert rec["status"].startswith("HypersphericalSpecial")
    assert rec["sdual"] == "f(4)"


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--family", "gl", "--partition", "3,1,1")
    assert code == 0
    assert out.strip() == "gl(5|2) [proved]"



def test_check_and_dual_size_the_algebra_from_the_partition(capsys):
    code, out, err = run(capsys, "check", "--family", "gl", "--partition", "3,1")
    assert (code, err) == (0, "")
    assert out == ("family\trank\tjordan_type\tdual\tslice_dim\tq_factors"
                   "\tlhs\trhs\tslack\tstatus\tsdual\n"
                   "GL(4)\t4\t(3,1)\t(2,1,1)\t6\tGL(1)xGL(1)"
                   "\t22\t24\t0\tHypersphericalHook\tgl(4|1)\n")
    assert run(capsys, "dual", "--family", "gl", "--partition", "3,1,1") == (
        0, "gl(5|2) [proved]\n", "")
    # classify has no partition to size from
    code, out, err = run(capsys, "classify", "--family", "gl")
    assert code == 2 and err == "usage error: no rank/size given\n" and not out

def test_dual_of_non_hyperspherical_exits_1(capsys):
    code, out, err = run(capsys, "dual", "--family", "gl", "--partition", "3,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "no S-dual" in err


def test_verify_case(capsys):
    code, out, _ = run(capsys, "verify", "--case", "so7-hook2", "--seed", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["case"] == "so7-hook2"
    assert rec["contained"] is True
    assert rec["dim_W_perp"] == 4
    assert rec["inconclusive"] is False


def test_verify_free_partition_sp_so(capsys):
    code, out, _ = run(capsys, "verify", "--family", "so", "--size", "6",
                       "--partition", "3,3")
    assert code == 0
    rec = json.loads(out)
    assert rec["case"] == "so6-3.3"
    assert rec["contained"] is True
    code, _, err = run(capsys, "verify", "--case", "sp6-3.2.1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("case", ["gl5-3.2", "sp6-33", "so4-2.2", "gl3-1.1.1",
                                  "sp2-1.1", "so4-1.1.1.1", "so1-1"])
def test_verify_agrees_with_classifier(capsys, case):
    code, out, err = run(capsys, "verify", "--case", case)
    assert code == 0 and not err
    assert json.loads(out)["case"] == case


def test_verify_disagreement_exits_1(capsys, monkeypatch):
    real = verifier.coisotropy_check

    def not_contained(r, seed):
        return dataclasses.replace(real(r, seed), contained=False)

    monkeypatch.setattr(verifier, "coisotropy_check", not_contained)
    code, out, err = run(capsys, "verify", "--case", "sp6-33")
    assert code == 1
    assert json.loads(out)["contained"] is False
    assert err.count("\n") == 1
    assert "sp6-33 disagrees with the classifier" in err
    assert "contained False, predicted True" in err


def test_verify_degenerate_omega_exits_1(capsys, monkeypatch):
    # The slice form is nondegenerate on a sound model, so a rank drop is a
    # broken realization: an error line and no record, like the model's other faults.
    real = verifier.omega_gram

    def degenerate(pt):
        gram = real(pt)
        last = gram.rows - 1
        rows = [{j: v for j, v in row.items() if j != last} for row in gram.entries[:last]]
        return exactlinalg.RatMatrix(rows + [{}], gram.cols)

    monkeypatch.setattr(verifier, "omega_gram", degenerate)
    assert run(capsys, "verify", "--case", "sp6-33") == (
        1, "", "error: omega has rank 26 < dim_ambient 28: broken realization\n")


@pytest.mark.parametrize("case", ["gl6-1.1.1.1.1.1", "so4-2.2", "gl6-hook2"])
def test_verify_stops_at_the_predicted_stabilizer(capsys, monkeypatch, case):
    # The zero orbit and so(4) (2,2) have a nonzero generic stabilizer; a
    # sample that reaches it is final.  The library call and the CLI read
    # the prediction from the model's verdict alike, so both keep seed 0.
    full = verifier.coisotropy_check(realizations.build_case(case), 0).to_dict()
    real, seeds = verifier._check_at, []

    def counted(r, seed):
        seeds.append(seed)
        return real(r, seed)

    monkeypatch.setattr(verifier, "_check_at", counted)
    code, out, _ = run(capsys, "verify", "--case", case, "--seed", "0")
    assert code == 0
    assert seeds == [0]
    assert json.loads(out) == full


@pytest.mark.parametrize("seed", [134815, 257892, 434274, 450277, 287059])
def test_verify_keeps_the_most_generic_sample(capsys, seed):
    # At these seeds the first sample of the negative control is special:
    # W meets W-perp in 10 dimensions, so W looks coisotropic.  It does not
    # agree with the prediction, so a retry is made and the generic one kept.
    code, out, err = run(capsys, "verify", "--case", "gl6-2.2.2", "--seed", str(seed))
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["contained"] is False and rec["dim_intersection"] == 8
    assert seed <= rec["seed"] < seed + 3


def _report(case, dim_ambient, dim_W, dim_intersection, stabilizer_dim=0):
    """A full-rank record; W-perp and containment follow from the dimensions."""
    dim_perp = dim_ambient - dim_W
    return verifier.CoisotropyReport(
        case=case, seed=-1, dim_ambient=dim_ambient, omega_rank=dim_ambient,
        dim_W=dim_W, dim_W_perp=dim_perp, contained=dim_intersection == dim_perp,
        dim_intersection=dim_intersection, stabilizer_dim=stabilizer_dim,
        inconclusive=False)


_GL6_GENERIC = _report("gl6-2.2.2", 54, 44, 8)
_GL6_CONTAINED = _report("gl6-2.2.2", 54, 44, 10)
_SP6_GENERIC = _report("sp6-33", 28, 24, 4)
_SP6_NOT_CONTAINED = _report("sp6-33", 28, 24, 3)
_SP6_STABILIZED = _report("sp6-33", 28, 23, 5, stabilizer_dim=1)


@pytest.mark.parametrize("case, script, attempts, kept, wrong", [
    # A contained sample of lower omega|W rank is retried; the generic one is final.
    ("gl6-2.2.2", [_GL6_CONTAINED, _GL6_GENERIC, _GL6_GENERIC], 2, 1, None),
    # The most generic sample disagrees; later, less generic ones agree but are not kept.
    ("sp6-33", [_SP6_NOT_CONTAINED, _SP6_GENERIC, _SP6_GENERIC], 3, 0,
     "contained False, predicted True"),
    # A stabilizer above the prediction is retried.
    ("sp6-33", [_SP6_STABILIZED, _SP6_GENERIC, _SP6_GENERIC], 2, 1, None),
    # Of equally generic samples, the first is kept.
    ("sp6-33", [_SP6_STABILIZED] * 3, 3, 0,
     "stabilizer_dim 1, predicted 0; dim_W_perp 5, predicted 4"),
])
def test_verify_stop_rule(capsys, monkeypatch, case, script, attempts, kept, wrong):
    seeds = []

    def scripted(r, seed):
        seeds.append(seed)
        return dataclasses.replace(script[seed - 40], seed=seed)

    monkeypatch.setattr(verifier, "_check_at", scripted)
    code, out, err = run(capsys, "verify", "--case", case, "--seed", "40")
    assert seeds == list(range(40, 40 + attempts))
    assert json.loads(out) == dataclasses.replace(script[kept], seed=40 + kept).to_dict()
    if wrong is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err == (f"verify: {case} disagrees with the classifier "
                       f"(HypersphericalSpecial): {wrong}\n")


def test_verify_computes_the_orbit_datum_once(capsys, monkeypatch):
    # The matrix model carries the verdict on the orbit datum it was built
    # from, and verify reads that one.
    real, calls = liealg.orbit_datum, []

    def counted(family, p):
        calls.append((family, p))
        return real(family, p)

    for module in (liealg, classifier):
        monkeypatch.setattr(module, "orbit_datum", counted)
    code, _, _ = run(capsys, "verify", "--case", "gl4-hook1")
    assert code == 0
    assert len(calls) == 1


def test_omega_gram_pairs_only_supports_that_meet(capsys, monkeypatch):
    # All pairs would be dg(dg-1)/2 + dg*dz trace_form calls per Gram
    # matrix, 1638 for sp8-hook6; trace_form is called exactly on the
    # (b, z) pairs in g x z(f) whose supports meet, b[l][k] and z[k][l]
    # both nonzero: 28 of them.
    r = realizations.build_case("sp8-hook6")
    all_pairs = r.dim_g * (r.dim_g - 1) // 2 + r.dim_g * r.dim_zf
    assert all_pairs == 1638
    n = r.e.rows
    g_basis, zf_basis = ([exactlinalg.RatMatrix.from_flat_row(row, n, n) for row in rows]
                         for rows in (r.g_rows, r.zf_rows))
    meeting = sum(1 for b in g_basis for z in zf_basis
                  if any(l in z.entries[k] for l, row in enumerate(b.entries) for k in row))
    assert meeting == 28
    real_gram, real_trace, grams, traces = verifier.omega_gram, verifier.trace_form, [], []

    def counted_gram(pt):
        grams.append(pt.realization.label)
        return real_gram(pt)

    def counted_trace(a, b, n):
        traces.append(1)
        return real_trace(a, b, n)

    monkeypatch.setattr(verifier, "omega_gram", counted_gram)
    monkeypatch.setattr(verifier, "trace_form", counted_trace)
    code, _, _ = run(capsys, "verify", "--case", "sp8-hook6")
    assert code == 0 and grams
    assert len(traces) == len(grams) * meeting


def test_verify_brackets_only_to_check_the_model(capsys, monkeypatch):
    # The three triple relations are the only bracket calls.  [c, e] = [c, f]
    # = 0 is checked with one ad_rows call per operator over the whole q
    # basis, and everything else applies ad to whole bases at once too.
    real, calls = exactlinalg.bracket, []

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    for module in (exactlinalg, realizations, verifier):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "verify", "--case", "sp8-hook6")
    assert code == 0
    assert len(calls) == 3


def test_verify_applies_ad_three_times_per_sample(capsys, monkeypatch):
    # Per sample, ad is applied to three bases: g for the Gram matrix, q
    # once for the rotations [x, c], and f over the rotations, to check
    # that they lie in z(f).  A sample the squeeze does not decide, as on
    # the negative control gl6-2.2.2, reads dim z_g(x) off the Gram
    # matrix and applies ad to no further basis.
    real_ad, real_check, ads, checks = verifier.ad_rows, verifier._check_at, [], []

    def counted_ad(op, rows):
        ads.append(1)
        return real_ad(op, rows)

    def counted_check(r, seed):
        checks.append(1)
        return real_check(r, seed)

    monkeypatch.setattr(verifier, "ad_rows", counted_ad)
    monkeypatch.setattr(verifier, "_check_at", counted_check)
    for label in ("sp8-hook6", "gl6-1.1.1.1.1.1", "gl6-2.2.2"):
        ads.clear()
        checks.clear()
        code, _, _ = run(capsys, "verify", "--case", label)
        assert code == 0 and checks, label
        assert len(ads) == 3 * len(checks), label


def test_verify_broken_model_exits_1(capsys, monkeypatch):
    real = realizations._sl2_on_jordan_block

    def broken(m):
        e, f, h = real(m)
        return e, f, h.scale(2)

    monkeypatch.setattr(realizations, "_sl2_on_jordan_block", broken)
    for argv in (["--case", "gl4-hook1"], ["--family", "sp", "--partition", "2,2"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and not out
        assert err.startswith("error: ") and "triple relations fail" in err


def test_verify_model_broken_at_the_slice_point_exits_1(capsys, monkeypatch):
    # A g element posing as a symmetry moves the slice point out of the slice.
    real = realizations.build_case

    def broken(label):
        r = real(label)
        return dataclasses.replace(r, q_rows=r.q_rows + [r.g_rows[0]])

    monkeypatch.setattr(realizations, "build_case", broken)
    code, out, err = run(capsys, "verify", "--case", "gl4-hook1")
    assert code == 1 and not out
    assert err == "error: q direction leaves z(f): broken realization\n"


def test_verify_rotation_rank_mod_p_above_the_echelon_exits_1(capsys, monkeypatch):
    # The rotations [x, c] have one rank as n^2 vectors and in z(f)
    # coordinates.  Mod p that rank can only fall short, so a rank above
    # the echelon's is a broken model at once.
    real = verifier.rank_mod_p
    monkeypatch.setattr(verifier, "rank_mod_p", lambda rows: real(rows) + 1)
    assert run(capsys, "verify", "--case", "sp6-33") == (
        1, "", "error: the rotations have rank 4 in the matrix space but 3 in z(f) "
               "coordinates: broken realization\n")


def test_verify_rotation_rank_mod_p_below_the_echelon_is_recomputed(capsys, monkeypatch):
    # A rank mod p below the exact one may be a bad prime: it is recomputed
    # exactly, agrees, and the record is printed as usual.
    real = verifier.rank_mod_p
    monkeypatch.setattr(verifier, "rank_mod_p", lambda rows: real(rows) - 1)
    assert run(capsys, "verify", "--case", "sp6-33") == (
        0, '{"case": "sp6-33", "contained": true, "dim_W": 24, "dim_W_perp": 4, '
           '"dim_ambient": 28, "dim_intersection": 4, "inconclusive": false, '
           '"omega_rank": 28, "seed": 0, "stabilizer_dim": 0}\n', "")


# Hyperspherical labels of each family, with the zero orbit of gl(6) and
# so(4) (2,2), whose generic stabilizers are nonzero, and the two negative
# controls.
_SQUEEZE_LABELS = ["gl4-hook1", "gl6-1.1.1.1.1.1", "sp6-33", "sp8-hook6", "so7-hook2",
                   "so4-2.2", "gl5-3.2", "gl6-2.2.2"]


def _verify_outputs(capsys, labels):
    return {label: run(capsys, "verify", "--case", label) for label in labels}


def test_verify_with_r1_overstated_exits_1_and_never_flips_a_verdict(capsys, monkeypatch):
    # r1 one above its value puts the squeeze's lower end one above
    # dim(W meet W-perp).  Where the ends met, the lower end is now above
    # the upper; where they did not, as on the two negative controls, the
    # identity's exact record falls below the lower end.  Either way the
    # record breaks the bounds, and nothing is printed.
    real = verifier.krylov_rank
    monkeypatch.setattr(verifier, "krylov_rank", lambda pt: real(pt) + 1)
    for label, (code, out, err) in _verify_outputs(capsys, _SQUEEZE_LABELS).items():
        assert code == 1 and not out, label
        assert err.startswith("error: dim(W meet W-perp) ") and \
            err.endswith(": broken realization\n"), label


def test_verify_with_r1_understated_falls_back_to_the_same_record(capsys, monkeypatch):
    # One below, the ends do not meet, and the identity read with exact
    # terms prints the record the squeeze decided, byte for byte.
    honest = _verify_outputs(capsys, _SQUEEZE_LABELS)
    real, real_tangent, exact = verifier.krylov_rank, verifier.orbit_tangent, []
    monkeypatch.setattr(verifier, "krylov_rank", lambda pt: real(pt) - 1)
    monkeypatch.setattr(verifier, "orbit_tangent", lambda pt: exact.append(1) or real_tangent(pt))
    for label in _SQUEEZE_LABELS:
        exact.clear()
        assert run(capsys, "verify", "--case", label) == honest[label], label
        assert honest[label][0] == 0 and exact, label


def test_verify_q_direction_leaving_zf_exits_1_before_the_exact_path(capsys, monkeypatch):
    # A g element posing as a symmetry c has [f, [x, c]] nonzero: the
    # squeeze refuses the model before any rotation is put in z(f)
    # coordinates.
    real = realizations.build_case

    def broken(label):
        r = real(label)
        return dataclasses.replace(r, q_rows=r.q_rows + [r.g_rows[0]])

    def exact_path(self):
        raise AssertionError("the exact path ran")

    monkeypatch.setattr(realizations, "build_case", broken)
    monkeypatch.setattr(realizations.MatrixRealization, "zf_subspace", exact_path)
    for label in ("gl4-hook1", "sp6-33", "so7-hook2"):
        assert run(capsys, "verify", "--case", label) == (
            1, "", "error: q direction leaves z(f): broken realization\n"), label


# SHA-256 over "label seed exit code", a newline and stdout, for
# `verify --case label --seed seed` on every verify-cases label at seeds 0
# and 1.  It pins what verify prints, which no change to how the matrix
# core stores its vectors may move.
VERIFY_CASES_DIGEST = "b805ecd5c05f9630e8102807ede76ded99a9adb0db4463e77923212ec2e59054"


def test_verify_output_matches_the_recorded_digest(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(EXPECTED_OUTPUT.parent))
    labels = importlib.import_module("workloads").VERIFY_CASES
    digest = hashlib.sha256()
    for label in labels:
        for seed in (0, 1):
            code, out, _ = run(capsys, "verify", "--case", label, "--seed", str(seed))
            digest.update(f"{label} {seed} {code}\n{out}".encode())
    assert len(labels) == 38
    assert digest.hexdigest() == VERIFY_CASES_DIGEST


# SHA-256 over the command line, its exit code, a newline, stdout and
# stderr, for `verify --family F --partition P` on every valid gl/sp/so
# type with n <= 8 at the default seed 0.  It pins the records beyond the
# benchmark's labels.
VERIFY_TYPES_DIGEST = "d8f0c7e3bcd7d3422fd128f0d4a13e8c2869feb15b81964168c5e00caa9cc13f"


def test_verify_every_small_type_matches_the_recorded_digest(capsys):
    digest = hashlib.sha256()
    count = 0
    for family, kind in (("gl", "GL"), ("sp", "Sp"), ("so", "SO")):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                argv = ["verify", "--family", family, "--partition", ",".join(map(str, p.parts))]
                code, out, err = run(capsys, *argv)
                digest.update(f"{' '.join(argv)} {code}\n{out}{err}".encode())
                count += 1
    assert count == 127
    assert digest.hexdigest() == VERIFY_TYPES_DIGEST


def _classify_commands() -> list[list[str]]:
    """classify in every format on three algebras, sweep on every family,
    and check (pretty) and dual on every valid type with n <= 6."""
    commands = []
    for algebra in (["gl", "--rank", "12"], ["sp", "--rank", "8"], ["so", "--size", "17"]):
        for fmt in ("tsv", "json", "pretty"):
            commands.append(["classify", "--family", *algebra, "--format", fmt])
    for family in ("gl", "sp", "so"):
        commands.append(["sweep", "--family", family, "--n-max", "20"])
    for n in range(1, 7):
        for family, kind in (("gl", "GL"), ("sp", "Sp"), ("so", "SO")):
            for p in valid_jordan_types(kind, n):
                text = ",".join(map(str, p.parts))
                commands.append(["check", "--family", family, "--partition", text,
                                 "--format", "pretty"])
                commands.append(["dual", "--family", family, "--partition", text])
    return commands


# SHA-256 over the command line, its exit code, a newline, stdout and
# stderr, for each of _classify_commands() in order.  It pins the bytes
# of the combinatorial path beyond the benchmark's TSV digests: the json
# and pretty formats, the pretty identity lines, check and dual.
CLASSIFY_DIGEST = "4357bb4e860a242c9a8be3c6c90c7d8204a604284999e29fc2374ad8b41b3651"


def test_classify_output_matches_the_recorded_digest(capsys):
    commands = _classify_commands()
    digest = hashlib.sha256()
    for argv in commands:
        code, out, err = run(capsys, *argv)
        digest.update(f"{' '.join(argv)} {code}\n{out}{err}".encode())
    assert len(commands) == 12 + 2 * 59
    assert digest.hexdigest() == CLASSIFY_DIGEST


def test_verify_bad_case_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--case", "zz9-hook1")
    assert code == 2
    assert "usage error" in err


def test_scan_builtin_table(capsys):
    code, out, _ = run(capsys, "scan", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    passing = [r["label"] for r in rows if r["passes_necessary_bound"]]
    assert passing == ["0", "~A1", "G2"]
    by_label = {r["label"]: r for r in rows}
    assert by_label["~A1"]["slack"] == 0
    assert by_label["~A1"]["lhs"] == 20 and by_label["~A1"]["rhs"] == 20


def test_scan_offers_tsv_and_json_only(capsys):
    code, out, err = run(capsys, "scan")
    assert (code, err) == (0, "")
    assert out == ("label\torbit_dim\tslice_dim\tcentralizer\tlhs\trhs\tslack\tpasses\n"
                   "0\t0\t14\tG2\t28\t32\t-4\tTrue\n"
                   "A1\t6\t8\tA1\t22\t20\t2\tFalse\n"
                   "~A1\t8\t6\tA1\t20\t20\t0\tTrue\n"
                   "G2(a1)\t10\t4\t1\t18\t16\t2\tFalse\n"
                   "G2\t12\t2\t1\t16\t16\t0\tTrue\n")
    assert run(capsys, "scan", "--format", "tsv") == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--format", "pretty"])
    assert exc.value.code == 2
    assert "invalid choice: 'pretty'" in capsys.readouterr().err


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "sp", "--n-max", "10")
    assert code == 0
    assert "(2,2), (3,3)" in out
    assert "agrees with the direct bound everywhere" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--family", "so", "--rank", "3")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "classify", "--family", "gl", "--rank", "0")
    assert code == 2
    code, _, err = run(capsys, "check", "--family", "gl", "--rank", "4",
                       "--partition", "3,3")
    assert code == 2
    code, _, err = run(capsys, "check", "--family", "sp", "--partition", "3,2,1")
    assert code == 2
    # a type that does not fit or is invalid is bad input for dual as for check
    for argv in (["--family", "gl", "--rank", "3", "--partition", "2,2"],
                 ["--family", "sp", "--partition", "3,2,1"]):
        for command in ("check", "dual"):
            code, out, err = run(capsys, command, *argv)
            assert code == 2 and err.startswith("usage error: ") and not out
    # a malformed partition is bad input for every command that takes one
    for command, argv in (("check", ["--partition", "2,x"]),
                          ("dual", ["--partition", "2,x"]),
                          ("verify", ["--partition", "2,x"]),
                          ("check", ["--partition", "0,1"])):
        code, out, err = run(capsys, command, "--family", "gl", "--rank", "3", *argv)
        assert code == 2 and err.startswith("usage error: ") and not out, (command, argv)
    # classify refuses sizes above its cap before enumerating anything
    for argv in (["--family", "gl", "--rank", "70"], ["--family", "so", "--size", "41"]):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2 and "usage error" in err and "size 40" in err and not out
    for family, n_max in (("gl", "0"), ("gl", "-3"), ("sp", "1")):
        code, out, err = run(capsys, "sweep", "--family", family, "--n-max", n_max)
        assert code == 2 and "usage error" in err and not out, (family, n_max)
    # --size / --rank must name the algebra of the partition
    for argv in (["--family", "so", "--size", "7", "--partition", "3,3"],
                 ["--family", "gl", "--rank", "9", "--partition", "2,1"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and "usage error" in err and not out
    # verify refuses matrix models above its cap before building anything
    for argv in (["--family", "gl", "--partition", "13"], ["--case", "so13-hook2"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and "usage error" in err and "size 12" in err and not out
    # hookK is (N-K, 1^K): at N - K = 1 it would be the zero orbit 1^N, and
    # below that no partition at all
    for label in ("gl3-hook2", "gl2-hook1", "sp4-hook3", "so5-hook4", "gl3-hook5"):
        code, out, err = run(capsys, "verify", "--case", label)
        assert (code, out) == (2, ""), label
        assert err.startswith(f"usage error: case '{label}': a hook (N-K, 1^K) needs "
                              "N - K >= 2"), err
    # --case names the whole model, so family arguments beside it are refused
    for argv in (["--family", "gl", "--partition", "3,2"], ["--size", "9"]):
        code, out, err = run(capsys, "verify", "--case", "sp6-33", *argv)
        assert code == 2 and "usage error" in err and not out
    # only the G2 table is built in; another algebra needs its own --data
    code, out, err = run(capsys, "scan", "--algebra", "F4")
    assert code == 2 and "usage error" in err and not out



def test_usage_errors_keep_their_order(capsys):
    """A type that does not fit is refused for its size before its parity;
    an invalid type that fits is refused for its parity."""
    cases = ((["--family", "sp", "--size", "6", "--partition", "3,2"],
              "usage error: partition of 5 does not fit Sp(6)\n"),
             (["--family", "so", "--partition", "2,1"],
              "usage error: (2,1) is not a valid SO Jordan type\n"))
    for command in ("check", "dual", "verify"):
        for argv, message in cases:
            assert run(capsys, command, *argv) == (2, "", message), (command, argv)


def test_main_maps_each_failure_to_one_line_and_an_exit_code(capsys, monkeypatch, tmp_path):
    """A failed certificate exits 1 with an error line; bad input exits 2,
    with an error line for a file that cannot be read and a usage error
    line for anything else, a malformed or mismatched table included."""
    missing, malformed = tmp_path / "missing.tsv", tmp_path / "malformed.tsv"
    malformed.write_text("label\tdim\n0\t0\n", encoding="utf-8")
    undecodable = tmp_path / "undecodable.tsv"
    undecodable.write_bytes(b"\xff\xfelabel\tdim\tcentralizer\n")
    g2 = str(Path(slicescope.__file__).parent / "data" / "g2.tsv")
    cases = (
        (["scan", "--data", str(missing), "--algebra", "F4"], 2,
         f"error: [Errno 2] No such file or directory: '{missing}'"),
        (["scan", "--data", str(malformed), "--algebra", "G2"], 2,
         f"usage error: {malformed}:2: expected at least 3 columns"),
        (["scan", "--data", str(undecodable), "--algebra", "F4"], 2,
         f"usage error: {undecodable}:1: not UTF-8: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        (["scan", "--data", g2, "--algebra", "E8"], 2,
         f"usage error: {g2}: row 1 (0): zero orbit needs all of E8 as its centralizer"),
        (["check", "--family", "gl", "--partition", "2,x"], 2,
         "usage error: bad partition token: 'x'"),
        (["classify", "--family", "gl", "--rank", "41"], 2,
         "usage error: enumeration is capped at matrix size 40, GL(41) has size 41"),
        (["dual", "--family", "gl", "--partition", "3,2"], 1,
         "error: (3,2) in GL(5) is not hyperspherical; it has no S-dual"),
    )
    for argv, code, line in cases:
        assert run(capsys, *argv) == (code, "", line + "\n"), argv
    real = realizations._sl2_on_jordan_block

    def broken(m):
        e, f, h = real(m)
        return e, f, h.scale(2)

    monkeypatch.setattr(realizations, "_sl2_on_jordan_block", broken)
    assert run(capsys, "verify", "--family", "sp", "--partition", "2,2") == \
        (1, "", "error: sp4-2.2: triple relations fail\n")


def test_oversized_partitions_are_refused_before_expansion(capsys):
    for command in ("check", "dual", "verify"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, "--family", "gl", "--partition", "1^200000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and err.startswith("usage error: ") and not out, command
        assert "size 200000" in err
        assert peak < 1 << 20, (command, peak)

def test_missing_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_one_process_matches_fresh_processes(capsys):
    """The parser is reused across calls; no parse state may leak."""
    calls = [
        ["classify", "--family", "gl", "--rank", "3"],
        ["classify", "--family", "so", "--rank", "3"],
        ["verify", "--family", "gl", "--partition", "3,2"],
        ["check", "--family", "so", "--partition", "5,1,1", "--format", "json"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    src = Path(slicescope.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv, got in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "slicescope.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0]


def test_python_m_slicescope_runs_the_cli(capsys):
    """``python -m slicescope`` from a source tree that is not installed."""
    argv = ["check", "--family", "gl", "--partition", "3,1"]
    code, out, _ = run(capsys, *argv)
    src = Path(slicescope.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "slicescope", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert code == 0 and out
    assert (proc.returncode, proc.stdout) == (code, out)
    # the exit code of main passes through
    bad = subprocess.run([sys.executable, "-m", "slicescope", "check", "--family",
                          "so", "--partition", "2,1"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 2


@pytest.mark.parametrize("entry", json.loads(EXPECTED_OUTPUT.read_text()),
                         ids=lambda e: " ".join(e["argv"]))
def test_benchmark_commands_are_byte_identical(capsys, entry):
    code, out, _ = run(capsys, *entry["argv"])
    assert code == 0
    data = out.encode()
    assert len(data) == entry["bytes"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]
