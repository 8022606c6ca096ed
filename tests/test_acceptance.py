"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS
lines on success).  All checks are exact integer or rational arithmetic;
the only tolerances are the stated wall-clock budgets.
"""

import time

from slicescope import classifier, datasets, realizations, superdual, verifier
from slicescope.classifier import (EXPECTED_EXCEPTIONS, Status, classify,
                                   enumerate_and_classify, necessary_bound,
                                   reduced_inequality, sweep_inequality_proof)
from slicescope.liealg import effective_centralizer, gl, orbit_datum, so, sp
from slicescope.partitions import (Partition, hook_parameters,
                                   valid_jordan_types)


def _report(num: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {message}")


def _hook_types(kind, size):
    return [p for p in valid_jordan_types(kind, size)
            if hook_parameters(p) is not None]


def test_criterion_1_hook_equality():
    """Slack vanishes exactly on every hook type, in under a second."""
    start = time.monotonic()
    checked = 0
    families = ([gl(n) for n in range(2, 13)]
                + [sp(n) for n in range(2, 25, 2)]
                + [so(n) for n in range(3, 14)])
    for fam in families:
        for p in _hook_types(fam.kind, fam.size):
            b = necessary_bound(orbit_datum(fam, p))
            assert b.slack == 0, f"nonzero slack for hook {p} in {fam}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"hook sweep took {elapsed:.2f}s"
    assert checked > 100
    _report(1, True, f"slack = 0 on all {checked} hooks "
                     f"(GL<=12, Sp<=24, SO<=13) in {elapsed:.2f}s")


def test_criterion_2_exception_lists():
    """The n <= 20 sweep reproduces the three exception sets exactly."""
    start = time.monotonic()
    for kind in ("GL", "Sp", "SO"):
        report = sweep_inequality_proof(kind, 20)
        assert report.exceptions_beyond_hooks == EXPECTED_EXCEPTIONS[kind], \
            f"{kind}: got {sorted(report.exceptions_beyond_hooks)}"
        assert report.matches_expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"sweeps took {elapsed:.2f}s"
    _report(2, True, "exception sets beyond hooks match "
                     "{(2,2)} / {(2,2),(3,3)} / {six type-D/B list} "
                     f"at n <= 20 in {elapsed:.2f}s")


def test_criterion_3_reduced_inequality_equivalence():
    """Reduced inequality agrees with the direct bound on every valid type."""
    mismatches = 0
    checked = 0
    for kind in ("GL", "Sp", "SO"):
        report = sweep_inequality_proof(kind, 20)
        mismatches += len(report.mismatches)
        checked += report.checked
    assert mismatches == 0
    _report(3, True, f"reduced == direct on all {checked} types at n <= 20")


def test_criterion_4_sp6_33_numbers():
    """The distinguished rank-3 symplectic slice has the advertised numbers."""
    o = orbit_datum(sp(6), Partition((3, 3)))
    assert o.slice_dim == 7
    b = necessary_bound(o)
    assert b.lhs == 28 and b.rhs == 28 and b.slack == 0
    assert [(f.kind, f.size) for f in o.centralizer.factors] == [("Sp", 2)]
    r = realizations.build_case("sp6-33")
    dims = realizations.weight_space_dims(r, realizations.sp6_q_cartan(),
                                          (-2, 0, 2))
    assert dims == {-2: 2, 0: 3, 2: 2}
    _report(4, True, "slice dim 7, bound 28 = 28, Q = Sp(2), "
                     "weight dims (2,3,2)")


def test_criterion_5_g2_scan():
    """The shipped exceptional table passes the bound exactly where proven."""
    rows = classifier.scan_exceptional(datasets.builtin_g2())
    passing = [r.label for r in rows if r.passes_necessary_bound]
    assert passing == ["0", "~A1", "G2"]
    row = {r.label: r for r in rows}["~A1"]
    assert row.lhs == 20 and row.rhs == 20 and row.slack == 0
    # Rank identity at the 8-dimensional orbit: slice minus centralizer.
    assert row.slice_dim - row.centralizer.dim == 3 == 2 + 1
    assert row.algebra.rank + row.centralizer.rank == 3
    _report(5, True, "bound passes exactly on {0, ~A1, G2}; "
                     "~A1 gives 20 = 20 and 3 = 2 + 1")


def _coisotropy_cases():
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


def test_criterion_6_coisotropy():
    """Sampled coisotropy holds on every small hook case and fails on (3,2)."""
    start = time.monotonic()
    n_cases = 0
    for label in _coisotropy_cases():
        r = realizations.build_case(label)
        expected_perp = (r.family.rank
                         + effective_centralizer(r.family, r.jordan_type).rank)
        for seed in (0, 100, 200):
            rep = verifier.coisotropy_check(r, seed)
            assert not rep.inconclusive, f"{label}: degenerate omega"
            assert rep.omega_rank == rep.dim_ambient, label
            assert rep.contained, f"{label}: W does not contain W-perp"
            assert rep.dim_W_perp == expected_perp, label
            assert rep.stabilizer_dim == 0, label
        n_cases += 1
    negative = realizations.build_case("gl5-3.2")
    for seed in (0, 100, 200):
        rep = verifier.coisotropy_check(negative, seed)
        assert rep.omega_rank == rep.dim_ambient
        assert not rep.contained, "negative control unexpectedly coisotropic"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"coisotropy suite took {elapsed:.1f}s"
    _report(6, True, f"{n_cases} positive cases x 3 seeds coisotropic, "
                     f"gl(5) (3,2) not, in {elapsed:.1f}s")


def test_criterion_7_s_dual_table():
    """Every hyperspherical verdict maps to the advertised dual shape."""
    families = ([gl(n) for n in range(1, 13)]
                + [sp(n) for n in range(2, 25, 2)]
                + [so(n) for n in range(3, 14)])
    n_duals = 0
    for fam in families:
        for v in enumerate_and_classify(fam):
            try:
                d = superdual.s_dual(v)
            except superdual.NoDualError:
                assert v.status not in classifier.HYPERSPHERICAL_STATUSES
                continue
            n_duals += 1
            for alg in d.algebras:
                assert alg.dim_odd % 2 == 0
            if v.status is not Status.HYPERSPHERICAL_HOOK:
                continue
            p = v.orbit.jordan_type
            assert hook_parameters(p) is not None
            k = len(p.parts) - 1
            if fam.kind == "GL":
                assert str(d) == f"gl({fam.size}|{k})"
            elif fam.kind == "Sp":
                a, b = d.algebras
                assert (a.family, a.m, a.n) == ("osp", fam.size + 1, fam.size - k)
                assert (b.family, b.m, b.n) == ("osp", fam.size + 1 - k, fam.size)
            elif fam.size % 2 == 0:
                assert str(d) == f"osp({fam.size}|{k - 1})"
            else:
                assert str(d) == f"osp({k}|{fam.size - 1})"
    # gl even-part consistency on every GL hook with n <= 12.
    for n in range(2, 13):
        for p in _hook_types("GL", n):
            v = classify(orbit_datum(gl(n), p))
            if v.status is not Status.HYPERSPHERICAL_HOOK:
                continue
            chk = superdual.check_even_part(superdual.s_dual(v), v)
            assert chk.applicable and chk.matches, f"even part off for {p}"
    assert str(superdual.s_dual(classify(
        orbit_datum(sp(6), Partition((3, 3)))))) == "f(4)"
    assert str(superdual.g2_short_root_dual()) == "g(3)"
    _report(7, True, f"{n_duals} dual assignments well formed; "
                     "gl even parts match; f(4) and g(3) in place")


def test_criterion_8_cross_module_dimensions():
    """Matrix realizations agree with the combinatorial dimension formulas."""
    labels = ["sp6-33", "gl5-3.2", "gl6-2.2.2"] + _coisotropy_cases()[:12]
    for label in labels:
        r = realizations.build_case(label)
        assert r.dim_zf == orbit_datum(r.family, r.jordan_type).slice_dim, label
        assert r.dim_q == effective_centralizer(r.family, r.jordan_type).dim, label
    _report(8, True, f"{len(labels)} realizations match slice and "
                     "centralizer dimensions")
