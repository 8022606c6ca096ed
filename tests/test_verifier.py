import importlib
import random
from pathlib import Path

import pytest

from slicescope.classifier import NON_HOOK_CASES, classify, predicted_coisotropy
from slicescope.exactlinalg import (RatMatrix, Subspace, _echelon, bracket, kernel,
                                    rank_mod_p, trace_form)
from slicescope.liealg import AlgebraFamily, gl, orbit_datum
from slicescope.realizations import build_case, classical_triple
from slicescope.verifier import (SlicePoint, _check_at, _restricted_form, coisotropy_check,
                                 krylov_rank, omega_gram, orbit_tangent, radical_bounds,
                                 slice_point, stabilizer_dim)
from slicescope.partitions import Partition, valid_jordan_types

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_slice_point_is_deterministic():
    r = build_case("gl4-hook1")
    a = slice_point(r, 11)
    b = slice_point(r, 11)
    assert a.x == b.x and a.coefficients == b.coefficients
    assert slice_point(r, 12).coefficients != a.coefficients


def test_omega_gram_is_antisymmetric():
    r = build_case("sp6-hook2")
    gram = omega_gram(slice_point(r, 3))
    assert gram.transpose() == gram.scale(-1)
    for i in range(gram.rows):
        assert gram.data[i][i] == 0


def _all_pairs_gram(r, x):
    """The slice form's Gram matrix from its definition, on every g-g and g-z(f) pair."""
    dg, dz, n = r.dim_g, r.dim_zf, x.rows
    g_basis = [RatMatrix.from_flat_row(b, n, n) for b in r.g_rows]
    gram = {}
    for i, bi in enumerate(g_basis):
        for j in range(i + 1, dg):
            val = trace_form(x.flat_row(), bracket(bi, g_basis[j]).flat_row(), n)
            gram[i, j], gram[j, i] = val, -val
        for j, zj in enumerate(r.zf_rows):
            val = -trace_form(zj, r.g_rows[i], n)
            gram[i, dg + j], gram[dg + j, i] = val, -val
    return RatMatrix.from_entries(dg + dz, dg + dz, gram)


def test_omega_gram_matches_the_all_pairs_definition():
    checked = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                r = classical_triple(AlgebraFamily(kind, n), p)
                pt = slice_point(r, 0)
                assert omega_gram(pt) == _all_pairs_gram(r, pt.x), (kind, p)
                checked += 1
    assert checked == 127


def test_omega_gram_rejects_offslice_points():
    # A point holds one coefficient per z(f) basis element, so an off-slice
    # x cannot be expressed; a wrong number of coefficients is refused
    # when the point is made, never truncated.
    r = build_case("gl4-hook1")
    assert r.dim_zf == 6
    for coeffs in ((), (1,) * 5, (1,) * 7):
        with pytest.raises(ValueError, match=f"^{len(coeffs)} coefficients, dim z\\(f\\) is 6$"):
            SlicePoint(r, coeffs)
    assert SlicePoint(r, (0,) * 6).x == r.e


def test_regular_orbit_rank_at_e():
    # Regular (2) in the 2x2 general linear case: omega at x = e already
    # has full rank dim g + slice dim = 4 + 2 = 6.
    r = classical_triple(gl(2), Partition((2,)))
    gram = omega_gram(SlicePoint(r, (0,) * r.dim_zf))
    assert gram.rows == 6
    assert gram.rank() == 6


def test_omega_has_full_rank_at_e_and_along_each_zf_direction():
    # G x S_e is a Whittaker reduction of T*G, so omega is nondegenerate at
    # every point of a sound model: at x = e, e + z_i and e - 5 z_i here.
    checked = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                r = classical_triple(AlgebraFamily(kind, n), p)
                dz = r.dim_zf
                points = [(0,) * dz]
                points += [tuple(c * (i == j) for j in range(dz)) for i in range(dz)
                           for c in (1, -5)]
                for coeffs in points:
                    gram = omega_gram(SlicePoint(r, coeffs))
                    assert gram.rank() == gram.rows, (kind, p, coeffs)
                checked += 1
    assert checked == 127


def test_orbit_tangent_at_e_is_g_only():
    # q centralizes e, so the orbit directions at x = e are just g.
    r = build_case("so7-hook2")
    at_e = SlicePoint(r, (0,) * r.dim_zf)
    w = orbit_tangent(at_e)
    assert w.dim == r.dim_g
    assert stabilizer_dim(at_e) == r.dim_q


def test_stabilizer_vanishes_generically():
    r = build_case("gl5-hook2")
    assert stabilizer_dim(slice_point(r, 0)) == 0


def test_coisotropy_positive_cases():
    # Expected orthogonal dimension is rk(g) + rk(q) in each case.
    for label, perp in [("gl4-hook1", 5), ("sp4-hook2", 3), ("so7-hook2", 4),
                        ("sp4-2.2", 3), ("so5-2.2.1", 3), ("so6-3.3", 4)]:
        r = build_case(label)
        rep = coisotropy_check(r, seed=0)
        assert not rep.inconclusive
        assert rep.omega_rank == rep.dim_ambient
        assert rep.contained
        assert rep.dim_W_perp == perp
        assert rep.dim_intersection == perp
        assert rep.stabilizer_dim == 0


def test_coisotropy_sp6_33():
    rep = coisotropy_check(build_case("sp6-33"), seed=0)
    assert (rep.dim_ambient, rep.omega_rank) == (28, 28)
    assert (rep.dim_W, rep.dim_W_perp) == (24, 4)
    assert rep.contained and not rep.inconclusive


def test_coisotropy_negative_case():
    # Non-hyperspherical types fail containment: (3,2) in the rank-5
    # general linear algebra, (3,3,1) in so(7) and (2,2,2) in sp(6).
    for label, dim_ambient in [("gl5-3.2", 34), ("so7-3.3.1", 28),
                               ("sp6-2.2.2", 30)]:
        rep = coisotropy_check(build_case(label), seed=0)
        assert rep.omega_rank == rep.dim_ambient == dim_ambient, label
        assert not rep.contained, label
        assert rep.dim_intersection < rep.dim_W_perp, label


def test_special_first_sample_of_a_negative_control_is_not_kept():
    # Seed 134815 samples gl6-2.2.2 where W contains W-perp; seed 134816 is generic.
    assert not coisotropy_check(build_case("gl6-2.2.2"), 134815).contained


def test_every_small_type_agrees_with_the_classifier():
    """Every valid gl/sp/so type with n <= 8 confirms its verdict in a model."""
    checked = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                family = AlgebraFamily(kind, n)
                rep = coisotropy_check(classical_triple(family, p), 0)
                assert not rep.inconclusive, (kind, p)
                predicted = predicted_coisotropy(classify(orbit_datum(family, p)))
                got = {key: rep.to_dict()[key] for key in predicted}
                assert got == predicted, (kind, p)
                checked += 1
    assert checked == 127


def test_non_hook_case_images_match_their_sources_in_a_model():
    # A type hyperspherical via an isomorphism has the geometry of its image:
    # the same containment and stabilizer, and the same dimensions up to the
    # centre of gl, which adds one to g and to z(f), so two to the ambient
    # space and one to W, W-perp and their intersection.
    dims = ("dim_ambient", "dim_W", "dim_W_perp", "dim_intersection")
    pairs = 0
    for (kind, parts), case in NON_HOOK_CASES.items():
        if case.image is None:
            continue
        fam, image = case.image
        source = classical_triple(AlgebraFamily(kind, sum(parts)), Partition(parts))
        target = classical_triple(fam, image)
        shift = (kind == "GL") - (fam.kind == "GL")
        for seed in (0, 1):
            a = coisotropy_check(source, seed).to_dict()
            b = coisotropy_check(target, seed).to_dict()
            assert (a["contained"], a["stabilizer_dim"]) == \
                (b["contained"], b["stabilizer_dim"]), (kind, parts, seed)
            assert [a[k] - b[k] for k in dims] == [2 * shift, shift, shift, shift], \
                (kind, parts, seed)
        pairs += 1
    assert pairs == 7


def test_report_serializes():
    rep = coisotropy_check(build_case("gl4-hook1"), seed=5)
    d = rep.to_dict()
    assert d["case"] == "gl4-hook1"
    assert set(d) == {"case", "seed", "dim_ambient", "omega_rank", "dim_W",
                      "dim_W_perp", "contained", "dim_intersection",
                      "stabilizer_dim", "inconclusive"}


def _kernel_containment(w, gram):
    """(dim W-perp, dim of W meet W-perp, contained) from a basis of W-perp."""
    w_perp = kernel(w.matrix() @ gram)
    intersection = w.intersection_dim(w_perp)
    return w_perp.dim, intersection, intersection == w_perp.dim


def _kernel_stabilizer(r, x):
    """dim {c in q : [c, x] = 0} as the dimension of a kernel basis."""
    if not r.q_rows:
        return 0
    n = x.rows
    cols = [bracket(RatMatrix.from_flat_row(c, n, n), x).flat_row() for c in r.q_rows]
    return kernel(RatMatrix(cols, n * n).transpose()).dim


@pytest.fixture(scope="module")
def samples():
    """The verify-cases labels at seeds 0 and 1, and every valid gl/sp/so type
    with n <= 8 at seed 0, as (realization, seed) pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        labels = importlib.import_module("workloads").VERIFY_CASES
    out = [(build_case(label), seed) for label in labels for seed in (0, 1)]
    out += [(classical_triple(AlgebraFamily(kind, n), p), 0)
            for kind in ("GL", "Sp", "SO") for n in range(1, 9)
            for p in valid_jordan_types(kind, n)]
    assert len(out) == 2 * 38 + 127
    return out


def test_rank_shortcuts_match_the_kernels(samples):
    """W-perp, its meet with W and the stabilizer from ranks equal their kernel-basis values."""
    for r, seed in samples:
        pt = slice_point(r, seed)
        rep = _check_at(r, seed)
        got = (rep.dim_W_perp, rep.dim_intersection, rep.contained)
        assert got == _kernel_containment(orbit_tangent(pt), omega_gram(pt)), (r.label, seed)
        assert rep.stabilizer_dim == _kernel_stabilizer(r, pt.x), (r.label, seed)


def test_a_check_flattens_only_e_and_rebuilds_only_x(monkeypatch):
    # The model's bases are flattened rows already: one check flattens e,
    # to sum x as a row, and makes that one row a matrix.
    real_flat, real_from, flats, froms = RatMatrix.flat_row, RatMatrix.from_flat_row, [], []

    def counted_flat(m):
        flats.append(m)
        return real_flat(m)

    def counted_from(cls, row, rows, cols):
        froms.append(row)
        return real_from(row, rows, cols)

    for label in ("sp8-hook6", "gl6-1.1.1.1.1.1"):
        r = build_case(label)
        flats.clear()
        froms.clear()
        with monkeypatch.context() as mp:
            mp.setattr(RatMatrix, "flat_row", counted_flat)
            mp.setattr(RatMatrix, "from_flat_row", classmethod(counted_from))
            _check_at(r, 0)
        assert flats == [r.e], label
        assert len(froms) == 1, label
        assert RatMatrix.from_flat_row(froms[0], r.e.rows, r.e.rows) == slice_point(r, 0).x


def test_slice_point_is_e_plus_the_combination(samples):
    for r, seed in samples:
        pt = slice_point(r, seed)
        n = r.e.rows
        x = {(i, j): v for i, row in enumerate(r.e.entries) for j, v in row.items()}
        for c, z in zip(pt.coefficients, r.zf_rows):
            for i, row in enumerate(RatMatrix.from_flat_row(z, n, n).scale(c).entries):
                for j, v in row.items():
                    x[i, j] = x.get((i, j), 0) + v
        assert pt.x == RatMatrix.from_entries(n, n, x), (r.label, seed)


def _rotation_first(w):
    """W's basis as the rows of a matrix, in the order _restricted_form takes them."""
    return RatMatrix(w.rows[::-1], w.ambient_dim)


def test_restricted_form_from_the_gram_blocks(samples):
    # omega on W assembled from the Gram matrix's blocks and one product
    # with the echelon rows equals the full product M . gram . M^T.
    for r, seed in samples:
        pt = slice_point(r, seed)
        gram = omega_gram(pt)
        m = _rotation_first(orbit_tangent(pt))
        assert _restricted_form(pt.echelon, gram, r.dim_g) == (m @ gram) @ m.transpose(), \
            (r.label, seed)


def test_rotation_rank_mod_p_is_exact_on_every_sample(samples):
    # The cross-check agrees with the exact rank of the rotations, as n^2
    # vectors, and with the echelon of their z(f) coordinates.
    for r, seed in samples:
        pt = slice_point(r, seed)
        exact = RatMatrix(pt.rotations, r.family.size ** 2).rank()
        assert rank_mod_p(pt.rotations) == exact == len(pt.echelon), (r.label, seed)


def test_orbit_tangent_spans_all_generators(samples):
    # The span of the dim g unit rows together with every rotation, in g + z(f).
    for r, seed in samples:
        pt = slice_point(r, seed)
        dg = r.dim_g
        zf = r.zf_subspace()
        gens = [{i: 1} for i in range(dg)]
        gens += [{dg + t: v for t, v in zf.coords(col).items()} for col in pt.rotations]
        full = Subspace.span(dg + r.dim_zf, gens)
        w = orbit_tangent(pt)
        assert w.dim == full.dim and full.contains(w), (r.label, seed)


def test_containment_on_degenerate_forms():
    # Congruent images of antisymmetric forms with a zero block, on dg + dz
    # coordinates, with W spanned by the first dg unit rows and echelon rows
    # in the last dz: the assembly asks only for antisymmetry, and reads the
    # dz x dz block, which these forms fill.
    rng = random.Random(0)
    checked = filled = 0
    while checked < 60:
        dg, dz = rng.randint(0, 4), rng.randint(1, 4)
        k = dg + dz
        core = rng.randint(0, k - 1)
        form = {}
        for i in range(core):
            for j in range(i + 1, core):
                form[i, j] = v = rng.randint(-2, 2)
                form[j, i] = -v
        p = RatMatrix.from_entries(k, k, {(i, j): rng.randint(-2, 2)
                                          for i in range(k) for j in range(k)})
        if p.rank() < k:
            continue
        gram = p.transpose() @ RatMatrix.from_entries(k, k, form) @ p
        assert gram.rank() < k and gram.transpose() == gram.scale(-1)
        reduced = _echelon({j: x for j, x in enumerate(rng.randint(-1, 1) for _ in range(dz)) if x}
                           for _ in range(rng.randint(0, dz)))
        echelon = [reduced[c] for c in sorted(reduced)]
        rows = [{i: 1} for i in range(dg)] + [{dg + j: x for j, x in row.items()}
                                              for row in echelon]
        w = Subspace(k, rows)
        restricted = _restricted_form(echelon, gram, dg)
        m = _rotation_first(w)
        assert restricted == (m @ gram) @ m.transpose()
        assert w.dim - restricted.rank() == _kernel_containment(w, gram)[1]
        filled += any(j >= dg for row in gram.entries[dg:] for j in row) and bool(echelon)
        checked += 1
    assert filled >= 10


def _exact_record(r, seed):
    """The record of the exact path alone: the rotation echelon and omega on W."""
    pt = slice_point(r, seed)
    gram = omega_gram(pt)
    dim_w = orbit_tangent(pt).dim
    intersection = dim_w - _restricted_form(pt.echelon, gram, r.dim_g).rank()
    perp = gram.rows - dim_w
    return {"case": r.label, "seed": seed, "dim_ambient": gram.rows, "omega_rank": gram.rank(),
            "dim_W": dim_w, "dim_W_perp": perp, "contained": intersection == perp,
            "dim_intersection": intersection, "stabilizer_dim": stabilizer_dim(pt),
            "inconclusive": False}


def _small_types(samples):
    """The model of every valid gl/sp/so type with n <= 8, from ``samples``."""
    return [r for r, _ in samples[2 * 38:]]


def test_squeeze_agrees_with_the_exact_path(samples):
    # Every type with n <= 8 at seeds 0, 1 and 7, and the verify-cases labels
    # at seeds 0 and 1.  The squeeze's ends bracket the exact record on every
    # sample; where they meet, the record is the exact one, field by field.
    cases = samples[:2 * 38] + [(r, seed) for r in _small_types(samples) for seed in (0, 1, 7)]
    decided = contained = 0
    fallbacks = []
    for r, seed in cases:
        exact = _exact_record(r, seed)
        assert _check_at(r, seed).to_dict() == exact, (r.label, seed)
        lower, upper = radical_bounds(slice_point(r, seed))
        assert lower <= exact["dim_intersection"] <= exact["dim_W_perp"] <= upper, (r.label, seed)
        contained += exact["contained"]
        decided += lower == upper
        if exact["contained"] and lower < upper:
            fallbacks.append((r.label, seed))
            # Only a special x falls back: its Krylov vectors are dependent.
            krylov = r.family.size if r.family.kind == "GL" else r.family.size // 2
            assert krylov_rank(slice_point(r, seed)) < krylov, (r.label, seed)
    assert fallbacks == [("so2-1.1", 7)]   # its one coefficient is 0, so x = 0
    assert contained == decided + 1


def test_squeeze_closes_with_rk_q_on_every_hyperspherical_type(samples):
    # dim ker Q is at least rk q at every point, and r1 and k can only grow
    # at the generic point, so a squeeze that closes with rk q in place of
    # dim q - rank Q proves containment at the generic point.
    closed = 0
    for r in _small_types(samples):
        if not predicted_coisotropy(r.verdict)["contained"]:
            continue
        pt = slice_point(r, 0)
        k = pt.rotation_rank
        rk_q = r.orbit.effective_centralizer.rank
        assert krylov_rank(pt) + rk_q - (r.dim_q - k) == r.dim_zf - k, r.label
        closed += 1
    assert closed == 79
