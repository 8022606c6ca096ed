import dataclasses
import random

import pytest

from slicescope import realizations
from slicescope.classifier import classify
from slicescope.exactlinalg import RatMatrix, Subspace, bracket, kernel
from slicescope.liealg import (AlgebraFamily, effective_centralizer, exceptional, gl,
                               orbit_datum, so, sp)
from slicescope.partitions import (Partition, hook_parameters, multiplicities,
                                   valid_jordan_types)
from slicescope.realizations import (InconsistentRealization, RealizationError, _ad_kernel_in,
                                     _direct_sum, _form_rows, _kron, _sl2_on_jordan_block,
                                     _standard_symplectic,
                                     build_algebra, build_case, classical_triple,
                                     invariant_form_on_block,
                                     sp6_q_cartan, weight_space_dims)


def _matrices(rows, n):
    """The n x n matrices whose row-major flattenings are the given sparse rows."""
    return [RatMatrix.from_flat_row(row, n, n) for row in rows]


def _trace(m):
    return sum(m.entries[i].get(i, 0) for i in range(m.rows))


def _check_triple_relations(r):
    assert bracket(r.e, r.f) == r.h
    assert bracket(r.h, r.e) == r.e.scale(2)
    assert bracket(r.h, r.f) == r.f.scale(-2)


def test_build_algebra_dimensions():
    assert len(build_algebra(3, None)) == 9
    sympl = RatMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert len(build_algebra(4, sympl)) == 10       # sp(4)
    assert len(build_algebra(5, RatMatrix.identity(5))) == 10  # so(5)


def _product_defined_algebra(n, gram):
    """Kernel of X -> X^T M + M X, with each column formed by matrix products."""
    cols = []
    for i in range(n):
        for j in range(n):
            x = RatMatrix.from_entries(n, n, {(i, j): 1})
            cols.append((x.transpose() @ gram + gram @ x).flat_row())
    return kernel(RatMatrix.from_rows(cols, n * n).transpose()).rows


def _small_sp_so_types():
    for kind in ("Sp", "SO"):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                yield AlgebraFamily(kind, n), p


def _forms():
    """The block forms, the multiplicity-space forms and every sp/so model's form."""
    grams = [invariant_form_on_block(m) for m in range(1, 13)]
    grams += [RatMatrix.identity(d) for d in range(1, 9)]
    grams += [_standard_symplectic(d) for d in range(2, 9, 2)]
    grams += [classical_triple(family, p).gram for family, p in _small_sp_so_types()]
    assert len(grams) == 12 + 8 + 4 + 61     # 61 valid sp/so types with n <= 8
    return grams


def test_build_algebra_matches_the_product_defined_map():
    for gram in _forms():
        assert build_algebra(gram.rows, gram) == _product_defined_algebra(gram.rows, gram)


def test_form_rows_matches_the_matrix_products():
    rng = random.Random(0)
    for m in _forms():
        n = m.rows
        xs = [RatMatrix([[rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(n)]
                         for _ in range(n)]) for _ in range(3)]
        assert _form_rows(m, [x.flat_row() for x in xs]) == [
            (x.transpose() @ m + m @ x).flat_row() for x in xs]


def test_form_rows_vanishes_on_every_model_element():
    checked = 0
    for family, p in _small_sp_so_types():
        r = classical_triple(family, p)
        elements = [x.flat_row() for x in (r.e, r.f, r.h)] + r.g_rows + r.zf_rows + r.q_rows
        assert _form_rows(r.gram, elements) == [{}] * len(elements)
        checked += 1
    assert checked == 61


def _scaled_sum_ad_kernel(g_rows, op):
    """The kernel basis of ad(op) on span(g_rows), each a sum of scaled g elements, flattened."""
    n = op.rows
    g_basis = _matrices(g_rows, n)
    cols = [bracket(op, b).flat_row() for b in g_basis]
    out = []
    for coeffs in kernel(RatMatrix.from_rows(cols, n * n).transpose()).rows:
        acc = RatMatrix.from_entries(n, n, {})
        for t, c in coeffs.items():
            acc = acc + g_basis[t].scale(c)
        out.append(acc.flat_row())
    return out


def test_zf_basis_matches_the_scaled_sum():
    checked = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                r = classical_triple(AlgebraFamily(kind, n), p)
                assert r.zf_rows == _scaled_sum_ad_kernel(r.g_rows, r.f), (kind, p)
                assert _ad_kernel_in(r.g_rows, r.h) == _scaled_sum_ad_kernel(r.g_rows, r.h)
                checked += 1
    assert checked == 127



def _closed_form_q(r):
    """1 (x) g(M_i, B_M) summed over the parts, traceless for gl.

    Each factor is built on its multiplicity space M_i, with the form the
    centralizer factor of its part names, and placed at its part's block.
    """
    n = r.family.size
    mults = list(multiplicities(r.jordan_type).items())
    out = []
    offset = 0
    for (i, d), factor in zip(mults, reversed(r.orbit.centralizer.factors)):
        if factor.kind == "GL":
            form_m = None
        elif factor.kind == "SO":
            form_m = RatMatrix.identity(d)
        else:
            form_m = _standard_symplectic(d)
        before = RatMatrix.from_entries(offset, offset, {})
        after = RatMatrix.from_entries(n - offset - i * d, n - offset - i * d, {})
        for x in _matrices(build_algebra(d, form_m), d):
            out.append(_direct_sum([before, _kron(x, RatMatrix.identity(i)), after]))
        offset += i * d
    if r.family.kind == "GL":
        scalar = RatMatrix.identity(n)
        out = [c.scale(n) - scalar.scale(_trace(c)) for c in out]
    return out


def test_q_basis_spans_the_closed_form_centralizer():
    checked = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(1, 9):
            for p in valid_jordan_types(kind, n):
                r = classical_triple(AlgebraFamily(kind, n), p)
                q = Subspace(n * n, r.q_rows)
                oracle = Subspace.span(n * n, [c.flat_row() for c in _closed_form_q(r)])
                assert q.dim == oracle.dim == r.orbit.effective_centralizer.dim, (kind, p)
                assert q.intersection_dim(oracle) == q.dim, (kind, p)
                checked += 1
    assert checked == 127

def test_build_algebra_rejects_bad_gram():
    with pytest.raises(RealizationError):
        build_algebra(2, RatMatrix([[1, 1], [0, 1]]))   # neither symmetric
    with pytest.raises(RealizationError):
        build_algebra(2, RatMatrix.from_entries(2, 2, {}))   # degenerate


def test_algebra_elements_preserve_form():
    gram = RatMatrix.identity(4)
    for x in _matrices(build_algebra(4, gram), 4):
        assert (x.transpose() @ gram + gram @ x).is_zero()


@pytest.mark.parametrize("m", range(2, 8))
def test_invariant_form_symmetry(m):
    form = invariant_form_on_block(m)
    assert form.rank() == m
    if m % 2 == 1:
        assert form.transpose() == form
    else:
        assert form.transpose() == -form


@pytest.mark.parametrize("m", range(1, 13))
def test_invariant_form_is_the_signed_antidiagonal(m):
    form = invariant_form_on_block(m)
    assert form == RatMatrix([[(-1) ** i if j == m - 1 - i else 0 for j in range(m)]
                              for i in range(m)])
    for x in _sl2_on_jordan_block(m):
        assert (x.transpose() @ form + form @ x).is_zero()


def test_zf_subspace_is_built_once():
    r = build_case("sp6-33")    # build_case relabels through dataclasses.replace
    zf = r.zf_subspace()
    assert r.zf_subspace() is zf
    assert zf.dim == r.dim_zf
    copy = dataclasses.replace(r, label="copy")
    assert copy.zf_subspace() is copy.zf_subspace()
    assert copy.zf_subspace().basis == zf.basis


def test_classical_triple_general_gl_type():
    r = classical_triple(gl(5), Partition((3, 2)))
    _check_triple_relations(r)
    assert r.dim_g == 25
    assert r.dim_zf == orbit_datum(gl(5), Partition((3, 2))).slice_dim == 9
    assert r.dim_q == effective_centralizer(gl(5), Partition((3, 2))).dim == 1
    assert hook_parameters(r.jordan_type) is None
    for c in _matrices(r.q_rows, 5):
        assert _trace(c) == 0


@pytest.mark.parametrize("label,dim_g,dim_zf,dim_q", [
    ("gl5-hook2", 25, 11, 4),
    ("gl4-hook1", 16, 6, 1),
    ("sp6-hook2", 21, 7, 3),
    ("so7-hook2", 21, 5, 1),
    ("so8-hook3", 28, 8, 3),
])
def test_hook_realization_dimensions(label, dim_g, dim_zf, dim_q):
    r = build_case(label)
    _check_triple_relations(r)
    assert (r.dim_g, r.dim_zf, r.dim_q) == (dim_g, dim_zf, dim_q)
    assert hook_parameters(r.jordan_type) is not None


def test_hook_dims_match_combinatorics():
    cases = [(gl(6), Partition((4, 1, 1))), (sp(8), Partition((4, 1, 1, 1, 1))),
             (so(9), Partition((5, 1, 1, 1, 1)))]
    for fam, p in cases:
        r = classical_triple(fam, p)
        assert r.orbit == orbit_datum(fam, p)
        assert r.verdict == classify(orbit_datum(fam, p))
        assert (r.family, r.jordan_type) == (fam, p)
        assert r.dim_g == fam.dim
        assert r.dim_zf == orbit_datum(fam, p).slice_dim
        assert r.dim_q == effective_centralizer(fam, p).dim


def test_classical_triple_rejects_bad_input():
    with pytest.raises(RealizationError):
        classical_triple(sp(6), Partition((3, 1, 1, 1)))   # odd big part for Sp
    with pytest.raises(RealizationError):
        classical_triple(so(6), Partition((4, 1, 1)))      # even big part for SO
    with pytest.raises(RealizationError):
        classical_triple(exceptional("G2"), Partition((2,)))   # not classical
    with pytest.raises(RealizationError):
        classical_triple(gl(4), Partition((3, 2)))         # does not fit gl(4)


def test_sp6_33_realization():
    r = build_case("sp6-33")
    _check_triple_relations(r)
    assert (r.dim_g, r.dim_zf, r.dim_q) == (21, 7, 3)
    gram = r.gram
    assert gram.transpose() == -gram
    for x in [r.e, r.f, r.h] + _matrices(r.q_rows, 6):
        assert (x.transpose() @ gram + gram @ x).is_zero()


def test_sp6_33_weight_spaces():
    r = build_case("sp6-33")
    cartan = sp6_q_cartan()
    dims = weight_space_dims(r, cartan, (-2, 0, 2))
    assert dims == {-2: 2, 0: 3, 2: 2}


def test_weight_space_dims_must_exhaust():
    r = build_case("sp6-33")
    with pytest.raises(RealizationError):
        weight_space_dims(r, sp6_q_cartan(), (0,))


def test_zf_elements_centralize_f():
    r = build_case("so7-hook2")
    for b in _matrices(r.zf_rows, 7):
        assert bracket(r.f, b).is_zero()


def test_q_centralizes_triple():
    r = build_case("sp6-hook2")
    for c in _matrices(r.q_rows, 6):
        assert bracket(c, r.e).is_zero()
        assert bracket(c, r.f).is_zero()
        assert bracket(c, r.h).is_zero()


@pytest.mark.parametrize("extra, message", [
    ("e", "q element fails to centralize e, f"),          # [e, e] = 0, [e, f] = h
    ("f", "q element fails to centralize e, f"),          # [f, e] = -h, [f, f] = 0
    ("identity", "q element does not preserve the form"),  # central, but I^T M + M I = 2M
])
def test_each_q_check_catches_a_bad_element(monkeypatch, extra, message):
    # The z(f) kernel is taken under ad f, then q under ad e; q gains one bad element.
    real, ops = realizations._ad_kernel_in, []

    def with_extra(basis, op, traceless=False):
        ops.append(op)
        out = real(basis, op, traceless)
        if len(ops) == 2:
            f, e = ops
            bad = {"e": e, "f": f, "identity": RatMatrix.identity(e.rows)}[extra]
            out = out + [bad.flat_row()]
        return out

    monkeypatch.setattr(realizations, "_ad_kernel_in", with_extra)
    with pytest.raises(InconsistentRealization, match=f"^sp4-2.2: {message}$"):
        build_case("sp4-2.2")

def test_build_case_labels():
    assert build_case("gl5-3.2").jordan_type == Partition((3, 2))
    with pytest.raises(RealizationError):
        build_case("nonsense")
    with pytest.raises(RealizationError):
        build_case("gl5-3.3")   # partition does not sum to 5
    assert build_case("sp6-33").jordan_type == Partition((3, 3))
    assert build_case("sp6-33").label == "sp6-33"
    with pytest.raises(RealizationError):
        build_case("sp6-3.2.1")  # odd parts of odd multiplicity in Sp
    with pytest.raises(RealizationError):
        build_case("gl3-hook3")  # leaves no big part

