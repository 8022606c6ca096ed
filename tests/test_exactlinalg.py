import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slicescope import exactlinalg
from slicescope.exactlinalg import (RatMatrix, Subspace, _echelon, _entry, _rref, ad_rows,
                                    bracket, kernel, rank_mod_p, rank_of_vectors, trace_form)


def _row(vec):
    """The sparse row of a dense vector."""
    return {j: _entry(x) for j, x in enumerate(vec) if x}


def _mat(dense):
    """The matrix of a dense list of equal-length rows."""
    return RatMatrix([_row(r) for r in dense], len(dense[0]) if dense else 0)


def _minus(p, q):
    """The sparse row p - q."""
    return {c: _entry(v) for c in p.keys() | q.keys() if (v := p.get(c, 0) - q.get(c, 0))}


def test_kernel_identity_is_trivial():
    assert kernel(RatMatrix.identity(3)).dim == 0


def test_kernel_zero_matrix_is_everything():
    assert kernel(RatMatrix.from_entries(2, 3, {})).dim == 3


def test_kernel_rank_one():
    ker = kernel(_mat([[1, 1], [2, 2]]))
    assert ker.dim == 1
    (v,) = ker.basis
    assert v[0] == -v[1] != 0


def test_kernel_vectors_annihilate():
    a = _mat([[1, 2, 3], [4, 5, 6]])
    for v in kernel(a).basis:
        col = _mat([[x] for x in v])
        assert not any((a @ col).entries)


def test_contains_plane_and_axis():
    plane = Subspace(3, [{0: 1}, {1: 1}])
    x_axis = Subspace(3, [{0: 1}])
    y_axis = Subspace(3, [{1: 1}])
    z_axis = Subspace(3, [{2: 1}])
    assert plane.contains(x_axis)
    assert not x_axis.contains(y_axis)
    assert x_axis.contains(x_axis)
    assert not plane.contains(z_axis)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, [{0: 1, 1: 1}, {0: 2, 1: 2}])


def test_span_deduplicates():
    s = Subspace.span(2, [{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 1}])
    assert s.dim == 2


def test_coords_roundtrip():
    s = Subspace(3, [{0: 1, 1: 2}, {1: 1, 2: 1}])
    v = {0: 2, 1: 5, 2: 1}
    c = s.coords(v)
    assert c == {0: Fraction(2), 1: Fraction(1)}
    assert s.coords({2: 1}) is None


def test_a_stored_zero_is_refused():
    # A stored zero would count as a pivot: rank 1, or a division by zero.
    for build in (lambda: RatMatrix([{0: 0}], 1),
                  lambda: RatMatrix([{0: 1}, {0: Fraction(0)}], 1),
                  lambda: Subspace(2, [{0: 0, 1: 1}]),
                  lambda: Subspace.span(2, [{1: 0}]),
                  lambda: Subspace(2, [{0: 1}]).coords({1: 0}),
                  lambda: RatMatrix.from_flat_row({3: 0}, 2, 2),
                  lambda: ad_rows(RatMatrix.identity(2), [{1: 0}]),
                  lambda: trace_form({0: 1}, {0: 0}, 2)):
        with pytest.raises(ValueError, match="stores no zero"):
            build()


def test_bracket_gl2_units():
    e12 = _mat([[0, 1], [0, 0]])
    e21 = _mat([[0, 0], [1, 0]])
    assert bracket(e12, e21) == _mat([[1, 0], [0, -1]])
    assert not any(bracket(e12, e12).entries)
    assert trace_form(e12.flat_row(), e21.flat_row(), 2) == 1


def test_bracket_size_mismatch():
    with pytest.raises(ValueError):
        bracket(RatMatrix.identity(2), RatMatrix.identity(3))


def _random_matrix(rng, rows, cols, lo=-4, hi=4):
    return _mat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(seed, rows, cols):
    a = _random_matrix(random.Random(seed), rows, cols)
    assert a.rank() + kernel(a).dim == cols


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_trace_form_symmetric_and_ad_invariant(seed, n):
    rng = random.Random(seed)
    x, y, z = (_random_matrix(rng, n, n) for _ in range(3))

    def tr(a, b):
        return trace_form(a.flat_row(), b.flat_row(), n)

    assert tr(x, y) == tr(y, x)
    assert tr(bracket(x, y), z) + tr(y, bracket(x, z)) == 0


def test_matmul_and_transpose():
    a = _mat([[1, 2], [3, 4]])
    b = _mat([[0, 1], [1, 0]])
    assert a @ b == _mat([[2, 1], [4, 3]])
    assert a.transpose() == _mat([[1, 3], [2, 4]])
    assert sum(a.data[i][i] for i in range(2)) == 5


def test_fractions_stay_exact():
    a = _mat([[Fraction(1, 3), Fraction(1, 7)]])
    assert a.scale(21).data[0] == [Fraction(7), Fraction(3)]


def test_rank_of_vectors_empty():
    assert rank_of_vectors([]) == 0


# A dense Fraction reference for the sparse core: lists of lists, no shortcuts.

def _ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_rref(rows):
    """Gauss-Jordan over Fraction: (nonzero reduced rows, pivot columns)."""
    rows, pivots = [[Fraction(x) for x in r] for r in rows], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _ref_kernel(rows, cols):
    reduced, pivots = _ref_rref(rows)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def _is_canonical(m):
    """Every stored entry is a nonzero int, or a Fraction that is not an integer."""
    return all(type(x) is int and x or type(x) is Fraction and x.denominator != 1
               for row in m.entries for x in row.values())


_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _matrices(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _square_triples(draw):
    n = draw(st.integers(1, 5))
    return tuple(draw(_matrices(n, n)) for _ in range(3))


@given(_square_triples())
@settings(max_examples=150, deadline=None)
def test_sparse_core_agrees_with_dense_reference(dense):
    a, b, c = dense
    x, y = _mat(a), _mat(b)
    assert x @ y == _mat(_ref_mul(a, b))
    ab, ba = _ref_mul(a, b), _ref_mul(b, a)
    assert bracket(x, y) == _mat([[p - q for p, q in zip(r1, r2)]
                                  for r1, r2 in zip(ab, ba)])
    assert trace_form(x.flat_row(), y.flat_row(), len(a)) == sum(ab[i][i] for i in range(len(a)))
    stacked = a + c
    assert _mat(stacked).rank() == len(_ref_rref(stacked)[1])
    assert kernel(_mat(stacked)).basis == _ref_kernel(stacked, len(a))
    # The same matrix built sparsely has the same kernel basis.
    sparse = RatMatrix.from_entries(len(stacked), len(a), {
        (i, j): v for i, row in enumerate(stacked) for j, v in enumerate(row)})
    assert kernel(sparse).basis == kernel(_mat(stacked)).basis
    for m in (x @ y, bracket(x, y), x.scale(Fraction(2, 3)),
              x.transpose(), kernel(x).matrix()):
        assert _is_canonical(m)
    # Containment: span(c) is inside span(a) iff stacking adds no rank.
    sa = Subspace.span(len(a), map(_row, a))
    sc = Subspace.span(len(a), map(_row, c))
    assert sa.contains(sc) == (len(_ref_rref(stacked)[1]) == len(_ref_rref(a)[1]))
    assert sa.contains(sc) == (sa.intersection_dim(sc) == sc.dim)
    assert [list(v) for v in sa.basis] == _ref_rref(a)[0]
    # Sparse rows and dense tuples are two forms of one vector.
    assert Subspace(len(a), sa.rows, check=False).basis == sa.basis
    assert sa.matrix().data == [list(v) for v in sa.basis]
    assert all(sa.coords(r) == {t: 1} for t, r in enumerate(sa.rows))
    for m in (x, y):
        dense = [v for row in m.data for v in row]
        assert m.flat_row() == {c: v for c, v in enumerate(dense) if v}
        assert RatMatrix.from_flat_row(m.flat_row(), m.rows, m.cols) == m


@st.composite
def _ad_inputs(draw):
    """An n x n operator and up to four n x n matrices, n from 1 to 4."""
    n = draw(st.integers(1, 4))
    return draw(_matrices(n, n)), draw(st.lists(_matrices(n, n), max_size=4))


@given(_ad_inputs())
@settings(max_examples=100, deadline=None)
def test_ad_rows_is_the_flattened_bracket(inputs):
    op_dense, ys = inputs
    op = _mat(op_dense)
    mats = [_mat(y) for y in ys] + [RatMatrix.from_entries(op.rows, op.rows, {})]
    got = ad_rows(op, [m.flat_row() for m in mats])
    # bracket is built on ad_rows, so the oracle is the two products.
    assert got == [_minus((op @ m).flat_row(), (m @ op).flat_row()) for m in mats]
    assert got[-1] == {}
    assert _is_canonical(RatMatrix(got, op.rows ** 2))


def test_ad_rows_rejects_bad_shapes():
    op = _mat([[1, 2], [3, 4]])
    for row in ({4: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            ad_rows(op, [{0: 1}, row])
    with pytest.raises(ValueError):
        ad_rows(_mat([[1, 2, 3], [4, 5, 6]]), [{0: 1}])


def test_trace_form_rejects_rows_outside_the_matrix_space():
    for row in ({4: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            trace_form({0: 1}, row, 2)
        with pytest.raises(ValueError):
            trace_form(row, {0: 1}, 2)


def test_kernel_basis_stays_exact():
    (v,) = kernel(_mat([[2, 1]])).basis
    assert v == (Fraction(-1, 2), 1)
    assert type(v[0]) is Fraction and type(v[1]) is int


@pytest.mark.parametrize("label", ["sp6-33", "so7-hook2", "gl5-3.2"])
def test_realization_entries_are_exact(label):
    from slicescope.realizations import build_case

    r = build_case(label)
    n = r.e.rows
    mats = [r.e, r.f, r.h, r.gram] + [RatMatrix.from_flat_row(row, n, n)
                                      for row in r.g_rows + r.zf_rows + r.q_rows]
    for m in mats:
        if m is None:
            continue
        assert all(type(x) in (int, Fraction) for row in m.data for x in row)
        assert _is_canonical(m)


# Elimination takes rows in its own order (sparsest first); every result
# must be the one of the unique reduced row echelon form, whatever order
# the rows come in.

@st.composite
def _permuted_pairs(draw):
    """Two mostly-zero matrices of one width, with a row order for each."""
    cols = draw(st.integers(1, 5))
    a = draw(_matrices(draw(st.integers(1, 6)), cols))
    c = draw(_matrices(draw(st.integers(1, 6)), cols))
    return (a, draw(st.permutations(range(len(a)))),
            c, draw(st.permutations(range(len(c)))))


def _reordered(vecs, perm):
    """vecs in the order perm gives, ignoring indices past the end."""
    return [vecs[i] for i in perm if i < len(vecs)]


@given(_permuted_pairs())
@settings(max_examples=150, deadline=None)
def test_results_do_not_depend_on_row_order(pair):
    a, perm_a, c, perm_c = pair
    cols = len(a[0])
    pa = _reordered(a, perm_a)
    assert _rref(map(_row, pa)) == _rref(map(_row, a))
    assert kernel(_mat(pa)).basis == kernel(_mat(a)).basis
    assert (Subspace.span(cols, map(_row, pa)).basis
            == Subspace.span(cols, map(_row, a)).basis)
    assert _mat(pa).rank() == _mat(a).rank() == rank_of_vectors(map(_row, pa))
    # One independent basis in two orders: coordinates follow the basis
    # vectors, and intersections with span(c) keep their dimension.
    basis = Subspace.span(cols, map(_row, a)).rows
    order = _reordered(range(len(basis)), perm_a)
    sub = Subspace(cols, basis)
    psub = Subspace(cols, _reordered(basis, order))
    inside = [sum((x * (t + 1) for t, x in enumerate(col)), Fraction(0))
              for col in zip(*a)]
    for v in [inside] + c:
        got, pgot = sub.coords(_row(v)), psub.coords(_row(v))
        assert (got is None) == (pgot is None)
        if got is not None:
            assert ([pgot.get(t, 0) for t in range(psub.dim)]
                    == _reordered([got.get(t, 0) for t in range(sub.dim)], order))
    c_basis = Subspace.span(cols, map(_row, c)).rows
    sc = Subspace(cols, c_basis)
    psc = Subspace(cols, _reordered(c_basis, _reordered(range(len(c_basis)), perm_c)))
    joint = len(_ref_rref(a + c)[1])
    for s, other in [(sub, sc), (psub, sc), (sub, psc), (psub, psc)]:
        assert s.intersection_dim(other) == s.dim + other.dim - joint


# rank_mod_p is a cross-check on exact ranks: mod p = 2^61 - 1, a rank can
# only fall short, never exceed.  Entries that are multiples of p make it
# fall short; the rest are _entries, Fractions among them.

_P = 2 ** 61 - 1
_entries_mod_p = st.one_of(_entries, st.sampled_from([_P, -2 * _P, _P + 1]))


@st.composite
def _integer_scaled_matrices(draw):
    cols = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(_entries_mod_p, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))


@given(_integer_scaled_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_mod_p_never_exceeds_the_exact_rank(rows):
    assert rank_mod_p(map(_row, rows)) <= rank_of_vectors(map(_row, rows))


def test_rank_mod_p_falls_short_on_a_row_of_multiples_of_p():
    rows = [[_P, 0, 3 * _P], [0, 1, 0], [0, Fraction(1, 2), 1]]
    assert rank_of_vectors(map(_row, rows)) == 3
    assert rank_mod_p(map(_row, rows)) == 2
    assert rank_mod_p(map(_row, rows[1:])) == 2


def test_echelon_clears_pivots_by_increasing_column(monkeypatch):
    # Three pivot rows go in first (sparsest first); the last row meets
    # their pivots 0, 1, 2 but stores them as 2, 0, 1.
    calls = []
    real = exactlinalg._clear

    def spy(v, p, w):
        calls.append(p)
        real(v, p, w)

    monkeypatch.setattr(exactlinalg, "_clear", spy)
    rows = [{0: 1, 5: 1}, {1: 1, 5: 2}, {2: 1, 5: 3}, {2: 1, 0: 1, 1: 1, 4: 1}]
    reduced = _echelon(rows)
    assert calls == [0, 1, 2]
    assert reduced[4] == {4: 1, 5: -6}
