import dataclasses

import pytest

from slicescope import liealg
from slicescope.liealg import (AlgebraFamily, ReductiveProduct,
                               TRIVIAL_PRODUCT, effective_centralizer, gl,
                               is_regular_type, is_very_even_type,
                               is_zero_type, orbit_datum, so, sp)
from slicescope.partitions import (Partition, hook_parameters,
                                   multiplicities, valid_jordan_types)


def test_family_dims_and_ranks():
    assert (gl(5).dim, gl(5).rank) == (25, 5)
    assert (sp(6).dim, sp(6).rank) == (21, 3)
    assert (so(7).dim, so(7).rank) == (21, 3)
    assert (so(8).dim, so(8).rank) == (28, 4)
    assert (liealg.exceptional("G2").dim, liealg.exceptional("G2").rank) == (14, 2)
    assert liealg.exceptional("E8").dim == 248
    with pytest.raises(ValueError):
        sp(5)
    with pytest.raises(ValueError):
        liealg.exceptional("X9")
    with pytest.raises(ValueError):
        liealg.exceptional("A")     # a simple type by rank, not an exceptional label


def test_factor_and_product_arithmetic():
    assert AlgebraFamily("A", 1).dim == 3
    assert AlgebraFamily("B", 3).dim == 21
    assert AlgebraFamily("C", 2).dim == 10
    assert AlgebraFamily("D", 4).dim == 28
    assert AlgebraFamily("T", 2).dim == 2 and AlgebraFamily("T", 2).rank == 2
    assert (str(AlgebraFamily("B", 3)), str(AlgebraFamily("T", 1))) == ("B3", "T1")
    prod = ReductiveProduct((gl(2), AlgebraFamily("T", 1)))
    assert (prod.dim, prod.rank) == (5, 3)
    removed = ReductiveProduct((gl(2),), torus_removed=True)
    assert (removed.dim, removed.rank) == (3, 1)
    assert TRIVIAL_PRODUCT.dim == 0 and str(TRIVIAL_PRODUCT) == "1"


def test_classical_factor_matches_its_family():
    for kind, make in (("GL", gl), ("Sp", sp), ("SO", so)):
        for size in range(0, 13, 1 if kind != "Sp" else 2):
            f, g = liealg._factor(kind, size), make(size)
            assert f == g and (f.dim, f.rank, str(f)) == (g.dim, g.rank, str(g))
    # A bad size is refused when the factor is made.
    with pytest.raises(ValueError, match="even matrix size"):
        AlgebraFamily("Sp", 3)
    with pytest.raises(ValueError, match="negative matrix size"):
        AlgebraFamily("GL", -1)


def test_stored_dims_keep_the_dataclass_contract():
    assert gl(3) == AlgebraFamily("GL", 3)
    assert hash(gl(3)) == hash(AlgebraFamily("GL", 3))
    assert repr(gl(3)) == "AlgebraFamily(kind='GL', size=3)"
    assert dataclasses.replace(gl(3), size=4).dim == 16
    assert str(dataclasses.replace(gl(3), size=4)) == "GL(4)"
    assert AlgebraFamily("Sp", 4) == sp(4) and str(AlgebraFamily("Sp", 4)) == "Sp(4)"
    assert ReductiveProduct((gl(2),)) != ReductiveProduct((gl(2),), True)


def _closed_form(kind, d):
    """(dim, rank) of GL(d), Sp(d) or SO(d) for a matrix size d."""
    if kind == "GL":
        return d * d, d
    if kind == "Sp":
        return d * (d + 1) // 2, d // 2
    return d * (d - 1) // 2, d // 2


def test_stored_centralizer_dims_match_closed_forms():
    """Q is GL(d_i) in gl; Sp(d_i) at odd i in sp and at even i in so; else SO(d_i)."""
    families = [make(n) for n in range(1, 21)
                for kind, make in (("GL", gl), ("Sp", sp), ("SO", so))
                if kind != "Sp" or n % 2 == 0]
    for fam in families:
        for p in valid_jordan_types(fam.kind, fam.size):
            dim = rank = 0
            for i, d in multiplicities(p).items():
                if fam.kind == "GL":
                    kind = "GL"
                else:
                    kind = "Sp" if (i % 2 == 1) == (fam.kind == "Sp") else "SO"
                fd, fr = _closed_form(kind, d)
                dim, rank = dim + fd, rank + fr
            o = orbit_datum(fam, p)
            assert (o.centralizer.dim, o.centralizer.rank) == (dim, rank), (fam, p)
            torus = 1 if fam.kind == "GL" else 0
            assert (o.effective_centralizer.dim, o.effective_centralizer.rank) == \
                (dim - torus, rank - torus), (fam, p)


def _slice_dim(fam, parts):
    return orbit_datum(fam, Partition(parts)).slice_dim


def _centralizer(fam, parts):
    return orbit_datum(fam, Partition(parts)).centralizer


def test_slice_dim_examples():
    # gl: sum of squared transpose parts.
    assert _slice_dim(gl(5), (3, 2)) == 2 * 2 + 2 * 2 + 1  # mu=(2,2,1)
    assert _slice_dim(gl(4), (4,)) == 4
    # The (3,3) symplectic slice: mu = (2,2,2), (12 + 2)/2.
    assert _slice_dim(sp(6), (3, 3)) == 7
    # Odd orthogonal hook (5,1,1): mu = (3,1,1,1,1), (13 - 3)/2.
    assert _slice_dim(so(7), (5, 1, 1)) == 5
    # Symplectic hook (2,1,1): mu = (3,1), (10 + 2)/2.
    assert _slice_dim(sp(4), (2, 1, 1)) == 6


def test_slice_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        _slice_dim(sp(6), (3, 2, 1))   # invalid Sp parity
    with pytest.raises(ValueError):
        _slice_dim(gl(4), (3, 2))      # wrong total


def test_reductive_centralizer_examples():
    # gl (3,2): multiplicities 1 at 3 and 1 at 2 -> GL1 x GL1.
    q = _centralizer(gl(5), (3, 2))
    assert {(f.kind, f.size) for f in q.factors} == {("GL", 1)}
    assert len(q.factors) == 2
    # sp (2,1,1): part 1 (odd) has mult 2 -> Sp(2); part 2 (even) mult 1 -> SO(1).
    q = _centralizer(sp(4), (2, 1, 1))
    assert {(f.kind, f.size) for f in q.factors} == {("Sp", 2), ("SO", 1)}
    # so (5,1,1): part 1 mult 2 -> SO(2); part 5 mult 1 -> SO(1).
    q = _centralizer(so(7), (5, 1, 1))
    assert sorted((f.kind, f.size) for f in q.factors) == [("SO", 1), ("SO", 2)]
    # sp (3,3): odd part 3 with mult 2 -> Sp(2), nothing else.
    q = _centralizer(sp(6), (3, 3))
    assert [(f.kind, f.size) for f in q.factors] == [("Sp", 2)]
    assert (q.dim, q.rank) == (3, 1)


def test_effective_centralizer_gl_drops_torus():
    p = Partition((3, 1, 1))
    full = orbit_datum(gl(5), p).centralizer
    eff = effective_centralizer(gl(5), p)
    assert eff.dim == full.dim - 1 and eff.rank == full.rank - 1
    # Form-preserving families are untouched.
    assert effective_centralizer(so(7), Partition((5, 1, 1))).dim == \
        _centralizer(so(7), (5, 1, 1)).dim


def test_orbit_dim_examples():
    assert orbit_datum(gl(4), Partition((4,))).orbit_dim == 12
    assert orbit_datum(sp(6), Partition((3, 3))).orbit_dim == 14
    assert orbit_datum(gl(4), Partition((1, 1, 1, 1))).orbit_dim == 0


def test_regular_zero_very_even_predicates():
    assert is_regular_type(gl(4), Partition((4,)))
    assert is_regular_type(sp(6), Partition((6,)))
    assert is_regular_type(so(7), Partition((7,)))
    assert is_regular_type(so(8), Partition((7, 1)))
    assert not is_regular_type(so(8), Partition((5, 3)))
    assert is_zero_type(Partition((1, 1, 1)))
    assert not is_zero_type(Partition((2, 1)))
    assert is_very_even_type(so(8), Partition((4, 4)))
    assert not is_very_even_type(so(8), Partition((5, 1, 1, 1)))
    assert not is_very_even_type(so(7), Partition((1,) * 7))


def test_orbit_datum_bundle():
    o = orbit_datum(sp(6), Partition((3, 3)))
    assert o.slice_dim == 7 and o.orbit_dim == 14
    assert o.dual == Partition((2, 2, 2))
    assert o.effective_centralizer.dim == 3


def _families_up_to(max_rank):
    for n in range(1, max_rank + 1):
        yield gl(n)
    for n in range(2, 2 * max_rank + 1, 2):
        yield sp(n)
    for n in range(3, 2 * max_rank + 2):
        yield so(n)


def test_orbit_datum_matches_the_pairwise_min_formula():
    """dim z(e) = sum over pairs of parts of min(p_i, p_j), halved with the
    odd-part correction for Sp / SO: a count that never forms the transpose."""
    for fam in _families_up_to(6):
        for p in valid_jordan_types(fam.kind, fam.size):
            o = orbit_datum(fam, p)
            assert o.dual.parts == _column_transpose(p.parts)
            pairs = sum(min(a, b) for a in p.parts for b in p.parts)
            odd = sum(part % 2 for part in p.parts)
            expected = {"GL": pairs, "Sp": (pairs + odd) // 2,
                        "SO": (pairs - odd) // 2}[fam.kind]
            assert o.slice_dim == expected, (fam, p)
            assert o.orbit_dim == fam.dim - expected


def test_orbit_datum_rejects_bad_input():
    with pytest.raises(ValueError, match="not a valid Sp Jordan type"):
        orbit_datum(sp(6), Partition((3, 2, 1)))
    with pytest.raises(ValueError, match="does not fit"):
        orbit_datum(gl(4), Partition((3, 2)))
    with pytest.raises(ValueError, match="only modeled for classical"):
        orbit_datum(liealg.exceptional("G2"), Partition((2,)))


def test_slice_plus_orbit_is_algebra_dim_everywhere():
    for fam in _families_up_to(6):
        for p in valid_jordan_types(fam.kind, fam.size):
            o = orbit_datum(fam, p)
            assert o.slice_dim + o.orbit_dim == fam.dim


def test_slice_dim_at_least_rank_with_equality_iff_regular():
    for fam in _families_up_to(6):
        for p in valid_jordan_types(fam.kind, fam.size):
            s = orbit_datum(fam, p).slice_dim
            assert s >= fam.rank
            assert (s == fam.rank) == is_regular_type(fam, p)


def test_centralizer_sizes_are_multiplicities():
    for fam in _families_up_to(6):
        for p in valid_jordan_types(fam.kind, fam.size):
            q = orbit_datum(fam, p).centralizer
            assert sorted(f.size for f in q.factors) == \
                sorted(multiplicities(p).values())


def test_odd_part_count_matches_alternating_dual_sum():
    for n in range(1, 13):
        for p in valid_jordan_types("GL", n):
            mu = orbit_datum(gl(n), p).dual
            alt = sum((-1) ** i * m for i, m in enumerate(mu.parts))
            assert alt == sum(part % 2 for part in p.parts)


def test_hook_rank_identity():
    """For hooks, slice_dim minus dim of the effective Q is rk G + rk Q."""
    for fam in _families_up_to(6):
        for p in valid_jordan_types(fam.kind, fam.size):
            if hook_parameters(p) is None:
                continue
            o = orbit_datum(fam, p)
            q = o.effective_centralizer
            assert o.slice_dim - q.dim == fam.rank + q.rank


def test_sp_factors_have_even_size():
    for fam in _families_up_to(7):
        if fam.kind == "GL":
            continue
        for p in valid_jordan_types(fam.kind, fam.size):
            for f in orbit_datum(fam, p).centralizer.factors:
                if f.kind == "Sp":
                    assert f.size % 2 == 0


# Reference definitions of the orbit datum, one pass each, as the package
# computed it before the walk over runs of equal parts.

def _column_transpose(parts):
    """The i-th part counts the parts that are >= i."""
    return tuple(sum(1 for part in parts if part >= i)
                 for i in range(1, max(parts, default=0) + 1))


def _is_valid_jordan_type(parts, kind):
    """GL admits anything; Sp needs even multiplicity at every odd part,
    SO at every even part."""
    if kind == "GL":
        return True
    paired = tuple(part for part in parts if part % 2 == (kind == "Sp"))
    # Equal parts are adjacent: every multiplicity is even exactly when
    # the parts pair off in order.
    return paired[::2] == paired[1::2]


def _reference_datum(fam, p):
    """(transpose, slice dim, orbit dim, centralizer factors) of p in fam,
    raising what orbit_datum raises on bad input."""
    if fam.kind not in ("GL", "Sp", "SO"):
        raise ValueError("Jordan types are only modeled for classical families")
    if p.n != fam.size:
        raise ValueError(f"partition of {p.n} does not fit {fam}")
    if not _is_valid_jordan_type(p.parts, fam.kind):
        raise ValueError(f"{p} is not a valid {fam.kind} Jordan type")
    mu = _column_transpose(p.parts)
    sq = sum(m * m for m in mu)
    odd = sum(part % 2 for part in p.parts)
    slice_dim = {"GL": sq, "Sp": (sq + odd) // 2, "SO": (sq - odd) // 2}[fam.kind]
    # The multiplicity of the part i is mu_i - mu_{i+1}.
    factors = []
    for i, d in enumerate((a - b for a, b in zip(mu, mu[1:] + (0,))), start=1):
        if not d:
            continue
        if fam.kind == "GL":
            kind = "GL"
        else:
            kind = "Sp" if (i % 2 == 1) == (fam.kind == "Sp") else "SO"
        factors.append(AlgebraFamily(kind, d))
    return mu, slice_dim, fam.dim - slice_dim, factors


def _numbers(o):
    return o.dual.parts, o.slice_dim, o.orbit_dim, list(o.centralizer.factors)


def _outcome(fn, fam, p):
    """fn(fam, p), or the class and message of what it raises."""
    try:
        return fn(fam, p)
    except Exception as exc:
        return type(exc), str(exc)


def test_orbit_datum_matches_the_reference_on_every_type_to_30():
    count = 0
    for n in range(1, 31):
        for fam in (gl(n), sp(n) if n % 2 == 0 else None, so(n)):
            if fam is None:
                continue
            for p in valid_jordan_types(fam.kind, n):
                o = orbit_datum(fam, p)
                mu, slice_dim, orbit_dim, factors = _reference_datum(fam, p)
                assert _numbers(o) == (mu, slice_dim, orbit_dim, factors), (fam, p)
                q = o.centralizer
                assert (q.dim, q.rank) == (sum(f.dim for f in factors),
                                           sum(f.rank for f in factors)), (fam, p)
                # The walk's sums equal what the checked constructor sums.
                summed = ReductiveProduct(q.factors)
                assert q == summed, (fam, p)
                assert (q.dim, q.rank, str(q)) == (summed.dim, summed.rank, str(summed))
                eff = o.effective_centralizer
                summed = ReductiveProduct(q.factors, torus_removed=fam.kind == "GL")
                assert eff == summed, (fam, p)
                assert (eff.dim, eff.rank, str(eff)) == (summed.dim, summed.rank,
                                                         str(summed)), (fam, p)
                count += 1
    assert count == 39342


_REFUSALS = ("only modeled for classical", "does not fit", "is not a valid")


def test_orbit_datum_refuses_what_the_reference_refuses():
    """Every partition of n <= 10 in gl, sp and so of size n and n + 1, and
    in two families that are not classical: the same numbers, or the same
    exception class with the same message."""
    reasons = set()
    for n in range(0, 11):
        families = [liealg.exceptional("G2"), AlgebraFamily("A", 2)]
        for size in (n, n + 1):
            families += [gl(size), so(size)] + ([sp(size)] if size % 2 == 0 else [])
        for p in valid_jordan_types("GL", n):
            for fam in families:
                want = _outcome(_reference_datum, fam, p)
                got = _outcome(lambda f, q: _numbers(orbit_datum(f, q)), fam, p)
                assert got == want, (fam, p)
                if isinstance(want[0], type):
                    reasons.update(r for r in _REFUSALS if r in want[1])
    assert reasons == set(_REFUSALS)
