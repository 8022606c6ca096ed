import pytest
from hypothesis import given, settings, strategies as st

from slicescope import classifier
from slicescope.classifier import (EXPECTED_EXCEPTIONS, HYPERSPHERICAL_STATUSES,
                                   NON_HOOK_CASES, Status, classify,
                                   enumerate_and_classify, necessary_bound,
                                   predicted_coisotropy, reduced_inequality,
                                   sweep_inequality_proof)
from slicescope.liealg import AlgebraFamily, gl, orbit_datum, so, sp
from slicescope.partitions import Partition, hook_parameters, valid_jordan_types


def _dual(fam, parts):
    return orbit_datum(fam, Partition(parts)).dual


def _status(fam, parts):
    return classify(orbit_datum(fam, Partition(parts))).status


def test_gl4_full_classification():
    got = {v.orbit.jordan_type.parts: v.status
           for v in enumerate_and_classify(gl(4))}
    assert got == {
        (4,): Status.REGULAR_ORBIT,
        (3, 1): Status.HYPERSPHERICAL_HOOK,
        (2, 2): Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
        (2, 1, 1): Status.HYPERSPHERICAL_HOOK,
        (1, 1, 1, 1): Status.ZERO_ORBIT,
    }


def test_sp4_full_classification():
    got = {v.orbit.jordan_type.parts: v.status
           for v in enumerate_and_classify(sp(4))}
    assert got == {
        (4,): Status.REGULAR_ORBIT,
        (2, 2): Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
        (2, 1, 1): Status.HYPERSPHERICAL_HOOK,
        (1, 1, 1, 1): Status.ZERO_ORBIT,
    }


def test_so7_full_classification():
    got = {v.orbit.jordan_type.parts: v.status
           for v in enumerate_and_classify(so(7))}
    assert got == {
        (7,): Status.REGULAR_ORBIT,
        (5, 1, 1): Status.HYPERSPHERICAL_HOOK,
        (3, 3, 1): Status.NOT_HYPERSPHERICAL,
        (3, 2, 2): Status.NOT_HYPERSPHERICAL,
        (3, 1, 1, 1, 1): Status.HYPERSPHERICAL_HOOK,
        (2, 2, 1, 1, 1): Status.NOT_HYPERSPHERICAL,
        (1, 1, 1, 1, 1, 1, 1): Status.ZERO_ORBIT,
    }


def test_special_and_split_cases():
    assert _status(sp(6), (3, 3)) == Status.HYPERSPHERICAL_SPECIAL
    v = classify(orbit_datum(so(4), Partition((2, 2))))
    assert v.status == Status.HYPERSPHERICAL_VIA_ISOMORPHISM
    assert "sl(2)" in v.note
    assert v.very_even


def test_very_even_flag():
    v = classify(orbit_datum(so(8), Partition((4, 4))))
    assert v.very_even
    assert v.status == Status.HYPERSPHERICAL_VIA_ISOMORPHISM
    assert "triality" in v.note


def test_necessary_bound_gl5_32():
    # dim G 25, slice 9 -> lhs 34; Q = GL1 x GL1 (dim 2, rank 2),
    # rhs = 25 + 2 + 5 + 2 = 34, effective 32, slack 2.
    b = necessary_bound(orbit_datum(gl(5), Partition((3, 2))))
    assert (b.lhs, b.rhs, b.rhs_effective, b.slack) == (34, 34, 32, 2)


def test_necessary_bound_hooks_have_zero_slack():
    for parts in [(3, 1), (4, 1, 1), (2, 1, 1)]:
        b = necessary_bound(orbit_datum(gl(sum(parts)), Partition(parts)))
        assert b.slack == 0
    b = necessary_bound(orbit_datum(so(7), Partition((5, 1, 1))))
    assert b.rhs_effective is None and b.slack == 0


def test_reduced_inequality_examples():
    # gl (3,2): mu = (2,2,1): 9 - 5 > 2 + 2 - 2.
    assert reduced_inequality("GL", Partition((2, 2, 1)))
    # gl hook (3,1,1): mu = (3,1,1): 11 - 5 = 6, not > 5 + 3 - 2 = 6.
    assert not reduced_inequality("GL", _dual(gl(5), (3, 1, 1)))
    assert not reduced_inequality("Sp", _dual(sp(6), (3, 3)))
    assert not reduced_inequality("SO", _dual(so(7), (5, 1, 1)))
    assert reduced_inequality("SO", _dual(so(7), (3, 3, 1)))
    with pytest.raises(ValueError):
        reduced_inequality("XX", Partition((1,)))


def test_non_hook_case_images():
    fam, p = NON_HOOK_CASES["Sp", (2, 2)].image
    assert (fam.kind, fam.size, p.parts) == ("SO", 5, (3, 1, 1))
    fam, p = NON_HOOK_CASES["SO", (3, 3)].image
    assert (fam.kind, fam.size, p.parts) == ("GL", 4, (3, 1))
    assert ("GL", (3, 2)) not in NON_HOOK_CASES


def test_non_hook_case_images_share_the_slice_numbers():
    # An isomorphism or triality carries the slice and its symmetry over: the
    # image has the same dim and rank of Q_eff and the same slice dim, except
    # that a gl side carries one more, the central scalars its slice keeps.
    checked = 0
    for (kind, parts), case in NON_HOOK_CASES.items():
        if case.image is None:
            continue
        fam, p = case.image
        source = orbit_datum(AlgebraFamily(kind, sum(parts)), Partition(parts))
        image = orbit_datum(fam, p)
        q, q_image = source.effective_centralizer, image.effective_centralizer
        assert (q.dim, q.rank) == (q_image.dim, q_image.rank), (kind, parts)
        assert (source.slice_dim - (kind == "GL")
                == image.slice_dim - (fam.kind == "GL")), (kind, parts)
        checked += 1
    assert checked == 7


def _slice_numbers(family, p):
    """(slice dim, one less on a gl side, dim Q_eff, rank Q_eff) of a type."""
    o = orbit_datum(family, p)
    q = o.effective_centralizer
    return o.slice_dim - (family.kind == "GL"), q.dim, q.rank


def test_non_hook_case_images_are_the_only_matching_hooks():
    # The slice numbers alone pick each image out among the hooks of its
    # partner algebra; among all valid types only the triality source,
    # which lives in the same so(8), matches as well.
    partners = set()
    for (kind, parts), case in NON_HOOK_CASES.items():
        if case.image is None:
            continue
        fam, image = case.image
        source_family, source = AlgebraFamily(kind, sum(parts)), Partition(parts)
        numbers = _slice_numbers(source_family, source)
        matches = {p for p in valid_jordan_types(fam.kind, fam.size)
                   if _slice_numbers(fam, p) == numbers}
        assert {p for p in matches if hook_parameters(p)} == {image}, (kind, parts)
        assert matches == {image} | ({source} if fam == source_family else set()), (kind, parts)
        partners.add(frozenset({source_family, fam}))
    assert partners == {frozenset({gl(4), so(6)}), frozenset({sp(4), so(5)}),
                        frozenset({so(8)})}


@pytest.mark.parametrize("kind", ["GL", "Sp", "SO"])
def test_sweep_matches_expected(kind):
    report = sweep_inequality_proof(kind, 12)
    assert report.mismatches == ()
    assert report.matches_expected
    assert report.exceptions_beyond_hooks == \
        {t for t in EXPECTED_EXCEPTIONS[kind] if sum(t) <= 12}


def test_sweep_caps_n_max():
    for n_max in (31, 0, -3):
        with pytest.raises(ValueError):
            sweep_inequality_proof("GL", n_max)
    # sp has no type of odd size, so n <= 1 holds nothing to check
    with pytest.raises(ValueError, match="no valid Sp Jordan type with n <= 1"):
        sweep_inequality_proof("Sp", 1)


def test_enumerate_is_deterministic_and_ordered():
    a = enumerate_and_classify(sp(8))
    b = enumerate_and_classify(sp(8))
    assert [v.orbit.jordan_type for v in a] == [v.orbit.jordan_type for v in b]
    types = [v.orbit.jordan_type for v in a]
    assert types == valid_jordan_types("Sp", 8)


def test_no_candidate_status_in_range():
    """The defensive Candidate branch never fires on the swept range."""
    for n in range(1, 13):
        for kind, fam in (("GL", gl(n)), ("Sp", sp(2 * n) if 2 * n <= 24 else None),
                          ("SO", so(n + 2))):
            if fam is None:
                continue
            for v in enumerate_and_classify(fam):
                assert v.status != Status.CANDIDATE


def test_squeeze_closes_at_the_generic_point_exactly_on_hyperspherical_types():
    """rk g + rk q + dim q - 2s = dim z(f) exactly when the verdict is hyperspherical.

    At a generic point of the slice the verifier's squeeze has r1 = rk g,
    dim q - rank Q = rk q and k = dim q - s, with q the effective
    centralizer, so its ends rk g + rk q - s and dim z(f) - dim q + s
    meet exactly then.  s is the predicted stabilizer, 0 where none is
    predicted; with s = 0 the identity is slack 0 in the dimension bound.
    """
    checked = hyperspherical = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(2, 25, 2) if kind == "Sp" else range(1, 25):
            for v in enumerate_and_classify(AlgebraFamily(kind, n)):
                o, q = v.orbit, v.orbit.effective_centralizer
                s = predicted_coisotropy(v).get("stabilizer_dim", 0)
                closes = o.family.rank + q.rank + q.dim - 2 * s == o.slice_dim
                assert closes == (v.status in HYPERSPHERICAL_STATUSES), (kind, o.jordan_type)
                checked += 1
                hyperspherical += closes
    assert (checked, hyperspherical) == (10692, 555)


def test_sp_dual_never_ends_x_2_1():
    """No valid symplectic Jordan type has transpose of shape (x, 2, 1)."""
    for n in range(2, 15, 2):
        for p in valid_jordan_types("Sp", n):
            mu = orbit_datum(sp(n), p).dual.parts
            assert not (len(mu) == 3 and mu[1] == 2 and mu[2] == 1)


mono_parts = st.lists(st.integers(1, 8), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@given(mono_parts, st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_gl_reduced_inequality_monotone_under_extension(parts, extra):
    """Appending a smaller transpose part never un-violates the gl bound.

    Any appended mu_{s+1} <= mu_s satisfies
    mu_{s+1} (mu_{s+1} + 1 - 2 mu_s) <= 0, and that step term is exactly
    the change in (lhs - rhs), so a violated bound stays violated.
    """
    mu = Partition(parts)
    tail = min(extra, parts[-1])
    extended = Partition(parts + (tail,))
    if reduced_inequality("GL", mu):
        assert reduced_inequality("GL", extended)
