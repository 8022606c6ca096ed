import pytest

from slicescope.classifier import Status, classify, enumerate_and_classify
from slicescope.liealg import gl, orbit_datum, so, sp
from slicescope.partitions import Partition
from slicescope.superdual import (DualAssignment, NoDualError, SuperAlgebra,
                                  check_even_part, g2_short_root_dual, s_dual)


def _dual_of(fam, parts):
    return s_dual(classify(orbit_datum(fam, Partition(parts))))


def test_superalgebra_dimensions():
    assert (SuperAlgebra("gl", 5, 2).dim_even, SuperAlgebra("gl", 5, 2).dim_odd) == (29, 20)
    assert (SuperAlgebra("osp", 2, 6).dim_even, SuperAlgebra("osp", 2, 6).dim_odd) == (22, 12)
    assert (SuperAlgebra("osp", 7, 4).dim_even, SuperAlgebra("osp", 7, 4).dim_odd) == (31, 28)
    assert (SuperAlgebra("f4").dim_even, SuperAlgebra("f4").dim_odd) == (24, 16)
    assert (SuperAlgebra("g3").dim_even, SuperAlgebra("g3").dim_odd) == (17, 14)
    with pytest.raises(ValueError):
        SuperAlgebra("osp", 3, 3)


def test_superalgebra_str():
    assert str(SuperAlgebra("gl", 4, 1)) == "gl(4|1)"
    assert str(SuperAlgebra("osp", 5, 4)) == "osp(5|4)"
    assert str(SuperAlgebra("f4")) == "f(4)"
    assert str(SuperAlgebra("g3")) == "g(3)"


def test_gl_hook_duals():
    d = _dual_of(gl(5), (3, 1, 1))
    assert str(d) == "gl(5|2)" and d.provenance == "proved"
    assert str(_dual_of(gl(4), (3, 1))) == "gl(4|1)"
    assert str(_dual_of(gl(6), (2, 1, 1, 1, 1))) == "gl(6|4)"


def test_sp_hook_twisted_pairs():
    d = _dual_of(sp(6), (4, 1, 1))
    assert str(d) == "osp(7|4) | osp(5|6)"
    assert len(d.algebras) == 2
    d = _dual_of(sp(8), (2, 1, 1, 1, 1, 1, 1))
    assert str(d) == "osp(9|2) | osp(3|8)"


def test_so_hook_duals():
    assert str(_dual_of(so(7), (5, 1, 1))) == "osp(2|6)"
    assert str(_dual_of(so(7), (3, 1, 1, 1, 1))) == "osp(4|6)"
    assert str(_dual_of(so(8), (5, 1, 1, 1))) == "osp(8|2)"
    assert str(_dual_of(so(9), (7, 1, 1))) == "osp(2|8)"


def test_special_and_exceptional_duals():
    assert str(_dual_of(sp(6), (3, 3))) == "f(4)"
    assert str(g2_short_root_dual()) == "g(3)"


def test_zero_and_regular_duals_are_standard():
    d = _dual_of(gl(3), (1, 1, 1))
    assert d.provenance == "standard" and "T*G^" in d.text
    d = _dual_of(gl(3), (3,))
    assert d.provenance == "standard" and "{0}" in d.text


def test_via_isomorphism_duals_route_through_hook_image():
    # gl (2,2) -> so(6) hook (3,1,1,1) -> osp(6|2).
    assert str(_dual_of(gl(4), (2, 2))) == "osp(6|2)"
    # sp (2,2) -> so(5) hook (3,1,1) -> osp(2|4).
    assert str(_dual_of(sp(4), (2, 2))) == "osp(2|4)"
    # so (3,3) -> gl(4) hook (3,1) -> gl(4|1).
    assert str(_dual_of(so(6), (3, 3))) == "gl(4|1)"
    # so(8) (2,2,2,2) -> so(8) hook (3,1,1,1,1,1) by triality -> osp(8|4).
    assert str(_dual_of(so(8), (2, 2, 2, 2))) == "osp(8|4)"
    # so(4) (2,2): split description, no single superalgebra.
    d = _dual_of(so(4), (2, 2))
    assert d.algebras == () and "SL2^" in d.text


def test_non_hyperspherical_has_no_dual():
    with pytest.raises(NoDualError):
        _dual_of(gl(5), (3, 2))
    with pytest.raises(NoDualError):
        _dual_of(so(7), (3, 3, 1))


def test_dim_odd_is_even_for_all_assigned_duals():
    for fam in [gl(7), sp(8), so(9), so(10)]:
        for v in enumerate_and_classify(fam):
            try:
                d = s_dual(v)
            except NoDualError:
                continue
            for alg in d.algebras:
                assert alg.dim_odd % 2 == 0


def test_check_even_part_gl():
    v = classify(orbit_datum(gl(5), Partition((3, 1, 1))))
    chk = check_even_part(s_dual(v), v)
    assert chk.applicable and chk.matches
    # gl(5|2): 25 + 4 = 29 = dim GL(5) + dim effective Q.
    assert chk.dim_even == 29 == chk.dim_expected


def test_check_even_part_not_applicable_for_osp():
    v = classify(orbit_datum(so(7), Partition((5, 1, 1))))
    chk = check_even_part(s_dual(v), v)
    assert not chk.applicable and chk.matches is None
