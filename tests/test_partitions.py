import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slicescope.liealg import AlgebraFamily, gl, orbit_datum
from slicescope.partitions import (Partition, hook_parameters, multiplicities,
                                   parse_partition, valid_jordan_types)


def dual(p):
    """Reference transpose: the i-th part counts the parts of p that are >= i.

    Built from the smallest part up: the k-th part of p is the last one
    that reaches the columns past the previous, shorter parts.
    """
    mu = []
    k = len(p.parts)
    for part in reversed(p.parts):
        mu += [k] * (part - len(mu))
        k -= 1
    return Partition(tuple(mu))


def is_valid_jordan_type(p, family_kind):
    """Reference parity test: GL admits anything; Sp needs even
    multiplicity at every odd part, SO at every even part."""
    if family_kind == "GL":
        return True
    if family_kind == "Sp":
        paired = tuple(part for part in p.parts if part % 2)
    elif family_kind == "SO":
        paired = tuple(part for part in p.parts if not part % 2)
    else:
        raise ValueError(f"unknown family kind: {family_kind!r}")
    # Equal parts are adjacent, so every multiplicity is even exactly when
    # the parts pair off in order.
    return paired[::2] == paired[1::2]


def transpose(p):
    """The transpose that the package computes, in its gl orbit datum."""
    return orbit_datum(gl(p.n), p).dual


def test_partition_validation():
    Partition((3, 1, 1))
    Partition(())
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="positive integers, got 0"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="positive integers, got -1"):
        Partition((2, -1))
    with pytest.raises(ValueError, match="positive integers, got 2.0"):
        Partition((2.0,))
    # The first offending part names the error.
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((1, 2, 0))
    with pytest.raises(ValueError, match="positive integers, got 0"):
        Partition((3, 0, 4))
    with pytest.raises(ValueError, match="positive integers, got 0"):
        Partition((0,))


def test_basic_accessors():
    p = Partition((5, 2, 2, 1))
    assert p.n == 10
    assert p.parts == (5, 2, 2, 1)
    assert str(p) == "(5,2,2,1)"


def test_parse_partition_plain_and_exponents():
    assert parse_partition("5,1,1") == Partition((5, 1, 1))
    assert parse_partition("2^4") == Partition((2, 2, 2, 2))
    assert parse_partition("3,1^2") == Partition((3, 1, 1))
    assert parse_partition("1,3,2") == Partition((3, 2, 1))  # sorted
    with pytest.raises(ValueError):
        parse_partition("3,x")
    with pytest.raises(ValueError):
        parse_partition("")


def test_dual_examples():
    # (4,2,1) has columns of heights 3,2,1,1.
    for f in (dual, transpose):
        assert f(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
        assert f(Partition((3, 3))) == Partition((2, 2, 2))
        assert f(Partition((1, 1, 1))) == Partition((3,))
        assert f(Partition(())) == Partition(())


def test_multiplicities():
    assert multiplicities(Partition((4, 2, 2, 1))) == {4: 1, 2: 2, 1: 1}
    assert multiplicities(Partition(())) == {}


def test_hook_parameters():
    assert hook_parameters(Partition((3, 1, 1))) == (5, 2)
    assert hook_parameters(Partition((4,))) == (4, 0)
    assert hook_parameters(Partition((1, 1, 1))) is None   # zero type
    assert hook_parameters(Partition((3, 2))) is None


def test_jordan_validity_examples():
    examples = [((3, 2), "GL", True),
                # Sp: odd parts need even multiplicity.
                ((3, 3), "Sp", True), ((3, 2, 1), "Sp", False), ((2, 1, 1), "Sp", True),
                # SO: even parts need even multiplicity.
                ((5, 1, 1), "SO", True), ((4, 1), "SO", False), ((4, 4, 1), "SO", True)]
    for parts, kind, valid in examples:
        p = Partition(parts)
        assert is_valid_jordan_type(p, kind) == valid, (parts, kind)
        family = AlgebraFamily(kind, p.n)
        if valid:
            orbit_datum(family, p)
        else:
            with pytest.raises(ValueError, match=f"not a valid {kind} Jordan type"):
                orbit_datum(family, p)
    with pytest.raises(ValueError):
        is_valid_jordan_type(Partition((2,)), "XX")


def test_partitions_of_counts():
    # p(n) for n = 1..30.
    counts = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
              297, 385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010,
              3718, 4565, 5604]
    for n, c in zip(range(1, 31), counts):
        assert len(valid_jordan_types("GL", n)) == c
    assert [p.parts for p in valid_jordan_types("GL", 0)] == [()]


def test_partitions_of_order():
    got = [p.parts for p in valid_jordan_types("GL", 4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def _brute_force_types(kind, n):
    """Independent enumeration: multiplicity vectors with sum(i*m_i) = n."""
    out = set()
    ranges = [range(0, n // i + 1) for i in range(1, n + 1)]
    for mults in itertools.product(*ranges):
        if sum(i * m for i, m in enumerate(mults, start=1)) != n:
            continue
        if kind == "Sp" and any(m % 2 for i, m in enumerate(mults, start=1)
                                if i % 2 == 1):
            continue
        if kind == "SO" and any(m % 2 for i, m in enumerate(mults, start=1)
                                if i % 2 == 0):
            continue
        parts = tuple(sorted(
            (i for i, m in enumerate(mults, start=1) for _ in range(m)),
            reverse=True))
        out.add(parts)
    return out


def _reverse_lex(n, largest):
    """Reference: every partition of n with parts <= largest, reverse-lex."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _reverse_lex(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("kind", ["GL", "Sp", "SO"])
def test_valid_types_match_filtered_reference_in_order(kind):
    for n in range(0, 25):
        expected = [parts for parts in _reverse_lex(n, n)
                    if is_valid_jordan_type(Partition(parts), kind)]
        types = valid_jordan_types(kind, n)
        assert [p.parts for p in types] == expected, n
        # The types are made without the check; each must be the Partition
        # the checked constructor makes of the same parts.
        checked = [Partition(parts) for parts in expected]
        assert types == checked, n
        assert list(map(hash, types)) == list(map(hash, checked)), n
        assert list(map(repr, types)) == list(map(repr, checked)), n
        assert types == sorted(checked, reverse=True), n
        for p, q in zip(types, checked[1:]):
            assert q < p and p > q and not p < q, (p, q)


def test_valid_types_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown family kind"):
        valid_jordan_types("XX", 4)


@pytest.mark.parametrize("kind", ["GL", "Sp", "SO"])
def test_valid_types_against_brute_force(kind):
    for n in range(1, 11):
        got = {p.parts for p in valid_jordan_types(kind, n)}
        assert got == _brute_force_types(kind, n)


partitions = st.lists(st.integers(1, 9), min_size=0, max_size=8).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True))))


@given(partitions)
@settings(max_examples=120, deadline=None)
def test_dual_is_an_involution(p):
    assert transpose(transpose(p)) == p
    assert transpose(p).n == p.n


@given(partitions)
@settings(max_examples=120, deadline=None)
def test_dual_matches_column_counts(p):
    columns = tuple(sum(1 for part in p.parts if part >= i)
                    for i in range(1, max(p.parts, default=0) + 1))
    assert transpose(p).parts == columns == dual(p).parts


@given(partitions)
@settings(max_examples=120, deadline=None)
def test_multiplicity_is_dual_difference(p):
    mu = transpose(p).parts + (0,)
    mults = multiplicities(p)
    top = max(p.parts, default=0)
    for i in range(1, top + 1):
        assert mults.get(i, 0) == mu[i - 1] - mu[i]


@given(partitions)
@settings(max_examples=120, deadline=None)
def test_dual_top_part_counts_parts(p):
    assert max(transpose(p).parts, default=0) == len(p.parts)
