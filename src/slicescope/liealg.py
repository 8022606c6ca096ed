"""Dimension and rank arithmetic for reductive groups and nilpotent orbits.

Covers the classical families GL(n), Sp(2n), SO(m), the simple types and
the exceptional types as one group type, and the orbit datum of a Jordan
type: its transpose, slice and orbit dimensions, and the reductive
centralizer of an sl2-triple as a formal product of classical factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .partitions import Partition, _trusted

_EXCEPTIONAL = {  # kind -> (dim, rank)
    "G2": (14, 2),
    "F4": (52, 4),
    "E6": (78, 6),
    "E7": (133, 7),
    "E8": (248, 8),
}

_CLASSICAL = ("GL", "Sp", "SO")


def _check_classical_size(kind: str, size: int) -> None:
    if size < 0:
        raise ValueError("negative matrix size")
    if kind == "Sp" and size % 2:
        raise ValueError("Sp needs an even matrix size")


def _classical_dim(kind: str, size: int) -> int:
    if kind == "GL":
        return size * size
    if kind == "Sp":
        return size * (size + 1) // 2
    return size * (size - 1) // 2


def _classical_rank(kind: str, size: int) -> int:
    return size if kind == "GL" else size // 2


_new = object.__new__
_set = object.__setattr__


def _store(obj, dim: int, rank: int) -> None:
    """Set the derived dim and rank of a frozen dataclass instance."""
    _set(obj, "dim", dim)
    _set(obj, "rank", rank)


# Simple-type dimension table used by exceptional orbit data: size is the
# Lie rank for A/B/C/D/T kinds.
_SIMPLE_DIMS = {
    "A": lambda r: r * (r + 2),
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "T": lambda r: r,
}


@dataclass(frozen=True)
class AlgebraFamily:
    """A reductive group type: an ambient algebra or a centralizer factor.

    Kinds "GL"/"Sp"/"SO" carry a matrix size; kinds "A".."D" and "T"
    carry a Lie rank; exceptional labels carry nothing.  dim, rank and the
    display name are computed once, when the family is made.
    """

    kind: str
    size: int = 0
    dim: int = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False, repr=False)
    name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kind, size = self.kind, self.size
        if kind in _CLASSICAL:
            _check_classical_size(kind, size)
            _store(self, _classical_dim(kind, size), _classical_rank(kind, size))
            name = f"{kind}({size})"
        elif kind in _SIMPLE_DIMS:
            _store(self, _SIMPLE_DIMS[kind](size), size)
            name = f"{kind}{size}"
        elif kind in _EXCEPTIONAL:
            _store(self, *_EXCEPTIONAL[kind])
            name = kind
        else:
            raise ValueError(f"unknown family kind: {kind!r}")
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


def gl(n: int) -> AlgebraFamily:
    return AlgebraFamily("GL", n)

def sp(size: int) -> AlgebraFamily:
    """Sp of the given (even) matrix size, i.e. sp(size) has rank size/2."""
    return AlgebraFamily("Sp", size)

def so(size: int) -> AlgebraFamily:
    return AlgebraFamily("SO", size)

def exceptional(kind: str) -> AlgebraFamily:
    if kind not in _EXCEPTIONAL:
        raise ValueError(f"unknown exceptional kind: {kind!r}")
    return AlgebraFamily(kind)


@dataclass(frozen=True)
class ReductiveProduct:
    """Formal product of reductive factors with total dim and rank.

    torus_removed subtracts one central torus (dim 1, rank 1); used for
    the GL convention that a diagonal scalar acts trivially on the slice.
    dim and rank are summed once, when the product is made.
    """

    factors: tuple[AlgebraFamily, ...]
    torus_removed: bool = False
    dim: int = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        torus = 1 if self.torus_removed else 0
        _store(self, sum([f.dim for f in self.factors]) - torus,
               sum([f.rank for f in self.factors]) - torus)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        body = "x".join([f.name for f in self.factors])
        return body + ("/T1" if self.torus_removed else "")


def _product(factors: tuple[AlgebraFamily, ...], torus_removed: bool,
             dim: int, rank: int) -> ReductiveProduct:
    """A ReductiveProduct whose dim and rank the caller has already summed
    (and reduced by the torus, if removed), made without summing again."""
    q = _new(ReductiveProduct)
    _set(q, "factors", factors)
    _set(q, "torus_removed", torus_removed)
    _store(q, dim, rank)
    return q


TRIVIAL_PRODUCT = ReductiveProduct(())


@lru_cache(maxsize=256)
def _factor(kind: str, size: int) -> AlgebraFamily:
    """The one shared centralizer factor of a classical kind and matrix size."""
    return AlgebraFamily(kind, size)


# Kind of the centralizer factor of a run of equal parts, indexed by the
# parity of the part: GL gives GL factors; Sp gives Sp at odd parts and SO
# at even parts; SO swaps the two.
_FACTOR_KINDS = {"GL": ("GL", "GL"), "Sp": ("SO", "Sp"), "SO": ("Sp", "SO")}


def _slice_dim(kind: str, mu: list[int], odd: int) -> int:
    """Dimension of the slice e + z(f) at a valid type with transpose mu
    and `odd` odd parts.

    sum(mu_i^2) for GL, and (sum(mu_i^2) +/- odd)/2 for Sp / SO, where the
    alternating sum of mu must count the odd parts too.
    """
    sq = sum(map(mul, mu, mu))
    if kind == "GL":
        return sq
    if sum(mu[::2]) - sum(mu[1::2]) != odd:
        raise AssertionError("dual alternating sum must count odd parts")
    num = sq + odd if kind == "Sp" else sq - odd
    if num % 2:
        raise AssertionError(f"odd numerator {num} in the slice dimension")
    return num // 2


def effective_centralizer(family: AlgebraFamily, p: Partition) -> ReductiveProduct:
    """Centralizer acting effectively on the slice.

    For GL one central scalar acts trivially and is removed (dim and rank
    drop by one); Sp and SO centralizers already act effectively.
    """
    return orbit_datum(family, p).effective_centralizer


def is_regular_type(family: AlgebraFamily, p: Partition) -> bool:
    if family.kind in ("GL", "Sp"):
        return len(p.parts) == 1
    if family.kind == "SO":
        m = family.size
        if m % 2 == 1:
            return p.parts == (m,)
        return p.parts == (m - 1, 1) if m >= 2 else p.parts == ()
    raise ValueError("regular types are only modeled for classical families")


def is_zero_type(p: Partition) -> bool:
    return not p.parts or p.parts[0] == 1   # parts decrease from the first


def is_very_even_type(family: AlgebraFamily, p: Partition) -> bool:
    """Type-D partitions with all parts even label two orbits, not one."""
    return (family.kind == "SO" and family.size % 2 == 0
            and all(part % 2 == 0 for part in p.parts))


@dataclass(frozen=True)
class OrbitDatum:
    """The slice numbers of one Jordan type, made by ``orbit_datum``."""

    family: AlgebraFamily
    jordan_type: Partition
    dual: Partition
    slice_dim: int
    orbit_dim: int
    centralizer: ReductiveProduct = field(compare=False)

    @property
    def effective_centralizer(self) -> ReductiveProduct:
        q = self.centralizer
        if self.family.kind == "GL":
            return _product(q.factors, True, q.dim - 1, q.rank - 1)
        return q


def orbit_datum(family: AlgebraFamily, p: Partition) -> OrbitDatum:
    """The slice numbers of the Jordan type p in a classical family.

    One walk over the runs of equal parts, smallest part first.  A run of
    m parts equal to v, with `end` parts at least v, gives the transpose mu
    its next v - len(mu) parts, all equal to `end`; it adds m to the odd
    count when v is odd; and it gives the reductive centralizer its factor
    of size m, of the kind _FACTOR_KINDS sets for v's parity.  The type is
    valid exactly when every Sp factor has even size.  The centralizer's
    dim and rank are summed over the factors as the walk makes them.  mu
    is weakly decreasing and positive by construction, so it is made a
    Partition unchecked, and the datum is made without the dataclass
    ``__init__``, as ``_product`` makes a product.
    """
    kind = family.kind
    if kind not in _CLASSICAL:
        raise ValueError("Jordan types are only modeled for classical families")
    if p.n != family.size:
        raise ValueError(f"partition of {p.n} does not fit {family}")
    parts = p.parts
    kinds = _FACTOR_KINDS[kind]
    mu: list[int] = []
    factors = []
    odd = q_dim = q_rank = 0
    end = len(parts)
    while end:
        v = parts[end - 1]
        start = parts.index(v)
        m = end - start
        mu += [end] * (v - len(mu))
        factor_kind = kinds[v & 1]
        if factor_kind == "Sp" and m & 1:
            raise ValueError(f"{p} is not a valid {kind} Jordan type")
        odd += m * (v & 1)
        factor = _factor(factor_kind, m)
        factors.append(factor)
        q_dim += factor.dim
        q_rank += factor.rank
        end = start
    s = _slice_dim(kind, mu, odd)
    o = _new(OrbitDatum)
    _set(o, "family", family)
    _set(o, "jordan_type", p)
    _set(o, "dual", _trusted(tuple(mu)))
    _set(o, "slice_dim", s)
    _set(o, "orbit_dim", family.dim - s)
    _set(o, "centralizer", _product(tuple(factors), False, q_dim, q_rank))
    return o


__all__ = [
    "AlgebraFamily", "ReductiveProduct", "OrbitDatum", "TRIVIAL_PRODUCT",
    "gl", "sp", "so", "exceptional",
    "effective_centralizer", "orbit_datum",
    "is_regular_type", "is_zero_type", "is_very_even_type",
]
