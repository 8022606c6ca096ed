"""Dimension and rank arithmetic for reductive groups and nilpotent orbits.

Covers the classical families GL(n), Sp(2n), SO(m), the simple types and
the exceptional types as one group type, and the orbit datum of a Jordan
type: its transpose, slice and orbit dimensions, and the reductive
centralizer of an sl2-triple as a formal product of classical factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from operator import mul, sub

from .partitions import Partition, dual, is_valid_jordan_type

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


def _store(obj, dim: int, rank: int) -> None:
    """Set the derived dim and rank of a frozen dataclass instance."""
    object.__setattr__(obj, "dim", dim)
    object.__setattr__(obj, "rank", rank)


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
    carry a Lie rank; exceptional labels carry nothing.  dim and rank are
    computed once, when the family is made.
    """

    kind: str
    size: int = 0
    dim: int = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kind, size = self.kind, self.size
        if kind in _CLASSICAL:
            _check_classical_size(kind, size)
            _store(self, _classical_dim(kind, size), _classical_rank(kind, size))
        elif kind in _SIMPLE_DIMS:
            _store(self, _SIMPLE_DIMS[kind](size), size)
        elif kind in _EXCEPTIONAL:
            _store(self, *_EXCEPTIONAL[kind])
        else:
            raise ValueError(f"unknown family kind: {kind!r}")

    def __str__(self) -> str:
        if self.kind in _CLASSICAL:
            return f"{self.kind}({self.size})"
        if self.kind in _SIMPLE_DIMS:
            return f"{self.kind}{self.size}"
        return self.kind


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
        body = "x".join(map(str, self.factors))
        return body + ("/T1" if self.torus_removed else "")

TRIVIAL_PRODUCT = ReductiveProduct(())


def _require_valid(family: AlgebraFamily, p: Partition) -> None:
    if family.kind not in ("GL", "Sp", "SO"):
        raise ValueError("Jordan types are only modeled for classical families")
    if p.n != family.size:
        raise ValueError(f"partition of {p.n} does not fit {family}")
    if not is_valid_jordan_type(p, family.kind):
        raise ValueError(f"{p} is not a valid {family.kind} Jordan type")


def _slice_dim(family: AlgebraFamily, p: Partition, mu: Partition) -> int:
    """Dimension of the slice e + z(f) at a valid type p with transpose mu.

    sum(mu_i^2) for GL, and (sum(mu_i^2) +/- #odd parts of p)/2 for Sp / SO.
    Both the alternating-sum and odd-part-count readings of the correction
    term are evaluated and must agree.
    """
    m = mu.parts
    sq = sum(map(mul, m, m))
    if family.kind == "GL":
        return sq
    alternating = sum(m[::2]) - sum(m[1::2])
    odd = sum(map((1).__and__, p.parts))
    if alternating != odd:
        raise AssertionError("dual alternating sum must count odd parts")
    num = sq + odd if family.kind == "Sp" else sq - odd
    if num % 2:
        raise AssertionError(f"odd numerator {num} in the slice dimension")
    return num // 2


@lru_cache(maxsize=256)
def _factor(kind: str, size: int) -> AlgebraFamily:
    """The one shared centralizer factor of a classical kind and matrix size."""
    return AlgebraFamily(kind, size)


def _centralizer(family: AlgebraFamily, mu: Partition) -> ReductiveProduct:
    """Reductive centralizer of an sl2-triple through the valid type with
    transpose mu, as a product.

    With d_i = mu_i - mu_{i+1} (the multiplicity of the part i): GL
    contributes GL(d_i) for every i; Sp contributes Sp(d_i) at odd i and
    SO(d_i) at even i; SO swaps the two.
    """
    kind = family.kind
    m = mu.parts
    mult = list(map(sub, m, m[1:] + (0,)))
    factors = []
    for i, d in compress(enumerate(mult, start=1), mult):   # only the parts present
        if kind == "GL":
            factors.append(_factor("GL", d))
        elif (i % 2 == 1) == (kind == "Sp"):   # Sp factors: odd i in Sp, even i in SO
            if d % 2:
                raise AssertionError(f"odd-size Sp factor from a valid {kind} type")
            factors.append(_factor("Sp", d))
        else:
            factors.append(_factor("SO", d))
    return ReductiveProduct(tuple(factors))


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
        if self.family.kind == "GL":
            return ReductiveProduct(self.centralizer.factors, torus_removed=True)
        return self.centralizer


def orbit_datum(family: AlgebraFamily, p: Partition) -> OrbitDatum:
    _require_valid(family, p)
    mu = dual(p)
    s = _slice_dim(family, p, mu)
    return OrbitDatum(
        family=family,
        jordan_type=p,
        dual=mu,
        slice_dim=s,
        orbit_dim=family.dim - s,
        centralizer=_centralizer(family, mu),
    )


__all__ = [
    "AlgebraFamily", "ReductiveProduct", "OrbitDatum", "TRIVIAL_PRODUCT",
    "gl", "sp", "so", "exceptional",
    "effective_centralizer", "orbit_datum",
    "is_regular_type", "is_zero_type", "is_very_even_type",
]
