"""S-dual basic classical Lie superalgebras of hyperspherical slices.

Each hyperspherical verdict is mapped to the basic classical Lie
superalgebra (or named non-superalgebra dual) conjectured or proved to be
its S-dual.  Only dimension bookkeeping of the superalgebras is done
here: even/odd dimensions from the defining-representation counts, and a
consistency check of the even part against the slice's symmetry group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classifier import HYPERSPHERICAL_STATUSES, Status, Verdict
from .liealg import AlgebraFamily
from .partitions import Partition, hook_parameters


@dataclass(frozen=True)
class SuperAlgebra:
    """One basic classical Lie superalgebra with its dimension data."""

    family: str     # "gl", "osp", "f4", "g3"
    m: int = 0      # gl(n|k): n; osp(m|2n): m
    n: int = 0      # gl(n|k): k; osp(m|2n): 2n (the symplectic size)

    def __post_init__(self):
        if self.family == "osp" and self.n % 2:
            raise ValueError("osp needs an even symplectic size")
        if self.family in ("gl", "osp") and (self.m < 0 or self.n < 0):
            raise ValueError("negative superalgebra parameters")

    @property
    def dim_even(self) -> int:
        if self.family == "gl":
            return self.m ** 2 + self.n ** 2
        if self.family == "osp":
            half = self.n // 2
            return self.m * (self.m - 1) // 2 + half * (2 * half + 1)
        if self.family == "f4":
            return 24   # sl2 + so7
        if self.family == "g3":
            return 17   # sl2 + g2
        raise ValueError(self.family)

    @property
    def dim_odd(self) -> int:
        if self.family == "gl":
            return 2 * self.m * self.n
        if self.family == "osp":
            return self.m * self.n
        if self.family == "f4":
            return 16
        if self.family == "g3":
            return 14
        raise ValueError(self.family)

    def __str__(self) -> str:
        if self.family == "gl":
            return f"gl({self.m}|{self.n})"
        if self.family == "osp":
            return f"osp({self.m}|{self.n})"
        return {"f4": "f(4)", "g3": "g(3)"}[self.family]


@dataclass(frozen=True)
class DualAssignment:
    """The S-dual of one slice: superalgebra(s) or a named symplectic dual."""

    text: str
    algebras: tuple[SuperAlgebra, ...] = ()   # both options for twisted pairs
    provenance: str = "conjectural"           # "proved" | "conjectural" | "standard"

    def __str__(self) -> str:
        return self.text


class NoDualError(ValueError):
    pass


def _hook_dual(family: AlgebraFamily, p: Partition) -> DualAssignment:
    if hook_parameters(p) is None:
        raise AssertionError(f"{p} is not a hook")
    k = len(p.parts) - 1   # number of trailing ones
    if family.kind == "GL":
        sd = SuperAlgebra("gl", family.size, k)
        return DualAssignment(str(sd), (sd,), provenance="proved")
    if family.kind == "Sp":
        if k % 2:
            raise AssertionError("Sp hook with an odd number of trailing ones")
        size = family.size  # 2n
        a = SuperAlgebra("osp", size + 1, size - k)
        b = SuperAlgebra("osp", size + 1 - k, size)
        return DualAssignment(f"{a} | {b}", (a, b))
    if family.kind == "SO":
        m2 = family.size
        if m2 % 2 == 0:
            if k % 2 == 0:
                raise AssertionError("even orthogonal hook needs odd k")
            sd = SuperAlgebra("osp", m2, k - 1)
        else:
            if k % 2:
                raise AssertionError("odd orthogonal hook needs even k")
            sd = SuperAlgebra("osp", k, m2 - 1)
        return DualAssignment(str(sd), (sd,))
    raise NoDualError(f"no hook dual for {family}")


def s_dual(v: Verdict) -> DualAssignment:
    """S-dual assignment for a hyperspherical verdict.

    Raises NoDualError for non-hyperspherical input.  Twisted pairs (the
    symplectic hooks) carry both options.
    """
    if v.status not in HYPERSPHERICAL_STATUSES:
        raise NoDualError(f"{v.orbit.jordan_type} in {v.orbit.family} is not "
                          "hyperspherical; it has no S-dual")
    family, p = v.orbit.family, v.orbit.jordan_type
    if v.status is Status.ZERO_ORBIT:
        return DualAssignment("G^ x G^ acting on T*G^", provenance="standard")
    if v.status is Status.REGULAR_ORBIT:
        return DualAssignment("G^ acting on {0}", provenance="standard")
    if v.status is Status.HYPERSPHERICAL_SPECIAL:
        sd = SuperAlgebra("f4")
        return DualAssignment(str(sd), (sd,))
    if v.status is Status.HYPERSPHERICAL_HOOK:
        return _hook_dual(family, p)
    # Via isomorphism: map through the hook image.
    if v.case is None:
        raise AssertionError(f"{p} in {family} is not in the non-hook table")
    if v.case.image is None:
        # so(4) splits; the image is regular in one sl2 factor, zero in the other.
        return DualAssignment("SL2^ acting on {0} x SL2^ x SL2^ acting on T*SL2^",
                              provenance="standard")
    return _hook_dual(*v.case.image)


def g2_short_root_dual() -> DualAssignment:
    """S-dual of the 8-dimensional orbit slice in the exceptional G2 case."""
    sd = SuperAlgebra("g3")
    return DualAssignment(str(sd), (sd,))


@dataclass(frozen=True)
class EvenPartCheck:
    applicable: bool
    matches: bool | None
    dim_even: int | None = None
    dim_expected: int | None = None


def check_even_part(sd: DualAssignment, v: Verdict) -> EvenPartCheck:
    """For gl(n|k) duals: the even part must match dim G + dim Q_effective.

    The slice's symmetry group GL(n) x GL(k) arises from GL(n) x Q by
    dropping the trivially acting scalar, so dim even = n^2 + k^2 agrees
    with dim G plus the effective centralizer dimension.  Scoped to the
    gl family; osp duals pair with different groups and are not checked.
    """
    if len(sd.algebras) != 1 or sd.algebras[0].family != "gl":
        return EvenPartCheck(applicable=False, matches=None)
    alg = sd.algebras[0]
    expected = v.orbit.family.dim + v.orbit.effective_centralizer.dim
    return EvenPartCheck(applicable=True, matches=alg.dim_even == expected,
                         dim_even=alg.dim_even, dim_expected=expected)
