"""Hypersphericity classification of equivariant slices G x S_e.

The necessary dimension bound says a hyperspherical G x Q-variety has
dim at most dim(G x Q) + rk(G x Q).  For each classical family the bound
is also evaluated in a reduced form purely in terms of the transpose mu
of the Jordan type, and a finite sweep checks the two agree and isolates
the short exception lists beyond hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import mul, sub

from .datasets import ExceptionalOrbitTable
from .liealg import (AlgebraFamily, OrbitDatum, ReductiveProduct, hook_family,
                     is_regular_type, is_very_even_type, is_zero_type,
                     orbit_datum)
from .partitions import (Partition, hook_parameters, parse_partition,
                         valid_jordan_types)


class Status(Enum):
    ZERO_ORBIT = "ZeroOrbit"
    REGULAR_ORBIT = "RegularOrbit"
    HYPERSPHERICAL_HOOK = "HypersphericalHook"
    HYPERSPHERICAL_SPECIAL = "HypersphericalSpecial"
    HYPERSPHERICAL_VIA_ISOMORPHISM = "HypersphericalViaIsomorphism"
    NOT_HYPERSPHERICAL = "NotHyperspherical"
    CANDIDATE = "Candidate"

HYPERSPHERICAL_STATUSES = frozenset({
    Status.ZERO_ORBIT, Status.REGULAR_ORBIT, Status.HYPERSPHERICAL_HOOK,
    Status.HYPERSPHERICAL_SPECIAL, Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
})


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the necessary dimension bound for one orbit.

    lhs = dim G + dim S_e; rhs = dim G + dim Q + rk G + rk Q with the full
    centralizer Q.  For GL a diagonal scalar acts trivially, so the bound
    that actually decides is rhs_effective = rhs - 2; slack is lhs minus
    the deciding rhs.  slack > 0 certifies "not hyperspherical".
    """

    lhs: int
    rhs: int
    rhs_effective: int | None
    slack: int


@dataclass(frozen=True)
class Verdict:
    orbit: OrbitDatum
    status: Status
    bound: BoundReport
    note: str = ""           # isomorphism target, special-case name, warnings
    very_even: bool = False  # type-D label standing for two orbits


def dimension_bound(g: AlgebraFamily, slice_dim: int,
                    q: ReductiveProduct) -> BoundReport:
    """Both sides of the necessary bound for a slice in g with full centralizer q."""
    lhs = g.dim + slice_dim
    rhs = g.dim + q.dim + g.rank + q.rank
    rhs_eff = rhs - 2 if g.kind == "GL" else None
    slack = lhs - (rhs_eff if rhs_eff is not None else rhs)
    return BoundReport(lhs=lhs, rhs=rhs, rhs_effective=rhs_eff, slack=slack)


def necessary_bound(o: OrbitDatum) -> BoundReport:
    return dimension_bound(o.family, o.slice_dim, o.centralizer)


def reduced_inequality(family_kind: str, mu: Partition) -> bool:
    """Reduced form of the strict dimension bound, in the transpose mu.

    True means the bound is strictly violated, i.e. the orbit is not
    hyperspherical.  With d_i = mu_i - mu_{i+1} (mu padded by 0):

      GL: sum mu_i^2 - sum mu_i > sum d_i^2 + mu_1 - 2
      Sp: sum mu_i^2 - 2 sum_{i odd} mu_i > sum d_i^2
      SO: sum mu_i^2 - 2 mu_1 - 2 sum_{i even} mu_i > sum d_i^2
    """
    m = mu.parts
    sq = sum(map(mul, m, m))
    d = list(map(sub, m, m[1:] + (0,)))
    d_sq = sum(map(mul, d, d))
    first = m[0] if m else 0
    if family_kind == "GL":
        return sq - sum(m) > d_sq + first - 2
    odd_sum = sum(m[::2])
    if family_kind == "Sp":
        return sq - 2 * odd_sum > d_sq
    if family_kind == "SO":
        even_sum = sum(m[1::2])
        return sq - 2 * first - 2 * even_sum > d_sq
    raise ValueError(f"unknown family kind: {family_kind!r}")


# Jordan types that fail to be hooks yet are hyperspherical, via low-rank
# classical isomorphisms (or triality for SO(8)).  Keyed by (kind, parts);
# the value describes the hook image: (target kind or label, target type).
_VIA_ISOMORPHISM: dict[tuple[str, tuple[int, ...]], tuple[str, str]] = {
    ("GL", (2, 2)): ("SO", "3,1,1,1"),
    ("Sp", (2, 2)): ("SO", "3,1,1"),
    ("SO", (3, 3)): ("GL", "3,1"),
    ("SO", (2, 2, 1, 1)): ("GL", "2,1,1"),
    ("SO", (2, 2, 1)): ("Sp", "2,1,1"),
    ("SO", (4, 4)): ("SO", "5,1,1,1"),       # triality
    ("SO", (2, 2, 2, 2)): ("SO", "3,1,1,1,1"),  # triality
}
# so(4) = sl(2)+sl(2): the (2,2) image is regular-plus-zero, not a hook.
_SO4_SPLIT = ("SO", (2, 2))
# Its matrix model is coisotropic, but in the factor that sees the zero orbit
# the slice is all of sl(2), whose generic stabilizer is a torus: stabilizer
# dim 1, and dim W-perp 2 rather than rk g + rk q = 3.
_SO4_SPLIT_COISOTROPY = {"contained": True, "dim_W_perp": 2, "stabilizer_dim": 1}


def iso_image(family_kind: str, p: Partition) -> tuple[AlgebraFamily, Partition] | None:
    """Hook image of an exceptional classical type, if there is one."""
    entry = _VIA_ISOMORPHISM.get((family_kind, p.parts))
    if entry is None:
        return None
    target_kind, target_parts = entry
    target = parse_partition(target_parts)
    return hook_family(target_kind, target), target


def classify(o: OrbitDatum) -> Verdict:
    bound = necessary_bound(o)
    family, p = o.family, o.jordan_type
    very_even = is_very_even_type(family, p)

    def verdict(status: Status, note: str = "") -> Verdict:
        return Verdict(o, status, bound, note=note, very_even=very_even)

    if is_zero_type(p):
        return verdict(Status.ZERO_ORBIT)
    if is_regular_type(family, p):
        return verdict(Status.REGULAR_ORBIT)
    if hook_parameters(p) is not None:
        return verdict(Status.HYPERSPHERICAL_HOOK)
    if (family.kind, p.parts) == _SO4_SPLIT:
        return verdict(Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
                       note="(2)+(1,1) in sl(2)+sl(2)")
    if (family.kind, p.parts) == ("Sp", (3, 3)):
        return verdict(Status.HYPERSPHERICAL_SPECIAL, note="(3,3) in sp(6)")
    image = iso_image(family.kind, p)
    if image is not None:
        target, target_type = image
        tag = " (triality)" if (family.kind, target.kind) == ("SO", "SO") else ""
        return verdict(Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
                       note=f"{target_type} in {target}{tag}")
    if bound.slack > 0:
        return verdict(Status.NOT_HYPERSPHERICAL)
    # Defensive: the bound alone never certifies hypersphericity.
    return verdict(Status.CANDIDATE,
                   note="passes the necessary bound but matches no proven case")


def predicted_coisotropy(v: Verdict) -> dict[str, object]:
    """The coisotropy record fields a verdict predicts for its matrix model.

    Hyperspherical: W contains W-perp, the generic stabilizer is trivial
    and dim W-perp = rk g + rk of the effective centralizer.  Otherwise W
    does not contain W-perp.  The so(4) (2,2) split is its own case.
    """
    o = v.orbit
    if (o.family.kind, o.jordan_type.parts) == _SO4_SPLIT:
        return dict(_SO4_SPLIT_COISOTROPY)
    if v.status in HYPERSPHERICAL_STATUSES:
        return {"contained": True, "stabilizer_dim": 0,
                "dim_W_perp": o.family.rank + o.effective_centralizer.rank}
    return {"contained": False}


# Largest matrix size enumerate_and_classify accepts: gl(40) takes seconds,
# and the number of types grows like exp(sqrt(n)) beyond it.
MAX_ENUMERATION_SIZE = 40


def enumerate_and_classify(family: AlgebraFamily) -> list[Verdict]:
    """One verdict per valid Jordan type, in reverse-lex order."""
    if family.kind not in ("GL", "Sp", "SO"):
        raise ValueError("enumeration is for classical families")
    if family.size < 1:
        raise ValueError("family size must be positive")
    if family.size > MAX_ENUMERATION_SIZE:
        raise ValueError(f"enumeration is capped at matrix size {MAX_ENUMERATION_SIZE}, "
                         f"{family} has size {family.size}")
    types = valid_jordan_types(family.kind, family.size)
    return [classify(orbit_datum(family, p)) for p in types]


EXPECTED_EXCEPTIONS: dict[str, frozenset[tuple[int, ...]]] = {
    "GL": frozenset({(2, 2)}),
    "Sp": frozenset({(2, 2), (3, 3)}),
    "SO": frozenset({(2, 2), (3, 3), (4, 4), (2, 2, 1), (2, 2, 1, 1),
                     (2, 2, 2, 2)}),
}


@dataclass(frozen=True)
class SweepReport:
    family_kind: str
    n_max: int
    checked: int
    mismatches: tuple[str, ...]   # types where reduced and direct bound disagree
    exceptions_beyond_hooks: frozenset[tuple[int, ...]]
    matches_expected: bool


def sweep_inequality_proof(family_kind: str, n_max: int) -> SweepReport:
    """Brute-force replacement for the induction arguments.

    Checks, for every valid Jordan type with n <= n_max, that the reduced
    inequality agrees with the direct bound comparison, and collects the
    non-hook types where the bound fails to exclude.
    """
    if n_max > 30:
        raise ValueError("n_max capped at 30")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")

    mismatches: list[str] = []
    exceptions: set[tuple[int, ...]] = set()
    checked = 0
    for n in range(1, n_max + 1):
        types = valid_jordan_types(family_kind, n)
        if not types:
            continue
        family = hook_family(family_kind, types[0])
        for p in types:
            o = orbit_datum(family, p)
            direct = necessary_bound(o).slack > 0
            reduced = reduced_inequality(family_kind, o.dual)
            checked += 1
            if direct != reduced:
                mismatches.append(f"{family_kind} {p}: direct={direct} reduced={reduced}")
            if not direct:
                if (hook_parameters(p) is None and not is_zero_type(p)
                        and not is_regular_type(family, p)):
                    exceptions.add(p.parts)
    expected = EXPECTED_EXCEPTIONS[family_kind]
    expected_in_range = {t for t in expected if sum(t) <= n_max}
    return SweepReport(
        family_kind=family_kind,
        n_max=n_max,
        checked=checked,
        mismatches=tuple(mismatches),
        exceptions_beyond_hooks=frozenset(exceptions),
        matches_expected=not mismatches and exceptions == expected_in_range,
    )


@dataclass(frozen=True)
class ScanRow:
    """Necessary-bound evaluation for one exceptional-algebra orbit."""

    algebra: AlgebraFamily
    label: str
    orbit_dim: int
    slice_dim: int
    centralizer: ReductiveProduct
    lhs: int
    rhs: int
    slack: int

    @property
    def passes_necessary_bound(self) -> bool:
        return self.slack <= 0


def scan_exceptional(table: ExceptionalOrbitTable) -> list[ScanRow]:
    """Evaluate the dimension bound on every row of an orbit table."""
    g = table.algebra
    out = []
    for row in table.rows:
        s = g.dim - row.orbit_dim
        b = dimension_bound(g, s, row.centralizer)
        out.append(ScanRow(
            algebra=g, label=row.label, orbit_dim=row.orbit_dim, slice_dim=s,
            centralizer=row.centralizer, lhs=b.lhs, rhs=b.rhs, slack=b.slack,
        ))
    return out
