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
from .liealg import (AlgebraFamily, OrbitDatum, ReductiveProduct,
                     is_regular_type, is_very_even_type, is_zero_type,
                     orbit_datum)
from .partitions import Partition, hook_parameters, valid_jordan_types


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
class NonHookCase:
    """A hyperspherical Jordan type that is neither zero, regular nor a hook."""

    status: Status
    note: str
    # Hook image under a low-rank isomorphism or triality, if there is one.
    image: tuple[AlgebraFamily, Partition] | None = None
    # Generic stabilizer dimension in q of the matrix model.
    stabilizer_dim: int = 0


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
    case: NonHookCase | None = None   # the table entry of a non-hook exception


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


def _via(kind: str, parts: tuple[int, ...], tag: str = "") -> NonHookCase:
    target_type = Partition(parts)
    target = AlgebraFamily(kind, target_type.n)
    return NonHookCase(Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
                       f"{target_type} in {target}{tag}", (target, target_type))


# The paper's full list beyond zero, regular and hooks, keyed by (kind, parts).
NON_HOOK_CASES: dict[tuple[str, tuple[int, ...]], NonHookCase] = {
    ("GL", (2, 2)): _via("SO", (3, 1, 1, 1)),
    ("Sp", (2, 2)): _via("SO", (3, 1, 1)),
    ("Sp", (3, 3)): NonHookCase(Status.HYPERSPHERICAL_SPECIAL, "(3,3) in sp(6)"),
    # so(4) = sl(2)+sl(2): the image is regular in one factor and zero in the
    # other, where the slice is all of sl(2) and a torus stabilizes it.
    ("SO", (2, 2)): NonHookCase(Status.HYPERSPHERICAL_VIA_ISOMORPHISM,
                                "(2)+(1,1) in sl(2)+sl(2)", stabilizer_dim=1),
    ("SO", (3, 3)): _via("GL", (3, 1)),
    ("SO", (2, 2, 1, 1)): _via("GL", (2, 1, 1)),
    ("SO", (2, 2, 1)): _via("Sp", (2, 1, 1)),
    ("SO", (4, 4)): _via("SO", (5, 1, 1, 1), " (triality)"),
    ("SO", (2, 2, 2, 2)): _via("SO", (3, 1, 1, 1, 1, 1), " (triality)"),
}


def classify(o: OrbitDatum) -> Verdict:
    bound = necessary_bound(o)
    family, p = o.family, o.jordan_type
    note, case = "", None
    if is_zero_type(p):
        status = Status.ZERO_ORBIT
    elif is_regular_type(family, p):
        status = Status.REGULAR_ORBIT
    elif hook_parameters(p) is not None:
        status = Status.HYPERSPHERICAL_HOOK
    else:
        case = NON_HOOK_CASES.get((family.kind, p.parts))
        if case is not None:
            status, note = case.status, case.note
        elif bound.slack > 0:
            status = Status.NOT_HYPERSPHERICAL
        else:
            # Defensive: the bound alone never certifies hypersphericity.
            status = Status.CANDIDATE
            note = "passes the necessary bound but matches no proven case"
    return Verdict(o, status, bound, note, is_very_even_type(family, p), case)


def predicted_coisotropy(v: Verdict) -> dict[str, object]:
    """The coisotropy record fields a verdict predicts for its matrix model.

    Hyperspherical: W contains W-perp, and dim W-perp = rk g + rk q - s with
    q the effective centralizer and s its generic stabilizer dimension:
    rk q for the zero orbit, whose slice is all of g, else the table's.
    Any other verdict: W does not contain W-perp.
    """
    if v.status not in HYPERSPHERICAL_STATUSES:
        return {"contained": False}
    o = v.orbit
    q_rank = o.effective_centralizer.rank
    if v.status is Status.ZERO_ORBIT:
        s = q_rank
    else:
        s = v.case.stabilizer_dim if v.case is not None else 0
    return {"contained": True, "stabilizer_dim": s,
            "dim_W_perp": o.family.rank + q_rank - s}


# Largest matrix size enumerate_and_classify accepts.  As a whole process,
# `classify --family gl --rank 40` (37338 types) takes 1.8-2.0 s on a
# 2-core x86-64 box with CPython 3.11 (six runs), and the number of types
# grows like exp(sqrt(n)) beyond it.
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
    kind: frozenset(parts for k, parts in NON_HOOK_CASES if k == kind)
    for kind in ("GL", "Sp", "SO")
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
    non-hook types where the bound fails to exclude.  A range with no
    valid type is refused: a sweep that checks nothing confirms nothing.
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
        family = AlgebraFamily(family_kind, n)
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
    if not checked:
        raise ValueError(f"no valid {family_kind} Jordan type with n <= {n_max}")
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
