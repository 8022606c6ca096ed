"""Experimental verification of slice geometry at sampled points.

For a realization, samples a point x = e + (small integer combination of
the z(f) basis) of the slice and checks, in exact arithmetic: that the
symplectic pairing on g + z(f) is nondegenerate, that the tangent space
of the symmetry orbit through x contains its symplectic orthogonal
(coisotropy), the dimension of that orthogonal, and the stabilizer
dimension.  Sampling can only support or falsify generic-point claims,
never prove them: a degenerate sample is retried and persistent
degeneracy is reported as inconclusive, never as success.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

from .exactlinalg import RatMatrix, Subspace, bracket, kernel, trace_form
from .realizations import MatrixRealization

_BOX = 5          # sample coefficients from [-BOX, BOX]
_MAX_ATTEMPTS = 3


class SliceError(ValueError):
    pass


@dataclass(frozen=True)
class SlicePoint:
    realization: MatrixRealization
    x: RatMatrix
    seed: int
    coefficients: tuple[int, ...]


def slice_point(r: MatrixRealization, seed: int) -> SlicePoint:
    rng = random.Random(seed)
    coeffs = tuple(rng.randint(-_BOX, _BOX) for _ in r.zf_basis)
    x = r.e
    for c, b in zip(coeffs, r.zf_basis):
        if c:
            x = x + b.scale(c)
    return SlicePoint(r, x, seed, coeffs)


def _check_in_slice(r: MatrixRealization, x: RatMatrix) -> None:
    if not r.zf_subspace().member((x - r.e).flat_row()):
        raise SliceError("point is not on the slice")


def _by_transposed_support(basis: list[RatMatrix]) -> dict[tuple[int, int], list[int]]:
    """(k, l) -> indices, in order, of the basis elements nonzero at (l, k)."""
    index: dict[tuple[int, int], list[int]] = {}
    for t, b in enumerate(basis):
        for l, row in enumerate(b.entries):
            for k in row:
                index.setdefault((k, l), []).append(t)
    return index


def _meeting(a: RatMatrix, index: dict[tuple[int, int], list[int]]) -> list[int]:
    """Sorted indices of the elements b of an indexed basis with tr(ab) possibly nonzero."""
    out: set[int] = set()
    for k, row in enumerate(a.entries):
        for l in row:
            out.update(index.get((k, l), ()))
    return sorted(out)


def omega_gram(r: MatrixRealization, x: RatMatrix) -> RatMatrix:
    """Gram matrix of the slice symplectic form on the basis g + z(f).

    On tangent vectors (xi, u), (eta, v) with xi, eta in g and u, v in
    z(f), the form is (x, [xi, eta]) + (u, eta) - (v, xi), with (-,-)
    the trace pairing.

    Only pairs whose supports meet are paired.  tr(ab) is the sum of
    a_kl b_lk over the nonzero entries a_kl of a, so when no (k, l) in the
    support of a has (l, k) in the support of b, every term is zero and
    so is the entry: skipping the pair cannot drop a nonzero entry.  The
    g and z(f) basis elements are indexed by the transposed positions of
    their nonzero entries, and each element looks up the ones it meets.
    """
    _check_in_slice(r, x)
    dg, dz = r.dim_g, r.dim_zf
    g_index = _by_transposed_support(r.g_basis)
    zf_index = _by_transposed_support(r.zf_basis)
    gram = {}
    # Invariance of the trace pairing: (x, [b_i, b_j]) = ([x, b_i], b_j),
    # so one bracket per basis element replaces one per basis pair.
    ad_x = [bracket(x, bi) for bi in r.g_basis]
    for i in range(dg):
        for j in _meeting(ad_x[i], g_index):
            if j <= i:
                continue
            val = trace_form(ad_x[i], r.g_basis[j])
            if val:
                gram[i, j] = val
                gram[j, i] = -val
        bi = r.g_basis[i]
        for j in _meeting(bi, zf_index):
            val = -trace_form(r.zf_basis[j], bi)
            if val:
                gram[i, dg + j] = val
                gram[dg + j, i] = -val
    return RatMatrix.from_entries(dg + dz, dg + dz, gram)


def orbit_tangent(r: MatrixRealization, x: RatMatrix) -> Subspace:
    """Tangent space of the symmetry-group orbit at (1, x).

    In g + z(f) coordinates: all of g (left translations), plus the
    directions [c, x] for c in q (the slice rotations).  Each bracket
    must land back in z(f); anything else means a broken realization.
    """
    _check_in_slice(r, x)
    dg = r.dim_g
    zf = r.zf_subspace()
    gens = [{i: 1} for i in range(dg)]
    for c in r.q_basis:
        coords = zf.coords(bracket(c, x).flat_row())
        if coords is None:
            raise SliceError("q direction leaves z(f): broken realization")
        gens.append({dg + t: v for t, v in coords.items()})
    return Subspace.span(dg + r.dim_zf, gens)


def stabilizer_dim(r: MatrixRealization, x: RatMatrix) -> int:
    """Dimension of {c in q : [c, x] = 0}."""
    _check_in_slice(r, x)
    if not r.q_basis:
        return 0
    cols = [bracket(c, x).flat_row() for c in r.q_basis]
    return kernel(RatMatrix.from_rows(cols, x.rows * x.cols).transpose()).dim


@dataclass(frozen=True)
class CoisotropyReport:
    case: str
    seed: int              # seed of the retained sample
    dim_ambient: int
    omega_rank: int
    dim_W: int
    dim_W_perp: int
    contained: bool        # W contains its symplectic orthogonal
    dim_intersection: int
    stabilizer_dim: int
    inconclusive: bool     # omega stayed degenerate over all retries

    def to_dict(self) -> dict:
        return asdict(self)


def _check_at(r: MatrixRealization, seed: int) -> CoisotropyReport:
    pt = slice_point(r, seed)
    gram = omega_gram(r, pt.x)
    w = orbit_tangent(r, pt.x)
    # v is omega-orthogonal to W iff (basis of W) . gram . v = 0.
    w_perp = kernel(w.matrix() @ gram)
    # W contains its orthogonal iff the intersection is all of it.
    intersection = w.intersection_dim(w_perp)
    stabilizer = stabilizer_dim(r, pt.x)
    # W = g + [q, x], and c -> [c, x] on q has kernel the stabilizer, so two
    # eliminations must agree: dim W = dim g + dim q - dim stabilizer.
    if w.dim != r.dim_g + r.dim_q - stabilizer:
        raise SliceError(f"dim W = {w.dim}, but dim g + dim q - stabilizer = "
                         f"{r.dim_g} + {r.dim_q} - {stabilizer}: broken realization")
    return CoisotropyReport(
        case=r.label, seed=seed,
        dim_ambient=gram.rows,
        omega_rank=gram.rank(),
        dim_W=w.dim,
        dim_W_perp=w_perp.dim,
        contained=intersection == w_perp.dim,
        dim_intersection=intersection,
        stabilizer_dim=stabilizer,
        inconclusive=False,
    )


def coisotropy_check(r: MatrixRealization, seed: int,
                     stabilizer: int = 0) -> CoisotropyReport:
    """Coisotropy report at a sampled generic point, with retries.

    Up to three fresh seeds are tried; the sample of maximal rank data
    (omega rank, then orbit dimension) is kept.  A sample with full omega
    rank and a stabilizer of dimension at most ``stabilizer``, the
    expected generic one, is final: the generic stabilizer is the
    smallest, so no retry could raise the orbit dimension.  If the
    symplectic form never reaches full rank the report is flagged
    inconclusive.
    """
    best = _check_at(r, seed)
    for attempt in range(1, _MAX_ATTEMPTS):
        if best.omega_rank == best.dim_ambient and best.stabilizer_dim <= stabilizer:
            break
        rep = _check_at(r, seed + attempt)
        if (rep.omega_rank, rep.dim_W) > (best.omega_rank, best.dim_W):
            best = rep
    if best.omega_rank < best.dim_ambient:
        best = replace(best, inconclusive=True)
    return best

