"""Experimental verification of slice geometry at sampled points.

For a realization, samples a point x = e + (small integer combination of
the z(f) basis) of the slice and checks, in exact arithmetic, whether
the tangent space W of the symmetry orbit through x contains its
symplectic orthogonal (coisotropy), with the dimension of that
orthogonal and the stabilizer dimension.  A sample, a ``SlicePoint``,
stores only its coefficients, so it lies on the slice by construction.
Sampling can only support or falsify generic-point claims, never prove
them.

The rotations [x, c], c in q, are eliminated once, in z(f)
coordinates.  That one echelon gives W's basis, the stabilizer (dim q
minus its rank) and the rotation rows of omega on W, whose g rows come
from the Gram matrix as it stands.  The rank is cross-checked in
independent arithmetic, mod a prime, on the rotations as n^2 vectors.

The symplectic form on g + z(f) is nondegenerate at every point of a
sound model: G x S_e is a Whittaker reduction of T*G (Gan-Ginzburg,
IMRN 2002).  Its rank is still computed, and a rank drop raises
``InconsistentRealization``, as every other failed cross-check of the
model does.

The stop rule reads the prediction from the verdict the realization
carries.  A sample is final when its record agrees with every
predicted field; otherwise up to ``_MAX_ATTEMPTS`` seeds are tried and
the most generic sample is kept, by dim W, then the rank of omega on W.
A special point can only lower each of these ranks.  The rank of omega
on W is dim W - dim(W meet W-perp), at least 2 dim W - ambient, with
equality exactly when W contains W-perp.  So a special sample can make
W look coisotropic, never the reverse, and the sample kept is the most
generic one seen, whatever the prediction.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import cached_property

from .classifier import predicted_coisotropy
from .exactlinalg import (ColumnIndex, RatMatrix, Row, Subspace, _axpy, _clean, _echelon,
                          ad_rows, rank_mod_p, trace_form)
from .realizations import InconsistentRealization, MatrixRealization

_BOX = 5          # sample coefficients from [-BOX, BOX]
_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class SlicePoint:
    """x = e + sum of c_i z_i; one coefficient per z(f) basis element, so x is on the slice.

    x and the rotations [x, c], c in q, are formed on first read and kept.
    x is summed as one flattened sparse row, e's entries plus c_i times
    the row z_i for each c_i nonzero, and made a matrix once.
    """
    realization: MatrixRealization
    coefficients: tuple[int, ...]

    def __post_init__(self):
        dz = self.realization.dim_zf
        if len(self.coefficients) != dz:
            raise ValueError(f"{len(self.coefficients)} coefficients, dim z(f) is {dz}")

    @cached_property
    def x(self) -> RatMatrix:
        r = self.realization
        n = r.e.rows
        x = r.e.flat_row()
        for c, z in zip(self.coefficients, r.zf_rows):
            if c:
                _axpy(x, c, z)
        return RatMatrix.from_flat_row(x, n, n)

    @cached_property
    def rotations(self) -> list[Row]:
        """The flattened [x, c] for each c in the q basis, in order."""
        return ad_rows(self.x, self.realization.q_rows)

    @cached_property
    def echelon(self) -> list[dict[int, int]]:
        """The rotations' z(f) coordinates, eliminated once, by increasing pivot.

        These are ``_echelon``'s integer rows, each a multiple of a row of
        the reduced row echelon form, so they span the rotations' image in
        z(f) coordinates.  A rotation outside z(f) means a broken
        realization.
        """
        zf = self.realization.zf_subspace()
        coords = []
        for col in self.rotations:
            c = zf.coords(col)
            if c is None:
                raise InconsistentRealization("q direction leaves z(f): broken realization")
            coords.append(c)
        reduced = _echelon(coords)
        return [reduced[p] for p in sorted(reduced)]


def slice_point(r: MatrixRealization, seed: int) -> SlicePoint:
    rng = random.Random(seed)
    return SlicePoint(r, tuple(rng.randint(-_BOX, _BOX) for _ in r.zf_rows))


def _antisymmetric_product(rows: list[Row], b_cols: ColumnIndex, size: int) -> list[Row]:
    """The rows of a . b^T, size x size, for a product known to be antisymmetric.

    a is given by its rows and b by its column index.  Only the entries
    (i, j) with j > i are summed: each list of b_cols is read from its
    end and stops at j = i.  Entry (j, i) is minus entry (i, j), and the
    diagonal is zero.  Rows past the last row of a hold only those
    mirrored entries, so a caller may fill in a border.
    """
    out: list[Row] = [{} for _ in range(size)]
    for i, (row, out_i) in enumerate(zip(rows, out)):
        acc: Row = {}
        for k, x in row.items():
            for j, val in reversed(b_cols[k]):
                if j <= i:
                    break
                acc[j] = acc.get(j, 0) + x * val
        for j, val in _clean(acc).items():
            out_i[j] = val
            out[j][i] = -val
    return out


def omega_gram(pt: SlicePoint) -> RatMatrix:
    """Gram matrix of the slice symplectic form on the basis g + z(f).

    On tangent vectors (xi, u), (eta, v) with xi, eta in g and u, v in
    z(f), the form is (x, [xi, eta]) + (u, eta) - (v, xi), with (-,-)
    the trace pairing.

    The g x g block rests on two identities.  Invariance of the trace
    pairing gives (x, [b_i, b_j]) = ([x, b_i], b_j), so one bracket per
    basis element replaces one per pair; and tr(ab) is the sum of
    a_kl b_lk, the dot product of the flattened a with the flattened
    transpose of b.  So entry (i, j) is the flattened [x, b_i] dotted
    with the flattened b_j^T.  g_cols, the column index of those
    transposes, is read straight off the model's g rows, with no
    transpose formed: its row kn + l lists, by increasing i, the
    (i, b_i[l][k]) with b_i[l][k] nonzero.  The block is antisymmetric,
    so only its entries with j > i are summed (``_antisymmetric_product``)
    and the rest are their negatives.

    The g x z(f) block pairs z_j only with the b_i that g_cols lists at
    its support; every other pair has tr(z_j b_i) = 0 term by term.
    """
    r, x = pt.realization, pt.x
    dg, dz = r.dim_g, r.dim_zf
    n = x.rows
    g_cols: ColumnIndex = [[] for _ in range(n * n)]
    for i, b in enumerate(r.g_rows):
        for c, val in b.items():
            l, k = divmod(c, n)
            g_cols[k * n + l].append((i, val))
    gram = _antisymmetric_product(ad_rows(x, r.g_rows), g_cols, dg + dz)
    for j, z in enumerate(r.zf_rows):
        for i in sorted({i for c in z for i, _ in g_cols[c]}):
            val = -trace_form(z, r.g_rows[i], n)
            if val:
                gram[i][dg + j] = val
                gram[dg + j][i] = -val
    return RatMatrix(gram, dg + dz)


def orbit_tangent(pt: SlicePoint) -> Subspace:
    """Tangent space of the symmetry-group orbit at (1, x).

    In g + z(f) coordinates: all of g (left translations), plus the
    directions [c, x] for c in q (the slice rotations), taken as their
    negatives [x, c], which span the same space.  The rotations have no
    g coordinates, so the basis is the dim g unit rows, then the point's
    ``echelon`` rows shifted past g.
    """
    r = pt.realization
    dg = r.dim_g
    rows = [{i: 1} for i in range(dg)]
    rows += [{dg + t: v for t, v in row.items()} for row in pt.echelon]
    return Subspace(dg + r.dim_zf, rows, check=False)


def stabilizer_dim(pt: SlicePoint) -> int:
    """Dimension of {c in q : [c, x] = 0}: dim q minus the rank of the rotations.

    That rank is the length of the point's ``echelon``.  z(f)
    coordinates are injective, so the rotations have the same rank as
    n^2 vectors, and that is cross-checked in independent arithmetic:
    their rank mod p, taken of the n^2 x dim q matrix with the rotations
    as columns, whose short rows fill in less.  A rank mod p can only
    fall short of the exact one, so a rank above it is a broken model at
    once; one below it is recomputed exactly first.
    """
    r = pt.realization
    rank = len(pt.echelon)
    columns = RatMatrix(pt.rotations, r.family.size ** 2).transpose()
    found = rank_mod_p(columns.entries)
    if found < rank:
        found = columns.rank()
    if found != rank:
        raise InconsistentRealization(
            f"the rotations have rank {found} in the matrix space but {rank} "
            "in z(f) coordinates: broken realization")
    return r.dim_q - rank


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
    inconclusive: bool     # always False: a degenerate omega raises InconsistentRealization

    def to_dict(self) -> dict:
        return asdict(self)


def _restricted_form(echelon: list[Row], gram: RatMatrix, dg: int) -> RatMatrix:
    """omega on W, for W spanned by g and the echelon rows shifted past g.

    The rows of W come rotation first: the echelon rows last to first,
    then the g unit rows last to first.  The first columns are then the
    rotation ones, on which elimination pivots first; with omega zero on
    z(f) x z(f) they vanish on the rotation rows, and fill in far less.
    gram must be antisymmetric.  Its g x g block is used as it stands.
    The rest is one sparse product, of the echelon rows E with gram's
    z(f) rows: its g columns give the rotation x g block, whose negative
    transpose is the g x rotation block, and its z(f) columns, times
    E^T, the rotation x rotation block.  That last block is read from
    gram, not assumed zero.
    """
    k = len(echelon)
    size = k + dg
    last = size - 1                       # g row i sits at last - i
    e_cols: ColumnIndex = [[] for _ in range(gram.rows - dg)]
    for s, row in enumerate(echelon):
        for j, val in row.items():
            e_cols[j].append((k - 1 - s, val))
    out: list[Row] = [{} for _ in range(k)]
    out += [{last - j: val for j, val in gram.entries[i].items() if j < dg}
            for i in reversed(range(dg))]
    for s, row in enumerate(echelon):
        acc: Row = {}
        for j, val in row.items():
            for c, x in gram.entries[dg + j].items():
                acc[c] = acc.get(c, 0) + val * x
        out_t = out[k - 1 - s]
        for c, val in _clean(acc).items():
            if c < dg:
                out_t[last - c] = val
                out[last - c][k - 1 - s] = -val
            else:
                for t, x in e_cols[c - dg]:
                    out_t[t] = out_t.get(t, 0) + val * x
        out[k - 1 - s] = _clean(out_t)
    return RatMatrix(out, size)


def _check_at(r: MatrixRealization, seed: int) -> CoisotropyReport:
    """Coisotropy report at one sampled point.

    omega is nondegenerate on G x S_e, a Whittaker reduction of T*G
    (Gan-Ginzburg, IMRN 2002), so its rank is computed only as a check
    on the model: a rank drop is a broken realization.  Hence dim W-perp
    = ambient - dim W, and containment is decided from the radical of
    omega on W, not from a basis of W-perp: W contains W-perp iff the
    radical is all of W-perp.  A vector of W lies in W-perp iff its
    coordinates are in the kernel of omega restricted to W, so the
    radical has dimension dim W - rank of that form
    (``_restricted_form``).  W, the stabilizer and that form all read
    the one elimination of the rotations, the point's ``echelon``.
    """
    pt = slice_point(r, seed)
    gram = omega_gram(pt)
    ambient, omega_rank = gram.rows, gram.rank()
    if omega_rank < ambient:
        raise InconsistentRealization(f"omega has rank {omega_rank} < dim_ambient {ambient}: "
                                      "broken realization")
    w = orbit_tangent(pt)
    stabilizer = stabilizer_dim(pt)
    intersection = w.dim - _restricted_form(pt.echelon, gram, r.dim_g).rank()
    dim_perp = ambient - w.dim
    return CoisotropyReport(
        case=r.label, seed=seed,
        dim_ambient=ambient,
        omega_rank=omega_rank,
        dim_W=w.dim,
        dim_W_perp=dim_perp,
        contained=intersection == dim_perp,
        dim_intersection=intersection,
        stabilizer_dim=stabilizer,
        inconclusive=False,
    )


def disagreements(rep: CoisotropyReport, predicted: dict[str, object]) -> list[str]:
    """One "field value, predicted value" phrase per predicted field the record misses."""
    return [f"{key} {getattr(rep, key)}, predicted {value}"
            for key, value in predicted.items() if getattr(rep, key) != value]


def _genericity(rep: CoisotropyReport) -> tuple[int, int]:
    """(dim W, rank of omega on W): a special sample can only lower each."""
    return rep.dim_W, rep.dim_W - rep.dim_intersection


def coisotropy_check(r: MatrixRealization, seed: int) -> CoisotropyReport:
    """Coisotropy report at a sampled generic point, with retries.

    The prediction is ``predicted_coisotropy`` of the realization's
    verdict.  A sample whose record agrees with every predicted field is
    final.  Otherwise up to three seeds, seed, seed + 1, ..., are tried,
    and the first sample of the largest (dim W, dim W - dim(W meet
    W-perp)) is kept.  A special point can only lower a rank, and the
    last one is the rank of omega on W, at least 2 dim W - ambient with
    equality exactly when W contains W-perp: a special sample can only
    make W look coisotropic, so the kept sample is the most generic one
    seen, whether or not it agrees.  A broken model, a degenerate omega
    among its faults, raises ``InconsistentRealization``.
    """
    predicted = predicted_coisotropy(r.verdict)
    best = _check_at(r, seed)
    for attempt in range(1, _MAX_ATTEMPTS):
        if not disagreements(best, predicted):
            break
        rep = _check_at(r, seed + attempt)
        if _genericity(rep) > _genericity(best):
            best = rep
    return best
