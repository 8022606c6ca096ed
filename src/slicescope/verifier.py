"""Experimental verification of slice geometry at sampled points.

For a realization, samples a point x = e + (small integer combination of
the z(f) basis) of the slice and checks, in exact arithmetic, whether
the tangent space W of the symmetry orbit through x contains its
symplectic orthogonal (coisotropy), with the dimension of that
orthogonal and the stabilizer dimension.  A sample, a ``SlicePoint``,
stores only its coefficients, so it lies on the slice by construction.
A record is that of one sample, which can only support or falsify a
generic-point claim; the squeeze below can also prove containment at
the generic point, which the tests check and no record shows.

The symplectic form on g + z(f) is nondegenerate at every point of a
sound model: G x S_e is a Whittaker reduction of T*G (Gan-Ginzburg,
IMRN 2002).  Its rank is still computed, and a rank drop raises
``InconsistentRealization``, as every other failed cross-check of the
model does.

Every sample is decided by one identity, the moment-map lemma
(Guillemin-Sternberg 1984) in this model's coordinates.  At (1, x), W
is g plus the rotations [x, c], c in q, which lie in z(f).  The form is
(x, [xi, eta]) + (u, eta) - (v, xi) on (xi, u), (eta, v), with (-,-)
the trace pairing, nondegenerate on g.  So (eta, v) is orthogonal to
all of g exactly when v = [eta, x] = -[x, eta], and to the rotation
(0, [x, c]) exactly when ([x, c], eta) = 0.  Such a vector lies in W
exactly when [x, eta] is a rotation [x, c], that is, eta in z_g(x) + q;
write eta = xi + c with xi in z_g(x).  Then ([x, c'], xi) = -(c', [x,
xi]) = 0, so the last condition asks only that c lie in ker Q, Q_st =
tr([x, q_s] q_t).  Hence xi -> (xi, -[x, xi]) maps z_g(x) + ker Q one
to one onto W meet W-perp.  z_g(x) meets ker Q in z_q(x), the
stabilizer, of dimension s = dim q minus the rank of the rotations, so

    dim(W meet W-perp) = dim z_g(x) + dim q - rank Q - s.

rank Q is exact, since a rank mod p would overstate the lower end
below.  The other terms are first bounded from one side.
r1, the rank mod p of the Krylov vectors x^j v, v = (1, 2, ..., n),
over the powers x^j in g (every j < n for gl, odd j < n for sp and so),
is at most dim z_g(x): the powers commute with x, and a rank mod p can
only fall short.  k, the rank mod p of the rotations, is at most their
rank, so s is at most dim q - k and dim W at least dim g + k.  So

    r1 + dim q - rank Q - (dim q - k) <= dim(W meet W-perp)
        <= dim W-perp = ambient - dim W <= ambient - dim g - k.

When the two ends meet, every step is an equality and every field of
the record is exact: dim W = dim g + k, W contains W-perp, and the
stabilizer is dim q - k.  dim z_g(x) is at least rk g, with equality
exactly at a regular x (Kostant 1963), where the Krylov vectors of a
cyclic v span that many dimensions; so on a hyperspherical type the
ends meet at a generic sample.  Q is the Kirillov form on q of y, the
trace-form projection of x to q, so ker Q = z_q(y), of dimension at
least rk q.  Where the ends meet with rk q in place of dim q - rank Q,
they meet at the generic point too, since r1 and k can only grow
there: that proves containment at the generic point, not only at the
sample.

Otherwise the identity is read with each term exact.  The rotations are
eliminated once, in z(f) coordinates: their rank gives dim W and s, and
is cross-checked against k.  dim z_g(x) is dim g minus the exact rank
of the Gram matrix's g x g block, the Kirillov form (x, [xi, eta]) of x
on g, whose kernel is z_g(x) since the trace pairing is nondegenerate
on g.  The exact record must lie within the two bounds: one outside
them, as when the lower end is above the upper one, is a broken model.

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
                          _integer_row, ad_rows, rank_mod_p, trace_form)
from .realizations import InconsistentRealization, MatrixRealization

_BOX = 5          # sample coefficients from [-BOX, BOX]
_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class SlicePoint:
    """x = e + sum of c_i z_i; one coefficient per z(f) basis element, so x is on the slice.

    x and the rotations [x, c], c in q, are formed on first read and kept.
    x is summed as one flattened sparse row, ``x_row``: e's entries plus
    c_i times the row z_i for each c_i nonzero; it is made a matrix once.
    """
    realization: MatrixRealization
    coefficients: tuple[int, ...]

    def __post_init__(self):
        dz = self.realization.dim_zf
        if len(self.coefficients) != dz:
            raise ValueError(f"{len(self.coefficients)} coefficients, dim z(f) is {dz}")

    @cached_property
    def x_row(self) -> Row:
        x = self.realization.e.flat_row()
        for c, z in zip(self.coefficients, self.realization.zf_rows):
            if c:
                _axpy(x, c, z)
        return x

    @cached_property
    def x(self) -> RatMatrix:
        n = self.realization.e.rows
        return RatMatrix.from_flat_row(self.x_row, n, n)

    @cached_property
    def rotations(self) -> list[Row]:
        """The flattened [x, c] for each c in the q basis, in order."""
        return ad_rows(self.x, self.realization.q_rows)

    @cached_property
    def rotation_rank(self) -> int:
        """k, the rank mod p of the rotations, at most their rank over Q.

        Taken of the n^2 x dim q matrix with the rotations as columns,
        whose short rows fill in less.
        """
        n = self.realization.e.rows
        return rank_mod_p(RatMatrix(self.rotations, n * n).transpose().entries)

    @cached_property
    def q_rank(self) -> int:
        """rank Q, exact: Q_st = tr([x, q_s] q_t), the Kirillov form of x on q.

        Q is antisymmetric for any x and q, so it is summed, like the slice
        form's g x g block, for t > s only, from the rotations and the
        column index of q's transposes.
        """
        r = self.realization
        q_cols = _transposed_index(r.q_rows, r.e.rows)
        return RatMatrix(_antisymmetric_product(self.rotations, q_cols, r.dim_q), r.dim_q).rank()

    @cached_property
    def echelon(self) -> list[dict[int, int]]:
        """The rotations' z(f) coordinates, eliminated once, by increasing pivot.

        These are ``_echelon``'s integer rows, each a multiple of a row of
        the reduced row echelon form.  Their number is the exact rank of
        the rotations, which gives dim W and s where the squeeze's ends do
        not meet.  A rotation outside z(f) means a broken realization.
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


def _transposed_index(rows: list[Row], n: int) -> ColumnIndex:
    """The column index of the transposes of flattened n x n rows b_i.

    Its row kn + l lists, by increasing i, the (i, b_i[l][k]) with
    b_i[l][k] nonzero, so a flattened a dotted with it gives tr(a b_i)
    for every i at once.
    """
    cols: ColumnIndex = [[] for _ in range(n * n)]
    for i, b in enumerate(rows):
        for c, val in b.items():
            l, k = divmod(c, n)
            cols[k * n + l].append((i, val))
    return cols


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
    transpose formed (``_transposed_index``).  The block is antisymmetric,
    so only its entries with j > i are summed (``_antisymmetric_product``)
    and the rest are their negatives.

    The g x z(f) block pairs z_j only with the b_i that g_cols lists at
    its support; every other pair has tr(z_j b_i) = 0 term by term.
    """
    r, x = pt.realization, pt.x
    dg, dz = r.dim_g, r.dim_zf
    n = x.rows
    g_cols = _transposed_index(r.g_rows, n)
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
    against their rank mod p, the point's ``rotation_rank``.  A rank mod
    p can only fall short of the exact one, so a rank above it is a
    broken model at once; one below it is recomputed exactly first.
    """
    r = pt.realization
    rank = len(pt.echelon)
    found = pt.rotation_rank
    if found < rank:
        found = RatMatrix(pt.rotations, r.family.size ** 2).rank()
    if found != rank:
        raise InconsistentRealization(
            f"the rotations have rank {found} in the matrix space but {rank} "
            "in z(f) coordinates: broken realization")
    return r.dim_q - rank


def krylov_rank(pt: SlicePoint) -> int:
    """r1, the rank mod p of the x^j v, v = (1, 2, ..., n), over the powers x^j in g.

    Those are every j < n for gl and the odd j < n for sp and so, where
    X^T M = -M X gives (X^j)^T M = (-1)^j M X^j.  The x^j commute
    with x, so r1 is at most dim z_g(x).  x is scaled to integers by one
    scalar, which scales each x^j v and leaves the rank as it is.
    """
    n = pt.realization.e.rows
    every = pt.realization.family.kind == "GL"
    x = _integer_row(pt.x_row)
    w: Row = {i: i + 1 for i in range(n)}
    vectors = []
    for j in range(n):
        if every or j % 2:
            vectors.append(w)
        acc: Row = {}
        for c, a in x.items():
            i, l = divmod(c, n)
            if l in w:
                acc[i] = acc.get(i, 0) + a * w[l]
        w = _clean(acc)
    return rank_mod_p(vectors)


def radical_bounds(pt: SlicePoint) -> tuple[int, int]:
    """(r1 + k - rank Q, ambient - dim g - k), the two ends of the squeeze.

    The first is at most dim(W meet W-perp), the second at least dim
    W-perp (the module docstring derives both).  The identity holds only
    if every rotation lies in z(f); one outside it, [f, [x, c]] nonzero,
    is a broken model.
    """
    r = pt.realization
    if any(ad_rows(r.f, pt.rotations)):
        raise InconsistentRealization("q direction leaves z(f): broken realization")
    k = pt.rotation_rank
    return krylov_rank(pt) + k - pt.q_rank, r.dim_zf - k


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


def _check_at(r: MatrixRealization, seed: int) -> CoisotropyReport:
    """Coisotropy report at one sampled point, by the moment-map identity.

    omega is nondegenerate on G x S_e, a Whittaker reduction of T*G
    (Gan-Ginzburg, IMRN 2002), so its rank is computed only as a check
    on the model: a rank drop is a broken realization.  Hence dim W-perp
    = ambient - dim W, and (the module docstring derives it)

        dim(W meet W-perp) = dim z_g(x) + dim q - rank Q - s.

    The squeeze (``radical_bounds``) bounds it first.  When the ends meet,
    dim W = dim g + k, W contains W-perp, and s = dim q - k.  Otherwise
    dim W and s come from the point's ``echelon``, dim z_g(x) from the
    rank of the Gram matrix's g x g block, and rank Q is the squeeze's;
    that record must lie within the bounds.
    """
    pt = slice_point(r, seed)
    gram = omega_gram(pt)
    ambient, omega_rank = gram.rows, gram.rank()
    if omega_rank < ambient:
        raise InconsistentRealization(f"omega has rank {omega_rank} < dim_ambient {ambient}: "
                                      "broken realization")
    lower, upper = radical_bounds(pt)
    if lower == upper:
        k = pt.rotation_rank
        dim_w, intersection, stabilizer = r.dim_g + k, upper, r.dim_q - k
    else:
        dg = r.dim_g
        dim_w = orbit_tangent(pt).dim
        stabilizer = stabilizer_dim(pt)
        kirillov = RatMatrix([{j: v for j, v in row.items() if j < dg}
                              for row in gram.entries[:dg]], dg)
        intersection = dg - kirillov.rank() + r.dim_q - pt.q_rank - stabilizer
        if not lower <= intersection <= ambient - dim_w <= upper:
            raise InconsistentRealization(
                f"dim(W meet W-perp) {intersection} and dim W-perp {ambient - dim_w} "
                f"break the bounds {lower} and {upper}: broken realization")
    dim_perp = ambient - dim_w
    return CoisotropyReport(
        case=r.label, seed=seed,
        dim_ambient=ambient,
        omega_rank=omega_rank,
        dim_W=dim_w,
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
