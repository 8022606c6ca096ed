"""Experimental verification of slice geometry at sampled points.

For a realization, samples a point x = e + (small integer combination of
the z(f) basis) of the slice and checks, in exact arithmetic, whether
the tangent space W of the symmetry orbit through x contains its
symplectic orthogonal (coisotropy), with the dimension of that
orthogonal and the stabilizer dimension.  A sample, a ``SlicePoint``,
stores only its coefficients, so it lies on the slice by construction.
Sampling can only support or falsify generic-point claims, never prove
them.

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
from .exactlinalg import (ColumnIndex, RatMatrix, Row, Subspace, _axpy, _clean,
                          _column_index, _integer_row, _rref, ad_rows, trace_form)
from .realizations import InconsistentRealization, MatrixRealization

_BOX = 5          # sample coefficients from [-BOX, BOX]
_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class SlicePoint:
    """x = e + sum of c_i z_i; one coefficient per z(f) basis element, so x is on the slice.

    x and the rotations [x, c], c in q, are formed on first read and kept.
    x is summed as one flattened sparse row, e's entries plus c_i times
    those of each z_i with c_i nonzero, and made a matrix once.
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
        for c, z in zip(self.coefficients, r.zf_basis):
            if c:
                _axpy(x, c, z.flat_row())
        return RatMatrix.from_flat_row(x, n, n)

    @cached_property
    def rotations(self) -> list[Row]:
        """The flattened [x, c] for each c in the q basis, in order."""
        return ad_rows(self.x, [c.flat_row() for c in self.realization.q_basis])


def slice_point(r: MatrixRealization, seed: int) -> SlicePoint:
    rng = random.Random(seed)
    return SlicePoint(r, tuple(rng.randint(-_BOX, _BOX) for _ in r.zf_basis))


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
    transposes, is read straight off the flattened g rows that ad_rows
    takes, with no transpose formed: its row kn + l lists, by
    increasing i, the (i, b_i[l][k]) with b_i[l][k] nonzero.  The block
    is antisymmetric, so only its entries with j > i are summed
    (``_antisymmetric_product``) and the rest are their negatives.

    The g x z(f) block pairs z_j only with the b_i that g_cols lists at
    its support; every other pair has tr(z_j b_i) = 0 term by term.
    """
    r, x = pt.realization, pt.x
    dg, dz = r.dim_g, r.dim_zf
    n = x.rows
    flat_g = [b.flat_row() for b in r.g_basis]
    g_cols: ColumnIndex = [[] for _ in range(n * n)]
    for i, b in enumerate(flat_g):
        for c, val in b.items():
            l, k = divmod(c, n)
            g_cols[k * n + l].append((i, val))
    gram = _antisymmetric_product(ad_rows(x, flat_g), g_cols, dg + dz)
    for j, z in enumerate(r.zf_basis):
        for i in sorted({i for c in z.flat_row() for i, _ in g_cols[c]}):
            val = -trace_form(z, r.g_basis[i])
            if val:
                gram[i][dg + j] = val
                gram[dg + j][i] = -val
    return RatMatrix.from_rows(gram, dg + dz)


def orbit_tangent(pt: SlicePoint) -> Subspace:
    """Tangent space of the symmetry-group orbit at (1, x).

    In g + z(f) coordinates: all of g (left translations), plus the
    directions [c, x] for c in q (the slice rotations), taken as their
    negatives [x, c], which span the same space.  Each must land back in
    z(f); anything else means a broken realization.  The rotations have
    no g coordinates, so only their z(f) coordinates are eliminated: the
    basis is the dim g unit rows, then the reduced row echelon form of
    those coordinates shifted past g.
    """
    r = pt.realization
    dg = r.dim_g
    zf = r.zf_subspace()
    coords = []
    for col in pt.rotations:
        c = zf.coords(col)
        if c is None:
            raise InconsistentRealization("q direction leaves z(f): broken realization")
        coords.append(c)
    rows = [{i: 1} for i in range(dg)]
    rows += [{dg + t: v for t, v in row.items()} for row in _rref(coords)[0]]
    return Subspace(dg + r.dim_zf, rows, check=False)


def stabilizer_dim(pt: SlicePoint) -> int:
    """Dimension of {c in q : [c, x] = 0}: dim q minus the rank of c -> [c, x].

    The rank is taken of the n^2 x dim q matrix with the flattened
    brackets as columns: its short rows fill in less than dim q rows of
    length n^2 would.
    """
    r = pt.realization
    return r.dim_q - RatMatrix.from_rows(pt.rotations, r.family.size ** 2).transpose().rank()


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


def _radical_dim(m: RatMatrix, gram: RatMatrix) -> int:
    """dim of W meet W-perp, the radical of omega on W, for W = row space of m.

    The rows of m must be independent and gram must be antisymmetric.
    Each row of m is first scaled to integers, which changes neither W
    nor the rank below.  A vector m^T a of W lies in W-perp iff (m .
    gram . m^T) a = 0, and a -> m^T a is injective, so the radical has
    dimension dim W - rank(m . gram . m^T).  That restricted form is
    antisymmetric, so it is formed from its entries (i, j) with j > i
    alone (``_antisymmetric_product``).
    """
    m = RatMatrix.from_rows([_integer_row(row) for row in m.entries], m.cols)
    restricted = _antisymmetric_product((m @ gram).entries, _column_index(m), m.rows)
    return m.rows - RatMatrix.from_rows(restricted, m.rows).rank()


def _check_at(r: MatrixRealization, seed: int) -> CoisotropyReport:
    """Coisotropy report at one sampled point.

    omega is nondegenerate on G x S_e, a Whittaker reduction of T*G
    (Gan-Ginzburg, IMRN 2002), so its rank is computed only as a check
    on the model: a rank drop is a broken realization.  Hence dim W-perp
    = ambient - dim W, and containment is decided from the radical of
    omega on W (see ``_radical_dim``), not from a basis of W-perp: W
    contains W-perp iff the radical is all of W-perp.
    """
    pt = slice_point(r, seed)
    gram = omega_gram(pt)
    ambient, omega_rank = gram.rows, gram.rank()
    if omega_rank < ambient:
        raise InconsistentRealization(f"omega has rank {omega_rank} < dim_ambient {ambient}: "
                                      "broken realization")
    w = orbit_tangent(pt)
    # W's basis is the unit rows of g, then the rotation directions.  In
    # reverse, the restricted form's first columns are the rotation ones,
    # which vanish on the rotation rows (omega pairs no two z(f) vectors),
    # and elimination pivots on them first: it fills in far less.
    intersection = _radical_dim(RatMatrix.from_rows(w.rows[::-1], w.ambient_dim), gram)
    stabilizer = stabilizer_dim(pt)
    # W = g + [q, x], and c -> [c, x] on q has kernel the stabilizer, so two
    # eliminations must agree: dim W = dim g + dim q - dim stabilizer.
    if w.dim != r.dim_g + r.dim_q - stabilizer:
        raise InconsistentRealization(f"dim W = {w.dim}, but dim g + dim q - stabilizer = "
                                      f"{r.dim_g} + {r.dim_q} - {stabilizer}: broken realization")
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
