"""Explicit exact-rational matrix models of slices and their symmetries.

A realization packages, for one concrete nilpotent: the ambient matrix
Lie algebra g (all of gl, or for a bilinear form M the kernel of the form
map X -> X^T M + M X, ``_form_rows``, which also checks that e, f, h and
q preserve M), an sl2-triple (e, h, f) through the nilpotent, a
basis of the centralizer z(f) (so the slice is e + span of it), and a
basis of the reductive symmetry algebra q, the centralizer of the triple
(traceless for gl).  g, z(f) and q are each found by an exact kernel,
z(f) inside g and q inside z(f), then cross-checked against the
combinatorial dimension formulas.  The bases are held once, as
flattened n x n sparse rows; e, f, h and the form, which act on them,
are matrices.  A realization also carries the classifier's verdict on
its orbit, the prediction its samples are checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import classifier, liealg
from .exactlinalg import RatMatrix, Row, Subspace, _clean, _entry, ad_rows, bracket, kernel
from .liealg import AlgebraFamily, OrbitDatum
from .partitions import Partition, multiplicities


class RealizationError(ValueError):
    pass


class InconsistentRealization(RealizationError):
    """A built matrix model failed one of its own cross-checks."""


# Largest matrix size classical_triple builds.  `verify`, whole process on a
# 2-core x86-64 box with CPython 3.11, two runs each, took 0.3 / 0.4-0.6 /
# 0.7-0.9 / 1.2-1.3 s for the zero orbit of gl(n) at n = 9 / 10 / 11 / 12,
# the costliest type of gl(12), and 0.2 / 0.4-0.5 / 0.7 / 1.0 s for the
# minimal orbit (2, 1, ..., 1), the next costliest.  Raise the cap only
# after timing the costliest type of each new size.
MAX_REALIZATION_SIZE = 12


@dataclass
class MatrixRealization:
    """The triple and form as matrices; the g, z(f) and q bases as flattened sparse rows."""
    label: str
    verdict: classifier.Verdict      # the classifier's verdict on the modeled orbit
    e: RatMatrix
    f: RatMatrix
    h: RatMatrix
    g_rows: list[Row]
    zf_rows: list[Row]
    q_rows: list[Row]
    gram: RatMatrix | None = None    # bilinear form cutting out g, None for gl
    _zf: Subspace | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def orbit(self) -> OrbitDatum:
        """The modeled Jordan type and its slice numbers."""
        return self.verdict.orbit

    @property
    def family(self) -> AlgebraFamily:
        return self.orbit.family

    @property
    def jordan_type(self) -> Partition:
        return self.orbit.jordan_type

    @property
    def dim_g(self) -> int:
        return len(self.g_rows)

    @property
    def dim_zf(self) -> int:
        return len(self.zf_rows)

    @property
    def dim_q(self) -> int:
        return len(self.q_rows)

    def zf_subspace(self) -> Subspace:
        """z(f) as a subspace of the flattened matrix space, built once."""
        if self._zf is None:
            self._zf = Subspace(self.family.size ** 2, self.zf_rows, check=False)
        return self._zf


def _form_rows(gram: RatMatrix, rows: Sequence[Row]) -> list[Row]:
    """The flattened X^T M + M X, M = gram, for each flattened n x n sparse row X.

    This is the package's one loop for the form map; g is its kernel.  M
    is transposed once per call; then an entry v of X at (k, l) adds
    v M_kb at (l, b), from X^T M, and M_ak v at (a, l), from M X.
    """
    n = gram.rows
    m_rows, m_cols = gram.entries, gram.transpose().entries
    out = []
    for row in rows:
        acc: Row = {}
        for c, v in row.items():
            k, l = divmod(c, n)
            for b, y in m_rows[k].items():
                key = l * n + b
                acc[key] = acc.get(key, 0) + v * y
            for a, y in m_cols[k].items():
                key = a * n + l
                acc[key] = acc.get(key, 0) + y * v
        out.append(_clean(acc))
    return out


def build_algebra(n: int, gram: RatMatrix | None) -> list[Row]:
    """Basis of {X : X^T M + M X = 0} as flattened rows, all of gl(n) when gram is None.

    The basis is the kernel of ``_form_rows`` on the n^2 unit matrices
    E_ij, the matrix space's standard basis.
    """
    units = [{c: 1} for c in range(n * n)]
    if gram is None:
        return units
    if gram.rows != n or gram.cols != n:
        raise RealizationError("gram matrix of wrong size")
    gt = gram.transpose()
    if gt != gram and gt != gram.scale(-1):
        raise RealizationError("gram must be symmetric or antisymmetric")
    if gram.rank() != n:
        raise RealizationError("degenerate gram matrix")
    return kernel(RatMatrix(_form_rows(gram, units), n * n).transpose()).rows


def _ad_kernel_in(basis: list[Row], op: RatMatrix, traceless: bool = False) -> list[Row]:
    """Basis of {X in span(basis) : [op, X] = 0}, and tr X = 0 if traceless.

    basis and the result are flattened rows.  The trace, summed at each
    row's diagonal positions i * (n + 1), is one more constraint row of
    the same kernel.  Each result row is a combination of the basis rows
    with coefficients from the kernel, all from one product.
    """
    n = op.rows
    width = n * n + 1 if traceless else n * n
    cols = ad_rows(op, basis)
    if traceless:
        for col, b in zip(cols, basis):
            if t := _entry(sum(x for c, x in b.items() if c % (n + 1) == 0)):
                col[n * n] = t
    ker = kernel(RatMatrix(cols, width).transpose())
    if not ker.dim:
        return []
    return (ker.matrix() @ RatMatrix(basis, n * n)).entries


def _sl2_on_jordan_block(m: int) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """The standard triple on an m-dimensional irreducible module.

    e is the shift (Jordan block), h is diagonal with weights m+1-2i on
    the i-th basis vector, and f carries the coefficients i(m-i).
    """
    e = RatMatrix.from_entries(m, m, {(i, i + 1): 1 for i in range(m - 1)})
    h = RatMatrix.from_entries(m, m, {(i, i): m - 1 - 2 * i for i in range(m)})
    f = RatMatrix.from_entries(m, m, {(i, i - 1): i * (m - i) for i in range(1, m)})
    return e, f, h


def invariant_form_on_block(m: int) -> RatMatrix:
    """The unique triple-invariant nondegenerate form on the m-block.

    Unique up to scale; normalized so the (1, m) entry is 1, it is the
    antidiagonal form B[i][m-1-i] = (-1)^i (0-indexed).  Symmetric for
    odd m, antisymmetric for even m.
    """
    form = RatMatrix.from_entries(m, m, {(i, m - 1 - i): (-1) ** i for i in range(m)})
    sym = form.transpose() == form
    if sym != (m % 2 == 1):
        raise InconsistentRealization("invariant form has the wrong symmetry")
    if any(_form_rows(form, [x.flat_row() for x in _sl2_on_jordan_block(m)])):
        raise InconsistentRealization(f"the {m}-block triple does not preserve its form")
    return form


def _standard_symplectic(k: int) -> RatMatrix:
    if k % 2:
        raise RealizationError("symplectic complement needs even dimension")
    half = k // 2
    entries = {}
    for i in range(half):
        entries[i, half + i] = 1
        entries[half + i, i] = -1
    return RatMatrix.from_entries(k, k, entries)


def _kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product a (x) b, with the index of a varying slowest."""
    entries = {}
    for ia, arow in enumerate(a.entries):
        for ja, x in arow.items():
            for ib, brow in enumerate(b.entries):
                for jb, y in brow.items():
                    entries[ia * b.rows + ib, ja * b.cols + jb] = x * y
    return RatMatrix.from_entries(a.rows * b.rows, a.cols * b.cols, entries)


def _direct_sum(blocks: list[RatMatrix]) -> RatMatrix:
    n = sum(b.rows for b in blocks)
    entries = {}
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            for j, x in row.items():
                entries[offset + i, offset + j] = x
        offset += b.rows
    return RatMatrix.from_entries(n, n, entries)


def classical_triple(family: AlgebraFamily, p: Partition) -> MatrixRealization:
    """Realization of a nilpotent of any valid Jordan type in gl, sp or so.

    The standard construction: for each part i of multiplicity d_i, in
    decreasing order, the module is V_i (x) M_i with V_i the irreducible
    i-dimensional sl2-module and M_i a d_i-dimensional multiplicity
    space, laid out as d_i consecutive i-blocks.  The triple acts on V_i.
    For sp and so the form is B_M (x) (invariant form on V_i), where B_M
    is the identity when the symmetry of V_i (symmetric for odd i) matches
    the ambient form and the standard symplectic form when it does not.
    z(f) is the kernel of ad f on g.  The symmetry algebra q is the
    centralizer of the triple, the intersection of z(e) and z(f), found
    as the kernel of ad e on z(f); for gl the scalars act trivially, so q
    is the traceless part, with the trace one more row of that kernel.
    It comes out as 1 (x) g(M_i, B_M) summed over the parts: Sp(d_i) or
    SO(d_i) factors, or gl(d_i) for gl.
    """
    n = p.n
    label = f"{family.kind.lower()}{n}-{'.'.join(map(str, p.parts))}"
    try:
        o = liealg.orbit_datum(family, p)
    except ValueError as exc:
        raise RealizationError(str(exc))
    if n > MAX_REALIZATION_SIZE:
        raise RealizationError(f"matrix realizations are capped at size "
                               f"{MAX_REALIZATION_SIZE}, {family} has size {n}")

    # (part size, multiplicity, form on the multiplicity space or None), from
    # the largest part down.  The centralizer's factors, one per distinct
    # part from the smallest up, name the forms.
    blocks: list[tuple[int, int, RatMatrix | None]] = []
    for (i, d), factor in zip(multiplicities(p).items(),
                              reversed(o.centralizer.factors), strict=True):
        if factor.kind == "GL":
            form_m = None
        elif factor.kind == "SO":
            form_m = RatMatrix.identity(d)
        else:
            form_m = _standard_symplectic(d)
        blocks.append((i, d, form_m))

    sl2 = {i: _sl2_on_jordan_block(i) for i, _, _ in blocks}
    e, f, h = (_direct_sum([_kron(RatMatrix.identity(d), sl2[i][t])
                            for i, d, _ in blocks]) for t in range(3))
    if bracket(e, f) != h or bracket(h, e) != e.scale(2) or bracket(h, f) != f.scale(-2):
        raise InconsistentRealization(f"{label}: triple relations fail")
    gram = None
    if family.kind != "GL":
        gram = _direct_sum([_kron(form_m, invariant_form_on_block(i))
                            for i, _, form_m in blocks])
        if any(_form_rows(gram, [x.flat_row() for x in (e, f, h)])):
            raise InconsistentRealization(f"{label}: triple does not preserve the form")
    g_rows = build_algebra(n, gram)
    if len(g_rows) != family.dim:
        raise InconsistentRealization(f"{label}: algebra basis has the wrong dimension")

    zf_rows = _ad_kernel_in(g_rows, f)
    if len(zf_rows) != o.slice_dim:
        raise InconsistentRealization(
            f"{label}: dim z(f) = {len(zf_rows)}, expected {o.slice_dim}")
    q_rows = _ad_kernel_in(zf_rows, e, traceless=family.kind == "GL")
    if any(ad_rows(e, q_rows)) or any(ad_rows(f, q_rows)):
        raise InconsistentRealization(f"{label}: q element fails to centralize e, f")
    if gram is not None and any(_form_rows(gram, q_rows)):
        raise InconsistentRealization(f"{label}: q element does not preserve the form")
    expected_q = o.effective_centralizer.dim
    if len(q_rows) != expected_q:
        raise InconsistentRealization(
            f"{label}: dim q = {len(q_rows)}, expected {expected_q}")
    return MatrixRealization(label=label, verdict=classifier.classify(o), e=e, f=f, h=h,
                             g_rows=g_rows, zf_rows=zf_rows, q_rows=q_rows, gram=gram)


def sp6_q_cartan() -> RatMatrix:
    """Cartan element of the embedded sl2 symmetry of the (3,3) slice."""
    return RatMatrix.from_entries(6, 6, {(i, i): 1 if i < 3 else -1 for i in range(6)})


def weight_space_dims(r: MatrixRealization, cartan: RatMatrix,
                      weights: tuple[int, ...]) -> dict[int, int]:
    """Dimensions of ad(cartan)-eigenspaces inside z(f).

    The listed weights must exhaust z(f); raises otherwise.
    """
    zf = r.zf_subspace()
    ad = {}  # matrix of ad(cartan) on z(f), in zf coordinates
    for t, col in enumerate(ad_rows(cartan, r.zf_rows)):
        coords = zf.coords(col)
        if coords is None:
            raise RealizationError("ad(cartan) does not preserve z(f)")
        ad.update(((s, t), x) for s, x in coords.items())
    dims: dict[int, int] = {}
    for w in weights:
        shifted = dict(ad)
        for i in range(r.dim_zf):
            shifted[i, i] = shifted.get((i, i), 0) - w
        dims[w] = kernel(RatMatrix.from_entries(r.dim_zf, r.dim_zf, shifted)).dim
    if sum(dims.values()) != r.dim_zf:
        raise RealizationError("weights do not exhaust z(f)")
    return dims


def build_case(label: str) -> MatrixRealization:
    """Build a realization from a case label.

    Labels are glN-hookK / spN-hookK / soN-hookK for the hook (N-K, 1^K),
    which needs N - K >= 2 (at N - K = 1 it is the zero orbit 1^N),
    glN-a.b.c / spN-a.b.c / soN-a.b.c for a general Jordan type, and
    sp6-33, an alias of sp6-3.3.  The realization keeps the given label.
    """
    m_ = re.fullmatch(r"(gl|sp|so)(\d+)-(?:hook(\d+)|(\d+(?:\.\d+)*))",
                      "sp6-3.3" if label == "sp6-33" else label)
    if m_ is None:
        raise RealizationError(f"unknown case label: {label!r}")
    kind, size = m_.group(1), int(m_.group(2))
    if m_.group(3) is not None:
        k = int(m_.group(3))
        if size - k < 2:
            raise RealizationError(f"case {label!r}: a hook (N-K, 1^K) needs N - K >= 2, "
                                   f"got N = {size}, K = {k}")
        parts = (size - k,) + (1,) * k
    else:
        parts = tuple(int(x) for x in m_.group(4).split("."))
    try:
        family = {"gl": liealg.gl, "sp": liealg.sp, "so": liealg.so}[kind](size)
        p = Partition(parts)
    except ValueError as exc:
        raise RealizationError(f"case {label!r}: {exc}")
    return replace(classical_triple(family, p), label=label)
