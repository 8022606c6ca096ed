"""Exact rational sparse linear algebra.

Everything here is exact arithmetic over the rationals, so rank and
kernel results carry no tolerance, and downstream verdicts that hinge
on a rank computation are certificate grade.  The matrices of this
project are mostly zero with small integer entries, so a matrix keeps
only its nonzero entries: one dict per row, column -> value.  An entry
is a Python ``int``, or a ``fractions.Fraction`` whose denominator is
not 1; every operation keeps that form, and every division goes through
``Fraction``.  Products, sums, trace pairings and eliminations touch
only the nonzero entries.  ``ad_rows`` is the one commutator loop: it
maps a whole basis of flattened matrices Y to the flattened [op, Y], indexing
op by column once, with no intermediate product and no matrix built per
element; ``bracket`` is ``ad_rows`` on a single element.
Elimination takes rows sparsest first, which keeps fill-in down; its
results do not depend on the row order, because the reduced row echelon
form of a span is unique.

Vectors (flattened matrices, subspace bases, kernel bases) are sparse
rows of the same form: a dict, column -> nonzero entry.  A matrix
model's bases are such rows, n x n matrices flattened row-major, which
``ad_rows`` and ``trace_form`` take as they are.  Dense forms appear
only at the public edges: ``RatMatrix.data``, a copy, and
``Subspace.basis``, a view built on first read.  A ``Subspace`` method
that takes a vector takes either form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Entry = int | Fraction
Vector = tuple[Entry, ...]
Row = dict[int, Entry]


def _entry(x) -> Entry:
    """x as an exact entry: an int, or a Fraction that is not an integer."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _clean(acc: Row) -> Row:
    """acc without its zeros, integral Fractions turned into ints."""
    return {j: (x if x.__class__ is int or x.denominator != 1 else x.numerator)
            for j, x in acc.items() if x}


def _axpy(v: Row, a: Entry, w: Row) -> None:
    """v += a * w in place, keeping v free of zeros."""
    for j, x in w.items():
        y = v.get(j, 0) + a * x
        if y:
            v[j] = y if y.__class__ is int or y.denominator != 1 else y.numerator
        else:
            del v[j]


def _sparse(vec: Sequence) -> Row:
    """The nonzero entries of a dense vector, by index."""
    out = {}
    for j, x in enumerate(vec):
        if x:
            x = _entry(x)
            if x:
                out[j] = x
    return out


def _dense(row: Row, n: int) -> Vector:
    out: list[Entry] = [0] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _as_row(vec: Row | Sequence, n: int) -> Row:
    """vec as a sparse row of length n; a dict is taken to be one already.

    A sparse row holds nonzero entries in the form ``RatMatrix`` keeps
    them.  It is shared, not copied: nothing here writes to a row it was
    given.
    """
    if vec.__class__ is dict:
        if vec and (min(vec) < 0 or max(vec) >= n):
            raise ValueError("ambient dimension mismatch")
        return vec
    if len(vec) != n:
        raise ValueError("ambient dimension mismatch")
    return _sparse(vec)


class RatMatrix:
    """A rows x cols matrix with exact rational entries, stored sparsely.

    ``entries[i]`` maps column -> nonzero entry of row i.  Matrices are
    treated as immutable: every operation returns a new matrix.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: Iterable[Iterable]):
        dense = [list(row) for row in data]
        self.rows = len(dense)
        self.cols = len(dense[0]) if dense else 0
        for row in dense:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.entries: list[Row] = [_sparse(row) for row in dense]

    @classmethod
    def _wrap(cls, entries: list[Row], rows: int, cols: int) -> "RatMatrix":
        m = object.__new__(cls)
        m.entries, m.rows, m.cols = entries, rows, cols
        return m

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     entries: Mapping[tuple[int, int], object]) -> "RatMatrix":
        """The matrix with the given (row, column) -> value entries, else zero."""
        out: list[Row] = [{} for _ in range(rows)]
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            x = _entry(x)
            if x:
                out[i][j] = x
        return cls._wrap(out, rows, cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Row], cols: int) -> "RatMatrix":
        """The matrix whose row i is the sparse row rows[i], shared, not copied."""
        return cls._wrap([_as_row(row, cols) for row in rows], len(rows), cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._wrap([{i: 1} for i in range(n)], n, n)

    @classmethod
    def from_flat_row(cls, row: Row, rows: int, cols: int) -> "RatMatrix":
        """The rows x cols matrix whose row-major flattening is the sparse row."""
        out: list[Row] = [{} for _ in range(rows)]
        for c, x in _as_row(row, rows * cols).items():
            i, j = divmod(c, cols)
            out[i][j] = x
        return cls._wrap(out, rows, cols)

    @property
    def data(self) -> list[list[Entry]]:
        """A dense copy of the entries; writing to it does not change the matrix."""
        cols = self.cols
        return [[row.get(j, 0) for j in range(cols)] for row in self.entries]

    def __getitem__(self, ij: tuple[int, int]) -> Entry:
        i, j = ij
        return self.entries[i].get(j, 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(1, other)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(-1, other)

    def _plus(self, c: int, other: "RatMatrix") -> "RatMatrix":
        """self + c * other."""
        self._same_shape(other)
        out = []
        for r1, r2 in zip(self.entries, other.entries):
            acc = dict(r1)
            _axpy(acc, c, r2)
            out.append(acc)
        return RatMatrix._wrap(out, self.rows, self.cols)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._wrap([{j: -x for j, x in row.items()} for row in self.entries],
                               self.rows, self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        b = other.entries
        out = []
        for arow in self.entries:
            acc: Row = {}
            for k, a in arow.items():
                for j, x in b[k].items():
                    acc[j] = acc.get(j, 0) + a * x
            out.append(_clean(acc))
        return RatMatrix._wrap(out, self.rows, other.cols)

    def scale(self, c) -> "RatMatrix":
        c = _entry(c)
        return RatMatrix._wrap([_clean({j: c * x for j, x in row.items()})
                                for row in self.entries], self.rows, self.cols)

    def transpose(self) -> "RatMatrix":
        out: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row.items():
                out[j][i] = x
        return RatMatrix._wrap(out, self.cols, self.rows)

    def flat_row(self) -> Row:
        """The row-major flattening as a sparse row: entry (i, j) at i * cols + j."""
        cols = self.cols
        return {i * cols + j: x for i, row in enumerate(self.entries)
                for j, x in row.items()}

    def is_zero(self) -> bool:
        return not any(self.entries)

    def rank(self) -> int:
        return len(_echelon(self.entries))

    def _same_shape(self, other: "RatMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"


# Column k -> the (row index, entry) pairs of a matrix's nonzero entries in
# column k, by increasing row index.
ColumnIndex = list[list[tuple[int, Entry]]]


def _column_index(m: RatMatrix) -> ColumnIndex:
    index: ColumnIndex = [[] for _ in range(m.cols)]
    for j, row in enumerate(m.entries):
        for k, val in row.items():
            index[k].append((j, val))
    return index


def _integer_row(row: Row) -> dict[int, int]:
    """A copy of row scaled by the common denominator of its entries."""
    dens = [x.denominator for x in row.values() if x.__class__ is not int]
    if not dens:
        return dict(row)
    m = lcm(*dens)
    return {j: x * m if x.__class__ is int else x.numerator * (m // x.denominator)
            for j, x in row.items()}


def _clear(v: dict[int, int], p: int, w: dict[int, int]) -> None:
    """v := w[p] * v - v[p] * w, divided by its content: column p of v cleared."""
    a, b = w[p], v[p]
    if a != 1:
        for j in v:
            v[j] *= a
    for j, x in w.items():
        y = v.get(j, 0) - b * x
        if y:
            v[j] = y
        else:
            del v[j]
    if v:
        g = gcd(*v.values())
        if g != 1:
            for j in v:
                v[j] //= g


def _echelon(rows: Iterable[Row]) -> dict[int, dict[int, int]]:
    """Fraction-free Gauss-Jordan elimination of sparse rows.

    Returns pivot column -> integer row, each row zero at every other
    pivot column and with its leftmost entry at its pivot; the input
    rows are not modified.  Rows are added one at a time, sparsest
    first (a stable sort by nonzero count): a dense row taken early
    fills in every later row it meets, a sparse one barely does.  A new
    row is cleared at the pivot columns it meets (clearing one never
    refills another), its leftmost remaining entry becomes a pivot, and
    that column is cleared from the earlier pivot rows.  Only integers
    are combined, and every combination is divided by its content, so
    no Fraction is built and entries stay small.

    The order changes only the work: each returned row is a multiple of
    a row of the reduced row echelon form of the span, which is unique,
    so ranks, kernels, spans and coordinates do not depend on it.
    """
    reduced: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        v = _integer_row(row)
        for p in [c for c in v if c in reduced]:
            _clear(v, p, reduced[p])
        if not v:
            continue
        c = min(v)
        for prow in reduced.values():
            if c in prow:
                _clear(prow, c, v)
        reduced[c] = v
    return reduced


def _rref(rows: Iterable[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows; returns (rows, pivot columns).

    Each row of ``_echelon`` divided by its pivot entry; sorted by pivot,
    these are the rows of the unique reduced row echelon form.
    """
    reduced = _echelon(rows)
    pivots = sorted(reduced)
    out = []
    for p in pivots:
        row = reduced[p]
        d = row[p]
        out.append(row if d == 1 else
                   {j: x // d if x % d == 0 else Fraction(x, d) for j, x in row.items()})
    return out, pivots


def rank_of_vectors(vecs: Sequence[Sequence]) -> int:
    return len(_echelon(_sparse(v) for v in vecs))


_P = (1 << 61) - 1    # a Mersenne prime


def rank_mod_p(rows: Iterable[Row]) -> int:
    """Rank mod p = 2^61 - 1 of sparse rows, each first scaled to integers.

    An independent check on an exact rank, never a replacement: a rank
    mod p is at most the rank r over Q, and falls short only when p
    divides every r x r minor.  The elimination is
    ``_echelon``'s, sparsest rows first and leftmost pivot, on residues:
    each pivot row is scaled to 1 at its pivot, so clearing needs no
    content division.
    """
    reduced: dict[int, Row] = {}
    for row in sorted(rows, key=len):
        v = {j: x for j, x in ((j, x % _P) for j, x in _integer_row(row).items()) if x}
        for p in [c for c in v if c in reduced]:
            b = v[p]
            for j, x in reduced[p].items():
                y = (v.get(j, 0) - b * x) % _P
                if y:
                    v[j] = y
                else:
                    del v[j]
        if not v:
            continue
        c = min(v)
        if v[c] != 1:
            inv = pow(v[c], -1, _P)
            v = {j: x * inv % _P for j, x in v.items()}
        for prow in reduced.values():
            b = prow.get(c)
            if b:
                for j, x in v.items():
                    y = (prow.get(j, 0) - b * x) % _P
                    if y:
                        prow[j] = y
                    else:
                        del prow[j]
        reduced[c] = v
    return len(reduced)


class Subspace:
    """A subspace of Q^ambient_dim, held as an independent basis of sparse rows.

    ``rows`` is the basis; ``basis`` is the same vectors as dense tuples,
    built on first read for callers outside the package.  With
    ``check=False`` the caller vouches that the basis is independent.
    The reduced row echelon form of the basis, which makes membership
    and containment reductions, is built on the first query and kept,
    together with the coordinates of each reduced row in the basis.
    """

    def __init__(self, ambient_dim: int, basis: Iterable[Row | Sequence],
                 check: bool = True):
        self.ambient_dim = ambient_dim
        self.rows: list[Row] = [_as_row(v, ambient_dim) for v in basis]
        # pivot column -> (reduced row, its coordinates in the basis)
        self._pivot_cache: dict[int, tuple[Row, Row]] | None = None
        if check and len(self._pivot_rows()) != len(self.rows):
            raise ValueError("basis vectors are dependent")

    @classmethod
    def span(cls, ambient_dim: int, vecs: Iterable[Row | Sequence]) -> "Subspace":
        """Subspace spanned by possibly dependent vectors."""
        rows, pivots = _rref(_as_row(v, ambient_dim) for v in vecs)
        sub = cls(ambient_dim, rows, check=False)
        sub._pivot_cache = {p: (r, {t: 1}) for t, (p, r) in enumerate(zip(pivots, rows))}
        return sub

    @cached_property
    def basis(self) -> list[Vector]:
        """The basis as dense tuples."""
        return [_dense(r, self.ambient_dim) for r in self.rows]

    def matrix(self) -> RatMatrix:
        """The basis stacked as the rows of a dim x ambient_dim matrix."""
        return RatMatrix.from_rows(self.rows, self.ambient_dim)

    def _pivot_rows(self) -> dict[int, tuple[Row, Row]]:
        if self._pivot_cache is None:
            amb = self.ambient_dim
            augmented = []
            for t, v in enumerate(self.rows):
                row = dict(v)
                row[amb + t] = 1
                augmented.append(row)
            rows, pivots = _rref(augmented)
            # A pivot at or past amb marks a dependent basis; those rows
            # carry no reduced vector.
            self._pivot_cache = {
                p: ({c: x for c, x in r.items() if c < amb},
                    {c - amb: x for c, x in r.items() if c >= amb})
                for p, r in zip(pivots, rows) if p < amb}
        return self._pivot_cache

    def _residual(self, v: Row) -> Row:
        """What is left of v after reduction by the pivot rows; empty iff v is inside."""
        echelon = self._pivot_rows()
        v = dict(v)
        for p in [c for c in v if c in echelon]:
            _axpy(v, -v[p], echelon[p][0])
        return v

    @property
    def dim(self) -> int:
        return len(self.rows)

    def member(self, vec: Row | Sequence) -> bool:
        return not self._residual(_as_row(vec, self.ambient_dim))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(not self._residual(v) for v in other.rows)

    def intersection_dim(self, other: "Subspace") -> int:
        """Dimension of the intersection, from one fraction-free elimination.

        The reduced rows of self and the basis of other are eliminated
        together; the intersection has dimension dim + other.dim - rank.
        It equals other.dim exactly when self contains other.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        stacked = [r for r, _ in self._pivot_rows().values()]
        joint = len(_echelon(stacked + other.rows))
        return self.dim + other.dim - joint

    def coords(self, vec: Row | Sequence) -> Row | list[Entry] | None:
        """Coefficients of vec in the stored (original) basis, or None.

        For a sparse row they come as a sparse row, basis index ->
        coefficient; for a dense vector, as a dense list.
        """
        v = _as_row(vec, self.ambient_dim)
        if self._residual(v):
            return None  # vec outside the span
        # Reduced rows are 1 at their own pivot and 0 at the others, so vec
        # is the sum of vec[p] times the reduced row with pivot p.
        sol: Row = {}
        for p, (_, coords) in self._pivot_rows().items():
            c = v.get(p)
            if c:
                _axpy(sol, c, coords)
        if v is vec:
            return sol
        return [sol.get(t, 0) for t in range(len(self.rows))]


def kernel(a: RatMatrix) -> Subspace:
    """Basis of the right null space of a; dim = cols - rank, exactly.

    The basis is read off the reduced row echelon form: one vector per
    free column, in increasing order, 1 there, 0 at the other free
    columns, and minus that column's entry of each reduced row at the
    row's pivot.  A reduced row is 0 at every other pivot column, so each
    of its entries off its pivot lands in the vector of a free column.
    """
    rows, pivots = _rref(a.entries)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(a.cols) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return Subspace(a.cols, basis.values(), check=False)


def bracket(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Matrix commutator [x, y] = xy - yx, as ``ad_rows`` of the one element y."""
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise ValueError("bracket needs square matrices of equal size")
    return RatMatrix.from_flat_row(ad_rows(x, [y.flat_row()])[0], x.rows, x.cols)


def ad_rows(op: RatMatrix, rows: Sequence[Row]) -> list[Row]:
    """The flattened [op, Y] for each flattened n x n sparse row Y.

    This is the package's one commutator loop; ``bracket`` calls it.  No
    matrix is built for Y or its image.  Op is indexed by column once
    per call; then an entry y at (k, l) of Y adds y * op_ik at (i, l)
    (from op Y) and -y * op_lj at (k, j) (from Y op).
    """
    n = op.rows
    if op.cols != n:
        raise ValueError("ad_rows needs a square matrix")
    entries = op.entries
    by_col = _column_index(op)
    out = []
    for row in rows:
        acc: Row = {}
        for c, y in _as_row(row, n * n).items():
            k, l = divmod(c, n)
            for i, a in by_col[k]:
                key = i * n + l
                acc[key] = acc.get(key, 0) + a * y
            base = k * n
            for j, b in entries[l].items():
                key = base + j
                acc[key] = acc.get(key, 0) - y * b
        out.append(_clean(acc))
    return out


def trace_form(x: Row, y: Row, n: int) -> Entry:
    """The invariant pairing tr(XY) = sum of X_ik Y_ki, of flattened n x n sparse rows."""
    x, y = _as_row(x, n * n), _as_row(y, n * n)
    total: Entry = 0
    for c, a in x.items():
        i, k = divmod(c, n)
        b = y.get(k * n + i)
        if b:
            total += a * b
    return _entry(total)
