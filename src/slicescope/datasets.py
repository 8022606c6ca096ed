"""Exceptional-algebra nilpotent orbit tables.

Tables are TSV files with columns label, dim_orbit, centralizer,
component_group.  The centralizer column is a '+'-separated product of
factor tokens: simple types with rank ("A1", "B2", ...), classical names
with matrix size ("Sp4", "SO7", "GL2"), tori ("T1"), exceptional labels
("G2"), or "0" for trivial.  Only the G2 table ships with the package;
larger tables are user-supplied in the same format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .liealg import AlgebraFamily, ReductiveProduct, TRIVIAL_PRODUCT, exceptional


class TableError(ValueError):
    pass


_FACTOR_RE = re.compile(r"(G2|F4|E6|E7|E8)|(SO|GL|Sp|[ABCDT])(\d*)")


def parse_centralizer(text: str) -> ReductiveProduct:
    text = text.strip()
    if text in ("0", "1", "-"):
        return TRIVIAL_PRODUCT
    factors = []
    for token in text.split("+"):
        token = token.strip()
        m = _FACTOR_RE.fullmatch(token)
        if not m:
            raise TableError(f"bad centralizer factor: {token!r}")
        exceptional, kind, num = m.groups()
        if exceptional:
            factors.append(AlgebraFamily(exceptional))
            continue
        if not num:
            raise TableError(f"factor {token!r} needs a size")
        try:
            factors.append(AlgebraFamily(kind, int(num)))
        except ValueError as exc:
            raise TableError(f"bad centralizer factor {token!r}: {exc}") from None
    return ReductiveProduct(tuple(factors))


@dataclass(frozen=True)
class OrbitRow:
    label: str
    orbit_dim: int
    centralizer: ReductiveProduct
    component_group: str = "1"


@dataclass(frozen=True)
class ExceptionalOrbitTable:
    algebra: AlgebraFamily
    rows: tuple[OrbitRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise TableError("empty orbit table")
        g = self.algebra
        labels = set()
        prev = -1
        for i, row in enumerate(self.rows, start=1):
            where = f"row {i} ({row.label})"
            if row.label in labels:
                raise TableError(f"{where}: duplicate label")
            labels.add(row.label)
            if row.orbit_dim % 2:
                raise TableError(f"{where}: orbit dimension must be even")
            if not 0 <= row.orbit_dim <= g.dim - g.rank:
                raise TableError(f"{where}: orbit dimension out of range for {g}")
            if row.orbit_dim < prev:
                raise TableError(f"{where}: rows must be sorted by orbit dimension")
            prev = row.orbit_dim
            q = row.centralizer
            if row.orbit_dim == g.dim - g.rank and q.dim != 0:
                raise TableError(f"{where}: regular orbit needs a trivial centralizer")
            if q.dim > g.dim - row.orbit_dim or q.rank > g.rank:
                raise TableError(f"{where}: centralizer {q} does not fit in "
                                 f"the centralizer of e in {g}")
            if row.orbit_dim == 0 and (q.dim, q.rank) != (g.dim, g.rank):
                raise TableError(f"{where}: zero orbit needs all of {g} as its centralizer")


def _parse_rows(lines, algebra: AlgebraFamily, source: str) -> ExceptionalOrbitTable:
    rows = []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if not header_seen and cells[0].strip().lower() == "label":
            header_seen = True
            continue
        if len(cells) < 3:
            raise TableError(f"{source}:{lineno}: expected at least 3 columns")
        label = cells[0].strip()
        try:
            dim_orbit = int(cells[1])
        except ValueError:
            raise TableError(f"{source}:{lineno}: bad orbit dimension {cells[1]!r}")
        try:
            centralizer = parse_centralizer(cells[2])
        except TableError as exc:
            raise TableError(f"{source}:{lineno}: {exc}") from None
        component = cells[3].strip() if len(cells) > 3 and cells[3].strip() else "1"
        rows.append(OrbitRow(label, dim_orbit, centralizer, component))
    try:
        return ExceptionalOrbitTable(algebra, tuple(rows))
    except TableError as exc:
        raise TableError(f"{source}: {exc}") from None


def _decoded_lines(data: bytes, source: str):
    """The lines of a UTF-8 file, each decoded alone, so a bad byte is named by line.

    ``bytes.splitlines`` splits where text-mode reading does: at \\n, \\r
    and \\r\\n.
    """
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TableError(f"{source}:{lineno}: not UTF-8: {exc}") from None


def load_table(path: str | Path, algebra: AlgebraFamily) -> ExceptionalOrbitTable:
    path = Path(path)
    return _parse_rows(_decoded_lines(path.read_bytes(), str(path)), algebra, str(path))


def builtin_g2() -> ExceptionalOrbitTable:
    """The shipped orbit table for the 14-dimensional exceptional algebra."""
    text = resources.files("slicescope.data").joinpath("g2.tsv").read_text("utf-8")
    return _parse_rows(text.splitlines(), exceptional("G2"), "builtin g2.tsv")
