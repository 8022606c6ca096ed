import re
from pathlib import Path

import pytest

from slicescope import datasets
from slicescope.datasets import (ExceptionalOrbitTable, OrbitRow, TableError,
                                 builtin_g2, load_table, parse_centralizer)
from slicescope.liealg import exceptional


def test_parse_centralizer_tokens():
    q = parse_centralizer("A1")
    assert (q.dim, q.rank) == (3, 1)
    q = parse_centralizer("A1+T1")
    assert (q.dim, q.rank) == (4, 2)
    q = parse_centralizer("SO7")
    assert (q.dim, q.rank) == (21, 3)
    q = parse_centralizer("G2")
    assert (q.dim, q.rank) == (14, 2)
    assert parse_centralizer("0").dim == 0
    assert parse_centralizer("1").dim == 0
    assert parse_centralizer("-").dim == 0


def test_parse_centralizer_rejects_garbage():
    with pytest.raises(TableError):
        parse_centralizer("Q5")
    with pytest.raises(TableError):
        parse_centralizer("A")          # missing rank
    with pytest.raises(TableError):
        parse_centralizer("A1*B2")      # wrong separator
    with pytest.raises(TableError, match=r"bad centralizer factor 'Sp3': Sp needs an even"):
        parse_centralizer("Sp3")        # Sp of odd matrix size
    for token in ("G25", "E81", "F40"):   # an exceptional factor takes no number
        with pytest.raises(TableError, match=f"bad centralizer factor: '{token}'"):
            parse_centralizer(token)


def test_builtin_g2_table():
    table = builtin_g2()
    assert str(table.algebra) == "G2"
    assert [r.label for r in table.rows] == ["0", "A1", "~A1", "G2(a1)", "G2"]
    assert [r.orbit_dim for r in table.rows] == [0, 6, 8, 10, 12]
    by_label = {r.label: r for r in table.rows}
    assert by_label["~A1"].centralizer.dim == 3      # an sl2
    assert by_label["G2(a1)"].component_group == "S3"
    assert by_label["G2"].centralizer.dim == 0


def _table(rows):
    return ExceptionalOrbitTable(exceptional("G2"), tuple(rows))


def test_table_validation():
    with pytest.raises(TableError):
        _table([])
    with pytest.raises(TableError):
        _table([OrbitRow("x", 5, parse_centralizer("0"))])   # odd dim
    with pytest.raises(TableError):
        _table([OrbitRow("x", 14, parse_centralizer("0"))])  # beyond regular
    with pytest.raises(TableError):                          # unsorted
        _table([OrbitRow("a", 8, parse_centralizer("A1")),
                OrbitRow("b", 6, parse_centralizer("A1"))])
    with pytest.raises(TableError):                          # duplicate label
        _table([OrbitRow("a", 6, parse_centralizer("A1")),
                OrbitRow("a", 8, parse_centralizer("A1"))])
    with pytest.raises(TableError):  # regular orbit with nontrivial centralizer
        _table([OrbitRow("reg", 12, parse_centralizer("A1"))])


def test_load_table_roundtrip(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("# comment\nlabel\tdim\tcentralizer\tcomponent\n"
                    "0\t0\tG2\t1\nreg\t12\t0\t1\n", encoding="utf-8")
    table = load_table(path, exceptional("G2"))
    assert len(table.rows) == 2
    assert table.rows[0].centralizer.dim == 14


def test_load_table_errors(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(TableError):
        load_table(empty, exceptional("G2"))

    short = tmp_path / "short.tsv"
    short.write_text("label\tdim\n0\t0\n", encoding="utf-8")
    with pytest.raises(TableError):
        load_table(short, exceptional("G2"))

    bad_dim = tmp_path / "bad.tsv"
    bad_dim.write_text("0\tsix\tA1\n", encoding="utf-8")
    with pytest.raises(TableError):
        load_table(bad_dim, exceptional("G2"))

    odd_sp = tmp_path / "odd_sp.tsv"
    odd_sp.write_text("label\tdim\tcentralizer\n0\t0\tG2\nx\t6\tSp3\n", encoding="utf-8")
    with pytest.raises(TableError, match=r"odd_sp.tsv:3: bad centralizer factor 'Sp3'"):
        load_table(odd_sp, exceptional("G2"))


def test_load_table_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # Lines are counted as text-mode reading counts them, \r\n and \r included.
    for data, line in ((b"\xff\xfelabel\n", 1),
                       (b"label\tdim\tcentralizer\r\n0\t0\tG2\r\nx\t6\t\xe9\n", 3),
                       (b"# note\rlabel\tdim\tcentralizer\r0\t0\tG2\xc3\n", 3)):
        path = tmp_path / "table.tsv"
        path.write_bytes(data)
        with pytest.raises(TableError, match=rf"^{re.escape(str(path))}:{line}: not UTF-8: "
                                             r"'utf-8' codec can't decode byte 0x"):
            load_table(path, exceptional("G2"))

def test_table_refuses_centralizers_of_another_algebra():
    # The reductive centralizer lies in Z_G(e), of dim dim g - orbit dim and
    # rank at most rk g; at the zero orbit it is all of g.
    zero = OrbitRow("0", 0, parse_centralizer("G2"))
    for row in (OrbitRow("x", 10, parse_centralizer("A2")),    # dim 8 > 14 - 10
                OrbitRow("x", 6, parse_centralizer("T3"))):    # rank 3 > 2
        with pytest.raises(TableError, match=r"^row 2 \(x\): centralizer .* does not fit "
                                             r"in the centralizer of e in G2$"):
            _table([zero, row])
    for q in ("A2", "A1+A1"):
        with pytest.raises(TableError, match=r"^row 1 \(0\): zero orbit needs all of G2 "
                                             r"as its centralizer$"):
            _table([OrbitRow("0", 0, parse_centralizer(q))])
    with pytest.raises(TableError, match=r"g2.tsv: row 1 \(0\): zero orbit needs all of E8"):
        load_table(Path(datasets.__file__).parent / "data" / "g2.tsv", exceptional("E8"))
