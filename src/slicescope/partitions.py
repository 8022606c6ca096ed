"""Partition combinatorics for Jordan types of nilpotent matrices.

A partition is a weakly decreasing tuple of positive integers, read as a
Jordan type (block sizes).  This module parses partitions, counts
multiplicities, recognises hooks and enumerates the valid Jordan types of
each classical family.  Transposes and the parity test of a given type
are read off its runs of equal parts by ``liealg.orbit_datum``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import ge
from typing import Iterator

_is_int = int.__instancecheck__
_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = self.parts
        if (all(map(_is_int, parts)) and all(map(ge, parts, parts[1:]))
                and (not parts or parts[-1] >= 1)):
            return
        # Rejected: find the first offending part for the message.
        for i, p in enumerate(parts):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A Partition of parts already known to be positive, weakly decreasing
    ints, made without checking them again."""
    p = _new(Partition)
    _set(p, "parts", parts)
    return p


# Largest size parse_partition accepts.  `check` and `dual` take time and
# memory linear in the size: as a whole process on a 2-core x86-64 box with
# CPython 3.11, two runs each, `check --family so --partition 1^100000` took
# 0.26-0.27 s with a peak RSS of 26 MB and wrote 200 kB, and 1^1000000 took
# 1.0 s, 111 MB and 2 MB.
MAX_PARTITION_SIZE = 100_000


def parse_partition(text: str) -> Partition:
    """Parse "5,1,1" or exponent shorthand like "2^4" / "3,1^2".

    The size is summed from the tokens first, so a partition larger than
    MAX_PARTITION_SIZE is refused before any part is expanded.
    """
    tokens: list[tuple[int, int]] = []
    for token in text.split(","):
        token = token.strip()
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", token)
        if not m:
            raise ValueError(f"bad partition token: {token!r}")
        part, mult = int(m.group(1)), int(m.group(2) or 1)
        if part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        tokens.append((part, mult))
    n = sum(part * mult for part, mult in tokens)
    if n > MAX_PARTITION_SIZE:
        raise ValueError(f"partitions are capped at size {MAX_PARTITION_SIZE}, "
                         f"this one has size {n}")
    parts = [part for part, mult in tokens for _ in range(mult)]
    return Partition(tuple(sorted(parts, reverse=True)))


def multiplicities(p: Partition) -> dict[int, int]:
    """Map part value -> number of occurrences."""
    out: dict[int, int] = {}
    for part in p.parts:
        out[part] = out.get(part, 0) + 1
    return out


def hook_parameters(p: Partition) -> tuple[int, int] | None:
    """(n, k) with p = (n-k, 1^k) and n-k >= 2, else None.

    The zero Jordan type (1^n) is deliberately not a hook here; it is
    classified separately.
    """
    parts = p.parts
    if not parts or parts[0] < 2:
        return None
    # Parts decrease, so the rest are all 1 when the second one is.
    if len(parts) > 1 and parts[1] != 1:
        return None
    return p.n, len(parts) - 1


def _valid_parts(n: int, largest: int, paired: int | None) -> Iterator[tuple[int, ...]]:
    """Valid types of n with parts <= largest, in reverse-lex order.

    Each part value is chosen from largest to smallest, then its
    multiplicity from largest to smallest; ones fill what is left.  Parts
    of parity ``paired`` (1 odd, 0 even, None neither) take even
    multiplicities only.  Every tuple is of positive, weakly decreasing
    ints, so valid_jordan_types makes its Partitions without checking them.
    """
    if paired == 1 and n % 2:
        return   # odd parts pair off, so the size is even
    for value in range(min(n, largest), 1, -1):
        top = n // value
        step = -1
        if value % 2 == paired:
            top -= top % 2
            step = -2
        for mult in range(top, 0, step):
            head = (value,) * mult
            for rest in _valid_parts(n - value * mult, value - 1, paired):
                yield head + rest
    if n >= 0:
        yield (1,) * n


# Parity of the parts that need even multiplicity (1 odd, 0 even).
_PAIRED_PARITY = {"GL": None, "Sp": 1, "SO": 0}


def valid_jordan_types(family_kind: str, n: int) -> list[Partition]:
    """Valid Jordan types of an n x n nilpotent for the family, reverse-lex."""
    if family_kind not in _PAIRED_PARITY:
        raise ValueError(f"unknown family kind: {family_kind!r}")
    return list(map(_trusted, _valid_parts(n, n, _PAIRED_PARITY[family_kind])))
