"""Partitions, Young diagrams, tableaux, and Schur-Weyl dimension data.

All quantities are computed in exact integer arithmetic.  Irrep dimensions
come from the hook-length formula, Schur-Weyl multiplicities from the
hook-content formula, and both are cross-checkable against exhaustive
tableau enumeration (:func:`enumerate_standard_tableaux`,
:func:`count_semistandard_tableaux`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, order=True)
class Partition:
    """A partition stored as a nonincreasing tuple of positive parts.

    Trailing zeros are never stored; the empty partition is ``Partition(())``.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(v) for v in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(v <= 0 for v in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing: {parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def row(self, i: int) -> int:
        """Length of row ``i`` (1-based); 0 beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def cells(self):
        """All (row, col) coordinates, 1-based, row-major."""
        for i, length in enumerate(self.parts, start=1):
            for j in range(1, length + 1):
                yield (i, j)

    def column_height(self, j: int) -> int:
        return sum(1 for length in self.parts if length >= j)

    def hook(self, i: int, j: int) -> int:
        """Hook length of the cell (i, j): arm + leg + 1."""
        arm = self.parts[i - 1] - j
        leg = self.column_height(j) - i
        return arm + leg + 1

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.parts) + ")"


def partition(*parts: int) -> Partition:
    """Convenience constructor: ``partition(2, 1)``."""
    return Partition(tuple(parts))


@lru_cache(maxsize=None)
def enumerate_partitions(p: int) -> tuple[Partition, ...]:
    """All partitions of ``p`` in reverse-lexicographic order.

    ``p = 0`` yields the empty partition.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(Partition(parts) for parts in gen(p, p))


@lru_cache(maxsize=None)
def dim_irrep(mu: Partition) -> int:
    """Irrep dimension d_mu = p! / product of hook lengths."""
    p = mu.total
    denom = 1
    for i, j in mu.cells():
        denom *= mu.hook(i, j)
    num = math.factorial(p)
    if num % denom:
        raise ArithmeticError(f"hook lengths of {mu} do not divide {p}!")
    return num // denom


@lru_cache(maxsize=None)
def multiplicity(mu: Partition, d: int) -> int:
    """Schur-Weyl multiplicity m_mu at local dimension ``d``.

    The hook-content formula, prod over the cells (i, j) of (d + j - i) /
    hook(i, j), one exact integer division; zero whenever ht(mu) > d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if mu.height > d:
        return 0
    num = denom = 1
    for i, j in mu.cells():
        num *= d + j - i
        denom *= mu.hook(i, j)
    if num % denom:
        raise ArithmeticError(f"hook lengths of {mu} do not divide its contents at d = {d}")
    return num // denom


@lru_cache(maxsize=None)
def remove_box(mu: Partition) -> tuple[Partition, ...]:
    """All partitions obtained by deleting one corner box, row index ascending."""
    if mu.total < 1:
        raise ValueError("cannot remove a box from the empty partition")
    out = []
    for i in range(1, mu.height + 1):
        if mu.row(i) > mu.row(i + 1):
            parts = list(mu.parts)
            parts[i - 1] -= 1
            if parts[i - 1] == 0:
                parts.pop()
            out.append(Partition(tuple(parts)))
    return tuple(out)


@lru_cache(maxsize=None)
def add_box(alpha: Partition) -> tuple[Partition, ...]:
    """All partitions obtained by adding one box, row index ascending."""
    out = []
    for i in range(1, alpha.height + 2):
        if alpha.row(i) < alpha.row(i - 1) or i == 1:
            parts = list(alpha.parts)
            if i <= len(parts):
                parts[i - 1] += 1
            else:
                parts.append(1)
            out.append(Partition(tuple(parts)))
    return tuple(out)


def common_removals(mu: Partition, nu: Partition) -> tuple[Partition, ...]:
    """Shapes reachable from both mu and nu by deleting one box."""
    in_nu = set(remove_box(nu))
    return tuple(a for a in remove_box(mu) if a in in_nu)


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling of a Young diagram with 1..p."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def position_of(self, k: int) -> tuple[int, int]:
        """1-based (row, col) of the entry ``k``."""
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row, start=1):
                if v == k:
                    return (i, j)
        raise ValueError(f"entry {k} not in tableau")

    def content_of(self, k: int) -> int:
        i, j = self.position_of(k)
        return j - i

    def remove_largest(self) -> "StandardTableau":
        """Delete the box holding the largest entry."""
        p = self.size
        i, _ = self.position_of(p)
        rows = [list(r) for r in self.rows]
        rows[i - 1].pop()
        if not rows[i - 1]:
            rows.pop()
        return StandardTableau(tuple(tuple(r) for r in rows))

    def swap_adjacent(self, k: int) -> "StandardTableau":
        """Exchange the entries ``k`` and ``k + 1``."""
        rows = [list(r) for r in self.rows]
        (ik, jk) = self.position_of(k)
        (il, jl) = self.position_of(k + 1)
        rows[ik - 1][jk - 1] = k + 1
        rows[il - 1][jl - 1] = k
        return StandardTableau(tuple(tuple(r) for r in rows))

    def is_standard(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if j + 1 < len(row) and row[j + 1] <= v:
                    return False
                if i + 1 < len(self.rows) and j < len(self.rows[i + 1]) and self.rows[i + 1][j] <= v:
                    return False
        return True


@dataclass(frozen=True)
class BratteliPath:
    """A chain of partitions from a single box up to the full shape."""

    chain: tuple[Partition, ...]

    def __post_init__(self):
        for a, b in zip(self.chain, self.chain[1:]):
            if b not in add_box(a):
                raise ValueError(f"{b} does not cover {a}")

    @property
    def shape(self) -> Partition:
        return self.chain[-1]


@lru_cache(maxsize=None)
def enumerate_standard_tableaux(mu: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of shape ``mu`` in last-letter order.

    Tableaux are grouped by the shape obtained after deleting the largest
    entry, in :func:`remove_box` order, recursively.  This makes the basis
    index block-contiguous for the subgroup-adapted labelling.
    """
    p = mu.total
    if p == 0:
        return (StandardTableau(()),)
    if p == 1:
        return (StandardTableau(((1,),)),)
    out = []
    for alpha in remove_box(mu):
        grow_row = next(i for i in range(1, mu.height + 1) if mu.row(i) != alpha.row(i))
        for t in enumerate_standard_tableaux(alpha):
            rows = [list(r) for r in t.rows]
            if grow_row <= len(rows):
                rows[grow_row - 1].append(p)
            else:
                rows.append([p])
            out.append(StandardTableau(tuple(tuple(r) for r in rows)))
    return tuple(out)


def tableau_to_path(t: StandardTableau) -> BratteliPath:
    chain = []
    cur = t
    while cur.size > 0:
        chain.append(cur.shape)
        cur = cur.remove_largest()
    return BratteliPath(tuple(reversed(chain)))


def path_to_tableau(path: BratteliPath) -> StandardTableau:
    rows: list[list[int]] = []
    prev = Partition(())
    for k, shape in enumerate(path.chain, start=1):
        grow_row = next(i for i in range(1, shape.height + 1) if shape.row(i) != prev.row(i))
        if grow_row <= len(rows):
            rows[grow_row - 1].append(k)
        else:
            rows.append([k])
        prev = shape
    return StandardTableau(tuple(tuple(r) for r in rows))


def count_semistandard_tableaux(mu: Partition, d: int) -> int:
    """Exhaustive count of semistandard fillings with entries 1..d.

    Rows nondecrease left to right, columns strictly increase top to bottom.
    Serves as an independent oracle for :func:`multiplicity`.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    shape = mu.parts
    if not shape:
        return 1

    def fill(i: int, j: int, rows: list[list[int]]) -> int:
        if i == len(shape):
            return 1
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        total = 0
        for v in range(lo, d + 1):
            rows[i].append(v)
            total += fill(ni, nj, rows)
            rows[i].pop()
        return total

    return fill(0, 0, [[] for _ in shape])


def schur_weyl_partitions(p: int, d: int) -> tuple[Partition, ...]:
    """Partitions of ``p`` appearing at local dimension ``d`` (height <= d)."""
    return tuple(mu for mu in enumerate_partitions(p) if mu.height <= d)
