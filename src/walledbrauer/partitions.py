"""Partitions, Young diagrams, tableaux, and Schur-Weyl dimension data.

All quantities are computed in exact integer arithmetic.  Irrep dimensions
come from the hook-length formula, Schur-Weyl multiplicities from the
hook-content formula, and both are cross-checkable against exhaustive
tableau enumeration (:func:`enumerate_standard_tableaux`,
:func:`count_semistandard_tableaux`).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ResourceLimitError

# d_mu and m_mu are products over the cells of mu of integers that grow with
# p, formed exactly for every shape the analytic spectra or a B matrix read;
# that work is counted as cells, p for each shape.  22 * 2^10 cells admit
# every d at p <= 22 and analytic_sweep's (12,12), (16,8), (20,6) and (22,3)
# at 924 to 5 640 cells, and past p = 22 no more than 2^10 shapes.  The
# slowest admitted take 3.8 s cold: (22,22) at 22 044 cells, (23,9) and
# (24,8); d = 1 admits p <= 22 528 (1.0 s), and a B matrix of two shapes
# p <= 11 264 (0.5 s).  They refuse (2000,2) at 2.0e6 cells (19.6 s),
# (100000,1) at 1e5 (11.5 s), the B matrix of (99999,1) at d = 2, three
# shapes of 1e5 cells (21.9 s), and (23,11) at 24 380 (4.7 s).
MAX_EXACT_CELLS = 22 * 2**10


class Frozen:
    """Base of the package's value types: a class names its fields once, in ``__slots__``.

    That tuple, less the ``__dict__`` a class with cached properties lists
    there, is the class's ``_fields``.  The one ``__init__`` sets each field
    once, from the positional values in that order, a trailing run of them
    taken from ``_defaults`` when left out; a wrong count raises
    ``TypeError``.  The one ``__repr__`` is ``Name(field=value, ...)``, the
    string of a frozen ``dataclass`` with the same fields.  A class writes
    out ``__init__`` only to normalize or validate its input, and then
    calls this one.  Equality, hashing and ordering are written out where a
    caller uses them: ``hash`` is that of the tuple of the fields, as the
    dataclass's, so set and dict orders are the same.  Nothing is generated
    or compiled at import.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *values):
        fields = self._fields
        missing = len(fields) - len(values)
        if missing:
            if not 0 < missing <= len(self._defaults):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}, got {len(values)} values")
            values += self._defaults[-missing:]
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(Frozen):
    """A partition stored as a nonincreasing tuple of positive parts.

    Trailing zeros are never stored; the empty partition is ``Partition(())``.
    Partitions are ordered as their tuples of parts.
    """

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(v) for v in parts)
        if any(v <= 0 for v in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing: {parts}")
        super().__init__(parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.parts < other.parts
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.parts <= other.parts
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self.parts > other.parts
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self.parts >= other.parts
        return NotImplemented

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
def enumerate_partitions(p: int, rows: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``p`` with at most ``rows`` rows (all of them when None), in reverse-lexicographic order.

    ``p = 0`` yields the empty partition.  A first part too short to hold
    the rest in the rows left ends the search, so no shape with more rows
    is built.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")

    def gen(rest: int, cap: int, rows: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            if first * rows < rest:
                return
            for tail in gen(rest - first, first, rows - 1):
                yield (first,) + tail

    return tuple(Partition(parts) for parts in gen(p, p, p if rows is None else rows))


def count_partitions(p: int, rows: int | None = None, stop: int | None = None) -> int:
    """The number of partitions of ``p`` with at most ``rows`` rows (all of them when None), none of them built.

    By conjugation these are the partitions into parts of size at most
    ``rows``: the table of the counts for 0..p takes in the parts k = 1, 2,
    ... in turn, counts[n] += counts[n - k].  With ``stop``, counting ends
    once the count passes it, and the number returned is then only known to
    exceed ``stop``; two rows alone give p // 2 + 1 shapes, so no table is
    made for a p past 2 stop.
    """
    k_max = p if rows is None else min(rows, p)
    if k_max < 2:
        return int(k_max == 1 or p == 0)
    if stop is not None and p // 2 + 1 > stop:
        return p // 2 + 1
    counts = [1] + [0] * p
    for k in range(1, k_max + 1):
        for n in range(k, p + 1):
            counts[n] += counts[n - k]
        if stop is not None and counts[p] > stop:
            break
    return counts[p]


def _check_exact_cells(p: int, shapes: int, what: str, *args) -> None:
    """Refuse exact products over ``shapes`` shapes of p cells each past MAX_EXACT_CELLS cells, naming ``what.format(*args)``."""
    if shapes * p > MAX_EXACT_CELLS:
        raise ResourceLimitError(
            f"{what.format(*args)}: exact products over at least {shapes} shapes of {p} cells exceed MAX_EXACT_CELLS = {MAX_EXACT_CELLS}"
        )


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


class StandardTableau(Frozen):
    """A standard filling of a Young diagram with 1..p."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

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

    def swap_adjacent(self, k: int) -> "StandardTableau":
        """Exchange the entries ``k`` and ``k + 1``."""
        rows = [list(r) for r in self.rows]
        (ik, jk) = self.position_of(k)
        (il, jl) = self.position_of(k + 1)
        rows[ik - 1][jk - 1] = k + 1
        rows[il - 1][jl - 1] = k
        return StandardTableau(tuple(tuple(r) for r in rows))


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
    return enumerate_partitions(p, d) if d < p else enumerate_partitions(p)
