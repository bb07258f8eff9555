"""The twirled generators rho(p) and rho(p-1), and their spectra.

The twirl over S_p x S_p of the ideal generator V^(k) is the uniform average
of V_pi over the C(p,k)^2 k! partial matchings pi in its orbit, and it
conserves the U (x) conj(U) weight, so rho(k) is block diagonal over weight
sectors.  ``_matching_groups`` enumerates the orbit once for every use of it:
the brute spectra of :func:`rho_eigenvalues` and :func:`rho_apply`, which
forms rho(k) Q for thin weight-sector blocks Q with no array of d^(2p) rows
and is what the verification suites use.  No d^(2p) x d^(2p) rho is formed
here; the dense rho is a test oracle.

A relabelling sigma in S_d of the letters is a permutation matrix in U(d).
It commutes with rho(k) and maps the sector of weight w onto that of
sigma.w, so all sectors of one S_d orbit are isospectral.  The brute spectra
therefore store and diagonalize only the dominant sectors, whose weight is
non-increasing, and repeat each eigenvalue by the size of its weight's
orbit.  At (4,4) that is 23 of the 309 sectors and 1.3e7 of the 6.5e7
block entries: about 3 s and a 200 MiB peak per level.

The twirled operators are diagonal in the unit bases of the two highest
ideals.  Their nonzero eigenvalues come out analytically: at the top ideal
from multiplicities and dimensions alone, and at the second ideal as the
generalized eigenvalues Lambda of the small pencil (T, B) of each block,
the one interior basis its units are built on (``ideal_units.BMatrix``).
Each analytic family (ideal, mu, nu, beta) is one ``SpectrumRow``, the
row type of the brute spectra too, which leave its labels empty; both
paths are exposed through :func:`spectrum_table`, and the families
through :func:`analytic_overlaps`.  Only the analytic half
reads the second ideal, so it imports ``ideal_units`` where it runs, and
the brute half loads none of the unit construction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .partitions import (
    MAX_EXACT_CELLS,
    Frozen,
    Partition,
    _check_exact_cells,
    count_partitions,
    dim_irrep,
    enumerate_partitions,
    multiplicity,
    schur_weyl_partitions,
)
from .tensorspace import MAX_BLOCK_ENTRIES, _digit_table, _frozen, _weight_sectors

BIN_TOL = 1e-6

# The brute path makes one vectorised pass over d^(2p) entries for each matching
# of the orbit (the scatter of its groups) and for each letter (the weight labelling).
# The fixed cost of a pass's numpy calls, about 0.15 ms, is that of about
# PASS_FLOOR entries, so a pass is charged max(d^(2p), PASS_FLOOR) entries.
# 2^26 admit every level of (3,6), (4,3) and (6,2) (at most 2.2e7 entries, at
# (6,2) level 4, about 1.5 s) and refuse (7,2) at level 6, which would scatter
# 35 280 * 16 384 = 5.8e8, and d = 1 beyond p = 7.
MAX_TWIRL_ENTRIES = 2**26
PASS_FLOOR = 2**12


def _orbit_size(p: int, level: int) -> int:
    """The C(p,k)^2 k! partial matchings of size k = level between the two wall sides."""
    return math.comb(p, level) ** 2 * math.factorial(level)


def _check_twirl_work(p: int, d: int, level: int) -> None:
    entries = (_orbit_size(p, level) + d) * max(d ** (2 * p), PASS_FLOOR)
    if entries > MAX_TWIRL_ENTRIES:
        raise ResourceLimitError(
            f"the twirl of V^({level}) at (p,d)=({p},{d}) touches {entries} entries "
            f"(orbit of matchings and weight labelling), above the bound {MAX_TWIRL_ENTRIES}"
        )


def _sector_size(p: int, w: tuple[int, ...]) -> int:
    """n_w, the number of basis states x y of weight w, counted without the basis.

    The left word x has letter counts c and the right word y has c - w, so
    n_w = sum_c multinomial(p; c) multinomial(p; c - w).  Both multinomials
    are products of binomials along the letters, so the sum is built letter
    by letter in g.
    """
    g = [1] + [0] * p  # g[j]: the letters so far fill j places of x and j - shift of y
    shift = 0
    for wa in w:
        new = [0] * (p + 1)
        for j, ways in enumerate(g):
            if not ways:
                continue
            for c in range(max(wa, 0), p + 1 - j):
                new[j + c] += ways * math.comb(j + c, c) * math.comb(j - shift + c - wa, c - wa)
        g, shift = new, shift + wa
    return g[p]


@lru_cache(maxsize=None)
def _dominant_weights(p: int, d: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(w, orbit, n_w) for every dominant weight w of (C^d)^(2p), counted without the basis.

    A dominant weight is non-increasing: a partition lam of some m <= p,
    zeros, then minus a partition kap of m in reverse.  Its S_d orbit holds
    d! / prod(multiplicities of equal entries)! weights, each of sector size n_w.
    """
    out = []
    for m in range(p + 1):
        for lam in enumerate_partitions(m):
            for kap in enumerate_partitions(m):
                zeros = d - lam.height - kap.height
                if zeros >= 0:
                    w = lam.parts + (0,) * zeros + tuple(-v for v in reversed(kap.parts))
                    orbit = math.factorial(d)
                    for v in set(w):
                        orbit //= math.factorial(w.count(v))
                    out.append((w, orbit, _sector_size(p, w)))
    return tuple(out)


def _block_entries(p: int, d: int) -> int:
    """sum_s n_s^2 over the dominant weight sectors, the floats that ``rho_eigenvalues`` stores."""
    return sum(n * n for _, _, n in _dominant_weights(p, d))


def _check_block_memory(p: int, d: int) -> None:
    entries = _block_entries(p, d)
    if entries > MAX_BLOCK_ENTRIES:
        raise ResourceLimitError(
            f"the dominant weight sectors at (p,d)=({p},{d}) hold {entries} block entries, "
            f"above the bound {MAX_BLOCK_ENTRIES}"
        )


@lru_cache(maxsize=None)
def _dominant_sectors(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The dominant sectors of ``_weight_sectors``, ascending, and their orbit sizes.  Cached, read-only.

    A sector's weight is read off the digits of its first index.
    """
    sector, pos, _ = _weight_sectors(p, d)
    first = np.flatnonzero(pos == 0)
    digs = _digit_table(d, 2 * p)[:, first]
    w = np.stack([np.count_nonzero(digs[:p] == a, axis=0) - np.count_nonzero(digs[p:] == a, axis=0) for a in range(d)])
    dominant = np.all(w[:-1] >= w[1:], axis=0)
    ids = sector[first[dominant]]
    order = np.argsort(ids)
    orbit = {wt: size for wt, size, _ in _dominant_weights(p, d)}
    orbits = [orbit[tuple(int(v) for v in col)] for col in w[:, dominant].T[order]]
    return _frozen(ids[order]), _frozen(np.array(orbits, dtype=np.int64))


def _matching_groups(p: int, d: int, level: int):
    """For every matching pi in the orbit of V^(level): the indices that V_pi acts on, by groups.

    V_pi pairs k = level registers left of the wall with k right of it.  It
    is zero off the set A_pi of basis indices whose matched digits agree,
    and on A_pi it is 1 between any two indices with the same free digits.
    Row g of the yielded (d^(2p-2k), d^k) array lists the group of A_pi
    whose free digits, in register order, spell g; V_pi is 1 on group x
    group and 0 elsewhere, and |A_pi| = d^(2p-k).  No pass over the d^(2p)
    indices is made.  The free digits' index part, ``base``, depends only on
    the matched registers, so it is built once per matched set, and both
    parts are one product of a digit table with the places of the digits.
    """
    n = 2 * p
    place = [d ** (n - 1 - reg) for reg in range(n)]
    free_digits, pair_digits = _digit_table(d, n - 2 * level), _digit_table(d, level)
    bases = {}
    for left in combinations(range(p), level):
        for right in permutations(range(p, n), level):
            matched = frozenset(left + right)
            if matched not in bases:
                free = [place[reg] for reg in range(n) if reg not in matched]
                bases[matched] = np.dot(np.array(free, dtype=np.int64), free_digits)
            pairs = [place[l] + place[r] for l, r in zip(left, right)]
            yield bases[matched][:, None] + np.dot(np.array(pairs, dtype=np.int64), pair_digits)


def _orbit_sum(
    acc: np.ndarray, p: int, d: int, level: int, row_key: np.ndarray, col_key: np.ndarray, keep: np.ndarray | None = None
) -> None:
    """Add V_pi to the flat ``acc`` for every matching pi in the orbit of V^(level).

    Entry (r, c) of V_pi lands at acc[row_key[r] + col_key[c]], for r and c
    in one group of ``_matching_groups``.  Its entries are distinct, so a
    plain fancy-indexed add counts each once.  With a boolean ``keep`` per
    basis index, only the groups whose indices are kept are added; a group
    lies in one weight sector, so its first index decides.
    """
    for group in _matching_groups(p, d, level):
        if keep is not None:
            group = group[keep[group[:, 0]]]
        acc[row_key[group][:, :, None] + col_key[group][:, None, :]] += 1.0


def rho_apply(level: int, p: int, d: int, blocks: dict) -> dict:
    """rho(level) on weight-sector blocks: {s: rho(level) q_s} for the thin blocks {s: q_s}.

    rho(level) conserves the weight, so it maps each sector to itself; row i
    of q_s is the index at position i of sector s (``_weight_sectors``).
    rho(level) q_s is the orbit average of V_pi q_s.  V_pi q is zero off
    A_pi, and on each group of A_pi (see ``_matching_groups``) it is the sum
    of q over the group, repeated on every index of the group.  The free
    digits of a group fix its weight, so each group lies in one sector, and
    no array of d^(2p) rows is formed.
    """
    if not 0 <= level <= p:
        raise ValueError(f"need 0 <= level <= p, got {level}")
    sector, pos, sizes = _weight_sectors(p, d)
    for s, q in blocks.items():
        if q.shape[0] != sizes[s]:
            raise ValueError(f"the block of sector {s} has {q.shape[0]} rows, need {sizes[s]}")
    out = {s: np.zeros(q.shape, dtype=np.result_type(q, float)) for s, q in blocks.items()}
    for group in _matching_groups(p, d, level):
        owner = sector[group[:, 0]]
        for s, q in blocks.items():
            at = pos[group[owner == s]]
            out[s][at] += q[at].sum(axis=1, keepdims=True)
    for o in out.values():
        o /= _orbit_size(p, level)
    return out


def rho_eigenvalues(level: int, p: int, d: int) -> np.ndarray:
    """The eigenvalues of rho(level), ascending, from one dense block per dominant weight sector.

    The sectors of one S_d orbit are isospectral, so each eigenvalue of a
    dominant block is repeated by the orbit size of its weight.  The orbit of
    matchings is scattered straight into the dominant blocks; no array of
    d^(2p) x d^(2p) entries is built.  Both bounds are checked first.
    """
    if not 0 <= level <= p:
        raise ValueError(f"need 0 <= level <= p, got {level}")
    _check_twirl_work(p, d, level)
    _check_block_memory(p, d)
    sector, pos, sizes = _weight_sectors(p, d)
    ids, orbits = _dominant_sectors(p, d)
    slot = np.full(sizes.size, -1)
    slot[ids] = np.arange(ids.size)
    n = sizes[ids]  # ascending, as ids is
    offsets = np.cumsum(n**2) - n**2
    acc = np.zeros(int(np.sum(n**2)))
    row_slot = slot[sector]  # -1 outside the dominant sectors, whose groups are dropped
    _orbit_sum(acc, p, d, level, offsets[row_slot] + pos * sizes[sector], pos, keep=row_slot >= 0)
    acc /= _orbit_size(p, level)
    vals = []
    for size in n[np.r_[True, n[1:] != n[:-1]]]:
        same = np.flatnonzero(n == size)  # consecutive blocks
        start = offsets[same[0]]
        stack = acc[start : start + same.size * size * size].reshape(same.size, size, size)
        vals.append(np.repeat(np.linalg.eigvalsh(stack), orbits[same], axis=0).ravel())
    return np.sort(np.concatenate(vals))


# ----------------------------------------------------------------------------
# analytic overlaps


def analytic_levels(p: int, d: int) -> tuple[int, ...]:
    """The levels whose rho the analytic path covers: p, and p - 1 where the second ideal exists."""
    from .ideal_units import has_second_ideal

    return (p, p - 1) if has_second_ideal(p, d) else (p,)


def analytic_overlaps(p: int, d: int, level: int) -> tuple[SpectrumRow, ...]:
    """Every analytic eigenvalue family (ideal, mu, nu, beta) of rho(level); none is zero, as m_mu > 0 and Lambda > 0.

    A diagonal unit of the top ideal is rank one, so its overlap tr(rho G)
    is its eigenvalue: m_mu / d_mu for rho(p) and m_mu / (d d_mu) for
    rho(p-1), on d_mu^2 units.  The second-ideal unit of mode beta has
    overlap Lambda_beta / d, with Lambda the generalized eigenvalues of
    (T, B) (``BMatrix.pencil``), and trace d^2 - 1, which the eigenvalue
    divides out; its family holds d_mu d_nu units.  rho(p) annihilates the
    second ideal, so its families are those of the top ideal alone.
    """
    from .ideal_units import second_ideal_blocks

    if level not in analytic_levels(p, d):
        covered = "level p or p-1 with p >= 2" if d > 1 else "level p only at d = 1"
        raise ParameterError(f"the analytic path covers {covered}, got p = {p}, level = {level}")
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_exact_cells(p, count_partitions(p, d, stop=MAX_EXACT_CELLS // p), "the analytic spectra at (p,d)=({},{})", p, d)
    rows = []
    for mu in schur_weyl_partitions(p, d):
        m, dm = multiplicity(mu, d), dim_irrep(mu)
        rows.append(SpectrumRow(m / dm if level == p else m / (d * dm), dm * dm, p, mu, mu, None))
    trace = d * d - 1
    for b in second_ideal_blocks(p, d) if level == p - 1 else ():
        units = dim_irrep(b.mu) * dim_irrep(b.nu)
        rows.extend(SpectrumRow(lam / d / trace, units * trace, p - 1, b.mu, b.nu, beta) for beta, lam in enumerate(b.pencil, 1))
    return tuple(rows)


# ----------------------------------------------------------------------------
# spectrum tables


class SpectrumRow(Frozen):
    """One eigenvalue family; the analytic path also gives its ideal, shapes and eigenmode."""

    __slots__ = ("value", "multiplicity", "ideal", "mu", "nu", "interior")
    value: float
    multiplicity: int
    ideal: int | None
    mu: Partition | None
    nu: Partition | None
    interior: int | None
    _defaults = (None, None, None, None)  # ideal, mu, nu, interior: the brute path gives none of them


class SpectrumTable(Frozen):
    """The nonzero spectrum of rho(level) at (p, d) by one method, and the dimension of its kernel."""

    __slots__ = ("p", "d", "level", "method", "rows", "kernel_dim")
    p: int
    d: int
    level: int
    method: str
    rows: tuple[SpectrumRow, ...]
    kernel_dim: int

    @property
    def dim(self) -> int:
        return self.d ** (2 * self.p)

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.rows)

    def merged(self) -> list[tuple[float, int]]:
        """Rows merged by eigenvalue (within BIN_TOL), sorted ascending."""
        out: list[tuple[float, int]] = []
        for row in sorted(self.rows, key=lambda r: r.value):
            if out and abs(out[-1][0] - row.value) <= BIN_TOL:
                prev_v, prev_m = out[-1]
                weight = prev_m + row.multiplicity
                out[-1] = ((prev_v * prev_m + row.value * row.multiplicity) / weight, weight)
            else:
                out.append((row.value, row.multiplicity))
        return out

    def distance(self, other: "SpectrumTable") -> float:
        """Largest difference of the merged eigenvalues; inf when the family
        count, a multiplicity or the kernel dimension differ."""
        a, b = self.merged(), other.merged()
        if len(a) != len(b) or self.kernel_dim != other.kernel_dim:
            return math.inf
        if any(mx != my for (_, mx), (_, my) in zip(a, b)):
            return math.inf
        return float(max((abs(x - y) for (x, _), (y, _) in zip(a, b)), default=0.0))


def spectrum_table(p: int, d: int, level: int, method: str = "analytic") -> SpectrumTable:
    """Nonzero spectrum of rho(level) on 2p registers.

    The analytic path covers the levels of :func:`analytic_levels` and keeps
    every family; the brute path takes the eigenvalues of :func:`rho_eigenvalues`, one dense
    block per dominant weight sector, for any 0 <= level <= p within its two bounds
    (MAX_TWIRL_ENTRIES on the work, MAX_BLOCK_ENTRIES on the block storage),
    and bins them at BIN_TOL = 1e-6.
    """
    if method == "analytic":
        rows = analytic_overlaps(p, d, level)
        kernel = d ** (2 * p) - sum(r.multiplicity for r in rows)
        return SpectrumTable(p, d, level, "analytic", rows, kernel)
    if method == "brute":
        vals = rho_eigenvalues(level, p, d)
        rows = []
        kernel = 0
        start = 0
        while start < len(vals):
            stop = start
            while stop + 1 < len(vals) and vals[stop + 1] - vals[start] <= BIN_TOL:
                stop += 1
            group = vals[start : stop + 1]
            mean = float(np.mean(group))
            if abs(mean) <= BIN_TOL:
                kernel += len(group)
            else:
                rows.append(SpectrumRow(mean, len(group)))
            start = stop + 1
        return SpectrumTable(p, d, level, "brute", tuple(rows), kernel)
    raise ValueError(f"unknown method {method!r}")
