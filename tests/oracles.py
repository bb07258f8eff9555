"""The paper's spanning families F and H, the units as factored operators, the per-pair composition residual, the all-sector brute spectra and the register-by-register matching groups, for the tests.

The library never forms F or H: it reads the units off the factors that
these definitions share (``ideal_units._top_factor``, ``_wall_factor`` and
``_wall_diagonal``), and stores each ideal's units as shared bases and
r x r cores, both as one block per weight sector.  Here F and H stay the paper's
definitions, as factored operators, and the units are compared against them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from walledbrauer.ideal_units import GUnit, _indicator, _top_factor, _wall_diagonal, _wall_factor
from walledbrauer.lowrank import FactoredOperator
from walledbrauer.partitions import Partition, multiplicity
from walledbrauer.spectra import _orbit_size, _orbit_sum
from walledbrauer.tensorspace import _weight_sectors


def F_top(mu: Partition, i: int, j: int, nu: Partition, ip: int, jp: int, p: int, d: int) -> FactoredOperator:
    """(E^mu_ij (x) 1) V^(p) (E^nu_{jp,ip} (x) 1), a rank-one operator."""
    if multiplicity(mu, d) == 0 or multiplicity(nu, d) == 0:
        return FactoredOperator.zero(d ** (2 * p))
    return FactoredOperator(_top_factor(mu, i, j, p, d), _top_factor(nu, ip, jp, p, d).T)


def _wall_pair(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d):
    return (
        _wall_factor(mu, nu, i, j, _indicator(mu, nu, alpha), p, d),
        _wall_factor(mup, nup, ip, jp, _indicator(mup, nup, alphap), p, d),
    )


def F_sub(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p: int, d: int) -> FactoredOperator:
    """(E^mu_{i,r_a} (x) E^nu_{j,r_a}) V^(p-1) (E^mup_{c_a',ip} (x) E^nup_{c_a',jp}), compressed.

    The first d^2 columns of the wall factors W(e_alpha) and W'(e_alpha').
    The interior labels r_a and c_a' are the first index of blocks alpha
    and alpha'; the operator does not depend on that choice.  An alpha
    outside the common removals of the row (or column) pair yields the
    zero operator.
    """
    left, right = _wall_pair(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
    return FactoredOperator(left[:, : d * d], right[:, : d * d].T).compress()


@lru_cache(maxsize=None)
def H_operator(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p: int, d: int) -> FactoredOperator:
    """d F_sub - F_top delta^{mu nu} delta^{mu' nu'}; spans the second ideal.  Its factors are read-only.

    One compression of W(e_alpha) D against W'(e_alpha'): the raw pair
    [d X | -t] [Y; t'^T], with X Y^T the uncompressed F_sub factors and
    t t'^T the rank-one F_top.
    """
    left, right = _wall_pair(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
    op = FactoredOperator(left * _wall_diagonal(d), right.T).compress()
    op.L.flags.writeable = op.R.flags.writeable = False
    return op


def factored_trace(op: FactoredOperator) -> float:
    """tr(L R), read off the factors."""
    return float(np.sum(op.L * op.R.T))


def unit_operator(unit: GUnit, m: np.ndarray | None = None) -> FactoredOperator:
    """The unit G_ac = (Q_a M_ac) Q_c^T, or m @ G_ac for a dense square m, on its thin factors.

    Q_a, M_ac and Q_c are scattered from their sector blocks, as ``GUnit.to_dense`` scatters them.
    """
    s = unit.system
    left = s.basis(unit.row) @ unit.core()
    return FactoredOperator(left if m is None else m @ left, s.basis(unit.col).T)


def composition_worst_by_pairs(system) -> float:
    """``checks._composition_worst`` term pair by term pair: every (a, b, b', c) formed exactly.

    ||M_ab X_bb' M_b'c - delta_bb' M_ac||_F over all quadruples of labels,
    with X_bb' = Q_b^T Q_b', its square summed over the sector blocks of M
    and X, plus three times the largest projection residual; the library
    bounds the b != b' pairs instead of forming them.
    """
    n = system.size
    worst = 0.0
    for a in range(n):
        for b in range(n):
            squares = np.zeros((n, n))
            for m, x in zip(system.cores, system.overlaps):
                res = (m[a, b] @ x[b])[:, None] @ m  # [b', c]: M_ab X_bb' M_b'c, one sector block
                res[b] -= m[a]
                squares += np.sum(res**2, axis=(2, 3))
            worst = max(worst, float(np.sqrt(squares).max()))
    return worst + 3.0 * float(system.projection_residual.max(initial=0.0))


def rho_eigenvalues_all_sectors(level: int, p: int, d: int) -> np.ndarray:
    """The eigenvalues of rho(level), ascending, from one dense block per weight sector, every sector.

    The orbit of matchings is scattered into every sector's block, and every
    block is diagonalized; the library diagonalizes one sector per S_d orbit.
    """
    sector, pos, sizes = _weight_sectors(p, d)
    offsets = np.cumsum(sizes**2) - sizes**2
    acc = np.zeros(int(np.sum(sizes**2)))
    _orbit_sum(acc, p, d, level, offsets[sector] + pos * sizes[sector], pos)
    acc /= _orbit_size(p, level)
    vals = []
    for n in sizes[np.r_[True, sizes[1:] != sizes[:-1]]]:  # sizes is sorted
        same = np.flatnonzero(sizes == n)  # consecutive sectors
        start = offsets[same[0]]
        stack = acc[start : start + same.size * n * n].reshape(same.size, n, n)
        vals.append(np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(vals))


def matching_groups_by_register(p: int, d: int, level: int):
    """``spectra._matching_groups`` built one register at a time: the same arrays, in the same order.

    The free digits' index part is grown register by register in register
    order, and the matched pairs' part pair by pair, for every matching.
    """
    n = 2 * p
    place = [d ** (n - 1 - reg) for reg in range(n)]
    for left in combinations(range(p), level):
        for right in permutations(range(p, n), level):
            matched = set(left) | set(right)
            base = np.zeros(1, dtype=np.int64)
            for reg in range(n):
                if reg not in matched:
                    base = (base[:, None] + np.arange(d) * place[reg]).ravel()
            offsets = np.zeros(1, dtype=np.int64)
            for l, r in zip(left, right):
                offsets = (offsets[:, None] + np.arange(d) * (place[l] + place[r])).ravel()
            yield base[:, None] + offsets
