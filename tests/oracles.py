"""The paper's spanning families F and H, and the units as factored operators, for the tests.

The library never forms F or H: it reads the units off the factors that
these definitions share (``ideal_units._top_factor``, ``_wall_factor`` and
``_wall_diagonal``), and stores each ideal's units as shared bases and
r x r cores.  Here F and H stay the paper's definitions, as factored
operators, and the units are compared against them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from walledbrauer.ideal_units import GUnit, _indicator, _top_factor, _wall_diagonal, _wall_factor
from walledbrauer.lowrank import FactoredOperator
from walledbrauer.partitions import Partition, multiplicity


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
    """The unit G_ac = (Q_a M_ac) Q_c^T, or m @ G_ac for a dense square m, on its thin factors."""
    s = unit.system
    left = s.bases[unit.row] @ s.cores[unit.row, unit.col]
    return FactoredOperator(left if m is None else m @ left, s.bases[unit.col].T)
