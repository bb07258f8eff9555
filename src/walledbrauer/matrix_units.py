"""Irreducible matrix units of C[S_p] in the natural representation.

A unit is the weighted permutation sum

    E^mu_ij = (d_mu / p!) sum_sigma phi^mu_ji(sigma^-1) V_sigma

acting on p registers.  Each V_sigma holds a single 1 per column, at the
row ``permutation_index`` gives, so the sum is scattered straight into one
cached d^p x d^p array.  Two wall-side frames are provided: the left side
conjugates by the register reversal (its subgroup-adapted basis is built
from register p down to register 1, so the last point of the chain sits on
register 1), which is the gather of the cached array at the digit-reversed
rows and columns; the right side is the cached array itself, on registers
p+1..2p in natural order.  When ht(mu) > d the unit is the zero matrix
(m_mu = 0) rather than rejected; sums over mu = alpha + box need those zero
terms at small d.  The identities of the units (composition, traces,
branching, partial traces, completeness) are checked in
``checks.suite_matrix_units``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .partitions import Partition, dim_irrep, multiplicity
from .symgroup import enumerate_group, young_orthogonal_rep
from .tensorspace import (
    DenseOperator,
    _check_dense,
    _digit_reversal,
    _frozen,
    embed_operator,
    permutation_index,
)


@lru_cache(maxsize=None)
def _unit_matrix(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    dmu = dim_irrep(mu)
    if not (1 <= i <= dmu and 1 <= j <= dmu):
        raise IndexError(f"unit indices ({i},{j}) out of range 1..{dmu}")
    p = mu.total
    dim = _check_dense(d, p)
    if multiplicity(mu, d) == 0:
        return _frozen(np.zeros((dim, dim)))
    scale = dmu / math.factorial(p)
    out = np.zeros((dim, dim))
    cols = np.arange(dim)
    for sigma in enumerate_group(p):
        # orthogonal rep: phi_ji(sigma^-1) = phi_ij(sigma)
        w = young_orthogonal_rep(mu, sigma)[i - 1, j - 1]
        if w != 0.0:
            out[permutation_index(sigma, d, p), cols] += w
    return _frozen(scale * out)


def E_unit(mu: Partition, i: int, j: int, d: int) -> DenseOperator:
    """The natural-representation unit E^mu_ij on p = |mu| registers; zero when m_mu = 0."""
    return DenseOperator(d, mu.total, _unit_matrix(mu, i, j, d))


def left_side_matrix(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    """E^mu_ij in the left-wall frame (basis built from register p down to 1).

    The reversal R of the registers permutes basis indices by reading each
    word backwards, so R E R is the gather of E at the reversed rows and
    columns: a new array, formed on each call.
    """
    rev = _digit_reversal(d, mu.total)
    return _unit_matrix(mu, i, j, d)[np.ix_(rev, rev)]


def right_side_matrix(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    """E^mu_ij in the right-wall frame (natural register order)."""
    return _unit_matrix(mu, i, j, d)


def embed_left(mu: Partition, i: int, j: int, d: int) -> DenseOperator:
    """The left-wall unit E^mu_ij on registers 1..p of 2p, p = |mu|, identity on p+1..2p."""
    p = mu.total
    return embed_operator(DenseOperator(d, p, left_side_matrix(mu, i, j, d)), range(1, p + 1), 2 * p)


def embed_right(mu: Partition, i: int, j: int, d: int) -> DenseOperator:
    """The right-wall unit E^mu_ij on registers p+1..2p of 2p, p = |mu|, identity on 1..p."""
    p = mu.total
    return embed_operator(DenseOperator(d, p, right_side_matrix(mu, i, j, d)), range(p + 1, 2 * p + 1), 2 * p)

