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
terms at small d.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .partitions import Partition, add_box, dim_irrep, multiplicity, enumerate_partitions
from .symgroup import enumerate_group, prir_position, young_orthogonal_rep
from .tensorspace import (
    DenseOperator,
    _check_dense,
    _digit_reversal,
    _frozen,
    embed_operator,
    partial_trace,
    permutation_index,
)

COMPARE_TOL = 1e-10


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


@lru_cache(maxsize=None)
def young_projector(mu: Partition, d: int) -> DenseOperator:
    """P_mu = sum_i E^mu_ii; zero when the irrep does not appear at this d."""
    dim = _check_dense(d, mu.total)
    out = np.zeros((dim, dim))
    for i in range(1, dim_irrep(mu) + 1):
        out += _unit_matrix(mu, i, i, d)
    return DenseOperator(d, mu.total, _frozen(out))


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


def branching_expand(alpha: Partition, i: int, j: int, p: int, d: int) -> DenseOperator:
    """E^alpha_ij (x) 1 on p registers, checked against the one-box branching sum.

    The unit of S_{p-1} tensored with the identity on register p equals the
    sum over mu = alpha + box of E^mu at the matching subgroup-adapted
    indices.  Raises if the numerical identity fails.
    """
    if alpha.total != p - 1:
        raise ValueError("alpha must be a partition of p - 1")
    small = E_unit(alpha, i, j, d)
    lhs = embed_operator(small, range(1, p), p)
    rhs = DenseOperator.zeros(d, p)
    for mu in add_box(alpha):
        gi = prir_position(mu, alpha, i)
        gj = prir_position(mu, alpha, j)
        rhs = rhs + E_unit(mu, gi, gj, d)
    if lhs.distance(rhs) > COMPARE_TOL:
        raise ArithmeticError(f"branching identity failed for {alpha}: {lhs.distance(rhs)}")
    return lhs


def partial_trace_E(mu: Partition, row: tuple[Partition, int], col: tuple[Partition, int], d: int) -> DenseOperator:
    """Trace the last register out of E^mu, row and column given as (alpha, i_alpha) labels, and check the closed form.

    tr_p E^mu_{i_alpha j_alpha'} = (m_mu / m_alpha) E^alpha_{i j} delta_{alpha alpha'}.
    """
    (alpha, i), (alphap, j) = row, col
    traced = partial_trace(E_unit(mu, prir_position(mu, alpha, i), prir_position(mu, alphap, j), d), [mu.total])
    if alpha != alphap:
        expected = DenseOperator.zeros(d, mu.total - 1)
    else:
        m_mu = multiplicity(mu, d)
        m_a = multiplicity(alpha, d)
        expected = (m_mu / m_a) * E_unit(alpha, i, j, d) if m_a else DenseOperator.zeros(d, mu.total - 1)
    if traced.distance(expected) > COMPARE_TOL:
        raise ArithmeticError(f"partial-trace identity failed for {mu}: {traced.distance(expected)}")
    return traced


def completeness_defect(p: int, d: int) -> float:
    """Max-abs deviation of sum_mu P_mu from the identity, every E^mu_ii added into one running sum."""
    dim = _check_dense(d, p)
    total = np.zeros((dim, dim))
    for mu in enumerate_partitions(p):
        for i in range(1, dim_irrep(mu) + 1):
            total += _unit_matrix(mu, i, i, d)
    total.flat[:: dim + 1] -= 1.0
    return float(np.max(np.abs(total, out=total)))
