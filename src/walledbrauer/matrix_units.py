"""Irreducible matrix units of C[S_p] in the natural representation.

A unit is the weighted permutation sum

    E^mu_ij = (d_mu / p!) sum_sigma phi^mu_ji(sigma^-1) V_sigma

acting on p registers.  Two wall-side embeddings into 2p registers are
provided: the left side conjugates by the register reversal (its
subgroup-adapted basis is built from register p down to register 1, so the
last point of the chain sits on register 1), the right side uses registers
p+1..2p in natural order.  When ht(mu) > d the unit is the zero matrix and
is flagged ``vanishing`` rather than rejected; sums over mu = alpha + box
need those zero terms at small d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import Partition, add_box, dim_irrep, multiplicity, enumerate_partitions
from .symgroup import PrirIndex, enumerate_group, prir_position, young_orthogonal_rep
from .tensorspace import (
    DenseOperator,
    _frozen,
    embed_operator,
    partial_trace,
    permutation_operator,
    register_reversal,
)

COMPARE_TOL = 1e-10


@dataclass(frozen=True)
class MatrixUnitE:
    mu: Partition
    i: int
    j: int
    operator: DenseOperator
    vanishing: bool


@lru_cache(maxsize=None)
def _unit_matrix(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    p = mu.total
    dim = d**p
    if multiplicity(mu, d) == 0:
        return _frozen(np.zeros((dim, dim)))
    scale = dim_irrep(mu) / math.factorial(p)
    out = np.zeros((dim, dim))
    for sigma in enumerate_group(p):
        # orthogonal rep: phi_ji(sigma^-1) = phi_ij(sigma)
        w = young_orthogonal_rep(mu, sigma).matrix[i - 1, j - 1]
        if w != 0.0:
            out += w * permutation_operator(sigma, d, p).matrix
    return _frozen(scale * out)


def E_unit(mu: Partition, i: int, j: int, d: int) -> MatrixUnitE:
    """The natural-representation unit E^mu_ij on p = |mu| registers."""
    dmu = dim_irrep(mu)
    if not (1 <= i <= dmu and 1 <= j <= dmu):
        raise IndexError(f"unit indices ({i},{j}) out of range 1..{dmu}")
    mat = _unit_matrix(mu, i, j, d)
    return MatrixUnitE(mu, i, j, DenseOperator(d, mu.total, mat), multiplicity(mu, d) == 0)


def E_unit_prir(mu: Partition, row: PrirIndex, col: PrirIndex, d: int) -> MatrixUnitE:
    """E^mu with row and column given as subgroup-adapted labels."""
    if row.mu != mu or col.mu != mu:
        raise ValueError("PRIR labels must belong to mu")
    i = prir_position(mu, row.alpha, row.i_alpha)
    j = prir_position(mu, col.alpha, col.i_alpha)
    return E_unit(mu, i, j, d)


@lru_cache(maxsize=None)
def young_projector(mu: Partition, d: int) -> DenseOperator:
    """P_mu = sum_i E^mu_ii; zero when the irrep does not appear at this d."""
    p = mu.total
    out = np.zeros((d**p, d**p))
    for i in range(1, dim_irrep(mu) + 1):
        out += _unit_matrix(mu, i, i, d)
    return DenseOperator(d, p, _frozen(out))


@lru_cache(maxsize=None)
def _reversal_matrix(p: int, d: int) -> np.ndarray:
    return _frozen(permutation_operator(register_reversal(p), d, p).matrix)


@lru_cache(maxsize=None)
def left_side_matrix(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    """E^mu_ij in the left-wall frame (basis built from register p down to 1)."""
    rev = _reversal_matrix(mu.total, d)
    return _frozen(rev @ _unit_matrix(mu, i, j, d) @ rev)


def right_side_matrix(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    """E^mu_ij in the right-wall frame (natural register order)."""
    return _unit_matrix(mu, i, j, d)


def embed_left(unit: MatrixUnitE, p: int) -> DenseOperator:
    """The left-wall unit on registers 1..p of 2p, identity on p+1..2p."""
    if unit.mu.total != p:
        raise ValueError("unit must act on p registers")
    d = unit.operator.d
    small = DenseOperator(d, p, left_side_matrix(unit.mu, unit.i, unit.j, d))
    return embed_operator(small, range(1, p + 1), 2 * p)


def embed_right(unit: MatrixUnitE, p: int) -> DenseOperator:
    """The right-wall unit on registers p+1..2p of 2p, identity on 1..p."""
    if unit.mu.total != p:
        raise ValueError("unit must act on p registers")
    d = unit.operator.d
    small = DenseOperator(d, p, right_side_matrix(unit.mu, unit.i, unit.j, d))
    return embed_operator(small, range(p + 1, 2 * p + 1), 2 * p)


def branching_expand(alpha: Partition, i: int, j: int, p: int, d: int) -> DenseOperator:
    """E^alpha_ij (x) 1 on p registers, checked against the one-box branching sum.

    The unit of S_{p-1} tensored with the identity on register p equals the
    sum over mu = alpha + box of E^mu at the matching subgroup-adapted
    indices.  Raises if the numerical identity fails.
    """
    if alpha.total != p - 1:
        raise ValueError("alpha must be a partition of p - 1")
    small = E_unit(alpha, i, j, d).operator
    lhs = embed_operator(small, range(1, p), p)
    rhs = DenseOperator.zeros(d, p)
    for mu in add_box(alpha):
        gi = prir_position(mu, alpha, i)
        gj = prir_position(mu, alpha, j)
        rhs = rhs + E_unit(mu, gi, gj, d).operator
    if lhs.distance(rhs) > COMPARE_TOL:
        raise ArithmeticError(f"branching identity failed for {alpha}: {lhs.distance(rhs)}")
    return lhs


def partial_trace_E(mu: Partition, row: PrirIndex, col: PrirIndex, d: int) -> DenseOperator:
    """Trace the last register out of E^mu and check the closed form.

    tr_p E^mu_{i_alpha j_alpha'} = (m_mu / m_alpha) E^alpha_{i j} delta_{alpha alpha'}.
    """
    traced = partial_trace(E_unit_prir(mu, row, col, d).operator, [mu.total])
    if row.alpha != col.alpha:
        expected = DenseOperator.zeros(d, mu.total - 1)
    else:
        m_mu = multiplicity(mu, d)
        m_a = multiplicity(row.alpha, d)
        small = E_unit(row.alpha, row.i_alpha, col.i_alpha, d).operator
        expected = (m_mu / m_a) * small if m_a else DenseOperator.zeros(d, mu.total - 1)
    if traced.distance(expected) > COMPARE_TOL:
        raise ArithmeticError(f"partial-trace identity failed for {mu}: {traced.distance(expected)}")
    return traced


def completeness_defect(p: int, d: int) -> float:
    """Max-abs deviation of sum_mu P_mu from the identity."""
    total = DenseOperator.zeros(d, p)
    for mu in enumerate_partitions(p):
        total = total + young_projector(mu, d)
    return total.distance(DenseOperator.identity(d, p))
