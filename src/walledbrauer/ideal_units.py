"""Spanning operators and irreducible matrix units of the two highest ideals.

Objects built here, all on 2p registers:

* F operators: matrix-unit sandwiches of the ideal generators V^(p) and
  V^(p-1), the raw non-redundant spanning sets, in factored low-rank form.
* The exact rational coefficient pair (a, b) of the V^(p-1) sandwich
  identity, and the symmetric coefficient matrix B built from the b values.
* H operators (the almost-units of the second ideal) and the reduction that
  discards zero modes of a singular B.
* Unit systems: the orthonormal units G(p) and G(p-1) of each ideal.  Every
  unit in one row label of an ideal shares its range, and every unit in one
  column label its co-range, so a system stores one orthonormal basis Q_r
  per label and an r x r core M_rc per unit, G_rc = Q_r M_rc Q_c^T, with
  r = 1 (top ideal) or d^2 - 1 (second ideal).  The system is built per
  label straight from the B diagonalizer, without forming F or H operators;
  F, H and their sums stay here as the paper's definitions and the oracle
  the tests compare the systems against.  ``G_top`` and ``G_sub`` look single
  units up in the cached systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, SemisimplicityError, ZeroMultiplicityError
from .lowrank import FactoredOperator, fraction_rank_det, jacobi_eigh
from .matrix_units import left_side_matrix, right_side_matrix
from .partitions import (
    Partition,
    common_removals,
    dim_irrep,
    multiplicity,
    remove_box,
    schur_weyl_partitions,
)
from .symgroup import prir_position
from .tensorspace import _apply_pair, _check_dim, _frozen, factored_V

ZERO_MODE_RTOL = 1e-10


# ----------------------------------------------------------------------------
# F operators


@dataclass(frozen=True)
class FOperator:
    """A spanning operator of an ideal, with its structured labels."""

    kind: str  # "top" or "sub"
    labels: tuple[Partition, ...]
    indices: tuple[int, ...]
    interior: tuple[Partition, ...] | None
    op: FactoredOperator
    vanishing: bool
    p: int
    d: int

    def to_dense(self) -> np.ndarray:
        return self.op.to_dense()


def F_top(mu: Partition, i: int, j: int, nu: Partition, ip: int, jp: int, p: int, d: int) -> FOperator:
    """(E^mu_ij (x) 1) V^(p) (E^nu_{jp,ip} (x) 1), a rank-one operator."""
    dim = _check_dim(d, 2 * p)
    vanishing = multiplicity(mu, d) == 0 or multiplicity(nu, d) == 0
    if vanishing:
        op = FactoredOperator.zero(dim)
    else:
        v = factored_V(p, p, d)
        left = _apply_pair(left_side_matrix(mu, i, j, d), None, v.L, d, p)
        right = _apply_pair(left_side_matrix(nu, ip, jp, d), None, v.R.T, d, p).T
        op = FactoredOperator(left, right)
    return FOperator("top", (mu, nu), (i, j, ip, jp), None, op, vanishing, p, d)


def F_sub(
    mu: Partition,
    nu: Partition,
    mup: Partition,
    nup: Partition,
    i: int,
    j: int,
    ip: int,
    jp: int,
    alpha: Partition,
    alphap: Partition,
    p: int,
    d: int,
    interior_row: int = 1,
    interior_col: int = 1,
) -> FOperator:
    """(E^mu_{i,r_a} (x) E^nu_{j,r_a}) V^(p-1) (E^mup_{c_a',ip} (x) E^nup_{c_a',jp}).

    The interior labels r_a = (alpha, interior_row) and c_a' =
    (alphap, interior_col) default to the first index of their blocks; the
    operator does not depend on that choice.  An alpha outside the common
    removals of the row (or column) pair yields a labelled zero.
    """
    dim = _check_dim(d, 2 * p)
    labels = (mu, nu, mup, nup)
    ok_row = alpha in common_removals(mu, nu)
    ok_col = alphap in common_removals(mup, nup)
    vanishing = (
        not ok_row
        or not ok_col
        or any(multiplicity(m, d) == 0 for m in labels)
    )
    if vanishing:
        op = FactoredOperator.zero(dim)
    else:
        r = prir_position(mu, alpha, interior_row)
        r2 = prir_position(nu, alpha, interior_row)
        c = prir_position(mup, alphap, interior_col)
        c2 = prir_position(nup, alphap, interior_col)
        v = factored_V(p, p - 1, d)
        left = _apply_pair(left_side_matrix(mu, i, r, d), right_side_matrix(nu, j, r2, d), v.L, d, p)
        right = _apply_pair(
            left_side_matrix(mup, ip, c, d), right_side_matrix(nup, jp, c2, d), v.R.T, d, p
        ).T
        op = FactoredOperator(left, right).compress()
    return FOperator("sub", labels, (i, j, ip, jp), (alpha, alphap), op, vanishing, p, d)


# ----------------------------------------------------------------------------
# sandwich coefficients


@dataclass(frozen=True)
class ABCoefficients:
    """Exact coefficients of V^(p-1) X V^(p-1) = a V^(p) + b V^(p-1)."""

    a: Fraction
    b: Fraction

    def identity_value(self, d: int) -> Fraction:
        return self.a * d + self.b


def trace_with_V_top(
    mu: Partition,
    nu: Partition,
    row_mu: tuple[Partition, int],
    col_mu: tuple[Partition, int],
    row_nu: tuple[Partition, int],
    col_nu: tuple[Partition, int],
    d: int,
) -> Fraction:
    """tr((E^mu (x) E^nu) V^(p)) = m_mu when the units are transposes of each other."""
    if mu == nu and row_mu == row_nu and col_mu == col_nu:
        return Fraction(multiplicity(mu, d))
    return Fraction(0)


def trace_with_V_sub(
    mu: Partition,
    nu: Partition,
    row_mu: tuple[Partition, int],
    col_mu: tuple[Partition, int],
    row_nu: tuple[Partition, int],
    col_nu: tuple[Partition, int],
    d: int,
) -> Fraction:
    """tr((E^mu (x) E^nu) V^(p-1)) in subgroup-adapted labels.

    Nonzero only when each unit is block diagonal in the subgroup label,
    both units sit in the same block alpha, and the row inner indices agree
    across the wall, as do the column inner indices; the value is then
    m_mu m_nu / m_alpha.  The row and column inner indices of one unit need
    not match each other.
    """
    m_mu, m_nu = multiplicity(mu, d), multiplicity(nu, d)
    alpha, i_a = row_mu
    alphap, j_a = col_mu
    beta, k_b = row_nu
    betap, l_b = col_nu
    if (
        m_mu * m_nu != 0
        and alpha == alphap == beta == betap
        and i_a == k_b
        and j_a == l_b
    ):
        return Fraction(m_mu * m_nu, multiplicity(alpha, d))
    return Fraction(0)


def ab_general(
    mu: Partition,
    nu: Partition,
    row_mu: tuple[Partition, int],
    col_mu: tuple[Partition, int],
    row_nu: tuple[Partition, int],
    col_nu: tuple[Partition, int],
    d: int,
) -> ABCoefficients:
    """Sandwich coefficients for E^mu_{row,col} (x) E^nu_{row',col'}.

    All four indices are subgroup-adapted labels (block shape, index inside
    the block).  Exact rationals.
    """
    den = d * (d * d - 1)
    if den == 0:
        raise ParameterError(f"the second ideal needs d >= 2 (its coefficients divide by d(d^2-1)), got d = {d}")
    x = trace_with_V_sub(mu, nu, row_mu, col_mu, row_nu, col_nu, d)
    y = trace_with_V_top(mu, nu, row_mu, col_mu, row_nu, col_nu, d)
    return ABCoefficients(Fraction(d * y - x, den), Fraction(d * x - y, den))


def b_entry(mu: Partition, nu: Partition, alpha: Partition, alphap: Partition, d: int) -> Fraction:
    """One entry of the coefficient matrix B^{mu nu}: b at the first indices of blocks alpha, alpha'."""
    return ab_general(mu, nu, (alpha, 1), (alphap, 1), (alpha, 1), (alphap, 1), d).b


# ----------------------------------------------------------------------------
# the B matrix


def singularity_condition(mu: Partition, d: int) -> bool:
    """Exact integer test: d m_mu equals the sum of m_alpha over alpha = mu - box."""
    return d * multiplicity(mu, d) == sum(multiplicity(a, d) for a in remove_box(mu))


@dataclass(frozen=True)
class BMatrix:
    mu: Partition
    nu: Partition
    d: int
    alphas: tuple[Partition, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    eigenvalues: np.ndarray
    diagonalizer: np.ndarray  # U with B_diag = U B U^T; rows are eigenvectors
    nullity: int
    zero_modes: tuple[int, ...]  # 1-based eigenvalue indices to discard
    singular: bool
    vanishing: bool

    @property
    def size(self) -> int:
        return len(self.alphas)

    def determinant(self) -> Fraction:
        return fraction_rank_det(self.entries)[1]

    def entry_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])

    def is_zero_mode(self, beta: int) -> bool:
        """Whether the 1-based eigenvalue index ``beta`` is a discarded zero mode."""
        if not 1 <= beta <= self.size:
            raise IndexError(f"beta out of range 1..{self.size}")
        return beta in self.zero_modes

    def kept_modes(self) -> tuple[int, ...]:
        return tuple(b for b in range(1, self.size + 1) if b not in self.zero_modes)


@lru_cache(maxsize=None)
def B_matrix(mu: Partition, nu: Partition, d: int) -> BMatrix:
    """The coefficient matrix over the common one-box removals of mu and nu.

    Exact rational entries; the diagonalizer comes from a cyclic Jacobi pass
    (identity when mu != nu, where the matrix is already diagonal).  The
    singular flag is decided by the exact integer condition, and the float
    zero modes are checked against the exact rational nullity.
    """
    alphas = common_removals(mu, nu)
    k = len(alphas)
    entries = tuple(
        tuple(b_entry(mu, nu, a, ap, d) for ap in alphas) for a in alphas
    )
    vanishing = multiplicity(mu, d) == 0 or multiplicity(nu, d) == 0
    dense = np.array([[float(v) for v in row] for row in entries])
    if mu == nu:
        vals, q = jacobi_eigh(dense)
        u = q.T
    else:
        vals = np.diag(dense).copy()
        u = np.eye(k)
    nullity = k - fraction_rank_det(entries)[0]
    top = float(np.max(np.abs(vals))) if k else 0.0
    zero_modes = (
        tuple(b + 1 for b in range(k) if abs(vals[b]) <= ZERO_MODE_RTOL * max(top, 1e-300))
        if k
        else ()
    )
    if len(zero_modes) != nullity:
        raise ArithmeticError(
            f"float zero-mode count {len(zero_modes)} != exact nullity {nullity} for B^({mu},{nu})"
        )
    if mu == nu and not vanishing:
        singular = singularity_condition(mu, d)
        if singular != (nullity > 0):
            raise ArithmeticError(f"integer condition disagrees with exact rank for {mu}, d={d}")
    else:
        singular = nullity > 0
    return BMatrix(mu, nu, d, alphas, entries, vals, u, nullity, zero_modes, singular, vanishing)


# ----------------------------------------------------------------------------
# H operators


@dataclass(frozen=True)
class HOperator:
    labels: tuple[Partition, Partition, Partition, Partition]
    indices: tuple[int, int, int, int]
    interior: tuple[Partition, Partition]
    op: FactoredOperator
    vanishing: bool
    p: int
    d: int

    def to_dense(self) -> np.ndarray:
        return self.op.to_dense()


@lru_cache(maxsize=None)
def H_operator(
    mu: Partition,
    nu: Partition,
    mup: Partition,
    nup: Partition,
    i: int,
    j: int,
    ip: int,
    jp: int,
    alpha: Partition,
    alphap: Partition,
    p: int,
    d: int,
) -> HOperator:
    """d F_sub - F_top delta^{mu nu} delta^{mu' nu'}; spans the second ideal."""
    fs = F_sub(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
    op = d * fs.op
    if mu == nu and mup == nup:
        op = op - F_top(mu, i, j, mup, ip, jp, p, d).op
    op = op.compress()
    vanishing = op.rank_bound == 0 or op.frobenius_norm() <= 1e-12
    return HOperator((mu, nu, mup, nup), (i, j, ip, jp), (alpha, alphap), op, vanishing, p, d)


# ----------------------------------------------------------------------------
# unit systems: shared bases and small cores


# The kept singular values of one row block are all equal in exact
# arithmetic (every unit of a row maps onto the same subspace), and the
# discarded ones are rounding noise, below 4e-15 of the kept ones up to
# (p,d) = (4,3).  The threshold sits far from both.
BASIS_RTOL = 1e-8


def _top_factor(mu: Partition, i: int, j: int, p: int, d: int) -> np.ndarray:
    """(E^mu_ij (x) 1) V^(p).L, a single column."""
    return _apply_pair(left_side_matrix(mu, i, j, d), None, factored_V(p, p, d).L, d, p)


def _sub_factor(mu: Partition, nu: Partition, i: int, j: int, beta: int, p: int, d: int) -> np.ndarray:
    """W_r / sqrt(d lambda_beta), with W_r = [sum_a w_a (E^mu_{i,r_a} (x) E^nu_{j,r_a}) V^(p-1).L | (sum_a w_a) (E^mu_ij (x) 1) V^(p).L delta_{mu nu}].

    w is row beta of the B^{mu nu} diagonalizer.  With D = diag(d, .., d, -1),
    W_r D W_c^T = sum over (alpha, alpha') of w_a w'_a' H_{alpha alpha'},
    since H = d F_sub - F_top delta^{mu nu} delta^{mu' nu'}.
    """
    b = B_matrix(mu, nu, d)
    w = b.diagonalizer[beta - 1]
    lam = b.eigenvalues[beta - 1]
    if lam <= 0:
        raise ArithmeticError(f"nonpositive eigenvalue under square root: {lam} of B^({mu},{nu})")
    v = factored_V(p, p - 1, d).L
    acc = np.zeros_like(v)
    for w_a, alpha in zip(w, b.alphas):
        r, r2 = prir_position(mu, alpha, 1), prir_position(nu, alpha, 1)
        acc += w_a * _apply_pair(left_side_matrix(mu, i, r, d), right_side_matrix(nu, j, r2, d), v, d, p)
    tail = w.sum() * _top_factor(mu, i, j, p, d) if mu == nu else np.zeros((v.shape[0], 1))
    return np.hstack([acc, tail]) / math.sqrt(d * lam)


@dataclass(frozen=True, eq=False)
class UnitSystem:
    """Every irreducible matrix unit of one ideal at (p, d), on shared bases.

    Unit (a, c) is ``G_ac = Q_a M_ac Q_c^T``.  ``bases[a]`` (dim x r,
    orthonormal columns) spans the range of every unit in row a, and
    ``cores[a, c]`` is the r x r core, with r = 1 for the top ideal and
    d^2 - 1 for the second.  The column labels are the row labels and
    G_ca = G_ac^T, so the co-range basis P_c of column c is Q_c.
    ``projection_residual[a]`` is the largest Frobenius distance, over the
    units of row a, between the unit as its factors give it and the
    projection ``Q_a M_ac Q_c^T``.  All arrays are read-only.
    """

    ideal: int
    p: int
    d: int
    labels: tuple
    bases: np.ndarray  # (n, dim, r)
    cores: np.ndarray  # (n, n, r, r)
    projection_residual: np.ndarray  # (n,)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        return {label: a for a, label in enumerate(self.labels)}

    def _flat_bases(self) -> np.ndarray:
        """All bases side by side, dim x (n r)."""
        n, dim, r = self.bases.shape
        return self.bases.transpose(1, 0, 2).reshape(dim, n * r)

    def _blocks(self, gram: np.ndarray) -> np.ndarray:
        """An (n r) x (n r) matrix as its (n, n, r, r) blocks."""
        n, _, r = self.bases.shape
        return gram.reshape(n, r, n, r).transpose(0, 2, 1, 3)

    @cached_property
    def overlaps(self) -> np.ndarray:
        """X[a, c] = Q_a^T Q_c."""
        flat = self._flat_bases()
        return _frozen(self._blocks(flat.T @ flat))

    def operator(self, a: int, c: int) -> FactoredOperator:
        return FactoredOperator(self.bases[a] @ self.cores[a, c], self.bases[c].T)

    def traces_with(self, rho: np.ndarray) -> np.ndarray:
        """(n, n) array of tr(rho G_ac) = tr(M_ac Q_c^T rho Q_a)."""
        flat = self._flat_bases()
        return np.einsum("acij,caji->ac", self.cores, self._blocks(flat.T @ (rho @ flat)))


@lru_cache(maxsize=None)
def unit_system(p: int, d: int, ideal: int) -> UnitSystem:
    """All units of ideal p (top) or p - 1 (second) at (p, d), built per label.

    Each row label r costs one factor W_r and one QR, W_r = Q0_r R0_r.  The
    units are G_rc = W_r D W_c^T s_r s_c with D = (1) and s_r = 1/sqrt(m_mu)
    for the top ideal, and D = diag(d, .., d, -1) and s_r = 1/sqrt(d
    lambda_beta) for the second.  The range of row r over all columns is
    Q0_r times the range of R0_r D [R0_1^T .. R0_n^T]; one QR of the
    stacked R0 and one small SVD per label give it, and its rank must be r.
    """
    if ideal == p:
        labels = top_row_labels(p, d)
        factors = [_top_factor(mu, i, j, p, d) / math.sqrt(multiplicity(mu, d)) for (mu, i, j) in labels]
        diag, rank = np.ones(1), 1
    elif ideal == p - 1:
        labels = sub_row_labels(p, d)
        factors = [_sub_factor(*label, p, d) for label in labels]
        diag, rank = np.array([float(d)] * (d * d) + [-1.0]), d * d - 1
    else:
        raise ValueError(f"ideal must be p = {p} or p - 1 = {p - 1}, got {ideal}")
    n, k, dim = len(labels), diag.size, _check_dim(d, 2 * p)
    if n == 0:
        empty = (np.zeros((0, dim, rank)), np.zeros((0, 0, rank, rank)), np.zeros(0))
        return UnitSystem(ideal, p, d, (), *map(_frozen, empty))
    q0, r0 = np.linalg.qr(np.stack(factors))
    stacked = np.linalg.qr(r0.reshape(n * k, k), mode="r")
    u, s, _ = np.linalg.svd((r0 * diag) @ stacked.T)
    kept = np.count_nonzero(s > BASIS_RTOL * s[:, :1], axis=1)
    if np.any(kept != rank):
        raise ArithmeticError(f"row ranks {sorted(set(kept.tolist()))} != {rank} for ideal {ideal} at (p,d)=({p},{d})")
    u = u[:, :, :rank]
    y = u.transpose(0, 2, 1) @ r0  # Q_a^T W_a in the Q0_a coordinates
    cores = np.einsum("aik,k,cjk->acij", y, diag, y)
    full = np.einsum("aik,k,cjk->acij", r0, diag, r0)
    projected = np.einsum("aik,ackl,cjl->acij", u, cores, u)
    residual = np.sqrt(np.sum((full - projected) ** 2, axis=(2, 3))).max(axis=1)
    return UnitSystem(ideal, p, d, tuple(labels), _frozen(q0 @ u), _frozen(cores), _frozen(residual))


@dataclass(frozen=True)
class GUnit:
    """An irreducible matrix unit of the top ideal (p) or the second ideal (p-1).

    Entry (row, col) of its :class:`UnitSystem`; the operator is formed on
    demand.
    """

    system: UnitSystem = field(repr=False)
    row: int
    col: int

    @property
    def ideal(self) -> int:
        return self.system.ideal

    @property
    def p(self) -> int:
        return self.system.p

    @property
    def d(self) -> int:
        return self.system.d

    @property
    def row_key(self):
        return self.system.labels[self.row]

    @property
    def col_key(self):
        return self.system.labels[self.col]

    @property
    def labels(self) -> tuple[Partition, ...]:
        n = 1 if self.ideal == self.p else 2
        return self.row_key[:n] + self.col_key[:n]

    @property
    def indices(self) -> tuple[int, int, int, int]:
        n = 1 if self.ideal == self.p else 2
        return self.row_key[n : n + 2] + self.col_key[n : n + 2]

    @property
    def interior(self) -> tuple[int, int] | None:
        """Eigenmode labels (beta, beta') for ideal p-1."""
        return None if self.ideal == self.p else (self.row_key[4], self.col_key[4])

    @property
    def op(self) -> FactoredOperator:
        return self.system.operator(self.row, self.col)

    def to_dense(self) -> np.ndarray:
        return self.op.to_dense()

    def trace(self) -> float:
        """tr(Q_a M_ac Q_c^T) = tr(M_ac Q_c^T Q_a), read off the core."""
        s = self.system
        return float(np.sum(s.cores[self.row, self.col] * s.overlaps[self.col, self.row].T))


def _lookup(system: UnitSystem, row, col) -> GUnit:
    try:
        return GUnit(system, system.index[row], system.index[col])
    except KeyError as exc:
        raise IndexError(f"no unit label {exc.args[0]} at (p,d)=({system.p},{system.d})") from None


def G_top(mu: Partition, i: int, j: int, nu: Partition, ip: int, jp: int, p: int, d: int) -> GUnit:
    """F_top / sqrt(m_mu m_nu), looked up in the top-ideal unit system."""
    m1, m2 = multiplicity(mu, d), multiplicity(nu, d)
    if m1 == 0 or m2 == 0:
        raise ZeroMultiplicityError(f"unit undefined: m_{mu} = {m1}, m_{nu} = {m2} at d = {d}")
    return _lookup(unit_system(p, d, p), (mu, i, j), (nu, ip, jp))


def G_sub(
    mu: Partition,
    nu: Partition,
    mup: Partition,
    nup: Partition,
    i: int,
    j: int,
    ip: int,
    jp: int,
    beta: int,
    betap: int,
    p: int,
    d: int,
) -> GUnit:
    """Unit of the second ideal for eigenmode labels (beta, beta').

    Equals sum over (alpha, alpha') of w_{beta,alpha} w'_{beta',alpha'} H /
    (d sqrt(lambda_beta lambda'_beta')), looked up in the second-ideal unit
    system.  beta indexes the eigenvalues of B^{mu nu} (ascending for
    mu = nu, block-diagonal order otherwise); requesting a zero mode is an
    error.
    """
    b_row = B_matrix(mu, nu, d)
    b_col = B_matrix(mup, nup, d)
    for b in (b_row, b_col):
        if b.size == 0:
            raise ZeroMultiplicityError(f"no common removals for {b.mu}, {b.nu}")
    if b_row.is_zero_mode(beta) or b_col.is_zero_mode(betap):
        raise ZeroMultiplicityError(
            f"zero eigenvalue requested: beta={beta} of B^({mu},{nu}), beta'={betap} of B^({mup},{nup})"
        )
    return _lookup(unit_system(p, d, p - 1), (mu, nu, i, j, beta), (mup, nup, ip, jp, betap))


# ----------------------------------------------------------------------------
# unit enumeration


def top_row_labels(p: int, d: int) -> list[tuple[Partition, int, int]]:
    out = []
    for mu in schur_weyl_partitions(p, d):
        for i in range(1, dim_irrep(mu) + 1):
            for j in range(1, dim_irrep(mu) + 1):
                out.append((mu, i, j))
    return out


def sub_row_labels(p: int, d: int) -> list[tuple[Partition, Partition, int, int, int]]:
    """Composite row labels (mu, nu, i, j, beta) of the second-ideal units."""
    if p < 2:
        return []
    out = []
    shapes = schur_weyl_partitions(p, d)
    for mu in shapes:
        for nu in shapes:
            b = B_matrix(mu, nu, d)
            if b.size == 0:
                continue
            for beta in b.kept_modes():
                for i in range(1, dim_irrep(mu) + 1):
                    for j in range(1, dim_irrep(nu) + 1):
                        out.append((mu, nu, i, j, beta))
    return out


# ----------------------------------------------------------------------------
# reduction of a singular block


@dataclass(frozen=True)
class ReducedBasis:
    kept: tuple[int, ...]  # 1-based eigenmode indices that survive
    units: dict[tuple[int, int], FactoredOperator]
    eigenvalues: np.ndarray  # scalar-structure eigenvalues d * b_diag


def reduce_singular_basis(b: BMatrix, generators, tol: float = 1e-9) -> ReducedBasis:
    """Orthonormal matrix units from generators with scalar structure A = d B.

    ``generators[r][c]`` must compose as x_rc x_r'c' = d b(c, r') x_rc'
    (H operators of one diagonal label block do).  Implements the
    diagonalize / discard / rescale pipeline: transform with the B
    eigenvectors, drop the zero modes after checking they really vanish,
    and rescale the survivors into exact matrix units.
    """
    k = b.size
    if k == 0:
        raise ValueError("empty B matrix")
    q = b.diagonalizer.T  # columns are eigenvectors
    lam = b.d * b.eigenvalues
    dim = generators[0][0].dim
    transformed = {}
    for s in range(k):
        for r in range(k):
            acc = FactoredOperator.zero(dim)
            for a in range(k):
                for c in range(k):
                    w = q[a, s] * q[c, r]
                    if w != 0.0:
                        acc = acc + w * generators[a][c]
            transformed[(s, r)] = acc.compress()
    zero_modes = [s for s in range(k) if b.is_zero_mode(s + 1)]
    for z in zero_modes:
        for s in range(k):
            for key in ((s, z), (z, s)):
                norm = transformed[key].frobenius_norm()
                if norm > tol:
                    raise SemisimplicityError(
                        f"discarded generator y[{key}] has norm {norm:.3e} > {tol}"
                    )
    kept = tuple(s + 1 for s in range(k) if s not in zero_modes)
    units = {}
    for s in kept:
        for r in kept:
            scale = 1.0 / math.sqrt(lam[s - 1] * lam[r - 1])
            units[(s, r)] = scale * transformed[(s - 1, r - 1)]
    return ReducedBasis(kept, units, lam)


# ----------------------------------------------------------------------------
# the generator of the second ideal in the constructed basis


@dataclass(frozen=True)
class Vpm1Term:
    kind: str  # "H" or "F_top"
    coefficient: Fraction
    alpha: Partition
    beta: Partition
    labels: tuple[Partition, Partition, Partition, Partition]
    outer: tuple[int, int]


@dataclass(frozen=True)
class Vpm1Decomposition:
    terms: tuple[Vpm1Term, ...]
    residual: float


def decompose_Vpm1(p: int, d: int) -> Vpm1Decomposition:
    """Reassemble V^(p-1) from H operators plus top-ideal units.

    Sums, over all pairs of one-box-smaller shapes (alpha, beta), additions
    mu, mu' of alpha and nu, nu' of beta, and inner indices, the H operator
    with matching subgroup-adapted outer labels plus the diagonal top-ideal
    term when mu = mu' and nu = nu'.  Every term carries coefficient 1/d.
    The reported residual compares the sum against the directly constructed
    V^(p-1).
    """
    from .partitions import add_box, enumerate_partitions
    from .tensorspace import V_generator

    if p < 2:
        raise ParameterError(f"the expansion of V^(p-1) over H operators needs p >= 2, got p = {p}")
    dim = _check_dim(d, 2 * p)
    acc = np.zeros((dim, dim))
    terms = []
    weight = Fraction(1, d)
    smaller = [a for a in enumerate_partitions(p - 1) if multiplicity(a, d) > 0]
    for alpha in smaller:
        for beta in smaller:
            adds_a = [m for m in add_box(alpha) if multiplicity(m, d) > 0]
            adds_b = [m for m in add_box(beta) if multiplicity(m, d) > 0]
            for mu in adds_a:
                for mup in adds_a:
                    for nu in adds_b:
                        for nup in adds_b:
                            for ia in range(1, dim_irrep(alpha) + 1):
                                for jb in range(1, dim_irrep(beta) + 1):
                                    r1 = prir_position(mu, alpha, ia)
                                    r2 = prir_position(mup, alpha, ia)
                                    c1 = prir_position(nu, beta, jb)
                                    c2 = prir_position(nup, beta, jb)
                                    h = H_operator(mu, mup, nu, nup, r1, r2, c1, c2, alpha, beta, p, d)
                                    acc += float(weight) * h.to_dense()
                                    terms.append(
                                        Vpm1Term("H", weight, alpha, beta, (mu, mup, nu, nup), (ia, jb))
                                    )
                                    if mu == mup and nu == nup:
                                        f = F_top(mu, r1, r1, nu, c1, c1, p, d)
                                        acc += float(weight) * f.to_dense()
                                        terms.append(
                                            Vpm1Term("F_top", weight, alpha, beta, (mu, mu, nu, nu), (ia, jb))
                                        )
    target = V_generator(p, p - 1, d).matrix
    residual = float(np.max(np.abs(acc - target)))
    return Vpm1Decomposition(tuple(terms), residual)
