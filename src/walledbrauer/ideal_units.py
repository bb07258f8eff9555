"""Spanning operators and irreducible matrix units of the two highest ideals.

Objects built here, all on 2p registers:

* The exact rational coefficient pair (a, b) of the V^(p-1) sandwich
  identity, and the symmetric coefficient matrix B built from the b values,
  with the pencil matrix T of the traces tr(rho(p-1) H).  One exact LDL^T
  of B and one eigh of the pencil (T, B) on B's range give the one interior
  basis of the second ideal (``BMatrix.modes``).
  ``second_ideal_blocks`` is the one enumerator of the blocks (mu, nu) of
  the second ideal, the shape pairs with a common one-box removal.
* Unit systems: the orthonormal units G(p) and G(p-1) of each ideal,
  G_ac = Q_a M_ac Q_c^T with one orthonormal basis Q_a per label and an
  r x r core per unit, r = 1 (top ideal) or d^2 - 1 (second ideal).  They
  are group-adapted to C[S_p] x C[S_p]: each is its seeds' unit, the labels
  with indices (1, 1), moved by E^mu_{i1} (x) E^nu_{j1}, so a system stores
  the seeds alone, each seed basis as its blocks on the U (x) conj(U)
  weight sectors it touches and the cores as their sector blocks.
  ``G_top`` and ``G_sub`` look single units up in the cached systems.
* One packer, ``_pack_columns``, through which every consumer of a unit
  factor reads its sector blocks.  It takes the factor one column at a
  time, and writes each column's sector rows straight into its block, so
  no factor of d^(2p) rows is formed.  It is the one place where weight
  conservation is checked: it raises ArithmeticError unless every nonzero
  entry of a column lies in that column's sector.

The paper spans the ideals by the sandwiches F^(p) and F^(p-1) of the
generators V^(p) and V^(p-1) by matrix units, and the second ideal by the
almost-units H = d F^(p-1) - F^(p).  Neither is formed here: the units are
read off the factors those definitions share, and F and H live in the
tests, as the oracle the units are compared against.  The second ideal has
one builder, the wall factor W(w), formed column by column
(``_wall_columns``) and packed as it goes (``_wall_pack``), and paired by
the metric D (``_wall_diagonal``): with w an indicator it gives F^(p-1)
and H, and with w a generalized eigenvector w~ of (T, B) the second-ideal
units, which the twirled generator rho(p-1) then maps onto multiples of
themselves.  The kernel of a singular B gets no label, and
``checks.suite_reduction`` checks on the same wall factors that the pairs
its rows would enter vanish.
``checks.suite_generators`` reassembles V^(p-1) from the same factors: the
sum of the H terms and the top-ideal terms is (S D S^T + T T^T) / d, with S
the sum of the wall factors and T the sum of the top columns, checked by
one factored difference per U (x) conj(U) weight sector.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ParameterError, ZeroMultiplicityError
from .matrix_units import left_side_matrix, right_side_matrix
from .partitions import (
    Frozen,
    Partition,
    _check_exact_cells,
    add_box,
    common_removals,
    dim_irrep,
    multiplicity,
    remove_box,
    schur_weyl_partitions,
)
from .symgroup import prir_position
from .tensorspace import _apply_top, _check_dim, _digit_reversal, _frozen, _weight_sectors


def has_second_ideal(p: int, d: int) -> bool:
    """Whether the second-highest ideal, generated by V^(p-1), exists at (p, d).

    V^(p-1) pairs p - 1 registers across the wall and leaves one pair free,
    so it needs p >= 2; the sandwich coefficients (a, b) of the second ideal
    divide by d(d^2 - 1), so it needs d >= 2.
    """
    return p >= 2 and d >= 2


# ----------------------------------------------------------------------------
# the factors of F and H: one top column and one wall factor


def _top_factor(mu: Partition, i: int, j: int, p: int, d: int) -> np.ndarray:
    """(E^mu_ij (x) 1) V^(p).L, a single column t; F^(p) = t t'^T."""
    return _apply_top(left_side_matrix(mu, i, j, d), p, d)


def _wall_diagonal(d: int) -> np.ndarray:
    """D = diag(d, .., d, -1), the metric that pairs two wall factors into H."""
    return np.array([float(d)] * (d * d) + [-1.0])


def _wall_columns(mu: Partition, nu: Partition, i: int, j: int, w: np.ndarray, p: int, d: int):
    """The columns of W(w), in order, each a flat d^(2p) array formed on its own.

    W(w) = [sum_a w_a (E^mu_{i,r_a} (x) E^nu_{j,r_a}) V^(p-1).L | (sum_a w_a) (E^mu_ij (x) 1) V^(p).L delta_{mu nu}].
    w weighs the common removals alpha of mu and nu, in the order of
    ``common_removals(mu, nu)``, and r_a is the first index of block alpha.
    With D = ``_wall_diagonal(d)``, W(e_a) D W'(e_a')^T is H_{a a'}, and
    W(w~_b) D W'(w~_b')^T / d, with w~ the rows of ``BMatrix.modes``, is the unit G_sub.

    Column (f, g) of the wall part is sum_a w_a A^a_f B^a_g, one d^p x d^p
    GEMM per term over the p - 1 paired digits, with A^a_f the left matrix's
    columns (f, rev u) and B^a_g the right matrix's columns (u, g),
    transposed: the dot products of the wall product (A (x) B) L.
    """
    _check_dim(d, 2 * p)
    dp, dk = d**p, d ** (p - 1)
    rev = _digit_reversal(d, p - 1)
    terms = []
    for w_a, alpha in zip(w, common_removals(mu, nu)):
        if w_a:
            r, r2 = prir_position(mu, alpha, 1), prir_position(nu, alpha, 1)
            a = left_side_matrix(mu, i, r, d).reshape(dp, d, dk)[:, :, rev].transpose(1, 0, 2).copy()
            b = right_side_matrix(nu, j, r2, d).reshape(dp, dk, d).transpose(2, 1, 0).copy()
            terms.append((w_a, a, b))
    for f in range(d):
        for g in range(d):
            out = np.zeros(dp * dp)
            for w_a, a, b in terms:
                out += w_a * (a[f] @ b[g]).reshape(-1)
            yield out
    yield w.sum() * _top_factor(mu, i, j, p, d)[:, 0] if mu == nu else np.zeros(dp * dp)


def _wall_pack(mu: Partition, nu: Partition, i: int, j: int, w: np.ndarray, p: int, d: int) -> np.ndarray:
    """W(w) packed into its weight-sector blocks (``_pack_columns``), one column formed at a time."""
    return _pack_columns(_wall_columns(mu, nu, i, j, w, p, d), p, d, p - 1)


def _indicator(mu: Partition, nu: Partition, alpha: Partition) -> np.ndarray:
    """e_alpha over the common removals of mu and nu; all zero when alpha is not one of them."""
    return np.array([float(a == alpha) for a in common_removals(mu, nu)])


# ----------------------------------------------------------------------------
# sandwich coefficients


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
) -> tuple[Fraction, Fraction]:
    """Sandwich coefficients (a, b) of V^(p-1) X V^(p-1) = a V^(p) + b V^(p-1) for X = E^mu_{row,col} (x) E^nu_{row',col'}.

    All four indices are subgroup-adapted labels (block shape, index inside
    the block).  Exact rationals.
    """
    den = d * (d * d - 1)
    if den == 0:
        raise ParameterError(f"the second ideal needs d >= 2 (its coefficients divide by d(d^2-1)), got d = {d}")
    x = trace_with_V_sub(mu, nu, row_mu, col_mu, row_nu, col_nu, d)
    y = trace_with_V_top(mu, nu, row_mu, col_mu, row_nu, col_nu, d)
    return Fraction(d * y - x, den), Fraction(d * x - y, den)


def b_entry(mu: Partition, nu: Partition, alpha: Partition, alphap: Partition, d: int) -> Fraction:
    """One entry of the coefficient matrix B^{mu nu}: b at the first indices of blocks alpha, alpha'."""
    return ab_general(mu, nu, (alpha, 1), (alphap, 1), (alpha, 1), (alphap, 1), d)[1]


# ----------------------------------------------------------------------------
# the B matrix


def t_entry(mu: Partition, nu: Partition, alpha: Partition, alphap: Partition, d: int) -> Fraction:
    """One entry of the pencil matrix T^{mu nu}: tr(rho(p-1) H_{alpha alpha'}) for an H with diagonal outer indices.

    With b the bracket [mu = nu](d m_mu^2 d_mu - m_mu^3 (d_a / m_a + d_a' / m_a'))
    + [a = a'] d (m_mu m_nu)^2 d_a / (m_a m_a'), the entry is
    b / ((d^2 - 1) d_mu d_nu) - [mu = nu] m_mu^2 / (d d_mu); b m_a m_a' is
    formed in integers.
    """
    m_mu, m_nu = multiplicity(mu, d), multiplicity(nu, d)
    dm, dn = dim_irrep(mu), dim_irrep(nu)
    m_a, m_ap = multiplicity(alpha, d), multiplicity(alphap, d)
    num = d * (m_mu * m_nu) ** 2 * dim_irrep(alpha) if alpha == alphap else 0
    if mu == nu:
        num += m_mu**2 * (d * dm * m_a * m_ap - m_mu * (dim_irrep(alpha) * m_ap + dim_irrep(alphap) * m_a))
    value = Fraction(num, m_a * m_ap * (d * d - 1) * dm * dn)
    return value - Fraction(m_mu * m_mu, d * dm) if mu == nu else value


def singularity_condition(mu: Partition, d: int) -> bool:
    """Exact integer test: d m_mu equals the sum of m_alpha over alpha = mu - box."""
    return d * multiplicity(mu, d) == sum(multiplicity(a, d) for a in remove_box(mu))


def exact_ldl(rows) -> tuple[list[list[Fraction]], list[Fraction]]:
    """L^(-1) and the pivots D of a symmetric positive semidefinite rational B = L diag(D) L^T, L unit lower triangular.

    One elimination without pivoting, whose row operations, applied to the
    identity, give L^(-1): L^(-1) B L^(-T) = diag(D), and row j of L^(-1)
    solves L^T x = e_j.  A negative pivot, or a zero pivot whose column
    below it is not zero, shows that B is not positive semidefinite, and
    raises ArithmeticError; a zero pivot eliminates nothing.
    """
    a = [list(r) for r in rows]
    k = len(a)
    if any(len(r) != k for r in a) or any(a[i][j] != a[j][i] for i in range(k) for j in range(i)):
        raise ValueError("the LDL^T needs a square symmetric matrix")
    inverse = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    pivots = []
    for j in range(k):
        pivot = a[j][j]
        if pivot < 0 or (pivot == 0 and any(a[i][j] for i in range(j + 1, k))):
            raise ArithmeticError(f"not positive semidefinite: pivot {pivot} at {j} of an exact LDL^T")
        pivots.append(pivot)
        if not pivot:
            continue
        for i in range(j + 1, k):
            f = a[i][j] / pivot
            a[i] = [u - f * v for u, v in zip(a[i], a[j])]
            inverse[i] = [u - f * v for u, v in zip(inverse[i], inverse[j])]
    return inverse, pivots


def _signed(columns: np.ndarray) -> np.ndarray:
    """The columns, each made to have its first component of significant size positive.

    Significant is above 1e-12 of the column's largest component: a smaller
    one is the rounding of an exact zero, whose sign carries nothing.
    """
    for col in columns.T:
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if nz.size and col[nz[0]] < 0:
            col *= -1.0
    return columns


class BMatrix(Frozen):
    """The coefficient matrix B^{mu nu}: exact entries and determinant, and the one interior basis of its units.

    One exact LDL^T of B (``exact_ldl``) gives its rank and determinant,
    the kernel, and X = L^(-T) D^(-1/2) on the nonzero pivots, with
    X^T B X = 1.  With eigh(X^T T X) = V Lambda V^T, for T the pencil
    matrix of ``t_entry``, the rows ``modes[beta - 1]`` are
    w~_beta = (X V)[:, beta - 1]: they solve T w~ = Lambda_beta B w~ with
    w~^T B w~ = 1, ascending in ``pencil`` = Lambda, each first significant
    component positive.  beta runs over 1..rank, and the unit of label beta
    reads the wall factor W(w~_beta).  ``kernel`` holds the exact kernel
    rows, the x with L^T x = e_j at each zero pivot j, scaled to unit
    length.  All arrays are read-only.
    """

    __slots__ = ("mu", "nu", "d", "alphas", "entries", "det", "modes", "pencil", "kernel", "vanishing")
    mu: Partition
    nu: Partition
    d: int
    alphas: tuple[Partition, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    det: Fraction  # exact, the product of the LDL^T pivots
    modes: np.ndarray  # (rank, size): the rows w~_beta
    pencil: np.ndarray  # (rank,): Lambda_beta, ascending
    kernel: np.ndarray  # (nullity, size)
    vanishing: bool

    @property
    def size(self) -> int:
        return len(self.alphas)

    @property
    def rank(self) -> int:
        return len(self.modes)

    @property
    def nullity(self) -> int:
        return len(self.kernel)

    @property
    def singular(self) -> bool:
        return self.nullity > 0

    def entry_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries]).reshape(self.size, self.size)

    @property
    def eigenvalues(self) -> np.ndarray:
        """B's own eigenvalues, ascending; for display: the units read ``modes``.

        The exact LDL^T shows B positive semidefinite with nullity zero
        eigenvalues, so the smallest nullity of them are exact zeros, not
        the signed rounding that eigvalsh returns for them.
        """
        values = np.linalg.eigvalsh(self.entry_float())
        values[: self.nullity] = 0.0
        return _frozen(values)

    @property
    def diagonalizer(self) -> np.ndarray:
        """U with U B U^T diagonal, its rows B's eigenvectors in the order of ``eigenvalues``; for display."""
        return _frozen(_signed(np.linalg.eigh(self.entry_float())[1]).T)


@lru_cache(maxsize=None)
def B_matrix(mu: Partition, nu: Partition, d: int) -> BMatrix:
    """The coefficient matrix over the common one-box removals of mu and nu, with its pencil basis.

    Exact rational entries, one exact LDL^T, and the generalized eigenbasis
    of (T, B) on B's range (see :class:`BMatrix`).  B is singular when the
    exact rank says so; for mu = nu that is checked against the exact
    integer condition.
    """
    alphas = common_removals(mu, nu)
    _check_exact_cells(mu.total, len({mu, nu, *alphas}), "B^({},{}) at d = {}", mu, nu, d)
    k = len(alphas)
    entries = tuple(
        tuple(b_entry(mu, nu, a, ap, d) for ap in alphas) for a in alphas
    )
    vanishing = multiplicity(mu, d) == 0 or multiplicity(nu, d) == 0
    inverse, pivots = exact_ldl(entries)
    kept = np.array([v != 0 for v in pivots], dtype=bool)
    inv_t = np.array(inverse, dtype=float).reshape(k, k)  # row j: L^(-T) e_j
    kernel = inv_t[~kept] / np.linalg.norm(inv_t[~kept], axis=1, keepdims=True)
    x = inv_t[kept].T / np.sqrt(np.array(pivots, dtype=float)[kept])
    # T divides by m_alpha, defined wherever B has a nonzero entry
    t = np.array([[float(t_entry(mu, nu, a, ap, d)) for ap in alphas] for a in alphas]) if kept.any() else np.zeros((k, k))
    pencil, v = np.linalg.eigh(x.T @ t @ x)
    modes = _signed(x @ v).T
    if mu == nu and not vanishing and (len(kernel) > 0) != singularity_condition(mu, d):
        raise ArithmeticError(f"integer condition disagrees with exact rank for {mu}, d={d}")
    det = math.prod(pivots, start=Fraction(1))
    return BMatrix(mu, nu, d, alphas, entries, det, _frozen(modes), _frozen(pencil), _frozen(kernel), vanishing)


def second_ideal_blocks(p: int, d: int) -> list[BMatrix]:
    """B^{mu nu} of every block (mu, nu) of the second ideal, mu and nu in shape order; none without that ideal.

    The blocks are the shape pairs with a common one-box removal, so each nu
    is alpha + box with alpha = mu - box, and no empty B is built.
    """
    if not has_second_ideal(p, d):
        return []
    shapes = schur_weyl_partitions(p, d)
    position = {mu: k for k, mu in enumerate(shapes)}
    out = []
    for mu in shapes:
        partners = {nu for alpha in remove_box(mu) for nu in add_box(alpha) if nu in position}
        out.extend(B_matrix(mu, nu, d) for nu in sorted(partners, key=position.__getitem__))
    return out


# ----------------------------------------------------------------------------
# unit systems: shared bases per weight sector and small cores


# The kept singular values of one row block are all equal in exact
# arithmetic (every unit of a row maps onto the same subspace), and the
# discarded ones are rounding noise, below 4e-15 of the kept ones up to
# (p,d) = (4,3).  The threshold sits far from both.
BASIS_RTOL = 1e-8


def _column_sectors(p: int, d: int, ideal: int) -> np.ndarray:
    """The U (x) conj(U) weight sector of each column of a unit factor: [t] for ideal p, [L | t] for ideal p - 1.

    L = factored_V(p, p-1, d) and t = factored_V(p, p, d).  Column (f, g)
    of L is the indicator of the states whose register 1 spells f, register
    2p spells g and paired registers agree, so it lies in the sector of
    weight e_f - e_g (``tensorspace._weight_sectors``), that of its first
    state f d^(2p-1) + g; t lies in weight 0, that of state 0.
    E^mu (x) E^nu is a sum of permutations of each wall side, which keep
    each side's letter counts, so column c of every wall factor lies in the
    sector of column c of L, and its last column, like every top factor, in
    weight 0; their other entries are exact zeros.
    """
    sector = _weight_sectors(p, d)[0]
    if ideal == p:
        return sector[:1]
    f, g = np.divmod(np.arange(d * d), d)
    return np.append(sector[f * d ** (2 * p - 1) + g], sector[0])


@lru_cache(maxsize=None)
def _sector_layout(p: int, d: int, ideal: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...], tuple[np.ndarray, ...], tuple]:
    """How every factor of one ideal splits into weight-sector blocks; read-only.

    The sectors its columns lie in (ascending), each sector's rows (its
    basis indices, ascending, so that row i is position i of
    ``_weight_sectors``) and columns, and where each column goes: the rows
    of its sector, and the slice of the packed factor that holds them.  A
    packed factor lists its blocks one after another, each (n_s, k_s) in
    row-major order.
    """
    sector = _weight_sectors(p, d)[0]
    col_sector = _column_sectors(p, d, ideal)
    sectors = tuple(sorted(set(col_sector.tolist())))
    rows = tuple(_frozen(np.flatnonzero(sector == s)) for s in sectors)
    cols = tuple(_frozen(np.flatnonzero(col_sector == s)) for s in sectors)
    places = [None] * col_sector.size
    start = 0
    for r, c in zip(rows, cols):
        for k, column in enumerate(c):
            places[column] = (r, slice(start + k, start + r.size * c.size, c.size))
        start += r.size * c.size
    return sectors, rows, cols, tuple(places)


def _pack_columns(columns, p: int, d: int, ideal: int) -> np.ndarray:
    """The columns of one unit factor of ideal p or p - 1, given in order, packed into their sector blocks (``_sector_layout``).

    Every column of a unit factor lies in one weight sector
    (``_column_sectors``), and its other entries are exact zeros: each is a
    sum of products with an exact-zero factor.  So a nonzero entry off a
    column's sector is a defect, and raises ArithmeticError; this is the one
    place weight conservation is checked.  The columns are only read.
    """
    places = _sector_layout(p, d, ideal)[3]
    out = np.empty(sum(r.size for r, _ in places))
    for column, (rows, place) in zip(columns, places, strict=True):
        packed = column[rows]
        if np.count_nonzero(column) != np.count_nonzero(packed):
            raise ArithmeticError("a unit factor has a nonzero entry off its columns' weight sectors")
        out[place] = packed
    return out


def _sector_blocks(packed: np.ndarray, rows, cols) -> list[np.ndarray]:
    """Entries packed as ``_sector_layout`` lays them out, on the last axis, as one (..., n_s, k_s) block per sector."""
    splits = np.cumsum([r.size * c.size for r, c in zip(rows, cols)])[:-1]
    return [f.reshape(*f.shape[:-1], r.size, c.size) for f, r, c in zip(np.split(packed, splits, axis=-1), rows, cols)]


def _flat(block: np.ndarray) -> np.ndarray:
    """A sector block (n, n_s, r_s) as the n_s x (n r_s) array of its bases side by side."""
    return block.transpose(1, 0, 2).reshape(block.shape[1], -1)


def _gram_blocks(gram: np.ndarray, n: int) -> np.ndarray:
    """An (n r) x (n r) matrix as its (n, n, r, r) blocks."""
    r = gram.shape[0] // n
    return gram.reshape(n, r, n, r).transpose(0, 2, 1, 3)


def _sides(label: tuple) -> tuple[Partition, Partition, int, int]:
    """(mu, nu, i, j) of a label (mu, nu, i, j, beta) of the second ideal, or of a label (mu, i, j) of the top one, with nu = mu."""
    n = len(label) // 2  # shapes per label
    return label[0], label[n - 1], label[n], label[n + 1]


def _seed(label: tuple) -> tuple:
    n = len(label) // 2  # the label with its indices (i, j) set to (1, 1)
    return label[:n] + (1, 1) + label[n + 2 :]


class UnitSystem(Frozen):
    """Every irreducible matrix unit of one ideal at (p, d), stored as the units of its seeds, per weight sector.

    Unit (a, c) is ``G_ac = Q_a M_ac Q_c^T``: Q_a (d^(2p) x r, orthonormal
    columns) spans the range of every unit in row a and, as G_ca = G_ac^T,
    the co-range of every unit in column a; M_ac is the r x r core, with
    r = 1 for the top ideal and d^2 - 1 for the second.  The seed of the
    label (mu, nu, i, j, beta) is (mu, nu, 1, 1, beta), and that of the top
    label (mu, i, j) is (mu, 1, 1); ``seed_of[a]`` numbers a's seed s among
    ``seed_labels``.  Q_a = (E^mu_{i1} (x) E^nu_{j1}) Q_s (``basis``), an
    isometry on the range of Q_s, as E_{1i} E_{i'1} = delta_ii' E_11, and
    M_ac = M_st for the seeds s, t of a, c.  Only the seeds are stored.

    The units commute with U^(x)p (x) conj(U)^(x)p, so each Q_s is a sum of
    U (x) conj(U) weight sectors: for the second ideal one column in each
    weight e_a - e_b and d - 1 in weight 0, for the top ideal one column in
    weight 0.  Sector k, ``sectors[k]`` (``tensorspace._weight_sectors``),
    holds the rows ``sector_rows[k]`` and the columns ``slices[k]`` of every
    seed basis as ``sector_bases[k]`` (seeds, n_s, r_s), and the blocks of
    the cores M_st and the overlaps X_st = Q_s^T Q_t, ``cores[k]`` and
    ``overlaps[k]`` (seeds, seeds, r_s, r_s).  ``projection_residual[s]`` is
    the largest Frobenius distance, over the units of seed row s, between
    the unit as its factors give it and ``Q_s M_st Q_t^T``.  The build raises
    on a factor entry off the stored sectors.  All arrays are read-only.
    """

    __slots__ = (
        "ideal", "p", "d", "labels", "seed_of", "sectors", "sector_rows", "sector_bases", "cores", "projection_residual",
        "__dict__",  # holds the cached properties
    )
    ideal: int
    p: int
    d: int
    labels: tuple
    seed_of: np.ndarray  # (n,): the seed of each label
    sectors: tuple[int, ...]
    sector_rows: tuple[np.ndarray, ...]  # per sector: (n_s,)
    sector_bases: tuple[np.ndarray, ...]  # per sector: (seeds, n_s, r_s)
    cores: tuple[np.ndarray, ...]  # per sector: (seeds, seeds, r_s, r_s)
    projection_residual: np.ndarray  # (seeds,)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        return sum(core.shape[2] for core in self.cores)

    @cached_property
    def index(self) -> MappingProxyType:
        return MappingProxyType({label: a for a, label in enumerate(self.labels)})

    @cached_property
    def seed_labels(self) -> tuple:
        return tuple(dict.fromkeys(map(_seed, self.labels)))

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """The columns of each sector block within the r columns of a basis."""
        ranks = [block.shape[2] for block in self.sector_bases]
        return tuple(slice(int(e) - r, int(e)) for e, r in zip(np.cumsum(ranks), ranks))

    def basis(self, a: int) -> np.ndarray:
        """Q_a as a new d^(2p) x r array: its seed's sector blocks scattered into zeros and, unless a is a seed, moved.

        Read as a (d^p, d^p, r) array, the left word is moved by E^mu_{i1} and the right one by E^nu_{j1}.
        """
        dp = self.d**self.p
        out = np.zeros((dp * dp, self.rank))
        for rows, sl, block in zip(self.sector_rows, self.slices, self.sector_bases):
            out[rows, sl] = block[self.seed_of[a]]
        mu, nu, i, j = _sides(self.labels[a])
        if (i, j) == (1, 1):
            return out
        out = left_side_matrix(mu, i, 1, self.d) @ out.reshape(dp, -1)
        return (right_side_matrix(nu, j, 1, self.d) @ out.reshape(dp, dp, -1)).reshape(dp * dp, -1)

    @cached_property
    def move_residual(self) -> float:
        """max ||E_{i1}^T E_{i'1} - delta_ii' E_11||_F over the shapes of each wall side, E as ``basis`` reads it."""
        worst = 0.0
        for side, k in ((left_side_matrix, 0), (right_side_matrix, 1)):
            for mu in dict.fromkeys(_sides(label)[k] for label in self.seed_labels):
                e = np.stack([side(mu, i, 1, self.d) for i in range(1, dim_irrep(mu) + 1)])
                for i, move in enumerate(e):
                    rel = move.T @ e  # [i']: E_{i1}^T E_{i'1}
                    rel[i] -= e[0]
                    worst = max(worst, float(np.linalg.norm(rel, axis=(1, 2)).max()))
        return worst

    @cached_property
    def overlaps(self) -> tuple[np.ndarray, ...]:
        """X[s, t] = Q_s^T Q_t of the seeds as its sector blocks, one (seeds, seeds, r_s, r_s) Gram array per sector."""
        out = []
        for block in self.sector_bases:
            flat = _flat(block)
            out.append(_frozen(_gram_blocks(flat.T @ flat, len(block))))
        return tuple(out)

    @cached_property
    def traces(self) -> np.ndarray:
        """(seeds,) array of tr G_ss = tr(M_ss X_ss), the trace of every diagonal unit of seed s; read-only."""
        out = np.zeros(len(self.seed_labels))
        for core, overlap in zip(self.cores, self.overlaps):
            out += np.einsum("ssij,ssji->s", core, overlap)
        return _frozen(out)

    def traces_with(self, applied: dict) -> np.ndarray:
        """(seeds, seeds) array of tr(rho G_st) = tr(M_st Q_t^T rho Q_s), given applied[k] = rho Q_k per sector.

        Q_k is ``_flat`` of the block of sector k; rho must conserve the weight.
        """
        n = len(self.seed_labels)
        out = np.zeros((n, n))
        for s, core, block in zip(self.sectors, self.cores, self.sector_bases):
            out += np.einsum("acij,caji->ac", core, _gram_blocks(_flat(block).T @ applied[s], n))
        return out


@lru_cache(maxsize=None)
def unit_system(p: int, d: int, ideal: int) -> UnitSystem:
    """All units of ideal p (top) or p - 1 (second) at (p, d), built on the seeds alone, per weight sector.

    The seed units are G_st = W_s D W_t^T c_s c_t with D = (1) and
    c_s = 1/sqrt(m_mu) for the top ideal, and the wall factor W_s = W(w~_beta),
    D = ``_wall_diagonal(d)`` and c_s = 1/sqrt(d) for the second.
    Each seed's factor is formed one column at a time, each column packed
    into its weight-sector block (``_pack_columns``, which raises
    ArithmeticError on a nonzero entry off the column's sector) and
    dropped, so one column is the only array of d^(2p) entries.  Then, per
    sector and batched over the seeds, with W_s the sector block:
    W_s = Q0_s R0_s, and the range of row s over all columns is Q0_s times
    the range of R0_s D [R0_1^T .. R0_n^T] (a moved factor has its seed's
    co-range); one QR of the stacked R0 and one small SVD per seed give it.
    Its rank must be the same for every seed, and the ranks of the sectors
    must sum to r.
    """
    _check_dim(d, 2 * p)  # before the labels, whose count grows past any bound on the work
    if ideal == p:
        labels = top_row_labels(p, d)
        diag, rank = np.ones(1), 1

        def factor(mu, i, j):
            return _pack_columns(_top_factor(mu, i, j, p, d).T, p, d, p) / math.sqrt(multiplicity(mu, d))

    elif ideal == p - 1:
        labels = sub_row_labels(p, d)
        diag, rank = _wall_diagonal(d), d * d - 1

        def factor(mu, nu, i, j, beta):
            # W(w~_beta) / sqrt(d); W(w) D W'(w')^T = sum over (alpha, alpha') of w_a w'_a' H_{alpha alpha'}
            out = _wall_pack(mu, nu, i, j, B_matrix(mu, nu, d).modes[beta - 1], p, d)
            out /= math.sqrt(d)
            return out

    else:
        raise ValueError(f"ideal must be p = {p} or p - 1 = {p - 1}, got {ideal}")
    orbits = {}  # seed label -> its number
    seed_of = _frozen(np.array([orbits.setdefault(_seed(label), len(orbits)) for label in labels], dtype=np.intp))
    n = len(orbits)
    if n == 0:
        return UnitSystem(ideal, p, d, (), seed_of, (), (), (), (), _frozen(np.zeros(0)))
    sectors, rows, cols, places = _sector_layout(p, d, ideal)
    packed = np.empty((n, sum(r.size for r, _ in places)))
    for s, label in enumerate(orbits):
        packed[s] = factor(*label)
    blocks, cores = [], []
    squares = np.zeros((n, n))
    for s, c_s, f in zip(sectors, cols, _sector_blocks(packed, rows, cols)):
        q0, r0 = np.linalg.qr(f)
        stacked = np.linalg.qr(r0.reshape(-1, c_s.size), mode="r")
        u, sv, _ = np.linalg.svd((r0 * diag[c_s]) @ stacked.T)
        kept = set(np.count_nonzero(sv > BASIS_RTOL * sv[:, :1], axis=1).tolist())
        if len(kept) != 1:
            raise ArithmeticError(f"sector {s} ranks {sorted(kept)} differ across the seeds of ideal {ideal} at (p,d)=({p},{d})")
        u = u[:, :, : kept.pop()]
        y = u.transpose(0, 2, 1) @ r0  # Q_s^T W_s in the Q0_s coordinates
        core = np.einsum("aik,k,cjk->acij", y, diag[c_s], y)
        full = np.einsum("aik,k,cjk->acij", r0, diag[c_s], r0)
        projected = (u[:, None] @ core) @ u.transpose(0, 2, 1)[None]
        squares += np.sum((full - projected) ** 2, axis=(2, 3))
        blocks.append(_frozen(q0 @ u))
        cores.append(_frozen(core))
    ranks = [core.shape[2] for core in cores]
    if sum(ranks) != rank:
        raise ArithmeticError(f"sector ranks {ranks} do not sum to {rank} for ideal {ideal} at (p,d)=({p},{d})")
    residual = np.sqrt(squares).max(axis=1)
    return UnitSystem(ideal, p, d, tuple(labels), seed_of, sectors, rows, tuple(blocks), tuple(cores), _frozen(residual))


class GUnit(Frozen):
    """An irreducible matrix unit of the top ideal (p) or the second ideal (p-1).

    Entry (row, col) of its :class:`UnitSystem`, read off the labels' bases
    and their seeds' core; ``to_dense`` forms the d^(2p) x d^(2p) operator.
    Its labels are ``system.labels[row]`` and ``system.labels[col]``: (mu, i, j)
    in the top ideal, (mu, nu, i, j, beta) in the second, with beta a
    generalized eigenmode of (T, B) (``BMatrix.modes``).
    """

    __slots__ = ("system", "row", "col")
    system: UnitSystem
    row: int
    col: int

    def __repr__(self) -> str:
        return f"GUnit(row={self.row!r}, col={self.col!r})"  # the system's arrays left out

    def core(self) -> np.ndarray:
        """M_ac, the core of the seeds of a and c, as an r x r array, its sector blocks placed on the diagonal; a new array on every call."""
        s = self.system
        out = np.zeros((s.rank, s.rank))
        for sl, core in zip(s.slices, s.cores):
            out[sl, sl] = core[s.seed_of[self.row], s.seed_of[self.col]]
        return out

    def to_dense(self) -> np.ndarray:
        """G_ac = (Q_a M_ac) Q_c^T, with Q_a and Q_c moved from their seeds (``UnitSystem.basis``)."""
        s = self.system
        return (s.basis(self.row) @ self.core()) @ s.basis(self.col).T

    def trace(self) -> float:
        """tr G_ac = delta_ac tr G_aa, as for any matrix units, so exactly 0.0 off the diagonal; tr G_aa is its seed's."""
        s = self.system
        return float(s.traces[s.seed_of[self.row]]) if self.row == self.col else 0.0


def _lookup(system: UnitSystem, row, col) -> GUnit:
    try:
        return GUnit(system, system.index[row], system.index[col])
    except KeyError as exc:
        raise IndexError(f"no unit label {exc.args[0]} at (p,d)=({system.p},{system.d})") from None


def G_top(mu: Partition, i: int, j: int, nu: Partition, ip: int, jp: int, p: int, d: int) -> GUnit:
    """F^(p) / sqrt(m_mu m_nu), looked up in the top-ideal unit system."""
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
    """Unit of the second ideal for interior labels (beta, beta').

    Equals sum over (alpha, alpha') of w~_{beta,alpha} w~'_{beta',alpha'} H / d,
    looked up in the second-ideal unit system.  beta indexes the
    generalized eigenvalues Lambda of (T, B^{mu nu}) on B's range, ascending
    (``BMatrix.modes``), so it runs over 1..rank(B); a beta above the rank
    is an error.
    """
    b_row = B_matrix(mu, nu, d)
    b_col = B_matrix(mup, nup, d)
    for b in (b_row, b_col):
        if b.size == 0:
            raise ZeroMultiplicityError(f"no common removals for {b.mu}, {b.nu}")
    if beta > b_row.rank or betap > b_col.rank:
        raise ZeroMultiplicityError(
            f"no such mode: beta={beta} of B^({mu},{nu}) of rank {b_row.rank}, beta'={betap} of B^({mup},{nup}) of rank {b_col.rank}"
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
    """Composite row labels (mu, nu, i, j, beta) of the second-ideal units; none without that ideal."""
    out = []
    for b in second_ideal_blocks(p, d):
        for beta in range(1, b.rank + 1):
            for i in range(1, dim_irrep(b.mu) + 1):
                for j in range(1, dim_irrep(b.nu) + 1):
                    out.append((b.mu, b.nu, i, j, beta))
    return out
