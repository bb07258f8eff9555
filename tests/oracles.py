"""The S_p units as dense permutation sums, the paper's spanning families F and H, the dense wall product and wall factor, the per-pair sandwich core, the units as factored operators, the per-pair composition and reduction residuals, the dense outer-pair and twirled generators, the all-sector brute spectra, the register-by-register matching groups and the rational multiplicity product, for the tests.

The library never forms F or H: it reads the units off the factors that
these definitions share (``ideal_units._top_factor``, the wall factor and
``_wall_diagonal``), and stores each ideal's units as shared bases and
r x r cores, both as one block per weight sector.  It forms the wall factor
one column at a time, straight into its sector blocks; here it is formed
dense, as its definition reads (``_wall_factor``), and ``_sector_pack``
gathers the blocks from it.  F and H stay the paper's definitions, as
factored operators, and the units are compared against them.

``run_cli`` runs the command line in-process for the tests.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from walledbrauer.cli import main
from walledbrauer.ideal_units import (
    B_matrix,
    GUnit,
    _indicator,
    _sector_blocks,
    _sector_layout,
    _top_factor,
    _wall_diagonal,
    _wall_pack,
)
from walledbrauer.lowrank import FactoredOperator
from walledbrauer.matrix_units import left_side_matrix, right_side_matrix
from walledbrauer.partitions import Partition, common_removals, dim_irrep, multiplicity, schur_weyl_partitions
from walledbrauer.spectra import _check_twirl_work, _orbit_size, _orbit_sum
from walledbrauer.symgroup import Permutation, enumerate_group, prir_position, transposition, young_orthogonal_rep
from walledbrauer.tensorspace import (
    DenseOperator,
    _digit_reversal,
    _frozen,
    _weight_sectors,
    partial_transpose,
    permutation_operator,
)


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a nonzero exit, or what escaped the command line

    @property
    def output(self) -> str:
        """What the command printed: stdout, then stderr (a refusal prints nothing on stdout)."""
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """``walledbrauer ARGS`` run in-process, with its exit code and both streams captured.

    An exception that escapes the entry point is kept, with exit code 1,
    and its traceback goes to the captured stderr, as it would in a process.
    """
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            traceback.print_exc()
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), exception)


def unit_by_permutation_sum(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    """E^mu_ij = (d_mu / p!) sum_sigma phi^mu_ij(sigma) V_sigma, as a sum of p! dense permutation matrices.

    The library scatters each weight at the rows ``permutation_index``
    gives (``matrix_units._unit_matrix``), in the same sigma order, so the
    two agree exactly.
    """
    p = mu.total
    out = np.zeros((d**p, d**p))
    if multiplicity(mu, d) == 0:
        return out
    for sigma in enumerate_group(p):
        w = young_orthogonal_rep(mu, sigma)[i - 1, j - 1]
        if w != 0.0:
            out += w * permutation_operator(sigma, d, p).matrix
    return dim_irrep(mu) / math.factorial(p) * out


def left_by_conjugation(mu: Partition, i: int, j: int, d: int) -> np.ndarray:
    """R E^mu_ij R with R the register reversal on p registers, as two dense products.

    The library reads it as a gather of E at the digit-reversed rows and
    columns (``matrix_units.left_side_matrix``).
    """
    p = mu.total
    rev = permutation_operator(Permutation(tuple(range(p, 0, -1))), d, p).matrix
    return rev @ unit_by_permutation_sum(mu, i, j, d) @ rev


def apply_pair(a: np.ndarray, b: np.ndarray, p: int, k: int, d: int) -> np.ndarray:
    """The wall product (a (x) b) L with L = factored_V(p, k, d), a on registers 1..p, b on p+1..2p.

    Row (y, w) of L, with y = (f, s) and w = (t, g) split into nf = p - k
    free and k paired digits, is the indicator of s = rev(t) at column
    (f, g).  So the product reaches L only through the paired registers:

        out[(x, z), (f, g)] = sum over u in [d]^k of a[x, (f, rev u)] b[z, (u, g)],

    one GEMM of shape (d^p d^nf) x d^k x (d^p d^nf) and one axis
    permutation.  The library contracts L^T (a (x) b) L without it
    (``tensorspace._sandwich_core``) and forms the wall factor one column at
    a time (``ideal_units._wall_columns``).
    """
    dp, dk, dn = d**p, d**k, d ** (p - k)
    rev = _digit_reversal(d, k)
    left = a.reshape(dp, dn, dk)[:, :, rev].reshape(dp * dn, dk)
    right = b.reshape(dp, dk, dn).transpose(1, 0, 2).reshape(dk, dp * dn)
    out = (left @ right).reshape(dp, dn, dp, dn).transpose(0, 2, 1, 3)
    return out.reshape(dp * dp, dn * dn)


def sandwich_core(a: np.ndarray, b: np.ndarray, p: int, d: int) -> np.ndarray:
    """The sandwich core K = L^T (a (x) b) L of one wall product, L = factored_V(p, p - 1, d), a on registers 1..p.

    Column (f, g) of L reads the free registers 1 and 2p, and its rows pair
    the digits s of registers 2..p with t = rev(s) of p+1..2p-1, so

        K[(f1, g1), (f2, g2)] = sum over s, t in [d]^(p-1) of a[(f1, s), (f2, t)] b[(rev s, g1), (rev t, g2)],

    one contraction per pair; the library contracts two stacks of units at
    once (``tensorspace._sandwich_core``), with the reversal cancelled.
    """
    dk = d ** (p - 1)
    rev = _digit_reversal(d, p - 1)
    b4 = b.reshape(dk, d, dk, d)[rev][:, :, rev]
    return np.einsum("asbt,sctd->acbd", a.reshape(d, dk, d, dk), b4).reshape(d * d, d * d)


def _wall_factor(mu: Partition, nu: Partition, i: int, j: int, w: np.ndarray, p: int, d: int) -> np.ndarray:
    """W(w) as one dense (d^(2p), d^2 + 1) array: the definition ``ideal_units._wall_columns`` forms column by column.

    W(w) = [sum_a w_a (E^mu_{i,r_a} (x) E^nu_{j,r_a}) V^(p-1).L | (sum_a w_a) (E^mu_ij (x) 1) V^(p).L delta_{mu nu}],
    with r_a the first index of block alpha, and each wall product one
    ``apply_pair`` GEMM.
    """
    out = np.zeros((d ** (2 * p), d * d + 1))
    for w_a, alpha in zip(w, common_removals(mu, nu)):
        if w_a:
            r, r2 = prir_position(mu, alpha, 1), prir_position(nu, alpha, 1)
            out[:, :-1] += w_a * apply_pair(left_side_matrix(mu, i, r, d), right_side_matrix(nu, j, r2, d), p, p - 1, d)
    if mu == nu:
        out[:, -1:] = w.sum() * _top_factor(mu, i, j, p, d)
    return out


def _sector_pack(factor: np.ndarray, p: int, d: int, ideal: int) -> np.ndarray:
    """A dense (d^(2p), k) unit factor of ``ideal`` gathered into the packed sector blocks of ``ideal_units._pack_columns``."""
    _, rows, cols, _ = _sector_layout(p, d, ideal)
    return np.concatenate([factor[np.ix_(r, c)].ravel() for r, c in zip(rows, cols)])


def multiplicity_by_fractions(mu: Partition, d: int) -> int:
    """m_mu as the rational product over 1 <= i < j <= d of (mu_i - mu_j + j - i) / (j - i).

    The reference for ``partitions.multiplicity``, which takes the
    hook-content formula in integers.
    """
    if mu.height > d:
        return 0
    rows = [mu.row(i) for i in range(1, d + 1)]
    value = Fraction(1)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            value *= Fraction(rows[i - 1] - rows[j - 1] + j - i, j - i)
    assert value.denominator == 1
    return int(value)


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
    """(E^mu_{i,r_a} (x) E^nu_{j,r_a}) V^(p-1) (E^mup_{c_a',ip} (x) E^nup_{c_a',jp}), on d^2 columns.

    The first d^2 columns of the wall factors W(e_alpha) and W'(e_alpha').
    The interior labels r_a and c_a' are the first index of blocks alpha
    and alpha'; the operator does not depend on that choice.  An alpha
    outside the common removals of the row (or column) pair yields the
    zero operator.
    """
    left, right = _wall_pair(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
    return FactoredOperator(left[:, : d * d], right[:, : d * d].T)


@lru_cache(maxsize=None)
def H_operator(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p: int, d: int) -> FactoredOperator:
    """d F_sub - F_top delta^{mu nu} delta^{mu' nu'}; spans the second ideal.  Its factors are read-only.

    W(e_alpha) D against W'(e_alpha'): the pair [d X | -t] [Y; t'^T], with
    X Y^T the F_sub factors and t t'^T the rank-one F_top.
    """
    left, right = _wall_pair(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
    op = FactoredOperator(left * _wall_diagonal(d), right.T)
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
    """``checks._composition_worst`` seed pair by seed pair: every (s, t, t', u) formed by a loop over (s, t).

    ||M_st X_tt' M_t'u - delta_tt' M_su||_F over all quadruples of seeds,
    with X_tt' = Q_t^T Q_t', its square summed over the sector blocks of M
    and X, plus three times the largest projection residual and six times
    the move residual; the library forms every (t, t', u) of one row seed
    in one contraction.
    """
    n = len(system.seed_labels)
    worst = 0.0
    for a in range(n):
        for b in range(n):
            squares = np.zeros((n, n))
            for m, x in zip(system.cores, system.overlaps):
                res = (m[a, b] @ x[b])[:, None] @ m  # [t', u]: M_st X_tt' M_t'u, one sector block
                res[b] -= m[a]
                squares += np.sum(res**2, axis=(2, 3))
            worst = max(worst, float(np.sqrt(squares).max()))
    return worst + 3.0 * float(system.projection_residual.max(initial=0.0)) + 6.0 * system.move_residual


def reduction_by_pairs(p: int, d: int, b_matrix=B_matrix) -> tuple[float, float]:
    """``checks.suite_reduction``'s two residuals, pair by pair on factored operators: (largest kernel norm, composition).

    Every y_sr = W(w_s) D W(w_r)^T of a diagonal block is one
    FactoredOperator per weight sector, on the sector blocks of the wall
    factors, and every product and difference of the units y_sr / d is
    formed as one, its Frobenius norm read off a QR of its left factor; the
    library takes one QR of the stacked blocks per sector.  ``b_matrix``
    stands in for ``B_matrix``, so a planted pencil basis reaches both.
    """
    metric = _wall_diagonal(d)
    _, rows, cols, _ = _sector_layout(p, d, p - 1)

    def norm(blocks):
        return math.sqrt(sum(block.frobenius_norm() ** 2 for block in blocks))

    zero_worst = worst = 0.0
    for mu in schur_weyl_partitions(p, d):
        bm = b_matrix(mu, mu, d)
        walls = [_sector_blocks(_wall_pack(mu, mu, 1, 1, w, p, d), rows, cols) for w in (*bm.modes, *bm.kernel)]
        units = {}
        for s, r in product(range(len(walls)), repeat=2):
            y = [FactoredOperator(ws * metric[c], wr.T) for ws, wr, c in zip(walls[s], walls[r], cols)]
            if max(s, r) >= bm.rank:
                zero_worst = max(zero_worst, norm(y))
            else:
                units[s, r] = [block * (1.0 / d) for block in y]
        for (s, r), (s2, r2) in product(units, repeat=2):
            prod = [a @ b for a, b in zip(units[s, r], units[s2, r2])]
            worst = max(worst, norm([a - b for a, b in zip(prod, units[s, r2])] if r == s2 else prod))
    return zero_worst, worst


def V_outer_pair(p: int, d: int) -> DenseOperator:
    """The two-register ideal generator placed on the outermost pair (1, 2p), as a dense operator.

    This is the element whose products satisfy V^(p-1) V = V^(p) and
    V^(p) V = d V^(p); the innermost-pair V_generator(p, 1, d) does not.
    The dense oracle of ``tensorspace.factored_outer_pair``.
    """
    base = permutation_operator(transposition(2 * p, 1, 2 * p), d, 2 * p)
    return partial_transpose(base, [2 * p])


@lru_cache(maxsize=None)
def rho(level: int, p: int, d: int) -> DenseOperator:
    """The twirled ideal generator twirl(V^(level)) on 2p registers, as a dense operator.

    The twirl over S_p x S_p of V^(k) is the uniform average of V_pi over the
    partial matchings pi in its orbit, so every entry is an integer count over
    the orbit size.  The library applies rho(k) to sector blocks
    (``spectra.rho_apply``) and diagonalizes it per dominant weight sector
    (``spectra.rho_eigenvalues``), and never forms it whole.
    """
    if not 0 <= level <= p:
        raise ValueError(f"need 0 <= level <= p, got {level}")
    _check_twirl_work(p, d, level)
    out = DenseOperator.zeros(d, 2 * p)  # refuses d^(2p) above MAX_HILBERT_DIM before allocating
    dim = out.dim
    flat = out.matrix.reshape(-1)
    _orbit_sum(flat, p, d, level, np.arange(dim) * dim, np.arange(dim))
    flat /= _orbit_size(p, level)
    _frozen(out.matrix)
    return out


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
