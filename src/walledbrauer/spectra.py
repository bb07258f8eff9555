"""Twirl averaging, the twirled generators rho(p) and rho(p-1), and spectra.

The twirled operators are diagonal in the unit bases of the two highest
ideals.  Their nonzero eigenvalues come out analytically from multiplicities
and dimensions alone (plus the small diagonalizer of the B matrix), and can
be cross-checked against a dense brute-force eigendecomposition; both paths
are exposed through :func:`spectrum_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .ideal_units import B_matrix, has_second_ideal
from .partitions import (
    Partition,
    dim_irrep,
    multiplicity,
    schur_weyl_partitions,
)
from .symgroup import Permutation, enumerate_group
from .tensorspace import DenseOperator, V_generator, _frozen, permutation_index

BIN_TOL = 1e-6

# The twirl scatters each nonzero of X once per (s1, s2): (p!)^2 nnz(X) entries,
# with nnz(V^(k)) = d^(2p).  2^26 admit the brute-force oracles at (3,4), (4,3)
# and (5,2) (1.5e7 entries, about 2 s), and refuse (6,2), which would scatter
# 720^2 * 4096 = 2.1e9 although d^(2p) = 4096 passes the dimension guard.
MAX_TWIRL_ENTRIES = 2**26


def _check_twirl_work(p: int, d: int, nnz: int) -> None:
    entries = math.factorial(p) ** 2 * nnz
    if entries > MAX_TWIRL_ENTRIES:
        raise ResourceLimitError(
            f"the twirl at (p,d)=({p},{d}) scatters (p!)^2 nnz = {entries} entries, "
            f"above the bound {MAX_TWIRL_ENTRIES}"
        )


def twirl(x: DenseOperator) -> DenseOperator:
    """Average of (V_s1 (x) V_s2) X (V_s1 (x) V_s2)^-1 over S_p x S_p.

    Conjugation by V_tau moves entry (r, c) to (idx[r], idx[c]), idx = permutation_index(tau).
    """
    if x.n % 2 != 0:
        raise ValueError("twirl needs an operator on 2p registers")
    p, dim = x.n // 2, x.dim
    rows, cols = np.nonzero(x.matrix)
    _check_twirl_work(p, x.d, rows.size)
    vals = x.matrix[rows, cols]
    acc = np.zeros(dim * dim, dtype=x.matrix.dtype)
    group = enumerate_group(p)
    for s1 in group:
        for s2 in group:
            idx = permutation_index(Permutation(s1.images + tuple(p + v for v in s2.images)), x.d, x.n)
            np.add.at(acc, idx[rows] * dim + idx[cols], vals)
    acc /= len(group) ** 2
    return DenseOperator(x.d, x.n, acc.reshape(dim, dim))


@lru_cache(maxsize=None)
def rho(level: int, p: int, d: int) -> DenseOperator:
    """The twirled ideal generator twirl(V^(level)) on 2p registers."""
    if not 0 <= level <= p:
        raise ValueError(f"need 0 <= level <= p, got {level}")
    _check_twirl_work(p, d, d ** (2 * p))  # nnz(V^(level)), before the dense generator is built
    out = twirl(V_generator(p, level, d))
    _frozen(out.matrix)
    return out


def twirl_trace_identity(
    x: DenseOperator,
    y: DenseOperator,
    mu: Partition,
    i: int,
    j: int,
    nu: Partition,
    k: int,
    l: int,
    mup: Partition,
    ip: int,
    jp: int,
    nup: Partition,
    kp: int,
    lp: int,
    d: int,
) -> tuple[float, float]:
    """Both sides of the twirl-trace identity for sandwiched matrix units.

    Left: tr(twirl(X) E^mu_ij (x) E^nu_kl Y E^mup_{ip jp} (x) E^nup_{kp lp}).
    Right: the (1 / d_mu d_nu)-weighted sum over the free index pair, with
    the label and index deltas.
    """
    from .matrix_units import embed_left, embed_right, E_unit

    p = x.n // 2
    left_unit = embed_left(E_unit(mu, i, j, d), p) @ embed_right(E_unit(nu, k, l, d), p)
    right_unit = embed_left(E_unit(mup, ip, jp, d), p) @ embed_right(E_unit(nup, kp, lp, d), p)
    lhs = float(np.trace(twirl(x).matrix @ left_unit.matrix @ y.matrix @ right_unit.matrix))
    rhs = 0.0
    if mu == mup and nu == nup and i == jp and k == lp:
        dm, dn = dim_irrep(mu), dim_irrep(nu)
        total = 0.0
        for r in range(1, dm + 1):
            for s in range(1, dn + 1):
                a = embed_left(E_unit(mu, r, j, d), p) @ embed_right(E_unit(nu, s, l, d), p)
                b = embed_left(E_unit(mu, ip, r, d), p) @ embed_right(E_unit(nu, kp, s, d), p)
                total += float(np.trace(x.matrix @ a.matrix @ y.matrix @ b.matrix))
        rhs = total / (dm * dn)
    return lhs, rhs


# ----------------------------------------------------------------------------
# analytic overlaps


def _trace_rho_sub_with_H(mu: Partition, nu: Partition, alpha: Partition, alphap: Partition, d: int) -> Fraction:
    """tr(rho(p-1) H) for an H with diagonal outer indices and interiors (alpha, alphap)."""
    m_mu, m_nu = multiplicity(mu, d), multiplicity(nu, d)
    dm, dn = dim_irrep(mu), dim_irrep(nu)
    m_a, m_ap = multiplicity(alpha, d), multiplicity(alphap, d)
    da, dap = dim_irrep(alpha), dim_irrep(alphap)
    bracket = Fraction(0)
    if mu == nu:
        bracket += Fraction(d * m_mu * m_mu * dm)
        bracket -= Fraction(m_mu**3 * da, m_a)
        bracket -= Fraction(m_mu**3 * dap, m_ap)
    if alpha == alphap:
        bracket += Fraction(d * (m_mu * m_nu) ** 2 * da, m_a * m_ap)
    value = bracket / ((d * d - 1) * dm * dn)
    if mu == nu:
        value -= Fraction(m_mu * m_mu, d * dm)
    return value


@dataclass(frozen=True)
class OverlapRecord:
    """One analytic matrix element family of a twirled generator."""

    rho_level: int
    ideal: int
    mu: Partition
    nu: Partition
    interior: int | None  # eigenmode label beta of B^{mu nu}, 1-based
    overlap: float  # tr(rho G) per diagonal unit
    unit_trace: int  # 1 for the rank-one top units, d^2 - 1 for the second ideal's
    eigenvalue: float
    unit_count: int

    @property
    def eigen_multiplicity(self) -> int:
        return self.unit_count * self.unit_trace


def analytic_levels(p: int, d: int) -> tuple[int, ...]:
    """The levels whose rho the analytic path covers: p, and p - 1 where the second ideal exists."""
    return (p, p - 1) if has_second_ideal(p, d) else (p,)


def analytic_overlaps(p: int, d: int) -> tuple[OverlapRecord, ...]:
    """All nonzero analytic overlaps of rho(p) and rho(p-1) with diagonal units.

    Top-ideal units are rank one, so overlap and eigenvalue coincide; the
    second-ideal units have trace d^2 - 1 and the eigenvalue divides it out.
    Units of the second ideal do not appear for rho(p): that overlap is zero.
    Without a second ideal only the rho(p) records are returned.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    second = has_second_ideal(p, d)
    records = []
    for mu in schur_weyl_partitions(p, d):
        m, dm = multiplicity(mu, d), dim_irrep(mu)
        records.append(
            OverlapRecord(p, p, mu, mu, None, m / dm, 1, m / dm, dm * dm)
        )
        if second:
            records.append(
                OverlapRecord(p - 1, p, mu, mu, None, m / (d * dm), 1, m / (d * dm), dm * dm)
            )
    if second:
        shapes = schur_weyl_partitions(p, d)
        for mu in shapes:
            for nu in shapes:
                b = B_matrix(mu, nu, d)
                if b.size == 0:
                    continue
                alphas = b.alphas
                t_h = np.array(
                    [
                        [float(_trace_rho_sub_with_H(mu, nu, a, ap, d)) for ap in alphas]
                        for a in alphas
                    ]
                )
                diag = b.diagonalizer @ t_h @ b.diagonalizer.T
                for beta in b.kept_modes():
                    overlap = diag[beta - 1, beta - 1] / (d * b.eigenvalues[beta - 1])
                    trace = d * d - 1
                    records.append(
                        OverlapRecord(
                            p - 1,
                            p - 1,
                            mu,
                            nu,
                            beta,
                            overlap,
                            trace,
                            overlap / trace,
                            dim_irrep(mu) * dim_irrep(nu),
                        )
                    )
    return tuple(records)


# ----------------------------------------------------------------------------
# spectrum tables


@dataclass(frozen=True)
class SpectrumRow:
    value: float
    multiplicity: int
    ideal: int | None = None
    mu: Partition | None = None
    nu: Partition | None = None
    interior: int | None = None


@dataclass(frozen=True)
class SpectrumTable:
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

    def merged(self, tol: float = BIN_TOL) -> list[tuple[float, int]]:
        """Rows merged by eigenvalue (within tol), sorted ascending."""
        out: list[tuple[float, int]] = []
        for row in sorted(self.rows, key=lambda r: r.value):
            if out and abs(out[-1][0] - row.value) <= tol:
                prev_v, prev_m = out[-1]
                weight = prev_m + row.multiplicity
                out[-1] = ((prev_v * prev_m + row.value * row.multiplicity) / weight, weight)
            else:
                out.append((row.value, row.multiplicity))
        return out

    def matches(self, other: "SpectrumTable", tol: float) -> bool:
        a, b = self.merged(), other.merged()
        if len(a) != len(b) or self.kernel_dim != other.kernel_dim:
            return False
        return all(abs(x - y) <= tol and mx == my for (x, mx), (y, my) in zip(a, b))


def spectrum_table(p: int, d: int, level: int, method: str = "analytic") -> SpectrumTable:
    """Nonzero spectrum of rho(level) on 2p registers.

    The analytic path covers the levels of :func:`analytic_levels`; the
    brute path diagonalizes the dense twirled operator for any
    0 <= level <= p and bins eigenvalues at 1e-6.
    """
    if method == "analytic":
        if level not in analytic_levels(p, d):
            covered = "level p or p-1 with p >= 2" if d > 1 else "level p only at d = 1"
            raise ParameterError(f"the analytic path covers {covered}, got p = {p}, level = {level}")
        rows = tuple(
            SpectrumRow(rec.eigenvalue, rec.eigen_multiplicity, rec.ideal, rec.mu, rec.nu, rec.interior)
            for rec in analytic_overlaps(p, d)
            if rec.rho_level == level and abs(rec.eigenvalue) > BIN_TOL
        )
        kernel = d ** (2 * p) - sum(r.multiplicity for r in rows)
        return SpectrumTable(p, d, level, "analytic", rows, kernel)
    if method == "brute":
        op = rho(level, p, d)
        vals = np.linalg.eigvalsh(op.matrix)
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
