"""Rank-factored operators plus small exact/orthogonal eigen helpers.

A :class:`FactoredOperator` is a square operator carried as thin factors
L @ R, so that products and Frobenius distances cost O(dim * rank^2)
instead of O(dim^3), and a sum of factored terms is a concatenation of
factors, compressed once rather than term by term.  The library's objects
do not use it: the generators V^(k) are their bare 0/1 factors
(``tensorspace.factored_V``), and each ideal's units are one unit system of
shared bases and r x r cores, both stored as one block per weight sector
(``ideal_units.UnitSystem``).  It is left for ``checks.suite_reduction``,
which composes the zero-mode-reduced generators of each diagonal block one
weight sector at a time, each sector block a FactoredOperator on factors of
that sector's rows, and for the tests' dense-definition oracles.  The
benchmark's tracer wraps the class's methods by name and reads
``rank_bound`` after every ``frobenius_norm`` call, so those names stay.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Relative to the largest singular value: below it, a singular value of an
# exact-rank sum is rounding noise, and compress drops it.
COMPRESS_RTOL = 1e-13
# jacobi_eigh stops when every off-diagonal entry is below JACOBI_RTOL of
# max(1, max|a|), about 45 ulps, or after JACOBI_MAX_SWEEPS sweeps.
JACOBI_RTOL, JACOBI_MAX_SWEEPS = 1e-14, 60


class FactoredOperator:
    """A square operator stored as ``L @ R`` with thin factors."""

    __slots__ = ("L", "R")

    def __init__(self, L: np.ndarray, R: np.ndarray):
        L = np.asarray(L, dtype=float)
        R = np.asarray(R, dtype=float)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[0] or L.shape[0] != R.shape[1]:
            raise ValueError(f"bad factor shapes {L.shape}, {R.shape}")
        self.L = L
        self.R = R

    @classmethod
    def zero(cls, dim: int) -> "FactoredOperator":
        return cls(np.zeros((dim, 0)), np.zeros((0, dim)))

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @property
    def rank_bound(self) -> int:
        return self.L.shape[1]

    def __matmul__(self, other: "FactoredOperator") -> "FactoredOperator":
        core = self.R @ other.L
        return FactoredOperator(self.L @ core, other.R)

    def __add__(self, other: "FactoredOperator") -> "FactoredOperator":
        return FactoredOperator(np.hstack([self.L, other.L]), np.vstack([self.R, other.R]))

    def __sub__(self, other: "FactoredOperator") -> "FactoredOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FactoredOperator":
        return FactoredOperator(self.L * float(scalar), self.R)

    __rmul__ = __mul__

    def frobenius_norm(self) -> float:
        """Frobenius norm, stable also when the factors encode a near-zero sum.

        The gram formula tr(L R R^T L^T) cancels catastrophically for
        differences of nearly equal operators, so the left factor is
        orthogonalized first and the norm read off the small core.
        """
        if self.rank_bound == 0:
            return 0.0
        _, rl = np.linalg.qr(self.L)
        return float(np.linalg.norm(rl @ self.R))

    def distance(self, other: "FactoredOperator") -> float:
        """Frobenius distance (an upper bound on the max-abs-entry distance)."""
        return (self - other).frobenius_norm()

    def to_dense(self) -> np.ndarray:
        return self.L @ self.R

    def compress(self) -> "FactoredOperator":
        """Trim the factor rank by a small SVD, relative to the top singular value."""
        if self.rank_bound == 0:
            return self
        ql, rl = np.linalg.qr(self.L)
        qr_, rr = np.linalg.qr(self.R.T)
        u, s, vt = np.linalg.svd(rl @ rr.T)
        if s.size == 0 or s[0] == 0.0:
            return FactoredOperator.zero(self.dim)
        keep = s > COMPRESS_RTOL * s[0]
        u = u[:, keep] * s[keep]
        vt = vt[keep]
        return FactoredOperator(ql @ u, vt @ qr_.T)


def jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi diagonalization of a small symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Deterministic:
    fixed sweep order, stable sort, and each eigenvector's first component
    of significant size is made positive.
    """
    a = np.array(a, dtype=float)
    k = a.shape[0]
    if a.shape != (k, k) or (k and np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a)))):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(k)
    scale = max(1.0, float(np.max(np.abs(a))) if k else 1.0)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(k - 1):
            for q in range(p + 1, k):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= JACOBI_RTOL * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(k)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off <= JACOBI_RTOL * scale:
            break
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    v = v[:, order]
    for col in range(k):
        nz = np.flatnonzero(np.abs(v[:, col]) > 1e-12)
        if nz.size and v[nz[0], col] < 0:
            v[:, col] = -v[:, col]
    return vals, v


def fraction_rank_det(rows) -> tuple[int, Fraction]:
    """Exact rank and determinant of a square rational matrix, by one Gaussian elimination."""
    m = [list(r) for r in rows]
    k = len(m)
    if any(len(r) != k for r in m):
        raise ValueError("rank and determinant need a square matrix")
    rank, det = 0, Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(rank, k) if m[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        pv = m[rank][col]
        det *= pv
        for r in range(rank + 1, k):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, det
