"""Rank-factored operators.

A :class:`FactoredOperator` is a square operator carried as thin factors
L @ R, so that products and Frobenius distances cost O(dim * rank^2)
instead of O(dim^3), and a sum of factored terms is a concatenation of
factors, compressed once rather than term by term.  The library's objects
do not use it: the generators V^(k) are their bare 0/1 factors
(``tensorspace.factored_V``), and each ideal's units are one unit system of
shared bases and r x r cores, both stored as one block per weight sector
(``ideal_units.UnitSystem``).  It is left for ``checks.suite_reduction``,
which composes the reduced generators of each diagonal block one
weight sector at a time, each sector block a FactoredOperator on factors of
that sector's rows; for ``checks.suite_generators``, which holds each
sector's difference from V^(p) or V^(p-1) as one and reads its Frobenius
norm; and for the tests' dense-definition oracles.  The
benchmark's tracer wraps the class's methods by name and reads
``rank_bound`` after every ``frobenius_norm`` call, so those names stay.
"""

from __future__ import annotations

import numpy as np

# Relative to the largest singular value: below it, a singular value of an
# exact-rank sum is rounding noise, and compress drops it.
COMPRESS_RTOL = 1e-13


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

