"""Permutations, Young's orthogonal irrep matrices, and subgroup-adapted indexing.

The irrep matrices are generated from adjacent transpositions acting on the
standard-tableau basis of :func:`walledbrauer.partitions.enumerate_standard_tableaux`
(axial-distance rule) and composed along a bubble-sort factorization, so every
matrix is real orthogonal and the family is a group homomorphism by
construction.  The tableau order makes the basis adapted to the subgroup
fixing the last point: for sigma with sigma(p) = p the matrix is block
diagonal over the shapes alpha obtained by deleting the box holding p.
Each irrep matrix is a cached, read-only ndarray.

A basis index of mu has one label, the plain pair (alpha, i_alpha) of its
block and its 1-based index inside the block; mu is known from context.
``prir_position`` maps a pair to its position through the block offsets,
and ``prir_map`` lists the pairs of all d_mu positions, for the desk-scale
suites and the tests only.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ResourceLimitError
from .partitions import (
    Frozen,
    Partition,
    dim_irrep,
    enumerate_standard_tableaux,
    remove_box,
)

MAX_GROUP_DEGREE = 6


class Permutation(Frozen):
    """A permutation of {1..p} stored by its image list (1-based)."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]):
        images = tuple(int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images}")
        super().__init__(images)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(k) = self(other(k))."""
        return Permutation(tuple(self.images[other.images[k] - 1] for k in range(self.degree)))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for k, v in enumerate(self.images, start=1):
            out[v - 1] = k
        return Permutation(tuple(out))


def identity(p: int) -> Permutation:
    return Permutation(tuple(range(1, p + 1)))


def transposition(p: int, a: int, b: int) -> Permutation:
    images = list(range(1, p + 1))
    images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def enumerate_group(p: int) -> tuple[Permutation, ...]:
    """All of S_p in lexicographic order of image lists, identity first."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > MAX_GROUP_DEGREE:
        raise ResourceLimitError(f"S_{p} exceeds the desk-scale bound p <= {MAX_GROUP_DEGREE}")
    return tuple(Permutation(img) for img in itertools.permutations(range(1, p + 1)))


def factor_adjacent(sigma: Permutation) -> tuple[int, ...]:
    """Adjacent-transposition factorization sigma = s_{k_1} * s_{k_2} * ...

    Bubble sort of the image list; each recorded k means the transposition
    (k, k+1).  Deterministic, length <= p(p-1)/2.
    """
    images = list(sigma.images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for k in range(len(images) - 1):
            if images[k] > images[k + 1]:
                images[k], images[k + 1] = images[k + 1], images[k]
                swaps.append(k + 1)
                changed = True
    # sigma * s_{k_1} * ... * s_{k_m} = e, and each s is an involution
    return tuple(reversed(swaps))


@lru_cache(maxsize=None)
def _adjacent_generator(mu: Partition, k: int) -> np.ndarray:
    """Matrix of the transposition (k, k+1) in Young's orthogonal form."""
    tableaux = enumerate_standard_tableaux(mu)
    index = {t: i for i, t in enumerate(tableaux)}
    n = len(tableaux)
    m = np.zeros((n, n))
    for i, t in enumerate(tableaux):
        r = t.content_of(k + 1) - t.content_of(k)
        m[i, i] = 1.0 / r
        if abs(r) > 1:  # |r| = 1: k and k+1 share a row or a column, and swapping them leaves no standard tableau
            m[i, index[t.swap_adjacent(k)]] = math.sqrt(1.0 - 1.0 / r**2)
    m.flags.writeable = False  # cached: no caller may change what later callers get
    return m


@lru_cache(maxsize=None)
def young_orthogonal_rep(mu: Partition, sigma: Permutation) -> np.ndarray:
    """The d_mu x d_mu orthogonal matrix of ``sigma`` in irrep ``mu``, as a cached read-only array."""
    if sigma.degree != mu.total:
        raise ValueError(f"permutation degree {sigma.degree} != |mu| = {mu.total}")
    n = dim_irrep(mu)
    m = np.eye(n)
    for k in factor_adjacent(sigma):
        m = m @ _adjacent_generator(mu, k)
    m.flags.writeable = False  # cached, as above
    return m


@lru_cache(maxsize=None)
def prir_map(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The subgroup-adapted label (alpha, i_alpha) of each basis index of mu, in order.

    alpha is mu minus the box holding p, and i_alpha the 1-based index
    inside the alpha block.  Indices with equal alpha are consecutive
    because the tableau enumeration is grouped by the shape left after
    deleting the box holding p.  The tuple lists d_mu labels; the sandwich
    lemma reads labels without it.
    """
    if mu.total < 2:
        raise ValueError("PRIR labels need |mu| >= 2")
    out = [(alpha, i_alpha) for alpha in remove_box(mu) for i_alpha in range(1, dim_irrep(alpha) + 1)]
    if len(out) != dim_irrep(mu):
        raise ArithmeticError(f"the blocks of {mu} hold {len(out)} indices, not d_mu = {dim_irrep(mu)}")
    return tuple(out)


@lru_cache(maxsize=None)
def prir_block_offsets(mu: Partition) -> MappingProxyType[Partition, int]:
    """Start offset (0-based) of each alpha block inside the basis of mu, as a read-only mapping."""
    offsets = {}
    pos = 0
    for alpha in remove_box(mu):
        offsets[alpha] = pos
        pos += dim_irrep(alpha)
    return MappingProxyType(offsets)


def prir_position(mu: Partition, alpha: Partition, i_alpha: int) -> int:
    """Global 1-based basis index of the PRIR label (mu, alpha, i_alpha)."""
    offsets = prir_block_offsets(mu)
    if alpha not in offsets:
        raise ValueError(f"{alpha} is not mu minus a box for mu = {mu}")
    if not 1 <= i_alpha <= dim_irrep(alpha):
        raise ValueError(f"i_alpha out of range for {alpha}")
    return offsets[alpha] + i_alpha


# sigma fixing p factors into s_1..s_{p-2} alone, the same factors as its
# restriction, and their matrices are block diagonal with the smaller shapes'
# generators as blocks; so both sides are the same products of entries of
# magnitude <= 1, and only a BLAS that orders a sum differently could part
# them, by a few ulps.  The largest deviation through S_6 is exactly 0.
RESTRICTION_TOL = 1e-12


def restriction_block_check(mu: Partition, sigma: Permutation) -> bool:
    """Check the subgroup-adaptation property for a sigma fixing p.

    phi^mu(sigma) must be block diagonal over the PRIR blocks, each block
    equal to phi^alpha of sigma restricted to S_{p-1}, to RESTRICTION_TOL.
    """
    p = mu.total
    if sigma(p) != p:
        raise ValueError("sigma must fix p")
    big = young_orthogonal_rep(mu, sigma)
    restricted = Permutation(sigma.images[: p - 1])
    pos = 0
    blocks = []
    for alpha in remove_box(mu):
        da = dim_irrep(alpha)
        small = young_orthogonal_rep(alpha, restricted)
        blocks.append((pos, da, small))
        pos += da
    expected = np.zeros_like(big)
    for pos, da, small in blocks:
        expected[pos : pos + da, pos : pos + da] = small
    return bool(np.max(np.abs(big - expected)) <= RESTRICTION_TOL)
