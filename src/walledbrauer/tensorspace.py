"""Dense operator algebra on (C^d)^n registers.

Register 1 is the most significant digit of the computational-basis index,
and this convention is used consistently on both sides of the wall.  All
constructions here are real; complex storage is accepted by
:class:`DenseOperator` but nothing in this package produces it.

The generators V^(k) also come factored: :func:`factored_V` returns the
0/1 factor L of V^(k) = L L^T, and :func:`factored_outer_pair` the factor M
of the generator on the outermost pair, V = M M^T.  Each is a cached,
read-only array, formed by ``_pair_factor`` from its register pairs.  A
wall product (A (x) B) L reaches L only through the k paired registers
(the generalized ping-pong identity), so :func:`_apply_pair` forms it as
one GEMM over those registers and never multiplies a d^p x d^p matrix into
the whole of L.

Every partially transposed permutation conserves the U (x) conj(U) weight
of a basis index (its letter counts left of the wall minus those right of
it); ``_weight_sectors`` labels the indices by that weight, for the brute
spectra and for sums of factored terms that are compared sector by sector.
The dense operators, ``V_generator`` and ``V_outer_pair`` among them, are
the oracles the factored forms are tested against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .symgroup import Permutation, transposition

MAX_HILBERT_DIM = 2**14


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so that no caller can change what later callers get."""
    a.flags.writeable = False
    return a


def _check_dim(d: int, n: int) -> int:
    if d < 1 or n < 0:
        raise ValueError(f"bad register parameters d={d}, n={n}")
    dim = d**n
    if dim > MAX_HILBERT_DIM:
        raise ResourceLimitError(f"d^n = {dim} exceeds the desk-scale bound {MAX_HILBERT_DIM}")
    return dim


class DenseOperator:
    """A square matrix acting on ``n`` registers of local dimension ``d``."""

    __slots__ = ("d", "n", "matrix")

    def __init__(self, d: int, n: int, matrix: np.ndarray):
        dim = _check_dim(d, n)
        matrix = np.asarray(matrix)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} != ({dim}, {dim})")
        self.d = d
        self.n = n
        self.matrix = matrix

    @classmethod
    def identity(cls, d: int, n: int) -> "DenseOperator":
        return cls(d, n, np.eye(_check_dim(d, n)))

    @classmethod
    def zeros(cls, d: int, n: int) -> "DenseOperator":
        dim = _check_dim(d, n)
        return cls(d, n, np.zeros((dim, dim)))

    @property
    def dim(self) -> int:
        return self.d**self.n

    def _like(self, matrix: np.ndarray) -> "DenseOperator":
        return DenseOperator(self.d, self.n, matrix)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        self._check_compatible(other)
        return self._like(self.matrix @ other.matrix)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        self._check_compatible(other)
        return self._like(self.matrix + other.matrix)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._check_compatible(other)
        return self._like(self.matrix - other.matrix)

    def __mul__(self, scalar) -> "DenseOperator":
        return self._like(self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "DenseOperator":
        return self._like(-self.matrix)

    def _check_compatible(self, other: "DenseOperator"):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError(f"register mismatch: ({self.d},{self.n}) vs ({other.d},{other.n})")

    @property
    def T(self) -> "DenseOperator":
        return self._like(self.matrix.T)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0

    def distance(self, other: "DenseOperator") -> float:
        """Max-abs-entry distance, the package-wide comparison metric."""
        self._check_compatible(other)
        return float(np.max(np.abs(self.matrix - other.matrix)))


@lru_cache(maxsize=None)
def _digit_table(d: int, n: int) -> np.ndarray:
    """(n, d^n) array: digit of each register for every basis index."""
    dim = d**n
    if n == 0:
        return _frozen(np.zeros((0, dim), dtype=np.int64))
    return _frozen(np.asarray(np.unravel_index(np.arange(dim), (d,) * n), dtype=np.int64))


@lru_cache(maxsize=None)
def _weight_sectors(p: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per basis index: its sector and its position there; and the sector sizes.  Cached, read-only.

    The weight of an index is its letter counts on registers 1..p minus those
    on registers p+1..2p.  Every partially transposed permutation conserves
    it, so every V^(k), its twirl and its factor columns do.  Sectors are
    numbered by size, so sectors of one size sit side by side when stored
    in that order.
    """
    digs = _digit_table(d, 2 * p)
    base = 2 * p + 1  # one digit per letter: its count difference lies in -p..p
    # base^chunk <= 2^36, and the ranks stay below d^(2p) <= 2^26 (spectra's work
    # bound; MAX_HILBERT_DIM elsewhere), so rank * base^chunk + key never leaves int64
    chunk = max(1, int(36 / math.log2(base)))
    sector = np.zeros(digs.shape[1], dtype=np.int64)
    for first in range(0, d, chunk):
        key = np.zeros_like(sector)
        for a in range(first, min(first + chunk, d)):
            count = np.count_nonzero(digs[:p] == a, axis=0) - np.count_nonzero(digs[p:] == a, axis=0)
            key = key * base + count + p
        _, sector, sizes = np.unique(sector * base**chunk + key, return_inverse=True, return_counts=True)
    rank = np.empty_like(sizes)
    rank[np.argsort(sizes, kind="stable")] = np.arange(sizes.size)
    sector, sizes = rank[sector], np.sort(sizes)
    order = np.argsort(sector, kind="stable")
    pos = np.empty_like(sector)
    pos[order] = np.arange(sector.size) - (np.cumsum(sizes) - sizes)[sector[order]]
    return _frozen(sector), _frozen(pos), _frozen(sizes)


def permutation_index(sigma: Permutation, d: int, n: int) -> np.ndarray:
    """Row of the single 1 in each column of ``permutation_operator(sigma, d, n)``."""
    if sigma.degree != n:
        raise ValueError(f"permutation degree {sigma.degree} != n = {n}")
    _check_dim(d, n)
    digs = _digit_table(d, n)
    inv = sigma.inverse()
    return np.ravel_multi_index(tuple(digs[inv(i) - 1] for i in range(1, n + 1)), (d,) * n)


def permutation_operator(sigma: Permutation, d: int, n: int) -> DenseOperator:
    """The 0/1 matrix sending |v_1 .. v_n> to |v_{sigma^-1(1)} .. v_{sigma^-1(n)}>."""
    rows = permutation_index(sigma, d, n)
    m = np.zeros((rows.size, rows.size))
    m[rows, np.arange(rows.size)] = 1.0
    return DenseOperator(d, n, m)


def partial_transpose(x: DenseOperator, legs) -> DenseOperator:
    """Transpose the row and column digits of the selected registers."""
    legs = sorted(set(int(v) for v in legs))
    if any(v < 1 or v > x.n for v in legs):
        raise ValueError(f"legs out of range 1..{x.n}: {legs}")
    n = x.n
    t = x.matrix.reshape((x.d,) * (2 * n))
    axes = list(range(2 * n))
    for leg in legs:
        axes[leg - 1], axes[n + leg - 1] = axes[n + leg - 1], axes[leg - 1]
    return DenseOperator(x.d, n, t.transpose(axes).reshape(x.dim, x.dim))


def partial_trace(x: DenseOperator, legs) -> DenseOperator:
    """Trace out the selected registers; remaining registers keep their order."""
    legs = sorted(set(int(v) for v in legs))
    if any(v < 1 or v > x.n for v in legs):
        raise ValueError(f"legs out of range 1..{x.n}: {legs}")
    n = x.n
    keep = [v for v in range(1, n + 1) if v not in legs]
    t = x.matrix.reshape((x.d,) * (2 * n))
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = [""] * n
    col = [""] * n
    pos = 0
    for leg in legs:
        row[leg - 1] = col[leg - 1] = letters[pos]
        pos += 1
    out_sub = ""
    for leg in keep:
        row[leg - 1] = letters[pos]
        out_sub += letters[pos]
        pos += 1
    for leg in keep:
        col[leg - 1] = letters[pos]
        out_sub += letters[pos]
        pos += 1
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out_sub, t)
    m = len(keep)
    return DenseOperator(x.d, m, reduced.reshape(x.d**m, x.d**m))


def embed_operator(x: DenseOperator, positions, n_total: int) -> DenseOperator:
    """Place ``x`` on the given registers of an ``n_total``-register space.

    ``positions`` lists the target register (1-based) of each register of
    ``x`` in order; every other register carries the identity.
    """
    positions = [int(v) for v in positions]
    if len(positions) != x.n or len(set(positions)) != x.n:
        raise ValueError("positions must be distinct and match x.n")
    if any(v < 1 or v > n_total for v in positions):
        raise ValueError(f"positions out of range 1..{n_total}")
    _check_dim(x.d, n_total)
    rest = [v for v in range(1, n_total + 1) if v not in positions]
    big = np.kron(x.matrix, np.eye(x.d ** len(rest)))
    # big is ordered (positions..., rest...); relabel to 1..n_total
    slot_of = {reg: k for k, reg in enumerate(positions + rest)}
    axes = [slot_of[g] for g in range(1, n_total + 1)]
    t = big.reshape((x.d,) * (2 * n_total))
    t = t.transpose(axes + [n_total + a for a in axes])
    return DenseOperator(x.d, n_total, t.reshape(x.d**n_total, x.d**n_total))


def register_reversal(p: int) -> Permutation:
    return Permutation(tuple(range(p, 0, -1)))


@lru_cache(maxsize=None)
def _pair_product(p: int, k: int) -> Permutation:
    """Product of the disjoint transpositions (p - j + 1, p + j), j = 1..k."""
    sigma = Permutation(tuple(range(1, 2 * p + 1)))
    for j in range(1, k + 1):
        sigma = sigma * transposition(2 * p, p - j + 1, p + j)
    return sigma


def V_generator(p: int, k: int, d: int) -> DenseOperator:
    """The ideal generator V^(k) on 2p registers.

    Tensor product of k partially transposed transpositions pairing register
    p - j + 1 with p + j for j = 1..k, identity on the remaining registers.
    V^(0) is the identity.
    """
    if not 0 <= k <= p:
        raise ValueError(f"need 0 <= k <= p, got k={k}, p={p}")
    base = permutation_operator(_pair_product(p, k), d, 2 * p)
    if k == 0:
        return base
    return partial_transpose(base, range(p + 1, p + k + 1))


def _pair_factor(p: int, d: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The 0/1 factor M, with M M^T the generator V on each register pair (l, r) of ``pairs``.

    V = sum over a, b of |a a><b b| on the two registers of a pair, and the
    identity on every free register.  Column c of M is the indicator of the
    basis states whose paired registers agree and whose free registers, in
    register order, spell c.  Registers are 1-based.
    """
    dim = _check_dim(d, 2 * p)
    digs = _digit_table(d, 2 * p)
    paired = np.ones(dim, dtype=bool)
    for left, right in pairs:
        paired &= digs[left - 1] == digs[right - 1]
    matched = {reg for pair in pairs for reg in pair}
    free = [reg for reg in range(1, 2 * p + 1) if reg not in matched]
    cols = np.zeros(dim, dtype=np.int64)
    for reg in free:
        cols = cols * d + digs[reg - 1]
    M = np.zeros((dim, d ** len(free)))
    idx = np.flatnonzero(paired)
    M[idx, cols[idx]] = 1.0
    return _frozen(M)


@lru_cache(maxsize=None)
def factored_V(p: int, k: int, d: int) -> np.ndarray:
    """The read-only 0/1 factor L of V^(k) = L L^T on 2p registers, a sum of d^(2(p-k)) rank-one projectors.

    Column c of L is the indicator of the basis states whose k paired
    registers agree and whose free registers (1..p-k, p+k+1..2p) spell c.
    """
    if not 0 <= k <= p:
        raise ValueError(f"need 0 <= k <= p, got k={k}")
    return _pair_factor(p, d, tuple((p - j + 1, p + j) for j in range(1, k + 1)))


@lru_cache(maxsize=None)
def factored_outer_pair(p: int, d: int) -> np.ndarray:
    """The read-only 0/1 factor M of the generator on the outermost pair (1, 2p), V = M M^T.

    Column c of M is the indicator of the basis states whose registers 1
    and 2p agree and whose registers 2..2p-1 spell c.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    return _pair_factor(p, d, ((1, 2 * p),))


@lru_cache(maxsize=None)
def _digit_reversal(d: int, k: int) -> np.ndarray:
    """rev[u] = index of the word u of [d]^k read backwards."""
    return _frozen(np.arange(d**k).reshape((d,) * k).transpose().ravel())


def _apply_pair(a: np.ndarray, b: np.ndarray | None, p: int, k: int, d: int) -> np.ndarray:
    """The wall product (a (x) b) L with L = factored_V(p, k, d), a on registers 1..p, b on p+1..2p.

    Row (y, w) of L, with y = (f, s) and w = (t, g) split into nf = p - k
    free and k paired digits, is the indicator of s = rev(t) at column
    (f, g).  So the product reaches L only through the paired registers:

        out[(x, z), (f, g)] = sum over u in [d]^k of a[x, (f, rev u)] b[z, (u, g)],

    one GEMM of shape (d^p d^nf) x d^k x (d^p d^nf) and one axis
    permutation.  ``b = None`` stands for the identity and needs k = p,
    where the product is the gather a[:, rev] and does no arithmetic.
    """
    dp, dk, dn = d**p, d**k, d ** (p - k)
    rev = _digit_reversal(d, k)
    if b is None:
        if k != p:
            raise ValueError(f"b = None needs k = p, got k={k}, p={p}")
        return a[:, rev].reshape(dp * dp, 1)
    left = a.reshape(dp, dn, dk)[:, :, rev].reshape(dp * dn, dk)
    right = b.reshape(dp, dk, dn).transpose(1, 0, 2).reshape(dk, dp * dn)
    out = (left @ right).reshape(dp, dn, dp, dn).transpose(0, 2, 1, 3)
    return out.reshape(dp * dp, dn * dn)


def V_outer_pair(p: int, d: int) -> DenseOperator:
    """The two-register ideal generator placed on the outermost pair (1, 2p), as a dense operator.

    This is the element whose products satisfy V^(p-1) V = V^(p) and
    V^(p) V = d V^(p); the innermost-pair V_generator(p, 1, d) does not.
    The dense oracle of :func:`factored_outer_pair`.
    """
    base = permutation_operator(transposition(2 * p, 1, 2 * p), d, 2 * p)
    return partial_transpose(base, [2 * p])


def bell_projector(d: int) -> DenseOperator:
    """|psi+><psi+| on two registers."""
    psi = np.zeros(d * d)
    for i in range(d):
        psi[i * d + i] = 1.0
    psi /= np.sqrt(d)
    return DenseOperator(d, 2, np.outer(psi, psi))


def sandwich_reduce(x: DenseOperator) -> DenseOperator:
    """The sandwich core K = L^T X L of a 2p-register operator, on registers (1, 2p).

    With V^(p-1) = L L^T from :func:`factored_V` and phi = vec(1_d), these
    facts are exact:

    * L^T L = d^(p-1) 1;
    * L phi = factored_V(p, p, d), so V^(p) = L phi phi^T L^T;
    * every row of L holds at most one 1, and every column at least one.

    Hence V^(p-1) X V^(p-1) = L K L^T = (K (x) 1) V^(p-1), tr(X V^(p-1)) =
    tr K and tr(X V^(p)) = phi^T K phi, and for any scalars a, b the
    operator V^(p-1) X V^(p-1) - a V^(p) - b V^(p-1) = L (K - a phi phi^T -
    b 1) L^T has exactly the entries of the d^2 x d^2 matrix in brackets
    (each at least once, plus zeros), so both share their largest absolute
    entry.
    """
    if x.n % 2 != 0:
        raise ValueError("operator must act on 2p registers")
    L = factored_V(x.n // 2, x.n // 2 - 1, x.d)
    return DenseOperator(x.d, 2, L.T @ x.matrix @ L)
