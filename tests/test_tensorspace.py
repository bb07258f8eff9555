import tracemalloc

import numpy as np
import pytest

from walledbrauer import checks, ideal_units, tensorspace
from walledbrauer.errors import ResourceLimitError
from walledbrauer.symgroup import Permutation, enumerate_group, identity, transposition
from walledbrauer.tensorspace import (
    DenseOperator,
    V_generator,
    _apply_top,
    _digit_table,
    embed_operator,
    factored_outer_pair,
    factored_V,
    partial_trace,
    partial_transpose,
    permutation_index,
    permutation_operator,
    sandwich_reduce,
)

from oracles import V_outer_pair, apply_pair

rng = np.random.default_rng(2024)


def test_permutation_operator_identity_and_swap():
    assert permutation_operator(identity(2), 3, 2).distance(DenseOperator.identity(3, 2)) == 0
    for d in (2, 3):
        swap = permutation_operator(transposition(2, 1, 2), d, 2)
        expected = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                expected[i * d + j, j * d + i] = 1.0
        assert np.array_equal(swap.matrix, expected)


def test_permutation_operator_composition():
    group = enumerate_group(3)
    for _ in range(8):
        s, t = group[rng.integers(6)], group[rng.integers(6)]
        lhs = permutation_operator(s, 2, 3) @ permutation_operator(t, 2, 3)
        assert lhs.distance(permutation_operator(s * t, 2, 3)) == 0


def test_permutation_operator_action_convention():
    # V_sigma |v1 v2 v3> = |v_{s^-1(1)} v_{s^-1(2)} v_{s^-1(3)}>
    sigma = Permutation((2, 3, 1))
    op = permutation_operator(sigma, 2, 3)
    vec = np.zeros(8)
    vec[0b011] = 1.0  # |0 1 1>
    out = op.matrix @ vec
    inv = sigma.inverse()
    digits = (0, 1, 1)
    expected_digits = tuple(digits[inv(k) - 1] for k in (1, 2, 3))
    expected_index = int("".join(map(str, expected_digits)), 2)
    assert out[expected_index] == 1.0 and out.sum() == 1.0


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        permutation_operator(identity(10), 4, 10)


def test_digit_table_matches_unravel_index():
    """Register 1 is the most significant digit, as in ``np.unravel_index``; at d = 1 past its 64 axes too."""
    for d in range(1, 5):
        for n in range(1, 7):
            expected = np.asarray(np.unravel_index(np.arange(d**n), (d,) * n), dtype=np.int64)
            table = _digit_table(d, n)
            assert table.dtype == expected.dtype and np.array_equal(table, expected)
    assert _digit_table(3, 0).shape == (0, 1)
    assert _digit_table(1, 80).shape == (80, 1) and not _digit_table(1, 80).any()


def test_partial_transpose_swap_gives_bell():
    for d in (2, 3, 4):
        swap = permutation_operator(transposition(2, 1, 2), d, 2)
        psi = np.eye(d).ravel() / np.sqrt(d)  # |psi+>
        assert partial_transpose(swap, [2]).distance(d * DenseOperator(d, 2, np.outer(psi, psi))) <= 1e-14


def test_partial_transpose_involution_and_identity():
    x = DenseOperator(3, 2, rng.standard_normal((9, 9)))
    assert partial_transpose(partial_transpose(x, [1]), [1]).distance(x) == 0
    ident = DenseOperator.identity(2, 3)
    assert partial_transpose(ident, [1, 3]).distance(ident) == 0


def test_partial_trace_full_and_swap():
    full = partial_trace(DenseOperator.identity(2, 3), [1, 2, 3])
    assert full.n == 0 and abs(full.matrix[0, 0] - 8.0) <= 1e-14
    swap3 = permutation_operator(transposition(2, 1, 2), 3, 2)
    traced = partial_trace(swap3, [2])
    expected = np.zeros((3, 3))
    for i in range(3):  # direct index contraction oracle
        for j in range(3):
            expected[i, j] = sum(swap3.matrix[i * 3 + k, j * 3 + k] for k in range(3))
    assert np.max(np.abs(traced.matrix - expected)) == 0
    assert traced.distance(DenseOperator.identity(3, 1)) <= 1e-14


def test_partial_trace_preserves_total_trace():
    x = DenseOperator(2, 4, rng.standard_normal((16, 16)))
    assert abs(partial_trace(x, [2, 3]).trace() - x.trace()) <= 1e-12


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_V_generator_traces_and_products(p, d):
    assert V_generator(p, 0, d).distance(DenseOperator.identity(d, 2 * p)) == 0
    v = V_generator(p, p, d)
    assert abs(v.trace() - d**p) <= 1e-12
    assert partial_trace(v, range(p + 1, 2 * p + 1)).distance(DenseOperator.identity(d, p)) <= 1e-12
    outer = V_outer_pair(p, d)
    assert (V_generator(p, p - 1, d) @ outer).distance(v) <= 1e-12
    assert (v @ outer).distance(d * v) <= 1e-12


def test_V_generator_single_pair():
    for d in (2, 3):
        v = V_generator(1, 1, d)
        assert abs(v.trace() - d) <= 1e-14
        psi = np.eye(d).ravel() / np.sqrt(d)  # |psi+>
        assert v.distance(d * DenseOperator(d, 2, np.outer(psi, psi))) <= 1e-14


def test_ping_pong():
    for d in (2, 3, 4):
        x = rng.standard_normal((d, d))
        psi = np.zeros(d * d)
        for i in range(d):
            psi[i * d + i] = 1.0 / np.sqrt(d)
        lhs = np.kron(x, np.eye(d)) @ psi
        rhs = np.kron(np.eye(d), x.T) @ psi
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_generalized_ping_pong_p2_d2():
    p, d = 2, 2
    v = V_generator(p, p, d)
    for _ in range(5):
        ops = [rng.standard_normal((d, d)) for _ in range(4)]
        lhs = DenseOperator(d, 4, np.kron(np.kron(ops[0], ops[1]), np.kron(ops[2], ops[3]))) @ v
        core = np.kron(ops[0] @ ops[3].T, ops[1] @ ops[2].T)
        rhs = DenseOperator(d, 4, np.kron(core, np.eye(d**p))) @ v
        assert lhs.distance(rhs) <= 1e-12


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sandwich_fact(p, d):
    v = V_generator(p, p, d)
    x = rng.standard_normal((d**p, d**p))
    embedded = embed_operator(DenseOperator(d, p, x), range(1, p + 1), 2 * p)
    lhs = v @ embedded @ v
    assert lhs.distance(float(np.trace(x)) * v) <= 1e-10 * max(1.0, abs(np.trace(x)))


def test_embed_operator_roundtrip():
    x = DenseOperator(2, 2, rng.standard_normal((4, 4)))
    natural = embed_operator(x, [1, 2], 3)
    assert natural.distance(DenseOperator(2, 3, np.kron(x.matrix, np.eye(2)))) <= 1e-14
    flipped = embed_operator(x, [2, 1], 2)
    rev = permutation_operator(Permutation((2, 1)), 2, 2)
    assert flipped.distance(rev @ x @ rev) <= 1e-14


def test_sandwich_reduce_identity_cases():
    d = 2
    for p in (2, 3):
        v = V_generator(p, p - 1, d)
        ident = DenseOperator.identity(d, 2 * p)
        reduced = sandwich_reduce(ident)
        assert reduced.distance(d ** (p - 1) * DenseOperator.identity(d, 2)) <= 1e-12
        # V^(p-1) V^(p-1) = d^(p-1) V^(p-1), so the reduced core of X = V^(p-1)
        # carries d^(2(p-1)) by the defining identity
        reduced_v = sandwich_reduce(v)
        assert reduced_v.distance(d ** (2 * (p - 1)) * DenseOperator.identity(d, 2)) <= 1e-12
        assert (v @ v).distance(d ** (p - 1) * v) <= 1e-12
        for _ in range(10):
            x = DenseOperator(d, 2 * p, rng.standard_normal((d ** (2 * p), d ** (2 * p))))
            rhs = embed_operator(sandwich_reduce(x), [1, 2 * p], 2 * p) @ v
            assert (v @ x @ v).distance(rhs) <= 1e-9


@pytest.mark.parametrize("p,d", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_factored_V_sub_facts_behind_the_sandwich_core(p, d):
    L = factored_V(p, p - 1, d)
    phi = np.eye(d).ravel()
    assert np.array_equal(L.T @ L, d ** (p - 1) * np.eye(d * d))
    assert np.array_equal(L @ phi, factored_V(p, p, d)[:, 0])
    assert L.sum(axis=1).max() <= 1 and L.sum(axis=0).min() >= 1


def test_permutation_index_is_the_operator_support():
    for sigma in enumerate_group(3):
        for d in (2, 3):
            rows = permutation_index(sigma, d, 3)
            m = permutation_operator(sigma, d, 3).matrix
            assert np.array_equal(np.argmax(m, axis=0), rows)


@pytest.mark.parametrize("p,d", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_wall_product_kernel_matches_the_dense_product(p, d):
    dp = d**p
    for k in range(p + 1):
        a, b = rng.standard_normal((dp, dp)), rng.standard_normal((dp, dp))
        dense = np.kron(a, b) @ factored_V(p, k, d)
        out = apply_pair(a, b, p, k, d)
        assert out.shape == dense.shape
        assert np.max(np.abs(out - dense)) <= 1e-12 * np.linalg.norm(dense)
    # the top factor is a gather: every entry is one entry of a, exactly
    dense = np.kron(a, np.eye(dp)) @ factored_V(p, p, d)
    assert np.array_equal(_apply_top(a, p, d), dense)


def _named(results, name):
    return next(r for r in results if r.name == name)


def test_generator_suites_form_no_dense_product_above_dim_64(monkeypatch):
    # the generator identities are read off the factors of factored_V and the
    # twirl is applied matrix-free; the largest dense product left is
    # sandwich_reduce_identity's at (3,2)
    dims = []
    matmul = DenseOperator.__matmul__

    def recording(self, other):
        dims.append(max(self.dim, other.dim))
        return matmul(self, other)

    monkeypatch.setattr(DenseOperator, "__matmul__", recording)
    for suite in ("tensorspace", "generators", "eigenoperators"):
        assert all(r.passed for r in checks.run_suite(suite, 3, 3))
    assert dims and max(dims) <= 64


def test_generator_suites_stay_below_one_dense_array():
    # one d^(2p) x d^(2p) float array at (3,3) takes 3^12 * 8 bytes = 4.25 MB;
    # the unit systems are cached, so they are built before the measurement
    p, d = 3, 3
    for ideal in (p, p - 1):
        ideal_units.unit_system(p, d, ideal)
    for suite in ("tensorspace", "generators", "eigenoperators"):
        tracemalloc.start()
        try:
            results = checks.run_suite(suite, p, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak < d ** (4 * p) * 8, (suite, peak)
    assert all(r.passed for r in checks.run_suite("all", p, d))


@pytest.mark.parametrize("p,d", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_factored_outer_pair_is_the_dense_outer_pair(p, d):
    M = factored_outer_pair(p, d)
    assert np.array_equal(M @ M.T, V_outer_pair(p, d).matrix)
    assert M.sum(axis=1).max() <= 1 and M.sum(axis=0).min() >= 1


@pytest.mark.parametrize("p,d", [(2, 2), (3, 3)])
def test_generator_products_fails_on_the_innermost_pair(monkeypatch, p, d):
    # the factor of V on the innermost pair (p, p+1) planted where the outer pair's belongs
    monkeypatch.setattr(checks, "factored_outer_pair", lambda pq, dq: factored_V(pq, 1, dq))
    assert not _named(checks.suite_tensorspace(p, d), "generator_products").passed


def test_sandwich_fact_fails_without_the_digit_reversal(monkeypatch):
    monkeypatch.setattr(tensorspace, "_digit_reversal", lambda d, k: np.arange(d**k))
    assert not _named(checks.suite_tensorspace(3, 3), "sandwich_fact_p<=3").passed
