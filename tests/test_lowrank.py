from fractions import Fraction

import numpy as np
import pytest

from walledbrauer.lowrank import FactoredOperator, fraction_rank_det, jacobi_eigh

rng = np.random.default_rng(404)


def test_factored_arithmetic_matches_dense():
    n, r = 12, 3
    a = FactoredOperator(rng.standard_normal((n, r)), rng.standard_normal((r, n)))
    b = FactoredOperator(rng.standard_normal((n, r)), rng.standard_normal((r, n)))
    ad, bd = a.to_dense(), b.to_dense()
    assert np.max(np.abs((a @ b).to_dense() - ad @ bd)) <= 1e-12
    assert np.max(np.abs((a + b).to_dense() - (ad + bd))) <= 1e-12
    assert np.max(np.abs((2.5 * a).to_dense() - 2.5 * ad)) <= 1e-12
    assert abs(a.frobenius_norm() - np.linalg.norm(ad)) <= 1e-10
    assert abs(a.distance(b) - np.linalg.norm(ad - bd)) <= 1e-10


def test_factored_distance_is_stable_for_near_equal_operators():
    n = 400
    left = rng.standard_normal((n, 2))
    right = rng.standard_normal((2, n))
    a = FactoredOperator(left, right)
    b = FactoredOperator(left.copy(), right.copy())
    assert a.distance(b) <= 1e-12


def test_compress_reduces_rank_without_changing_operator():
    n = 30
    base = FactoredOperator(rng.standard_normal((n, 2)), rng.standard_normal((2, n)))
    padded = base + FactoredOperator.zero(n) + 0.0 * base
    assert padded.rank_bound > 2
    squeezed = padded.compress()
    assert squeezed.rank_bound <= 2
    assert squeezed.distance(base) <= 1e-10


def test_jacobi_matches_reference_eigensolver():
    for k in (1, 2, 3, 5, 8):
        for _ in range(5):
            m = rng.standard_normal((k, k))
            sym = (m + m.T) / 2
            vals, q = jacobi_eigh(sym)
            ref = np.linalg.eigvalsh(sym)
            assert np.max(np.abs(vals - ref)) <= 1e-10
            assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-12
            assert np.max(np.abs(q @ np.diag(vals) @ q.T - sym)) <= 1e-10


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exact_rank_and_determinant_against_reference():
    for k in (1, 2, 3, 4):
        for _ in range(10):
            ints = rng.integers(-4, 5, size=(k, k))
            rows = [[Fraction(int(v)) for v in row] for row in ints]
            rank, det = fraction_rank_det(rows)
            assert rank == np.linalg.matrix_rank(ints.astype(float))
            assert abs(float(det) - np.linalg.det(ints.astype(float))) <= 1e-6
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert fraction_rank_det(singular) == (1, 0)
    # a zero pivot column before a full one: rank 2, determinant 0, and one row swap gives -2
    assert fraction_rank_det([[Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)],
                              [Fraction(0), Fraction(0), Fraction(0)]]) == (2, 0)
    assert fraction_rank_det([[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]) == (2, -2)
    assert fraction_rank_det([]) == (0, 1)
    with pytest.raises(ValueError):
        fraction_rank_det([[Fraction(1), Fraction(2)]])
