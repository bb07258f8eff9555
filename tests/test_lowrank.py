import numpy as np

from walledbrauer.lowrank import FactoredOperator

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

