import numpy as np
import pytest

from walledbrauer.errors import ResourceLimitError
from walledbrauer.ideal_units import G_sub, G_top, sub_row_labels, top_row_labels
from walledbrauer.partitions import dim_irrep, partition, schur_weyl_partitions
from walledbrauer.spectra import (
    analytic_overlaps,
    rho,
    spectrum_table,
    twirl,
    twirl_trace_identity,
)
from walledbrauer.symgroup import Permutation, enumerate_group
from walledbrauer.tensorspace import DenseOperator, V_generator, permutation_operator

rng = np.random.default_rng(31)


def test_twirl_identity_and_projector():
    ident = DenseOperator.identity(2, 4)
    assert twirl(ident).distance(ident) <= 1e-12
    x = DenseOperator(2, 4, rng.standard_normal((16, 16)))
    once = twirl(x)
    assert once.distance(twirl(once)) <= 1e-12


def _dense_twirl(x: DenseOperator) -> np.ndarray:
    """Sum over S_p x S_p of P_g X P_g^T / (p!)^2 with dense permutation matrices."""
    p = x.n // 2
    group = enumerate_group(p)
    acc = np.zeros_like(x.matrix)
    for s1 in group:
        for s2 in group:
            g = permutation_operator(Permutation(s1.images + tuple(p + v for v in s2.images)), x.d, x.n).matrix
            acc += g @ x.matrix @ g.T
    return acc / len(group) ** 2


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2)])
def test_twirl_equals_dense_conjugation_average(p, d):
    x = DenseOperator(d, 2 * p, np.random.default_rng(7).standard_normal((d ** (2 * p),) * 2))
    assert np.max(np.abs(twirl(x).matrix - _dense_twirl(x))) <= 1e-12
    for level in range(p + 1):
        v = V_generator(p, level, d)
        # 0/1 entries: every partial sum is an exact integer, so the averages agree bit for bit
        assert np.array_equal(twirl(v).matrix, _dense_twirl(v))


def test_twirl_preserves_trace():
    for p, d, level in ((2, 2, 2), (3, 3, 3), (3, 3, 2)):
        v = V_generator(p, level, d)
        assert abs(twirl(v).trace() - v.trace()) <= 1e-10


def test_rho_p1_is_generator():
    for d in (2, 3):
        assert rho(1, 1, d).distance(V_generator(1, 1, d)) <= 1e-12


def test_twirl_trace_identity_random_X():
    p, d = 2, 2
    y = V_generator(p, p, d)
    m2 = partition(2)
    for _ in range(5):
        x = DenseOperator(d, 2 * p, rng.standard_normal((16, 16)))
        lhs, rhs = twirl_trace_identity(x, y, m2, 1, 1, m2, 1, 1, m2, 1, 1, m2, 1, 1, d)
        assert abs(lhs - rhs) <= 1e-10


def test_twirl_trace_identity_mismatched_labels_vanish():
    p, d = 2, 2
    x = V_generator(p, p - 1, d)
    y = V_generator(p, p, d)
    lhs, rhs = twirl_trace_identity(
        x, y, partition(2), 1, 1, partition(2), 1, 1, partition(1, 1), 1, 1, partition(2), 1, 1, d
    )
    assert abs(lhs) <= 1e-12 and rhs == 0.0


def test_twirl_trace_identity_vpm1_pair():
    p, d = 3, 3
    x = V_generator(p, p - 1, d)
    m21 = partition(2, 1)
    lhs, rhs = twirl_trace_identity(x, x, m21, 1, 2, m21, 2, 1, m21, 2, 1, m21, 1, 2, d)
    assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2)])
def test_analytic_matches_brute(p, d):
    for level in (p, p - 1):
        brute = spectrum_table(p, d, level, "brute")
        analytic = spectrum_table(p, d, level, "analytic")
        assert brute.matches(analytic, 1e-6)
        assert analytic.total_multiplicity() + analytic.kernel_dim == d ** (2 * p)


def test_spectrum_table_trace_consistency():
    table = spectrum_table(2, 2, 1, "brute")
    total = sum(v * m for v, m in table.merged())
    assert abs(total - V_generator(2, 1, 2).trace()) <= 1e-8


def test_analytic_overlap_values_p3():
    records = {
        (rec.rho_level, rec.ideal, rec.mu, rec.nu, rec.interior): rec
        for rec in analytic_overlaps(3, 3)
    }
    m3, m21, ones = partition(3), partition(2, 1), partition(1, 1, 1)
    # top-ideal overlaps of the level-3 twirl: m_mu / d_mu
    assert abs(records[(3, 3, m3, m3, None)].overlap - 10.0) <= 1e-12
    assert abs(records[(3, 3, m21, m21, None)].overlap - 4.0) <= 1e-12
    # level-2 twirl against top units: m_mu / (d d_mu)
    assert abs(records[(2, 3, m3, m3, None)].eigenvalue - 10.0 / 3.0) <= 1e-12
    assert abs(records[(2, 3, ones, ones, None)].eigenvalue - 1.0 / 3.0) <= 1e-12
    # second-ideal eigenvalues of the (2,1)(2,1) block: (5 -/+ sqrt 5)/12
    assert abs(records[(2, 2, m21, m21, 1)].eigenvalue - (5 - np.sqrt(5)) / 12) <= 1e-12
    assert abs(records[(2, 2, m21, m21, 2)].eigenvalue - (5 + np.sqrt(5)) / 12) <= 1e-12
    # mixed-label blocks: 1.3333/8 and 6.6667/8
    assert abs(records[(2, 2, m21, ones, 1)].eigenvalue - 1.0 / 6.0) <= 1e-12
    assert abs(records[(2, 2, m3, m21, 1)].eigenvalue - 5.0 / 6.0) <= 1e-12
    # the would-be (1^3)(1^3) unit is discarded
    assert (2, 2, ones, ones, 1) not in records


def test_printed_table_values_p3_d3():
    printed = {
        3: [(1.0, 1), (4.0, 4), (10.0, 1)],
        2: [
            (0.1667, 32),
            (0.2303, 32),
            (0.3333, 1),
            (0.6030, 32),
            (0.8333, 32),
            (1.3333, 4),
            (1.6667, 8),
            (3.3333, 1),
        ],
    }
    for level, expected in printed.items():
        merged = spectrum_table(3, 3, level, "brute").merged()
        assert len(merged) == len(expected)
        for (value, mult), (pv, pm) in zip(merged, expected):
            assert abs(value - pv) <= 1e-4
            assert mult == pm


def test_eigen_operator_property_small():
    p, d = 2, 2
    rho_sub = rho(p - 1, p, d).matrix
    analytic = {
        (rec.ideal, rec.mu, rec.nu, rec.interior): rec.eigenvalue
        for rec in analytic_overlaps(p, d)
        if rec.rho_level == p - 1
    }
    for (mu, i, j) in top_row_labels(p, d):
        unit = G_top(mu, i, j, mu, i, j, p, d)
        lam = analytic[(p, mu, mu, None)]
        assert (unit.op.apply_dense_left(rho_sub) - lam * unit.op).frobenius_norm() <= 1e-10
    for (mu, nu, i, j, beta) in sub_row_labels(p, d):
        unit = G_sub(mu, nu, mu, nu, i, j, i, j, beta, beta, p, d)
        lam = analytic[(p - 1, mu, nu, beta)]
        assert (unit.op.apply_dense_left(rho_sub) - lam * unit.op).frobenius_norm() <= 1e-10


def test_rho_top_annihilates_second_ideal_small():
    p, d = 2, 2
    rho_top = rho(p, p, d).matrix
    for (mu, nu, i, j, beta) in sub_row_labels(p, d):
        unit = G_sub(mu, nu, mu, nu, i, j, i, j, beta, beta, p, d)
        assert abs(unit.op.trace_against_dense(rho_top)) <= 1e-10


def test_block_structure_small():
    """Matrix elements vanish between units with different labels."""
    p, d = 2, 2
    rho_sub = rho(p - 1, p, d).matrix
    srows = sub_row_labels(p, d)
    for row in srows:
        for col in srows:
            unit = G_sub(*row[:2], *col[:2], row[2], row[3], col[2], col[3], row[4], col[4], p, d)
            value = unit.op.trace_against_dense(rho_sub)
            if row != col:
                assert abs(value) <= 1e-10
            else:
                assert abs(value) > 1e-6


def test_block_structure_p3():
    """Level-2 twirl elements vanish between units with different composite labels."""
    p, d = 3, 3
    rho_sub = rho(p - 1, p, d).matrix
    srows = sub_row_labels(p, d)
    worst_off = 0.0
    for row in srows:
        for col in srows:
            unit = G_sub(row[0], row[1], col[0], col[1], row[2], row[3], col[2], col[3], row[4], col[4], p, d)
            value = unit.op.trace_against_dense(rho_sub)
            if row != col:
                worst_off = max(worst_off, abs(value))
            else:
                assert abs(value) > 1e-6
    assert worst_off <= 1e-10


def test_one_pair_level_brute_only():
    table = spectrum_table(3, 3, 1, "brute")
    assert table.total_multiplicity() + table.kernel_dim == 729
    with pytest.raises(ValueError):
        spectrum_table(3, 3, 1, "analytic")


def test_kernel_accounting():
    table = spectrum_table(3, 3, 3, "analytic")
    assert table.total_multiplicity() == sum(dim_irrep(mu) ** 2 for mu in schur_weyl_partitions(3, 3))
    assert table.kernel_dim == 729 - table.total_multiplicity()


@pytest.mark.parametrize("p,d", [(30, 3), (40, 2)])
def test_analytic_multiplicities_are_exact(p, d):
    # dim_irrep products pass 2^53 here, where a float multiplicity would round
    for rec in analytic_overlaps(p, d):
        unit_trace = 1 if rec.ideal == p else d * d - 1
        assert rec.eigen_multiplicity == dim_irrep(rec.mu) * dim_irrep(rec.nu) * unit_trace


def test_twirl_guard_refuses_before_allocating():
    # (6!)^2 conjugates of 4096 nonzeros: 2.1e9 scattered entries, although d^(2p)
    # passes the dimension guard
    with pytest.raises(ResourceLimitError):
        twirl(V_generator(6, 5, 2))
    with pytest.raises(ResourceLimitError):
        rho(5, 6, 2)
