import itertools

import numpy as np
import pytest

from walledbrauer.matrix_units import (
    E_unit,
    E_unit_prir,
    branching_expand,
    completeness_defect,
    embed_left,
    embed_right,
    left_side_matrix,
    partial_trace_E,
    young_projector,
)
from walledbrauer.partitions import (
    dim_irrep,
    enumerate_partitions,
    multiplicity,
    partition,
    schur_weyl_partitions,
)
from walledbrauer.symgroup import enumerate_group, prir_map, young_orthogonal_rep
from walledbrauer.tensorspace import (
    DenseOperator,
    V_generator,
    permutation_operator,
    register_reversal,
)


def all_units(p, d):
    return [
        E_unit(mu, i, j, d)
        for mu in enumerate_partitions(p)
        for i in range(1, dim_irrep(mu) + 1)
        for j in range(1, dim_irrep(mu) + 1)
    ]


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_unit_composition_and_trace_rules(p, d):
    units = all_units(p, d)
    for a in units:
        expected_trace = multiplicity(a.mu, d) if a.i == a.j else 0
        assert abs(a.operator.trace() - expected_trace) <= 1e-10
        for b in units:
            prod = a.operator @ b.operator
            if a.mu == b.mu and a.j == b.i:
                expected = E_unit(a.mu, a.i, b.j, d).operator
            else:
                expected = DenseOperator.zeros(d, p)
            assert prod.distance(expected) <= 1e-10


def test_symmetrizer_idempotent():
    sym = E_unit(partition(3), 1, 1, 3).operator
    avg = DenseOperator.zeros(3, 3)
    for sigma in enumerate_group(3):
        avg = avg + permutation_operator(sigma, 3, 3)
    assert sym.distance((1.0 / 6.0) * avg) <= 1e-12
    assert (sym @ sym).distance(sym) <= 1e-12


def test_unit_product_example_21():
    e12 = E_unit(partition(2, 1), 1, 2, 3).operator
    e21 = E_unit(partition(2, 1), 2, 1, 3).operator
    assert (e12 @ e21).distance(E_unit(partition(2, 1), 1, 1, 3).operator) <= 1e-10


def test_vanishing_unit_is_zero_and_flagged():
    unit = E_unit(partition(1, 1, 1), 1, 1, 2)
    assert unit.vanishing and unit.operator.max_abs() == 0.0


def test_cached_unit_cannot_be_overwritten():
    mu = partition(2, 1)
    with pytest.raises(ValueError):
        E_unit(mu, 1, 1, 3).operator.matrix[...] = 0.0
    assert abs(E_unit(mu, 1, 1, 3).operator.trace() - multiplicity(mu, 3)) <= 1e-12


def test_unit_index_range():
    with pytest.raises(IndexError):
        E_unit(partition(2, 1), 3, 1, 3)


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_resolution(d):
    """V_sigma = sum_mu sum_ij phi^mu_ij(sigma) E^mu_ij over S_3."""
    for sigma in enumerate_group(3):
        acc = DenseOperator.zeros(d, 3)
        for mu in enumerate_partitions(3):
            phi = young_orthogonal_rep(mu, sigma).matrix
            for i in range(1, dim_irrep(mu) + 1):
                for j in range(1, dim_irrep(mu) + 1):
                    acc = acc + phi[i - 1, j - 1] * E_unit(mu, i, j, d).operator
        assert acc.distance(permutation_operator(sigma, d, 3)) <= 1e-10


def test_action_rules_p3():
    d = 3
    for sigma in enumerate_group(3):
        v = permutation_operator(sigma, d, 3)
        for mu in enumerate_partitions(3):
            phi = young_orthogonal_rep(mu, sigma).matrix
            n = dim_irrep(mu)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    left = v @ E_unit(mu, i, j, d).operator
                    expected = DenseOperator.zeros(d, 3)
                    for k in range(1, n + 1):
                        expected = expected + phi[k - 1, i - 1] * E_unit(mu, k, j, d).operator
                    assert left.distance(expected) <= 1e-10
                    right = E_unit(mu, i, j, d).operator @ v
                    expected = DenseOperator.zeros(d, 3)
                    for k in range(1, n + 1):
                        expected = expected + phi[j - 1, k - 1] * E_unit(mu, i, k, d).operator
                    assert right.distance(expected) <= 1e-10


def test_young_projectors():
    assert completeness_defect(3, 3) <= 1e-12
    assert abs(young_projector(partition(2, 1), 3).trace() - 16.0) <= 1e-10
    assert young_projector(partition(1, 1, 1), 2).max_abs() == 0.0
    for mu in enumerate_partitions(3):
        for nu in enumerate_partitions(3):
            prod = young_projector(mu, 3) @ young_projector(nu, 3)
            expected = young_projector(mu, 3) if mu == nu else DenseOperator.zeros(3, 3)
            assert prod.distance(expected) <= 1e-10


def test_embed_left_identity_and_explicit_conjugation():
    ident = E_unit(partition(2), 1, 1, 2)
    combined = embed_left(ident, 2) + embed_left(E_unit(partition(1, 1), 1, 1, 2), 2)
    assert combined.distance(DenseOperator.identity(2, 4)) <= 1e-10
    unit = E_unit(partition(2, 1), 1, 2, 2)
    rev = permutation_operator(register_reversal(3), 2, 3)
    explicit = rev @ unit.operator @ rev
    assert np.max(np.abs(left_side_matrix(partition(2, 1), 1, 2, 2) - explicit.matrix)) <= 1e-12


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2)])
def test_wall_embedding_collapse_identity(p, d):
    """(E^mu_ij (x) E^nu_kl) V^(p) = delta^{mu nu} delta_{jl} (E^mu_ik (x) 1) V^(p)."""
    v = V_generator(p, p, d)
    for mu in schur_weyl_partitions(p, d):
        for nu in schur_weyl_partitions(p, d):
            dm, dn = dim_irrep(mu), dim_irrep(nu)
            for i, j, k, l in itertools.product(
                range(1, dm + 1), range(1, dm + 1), range(1, dn + 1), range(1, dn + 1)
            ):
                lhs = (embed_left(E_unit(mu, i, j, d), p) @ embed_right(E_unit(nu, k, l, d), p)) @ v
                if mu == nu and j == l:
                    rhs = embed_left(E_unit(mu, i, k, d), p) @ v
                else:
                    rhs = DenseOperator.zeros(d, 2 * p)
                assert lhs.distance(rhs) <= 1e-10


def test_branching_expand_cases():
    branching_expand(partition(1), 1, 1, 2, 2)
    branching_expand(partition(2), 1, 1, 3, 3)
    branching_expand(partition(2, 1), 1, 2, 4, 2)
    # projector form: summing the diagonal over alpha gives the identity
    total = DenseOperator.zeros(3, 3)
    for alpha in enumerate_partitions(2):
        for i in range(1, dim_irrep(alpha) + 1):
            total = total + branching_expand(alpha, i, i, 3, 3)
    assert total.distance(DenseOperator.identity(3, 3)) <= 1e-10


def test_partial_trace_E_closed_form():
    mu = partition(2, 1)
    labels = prir_map(mu)
    alpha_11, alpha_2 = labels[0], labels[1]
    traced = partial_trace_E(mu, alpha_2, alpha_2, 3)
    assert traced.distance((8.0 / 6.0) * E_unit(partition(2), 1, 1, 3).operator) <= 1e-10
    off = partial_trace_E(mu, alpha_11, alpha_2, 3)
    assert off.max_abs() <= 1e-12
    labels2 = prir_map(partition(2))
    traced2 = partial_trace_E(partition(2), labels2[0], labels2[0], 2)
    assert traced2.distance(1.5 * E_unit(partition(1), 1, 1, 2).operator) <= 1e-10


def test_partial_trace_E_exhaustive_p3():
    for mu in enumerate_partitions(3):
        for row in prir_map(mu):
            for col in prir_map(mu):
                partial_trace_E(mu, row, col, 3)  # raises on closed-form violation


def test_prir_unit_indexing():
    mu = partition(2, 1)
    labels = prir_map(mu)
    direct = E_unit(mu, 1, 2, 3)
    via_prir = E_unit_prir(mu, labels[0], labels[1], 3)
    assert direct.operator.distance(via_prir.operator) == 0
