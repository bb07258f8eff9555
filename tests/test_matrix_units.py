import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from walledbrauer import matrix_units
from walledbrauer.matrix_units import E_unit, embed_left, embed_right, left_side_matrix, right_side_matrix
from walledbrauer.partitions import (
    dim_irrep,
    enumerate_partitions,
    multiplicity,
    partition,
    schur_weyl_partitions,
)
from walledbrauer.symgroup import Permutation, enumerate_group, prir_map, prir_position, young_orthogonal_rep
from walledbrauer.tensorspace import (
    DenseOperator,
    V_generator,
    partial_trace,
    permutation_operator,
)

from oracles import left_by_conjugation, suite_results, unit_by_permutation_sum


def planted(monkeypatch, key):
    """Move one entry of the unit _unit_matrix(*key) by 1e-8, as every caller in the suites reads it."""
    unit = matrix_units._unit_matrix

    def perturbed(*args):
        out = unit(*args)
        if args == key:
            out = out.copy()
            out[0, 0] += 1e-8
        return out

    monkeypatch.setattr(matrix_units, "_unit_matrix", perturbed)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_unit_composition_and_trace_rules(p, d):
    """The suite at (p, d) composes every pair of units and reads every trace at (p, d) among others."""
    assert suite_results("matrix_units", p, d)["unit_composition_and_trace_p<=3_d<=3"].residual <= 1e-10


def test_symmetrizer_idempotent():
    sym = E_unit(partition(3), 1, 1, 3)
    avg = DenseOperator.zeros(3, 3)
    for sigma in enumerate_group(3):
        avg = avg + permutation_operator(sigma, 3, 3)
    assert sym.distance((1.0 / 6.0) * avg) <= 1e-12
    assert (sym @ sym).distance(sym) <= 1e-12


def test_unit_product_example_21():
    e12 = E_unit(partition(2, 1), 1, 2, 3)
    e21 = E_unit(partition(2, 1), 2, 1, 3)
    assert (e12 @ e21).distance(E_unit(partition(2, 1), 1, 1, 3)) <= 1e-10


def test_vanishing_unit_is_zero_and_flagged():
    assert multiplicity(partition(1, 1, 1), 2) == 0 and not E_unit(partition(1, 1, 1), 1, 1, 2).matrix.any()


def test_cached_unit_cannot_be_overwritten():
    mu = partition(2, 1)
    with pytest.raises(ValueError):
        E_unit(mu, 1, 1, 3).matrix[...] = 0.0
    assert abs(E_unit(mu, 1, 1, 3).trace() - multiplicity(mu, 3)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_units_equal_their_dense_definitions_exactly(p, d):
    """The scattered unit is the dense p! sum, and the left frame's gather is R E R, entry for entry."""
    for mu in enumerate_partitions(p):
        for i, j in itertools.product(range(1, dim_irrep(mu) + 1), repeat=2):
            assert np.array_equal(right_side_matrix(mu, i, j, d), unit_by_permutation_sum(mu, i, j, d))
            assert np.array_equal(left_side_matrix(mu, i, j, d), left_by_conjugation(mu, i, j, d))


def test_cold_unit_build_makes_no_dense_operator(monkeypatch):
    """Each unit is scattered from index maps: no d^p x d^p permutation matrix is formed."""
    made = []
    init = DenseOperator.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DenseOperator, "__init__", counting_init)
    monkeypatch.setattr(matrix_units, "_unit_matrix", lru_cache(maxsize=None)(matrix_units._unit_matrix.__wrapped__))
    for mu in enumerate_partitions(3):
        for i, j in itertools.product(range(1, dim_irrep(mu) + 1), repeat=2):
            left_side_matrix(mu, i, j, 2)  # a cold build of the unit, then the gather
    assert made == []


def test_unit_index_range():
    with pytest.raises(IndexError):
        E_unit(partition(2, 1), 3, 1, 3)
    for embed in (embed_left, embed_right):  # index 0 would read the last row of phi
        with pytest.raises(IndexError):
            embed(partition(2, 1), 0, 1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_resolution(d):
    """V_sigma = sum_mu sum_ij phi^mu_ij(sigma) E^mu_ij over S_3, at d = 2 and 3 whatever the suite's d."""
    assert suite_results("matrix_units", 3, d)["permutation_resolution_S3"].residual <= 1e-10


def test_action_rules_p3():
    d = 3
    for sigma in enumerate_group(3):
        v = permutation_operator(sigma, d, 3)
        for mu in enumerate_partitions(3):
            phi = young_orthogonal_rep(mu, sigma)
            n = dim_irrep(mu)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    left = v @ E_unit(mu, i, j, d)
                    expected = DenseOperator.zeros(d, 3)
                    for k in range(1, n + 1):
                        expected = expected + phi[k - 1, i - 1] * E_unit(mu, k, j, d)
                    assert left.distance(expected) <= 1e-10
                    right = E_unit(mu, i, j, d) @ v
                    expected = DenseOperator.zeros(d, 3)
                    for k in range(1, n + 1):
                        expected = expected + phi[j - 1, k - 1] * E_unit(mu, i, k, d)
                    assert right.distance(expected) <= 1e-10


def test_young_projectors():
    """sum_mu sum_i E^mu_ii is the identity on 2 and on 3 registers."""
    for p in (2, 3):
        assert suite_results("matrix_units", p, 3)["projector_completeness"].residual <= 1e-12


def test_completeness_defect_holds_one_running_sum():
    """The suite at (3,8) adds each E^mu_ii into one sum: under 7 arrays of d^p x d^p floats at its peak, cold.

    The four diagonal units stay cached, and one is in its build (two
    arrays); no projector, identity or difference array is formed.
    """
    p, d = 3, 8
    matrix_units._unit_matrix.cache_clear()
    tracemalloc.start()
    try:
        result = suite_results("matrix_units", p, d)["projector_completeness"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.residual <= 1e-12
    assert peak < 7 * d ** (2 * p) * 8, peak / (d ** (2 * p) * 8)


def test_embed_left_identity_and_explicit_conjugation():
    combined = embed_left(partition(2), 1, 1, 2) + embed_left(partition(1, 1), 1, 1, 2)
    assert combined.distance(DenseOperator.identity(2, 4)) <= 1e-10
    unit = E_unit(partition(2, 1), 1, 2, 2)
    rev = permutation_operator(Permutation((3, 2, 1)), 2, 3)
    explicit = rev @ unit @ rev
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
                lhs = (embed_left(mu, i, j, d) @ embed_right(nu, k, l, d)) @ v
                if mu == nu and j == l:
                    rhs = embed_left(mu, i, k, d) @ v
                else:
                    rhs = DenseOperator.zeros(d, 2 * p)
                assert lhs.distance(rhs) <= 1e-10


def test_branching_expand_cases(monkeypatch):
    """E^alpha_ij (x) 1 is the one-box branching sum; one moved entry of a unit it reads fails the check."""
    assert suite_results("matrix_units", 2, 2)["branching_and_partial_trace_forms"].passed
    planted(monkeypatch, (partition(2, 1), 1, 2, 2))
    result = suite_results("matrix_units", 2, 2)["branching_and_partial_trace_forms"]
    assert not result.passed and result.detail == "residual 1.000e-08"


def traced_unit(mu, row, col, d):
    """tr_p of E^mu at the positions of the (alpha, i_alpha) labels row and col."""
    return partial_trace(E_unit(mu, prir_position(mu, *row), prir_position(mu, *col), d), [mu.total])


def test_partial_trace_E_closed_form():
    mu = partition(2, 1)
    labels = prir_map(mu)
    alpha_11, alpha_2 = labels[0], labels[1]
    traced = traced_unit(mu, alpha_2, alpha_2, 3)
    assert traced.distance((8.0 / 6.0) * E_unit(partition(2), 1, 1, 3)) <= 1e-10
    off = traced_unit(mu, alpha_11, alpha_2, 3)
    assert np.max(np.abs(off.matrix)) <= 1e-12
    labels2 = prir_map(partition(2))
    traced2 = traced_unit(partition(2), labels2[0], labels2[0], 2)
    assert traced2.distance(1.5 * E_unit(partition(1), 1, 1, 2)) <= 1e-10


def test_partial_trace_E_exhaustive_p3(monkeypatch):
    """Every label pair of every shape of 3 at d = 3 traces to its closed form; one moved entry fails the check."""
    assert suite_results("matrix_units", 2, 2)["branching_and_partial_trace_forms"].passed
    planted(monkeypatch, (partition(2, 1), 1, 2, 3))
    result = suite_results("matrix_units", 2, 2)["branching_and_partial_trace_forms"]
    assert not result.passed and result.detail == "residual 1.000e-08"


def test_prir_unit_indexing():
    """A unit is read at the positions of its (alpha, i_alpha) labels."""
    mu = partition(2, 1)
    labels = prir_map(mu)
    assert traced_unit(mu, labels[0], labels[1], 3).distance(partial_trace(E_unit(mu, 1, 2, 3), [3])) == 0
