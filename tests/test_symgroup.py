import numpy as np
import pytest

from walledbrauer import checks, symgroup
from walledbrauer.errors import ResourceLimitError
from walledbrauer.partitions import enumerate_partitions, partition, remove_box
from walledbrauer.symgroup import (
    Permutation,
    enumerate_group,
    factor_adjacent,
    identity,
    prir_map,
    prir_position,
    transposition,
    young_orthogonal_rep,
)

from oracles import suite_results


def test_enumerate_group_sizes_and_order():
    assert len(enumerate_group(3)) == 6
    assert len(enumerate_group(4)) == 24
    assert enumerate_group(1) == (identity(1),)
    group = enumerate_group(3)
    assert group[0] == identity(3)
    assert [g.images for g in group] == sorted(g.images for g in group)


def test_enumerate_group_resource_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_group(7)


def test_permutation_arithmetic():
    s = Permutation((2, 3, 1))
    t = Permutation((1, 3, 2))
    assert (s * t).images == tuple(s(t(k)) for k in (1, 2, 3))
    assert s * s.inverse() == identity(3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_factor_adjacent_reconstructs():
    for sigma in enumerate_group(4):
        rebuilt = identity(4)
        for k in factor_adjacent(sigma):
            rebuilt = rebuilt * transposition(4, k, k + 1)
        assert rebuilt == sigma


def test_yor_identity_and_sign():
    assert np.array_equal(young_orthogonal_rep(partition(2, 1), identity(3)), np.eye(2))
    sign = young_orthogonal_rep(partition(1, 1, 1), transposition(3, 1, 2))
    assert np.array_equal(sign, [[-1.0]])


def test_yor_adjacent_transposition_is_diagonal_for_21():
    m = young_orthogonal_rep(partition(2, 1), transposition(3, 1, 2))
    assert np.allclose(m, np.diag([-1.0, 1.0]))


def test_yor_orthogonality_and_homomorphism_s4():
    checks = suite_results("representations", 4, 2)
    assert checks["orthogonality_S4"].residual <= 1e-12 and checks["homomorphism_S4"].residual <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 4])
def test_yor_orthogonality_relation(p):
    """Great orthogonality: sum_sigma phi^a_ij(s^-1) phi^b_kl(s) = (p!/d_a) deltas."""
    assert suite_results("representations", p, 2)[f"orthogonality_relation_S{p}"].residual <= 1e-12


def test_prir_map_examples():
    labels = prir_map(partition(2, 1))
    assert labels == ((partition(1, 1), 1), (partition(2), 1))
    labels = prir_map(partition(4))
    assert all(alpha == partition(3) for alpha, _ in labels)
    labels = prir_map(partition(2, 2))
    assert labels == ((partition(2, 1), 1), (partition(2, 1), 2))


def test_prir_map_raises_when_its_blocks_miss_d_mu(monkeypatch):
    """The block count check is an ArithmeticError, which ``python -O`` keeps."""
    monkeypatch.setattr(symgroup, "dim_irrep", lambda mu: 5)
    with pytest.raises(ArithmeticError, match="not d_mu = 5"):
        prir_map.__wrapped__(partition(2, 1))


def test_prir_blocks_contiguous():
    for p in range(2, 6):
        for mu in enumerate_partitions(p):
            labels = prir_map(mu)
            seen = []
            for alpha, _ in labels:
                if not seen or seen[-1] != alpha:
                    seen.append(alpha)
            assert len(seen) == len(set(seen))
            assert tuple(seen) == remove_box(mu)
            for pos, label in enumerate(labels, 1):
                assert prir_position(mu, *label) == pos
            for alpha in remove_box(mu):
                assert labels[prir_position(mu, alpha, 1) - 1] == (alpha, 1)


def test_prir_position_refuses_a_label_of_another_shape():
    """A label is a plain pair, so the shape it is read against validates it."""
    with pytest.raises(ValueError, match="not mu minus a box"):
        prir_position(partition(2, 1), partition(3), 1)
    with pytest.raises(ValueError, match="i_alpha out of range"):
        prir_position(partition(2, 1), partition(2), 2)


def test_restriction_block_check(monkeypatch):
    """One entry planted off the PRIR blocks of phi^(2,1)(s_1) fails the subgroup adaptation check."""
    mu, s1 = partition(2, 1), transposition(3, 1, 2)
    planted = young_orthogonal_rep(mu, s1).copy()
    planted[0, 1] = 1e-9  # between the blocks of (1,1) and (2)
    monkeypatch.setattr(checks, "young_orthogonal_rep", lambda nu, s: planted if (nu, s) == (mu, s1) else young_orthogonal_rep(nu, s))
    result = suite_results("representations", 2, 2)["subgroup_adaptation_p<=5"]
    assert not result.passed and result.detail == "block residual 1.000e-09"


def test_restriction_block_check_all_generators_up_to_p5():
    assert suite_results("representations", 2, 2)["subgroup_adaptation_p<=5"].passed
