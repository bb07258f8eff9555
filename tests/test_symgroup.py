import itertools

import numpy as np
import pytest

from walledbrauer import symgroup
from walledbrauer.errors import ResourceLimitError
from walledbrauer.partitions import dim_irrep, enumerate_partitions, partition, remove_box
from walledbrauer.symgroup import (
    Permutation,
    enumerate_group,
    factor_adjacent,
    first_in_block,
    identity,
    prir_map,
    prir_position,
    restriction_block_check,
    transposition,
    young_orthogonal_rep,
)


def test_enumerate_group_sizes_and_order():
    assert len(enumerate_group(3)) == 6
    assert len(enumerate_group(4)) == 24
    assert enumerate_group(1) == (identity(1),)
    group = enumerate_group(3)
    assert group[0].is_identity()
    assert [g.images for g in group] == sorted(g.images for g in group)


def test_enumerate_group_resource_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_group(7)


def test_permutation_arithmetic():
    s = Permutation((2, 3, 1))
    t = Permutation((1, 3, 2))
    assert (s * t).images == tuple(s(t(k)) for k in (1, 2, 3))
    assert (s * s.inverse()).is_identity()
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_factor_adjacent_reconstructs():
    for sigma in enumerate_group(4):
        rebuilt = identity(4)
        for k in factor_adjacent(sigma):
            rebuilt = rebuilt * transposition(4, k, k + 1)
        assert rebuilt == sigma


def test_yor_identity_and_sign():
    assert np.array_equal(young_orthogonal_rep(partition(2, 1), identity(3)).matrix, np.eye(2))
    sign = young_orthogonal_rep(partition(1, 1, 1), transposition(3, 1, 2)).matrix
    assert np.array_equal(sign, [[-1.0]])


def test_yor_adjacent_transposition_is_diagonal_for_21():
    m = young_orthogonal_rep(partition(2, 1), transposition(3, 1, 2)).matrix
    assert np.allclose(m, np.diag([-1.0, 1.0]))


def test_yor_orthogonality_and_homomorphism_s4():
    group = enumerate_group(4)
    for mu in enumerate_partitions(4):
        mats = {s: young_orthogonal_rep(mu, s).matrix for s in group}
        n = dim_irrep(mu)
        for m in mats.values():
            assert np.max(np.abs(m.T @ m - np.eye(n))) <= 1e-12
        for s, t in itertools.product(group, repeat=2):
            assert np.max(np.abs(mats[s] @ mats[t] - mats[s * t])) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 4])
def test_yor_orthogonality_relation(p):
    """Great orthogonality: sum_sigma phi^a_ij(s^-1) phi^b_kl(s) = (p!/d_a) deltas."""
    group = enumerate_group(p)
    for alpha in enumerate_partitions(p):
        for beta in enumerate_partitions(p):
            da, db = dim_irrep(alpha), dim_irrep(beta)
            acc = np.zeros((da, da, db, db))
            for s in group:
                acc += np.einsum(
                    "ij,kl->ijkl",
                    young_orthogonal_rep(alpha, s.inverse()).matrix,
                    young_orthogonal_rep(beta, s).matrix,
                )
            expected = np.zeros_like(acc)
            if alpha == beta:
                for i in range(da):
                    for j in range(da):
                        expected[i, j, j, i] = len(group) / da
            assert np.max(np.abs(acc - expected)) <= 1e-12


def test_prir_map_examples():
    labels = prir_map(partition(2, 1))
    assert [(ix.alpha.parts, ix.i_alpha) for ix in labels] == [((1, 1), 1), ((2,), 1)]
    labels = prir_map(partition(4))
    assert all(ix.alpha == partition(3) for ix in labels)
    labels = prir_map(partition(2, 2))
    assert [(ix.alpha.parts, ix.i_alpha) for ix in labels] == [((2, 1), 1), ((2, 1), 2)]


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
            for ix in labels:
                if not seen or seen[-1] != ix.alpha:
                    seen.append(ix.alpha)
            assert len(seen) == len(set(seen))
            assert tuple(seen) == remove_box(mu)
            for ix, pos in zip(labels, range(1, len(labels) + 1)):
                assert prir_position(mu, ix.alpha, ix.i_alpha) == pos
            for alpha in remove_box(mu):
                assert labels[first_in_block(mu, alpha) - 1].i_alpha == 1


def test_restriction_block_check():
    assert restriction_block_check(partition(2, 1), transposition(3, 1, 2))
    assert restriction_block_check(partition(3, 1), Permutation((2, 3, 1, 4)))
    assert restriction_block_check(partition(2, 2), identity(4))
    with pytest.raises(ValueError):
        restriction_block_check(partition(2, 1), Permutation((3, 2, 1)))


def test_restriction_block_check_all_generators_up_to_p5():
    for p in range(2, 6):
        gens = [transposition(p, k, k + 1) for k in range(1, p - 1)]
        for mu in enumerate_partitions(p):
            for g in gens:
                assert restriction_block_check(mu, g)
