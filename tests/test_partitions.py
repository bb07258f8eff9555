import pytest
from click.testing import CliRunner

from walledbrauer.cli import main
from walledbrauer.partitions import (
    Partition,
    add_box,
    common_removals,
    count_semistandard_tableaux,
    dim_irrep,
    enumerate_partitions,
    enumerate_standard_tableaux,
    multiplicity,
    partition,
    path_to_tableau,
    remove_box,
    schur_weyl_partitions,
    tableau_to_path,
)

from oracles import multiplicity_by_fractions


def brute_count_syt(shape: tuple[int, ...]) -> int:
    """Independent oracle: place 1..p one at a time along row fronts."""

    def count(rows: tuple[int, ...]) -> int:
        if sum(rows) == sum(shape):
            return 1
        total = 0
        for r in range(len(shape)):
            above = rows[r - 1] if r else shape[0] + 1
            if rows[r] < shape[r] and rows[r] < above:
                grown = list(rows)
                grown[r] += 1
                total += count(tuple(grown))
        return total

    return count((0,) * len(shape))


def test_enumerate_partitions_order_and_counts():
    assert [m.parts for m in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(enumerate_partitions(4)) == 5
    assert [m.parts for m in enumerate_partitions(0)] == [()]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_dim_irrep_examples():
    assert dim_irrep(partition(2, 1)) == 2
    assert dim_irrep(partition(5)) == 1
    assert dim_irrep(partition(2, 2)) == brute_count_syt((2, 2)) == 2


def test_dim_irrep_matches_tableau_enumeration_up_to_p6():
    for p in range(1, 7):
        for mu in enumerate_partitions(p):
            tableaux = enumerate_standard_tableaux(mu)
            assert len(tableaux) == dim_irrep(mu) == brute_count_syt(mu.parts)
            assert all(t.is_standard() for t in tableaux)
            assert len(set(tableaux)) == len(tableaux)


def test_multiplicity_examples():
    assert multiplicity(partition(2, 1), 3) == 8
    assert multiplicity(partition(1, 1, 1, 1), 2) == 0
    assert multiplicity(partition(3), 3) == 10
    assert multiplicity(partition(2), 3) == 6


def test_multiplicity_matches_semistandard_enumeration():
    for p in range(1, 6):
        for d in range(1, 5):
            for mu in enumerate_partitions(p):
                assert multiplicity(mu, d) == count_semistandard_tableaux(mu, d)


def test_multiplicity_matches_the_rational_product():
    for p in range(0, 11):
        for d in range(1, 9):
            for mu in enumerate_partitions(p):
                assert multiplicity(mu, d) == multiplicity_by_fractions(mu, d), (mu, d)


def test_hook_defects_raise_arithmetic_errors(monkeypatch):
    """The divisibility checks of d_mu and m_mu raise, so ``python -O`` keeps them; the CLI prints one line and exits 1."""
    monkeypatch.setattr(Partition, "hook", lambda self, i, j: 7)
    with pytest.raises(ArithmeticError, match="hook lengths"):
        dim_irrep.__wrapped__(partition(2, 1))
    with pytest.raises(ArithmeticError, match="hook lengths"):
        multiplicity.__wrapped__(partition(2, 1), 3)
    dim_irrep.cache_clear()
    multiplicity.cache_clear()
    try:
        result = CliRunner().invoke(main, ["--p", "3", "--d", "3", "dims"])
    finally:
        dim_irrep.cache_clear()
        multiplicity.cache_clear()
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr.startswith("internal check failed: hook lengths") and len(result.stderr.splitlines()) == 1


def test_semistandard_single_box():
    for d in (1, 2, 5):
        assert count_semistandard_tableaux(partition(1), d) == d


def test_schur_weyl_dimension_sum():
    for p in range(1, 6):
        for d in range(1, 5):
            total = sum(dim_irrep(mu) * multiplicity(mu, d) for mu in enumerate_partitions(p))
            assert total == d**p


def test_schur_weyl_dimension_sum_at_30_30():
    """sum_mu d_mu m_mu = d^p holds at every scale; at (30, 30) over 5604 shapes, in exact integers."""
    p = d = 30
    shapes = schur_weyl_partitions(p, d)
    assert len(shapes) == 5604
    assert sum(dim_irrep(mu) * multiplicity(mu, d) for mu in shapes) == d**p


def test_remove_box_examples():
    assert [a.parts for a in remove_box(partition(2, 1))] == [(1, 1), (2,)]
    assert [a.parts for a in remove_box(partition(4))] == [(3,)]
    assert [a.parts for a in remove_box(partition(2, 2, 1))] == [(2, 1, 1), (2, 2)]


def test_add_box_examples():
    assert [m.parts for m in add_box(partition(2, 1))] == [(3, 1), (2, 2), (2, 1, 1)]
    assert [m.parts for m in add_box(Partition(()))] == [(1,)]
    assert [m.parts for m in add_box(partition(1, 1))] == [(2, 1), (1, 1, 1)]


def test_add_remove_are_mutually_inverse():
    for p in range(1, 6):
        for mu in enumerate_partitions(p):
            assert all(mu in add_box(a) for a in remove_box(mu))
            assert all(mu in remove_box(b) for b in add_box(mu))


def test_common_removals():
    assert common_removals(partition(3), partition(2, 1)) == (partition(2),)
    assert common_removals(partition(3), partition(1, 1, 1)) == ()
    assert set(common_removals(partition(2, 1), partition(2, 1))) == {partition(2), partition(1, 1)}


def test_tableau_path_bijection():
    for p in range(1, 6):
        for mu in enumerate_partitions(p):
            for t in enumerate_standard_tableaux(mu):
                assert path_to_tableau(tableau_to_path(t)) == t


def test_tableaux_block_grouped_by_removed_shape():
    for mu in (partition(2, 1), partition(3, 1), partition(2, 2, 1)):
        shapes = [t.remove_largest().shape for t in enumerate_standard_tableaux(mu)]
        expected = [a for a in remove_box(mu) for _ in range(dim_irrep(a))]
        assert shapes == expected


def test_schur_weyl_partitions_filter():
    assert [m.parts for m in schur_weyl_partitions(4, 2)] == [(4,), (3, 1), (2, 2)]


def test_json_round_trip():
    assert partition(2, 1).to_json() == [2, 1]
    assert Partition(tuple([2, 1])) == partition(2, 1)
