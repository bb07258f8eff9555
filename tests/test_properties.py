from collections import Counter

import numpy as np
from hypothesis import given, strategies as st

from walledbrauer.partitions import (
    Partition,
    add_box,
    count_semistandard_tableaux,
    dim_irrep,
    enumerate_partitions,
    enumerate_standard_tableaux,
    multiplicity,
    remove_box,
)
from walledbrauer.symgroup import (
    Permutation,
    factor_adjacent,
    identity,
    transposition,
    young_orthogonal_rep,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return Partition(tuple(sorted(counts.values(), reverse=True)))


@st.composite
def permutation_strategy(draw, degree):
    return Permutation(tuple(draw(st.permutations(range(1, degree + 1)))))


@given(mu=partition_strategy())
def test_hook_dimension_counts_tableaux(mu):
    assert dim_irrep(mu) == len(enumerate_standard_tableaux(mu))


@given(mu=partition_strategy(max_n=6), d=st.integers(min_value=1, max_value=4))
def test_hook_content_counts_semistandard_fillings(mu, d):
    assert multiplicity(mu, d) == count_semistandard_tableaux(mu, d)


@given(mu=partition_strategy())
def test_add_and_remove_box_are_inverse_relations(mu):
    assert all(mu in add_box(alpha) for alpha in remove_box(mu))
    assert all(mu in remove_box(beta) for beta in add_box(mu))


@given(n=st.integers(min_value=0, max_value=9))
def test_enumeration_is_complete_and_valid(n):
    parts = enumerate_partitions(n)
    assert len(set(parts)) == len(parts)
    assert all(mu.total == n for mu in parts)
    reference = [0] * (n + 1)
    reference[0] = 1
    for k in range(1, n + 1):  # classic coin-counting recurrence
        for total in range(k, n + 1):
            reference[total] += reference[total - k]
    assert len(parts) == reference[n]


@given(data=st.data(), mu=partition_strategy(max_n=5))
def test_orthogonal_rep_is_homomorphism_on_random_pairs(data, mu):
    p = mu.total
    s = data.draw(permutation_strategy(p))
    t = data.draw(permutation_strategy(p))
    lhs = young_orthogonal_rep(mu, s) @ young_orthogonal_rep(mu, t)
    rhs = young_orthogonal_rep(mu, s * t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_adjacent_factorization_reconstructs(data, n):
    sigma = data.draw(permutation_strategy(n))
    rebuilt = identity(n)
    for k in factor_adjacent(sigma):
        rebuilt = rebuilt * transposition(n, k, k + 1)
    assert rebuilt == sigma


@given(data=st.data(), n=st.integers(min_value=2, max_value=6))
def test_single_column_rep_is_the_sign(data, n):
    sigma = data.draw(permutation_strategy(n))
    column = Partition((1,) * n)
    value = young_orthogonal_rep(column, sigma)[0, 0]
    parity = (-1) ** len(factor_adjacent(sigma))
    assert abs(value - parity) <= 1e-12
