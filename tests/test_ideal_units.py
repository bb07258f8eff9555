import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from walledbrauer import checks, ideal_units
from walledbrauer.checks import run_suite
from walledbrauer.errors import ResourceLimitError, ZeroMultiplicityError
from walledbrauer.ideal_units import (
    BMatrix,
    B_matrix,
    G_sub,
    G_top,
    GUnit,
    UnitSystem,
    ab_general,
    b_entry,
    exact_ldl,
    second_ideal_blocks,
    singularity_condition,
    sub_row_labels,
    top_row_labels,
    trace_with_V_sub,
    trace_with_V_top,
    unit_system,
)
from walledbrauer.lowrank import FactoredOperator
from walledbrauer.matrix_units import left_side_matrix, right_side_matrix
from walledbrauer.partitions import (
    add_box,
    common_removals,
    dim_irrep,
    enumerate_partitions,
    multiplicity,
    partition,
    remove_box,
    schur_weyl_partitions,
)
from walledbrauer.symgroup import (
    _adjacent_generator,
    prir_block_offsets,
    prir_map,
    prir_position,
    transposition,
    young_orthogonal_rep,
)
from walledbrauer.tensorspace import V_generator, _paired_stack, _sandwich_core, _weight_sectors, factored_outer_pair, factored_V

from oracles import (
    F_sub,
    F_top,
    H_operator,
    _sector_pack,
    _wall_factor,
    apply_pair,
    composition_worst_by_pairs,
    factored_trace,
    reduction_by_pairs,
    rho,
    run_cli,
    sandwich_core,
    unit_operator,
)

rng = np.random.default_rng(99)


def embedded_pair(mu, rm, cm, nu, rn, cn, d):
    """Dense (E^mu (x) E^nu) with wall-side frames, indices as global positions."""
    return np.kron(left_side_matrix(mu, rm, cm, d), right_side_matrix(nu, rn, cn, d))


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 3)])
def test_factored_V_matches_dense(p, d):
    for k in range(p + 1):
        L = factored_V(p, k, d)
        assert np.max(np.abs(L @ L.T - V_generator(p, k, d).matrix)) <= 1e-14


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 3)])
def test_F_top_trace_rule(p, d):
    rows = top_row_labels(p, d)
    for (mu, i, j) in rows:
        for (nu, ip, jp) in rows:
            f = F_top(mu, i, j, nu, ip, jp, p, d)
            expected = multiplicity(mu, d) if (mu == nu and ip == i and jp == j) else 0.0
            assert abs(factored_trace(f) - expected) <= 1e-10


def test_F_top_symmetric_shape_idempotent_up_to_multiplicity():
    p, d = 3, 3
    mu = partition(3)
    f = F_top(mu, 1, 1, mu, 1, 1, p, d)
    prod = f @ f
    assert prod.distance(multiplicity(mu, d) * f) <= 1e-9


def test_F_top_vanishing():
    f = F_top(partition(1, 1, 1), 1, 1, partition(3), 1, 1, 3, 2)
    assert f.rank_bound == 0


def test_F_sub_trace_rule_p3():
    p, d = 3, 3
    shapes = schur_weyl_partitions(p, d)
    for mu, nu, mup, nup in itertools.product(shapes, repeat=4):
        for alpha in common_removals(mu, nu):
            for alphap in common_removals(mup, nup):
                for i, j, ip, jp in itertools.product(
                    range(1, dim_irrep(mu) + 1),
                    range(1, dim_irrep(nu) + 1),
                    range(1, dim_irrep(mup) + 1),
                    range(1, dim_irrep(nup) + 1),
                ):
                    f = F_sub(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
                    expected = 0.0
                    if alpha == alphap and mu == mup and nu == nup and ip == i and jp == j:
                        expected = multiplicity(mu, d) * multiplicity(nu, d) / multiplicity(alpha, d)
                    assert abs(factored_trace(f) - expected) <= 1e-9


def test_F_sub_empty_intersection_is_labelled_zero():
    f = F_sub(
        partition(3), partition(1, 1, 1),
        partition(3), partition(3),
        1, 1, 1, 1,
        partition(2), partition(2),
        3, 3,
    )
    assert f.frobenius_norm() == 0.0


def wall_pair(mu, nu, i, j, alpha, d, interior=1):
    """Dense E^mu_{i,r} (x) E^nu_{j,r2} in the wall-side frames, r and r2 the positions of (alpha, interior)."""
    return np.kron(left_side_matrix(mu, i, prir_position(mu, alpha, interior), d),
                   right_side_matrix(nu, j, prir_position(nu, alpha, interior), d))


def test_F_sub_interior_relabel_invariance():
    """F_sub, built at the first interior index, equals the dense sandwich at every interior index."""
    # needs an interior block of dimension > 1: alpha = (2,1) at p = 4
    p, d = 4, 2
    mu, nu = partition(3, 1), partition(2, 2)
    alpha = partition(2, 1)
    f_sub = F_sub(mu, nu, mu, nu, 1, 1, 1, 1, alpha, alpha, p, d).to_dense()
    v = V_generator(p, p - 1, d).matrix
    for r in (1, 2):
        for c in (1, 2):
            dense = wall_pair(mu, nu, 1, 1, alpha, d, r) @ v @ wall_pair(mu, nu, 1, 1, alpha, d, c).T
            assert np.max(np.abs(f_sub - dense)) <= 1e-12


def test_span_reduction_identity():
    """Two-sided unit sandwiches of V^(p) collapse to the non-redundant form."""
    p, d = 2, 2
    v = factored_V(p, p, d)
    shapes = schur_weyl_partitions(p, d)
    for mu, mup, nu, nup in itertools.product(shapes, repeat=4):
        left = embedded_pair(mu, 1, 1, mup, 1, 1, d)
        right = embedded_pair(nu, 1, 1, nup, 1, 1, d)
        lhs = FactoredOperator(left @ v, v.T @ right)
        if mu == mup and nu == nup:
            rhs = F_top(mu, 1, 1, nu, 1, 1, p, d)
        else:
            rhs = FactoredOperator.zero(d ** (2 * p))
        assert lhs.distance(rhs) <= 1e-10


def test_proposition_top_sandwich():
    """V^(p) (E (x) E) V^(p) = m_mu deltas V^(p), random unit pairs."""
    for p, d in ((2, 2), (3, 3)):
        v = factored_V(p, p, d)
        shapes = schur_weyl_partitions(p, d)
        for _ in range(10):
            mu = shapes[rng.integers(len(shapes))]
            nu = shapes[rng.integers(len(shapes))]
            dm, dn = dim_irrep(mu), dim_irrep(nu)
            i, j = rng.integers(1, dm + 1), rng.integers(1, dm + 1)
            k, l = rng.integers(1, dn + 1), rng.integers(1, dn + 1)
            x = embedded_pair(mu, i, j, nu, k, l, d)
            lhs = FactoredOperator(v, (v.T @ x) @ v @ v.T)
            scale = multiplicity(mu, d) if (mu == nu and i == k and j == l) else 0.0
            assert lhs.distance(scale * FactoredOperator(v, v.T)) <= 1e-9


# ----------------------------------------------------------------------------
# coefficients


def test_ab_identity_exact():
    """a d + b = [same unit] m_mu / d over every label pair, checked by the coefficients suite."""
    for p, d in ((3, 3), (3, 2), (4, 2)):
        results = {r.name: r for r in run_suite("coefficients", p, d)}
        assert results["ad_plus_b_exact"].passed
        assert all(r.passed for r in results.values()), (p, d)


def test_b_entry_fixture():
    assert b_entry(partition(2, 1), partition(2, 1), partition(1, 1), partition(1, 1), 3) == Fraction(7, 3)
    first = (partition(1, 1), 1)
    a, b = ab_general(partition(2, 1), partition(2, 1), first, first, first, first, 3)
    assert a * 3 + b == Fraction(8, 3)


@pytest.mark.parametrize("p,d", [(3, 3), (4, 2)])
def test_trace_rules_exhaustive(p, d):
    vp = factored_V(p, p, d)
    vpm1 = factored_V(p, p - 1, d)
    for mu in schur_weyl_partitions(p, d):
        for nu in schur_weyl_partitions(p, d):
            for rm, cm, rn, cn in itertools.product(prir_map(mu), prir_map(mu), prir_map(nu), prir_map(nu)):
                x = embedded_pair(
                    mu, prir_position(mu, *rm), prir_position(mu, *cm), nu, prir_position(nu, *rn), prir_position(nu, *cn), d
                )
                args = (mu, nu, rm, cm, rn, cn, d)
                assert abs(float(np.sum((x @ vp) * vp)) - float(trace_with_V_top(*args))) <= 1e-10
                assert abs(float(np.sum((x @ vpm1) * vpm1)) - float(trace_with_V_sub(*args))) <= 1e-10


def _unit_stack(mu, p, d):
    """The units E^mu_ij of one shape in natural register order, (i, j) row-major, laid out: the stack ``suite_coefficients`` contracts."""
    pairs = list(itertools.product(range(1, dim_irrep(mu) + 1), repeat=2))
    return pairs, _paired_stack([right_side_matrix(mu, i, j, d) for i, j in pairs], p, d)


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3)])
def test_sandwich_core_reassembles_the_dense_sandwich(p, d):
    """L K L^T, with the cores K = L^T (A (x) B) L that suite_coefficients reads, is V^(p-1) (A (x) B) V^(p-1).

    The cores of a shape pair are contracted from its two stacks of units
    alone; each is L^T times the wall product (A (x) B) L, with A the left
    unit in its wall frame.
    """
    L = factored_V(p, p - 1, d)
    vpm1 = V_generator(p, p - 1, d).matrix
    for mu, nu in itertools.product(schur_weyl_partitions(p, d), repeat=2):
        (left, a_units), (right, b_units) = _unit_stack(mu, p, d), _unit_stack(nu, p, d)
        cores = _sandwich_core(a_units, b_units, d)
        for (x, (rm, cm)), (y, (rn, cn)) in itertools.product(enumerate(left), enumerate(right)):
            a_mat, b_mat = left_side_matrix(mu, rm, cm, d), right_side_matrix(nu, rn, cn, d)
            assert np.max(np.abs(cores[x, y] - L.T @ apply_pair(a_mat, b_mat, p, p - 1, d))) <= 1e-14
            dense = vpm1 @ np.kron(a_mat, b_mat) @ vpm1
            assert np.max(np.abs(L @ cores[x, y] @ L.T - dense)) <= 1e-12


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3), (4, 2), (4, 3), (3, 4)])
def test_stacked_sandwich_cores_match_the_per_pair_contraction(p, d):
    """One contraction of two stacks gives, at every label pair, the core that one contraction per pair gives.

    Some shape pairs have cores of rounding size only, so the bound is relative to the largest core entry at (p, d).
    """
    worst = scale = 0.0
    for mu, nu in itertools.product(schur_weyl_partitions(p, d), repeat=2):
        (left, a_units), (right, b_units) = _unit_stack(mu, p, d), _unit_stack(nu, p, d)
        cores = _sandwich_core(a_units, b_units, d)
        assert cores.shape == (len(left), len(right), d * d, d * d)
        expected = np.array([
            [sandwich_core(left_side_matrix(mu, *ij, d), right_side_matrix(nu, *kl, d), p, d) for kl in right] for ij in left
        ])
        worst, scale = max(worst, np.max(np.abs(cores - expected))), max(scale, np.max(np.abs(expected)))
    assert worst <= 1e-13 * scale


def test_coefficients_make_one_contraction_per_shape_pair(monkeypatch):
    """The sandwich cores of (4,3) come from one contraction per shape pair, not one per label pair (529 at (4,3))."""
    p, d = 4, 3
    calls = []

    def counted(a, b, *args):
        calls.append((len(a), len(b)))
        return _sandwich_core(a, b, *args)

    monkeypatch.setattr(checks, "_sandwich_core", counted)
    assert all(r.passed for r in checks.suite_coefficients(p, d))
    assert len(calls) == len(schur_weyl_partitions(p, d)) ** 2
    assert sum(m * n for m, n in calls) == sum(dim_irrep(mu) ** 2 for mu in schur_weyl_partitions(p, d)) ** 2


@pytest.mark.parametrize("p,d", [(3, 3), (4, 3)])
def test_trace_rules_vanish_off_the_label_join(p, d):
    """Each label pair where either trace rule is nonzero has the (row, col) of mu equal to that of nu.

    ``suite_coefficients`` forms (a, b) and the rules on that join alone.
    """
    labels = {mu: list(itertools.product(prir_map(mu), repeat=2)) for mu in schur_weyl_partitions(p, d)}
    for mu, nu in itertools.product(labels, repeat=2):
        for (rm, cm), (rn, cn) in itertools.product(labels[mu], labels[nu]):
            key = (mu, nu, rm, cm, rn, cn, d)
            if trace_with_V_top(*key) or trace_with_V_sub(*key):
                assert (rm, cm) == (rn, cn), key


def test_sandwich_decomposition_least_squares_oracle():
    """Fit the sandwiched operator onto {V^(p), V^(p-1)} and compare to (a, b)."""
    p, d = 3, 3
    vpm1 = V_generator(p, p - 1, d).matrix
    vp = V_generator(p, p, d).matrix
    gram = np.array([[np.sum(vp * vp), np.sum(vp * vpm1)], [np.sum(vp * vpm1), np.sum(vpm1 * vpm1)]])
    shapes = schur_weyl_partitions(p, d)
    for _ in range(10):
        mu = shapes[rng.integers(len(shapes))]
        nu = shapes[rng.integers(len(shapes))]
        pm_mu, pm_nu = prir_map(mu), prir_map(nu)
        rm, cm = pm_mu[rng.integers(len(pm_mu))], pm_mu[rng.integers(len(pm_mu))]
        rn, cn = pm_nu[rng.integers(len(pm_nu))], pm_nu[rng.integers(len(pm_nu))]
        x = embedded_pair(
            mu, prir_position(mu, *rm), prir_position(mu, *cm), nu, prir_position(nu, *rn), prir_position(nu, *cn), d
        )
        sandwiched = vpm1 @ x @ vpm1
        fitted = np.linalg.solve(gram, [np.sum(sandwiched * vp), np.sum(sandwiched * vpm1)])
        assert np.max(np.abs(sandwiched - fitted[0] * vp - fitted[1] * vpm1)) <= 1e-10
        a, b = ab_general(mu, nu, rm, cm, rn, cn, d)
        assert abs(fitted[0] - float(a)) <= 1e-10
        assert abs(fitted[1] - float(b)) <= 1e-10


# ----------------------------------------------------------------------------
# B matrices


def test_B_matrix_fixture_21():
    b = B_matrix(partition(2, 1), partition(2, 1), 3)
    assert b.alphas == (partition(1, 1), partition(2))
    assert b.entries == ((Fraction(7, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(1)))
    assert abs(b.eigenvalues[0] - (5 - np.sqrt(5)) / 3) <= 1e-12
    assert abs(b.eigenvalues[1] - (5 + np.sqrt(5)) / 3) <= 1e-12
    assert b.det == Fraction(20, 9)
    assert abs(float(b.det) - 2.2222) <= 1e-4
    assert not b.singular
    diag = b.diagonalizer @ b.entry_float() @ b.diagonalizer.T
    assert np.max(np.abs(diag - np.diag(b.eigenvalues))) <= 1e-12
    # the pencil (T, B): Lambda = d(d^2 - 1) times the level-2 eigenvalues (5 -/+ sqrt 5)/12
    assert np.max(np.abs(b.pencil - 2 * (5 + np.array([-1, 1]) * np.sqrt(5)))) <= 1e-12
    assert np.max(np.abs(b.modes @ b.entry_float() @ b.modes.T - np.eye(2))) <= 1e-12
    assert b.rank == 2 and b.kernel.shape == (0, 2)


def test_B_matrix_rectangular_case():
    b = B_matrix(partition(3), partition(2, 1), 3)
    assert b.alphas == (partition(2),)
    assert b.entries[0][0] == Fraction(10 * 8, 8 * 6)
    assert np.array_equal(b.diagonalizer, np.eye(1))


def test_singularity_examples():
    assert singularity_condition(partition(1, 1, 1), 3)
    assert not singularity_condition(partition(2, 2), 3)
    assert singularity_condition(partition(3, 2, 1), 3)
    assert B_matrix(partition(2, 2), partition(2, 2), 3).det == Fraction(5, 16)
    assert B_matrix(partition(3, 2), partition(3, 2), 3).det == Fraction(75, 16)
    b211 = B_matrix(partition(2, 1, 1), partition(2, 1, 1), 3)
    assert b211.entries == ((Fraction(1), Fraction(-1, 8)), (Fraction(-1, 8), Fraction(1, 64)))
    assert b211.singular and b211.nullity == 1


def test_singularity_condition_agrees_with_determinant_everywhere():
    for p in range(2, 7):
        for d in (2, 3, 4):
            for mu in enumerate_partitions(p):
                b = B_matrix(mu, mu, d)
                if multiplicity(mu, d) == 0:
                    assert all(v == 0 for row in b.entries for v in row)
                    continue
                assert (b.det == 0) == singularity_condition(mu, d)
                assert b.singular == singularity_condition(mu, d)


def test_kernel_eigenvalues_of_a_singular_B_print_as_exact_zeros():
    """The exact LDL^T shows B positive semidefinite with nullity zero eigenvalues, which print as 0, not as signed rounding."""
    b = B_matrix(partition(2, 1), partition(2, 1), 2)  # eigvalsh alone gives -1.39e-17 here
    assert b.nullity == 1 and b.eigenvalues[0] == 0.0 and not np.signbit(b.eigenvalues[0])
    assert b.eigenvalues[1] > 0
    vanishing = B_matrix(partition(1, 1, 1), partition(1, 1, 1), 2)
    assert vanishing.vanishing and vanishing.nullity == vanishing.size
    assert np.array_equal(vanishing.eigenvalues, np.zeros(vanishing.size))
    assert not np.signbit(vanishing.eigenvalues).any()
    doc = json.loads(run_cli(["--p", "3", "--d", "2", "bmatrix", "--mu", "2,1"]).output)
    assert doc["eigenvalues"] == [0.0, 1.11111111111] and doc["nullity"] == 1
    for p in range(2, 9):
        for d in range(2, 6):
            for mu in schur_weyl_partitions(p, d):
                b = B_matrix(mu, mu, d)
                assert not np.any(b.eigenvalues[: b.nullity]) and np.all(b.eigenvalues[b.nullity :] > 0), (mu, d)


def test_the_analytic_path_lists_no_basis(monkeypatch):
    """B^{mu mu} reads (alpha, i_alpha) labels and never lists mu's basis, whose d_mu passes 1e8 at (20,6)."""

    def refuse(mu):
        raise AssertionError(f"prir_map({mu}) would list d_mu = {dim_irrep(mu)} labels")

    for name, module in list(sys.modules.items()):
        if name.startswith("walledbrauer") and hasattr(module, "prir_map"):
            monkeypatch.setattr(module, "prir_map", refuse)
    p, d = 20, 6
    big = [mu for mu in schur_weyl_partitions(p, d) if dim_irrep(mu) > 10**8]
    assert big
    for mu in big:
        b = B_matrix.__wrapped__(mu, mu, d)  # uncached, so every entry is formed here
        assert b.alphas == remove_box(mu) and b.rank + b.nullity == b.size


def test_determinant_symmetric_polynomial_identity():
    """det B = (prefactor)^k (e_k - e_{k-1}) in the scaled removal multiplicities."""
    for p in range(2, 7):
        for d in (2, 3, 4):
            for mu in enumerate_partitions(p):
                m = multiplicity(mu, d)
                if m == 0:
                    continue
                xs = [Fraction(d * m, multiplicity(a, d)) for a in remove_box(mu)]
                k = len(xs)
                esp = [Fraction(1)] + [Fraction(0)] * k
                for x in xs:
                    for deg in range(k, 0, -1):
                        esp[deg] += x * esp[deg - 1]
                predicted = (esp[k] - esp[k - 1]) * Fraction(m, d * (d * d - 1)) ** k
                assert B_matrix(mu, mu, d).det == predicted


def test_exact_ldl_rank_and_determinant_against_reference():
    """On symmetric positive semidefinite integer matrices A A^T: L^(-1) B L^(-T) = D exactly, rank and det from the pivots, exact kernel."""
    rng = np.random.default_rng(404)
    for k in (1, 2, 3, 4):
        for r in range(k + 1):
            ints = rng.integers(-4, 5, size=(k, r))
            gram = ints @ ints.T
            rows = [[Fraction(int(v)) for v in row] for row in gram]
            inverse, pivots = exact_ldl(rows)
            assert all(inverse[i][i] == 1 and not any(inverse[i][i + 1 :]) for i in range(k))
            reduced = [[sum(inverse[i][m] * rows[m][n] * inverse[j][n] for m in range(k) for n in range(k)) for j in range(k)] for i in range(k)]
            assert reduced == [[pivots[i] if i == j else 0 for j in range(k)] for i in range(k)]
            assert sum(1 for v in pivots if v) == np.linalg.matrix_rank(gram.astype(float))
            assert abs(float(math.prod(pivots)) - np.linalg.det(gram.astype(float))) <= 1e-6
            for j in (j for j in range(k) if not pivots[j]):
                x = inverse[j]
                assert all(sum(v * xv for v, xv in zip(row, x)) == 0 for row in rows)
    # a zero pivot before a nonzero one eliminates nothing
    inverse, pivots = exact_ldl([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert pivots == [0, 1] and inverse == [[1, 0], [0, 1]]
    assert exact_ldl([[Fraction(4), Fraction(2)], [Fraction(2), Fraction(5)]]) == ([[1, 0], [Fraction(-1, 2), 1]], [4, 4])
    assert exact_ldl([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])[1] == [1, 0]
    assert exact_ldl([]) == ([], [])
    with pytest.raises(ValueError):
        exact_ldl([[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        exact_ldl([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])


@pytest.mark.parametrize(
    "rows",
    [((0, 1), (1, 0)), ((1, 0), (0, -1)), ((1, 2), (2, 1)), ((1, 1, 0), (1, 1, 1), (0, 1, 1))],
    ids=["zero-pivot-nonzero-column", "negative-pivot", "indefinite", "zero-pivot-later"],
)
def test_exact_ldl_refuses_a_matrix_that_is_not_positive_semidefinite(rows):
    with pytest.raises(ArithmeticError, match="not positive semidefinite"):
        exact_ldl([[Fraction(v) for v in row] for row in rows])


def test_pencil_is_canonical_where_B_is_degenerate():
    """At (14,12), mu = (4,4,3,2,1), B has the double eigenvalue 9225216, so its own eigenbasis is not unique.

    The pencil (T, B) has four distinct values there, so its basis is.  Both
    residuals are sums of k = 4 products of entries rounded once to double,
    so they are a few eps (2.2e-16) times the norms of the matrices they
    read: for X^T B X - 1 that of B times |w~|^2 = |X|^2 (X^T B X = 1 bounds
    |X|^2 by 1 / the smallest eigenvalue of B on its range), and for
    T w~ - Lambda B w~ that of T and of Lambda B, times |w~|.  Both read
    below 1e-16 of that scale; 1e-12 leaves room for other BLAS orderings.
    """
    mu, d = partition(4, 4, 3, 2, 1), 12
    b = B_matrix(mu, mu, d)
    dense = b.entry_float()
    t = np.array([[float(ideal_units.t_entry(mu, mu, a, ap, d)) for ap in b.alphas] for a in b.alphas])
    eig = np.linalg.eigvalsh(dense)
    assert b.size == b.rank == 4 and np.allclose(eig[2:], 9225216, rtol=1e-12, atol=0)
    gaps = np.diff(b.pencil) / b.pencil[1:]
    assert np.all(gaps > 1e-4), b.pencil
    w = b.modes.T
    scale = np.linalg.norm(dense) * np.linalg.norm(w) ** 2
    assert np.linalg.norm(w.T @ dense @ w - np.eye(4)) <= 1e-12 * scale
    residual = t @ w - (dense @ w) * b.pencil
    assert np.linalg.norm(residual) <= 1e-12 * (np.linalg.norm(t) + np.max(b.pencil) * np.linalg.norm(dense)) * np.linalg.norm(w)


# ----------------------------------------------------------------------------
# H operators and G units


def test_H_composition_scalar():
    p, d = 3, 3
    mu = partition(2, 1)
    alphas = remove_box(mu)
    for a1, a2, a3, a4 in itertools.product(alphas, repeat=4):
        h1 = H_operator(mu, mu, mu, mu, 1, 1, 1, 2, a1, a2, p, d)
        h2 = H_operator(mu, mu, mu, mu, 1, 2, 2, 2, a3, a4, p, d)
        scalar = d * float(b_entry(mu, mu, a2, a3, d))
        expected = scalar * H_operator(mu, mu, mu, mu, 1, 1, 2, 2, a1, a4, p, d)
        assert (h1 @ h2).distance(expected) <= 1e-9


def test_H_mismatched_indices_give_zero():
    p, d = 3, 3
    mu = partition(2, 1)
    a = remove_box(mu)[0]
    h1 = H_operator(mu, mu, mu, mu, 1, 1, 1, 2, a, a, p, d)
    h2 = H_operator(mu, mu, mu, mu, 2, 2, 2, 2, a, a, p, d)
    assert (h1 @ h2).frobenius_norm() <= 1e-9


@pytest.mark.parametrize("mu", [partition(2, 1), partition(1, 1, 1)])
def test_H_is_d_F_sub_minus_F_top(mu):
    """Every label of the diagonal block of mu at (3, 3): F_sub and H against dense products, not wall products.

    F_sub = (A (x) B) V^(p-1) (A' (x) B')^T and H = d F_sub - (E_ij (x) 1) V^(p) (E_i'j' (x) 1)^T.
    """
    p, d = 3, 3
    n = dim_irrep(mu)
    eye = np.eye(d**p)
    v_sub, v_top = V_generator(p, p - 1, d).matrix, V_generator(p, p, d).matrix
    subs = list(itertools.product(range(1, n + 1), range(1, n + 1), remove_box(mu)))
    pairs = {(i, j, a): wall_pair(mu, mu, i, j, a, d) for i, j, a in subs}
    left = {key: pair @ v_sub for key, pair in pairs.items()}
    tops = {(i, j): np.kron(left_side_matrix(mu, i, j, d), eye) for i, j, _ in subs}
    top_left = {key: top @ v_top for key, top in tops.items()}
    f_tops = {(k, kp): top_left[k] @ tops[kp].T for k, kp in itertools.product(tops, repeat=2)}
    for (i, j, alpha), (ip, jp, alphap) in itertools.product(subs, repeat=2):
        dense = left[i, j, alpha] @ pairs[ip, jp, alphap].T
        f_top = f_tops[(i, j), (ip, jp)]
        f_sub = F_sub(mu, mu, mu, mu, i, j, ip, jp, alpha, alphap, p, d).to_dense()
        h = H_operator(mu, mu, mu, mu, i, j, ip, jp, alpha, alphap, p, d).to_dense()
        assert np.max(np.abs(f_sub - dense)) <= 1e-12
        assert np.max(np.abs(h - (d * dense - f_top))) <= 1e-12


def test_H_vanishes_for_single_column_at_d_equal_p():
    ones = partition(1, 1, 1)
    h = H_operator(ones, ones, ones, ones, 1, 1, 1, 1, partition(1, 1), partition(1, 1), 3, 3)
    assert h.frobenius_norm() <= 1e-12


def test_G_top_requires_multiplicity():
    with pytest.raises(ZeroMultiplicityError):
        G_top(partition(1, 1, 1), 1, 1, partition(3), 1, 1, 3, 2)


def test_G_top_composition_and_mismatch():
    p, d = 3, 3
    m21, m3 = partition(2, 1), partition(3)
    u1 = G_top(m21, 1, 2, m3, 1, 1, p, d)
    u2 = G_top(m3, 1, 1, m21, 2, 2, p, d)
    expected = G_top(m21, 1, 2, m21, 2, 2, p, d)
    assert (unit_operator(u1) @ unit_operator(u2)).distance(unit_operator(expected)) <= 1e-9
    mismatched = G_top(m21, 1, 1, m21, 1, 1, p, d)
    assert (unit_operator(u1) @ unit_operator(mismatched)).frobenius_norm() <= 1e-9


def test_G_top_diagonal_units_are_rank_one_idempotents():
    p, d = 3, 3
    for (mu, i, j) in top_row_labels(p, d):
        u = G_top(mu, i, j, mu, i, j, p, d)
        assert abs(u.trace() - 1.0) <= 1e-10
        op = unit_operator(u)
        assert (op @ op).distance(op) <= 1e-9


def test_G_sub_zero_mode_rejected():
    """beta runs over 1..rank(B): above it there is no unit, at a fully, a partly and a non-singular block."""
    ones, m21 = partition(1, 1, 1), partition(2, 1)
    with pytest.raises(ZeroMultiplicityError):
        G_sub(ones, ones, ones, ones, 1, 1, 1, 1, 1, 1, 3, 3)
    for d, rank in ((2, 1), (3, 2)):
        assert B_matrix(m21, m21, d).rank == rank
        G_sub(m21, m21, m21, m21, 1, 1, 1, 1, rank, rank, 3, d)
        for beta, betap in ((rank + 1, 1), (1, rank + 1)):
            with pytest.raises(ZeroMultiplicityError):
                G_sub(m21, m21, m21, m21, 1, 1, 1, 1, beta, betap, 3, d)


def test_G_sub_composition_and_cross_block():
    p, d = 3, 3
    mu = partition(2, 1)
    b = B_matrix(mu, mu, d)
    kept = range(1, b.rank + 1)
    units = {}
    for i, j, ip, jp in itertools.product((1, 2), repeat=4):
        for b1 in kept:
            for b2 in kept:
                u = G_sub(mu, mu, mu, mu, i, j, ip, jp, b1, b2, p, d)
                units[(u.system.labels[u.row], u.system.labels[u.col])] = u
    for (ra, ca), ua in units.items():
        for (rb, cb), ub in units.items():
            prod = unit_operator(ua) @ unit_operator(ub)
            if ca == rb:
                assert prod.distance(unit_operator(units[(ra, cb)])) <= 1e-9
            else:
                assert prod.frobenius_norm() <= 1e-9


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_unit_systems_match_the_paper_definitions(p, d):
    """Every unit of both systems against F_top / sqrt(m m') and sum w~ w~' H / d, w~ the rows of ``BMatrix.modes``."""
    dim = d ** (2 * p)
    top = unit_system(p, d, p)
    for a, (mu, i, j) in enumerate(top.labels):
        for c, (nu, ip, jp) in enumerate(top.labels):
            scale = 1.0 / np.sqrt(multiplicity(mu, d) * multiplicity(nu, d))
            expected = scale * F_top(mu, i, j, nu, ip, jp, p, d)
            assert unit_operator(GUnit(top, a, c)).distance(expected) <= 1e-12
    sub = unit_system(p, d, p - 1)
    assert sub.size == len(sub_row_labels(p, d)) > 0
    assert sub.rank == d * d - 1
    for a, (mu, nu, i, j, beta) in enumerate(sub.labels):
        b = B_matrix(mu, nu, d)
        for c, (mup, nup, ip, jp, betap) in enumerate(sub.labels):
            bp = B_matrix(mup, nup, d)
            expected = FactoredOperator.zero(dim)
            for w, alpha in zip(b.modes[beta - 1], b.alphas):
                for wp, alphap in zip(bp.modes[betap - 1], bp.alphas):
                    h = H_operator(mu, nu, mup, nup, i, j, ip, jp, alpha, alphap, p, d)
                    expected = expected + (w * wp) * h
            assert unit_operator(GUnit(sub, a, c)).distance((1.0 / d) * expected) <= 1e-12


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 5)])
def test_composition_worst_matches_the_per_pair_oracle(p, d):
    for ideal in (p, p - 1):
        system = unit_system(p, d, ideal)
        assert checks._composition_worst(system) == pytest.approx(composition_worst_by_pairs(system), rel=1e-12)


def _with_blocks(s, sector_bases, cores):
    """A new unit system with ``s``'s fields but the given sector bases and cores."""
    return UnitSystem(s.ideal, s.p, s.d, s.labels, s.seed_of, s.sectors, s.sector_rows, sector_bases, cores, s.projection_residual)


def _tilt_basis(system):
    """Q_1 tilted by 1e-6 Q_0 in the first sector block: X_01 = 1e-6 1 + O(eps) there, while X_11 - 1 is only 1e-12."""
    block = system.sector_bases[0].copy()
    block[1] += 1e-6 * block[0]
    return _with_blocks(system, (block,) + system.sector_bases[1:], system.cores)


def _shift_core_entry(system):
    """M_01 shifted by 1e-6 in the first entry of its first sector block."""
    core = system.cores[0].copy()
    core[0, 1, 0, 0] += 1e-6
    return _with_blocks(system, system.sector_bases, (core,) + system.cores[1:])


@pytest.mark.parametrize("plant", [_tilt_basis, _shift_core_entry])
@pytest.mark.parametrize("p,d", [(2, 2), (3, 3)])
def test_composition_fails_on_a_planted_defect(monkeypatch, plant, p, d):
    """The tilt reaches the seed quadruples with t != t' through X_01, the shifted core entry those with t = t'."""
    planted = {ideal: plant(unit_system(p, d, ideal)) for ideal in (p, p - 1)}
    monkeypatch.setattr(checks, "unit_system", lambda pq, dq, ideal: planted[ideal])
    results = run_suite("composition", p, d)
    assert [r.name[:6] for r in results] == ["G_top_", "G_sub_"]
    for result, ideal in zip(results, (p, p - 1)):
        assert not result.passed, result
        assert result.residual >= composition_worst_by_pairs(planted[ideal]) * (1 - 1e-12)


def _own_units(system):
    """Each label's G_aa from its own factor (``_top_factor`` or ``_wall_pack`` at its (i, j)), as its weight-sector blocks W_k D_k W_k^T."""
    p, d = system.p, system.d
    _, rows, cols, _ = ideal_units._sector_layout(p, d, system.ideal)
    out = []
    for label in system.labels:
        if system.ideal == p:
            mu, i, j = label
            factor = ideal_units._pack_columns(ideal_units._top_factor(mu, i, j, p, d).T, p, d, p) / np.sqrt(multiplicity(mu, d))
            metric = np.ones(1)
        else:
            mu, nu, i, j, beta = label
            factor = ideal_units._wall_pack(mu, nu, i, j, B_matrix(mu, nu, d).modes[beta - 1], p, d) / np.sqrt(d)
            metric = ideal_units._wall_diagonal(d)
        blocks = ideal_units._sector_blocks(factor, rows, cols)
        out.append([(w * metric[c]) @ w.T for w, c in zip(blocks, cols)])
    return out


def _adaptation_worst(system, own) -> float:
    """Largest ||G_aa - own G_aa||_F / ||own G_aa||_F over the labels, G_aa read off the basis moved from a's seed."""
    worst = 0.0
    for a, blocks in enumerate(own):
        q, m = system.basis(a), GUnit(system, a, a).core()
        moved = [q[rows, sl] @ m[sl, sl] @ q[rows, sl].T for rows, sl in zip(system.sector_rows, system.slices)]
        diff = math.sqrt(sum(np.sum((x - y) ** 2) for x, y in zip(moved, blocks)))
        worst = max(worst, diff / math.sqrt(sum(np.sum(y**2) for y in blocks)))
    return worst


@pytest.mark.parametrize("p,d", [(3, 3), (3, 4), (4, 3)])
def test_units_are_their_seeds_moved_by_the_group_action(p, d):
    """Group adaptation: each label's own factor gives the unit G_aa that its seed, moved by E^mu_{i1} (x) E^nu_{j1}, gives."""
    for ideal in (p, p - 1):
        system = unit_system(p, d, ideal)
        assert len(system.seed_labels) < system.size
        assert _adaptation_worst(system, _own_units(system)) <= 1e-12


def test_a_planted_move_fails_composition_and_adaptation(monkeypatch):
    """E^mu_21 as the moves read it, one entry off by 1e-6 relative: the seeds are untouched, the moved units are not."""
    p, d, mu = 3, 3, partition(2, 1)
    own = {ideal: _own_units(unit_system(p, d, ideal)) for ideal in (p, p - 1)}
    clean = ideal_units.left_side_matrix

    def planted(shape, i, j, dq):
        out = clean(shape, i, j, dq)
        if (shape, i, j) == (mu, 2, 1):
            k = np.unravel_index(np.argmax(np.abs(out)), out.shape)
            out[k] *= 1 + 1e-6
        return out

    monkeypatch.setattr(ideal_units, "left_side_matrix", planted)
    monkeypatch.setattr(checks, "unit_system", unit_system.__wrapped__)
    results = run_suite("composition", p, d)
    assert [r.name[:6] for r in results] == ["G_top_", "G_sub_"]
    assert not any(r.passed for r in results), results
    for ideal in (p, p - 1):
        assert _adaptation_worst(unit_system.__wrapped__(p, d, ideal), own[ideal]) > 1e-9


def test_unit_system_build_peaks_at_q0_plus_the_bases():
    """No dense factor is formed, only one column of one at a time; Q0, R0 and the bases are sector blocks.

    The budget: three times the stored sector blocks, for the packed factor
    blocks, their Q0 and the bases; and twice the stored core blocks, for
    the cores and one sector's temporaries.  One dense (d^(2p), d^2 + 1)
    wall factor takes 0.56 MB at (3,4), and storing the bases dense, as
    (n, d^(2p), r), 8.8 MB, above the whole budget.
    """
    p, d = 3, 4
    system = unit_system(p, d, p - 1)  # warms the caches the build reads
    blocks = sum(block.nbytes for block in system.sector_bases)
    tracemalloc.start()
    try:
        unit_system.__wrapped__(p, d, p - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cores = sum(core.nbytes for core in system.cores)
    assert peak <= 1.25 * (3 * blocks + 2 * cores), peak


@pytest.mark.parametrize("p,d", [(3, 3), (3, 4)])
def test_cores_are_stored_as_their_sector_blocks(p, d):
    """n^2 sum_s r_s^2 floats per system, with the sector ranks summing to r; the dense (n, n, r, r) would take n^2 r^2."""
    for ideal in (p, p - 1):
        system = unit_system(p, d, ideal)
        n, ranks = len(system.seed_labels), [block.shape[2] for block in system.sector_bases]
        assert sum(ranks) == system.rank == (1 if ideal == p else d * d - 1)
        assert [core.shape for core in system.cores] == [(n, n, r, r) for r in ranks]
        assert sum(core.nbytes for core in system.cores) == 8 * n * n * sum(r * r for r in ranks)
        assert [x.shape for x in system.overlaps] == [(n, n, r, r) for r in ranks]


def test_eigenoperators_stay_below_one_factor():
    """No array of d^(2p) rows and d^2 + 2 columns fits under the suite's peak: rho(k) is applied to sector blocks."""
    p, d = 3, 5
    for ideal in (p, p - 1):
        unit_system(p, d, ideal)
    tracemalloc.start()
    try:
        results = checks.suite_eigenoperators(p, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < d ** (2 * p) * (d * d + 2) * 8, peak


def _planted_columns(columns, row, column, size):
    """``ideal_units._wall_columns`` with ``size`` added at entry ``row`` of column ``column`` of every factor."""

    def planted(*args):
        for c, out in enumerate(columns(*args)):
            if c == column:
                out[row] += size
            yield out

    return planted


@pytest.mark.parametrize(
    "p,d,size",
    [pytest.param(2, 3, 1e-6, id="2-3"), pytest.param(3, 3, 1e-6, id="3-3"), pytest.param(3, 3, 1e-12, id="3-3-1e-12")],
)
def test_unit_system_reports_an_off_sector_factor_entry(monkeypatch, p, d, size):
    """An entry off its column's weight sector, which the sector blocks would drop, raises at the build.

    1e-12 is below the suites' 1e-9 tolerance, so no residual could report
    it.  Through ``verify`` the raise is one stderr line and exit 1.
    """
    column = ideal_units._column_sectors(p, d, p - 1)[0]
    row = int(np.flatnonzero(_weight_sectors(p, d)[0] != column)[0])
    monkeypatch.setattr(ideal_units, "_wall_columns", _planted_columns(ideal_units._wall_columns, row, 0, size))
    with pytest.raises(ArithmeticError, match="off its columns' weight sectors"):
        unit_system.__wrapped__(p, d, p - 1)
    monkeypatch.setattr(checks, "unit_system", unit_system.__wrapped__)
    result = run_cli(["--p", str(p), "--d", str(d), "verify", "--suite", "composition"])
    assert result.exit_code == 1 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("internal check failed: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_sector_pack_only_reads_its_factor(p, d):
    """Packing the cached read-only top column leaves it as it was, and keeps each of its nonzero entries."""
    t = factored_V(p, p, d)
    before = t.copy()
    (_,), (rows,), _, _ = ideal_units._sector_layout(p, d, p)
    packed = ideal_units._pack_columns(t.T, p, d, p)
    assert np.array_equal(t, before) and not t.flags.writeable
    assert np.array_equal(packed, t[rows, 0]) and np.count_nonzero(packed) == np.count_nonzero(t)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (3, 5), (5, 2)])
def test_wall_pack_is_the_dense_wall_factor_gathered(p, d):
    """Column by column, the packed wall factor has the bits of the dense definition gathered into its sector blocks.

    Every block (mu, nu) of the second ideal, at its first indices, for each
    row of its pencil basis and kernel and each indicator of a common removal.
    """
    for b in second_ideal_blocks(p, d):
        for w in [*b.modes, *b.kernel, *(ideal_units._indicator(b.mu, b.nu, alpha) for alpha in b.alphas)]:
            dense = _wall_factor(b.mu, b.nu, 1, 1, w, p, d)
            assert np.array_equal(ideal_units._wall_pack(b.mu, b.nu, 1, 1, w, p, d), _sector_pack(dense, p, d, p - 1))


def test_cached_arrays_are_read_only():
    p, d = 2, 2
    system = unit_system(p, d, p - 1)
    arrays = [
        *system.sector_rows,
        *system.sector_bases,
        *system.cores,
        *system.overlaps,
        system.projection_residual,
        system.traces,
        _weight_sectors(p, d)[0],
        factored_V(p, p - 1, d),
        factored_V(p, p, d),
        factored_outer_pair(p, d),
        right_side_matrix(partition(2), 1, 1, d),
        rho(p - 1, p, d).matrix,
        young_orthogonal_rep(partition(2, 1), transposition(3, 1, 2)),
        _adjacent_generator(partition(2, 1), 1),
        B_matrix(partition(2, 1), partition(2, 1), 3).eigenvalues,
        B_matrix(partition(2, 1), partition(2, 1), 3).diagonalizer,
        B_matrix(partition(2, 1), partition(2, 1), 3).modes,
        B_matrix(partition(2, 1), partition(2, 1), 3).pencil,
        B_matrix(partition(2, 1), partition(2, 1), 2).kernel,
    ]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0.0
    for mapping in (prir_block_offsets(partition(2, 1)), system.index):
        with pytest.raises(TypeError):
            mapping[partition(2)] = 5


def test_G_sub_diagonal_trace_is_d_squared_minus_one():
    for p, d in ((2, 2), (3, 3)):
        for (mu, nu, i, j, beta) in sub_row_labels(p, d):
            u = G_sub(mu, nu, mu, nu, i, j, i, j, beta, beta, p, d)
            assert abs(u.trace() - (d * d - 1)) <= 1e-9


def test_H_reconstruction_from_G_sub():
    """B nonsingular: W~^T B W~ = 1 inverts W~, so H = d (B W~) G (B W~)^T, with the columns of W~ the modes w~."""
    p, d = 3, 3
    mu = partition(2, 1)
    b = B_matrix(mu, mu, d)
    alphas = b.alphas
    bw = b.entry_float() @ b.modes.T
    for a1_idx, a1 in enumerate(alphas):
        for a2_idx, a2 in enumerate(alphas):
            acc = FactoredOperator.zero(d ** (2 * p))
            for b1 in range(1, b.rank + 1):
                for b2 in range(1, b.rank + 1):
                    w = d * bw[a1_idx, b1 - 1] * bw[a2_idx, b2 - 1]
                    acc = acc + w * unit_operator(G_sub(mu, mu, mu, mu, 1, 2, 1, 2, b1, b2, p, d))
            target = H_operator(mu, mu, mu, mu, 1, 2, 1, 2, a1, a2, p, d)
            assert acc.distance(target) <= 1e-9


# ----------------------------------------------------------------------------
# composition relations of the spanning families


def test_composition_relations_top_sub_mixed():
    """All four product rules of the spanning families at (3, 3)."""
    p, d = 3, 3
    local = np.random.default_rng(17)
    shapes = schur_weyl_partitions(p, d)

    def rand_idx(mu):
        return int(local.integers(1, dim_irrep(mu) + 1))

    # 1) top x top
    for mu, nu, mt, nt in itertools.product(shapes, repeat=4):
        i, j, ip, jp = rand_idx(mu), rand_idx(mu), rand_idx(nu), rand_idx(nu)
        k, l, kp, lp = rand_idx(mt), rand_idx(mt), rand_idx(nt), rand_idx(nt)
        lhs = F_top(mu, i, j, nu, ip, jp, p, d) @ F_top(mt, k, l, nt, kp, lp, p, d)
        if nu == mt and ip == k and jp == l:
            expected = multiplicity(nu, d) * F_top(mu, i, j, nt, kp, lp, p, d)
        else:
            expected = FactoredOperator.zero(d ** (2 * p))
        assert lhs.distance(expected) <= 1e-9
    # 2) top x sub and 3) sub x top and 4) sub x sub
    sub_labels = []
    for mu in shapes:
        for nu in shapes:
            for alpha in common_removals(mu, nu):
                sub_labels.append((mu, nu, alpha))
    for (mu, i, j) in [(m, rand_idx(m), rand_idx(m)) for m in shapes]:
        for (mt, nt, beta) in sub_labels:
            for (mtp, ntp, betap) in sub_labels:
                k, l = rand_idx(mt), rand_idx(nt)
                kp, lp = rand_idx(mtp), rand_idx(ntp)
                ip, jp = rand_idx(mu), rand_idx(mu)
                ftop = F_top(mu, i, j, mu, ip, jp, p, d)
                fsub = F_sub(mt, nt, mtp, ntp, k, l, kp, lp, beta, betap, p, d)
                lhs = ftop @ fsub
                if mu == mt and mu == nt and ip == k and jp == l:
                    scale = multiplicity(mu, d) / d
                    expected = (
                        scale * F_top(mu, i, j, mtp, kp, lp, p, d)
                        if mtp == ntp
                        else FactoredOperator.zero(d ** (2 * p))
                    )
                else:
                    expected = FactoredOperator.zero(d ** (2 * p))
                assert lhs.distance(expected) <= 1e-9
                lhs = fsub @ ftop
                if mtp == mu and ntp == mu and kp == i and lp == j:
                    scale = multiplicity(mu, d) / d
                    expected = (
                        scale * F_top(mt, k, l, mu, ip, jp, p, d)
                        if mt == nt
                        else FactoredOperator.zero(d ** (2 * p))
                    )
                else:
                    expected = FactoredOperator.zero(d ** (2 * p))
                assert lhs.distance(expected) <= 1e-9
    # 4) sub x sub, matching inner labels
    for (mu, nu, alpha) in sub_labels:
        for (mt, nt, beta) in sub_labels:
            for (m2, n2, beta2) in sub_labels:
                i, j = rand_idx(mu), rand_idx(nu)
                k, l = rand_idx(mt), rand_idx(nt)
                k2, l2 = rand_idx(m2), rand_idx(n2)
                f1 = F_sub(mu, nu, mt, nt, i, j, k, l, alpha, beta, p, d)
                f2 = F_sub(mt, nt, m2, n2, k, l, k2, l2, beta, beta2, p, d)
                a, b = ab_general(mt, nt, (beta, 1), (beta, 1), (beta, 1), (beta, 1), d)
                expected = float(b) * F_sub(mu, nu, m2, n2, i, j, k2, l2, alpha, beta2, p, d)
                if mu == nu and m2 == n2:
                    expected = expected + float(a) * F_top(mu, i, j, m2, k2, l2, p, d)
                assert (f1 @ f2).distance(expected) <= 1e-9


# ----------------------------------------------------------------------------
# reduction and the generator decomposition


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_reduction_suite_passes(p, d):
    """Every diagonal block at (p, d).

    (3,2) and (4,3) hold a partially singular block, (3,3) the fully
    singular (1,1,1) block, which keeps no mode, and the nonsingular (2,1)
    block, which keeps both.
    """
    singular = {(3, 2): (partition(2, 1), 2), (3, 3): (partition(1, 1, 1), 1), (4, 3): (partition(2, 1, 1), 2)}
    if (p, d) in singular:
        mu, size = singular[p, d]
        b = B_matrix(mu, mu, d)
        assert mu in schur_weyl_partitions(p, d) and (b.size, b.nullity) == (size, 1)
    if (p, d) == (3, 3):
        assert B_matrix(partition(1, 1, 1), partition(1, 1, 1), d).rank == 0
        assert B_matrix(partition(2, 1), partition(2, 1), d).rank == 2
    results = run_suite("reduction", p, d)
    assert [r.name for r in results] == ["reduction_keeps_rank", "reduced_units_composition"]
    assert all(r.passed for r in results), results


def test_reduction_fails_when_a_zero_mode_does_not_vanish(monkeypatch):
    """Plant a kept mode w~ of the nonsingular (2,1) block among its kernel rows: its generators do not vanish."""
    real = checks.B_matrix

    def mislabelled(mu, nu, d):
        b = real(mu, nu, d)
        if mu == nu == partition(2, 1):
            return BMatrix(b.mu, b.nu, b.d, b.alphas, b.entries, b.det, b.modes, b.pencil, b.modes[:1], b.vanishing)
        return b

    monkeypatch.setattr(checks, "B_matrix", mislabelled)
    keeps_rank, composition = run_suite("reduction", 3, 3)
    assert keeps_rank.name == "reduction_keeps_rank" and not keeps_rank.passed
    assert composition.passed
    result = run_cli(["--p", "3", "--d", "3", "verify", "--suite", "reduction"])
    assert result.exit_code == 1 and "Traceback" not in result.stderr
    doc = json.loads(result.stdout)
    assert doc["passed"] is False and not doc["checks"][0]["passed"]


@pytest.mark.parametrize(
    "inside,size",
    [pytest.param(True, 1e-3, id="True"), pytest.param(False, 1e-3, id="False"), pytest.param(False, 1e-12, id="False-1e-12")],
)
def test_reduction_fails_on_a_zero_mode_entry_in_one_off_diagonal_sector(monkeypatch, inside, size):
    """Plant one entry in the zero-mode wall factor of the fully singular (1,1,1) block at (3,3).

    Its column is L's column (1, 2), of weight e_1 - e_2.  Inside that
    sector the entry reaches the generator only through that one sector
    block, and the block keeps no mode, so the composition is untouched.
    Off that sector the blocks would drop it, so packing the factor raises,
    even at 1e-12, below every tolerance.
    """
    p, d = 3, 3
    column = 1  # L's column (a, b) = (1, 2) of the letters 1..d, weight e_1 - e_2
    sector = _weight_sectors(p, d)[0]
    weight = ideal_units._column_sectors(p, d, p - 1)[column]
    row = int(np.flatnonzero((sector == weight) == inside)[0])
    real = ideal_units._wall_columns
    plant = _planted_columns(real, row, column, size)

    def planted(mu, nu, *args):
        return (plant if mu == nu == partition(1, 1, 1) else real)(mu, nu, *args)

    monkeypatch.setattr(ideal_units, "_wall_columns", planted)
    if not inside:
        with pytest.raises(ArithmeticError, match="off its columns' weight sectors"):
            run_suite("reduction", p, d)
        return
    keeps_rank, composition = run_suite("reduction", p, d)
    assert not keeps_rank.passed and "zero-mode generator" in keeps_rank.detail
    assert composition.passed


REDUCTION_PLANTS = [pytest.param(3, 3, partition(2, 1), id="3-3"), pytest.param(4, 3, partition(3, 1), id="4-3")]


def _planted_blocks(monkeypatch, shape, plant):
    """Replace the B^{mu mu} that ``suite_reduction`` reads for mu = shape by ``plant(b)``; the planted lookup."""
    real = checks.B_matrix

    def planted(mu, nu, d):
        b = real(mu, nu, d)
        return plant(b) if mu == nu == shape else b

    monkeypatch.setattr(checks, "B_matrix", planted)
    return planted


@pytest.mark.parametrize("p,d", [(3, 3), (4, 3)])
def test_reduction_matches_the_per_pair_oracle_unplanted(p, d):
    """Both read rounding noise.  The oracle's unbalanced products carry rounding of ||L|| ||R||: 1.35e-13 at (4,3)."""
    keeps_rank, composition = run_suite("reduction", p, d)
    zero, worst = reduction_by_pairs(p, d)
    assert keeps_rank.passed and composition.passed
    assert composition.residual < 1e-13
    assert max(zero, worst) < 1e-12


@pytest.mark.parametrize("p,d,shape", REDUCTION_PLANTS)
def test_reduction_composition_matches_the_oracle_on_a_scaled_mode(monkeypatch, p, d, shape):
    """A kept mode w~_1 scaled by 1 + 1e-6: the unit y_11 / d is off by about 2e-6 of itself, in both residuals."""

    def scaled(b):
        modes = b.modes.copy()
        modes[0] *= 1.0 + 1e-6
        return BMatrix(b.mu, b.nu, b.d, b.alphas, b.entries, b.det, modes, b.pencil, b.kernel, b.vanishing)

    planted = _planted_blocks(monkeypatch, shape, scaled)
    keeps_rank, composition = run_suite("reduction", p, d)
    zero, worst = reduction_by_pairs(p, d, planted)
    assert keeps_rank.passed and not composition.passed
    assert worst > 1e-6 and composition.residual == pytest.approx(worst, rel=1e-6)


@pytest.mark.parametrize("p,d,shape", REDUCTION_PLANTS)
def test_reduction_keeps_rank_matches_the_oracle_on_a_relabelled_mode(monkeypatch, p, d, shape):
    """The mode w~_1 moved to the kernel rows: its generators do not vanish, and the other mode still composes."""

    def relabelled(b):
        kernel = np.vstack([b.kernel, b.modes[:1]])
        return BMatrix(b.mu, b.nu, b.d, b.alphas, b.entries, b.det, b.modes[1:], b.pencil[1:], kernel, b.vanishing)

    planted = _planted_blocks(monkeypatch, shape, relabelled)
    keeps_rank, composition = run_suite("reduction", p, d)
    zero, worst = reduction_by_pairs(p, d, planted)
    assert not keeps_rank.passed and composition.passed
    assert zero > checks.DISCARD_ATOL
    # the detail prints the norm to four significant digits
    assert float(keeps_rank.detail.rsplit(" ", 1)[1]) == pytest.approx(zero, rel=1e-3)


def test_reduction_stays_below_four_wall_factors():
    """Each wall factor is formed one column at a time into its sector blocks, so no dense factor is formed.

    ``reduction`` stays below one dense (d^(2p), d^2 + 1) wall factor.
    ``suite_generators`` sums the wall factors and top columns as their
    sector blocks too, and compares each sector as a factored difference,
    so it stays below one as well: the dense weight-0 blocks F_0 C_0 F_0^T
    and l l^T (545 x 545) would take 0.73 of a factor each.
    """
    p, d = 3, 5
    for suite, factors in ((checks.suite_reduction, 1), (checks.suite_generators, 1)):
        suite(p, d)  # warms the caches the suite reads
        tracemalloc.start()
        try:
            results = suite(p, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak <= factors * d ** (2 * p) * (d * d + 1) * 8, (suite.__name__, peak)


def test_coefficients_stay_below_half_a_wall_factor():
    """Each core K = L^T (A (x) B) L is contracted from the d^p x d^p matrices: no d^(2p)-row array is formed.

    A dense (d^(2p), d^2 + 1) wall factor takes 3.25 MB at (3,5); forming
    the wall product (A (x) B) L, its permuted copy and (X L) * L took 3.02
    such factors.  The two stacks of one shape pair, laid out for the
    contraction, and their cores stay below half of one.
    """
    p, d = 3, 5
    checks.suite_coefficients(p, d)  # warms the caches the suite reads
    tracemalloc.start()
    try:
        results = checks.suite_coefficients(p, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak <= 0.5 * d ** (2 * p) * (d * d + 1) * 8, peak


@pytest.mark.parametrize("p,d", [(2, 2), (3, 3), (4, 2), (5, 3), (8, 4), (12, 12)])
def test_second_ideal_blocks_are_the_pairs_with_a_common_removal(p, d):
    shapes = schur_weyl_partitions(p, d)
    expected = [(mu, nu) for mu in shapes for nu in shapes if common_removals(mu, nu)]
    assert [(b.mu, b.nu) for b in second_ideal_blocks(p, d)] == expected


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_V_top_reconstruction_from_units(p, d):
    shapes = schur_weyl_partitions(p, d)
    acc = FactoredOperator.zero(d ** (2 * p))
    for mu in shapes:
        for nu in shapes:
            w = float(np.sqrt(multiplicity(mu, d) * multiplicity(nu, d)))
            for i in range(1, dim_irrep(mu) + 1):
                for j in range(1, dim_irrep(nu) + 1):
                    acc = acc + w * unit_operator(G_top(mu, i, i, nu, j, j, p, d))
    assert np.max(np.abs(acc.to_dense() - V_generator(p, p, d).matrix)) <= 1e-9


def test_singular_block_participates_after_reduction():
    """At d = p - 1 = 2 the two-row-shape block is singular; its kernel gets
    no unit label, and its one mode, beta = 1, composes."""
    p, d = 3, 2
    mu = partition(2, 1)
    b = B_matrix(mu, mu, d)
    assert b.entries == ((Fraction(1), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(1, 9)))
    assert b.singular and b.nullity == 1 and b.rank == 1
    assert singularity_condition(mu, d)
    labels = sub_row_labels(p, d)
    assert all(beta == 1 for (m, n, i, j, beta) in labels if (m, n) == (mu, mu))
    units = {}
    for row in labels:
        for col in labels:
            u = G_sub(row[0], row[1], col[0], col[1], row[2], row[3], col[2], col[3], row[4], col[4], p, d)
            units[(u.system.labels[u.row], u.system.labels[u.col])] = u
    for (ra, ca), ua in units.items():
        for (rb, cb), ub in units.items():
            prod = unit_operator(ua) @ unit_operator(ub)
            if ca == rb:
                assert prod.distance(unit_operator(units[(ra, cb)])) <= 1e-9
            else:
                assert prod.frobenius_norm() <= 1e-9


def _V_sub_check(p, d):
    return next(r for r in checks.suite_generators(p, d) if r.name.startswith("V_sub_from_H_terms_"))


@pytest.mark.parametrize("p,d", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (3, 5)])
def test_decompose_Vpm1(p, d):
    if p == 1:
        with pytest.raises(ValueError):
            run_suite("generators", p, d)
        return
    check = _V_sub_check(p, d)
    terms = {(2, 2): 20, (2, 3): 20, (3, 2): 34, (3, 3): 80, (4, 2): 180, (4, 3): 610, (3, 5): 80}[p, d]
    assert check.name == f"V_sub_from_H_terms_{terms}_terms"
    assert check.passed and check.residual <= 1e-9


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2)])
def test_V_sub_expansion_term_by_term_on_the_oracles(p, d):
    """The paper's sum, pair by pair: (1/d)(sum of H + the diagonal F_top terms) is V^(p-1).

    The reference for the suite, which sums the same terms as two factors.
    """
    labels = [
        (alpha, prir_position(mu, alpha, ia), mu, prir_position(mup, alpha, ia), mup)
        for alpha in enumerate_partitions(p - 1)
        if multiplicity(alpha, d) > 0
        for ia in range(1, dim_irrep(alpha) + 1)
        for mu in add_box(alpha)
        for mup in add_box(alpha)
        if multiplicity(mu, d) > 0 and multiplicity(mup, d) > 0
    ]
    acc = np.zeros((d ** (2 * p),) * 2)
    for (a, r1, mu, r2, mup), (b, s1, nu, s2, nup) in itertools.product(labels, repeat=2):
        acc += H_operator(mu, mup, nu, nup, r1, r2, s1, s2, a, b, p, d).to_dense()
        if mu == mup and nu == nup:
            acc += F_top(mu, r1, r1, nu, s1, s1, p, d).to_dense()
    assert np.max(np.abs(acc / d - V_generator(p, p - 1, d).matrix)) <= 1e-9


@pytest.mark.parametrize(
    "p,d,size",
    [pytest.param(2, 2, 1e-6, id="2-2"), pytest.param(3, 3, 1e-6, id="3-3"), pytest.param(3, 3, 1e-12, id="3-3-1e-12")],
)
def test_V_sub_expansion_fails_on_an_off_sector_wall_entry(monkeypatch, p, d, size):
    # column 0 of every wall factor lies in the sector of index 0 (free digits 0, 0);
    # one small entry planted off it would leave every sector block as it was, so packing raises
    sector = _weight_sectors(p, d)[0]
    row = int(np.flatnonzero(sector != sector[0])[0])
    monkeypatch.setattr(ideal_units, "_wall_columns", _planted_columns(ideal_units._wall_columns, row, 0, size))
    with pytest.raises(ArithmeticError, match="off its columns' weight sectors"):
        _V_sub_check(p, d)


@pytest.mark.parametrize("p,d", [(2, 2), (3, 3)])
def test_V_sub_expansion_fails_with_the_metric_sign_flipped(monkeypatch, p, d):
    monkeypatch.setattr(checks, "_wall_diagonal", lambda dd: np.array([float(dd)] * (dd * dd) + [1.0]))
    assert not _V_sub_check(p, d).passed


@pytest.mark.parametrize("p,d,terms", [(2, 2, 20), (3, 3, 80)])
def test_V_sub_expansion_fails_on_a_dropped_term(monkeypatch, p, d, terms):
    # the wall factor of the first label (alpha, i_alpha, mu, mu') reads zero: every
    # term pair with that label leaves the sum, and the term count stays the same
    wall = ideal_units._wall_columns
    calls = []

    def dropped(*args):
        calls.append(args)
        for out in wall(*args):
            yield np.zeros_like(out) if len(calls) == 1 else out

    monkeypatch.setattr(ideal_units, "_wall_columns", dropped)
    check = _V_sub_check(p, d)
    assert check.name == f"V_sub_from_H_terms_{terms}_terms"
    assert not check.passed


@pytest.mark.parametrize("p,d", [(3, 3), (4, 2)])
def test_V_top_from_units_fails_on_a_planted_basis_entry(monkeypatch, p, d):
    # one entry of the basis of a moved diagonal top label (i = j > 1), off by 1e-6 of itself
    def check():
        return next(r for r in checks.suite_generators(p, d) if r.name == "V_top_from_units")

    assert check().passed
    top = unit_system(p, d, p)
    planted = next(a for a, (_, i, j) in enumerate(top.labels) if i == j > 1)
    basis = ideal_units.UnitSystem.basis

    def perturbed(system, a):
        out = basis(system, a)
        if system is top and a == planted:
            out[np.argmax(np.abs(out[:, 0])), 0] *= 1 + 1e-6
        return out

    monkeypatch.setattr(ideal_units.UnitSystem, "basis", perturbed)
    assert not check().passed


def _unreached(*args):
    raise AssertionError("work ran before the d^(2p) bound was checked")


def test_unit_system_refuses_before_it_lists_labels(monkeypatch):
    # the label count grows with the Catalan numbers: at (14,2) listing them took 1.9 s and 268 MiB
    monkeypatch.setattr(ideal_units, "top_row_labels", _unreached)
    monkeypatch.setattr(ideal_units, "sub_row_labels", _unreached)
    for ideal in (14, 13):
        with pytest.raises(ResourceLimitError):
            unit_system.__wrapped__(14, 2, ideal)


def test_reduction_refuses_before_the_sector_layout(monkeypatch):
    # the layout labels all d^(2p) basis indices, through a (2p, d^(2p)) digit table
    monkeypatch.setattr(checks, "_sector_layout", _unreached)
    with pytest.raises(ResourceLimitError):
        run_suite("reduction", 6, 3)
