import tracemalloc

import numpy as np
import pytest

from walledbrauer import checks, spectra
from walledbrauer.errors import ResourceLimitError
from walledbrauer.ideal_units import G_sub, G_top, sub_row_labels, top_row_labels
from walledbrauer.matrix_units import E_unit, embed_left, embed_right
from walledbrauer.partitions import Partition, dim_irrep, partition, schur_weyl_partitions
from walledbrauer.spectra import (
    _block_entries,
    _dominant_sectors,
    _dominant_weights,
    analytic_overlaps,
    rho,
    rho_apply,
    rho_eigenvalues,
    spectrum_table,
)
from walledbrauer.symgroup import Permutation, enumerate_group
from walledbrauer.tensorspace import DenseOperator, V_generator, _weight_sectors, permutation_index, permutation_operator

from oracles import factored_trace, rho_eigenvalues_all_sectors, unit_operator

rng = np.random.default_rng(31)


# ----------------------------------------------------------------------------
# reference oracles: the twirl over the whole group S_p x S_p


def twirl(x: DenseOperator) -> DenseOperator:
    """Average of (V_s1 (x) V_s2) X (V_s1 (x) V_s2)^-1 over S_p x S_p.

    Conjugation by V_tau moves entry (r, c) to (idx[r], idx[c]), idx = permutation_index(tau).
    """
    p, dim = x.n // 2, x.dim
    rows, cols = np.nonzero(x.matrix)
    vals = x.matrix[rows, cols]
    acc = np.zeros(dim * dim, dtype=x.matrix.dtype)
    group = enumerate_group(p)
    for s1 in group:
        for s2 in group:
            idx = permutation_index(Permutation(s1.images + tuple(p + v for v in s2.images)), x.d, x.n)
            np.add.at(acc, idx[rows] * dim + idx[cols], vals)
    acc /= len(group) ** 2
    return DenseOperator(x.d, x.n, acc.reshape(dim, dim))


def twirl_trace_identity(
    x: DenseOperator,
    y: DenseOperator,
    mu: Partition,
    i: int,
    j: int,
    nu: Partition,
    k: int,
    l: int,
    mup: Partition,
    ip: int,
    jp: int,
    nup: Partition,
    kp: int,
    lp: int,
    d: int,
) -> tuple[float, float]:
    """Both sides of the twirl-trace identity for sandwiched matrix units.

    Left: tr(twirl(X) E^mu_ij (x) E^nu_kl Y E^mup_{ip jp} (x) E^nup_{kp lp}).
    Right: the (1 / d_mu d_nu)-weighted sum over the free index pair, with
    the label and index deltas.
    """
    p = x.n // 2
    left_unit = embed_left(E_unit(mu, i, j, d), p) @ embed_right(E_unit(nu, k, l, d), p)
    right_unit = embed_left(E_unit(mup, ip, jp, d), p) @ embed_right(E_unit(nup, kp, lp, d), p)
    lhs = float(np.trace(twirl(x).matrix @ left_unit.matrix @ y.matrix @ right_unit.matrix))
    rhs = 0.0
    if mu == mup and nu == nup and i == jp and k == lp:
        dm, dn = dim_irrep(mu), dim_irrep(nu)
        total = 0.0
        for r in range(1, dm + 1):
            for s in range(1, dn + 1):
                a = embed_left(E_unit(mu, r, j, d), p) @ embed_right(E_unit(nu, s, l, d), p)
                b = embed_left(E_unit(mu, ip, r, d), p) @ embed_right(E_unit(nu, kp, s, d), p)
                total += float(np.trace(x.matrix @ a.matrix @ y.matrix @ b.matrix))
        rhs = total / (dm * dn)
    return lhs, rhs


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


def _weights(p: int, d: int) -> np.ndarray:
    """Row i: letter counts of basis index i on registers 1..p minus those on p+1..2p."""
    digits = np.array(np.unravel_index(np.arange(d ** (2 * p)), (d,) * (2 * p)))
    return np.stack([(digits[:p] == a).sum(0) - (digits[p:] == a).sum(0) for a in range(d)], axis=1)


# ----------------------------------------------------------------------------


def test_twirl_identity_and_projector():
    ident = DenseOperator.identity(2, 4)
    assert twirl(ident).distance(ident) <= 1e-12
    x = DenseOperator(2, 4, rng.standard_normal((16, 16)))
    once = twirl(x)
    assert once.distance(twirl(once)) <= 1e-12


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_twirl_equals_dense_conjugation_average(p, d):
    # the explicit products cost (p!)^2 d^(6p) flops; at (3,3) the scatter oracle stands alone
    dense = d ** (2 * p) <= 81
    if dense:
        x = DenseOperator(d, 2 * p, np.random.default_rng(7).standard_normal((d ** (2 * p),) * 2))
        assert np.max(np.abs(twirl(x).matrix - _dense_twirl(x))) <= 1e-12
    for level in range(p + 1):
        v = V_generator(p, level, d)
        group = twirl(v).matrix
        # 0/1 entries: every partial sum is an exact integer, and the orbit average
        # (count / orbit size) and the group average (count * stabilizer / (p!)^2)
        # are the same rational, rounded once, so all three agree bit for bit
        assert np.array_equal(rho(level, p, d).matrix, group)
        if dense:
            assert np.array_equal(group, _dense_twirl(v))


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (3, 3)])
def test_rho_conserves_the_weight(p, d):
    w = _weights(p, d)
    for level in range(p + 1):
        rows, cols = np.nonzero(rho(level, p, d).matrix)
        assert np.array_equal(w[rows], w[cols])


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (3, 3), (1, 45)])
def test_weight_sectors_are_labelled_and_counted(p, d):
    # at (1,45) the 45 base-3 digits of the key pass 2^63, so the labelling re-ranks its keys
    w = _weights(p, d)
    weights, sizes = np.unique(w, axis=0, return_counts=True)
    sector, pos, labelled = _weight_sectors(p, d)
    # one sector per weight, and one position per index inside its sector
    assert np.unique(np.column_stack([sector, w]), axis=0).shape[0] == sizes.size == labelled.size
    assert np.array_equal(np.sort(sizes), labelled)
    assert np.unique(sector * w.shape[0] + pos).size == w.shape[0]
    assert np.all(pos < labelled[sector])
    # the dominant weights, counted without the basis: each is the weight of one
    # sector of size n_w, and its orbit covers the sectors of its permuted weights
    table = {wt: (orbit, n) for wt, orbit, n in _dominant_weights(p, d)}
    for weight, size in zip(weights, sizes):
        orbit, n = table[tuple(sorted(weight.tolist(), reverse=True))]
        assert n == size
    assert sum(orbit for orbit, _ in table.values()) == sizes.size
    assert sum(orbit * n for orbit, n in table.values()) == d ** (2 * p)
    assert sum(orbit * n * n for orbit, n in table.values()) == int(np.sum(sizes**2))
    # the block storage is that of the dominant sectors
    ids, orbits = _dominant_sectors(p, d)
    assert ids.size == len(table) and sorted(orbits.tolist()) == sorted(o for o, _ in table.values())
    assert _block_entries(p, d) == int(np.sum(labelled[ids] ** 2)) == sum(n * n for _, n in table.values())


@pytest.mark.parametrize(
    "p,d,dominant,every",
    [(3, 4, 94_877, 387_136), (4, 4, 12_714_745, 65_218_204), (5, 3, 45_583_985, 140_668_065)],
)
def test_block_entries_count_the_dominant_sectors_exactly(p, d, dominant, every):
    # counted from the letter counts alone: no basis of d^(2p) indices is built
    _dominant_weights.cache_clear()
    tracemalloc.start()
    try:
        assert _block_entries(p, d) == dominant
        assert tracemalloc.get_traced_memory()[1] < 2**16
    finally:
        tracemalloc.stop()
    table = _dominant_weights(p, d)
    assert sum(orbit * n * n for _, orbit, n in table) == every
    assert sum(orbit * n for _, orbit, n in table) == d ** (2 * p)


def test_sector_eigenvalues_equal_the_dense_ones():
    p, d = 3, 3
    for level in range(p + 1):
        dense = np.linalg.eigvalsh(twirl(V_generator(p, level, d)).matrix)
        scale = np.max(np.abs(dense))  # the spectral norm of rho
        assert np.max(np.abs(rho_eigenvalues(level, p, d) - dense)) <= 1e-12 * scale


def _same_spectrum(vals: np.ndarray, oracle: np.ndarray) -> bool:
    """Equal counts, and equal sorted values to 1e-12 times the spectral norm."""
    scale = float(np.max(np.abs(oracle)))
    return vals.shape == oracle.shape and float(np.max(np.abs(vals - oracle))) <= 1e-12 * scale


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (6, 2)])
def test_dominant_sectors_give_the_all_sector_spectrum(p, d):
    # the sectors of one S_d orbit are isospectral, so each dominant block stands for its orbit
    for level in range(p + 1):
        assert _same_spectrum(rho_eigenvalues(level, p, d), rho_eigenvalues_all_sectors(level, p, d))


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3)])
def test_a_planted_orbit_size_fails_the_comparison(monkeypatch, p, d):
    ids, orbits = _dominant_sectors(p, d)
    planted = orbits.copy()
    planted[np.argmax(orbits)] = 1
    monkeypatch.setattr(spectra, "_dominant_sectors", lambda p_, d_: (ids, planted))
    assert not _same_spectrum(rho_eigenvalues(p - 1, p, d), rho_eigenvalues_all_sectors(p - 1, p, d))


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


@pytest.mark.parametrize(
    "p,d",
    [
        (2, 2),
        (2, 3),
        (2, 4),
        (3, 2),
        (4, 2),
        (5, 2),
        (3, 5),
        (6, 2),
        pytest.param(
            4, 3, marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 1")
        ),
    ],
)
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
        assert (unit_operator(unit, rho_sub) - lam * unit_operator(unit)).frobenius_norm() <= 1e-10
    for (mu, nu, i, j, beta) in sub_row_labels(p, d):
        unit = G_sub(mu, nu, mu, nu, i, j, i, j, beta, beta, p, d)
        lam = analytic[(p - 1, mu, nu, beta)]
        assert (unit_operator(unit, rho_sub) - lam * unit_operator(unit)).frobenius_norm() <= 1e-10


def test_rho_top_annihilates_second_ideal_small():
    p, d = 2, 2
    rho_top = rho(p, p, d).matrix
    for (mu, nu, i, j, beta) in sub_row_labels(p, d):
        unit = G_sub(mu, nu, mu, nu, i, j, i, j, beta, beta, p, d)
        assert abs(factored_trace(unit_operator(unit, rho_top))) <= 1e-10


def test_block_structure_small():
    """Matrix elements vanish between units with different labels."""
    p, d = 2, 2
    rho_sub = rho(p - 1, p, d).matrix
    srows = sub_row_labels(p, d)
    for row in srows:
        for col in srows:
            unit = G_sub(*row[:2], *col[:2], row[2], row[3], col[2], col[3], row[4], col[4], p, d)
            value = factored_trace(unit_operator(unit, rho_sub))
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
            value = factored_trace(unit_operator(unit, rho_sub))
            if row != col:
                worst_off = max(worst_off, abs(value))
            else:
                assert abs(value) > 1e-6
    assert worst_off <= 1e-10


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_rho_apply_matches_the_dense_rho(p, d):
    # To first order, a side that adds n terms per entry errs by at most
    # n eps (|rho| |q|): n = d^(2p) for the dense product, and at most d^k plus
    # the orbit size for the apply (a sum over each group, then one per
    # matching).  The bound is the sum of the two.
    # q is applied as its weight-sector blocks, the rows of sector s in position order.
    q = rng.standard_normal((d ** (2 * p), 5))
    sector, _, sizes = _weight_sectors(p, d)
    rows = {s: np.flatnonzero(sector == s) for s in range(sizes.size)}
    for level in range(p + 1):
        dense = rho(level, p, d).matrix
        terms = d ** (2 * p) + d**level + spectra._orbit_size(p, level)
        bound = terms * np.finfo(float).eps * (np.abs(dense) @ np.abs(q))
        applied = np.zeros_like(q)
        for s, block in rho_apply(level, p, d, {s: q[r] for s, r in rows.items()}).items():
            applied[rows[s]] = block
        assert np.all(np.abs(applied - dense @ q) <= bound)
    with pytest.raises(ValueError):
        rho_apply(p + 1, p, d, {0: q[rows[0]]})
    with pytest.raises(ValueError):
        rho_apply(p, p, d, {0: q[rows[0]][1:]})


def test_eigenoperators_fail_when_the_apply_drops_a_matching(monkeypatch):
    groups = spectra._matching_groups

    def dropped(p, d, level):
        orbit = groups(p, d, level)
        next(orbit)
        yield from orbit

    monkeypatch.setattr(spectra, "_matching_groups", dropped)
    results = {r.name: r for r in checks.run_suite("eigenoperators", 3, 3)}
    assert not (results["eigen_operator_property"].passed and results["block_structure_off_diagonal_zero"].passed)
    assert not results["twirl_trace_conservation"].passed  # the orbit count misses |A_pi|


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


def _refusal_peak(p: int, d: int, level: int, reason: str) -> int:
    """Peak traced allocation of a refused brute spectrum, whose refusal must name ``reason``."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=reason):
            spectrum_table(p, d, level, "brute")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_twirl_guard_refuses_before_allocating():
    # (7,2) level 6: 35 280 matchings of 16 384 nonzeros, 5.8e8 scattered entries
    assert _refusal_peak(7, 2, 6, "touches") < 2**20
    with pytest.raises(ResourceLimitError, match="touches"):
        rho(6, 7, 2)
    # (5,3): its dominant weight sectors hold 4.6e7 block entries, although the scatter is small
    assert _refusal_peak(5, 3, 3, "block entries") < 2**20


@pytest.mark.parametrize("p,d", [(5, 4), (7, 3)])
def test_brute_refusal_builds_no_basis_array(p, d):
    # d^(2p) is 1.0e6 and 4.8e6: one int64 array of that length would pass 1 MiB
    assert _refusal_peak(p, d, p - 1, "touches") < 2**20
    assert _refusal_peak(p, d, 0, "block entries") < 2**20
