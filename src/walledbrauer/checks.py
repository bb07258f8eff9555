"""Named verification suites driven by the command line front end.

Each suite returns a list of check results with the worst observed residual,
so the CLI can emit a machine-readable report and a pass/fail exit code.
``suite_generators`` expands V^(p-1) in the constructed basis as two summed
factors, the wall factors S and the top columns T, and compares
(S D S^T + T T^T) / d, factored, once per weight sector, whatever the term count.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from . import matrix_units as mx
from . import spectra
from .errors import ParameterError
from .ideal_units import (
    B_matrix,
    ab_general,
    has_second_ideal,
    singularity_condition,
    trace_with_V_sub,
    trace_with_V_top,
    unit_system,
    _flat,
    _indicator,
    _pack_columns,
    _sector_blocks,
    _sector_layout,
    _top_factor,
    _wall_diagonal,
    _wall_pack,
)
from .lowrank import FactoredOperator
from .partitions import (
    Frozen,
    Partition,
    add_box,
    count_semistandard_tableaux,
    dim_irrep,
    enumerate_partitions,
    enumerate_standard_tableaux,
    multiplicity,
    remove_box,
    schur_weyl_partitions,
)
from .symgroup import (
    enumerate_group,
    prir_map,
    prir_position,
    restriction_block_check,
    transposition,
    young_orthogonal_rep,
)
from .tensorspace import (
    DenseOperator,
    V_generator,
    _apply_top,
    _check_dim,
    _sandwich_core,
    embed_operator,
    factored_outer_pair,
    factored_V,
    permutation_operator,
    sandwich_reduce,
)


class CheckResult(Frozen):
    """One check: its name, verdict, the residual found and the tolerance it was held to."""

    __slots__ = ("name", "passed", "residual", "tolerance", "detail")
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str
    _defaults = ("",)


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, residual <= tol, float(residual), tol, detail)


def _bool_result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, ok, 0.0 if ok else 1.0, 0.0, detail)


def _uniform(rng: random.Random, *shape: int) -> np.ndarray:
    """Test inputs uniform on [-1, 1), 53 random bits per entry, from a seeded stdlib generator.

    Drawing from ``random`` keeps ``numpy.random`` unimported in ``verify``.
    """
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8") >> 11
    return (bits * 2.0**-52 - 1.0).reshape(shape)


# ----------------------------------------------------------------------------


def suite_partitions(p: int, d: int) -> list[CheckResult]:
    bad = sum(
        1
        for q in range(1, 7)
        for mu in enumerate_partitions(q)
        if dim_irrep(mu) != len(enumerate_standard_tableaux(mu))
    )
    out = [_bool_result("hook_length_vs_tableau_count_p<=6", bad == 0)]
    bad = sum(
        1
        for q in range(1, 6)
        for dd in range(1, 5)
        for mu in enumerate_partitions(q)
        if multiplicity(mu, dd) != count_semistandard_tableaux(mu, dd)
    )
    out.append(_bool_result("hook_content_vs_semistandard_count_p<=5_d<=4", bad == 0))
    bad = sum(
        1
        for q in range(1, 6)
        for dd in range(1, 5)
        if sum(dim_irrep(mu) * multiplicity(mu, dd) for mu in enumerate_partitions(q)) != dd**q
    )
    out.append(_bool_result("schur_weyl_dimension_sum_p<=5_d<=4", bad == 0))
    ok = True
    for q in range(1, 6):
        for mu in enumerate_partitions(q):
            ok &= all(mu in add_box(a) for a in remove_box(mu))
            ok &= all(mu in remove_box(b) for b in add_box(mu))
    out.append(_bool_result("add_remove_box_inverse_p<=5", ok))
    return out


def suite_representations(p: int, d: int) -> list[CheckResult]:
    tol = 1e-12
    q = min(p, 4)
    worst_orth = 0.0
    worst_hom = 0.0
    group = enumerate_group(q)
    for mu in enumerate_partitions(q):
        mats = {s: young_orthogonal_rep(mu, s) for s in group}
        n = dim_irrep(mu)
        for s, m in mats.items():
            worst_orth = max(worst_orth, float(np.max(np.abs(m.T @ m - np.eye(n)))))
        for s in group:
            for t in group:
                worst_hom = max(worst_hom, float(np.max(np.abs(mats[s] @ mats[t] - mats[s * t]))))
    out = [
        _result(f"orthogonality_S{q}", worst_orth, tol),
        _result(f"homomorphism_S{q}", worst_hom, tol),
    ]
    worst = 0.0
    qq = min(p, 4)
    group = enumerate_group(qq)
    fact = len(group)
    for alpha in enumerate_partitions(qq):
        for beta in enumerate_partitions(qq):
            da, db = dim_irrep(alpha), dim_irrep(beta)
            acc = np.zeros((da, da, db, db))
            for s in group:
                acc += np.einsum(
                    "ij,kl->ijkl",
                    young_orthogonal_rep(alpha, s.inverse()),
                    young_orthogonal_rep(beta, s),
                )
            expected = np.zeros_like(acc)
            if alpha == beta:
                for i in range(da):
                    for j in range(da):
                        expected[i, j, j, i] = fact / da
            worst = max(worst, float(np.max(np.abs(acc - expected))))
    out.append(_result(f"orthogonality_relation_S{qq}", worst, tol))
    ok = True
    for q2 in range(2, 6):
        gens = [transposition(q2, k, k + 1) for k in range(1, q2 - 1)]
        for mu in enumerate_partitions(q2):
            for g in gens:
                ok &= restriction_block_check(mu, g)
    out.append(_bool_result("subgroup_adaptation_p<=5", ok))
    return out


def suite_tensorspace(p: int, d: int) -> list[CheckResult]:
    """Tensor-space identities; the generator ones are read off the factors of ``factored_V``.

    With V^(p-1) = L L^T and V^(p) = l l^T (l = L phi, phi = vec(1_d), a
    single 0/1 column), every row of L holds at most one 1 and every column
    at least one, so max|L Z| = max|Z| for any Z; this is the argument of
    ``tensorspace.sandwich_reduce``.  Hence, with no product over the 2p
    registers:

    * max|V^(p) X_e V^(p) - tr X V^(p)| = |l^T (X (x) 1) l - tr X|, the
      column (X (x) 1) l formed by the gather ``_apply_top(x, ...)``;
    * max|V^(p-1) V - V^(p)| = max|L^T V - phi l^T| and
      max|V^(p) V - d V^(p)| = max|l^T V - d l^T|, V on the outer pair,
      read as M M^T from its 0/1 factor (``factored_outer_pair``), so that
      (L^T M) M^T and (l^T M) M^T are thin products.
    """
    tol = 1e-10
    rng = random.Random(11)
    out = []
    worst = 0.0
    for dd in (2, 3, 4):
        x = _uniform(rng, dd, dd)
        psi = np.zeros(dd * dd)
        for i in range(dd):
            psi[i * dd + i] = 1.0 / np.sqrt(dd)
        worst = max(
            worst,
            float(np.max(np.abs(np.kron(x, np.eye(dd)) @ psi - np.kron(np.eye(dd), x.T) @ psi))),
        )
    out.append(_result("ping_pong_d<=4", worst, 1e-12))
    pp, dd = 2, 2
    v = V_generator(pp, pp, dd)
    worst = 0.0
    for _ in range(5):
        ops = [_uniform(rng, dd, dd) for _ in range(2 * pp)]
        a = np.kron(ops[0], ops[1])
        b = np.kron(ops[2], ops[3])
        lhs = DenseOperator(dd, 2 * pp, np.kron(a, b)) @ v
        core = np.kron(ops[0] @ ops[3].T, ops[1] @ ops[2].T)
        rhs = DenseOperator(dd, 2 * pp, np.kron(core, np.eye(dd**pp))) @ v
        worst = max(worst, lhs.distance(rhs))
    out.append(_result("generalized_ping_pong_p2_d2", worst, tol))
    worst = 0.0
    for pq, dq in ((2, 2), (2, 3), (3, 2), (3, 3)):
        x = _uniform(rng, dq**pq, dq**pq)
        top = factored_V(pq, pq, dq)[:, 0]
        worst = max(worst, abs(float(top @ _apply_top(x, pq, dq)[:, 0]) - float(np.trace(x))))
    out.append(_result("sandwich_fact_p<=3", worst, tol))
    worst = 0.0
    for pq, dq in ((2, 2), (3, 2), (min(p, 3), min(d, 3))):
        m = factored_outer_pair(pq, dq)
        L, top = factored_V(pq, pq - 1, dq), factored_V(pq, pq, dq)[:, 0]
        phi = np.eye(dq).ravel()
        worst = max(worst, float(np.max(np.abs((L.T @ m) @ m.T - np.outer(phi, top)))))
        worst = max(worst, float(np.max(np.abs((top @ m) @ m.T - dq * top))))
    out.append(_result("generator_products", worst, tol))
    worst = 0.0
    for pq in (2, 3):
        dq = 2
        vq = V_generator(pq, pq - 1, dq)
        for _ in range(10):
            x = DenseOperator(dq, 2 * pq, _uniform(rng, dq ** (2 * pq), dq ** (2 * pq)))
            xt = sandwich_reduce(x)
            rhs = embed_operator(xt, [1, 2 * pq], 2 * pq) @ vq
            worst = max(worst, (vq @ x @ vq).distance(rhs))
    out.append(_result("sandwich_reduce_identity", worst, tol))
    return out


def suite_matrix_units(p: int, d: int) -> list[CheckResult]:
    tol = 1e-10
    out = []
    worst = 0.0
    for pq in (2, min(p, 3)):
        for dq in (2, min(d, 3)):
            units = [
                (mu, i, j, mx.E_unit(mu, i, j, dq))
                for mu in enumerate_partitions(pq)
                for i in range(1, dim_irrep(mu) + 1)
                for j in range(1, dim_irrep(mu) + 1)
            ]
            for mu, i, j, a in units:
                expected_tr = multiplicity(mu, dq) if i == j else 0
                worst = max(worst, abs(a.trace() - expected_tr))
                for nu, k, l, b in units:
                    prod = a @ b
                    if mu == nu and j == k:
                        expected = mx.E_unit(mu, i, l, dq)
                    else:
                        expected = DenseOperator.zeros(dq, pq)
                    worst = max(worst, prod.distance(expected))
    out.append(_result("unit_composition_and_trace_p<=3_d<=3", worst, tol))
    worst = 0.0
    for dq in (2, 3):
        for sigma in enumerate_group(3):
            acc = DenseOperator.zeros(dq, 3)
            for mu in enumerate_partitions(3):
                phi = young_orthogonal_rep(mu, sigma)
                for i in range(1, dim_irrep(mu) + 1):
                    for j in range(1, dim_irrep(mu) + 1):
                        acc = acc + phi[i - 1, j - 1] * mx.E_unit(mu, i, j, dq)
            worst = max(worst, acc.distance(permutation_operator(sigma, dq, 3)))
    out.append(_result("permutation_resolution_S3", worst, tol))
    worst = mx.completeness_defect(min(p, 3), d)
    out.append(_result("projector_completeness", worst, tol))
    worst = 0.0
    pq, dq = 2, 2
    v = V_generator(pq, pq, dq)
    for mu in schur_weyl_partitions(pq, dq):
        for nu in schur_weyl_partitions(pq, dq):
            dm, dn = dim_irrep(mu), dim_irrep(nu)
            for i, j, k, l in itertools.product(
                range(1, dm + 1), range(1, dm + 1), range(1, dn + 1), range(1, dn + 1)
            ):
                lhs = (mx.embed_left(mu, i, j, dq) @ mx.embed_right(nu, k, l, dq)) @ v
                if mu == nu and j == l:
                    rhs = mx.embed_left(mu, i, k, dq) @ v
                else:
                    rhs = DenseOperator.zeros(dq, 2 * pq)
                worst = max(worst, lhs.distance(rhs))
    out.append(_result("wall_embedding_identity_p2_d2", worst, tol))
    try:
        mx.branching_expand(Partition((1,)), 1, 1, 2, 2)
        mx.branching_expand(Partition((2,)), 1, 1, 3, 3)
        pmap = prir_map(Partition((2, 1)))
        mx.partial_trace_E(Partition((2, 1)), pmap[0], pmap[0], 3)
        mx.partial_trace_E(Partition((2, 1)), pmap[0], pmap[1], 3)
        out.append(_bool_result("branching_and_partial_trace_forms", True))
    except ArithmeticError as exc:
        out.append(_bool_result("branching_and_partial_trace_forms", False, str(exc)))
    return out


def suite_coefficients(p: int, d: int) -> list[CheckResult]:
    """The V^(p-1) sandwich identity of every wall product X = A (x) B, on its core.

    One contraction per shape pair forms the cores K = L^T X L of all its
    label pairs from the units alone (``tensorspace._sandwich_core``),
    without the dense X or X L (``tensorspace.sandwich_reduce`` states why
    the core carries the whole identity): tr K and phi^T K phi, with
    phi = vec(1_d), are the traces of X against V^(p-1) and V^(p), and
    max|K - a phi phi^T - b 1| is the max-abs residual of V^(p-1) X V^(p-1) = a V^(p) + b V^(p-1).
    """
    tol = 1e-10
    # the units of every shape are cached, sum of d_mu^2 matrices of d^(2p) floats; a shape
    # pair lays them out again, (d_mu^2 + d_nu^2) d^(2p) floats, and forms d_mu^2 d_nu^2 cores of d^4
    _check_dim(d, 2 * p)
    phi = np.eye(d).ravel()
    shapes = schur_weyl_partitions(p, d)
    # one stack per shape, in natural register order for either wall side, and its label pairs in
    # the same row-major order: prir_map lists the basis indices in order, so index i is position i
    pairs = {mu: list(itertools.product(range(1, dim_irrep(mu) + 1), repeat=2)) for mu in shapes}
    units = {mu: [mx.right_side_matrix(mu, i, j, d) for i, j in pairs[mu]] for mu in shapes}
    labels = {mu: list(itertools.product(prir_map(mu), repeat=2)) for mu in shapes}
    rng = random.Random(5)
    sampled = {}  # (mu, nu) -> places (x, y) of the sampled label pairs
    for _ in range(50):
        mu, nu = shapes[rng.randrange(len(shapes))], shapes[rng.randrange(len(shapes))]
        m, n = dim_irrep(mu), dim_irrep(nu)
        x = rng.randrange(m) * m + rng.randrange(m)
        sampled.setdefault((mu, nu), []).append((x, rng.randrange(n) * n + rng.randrange(n)))
    exact_ok = True
    trace_worst = worst = 0.0
    for mu, nu in itertools.product(shapes, repeat=2):
        cores = _sandwich_core(units[mu], units[nu], p, d)
        rules = np.zeros((4, *cores.shape[:2]))  # tr X V^(p), tr X V^(p-1) and the exact (a, b), as floats
        for (x, (rm, cm)), (y, (rn, cn)) in itertools.product(enumerate(labels[mu]), enumerate(labels[nu])):
            key = (mu, nu, rm, cm, rn, cn, d)
            a, b = ab_general(*key)
            same = mu == nu and rm == rn and cm == cn
            exact_ok &= a * d + b == (Fraction(multiplicity(mu, d), d) if same else 0)
            rules[:, x, y] = trace_with_V_top(*key), trace_with_V_sub(*key), a, b
        trace_worst = max(
            trace_worst,
            float(np.max(np.abs(cores @ phi @ phi - rules[0]))),
            float(np.max(np.abs(np.trace(cores, axis1=2, axis2=3) - rules[1]))),
        )
        for x, y in sampled.get((mu, nu), ()):
            res = cores[x, y] - rules[2, x, y] * np.outer(phi, phi) - rules[3, x, y] * np.eye(d * d)
            worst = max(worst, float(np.max(np.abs(res))))
    return [
        _bool_result("ad_plus_b_exact", exact_ok),
        _result("sandwich_decomposition_50_random", worst, tol),
        _result("trace_rules_exhaustive", trace_worst, tol),
    ]


def _composition(cores, overlaps) -> float:
    """Worst ||M_ab X_bb' M_b'c - delta_bb' M_ac||_F over all index quadruples, M and X one (n, n, r_k, r_k) block per sector k.

    One contraction per row a and sector forms every (b, b', c); the squared norms of the blocks add up.
    """
    n = len(cores[0])
    worst = 0.0
    for a in range(n):
        squares = np.zeros((n, n, n))
        for m, x in zip(cores, overlaps):  # m, x: (n, n, r_k, r_k)
            res = (m[a][:, None] @ x)[:, :, None] @ m  # [b, b', c]: M_ab X_bb' M_b'c
            res[np.arange(n), np.arange(n)] -= m[a]
            squares += np.sum(res**2, axis=(3, 4))
        worst = max(worst, float(np.sqrt(squares).max(initial=0.0)))
    return worst


def _composition_worst(system) -> float:
    """Worst Frobenius residual of G_ab G_b'c = delta_bb' G_ac over all n^4 label quadruples, formed on the seeds.

    On cores, G_ab G_b'c - delta G_ac = Q_a (M_ab X_bb' M_b'c - delta M_ac) Q_c^T
    with X_bb' = Q_b^T Q_b', and the orthonormal Q_a, Q_c keep the Frobenius
    norm.  Q_b is its seed's moved by A_b = E^mu_{i1} (x) E^nu_{j1}, and
    A_b^T A_b' is the identity on the seed range if b and b' have the same
    shapes and indices, and zero if not, so the seeds carry all n^2 x n^2
    pairs, every seed quadruple formed exactly by ``_composition``.  To first
    order, the distance of each unit from its projection onto the bases
    enters the residual of a product at most three times, and so do the
    moves A_a, A_b^T A_b' and A_c, off their exact forms by at most the
    relation residual on each wall side (``UnitSystem.move_residual``).
    """
    worst = _composition(system.cores, system.overlaps)
    return worst + 3.0 * float(system.projection_residual.max(initial=0.0)) + 6.0 * system.move_residual


def suite_composition(p: int, d: int) -> list[CheckResult]:
    tol = 1e-9
    out = []
    for name, ideal in (("G_top", p), ("G_sub", p - 1)):
        system = unit_system(p, d, ideal)
        out.append(_result(f"{name}_all_pairs_{system.size ** 2}_units", _composition_worst(system), tol))
    return out


def _block_norm(blocks) -> float:
    """Frobenius norm of a block-diagonal operator, given as one FactoredOperator per block."""
    return math.sqrt(sum(block.frobenius_norm() ** 2 for block in blocks))


def _difference(f: np.ndarray, core: np.ndarray, l: np.ndarray) -> FactoredOperator:
    """f core f^T - l l^T on the rows of one weight sector, as the factored [f core | -l] [f | l]^T."""
    return FactoredOperator(np.hstack([f @ core, -l]), np.hstack([f, l]).T)


def _V_sub_expansion(p: int, d: int) -> tuple[int, float]:
    """The term count of the V^(p-1) expansion and its Frobenius residual against V^(p-1) = L L^T.

    The expansion sums, over every pair of labels (alpha, i_alpha, mu, mu'),
    alpha a one-box-smaller shape and mu, mu' additions to it, the H operator
    W D W'^T (``_wall_pack`` at the indicator of alpha), plus the top-ideal
    term t t'^T (``_top_factor`` at r = prir_position(mu, alpha, i_alpha))
    when mu = mu' on both sides, each with coefficient 1/d.  Every left label
    meets every right label, so by bilinearity the sum is
    (S D S^T + T T^T) / d, with S the sum of the wall factors and T that of
    the top columns.

    Each column of S, like each column of L, lies in one weight sector, and
    T in weight 0, so both products are block diagonal and nonzero only on
    the blocks of those sectors, and the squared Frobenius norm of the
    d^(2p) x d^(2p) difference sums those of the blocks.  S and T are summed
    as their sector blocks, each term formed one column at a time and
    packed as it is formed (``ideal_units._pack_columns``, which raises on
    an entry off them), so no factor of d^(2p) rows is formed but the
    cached L.  Each block is F_s C_s F_s^T - L_s L_s^T, held as
    [F_s C_s | -L_s] [F_s | L_s]^T with F_s = S_s, or [S_s | T] on weight 0,
    and C_s the matching entries of diag(D, 1) / d.
    """
    L = factored_V(p, p - 1, d)
    sectors, rows, cols, places = _sector_layout(p, d, p - 1)
    (zero,), top_rows, top_cols, _ = _sector_layout(p, d, p)
    S, T = np.zeros(sum(r.size for r, _ in places)), np.zeros(top_rows[0].size)
    walls, tops = 0, 0
    for alpha in (a for a in enumerate_partitions(p - 1) if multiplicity(a, d) > 0):
        adds = [m for m in add_box(alpha) if multiplicity(m, d) > 0]
        for ia, mu, mup in itertools.product(range(1, dim_irrep(alpha) + 1), adds, adds):
            r1, r2 = prir_position(mu, alpha, ia), prir_position(mup, alpha, ia)
            S += _wall_pack(mu, mup, r1, r2, _indicator(mu, mup, alpha), p, d)
            walls += 1
            if mu == mup:
                T += _pack_columns(_top_factor(mu, r1, r1, p, d).T, p, d, p)
                tops += 1
    diag = np.append(_wall_diagonal(d), 1.0) / d
    (t,) = _sector_blocks(T, top_rows, top_cols)
    blocks = []
    for s, r, c, f in zip(sectors, rows, cols, _sector_blocks(S, rows, cols)):
        if s == zero:
            f, c = np.hstack([f, t]), np.append(c, d * d + 1)
        blocks.append(_difference(f, np.diag(diag[c]), L[r]))
    return walls**2 + tops**2, _block_norm(blocks)


def suite_generators(p: int, d: int) -> list[CheckResult]:
    """V^(p) and V^(p-1) reassembled from the units and factors of the two ideals, one weight sector at a time.

    V^(p) = l l^T is the sum of sqrt(m_mu m_nu) G_top over the diagonal labels
    (mu, i, i) and (nu, j, j), that is Q C Q^T with C the weighted 1 x 1
    cores and Q the labels' bases (``UnitSystem.basis``).  The top unit
    system, like l, lies in the weight-zero sector alone (its build raises
    on a factor entry off it), so the Frobenius norm of that block of
    Q C Q^T - l l^T, held factored, is the residual; the system's projection
    residual is reported if larger.  V^(p-1) is the sum of the H operators
    and the top-ideal terms: ``_V_sub_expansion`` checks it as two summed
    factors, one factored difference per sector.
    """
    tol = 1e-9
    top = unit_system(p, d, p)
    (rows,) = top.sector_rows
    l = factored_V(p, p, d)[rows]
    diag = [a for a, (_, i, j) in enumerate(top.labels) if i == j]
    w = np.sqrt([multiplicity(top.labels[a][0], d) for a in diag])
    seeds = top.seed_of[diag]
    core = top.cores[0][np.ix_(seeds, seeds)][:, :, 0, 0] * np.outer(w, w)
    f = np.stack([top.basis(a)[rows, 0] for a in diag], axis=1)
    res = max(_difference(f, core, l).frobenius_norm(), float(top.projection_residual.max()))
    terms, residual = _V_sub_expansion(p, d)
    return [_result("V_top_from_units", res, tol), _result(f"V_sub_from_H_terms_{terms}_terms", residual, tol)]


def suite_eigenoperators(p: int, d: int) -> list[CheckResult]:
    """The units as eigenoperators of rho(p-1) and rho(p), checked on the seeds, with each twirl applied matrix-free, one sector block at a time.

    rho(k) commutes with the moves E^mu_{i1} (x) E^nu_{j1}, so each check on
    the seed units holds for every unit of their orbits.
    ``spectra.rho_apply`` forms rho(k) Q_s for the sector blocks Q_s of the
    seeds, so no array of d^(2p) rows is built.  (rho - lambda) G_ss
    = (rho Q_s - lambda Q_s) M_ss Q_s^T, and with M_ss block diagonal over
    the sectors its squared Frobenius norm is the sum over the sectors of
    ||(rho Q_sk - lambda Q_sk) M_ss,kk||_F^2.  The trace of rho(p-1) is the
    exact orbit count: the mean of |A_pi|, the number of diagonal 1s of
    V_pi, over the C(p,k)^2 k! matchings pi of the orbit, summed over those
    the enumerator yields.  The unit systems check d^(2p) first.
    """
    trace_tol = 1e-10
    tol = 1e-9
    top, sub = unit_system(p, d, p), unit_system(p, d, p - 1)
    analytic = {(r.ideal, r.mu, r.nu, r.interior): r.value for r in spectra.analytic_overlaps(p, d, p - 1)}

    def applied(system, level):
        return spectra.rho_apply(level, p, d, {s: _flat(b) for s, b in zip(system.sectors, system.sector_bases)})

    annihilated = float(np.max(np.abs(sub.traces_with(applied(sub, p))), initial=0.0))
    eigen = off_diagonal = 0.0
    for system, key in ((top, lambda r: (p, r[0], r[0], None)), (sub, lambda r: (p - 1, r[0], r[1], r[4]))):
        rho_q = applied(system, p - 1)
        n = len(system.seed_labels)
        lam = np.array([analytic[key(label)] for label in system.seed_labels])[:, None, None]
        squares = np.zeros(n)
        for s, core, block in zip(system.sectors, system.cores, system.sector_bases):
            rq = rho_q[s].reshape(block.shape[1], n, -1).transpose(1, 0, 2)
            m = np.einsum("aaij->aij", core)
            squares += np.sum(((rq - lam * block) @ m) ** 2, axis=(1, 2))
        eigen = max(eigen, float(np.sqrt(squares).max()))
        traces = np.abs(system.traces_with(rho_q))
        np.fill_diagonal(traces, 0.0)
        off_diagonal = max(off_diagonal, float(np.max(traces, initial=0.0)))
    out = [
        _result("eigen_operator_property", eigen, tol),
        _result("rho_top_annihilates_second_ideal", annihilated, trace_tol),
        _result("block_structure_off_diagonal_zero", off_diagonal, trace_tol),
    ]
    trace = float(d ** (p + 1))  # tr V^(k) = d^(2p-k), exact
    count = sum(group.size for group in spectra._matching_groups(p, d, p - 1))
    out.append(_result("twirl_trace_conservation", abs(count / spectra._orbit_size(p, p - 1) - trace), 1e-10))
    return out


def suite_bmatrix(p: int, d: int) -> list[CheckResult]:
    out = []
    b = B_matrix(Partition((2, 1)), Partition((2, 1)), 3)
    fixture_ok = (
        sorted(str(v) for row in b.entries for v in row) == sorted(["7/3", "-1/3", "-1/3", "1"])
        and abs(b.eigenvalues[0] - (5 - np.sqrt(5)) / 3) < 1e-12
        and abs(b.eigenvalues[1] - (5 + np.sqrt(5)) / 3) < 1e-12
        and b.det == Fraction(20, 9)
    )
    out.append(_bool_result("b_matrix_fixture_(2,1)_d3", fixture_ok))
    singular_expected = {
        (3, (1, 1, 1)): True,
        (4, (2, 1, 1)): True,
        (4, (2, 2)): False,
        (5, (2, 2, 1)): True,
        (5, (3, 1, 1)): True,
        (5, (3, 2)): False,
        (6, (2, 2, 2)): True,
        (6, (3, 2, 1)): True,
        (6, (4, 1, 1)): True,
        (6, (3, 3)): False,
        (6, (4, 2)): False,
        (6, (5, 1)): False,
        (6, (6,)): False,
    }
    ok = all(singularity_condition(Partition(mu), 3) == expect for (q, mu), expect in singular_expected.items())
    ok &= B_matrix(Partition((2, 2)), Partition((2, 2)), 3).det == Fraction(5, 16)
    ok &= B_matrix(Partition((3, 2)), Partition((3, 2)), 3).det == Fraction(75, 16)
    out.append(_bool_result("appendix_examples_d3", ok))
    ok = True
    for q in range(2, 7):
        for dd in (2, 3, 4):
            for mu in enumerate_partitions(q):
                if multiplicity(mu, dd) == 0:
                    bm = B_matrix(mu, mu, dd)
                    ok &= all(v == 0 for row in bm.entries for v in row)
                    continue
                bm = B_matrix(mu, mu, dd)
                ok &= (bm.det == 0) == singularity_condition(mu, dd)
    out.append(_bool_result("integer_condition_vs_determinant_p<=6", ok))
    ok = True
    for q in range(2, 7):
        for dd in (2, 3, 4):
            for mu in enumerate_partitions(q):
                m = multiplicity(mu, dd)
                if m == 0:
                    continue
                alphas = remove_box(mu)
                xs = [Fraction(dd * m, multiplicity(a, dd)) for a in alphas]
                k = len(xs)
                esp = [Fraction(0)] * (k + 1)
                esp[0] = Fraction(1)
                for x in xs:
                    for deg in range(k, 0, -1):
                        esp[deg] += x * esp[deg - 1]
                predicted = (esp[k] - esp[k - 1]) * Fraction(m, dd * (dd * dd - 1)) ** k
                bm = B_matrix(mu, mu, dd)
                ok &= bm.det == predicted
    out.append(_bool_result("determinant_symmetric_polynomial_identity", ok))
    return out


def suite_table1(p: int, d: int) -> list[CheckResult]:
    tol = spectra.BIN_TOL  # eigenvalues within the binning tolerance are one family
    out = []
    brute = {level: spectra.spectrum_table(p, d, level, "brute") for level in (p, p - 1)}
    for level, table in brute.items():
        analytic = spectra.spectrum_table(p, d, level, "analytic")
        out.append(
            _result(
                f"analytic_matches_brute_level_{level}",
                table.distance(analytic),
                tol,
                # 12 significant digits, as the CLI prints floats: the blocks move the last bits
                f"brute={[(float(f'{v:.12g}'), m) for v, m in table.merged()]}",
            )
        )
    if (p, d) == (3, 3):
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
            merged = brute[level].merged()
            ok = len(merged) == len(expected) and all(
                abs(v - ve) <= 1e-4 and m == me for (v, m), (ve, me) in zip(merged, expected)
            )
            out.append(_bool_result(f"printed_table_level_{level}", ok))
    return out


# Absolute bound on the Frobenius norm of a transformed generator that touches
# a kernel row of B.  Over the diagonal blocks up to (p,d) = (4,3) and at
# (5,2), the H generators have norm up to 25, and a unit-length kernel row,
# paired with itself or with a mode w~, leaves rounding noise below 7e-15.
DISCARD_ATOL = 1e-9


def suite_reduction(p: int, d: int) -> list[CheckResult]:
    """Reduce the H operators of every diagonal block (mu, mu) at (p, d) to units, and compose them, one weight sector at a time.

    With w_s a row of the B^{mu mu} pencil basis ``modes`` or of its
    ``kernel``, the transformed generator
    y_sr = sum over (alpha, alpha') of w_{s alpha} w_{r alpha'} H_{alpha alpha'}
    is the wall-factor pair W(w_s) D W(w_r)^T.  Every y that touches a
    kernel row must vanish, and y_sr / d over the modes must compose as
    matrix units.

    Each column of a wall factor lies in one weight sector, so y_sr is block
    diagonal over the sectors: each wall factor is formed one column at a
    time, each column written into its sector block W_s^k
    (``ideal_units._wall_pack``, which raises on an entry off them), so no
    factor of d^(2p) rows is formed.  One QR per sector of the stacked
    blocks, [W_1^k .. W_m^k] = Q^k [R_1^k .. R_m^k], gives every y_sr^k
    = Q^k (R_s^k D^k R_r^kT) Q^kT in the one orthonormal basis Q^k, so its
    core R_s^k D^k R_r^kT keeps the Frobenius norm, the cores compose as
    the blocks do, and the overlaps of ``_composition`` are identities.
    """
    tol = 1e-9
    _check_dim(d, 2 * p)  # before the layout, which labels all d^(2p) basis indices
    metric = _wall_diagonal(d)
    _, rows, cols, _ = _sector_layout(p, d, p - 1)
    zero_worst = worst = 0.0
    for mu in schur_weyl_partitions(p, d):
        bm = B_matrix(mu, mu, d)
        walls = np.stack([_wall_pack(mu, mu, 1, 1, w, p, d) for w in (*bm.modes, *bm.kernel)])
        m, k = len(walls), bm.rank
        squares, units = np.zeros((m, m)), []
        for block, c in zip(_sector_blocks(walls, rows, cols), cols):  # block: (m, n_k, c_k)
            r = np.linalg.qr(np.hstack(block), mode="r")
            r = r.reshape(len(r), m, c.size).transpose(1, 0, 2)  # [s]: R_s^k
            y = (r * metric[c])[:, None] @ r.transpose(0, 2, 1)  # [s, r]: R_s^k D^k R_r^kT
            squares += np.sum(y**2, axis=(2, 3))
            units.append(y[:k, :k] / d)
        squares[:k, :k] = 0.0  # the pairs of two modes are units, not discarded
        zero_worst = max(zero_worst, math.sqrt(squares.max(initial=0.0)))
        worst = max(worst, _composition(units, [np.broadcast_to(np.eye(u.shape[-1]), u.shape) for u in units]))
    ok = zero_worst <= DISCARD_ATOL
    detail = "" if ok else f"a zero-mode generator has norm {zero_worst:.3e}"
    return [_bool_result("reduction_keeps_rank", ok, detail), _result("reduced_units_composition", worst, tol)]


SUITES = {
    "partitions": suite_partitions,
    "representations": suite_representations,
    "tensorspace": suite_tensorspace,
    "matrix_units": suite_matrix_units,
    "coefficients": suite_coefficients,
    "composition": suite_composition,
    "generators": suite_generators,
    "eigenoperators": suite_eigenoperators,
    "bmatrix": suite_bmatrix,
    "reduction": suite_reduction,
    "table1": suite_table1,
}


NEEDS_SECOND_IDEAL = {"coefficients", "composition", "generators", "eigenoperators", "table1", "reduction"}


def run_suite(name: str, p: int, d: int) -> list[CheckResult]:
    second_ideal = has_second_ideal(p, d)
    if name == "all":
        if second_ideal:
            _check_dim(d, 2 * p)  # the bound of the second-ideal suites, before the desk-scale suites run
        results = []
        for key in SUITES:
            if key in NEEDS_SECOND_IDEAL and not second_ideal:
                continue
            results.extend(SUITES[key](p, d))
        return results
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if name in NEEDS_SECOND_IDEAL and not second_ideal:
        raise ParameterError(f"suite {name!r} needs the second ideal, defined for p >= 2 and d >= 2")
    return SUITES[name](p, d)
