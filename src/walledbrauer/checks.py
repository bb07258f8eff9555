"""Named verification suites driven by the command line front end.

Each suite returns a list of check results with the worst observed residual,
so the CLI can emit a machine-readable report and a pass/fail exit code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matrix_units as mx
from . import spectra
from .errors import ParameterError
from .ideal_units import (
    B_matrix,
    ab_general,
    decompose_Vpm1,
    has_second_ideal,
    singularity_condition,
    trace_with_V_sub,
    trace_with_V_top,
    unit_system,
    _wall_diagonal,
    _wall_factor,
)
from .lowrank import FactoredOperator
from .partitions import (
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
    restriction_block_check,
    transposition,
    young_orthogonal_rep,
)
from .tensorspace import (
    DenseOperator,
    V_generator,
    _apply_pair,
    _weight_sectors,
    embed_operator,
    factored_outer_pair,
    factored_V,
    permutation_operator,
    sandwich_reduce,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, residual <= tol, float(residual), tol, detail)


def _bool_result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, ok, 0.0 if ok else 1.0, 0.0, detail)


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
        mats = {s: young_orthogonal_rep(mu, s).matrix for s in group}
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
                    young_orthogonal_rep(alpha, s.inverse()).matrix,
                    young_orthogonal_rep(beta, s).matrix,
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
      column (X (x) 1) l formed by the gather ``_apply_pair(x, None, ...)``;
    * max|V^(p-1) V - V^(p)| = max|L^T V - phi l^T| and
      max|V^(p) V - d V^(p)| = max|l^T V - d l^T|, V on the outer pair,
      read as M M^T from its 0/1 factor (``factored_outer_pair``), so that
      (L^T M) M^T and (l^T M) M^T are thin products.
    """
    tol = 1e-10
    rng = np.random.default_rng(11)
    out = []
    worst = 0.0
    for dd in (2, 3, 4):
        x = rng.standard_normal((dd, dd))
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
        ops = [rng.standard_normal((dd, dd)) for _ in range(2 * pp)]
        a = np.kron(ops[0], ops[1])
        b = np.kron(ops[2], ops[3])
        lhs = DenseOperator(dd, 2 * pp, np.kron(a, b)) @ v
        core = np.kron(ops[0] @ ops[3].T, ops[1] @ ops[2].T)
        rhs = DenseOperator(dd, 2 * pp, np.kron(core, np.eye(dd**pp))) @ v
        worst = max(worst, lhs.distance(rhs))
    out.append(_result("generalized_ping_pong_p2_d2", worst, tol))
    worst = 0.0
    for pq, dq in ((2, 2), (2, 3), (3, 2), (3, 3)):
        x = rng.standard_normal((dq**pq, dq**pq))
        top = factored_V(pq, pq, dq)[:, 0]
        worst = max(worst, abs(float(top @ _apply_pair(x, None, pq, pq, dq)[:, 0]) - float(np.trace(x))))
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
            x = DenseOperator(dq, 2 * pq, rng.standard_normal((dq ** (2 * pq), dq ** (2 * pq))))
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
                mx.E_unit(mu, i, j, dq)
                for mu in enumerate_partitions(pq)
                for i in range(1, dim_irrep(mu) + 1)
                for j in range(1, dim_irrep(mu) + 1)
            ]
            for a in units:
                expected_tr = multiplicity(a.mu, dq) if a.i == a.j else 0
                worst = max(worst, abs(a.operator.trace() - expected_tr))
                for b in units:
                    prod = a.operator @ b.operator
                    if a.mu == b.mu and a.j == b.i:
                        expected = mx.E_unit(a.mu, a.i, b.j, dq).operator
                    else:
                        expected = DenseOperator.zeros(dq, pq)
                    worst = max(worst, prod.distance(expected))
    out.append(_result("unit_composition_and_trace_p<=3_d<=3", worst, tol))
    worst = 0.0
    for dq in (2, 3):
        for sigma in enumerate_group(3):
            acc = DenseOperator.zeros(dq, 3)
            for mu in enumerate_partitions(3):
                phi = young_orthogonal_rep(mu, sigma).matrix
                for i in range(1, dim_irrep(mu) + 1):
                    for j in range(1, dim_irrep(mu) + 1):
                        acc = acc + phi[i - 1, j - 1] * mx.E_unit(mu, i, j, dq).operator
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
                lhs = (mx.embed_left(mx.E_unit(mu, i, j, dq), pq) @ mx.embed_right(mx.E_unit(nu, k, l, dq), pq)) @ v
                if mu == nu and j == l:
                    rhs = mx.embed_left(mx.E_unit(mu, i, k, dq), pq) @ v
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

    One pass over the label pairs forms K = L^T X L without the dense X
    (``tensorspace.sandwich_reduce`` states why the core carries the whole
    identity): tr K and phi^T K phi, with phi = vec(1_d), are the traces of
    X against V^(p-1) and V^(p), and max|K - a phi phi^T - b 1| is the
    max-abs residual of V^(p-1) X V^(p-1) = a V^(p) + b V^(p-1).
    """
    tol = 1e-10
    L = factored_V(p, p - 1, d)
    phi = np.eye(d).ravel()
    shapes = schur_weyl_partitions(p, d)
    cores = {}  # (rm, cm, rn, cn) -> (K, exact (a, b))
    exact_ok = True
    trace_worst = 0.0
    for mu in shapes:
        for nu in shapes:
            # prir_map lists the basis indices of a shape in order, so index i is position i
            for (i, rm), (j, cm) in itertools.product(enumerate(prir_map(mu), 1), repeat=2):
                a_mat = mx.left_side_matrix(mu, i, j, d)
                for (k, rn), (l, cn) in itertools.product(enumerate(prir_map(nu), 1), repeat=2):
                    args = (mu, nu, (rm.alpha, rm.i_alpha), (cm.alpha, cm.i_alpha), (rn.alpha, rn.i_alpha), (cn.alpha, cn.i_alpha), d)
                    ab = ab_general(*args)
                    same = mu == nu and args[2] == args[4] and args[3] == args[5]
                    exact_ok &= ab.identity_value(d) == (Fraction(multiplicity(mu, d), d) if same else 0)
                    xl = _apply_pair(a_mat, mx.right_side_matrix(nu, k, l, d), p, p - 1, d)
                    core = L.T @ xl
                    # tr K summed as sum((X L) * L): the same terms, added pairwise
                    trace_worst = max(
                        trace_worst,
                        abs(float(phi @ core @ phi) - float(trace_with_V_top(*args))),
                        abs(float(np.sum(xl * L)) - float(trace_with_V_sub(*args))),
                    )
                    cores[rm, cm, rn, cn] = core, ab
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        mu = shapes[rng.integers(len(shapes))]
        nu = shapes[rng.integers(len(shapes))]
        pm_mu, pm_nu = prir_map(mu), prir_map(nu)
        key = (pm_mu[rng.integers(len(pm_mu))], pm_mu[rng.integers(len(pm_mu))])
        key += (pm_nu[rng.integers(len(pm_nu))], pm_nu[rng.integers(len(pm_nu))])
        core, ab = cores[key]
        res = np.max(np.abs(core - float(ab.a) * np.outer(phi, phi) - float(ab.b) * np.eye(d * d)))
        worst = max(worst, float(res))
    return [
        _bool_result("ad_plus_b_exact", exact_ok),
        _result("sandwich_decomposition_50_random", worst, tol),
        _result("trace_rules_exhaustive", trace_worst, tol),
    ]


def _composition_worst(system) -> float:
    """Worst Frobenius residual of G_ab G_b'c = delta_bb' G_ac over all unit pairs.

    On cores, G_ab G_b'c - delta G_ac = Q_a (M_ab X_bb' M_b'c - delta M_ac) Q_c^T
    with X_bb' = Q_b^T Q_b', and the orthonormal Q_a, Q_c keep the Frobenius
    norm.  Units have spectral norm 1, so the distance of each unit from its
    projection onto the bases enters the residual of a product at most three
    times (to first order); it is added on.
    """
    m, x = system.cores, system.overlaps
    worst = 0.0
    for a in range(system.size):
        for b in range(system.size):
            res = (m[a, b] @ x[b])[:, None] @ m  # [b', c]: M_ab X_bb' M_b'c
            res[b] -= m[a]
            worst = max(worst, float(np.sqrt(np.sum(res**2, axis=(2, 3))).max()))
    return worst + 3.0 * float(system.projection_residual.max(initial=0.0))


def suite_composition(p: int, d: int) -> list[CheckResult]:
    tol = 1e-9
    out = []
    for name, ideal in (("G_top", p), ("G_sub", p - 1)):
        system = unit_system(p, d, ideal)
        out.append(_result(f"{name}_all_pairs_{system.size ** 2}_units", _composition_worst(system), tol))
    return out


def suite_generators(p: int, d: int) -> list[CheckResult]:
    """V^(p) and V^(p-1) reassembled from the units of the two ideals, one weight sector at a time.

    V^(p) = l l^T is the sum of sqrt(m_mu m_nu) G_top over the diagonal labels
    (mu, i, i) and (nu, j, j).  Every basis Q_a of those labels, like l, lies
    in the weight-zero sector, so the sum is Q C Q^T on that sector's block
    (C the weighted 1 x 1 cores) and zero elsewhere; the residual is the
    largest block residual, or the largest entry of those bases outside the
    sector if that is larger (0 when the bases conserve the weight).
    ``ideal_units.decompose_Vpm1`` states the same argument for V^(p-1).
    """
    tol = 1e-9
    out = []
    top = unit_system(p, d, p)
    l = factored_V(p, p, d)[:, 0]
    sector = _weight_sectors(p, d)[0]
    zero = sector == sector[np.argmax(l)]
    diag = [a for a, (_, i, j) in enumerate(top.labels) if i == j]
    w = np.sqrt([multiplicity(top.labels[a][0], d) for a in diag])
    q = top.bases[diag, :, 0].T
    core = top.cores[np.ix_(diag, diag)][:, :, 0, 0] * np.outer(w, w)
    block = q[zero] @ core @ q[zero].T
    res = max(float(np.max(np.abs(block - np.outer(l[zero], l[zero])))), float(np.max(np.abs(q[~zero]), initial=0.0)))
    out.append(_result("V_top_from_units", res, tol))
    terms, residual = decompose_Vpm1(p, d)
    out.append(_result(f"V_sub_from_H_terms_{terms}_terms", residual, tol))
    return out


def suite_eigenoperators(p: int, d: int) -> list[CheckResult]:
    """The units as eigenoperators of rho(p-1) and rho(p), with each twirl applied matrix-free.

    ``spectra.rho_apply`` forms rho(k) Q for the thin basis arrays Q of the
    unit systems, so no d^(2p) x d^(2p) array is built.  The trace of
    rho(p-1) is the exact orbit count: the mean of |A_pi|, the number of
    diagonal 1s of V_pi, over the C(p,k)^2 k! matchings pi of the orbit,
    summed over those the enumerator yields.
    """
    trace_tol = 1e-10
    tol = 1e-9
    out = []
    analytic = {
        (rec.ideal, rec.mu, rec.nu, rec.interior): rec
        for rec in spectra.analytic_overlaps(p, d)
        if rec.rho_level == p - 1
    }
    top, sub = unit_system(p, d, p), unit_system(p, d, p - 1)
    moved = {system: spectra.rho_apply(p - 1, p, d, system.flat_bases()) for system in (top, sub)}  # rho(p-1) Q
    worst = 0.0
    for system, key in ((top, lambda r: (p, r[0], r[0], None)), (sub, lambda r: (p - 1, r[0], r[1], r[4]))):
        n, dim, r = system.bases.shape
        rho_q = moved[system].reshape(dim, n, r)
        for a, label in enumerate(system.labels):
            q = system.bases[a]
            lam = analytic[key(label)].eigenvalue
            # (rho - lambda) G_aa = (rho Q_a - lambda Q_a) M_aa Q_a^T
            worst = max(worst, float(np.linalg.norm((rho_q[:, a] - lam * q) @ system.cores[a, a])))
    out.append(_result("eigen_operator_property", worst, tol))
    worst = float(np.max(np.abs(sub.traces_with(spectra.rho_apply(p, p, d, sub.flat_bases()))), initial=0.0))
    out.append(_result("rho_top_annihilates_second_ideal", worst, trace_tol))
    worst = 0.0
    for system in (sub, top):
        traces = np.abs(system.traces_with(moved[system]))
        np.fill_diagonal(traces, 0.0)
        worst = max(worst, float(np.max(traces, initial=0.0)))
    out.append(_result("block_structure_off_diagonal_zero", worst, trace_tol))
    trace = float(factored_V(p, p - 1, d).sum())  # tr(L L^T) counts the 1s of the 0/1 factor
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
        and b.determinant() == Fraction(20, 9)
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
    ok &= B_matrix(Partition((2, 2)), Partition((2, 2)), 3).determinant() == Fraction(5, 16)
    ok &= B_matrix(Partition((3, 2)), Partition((3, 2)), 3).determinant() == Fraction(75, 16)
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
                ok &= (bm.determinant() == 0) == singularity_condition(mu, dd)
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
                ok &= bm.determinant() == predicted
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
# a zero mode.  Over the diagonal blocks up to (p,d) = (4,3), the H generators
# have norm up to 25, and a true zero mode leaves rounding noise below 4e-15.
DISCARD_ATOL = 1e-9


def suite_reduction(p: int, d: int) -> list[CheckResult]:
    """Reduce the H operators of every diagonal block (mu, mu) at (p, d) to units, and compose them.

    With w_s row s of the B^{mu mu} diagonalizer, the transformed generator
    y_sr = sum over (alpha, alpha') of w_{s alpha} w_{r alpha'} H_{alpha alpha'}
    is the wall-factor pair W(w_s) D W(w_r)^T.  Every y that touches a zero
    mode of B must vanish, and the kept y_sr / (d sqrt(lambda_s lambda_r))
    must compose as matrix units.
    """
    tol = 1e-9
    metric = _wall_diagonal(d)
    zero_worst = worst = 0.0
    for mu in schur_weyl_partitions(p, d):
        bm = B_matrix(mu, mu, d)
        walls = [_wall_factor(mu, mu, 1, 1, w, p, d) for w in bm.diagonalizer]
        lam = bm.eigenvalues
        units = {}
        for s, r in itertools.product(range(1, bm.size + 1), repeat=2):
            y = FactoredOperator(walls[s - 1] * metric, walls[r - 1].T).compress()
            if bm.is_zero_mode(s) or bm.is_zero_mode(r):
                zero_worst = max(zero_worst, y.frobenius_norm())
            else:
                units[s, r] = y * (1.0 / (d * math.sqrt(lam[s - 1] * lam[r - 1])))
        for (s, r), (s2, r2) in itertools.product(units, repeat=2):
            prod = units[s, r] @ units[s2, r2]
            worst = max(worst, prod.distance(units[s, r2]) if r == s2 else prod.frobenius_norm())
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
