"""Acceptance suite: every criterion at its stated tolerance, one line each."""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from walledbrauer.checks import suite_coefficients, suite_composition, suite_generators, suite_partitions
from walledbrauer.ideal_units import (
    B_matrix,
    G_sub,
    G_top,
    singularity_condition,
    sub_row_labels,
    top_row_labels,
)
from walledbrauer.partitions import (
    dim_irrep,
    enumerate_partitions,
    multiplicity,
    partition,
)
from walledbrauer.spectra import analytic_overlaps, spectrum_table
from walledbrauer.symgroup import (
    RESTRICTION_TOL,
    enumerate_group,
    restriction_block_check,
    transposition,
    young_orthogonal_rep,
)

from oracles import factored_trace, rho, run_cli, unit_operator


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


PRINTED_TABLE = {
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


def test_criterion_1_table_reproduction():
    start = time.time()
    ok = True
    for level, expected in PRINTED_TABLE.items():
        result = run_cli(
            ["--p", "3", "--d", "3", "spectrum", "--level", str(level), "--method", "brute"],
        )
        ok &= result.exit_code == 0
        merged = json.loads(result.output)["merged"]
        ok &= len(merged) == len(expected)
        ok &= all(
            abs(value - pv) <= 1e-4 and mult == pm
            for (value, mult), (pv, pm) in zip(merged, expected)
        )
        brute = spectrum_table(3, 3, level, "brute")
        analytic = spectrum_table(3, 3, level, "analytic")
        ok &= brute.distance(analytic) <= 1e-6
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report("criterion 1 (table reproduction, 2- and 3-pair levels)", ok, f"{elapsed:.1f}s")


APPENDIX_VERDICTS = {
    (3, (1, 1, 1)): True,
    (4, (2, 1, 1)): True,
    (4, (2, 2)): False,
    (4, (3, 1)): False,
    (4, (4,)): False,
    (5, (2, 2, 1)): True,
    (5, (3, 1, 1)): True,
    (5, (3, 2)): False,
    (5, (4, 1)): False,
    (5, (5,)): False,
    (6, (2, 2, 2)): True,
    (6, (3, 2, 1)): True,
    (6, (4, 1, 1)): True,
    (6, (3, 3)): False,
    (6, (4, 2)): False,
    (6, (5, 1)): False,
    (6, (6,)): False,
}


def test_criterion_2_bmatrix_fixtures():
    ok = True
    b = B_matrix(partition(2, 1), partition(2, 1), 3)
    ok &= b.entries == ((Fraction(7, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(1)))
    ok &= abs(b.eigenvalues[0] - (5 - np.sqrt(5)) / 3) <= 1e-12
    ok &= abs(b.eigenvalues[1] - (5 + np.sqrt(5)) / 3) <= 1e-12
    ok &= abs(float(b.det) - 2.2222) <= 1e-4
    for (q, parts), expected in APPENDIX_VERDICTS.items():
        mu = partition(*parts)
        ok &= singularity_condition(mu, 3) == expected
        ok &= B_matrix(mu, mu, 3).singular == expected
    ok &= B_matrix(partition(2, 2), partition(2, 2), 3).det == Fraction(5, 16)
    ok &= B_matrix(partition(3, 2), partition(3, 2), 3).det == Fraction(75, 16)
    # exact integer condition against the numeric determinant, every shape
    for q in range(2, 7):
        for d in (2, 3, 4):
            for mu in enumerate_partitions(q):
                bm = B_matrix(mu, mu, d)
                if multiplicity(mu, d) == 0:
                    ok &= all(v == 0 for row in bm.entries for v in row)
                    continue
                numeric_det = np.prod(bm.eigenvalues) if bm.size else 1.0
                exact_zero = bm.det == 0
                ok &= exact_zero == singularity_condition(mu, d)
                ok &= exact_zero == (abs(float(numeric_det)) <= 1e-10)
    report("criterion 2 (B-matrix fixtures and singularity verdicts)", ok)


def test_criterion_3_composition_suites():
    ok = True
    details = []
    for p, d in ((2, 2), (2, 3), (3, 3), (4, 3), (3, 5)):
        results = suite_composition(p, d)
        ok &= len(results) == 2 and all(r.passed and r.tolerance == 1e-9 for r in results)
        details.append(f"({p},{d}): " + ", ".join(f"{r.name} worst {r.residual:.2e}" for r in results))
    report("criterion 3 (unit composition suites)", ok, "; ".join(details))


def test_criterion_4_coefficient_identities():
    ok = True
    details = []
    for p, d in ((2, 2), (2, 3), (3, 3), (4, 3)):
        results = suite_coefficients(p, d)
        ok &= len(results) == 3 and all(r.passed for r in results)
        details.append(f"({p},{d}): " + ", ".join(f"{r.name} {r.residual:.2e}" for r in results))
    report("criterion 4 (coefficient identities)", ok, "; ".join(details))


def test_criterion_5_generator_decompositions():
    ok = True
    details = []
    for p, d in ((2, 2), (3, 3)):
        results = suite_generators(p, d)
        ok &= len(results) == 2 and all(r.passed and r.tolerance == 1e-9 for r in results)
        details.append(f"({p},{d}): " + ", ".join(f"{r.name} {r.residual:.2e}" for r in results))
    report("criterion 5 (generator decompositions)", ok, "; ".join(details))


def test_criterion_6_eigen_operator_property():
    p, d = 3, 3
    rho_sub = rho(p - 1, p, d).matrix
    rho_top = rho(p, p, d).matrix
    analytic = {(r.ideal, r.mu, r.nu, r.interior): r.value for r in analytic_overlaps(p, d, p - 1)}
    worst = 0.0
    for (mu, i, j) in top_row_labels(p, d):
        unit = G_top(mu, i, j, mu, i, j, p, d)
        lam = analytic[(p, mu, mu, None)]
        worst = max(worst, (unit_operator(unit, rho_sub) - lam * unit_operator(unit)).frobenius_norm())
    for (mu, nu, i, j, beta) in sub_row_labels(p, d):
        unit = G_sub(mu, nu, mu, nu, i, j, i, j, beta, beta, p, d)
        lam = analytic[(p - 1, mu, nu, beta)]
        worst = max(worst, (unit_operator(unit, rho_sub) - lam * unit_operator(unit)).frobenius_norm())
    ok = worst <= 1e-9
    trace_worst = 0.0
    srows = sub_row_labels(p, d)
    for row in srows:
        for col in srows:
            unit = G_sub(row[0], row[1], col[0], col[1], row[2], row[3], col[2], col[3], row[4], col[4], p, d)
            trace_worst = max(trace_worst, abs(factored_trace(unit_operator(unit, rho_top))))
    ok &= trace_worst <= 1e-10
    report(
        "criterion 6 (eigen-operator property)",
        ok,
        f"residual {worst:.2e}, top-level traces {trace_worst:.2e}",
    )


def test_criterion_7_combinatorial_oracles():
    results = suite_partitions(3, 3)
    ok = len(results) == 4 and all(r.passed for r in results)
    report("criterion 7 (combinatorial oracles)", ok, ", ".join(r.name for r in results))


def test_criterion_8_representation_suite():
    worst = 0.0
    for p in range(2, 5):
        group = enumerate_group(p)
        for mu in enumerate_partitions(p):
            mats = {s: young_orthogonal_rep(mu, s) for s in group}
            n = dim_irrep(mu)
            for m in mats.values():
                worst = max(worst, float(np.max(np.abs(m.T @ m - np.eye(n)))))
            for s, t in itertools.product(group, repeat=2):
                worst = max(worst, float(np.max(np.abs(mats[s] @ mats[t] - mats[s * t]))))
    ok = worst <= 1e-12
    adapted = RESTRICTION_TOL <= 1e-12
    for p in range(2, 5):
        gens = [transposition(p, k, k + 1) for k in range(1, p - 1)]
        for mu in enumerate_partitions(p):
            for g in gens:
                adapted &= restriction_block_check(mu, g)
    ok &= adapted
    report("criterion 8 (representation suite)", ok, f"worst {worst:.2e}")


def test_verify_command_runs_whole_suite():
    result = run_cli(["--p", "2", "--d", "2", "verify", "--suite", "all"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    report("CLI verify --suite all at (2,2)", doc["passed"])


CHECK_NAMES_2_3 = [
    "hook_length_vs_tableau_count_p<=6",
    "hook_content_vs_semistandard_count_p<=5_d<=4",
    "schur_weyl_dimension_sum_p<=5_d<=4",
    "add_remove_box_inverse_p<=5",
    "orthogonality_S2",
    "homomorphism_S2",
    "orthogonality_relation_S2",
    "subgroup_adaptation_p<=5",
    "ping_pong_d<=4",
    "generalized_ping_pong_p2_d2",
    "sandwich_fact_p<=3",
    "generator_products",
    "sandwich_reduce_identity",
    "unit_composition_and_trace_p<=3_d<=3",
    "permutation_resolution_S3",
    "projector_completeness",
    "wall_embedding_identity_p2_d2",
    "branching_and_partial_trace_forms",
    "ad_plus_b_exact",
    "sandwich_decomposition_50_random",
    "trace_rules_exhaustive",
    "G_top_all_pairs_4_units",
    "G_sub_all_pairs_16_units",
    "V_top_from_units",
    "V_sub_from_H_terms_20_terms",
    "eigen_operator_property",
    "rho_top_annihilates_second_ideal",
    "block_structure_off_diagonal_zero",
    "twirl_trace_conservation",
    "b_matrix_fixture_(2,1)_d3",
    "appendix_examples_d3",
    "integer_condition_vs_determinant_p<=6",
    "determinant_symmetric_polynomial_identity",
    "reduction_keeps_rank",
    "reduced_units_composition",
    "analytic_matches_brute_level_2",
    "analytic_matches_brute_level_1",
]
RENAMED_AT_3_3 = {
    "orthogonality_S2": "orthogonality_S3",
    "homomorphism_S2": "homomorphism_S3",
    "orthogonality_relation_S2": "orthogonality_relation_S3",
    "G_top_all_pairs_4_units": "G_top_all_pairs_36_units",
    "G_sub_all_pairs_16_units": "G_sub_all_pairs_289_units",
    "V_sub_from_H_terms_20_terms": "V_sub_from_H_terms_80_terms",
    "analytic_matches_brute_level_2": "analytic_matches_brute_level_3",
    "analytic_matches_brute_level_1": "analytic_matches_brute_level_2",
}
CHECK_NAMES_3_3 = [RENAMED_AT_3_3.get(n, n) for n in CHECK_NAMES_2_3] + [
    "printed_table_level_3",
    "printed_table_level_2",
]


def test_verify_check_names_at_2_3():
    result = run_cli(["--p", "2", "--d", "3", "verify", "--suite", "all"])
    assert result.exit_code == 0
    assert [c["name"] for c in json.loads(result.output)["checks"]] == CHECK_NAMES_2_3


def test_verify_all_suites_at_desk_scale():
    result = run_cli(["--p", "3", "--d", "3", "verify", "--suite", "all"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [c["name"] for c in doc["checks"]] == CHECK_NAMES_3_3
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    report("CLI verify --suite all at (3,3)", doc["passed"], f"{len(doc['checks'])} checks" + (f"; failed: {failed}" if failed else ""))


def test_verify_all_suites_at_4_3():
    """The first configuration with a nonsingular B of size 2 whose T does not commute with it.

    The units and the spectra read one interior basis, the generalized
    eigenvectors of (T, B), so the units are eigenoperators of rho(3) and
    the analytic level-3 spectrum is the brute one.
    """
    result = run_cli(["--p", "4", "--d", "3", "verify", "--suite", "all"])
    assert result.exit_code == 0, result.stderr
    checks = {c["name"]: c for c in json.loads(result.output)["checks"]}
    for name in ("eigen_operator_property", "block_structure_off_diagonal_zero", "analytic_matches_brute_level_3"):
        assert checks[name]["passed"], checks[name]
    assert all(c["passed"] for c in checks.values())
    report("CLI verify --suite all at (4,3)", True, f"{len(checks)} checks")
