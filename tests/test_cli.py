import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from walledbrauer.checks import NEEDS_SECOND_IDEAL, SUITES
from walledbrauer.cli import MAX_DUMP_ENTRIES, _check_dump, f12
from walledbrauer.ideal_units import GUnit, unit_system

from oracles import run_cli as run


def test_dims_fixture_p3_d3():
    result = run(["--p", "3", "--d", "3", "dims"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    by_shape = {tuple(r["partition"]): r for r in doc["shapes"]}
    assert by_shape[(3,)]["multiplicity"] == 10 and by_shape[(3,)]["dim"] == 1
    assert by_shape[(2, 1)]["multiplicity"] == 8 and by_shape[(2, 1)]["dim"] == 2
    assert by_shape[(1, 1, 1)]["multiplicity"] == 1 and by_shape[(1, 1, 1)]["dim"] == 1
    assert doc["sum_matches"] is True


def test_dims_vanishing_rows_p4_d2():
    doc = json.loads(run(["--p", "4", "--d", "2", "dims"]).output)
    by_shape = {tuple(r["partition"]): r for r in doc["shapes"]}
    assert by_shape[(2, 1, 1)]["multiplicity"] == 0
    assert by_shape[(1, 1, 1, 1)]["multiplicity"] == 0


def test_dims_single_row():
    doc = json.loads(run(["--p", "1", "--d", "5", "dims"]).output)
    assert doc["shapes"] == [{"dim": 1, "height": 1, "multiplicity": 5, "partition": [1]}]


def test_bmatrix_fixture():
    doc = json.loads(run(["--p", "3", "--d", "3", "bmatrix", "--mu", "2,1"]).output)
    assert doc["entries"] == [["7/3", "-1/3"], ["-1/3", "1"]]
    assert abs(doc["eigenvalues"][0] - 0.921310674167) < 1e-9
    assert abs(doc["eigenvalues"][1] - 2.41202265917) < 1e-9
    assert doc["determinant"] == "20/9"
    assert doc["singular"] is False


def test_bmatrix_singular_p6():
    doc = json.loads(run(["--p", "6", "--d", "3", "bmatrix", "--mu", "3,2,1"]).output)
    assert doc["singular"] is True and doc["integer_condition"] is True


def test_bmatrix_det_p4():
    doc = json.loads(run(["--p", "4", "--d", "3", "bmatrix", "--mu", "2,2"]).output)
    assert doc["determinant"] == "5/16"


def test_bmatrix_without_a_common_removal_is_empty():
    """(3) and (1,1,1) share no one-box removal: B is 0 x 0, with determinant 1 and an empty basis."""
    result = run(["--p", "3", "--d", "3", "bmatrix", "--mu", "3", "--nu", "1,1,1"])
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.output)
    assert doc["alphas"] == doc["entries"] == doc["eigenvalues"] == doc["diagonalizer"] == []
    assert (doc["determinant"], doc["nullity"], doc["singular"]) == ("1", 0, False)


def test_bmatrix_wrong_size_is_usage_error():
    result = run(["--p", "3", "--d", "3", "bmatrix", "--mu", "2,2"])
    assert result.exit_code == 2


def test_spectrum_methods_agree_p2():
    brute = json.loads(run(["--p", "2", "--d", "2", "spectrum", "--level", "1", "--method", "brute"]).output)
    analytic = json.loads(run(["--p", "2", "--d", "2", "spectrum", "--level", "1"]).output)
    assert brute["merged"] == analytic["merged"]
    assert brute["kernel_dim"] == analytic["kernel_dim"] == 5


def test_spectrum_csv_format():
    result = run(["--p", "2", "--d", "2", "--format", "csv", "spectrum", "--level", "1", "--method", "brute"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "value,multiplicity"
    assert lines[1:] == ["0.500000,7", "1.000000,3", "1.500000,1"]


def test_spectrum_fig_layout():
    result = run(["--p", "2", "--d", "2", "spectrum", "--fig7"])
    assert result.exit_code == 0
    assert "block layout" in result.output
    assert "off-diagonal blocks" in result.output


FIG7_TEXT = {
    (3, 3, 3): """\
block layout of the twirled generator, level 3, p=3, d=3
  ideal 3 (rank-one units):
    [(3) x (3)]  1 diagonal units   eigenvalue 10.0000 x1
    [(2,1) x (2,1)]  4 diagonal units   eigenvalue 4.0000 x4
    [(1,1,1) x (1,1,1)]  1 diagonal units   eigenvalue 1.0000 x1
  off-diagonal blocks between different label pairs vanish
""",
    (3, 3, 2): """\
block layout of the twirled generator, level 2, p=3, d=3
  ideal 3 (rank-one units):
    [(3) x (3)]  1 diagonal units   eigenvalue 3.3333 x1
    [(2,1) x (2,1)]  4 diagonal units   eigenvalue 1.3333 x4
    [(1,1,1) x (1,1,1)]  1 diagonal units   eigenvalue 0.3333 x1
  ideal 2 (units of trace 8):
    [(3) x (3)] interior mode 1  1 diagonal units   eigenvalue 1.6667 x8
    [(3) x (2,1)] interior mode 1  2 diagonal units   eigenvalue 0.8333 x16
    [(2,1) x (3)] interior mode 1  2 diagonal units   eigenvalue 0.8333 x16
    [(2,1) x (2,1)] interior mode 1  4 diagonal units   eigenvalue 0.2303 x32
    [(2,1) x (2,1)] interior mode 2  4 diagonal units   eigenvalue 0.6030 x32
    [(2,1) x (1,1,1)] interior mode 1  2 diagonal units   eigenvalue 0.1667 x16
    [(1,1,1) x (2,1)] interior mode 1  2 diagonal units   eigenvalue 0.1667 x16
  off-diagonal blocks between different label pairs vanish
""",
    (4, 3, 3): """\
block layout of the twirled generator, level 3, p=4, d=3
  ideal 4 (rank-one units):
    [(4) x (4)]  1 diagonal units   eigenvalue 5.0000 x1
    [(3,1) x (3,1)]  9 diagonal units   eigenvalue 1.6667 x9
    [(2,2) x (2,2)]  4 diagonal units   eigenvalue 1.0000 x4
    [(2,1,1) x (2,1,1)]  9 diagonal units   eigenvalue 0.3333 x9
  ideal 3 (units of trace 8):
    [(4) x (4)] interior mode 1  1 diagonal units   eigenvalue 2.1875 x8
    [(4) x (3,1)] interior mode 1  3 diagonal units   eigenvalue 0.9375 x24
    [(3,1) x (4)] interior mode 1  3 diagonal units   eigenvalue 0.9375 x24
    [(3,1) x (3,1)] interior mode 1  9 diagonal units   eigenvalue 0.2202 x72
    [(3,1) x (3,1)] interior mode 2  9 diagonal units   eigenvalue 0.6652 x72
    [(3,1) x (2,2)] interior mode 1  6 diagonal units   eigenvalue 0.4688 x48
    [(3,1) x (2,1,1)] interior mode 1  9 diagonal units   eigenvalue 0.1562 x72
    [(2,2) x (3,1)] interior mode 1  6 diagonal units   eigenvalue 0.4688 x48
    [(2,2) x (2,2)] interior mode 1  4 diagonal units   eigenvalue 0.1562 x32
    [(2,2) x (2,1,1)] interior mode 1  6 diagonal units   eigenvalue 0.0938 x48
    [(2,1,1) x (3,1)] interior mode 1  9 diagonal units   eigenvalue 0.1562 x72
    [(2,1,1) x (2,2)] interior mode 1  6 diagonal units   eigenvalue 0.0938 x48
    [(2,1,1) x (2,1,1)] interior mode 1  9 diagonal units   eigenvalue 0.1146 x72
  off-diagonal blocks between different label pairs vanish
""",
}


@pytest.mark.parametrize("p,d,level", sorted(FIG7_TEXT))
def test_spectrum_fig7_text_is_pinned(p, d, level):
    """The whole --fig7 layout, every family line, precedes the unchanged JSON document."""
    result = run(["--p", str(p), "--d", str(d), "spectrum", "--level", str(level), "--fig7"])
    assert result.exit_code == 0
    text = FIG7_TEXT[p, d, level]
    assert result.output.startswith(text)
    plain = run(["--p", str(p), "--d", str(d), "spectrum", "--level", str(level)])
    assert result.output[len(text):] == plain.output


def test_spectrum_analytic_level_guard():
    result = run(["--p", "3", "--d", "3", "spectrum", "--level", "1"])
    assert result.exit_code == 2


def test_undefined_parameters_are_usage_errors():
    # the second ideal's coefficients divide by d(d^2-1); the analytic spectrum and the
    # second-ideal suites need p >= 2; a suite name must exist
    for args in (
        ["--p", "2", "--d", "1", "bmatrix", "--mu", "2"],
        ["--p", "1", "--d", "2", "spectrum"],
        ["--p", "1", "--d", "2", "verify", "--suite", "composition"],
        ["--p", "2", "--d", "2", "verify", "--suite", "nosuch"],
        ["--p", "2", "--d", "1", "verify", "--suite", "generators"],
        ["--p", "2", "--d", "1", "verify", "--suite", "composition"],
    ):
        result = run(args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        assert len(result.stderr.strip().splitlines()) == 1 and "Traceback" not in result.stderr
    # 'all' leaves out the suites of an undefined second ideal, at d = 1 as at p = 1
    result = run(["--p", "2", "--d", "1", "verify"])
    assert result.exit_code == 0 and result.stderr == ""
    names = [c["name"] for c in json.loads(result.output)["checks"]]
    assert names == [r.name for key in SUITES if key not in NEEDS_SECOND_IDEAL for r in SUITES[key](2, 1)]


def test_resource_guard_exit_code():
    result = run(["--p", "5", "--d", "4", "spectrum", "--method", "brute"])
    assert result.exit_code == 3


def test_reduction_keeps_the_hilbert_guard():
    # the wall factors are formed column by column, so the d^(2p) <= 2^14 guard is
    # checked where they are formed: (3,6), at 46 656, is refused before any column
    result = run(["--p", "3", "--d", "6", "verify", "--suite", "reduction"])
    assert result.exit_code == 3 and result.stdout == ""
    assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1


def test_verify_all_refuses_before_the_desk_scale_suites(monkeypatch):
    # projector_completeness builds dense S_3 units at the full d: 281 MiB at (3,12) before the refusal
    def unbuilt(*args):
        raise AssertionError("a dense S_p unit was built before the d^(2p) bound was checked")

    monkeypatch.setattr("walledbrauer.matrix_units.young_projector", unbuilt)
    result = run(["--p", "3", "--d", "12", "verify"])
    assert result.exit_code == 3 and result.stdout == ""
    assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1


def test_twirl_guard_exit_code():
    # the orbit of 35 280 matchings of V^(6) would scatter 5.8e8 entries
    result = run(["--p", "7", "--d", "2", "spectrum", "--method", "brute"])
    assert result.exit_code == 3
    assert result.stdout == "" and len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("p,d", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_verify_sweep_keeps_the_cli_contract(p, d):
    result = run(["--p", str(p), "--d", str(d), "verify"])
    assert result.exit_code in (0, 2)
    assert len(result.stderr.strip().splitlines()) <= 1 and "Traceback" not in result.stderr


# past the twirl's work bound at (7,2) and (5,4), and the block bound at (5,3);
# past the shape bounds of dims (966 467 partitions of 60) and of the analytic
# spectra (5 604 shapes at (30,30)); S_40 at d = 1, whose 80 registers
# numpy's unravel_index could not take; and units past d^(2p) <= 2^14, whose
# labels at (20,6) alone would number above 6e16
GUARD_CASES = (
    ["--p", "7", "--d", "2", "spectrum", "--method", "brute"],
    ["--p", "5", "--d", "3", "spectrum", "--method", "brute"],
    ["--p", "5", "--d", "4", "spectrum", "--method", "brute"],
    ["--p", "60", "--d", "2", "dims"],
    ["--p", "30", "--d", "30", "spectrum"],
    ["--p", "40", "--d", "1", "units"],
    ["--p", "20", "--d", "6", "units"],
    ["--p", "2000", "--d", "2", "spectrum"],
    ["--p", "100000", "--d", "1", "spectrum", "--level", "100000"],
    ["--p", "100000", "--d", "2", "bmatrix", "--mu", "99999,1"],
)
NONPOSITIVE_CASES = (["--p", "0", "--d", "2", "dims"], ["--p", "2", "--d", "0", "units"])


@pytest.mark.parametrize("args", GUARD_CASES, ids=" ".join)
def test_guard_cases_are_refused_in_one_line(args):
    result = run(args)
    assert result.exit_code == 3 and result.stdout == "", args
    assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1, result.stderr


@st.composite
def desk_command(draw):
    p, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    command = draw(st.sampled_from(["dims", "bmatrix", "units", "spectrum", "verify"]))
    args = ["--p", str(p), "--d", str(d), command]
    if command == "bmatrix":
        args += ["--mu", ",".join(map(str, draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))))]
    elif command == "spectrum":
        args += ["--method", draw(st.sampled_from(["analytic", "brute"])), "--level", str(draw(st.integers(0, p)))]
    elif command == "verify":
        args += ["--suite", draw(st.sampled_from([*SUITES, "all"]))]
    return args


@st.composite
def malformed_command(draw):
    """Malformed tokens: bad values, unknown options or commands, missing ones; each a usage error.

    Option prefixes and ``-h`` are unknown options: only the full names and ``--help`` are accepted.
    """
    bad = draw(st.sampled_from(["abc", "1.5", "", "0x3", "-1"]))
    return draw(
        st.sampled_from(
            [
                ["--p", bad, "dims"],
                ["--d", bad, "units"],
                ["spectrum", "--level", bad],
                ["--tol", "1e-3", "verify"],
                ["--bogus", "dims"],
                ["dims", "--bogus"],
                ["nosuch"],
                ["bmatrix"],
                ["--format", "xml", "dims"],
                ["spectrum", "--method", "exact"],
                ["spectrum", "--lev", "2"],
                ["--form", "csv", "dims"],
                ["-h"],
                [],
            ]
        )
    )


@settings(derandomize=True, deadline=None)
@given(
    case=st.one_of(
        desk_command().map(lambda args: (args, None)),
        st.sampled_from(GUARD_CASES).map(lambda args: (args, 3)),
        st.sampled_from(NONPOSITIVE_CASES).map(lambda args: (args, 2)),
        malformed_command().map(lambda args: (args, 2)),
    )
)
def test_cli_contract_holds_on_drawn_commands(case):
    args, expected = case
    result = run(args)
    # run_cli turns an escaping exception into exit code 1 and keeps it here
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert result.exit_code in (0, 1, 2, 3), args
    assert "Traceback" not in result.stderr
    if result.exit_code != 0:
        assert len(result.stderr.strip().splitlines()) == 1, args
    if expected is not None:
        assert result.exit_code == expected, args
        assert result.stdout == "", args
    if expected == 2:
        assert result.stderr.startswith("usage error: "), args


@pytest.mark.parametrize(
    "args,named",
    [
        (["--tol", "1e-3", "verify"], "--tol"),
        (["--form", "csv", "dims"], "--form"),
        (["--p", "2", "--d", "2", "--tol", "verify"], "--tol"),
        (["--p", "2", "-x", "1", "dims"], "-x"),
        (["--a", "--b", "x", "dims"], "--a --b"),
    ],
)
def test_unknown_option_before_the_command_is_named(args, named):
    """The refusal names the unknown option, not the token after it that argparse would read as the command."""
    result = run(args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"usage error: unrecognized arguments: {named}\n"


@pytest.mark.parametrize(
    "fmt,command",
    [
        ("mm", ["dims"]),
        ("mm", ["spectrum"]),
        ("mm", ["spectrum", "--method", "brute", "--level", "1"]),
        ("mm", ["units"]),
        ("csv", ["verify", "--suite", "partitions"]),
        ("mm", ["verify", "--suite", "partitions"]),
    ],
    ids=" ".join,
)
def test_a_format_the_command_does_not_print_is_refused(fmt, command):
    """Each command prints only the formats of ``cli.FORMATS``; any other request is one usage error, before any work."""
    result = run(["--p", "2", "--d", "2", "--format", fmt, *command])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith("usage error: ") and len(result.stderr.splitlines()) == 1
    assert f"not --format {fmt}" in result.stderr


def test_every_format_the_table_offers_is_printed():
    from walledbrauer.cli import FORMATS

    commands = {
        "dims": ["dims"],
        "bmatrix": ["bmatrix", "--mu", "1,1"],
        "spectrum": ["spectrum"],
        "units": ["units"],
        "units --dump": ["units", "--dump"],
        "verify": ["verify", "--suite", "partitions"],
    }
    assert set(commands) == set(FORMATS)
    for name, fmts in FORMATS.items():
        for fmt in fmts:
            result = run(["--p", "2", "--d", "2", "--format", fmt, *commands[name]])
            assert result.exit_code == 0, (name, fmt)
            first = result.stdout.splitlines()[0]
            if fmt == "json":
                json.loads(result.stdout)
            elif fmt == "mm":
                assert first == "%%MatrixMarket matrix coordinate real general", (name, fmt)
            else:
                assert "," in first and not first.startswith("{"), (name, fmt)


def test_global_options_take_attached_values():
    result = run(["--p=2", "--d=2", "--format=csv", "dims"])
    assert result.exit_code == 0 and result.output == run(["--p", "2", "--d", "2", "--format", "csv", "dims"]).output


def test_help_goes_to_stdout_with_exit_0():
    for args in (["--help"], *([command, "--help"] for command in ("dims", "bmatrix", "units", "spectrum", "verify"))):
        result = run(args)
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("Usage: ")


def test_bare_call_is_missing_command():
    result = run([])
    assert result.exit_code == 2 and result.stdout == "" and result.stderr == "usage error: Missing command.\n"


def test_interrupt_keeps_aborted_and_exit_1(monkeypatch):
    def interrupted(p):
        raise KeyboardInterrupt

    monkeypatch.setattr("walledbrauer.cli.enumerate_partitions", interrupted)
    result = run(["dims"])
    assert result.exit_code == 1
    assert result.stderr.strip() == "Aborted!"


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (1, 2), (1, 3)])
def test_without_second_ideal_d1_behaves_as_p1(p, d):
    """d = 1 (p >= 2) and p = 1 lack the same ideal, and the CLI treats them alike."""
    g = ["--p", str(p), "--d", str(d)]
    units = json.loads(run(g + ["units"]).output)["units"]
    assert len(units) == 1 and units[0]["ideal"] == p and units[0]["trace"] == 1.0
    sub = run(g + ["units", "--ideal", "sub"])
    assert sub.exit_code == 0 and json.loads(sub.output)["units"] == []
    analytic = run(g + ["spectrum", "--level", str(p), "--fig7"])
    assert analytic.exit_code == 0 and analytic.output.startswith("block layout")
    brute = json.loads(run(g + ["spectrum", "--level", str(p), "--method", "brute"]).output)
    analytic_doc = json.loads(analytic.output.strip().splitlines()[-1])
    assert analytic_doc["merged"] == brute["merged"] and analytic_doc["kernel_dim"] == brute["kernel_dim"]
    refused = run(g + ["spectrum", "--level", str(p - 1)])
    assert refused.exit_code == 2 and refused.stdout == ""
    assert len(refused.stderr.splitlines()) == 1 and refused.stderr.startswith("usage error: ")


def test_units_listing_and_mm_dump():
    doc = json.loads(run(["--p", "2", "--d", "2", "units"]).output)
    assert len(doc["units"]) == 13  # 4 top + 9 second-ideal units
    top = [u for u in doc["units"] if u["ideal"] == 2]
    assert len(top) == 4
    result = run(["--p", "1", "--d", "2", "--format", "mm", "units", "--dump"])
    assert result.output.startswith("%%MatrixMarket matrix coordinate real general")
    body = [l for l in result.output.splitlines() if l and not l.startswith("%")]
    rows, cols, nnz = map(int, body[0].split())
    assert (rows, cols, nnz) == (4, 4, 4)


@pytest.mark.parametrize("p,d,ideal", [(2, 2, "both"), (2, 3, "top"), (1, 2, "sub")])
def test_units_json_dump_prints_the_bytes_of_one_document(p, d, ideal):
    g = ["--p", str(p), "--d", str(d)]
    doc = json.loads(run(g + ["units", "--ideal", ideal]).output)
    ideals = {"both": [p, p - 1], "top": [p], "sub": [p - 1]}[ideal]
    units = [GUnit(s, a, c) for s in (unit_system(p, d, k) for k in ideals) for a in range(s.size) for c in range(s.size)]
    assert len(units) == len(doc["units"])
    for rec, u in zip(doc["units"], units):
        rec["operator"] = [[f12(v) for v in row] for row in u.to_dense()]
    assert run(g + ["units", "--ideal", ideal, "--dump"]).output == json.dumps(doc, sort_keys=True) + "\n"


def test_units_csv_dump_builds_no_operator(monkeypatch):
    """The csv listing ignores --dump, so no dump guard refuses it: (3,3) would dump 1.7e8 entries."""

    def dense(self):
        raise AssertionError("the csv listing prints no operator")

    for g in (["--p", "2", "--d", "2"], ["--p", "3", "--d", "3"]):
        plain = run(g + ["--format", "csv", "units"]).output
        with monkeypatch.context() as patch:
            patch.setattr(GUnit, "to_dense", dense)
            result = run(g + ["--format", "csv", "units", "--dump"])
        assert result.exit_code == 0 and result.output == plain, g


def test_units_dump_guard(monkeypatch):
    # the five admitted dumps print at most 1.3e6 entries; the refused ones run against a
    # stub, so a guard that fails to refuse cannot build a dump of 1.7e8 entries here
    for p, d in ((1, 2), (2, 2), (2, 3), (3, 2), (2, 4)):
        _check_dump(p, d, [p, p - 1])

    def unbuilt(*args):
        raise AssertionError("a unit system was built before the dump was refused")

    monkeypatch.setattr("walledbrauer.ideal_units.unit_system", unbuilt)
    for args in (["--p", "3", "--d", "3", "units", "--dump"], ["--p", "2", "--d", "5", "--format", "mm", "units", "--dump"]):
        result = run(args)
        assert result.exit_code == 3 and result.stdout == "", args
        assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1
        assert str(MAX_DUMP_ENTRIES) in result.stderr


def test_units_dump_refuses_before_it_lists_labels(monkeypatch):
    """One unit at (14,2) prints 2^56 entries, so the dump is refused without listing a label; a dump of no unit is printed."""

    def unlisted(*args):
        raise AssertionError("the labels were listed before the dump was refused")

    with monkeypatch.context() as patch:
        patch.setattr("walledbrauer.ideal_units.top_row_labels", unlisted)
        patch.setattr("walledbrauer.ideal_units.sub_row_labels", unlisted)
        start = time.perf_counter()
        result = run(["--p", "14", "--d", "2", "units", "--dump"])
        assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3 and result.stdout == ""
    assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1
    empty = run(["--p", "1", "--d", "40", "units", "--dump", "--ideal", "sub"])
    assert empty.exit_code == 0 and json.loads(empty.output)["units"] == []


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3)])
def test_units_off_diagonal_traces_are_exact_zeros(p, d):
    """tr G_ac = delta_ac tr G_aa: every off-diagonal unit prints 0.0, and 0.000000 in csv, never rounding noise."""
    g = ["--p", str(p), "--d", str(d)]
    units = json.loads(run(g + ["units"]).output)["units"]
    lines = run(g + ["--format", "csv", "units"]).output.splitlines()[1:]
    assert len(lines) == len(units)
    off = 0
    for u, line in zip(units, lines):
        diagonal = u["labels"][: len(u["labels"]) // 2] == u["labels"][len(u["labels"]) // 2 :]
        diagonal &= u["indices"][:2] == u["indices"][2:] and (u["interior"] is None or u["interior"][0] == u["interior"][1])
        if not diagonal:
            off += 1
            assert u["trace"] == 0.0 and line.endswith(",0.000000"), (u, line)
    assert off > 0


def test_eigenoperators_refuse_before_the_analytic_families(monkeypatch):
    def unformed(*args):
        raise AssertionError("the analytic families were formed before the d^(2p) bound was checked")

    monkeypatch.setattr("walledbrauer.spectra.analytic_overlaps", unformed)
    result = run(["--p", "20", "--d", "6", "verify", "--suite", "eigenoperators"])
    assert result.exit_code == 3 and result.stdout == ""
    assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1


def test_readme_examples_run():
    """Every line of the README's command-line block, its comment stripped, exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, flags=re.S) if b.startswith("walledbrauer ")]
    lines = block.splitlines()
    assert len(lines) == 7
    for line in lines:
        program, *args = shlex.split(line, comments=True)
        result = run(args)
        assert program == "walledbrauer" and result.exit_code == 0, (line, result.stderr)


def test_verify_pass_and_exit_codes():
    result = run(["--p", "2", "--d", "2", "verify", "--suite", "composition"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"] is True and all(c["passed"] for c in doc["checks"])
    result = run(["--p", "2", "--d", "2", "verify", "--suite", "nonsense"])
    assert result.exit_code == 2


def test_verify_table1_small():
    result = run(["--p", "2", "--d", "3", "verify", "--suite", "table1"])
    assert result.exit_code == 0


def test_json_output_is_deterministic():
    a = run(["--p", "2", "--d", "3", "bmatrix", "--mu", "2"]).output
    b = run(["--p", "2", "--d", "3", "bmatrix", "--mu", "2"]).output
    assert a == b
    a = run(["--p", "2", "--d", "2", "spectrum", "--level", "1"]).output
    b = run(["--p", "2", "--d", "2", "spectrum", "--level", "1"]).output
    assert a == b


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that leaves early, as ``| head -1`` does, ends the dump with exit 1 and nothing on stderr.

    The JSON dump at (2,3) is 0.74 MB, far above a pipe's buffer, so the
    command is still writing when the pipe closes.
    """
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "walledbrauer.cli", "--p", "2", "--d", "3", "units", "--dump"]
    with subprocess.Popen(args, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(16) == b'{"d": 3, "p": 2,'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


def _imported_after(commands: list[list[str]], modules: list[str], codes=(None, 0)) -> list[bool]:
    """Run the commands at (2,2) in one fresh process; whether each module was imported then.

    Each command must exit with one of ``codes``.
    """
    code = (
        "import sys\n"
        "from walledbrauer.cli import main\n"
        f"for args in {commands!r}:\n"
        "    try:\n"
        "        main(['--p', '2', '--d', '2', *args])\n"
        "    except SystemExit as exc:\n"
        f"        assert exc.code in {tuple(codes)!r}, exc.code\n"
        f"print(*(m in sys.modules for m in {modules!r}))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [flag == "True" for flag in proc.stdout.splitlines()[-1].split()]


def test_verify_and_brute_spectrum_leave_numpy_ma_unimported():
    # np.unique of a plain array goes through np.ma.is_masked on numpy 2.x,
    # and importing numpy.ma costs every fresh process several milliseconds;
    # numpy.random costs about 6 MiB and 10 ms, so the checks draw from random
    commands = [["verify", "--suite", "all"], ["spectrum", "--method", "brute"]]
    assert _imported_after(commands, ["numpy.ma", "numpy.random"]) == [False, False]


def test_only_verify_imports_the_suites():
    """The other commands leave ``walledbrauer.checks`` unimported; ``verify --help`` still lists every suite."""
    commands = [["dims"], ["units"], ["spectrum", "--method", "brute"], ["bmatrix", "--mu", "2"]]
    assert _imported_after(commands, ["walledbrauer.checks"]) == [False]
    result = run(["verify", "--help"])
    assert result.exit_code == 0 and all(name in result.stdout for name in SUITES)


def test_commands_import_no_installed_package_but_numpy():
    """The parser is the standard library's: no command loads a third-party package into a fresh process.

    Every installed top-level module outside the standard library is checked,
    except numpy, the package itself, and what a bare interpreter loads at start.
    """
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"], capture_output=True, text=True, timeout=60)
    skip = {"numpy", "walledbrauer", *sys.stdlib_module_names, *bare.stdout.split()}
    third_party = sorted(set(packages_distributions()) - skip)
    commands = [["dims"], ["units"], ["spectrum", "--method", "brute"], ["verify", "--suite", "all"]]
    imported = _imported_after(commands, third_party)
    assert [m for m, hit in zip(third_party, imported) if hit] == []


def test_import_graph_follows_the_command():
    """Each command loads only the layers it runs; the parser alone loads no numpy."""
    assert _imported_after([], ["numpy"]) == [False]
    light = [["dims"], ["--help"], ["dims", "--help"], ["--bogus", "dims"], ["dims", "--bogus"]]
    assert _imported_after(light, ["numpy"], codes=(None, 0, 2)) == [False]
    unit_side = ["walledbrauer.ideal_units", "walledbrauer.matrix_units", "walledbrauer.lowrank", "walledbrauer.checks", "fractions"]
    brute = _imported_after([["spectrum", "--method", "brute"]], ["walledbrauer.spectra", *unit_side])
    assert brute == [True] + [False] * len(unit_side)
    for command in (["units"], ["bmatrix", "--mu", "2"]):
        loaded = _imported_after([command], ["walledbrauer.ideal_units", "walledbrauer.lowrank", "walledbrauer.spectra", "walledbrauer.checks"])
        assert loaded == [True, False, False, False], command


def test_no_command_generates_code_at_import():
    """No layer nor command loads ``dataclasses``; the parser, ``dims`` and ``--help`` load no ``inspect`` either.

    ``verify`` imports ``checks``, which imports every other layer.
    """
    light = [["dims"], ["--help"], ["dims", "--help"]]
    assert _imported_after([], ["dataclasses", "inspect"]) == [False, False]
    assert _imported_after(light, ["dataclasses", "inspect"]) == [False, False]
    commands = [["bmatrix", "--mu", "2"], ["units"], ["spectrum"], ["spectrum", "--method", "brute"], ["verify", "--suite", "all"]]
    layers = [f"walledbrauer.{m}" for m in ("partitions", "symgroup", "tensorspace", "matrix_units", "lowrank", "ideal_units", "spectra", "checks")]
    assert _imported_after(commands, ["dataclasses", *layers]) == [False] + [True] * len(layers)


def test_value_types_keep_their_dataclass_behaviour():
    """Hashes, reprs, ordering and immutability as those of the frozen dataclasses they were."""
    from walledbrauer.checks import CheckResult
    from walledbrauer.ideal_units import B_matrix
    from walledbrauer.partitions import Partition, StandardTableau
    from walledbrauer.spectra import SpectrumRow, analytic_overlaps, spectrum_table
    from walledbrauer.symgroup import Permutation, prir_map

    mu = Partition((2, 1))
    assert hash(mu) == hash(((2, 1),)) and hash(Permutation((2, 1, 3))) == hash(((2, 1, 3),))
    assert repr(mu) == "Partition(parts=(2, 1))" and repr(Permutation((2, 1, 3))) == "Permutation(images=(2, 1, 3))"
    assert repr(StandardTableau(((1, 2), (3,)))) == "StandardTableau(rows=((1, 2), (3,)))"
    assert prir_map(mu)[0] == (Partition((1, 1)), 1)  # a label is a plain pair, not a value type
    assert repr(CheckResult("x", True, 0.0, 1e-9)) == "CheckResult(name='x', passed=True, residual=0.0, tolerance=1e-09, detail='')"
    assert repr(GUnit(unit_system(2, 2, 2), 0, 1)) == "GUnit(row=0, col=1)"
    assert sorted([Partition((1, 1)), Partition((3,)), mu, Partition((2,))]) == [
        Partition((1, 1)), Partition((2,)), mu, Partition((3,))
    ]
    assert mu < Partition((3,)) <= Partition((3,)) and Partition((3,)) > mu >= mu and mu == Partition([2, 1])
    assert mu != (2, 1) and Permutation((1, 2)) != Partition((1, 1))
    values = [
        mu,
        StandardTableau(((1, 2), (3,))),
        Permutation((2, 1, 3)),
        B_matrix(mu, mu, 3),
        unit_system(2, 2, 2),
        GUnit(unit_system(2, 2, 2), 0, 1),
        analytic_overlaps(2, 2, 1)[-1],
        spectrum_table(2, 2, 1).rows[0],
        spectrum_table(2, 2, 1),
        CheckResult("x", True, 0.0, 1e-9),
    ]
    assert CheckResult("x", True, 0.0, 1e-9).detail == ""
    row = SpectrumRow(0.5, 2)
    assert (row.value, row.multiplicity, row.ideal, row.mu, row.nu, row.interior) == (0.5, 2, None, None, None, None)
    for value in values:
        cls = type(value)
        fields = [getattr(value, name) for name in cls._fields]
        with pytest.raises(TypeError):  # one field short of those without a default
            cls(*fields[: len(fields) - len(cls._defaults) - 1])
        with pytest.raises(TypeError):
            cls(*fields, None)
        name = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_package_exports_resolve_from_their_modules():
    import walledbrauer

    assert walledbrauer.__all__ and set(walledbrauer.__all__) <= set(dir(walledbrauer))
    for name in walledbrauer.__all__:
        module = importlib.import_module(f"walledbrauer.{walledbrauer._EXPORTS[name]}")
        obj = getattr(walledbrauer, name)
        assert obj is getattr(module, name) and obj.__module__ == module.__name__, name
    for name in ("rho", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(walledbrauer, name)
