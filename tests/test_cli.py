import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from walledbrauer.checks import NEEDS_SECOND_IDEAL, SUITES
from walledbrauer.cli import MAX_DUMP_ENTRIES, _check_dump, f12, main
from walledbrauer.ideal_units import GUnit, unit_system


def run(args):
    return CliRunner().invoke(main, args)


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


# past the twirl's work bound at (7,2) and (5,4), and the block bound at (5,3)
GUARD_CASES = (
    ["--p", "7", "--d", "2", "spectrum", "--method", "brute"],
    ["--p", "5", "--d", "3", "spectrum", "--method", "brute"],
    ["--p", "5", "--d", "4", "spectrum", "--method", "brute"],
)
NONPOSITIVE_CASES = (["--p", "0", "--d", "2", "dims"], ["--p", "2", "--d", "0", "units"])


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
    """Malformed tokens: bad values, unknown options or commands, missing ones; each a usage error."""
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
    # CliRunner turns an escaping exception into exit code 1 and keeps it here
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


def test_help_goes_to_stdout_with_exit_0():
    for args in (["--help"], ["spectrum", "--help"]):
        result = run(args)
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("Usage: ")


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
    plain = run(["--p", "2", "--d", "2", "--format", "csv", "units"]).output

    def dense(self):
        raise AssertionError("the csv listing prints no operator")

    monkeypatch.setattr(GUnit, "to_dense", dense)
    result = run(["--p", "2", "--d", "2", "--format", "csv", "units", "--dump"])
    assert result.exit_code == 0 and result.output == plain


def test_units_dump_guard(monkeypatch):
    # the five admitted dumps print at most 1.3e6 entries; the refused ones run against a
    # stub, so a guard that fails to refuse cannot build a dump of 1.7e8 entries here
    for p, d in ((1, 2), (2, 2), (2, 3), (3, 2), (2, 4)):
        _check_dump(p, d, [p, p - 1])

    def unbuilt(*args):
        raise AssertionError("a unit system was built before the dump was refused")

    monkeypatch.setattr("walledbrauer.cli.unit_system", unbuilt)
    for args in (["--p", "3", "--d", "3", "units", "--dump"], ["--p", "2", "--d", "5", "--format", "mm", "units", "--dump"]):
        result = run(args)
        assert result.exit_code == 3 and result.stdout == "", args
        assert result.stderr.startswith("resource guard: ") and len(result.stderr.splitlines()) == 1
        assert str(MAX_DUMP_ENTRIES) in result.stderr


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


def _imported_after(commands: list[list[str]], modules: list[str]) -> list[bool]:
    """Run the commands at (2,2) in one fresh process; whether each module was imported then."""
    code = (
        "import sys\n"
        "from walledbrauer.cli import main\n"
        f"for args in {commands!r}:\n"
        "    try:\n"
        "        main(['--p', '2', '--d', '2', *args])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (None, 0), exc.code\n"
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
