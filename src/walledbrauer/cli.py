"""Command line front end: dimension tables, B matrices, units, spectra, verification.

All numeric JSON output is printed with 12 significant digits and sorted
keys, so a fixed configuration produces identical bytes across runs on one
platform.  CSV output rounds to 6 decimals.  Exit codes: 0 success, 1
verification failure or a failed internal check (an ArithmeticError, such
as a unit factor entry off its weight sector), 2 usage error, 3 resource
guard.  A command prints only the formats ``FORMATS`` lists for it; any
other ``--format`` is a usage error.  Every refusal, the parser's own
included, is one line on stderr, printed by ``CommandLine.main``.  The
parser is the standard library's ``argparse``, which a fresh process
imports faster and in less memory than a third-party one.

This module imports only the parser, ``errors`` and ``partitions``; each
command imports the layer it runs when it runs, so a cold call loads no
more than that command needs.  ``dims``, ``--help`` and a refusal of the
parser load no numpy; ``bmatrix`` and ``units`` load ``ideal_units``;
``spectrum`` loads ``spectra``, and with ``--method brute`` (no ``--fig7``)
none of the unit construction; ``verify`` loads ``checks``, hence all.
The parser hands each command the global options as the keyword
arguments ``p``, ``d`` and ``fmt``, then its own options.  The value types
are plain classes rather than ``dataclasses``, so no import generates
code, and the parser, ``dims`` and ``--help`` load neither ``dataclasses``
nor ``inspect``.
A function-local import reads each name from its defining module at the
call, so a wrapper installed there, as ``perfbench/tracer.py`` installs
them, is the function called.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from typing import TYPE_CHECKING, NoReturn

from .errors import ParameterError, ResourceLimitError
from .partitions import Partition, count_partitions, dim_irrep, enumerate_partitions, multiplicity

if TYPE_CHECKING:
    import numpy as np

    from .ideal_units import GUnit

SCHEMA_VERSION = 1

# ``units --dump`` prints d^(4p) entries per unit, about 8 bytes an entry in
# JSON.  Both formats print unit by unit and hold one unit's entries at a time
# (measured at (2,4), 1.3e6 entries and 10.8 MB of JSON: peak RSS 40 MiB for
# the JSON dump and 34 MiB for the mm dump, as for ``units`` without it).  2^21
# entries keep a dump near 17 MB of output; they admit (2,4) and refuse (2,5)
# at 7.8e6, (4,2) at 6.4e7 and (3,3) at 1.7e8.
MAX_DUMP_ENTRIES = 2**21

# The formats each command honours.  ``units`` prints operators in Matrix
# Market form only with ``--dump``; any other request is a usage error.
FORMATS = {
    "dims": ("json", "csv"),
    "bmatrix": ("json", "csv", "mm"),
    "spectrum": ("json", "csv"),
    "units": ("json", "csv"),
    "units --dump": ("json", "csv", "mm"),
    "verify": ("json",),
}

# ``dims`` lists every partition of p, each with its hook lengths and
# contents (measured: p = 35, 14 883 shapes, 1.1 s; p = 39 at d = 39, 31 185
# shapes, 3.6 s).  2^15 shapes admit p <= 39 and refuse p = 40 (37 338).
MAX_DIMS_SHAPES = 2**15


def f12(x) -> float:
    """Round-trip a float through 12 significant digits."""
    return float(f"{float(x):.12g}")


def parse_partition(text: str) -> Partition:
    text = text.strip().strip("[]()")
    if not text:
        return Partition(())
    try:
        return Partition(tuple(int(v) for v in text.replace(" ", "").split(",")))
    except ValueError as exc:
        raise ParameterError(f"invalid shape {text!r}: {exc}") from exc


def emit_json(doc: dict):
    print(json.dumps(doc, sort_keys=True))


def emit_csv(header: list[str], rows: list[list]):
    print(",".join(header))
    for row in rows:
        cells = [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
        print(",".join(cells))


def emit_matrix_market(matrix: np.ndarray, comment: str):
    rows, cols = matrix.shape
    entries = [
        (i + 1, j + 1, matrix[i, j])
        for i in range(rows)
        for j in range(cols)
        if abs(matrix[i, j]) > 1e-14
    ]
    print("%%MatrixMarket matrix coordinate real general")
    print(f"% {comment}")
    print(f"{rows} {cols} {len(entries)}")
    for i, j, v in entries:
        print(f"{i} {j} {f12(v):.12g}")


def dims(p: int, d: int, fmt: str):
    """Irrep dimensions and multiplicities for all shapes, with the dimension sum check."""
    if count_partitions(p, stop=MAX_DIMS_SHAPES) > MAX_DIMS_SHAPES:
        raise ResourceLimitError(f"dims at p = {p} lists more than MAX_DIMS_SHAPES = {MAX_DIMS_SHAPES} shapes")
    rows = []
    total = 0
    for mu in enumerate_partitions(p):
        dm, m = dim_irrep(mu), multiplicity(mu, d)
        total += dm * m
        rows.append({"partition": mu.to_json(), "height": mu.height, "dim": dm, "multiplicity": m})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "d": d,
        "shapes": rows,
        "dimension_sum": total,
        "d_to_the_p": d**p,
        "sum_matches": total == d**p,
    }
    if fmt == "csv":
        emit_csv(
            ["partition", "height", "dim", "multiplicity"],
            [["|".join(map(str, r["partition"])), r["height"], r["dim"], r["multiplicity"]] for r in rows],
        )
    else:
        emit_json(doc)


def bmatrix(p: int, d: int, fmt: str, mu: str, nu: str | None):
    """Coefficient matrix entries, eigenvalues, diagonalizer, and singularity verdict."""
    from .ideal_units import B_matrix, singularity_condition

    mu_p = parse_partition(mu)
    nu_p = parse_partition(nu) if nu else mu_p
    if mu_p.total != p or nu_p.total != p:
        raise ParameterError(f"shapes must be partitions of p = {p}")
    b = B_matrix(mu_p, nu_p, d)
    det = b.det
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "d": d,
        "mu": mu_p.to_json(),
        "nu": nu_p.to_json(),
        "alphas": [a.to_json() for a in b.alphas],
        "entries": [[str(v) for v in row] for row in b.entries],
        "entries_float": [[f12(v) for v in row] for row in b.entries],
        "eigenvalues": [f12(v) for v in b.eigenvalues],
        "diagonalizer": [[f12(v) for v in row] for row in b.diagonalizer],
        "determinant": str(det),
        "determinant_float": f12(det),
        "nullity": b.nullity,
        "singular": b.singular,
        "vanishing": b.vanishing,
        "integer_condition": singularity_condition(mu_p, d) if mu_p == nu_p else None,
    }
    if fmt == "mm":
        emit_matrix_market(b.entry_float(), f"B matrix mu={mu_p} nu={nu_p} d={d}")
    elif fmt == "csv":
        emit_csv(
            ["alpha"] + ["|".join(map(str, a.to_json())) for a in b.alphas],
            [
                ["|".join(map(str, a.to_json()))] + [float(v) for v in row]
                for a, row in zip(b.alphas, b.entries)
            ],
        )
    else:
        emit_json(doc)


def _check_dump(p: int, d: int, ideals: list[int]) -> None:
    """Refuse a dump of more than MAX_DUMP_ENTRIES entries before any unit is built, and before any label is listed if one unit is too many."""
    from .ideal_units import has_second_ideal, sub_row_labels, top_row_labels

    units = int(p in ideals or has_second_ideal(p, d))  # a lower bound: the top ideal always holds a unit, the second one where it exists
    if units and d ** (4 * p) <= MAX_DUMP_ENTRIES:  # each unit prints d^(4p) entries; the labels grow past any bound on the work
        units = sum(len({p: top_row_labels, p - 1: sub_row_labels}[k](p, d)) ** 2 for k in ideals)
    if units * d ** (4 * p) > MAX_DUMP_ENTRIES:
        raise ResourceLimitError(
            f"units --dump at (p,d)=({p},{d}) prints at least {units * d ** (4 * p)} operator entries, above the bound {MAX_DUMP_ENTRIES}"
        )


def units(p: int, d: int, fmt: str, ideal: str, dump: bool):
    """Structured records for every constructed matrix unit at (p, d)."""
    from .ideal_units import GUnit, unit_system

    ideals = {"top": [p], "sub": [p - 1], "both": [p, p - 1]}[ideal]
    if dump and fmt != "csv":  # the csv listing prints no operator
        _check_dump(p, d, ideals)
    ops, records = [], []
    for system in (unit_system(p, d, k) for k in ideals):
        for (a, row), (c, col) in itertools.product(enumerate(system.labels), repeat=2):
            n = len(row) // 2  # shapes per label: (mu, i, j) in the top ideal, (mu, nu, i, j, beta) in the second
            ops.append(u := GUnit(system, a, c))
            records.append(
                {
                    "ideal": system.ideal,
                    "labels": [lab.to_json() for lab in row[:n] + col[:n]],
                    "indices": [*row[n : n + 2], *col[n : n + 2]],
                    "interior": [row[4], col[4]] if n == 2 else None,
                    "trace": f12(u.trace()),
                }
            )
    if fmt == "mm" and dump:
        for rec, u in zip(records, ops):
            emit_matrix_market(u.to_dense(), json.dumps(rec, sort_keys=True))
    elif fmt == "csv":
        emit_csv(
            ["ideal", "labels", "indices", "interior", "trace"],
            [
                [
                    r["ideal"],
                    ";".join("|".join(map(str, lab)) for lab in r["labels"]),
                    "|".join(map(str, r["indices"])),
                    "|".join(map(str, r["interior"])) if r["interior"] else "",
                    float(r["trace"]),
                ]
                for r in records
            ],
        )
    elif dump:
        _emit_json_dump(p, d, records, ops)
    else:
        emit_json({"schema_version": SCHEMA_VERSION, "p": p, "d": d, "units": records})


def _emit_json_dump(p: int, d: int, records: list[dict], ops: list[GUnit]):
    """The bytes of ``emit_json`` on the dump document, printed unit by unit.

    Only one unit's entries are held at a time.  The keys sort as d, p,
    schema_version, units, and each record is printed with sorted keys and
    the default separators, as ``json.dumps(doc, sort_keys=True)`` would.
    """
    print(f'{{"d": {d}, "p": {p}, "schema_version": {SCHEMA_VERSION}, "units": [', end="")
    for k, (rec, u) in enumerate(zip(records, ops)):
        entry = {**rec, "operator": [[f12(v) for v in row] for row in u.to_dense()]}
        print((", " if k else "") + json.dumps(entry, sort_keys=True), end="")
    print("]}")


def _fig_layout(table) -> str:
    """Text rendering of the block-diagonal layout of the twirled generator, from the families of its analytic table."""
    p, d, level = table.p, table.d, table.level
    lines = [f"block layout of the twirled generator, level {level}, p={p}, d={d}"]
    for ideal, head in ((p, "rank-one units"), (p - 1, f"units of trace {d * d - 1}")):
        block = [r for r in table.rows if r.ideal == ideal]
        if block:  # the top ideal always has rows; the second only at level p - 1
            lines.append(f"  ideal {ideal} ({head}):")
        for r in block:
            mode = "" if r.interior is None else f" interior mode {r.interior}"
            lines.append(
                f"    [{r.mu} x {r.nu}]{mode}  {dim_irrep(r.mu) * dim_irrep(r.nu)} diagonal units   eigenvalue {r.value:.4f} x{r.multiplicity}"
            )
    lines.append("  off-diagonal blocks between different label pairs vanish")
    return "\n".join(lines)


def spectrum(p: int, d: int, fmt: str, level: int | None, method: str, fig7: bool):
    """Nonzero spectrum of the twirled generator rho(level)."""
    from .spectra import analytic_levels, spectrum_table

    if level is None:
        level = p - 1
    if not 0 <= level <= p:
        raise ParameterError(f"level must lie in 0..{p}")
    table = spectrum_table(p, d, level, method)
    if fig7 and level in analytic_levels(p, d):
        print(_fig_layout(table if method == "analytic" else spectrum_table(p, d, level, "analytic")))
    rows = [
        {
            "value": f12(r.value),
            "multiplicity": r.multiplicity,
            "ideal": r.ideal,
            "mu": r.mu.to_json() if r.mu else None,
            "nu": r.nu.to_json() if r.nu else None,
            "interior": r.interior,
        }
        for r in table.rows
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "d": d,
        "level": level,
        "method": method,
        "rows": sorted(rows, key=lambda r: (r["value"], str(r["mu"]))),
        "merged": [[f12(v), m] for v, m in table.merged()],
        "kernel_dim": table.kernel_dim,
        "dimension": table.dim,
    }
    if fmt == "csv":
        emit_csv(
            ["value", "multiplicity"],
            [[float(v), m] for v, m in table.merged()],
        )
    else:
        emit_json(doc)


def verify(p: int, d: int, fmt: str, suite: str) -> int:
    """Run a named invariant suite; exit 0 iff every check passes."""
    from .checks import run_suite

    results = run_suite(suite, p, d)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "d": d,
        "suite": suite,
        "checks": [
            {"name": r.name, "passed": r.passed, "residual": f12(r.residual), "tolerance": f12(r.tolerance)}
            | ({"detail": r.detail} if r.detail else {})
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    emit_json(doc)
    return 0 if doc["passed"] else 1


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """A parser that takes ``--help`` but not ``-h`` nor option prefixes, and whose errors are ``ParameterError``s."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, add_help=False, allow_abbrev=False, **kwargs)
        self.commands = {}  # name -> subparser, filled in by ``_parser``
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str) -> NoReturn:
        raise ParameterError(message)

    def format_help(self) -> str:
        for action in self._actions:
            if action.dest == "suite":  # verify's: the suites are imported only when verify runs or this help is shown
                from .checks import SUITES

                action.help = f"one of {', '.join(sorted(SUITES))}, or 'all' (default: %(default)s)"
        return super().format_help()


GLOBAL_OPTIONS = ("--p", "--d", "--format")  # the options before the command; each takes a value
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # a value to argparse, not an option


def _refuse_unknown_global(args: list[str], commands) -> None:
    """Name the unknown options before the command when argparse would name the wrong token.

    argparse sets an unknown option aside and reads the next token that is
    not an option as the command, so ``--tol 1e-3 verify`` would be refused
    as the invalid command ``'1e-3'``.  When that token is not a command,
    the unknown options are refused instead; every other case is left to
    argparse, whose refusal then names the right token.
    """
    unknown = []
    tokens = iter(args)
    for token in tokens:
        if token == "--help":
            return
        if token in ("-", "--") or not token.startswith("-") or _NEGATIVE_NUMBER.fullmatch(token):
            if unknown and token not in commands:
                raise ParameterError(f"unrecognized arguments: {' '.join(unknown)}")
            return
        name, eq, _ = token.partition("=")
        if name not in GLOBAL_OPTIONS:
            unknown.append(token)
        elif not eq:
            next(tokens, None)  # its value


def _parser(prog: str) -> _Parser:
    """The parser of the global options and the five commands; each command's ``run`` is its function."""
    parser = _Parser(prog=prog, description="Matrix units of partially transposed permutation operators and their twirled spectra.")
    parser.add_argument("--p", type=_at_least_one, default=3, help="number of registers per wall side (default: %(default)s)")
    parser.add_argument("--d", type=_at_least_one, default=3, help="local dimension (default: %(default)s)")
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=["json", "csv", "mm"],
        default="json",
        help="output format: json, csv for all but verify, mm (Matrix Market) for bmatrix and units --dump "
        "(default: %(default)s)",
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")
    parser.commands = commands.choices

    def command(run) -> _Parser:
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    command(dims)
    sub = command(bmatrix)
    sub.add_argument("--mu", required=True, help="row shape, e.g. 2,1")
    sub.add_argument("--nu", help="column shape; defaults to --mu")
    sub = command(units)
    sub.add_argument("--ideal", choices=["top", "sub", "both"], default="both", help="(default: %(default)s)")
    sub.add_argument("--dump", action="store_true", help="include dense operator entries (json) or emit mm blocks")
    sub = command(spectrum)
    sub.add_argument("--level", type=int, help="generator level k of V^(k); defaults to p-1")
    sub.add_argument("--method", choices=["analytic", "brute"], default="analytic", help="(default: %(default)s)")
    sub.add_argument("--fig7", action="store_true", help="print the block-diagonal unit layout as text")
    command(verify).add_argument("--suite", default="all")
    return parser


class CommandLine:
    """The ``walledbrauer`` entry point: ``main()`` parses ``sys.argv``, ``main(argv)`` a list; either exits.

    An object rather than a function, so that ``main.main(args=..., prog_name=...)``
    names the same call, the one ``perfbench/tracer.py`` times, and the
    tracer's wrapping of this module's functions leaves it in place.
    """

    def main(self, args: list[str] | None = None, prog_name: str = "walledbrauer") -> NoReturn:
        """Run one command and exit with its code; a refusal prints one line on stderr."""
        try:
            args = sys.argv[1:] if args is None else list(args)
            parser = _parser(prog_name)
            _refuse_unknown_global(args, parser.commands)
            opts = vars(parser.parse_args(args))
            if "run" not in opts:
                raise ParameterError("Missing command.")
            run = opts.pop("run")
            command = run.__name__ + (" --dump" if opts.get("dump") else "")
            if opts["fmt"] not in FORMATS[command]:
                raise ParameterError(f"{command} prints {' or '.join(FORMATS[command])}, not --format {opts['fmt']}")
            code = run(**opts)
            sys.stdout.flush()  # a reader of stdout that left early shows here, as a BrokenPipeError
            sys.exit(code)
        except BrokenPipeError:
            # as after `| head`: exit 1 with nothing more to print; the flush at exit writes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except ParameterError as exc:
            refusal, code = f"usage error: {exc}", 2
        except ResourceLimitError as exc:
            refusal, code = f"resource guard: {exc}", 3
        except ArithmeticError as exc:
            refusal, code = f"internal check failed: {exc}", 1
        except KeyboardInterrupt:
            refusal, code = "Aborted!", 1
        print(refusal, file=sys.stderr)
        sys.exit(code)

    __call__ = main


main = CommandLine()


if __name__ == "__main__":
    main()
