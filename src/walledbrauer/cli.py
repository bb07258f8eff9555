"""Command line front end: dimension tables, B matrices, units, spectra, verification.

All numeric JSON output is printed with 12 significant digits and sorted
keys, so a fixed configuration produces identical bytes across runs on one
platform.  CSV output rounds to 6 decimals.  Exit codes: 0 success, 1
verification failure or a failed internal check (an ArithmeticError, such
as a unit factor entry off its weight sector), 2 usage error, 3 resource
guard.  Every refusal, click's own included, is one line on stderr, printed
by ``Refusals.main``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import click
import numpy as np

from .errors import ParameterError, ResourceLimitError
from .ideal_units import B_matrix, GUnit, singularity_condition, sub_row_labels, top_row_labels, unit_system
from .partitions import Partition, dim_irrep, enumerate_partitions, multiplicity
from .spectra import analytic_levels, analytic_overlaps, spectrum_table

SCHEMA_VERSION = 1

# ``units --dump`` prints d^(4p) entries per unit, about 8 bytes an entry in
# JSON.  Both formats print unit by unit and hold one unit's entries at a time
# (measured at (2,4), 1.3e6 entries and 10.8 MB of JSON: peak RSS 40 MiB for
# the JSON dump and 34 MiB for the mm dump, as for ``units`` without it).  2^21
# entries keep a dump near 17 MB of output; they admit (2,4) and refuse (2,5)
# at 7.8e6, (4,2) at 6.4e7 and (3,3) at 1.7e8.
MAX_DUMP_ENTRIES = 2**21


@dataclass(frozen=True)
class RunConfig:
    p: int
    d: int
    fmt: str


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
    click.echo(json.dumps(doc, sort_keys=True))


def emit_csv(header: list[str], rows: list[list]):
    click.echo(",".join(header))
    for row in rows:
        cells = [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
        click.echo(",".join(cells))


def emit_matrix_market(matrix: np.ndarray, comment: str = ""):
    rows, cols = matrix.shape
    entries = [
        (i + 1, j + 1, matrix[i, j])
        for i in range(rows)
        for j in range(cols)
        if abs(matrix[i, j]) > 1e-14
    ]
    click.echo("%%MatrixMarket matrix coordinate real general")
    if comment:
        click.echo(f"% {comment}")
    click.echo(f"{rows} {cols} {len(entries)}")
    for i, j, v in entries:
        click.echo(f"{i} {j} {f12(v):.12g}")


class Refusals(click.Group):
    """The command group, whose ``main`` turns every refusal into one stderr line and an exit code."""

    def main(self, *args, **kwargs):
        try:
            sys.exit(super().main(*args, standalone_mode=False, **kwargs))
        except click.UsageError as exc:
            refusal, code = f"usage error: {exc.format_message()}", 2
        except ParameterError as exc:
            refusal, code = f"usage error: {exc}", 2
        except ResourceLimitError as exc:
            refusal, code = f"resource guard: {exc}", 3
        except ArithmeticError as exc:
            refusal, code = f"internal check failed: {exc}", 1
        except click.Abort:
            refusal, code = "Aborted!", 1
        click.echo(refusal, err=True)
        sys.exit(code)


@click.group(cls=Refusals, no_args_is_help=False)
@click.option("--p", type=click.IntRange(min=1), default=3, show_default=True, help="number of registers per wall side")
@click.option("--d", type=click.IntRange(min=1), default=3, show_default=True, help="local dimension")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "mm"]),
    default="json",
    show_default=True,
    help="output format (mm dumps operators in Matrix Market coordinate form)",
)
@click.pass_context
def main(ctx, p, d, fmt):
    """Matrix units of partially transposed permutation operators and their twirled spectra."""
    ctx.obj = RunConfig(p, d, fmt)


@main.command()
@click.pass_obj
def dims(cfg: RunConfig):
    """Irrep dimensions and multiplicities for all shapes, with the dimension sum check."""
    rows = []
    total = 0
    for mu in enumerate_partitions(cfg.p):
        dm, m = dim_irrep(mu), multiplicity(mu, cfg.d)
        total += dm * m
        rows.append({"partition": mu.to_json(), "height": mu.height, "dim": dm, "multiplicity": m})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": cfg.p,
        "d": cfg.d,
        "shapes": rows,
        "dimension_sum": total,
        "d_to_the_p": cfg.d**cfg.p,
        "sum_matches": total == cfg.d**cfg.p,
    }
    if cfg.fmt == "csv":
        emit_csv(
            ["partition", "height", "dim", "multiplicity"],
            [["|".join(map(str, r["partition"])), r["height"], r["dim"], r["multiplicity"]] for r in rows],
        )
    else:
        emit_json(doc)


@main.command()
@click.option("--mu", required=True, help="row shape, e.g. 2,1")
@click.option("--nu", default=None, help="column shape; defaults to --mu")
@click.pass_obj
def bmatrix(cfg: RunConfig, mu, nu):
    """Coefficient matrix entries, eigenvalues, diagonalizer, and singularity verdict."""
    mu_p = parse_partition(mu)
    nu_p = parse_partition(nu) if nu else mu_p
    if mu_p.total != cfg.p or nu_p.total != cfg.p:
        raise ParameterError(f"shapes must be partitions of p = {cfg.p}")
    b = B_matrix(mu_p, nu_p, cfg.d)
    det = b.determinant()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": cfg.p,
        "d": cfg.d,
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
        "integer_condition": singularity_condition(mu_p, cfg.d) if mu_p == nu_p else None,
    }
    if cfg.fmt == "mm":
        emit_matrix_market(b.entry_float(), f"B matrix mu={mu_p} nu={nu_p} d={cfg.d}")
    elif cfg.fmt == "csv":
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
    """Refuse a dump of more than MAX_DUMP_ENTRIES entries, counted from the labels alone."""
    labels = {p: top_row_labels, p - 1: sub_row_labels}
    entries = sum(len(labels[k](p, d)) ** 2 for k in ideals) * d ** (4 * p)
    if entries > MAX_DUMP_ENTRIES:
        raise ResourceLimitError(
            f"units --dump at (p,d)=({p},{d}) prints {entries} operator entries, above the bound {MAX_DUMP_ENTRIES}"
        )


@main.command()
@click.option("--ideal", type=click.Choice(["top", "sub", "both"]), default="both", show_default=True)
@click.option("--dump", is_flag=True, help="include dense operator entries (json) or emit mm blocks")
@click.pass_obj
def units(cfg: RunConfig, ideal, dump):
    """Structured records for every constructed matrix unit at (p, d)."""
    p, d = cfg.p, cfg.d
    ideals = {"top": [p], "sub": [p - 1], "both": [p, p - 1]}[ideal]
    if dump:
        _check_dump(p, d, ideals)
    ops = [
        GUnit(system, a, c)
        for system in (unit_system(p, d, k) for k in ideals)
        for a in range(system.size)
        for c in range(system.size)
    ]
    records = [
        {
            "ideal": u.ideal,
            "labels": [lab.to_json() for lab in u.labels],
            "indices": list(u.indices),
            "interior": list(u.interior) if u.interior else None,
            "trace": f12(u.trace()),
        }
        for u in ops
    ]
    if cfg.fmt == "mm" and dump:
        for rec, u in zip(records, ops):
            emit_matrix_market(u.to_dense(), json.dumps(rec, sort_keys=True))
    elif cfg.fmt == "csv":
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
    click.echo(f'{{"d": {d}, "p": {p}, "schema_version": {SCHEMA_VERSION}, "units": [', nl=False)
    for k, (rec, u) in enumerate(zip(records, ops)):
        entry = {**rec, "operator": [[f12(v) for v in row] for row in u.to_dense()]}
        click.echo((", " if k else "") + json.dumps(entry, sort_keys=True), nl=False)
    click.echo("]}")


def _fig_layout(p: int, d: int, level: int) -> str:
    """Text rendering of the block-diagonal layout of the twirled generator."""
    lines = [f"block layout of the twirled generator, level {level}, p={p}, d={d}"]
    recs = [r for r in analytic_overlaps(p, d) if r.rho_level == level]
    top = [r for r in recs if r.ideal == p]
    sub = [r for r in recs if r.ideal == p - 1]
    lines.append(f"  ideal {p} (rank-one units):")
    for r in top:
        lines.append(
            f"    [{r.mu} x {r.nu}]  {r.unit_count} diagonal units   eigenvalue {r.eigenvalue:.4f} x{r.eigen_multiplicity}"
        )
    if sub:
        lines.append(f"  ideal {p - 1} (units of trace {d * d - 1}):")
        for r in sub:
            lines.append(
                f"    [{r.mu} x {r.nu}] interior mode {r.interior}  {r.unit_count} diagonal units   eigenvalue {r.eigenvalue:.4f} x{r.eigen_multiplicity}"
            )
    lines.append("  off-diagonal blocks between different label pairs vanish")
    return "\n".join(lines)


@main.command()
@click.option("--level", type=int, default=None, help="generator level k of V^(k); defaults to p-1")
@click.option("--method", type=click.Choice(["analytic", "brute"]), default="analytic", show_default=True)
@click.option("--fig7", is_flag=True, help="print the block-diagonal unit layout as text")
@click.pass_obj
def spectrum(cfg: RunConfig, level, method, fig7):
    """Nonzero spectrum of the twirled generator rho(level)."""
    p, d = cfg.p, cfg.d
    if level is None:
        level = p - 1
    if not 0 <= level <= p:
        raise ParameterError(f"level must lie in 0..{p}")
    table = spectrum_table(p, d, level, method)
    if fig7 and level in analytic_levels(p, d):
        click.echo(_fig_layout(p, d, level))
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
    if cfg.fmt == "csv":
        emit_csv(
            ["value", "multiplicity"],
            [[float(v), m] for v, m in table.merged()],
        )
    else:
        emit_json(doc)


class SuiteOption(click.Option):
    """``--suite``, whose help lists ``checks.SUITES``.

    The suites are imported only when ``verify`` runs or its help is shown,
    so the other commands do not load them into every fresh process.
    """

    def get_help_record(self, ctx):
        from .checks import SUITES

        self.help = f"one of {', '.join(sorted(SUITES))}, or 'all'"
        return super().get_help_record(ctx)


@main.command()
@click.option("--suite", cls=SuiteOption, default="all", show_default=True)
@click.pass_obj
def verify(cfg: RunConfig, suite):
    """Run a named invariant suite; exit 0 iff every check passes."""
    from .checks import run_suite

    results = run_suite(suite, cfg.p, cfg.d)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "p": cfg.p,
        "d": cfg.d,
        "suite": suite,
        "checks": [
            {**r.to_json(), "residual": f12(r.residual), "tolerance": f12(r.tolerance)}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    emit_json(doc)
    if not doc["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
