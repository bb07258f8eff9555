"""Per-layer metrics from the spans that ``tracer.py`` writes out.

Every metric in :data:`PER_LAYER` is reported for every workload; one that
the workload never reaches reads 0.  Entries marked ``computed`` are derived
from sizes and arguments, not timed, and repeat exactly from run to run.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from tracer import LAYERS

SUITES = (
    "partitions",
    "representations",
    "tensorspace",
    "matrix_units",
    "coefficients",
    "composition",
    "generators",
    "eigenoperators",
    "bmatrix",
    "reduction",
    "table1",
)

# (metric, unit, better, computed)
PER_LAYER = (
    *((f"{layer}.self_s", "s", "lower", False) for layer in LAYERS),
    ("lowrank.frobenius_norm.calls", "count", "lower", False),
    ("lowrank.frobenius_norm.s", "s", "lower", False),
    ("lowrank.frobenius_norm.rank_mean", "rank", "lower", False),
    ("lowrank.compress.calls", "count", "lower", False),
    ("lowrank.compress.s", "s", "lower", False),
    ("lowrank.matmul.calls", "count", "lower", False),
    ("ideal_units.G_top.calls", "count", "lower", False),
    ("ideal_units.G_sub.calls", "count", "lower", False),
    ("ideal_units.G_sub.s", "s", "lower", False),
    ("ideal_units.F_sub.calls", "count", "lower", False),
    ("ideal_units.H_operator.calls", "count", "lower", False),
    ("ideal_units.H_operator.hit_ratio", "ratio", "higher", False),
    ("ideal_units.B_matrix.calls", "count", "lower", False),
    ("ideal_units.B_matrix.s", "s", "lower", False),
    ("ideal_units.B_matrix.hit_ratio", "ratio", "higher", False),
    ("ideal_units.B_matrix.nonempty_ratio", "ratio", "higher", True),
    ("ideal_units.labels", "count", "lower", True),
    ("ideal_units.units", "count", "lower", True),
    ("spectra.twirl.s", "s", "lower", False),
    ("spectra.twirl.conjugations", "count", "lower", True),
    ("spectra.twirl.distinct_pairings", "count", "lower", True),
    ("spectra.eigvalsh.s", "s", "lower", False),
    ("spectra.rho.nnz", "count", "lower", False),
    ("spectra.analytic_overlaps.s", "s", "lower", False),
    ("spectra.analytic_overlaps.records", "count", "lower", False),
    ("tensorspace.permutation_operator.calls", "count", "lower", False),
    ("tensorspace.V_generator.calls", "count", "lower", False),
    ("tensorspace.dense_bytes", "bytes", "lower", True),
    ("matrix_units.left_side_matrix.calls", "count", "lower", False),
    ("matrix_units.left_side_matrix.hit_ratio", "ratio", "higher", False),
    ("matrix_units.E_unit.calls", "count", "lower", False),
    ("symgroup.young_orthogonal_rep.hit_ratio", "ratio", "higher", False),
    ("partitions.common_removals.calls", "count", "lower", False),
    ("partitions.cache_hit_ratio", "ratio", "higher", False),
    *((f"checks.{suite}.s", "s", "lower", False) for suite in SUITES),
    ("checks.count", "count", "lower", False),
    ("checks.composition_pairs", "count", "lower", True),
    ("checks.worst_residual_ratio", "ratio", "lower", False),
    ("cli.emit_s", "s", "lower", False),
    ("cli.output_bytes", "bytes", "lower", False),
    ("trace.spans", "count", "lower", False),
    ("trace.wall_s", "s", "lower", False),
    ("trace.unattributed_s", "s", "lower", False),
    ("trace.overhead_s", "s", "lower", False),
)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
COMPUTED = {name for name, _, _, computed in PER_LAYER if computed}

# metric prefix -> span name, for the per-function call counts and times
FUNCTIONS = {
    "lowrank.frobenius_norm": "lowrank.FactoredOperator.frobenius_norm",
    "lowrank.compress": "lowrank.FactoredOperator.compress",
    "lowrank.matmul": "lowrank.FactoredOperator.__matmul__",
    **{f"ideal_units.{f}": f"ideal_units.{f}" for f in ("G_top", "G_sub", "F_sub", "H_operator", "B_matrix")},
    "spectra.twirl": "spectra.twirl",
    "spectra.eigvalsh": "spectra.eigvalsh",
    "spectra.analytic_overlaps": "spectra.analytic_overlaps",
    "tensorspace.permutation_operator": "tensorspace.permutation_operator",
    "tensorspace.V_generator": "tensorspace.V_generator",
    "matrix_units.left_side_matrix": "matrix_units.left_side_matrix",
    "matrix_units.E_unit": "matrix_units.E_unit",
    "partitions.common_removals": "partitions.common_removals",
    **{f"checks.{suite}": f"checks.suite_{suite}" for suite in SUITES},
}
EMITTERS = ("cli.emit_json", "cli.emit_csv", "cli.emit_matrix_market")


def read_job(base: str) -> Counter:
    """Additive raw sums of one traced job, so that jobs of a pass can be added."""
    with open(base + ".json") as fh:
        meta = json.load(fh)
    with np.load(base + ".npz") as z:
        name, parent, dur = z["name"], z["parent"], z["end"] - z["start"]
    n_names = len(meta["names"])
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(name, minlength=n_names)
    incl = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_time, minlength=n_names)
    raw = Counter({"spans": len(dur), "root_s": float(dur[~nested].sum())})
    for i, fn in enumerate(meta["names"]):
        raw[f"calls:{fn}"] += int(calls[i])
        raw[f"s:{fn}"] += float(incl[i])
        raw[f"self:{fn.split('.')[0]}"] += float(own[i])
    for key, value in meta["counters"].items():
        raw[key] += value
    for fn, (hits, misses) in meta["caches"].items():
        raw[f"hits:{fn}"] += hits
        raw[f"misses:{fn}"] += misses
    return raw


def combine(a: Counter, b: Counter) -> Counter:
    """Raw sums of two jobs run one after the other."""
    out = Counter(a)
    out.update(b)
    out["checks_worst_ratio"] = max(a["checks_worst_ratio"], b["checks_worst_ratio"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(raw: Counter, fns) -> float:
    hits = sum(raw[f"hits:{fn}"] for fn in fns)
    return _ratio(hits, hits + sum(raw[f"misses:{fn}"] for fn in fns))


def layer_metrics(raw: Counter, traced_wall: float, output_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, for one traced pass."""
    out = {f"{layer}.self_s": raw[f"self:{layer}"] for layer in LAYERS}
    for prefix, fn in FUNCTIONS.items():
        out[f"{prefix}.calls"] = raw[f"calls:{fn}"]
        out[f"{prefix}.s"] = raw[f"s:{fn}"]
    out["lowrank.frobenius_norm.rank_mean"] = _ratio(
        raw["frobenius_rank_sum"], raw["calls:lowrank.FactoredOperator.frobenius_norm"]
    )
    for fn in ("ideal_units.H_operator", "ideal_units.B_matrix", "matrix_units.left_side_matrix",
               "symgroup.young_orthogonal_rep"):
        out[f"{fn}.hit_ratio"] = _hit_ratio(raw, [fn])
    out["partitions.cache_hit_ratio"] = _hit_ratio(
        raw, [k[5:] for k in raw if k.startswith("hits:partitions.")]
    )
    out["ideal_units.B_matrix.nonempty_ratio"] = _ratio(raw["bmatrix_nonempty"], raw["bmatrix_builds"])
    out["ideal_units.labels"] = raw["labels"]
    out["ideal_units.units"] = raw["units"]
    out["spectra.twirl.conjugations"] = raw["twirl_conjugations"]
    out["spectra.twirl.distinct_pairings"] = raw["distinct_pairings"]
    out["spectra.rho.nnz"] = raw["rho_nnz"]
    out["spectra.analytic_overlaps.records"] = raw["overlap_records"]
    out["tensorspace.dense_bytes"] = raw["dense_bytes"]
    out["checks.count"] = raw["checks_count"]
    out["checks.composition_pairs"] = raw["composition_pairs"]
    out["checks.worst_residual_ratio"] = raw["checks_worst_ratio"]
    out["cli.emit_s"] = sum(raw[f"s:{fn}"] for fn in EMITTERS)
    out["cli.output_bytes"] = output_bytes
    out["trace.spans"] = raw["spans"]
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - raw["root_s"]
    return {name: out[name] for name, *_ in PER_LAYER if name in out}
