"""The benchmark's workloads: fixed lists of ``walledbrauer`` CLI jobs and their output oracles.

Every oracle is scale-free: it checks an identity that holds at any
``(p, d)``, so the same code checks the small configurations of the self-test.
An oracle returns ``None`` when the output is right and a one-line reason
when it is not.

Tolerances, all relative:

* ``VALUE_RTOL = 1e-9``.  The CLI prints every float with 12 significant
  digits, so each printed eigenvalue or trace carries a relative rounding
  error of at most 5e-13; ``eigvalsh`` on the dense 4096-dimensional ``rho``
  adds a backward error of about ``dim * eps = 1e-12`` relative to its norm.
  1e-9 leaves a factor of 1000 above both and is still far below the 3.4e-3
  and 6.8e-1 trace defects of the analytic path at ``(20,6)`` and ``(22,3)``.
* Off-diagonal unit traces are exactly zero in exact arithmetic; they are
  compared against ``VALUE_RTOL`` times the trace a diagonal unit of the same
  ideal carries (1 or ``d^2-1``), which is the unit's own scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

VALUE_RTOL = 1e-9

Oracle = Callable[[dict, dict | None], "str | None"]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    oracle: Oracle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: tuple[str, ...]  # untimed job run once in set-up; its output is the oracle's reference
    jobs: tuple[Job, ...]


def _cli(p: int, d: int, *rest) -> tuple[str, ...]:
    return ("--p", str(p), "--d", str(d), *map(str, rest))


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ----------------------------------------------------------------------------
# oracles


def verify_oracle(expected_checks: int) -> Oracle:
    def oracle(doc, _ref):
        checks = doc.get("checks", [])
        if doc.get("passed") is not True or not all(c["passed"] for c in checks):
            failed = [c["name"] for c in checks if not c["passed"]]
            return f"verify reports failure: {failed}"
        if len(checks) != expected_checks:
            return f"{len(checks)} checks, expected {expected_checks}"
        return None

    return oracle


def trace_identity(doc, _ref=None):
    """Sum of eigenvalue x multiplicity over the nonzero spectrum is tr V^(k) = d^(2p-k)."""
    p, d, k = doc["p"], doc["d"], doc["level"]
    total = math.fsum(r["value"] * r["multiplicity"] for r in doc["rows"])
    err = _rel(total, d ** (2 * p - k))
    if not err <= VALUE_RTOL:
        return f"trace identity at (p,d,k)=({p},{d},{k}): relative error {err:.3g}"
    return None


def brute_oracle(doc, ref):
    """Trace identity, and the merged table and kernel equal the analytic ones."""
    if ref is None:
        return "no analytic reference: the warm-up job failed"
    reason = trace_identity(doc)
    if reason:
        return reason
    if doc["kernel_dim"] != ref["kernel_dim"]:
        return f"kernel_dim {doc['kernel_dim']} != analytic {ref['kernel_dim']}"
    got, want = doc["merged"], ref["merged"]
    if len(got) != len(want):
        return f"{len(got)} merged eigenvalues, analytic has {len(want)}"
    for (v, m), (w, n) in zip(got, want):
        if m != n or _rel(v, w) > VALUE_RTOL:
            return f"merged row ({v}, {m}) != analytic ({w}, {n})"
    return None


def units_oracle(expected_units: int) -> Oracle:
    """Unit count; diagonal units have trace 1 (top ideal) or d^2-1, all others 0."""

    def oracle(doc, _ref):
        units = doc["units"]
        if len(units) != expected_units:
            return f"{len(units)} units, expected {expected_units}"
        p, d = doc["p"], doc["d"]
        for u in units:
            labels, idx = u["labels"], u["indices"]
            if u["ideal"] == p:
                diagonal, scale = labels[0] == labels[1] and idx[:2] == idx[2:], 1.0
            else:
                diagonal = labels[:2] == labels[2:] and idx[:2] == idx[2:] and u["interior"][0] == u["interior"][1]
                scale = float(d * d - 1)
            want = scale if diagonal else 0.0
            if abs(u["trace"] - want) > VALUE_RTOL * scale:
                return f"unit {labels} {idx} {u['interior']}: trace {u['trace']}, expected {want}"
        return None

    return oracle


def check(job: Job, returncode: int, stdout: bytes, ref: dict | None) -> str | None:
    """Exit code, parse and oracle of one job's output."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        return job.oracle(doc, ref)
    except (KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


# ----------------------------------------------------------------------------
# workloads


def _verify(p, d, checks):
    return Job(_cli(p, d, "verify", "--suite", "all"), verify_oracle(checks))


def _brute(p, d, k):
    return Job(_cli(p, d, "spectrum", "--level", k, "--method", "brute"), brute_oracle)


def _units(p, d, n):
    return Job(_cli(p, d, "units"), units_oracle(n))


def _analytic(p, d):
    return Job(_cli(p, d, "spectrum"), trace_identity)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_3_3",
            "the paper's acceptance run; all-pairs unit composition through lowrank dominates",
            _cli(2, 2, "verify", "--suite", "all"),
            (_verify(3, 3, 39),),
        ),
        Workload(
            "brute_3_4",
            "dense twirl over S_3 x S_3 and eigvalsh at dim 4096; bypasses lowrank",
            _cli(3, 4, "spectrum", "--level", 2),
            (_brute(3, 4, 2),),
        ),
        Workload(
            "units_3_4",
            "builds all 360 units and composes none; the construction side of lowrank",
            _cli(2, 2, "units"),
            (_units(3, 4, 360),),
        ),
        Workload(
            "analytic_sweep",
            "exact analytic spectra far beyond brute force, shape count against d",
            _cli(4, 3, "spectrum"),
            tuple(_analytic(p, d) for p, d in ((12, 12), (16, 8), (20, 6), (22, 3))),
        ),
    )
}

# The same job shapes at desk scale, for the harness self-test.
SMALL = {
    "verify": _verify(2, 3, 37),
    "brute": _brute(2, 3, 1),
    "brute_reference": _cli(2, 3, "spectrum", "--level", 1),
    "units": _units(2, 3, 20),
    "analytic": _analytic(2, 3),
}
