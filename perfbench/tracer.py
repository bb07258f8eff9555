"""Run one ``walledbrauer`` CLI job with a span recorded around every layer call.

Usage: ``python perfbench/tracer.py SPANS_BASE CLI_ARG...``

The program is not modified: after importing the package, this script
replaces the public functions of each layer module (and the methods of
``FactoredOperator`` and ``DenseOperator``) with recording wrappers, also
where another module re-bound them with ``from .x import y`` or keeps them in
a dict such as ``checks.SUITES``.  Each call becomes one span (name, start,
end, parent).  Spans stay in memory and are written out when the job ends,
to ``SPANS_BASE.npz`` (arrays) and ``SPANS_BASE.json`` (span names, counters,
``cache_info()`` of the memoized functions).  The job's stdout and exit code
are those of the plain CLI.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
import types
from array import array

LAYERS = (
    "partitions",
    "symgroup",
    "tensorspace",
    "matrix_units",
    "lowrank",
    "ideal_units",
    "spectra",
    "checks",
    "cli",
)
CLASSES = {"lowrank": ("FactoredOperator",), "tensorspace": ("DenseOperator",)}
OPERATORS = {"__matmul__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}
ROOT = "cli.main"
EIGVALSH = "spectra.eigvalsh"  # numpy call whose time the brute spectrum is made of


class Recorder:
    """Span store plus the counters that the hooks fill in."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.seen: dict = {}
        self.caches: dict[str, object] = {}

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, hook=None):
        nid = self.intern(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


# ----------------------------------------------------------------------------
# hooks: counts recorded at the layer boundary, after the call returns


def _frobenius(rec, args, result):
    rec.add("frobenius_rank_sum", args[0].rank_bound)


def _twirl(rec, args, result):
    rec.add("twirl_conjugations", math.factorial(args[0].n // 2) ** 2)


def _rho(rec, args, result):
    rec.seen.setdefault("rho", {})[tuple(args[:3])] = result  # the lru cache keeps it alive anyway


def _overlaps(rec, args, result):
    rec.add("overlap_records", len(result))


def _bmatrix(rec, args, result):
    rec.seen.setdefault("bmatrix", {})[tuple(args[:3])] = result.size > 0


def _labels(kind):
    def hook(rec, args, result):
        rec.seen.setdefault(kind, {})[tuple(args[:2])] = len(result)

    return hook


def _run_suite(rec, args, result):
    rec.add("checks_count", len(result))
    worst = max((r.residual / r.tolerance for r in result if r.tolerance > 0), default=0.0)
    rec.counters["checks_worst_ratio"] = max(rec.counters.get("checks_worst_ratio", 0.0), worst)


def _composition(rec, args, result):
    rec.seen.setdefault("composition", {})[tuple(args[:2])] = True


def _dense_init(rec, args, result):
    _self, d, n = args[:3]
    rec.add("dense_bytes", (d**n) ** 2 * 8)


HOOKS = {
    "lowrank.FactoredOperator.frobenius_norm": _frobenius,
    "spectra.twirl": _twirl,
    "spectra.rho": _rho,
    "spectra.analytic_overlaps": _overlaps,
    "ideal_units.B_matrix": _bmatrix,
    "ideal_units.top_row_labels": _labels("top_labels"),
    "ideal_units.sub_row_labels": _labels("sub_labels"),
    "checks.run_suite": _run_suite,
    "checks.suite_composition": _composition,
    "tensorspace.DenseOperator.__init__": _dense_init,
}


# ----------------------------------------------------------------------------
# installing the wrappers


def _is_layer_function(obj, module_name: str) -> bool:
    """A plain or memoized function defined in the module (not imported into it)."""
    return (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")) and getattr(
        obj, "__module__", None
    ) == module_name


def install(rec: Recorder) -> dict:
    """Wrap every layer's public functions and return the layer modules."""
    modules = {name: importlib.import_module(f"walledbrauer.{name}") for name in LAYERS}
    replaced = {}  # id of the original -> its wrapper; the wrappers keep the originals alive
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _is_layer_function(obj, mod.__name__):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = rec.wrap(obj, name, HOOKS.get(name))
            if hasattr(obj, "cache_info"):
                rec.caches[name] = obj
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for attr, obj in list(vars(cls).items()):
                fn = getattr(obj, "__func__", obj)
                if not isinstance(fn, types.FunctionType):
                    continue
                name = f"{layer}.{cls_name}.{fn.__name__}"
                if isinstance(obj, classmethod):
                    setattr(cls, attr, classmethod(rec.wrap(obj.__func__, name, HOOKS.get(name))))
                elif not attr.startswith("_") or attr in OPERATORS or name in HOOKS:
                    setattr(cls, attr, rec.wrap(obj, name, HOOKS.get(name)))
    # re-bind the wrapped names wherever the package holds a reference to them
    package = [importlib.import_module("walledbrauer"), *modules.values()]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
            elif id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    import numpy.linalg

    numpy.linalg.eigvalsh = rec.wrap(numpy.linalg.eigvalsh, EIGVALSH)
    return modules


# ----------------------------------------------------------------------------
# writing out


def dump(rec: Recorder, base: str):
    import numpy as np

    np.savez(
        base + ".npz",
        name=np.frombuffer(rec.name, dtype=np.int32),
        parent=np.frombuffer(rec.parent, dtype=np.int32),
        start=np.frombuffer(rec.start, dtype=np.float64),
        end=np.frombuffer(rec.end, dtype=np.float64),
    )
    counters = dict(rec.counters)
    rho = rec.seen.get("rho", {})
    counters["rho_nnz"] = int(sum(np.count_nonzero(op.matrix) for op in rho.values()))
    counters["distinct_pairings"] = sum(math.comb(p, k) ** 2 * math.factorial(k) for k, p, _ in rho)
    bm = rec.seen.get("bmatrix", {})
    counters["bmatrix_builds"] = len(bm)
    counters["bmatrix_nonempty"] = sum(bm.values())
    top, sub = rec.seen.get("top_labels", {}), rec.seen.get("sub_labels", {})
    counters["labels"] = sum(top.values()) + sum(sub.values())
    counters["units"] = sum(n * n for n in top.values()) + sum(n * n for n in sub.values())
    counters["composition_pairs"] = sum(
        top.get(key, 0) ** 4 + sub.get(key, 0) ** 4 for key in rec.seen.get("composition", {})
    )
    caches = {name: list(fn.cache_info()[:2]) for name, fn in rec.caches.items()}
    with open(base + ".json", "w") as fh:
        json.dump({"names": rec.names, "counters": counters, "caches": caches}, fh, sort_keys=True)


def main(argv: list[str]) -> None:
    base, cli_args = argv[0], argv[1:]
    rec = Recorder()
    modules = install(rec)
    main_span = rec.wrap(modules["cli"].main.main, ROOT)
    try:
        main_span(args=cli_args, prog_name="walledbrauer")
    finally:
        dump(rec, base)


if __name__ == "__main__":
    main(sys.argv[1:])
