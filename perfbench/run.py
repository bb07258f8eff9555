"""Benchmark of the ``walledbrauer`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload, one row each

Each job of a workload runs in a fresh child interpreter, one child at a
time, with BLAS and OpenMP pinned to one thread and ``PYTHONHASHSEED`` fixed,
because a CLI user pays the cold start on every call.  Set-up runs one
untimed warm-up job (bytecode compilation, which users do not pay on every
call) and times the import of ``walledbrauer.cli`` in several fresh children.
Then whole passes over the job list repeat until the next pass would end
after ``--seconds``; there is always at least one.  Every job's output goes
through its workload's oracle (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics (medians over the run's
samples); ``--trace 1`` alternates untraced passes with passes run under
``tracer.py`` and reports the per-layer metrics of ``layers.py``.  The seed
only orders the jobs and workloads; the program's inputs are fixed.  The
last line of stdout is one JSON object; the human-readable rows and the
recorded environment go to stderr and to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
JOB_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
ENTRY = "import sys; from walledbrauer.cli import main; sys.exit(main())"  # the console script
IMPORT = "import walledbrauer.cli"
PROBE = """
import json, os, platform, numpy, walledbrauer
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": len(os.sched_getaffinity(0)),
                  "package": walledbrauer.__file__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: bytes


def spawn(args: list[str], tag: str) -> Child:
    """Run ``python ARGS`` to completion; time it and read its rusage with wait4."""
    out, err = OUT / f"{tag}.out", OUT / f"{tag}.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timer = threading.Timer(JOB_TIMEOUT_S, _kill, (pidfd,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        timer.join()
        os.close(pidfd)
    return Child(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out.read_bytes(),
    )


def _kill(pidfd: int):
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    output_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    raw: Counter = field(default_factory=Counter)


class Bench:
    def __init__(self, workload: Workload, rng: random.Random):
        self.w = workload
        self.rng = rng
        self.passes: list[Pass] = []
        self.setup: list[float] = []
        self.env: dict = {}
        self.reference = None

    def set_up(self, setup_samples: int):
        probe = spawn(["-c", PROBE], f"{self.w.name}.probe")
        if probe.returncode != 0:
            sys.exit(f"error: cannot import walledbrauer from {SRC}")
        self.env = json.loads(probe.stdout)
        if not Path(self.env["package"]).resolve().is_relative_to(SRC):
            sys.exit(f"error: walledbrauer imported from {self.env['package']}, not from {SRC}")
        warm = spawn(["-c", ENTRY, *self.w.warmup], f"{self.w.name}.warmup")
        if warm.returncode == 0:
            self.reference = json.loads(warm.stdout)
        self.setup = [spawn(["-c", IMPORT], f"{self.w.name}.setup").wall for _ in range(setup_samples)]

    def run_pass(self, traced: bool) -> Pass:
        jobs = list(self.w.jobs)
        self.rng.shuffle(jobs)
        result = Pass(traced)
        for n, job in enumerate(jobs):
            tag = f"{self.w.name}.{n}"
            if traced:
                child = spawn([str(HERE / "tracer.py"), str(OUT / tag), *job.argv], tag)
            else:
                child = spawn(["-c", ENTRY, *job.argv], tag)
            result.wall += child.wall
            result.cpu += child.cpu
            result.rss_mib = max(result.rss_mib, child.rss_mib)
            result.output_bytes += len(child.stdout)
            reason = check(job, child.returncode, child.stdout, self.reference)
            if reason:
                result.failures.append(f"{' '.join(job.argv)}: {reason}")
            if traced:
                result.raw = layers.combine(result.raw, layers.read_job(str(OUT / tag)))
        self.passes.append(result)
        return result

    def measure(self, seconds: float, trace: bool):
        """Whole passes (or untraced/traced pairs) until the next would overrun ``seconds``."""
        start = time.perf_counter()
        rounds = []
        while True:
            t0 = time.perf_counter()
            self.run_pass(False)
            if trace:
                self.run_pass(True)
            rounds.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(rounds) > seconds:
                break

    @property
    def attempted(self) -> int:
        return len(self.w.jobs) * len(self.passes)

    @property
    def failures(self) -> list[str]:
        return [f for p in self.passes for f in p.failures]

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        plain = [p for p in self.passes if not p.traced]
        samples = {
            "setup_s": self.setup,
            "wall_s": [p.wall for p in plain],
            "cpu_s": [p.cpu for p in plain],
            "peak_rss_mb": [p.rss_mib for p in plain],
        }
        return {name: (statistics.median(samples[name]), unit, len(samples[name])) for name, unit in END_TO_END}

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        plain = [p.wall for p in self.passes if not p.traced]
        traced = [p for p in self.passes if p.traced]
        samples = [layers.layer_metrics(p.raw, p.wall, p.output_bytes) for p in traced]
        out = {
            name: (statistics.median(s[name] for s in samples), layers.UNITS[name], len(samples))
            for name in samples[0]
        }
        overhead = statistics.median(p.wall for p in traced) - statistics.median(plain)
        out["trace.overhead_s"] = (overhead, "s", len(traced))
        return out

    def result(self, trace: bool) -> tuple[dict, dict]:
        metrics = self.per_layer() if trace else self.end_to_end()
        failed = len(self.failures)
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
        }, metrics


def report(name: str, metrics: dict, bench: Bench):
    failed = len(bench.failures)
    print(f"[{name}] env {json.dumps(bench.env, sort_keys=True)}", file=sys.stderr)
    for metric, (value, unit, n) in metrics.items():
        label = " computed" if metric in layers.COMPUTED else ""
        print(f"[{name}] {metric:42s} {value:14.6g} {unit:6s} n={n}{label}", file=sys.stderr)
    print(
        f"[{name}] {'failed_ratio':42s} {failed / bench.attempted:14.6g} {'ratio':6s} n={bench.attempted}",
        file=sys.stderr,
    )
    for reason in bench.failures:
        print(f"[{name}] FAILED {reason}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Bench]:
    bench = Bench(WORKLOADS[name], random.Random(seed))
    bench.set_up(0 if trace else SETUP_SAMPLES)
    bench.measure(seconds, trace)
    result, metrics = bench.result(trace)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": bench.env,
              "result": result, "setup_samples": bench.setup, "failures": bench.failures,
              "passes": [{"traced": p.traced, "wall": p.wall, "cpu": p.cpu, "rss_mib": p.rss_mib}
                         for p in bench.passes]}
    (OUT / f"{name}.trace{int(trace)}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    report(name, metrics, bench)
    return result, metrics, bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "walledbrauer" / "cli.py").is_file():
        print(f"error: no walledbrauer sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result, _, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    names = list(WORKLOADS)
    random.Random(args.seed).shuffle(names)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name in names:
        _, metrics, bench = results[name]
        cells = [f"{m}={v:.4g} {u} (n={n})" for m, (v, u, n) in metrics.items()]
        cells.append(f"failed_ratio={len(bench.failures) / bench.attempted:.4g} (n={bench.attempted})")
        print(f"{name:15s} " + "  ".join(cells))
    print(json.dumps({name: results[name][0] for name in names}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
