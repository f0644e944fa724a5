"""boundlab benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run_bench.py --workload chain --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the workloads are in ``bench/workloads.json``.
The load is a closed loop with one client: one ``boundlab`` CLI process at a
time, each a fresh interpreter (users pay import and mesh construction on
every invocation), with BLAS/OpenMP threads capped.

``--trace 0`` first runs a few import-only probes, then CLI processes for
about ``--seconds`` (a process starts while at least half of its expected
duration fits in the window), and reports ``wall_s`` (spawn to exit),
``setup_s`` (interpreter start plus ``import boundlab.cli``, measured inside
the child) and ``peak_rss_mb`` (from ``wait4``), each the median over the run.

``--trace 1`` runs the same untraced loop, then one more CLI process with
timing wrappers installed around every boundlab module (``tracer.py``), and
reports the per-layer table plus ``trace_overhead_s``, the traced wall time
minus the untraced median.

Every report goes through the correctness gate (``gate.py``): exit status 0,
certified residuals, byte-identical reports within the run, and, at the
workload's default seed, a record-by-record match with
``bench/reference/<workload>.json``.  A process failing any check counts in
``failed``; ``fail_rate`` is ``failed / attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(samples, quartiles, environment, per-level span table) is written to
``bench/results/BENCH_<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import gate
from tracer import layer_metric

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_PROBES = 3              # import-only processes per run, after one warm-up
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_DEADLINE_S = 170.0        # every child is killed by then


@dataclass
class Child:
    """One finished child process and what it left behind."""

    mode: str
    wall_s: float
    rss_mb: float
    setup_s: float | None
    report: bytes | None
    problems: list


class Runner:
    """Spawns child processes one at a time and reaps them with ``wait4``."""

    def __init__(self, tmp, deadline):
        self.tmp = Path(tmp)
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), BENCH_EXPECTED_SRC=str(SRC), **THREAD_CAPS)

    def spawn(self, mode, argv=(), trace_file=None):
        self.count += 1
        setup_file = self.tmp / f"setup{self.count}.json"
        report_file = self.tmp / f"report{self.count}.json"
        cli_argv = [*argv, "--output", str(report_file)] if argv else []
        extra = [str(trace_file)] if trace_file else []
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(setup_file), *extra, *cli_argv]
        env = dict(self.env, BENCH_SPAWN_NS=str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))
        with open(self.tmp / f"stderr{self.count}.txt", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                     os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
            err.seek(0)
            stderr = err.read().strip()
        problems = [] if proc.returncode == 0 else [f"exit status {proc.returncode}: {stderr[-500:]}"]
        setup_s = _read_json(setup_file, {}).get("setup_s")
        if setup_s is None and not problems:
            problems.append("child wrote no set-up time")
        report = report_file.read_bytes() if report_file.exists() else None
        if cli_argv and report is None and not problems:
            problems.append("no report written")
        return Child(mode, wall_s, usage.ru_maxrss / 1024.0, setup_s, report, problems)


def _read_json(path, default):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return default


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = sorted(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def gate_children(children, reference):
    """Run the correctness gate over every CLI child; fills ``problems``."""
    reports = [c.report for c in children if c.report is not None]
    canonical = collections.Counter(reports).most_common(1)[0][0] if reports else None
    for child in children:
        if child.report is None:
            continue
        child.problems += gate.check_report(child.report.decode(), reference)
        if child.report != canonical:
            child.problems.append("report differs in bytes from the other reports of this run")


def environment(seed, argv):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info
                              if line.startswith("model name")), None)
    except OSError:
        pass
    revision = None
    try:
        # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "boundlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "argv": argv,
        "thread_caps": THREAD_CAPS,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench_spec = ROOT / "BENCHMARK.json"
    if not (SRC / "boundlab" / "cli.py").is_file() or not bench_spec.is_file():
        print(f"no boundlab source tree under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    seeded = any("{seed}" in a for a in workload["argv"])
    seed = workload["default_seed"] if args.seed is None else args.seed
    argv = [a.replace("{seed}", str(seed)) for a in workload["argv"]]
    reference = None
    if not seeded or seed == workload["default_seed"]:
        reference = json.loads((BENCH_DIR / "reference" / f"{args.workload}.json").read_text())
    spec = json.loads(bench_spec.read_text())

    RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as tmp:
        runner = Runner(tmp, started + RUN_DEADLINE_S)
        runner.spawn("probe")                              # warm-up: bytecode caches
        probes = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
        # closed loop: the next process starts while at least half of its expected
        # duration still falls inside the window (the first one always runs)
        loop_start = time.monotonic()
        plain = [runner.spawn("plain", argv)]
        while True:
            expected = statistics.median(c.wall_s for c in plain)
            now = time.monotonic()
            if (now - loop_start + expected / 2 > args.seconds
                    or now + 3 * expected > runner.deadline):
                break
            plain.append(runner.spawn("plain", argv))
        traced, trace = None, None
        if args.trace:
            trace_file = Path(tmp) / "trace.json"
            traced = runner.spawn("trace", argv, trace_file=trace_file)
            trace = _read_json(trace_file, None)
            if trace is None and not traced.problems:
                traced.problems.append("traced run wrote no trace table")
    cli_children = plain + ([traced] if traced else [])
    gate_children(cli_children, reference)
    children = probes + cli_children
    failed = [c for c in children if c.problems]

    walls = summary([c.wall_s for c in plain])
    setups = summary([c.setup_s for c in probes + plain if c.setup_s is not None])
    rss = summary([c.rss_mb for c in plain])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics, unmeasured = {}, {}
    if args.trace:
        values = {"trace_overhead_s": traced.wall_s - walls["median"],
                  "cli.report_bytes": len(traced.report) if traced.report is not None else None}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in values:
                value, reason = values[name], None if values[name] is not None else "no report"
            elif trace is None:
                value, reason = None, "traced run failed"
            else:
                value, reason = layer_metric(name, trace)
            metrics[name] = {"value": value, "unit": m["unit"]}
            if reason:
                unmeasured[name] = reason
    else:
        values = {"wall_s": walls["median"], "setup_s": setups["median"], "peak_rss_mb": rss["median"]}
        metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    fail_rate = len(failed) / len(children)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(seed, argv),
        "reference_compared": reference is not None,
        "summaries": {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss},
        "samples": {
            "wall_s": [c.wall_s for c in plain],
            "setup_s": [c.setup_s for c in probes + plain],
            "peak_rss_mb": [c.rss_mb for c in plain],
        },
        "fail_rate": fail_rate,
        "failures": [{"mode": c.mode, "problems": c.problems} for c in failed],
        "metrics": metrics,
        "unmeasured": unmeasured,
    }
    if traced is not None:
        record["traced_wall_s"] = traced.wall_s
        record["trace"] = trace
    label = "default" if seed is None else seed
    out = RESULTS_DIR / f"BENCH_{args.workload}-seed{label}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: boundlab {' '.join(argv)}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in record["environment"].items()
                                      if k not in ("argv", "thread_caps"))
          + f"  threads={THREAD_CAPS['OMP_NUM_THREADS']}")
    if reference is None:
        print(f"reference comparison skipped: seed {seed} is not the reference seed "
              f"{workload['default_seed']}")
    for name, s in record["summaries"].items():
        if s["n"]:
            print(f"{name:>12} {s['median']:.4f} {units.get(name, '')}  "
                  f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    print(f"{'fail_rate':>12} {fail_rate:.4f}  ({len(failed)} of {len(children)} processes)")
    for c in failed:
        print(f"FAILED {c.mode}: {'; '.join(c.problems)}")
    if args.trace:
        for name, m in metrics.items():
            value = m["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:>44} {shown} {m['unit']}" + (f"  ({unmeasured[name]})" if name in unmeasured else ""))
        by_level = (trace or {}).get("by_level", {})
        for level in sorted(by_level, key=lambda n: int(n) if n.isdigit() else float("inf")):
            rows = by_level[level]
            layers = collections.Counter()
            for function, row in rows.items():
                layers[function.partition(".")[0]] += row["self_s"]
            print(f"self_s at n={level}: " + "  ".join(f"{k} {v:.3f}" for k, v in layers.most_common()))
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
