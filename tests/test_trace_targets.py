"""The benchmark's traced per-layer metrics stay bound to the package.

``bench/tracer.py`` wraps boundlab functions by module and name, so a change
that removes or renames a wrapped target makes its metrics read null and the
traced benchmark run stops being a result.  This runs the traced workloads'
commands at small sizes under the tracer and checks that every per-layer
metric of ``BENCHMARK.json`` is measured.
"""

import json
import weakref
from pathlib import Path

from boundlab import assembly, cli

ROOT = Path(__file__).resolve().parents[1]

# metrics that run_bench.py computes itself instead of reading the trace table
RUNNER_METRICS = {"trace_overhead_s", "cli.report_bytes"}


def test_every_per_layer_metric_is_measured(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer

    # fresh workspaces, so each level's operators and coarse factorization are
    # built inside the traced run whatever ran earlier in this process
    monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
    recorder = tracer.Tracer()
    recorder.install()
    try:
        statuses = [
            cli.main(["verify", "--suite", "chain", "--n", "2,4", "--samples", "4", "--seed", "7",
                      "--output", str(tmp_path / "chain.json")]),
            cli.main(["sweep", "--p", "2", "--n", "4,8", "--seed", "11",
                      "--output", str(tmp_path / "sweep.json")]),
        ]
    finally:
        recorder.uninstall()
    assert statuses == [0, 0]

    table = recorder.table()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unmeasured = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        value, reason = tracer.layer_metric(name, table)
        if name not in RUNNER_METRICS and value is None:
            unmeasured[name] = reason
    assert unmeasured == {}
    assert tracer.layer_metric("linear_solver.pcg.calls", table)[0] > 0
    # iterations are counted from _pcg's result, so a lost count reads as 0
    assert tracer.layer_metric("linear_solver.pcg.iterations", table)[0] > 0
    assert tracer.layer_metric("nonlinear.splu.calls", table)[0] > 0
