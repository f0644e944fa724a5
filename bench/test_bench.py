"""Tests of the benchmark's own machinery: span arithmetic, patching, gate."""

import copy
import json
import sys
import types
from pathlib import Path

import pytest

import gate
from tracer import Tracer, aggregate, layer_metric, self_times

REFERENCE = Path(__file__).resolve().parent / "reference"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    spans = [
        ("a", None, 0.0, 10.0, None),
        ("b", 0, 1.0, 4.0, 8),
        ("c", 1, 2.0, 3.0, 8),
        ("d", 0, 5.0, 9.0, 16),
        ("c", 3, 6.0, 8.5, 16),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    by_name, by_level = aggregate(spans)
    assert by_name["c"] == pytest.approx({"calls": 2, "self_s": 3.5, "total_s": 3.5})
    assert by_name["a"]["total_s"] == pytest.approx(10.0)
    assert by_level["16"]["c"] == pytest.approx({"calls": 1, "self_s": 2.5})
    assert by_level["none"]["a"]["calls"] == 1


def test_wrappers_record_nesting_and_inherit_levels():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mesh = types.SimpleNamespace(n=16, tets=())

    def inner(x):
        clock.now += 1.0
        return x

    def outer(m):
        clock.now += 2.0
        w_inner(m.n)
        clock.now += 0.5

    w_inner = tracer.wrap("mod.inner", inner)
    tracer.wrap("mod.outer", outer)(mesh)
    table = tracer.table()
    assert table["by_name"]["mod.outer"] == pytest.approx({"calls": 1, "self_s": 2.5, "total_s": 3.5})
    assert table["by_level"]["16"]["mod.inner"] == pytest.approx({"calls": 1, "self_s": 1.0})


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.mesh`` defines build; ``fakepkg.norms`` imports it by name."""
    pkg = types.ModuleType("fakepkg")
    mesh = types.ModuleType("fakepkg.mesh")
    exec("def build(n):\n    return n * 2\n\ndef _private():\n    return 0\n", mesh.__dict__)
    mesh.build.__module__ = mesh._private.__module__ = "fakepkg.mesh"
    norms = types.ModuleType("fakepkg.norms")
    norms.build = mesh.build                     # from .mesh import build
    exec("def use(n):\n    return build(n) + 1\n", norms.__dict__)
    norms.use.__module__ = "fakepkg.norms"
    for name, mod in (("fakepkg", pkg), ("fakepkg.mesh", mesh), ("fakepkg.norms", norms)):
        monkeypatch.setitem(sys.modules, name, mod)
    return mesh, norms


def test_identity_patching_catches_from_import_binding(fake_package):
    mesh, norms = fake_package
    original = mesh.build
    tracer = Tracer(package="fakepkg")
    tracer.install()
    try:
        assert norms.build is mesh.build is not original
        assert mesh._private.__name__ == "_private"
        assert norms.use(3) == 7
    finally:
        tracer.uninstall()
    assert norms.build is original and mesh.build is original
    names = [span[0] for span in tracer.spans]
    assert names == ["norms.use", "mesh.build"]
    assert tracer.spans[1][1] == 0                # build's parent is use


def test_missing_names_yield_null_with_reason(fake_package):
    tracer = Tracer(package="fakepkg")
    tracer.install()
    tracer.uninstall()
    table = tracer.table()
    assert layer_metric("mesh.build.calls", table) == (0, None)
    for name in ("linear_solver.pcg.calls", "linear_solver.pcg.iterations",
                 "mesh.build_cube_mesh.self_s", "assembly.h1_operator.self_s", "cli.self_s"):
        value, reason = layer_metric(name, table)
        assert value is None and reason, name
    assert "not loaded" in layer_metric("cli.self_s", table)[1]


def _reference(name):
    return json.loads((REFERENCE / f"{name}.json").read_text())


@pytest.mark.parametrize("name", ["chain", "sweep", "regularity", "mesh32"])
def test_references_pass_their_own_gate(name):
    text = (REFERENCE / f"{name}.json").read_text()
    assert gate.check_report(text, _reference(name)) == []


def test_gate_rejects_perturbed_float():
    ref = _reference("sweep")
    doc = copy.deepcopy(ref)
    doc["records"][4]["rho"] *= 1 + 1e-4
    assert gate.check_report(json.dumps(doc), ref)
    doc["records"][4]["rho"] = ref["records"][4]["rho"] * (1 + 1e-9)
    assert gate.check_report(json.dumps(doc), ref) == []


def test_gate_rejects_flipped_verdict():
    ref = _reference("chain")
    doc = copy.deepcopy(ref)
    doc["records"][0]["verdict"] = "fail"
    assert any("verdict" in p for p in gate.check_report(json.dumps(doc), ref))


def test_gate_rejects_extra_record():
    ref = _reference("chain")
    doc = copy.deepcopy(ref)
    doc["records"].append(dict(doc["records"][-1]))
    assert gate.check_report(json.dumps(doc), ref)


def test_gate_holds_residuals_to_the_tolerance_not_to_equality():
    ref = _reference("sweep")
    doc = copy.deepcopy(ref)
    doc["records"][0]["weak_residual"] = 5e-9          # differs, but certified
    assert gate.check_report(json.dumps(doc), ref) == []
    doc["records"][0]["weak_residual"] = 2e-8          # above tol = 1e-8
    assert gate.check_report(json.dumps(doc), None)


def test_counter_hook_failure_makes_counters_null():
    tracer = Tracer(clock=FakeClock())
    pcg = tracer.wrap("linear_solver.pcg", lambda: "no tuple", tracer._on_pcg)
    tracer.wrapped.add("linear_solver.pcg")
    assert pcg() == "no tuple"
    table = tracer.table()
    assert layer_metric("linear_solver.pcg.calls", table) == (1, None)
    value, reason = layer_metric("linear_solver.pcg.iterations", table)
    assert value is None and "hook failed" in reason


def test_gate_rejects_unparsable_and_empty_reports():
    assert gate.check_report("not json")
    assert gate.check_report('{"records": []}')
    empty = {"header": {"config": {"tol": 1e-8}}, "records": []}
    assert gate.check_report(json.dumps(empty)) == ["report has no records"]
