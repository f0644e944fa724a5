import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boundlab import assembly, cli, linear_solver, norms, verify_chain
from boundlab import mesh as mesh_module
from boundlab.assembly import FemFunction
from boundlab.cli import main, parse_config, write_report
from boundlab.linear_solver import MANUFACTURED_CASES
from boundlab.mesh import build_cube_mesh
from boundlab.nonlinear import certify_solution, make_power_nonlinearity, solve_ground_state
from boundlab.norms import norm_h1, norm_linf, norm_lp, norm_w1m


def test_exponents_command(tmp_path, capsys):
    out = tmp_path / "exp.json"
    status = main(["exponents", "--N", "3", "--p", "2", "--output", str(out)])
    captured = capsys.readouterr().out
    assert status == 0
    assert "identities: pass" in captured
    assert "A=2" in captured
    doc = json.loads(out.read_text())
    assert doc["header"]["version"]
    assert doc["records"][0]["m"] == "9/2"
    assert doc["records"][0]["identities"] == "pass"


def test_exponents_rejects_bad_power(capsys):
    assert main(["exponents", "--N", "3", "--p", "5"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_mesh_info(tmp_path, capsys):
    dump = tmp_path / "mesh.txt"
    status = main(["mesh-info", "--n", "2", "--dump", str(dump)])
    out = capsys.readouterr().out
    assert status == 0
    assert "27 vertices" in out
    assert "integrity: pass" in out
    assert dump.exists()
    first = dump.read_text().splitlines()[0]
    assert first.startswith("v ")


# run in a fresh interpreter: prints the package layers loaded by the import,
# the statuses of every command run, and the scipy modules loaded after them
# and whether numpy.ma was
_NUMPY_ONLY_COMMANDS = """
import json, sys
import boundlab.cli as cli
layers = sorted(name for name in sys.modules if name.startswith("boundlab."))
out = sys.argv[1]
statuses = [cli.main(argv) for argv in (
    ["mesh-info", "--n", "2"],
    ["exponents", "--p", "2"],
    ["verify", "--suite", "chain", "--n", "2,4", "--samples", "4", "--seed", "7",
     "--output", out + "/chain.json"],
    ["verify", "--suite", "regularity", "--n", "4", "--samples", "4", "--seed", "7",
     "--output", out + "/regularity.json"],
    ["sweep", "--p", "2", "--n", "3,4,8", "--seed", "1", "--output", out + "/sweep.json"],
    ["solve-nonlinear", "--p", "2", "--n", "4", "--seed", "11", "--output", out + "/ground.json"],
    ["solve-linear", "--n", "2,4", "--output", out + "/linear.json"],
)]
scipy_modules = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"layers": layers, "statuses": statuses, "scipy": scipy_modules,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_numpy_only_commands_load_no_scipy(tmp_path, monkeypatch):
    # the benchmark tracer wraps the boundlab modules loaded by `import boundlab.cli`,
    # so all its layers load there.  The operators, the preconditioner (the DCT-I as
    # dense matrix products) and the Krylov solvers are numpy code, so no command
    # loads any scipy module: importing scipy.sparse.linalg alone takes about
    # 0.2 s and 25 MB.  No command loads numpy.ma either, which the plain path
    # of np.unique imports (14 ms and 1.3 MB)
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    from tracer import LAYERS

    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_COMMANDS, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert {f"boundlab.{layer}" for layer in LAYERS} <= set(loaded["layers"])
    assert loaded["statuses"] == [0] * 7
    assert loaded["scipy"] == []
    assert loaded["numpy.ma"] is False


def test_solve_linear_orders(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    status = main([
        "solve-linear", "--case", "exp-x1", "--n", "4,8,16",
        "--tol", "1e-10", "--output", str(out), "--format", "csv",
    ])
    assert status == 0
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 3
    orders_h1 = [float(r["h1_order"]) for r in rows[1:]]
    orders_l2 = [float(r["l2_order"]) for r in rows[1:]]
    assert all(o >= 0.9 for o in orders_h1)
    assert all(o >= 1.8 for o in orders_l2)


def test_solve_nonlinear(tmp_path, capsys):
    out = tmp_path / "gs.json"
    dump = tmp_path / "u.npy"
    status = main([
        "solve-nonlinear", "--p", "2", "--n", "4", "--tol", "1e-8",
        "--seed", "11", "--output", str(out), "--dump", str(dump),
    ])
    assert status == 0
    doc = json.loads(out.read_text())
    rec = doc["records"][0]
    assert rec["positive"] is True
    assert rec["weak_residual"] <= 1e-8
    assert np.load(dump).shape == (125,)


def test_solve_nonlinear_record_reads_the_certified_norm_row(tmp_path, monkeypatch):
    # the record's norms are the single-function norms of the solution, all from one table
    norm_table = verify_chain.norm_table
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return norm_table(*args, **kwargs)

    monkeypatch.setattr(verify_chain, "norm_table", counted)
    # the solved vector, to compare the dump with bit for bit
    solved = []

    def kept(*args):
        solved.append(solve_ground_state(*args))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_ground_state", kept)
    out, dump = tmp_path / "gs.json", tmp_path / "u.npy"
    assert main(["solve-nonlinear", "--p", "2", "--n", "8", "--seed", "11", "--output", str(out),
                 "--dump", str(dump)]) == 0
    assert len(calls) == 1
    rec = json.loads(out.read_text())["records"][0]
    assert list(rec) == [
        "p", "n", "multiplier", "weak_residual", "outer_iterations", "newton_iterations",
        "positive", "h1", "linf", "l_two_star_volume", "l_two_low_star_boundary", "w1m", "m",
        "linf_boundary", "q",
    ]
    values = np.load(dump)
    assert values.dtype == solved[0].solution.values.dtype
    assert values.tobytes() == solved[0].solution.values.tobytes()
    u = FemFunction(build_cube_mesh(8), values)
    assert certify_solution(u, make_power_nonlinearity(2.0), 1e-8).weak_residual <= 1e-8
    assert (rec["n"], rec["p"], rec["q"], rec["m"]) == (8, 2.0, 3.0, 4.5)
    assert rec["h1"] == norm_h1(u)
    assert rec["linf"] == norm_linf(u)
    assert rec["l_two_star_volume"] == norm_lp(u, 6.0)
    assert rec["l_two_low_star_boundary"] == norm_lp(u, 4.0, "boundary")
    assert rec["w1m"] == norm_w1m(u, 4.5)
    assert rec["linf_boundary"] == norm_linf(u, "boundary")


def test_solve_nonlinear_csv_row_equals_the_json_record(tmp_path):
    argv = ["solve-nonlinear", "--p", "2", "--n", "5", "--seed", "11", "--output"]
    assert main(argv + [str(tmp_path / "gs.json")]) == 0
    assert main(argv + [str(tmp_path / "gs.csv"), "--format", "csv"]) == 0
    with open(tmp_path / "gs.csv", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    (row,) = list(reader)
    assert None not in row and len(row) == len(reader.fieldnames) == 15
    (rec,) = json.loads((tmp_path / "gs.json").read_text())["records"]
    assert list(row) == list(rec)
    for key, value in rec.items():
        if isinstance(value, bool):
            assert row[key] == str(value), key
        else:
            assert float(row[key]) == value, key


def test_solve_nonlinear_dump_is_reproducible(tmp_path):
    argv = ["solve-nonlinear", "--p", "2", "--n", "5", "--seed", "11", "--dump"]
    assert main(argv + [str(tmp_path / "a.npy")]) == 0
    assert main(argv + [str(tmp_path / "b.npy")]) == 0
    assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
    assert np.load(tmp_path / "a.npy").shape == (216,)


def test_solve_nonlinear_unwritable_dump_is_status_3(tmp_path, capsys):
    out = tmp_path / "gs.json"
    status = main(["solve-nonlinear", "--p", "2", "--n", "2", "--seed", "11",
                   "--dump", "/nonexistent-dir/u.npy", "--output", str(out)])
    assert status == 3
    assert "i/o error" in capsys.readouterr().err
    assert not out.exists()


def test_verify_requires_seed(capsys):
    assert main(["verify", "--suite", "universal", "--n", "4"]) == 2
    assert "seed" in capsys.readouterr().err


def test_verify_universal_deterministic(tmp_path, capsys):
    args = ["verify", "--suite", "universal", "--n", "4", "--samples", "20", "--seed", "7"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_regularity_csv(tmp_path):
    out = tmp_path / "reg.csv"
    status = main([
        "verify", "--suite", "regularity", "--n", "2,4", "--samples", "2",
        "--seed", "5", "--output", str(out), "--format", "csv",
    ])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "n,sample,q,m,ratio_w1m,ratio_linf"
    assert len(lines) == 2 + 4


def test_verify_regularity_certifies_samples_at_tol(monkeypatch):
    # the sample certifications are the _pcg calls started from the basis combination
    pcg = linear_solver._pcg
    tols = []

    def recorded(matrix, rhs, tol, precond, x0=None, maxiter=None):
        if x0 is not None:
            tols.append(tol)
        return pcg(matrix, rhs, tol, precond, x0=x0, maxiter=maxiter)

    monkeypatch.setattr(linear_solver, "_pcg", recorded)
    argv = ["verify", "--suite", "regularity", "--n", "2,4", "--samples", "3", "--seed", "5"]
    assert main(argv + ["--tol", "1e-12"]) == 0
    assert tols == [1e-12] * 6
    tols.clear()
    assert main(argv) == 0
    assert tols == [1e-8] * 6


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"p_list": ["2"], "n_list": [2], "seed": 3, "samples": 5}))
    out = tmp_path / "rep.json"
    status = main([
        "--config", str(conf), "verify", "--suite", "universal",
        "--samples", "10", "--output", str(out),
    ])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["config"]["samples"] == 10  # flag wins
    assert doc["header"]["config"]["seed"] == 3      # file value survives


def test_verify_chain_suite(tmp_path, capsys):
    out = tmp_path / "chain.json"
    status = main([
        "verify", "--suite", "chain", "--n", "4", "--samples", "12",
        "--seed", "7", "--tol", "1e-8", "--output", str(out),
    ])
    assert status == 0
    doc = json.loads(out.read_text())
    steps = {r["step"] for r in doc["records"]}
    assert {
        "boundary_growth", "boundary_holder", "boundary_max_vs_volume_max",
        "gn_interpolation", "main_estimate", "h1_trace_bound",
        "norm_equivalence", "energy_bound",
    } <= steps
    verdicts = {r["step"]: r["verdict"] for r in doc["records"]}
    assert verdicts["h1_trace_bound"] == "pass"
    assert verdicts["energy_bound"] == "pass"


def test_verify_energy_and_equivalence_suites(tmp_path):
    for suite in ("energy", "equivalence"):
        out = tmp_path / f"{suite}.json"
        status = main([
            "verify", "--suite", suite, "--n", "4",
            "--seed", "7", "--tol", "1e-8", "--output", str(out),
        ])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["records"]


def test_sweep_deterministic_and_reports_c0(tmp_path, capsys):
    args = ["sweep", "--p", "2", "--n", "4", "--seed", "11", "--tol", "1e-8"]
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    rec = doc["records"][0]
    assert rec["fitted_C0"] == rec["rho"] > 0
    assert rec["trace_bound"] == "pass"


def test_sweep_summary_prints_small_constants_to_six_digits(tmp_path, capsys):
    # at p = 11/10 rho is about 1e-8, which six decimals would print as zero
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--p", "1.1", "--n", "4,8", "--seed", "3", "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = json.loads(out.read_text())["records"]
    assert len(lines) == len(records) + 1
    for line, rec in zip(lines, records):
        printed = dict(field.split("=") for field in line.split(": ")[1].split())
        for key in ("rho", "rho_hat", "fitted_C0"):
            assert 0 < rec[key] < 1e-6
            assert float(printed[key]) == pytest.approx(rec[key], rel=5e-6)
    assert float(lines[-1].split(": ")[1]) == pytest.approx(records[-1]["fitted_C0"], rel=5e-6)


def test_sweep_level_record_does_not_depend_on_coarser_levels(tmp_path, monkeypatch):
    # at p = 5/2 rho rises with n, so even fitted_C0 is level 16's own in both runs
    records = {}
    for n_list in ("8,16", "16"):
        # fresh workspaces, so neither run reuses the other's solves
        monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
        out = tmp_path / f"sweep-{n_list}.json"
        assert main(["sweep", "--p", "5/2", "--n", n_list, "--seed", "11",
                     "--output", str(out)]) == 0
        records[n_list] = json.loads(out.read_text())["records"][-1]
    assert records["8,16"]["n"] == 16
    # report floats read back exactly, so equal parsed records were written as equal values
    assert records["8,16"] == records["16"]


def test_write_report_round_trip(tmp_path):
    records = [{"name": "face (1, 4, 13)", "value": 1.0 / 3.0, "count": 2}]
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_report(records, "json", str(jpath), header={"version": "x"})
    write_report(records, "csv", str(cpath), header={"version": "x"})
    jdoc = json.loads(jpath.read_text())
    with open(cpath) as fh:
        crow = list(csv.DictReader(line for line in fh if not line.startswith("#")))[0]
    assert jdoc["records"][0]["value"] == float(crow["value"])
    assert jdoc["records"][0]["count"] == int(crow["count"])
    assert jdoc["records"][0]["name"] == crow["name"]
    # the shortest repr round-trips binary64 exactly
    assert float(crow["value"]) == 1.0 / 3.0


def test_write_report_round_trips_non_finite_floats(tmp_path):
    records = [{"nan": math.nan, "inf": math.inf, "minus_inf": -math.inf}]
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_report(records, "json", str(jpath), header={"version": "x"})
    write_report(records, "csv", str(cpath), header={"version": "x"})
    (jrec,) = json.loads(jpath.read_text())["records"]
    with open(cpath, newline="") as fh:
        (crow,) = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    for rec in (jrec, {key: float(text) for key, text in crow.items()}):
        assert math.isnan(rec["nan"])
        assert rec["inf"] == math.inf
        assert rec["minus_inf"] == -math.inf


def test_write_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_report([], "json", str(tmp_path / "x.json"))


def test_unwritable_output_is_status_3(capsys):
    status = main([
        "exponents", "--N", "3", "--p", "2",
        "--output", "/nonexistent-dir/report.json",
    ])
    assert status == 3


def test_unknown_command_is_usage_error(capsys):
    assert main([]) == 2


def test_parse_config_validates_lists():
    config = parse_config(["verify", "--suite", "gn", "--n", "2,4", "--p", "3/2", "--seed", "1"])
    assert config.n_list == (2, 4)
    assert str(config.p_list[0]) == "3/2"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--N", "4", "--p", "3/2", "--suite", "universal", "--n", "4",
         "--samples", "10", "--seed", "1"],
        ["sweep", "--N", "4", "--p", "3/2", "--n", "4", "--seed", "1"],
    ],
    ids=["verify", "sweep"],
)
def test_numeric_commands_require_three_dimensions(argv, capsys):
    # every mesh is the 3-D unit cube; only the exponent algebra reads --N
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]} does not read --N" in err


def test_exponents_accepts_other_dimensions(capsys):
    assert main(["exponents", "--N", "4", "--p", "3/2"]) == 0
    assert "identities: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entries",
    [{"sample": 10}, {"samples": "ten"}, {"p_list": ["1/0"]}, {"p_list": []},
     {"samples": 10.5}, {"seed": 7.5}, {"seed": True}, {"n_list": [4.7]}, [1, 2]],
    ids=["unknown-key", "non-numeric", "zero-denominator", "empty-list", "fractional-samples",
         "fractional-seed", "boolean-seed", "fractional-level", "not-an-object"],
)
def test_bad_config_file_entry_is_status_2(tmp_path, entries, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entries))
    argv = ["--config", str(conf), "verify", "--suite", "universal", "--n", "2", "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "entries",
    [{"n_list": "16", "p_list": "3/2,2", "q_override": "7/2", "tol": 1e-9, "seed": 11},
     {"n_list": [16], "p_list": ["3/2", 2], "q_override": 3.5, "tol": "1e-9", "seed": "11",
      "samples": None}],
    ids=["comma-text", "json-lists"],
)
def test_config_file_entries_parse_like_their_flags(tmp_path, entries):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entries))
    from_file = parse_config(["--config", str(conf), "sweep"])
    from_flags = parse_config(
        ["sweep", "--n", "16", "--p", "3/2,2", "--q", "7/2", "--tol", "1e-9", "--seed", "11"]
    )
    assert from_file.n_list == (16,)
    assert repr(dataclasses.asdict(from_file)) == repr(dataclasses.asdict(from_flags))


def test_csv_header_line_is_pinned(tmp_path):
    out = tmp_path / "rep.csv"
    argv = ["verify", "--suite", "chain", "--p", "3/2", "--q", "7/2", "--n", "2,4", "--samples", "5",
            "--seed", "11", "--tol", "1e-9", "--B0", "2", "--format", "csv", "--output", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[0] == (
        '# {"version": "0.1.0", "config": {"command": "verify", "N": 3, "p_list": ["3/2"], '
        '"q_override": "7/2", "n_list": [2, 4], "samples": 5, "seed": 11, '
        '"tol": 1e-09, "suite": "chain", "case": "exp-x1", "b0": 2.0}}'
    )


def test_argparse_error_is_status_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "four"])
    assert exc.value.code == 2


def test_bad_rational_flag_names_option_and_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exponents", "--q", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --q" in err and "'1/0'" in err


def test_bad_rational_config_entry_names_entry_and_text(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q_override": "1/0"}))
    assert main(["--config", str(conf), "exponents"]) == 2
    err = capsys.readouterr().err
    assert "'q_override'" in err and "'1/0'" in err


def test_uncertified_solution_is_status_1(monkeypatch, capsys):
    solve = cli.solve_ground_state

    def uncertified(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), weak_residual=1.0)

    monkeypatch.setattr(cli, "solve_ground_state", uncertified)
    assert main(["sweep", "--p", "2", "--n", "2", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "numerical fault" in err and "uncertified" in err


def test_no_cli_path_reads_a_whole_level_of_tets(tmp_path, monkeypatch):
    # level 12 has 10 368 tets, more than any block a reader takes (at most
    # 6144), so a read of every row at once would show here
    reads = []
    read = mesh_module._KuhnTets.__getitem__

    def recording(self, index):
        rows = read(self, index)
        reads.append((rows.reshape(-1, 4).shape[0], len(self)))
        return rows

    monkeypatch.setattr(mesh_module._KuhnTets, "__getitem__", recording)
    runs = [
        ["mesh-info", "--n", "12", "--dump", str(tmp_path / "mesh.txt")],
        ["solve-linear", "--n", "12"],
        ["solve-nonlinear", "--p", "2", "--n", "12", "--seed", "11"],
        ["verify", "--suite", "chain", "--n", "12", "--samples", "4", "--seed", "7"],
    ]
    for i, argv in enumerate(runs):
        assert main(argv + ["--output", str(tmp_path / f"report{i}.json")]) == 0
    assert reads and all(count < nt for count, nt in reads)


def test_degenerate_tet_is_status_1(monkeypatch, capsys):
    build = cli.build_cube_mesh

    def flipped(n):
        mesh = build(n)
        tets = mesh.tets[:]
        tets[0, [0, 1]] = tets[0, [1, 0]]
        return dataclasses.replace(mesh, tets=tets)

    monkeypatch.setattr(cli, "build_cube_mesh", flipped)
    assert main(["solve-nonlinear", "--p", "2", "--n", "2", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "numerical fault" in err and "degenerate tet" in err


def test_non_finite_boundary_field_is_status_1(monkeypatch, capsys):
    case = MANUFACTURED_CASES["exp-x1"]
    broken = dataclasses.replace(case, gradient=lambda pts: np.full(pts.shape, np.nan))
    monkeypatch.setitem(MANUFACTURED_CASES, "exp-x1", broken)
    assert main(["solve-linear", "--case", "exp-x1", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert "numerical fault" in err and "non-finite" in err


@pytest.mark.parametrize(
    "option",
    [["--tol", "nan"], ["--tol", "inf"], ["--seed", "-1"], ["--B0", "-1"], ["--B0", "nan"],
     ["--n", "2,2"], ["--p", "2,2"]],
    ids=["tol-nan", "tol-inf", "seed-negative", "B0-negative", "B0-nan", "n-repeated", "p-repeated"],
)
def test_invalid_numeric_option_is_status_2(option, capsys):
    argv = ["verify", "--suite", "chain", "--n", "2", "--samples", "4", "--seed", "1"] + option
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "energy", "--p", "2,5/2", "--n", "2", "--seed", "1"],
     ["solve-nonlinear", "--p", "2,5/2", "--n", "2", "--seed", "1"],
     ["solve-nonlinear", "--p", "2", "--n", "2,4", "--seed", "1"],
     ["mesh-info", "--n", "2,4"]],
    ids=["verify-p", "solve-nonlinear-p", "solve-nonlinear-n", "mesh-info-n"],
)
def test_single_valued_option_with_two_values_is_status_2(argv, capsys):
    assert main(argv) == 2
    assert "takes one" in capsys.readouterr().err


def _boundary_max_doubled(monkeypatch):
    norm_table = verify_chain.norm_table

    def doubled(*args, **kwargs):
        table = norm_table(*args, **kwargs)
        table["linf_boundary"] = 2.0 * table["linf_boundary"]
        return table

    monkeypatch.setattr(verify_chain, "norm_table", doubled)


def _patch_solution_row(monkeypatch, **changes):
    """Every solution-only step reads changes[key](row[key]) from its shared norm row."""
    solution_row = verify_chain.solution_row

    def changed(outcome, what):
        row = solution_row(outcome, what)
        return {**row, **{key: change(row[key]) for key, change in changes.items()}}

    monkeypatch.setattr(verify_chain, "solution_row", changed)


def _trace_bound_of_non_solution(monkeypatch):
    # the weak form tested with u itself no longer balances
    _patch_solution_row(monkeypatch, uf=lambda uf: 2.0 * uf)


def _energy_lowered(monkeypatch):
    # int_bnd F(u) one higher lowers J by one
    _patch_solution_row(monkeypatch, F=lambda F: F + 1.0)


@pytest.mark.parametrize(
    "break_step, step, where",
    [
        # a universal step names the first failing column of its corpus
        (_boundary_max_doubled, "boundary_max_vs_volume_max", "n=2 sample 0"),
        (_trace_bound_of_non_solution, "h1_trace_bound", "n=2"),
        (_energy_lowered, "energy_bound", "n=2"),
    ],
    ids=["universal", "h1-trace", "energy"],
)
def test_failing_step_is_status_1(break_step, step, where, monkeypatch, tmp_path, capsys):
    break_step(monkeypatch)
    out = tmp_path / "chain.json"
    argv = ["verify", "--suite", "chain", "--n", "2", "--samples", "4", "--seed", "7"]
    assert main(argv + ["--output", str(out)]) == 1
    fails = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1
    assert fails[0].startswith(f"FAIL: {step} at p=2 {where}: left=") and " right=" in fails[0]
    verdicts = {r["step"]: r["verdict"] for r in json.loads(out.read_text())["records"]}
    assert verdicts[step] == "fail"
    assert list(verdicts.values()).count("fail") == 1


def test_universal_failure_names_its_sample(monkeypatch, tmp_path, capsys):
    norm_table = verify_chain.norm_table

    def doubled(*args, **kwargs):
        # the boundary max of column 2 of the corpus's 4 only
        table = norm_table(*args, **kwargs)
        table["linf_boundary"][2] *= 2.0
        return table

    monkeypatch.setattr(verify_chain, "norm_table", doubled)
    out = tmp_path / "universal.json"
    argv = ["verify", "--suite", "universal", "--n", "2", "--samples", "4", "--seed", "7"]
    assert main(argv + ["--output", str(out)]) == 1
    fails = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1
    assert re.fullmatch(r"FAIL: boundary_max_vs_volume_max at p=2 n=2 sample 2: left=\S+ right=\S+", fails[0])
    verdicts = {r["step"]: r["verdict"] for r in json.loads(out.read_text())["records"]}
    assert verdicts == {"boundary_growth": "pass", "boundary_holder": "pass",
                        "boundary_max_vs_volume_max": "fail"}


def _main_estimate_nonfinite(monkeypatch):
    # a non-finite H1 norm makes the observed constant rho non-finite
    _patch_solution_row(monkeypatch, h1=lambda h1: math.nan)


@pytest.mark.parametrize(
    "break_step, step",
    [(_trace_bound_of_non_solution, "h1_trace_bound"), (_main_estimate_nonfinite, "main_estimate")],
    ids=["h1-trace", "nonfinite-main-estimate"],
)
@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "chain", "--n", "2", "--samples", "4", "--seed", "7"],
     ["sweep", "--p", "2", "--n", "2", "--seed", "1"]],
    ids=["verify", "sweep"],
)
def test_verify_and_sweep_fail_by_one_rule(argv, break_step, step, monkeypatch, tmp_path, capsys):
    break_step(monkeypatch)
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out)]) == 1
    fails = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1
    assert re.fullmatch(rf"FAIL: {step} at p=2 n=2: left=\S+ right=\S+", fails[0])
    assert out.exists()


def test_each_level_builds_its_corpus_once(monkeypatch):
    levels = []
    build_corpus = verify_chain.build_corpus

    def counted(mesh, *args, **kwargs):
        levels.append(mesh.n)
        return build_corpus(mesh, *args, **kwargs)

    monkeypatch.setattr(cli, "build_corpus", counted)
    monkeypatch.setattr(verify_chain, "build_corpus", counted)
    assert main(["verify", "--suite", "chain", "--n", "2,4", "--samples", "8", "--seed", "7"]) == 0
    assert levels == [2, 4]


def test_norm_table_runs_once_per_corpus_and_per_solution(monkeypatch):
    # fresh workspaces, so each level's ground state and its norm row are made in this run
    monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
    norm_table = norms.norm_table
    calls = {"table": [], "exact": [], "row": []}

    def counted(mesh, values, **exponents):
        if np.ndim(values) == 1:
            calls["row"].append((mesh.n, 1))
        else:
            calls["exact" if exponents.get("w1m") else "table"].append((mesh.n, np.shape(values)[1]))
        return norm_table(mesh, values, **exponents)

    for module in (norms, verify_chain):
        monkeypatch.setattr(module, "norm_table", counted)
    assert main(["verify", "--suite", "chain", "--n", "2,4", "--samples", "8", "--seed", "7"]) == 0
    # one full-width table per corpus (8 columns), one exact W^{1,m} pass per
    # corpus on the columns its bounds keep, and one row per ground state
    assert sorted(calls["table"]) == [(2, 8), (4, 8)]
    assert [n for n, _ in sorted(calls["exact"])] == [2, 4]
    assert all(0 < columns < 8 for _, columns in calls["exact"])
    assert sorted(calls["row"]) == [(2, 1), (4, 1)]


def test_gn_rows_name_the_branch_like_universal_rows(tmp_path):
    # with one sample both suites see only the ground state, on the sup<=1 side
    out = tmp_path / "chain.json"
    argv = ["verify", "--suite", "chain", "--n", "2,4", "--samples", "1", "--seed", "7"]
    assert main(argv + ["--output", str(out)]) == 0
    rows = json.loads(out.read_text())["records"]
    for n in (2, 4):
        branches = {r["step"]: r["branch"] for r in rows if r["n"] == n}
        assert branches["gn_interpolation"] == branches["boundary_growth"] == "sup<=1"


# the config fields each command reads, and those verify reads for one suite only
READS = {
    "exponents": {"N", "p_list", "q_override", "output", "fmt"},
    "mesh-info": {"n_list", "dump", "output", "fmt"},
    "solve-linear": {"n_list", "tol", "case", "output", "fmt"},
    "solve-nonlinear": {"p_list", "q_override", "n_list", "seed", "tol", "dump", "output", "fmt"},
    "sweep": {"p_list", "q_override", "n_list", "seed", "tol", "output", "fmt"},
    "verify": {"p_list", "q_override", "n_list", "seed", "suite", "output", "fmt"},
}
SUITE_READS = {
    "universal": {"samples", "b0"},
    "gn": {"samples", "tol"},
    "regularity": {"samples", "tol"},
    "chain": {"samples", "b0", "tol"},
    "energy": {"tol"},
    "equivalence": {"tol"},
}
# each config field's flag and a valid text for it (output and dump are paths)
FLAGS = {
    "N": ("--N", "3"), "p_list": ("--p", "2"), "q_override": ("--q", "3"), "n_list": ("--n", "2"),
    "samples": ("--samples", "2"), "seed": ("--seed", "1"), "tol": ("--tol", "1e-9"),
    "b0": ("--B0", "2"), "output": ("--output", None), "fmt": ("--format", "csv"),
    "case": ("--case", "exp-x1x2"), "suite": ("--suite", None), "dump": ("--dump", None),
}
# (command, suite) of every command, and of verify once per suite
TARGETS = [(command, None) for command in READS if command != "verify"]
TARGETS += [("verify", suite) for suite in SUITE_READS]


def _reads(command, suite):
    return READS[command] | SUITE_READS[suite] if suite else READS[command]


def _settings(command, suite, tmp_path):
    """Field texts of a valid run: the options the command needs, and a value for every field."""
    texts = {key: text for key, (_, text) in FLAGS.items()}
    texts.update(output=str(tmp_path / "report.csv"), dump=str(tmp_path / "dump"), suite=suite or "chain")
    required = {"p_list", "n_list", "seed", "suite"} & _reads(command, suite)
    return texts, {key: texts[key] for key in required}


def _argv(command, fields):
    return [command] + [text for key, value in fields.items() for text in (FLAGS[key][0], value)]


def _ids(pairs):
    return [f"{suite or command}-{key}" for (command, suite), key in pairs]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(cli._COMMANDS),
    suite=st.sampled_from(cli._SUITES),
    n=st.sampled_from(["1", "2"]),
    samples=st.integers(1, 4),
    seed=st.sampled_from(["-1", "0", "7"]),
    tol=st.sampled_from(["1e-8", "0", "nan", "inf"]),
    b0=st.sampled_from(["1", "0", "-1", "nan"]),
)
def test_exit_status_property(command, suite, n, samples, seed, tol, b0):
    # each option is passed where its command (and suite) reads it
    reads = _reads(command, suite if command == "verify" else None)
    options = {"n_list": ("--n", n), "samples": ("--samples", str(samples)), "seed": ("--seed", seed),
               "tol": ("--tol", tol), "b0": ("--B0", b0)}
    argv = [command] + [text for key, flag in options.items() if key in reads for text in flag]
    if command == "verify":
        argv += ["--suite", suite]
    invalid = (("seed" in reads and seed == "-1") or ("tol" in reads and tol != "1e-8")
               or ("b0" in reads and b0 != "1"))
    assert main(argv) in ({2} if invalid else {0, 1})


UNREAD = [(target, key) for target in TARGETS for key in FLAGS if key not in _reads(*target)]
READ = [(target, key) for target in TARGETS for key in FLAGS if key in _reads(*target)]


@pytest.mark.parametrize("target, key", UNREAD, ids=_ids(UNREAD))
@pytest.mark.parametrize("how", ["flag", "config"])
def test_unread_option_is_status_2_and_writes_nothing(target, key, how, tmp_path, capsys):
    command, suite = target
    texts, fields = _settings(command, suite, tmp_path)
    # ask for every file the command writes, to see that none is written
    fields.update({name: texts[name] for name in ("output", "dump") if name in _reads(command, suite)})
    if how == "flag":
        argv = _argv(command, {**fields, key: texts[key]})
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: texts[key]}))
        argv = ["--config", str(conf)] + _argv(command, fields)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"{command} " in err and f"{FLAGS[key][0]} " in err
    if suite and key in ("samples", "tol", "b0"):
        assert f"--suite {suite} " in err
    assert sorted(tmp_path.iterdir()) == ([conf] if how == "config" else [])


@pytest.mark.parametrize("target, key", READ, ids=_ids(READ))
def test_read_option_parses_as_flag_and_as_config_entry(target, key, tmp_path):
    command, suite = target
    texts, fields = _settings(command, suite, tmp_path)
    from_flag = parse_config(_argv(command, {**fields, key: texts[key]}))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: texts[key]}))
    fields.pop(key, None)
    from_file = parse_config(["--config", str(conf)] + _argv(command, fields))
    assert repr(dataclasses.asdict(from_file)) == repr(dataclasses.asdict(from_flag))


@pytest.mark.parametrize("command", list(READS))
def test_help_lists_only_the_options_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[A-Za-z]\w*", capsys.readouterr().out))
    suites = SUITE_READS.values() if command == "verify" else [set()]
    assert listed == {"--help"} | {FLAGS[key][0] for key in READS[command].union(*suites)}


BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_bench_workload_parses_to_its_reference_header(workload):
    # the benchmark gate compares a workload's header config with its reference exactly
    spec = WORKLOADS[workload]
    argv = [arg.replace("{seed}", str(spec["default_seed"])) for arg in spec["argv"]]
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    config = json.loads(json.dumps(parse_config(argv).as_dict(), default=str))
    assert config == reference["header"]["config"]
