"""Batch entry point: experiment configuration, orchestration, reports.

Reports hold scalars only, in a fixed field order, written by the standard
library's JSON and CSV encoders: a float is its shortest repr, which reads back
exactly, and a non-finite one is NaN or Infinity.  So for a fixed BLAS thread
count one (config, seed) pair maps to one byte sequence; nothing time- or
machine-dependent is embedded.  Exit codes:
0 all asserted checks pass, 1 a check or solve failed or a numerical fault,
2 usage error, 3 output not writable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .exponents import check_identities, derive_context
from .linear_solver import (
    MANUFACTURED_CASES,
    NonconvergenceError,
    manufactured_convergence,
    regularity_ratio_suite,
)
from .mesh import boundary_vertices, build_cube_mesh, dump_mesh, mesh_integrity
from .nonlinear import SolverDivergence, StagnationError, make_power_nonlinearity, solve_ground_state
from .verify_chain import (
    build_corpus,
    energy_bound_check,
    failing_records,
    gn_ratio_suite,
    h1_trace_bound,
    main_estimate_ratio,
    norm_equivalence_report,
    solution_norms,
    universal_suite,
)

__all__ = ["ExperimentConfig", "UsageError", "run", "write_report", "main"]

# the verify suites by what they do, which is what they read: drawing seeded functions reads
# --samples, solving --tol, the universal steps their flux bound --B0; _cmd_verify branches on these
_SAMPLING_SUITES = ("regularity", "universal", "gn", "chain")
_SOLVING_SUITES = ("regularity", "gn", "chain", "energy", "equivalence")
_UNIVERSAL_SUITES = ("universal", "chain")
_SUITES = ("universal", "gn", "regularity", "chain", "energy", "equivalence")
# the config fields each command reads besides output and fmt, then the list fields of
# which it reads one value; a field given to a command that does not read it exits 2
_READS = {
    "exponents": (("N", "p_list", "q_override"), ()),
    "mesh-info": (("dump",), ("n_list",)),
    "solve-linear": (("n_list", "tol", "case"), ()),
    "solve-nonlinear": (("q_override", "seed", "tol", "dump"), ("p_list", "n_list")),
    "verify": (("q_override", "n_list", "seed", "suite", "samples", "tol", "b0"), ("p_list",)),
    "sweep": (("p_list", "q_override", "n_list", "seed", "tol"), ()),
}
_COMMANDS = tuple(_READS)
_SUITE_READS = {"samples": _SAMPLING_SUITES, "tol": _SOLVING_SUITES, "b0": _UNIVERSAL_SUITES}
_CHOICES = {"fmt": ("json", "csv"), "case": tuple(sorted(MANUFACTURED_CASES)), "suite": _SUITES}
# report-header fields of a config, in header order
_HEADER_FIELDS = ("command", "N", "p_list", "q_override", "n_list", "samples", "seed", "tol",
                  "suite", "case", "b0")
# record columns each command copies from its result, in report order
_EXPONENT_COLUMNS = ("N", "p", "q", "m", "sigma", "A", "A_hat1", "A_hat2")  # ExponentContext
_CONVERGENCE_COLUMNS = ("n", "vertices", "h1_error", "l2_error", "h1_error_rel")  # table row
_OUTCOME_COLUMNS = ("multiplier", "weak_residual", "outer_iterations", "newton_iterations",
                    "positive")  # SolveOutcome
_ESTIMATE_COLUMNS = ("rho", "rho_hat", "h1")  # main-estimate data


class UsageError(ValueError):
    pass


@dataclass(eq=False)
class ExperimentConfig:
    command: str
    N: int = 3
    p_list: tuple = (Fraction(2),)
    q_override: Fraction = None
    n_list: tuple = (8,)
    samples: int = 100
    seed: int = None
    tol: float = 1e-8
    output: str = None
    fmt: str = "json"
    case: str = "exp-x1"
    suite: str = "chain"
    b0: float = 1.0
    dump: str = None

    def validate(self, given):
        """Check the values, and that the command reads each field the caller set (``given``)."""
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise UsageError(f"unknown {_OPTIONS[key][0]} value {getattr(self, key)!r}; "
                                 f"available: {', '.join(choices)}")
        reads = _reads(self.command, self.suite)
        for key in given:
            if key not in reads:
                who = f"verify --suite {self.suite}" if self.command == "verify" else self.command
                raise UsageError(f"{who} does not read {_OPTIONS[key][0]} (config entry {key!r})")
        if not self.p_list or not self.n_list:
            raise UsageError("--p and --n need at least one value")
        if any(n < 1 for n in self.n_list):
            raise UsageError("mesh levels must be >= 1")
        if len(set(self.n_list)) < len(self.n_list) or len(set(self.p_list)) < len(self.p_list):
            raise UsageError("--p and --n must not repeat a value")
        for key in _READS[self.command][1]:
            if len(getattr(self, key)) > 1:
                raise UsageError(f"{self.command} takes one {_OPTIONS[key][0]} value")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise UsageError("tolerance must be finite and positive")
        if not (math.isfinite(self.b0) and self.b0 > 0):
            raise UsageError("B0 must be finite and positive")
        if self.seed is not None and self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.samples < 1:
            raise UsageError("sample count must be >= 1")
        if "seed" in reads and self.seed is None:
            raise UsageError(f"--seed is mandatory for {self.command}")
        if "p_list" in reads:
            for p in self.p_list:
                try:
                    derive_context(self.N, p, self.q_override)
                except (TypeError, ValueError) as exc:
                    raise UsageError(str(exc)) from exc

    def as_dict(self):
        return {name: getattr(self, name) for name in _HEADER_FIELDS}


# -- reports ----------------------------------------------------------------------


def write_report(records, fmt, path, header=None):
    """Write scalar records as JSON or CSV with a stable field order.

    Records must be non-empty dicts sharing one key set; the config/version
    header is embedded (as a document field in JSON, as a comment line in CSV).
    A Fraction is written as its text, such as "3/2".
    """
    if not records:
        raise ValueError("refusing to write an empty report")
    fields = list(records[0].keys())
    for r in records:
        if list(r.keys()) != fields:
            raise ValueError("records do not share one field set")
    if fmt == "json":
        text = json.dumps({"header": header or {}, "records": records}, default=str) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        if header:
            buffer.write("# " + json.dumps(header, default=str) + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([r[k] for k in fields] for r in records)
        text = buffer.getvalue()
    else:
        raise UsageError(f"unknown report format {fmt!r}")
    with open(path, "w", newline="") as out:
        out.write(text)


def _emit(config, records):
    if config.output:
        header = {"version": __version__, "config": config.as_dict()}
        write_report(records, config.fmt, config.output, header=header)


# -- command implementations -------------------------------------------------------


def _cmd_exponents(config):
    records = []
    status = 0
    for p in config.p_list:
        ctx = derive_context(config.N, p, config.q_override)
        checks = check_identities(ctx)
        ok = all(c.passed for c in checks)
        status = status or (0 if ok else 1)
        print(f"N={ctx.N}  p={ctx.p}  q={ctx.q}")
        print(
            f"  two_star={ctx.two_star}  two_low_star={ctx.two_low_star}  "
            f"m={ctx.m}  sigma={ctx.sigma}"
        )
        print(f"  A={ctx.A}  A_hat1={ctx.A_hat1}  A_hat2={ctx.A_hat2}")
        print(f"  identities: {'pass' if ok else 'FAIL'}")
        if not ok:
            for c in checks:
                if not c.passed:
                    print(f"    {c.name}: {c.detail}", file=sys.stderr)
        columns = {key: getattr(ctx, key) for key in _EXPONENT_COLUMNS}
        records.append({**columns, "identities": "pass" if ok else "fail"})
    _emit(config, records)
    return status


def _cmd_mesh_info(config):
    n = config.n_list[0]
    mesh = build_cube_mesh(n)
    report = mesh_integrity(mesh)
    print(f"n={n}: {mesh.num_vertices} vertices, {mesh.num_tets} tets, "
          f"{mesh.num_boundary_faces} boundary faces")
    print(f"  volume={report.volume!r}  boundary area={report.area!r}")
    print(f"  boundary vertices: {len(boundary_vertices(mesh))}")
    print(f"  integrity: {report.detail}")
    if config.dump:
        dump_mesh(mesh, config.dump)
        print(f"  dump written to {config.dump}")
    records = [
        {
            "n": n,
            "vertices": mesh.num_vertices,
            "tets": mesh.num_tets,
            "boundary_faces": mesh.num_boundary_faces,
            "volume": report.volume,
            "area": report.area,
            "integrity": report.detail,
        }
    ]
    _emit(config, records)
    return 0 if report.ok else 1


def _cmd_solve_linear(config):
    table = manufactured_convergence(config.case, config.n_list, tol=config.tol)
    records = []
    h1_orders = [None] + table.h1_orders
    l2_orders = [None] + table.l2_orders
    print(f"case {config.case}:")
    for row, oh, ol in zip(table.rows, h1_orders, l2_orders):
        print(
            f"  n={row['n']:3d}  h1_error={row['h1_error']:.6e}  "
            f"l2_error={row['l2_error']:.6e}"
            + (f"  orders=({oh:.2f}, {ol:.2f})" if oh is not None else "")
        )
        columns = {key: row[key] for key in _CONVERGENCE_COLUMNS}
        records.append({"case": config.case, **columns, "h1_order": oh, "l2_order": ol})
    _emit(config, records)
    return 0


def _cmd_solve_nonlinear(config):
    p = config.p_list[0]
    n = config.n_list[0]
    mesh = build_cube_mesh(n)
    nl = make_power_nonlinearity(float(p))
    outcome = solve_ground_state(mesh, nl, config.tol, config.seed)
    ctx = derive_context(config.N, p, config.q_override)
    m = float(ctx.m)
    row = solution_norms(outcome, "solve-nonlinear", w1m=(m,))
    print(
        f"ground state p={p} n={n}: residual={outcome.weak_residual:.3e} "
        f"multiplier={outcome.multiplier:.6f} positive={outcome.positive}"
    )
    print(f"  h1={row['h1']!r}  linf={row['linf']!r}")
    columns = {key: getattr(outcome, key) for key in _OUTCOME_COLUMNS}
    rec = {"p": float(p), "n": n, **columns, "h1": row["h1"], "linf": row["linf"],
           "l_two_star_volume": row["volume", float(ctx.two_star)],
           "l_two_low_star_boundary": row["boundary", float(ctx.two_low_star)],
           "w1m": row["w1m", m], "m": m, "linf_boundary": row["linf_boundary"], "q": float(ctx.q)}
    if config.dump:
        # through a file handle, so np.save writes to the path as given, adding no .npy suffix
        with open(config.dump, "wb") as out:
            np.save(out, outcome.solution.values)
        print(f"  nodal values written to {config.dump}")
    _emit(config, [rec])
    return 0


def _solve_family(config, p, n_list):
    nl = make_power_nonlinearity(float(p))
    return [solve_ground_state(build_cube_mesh(n), nl, config.tol, config.seed) for n in n_list]


def _print_failures(ctx, records):
    """One stderr line per failing record, naming the sample of a universal
    step; returns how many."""
    failed = failing_records(records)
    for rec in failed:
        sample = f" sample {rec.data['sample']}" if "sample" in rec.data else ""
        print(
            f"FAIL: {rec.step} at p={ctx.p} n={rec.n}{sample}: "
            f"left={float(rec.left)!r} right={float(rec.right)!r}",
            file=sys.stderr,
        )
    return len(failed)


def _cmd_verify(config):
    ctx = derive_context(config.N, config.p_list[0], config.q_override)
    suite = config.suite
    if suite == "regularity":
        report = regularity_ratio_suite(ctx, config.n_list, config.samples, config.seed, config.tol)
        print(f"regularity suite: per-n maxima {report.maxima}")
        _emit(config, report.rows)
        return 0

    # the solving suites mix computed solutions into their corpora
    outcomes = _solve_family(config, config.p_list[0], config.n_list) if suite in _SOLVING_SUITES else []
    solutions_by_n = {o.solution.mesh.n: [o.solution] for o in outcomes}
    records, asserted = [], []  # report rows; the step records a run can fail on

    corpora = []
    if suite in _SAMPLING_SUITES:
        # each level's corpus is built once and shared by the universal and gn suites
        corpora = [
            build_corpus(build_cube_mesh(n), config.samples, config.seed,
                         solutions=solutions_by_n.get(n, ()))
            for n in config.n_list
        ]
    if suite in _UNIVERSAL_SUITES:
        for corpus in corpora:
            report = universal_suite(corpus, ctx, config.b0)
            records += report.summary_rows(ctx)
            asserted += report.failures()
            print(
                f"universal n={corpus.mesh.n}: {len(report.steps) * report.linf.size} records, "
                f"{report.violations} violations, branches={report.branch_counts()}"
            )
    if suite in ("gn", "chain"):
        gn = gn_ratio_suite(corpora, ctx)
        records += gn.summary_rows(ctx)
        print(f"gn suite: verdict={gn.verdict} maxima="
              f"{[(r['n'], r['max_ratio']) for r in gn.rows]}")
    if suite == "chain":
        for outcome in outcomes:
            for rec in (main_estimate_ratio(outcome, ctx), h1_trace_bound(outcome, ctx)):
                records.append(rec.row(ctx))
                asserted.append(rec)
    if suite in ("chain", "equivalence"):
        eq = norm_equivalence_report(outcomes, ctx)
        records += eq.summary_rows(ctx)
        print(f"equivalence: co_bounded={eq.co_bounded} co_vanishing={eq.co_vanishing}")
    if suite in ("chain", "energy"):
        en = energy_bound_check(outcomes)
        records += en.summary_rows(ctx)
        asserted += en.records
        print(f"energy: bounded_energy={en.bounded_energy} bounded_h1={en.bounded_h1}")

    failed = _print_failures(ctx, asserted)
    _emit(config, records)
    return 1 if failed else 0


def _cmd_sweep(config):
    records = []
    status = 0
    overall_c0 = 0.0
    for p in config.p_list:
        ctx = derive_context(config.N, p, config.q_override)
        nl = make_power_nonlinearity(float(p))
        c0_running = 0.0
        for n in config.n_list:
            mesh = build_cube_mesh(n)
            outcome = solve_ground_state(mesh, nl, config.tol, config.seed)
            rec = main_estimate_ratio(outcome, ctx)
            trace = h1_trace_bound(outcome, ctx)
            if _print_failures(ctx, [rec, trace]):
                status = 1
            c0_running = max(c0_running, rec.data["rho"])
            overall_c0 = max(overall_c0, c0_running)
            columns = {key: rec.data[key] for key in _ESTIMATE_COLUMNS}
            records.append({"p": float(p), "n": n, "A": float(ctx.A), **columns,
                            "linf": rec.left, "weak_residual": outcome.weak_residual,
                            "trace_bound": trace.verdict, "fitted_C0": c0_running})
            print(
                f"p={p} n={n}: rho={rec.data['rho']:.6g} "
                f"rho_hat={rec.data['rho_hat']:.6g} fitted_C0={c0_running:.6g}"
            )
    print(f"sweep fitted C0 over all cells: {overall_c0:.6g}")
    _emit(config, records)
    return status


# -- argument parsing ---------------------------------------------------------------


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _list_of(convert, what):
    def parse(text):
        try:
            return tuple(convert(part) for part in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"bad {what} list {text!r}: {exc}")
    return parse


# the flag and converter of each config field; a flag and its config-file entry parse alike
_OPTIONS = {
    "N": ("--N", int), "p_list": ("--p", _list_of(Fraction, "rational")), "q_override": ("--q", _fraction),
    "n_list": ("--n", _list_of(int, "integer")), "samples": ("--samples", int),
    "seed": ("--seed", int), "tol": ("--tol", float), "b0": ("--B0", float), "output": ("--output", str),
    "fmt": ("--format", str), "case": ("--case", str), "suite": ("--suite", str), "dump": ("--dump", str),
}
_HELP = {"N": "space dimension", "p_list": "comma-separated rational powers, e.g. 2 or 3/2,2",
         "n_list": "comma-separated mesh levels, e.g. 4,8,16", "output": "report file path",
         "dump": "write the mesh as text, or the nodal vector as .npy, here"}


def _reads(command, suite=None):
    """The config fields a command reads; for verify, those its suite reads if one is named."""
    fields, one_valued = _READS[command]
    reads = {*fields, *one_valued, "output", "fmt"}
    if command == "verify" and suite is not None:
        reads -= {key for key, suites in _SUITE_READS.items() if suite not in suites}
    return reads


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="boundlab",
        description="Finite-element laboratory for boundary-flux problems "
        "on the unit cube and their sup-norm estimates.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        sp, reads = sub.add_parser(name), _reads(name)
        for key in [key for key in _OPTIONS if key in reads]:
            suites = _SUITE_READS.get(key) if name == "verify" else None
            choices = _CHOICES.get(key)
            sp.add_argument(_OPTIONS[key][0], dest=key, type=_OPTIONS[key][1], default=None,
                            help=f"read by the suites {', '.join(suites)}" if suites else _HELP.get(key),
                            metavar="{" + ",".join(choices) + "}" if choices else None)
    return parser


def _file_settings(path):
    """Config-file entries, each parsed as the text its flag would take.

    A JSON list is joined with commas and ``null`` leaves the default.
    """
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    if not isinstance(entries, dict):
        raise UsageError("config file must hold a JSON object")
    settings = {}
    for key, value in entries.items():
        if key not in _OPTIONS:
            raise UsageError(f"unknown config entry {key!r}")
        if value is None:
            continue
        parts = value if isinstance(value, list) else [value]
        text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in parts)
        try:
            settings[key] = _OPTIONS[key][1](text)
        except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config entry {key!r}: {exc}") from None
    return settings


def parse_config(argv):
    parser = _build_parser()
    args, unread = parser.parse_known_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a command is required")
    if unread:
        raise UsageError(f"{args.command} does not read {' '.join(unread)}")

    settings = _file_settings(args.config) if args.config else {}
    # flags win over file entries
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _OPTIONS and value is not None)

    config = ExperimentConfig(command=args.command, **settings)
    config.validate(given=settings)
    return config


def run(config):
    """Dispatch a validated config; returns the process exit status."""
    handler = {
        "exponents": _cmd_exponents,
        "mesh-info": _cmd_mesh_info,
        "solve-linear": _cmd_solve_linear,
        "solve-nonlinear": _cmd_solve_nonlinear,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }[config.command]
    return handler(config)


def main(argv=None):
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        # parsing only reads the configuration, so a bad entry in a config
        # file is a usage error like a bad flag
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NonconvergenceError, StagnationError, SolverDivergence) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # the configuration was validated above, so a ValueError raised while
        # computing is a fault in the numbers: an uncertified solution, a
        # degenerate tet, a non-finite field
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
