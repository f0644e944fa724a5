"""The package exports what the CLI runs.

Every command, and every ``verify`` suite, runs at n <= 4 under
``sys.setprofile``, which records the code object of each Python call.  Then
each function in a module's ``__all__``, each non-dunder method of a class
there and each method of the workspace class ``fem_space`` returns must have
run, unless ``UNCALLED`` names it with the reason it is kept.
"""

import inspect
import sys
import weakref

from boundlab import assembly, cli, exponents, linear_solver, mesh, nonlinear, norms, quadrature, verify_chain
from boundlab.mesh import build_cube_mesh

MODULES = (exponents, mesh, quadrature, assembly, linear_solver, norms, nonlinear, verify_chain, cli)

# public functions no CLI path calls, and why each is kept
UNCALLED = {
    "norms.norm_h1": "test oracle: the H1 form of one function",
    "norms.norm_lp": "test oracle for norm_table's L^r columns",
    "norms.norm_linf": "test oracle for norm_table's nodal maxima",
    "norms.norm_w1m": "test oracle for norm_table's W^{1,m} column",
    "norms.norm_lp_boundary_field": "test oracle: L^r norm of boundary data given as a field",
    "norms.energy_J": "test oracle for the energy suite's J",
    "norms.gn_ratio": "test oracle for gn_ratios on one function",
    "nonlinear.certify_solution": "certification seam: a function no solver returned enters the solution-only steps",
    "nonlinear.weak_residual": "certification seam: the residual certify_solution records",
}

SUITES = ("universal", "gn", "regularity", "chain", "energy", "equivalence")


def _methods(prefix, cls):
    """(name, code object) of each non-dunder method or property of a class."""
    found = []
    for name, value in vars(cls).items():
        fn = value.fget if isinstance(value, property) else value
        if inspect.isfunction(fn) and not name.startswith("__"):
            found.append((f"{prefix}.{cls.__name__}.{name}", fn.__code__))
    return found


def public_surface():
    """(name, code object) of every public function and method the test checks."""
    surface = []
    for module in MODULES:
        prefix = module.__name__.rpartition(".")[2]
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value):
                surface.append((f"{prefix}.{name}", value.__code__))
            elif inspect.isclass(value):
                surface += _methods(prefix, value)
    workspace = type(assembly.fem_space(build_cube_mesh(1)))
    return surface + _methods("assembly", workspace)


def cli_runs(out):
    """argv of every CLI path: each command and each verify suite, at n <= 4."""
    runs = [
        ["exponents", "--p", "2"],
        ["mesh-info", "--n", "2", "--dump", str(out / "mesh.txt")],
        ["solve-linear", "--n", "2,4"],
        ["solve-nonlinear", "--p", "2", "--n", "4", "--seed", "11"],
        ["sweep", "--p", "2", "--n", "2,4", "--seed", "11"],
    ]
    # energy and equivalence draw no corpus, so they read no --samples
    runs += [["verify", "--suite", suite, "--n", "2,4", "--seed", "7"]
             + (["--samples", "4"] if suite not in ("energy", "equivalence") else [])
             for suite in SUITES]
    return [argv + ["--output", str(out / f"report{i}.json")] for i, argv in enumerate(runs)]


def test_every_public_function_runs_on_a_cli_path(tmp_path, monkeypatch):
    surface = public_surface()
    # fresh workspaces, so each level's operators, preconditioner and ground states
    # are built inside the profiled runs whatever ran earlier in this process
    monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        statuses = [cli.main(argv) for argv in cli_runs(tmp_path)]
    finally:
        sys.setprofile(previous)
    assert statuses == [0] * len(statuses)

    uncalled = {name for name, code in surface if code not in called}
    assert uncalled == set(UNCALLED), (
        f"public but called by no CLI path: {sorted(uncalled - set(UNCALLED))}; "
        f"allowlisted but called: {sorted(set(UNCALLED) - uncalled)}"
    )
