"""Numerical laboratory for the elliptic problem -Lap(u) + u = 0 with a
nonlinear flux condition on the boundary of the unit cube.

The package solves the problem by P1 finite elements and machine-checks the
sup-norm bound ||u||_inf <= C0*(1 + ||u||_H1)^A together with the exponent
algebra, norm equivalences and energy bounds that support it.
"""

__version__ = "0.1.0"

# Every module is imported here, so that bench/tracer.py, installed right after
# ``import boundlab.cli``, finds and wraps them all.  None of them imports scipy
# at module level: the solvers import it on their first call, so commands that
# solve nothing (mesh-info, exponents) run on numpy alone.
from .exponents import ExponentContext, critical_exponents, derive_context, check_identities
from .mesh import Mesh, build_cube_mesh, mesh_integrity, boundary_vertices
from .assembly import FemFunction, assemble_boundary_load
from .linear_solver import LinearSolveResult, solve_neumann, manufactured_convergence, regularity_ratio_suite
from .norms import norm_table
from .nonlinear import (
    Nonlinearity,
    SolveOutcome,
    make_power_nonlinearity,
    growth_check,
    ar_check,
    weak_residual,
    solve_ground_state,
    newton_refine,
)
from . import verify_chain
