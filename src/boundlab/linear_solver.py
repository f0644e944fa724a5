"""Discrete solution operator for the linear flux-data problem.

``solve_neumann`` inverts the H1 operator against a boundary load with
scipy's conjugate gradients, preconditioned by one multigrid V-cycle on the
nested Kuhn levels (the operator is SPD because of the mass term, so the
solve is unconditionally well posed; the iteration count does not grow with
n).  On top of it sit a manufactured-solution convergence study and an
empirical suite that tracks the regularity ratios
||v||_{W^{1,m}} / ||h||_{L^q(bnd)} across refinements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import FemFunction, assemble_boundary_load, assemble_h1_operator, fem_space
from .mesh import build_cube_mesh
from .norms import norm_table

__all__ = [
    "LinearSolveResult",
    "NonconvergenceError",
    "solve_neumann",
    "ManufacturedCase",
    "MANUFACTURED_CASES",
    "manufactured_convergence",
    "ConvergenceTable",
    "trace_range_flag",
    "regularity_ratio_suite",
    "RegularityReport",
    "SMOOTH_FIELDS",
    "smooth_fields",
]


class NonconvergenceError(RuntimeError):
    def __init__(self, message, iterations, residual_norm):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


@dataclass(eq=False)
class LinearSolveResult:
    solution: FemFunction
    iterations: int
    residual_norm: float  # relative to the load norm
    tolerance: float


def _pcg(matrix, rhs, tol, precond, x0=None, maxiter=None):
    """Preconditioned CG (scipy's ``cg``), stopping on CG's recurrence residual <= tol.

    ``precond`` is an SPD LinearOperator approximating the inverse of
    ``matrix``: the level's V-cycle from ``fem_space(mesh).vcycle()``.
    Returns ``(x, iterations, residual)``, where ``residual`` is the true
    relative residual ||rhs - matrix x|| / ||rhs|| of the returned x (0.0 for
    a zero rhs), which rounding can leave above ``tol``: a caller that
    certifies x checks it.  Raises :class:`NonconvergenceError` after
    ``maxiter`` iterations (scipy's default: 10 * dimension).
    """
    from scipy.sparse.linalg import cg

    steps = []
    x, info = cg(matrix, rhs, x0=x0, rtol=tol, maxiter=maxiter, M=precond, callback=steps.append)
    rhs_norm = float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(rhs - matrix @ x)) / rhs_norm if rhs_norm else 0.0
    if info != 0:
        raise NonconvergenceError(
            f"conjugate gradients did not reach tolerance {tol} in {len(steps)} iterations "
            f"(relative residual {res:.3e})",
            len(steps),
            res,
        )
    return x, len(steps), res


def solve_neumann(mesh, h, tol, maxiter=None):
    """Solve the discrete problem (H1 operator) v = boundary load of h.

    ``h(points, normals)`` is evaluated at the boundary quadrature points.
    The result's ``residual_norm`` is the true relative residual of the
    returned solution.  Raises :class:`NonconvergenceError` when the
    iteration cap (default 10 * dimension) is exceeded.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    load = assemble_boundary_load(mesh, h)
    x, iterations, res = _pcg(
        assemble_h1_operator(mesh), load, tol, fem_space(mesh).vcycle(), maxiter=maxiter
    )
    return LinearSolveResult(
        solution=FemFunction(mesh, x),
        iterations=iterations,
        residual_norm=res,
        tolerance=tol,
    )


# -- manufactured solutions --------------------------------------------------


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution of the linear problem with its flux data."""

    name: str
    value: object            # value(points) -> (...,)
    gradient: object         # gradient(points) -> (..., 3)
    h1_norm_squared: float   # exact squared H1 norm, used as normalization

    def h(self, points, normals):
        return np.sum(self.gradient(points) * normals, axis=-1)


def _case_exp_x1():
    def value(pts):
        return np.exp(pts[..., 0])

    def gradient(pts):
        g = np.zeros(pts.shape)
        g[..., 0] = np.exp(pts[..., 0])
        return g

    return ManufacturedCase("exp-x1", value, gradient, math.e**2 - 1.0)


def _case_exp_diag():
    c = 1.0 / math.sqrt(2.0)

    def value(pts):
        return np.exp(c * (pts[..., 0] + pts[..., 1]))

    def gradient(pts):
        v = value(pts)
        g = np.zeros(pts.shape)
        g[..., 0] = c * v
        g[..., 1] = c * v
        return g

    # 2 * int v^2 = (e^sqrt(2) - 1)^2 on the unit cube
    return ManufacturedCase("exp-x1x2", value, gradient, (math.exp(math.sqrt(2.0)) - 1.0) ** 2)


MANUFACTURED_CASES = {c.name: c for c in (_case_exp_x1(), _case_exp_diag())}


@dataclass(eq=False)
class ConvergenceTable:
    case: str
    rows: list

    def orders(self, column):
        out = []
        for prev, cur in zip(self.rows, self.rows[1:]):
            ratio = prev[column] / cur[column]
            out.append(math.log(ratio) / math.log(cur["n"] / prev["n"]))
        return out

    @property
    def h1_orders(self):
        return self.orders("h1_error")

    @property
    def l2_orders(self):
        return self.orders("l2_error")


# tets per block of the error quadrature: 1024 whole cells, 64 points per tet
_ERROR_BLOCK_TETS = 6 * 1024


def _errors_against(u, case):
    """L2 and H1 errors of u against the closed form, block of cells by block."""
    space = fem_space(u.mesh)
    l2_sq = grad_sq = 0.0
    for start in range(0, u.mesh.num_tets, _ERROR_BLOCK_TETS):
        tets = slice(start, start + _ERROR_BLOCK_TETS)
        points = np.einsum("qi,tid->tqd", space.vol_basis, u.mesh.vertices[u.mesh.tets[tets]])
        l2_sq += space.volume_integral((space.volume_values(u.values, tets) - case.value(points)) ** 2)
        gu = space.gradients(u.values, tets)[:, None, :]
        grad_sq += space.volume_integral(np.sum((gu - case.gradient(points)) ** 2, axis=-1))
    return math.sqrt(l2_sq), math.sqrt(l2_sq + grad_sq)


def manufactured_convergence(case_id, n_list, tol=1e-10):
    """Error table of the discrete solver against a closed-form solution."""
    case = MANUFACTURED_CASES[case_id]
    rows = []
    for n in n_list:
        mesh = build_cube_mesh(n)
        result = solve_neumann(mesh, case.h, tol)
        l2_err, h1_err = _errors_against(result.solution, case)
        rows.append(
            {
                "n": n,
                "vertices": mesh.num_vertices,
                "h1_error": h1_err,
                "l2_error": l2_err,
                "h1_error_rel": h1_err / math.sqrt(case.h1_norm_squared),
                "iterations": result.iterations,
            }
        )
    return ConvergenceTable(case=case_id, rows=rows)


# -- regularity ratio suite ---------------------------------------------------


def trace_range_flag(N, q, r):
    """Classify (q, r) against the mapping ranges of the boundary resolvent.

    For q < N-1 the resolvent maps L^q boundary data into L^r of the boundary
    only up to r = (N-1)q/(N-1-q); beyond that the pair is flagged as out of
    range.  At q = N-1 every finite r is reachable, and for q > N-1 the
    solution is uniformly continuous.
    """
    q = float(q)
    r = float(r)
    if q < 1 or r < 1:
        return "invalid (q, r must be >= 1)"
    if q < N - 1:
        r_max = (N - 1) * q / (N - 1 - q)
        if r > r_max:
            return "outside trace range: r exceeds (N-1)q/(N-1-q)"
        return "ok: continuous trace range (q < N-1)"
    if q == N - 1:
        return "ok: any finite r (q = N-1)"
    return "ok: uniform regime (q > N-1)"


#: low-order monomial / trigonometric dictionary used for random smooth data
SMOOTH_FIELDS = (
    lambda pts: np.ones(pts.shape[:-1]),
    lambda pts: pts[..., 0],
    lambda pts: pts[..., 1],
    lambda pts: pts[..., 2],
    lambda pts: pts[..., 0] * pts[..., 1],
    lambda pts: pts[..., 0] * pts[..., 2],
    lambda pts: pts[..., 1] * pts[..., 2],
    lambda pts: pts[..., 0] * pts[..., 1] * pts[..., 2],
    lambda pts: np.cos(np.pi * pts[..., 0]),
    lambda pts: np.cos(np.pi * pts[..., 1]),
    lambda pts: np.cos(np.pi * pts[..., 2]),
    lambda pts: np.sin(np.pi * pts[..., 0]),
    lambda pts: np.sin(np.pi * pts[..., 1]),
    lambda pts: np.sin(np.pi * pts[..., 2]),
)


def smooth_fields(points):
    """The smooth dictionary at ``points`` (..., 3), stacked on a last axis (..., 14)."""
    return np.stack([phi(points) for phi in SMOOTH_FIELDS], axis=-1)


# residual of the dictionary solves, so that a sample's combination of them
# already meets the suite's default tol (worst 4.2e-13 at n = 8, 16, seed 7)
_BASIS_TOL = 1e-13


@dataclass(eq=False)
class RegularityReport:
    rows: list                   # dicts: n, sample, q, m, ratio_w1m, ratio_linf
    maxima: dict                 # n -> {"ratio_w1m": .., "ratio_linf": ..}
    q: float
    m: float


def regularity_ratio_suite(ctx, n_list, sample_count, seed, tol=1e-10):
    """Ratios ||v||_{W^{1,m}} / ||h||_{L^q(bnd)} and ||v||_inf / ||h||_{L^q(bnd)}.

    Boundary data are seeded draws from the smooth dictionary; the same
    coefficients are reused across all mesh levels so per-n maxima are
    comparable.  The suite is the experimental side of the lifting estimate:
    saturation of the maxima under refinement is the finite-sample surrogate
    for a data-independent constant.

    The solution operator is linear, so per level the 14 dictionary fields
    are solved once (to ``_BASIS_TOL``) and each sample's solution is their
    combination v_s = V c_s.  CG started from it certifies every sample at
    ``tol``, by the true residual of the returned solution; a sample that
    misses it raises :class:`NonconvergenceError`.  One ``norm_table`` call
    takes all the sample norms.
    """
    if ctx.N != 3:
        raise ValueError("the regularity suite runs on the 3-D cube (N = 3)")
    q = float(ctx.q)
    m = float(ctx.m)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((sample_count, len(SMOOTH_FIELDS)))

    rows = []
    maxima = {}
    for n in n_list:
        mesh = build_cube_mesh(n)
        space = fem_space(mesh)
        matrix, vcycle = space.h1_operator(), space.vcycle()
        fields = smooth_fields(space.bnd_pts)                        # (nf, nqb, 14)
        loads = np.array([space.boundary_load_from_values(f) for f in np.moveaxis(fields, -1, 0)])
        basis = np.array([_pcg(matrix, load, _BASIS_TOL, vcycle)[0] for load in loads])
        values = (coeffs @ basis).T                                  # (nv, S), contiguous columns
        h_norms = np.empty(sample_count)
        for s, c in enumerate(coeffs):
            # a start that already meets tol returns after one matvec; else CG polishes it
            values[:, s], iterations, res = _pcg(matrix, c @ loads, tol, vcycle, x0=values[:, s])
            if not res <= tol:
                raise NonconvergenceError(f"regularity sample {s} at n={n}: true relative "
                                          f"residual {res:.3e} exceeds tolerance {tol}", iterations, res)
            h_norms[s] = space.boundary_integral(np.abs(fields @ c) ** q) ** (1.0 / q)
        table = norm_table(mesh, values, w1m=(m,))
        ratio_w1m = table["w1m", m] / h_norms
        ratio_linf = table["linf"] / h_norms
        rows.extend(
            dict(n=n, sample=s, q=q, m=m, ratio_w1m=float(w), ratio_linf=float(i))
            for s, (w, i) in enumerate(zip(ratio_w1m, ratio_linf))
        )
        maxima[n] = {
            "ratio_w1m": float(ratio_w1m.max(initial=0.0)),
            "ratio_linf": float(ratio_linf.max(initial=0.0)),
        }

    return RegularityReport(rows=rows, maxima=maxima, q=q, m=m)
