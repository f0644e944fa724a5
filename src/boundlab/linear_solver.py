"""Discrete solution operator for the linear flux-data problem.

``solve_neumann`` inverts the H1 operator against a boundary load with
conjugate gradients preconditioned by one multigrid V-cycle on the nested
Kuhn levels (the operator is SPD because of the mass term, so the solve is
unconditionally well posed; the iteration count does not grow with n).  On
top of it sit a manufactured-solution convergence study and an empirical
suite that tracks the regularity ratios ||v||_{W^{1,m}} / ||h||_{L^q(bnd)}
across refinements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import FemFunction, assemble_boundary_load, assemble_h1_operator, fem_space
from .mesh import build_cube_mesh

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


def _pcg(matrix, rhs, tol, maxiter, precond, x0=None):
    """Preconditioned CG, stopping on relative residual <= tol.

    ``precond`` is an SPD LinearOperator approximating the inverse of
    ``matrix``: the level's V-cycle from ``fem_space(mesh).vcycle()``.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = x0.copy()
        r = rhs - matrix @ x
    z = precond.matvec(r)
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r)) / rhs_norm
    if res <= tol:
        return x, 0, res
    for k in range(1, maxiter + 1):
        ap = matrix @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r)) / rhs_norm
        if res <= tol:
            return x, k, res
        z = precond.matvec(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonconvergenceError(
        f"conjugate gradients did not reach tolerance {tol} in {maxiter} iterations "
        f"(relative residual {res:.3e})",
        maxiter,
        res,
    )


def solve_neumann(mesh, h, tol, maxiter=None, x0=None):
    """Solve the discrete problem (H1 operator) v = boundary load of h.

    ``h(points, normals)`` is evaluated at the boundary quadrature points.
    Raises :class:`NonconvergenceError` when the iteration cap (default
    10 * dimension) is exceeded.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    operator = assemble_h1_operator(mesh)
    load = assemble_boundary_load(mesh, h)
    if maxiter is None:
        maxiter = 10 * operator.dimension
    x, iterations, res = _pcg(operator.matrix, load, tol, maxiter, fem_space(mesh).vcycle(), x0=x0)
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


def _poly(axis):
    return lambda pts: pts[..., axis]


def _poly2(a, b):
    return lambda pts: pts[..., a] * pts[..., b]


def _cospi(axis):
    return lambda pts: np.cos(np.pi * pts[..., axis])


def _sinpi(axis):
    return lambda pts: np.sin(np.pi * pts[..., axis])


#: low-order monomial / trigonometric dictionary used for random smooth data
SMOOTH_FIELDS = (
    lambda pts: np.ones(pts.shape[:-1]),
    _poly(0),
    _poly(1),
    _poly(2),
    _poly2(0, 1),
    _poly2(0, 2),
    _poly2(1, 2),
    lambda pts: pts[..., 0] * pts[..., 1] * pts[..., 2],
    _cospi(0),
    _cospi(1),
    _cospi(2),
    _sinpi(0),
    _sinpi(1),
    _sinpi(2),
)


def smooth_field_from_coefficients(coeffs):
    """Linear combination of the smooth dictionary, as a point function."""
    coeffs = np.asarray(coeffs, dtype=float)

    def fn(pts):
        acc = np.zeros(pts.shape[:-1])
        for c, phi in zip(coeffs, SMOOTH_FIELDS):
            acc += c * phi(pts)
        return acc

    return fn


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
    """
    from .norms import norm_linf, norm_lp_boundary_field, norm_w1m

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
        best_w1m = 0.0
        best_linf = 0.0
        for s in range(sample_count):
            fn = smooth_field_from_coefficients(coeffs[s])
            h = lambda pts, normals: fn(pts)
            h_norm = norm_lp_boundary_field(mesh, h, q)
            result = solve_neumann(mesh, h, tol)
            v = result.solution
            ratio_w1m = norm_w1m(v, m) / h_norm
            ratio_linf = norm_linf(v) / h_norm
            best_w1m = max(best_w1m, ratio_w1m)
            best_linf = max(best_linf, ratio_linf)
            rows.append(
                {
                    "n": n,
                    "sample": s,
                    "q": q,
                    "m": m,
                    "ratio_w1m": ratio_w1m,
                    "ratio_linf": ratio_linf,
                }
            )
        maxima[n] = {"ratio_w1m": best_w1m, "ratio_linf": best_linf}

    return RegularityReport(rows=rows, maxima=maxima, q=q, m=m)
