"""Discrete solution operator for the linear flux-data problem.

``solve_neumann`` inverts the H1 operator against a boundary load with
conjugate gradients, preconditioned by the level's ``preconditioner()``, a
fast-diagonalization inverse of a tensor-product operator (the operator is
SPD because of the mass term, so the solve is unconditionally well posed;
the iteration count does not grow with n).  The Krylov solvers ``_cg`` and
``_minres`` are ports of scipy's, so the package runs on numpy alone.  On
top of them sit a manufactured-solution convergence study and an empirical
suite that tracks the regularity ratios ||v||_{W^{1,m}} / ||h||_{L^q(bnd)}
across refinements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .assembly import FemFunction, assemble_boundary_load, fem_space
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


def _cg(matvec, b, x0=None, *, rtol, maxiter=None, psolve, callback=None):
    """Preconditioned conjugate gradients (Hestenes & Stiefel, 1952) for an
    SPD ``matvec`` with an SPD ``psolve``, both functions of a vector.

    A line-for-line port of scipy 1.17's ``scipy.sparse.linalg.cg`` at
    atol 0, without its input checks, so its iterates are bitwise scipy's
    (scipy: BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. 2003,
    SciPy Developers).  Stops when CG's recurrence residual is below
    ``rtol * ||b||``.  Returns ``(x, info)``: info is 0 on convergence, else
    ``maxiter`` (default 10 * len(b)); x is b itself for a zero b.
    """
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    bnrm2 = np.linalg.norm(b)
    atol = float(rtol) * float(bnrm2)
    if bnrm2 == 0:
        return b, 0
    if maxiter is None:
        maxiter = len(b) * 10
    r = b - matvec(x) if x.any() else b.copy()
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = psolve(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            beta = rho_cur / rho_prev
            p *= beta
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback:
            callback(x)
    return x, maxiter


def _minres(matvec, b, x0=None, *, rtol, maxiter=None, psolve, callback=None):
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for a
    symmetric, possibly indefinite ``matvec`` with an SPD ``psolve``, both
    functions of a vector.

    A line-for-line port of scipy 1.17's ``scipy.sparse.linalg.minres`` at
    shift 0, without its input checks, printing and message table, so its
    iterates are bitwise scipy's (scipy: BSD-3-Clause, Copyright (c)
    2001-2002 Enthought, Inc. 2003, SciPy Developers).  Returns
    ``(x, info)``: info is ``maxiter`` (default 5 * len(b)) when the
    iteration limit stopped it, else 0.
    """
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    n = len(b)
    if maxiter is None:
        maxiter = 5 * n
    istop = 0
    itn = 0
    eps = np.finfo(float).eps

    r1 = b.copy() if x0 is None else b - matvec(x)
    y = psolve(r1)
    beta1 = np.inner(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    elif beta1 == 0:
        return x, 0
    if np.linalg.norm(b) == 0:
        return b, 0
    beta1 = sqrt(beta1)

    oldb = 0
    beta = beta1
    dbar = 0
    epsln = 0
    phibar = beta1
    rhs1 = beta1
    rhs2 = 0
    tnorm2 = 0
    gmax = 0
    gmin = np.finfo(float).max
    cs = -1
    sn = 0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1

    while itn < maxiter:
        itn += 1
        s = 1.0 / beta
        v = s * y
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = np.inner(v, y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta = np.inner(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        denom = 1.0 / gamma
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) * denom
        x = x + phi * w

        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        z = rhs1 / gamma
        rhs1 = rhs2 - delta * z
        rhs2 = -epsln * z

        # estimate the norms and test for convergence
        Anorm = sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = Anorm * ynorm * eps
        rnorm = phibar
        test1 = math.inf if ynorm == 0 or Anorm == 0 else rnorm / (Anorm * ynorm)
        test2 = math.inf if Anorm == 0 else root / Anorm
        Acond = gmax / gmin
        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if Acond >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if callback is not None:
            callback(x)
        if istop != 0:
            break
    return x, maxiter if istop == 6 else 0


def _pcg(matrix, rhs, tol, precond, x0=None, maxiter=None):
    """Preconditioned CG (``_cg``), stopping on CG's recurrence residual <= tol.

    ``precond`` is an SPD approximate inverse of ``matrix``, a function of a
    vector: the level's ``fem_space(mesh).preconditioner()``.
    Returns ``(x, iterations, residual)``, where ``residual`` is the true
    relative residual ||rhs - matrix x|| / ||rhs|| of the returned x (0.0 for
    a zero rhs), which rounding can leave above ``tol``: a caller that
    certifies x checks it.  Raises :class:`NonconvergenceError` after
    ``maxiter`` iterations (default 10 * dimension).
    """
    steps = []
    x, info = _cg(matrix.__matmul__, rhs, x0, rtol=tol, maxiter=maxiter, psolve=precond, callback=steps.append)
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


def _check_tol(tol):
    """Reject a tolerance no residual can be checked against: non-finite or <= 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def solve_neumann(mesh, h, tol):
    """Solve the discrete problem (H1 operator) v = boundary load of h.

    ``h(points, normals)`` is evaluated at the boundary quadrature points.
    The result's ``residual_norm`` is the true relative residual of the
    returned solution.  ``tol`` must be finite and positive.  Raises
    :class:`NonconvergenceError` when CG's iteration cap (10 * dimension) is
    exceeded.
    """
    _check_tol(tol)
    load = assemble_boundary_load(mesh, h)
    space = fem_space(mesh)
    x, iterations, res = _pcg(space.h1_operator(), load, tol, space.preconditioner())
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
        matrix, precond = space.h1_operator(), space.preconditioner()
        # one pass over the boundary's face blocks forms the dictionary fields,
        # their element load vectors and every sample's integral of |h|^q
        contrib = np.empty((len(SMOOTH_FIELDS), len(space.face_areas), 3))
        h_powers = np.zeros(sample_count)
        for faces in space._face_blocks():
            fields = smooth_fields(space.boundary_points(faces))       # (faces, nqb, 14)
            weights = space.boundary_weights(faces)
            np.einsum("fqk,qi->kfi", weights[..., None] * fields, space.bnd_basis, out=contrib[:, faces])
            for s, c in enumerate(coeffs):
                h_powers[s] += np.sum(weights * np.abs(fields @ c) ** q)
        loads = np.array([np.bincount(mesh.boundary_faces.ravel(), weights=f.ravel(), minlength=space.nv)
                          for f in contrib])
        basis = np.array([_pcg(matrix, load, _BASIS_TOL, precond)[0] for load in loads])
        values = (coeffs @ basis).T                                  # (nv, S), contiguous columns
        for s, c in enumerate(coeffs):
            # a start that already meets tol returns after one matvec; else CG polishes it
            values[:, s], iterations, res = _pcg(matrix, c @ loads, tol, precond, x0=values[:, s])
            if not res <= tol:
                raise NonconvergenceError(f"regularity sample {s} at n={n}: true relative "
                                          f"residual {res:.3e} exceeds tolerance {tol}", iterations, res)
        h_norms = h_powers ** (1.0 / q)
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
