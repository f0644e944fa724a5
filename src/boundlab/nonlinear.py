"""Boundary nonlinearities and nonlinear solves.

A :class:`Nonlinearity` bundles the boundary flux f(x, s), its antiderivative
F(x, s) and the s-derivative, plus the growth and superlinearity data that
certify it.  Ground states of the pure-power family are computed by inverse
iteration on the constraint manifold, unscaled through the multiplier, and
polished with damped Newton on the discrete weak residual, whose steps are
multigrid-preconditioned MINRES solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# splu is not called here: the name stays bound so that bench/tracer.py's
# nonlinear.splu wrapper also reaches the coarse-level factorization in assembly
from scipy.sparse.linalg import minres, splu  # noqa: F401

from .assembly import FemFunction, fem_space

__all__ = [
    "Nonlinearity",
    "CheckResult",
    "SolveOutcome",
    "StagnationError",
    "SolverDivergence",
    "make_power_nonlinearity",
    "growth_check",
    "ar_check",
    "ar_defect",
    "antiderivative_check",
    "weak_residual",
    "solve_ground_state",
    "newton_refine",
    "certify_solution",
]


@dataclass(eq=False)
class Nonlinearity:
    """Boundary flux f(x, s) with antiderivative and certification data.

    f, F, f_s are vectorized callables of (points, values) where points has
    shape (..., 3) and values shape (...); F must vanish at s = 0.  B0 and p
    bound the growth |f| <= B0(1 + |s|^p); theta > 2 and s0 >= 0 are the
    superlinearity constants.
    """

    p: float
    B0: float
    f: object
    F: object
    f_s: object
    theta: float
    s0: float
    kind: str = "custom"
    scale: float = 1.0


def make_power_nonlinearity(p, lam_scale=1.0):
    """Pure power flux f(x, s) = lam * |s|^(p-1) * s with exact growth/AR data.

    F is written as s*f(s)/(p+1) (the same closed form as |s|^(p+1)*lam/(p+1)),
    which keeps the superlinearity comparison cancellation-free.
    """
    p = float(p)
    lam = float(lam_scale)
    if not (1.0 < p < 3.0):
        raise ValueError(f"power must satisfy 1 < p < 3 on the 3-D cube, got {p}")
    if lam <= 0.0:
        raise ValueError("scale must be positive")
    theta = p + 1.0

    def f(x, s):
        s = np.asarray(s, dtype=float)
        return lam * np.sign(s) * np.abs(s) ** p

    def F(x, s):
        s = np.asarray(s, dtype=float)
        return s * f(x, s) / theta

    def f_s(x, s):
        s = np.asarray(s, dtype=float)
        return lam * p * np.abs(s) ** (p - 1.0)

    return Nonlinearity(
        p=p, B0=lam, f=f, F=F, f_s=f_s, theta=theta, s0=0.0, kind="power", scale=lam
    )


# -- certification checks -----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    message: str = "pass"
    where: dict = None


_DEFAULT_S_GRID = np.linspace(-100.0, 100.0, 1001)

# cube corners and face centers, a representative boundary sample
_DEFAULT_X_POINTS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
        [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
        [0.5, 0.5, 0], [0.5, 0.5, 1], [0.5, 0, 0.5],
        [0.5, 1, 0.5], [0, 0.5, 0.5], [1, 0.5, 0.5],
    ],
    dtype=float,
)


def _check_grid(s_values, x_points):
    s = _DEFAULT_S_GRID if s_values is None else np.asarray(s_values, dtype=float)
    x = _DEFAULT_X_POINTS if x_points is None else np.asarray(x_points, dtype=float)
    # broadcast to the full (x, s) product grid
    xs = np.broadcast_to(x[:, None, :], (x.shape[0], s.size, 3))
    ss = np.broadcast_to(s[None, :], (x.shape[0], s.size))
    return xs, ss


def _first_violation(mask, xs, ss, lhs, rhs):
    i, j = np.argwhere(mask)[0]
    return {
        "x": xs[i, j].tolist(),
        "s": float(ss[i, j]),
        "lhs": float(lhs[i, j]),
        "rhs": float(rhs[i, j]),
    }


def growth_check(nl, s_values=None, x_points=None):
    """Pointwise check of |f(x, s)| <= B0 (1 + |s|^p) on the sample grid."""
    xs, ss = _check_grid(s_values, x_points)
    lhs = np.abs(nl.f(xs, ss))
    rhs = nl.B0 * (1.0 + np.abs(ss) ** nl.p)
    bad = lhs > rhs
    if np.any(bad):
        where = _first_violation(bad, xs, ss, lhs, rhs)
        return CheckResult(False, f"growth bound violated at s = {where['s']}", where)
    return CheckResult(True)


def ar_defect(nl, x, s):
    """Superlinearity defect theta*F(x, s) - s*f(x, s).

    Evaluated as theta*(F - s*f/theta), which is the same real quantity and
    vanishes bitwise for the pure-power family, where F is the matching
    closed form.
    """
    s = np.asarray(s, dtype=float)
    return nl.theta * (nl.F(x, s) - s * nl.f(x, s) / nl.theta)


def ar_check(nl, s_values=None, x_points=None):
    """Check theta*F(x, s) <= s*f(x, s) for |s| > s0 on the sample grid."""
    xs, ss = _check_grid(s_values, x_points)
    defect = ar_defect(nl, xs, ss)
    relevant = np.abs(ss) > nl.s0
    bad = relevant & (defect > 0.0)
    if np.any(bad):
        lhs = nl.theta * nl.F(xs, ss)
        rhs = ss * nl.f(xs, ss)
        where = _first_violation(bad, xs, ss, lhs, rhs)
        return CheckResult(False, f"superlinearity violated at s = {where['s']}", where)
    return CheckResult(True)


def antiderivative_check(nl, s_values=None, x_points=None, tol=1e-6):
    """Finite-difference consistency of F with f: dF/ds = f within tol."""
    xs, ss = _check_grid(s_values, x_points)
    h = 1e-4 * np.maximum(1.0, np.abs(ss))
    fd = (nl.F(xs, ss + h) - nl.F(xs, ss - h)) / (2.0 * h)
    fv = nl.f(xs, ss)
    err = np.abs(fd - fv)
    bound = tol * (1.0 + np.abs(fv))
    bad = err > bound
    if np.any(bad):
        where = _first_violation(bad, xs, ss, fd, fv)
        return CheckResult(False, f"antiderivative mismatch at s = {where['s']}", where)
    return CheckResult(True)


# -- weak residual and solves --------------------------------------------------


def _residual_vector(space, operator, values, nl):
    uq = space.boundary_values(values)
    load = space.boundary_load_from_values(nl.f(space.bnd_pts, uq))
    return operator.apply(values) - load


def weak_residual(u, nl):
    """Relative Euclidean norm of the discrete weak-form residual."""
    space = fem_space(u.mesh)
    operator = space.h1_operator()
    r = _residual_vector(space, operator, u.values, nl)
    scale = 1.0 + float(np.linalg.norm(operator.apply(u.values)))
    return float(np.linalg.norm(r)) / scale


@dataclass(eq=False)
class SolveOutcome:
    """Result of a nonlinear solve, with its own certificate."""

    solution: FemFunction
    multiplier: float
    weak_residual: float
    outer_iterations: int
    newton_iterations: int
    positive: bool
    tolerance: float
    residual_history: list = field(default_factory=list)

    def as_dict(self):
        return {
            "n": self.solution.mesh.n,
            "multiplier": self.multiplier,
            "weak_residual": self.weak_residual,
            "outer_iterations": self.outer_iterations,
            "newton_iterations": self.newton_iterations,
            "positive": self.positive,
            "tolerance": self.tolerance,
            "values": self.solution.values.tolist(),
        }


class StagnationError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class SolverDivergence(RuntimeError):
    def __init__(self, message, last_values, history):
        super().__init__(message)
        self.last_values = last_values
        self.history = history


def certify_solution(u, nl, tol):
    """Wrap an existing function as an outcome carrying its honest residual."""
    res = weak_residual(u, nl)
    return SolveOutcome(
        solution=u,
        multiplier=float("nan"),
        weak_residual=res,
        outer_iterations=0,
        newton_iterations=0,
        positive=bool(np.all(u.values > 0)),
        tolerance=tol,
        residual_history=[res],
    )


def newton_refine(u0, nl, tol, max_iterations=50, max_halvings=30):
    """Damped Newton on the weak residual, from the supplied start.

    The step solves (H1 operator - boundary jacobian of f_s) * delta = -residual.
    That Jacobian is symmetric and indefinite at a mountain-pass solution
    (Morse index 1), so the solve is MINRES preconditioned by the level's
    multigrid V-cycle, to relative tolerance min(1e-10, 0.1 * residual).  The
    step is halved until the residual norm decreases.  Raises
    :class:`SolverDivergence` when MINRES stops short of its tolerance or
    damping stalls.
    """
    space = fem_space(u0.mesh)
    operator = space.h1_operator()
    values = u0.values.copy()

    def rel(r, v):
        return float(np.linalg.norm(r)) / (1.0 + float(np.linalg.norm(operator.apply(v))))

    r = _residual_vector(space, operator, values, nl)
    history = [rel(r, values)]
    if history[-1] <= tol:
        return SolveOutcome(
            solution=FemFunction(u0.mesh, values),
            multiplier=float("nan"),
            weak_residual=history[-1],
            outer_iterations=0,
            newton_iterations=0,
            positive=bool(np.all(values > 0)),
            tolerance=tol,
            residual_history=history,
        )

    for it in range(1, max_iterations + 1):
        uq = space.boundary_values(values)
        jac_bnd = space.boundary_operator_from_values(nl.f_s(space.bnd_pts, uq))
        jac = operator.matrix - jac_bnd.matrix
        steps = []
        delta, info = minres(
            jac, -r, M=space.vcycle(), rtol=min(1e-10, 0.1 * history[-1]),
            callback=lambda x: steps.append(None),
        )
        if info != 0:
            inner = float(np.linalg.norm(jac @ delta + r)) / float(np.linalg.norm(r))
            raise SolverDivergence(
                f"Newton step {it}: MINRES stopped after {len(steps)} iterations "
                f"at relative residual {inner:.3e}",
                values,
                history,
            )

        r_norm = float(np.linalg.norm(r))
        step = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            trial = values + step * delta
            r_trial = _residual_vector(space, operator, trial, nl)
            if float(np.linalg.norm(r_trial)) < r_norm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise SolverDivergence(
                f"Newton stalled at iteration {it}: residual does not decrease "
                f"under the damping schedule",
                values,
                history,
            )
        values = trial
        r = r_trial
        history.append(rel(r, values))
        if history[-1] <= tol:
            return SolveOutcome(
                solution=FemFunction(u0.mesh, values),
                multiplier=float("nan"),
                weak_residual=history[-1],
                outer_iterations=0,
                newton_iterations=it,
                positive=bool(np.all(values > 0)),
                tolerance=tol,
                residual_history=history,
            )
    raise SolverDivergence(
        f"Newton did not reach tolerance {tol} in {max_iterations} iterations",
        values,
        history,
    )


def solve_ground_state(
    mesh, nl, tol, seed, max_outer=500, multiplier_tol=1e-8, linear_tol=None
):
    """Positive ground state of the pure-power problem on a mesh.

    Stage 1 runs inverse iteration on the constraint manifold
    int_bnd |w|^(p+1) = 1: repeatedly solve the linear problem with flux data
    |w|^(p-1) w and renormalize, until the multiplier a(w, w) stabilizes.
    Stage 2 unscales u = (mu/lam)^(1/(p-1)) w so u carries the stated flux
    condition.  Stage 3 polishes with damped Newton to the requested residual.
    """
    from .linear_solver import _pcg

    if nl.kind != "power":
        raise ValueError("ground-state solve requires a pure-power nonlinearity")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p = nl.p
    lam = nl.scale
    if linear_tol is None:
        linear_tol = min(1e-10, 0.01 * tol)

    space = fem_space(mesh)
    operator = space.h1_operator()
    vcycle = space.vcycle()
    maxiter = 10 * operator.dimension

    rng = np.random.default_rng(seed)
    w = 0.5 + rng.random(space.nv)

    def boundary_power(values):
        uq = space.boundary_values(values)
        return np.sign(uq) * np.abs(uq) ** p

    def renormalize(values):
        uq = space.boundary_values(values)
        mass = space.boundary_integral(np.abs(uq) ** (p + 1.0))
        return values / mass ** (1.0 / (p + 1.0))

    # one linear solve to smooth the random start
    load = space.boundary_load_from_values(space.boundary_values(w))
    w, _, _ = _pcg(operator.matrix, load, linear_tol, maxiter, vcycle)
    w = renormalize(w)

    mu = operator.quadratic_form(w)
    mu_trace = [mu]
    converged = False
    for outer in range(1, max_outer + 1):
        load = space.boundary_load_from_values(boundary_power(w))
        w_new, _, _ = _pcg(operator.matrix, load, linear_tol, maxiter, vcycle, x0=w)
        w = renormalize(w_new)
        mu_new = operator.quadratic_form(w)
        mu_trace.append(mu_new)
        if abs(mu_new - mu) <= multiplier_tol * max(1.0, abs(mu_new)):
            mu = mu_new
            converged = True
            break
        mu = mu_new
    if not converged:
        raise StagnationError(
            f"constraint iteration did not stabilize the multiplier in {max_outer} steps",
            mu_trace,
        )

    u = FemFunction(mesh, (mu / lam) ** (1.0 / (p - 1.0)) * w)
    refined = newton_refine(u, nl, tol)
    return SolveOutcome(
        solution=refined.solution,
        multiplier=mu,
        weak_residual=refined.weak_residual,
        outer_iterations=outer,
        newton_iterations=refined.newton_iterations,
        positive=refined.positive,
        tolerance=tol,
        residual_history=refined.residual_history,
    )
