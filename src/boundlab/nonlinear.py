"""Boundary nonlinearities and nonlinear solves.

A :class:`Nonlinearity` bundles the boundary flux f(x, s), its antiderivative
F(x, s) and the s-derivative, plus the growth and superlinearity data that
certify it.  Ground states of the pure-power family are computed by nested
iteration on the level hierarchy: inverse iteration on the constraint
manifold int_bnd w f(x, w) = 1 on the coarsest level, with the flux f as its
load, unscaled through the multiplier, then damped Newton on the discrete
weak residual on every level, each starting from the prolongated solution of
the level below.  Newton steps are MINRES solves with a matrix-free
Jacobian, preconditioned by the level's fast-diagonalization inverse (an
exact LU on a coarsest level).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import FemFunction, _prolong, fem_space
# splu is not called here: binding assembly's _splu (which imports scipy's splu
# on its first call) under this name lets bench/tracer.py's nonlinear.splu
# wrapper reach the coarsest level's factorization, the preconditioner there
from .assembly import _splu as splu  # noqa: F401
from .linear_solver import _check_tol, _pcg
from .mesh import build_cube_mesh

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

    @property
    def reads_points(self):
        """Whether f, F and f_s read their points: the pure power reads none,
        so its boundary evaluations form no quadrature points."""
        return self.kind != "power"


def make_power_nonlinearity(p, lam_scale=1.0):
    """Pure power flux f(x, s) = lam * |s|^(p-1) * s, with growth constant
    B0 = lam and exact AR data.

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

    return Nonlinearity(p=p, B0=lam, f=f, F=F, f_s=f_s, theta=theta, s0=0.0, kind="power")


# -- certification checks -----------------------------------------------------
#
# verify_chain.energy_bound_check runs the growth, superlinearity and
# antiderivative checks on the flux of every family member.


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    message: str = "pass"
    where: dict = None


_DEFAULT_S_GRID = np.linspace(-100.0, 100.0, 1001)

# cube corners and face centers, a representative boundary sample
_X_POINTS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
        [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
        [0.5, 0.5, 0], [0.5, 0.5, 1], [0.5, 0, 0.5],
        [0.5, 1, 0.5], [0, 0.5, 0.5], [1, 0.5, 0.5],
    ],
    dtype=float,
)


def _check_grid(s_values):
    s = _DEFAULT_S_GRID if s_values is None else np.asarray(s_values, dtype=float)
    # broadcast to the full (x, s) product grid
    xs = np.broadcast_to(_X_POINTS[:, None, :], (len(_X_POINTS), s.size, 3))
    ss = np.broadcast_to(s[None, :], (len(_X_POINTS), s.size))
    return xs, ss


def _first_violation(mask, xs, ss, lhs, rhs):
    i, j = np.argwhere(mask)[0]
    return {
        "x": xs[i, j].tolist(),
        "s": float(ss[i, j]),
        "lhs": float(lhs[i, j]),
        "rhs": float(rhs[i, j]),
    }


def growth_check(nl, s_values=None):
    """Pointwise check of |f(x, s)| <= B0 (1 + |s|^p) on the sample grid."""
    xs, ss = _check_grid(s_values)
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


def ar_check(nl, s_values=None):
    """Check theta*F(x, s) <= s*f(x, s) for |s| > s0 on the sample grid."""
    xs, ss = _check_grid(s_values)
    defect = ar_defect(nl, xs, ss)
    relevant = np.abs(ss) > nl.s0
    bad = relevant & (defect > 0.0)
    if np.any(bad):
        lhs = nl.theta * nl.F(xs, ss)
        rhs = ss * nl.f(xs, ss)
        where = _first_violation(bad, xs, ss, lhs, rhs)
        return CheckResult(False, f"superlinearity violated at s = {where['s']}", where)
    return CheckResult(True)


def antiderivative_check(nl, s_values=None, tol=1e-6):
    """Finite-difference consistency of F with f: dF/ds = f within tol."""
    xs, ss = _check_grid(s_values)
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

# stage 1 of solve_ground_state: the constraint iteration stops when the
# multiplier's relative change is <= _MULTIPLIER_TOL, and fails after _MAX_OUTER steps
_MAX_OUTER = 500
_MULTIPLIER_TOL = 1e-8
# newton_refine fails after _MAX_NEWTON steps, or when _MAX_HALVINGS halvings
# of one step do not decrease the residual norm
_MAX_NEWTON = 50
_MAX_HALVINGS = 30
# solve_ground_state polishes every level to min(tol, _POLISH_TOL): at tol 1e-8
# a certified residual can leave the main estimate's rho 6.5e-6 off (p = 3/2,
# n = 64), and a 1e-12 polish still leaves it 3.9e-9 off
_POLISH_TOL = 1e-13


def _residual(space, operator, values, nl):
    """Weak residual r = operator values - load of ``values``, and its norm
    relative to 1 + ||operator values||."""
    a_values = operator @ values
    r = a_values - space.boundary_load_from_values(space.at_boundary(values, nl.f, nl.reads_points))
    return r, float(np.linalg.norm(r)) / (1.0 + float(np.linalg.norm(a_values)))


def weak_residual(u, nl):
    """Relative Euclidean norm of the discrete weak-form residual.

    With ``certify_solution`` it is the certification seam: the way a function
    that no solver here returned (the tests' hand-built functions, a rescaled
    solution) enters the solution-only steps.  The CLI's solves certify
    through ``newton_refine`` instead.
    """
    space = fem_space(u.mesh)
    return _residual(space, space.h1_operator(), u.values, nl)[1]


@dataclass(eq=False)
class SolveOutcome:
    """Result of a nonlinear solve, with its own certificate: the weak
    residual of ``solution`` for the flux ``nonlinearity``."""

    solution: FemFunction
    nonlinearity: Nonlinearity
    multiplier: float
    weak_residual: float
    outer_iterations: int
    newton_iterations: int
    positive: bool
    tolerance: float
    residual_history: list = field(default_factory=list)
    # norms of the solution, evaluated once by verify_chain.solution_row
    norm_row: dict = field(default=None, init=False, repr=False)


class StagnationError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class SolverDivergence(RuntimeError):
    def __init__(self, message, last_values, history):
        super().__init__(message)
        self.last_values = last_values
        self.history = history


def _outcome(u, nl, tol, history, newton_iterations=0):
    """Outcome of u with the last residual of its history as certificate."""
    return SolveOutcome(
        solution=u,
        nonlinearity=nl,
        multiplier=float("nan"),
        weak_residual=history[-1],
        outer_iterations=0,
        newton_iterations=newton_iterations,
        positive=bool(np.all(u.values > 0)),
        tolerance=tol,
        residual_history=history,
    )


def certify_solution(u, nl, tol):
    """Wrap an existing function as an outcome carrying its honest residual
    (``weak_residual``, the certification seam); ``tol`` must be finite and
    positive, so no residual passes unchecked."""
    _check_tol(tol)
    return _outcome(u, nl, tol, [weak_residual(u, nl)])


def _jacobian(space, operator, values, nl):
    """Newton Jacobian (H1 operator - boundary jacobian of f_s) at values, matrix-free.

    Only the boundary part, an O(n^2) CSR assembled block by block of faces,
    is formed; a product is ``operator @ v - boundary @ v``, so no CSR of the
    H1 operator's size is formed per Newton step.
    """
    from scipy.sparse.linalg import LinearOperator

    boundary = space.boundary_operator_from_values(space.at_boundary(values, nl.f_s, nl.reads_points))
    return LinearOperator(operator.shape, matvec=lambda v: operator @ v - boundary @ v, dtype=float)


def newton_refine(u0, nl, tol):
    """Damped Newton on the weak residual, from the supplied start.

    The step solves (H1 operator - boundary jacobian of f_s) * delta = -residual.
    That Jacobian is symmetric and indefinite at a mountain-pass solution
    (Morse index 1), so the solve is MINRES preconditioned by the level's
    ``preconditioner()``, an SPD approximate inverse of the H1 operator, to
    relative tolerance min(1e-10, 0.1 * residual).  The step is halved, at
    most ``_MAX_HALVINGS`` times, until the residual norm decreases.  Raises
    :class:`SolverDivergence` when MINRES stops short of its tolerance,
    damping stalls, or ``_MAX_NEWTON`` steps do not reach tol.
    """
    from scipy.sparse.linalg import minres

    space = fem_space(u0.mesh)
    operator = space.h1_operator()
    values = u0.values.copy()
    r, relative = _residual(space, operator, values, nl)
    history = [relative]
    it = 0
    while history[-1] > tol:
        if it == _MAX_NEWTON:
            raise SolverDivergence(
                f"Newton did not reach tolerance {tol} in {_MAX_NEWTON} iterations",
                values,
                history,
            )
        it += 1
        jac = _jacobian(space, operator, values, nl)
        steps = []
        delta, info = minres(
            jac, -r, M=space.preconditioner(), rtol=min(1e-10, 0.1 * history[-1]),
            callback=steps.append,
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
        for _ in range(_MAX_HALVINGS + 1):
            trial = values + step * delta
            r_trial, relative = _residual(space, operator, trial, nl)
            if float(np.linalg.norm(r_trial)) < r_norm:
                break
            step *= 0.5
        else:
            raise SolverDivergence(
                f"Newton stalled at iteration {it}: residual does not decrease "
                f"under the damping schedule",
                values,
                history,
            )
        values, r = trial, r_trial
        history.append(relative)
    return _outcome(FemFunction(u0.mesh, values), nl, tol, history, it)


def _normalized(space, values, nl):
    """values scaled onto the constraint manifold int_bnd w f(x, w) = 1
    (exactly for a flux that is p-homogeneous in w)."""
    mass = space.boundary_integral(space.at_boundary(values, lambda x, u: u * nl.f(x, u), nl.reads_points))
    return values / mass ** (1.0 / (nl.p + 1.0))


def _constraint_iteration(space, nl, tol, seed):
    """Stage 1 of a ground-state solve on one level, from a seeded random start.

    Inverse iteration on the constraint manifold int_bnd w f(x, w) = 1:
    repeatedly solve the linear problem with flux data f(x, w) and
    renormalize, until the multiplier mu = a(w, w) stabilizes (relative
    change <= ``_MULTIPLIER_TOL``, at most ``_MAX_OUTER`` steps; each CG
    solve to min(1e-10, 0.01 * tol)).  For a p-homogeneous flux the fixed
    point satisfies a(w, v) = mu int_bnd f(x, w) v, so the returned
    u = mu^(1/(p-1)) w carries the flux condition itself; the number of
    iterations is returned with it.
    """
    linear_tol = min(1e-10, 0.01 * tol)
    operator = space.h1_operator()
    precond = space.preconditioner()

    rng = np.random.default_rng(seed)
    w = 0.5 + rng.random(space.nv)
    # one linear solve to smooth the random start
    load = space.boundary_load_from_values(lambda faces: space.boundary_values(w, faces))
    w, _, _ = _pcg(operator, load, linear_tol, precond)
    w = _normalized(space, w, nl)

    mu = float(w @ (operator @ w))
    mu_trace = [mu]
    for outer in range(1, _MAX_OUTER + 1):
        load = space.boundary_load_from_values(space.at_boundary(w, nl.f, nl.reads_points))
        w_new, _, _ = _pcg(operator, load, linear_tol, precond, x0=w)
        w = _normalized(space, w_new, nl)
        mu_new = float(w @ (operator @ w))
        mu_trace.append(mu_new)
        converged = abs(mu_new - mu) <= _MULTIPLIER_TOL * max(1.0, abs(mu_new))
        mu = mu_new
        if converged:
            return mu ** (1.0 / (nl.p - 1.0)) * w, outer
    raise StagnationError(
        f"constraint iteration did not stabilize the multiplier in {_MAX_OUTER} steps",
        mu_trace,
    )


def _level_ground_state(space, nl, tol, seed):
    """Polished ground state of one level, solved once and kept on its workspace."""
    key = (nl, seed, tol)  # a Nonlinearity hashes by identity
    outcome = space.ground_states.get(key)
    if outcome is None:
        n = space.coarse_n()
        if n is None:
            values, outer = _constraint_iteration(space, nl, tol, seed)
        else:
            coarse = _level_ground_state(fem_space(build_cube_mesh(n)), nl, tol, seed)
            values, outer = _prolong(coarse.solution.values, n), coarse.outer_iterations
        outcome = newton_refine(FemFunction(space.mesh, values), nl, min(tol, _POLISH_TOL))
        values = outcome.solution.values
        values.flags.writeable = False  # shared by every later solve of this level
        w = _normalized(space, values, nl)
        outcome = replace(outcome, multiplier=float(w @ (space.h1_operator() @ w)),
                          outer_iterations=outer, tolerance=tol)
        space.ground_states[key] = outcome
    return outcome


def solve_ground_state(mesh, nl, tol, seed):
    """Positive ground state of the pure-power problem on a mesh, by nested iteration.

    The levels of mesh's hierarchy (n halved while even and > 2) are solved
    coarsest first.  The coarsest level runs the constraint iteration from a
    random start drawn from ``seed`` (the only use of the seed); every finer
    level starts from the prolongated solution of the level below.  Each
    level is polished by damped Newton to residual min(tol, 1e-13), and is
    solved once per (flux object, seed, tol) and kept on its workspace, so
    the solves of a sweep over n with one flux share their coarse levels.

    The outcome's ``multiplier`` is a(w, w) of the returned solution scaled
    onto int_bnd w f(x, w) = 1, ``outer_iterations`` counts the coarsest
    level's constraint iterations, and ``newton_iterations`` and
    ``residual_history`` are those of mesh's own level.  ``tol`` must be
    finite and positive.
    """
    if nl.kind != "power":
        raise ValueError("ground-state solve requires a pure-power nonlinearity")
    _check_tol(tol)
    return _level_ground_state(fem_space(mesh), nl, tol, seed)
