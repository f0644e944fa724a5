"""Step-by-step verification of the sup-norm estimate chain.

Steps with a computable constant (boundary growth, boundary Holder,
boundary-max vs volume-max) are asserted on every corpus element, as array
inequalities over the corpus's norm table: they are theorems about all
functions and admit no violations.  Steps whose constant is merely known to exist
(interpolation ratio, main estimate) are never asserted pointwise; the suite
tracks their maxima across refinement and reports saturation, the testable
surrogate for a function-independent constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import fem_space
from .exponents import critical_exponents
from .linear_solver import SMOOTH_FIELDS, smooth_fields
from .mesh import _CUBE_AREA
from .nonlinear import SolveOutcome, _check_grid, antiderivative_check, ar_check, growth_check
from .norms import _lyapunov_power, _power_bounds, gn_ratios, norm_table

__all__ = [
    "CertificationError",
    "Corpus",
    "build_corpus",
    "StepRecord",
    "step_row",
    "failing_records",
    "branch_label",
    "UniversalReport",
    "universal_suite",
    "gn_ratio_suite",
    "GnSuiteReport",
    "solution_norms",
    "solution_row",
    "main_estimate_ratio",
    "h1_trace_bound",
    "norm_equivalence_report",
    "EquivalenceReport",
    "energy_bound_check",
    "EnergyReport",
]


class CertificationError(ValueError):
    """Raised when a solution-only step receives an uncertified function."""


@dataclass(eq=False)
class Corpus:
    mesh: object
    values: np.ndarray      # nodal matrix (nv x size), a column per function
    kinds: list
    copies: dict = field(default_factory=dict)  # column -> (base column, scale > 0)
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def table(self, ctx):
        """The full-width norm table under ctx (``_corpus_table``), computed
        once and read by both the universal and the gn suite.  It holds no
        W^{1,m} norm, only the parts the gn suite bounds it by."""
        if ctx not in self._tables:
            self._tables[ctx] = _corpus_table(self.mesh, self.values, ctx, self.copies)
        return self._tables[ctx]


def build_corpus(mesh, size, seed, solutions=()):
    """Seeded test corpus: half random nodal noise, a quarter smooth fields,
    a quarter computed solutions (cycled with seeded positive scalings when
    fewer distinct solutions than slots are available).  Each rescaled slot is
    recorded in ``copies`` as (its solution's first slot, scale), so the norm
    table integrates its volume norms once.

    Amplitudes are drawn log-uniformly so both branches of the sup-norm
    dichotomy (max above / below one) are exercised.
    """
    rng = np.random.default_rng(seed)
    nv = mesh.num_vertices
    n_random = size // 2
    n_smooth = size // 4 if solutions else size - n_random
    n_solution = size - n_random - n_smooth if solutions else 0

    # each column is written in place, in the order of the rng draws
    values = np.empty((nv, size))
    copies = {}
    for j in range(n_random):
        amp = 10.0 ** rng.uniform(-2.0, 1.0)
        np.multiply(amp, rng.standard_normal(nv), out=values[:, j])
    dictionary = smooth_fields(mesh.vertices)                       # (nv, 14)
    for j in range(n_random, n_random + n_smooth):
        coeffs = rng.standard_normal(len(SMOOTH_FIELDS))
        amp = 10.0 ** rng.uniform(-2.0, 1.0)
        np.multiply(amp, dictionary @ coeffs, out=values[:, j])
    first = n_random + n_smooth
    for i in range(n_solution):
        base = solutions[i % len(solutions)]
        scale = 1.0
        if i >= len(solutions):
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            copies[first + i] = (first + i % len(solutions), scale)
        np.multiply(scale, base.values, out=values[:, first + i])
    kinds = ["random"] * n_random + ["smooth"] * n_smooth + ["solution"] * n_solution
    return Corpus(mesh, values, kinds, copies)


@dataclass(eq=False)
class StepRecord:
    step: str
    left: float
    right: float
    verdict: str
    branch: str = ""
    n: int = 0
    data: dict = field(default_factory=dict)

    def row(self, ctx):
        """This record as its report row.  The main estimate reports its
        observed constant rho; every other step reports its margin right - left."""
        value = self.data["rho"] if self.step == "main_estimate" else self.right - self.left
        return step_row(ctx, self.step, self.n, value, self.verdict, self.branch)


def step_row(ctx, step, n, value, verdict, branch):
    """One row of the verify report; every suite reports through it."""
    return dict(step=step, n=n, p=float(ctx.p), q=float(ctx.q),
                max_ratio_or_margin=value, verdict=verdict, branch=branch)


# verdicts that fail a run: an asserted step that fails, or a main estimate
# whose observed constant is not finite
_FAILING_VERDICTS = ("fail", "nonfinite")


def failing_records(records):
    """The records whose verdict fails a run, in record order."""
    return [r for r in records if r.verdict in _FAILING_VERDICTS]


def _side(linf):
    return "sup>1" if linf > 1.0 else "sup<=1"


def branch_label(branches):
    """Branch label of a group: "both" sides of the dichotomy, or the one seen."""
    seen = set(branches) - {""}
    return "both" if len(seen) > 1 else (seen.pop() if seen else "")


# -- explicit-constant steps ---------------------------------------------------
#
# Each step is an inequality between columns of the corpus's norm table (see
# ``norm_table``): one table per corpus holds every norm the three steps and
# the gn suite read.


def _corpus_table(mesh, values, ctx, copies):
    """Norm table of the columns of ``values`` with every norm a corpus step
    reads: the L^{2*} volume norm of the interpolation ratio and, in place of
    its W^{1,m} norm, the L^m norm of the gradient and the closed-form L^e
    norm that bound it (``_max_gn_ratio``); the boundary norms L^{pq}, L^r
    and L^{p r'} at the trace-critical r, and the Holder pairing of each
    column with the next.  ``copies`` is the corpus's map of rescaled
    columns (see ``norm_table``)."""
    p = float(ctx.p)
    q = float(ctx.q)
    r = float(ctx.two_low_star)
    if p * q < r:
        raise ValueError("boundary growth step requires p*q >= trace-critical exponent")
    m = float(ctx.m)
    return norm_table(mesh, values, volume=(ctx.two_star, _lyapunov_power(m)),
                      boundary=(p * q, r, p * r / (r - 1.0)), gradient=(m,), holder_p=p, copies=copies)


@dataclass(eq=False)
class UniversalReport:
    """The explicit-constant steps of one corpus level: per step, the left
    side, right side and verdict of each column, as arrays over the columns."""

    n: int
    linf: np.ndarray    # the sup norm of each column, which names its branch
    steps: dict         # step -> (left, right, holds)

    @property
    def violations(self):
        """How many (step, column) pairs fail."""
        return sum(int(np.count_nonzero(~holds)) for _, _, holds in self.steps.values())

    def branch_counts(self):
        """The (step, column) pairs on each side of the sup-norm dichotomy."""
        above = int(np.count_nonzero(self.linf > 1.0))
        return {"sup>1": len(self.steps) * above, "sup<=1": len(self.steps) * (self.linf.size - above)}

    def summary_rows(self, ctx):
        """One row per step: the smallest margin, "fail" if any column fails,
        and the branches exercised."""
        branch = branch_label(_side(linf) for linf in self.linf)
        return [
            step_row(ctx, step, self.n, float(np.min(right - left)), "pass" if holds.all() else "fail", branch)
            for step, (left, right, holds) in self.steps.items()
        ]

    def failures(self):
        """One record per failing step, for its first failing column, whose
        index it carries as ``data["sample"]``."""
        records = []
        for step, (left, right, holds) in self.steps.items():
            if not holds.all():
                s = int(np.argmin(holds))
                records.append(StepRecord(step, float(left[s]), float(right[s]), "fail",
                                          _side(self.linf[s]), self.n, {"sample": s}))
        return records


def universal_suite(corpus, ctx, B0=1.0):
    """All explicit-constant steps over a corpus, as array inequalities over
    the columns of its norm table.  They hold for every function, so each is
    asserted on every column:

    - boundary growth, ||f(u)||_{L^q(bnd)}^q <= C (1 + max|u|^(pq - r) int_bnd |u|^r)
      with r the trace-critical exponent, f the B0-scaled pure power and
      C = B0^q 2^(q-1) max(|bnd|, 1), where |bnd| = 6 is the unit cube's area;
    - boundary Holder, int_bnd |f(u) psi| <= ||f(u)||_{r'} ||psi||_r, with psi
      the next column (cyclically) and a relative slack of 1e-10;
    - boundary max vs volume max, ||u||_{inf, bnd} <= ||u||_{inf, volume} (exact).

    Returns a UniversalReport."""
    table = corpus.table(ctx)
    p = float(ctx.p)
    q = float(ctx.q)
    r = float(ctx.two_low_star)
    linf, trace = table["linf"], table["boundary", r]
    constant = B0**q * 2.0 ** (q - 1.0) * _CUBE_AREA
    growth_left = B0**q * table["boundary", p * q] ** (p * q)
    growth_right = constant * (1.0 + linf ** (p * q - r) * trace**r)
    # table["holder"] is int_bnd |u|^p |psi|, and ||f(u)||_{r'} = B0 ||u||_{p r'}^p
    holder_left = B0 * table["holder"]
    holder_right = B0 * table["boundary", p * r / (r - 1.0)] ** p * np.roll(trace, -1)
    steps = {
        "boundary_growth": (growth_left, growth_right, growth_left <= growth_right),
        "boundary_holder": (holder_left, holder_right,
                            holder_left <= holder_right * (1.0 + 1e-10) + 1e-300),
        "boundary_max_vs_volume_max": (table["linf_boundary"], linf, table["linf_boundary"] <= linf),
    }
    return UniversalReport(corpus.mesh.n, linf, steps)


# -- fitted-constant steps -----------------------------------------------------


@dataclass(eq=False)
class GnSuiteReport:
    rows: list          # per n: n, size, max_ratio, branch label
    verdict: str        # "saturating" or "growing"
    factors: list       # max-ratio factors between consecutive levels

    def summary_rows(self, ctx):
        return [
            step_row(ctx, "gn_interpolation", r["n"], r["max_ratio"], self.verdict, r["branch"])
            for r in self.rows
        ]


# relative slack of the pruning test in ``_max_gn_ratio``.  The bounds are
# rigorous for the quadrature itself; their computed values and the computed
# ratio are each some dozens of roundings from exact (~1e-14 relative), so a
# margin far above that keeps every column that can hold the maximum.
_PRUNE_MARGIN = 1e-9


def _max_gn_ratio(corpus, ctx):
    """The largest ``gn_ratios`` value over a corpus, with the |u|^m quadrature
    run only on the columns that can reach it.

    Each ratio is bracketed from the corpus table alone: the W^{1,m} norm
    (Q(|u|^m) + G)^(1/m), G the gradient integral, is bounded by putting the
    closed-form bounds on Q(|u|^m) (``_power_bounds``) in its place.  The
    columns whose upper ratio bound reaches (1 - ``_PRUNE_MARGIN``) times the
    largest lower bound take the exact W^{1,m} norm in one ``norm_table``
    call; every other column's ratio lies below the maximum.  A copy has its
    base's ratio, so it is never integrated.  A zero column raises ValueError.
    """
    table = corpus.table(ctx)
    m = float(ctx.m)
    gradient = table["gradient", m] ** m

    def ratios(power_integral):
        """The ratios with ``power_integral`` in place of Q(|u|^m)."""
        return gn_ratios({**table, ("w1m", m): (power_integral + gradient) ** (1.0 / m)}, ctx)

    lower_integral, upper_integral = _power_bounds(table, m)
    lower, upper = ratios(upper_integral), ratios(lower_integral)
    distinct = np.array([s not in corpus.copies for s in range(len(lower))])
    kept = np.flatnonzero(distinct & (upper >= (1.0 - _PRUNE_MARGIN) * lower[distinct].max()))
    exact = norm_table(corpus.mesh, corpus.values[:, kept], w1m=(m,))
    return float(np.max(gn_ratios({key: column[kept] for key, column in table.items()} | exact, ctx)))


def gn_ratio_suite(corpora, ctx):
    """Interpolation-ratio maxima per mesh level over the given corpora.

    A level's maximum is ``_max_gn_ratio`` of its corpus.  The verdict is
    "saturating" when the max at each finer level is at most twice the max
    at the previous one.
    """
    rows = []
    for corpus in sorted(corpora, key=lambda c: c.mesh.n):
        table = corpus.table(ctx)
        rows.append(
            {
                "n": corpus.mesh.n,
                "size": corpus.values.shape[1],
                "max_ratio": _max_gn_ratio(corpus, ctx),
                "branch": branch_label(_side(linf) for linf in table["linf"]),
            }
        )
    factors = [b["max_ratio"] / a["max_ratio"] for a, b in zip(rows, rows[1:])]
    verdict = "saturating" if all(f <= 2.0 for f in factors) else "growing"
    return GnSuiteReport(rows=rows, verdict=verdict, factors=factors)


# -- solution-only steps ---------------------------------------------------------
#
# Each step reads the one norm row of each certified solution (``solution_row``).

# relative tolerance of the identities that are exact for a solution: the
# weak form tested with u itself, and the energy bound at the pure power
_IDENTITY_REL_TOL = 1e-6
# a solution row's L^{2*} volume and L^{2_*} boundary exponents, those of the 3-D cube
_TWO_STAR, _TWO_LOW_STAR = (float(e) for e in critical_exponents(3))


def _certified(outcome, what):
    """The solution and nonlinearity of a certified outcome; anything else
    raises CertificationError naming the step ``what``."""
    if not isinstance(outcome, SolveOutcome):
        raise CertificationError(f"{what} requires a SolveOutcome carrying its residual")
    if not outcome.weak_residual <= outcome.tolerance:
        raise CertificationError(
            f"{what} rejects uncertified input: weak residual "
            f"{outcome.weak_residual:.3e} exceeds tolerance {outcome.tolerance:.3e}"
        )
    return outcome.solution, outcome.nonlinearity


def solution_norms(outcome, what, w1m=()):
    """Norm row of a certified outcome under the flux f it certifies: its one
    norm-table row (linf, linf_boundary, L^{2*} volume and L^{2_*} boundary
    norms, and the W^{1,m} norms for ``w1m``) with the H1 form "h1_sq" = u.Au
    and its root "h1", "uf" = int_bnd f(u) u, "F" = int_bnd F(u), and the
    Holder terms int_bnd |f(u) u| and ||f(u)||_{L^{r'}(bnd)} at r = 2_*."""
    u, nl = _certified(outcome, what)
    space = fem_space(u.mesh)
    table = norm_table(u.mesh, u.values, volume=(_TWO_STAR,), boundary=(_TWO_LOW_STAR,), w1m=w1m)
    row = {key: float(column[0]) for key, column in table.items()}
    h1_sq = float(u.values @ (space.h1_operator() @ u.values))
    r_conj = _TWO_LOW_STAR / (_TWO_LOW_STAR - 1.0)

    def terms(faces):
        """The four boundary integrands on a block of faces, stacked."""
        points = space.boundary_points(faces) if nl.reads_points else None
        uq = space.boundary_values(u.values, faces)
        fq = nl.f(points, uq)
        fu = fq * uq
        return np.stack([fu, nl.F(points, uq), np.abs(fu), np.abs(fq) ** r_conj])

    uf, F, holder_left, f_power = space.boundary_integral(terms)
    row.update(h1_sq=h1_sq, h1=math.sqrt(h1_sq), uf=float(uf), F=float(F),
               holder_left=float(holder_left), f_norm=float(f_power) ** (1.0 / r_conj))
    return row


def solution_row(outcome, what):
    """``solution_norms`` of a certified outcome, evaluated once and shared by
    every step; the certificate is checked on every call."""
    _certified(outcome, what)
    if outcome.norm_row is None:
        outcome.norm_row = solution_norms(outcome, what)
    return outcome.norm_row


def main_estimate_ratio(outcome, ctx):
    """Observed constants of the main estimate for one certified solution.

    Records rho = ||u||_inf / (1 + ||u||_H1)^A and the split form
    rho_hat = ||u||_inf / ((1 + ||u||_{trace}^A1) (1 + ||u||_{volume}^A2));
    across a family of solutions the running max of rho is the fitted
    constant.
    """
    row = solution_row(outcome, "main_estimate_ratio")
    linf, h1 = row["linf"], row["h1"]
    trace, vol = row["boundary", float(ctx.two_low_star)], row["volume", float(ctx.two_star)]
    right = (1.0 + h1) ** float(ctx.A)
    rho = linf / right
    rho_hat = linf / ((1.0 + trace ** float(ctx.A_hat1)) * (1.0 + vol ** float(ctx.A_hat2)))
    ok = np.isfinite(rho) and np.isfinite(rho_hat)
    return StepRecord(
        step="main_estimate",
        left=linf,
        right=right,
        verdict="finite" if ok else "nonfinite",
        branch=_side(linf),
        n=outcome.solution.mesh.n,
        data={"rho": rho, "rho_hat": rho_hat, "h1": h1},
    )


def h1_trace_bound(outcome, ctx):
    """Two-part bound behind the trace estimate of the H1 norm, for one
    certified solution under the flux f it certifies.

    (a) the weak form tested with the solution itself:
        ||u||_H1^2 equals int_bnd f(u) u within a relative 1e-6 (encodes
        solutionhood);
    (b) the Holder bound int_bnd f(u) u <= ||f(u)||_{r'} ||u||_{r} at the
        trace-critical exponent r = ctx.two_low_star, which holds for every
        function.
    """
    row = solution_row(outcome, "h1_trace_bound")
    h1_sq, uf = row["h1_sq"], row["uf"]
    part_a = abs(h1_sq - uf) <= _IDENTITY_REL_TOL * max(1.0, h1_sq)
    holder_right = row["f_norm"] * row["boundary", float(ctx.two_low_star)]
    part_b = row["holder_left"] <= holder_right * (1.0 + 1e-10) + 1e-300

    return StepRecord(
        step="h1_trace_bound",
        left=h1_sq,
        right=uf,
        verdict="pass" if (part_a and part_b) else "fail",
        branch=_side(row["linf"]),
        n=outcome.solution.mesh.n,
        data={"part_a": "pass" if part_a else "fail", "part_b": "pass" if part_b else "fail"},
    )


# -- family-level reports --------------------------------------------------------


@dataclass(eq=False)
class EquivalenceReport:
    rows: list
    column_max: dict
    co_bounded: bool
    co_vanishing: bool

    def summary_rows(self, ctx):
        """One row at the finest level: the largest sup norm over the family."""
        verdict = "co-bounded" if self.co_bounded else "unbounded"
        branch = "co-vanishing" if self.co_vanishing else "non-vanishing"
        n = max(r["n"] for r in self.rows)
        return [step_row(ctx, "norm_equivalence", n, self.column_max["linf"], verdict, branch)]


_EQUIV_COLUMNS = ("l_two_low_star_boundary", "h1", "linf", "c_norm")


def norm_equivalence_report(outcomes, ctx):
    """The four equivalent norms tabulated over a certified family.

    ``co_bounded``: every column maximum is finite.  ``co_vanishing``: every
    column decays along the family ordering (last value below max(1e-8,
    1e-3 * first) -- the finite-sample reading of joint convergence to zero).
    The continuous-max norm column equals the discrete sup norm for P1; the
    boundary column is the L^r norm at r = ctx.two_low_star.
    """
    if not outcomes:
        raise ValueError("norm equivalence requires a non-empty family")
    norms = [solution_row(outcome, "norm_equivalence_report") for outcome in outcomes]
    rows = [
        {
            "member": idx,
            "n": outcome.solution.mesh.n,
            "l_two_low_star_boundary": row["boundary", float(ctx.two_low_star)],
            "h1": row["h1"],
            "linf": row["linf"],
            "c_norm": row["linf"],
        }
        for idx, (outcome, row) in enumerate(zip(outcomes, norms))
    ]
    column_max = {c: max(r[c] for r in rows) for c in _EQUIV_COLUMNS}
    co_bounded = all(np.isfinite(v) for v in column_max.values())
    co_vanishing = all(
        rows[-1][c] <= max(1e-8, 1e-3 * rows[0][c]) for c in _EQUIV_COLUMNS
    )
    return EquivalenceReport(
        rows=rows, column_max=column_max, co_bounded=co_bounded, co_vanishing=co_vanishing
    )


@dataclass(eq=False)
class EnergyReport:
    rows: list
    bounded_energy: bool
    bounded_h1: bool
    consistent: bool

    @property
    def records(self):
        """Each member's bound lower_bound <= J as a step record."""
        return [
            StepRecord("energy_bound", r["lower_bound"], r["J"], r["bound_verdict"], n=r["n"])
            for r in self.rows
        ]

    def summary_rows(self, ctx):
        return [r.row(ctx) for r in self.records]


def _c_s0(nl):
    """C(s0) = |bnd| * sup (F(x, s) - s f(x, s) / theta)^+ over the boundary
    points of ``ar_check`` and 2001 values |s| <= s0; zero when s0 = 0, as F
    vanishes at s = 0."""
    xs, ss = _check_grid(np.linspace(-nl.s0, nl.s0, 2001))
    gap = nl.F(xs, ss) - ss * nl.f(xs, ss) / nl.theta
    return _CUBE_AREA * float(np.max(np.maximum(gap, 0.0)))


def energy_bound_check(outcomes):
    """Energy bound of the superlinear problem over a certified family.

    Per member: J[u], ||u||_H1^2, int_bnd u f(u) and theta int_bnd F(u), plus
    the lower bound J >= (1/2 - 1/theta) ||u||_H1^2 - C(s0) with the explicit
    C(s0).  Each member is checked under the nonlinearity it certifies: its
    growth bound, superlinearity and antiderivative (``growth_check``,
    ``ar_check``, ``antiderivative_check``; a failure raises ValueError naming
    the check), theta, C(s0), the integrals of its norm row and, for the pure
    power, the identity J = (1/2 - 1/theta) ||u||_H1^2.  The two
    boundedness flags realise both directions of the equivalence on the
    finite family.
    """
    rows = []
    for idx, outcome in enumerate(outcomes):
        norm = solution_row(outcome, "energy_bound_check")
        nl = outcome.nonlinearity
        for check in (growth_check, ar_check, antiderivative_check):
            result = check(nl)
            if not result.ok:
                raise ValueError(f"member {idx}: nonlinearity fails {check.__name__}: {result.message}")
        h1_sq = norm["h1_sq"]
        J = 0.5 * h1_sq - norm["F"]
        bound = (0.5 - 1.0 / nl.theta) * h1_sq - _c_s0(nl)
        ok = J >= bound - _IDENTITY_REL_TOL * max(1.0, h1_sq)
        row = {
            "member": idx,
            "n": outcome.solution.mesh.n,
            "J": J,
            "h1_sq": h1_sq,
            "uf_integral": norm["uf"],
            "theta_F_integral": nl.theta * norm["F"],
            "lower_bound": bound,
            "bound_verdict": "pass" if ok else "fail",
        }
        if nl.kind == "power":
            target = (0.5 - 1.0 / nl.theta) * h1_sq
            row["identity_rel_error"] = abs(J - target) / max(1.0, abs(target))
        rows.append(row)

    bounded_energy = bool(np.isfinite(max((r["J"] for r in rows), default=0.0)))
    bounded_h1 = bool(np.isfinite(max((r["h1_sq"] for r in rows), default=0.0)))
    all_ok = all(r["bound_verdict"] == "pass" for r in rows)
    return EnergyReport(rows, bounded_energy, bounded_h1, bounded_energy == bounded_h1 and all_ok)
