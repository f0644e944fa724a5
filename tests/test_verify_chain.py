from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boundlab.assembly import FemFunction, fem_space
from boundlab.exponents import derive_context
from boundlab.mesh import build_cube_mesh, face_areas
from boundlab.nonlinear import (
    Nonlinearity,
    antiderivative_check,
    ar_check,
    certify_solution,
    growth_check,
    make_power_nonlinearity,
    solve_ground_state,
    weak_residual,
)
from boundlab.norms import energy_J, gn_ratios, norm_h1, norm_linf, norm_lp, norm_table
from boundlab.verify_chain import (
    CertificationError,
    Corpus,
    StepRecord,
    _corpus_table,
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
from conftest import whole_boundary


@pytest.fixture(scope="module")
def ctx():
    return derive_context(3, 2)


def const(mesh, value):
    return FemFunction(mesh, np.full(mesh.num_vertices, float(value)))


def universal_report(ctx, *functions):
    """``universal_suite`` over a corpus of these functions, in order; the
    Holder step pairs each with the next, cyclically."""
    corpus = Corpus(functions[0].mesh, np.column_stack([u.values for u in functions]),
                    ["random"] * len(functions))
    return universal_suite(corpus, ctx)


def test_boundary_growth_zero_function(mesh4, ctx):
    ((left,), (right,), (holds,)) = universal_report(ctx, const(mesh4, 0.0)).steps["boundary_growth"]
    assert holds
    assert left == 0.0
    assert right == 24.0  # the constant B0^q * 2^(q-1) * max(|bnd|, 1) = 4 * 6


def test_boundary_growth_constant_one(mesh4, ctx):
    report = universal_report(ctx, const(mesh4, 1.0))
    ((left,), (right,), (holds,)) = report.steps["boundary_growth"]
    # left = int_bnd 1 = 6; right = 24 * (1 + 1 * 6) = 168
    assert abs(left - 6.0) < 1e-10
    assert abs(right - 168.0) < 1e-8
    assert holds
    assert report.summary_rows(ctx)[0]["branch"] == "sup<=1"


def test_boundary_growth_no_violations_on_random_corpus(mesh8, ctx, rng):
    functions = [
        FemFunction(mesh8, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(mesh8.num_vertices))
        for _ in range(100)
    ]
    _, _, holds = universal_report(ctx, *functions).steps["boundary_growth"]
    assert holds.shape == (100,) and holds.all()


def test_boundary_growth_requires_admissible_exponents(mesh4):
    # with q forced so small that p*q < trace-critical the step is rejected;
    # admissible contexts (per the q lower bound) always satisfy p*q >= it
    import dataclasses

    ctx_bad = dataclasses.replace(derive_context(3, 2), q=derive_context(3, 2).q / 10)
    with pytest.raises(ValueError):
        universal_report(ctx_bad, const(mesh4, 1.0))


def test_boundary_holder_records(mesh4, ctx, rng):
    # 40 functions, so 40 (u, psi) pairs
    functions = [FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices)) for _ in range(40)]
    left, right, holds = universal_report(ctx, *functions).steps["boundary_holder"]
    assert holds.shape == (40,) and holds.all()
    assert np.all(left <= right * (1 + 1e-10) + 1e-300)


def test_infty_cont_exact(mesh4, ctx, rng):
    functions = [FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices)) for _ in range(20)]
    _, _, holds = universal_report(ctx, *functions).steps["boundary_max_vs_volume_max"]
    assert holds.shape == (20,) and holds.all()
    spike = np.zeros(mesh4.num_vertices)
    center = np.argmin(np.linalg.norm(mesh4.vertices - 0.5, axis=1))
    spike[center] = 5.0
    report = universal_report(ctx, FemFunction(mesh4, spike))
    ((left,), (right,), _) = report.steps["boundary_max_vs_volume_max"]
    assert left == 0.0 and right == 5.0


_UNIVERSAL_STEPS = ("boundary_growth", "boundary_holder", "boundary_max_vs_volume_max")


def _universal_oracle(table, ctx, B0, area):
    """Per step, (left, right, holds) of each column with Python floats, one
    column at a time, each paired with the next (cyclically) for the Holder step."""
    p, q, r = float(ctx.p), float(ctx.q), float(ctx.two_low_star)
    constant = B0**q * 2.0 ** (q - 1.0) * max(area, 1.0)
    rows = [{key: float(column[s]) for key, column in table.items()} for s in range(len(table["linf"]))]
    steps = {step: [] for step in _UNIVERSAL_STEPS}
    for row, psi_row in zip(rows, rows[1:] + rows[:1]):
        left = B0**q * row["boundary", p * q] ** (p * q)
        right = constant * (1.0 + row["linf"] ** (p * q - r) * row["boundary", r] ** r)
        steps["boundary_growth"].append((left, right, left <= right))
        left = B0 * row["holder"]
        right = B0 * row["boundary", p * r / (r - 1.0)] ** p * psi_row["boundary", r]
        steps["boundary_holder"].append((left, right, left <= right * (1.0 + 1e-10) + 1e-300))
        left, right = row["linf_boundary"], row["linf"]
        steps["boundary_max_vs_volume_max"].append((left, right, left <= right))
    return steps


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    p=st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 2)]),
    B0=st.sampled_from([1.0, 0.3, 2.5]),
    count=st.integers(1, 12),
    zero=st.booleans(),
    broken=st.integers(-1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, p=Fraction(2), B0=1.0, count=1, zero=False, broken=-1, seed=0)
@example(n=3, p=Fraction(2), B0=1.0, count=1, zero=True, broken=0, seed=1)
def test_universal_arrays_match_the_per_column_oracle(n, p, B0, count, zero, broken, seed):
    # _mixed_corpus mixes sign-changing noise, one-sign fields, constants and
    # copies; a zero column may follow, and one column's boundary max and
    # Holder pairing may be raised to make its steps fail
    ctx = derive_context(3, p)
    corpus = _mixed_corpus(build_cube_mesh(n), np.random.default_rng(seed), count)
    if zero:
        corpus = Corpus(corpus.mesh, np.column_stack([corpus.values, np.zeros(corpus.mesh.num_vertices)]),
                        corpus.kinds + ["random"], corpus.copies)
    table = corpus.table(ctx)
    if 0 <= broken < len(table["linf"]):
        table["linf_boundary"][broken] = 2.0 * table["linf"][broken] + 1.0
        table["holder"][broken] = 3.0 * table["holder"][broken] + 1.0
    report = universal_suite(corpus, ctx, B0)
    oracle = _universal_oracle(table, ctx, B0, float(face_areas(corpus.mesh).sum()))
    assert list(report.steps) == list(_UNIVERSAL_STEPS)
    for step, (left, right, holds) in report.steps.items():
        expected_left, expected_right, expected_holds = map(np.array, zip(*oracle[step]))
        assert np.all(np.abs(left - expected_left) <= 1e-15 * np.abs(expected_left))
        assert np.all(np.abs(right - expected_right) <= 1e-15 * np.abs(expected_right))
        assert holds.tolist() == expected_holds.tolist()
    assert report.violations == sum(not h for step in oracle.values() for _, _, h in step)


def test_failures_name_the_first_failing_column(mesh4, ctx, rng):
    functions = [FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices)) for _ in range(4)]
    corpus = Corpus(mesh4, np.column_stack([u.values for u in functions]), ["random"] * 4)
    table = corpus.table(ctx)
    for s in (1, 3):
        table["linf_boundary"][s] = 2.0 * table["linf"][s]
    report = universal_suite(corpus, ctx)
    (rec,) = report.failures()
    assert (rec.step, rec.n, rec.verdict, rec.data) == ("boundary_max_vs_volume_max", 4, "fail", {"sample": 1})
    assert (rec.left, rec.right) == (table["linf_boundary"][1], table["linf"][1])
    assert report.violations == 2
    assert [r["verdict"] for r in report.summary_rows(ctx)] == ["pass", "pass", "fail"]


def test_corpus_composition(mesh4):
    sol = const(mesh4, 0.5)
    corpus = build_corpus(mesh4, 100, seed=3, solutions=[sol])
    assert corpus.values.shape == (mesh4.num_vertices, 100)
    assert corpus.kinds.count("random") == 50
    assert corpus.kinds.count("smooth") == 25
    assert corpus.kinds.count("solution") == 25
    assert np.array_equal(corpus.values[:, 75], sol.values)
    sup = np.abs(corpus.values).max(axis=0)
    assert np.any(sup > 1.0) and np.any(sup <= 1.0)
    # deterministic rebuild
    again = build_corpus(mesh4, 100, seed=3, solutions=[sol])
    assert np.array_equal(corpus.values, again.values)


def test_corpus_copies_are_positive_rescalings_of_their_base(mesh4):
    # two solutions over 25 slots: slots 75 and 76 hold them, the other 23 are copies
    solutions = [const(mesh4, 0.5), FemFunction(mesh4, mesh4.vertices[:, 0])]
    corpus = build_corpus(mesh4, 100, seed=3, solutions=solutions)
    assert sorted(corpus.copies) == list(range(77, 100))
    for s, (base, scale) in corpus.copies.items():
        assert base == 75 + (s - 75) % 2 and base not in corpus.copies
        assert scale > 0
        assert corpus.values[:, s].tobytes() == (scale * corpus.values[:, base]).tobytes()
    assert build_corpus(mesh4, 100, seed=3).copies == {}
    assert Corpus(mesh4, corpus.values, corpus.kinds).copies == {}


def _stacked_corpus(mesh, size, seed, solutions=()):
    """The corpus as ``build_corpus`` formed it before it wrote each column in
    place: a list of columns in the order of the rng draws, then one
    ``np.column_stack``."""
    from boundlab.linear_solver import SMOOTH_FIELDS, smooth_fields

    rng = np.random.default_rng(seed)
    nv = mesh.num_vertices
    n_random = size // 2
    n_smooth = size // 4 if solutions else size - n_random
    n_solution = size - n_random - n_smooth if solutions else 0
    columns, copies = [], {}
    for _ in range(n_random):
        amp = 10.0 ** rng.uniform(-2.0, 1.0)
        columns.append(amp * rng.standard_normal(nv))
    dictionary = smooth_fields(mesh.vertices)
    for _ in range(n_smooth):
        coeffs = rng.standard_normal(len(SMOOTH_FIELDS))
        amp = 10.0 ** rng.uniform(-2.0, 1.0)
        columns.append(amp * (dictionary @ coeffs))
    first = len(columns)
    for i in range(n_solution):
        scale = 1.0
        if i >= len(solutions):
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            copies[len(columns)] = (first + i % len(solutions), scale)
        columns.append(scale * solutions[i % len(solutions)].values)
    return np.column_stack(columns), copies


@pytest.mark.parametrize("size", [1, 4, 7, 100])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_corpus_columns_are_those_of_the_stacked_list(size, count, mesh4):
    solutions = [const(mesh4, 0.5), FemFunction(mesh4, mesh4.vertices[:, 0])][:count]
    corpus = build_corpus(mesh4, size, seed=3, solutions=solutions)
    values, copies = _stacked_corpus(mesh4, size, 3, solutions)
    assert corpus.values.flags.c_contiguous
    assert corpus.values.tobytes() == values.tobytes()
    assert corpus.copies == copies


def test_universal_suite_clean(mesh4, ctx):
    report = universal_suite(build_corpus(mesh4, 40, seed=7), ctx)
    assert report.linf.size == 40 and len(report.steps) == 3
    assert report.violations == 0 and report.failures() == []
    counts = report.branch_counts()
    assert counts["sup>1"] > 0 and counts["sup<=1"] > 0
    assert counts["sup>1"] + counts["sup<=1"] == 120
    rows = report.summary_rows(ctx)
    steps = {r["step"] for r in rows}
    assert steps == {"boundary_growth", "boundary_holder", "boundary_max_vs_volume_max"}
    for row in rows:
        assert row["verdict"] == "pass"
        assert row["p"] == 2.0 and row["q"] == 3.0


def test_gn_suite_constant_corpus(mesh4, ctx):
    corpus = Corpus(mesh4, np.ones((mesh4.num_vertices, 1)), ["smooth"])
    report = gn_ratio_suite([corpus], ctx)
    assert abs(report.rows[0]["max_ratio"] - 1.0) < 1e-12
    assert report.verdict == "saturating"


def test_gn_suite_coordinate(mesh4, ctx):
    corpus = Corpus(mesh4, mesh4.vertices[:, :1], ["smooth"])
    expected = (13.0 / 11.0) ** (-2.0 / 15.0) * 7.0 ** (1.0 / 15.0)
    assert abs(gn_ratio_suite([corpus], ctx).rows[0]["max_ratio"] - expected) < 1e-10


def test_gn_suite_saturates_across_levels(ctx):
    corpora = [build_corpus(build_cube_mesh(n), 30, seed=5) for n in (4, 8)]
    report = gn_ratio_suite(corpora, ctx)
    assert report.verdict == "saturating"
    assert all(f <= 2.0 for f in report.factors)


def _mixed_corpus(mesh, rng, count):
    """A corpus of ``count`` columns mixing sign-changing noise, positive and
    smooth fields, constants and rescaled copies, amplitudes 1e-2 to 1e1."""
    x = mesh.vertices
    values = np.empty((mesh.num_vertices, count))
    copies = {}
    for s in range(count):
        kind = rng.integers(5) if s else rng.integers(4)
        amp = 10.0 ** rng.uniform(-2.0, 1.0)
        if kind == 0:
            values[:, s] = amp * rng.standard_normal(mesh.num_vertices)
        elif kind == 1:
            values[:, s] = amp * np.abs(rng.standard_normal(mesh.num_vertices))
        elif kind == 2:
            a, b = rng.uniform(0.5, 3.0, 2)
            values[:, s] = amp * (np.sin(a * x[:, 0] + b * x[:, 1] ** 2) - x[:, 2] / 2)
        elif kind == 3:
            values[:, s] = amp * rng.choice([-1.0, 1.0])
        else:
            base = int(rng.choice([b for b in range(s) if b not in copies]))
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            values[:, s] = scale * values[:, base]
            copies[s] = (base, scale)
    return Corpus(mesh, values, ["random"] * count, copies)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    p=st.sampled_from([Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(5, 2)]),
    q=st.sampled_from([None, Fraction(7, 2), Fraction(7)]),
    count=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
# two corpora whose largest lower bound is not on the column of the maximum
@example(n=2, p=Fraction(3, 2), q=Fraction(7, 2), count=21, seed=2397)
@example(n=4, p=Fraction(6, 5), q=Fraction(7, 2), count=5, seed=1729)
def test_pruned_gn_maximum_equals_the_full_table_maximum(n, p, q, count, seed):
    # the suite integrates |u|^m only on the columns its closed-form bounds
    # keep; its maximum is that of every column's ratio, to rounding
    ctx = derive_context(3, p, q)
    corpus = _mixed_corpus(build_cube_mesh(n), np.random.default_rng(seed), count)
    full = norm_table(corpus.mesh, corpus.values, volume=(ctx.two_star,), w1m=(ctx.m,))
    expected = float(np.max(gn_ratios(full, ctx)))
    got = gn_ratio_suite([corpus], ctx).rows[0]["max_ratio"]
    assert abs(got - expected) <= 2e-15 * expected


def test_main_estimate_trivial_solution(mesh4, ctx):
    nl = make_power_nonlinearity(2.0)
    outcome = certify_solution(const(mesh4, 0.0), nl, 1e-8)
    rec = main_estimate_ratio(outcome, ctx)
    assert rec.data["rho"] == 0.0
    assert rec.verdict == "finite"


def test_main_estimate_rejects_uncertified(mesh4, ctx, ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    scaled = FemFunction(outcome.solution.mesh, 2.0 * outcome.solution.values)
    fake = certify_solution(scaled, nl, 1e-8)
    with pytest.raises(CertificationError):
        main_estimate_ratio(fake, ctx)


def test_main_estimate_stable_under_refinement(ctx):
    nl = make_power_nonlinearity(2.0)
    rhos = []
    for n in (4, 8):
        outcome = solve_ground_state(build_cube_mesh(n), nl, 1e-8, seed=11)
        rec = main_estimate_ratio(outcome, ctx)
        assert rec.verdict == "finite"
        rhos.append(rec.data["rho"])
    assert max(rhos) / min(rhos) < 1.5


def test_h1_trace_bound_on_solution(ground_state_p2_n8, ctx):
    _, outcome = ground_state_p2_n8
    rec = h1_trace_bound(outcome, ctx)
    assert rec.verdict == "pass"
    assert rec.data["part_a"] == "pass" and rec.data["part_b"] == "pass"


def test_h1_trace_bound_zero(mesh4, ctx):
    nl = make_power_nonlinearity(2.0)
    rec = h1_trace_bound(certify_solution(const(mesh4, 0.0), nl, 1e-8), ctx)
    assert rec.verdict == "pass"
    assert rec.left == 0.0 and rec.right == 0.0


def test_h1_trace_bound_detects_non_solution(mesh4, rng, ctx):
    nl = make_power_nonlinearity(2.0)
    u = FemFunction(mesh4, 1.0 + rng.random(mesh4.num_vertices))
    # certified at a tolerance above its residual, so the step itself must notice
    tol = 2.0 * weak_residual(u, nl)
    rec = h1_trace_bound(certify_solution(u, nl, tol), ctx)
    assert rec.data["part_a"] == "fail"  # encodes solutionhood
    assert rec.data["part_b"] == "pass"  # Holder holds universally
    assert rec.verdict == "fail"


def test_shared_row_records_equal_per_function_reference(ground_state_p2_n8, ctx):
    # the per-function evaluations each step made before the steps shared one row
    nl, outcome = ground_state_p2_n8
    u = outcome.solution
    space = fem_space(u.mesh)
    h1_sq = float(u.values @ (space.h1_operator() @ u.values))
    uq = space.boundary_values(u.values)
    points, _, _ = whole_boundary(space)
    uf = space.boundary_integral(nl.f(points, uq) * uq)
    trace = norm_lp(u, float(ctx.two_low_star), "boundary")
    vol = norm_lp(u, float(ctx.two_star), "volume")
    rho = norm_linf(u) / (1.0 + norm_h1(u)) ** float(ctx.A)
    rho_hat = norm_linf(u) / ((1.0 + trace ** float(ctx.A_hat1)) * (1.0 + vol ** float(ctx.A_hat2)))
    energy_margin = energy_J(u, nl) - (0.5 - 1.0 / nl.theta) * h1_sq

    estimate = main_estimate_ratio(outcome, ctx)
    assert (estimate.data["rho"], estimate.data["rho_hat"]) == (rho, rho_hat)
    assert h1_trace_bound(outcome, ctx).row(ctx)["max_ratio_or_margin"] == uf - h1_sq
    (energy,) = energy_bound_check([outcome]).records
    assert energy.row(ctx)["max_ratio_or_margin"] == energy_margin


def test_solution_norms_peak_memory_is_bounded(traced_peak):
    # the f, F and Holder terms are summed block by block of faces: one call
    # at n = 24 peaked at 4.4 MB with whole-boundary temporaries and measures
    # 2.4 MB in face blocks, most of it the norm table's cell blocks
    nl = make_power_nonlinearity(2.0)
    outcome = solve_ground_state(build_cube_mesh(24), nl, 1e-8, seed=11)
    solution_norms(outcome, "warm-up")
    row, peak = traced_peak(lambda: solution_norms(outcome, "peak"))
    assert row == solution_norms(outcome, "again")
    assert peak <= 3 * 2**20


def test_corpus_table_peak_memory_is_bounded(ctx, traced_peak):
    # the lattice passes size their buffers from the norms' 512 KiB block
    # budget: the n = 16, 100-column chain corpus's table peaked at 1.99 MiB
    # with row-gathered passes and at 3.4 MiB with 3.4 MB lattice blocks
    mesh = build_cube_mesh(16)
    outcome = solve_ground_state(mesh, make_power_nonlinearity(2.0), 1e-8, seed=11)
    corpus = build_corpus(mesh, 100, 7, [outcome.solution])
    _corpus_table(mesh, corpus.values, ctx, corpus.copies)
    table, peak = traced_peak(lambda: _corpus_table(mesh, corpus.values, ctx, corpus.copies))
    assert len(table["linf"]) == 100
    assert peak <= 2.5 * 2**20


def test_equivalence_trivial_family(mesh4, ctx):
    nl = make_power_nonlinearity(2.0)
    family = [certify_solution(const(mesh4, 0.0), nl, 1e-8) for _ in range(3)]
    report = norm_equivalence_report(family, ctx)
    assert report.co_bounded
    assert report.co_vanishing


def test_equivalence_ground_state_family(ctx):
    nl = make_power_nonlinearity(2.0)
    family = [
        solve_ground_state(build_cube_mesh(n), nl, 1e-8, seed=11) for n in (4, 8, 16)
    ]
    report = norm_equivalence_report(family, ctx)
    assert report.co_bounded
    assert not report.co_vanishing
    for column in ("l_two_low_star_boundary", "h1", "linf", "c_norm"):
        lo = min(r[column] for r in report.rows)
        hi = max(r[column] for r in report.rows)
        assert hi / lo < 1.2  # same continuum object across meshes


def test_equivalence_refuses_non_solutions(mesh4, ground_state_p2_n8, ctx):
    nl, outcome = ground_state_p2_n8
    scaled = certify_solution(
        FemFunction(outcome.solution.mesh, 3.0 * outcome.solution.values), nl, 1e-8
    )
    with pytest.raises(CertificationError):
        norm_equivalence_report([outcome, scaled], ctx)
    with pytest.raises(ValueError):
        norm_equivalence_report([], ctx)


def test_energy_bound_pure_power(ground_state_p2_n8):
    _, outcome = ground_state_p2_n8
    report = energy_bound_check([outcome])
    assert report.consistent
    row = report.rows[0]
    assert row["bound_verdict"] == "pass"
    assert row["identity_rel_error"] < 1e-6
    # theta * int F equals int u f for the power family
    assert abs(row["theta_F_integral"] - row["uf_integral"]) <= 1e-12 * (1 + row["uf_integral"])


def test_energy_bound_trivial(mesh4):
    nl = make_power_nonlinearity(2.0)
    report = energy_bound_check([certify_solution(const(mesh4, 0.0), nl, 1e-8)])
    assert report.consistent
    assert report.rows[0]["J"] == 0.0


def test_energy_bound_family_over_powers():
    # one family mixing powers: theta, int F and the identity are each member's own
    family = [
        solve_ground_state(build_cube_mesh(4), make_power_nonlinearity(p), 1e-8, seed=11)
        for p in (1.5, 2.0, 2.5)
    ]
    report = energy_bound_check(family)
    assert report.consistent
    for outcome, row in zip(family, report.rows):
        assert outcome.nonlinearity.theta == outcome.nonlinearity.p + 1.0
        assert row["bound_verdict"] == "pass"
        assert abs(row["theta_F_integral"] - row["uf_integral"]) <= 1e-12 * (1 + row["uf_integral"])
        assert row["identity_rel_error"] < 1e-6


def test_energy_bound_rejects_bad_nonlinearity(mesh4):
    lin = Nonlinearity(
        p=1.5, B0=1.0,
        f=lambda x, s: np.asarray(s, dtype=float),
        F=lambda x, s: np.asarray(s, dtype=float) ** 2 / 2.0,
        f_s=lambda x, s: np.ones_like(np.asarray(s, dtype=float)),
        theta=3.0, s0=0.0,
    )
    outcome = certify_solution(const(mesh4, 0.0), lin, 1e-8)
    with pytest.raises(ValueError, match="superlinearity"):
        energy_bound_check([outcome])


def test_flux_checks_pass_on_power_fluxes():
    # energy_bound_check runs all three on every member's flux
    for p in np.arange(11, 30) / 10.0:
        for lam in (0.5, 1.0, 3.0):
            nl = make_power_nonlinearity(p, lam)
            assert growth_check(nl).ok and ar_check(nl).ok and antiderivative_check(nl).ok, (p, lam)


def test_energy_bound_names_the_failed_flux_check(mesh4):
    # both fluxes vanish at s = 0, so the zero function is a certified solution
    power = make_power_nonlinearity(2.0)
    steep = Nonlinearity(p=2.0, B0=1.0, f=lambda x, s: 2.0 * power.f(x, s),
                         F=lambda x, s: 2.0 * power.F(x, s), f_s=lambda x, s: 2.0 * power.f_s(x, s),
                         theta=3.0, s0=0.0)
    halved = Nonlinearity(p=2.0, B0=1.0, f=power.f, F=lambda x, s: 0.5 * power.F(x, s),
                          f_s=power.f_s, theta=3.0, s0=0.0)
    for nl, check in ((steep, "growth_check"), (halved, "antiderivative_check")):
        outcome = certify_solution(const(mesh4, 0.0), nl, 1e-8)
        with pytest.raises(ValueError, match=f"member 0: nonlinearity fails {check}"):
            energy_bound_check([outcome])


def test_energy_bound_constant_is_sup_over_boundary_points(mesh4):
    # a = 1 + x0 doubles the flux on the face x0 = 1; F - s f / theta = a (s^2/10 - |s|^3/15)
    # peaks at |s| = 1 with a/30, so C(s0) = |bnd| * 2/30 = 0.4
    def a(x):
        return 1.0 + np.asarray(x)[..., 0]

    def f(x, s):
        s = np.asarray(s, dtype=float)
        return a(x) * (np.abs(s) * s + s)

    def F(x, s):
        s = np.asarray(s, dtype=float)
        return a(x) * (np.abs(s) ** 3 / 3.0 + s**2 / 2.0)

    nl = Nonlinearity(p=2.0, B0=4.0, f=f, F=F, f_s=lambda x, s: a(x) * (2.0 * np.abs(s) + 1.0),
                      theta=2.5, s0=1.5)
    assert ar_check(nl).ok and growth_check(nl).ok
    (row,) = energy_bound_check([certify_solution(const(mesh4, 0.0), nl, 1e-8)]).rows
    assert abs(row["lower_bound"] + 0.4) <= 1e-5 * 0.4
    assert row["bound_verdict"] == "pass"


def test_failing_records_keeps_every_failing_record_in_order():
    records = [
        StepRecord("boundary_growth", 3.0, 1.0, "fail", n=4, data={"sample": 2}),
        StepRecord("h1_trace_bound", 1.0, 1.0, "pass", n=4),
        StepRecord("boundary_growth", 5.0, 1.0, "fail", n=4, data={"sample": 7}),
        StepRecord("main_estimate", np.inf, 1.0, "nonfinite", n=8),
        StepRecord("main_estimate", 1.0, 2.0, "finite", n=4),
        StepRecord("energy_bound", 2.0, 1.0, "fail", n=8),
    ]
    assert [id(r) for r in failing_records(records)] == [id(records[i]) for i in (0, 2, 3, 5)]
    assert failing_records(records[1:2]) == []
