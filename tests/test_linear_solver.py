import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from boundlab.assembly import _prolongation, assemble_boundary_load, assemble_h1_operator, fem_space
from boundlab.exponents import derive_context
from boundlab.linear_solver import (
    MANUFACTURED_CASES,
    NonconvergenceError,
    trace_range_flag,
    manufactured_convergence,
    regularity_ratio_suite,
    solve_neumann,
    smooth_field_from_coefficients,
)
from boundlab.mesh import build_cube_mesh


def zero_field(pts, normals):
    return np.zeros(pts.shape[:-1])


def test_zero_data_gives_zero_solution(mesh4):
    result = solve_neumann(mesh4, zero_field, 1e-10)
    assert np.all(result.solution.values == 0.0)
    assert result.iterations == 0
    assert result.residual_norm <= result.tolerance


def test_result_invariant_residual_below_tolerance(mesh4):
    result = solve_neumann(mesh4, lambda p, nrm: 1.0 + p[..., 1], 1e-9)
    assert result.residual_norm <= 1e-9
    assert result.iterations > 0


def test_nonconvergence_raises(mesh4):
    with pytest.raises(NonconvergenceError):
        solve_neumann(mesh4, lambda p, nrm: np.ones(p.shape[:-1]), 1e-12, maxiter=2)


def test_rejects_bad_tolerance(mesh4):
    with pytest.raises(ValueError):
        solve_neumann(mesh4, zero_field, 0.0)


@pytest.mark.parametrize("case_id", sorted(MANUFACTURED_CASES))
def test_manufactured_solutions_converge(case_id):
    table = manufactured_convergence(case_id, [4, 8], tol=1e-10)
    case = MANUFACTURED_CASES[case_id]
    # discrete solution approaches the closed form: relative H1 error small
    # and decreasing under refinement
    errs = [row["h1_error"] for row in table.rows]
    assert errs[1] < errs[0]
    assert table.rows[-1]["h1_error_rel"] < 0.05
    assert table.rows[-1]["h1_error_rel"] == errs[-1] / math.sqrt(case.h1_norm_squared)


def test_manufactured_exact_h1_normalization():
    # for v = e^{x1}: squared H1 norm is 2*int_0^1 e^{2t} dt = e^2 - 1
    assert abs(MANUFACTURED_CASES["exp-x1"].h1_norm_squared - (math.e**2 - 1.0)) < 1e-15


def test_error_table_bit_identical():
    a = manufactured_convergence("exp-x1", [4, 4], tol=1e-10)
    assert a.rows[0] == a.rows[1]
    b = manufactured_convergence("exp-x1", [4], tol=1e-10)
    assert a.rows[0] == b.rows[0]


def test_solution_operator_linear(mesh4, rng):
    h1 = smooth_field_from_coefficients(rng.standard_normal(14))
    h2 = smooth_field_from_coefficients(rng.standard_normal(14))
    alpha, beta = rng.standard_normal(2)
    tol = 1e-12
    va = solve_neumann(mesh4, lambda p, nrm: h1(p), tol).solution.values
    vb = solve_neumann(mesh4, lambda p, nrm: h2(p), tol).solution.values
    combo = solve_neumann(
        mesh4, lambda p, nrm: alpha * h1(p) + beta * h2(p), tol
    ).solution.values
    scale = np.max(np.abs(combo)) + 1.0
    assert np.max(np.abs(combo - alpha * va - beta * vb)) < 1e-6 * scale


def test_resolvent_self_adjoint(mesh4, rng):
    g_fn = smooth_field_from_coefficients(rng.standard_normal(14))
    h_fn = smooth_field_from_coefficients(rng.standard_normal(14))
    g = lambda p, nrm: g_fn(p)
    h = lambda p, nrm: h_fn(p)
    vh = solve_neumann(mesh4, h, 1e-12).solution.values
    vg = solve_neumann(mesh4, g, 1e-12).solution.values
    pair_hg = float(assemble_boundary_load(mesh4, g) @ vh)
    pair_gh = float(assemble_boundary_load(mesh4, h) @ vg)
    assert abs(pair_hg - pair_gh) < 1e-8 * (1.0 + abs(pair_hg))


def test_positivity_smoke(mesh4):
    # nonnegative data keep the discrete solution essentially nonnegative
    for h in (lambda p, nrm: np.ones(p.shape[:-1]),
              lambda p, nrm: p[..., 0] + p[..., 1]):
        result = solve_neumann(mesh4, h, 1e-10)
        assert result.solution.values.min() >= -1e-8


def test_trace_range_flags():
    # q below N-1 with r beyond (N-1)q/(N-1-q) is out of range
    assert trace_range_flag(3, 1.5, 7.0).startswith("outside trace range")
    assert trace_range_flag(3, 1.5, 5.0).startswith("ok")
    assert trace_range_flag(3, 2, 100.0).startswith("ok")
    assert trace_range_flag(3, 3, 100.0).startswith("ok")
    assert trace_range_flag(3, 1.0, 3.0).startswith("outside trace range")


def test_regularity_suite_shape_and_saturation():
    ctx = derive_context(3, 2)
    report = regularity_ratio_suite(ctx, [2, 4], 3, seed=9)
    assert len(report.rows) == 6
    for row in report.rows:
        assert row["q"] == 3.0 and row["m"] == 4.5
        assert row["ratio_w1m"] > 0 and row["ratio_linf"] > 0
        assert np.isfinite(row["ratio_w1m"])
    # same data across levels: maxima within a factor 2 already at n=2 vs 4
    m2, m4 = report.maxima[2], report.maxima[4]
    assert m4["ratio_w1m"] <= 2.0 * m2["ratio_w1m"]
    assert list(report.rows[0].keys()) == ["n", "sample", "q", "m", "ratio_w1m", "ratio_linf"]


def test_regularity_suite_range_flag_out_of_range():
    ctx = derive_context(3, 2)
    report = regularity_ratio_suite(ctx, [2], 1, seed=9)
    # the report carries no range flag; the flag is computed from (q, r) alone
    assert not hasattr(report, "range_flag")
    assert all("range_flag" not in row for row in report.rows)
    assert trace_range_flag(3, report.q, 3.0).startswith("ok")
    assert trace_range_flag(3, 1.0, 3.0).startswith("outside trace range")


def test_regularity_suite_requires_three_dimensions():
    from fractions import Fraction

    ctx = derive_context(4, Fraction(3, 2))
    with pytest.raises(ValueError):
        regularity_ratio_suite(ctx, [2], 1, seed=0)


# -- multigrid hierarchy -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prolongation_gives_coarse_operator(n):
    # nested P1 spaces: the Galerkin product of level 2n is level n's operator
    prolong = _prolongation(n)
    fine = assemble_h1_operator(build_cube_mesh(2 * n)).matrix
    coarse = assemble_h1_operator(build_cube_mesh(n)).matrix.toarray()
    galerkin = (prolong.T @ fine @ prolong).toarray()
    assert np.abs(galerkin - coarse).max() <= 1e-13 * np.abs(coarse).max()


def test_vcycle_symmetric_positive(mesh8, rng):
    vcycle = fem_space(mesh8).vcycle()
    for _ in range(5):
        x, y = rng.standard_normal((2, mesh8.num_vertices))
        mx, my = vcycle.matvec(x), vcycle.matvec(y)
        assert abs(mx @ y - x @ my) <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert mx @ x > 0.0


def test_cg_iterations_do_not_grow_with_level(rng):
    fn = smooth_field_from_coefficients(rng.standard_normal(14))
    counts = [
        solve_neumann(build_cube_mesh(n), lambda p, nrm: fn(p), 1e-10).iterations
        for n in (8, 16, 24)
    ]
    assert all(0 < k <= 25 for k in counts), counts


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_level_matches_direct_solve(n, rng):
    mesh = build_cube_mesh(n)
    fn = smooth_field_from_coefficients(rng.standard_normal(14))
    h = lambda p, nrm: fn(p)
    result = solve_neumann(mesh, h, 1e-10)
    assert result.residual_norm <= 1e-10
    direct = spsolve(assemble_h1_operator(mesh).matrix.tocsc(), assemble_boundary_load(mesh, h))
    assert np.linalg.norm(result.solution.values - direct) <= 1e-8 * np.linalg.norm(direct)
