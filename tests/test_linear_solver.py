import functools
import itertools
import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from boundlab import linear_solver
from boundlab.assembly import _kronecker_inverse, _prolong, assemble_boundary_load, fem_space
from boundlab.exponents import derive_context
from boundlab.linear_solver import (
    MANUFACTURED_CASES,
    SMOOTH_FIELDS,
    NonconvergenceError,
    _pcg,
    manufactured_convergence,
    regularity_ratio_suite,
    solve_neumann,
    smooth_fields,
)
from boundlab.mesh import build_cube_mesh
from boundlab.norms import norm_linf, norm_lp_boundary_field, norm_w1m
from conftest import whole_boundary


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


def test_nonconvergence_raises(mesh4, monkeypatch):
    # two CG iterations cannot reach 1e-12
    monkeypatch.setattr(linear_solver, "_pcg", functools.partial(_pcg, maxiter=2))
    with pytest.raises(NonconvergenceError):
        solve_neumann(mesh4, lambda p, nrm: np.ones(p.shape[:-1]), 1e-12)


def _pcg_system(mesh):
    h = lambda p, nrm: 1.0 + p[..., 0] * p[..., 2]
    space = fem_space(mesh)
    return space.h1_operator(), assemble_boundary_load(mesh, h), space.preconditioner()


def test_pcg_reports_true_residual(mesh8):
    matrix, rhs, precond = _pcg_system(mesh8)
    x, iterations, res = _pcg(matrix, rhs, 1e-10, precond)
    assert iterations > 0
    assert res == float(np.linalg.norm(rhs - matrix @ x)) / float(np.linalg.norm(rhs))
    assert res <= 1e-10


def test_pcg_exact_start_and_zero_rhs_take_no_iterations(mesh8):
    matrix, rhs, precond = _pcg_system(mesh8)
    exact = spsolve(matrix.tocsc(), rhs)
    x, iterations, res = _pcg(matrix, rhs, 1e-10, precond, x0=exact)
    assert iterations == 0
    assert np.array_equal(x, exact)
    assert res <= 1e-10
    x, iterations, res = _pcg(matrix, np.zeros_like(rhs), 1e-10, precond)
    assert np.all(x == 0.0)
    assert (iterations, res) == (0, 0.0)


def test_pcg_nonconvergence_carries_iteration_cap(mesh8):
    matrix, rhs, precond = _pcg_system(mesh8)
    with pytest.raises(NonconvergenceError) as info:
        _pcg(matrix, rhs, 1e-12, precond, maxiter=3)
    assert info.value.iterations == 3
    assert info.value.residual_norm > 1e-12


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
    c1 = rng.standard_normal(14)
    c2 = rng.standard_normal(14)
    h1 = lambda p: smooth_fields(p) @ c1
    h2 = lambda p: smooth_fields(p) @ c2
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
    cg = rng.standard_normal(14)
    ch = rng.standard_normal(14)
    g_fn = lambda p: smooth_fields(p) @ cg
    h_fn = lambda p: smooth_fields(p) @ ch
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


def test_smooth_fields_stack_the_dictionary(mesh4):
    pts, _, _ = whole_boundary(fem_space(mesh4))
    fields = smooth_fields(pts)
    assert fields.shape == pts.shape[:-1] + (len(SMOOTH_FIELDS),)
    for k, phi in enumerate(SMOOTH_FIELDS):
        assert np.array_equal(fields[..., k], phi(pts))


def _per_sample_ratios(ctx, n_list, sample_count, seed):
    """Regularity ratios from one full solve per sample: the suite's reference."""
    q, m = float(ctx.q), float(ctx.m)
    coeffs = np.random.default_rng(seed).standard_normal((sample_count, len(SMOOTH_FIELDS)))
    ratios = []
    for n in n_list:
        mesh = build_cube_mesh(n)
        for c in coeffs:
            h = lambda pts, normals: smooth_fields(pts) @ c
            h_norm = norm_lp_boundary_field(mesh, h, q)
            v = solve_neumann(mesh, h, 1e-12).solution
            ratios.append((norm_w1m(v, m) / h_norm, norm_linf(v) / h_norm))
    return ratios


@pytest.fixture(scope="module")
def per_sample_reference():
    return _per_sample_ratios(derive_context(3, 2), [2, 4], 6, seed=3)


def _assert_rows_match(rows, reference):
    assert len(rows) == len(reference)
    for row, (w1m, linf) in zip(rows, reference):
        assert abs(row["ratio_w1m"] - w1m) <= 1e-9 * w1m
        assert abs(row["ratio_linf"] - linf) <= 1e-9 * linf


def _counting_pcg(monkeypatch):
    """Record (tol, iterations, residual) of every _pcg call the suite makes."""
    calls = []

    def pcg(matrix, rhs, tol, precond, x0=None, maxiter=None):
        x, iterations, res = _pcg(matrix, rhs, tol, precond, x0=x0, maxiter=maxiter)
        calls.append((tol, iterations, res))
        return x, iterations, res

    monkeypatch.setattr(linear_solver, "_pcg", pcg)
    return calls


def test_regularity_suite_matches_per_sample_solves(per_sample_reference, monkeypatch):
    calls = _counting_pcg(monkeypatch)
    report = regularity_ratio_suite(derive_context(3, 2), [2, 4], 6, seed=3, tol=1e-10)
    _assert_rows_match(report.rows, per_sample_reference)
    # per level: 14 dictionary solves iterate, the 6 certifications start converged
    basis = [c for c in calls if c[0] == linear_solver._BASIS_TOL]
    certify = [c for c in calls if c[0] == 1e-10]
    assert len(basis) == 2 * len(SMOOTH_FIELDS) and all(k > 0 for _, k, _ in basis)
    assert len(certify) == 2 * 6 and all(k == 0 and res <= 1e-10 for _, k, res in certify)


def test_regularity_suite_polishes_a_loose_basis(per_sample_reference, monkeypatch):
    monkeypatch.setattr(linear_solver, "_BASIS_TOL", 1e-4)
    calls = _counting_pcg(monkeypatch)
    report = regularity_ratio_suite(derive_context(3, 2), [2, 4], 6, seed=3, tol=1e-10)
    certify = [c for c in calls if c[0] == 1e-10]
    assert len(certify) == 2 * 6
    assert sum(k for _, k, _ in certify) >= 1
    assert all(res <= 1e-10 for _, _, res in certify)
    _assert_rows_match(report.rows, per_sample_reference)


def test_regularity_suite_rejects_a_sample_above_tol(monkeypatch):
    # CG stops on its recurrence residual; the true residual it returns can miss tol
    certifications = []

    def pcg(matrix, rhs, tol, precond, x0=None, maxiter=None):
        x, iterations, res = _pcg(matrix, rhs, tol, precond, x0=x0, maxiter=maxiter)
        if x0 is not None:
            certifications.append(tol)
            if len(certifications) == 5:   # n = 4, sample 1
                res = 2.0 * tol
        return x, iterations, res

    monkeypatch.setattr(linear_solver, "_pcg", pcg)
    with pytest.raises(NonconvergenceError, match=r"sample 1 at n=4: true relative residual 2\.000e-10"):
        regularity_ratio_suite(derive_context(3, 2), [2, 4], 3, seed=3, tol=1e-10)


def test_regularity_suite_range_flag_out_of_range():
    ctx = derive_context(3, 2)
    report = regularity_ratio_suite(ctx, [2], 1, seed=9)
    # the report carries no range flag: every admissible q exceeds N - 1 = 2,
    # where boundary data in L^q give a uniformly continuous solution
    assert not hasattr(report, "range_flag")
    assert all("range_flag" not in row for row in report.rows)
    assert report.q > 2


def test_regularity_suite_requires_three_dimensions():
    from fractions import Fraction

    ctx = derive_context(4, Fraction(3, 2))
    with pytest.raises(ValueError):
        regularity_ratio_suite(ctx, [2], 1, seed=0)


# -- level hierarchy and preconditioner ----------------------------------------


def _prolongation(n):
    """P1 prolongation from level n to level 2n as a CSR matrix, built as the
    workspace built it before the closed form: fine vertex (I, J, K) takes
    half of each end of the coarse edge from floor((I, J, K) / 2) to
    ceil((I, J, K) / 2)."""
    from scipy import sparse

    s = n + 1
    fine = np.arange(2 * n + 1)
    ends = [s * s * c[:, None, None] + s * c[:, None] + c for c in (fine // 2, (fine + 1) // 2)]
    nf = fine.size**3
    mat = sparse.csr_matrix(
        (np.full(2 * nf, 0.5), np.stack(ends, axis=-1).ravel(), np.arange(0, 2 * nf + 1, 2)),
        shape=(nf, s**3),
    )
    # a vertex of level n is its own floor and ceil: its two halves add up to 1
    mat.sum_duplicates()
    return mat


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prolongation_gives_coarse_operator(n):
    # nested P1 spaces: the Galerkin product of level 2n is level n's operator
    # (the closed-form prolongation and the CSR's transpose applied to every
    # coarse basis vector)
    fine = fem_space(build_cube_mesh(2 * n)).h1_operator()
    coarse = fem_space(build_cube_mesh(n)).h1_operator().toarray()
    restrict = _prolongation(n).T.tocsr()
    galerkin = np.column_stack([restrict @ (fine @ _prolong(e, n)) for e in np.eye((n + 1) ** 3)])
    assert np.abs(galerkin - coarse).max() <= 1e-13 * np.abs(coarse).max()


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_transfers_equal_the_csr_bitwise(n, rng):
    prolong = _prolongation(n)
    for scale in (1e-3, 1.0, 1e3):
        x = scale * rng.standard_normal((n + 1) ** 3)
        assert _prolong(x, n).tobytes() == (prolong @ x).tobytes()
    # the transfer reads its input only
    x.flags.writeable = False
    _prolong(x, n)


def _kronecker_operator(n):
    """K1(x)M1(x)M1 + M1(x)K1(x)M1 + M1(x)M1(x)K1 + M1(x)M1(x)M1, dense: K1 the 1-D
    Neumann stiffness, M1 the lumped 1-D mass, on n cells of width 1/n."""
    stiffness = n * (2.0 * np.eye(n + 1) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1))
    stiffness[0, 0] = stiffness[-1, -1] = n
    mass = np.eye(n + 1) / n
    mass[0, 0] = mass[-1, -1] = 0.5 / n
    kron3 = lambda a, b, c: np.kron(np.kron(a, b), c)
    return (kron3(stiffness, mass, mass) + kron3(mass, stiffness, mass)
            + kron3(mass, mass, stiffness) + kron3(mass, mass, mass))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kronecker_inverse_equals_dense_inverse(n):
    solve = _kronecker_inverse(n)
    inverse = np.column_stack([solve(e) for e in np.eye((n + 1) ** 3)])
    dense = np.linalg.inv(_kronecker_operator(n))
    assert np.abs(inverse - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("n", [3, 8])
def test_preconditioner_symmetric_positive(n, rng):
    # n = 3 is a coarsest level (sparse LU), n = 8 applies the DCT inverse
    precond = fem_space(build_cube_mesh(n)).preconditioner()
    for _ in range(5):
        x, y = rng.standard_normal((2, (n + 1) ** 3))
        mx, my = precond.matvec(x), precond.matvec(y)
        assert abs(mx @ y - x @ my) <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert mx @ x > 0.0


def test_kronecker_inverse_commutes_with_cube_symmetries(rng):
    # the group of order 12: the six axis permutations, each with or without
    # the inversion x -> 1 - x
    n = 8
    solve = _kronecker_inverse(n)
    r = rng.standard_normal((n + 1,) * 3)
    image = solve(r.ravel()).reshape(r.shape)
    for axes in itertools.permutations(range(3)):
        for flip in (slice(None), slice(None, None, -1)):
            act = lambda v: np.transpose(v, axes)[flip, flip, flip]
            moved = solve(act(r).ravel()).reshape(r.shape)
            assert np.abs(moved - act(image)).max() <= 1e-14 * np.abs(image).max()


def test_cg_iterations_do_not_grow_with_level(rng):
    c = rng.standard_normal(14)
    fn = lambda p: smooth_fields(p) @ c
    counts = [
        solve_neumann(build_cube_mesh(n), lambda p, nrm: fn(p), 1e-10).iterations
        for n in (4, 8, 16, 24, 32)
    ]
    assert all(0 < k <= 12 for k in counts), counts


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_level_matches_direct_solve(n, rng):
    mesh = build_cube_mesh(n)
    c = rng.standard_normal(14)
    fn = lambda p: smooth_fields(p) @ c
    h = lambda p, nrm: fn(p)
    result = solve_neumann(mesh, h, 1e-10)
    assert result.residual_norm <= 1e-10
    direct = spsolve(fem_space(mesh).h1_operator().tocsc(), assemble_boundary_load(mesh, h))
    assert np.linalg.norm(result.solution.values - direct) <= 1e-8 * np.linalg.norm(direct)
