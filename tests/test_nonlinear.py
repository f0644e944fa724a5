import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from boundlab import assembly, nonlinear
from boundlab import mesh as mesh_module
from boundlab.assembly import FemFunction, fem_space
from boundlab.exponents import derive_context
from boundlab.linear_solver import _minres, solve_neumann
from boundlab.mesh import build_cube_mesh
from boundlab.nonlinear import (
    Nonlinearity,
    SolverDivergence,
    antiderivative_check,
    ar_check,
    ar_defect,
    certify_solution,
    growth_check,
    make_power_nonlinearity,
    newton_refine,
    solve_ground_state,
    weak_residual,
)
from boundlab.verify_chain import main_estimate_ratio
from conftest import subtract_face_product, to_scipy, whole_boundary


def test_power_family_values():
    nl = make_power_nonlinearity(1.5)
    x = np.zeros(3)
    # F(2) = 2^{5/2} / (5/2)
    assert abs(nl.F(x, 2.0) - 2.0**2.5 / 2.5) < 1e-14
    assert nl.F(x, 0.0) == 0.0
    nl2 = make_power_nonlinearity(2.0)
    s = np.array([-3.0, -1.0, 0.0, 2.0])
    assert np.allclose(nl2.f(x, s), np.sign(s) * s**2)
    assert np.allclose(nl2.f_s(x, s), 2.0 * np.abs(s))


def test_power_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_power_nonlinearity(1.0)
    with pytest.raises(ValueError):
        make_power_nonlinearity(3.0)
    with pytest.raises(ValueError):
        make_power_nonlinearity(2.0, lam_scale=0.0)


def test_growth_check_pure_power():
    nl = make_power_nonlinearity(2.0)
    assert growth_check(nl, np.linspace(-100.0, 100.0, 2001)).ok


def test_growth_check_rejects_offset():
    # f(s) = s^2 + 10 declared with B0 = 1 fails near s = 0
    bad = Nonlinearity(
        p=2.0,
        B0=1.0,
        f=lambda x, s: s**2 + 10.0,
        F=lambda x, s: s**3 / 3.0 + 10.0 * s,
        f_s=lambda x, s: 2.0 * s,
        theta=3.0,
        s0=0.0,
    )
    result = growth_check(bad)
    assert not result.ok
    # at s = 0 the bound reads |f(0)| = 10 > B0 = 1
    assert not growth_check(bad, s_values=np.array([0.0])).ok


def test_growth_check_catches_slow_log_factor():
    # s*log(1+|s|) outgrows B0(1+|s|^1.01) once |s| is moderately large
    nl = Nonlinearity(
        p=1.01,
        B0=1.0,
        f=lambda x, s: s * np.log1p(np.abs(s)),
        F=lambda x, s: np.zeros_like(np.asarray(s, dtype=float)),
        f_s=lambda x, s: np.log1p(np.abs(s)) + np.abs(s) / (1 + np.abs(s)),
        theta=3.0,
        s0=0.0,
    )
    result = growth_check(nl, np.linspace(-100.0, 100.0, 2001))
    assert not result.ok
    assert abs(result.where["s"]) > 4.0


def test_ar_equality_exact_for_pure_powers():
    x = np.zeros((1, 3))
    for p in (1.5, 2.0, 2.5):
        nl = make_power_nonlinearity(p)
        s = np.linspace(-100.0, 100.0, 1000)
        defect = ar_defect(nl, x[:, None, :], s[None, :])
        assert np.all(defect == 0.0)
        assert ar_check(nl).ok


def test_ar_check_rejects_sublinear():
    # f(s) = s has antiderivative s^2/2; theta=3 gives 3/2 s^2 > s^2
    lin = Nonlinearity(
        p=1.5,
        B0=1.0,
        f=lambda x, s: np.asarray(s, dtype=float),
        F=lambda x, s: np.asarray(s, dtype=float) ** 2 / 2.0,
        f_s=lambda x, s: np.ones_like(np.asarray(s, dtype=float)),
        theta=3.0,
        s0=0.0,
    )
    result = ar_check(lin)
    assert not result.ok


def test_antiderivative_check():
    nl = make_power_nonlinearity(2.0)
    assert antiderivative_check(nl).ok
    wrong = Nonlinearity(
        p=2.0,
        B0=1.0,
        f=nl.f,
        F=lambda x, s: np.asarray(s, dtype=float) ** 3 / 2.0,  # wrong constant
        f_s=nl.f_s,
        theta=3.0,
        s0=0.0,
    )
    assert not antiderivative_check(wrong).ok


def test_weak_residual_examples(mesh4):
    nl = make_power_nonlinearity(2.0)
    zero = FemFunction(mesh4, np.zeros(mesh4.num_vertices))
    assert weak_residual(zero, nl) == 0.0
    one = FemFunction(mesh4, np.ones(mesh4.num_vertices))
    assert weak_residual(one, nl) > 1e-3  # constants do not satisfy the flux condition


def test_weak_residual_of_linear_solve(mesh4):
    # replacing the nonlinearity by fixed data ties the residual to the solver
    h = lambda pts, normals: 1.0 + pts[..., 0]
    tol = 1e-10
    v = solve_neumann(mesh4, h, tol).solution
    fixed = Nonlinearity(
        p=2.0,
        B0=2.0,
        f=lambda x, s: 1.0 + x[..., 0],
        F=lambda x, s: (1.0 + x[..., 0]) * s,
        f_s=lambda x, s: np.zeros_like(np.asarray(s, dtype=float)),
        theta=3.0,
        s0=0.0,
    )
    assert weak_residual(v, fixed) <= 10.0 * tol


def test_ground_state_certificate(ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    assert outcome.weak_residual <= 1e-8
    assert outcome.positive
    assert outcome.multiplier > 0.0
    space = fem_space(outcome.solution.mesh)
    h1_sq = float(outcome.solution.values @ (space.h1_operator() @ outcome.solution.values))
    uq = space.boundary_values(outcome.solution.values)
    boundary_mass = space.boundary_integral(np.abs(uq) ** 3)
    assert abs(h1_sq - boundary_mass) <= 1e-6 * h1_sq


def test_ground_state_sign_flip_residual(ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    flipped = FemFunction(outcome.solution.mesh, -outcome.solution.values)
    assert weak_residual(flipped, nl) == weak_residual(outcome.solution, nl)


def test_ground_state_mesh_trend():
    nl = make_power_nonlinearity(2.0)
    from boundlab.norms import norm_h1

    coarse = solve_ground_state(build_cube_mesh(4), nl, 1e-8, seed=11)
    fine = solve_ground_state(build_cube_mesh(8), nl, 1e-8, seed=11)
    a, b = norm_h1(coarse.solution), norm_h1(fine.solution)
    assert abs(a - b) / b < 0.05


def test_ground_state_scaled_flux(mesh4):
    # doubling the flux scale halves the p=2 ground state: u_lam = u_1 / lam^(1/(p-1))
    scaled = solve_ground_state(mesh4, make_power_nonlinearity(2.0, lam_scale=2.0), 1e-8, seed=5)
    base = solve_ground_state(mesh4, make_power_nonlinearity(2.0), 1e-8, seed=5)
    assert scaled.weak_residual <= 1e-8
    assert scaled.positive
    assert np.allclose(2.0 * scaled.solution.values, base.solution.values, rtol=1e-5)


def _weighted_power(p):
    """lam(x) |s|^(p-1) s with lam(x) = 1 + x_0, between 1 and 2 on the cube."""
    lam = lambda x: 1.0 + x[..., 0]
    return Nonlinearity(
        p=p, B0=2.0,
        f=lambda x, s: lam(x) * np.sign(s) * np.abs(s) ** p,
        F=lambda x, s: lam(x) * np.abs(s) ** (p + 1.0) / (p + 1.0),
        f_s=lambda x, s: lam(x) * p * np.abs(s) ** (p - 1.0),
        theta=p + 1.0, s0=0.0,
    )


def test_stage1_solves_a_weighted_flux(mesh4):
    # stage 1 loads and constrains with the flux it is given, so its output
    # nearly solves the weighted problem, and Newton polishes that start to a
    # positive solution
    nl = _weighted_power(2.0)
    assert nl.reads_points
    start, _ = nonlinear._constraint_iteration(fem_space(mesh4), nl, 1e-8, 5)
    start = FemFunction(mesh4, start)
    assert weak_residual(start, nl) <= 1e-5
    refined = newton_refine(start, nl, 1e-13)
    assert refined.positive
    assert refined.weak_residual <= 1e-13


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
def test_stage1_unscales_through_the_flux(mesh4, p):
    # u_lam = u_1 / lam^(1/(p-1)) for the flux lam |s|^(p-1) s
    space = fem_space(mesh4)
    base, _ = nonlinear._constraint_iteration(space, make_power_nonlinearity(p), 1e-8, 5)
    scaled, _ = nonlinear._constraint_iteration(space, make_power_nonlinearity(p, lam_scale=2.0), 1e-8, 5)
    expected = 2.0 ** (-1.0 / (p - 1.0)) * base
    assert np.max(np.abs(scaled - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_each_flux_object_caches_its_own_ground_state(mesh4):
    space = fem_space(mesh4)
    nl, other = make_power_nonlinearity(2.0), make_power_nonlinearity(2.0)
    first = solve_ground_state(mesh4, nl, 1e-8, seed=5)
    assert solve_ground_state(mesh4, nl, 1e-8, seed=5) is first
    assert first.nonlinearity is nl and space.ground_states[(nl, 5, 1e-8)] is first
    second = solve_ground_state(mesh4, other, 1e-8, seed=5)
    assert second is not first and second.nonlinearity is other
    assert space.ground_states[(other, 5, 1e-8)] is second
    assert second.solution.values.tobytes() == first.solution.values.tobytes()


def test_ground_state_requires_power_family(mesh4):
    other = Nonlinearity(
        p=2.0, B0=1.0,
        f=lambda x, s: np.asarray(s, dtype=float),
        F=lambda x, s: np.asarray(s, dtype=float) ** 2 / 2,
        f_s=lambda x, s: np.ones_like(np.asarray(s, dtype=float)),
        theta=3.0, s0=0.0,
    )
    with pytest.raises(ValueError):
        solve_ground_state(mesh4, other, 1e-8, seed=0)


def test_newton_from_exact_solution_is_immediate(ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    refined = newton_refine(outcome.solution, nl, 1e-8)
    assert refined.newton_iterations == 0
    assert refined.weak_residual <= 1e-8


def test_newton_from_zero_stays_trivial(mesh4):
    nl = make_power_nonlinearity(2.0)
    zero = FemFunction(mesh4, np.zeros(mesh4.num_vertices))
    outcome = newton_refine(zero, nl, 1e-10)
    assert outcome.newton_iterations == 0
    assert np.all(outcome.solution.values == 0.0)


def test_newton_superlinear_tail(ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    perturbed = FemFunction(outcome.solution.mesh, 1.3 * outcome.solution.values)
    refined = newton_refine(perturbed, nl, 1e-12)
    history = refined.residual_history
    assert len(history) >= 3
    ratios = [b / a for a, b in zip(history, history[1:])]
    assert ratios[-1] < 1e-2 * ratios[0]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_newton_raises_when_minres_falls_short(ground_state_p2_n8, monkeypatch):
    nl, outcome = ground_state_p2_n8
    capped = lambda *args, **kwargs: _minres(*args, **{**kwargs, "maxiter": 1})
    monkeypatch.setattr(nonlinear, "_minres", capped)
    perturbed = FemFunction(outcome.solution.mesh, 1.3 * outcome.solution.values)
    with pytest.raises(SolverDivergence, match=r"MINRES stopped after 1 iterations"):
        newton_refine(perturbed, nl, 1e-8)


def test_newton_iteration_cap_counts_steps(ground_state_p2_n8, monkeypatch):
    # 1% above the ground state, Newton needs exactly two steps to reach 1e-8
    nl, outcome = ground_state_p2_n8
    perturbed = FemFunction(outcome.solution.mesh, 1.01 * outcome.solution.values)
    monkeypatch.setattr(nonlinear, "_MAX_NEWTON", 1)
    with pytest.raises(SolverDivergence, match=r"in 1 iterations"):
        newton_refine(perturbed, nl, 1e-8)
    monkeypatch.setattr(nonlinear, "_MAX_NEWTON", 2)
    assert newton_refine(perturbed, nl, 1e-8).newton_iterations == 2


def test_certify_solution_carries_residual(mesh4):
    nl = make_power_nonlinearity(2.0)
    zero = FemFunction(mesh4, np.zeros(mesh4.num_vertices))
    outcome = certify_solution(zero, nl, 1e-8)
    assert outcome.weak_residual == 0.0
    one = FemFunction(mesh4, np.ones(mesh4.num_vertices))
    assert certify_solution(one, nl, 1e-8).weak_residual > 1e-8


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
def test_certify_solution_rejects_unusable_tolerance(mesh4, tol):
    # an infinite tolerance would certify a function that solves nothing
    one = FemFunction(mesh4, np.ones(mesh4.num_vertices))
    with pytest.raises(ValueError, match="finite and positive"):
        certify_solution(one, make_power_nonlinearity(2.0), tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solvers_reject_unusable_tolerance(mesh4, tol):
    # a nan tol skipped the Newton polish, and an infinite one let solve_neumann
    # return x = 0 at relative residual 1 as a success
    with pytest.raises(ValueError, match="finite and positive"):
        solve_ground_state(mesh4, make_power_nonlinearity(2.0), tol, seed=11)
    with pytest.raises(ValueError, match="finite and positive"):
        solve_neumann(mesh4, lambda pts, normals: np.ones(pts.shape[:-1]), tol)


def _normalized_energy(mesh, values, p):
    """a(w, w) of w = values scaled onto int_bnd |w|^(p+1) = 1."""
    space = fem_space(mesh)
    uq = space.boundary_values(values)
    w = values / space.boundary_integral(np.abs(uq) ** (p + 1.0)) ** (1.0 / (p + 1.0))
    return float(w @ (space.h1_operator() @ w))


def test_ground_state_multiplier_and_iteration_counts(ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    mesh = outcome.solution.mesh
    multiplier = _normalized_energy(mesh, outcome.solution.values, 2.0)
    assert abs(outcome.multiplier - multiplier) <= 1e-12 * multiplier
    # stage 1 run on level 8 itself, as every solve started before nesting
    stage1, _ = nonlinear._constraint_iteration(fem_space(mesh), nl, 1e-8, 11)
    assert abs(outcome.multiplier - _normalized_energy(mesh, stage1, 2.0)) <= 1e-6 * multiplier
    # level 8's hierarchy is 2, 4, 8: the constraint iteration runs on level 2 only
    _, outer = nonlinear._constraint_iteration(fem_space(build_cube_mesh(2)), nl, 1e-8, 11)
    assert outcome.outer_iterations == outer > 0


@pytest.mark.parametrize("n", [16, 32])
def test_nested_rho_matches_polished_random_start(n):
    ctx = derive_context(3, Fraction(3, 2))
    nl = make_power_nonlinearity(1.5)
    mesh = build_cube_mesh(n)
    nested = solve_ground_state(mesh, nl, 1e-8, seed=11)
    start, _ = nonlinear._constraint_iteration(fem_space(mesh), nl, 1e-8, 11)
    direct = newton_refine(FemFunction(mesh, start), nl, 1e-13)
    rho_nested = main_estimate_ratio(nested, ctx).data["rho"]
    rho_direct = main_estimate_ratio(direct, ctx).data["rho"]
    assert abs(rho_nested - rho_direct) <= 1e-9 * rho_direct


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
def test_prolongated_start_polishes_within_three_newton_steps(p):
    nl = make_power_nonlinearity(p)
    for n in (4, 8, 16):
        outcome = solve_ground_state(build_cube_mesh(n), nl, 1e-8, seed=11)
        assert 1 <= outcome.newton_iterations <= 3
        assert outcome.weak_residual <= 1e-13


def test_ground_state_tolerance_is_the_callers(mesh4):
    outcome = solve_ground_state(mesh4, make_power_nonlinearity(2.0), 1e-6, seed=3)
    assert outcome.tolerance == 1e-6
    assert outcome.weak_residual <= 1e-13


def test_matrix_free_jacobian_matches_assembled(mesh4, rng):
    nl = make_power_nonlinearity(1.5)
    space = fem_space(mesh4)
    operator = space.h1_operator()
    values = rng.standard_normal(space.nv)
    jacobian = nonlinear._jacobian(space, operator, values, nl)
    uq = space.boundary_values(values)
    points, _, _ = whole_boundary(space)
    assembled = to_scipy(operator) - to_scipy(space.boundary_operator_from_values(nl.f_s(points, uq)), mesh4)
    for v in rng.standard_normal((5, space.nv)):
        want = assembled @ v
        assert np.linalg.norm(jacobian(v) - want) <= 1e-14 * np.linalg.norm(want)


def _unblocked_boundary_terms(space, values, nl):
    """f at the boundary quadrature points, its load vector and the faces'
    element matrices of f_s, each evaluated at every boundary quadrature
    point at once (before Newton read them in face blocks)."""
    faces = space.mesh.boundary_faces
    points, weights, _ = whole_boundary(space)
    uq = values[faces] @ space.bnd_basis.T
    fq = nl.f(points, uq)
    contrib = np.einsum("fq,qi->fi", weights * fq, space.bnd_basis)
    load = np.bincount(faces.ravel(), weights=contrib.ravel(), minlength=space.nv)
    entries = np.einsum("fq,qij->fij", weights * nl.f_s(points, uq), space.bnd_basis_pairs)
    return fq, load, entries


@pytest.mark.parametrize("n", [1, 3, 5, 8])
@pytest.mark.parametrize("block", [2, 3, 7, 11, 100, 299, 767, 4096])
def test_face_blocks_keep_newton_terms_bitwise(n, block, rng, monkeypatch):
    # nf = 12, 108, 300, 768: blocks of 11, 299 and 767 leave a one-face
    # remainder, which joins the block before it
    monkeypatch.setattr(assembly, "_FACE_BLOCK", block)
    nl = make_power_nonlinearity(1.5)
    space = fem_space(build_cube_mesh(n))
    operator = space.h1_operator()
    values = rng.standard_normal(space.nv)
    fq, load, entries = _unblocked_boundary_terms(space, values, nl)
    # a one-face block would move some of these values by an ulp, which the
    # sums below can absorb
    at_boundary = space.at_boundary(values, nl.f)
    blocked_fq = np.concatenate([at_boundary(faces) for faces in space._face_blocks()])
    assert blocked_fq.tobytes() == fq.tobytes()
    residual, _ = nonlinear._residual(space, operator, values, nl)
    assert residual.tobytes() == (operator @ values - load).tobytes()
    blocked_entries = space.boundary_operator_from_values(space.at_boundary(values, nl.f_s))
    assert blocked_entries.tobytes() == entries.tobytes()
    blocked, matrix = to_scipy(blocked_entries, space.mesh), to_scipy(entries, space.mesh)
    for name in ("indptr", "indices", "data"):
        assert getattr(blocked, name).tobytes() == getattr(matrix, name).tobytes(), name
    jacobian = nonlinear._jacobian(space, operator, values, nl)
    faces = space.mesh.boundary_faces
    for v in rng.standard_normal((3, space.nv)):
        assert jacobian(v).tobytes() == subtract_face_product(operator @ v, entries, faces, v).tobytes()


@pytest.mark.parametrize("block", range(2, 20))
def test_face_blocks_cover_the_boundary_without_one_face_blocks(block, monkeypatch):
    monkeypatch.setattr(assembly, "_FACE_BLOCK", block)
    for n in (1, 2, 3):
        space = fem_space(build_cube_mesh(n))
        blocks = space._face_blocks()
        nf = space.mesh.num_boundary_faces
        covered = np.concatenate([np.arange(nf)[faces] for faces in blocks])
        assert np.array_equal(covered, np.arange(nf))
        assert all(2 <= faces.stop - faces.start <= block + 1 for faces in blocks)


def test_newton_boundary_terms_peak_memory_is_bounded(traced_peak):
    # at the whole-boundary evaluation one _residual call peaked at
    # 6.3 MB and one _jacobian call at 6.9 MB (n = 32, 12 288 faces x 16
    # points); face blocks measured 1.1 MB and 3.9 MB, the latter mostly the
    # COO triplets and the CSR of the boundary operator.  On a boundary
    # pattern formed once per level a _jacobian call measured 1.5 MB, and
    # as the faces' element matrices it measures 1.5 MB, keeping 0.84 MB
    nl = make_power_nonlinearity(2.0)
    space = fem_space(build_cube_mesh(32))
    operator = space.h1_operator()
    values = 0.5 + np.random.default_rng(1).random(space.nv)
    _, residual_peak = traced_peak(lambda: nonlinear._residual(space, operator, values, nl))
    _, jacobian_peak = traced_peak(lambda: nonlinear._jacobian(space, operator, values, nl))
    assert residual_peak <= 2 * 2**20
    assert jacobian_peak <= 2 * 2**20


@pytest.mark.parametrize("n", [1, 3, 8])
def test_newton_jacobian_is_symmetric(n, rng):
    # MINRES needs a symmetric Jacobian: each face's element matrix is its
    # own transpose bitwise, so x . J(y) and y . J(x) differ by rounding
    # only, relative to |x| |J(y)|, which bounds either side (5e-16 at most
    # over 300 random draws per level); relative to the products themselves
    # a draw whose terms cancel can read 2e-13
    nl = make_power_nonlinearity(1.5)
    space = fem_space(build_cube_mesh(n))
    values = rng.standard_normal(space.nv)
    entries = space.boundary_operator_from_values(space.at_boundary(values, nl.f_s))
    assert entries.tobytes() == np.ascontiguousarray(entries.transpose(0, 2, 1)).tobytes()
    jacobian = nonlinear._jacobian(space, space.h1_operator(), values, nl)
    for x, y in rng.standard_normal((3, 2, space.nv)):
        jy = jacobian(y)
        assert abs(float(x @ jy) - float(y @ jacobian(x))) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(jy)


def test_first_jacobian_of_a_level_keeps_only_its_face_matrices(monkeypatch):
    # fresh caches, so level 32 and its workspace are built here; a
    # boundary pattern formed on the first Jacobian of a level kept 1.84x
    # the faces' element matrices and peaked at 6.91x their bytes
    levels = {}
    monkeypatch.setattr(mesh_module, "_MESHES", levels)
    monkeypatch.setattr(assembly, "_MESHES", levels)
    monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
    nl = make_power_nonlinearity(2.0)
    space = fem_space(build_cube_mesh(32))
    operator = space.h1_operator()
    values = 0.5 + np.random.default_rng(1).random(space.nv)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        jacobian = nonlinear._jacobian(space, operator, values, nl)  # held, so kept counts what it keeps
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    nf = space.mesh.num_boundary_faces
    entries_bytes = 72 * nf
    assert kept <= 1.05 * entries_bytes
    assert peak <= 2 * entries_bytes
    for name, value in vars(space).items():
        if isinstance(value, np.ndarray):
            assert value.size < nf, name


def test_fluxes_that_read_no_points_are_given_none(rng):
    # the power family ignores x, so its boundary terms form no points, and
    # they are bitwise those formed with the points
    nl = make_power_nonlinearity(1.5)
    assert not nl.reads_points
    space = fem_space(build_cube_mesh(5))
    operator = space.h1_operator()
    values = rng.standard_normal(space.nv)
    seen = []
    space.at_boundary(values, lambda x, u: seen.append(x) or u, points=False)(slice(0, 4))
    space.at_boundary(values, lambda x, u: seen.append(x) or u)(slice(0, 4))
    assert seen[0] is None and np.array_equal(seen[1], space.boundary_points(slice(0, 4)))
    with_points = dataclasses.replace(nl, kind="custom")
    assert with_points.reads_points
    residual, _ = nonlinear._residual(space, operator, values, nl)
    assert residual.tobytes() == nonlinear._residual(space, operator, values, with_points)[0].tobytes()
    jacobian = nonlinear._jacobian(space, operator, values, nl)
    v = rng.standard_normal(space.nv)
    assert jacobian(v).tobytes() == nonlinear._jacobian(space, operator, values, with_points)(v).tobytes()
