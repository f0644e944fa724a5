"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from boundlab.assembly import fem_space
from boundlab.cli import main
from boundlab.exponents import check_identities, critical_exponents, derive_context
from boundlab.linear_solver import (
    MANUFACTURED_CASES,
    manufactured_convergence,
    regularity_ratio_suite,
    solve_neumann,
)
from boundlab.mesh import build_cube_mesh
from boundlab.nonlinear import (
    Nonlinearity,
    ar_defect,
    growth_check,
    make_power_nonlinearity,
    solve_ground_state,
)
from boundlab.norms import energy_J, norm_h1
from boundlab.verify_chain import (
    build_corpus,
    gn_ratio_suite,
    main_estimate_ratio,
    universal_suite,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance {number}] {name}: FAIL")
        raise
    else:
        print(f"\n[acceptance {number}] {name}: PASS")


@pytest.fixture(scope="module")
def ground_states():
    """Ground states for p in {1.5, 2, 2.5} and n in {8, 16} (seed 11)."""
    out = {}
    for p in (1.5, 2.0, 2.5):
        nl = make_power_nonlinearity(p)
        for n in (8, 16):
            out[(p, n)] = (nl, solve_ground_state(build_cube_mesh(n), nl, 1e-8, seed=11))
    return out


def test_criterion_1_exponent_identities_grid():
    with criterion(1, "exact identities on the (N, p) grid"):
        start = time.perf_counter()
        for N in range(3, 11):
            _, two_low = critical_exponents(N)
            span = two_low - 2
            for k in range(1, 21):
                p = 1 + span * Fraction(k, 21)
                ctx = derive_context(N, p)
                assert all(c.passed for c in check_identities(ctx))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"identity grid took {elapsed:.2f}s"


def test_criterion_2_worked_context():
    with criterion(2, "worked context (N=3, p=2, q=3)"):
        ctx = derive_context(3, 2)
        assert ctx.q == 3
        assert ctx.A == 2
        assert ctx.m == Fraction(9, 2)
        assert ctx.sigma == Fraction(3, 5)
        assert ctx.A_hat1 == Fraction(4, 3)
        assert ctx.A_hat2 == Fraction(2, 3)


def test_criterion_3_manufactured_convergence():
    with criterion(3, "manufactured solves converge at P1 rates"):
        for case_id in sorted(MANUFACTURED_CASES):
            table = manufactured_convergence(case_id, [4, 8, 16], tol=1e-10)
            assert all(o >= 0.9 for o in table.h1_orders), (case_id, table.h1_orders)
            assert all(o >= 1.8 for o in table.l2_orders), (case_id, table.l2_orders)
        case = MANUFACTURED_CASES["exp-x1"]
        mesh16 = build_cube_mesh(16)
        start = time.perf_counter()
        solve_neumann(mesh16, case.h, 1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"n=16 solve took {elapsed:.1f}s"


def test_criterion_4_universal_inequalities(ground_states):
    with criterion(4, "universal inequalities admit zero violations"):
        ctx = derive_context(3, 2)
        start = time.perf_counter()
        nl = make_power_nonlinearity(2.0)
        for n in (4, 8):
            mesh = build_cube_mesh(n)
            if n == 8:
                solution = ground_states[(2.0, 8)][1].solution
            else:
                solution = solve_ground_state(mesh, nl, 1e-8, seed=11).solution
            report = universal_suite(build_corpus(mesh, 100, seed=7, solutions=[solution]), ctx)
            assert len(report.steps) * report.linf.size == 300
            assert report.violations == 0
            counts = report.branch_counts()
            assert counts["sup>1"] > 0 and counts["sup<=1"] > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"universal suites took {elapsed:.1f}s"


def test_criterion_5_fitted_constant_saturation(ground_states):
    with criterion(5, "fitted-constant suites saturate under refinement"):
        ctx = derive_context(3, 2)
        start = time.perf_counter()
        corpora = []
        for n in (8, 16):
            solution = ground_states[(2.0, n)][1].solution
            corpora.append(build_corpus(build_cube_mesh(n), 60, seed=7, solutions=[solution]))
        gn = gn_ratio_suite(corpora, ctx)
        maxima = {row["n"]: row["max_ratio"] for row in gn.rows}
        gn_factor = maxima[16] / maxima[8]
        assert 0.5 <= gn_factor <= 2.0, f"gn maxima factor {gn_factor}"

        reg = regularity_ratio_suite(ctx, [8, 16], 12, seed=5)
        for key in ("ratio_w1m", "ratio_linf"):
            factor = reg.maxima[16][key] / reg.maxima[8][key]
            assert 0.5 <= factor <= 2.0, f"regularity {key} factor {factor}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"saturation suites took {elapsed:.1f}s"


def test_criterion_6_ground_state_certificates(ground_states):
    with criterion(6, "ground state at p=2, n=8 with energy identities"):
        start = time.perf_counter()
        nl, outcome = ground_states[(2.0, 8)]
        assert outcome.weak_residual <= 1e-8
        assert outcome.positive
        u = outcome.solution
        space = fem_space(u.mesh)
        h1_sq = norm_h1(u) ** 2
        uq = space.boundary_values(u.values)
        cubic = space.boundary_integral(np.abs(uq) ** 3)
        assert abs(h1_sq - cubic) <= 1e-6 * h1_sq
        J = energy_J(u, nl)
        assert abs(J - h1_sq / 6.0) <= 1e-6 * abs(h1_sq / 6.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0


def test_criterion_7_main_estimate_stability(ground_states):
    with criterion(7, "main-estimate ratios finite and mesh-stable"):
        start = time.perf_counter()
        for p in (1.5, 2.0, 2.5):
            ctx = derive_context(3, Fraction(p))
            rhos, rho_hats = [], []
            for n in (8, 16):
                nl, outcome = ground_states[(p, n)]
                rec = main_estimate_ratio(outcome, ctx)
                assert rec.verdict == "finite"
                assert rec.data["rho"] > 0 and rec.data["rho_hat"] > 0
                rhos.append(rec.data["rho"])
                rho_hats.append(rec.data["rho_hat"])
            assert max(rhos) / min(rhos) <= 1.5, (p, rhos)
            assert max(rho_hats) / min(rho_hats) <= 1.5, (p, rho_hats)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0


def test_criterion_8_superlinearity_certification():
    with criterion(8, "exact superlinearity equality; growth violator rejected"):
        start = time.perf_counter()
        grid = np.linspace(-100.0, 100.0, 1000)
        x = np.zeros((1, 3))
        for p in (1.5, 2.0, 2.5):
            nl = make_power_nonlinearity(p)
            assert nl.theta == p + 1.0
            defect = ar_defect(nl, x[:, None, :], grid[None, :])
            assert np.all(defect == 0.0), "superlinearity equality must be exact"
        violator = Nonlinearity(
            p=2.0,
            B0=1.0,
            f=lambda x, s: s**2 + 10.0,
            F=lambda x, s: s**3 / 3.0 + 10.0 * s,
            f_s=lambda x, s: 2.0 * s,
            theta=3.0,
            s0=0.0,
        )
        assert not growth_check(violator).ok
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"certification took {elapsed:.2f}s"


def test_criterion_9_byte_identical_reports(tmp_path):
    with criterion(9, "verify and sweep runs are byte-identical"):
        verify_args = [
            "verify", "--suite", "universal", "--n", "4",
            "--samples", "20", "--seed", "7",
        ]
        a = tmp_path / "verify_a.json"
        b = tmp_path / "verify_b.json"
        assert main(verify_args + ["--output", str(a)]) == 0
        assert main(verify_args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        sweep_args = ["sweep", "--p", "2", "--n", "4", "--seed", "11", "--tol", "1e-8"]
        c = tmp_path / "sweep_a.csv"
        d = tmp_path / "sweep_b.csv"
        assert main(sweep_args + ["--output", str(c), "--format", "csv"]) == 0
        assert main(sweep_args + ["--output", str(d), "--format", "csv"]) == 0
        assert c.read_bytes() == d.read_bytes()
