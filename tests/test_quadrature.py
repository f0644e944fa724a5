from math import factorial

import numpy as np
import pytest

from boundlab import quadrature
from boundlab.quadrature import tetrahedron_rule, triangle_rule


def exact_triangle_monomial(a, b):
    # int over {x,y>=0, x+y<=1} of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def exact_tet_monomial(a, b, c):
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def test_triangle_weights_positive_sum_half():
    pts, wts = triangle_rule()
    assert np.all(wts > 0)
    assert abs(wts.sum() - 0.5) < 1e-15
    assert np.all(pts >= 0)
    assert np.all(pts.sum(axis=1) <= 1 + 1e-15)


def test_tet_weights_positive_sum_sixth():
    pts, wts = tetrahedron_rule()
    assert np.all(wts > 0)
    assert abs(wts.sum() - 1.0 / 6.0) < 1e-15


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(7) for b in range(7 - a)]
)
def test_triangle_monomials_degree_six(a, b):
    pts, wts = triangle_rule()
    got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
    assert abs(got - exact_triangle_monomial(a, b)) < 1e-13


@pytest.mark.parametrize(
    "a,b,c",
    [(a, b, c) for a in range(7) for b in range(7 - a) for c in range(7 - a - b)],
)
def test_tet_monomials_degree_six(a, b, c):
    pts, wts = tetrahedron_rule()
    got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
    assert abs(got - exact_tet_monomial(a, b, c)) < 1e-13


def test_literal_rules_are_bitwise_scipy_rules():
    # the tables stand in for scipy.special, which only this test imports
    from scipy.special import roots_jacobi, roots_legendre

    k = quadrature._POINTS_PER_AXIS
    expected = {
        "jacobi 2": roots_jacobi(k, 2.0, 0.0),
        "jacobi 1": roots_jacobi(k, 1.0, 0.0),
        "legendre": roots_legendre(k),
    }
    tables = {
        "jacobi 2": quadrature._GAUSS_JACOBI[2.0],
        "jacobi 1": quadrature._GAUSS_JACOBI[1.0],
        "legendre": quadrature._GAUSS_LEGENDRE,
    }
    for name, (x, w) in expected.items():
        nodes, weights = (np.array(t).tobytes() for t in tables[name])
        assert (nodes, weights) == (x.tobytes(), w.tobytes()), name
