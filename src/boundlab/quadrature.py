"""Conical-product Gauss rules on the reference triangle and tetrahedron.

With four points per direction the rules integrate polynomials of total
degree 7 exactly, one above the degree-6 contract the assembly relies on.
All weights are positive, which the discrete Holder arguments depend on.
"""

import functools

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["triangle_rule", "tetrahedron_rule"]

# Gauss points per direction of the conical products: degree 2k - 1 = 7
_POINTS_PER_AXIS = 4


def _jacobi01(k, alpha):
    # nodes/weights for weight (1-x)^alpha on [0, 1]
    x, w = roots_jacobi(k, alpha, 0.0)
    return (x + 1.0) / 2.0, w * 0.5 ** (alpha + 1)


def _legendre01(k):
    x, w = roots_legendre(k)
    return (x + 1.0) / 2.0, w / 2.0


def _product(*rules):
    """Nodes (one array per axis) and weights of the tensor grid of 1-D rules,
    the last axis varying fastest."""
    nodes = [x.ravel() for x in np.meshgrid(*(x for x, _ in rules), indexing="ij")]
    return nodes, functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()


def triangle_rule():
    """Rule on the triangle {x, y >= 0, x + y <= 1}; weights sum to 1/2."""
    (xi, t), wts = _product(_jacobi01(_POINTS_PER_AXIS, 1.0), _legendre01(_POINTS_PER_AXIS))
    return np.column_stack([xi, t * (1.0 - xi)]), wts


def tetrahedron_rule():
    """Rule on the tet {x, y, z >= 0, x + y + z <= 1}; weights sum to 1/6."""
    (xi, eta, zeta), wts = _product(
        _jacobi01(_POINTS_PER_AXIS, 2.0), _jacobi01(_POINTS_PER_AXIS, 1.0), _legendre01(_POINTS_PER_AXIS)
    )
    return np.column_stack([xi, eta * (1.0 - xi), zeta * (1.0 - xi) * (1.0 - eta)]), wts
