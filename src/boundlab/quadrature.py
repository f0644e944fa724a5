"""Conical-product Gauss rules on the reference triangle and tetrahedron.

With four points per direction the rules integrate polynomials of total
degree 7 exactly, one above the degree-6 contract the assembly relies on.
All weights are positive, which the discrete Holder arguments depend on.
The 1-D rules are literal tables, bitwise those of
``scipy.special.roots_jacobi`` and ``roots_legendre``, so importing this
module does not load ``scipy.special``.
"""

import functools

import numpy as np

__all__ = ["triangle_rule", "tetrahedron_rule"]

# Gauss points per direction of the conical products: degree 2k - 1 = 7
_POINTS_PER_AXIS = 4

# 4-point Gauss rules on [-1, 1], (nodes, weights): Gauss-Jacobi for the
# weights (1 - x)^2 and (1 - x)^1, and Gauss-Legendre
_GAUSS_JACOBI = {
    2.0: (
        [-0.9029989011060054, -0.5227985248962753, 0.03409459020873491, 0.5917028357935458],
        [0.8871073248902219, 1.1476703183937156, 0.5490710973833848, 0.08281792599934465],
    ),
    1.0: (
        [-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389],
        [0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234],
    ),
}
_GAUSS_LEGENDRE = (
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526],
    [0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538],
)


def _jacobi01(alpha):
    # nodes/weights for weight (1-x)^alpha on [0, 1]
    x, w = (np.array(t) for t in _GAUSS_JACOBI[alpha])
    return (x + 1.0) / 2.0, w * 0.5 ** (alpha + 1)


def _legendre01():
    x, w = (np.array(t) for t in _GAUSS_LEGENDRE)
    return (x + 1.0) / 2.0, w / 2.0


def _product(*rules):
    """Nodes (one array per axis) and weights of the tensor grid of 1-D rules,
    the last axis varying fastest."""
    nodes = [x.ravel() for x in np.meshgrid(*(x for x, _ in rules), indexing="ij")]
    return nodes, functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()


def triangle_rule():
    """Rule on the triangle {x, y >= 0, x + y <= 1}; weights sum to 1/2."""
    (xi, t), wts = _product(_jacobi01(1.0), _legendre01())
    return np.column_stack([xi, t * (1.0 - xi)]), wts


def tetrahedron_rule():
    """Rule on the tet {x, y, z >= 0, x + y + z <= 1}; weights sum to 1/6."""
    (xi, eta, zeta), wts = _product(_jacobi01(2.0), _jacobi01(1.0), _legendre01())
    return np.column_stack([xi, eta * (1.0 - xi), zeta * (1.0 - xi) * (1.0 - eta)]), wts
