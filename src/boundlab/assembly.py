"""P1 finite-element assembly on cube meshes.

Provides the H1 operator (stiffness + mass, exact for piecewise linears),
boundary load vectors and boundary operators built from values at the
quadrature points, all with the degree-7 quadrature rules from
:mod:`boundlab.quadrature`, and a preconditioner per level for solves with
the H1 operator: the fast-diagonalization (DCT-I) inverse of a
tensor-product operator, or an exact sparse LU on a coarsest level.  The H1
operator is a scipy DIA matrix holding its 15 Kuhn-stencil diagonals;
boundary operators are scipy CSR matrices.  Assembly is sequential with a
fixed element order, so repeated runs are bit-identical.  scipy is imported
by the functions that build operators, on their first call, so importing
this module loads numpy alone.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .mesh import _KUHN_CORNERS, _MESHES, face_areas
from .quadrature import tetrahedron_rule, triangle_rule

__all__ = [
    "FemFunction",
    "fem_space",
    "assemble_boundary_load",
]


@dataclass(eq=False)
class FemFunction:
    """Nodal values of a piecewise-linear function on a mesh."""

    mesh: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_vertices,):
            raise ValueError(
                f"expected {self.mesh.num_vertices} nodal values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")


# integral of b_i b_j over a tet, per unit volume
_MASS_PATTERN = (np.ones((4, 4)) + np.eye(4)) / 20.0

# faces per block of the boundary loads and operators: with 16 quadrature
# points a face, a block's values at them take 128 KiB
_FACE_BLOCK = 1024


def _splu(matrix):
    """Sparse LU factorization (scipy's ``splu``) of a CSC matrix: its SuperLU object."""
    from scipy.sparse.linalg import splu

    return splu(matrix)


# Level 2n refines level n: on each axis, fine vertex i lies between coarse
# vertices floor(i / 2) and ceil(i / 2).  Prolongation, per parity class of
# fine vertices (even or odd on each axis): (its slice of the fine grid, the
# slices of the coarse grid at the low and the high ends of its edges).  The
# slices do not depend on n.
_PROLONG_PARTS = [
    (tuple(slice(odd, None, 2) for odd in parity),
     tuple(slice(None, -1) if odd else slice(None) for odd in parity),
     tuple(slice(1, None) if odd else slice(None) for odd in parity))
    for parity in itertools.product((0, 1), repeat=3)
]


def _prolong(values, n):
    """P1 prolongation of nodal values from level n to level 2n, in closed form.

    The Kuhn split of level 2n refines that of level n, so fine vertex
    (I, J, K) lies on the coarse edge from floor((I, J, K) / 2) to
    ceil((I, J, K) / 2) and takes the mean of its two ends; a fine vertex
    with even coordinates is both ends.  Each parity class of fine vertices
    is one strided slice.  The mean is 0.5 a + 0.5 b, the sum of a CSR row
    holding the map.
    """
    s = n + 1
    half = 0.5 * values.reshape(s, s, s)
    fine = np.empty((2 * n + 1,) * 3)
    for fine_part, low, high in _PROLONG_PARTS:
        np.add(half[low], half[high], out=fine[fine_part])
    return fine.ravel()


def _kronecker_inverse(n):
    """Solve with P = K1(x)M1(x)M1 + M1(x)K1(x)M1 + M1(x)M1(x)K1 + M1(x)M1(x)M1 on level n.

    K1 is the 1-D Neumann stiffness and M1 the lumped 1-D mass, h = 1/n with
    h/2 at the ends.  The DCT-I diagonalizes M1^-1 K1, with eigenvalues
    4 n^2 sin^2(k pi / 2n), so with c = (1, 2, ..., 2, 1) on each axis
    P^-1 r = C(C(r / c) / (1 + lam_i + lam_j + lam_k)), C the unnormalized
    DCT-I along each axis (fast diagonalization): C = W diag(c), W the
    (n+1) x (n+1) matrix of cos(pi k j / n), so C(r / c) is W along each
    axis.  Each axis is one dense matrix product over the (n+1)^3 lattice,
    the middle axis batched over the first.  P is spectrally equivalent to
    the H1 operator A uniformly in n: the eigenvalues of P^-1 A lie within
    [0.76, 1.34] at n = 2, 3, 4 and 8.  Returns the solve as a function of a
    nodal vector.
    """
    s = n + 1
    k = np.arange(s)
    c = np.full(s, 2.0)
    c[[0, -1]] = 1.0
    # the angle k j pi / n taken modulo 2 pi, so the cosines are exact to rounding at every n
    cosines = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n)
    lam = 4.0 * n**2 * np.sin(k * np.pi / (2 * n)) ** 2
    spectrum = 1.0 + lam[:, None, None] + lam[:, None] + lam
    dct = cosines * c

    def transform(matrix, x, out, scratch):
        """``matrix`` applied along each axis of x, into ``out``: the last
        axis, the middle axis batched over the first, then the first axis."""
        np.matmul(x.reshape(s * s, s), matrix.T, out=out.reshape(s * s, s))
        np.matmul(matrix, out, out=scratch)
        np.matmul(matrix, scratch.reshape(s, s * s), out=out.reshape(s, s * s))
        return out

    def solve(r):
        first, second = np.empty((s, s, s)), np.empty((s, s, s))
        transform(cosines, r.reshape(s, s, s), first, second)
        first /= spectrum
        return transform(dct, first, second, first).ravel()

    return solve


class _FemSpace:
    """Cached geometry, quadrature and operators for one build_cube_mesh level.

    A level lists its tets cell by cell, so tet t is a translate of Kuhn shape
    t % 6 scaled by 1/n, with volume 1/(6 n^3): no per-tet array is needed.
    """

    def __init__(self, mesh):
        if _MESHES.get(mesh.n) is not mesh:
            raise ValueError("degenerate tet or foreign mesh: not a build_cube_mesh level")
        self.mesh = mesh
        self.nv = mesh.num_vertices

        self.tet_volume = 1.0 / (6.0 * mesh.n**3)
        edges = _KUHN_CORNERS[:, 1:, :] - _KUHN_CORNERS[:, :1, :]   # (6, 3, 3), det 1
        self.grad_shapes = np.empty((6, 4, 3))
        self.grad_shapes[:, 1:, :] = mesh.n * np.transpose(np.linalg.inv(edges), (0, 2, 1))
        self.grad_shapes[:, 0, :] = -self.grad_shapes[:, 1:, :].sum(axis=1)

        ref_pts, ref_w = tetrahedron_rule()
        self.vol_basis = np.column_stack([1.0 - ref_pts.sum(axis=1), ref_pts])  # (nq, 4)
        self.tet_w = 6.0 * self.tet_volume * ref_w                       # sums to the volume

        bref_pts, self.bnd_ref_w = triangle_rule()
        blam = np.column_stack([1.0 - bref_pts.sum(axis=1), bref_pts])  # (nqb, 3)
        self.bnd_basis = blam
        # products b_i*b_j are formed once so weighted sums stay bitwise symmetric
        self.bnd_basis_pairs = blam[:, :, None] * blam[:, None, :]
        # one scalar per face: the boundary's points, weights and normals are
        # formed per block of faces
        self.face_areas = face_areas(mesh)

        self._h1 = None
        self._preconditioner = None
        # polished ground states of this level, keyed by nonlinear.solve_ground_state
        self.ground_states = {}

    # -- operators ---------------------------------------------------------

    def _shape_operator(self, shape_matrices):
        """Operator from the (6, 4, 4) element matrices of the shapes, repeated in every cell.

        Entry (k, i, j) couples row v = cell + corner i with column
        v + corner j - corner i, an offset that is the same in every cell.  So
        the operator is a sum of 15 offset diagonals, stored as scipy DIA in
        increasing offset order: each entry adds one constant to the n^3 block
        of its diagonal where corner j of a cell lies (DIA indexes a diagonal
        by column).  Slots no cell couples hold 0.0, so products are bitwise
        those of the CSR holding the same couplings.
        """
        from scipy import sparse

        n, nv = self.mesh.n, self.nv
        s = n + 1
        corners = _KUHN_CORNERS @ np.array([1, s, s * s])                  # (6, 4)
        offsets, diagonal = np.unique(corners[:, None, :] - corners[:, :, None], return_inverse=True)
        data = np.zeros((offsets.size, s, s, s))
        for (k, i, j), d in np.ndenumerate(diagonal.reshape(6, 4, 4)):
            x, y, z = _KUHN_CORNERS[k, j]
            data[d, z:z + n, y:y + n, x:x + n] += shape_matrices[k, i, j]
        return sparse.dia_matrix((data.reshape(offsets.size, nv), offsets), shape=(nv, nv))

    def h1_operator(self):
        """Stiffness + mass operator of the H1 inner product, exact for P1."""
        if self._h1 is None:
            stiffness = np.einsum("kid,kjd->kij", self.grad_shapes, self.grad_shapes)
            self._h1 = self._shape_operator(self.tet_volume * (stiffness + _MASS_PATTERN))
        return self._h1

    def coarse_n(self):
        """Level n // 2 below this one, or None on a coarsest level.

        Levels halve while n is even and n > 2; the nested ground-state
        solves walk this hierarchy, prolongating each level's solution with
        ``_prolong``.
        """
        n = self.mesh.n
        return n // 2 if n % 2 == 0 and n > 2 else None

    def preconditioner(self):
        """An SPD approximate inverse of the H1 operator, cached on the level.

        A level with a coarser level applies the fast-diagonalization inverse
        of ``_kronecker_inverse``, which takes about 10 CG iterations at every
        n.  A coarsest level (n <= 2 or odd) is solved exactly by a sparse LU,
        factored once, so at an odd finest n (5, 25, ...) CG takes one
        iteration.  Returned as a LinearOperator, the ``M`` of scipy's Krylov
        solvers.
        """
        if self._preconditioner is None:
            from scipy.sparse.linalg import LinearOperator

            if self.coarse_n() is None:
                solve = _splu(self.h1_operator().tocsc()).solve
            else:
                solve = _kronecker_inverse(self.mesh.n)
            self._preconditioner = LinearOperator((self.nv, self.nv), matvec=solve, dtype=float)
        return self._preconditioner

    # -- evaluation at quadrature points ------------------------------------

    # ``tets`` selects a slice of the tets (read from the level's row
    # source); it must cover whole cells (6 tets each, starting at a multiple
    # of 6) for ``gradients``.  ``faces`` selects a slice of the boundary
    # faces; the boundary's quadrature points, weights and normals are formed
    # for the faces asked for only.

    def volume_values(self, values, tets=slice(None)):
        return values[self.mesh.tets[tets]] @ self.vol_basis.T      # (nt, nq)

    def boundary_values(self, values, faces=slice(None)):
        return values[self.mesh.boundary_faces[faces]] @ self.bnd_basis.T  # (nf, nqb)

    def boundary_points(self, faces=slice(None)):
        return self.bnd_basis @ self.mesh.vertices[self.mesh.boundary_faces[faces]]  # (nf, nqb, 3)

    def boundary_weights(self, faces=slice(None)):
        return (2.0 * self.face_areas[faces])[:, None] * self.bnd_ref_w   # (nf, nqb)

    def boundary_normals(self, faces=slice(None)):
        normals = self.mesh.boundary_normals[faces]
        return np.broadcast_to(normals[:, None, :], (len(normals), len(self.bnd_ref_w), 3))

    def gradients(self, values, tets=slice(None)):
        nodal = values[self.mesh.tets[tets]].reshape(-1, 6, 4)          # (cells, 6, 4)
        return np.einsum("kid,cki->ckd", self.grad_shapes, nodal).reshape(-1, 3)

    def volume_integral(self, point_values):
        return float(np.sum(self.tet_w * point_values))

    # -- boundary fields and assembly -----------------------------------------
    #
    # ``point_values`` are a field's values at the boundary quadrature points:
    # an (nf, nqb) array, or a function of a slice of faces returning that
    # slice's rows.  Either is read block by block of faces, so a function
    # is never evaluated on the whole boundary at once.  Each block writes
    # its faces' rows of the element vectors or matrices, and one scatter
    # assembles them.

    def at_boundary(self, values, flux, points=True):
        """flux(x, u) at the boundary quadrature points, u the P1 function of
        nodal ``values``, as a function of a slice of faces.  With ``points``
        false the flux reads no x and receives None for it."""
        def block(faces):
            return flux(self.boundary_points(faces) if points else None, self.boundary_values(values, faces))

        return block

    def boundary_field(self, g):
        """g(points, normals) at the boundary quadrature points, as a function
        of a slice of faces: a block's values broadcast to (faces, nqb), and
        a non-finite one raises ValueError."""

        def block(faces):
            points = self.boundary_points(faces)
            values = np.asarray(g(points, self.boundary_normals(faces)), dtype=float)
            if not np.all(np.isfinite(values)):
                raise ValueError("boundary field produced non-finite values at quadrature points")
            return np.broadcast_to(values, points.shape[:-1])

        return block

    def _face_blocks(self):
        """Slices of at most _FACE_BLOCK faces, in order.  A one-face
        remainder joins the block before it: a one-row matmul (as in
        ``boundary_values``) rounds differently from a longer one."""
        nf = len(self.face_areas)
        starts = list(range(0, nf, _FACE_BLOCK))
        if len(starts) > 1 and nf - starts[-1] == 1:
            starts.pop()
        return [slice(a, b) for a, b in zip(starts, starts[1:] + [nf])]

    def _weighted_blocks(self, point_values):
        """(faces, quadrature weights times the values) per block of faces."""
        for faces in self._face_blocks():
            block = point_values(faces) if callable(point_values) else point_values[faces]
            yield faces, self.boundary_weights(faces) * block

    def boundary_integral(self, point_values):
        """Quadrature integral of a field over the boundary, summed block by
        block of faces.  A function whose blocks stack several fields,
        (..., faces, nqb), gives an array of their integrals."""
        total = 0.0
        for _, weighted in self._weighted_blocks(point_values):
            total += weighted.sum(axis=(-2, -1))
        return float(total) if np.ndim(total) == 0 else total

    def boundary_load_from_values(self, point_values):
        contrib = np.empty((len(self.face_areas), 3))
        for faces, weighted in self._weighted_blocks(point_values):
            np.einsum("fq,qi->fi", weighted, self.bnd_basis, out=contrib[faces])
        return np.bincount(self.mesh.boundary_faces.ravel(), weights=contrib.ravel(), minlength=self.nv)

    def boundary_operator_from_values(self, point_values):
        from scipy import sparse

        entries = np.empty((len(self.face_areas), 3, 3))
        for faces, weighted in self._weighted_blocks(point_values):
            np.einsum("fq,qij->fij", weighted, self.bnd_basis_pairs, out=entries[faces])
        rows = np.broadcast_to(self.mesh.boundary_faces[:, :, None], entries.shape)
        cols = np.broadcast_to(self.mesh.boundary_faces[:, None, :], entries.shape)
        mat = sparse.coo_matrix(
            (entries.ravel(), (rows.ravel(), cols.ravel())), shape=(self.nv, self.nv)
        )
        return mat.tocsr()


_SPACE_CACHE = weakref.WeakKeyDictionary()


def fem_space(mesh):
    """Memoized assembly workspace for a mesh (meshes are immutable)."""
    space = _SPACE_CACHE.get(mesh)
    if space is None:
        space = _FemSpace(mesh)
        _SPACE_CACHE[mesh] = space
    return space


def assemble_boundary_load(mesh, g):
    """Load vector l_i = integral over the boundary of g * basis_i.

    ``g(points, normals)`` receives quadrature points of shape (faces, nqb, 3)
    together with matching outward unit normals, one block of faces at a
    time, and returns values of the same leading shape.
    """
    space = fem_space(mesh)
    return space.boundary_load_from_values(space.boundary_field(g))
