"""P1 finite-element assembly on cube meshes.

Provides the H1 operator (stiffness + mass, exact for piecewise linears),
boundary load vectors and boundary-weighted mass operators, all built with
the degree-7 quadrature rules from :mod:`boundlab.quadrature` (operators are
plain scipy CSR matrices), and a multigrid V-cycle per level that
preconditions solves with the H1 operator.
Assembly is sequential with a fixed element order, so repeated runs are
bit-identical.  scipy is imported by the functions that build operators, on
their first call, so importing this module loads numpy alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .mesh import _KUHN_CORNERS, _MESHES, build_cube_mesh, face_areas
from .quadrature import tetrahedron_rule, triangle_rule

__all__ = [
    "FemFunction",
    "interpolate",
    "fem_space",
    "assemble_h1_operator",
    "assemble_mass_operator",
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


def interpolate(mesh, fn):
    """FemFunction with nodal values fn(vertices); fn is vectorized over points."""
    return FemFunction(mesh, np.asarray(fn(mesh.vertices), dtype=float))


# integral of b_i b_j over a tet, per unit volume
_MASS_PATTERN = (np.ones((4, 4)) + np.eye(4)) / 20.0

# damping of the Jacobi sweeps that smooth each multigrid level
_JACOBI_OMEGA = 0.6


def _splu(matrix):
    """Sparse LU factorization (scipy's ``splu``) of a CSC matrix: its SuperLU object."""
    from scipy.sparse.linalg import splu

    return splu(matrix)


def _prolongation(n):
    """P1 prolongation from level n to level 2n, as a sparse matrix.

    The Kuhn split of level 2n refines that of level n, so fine vertex
    (I, J, K) lies on the coarse edge from floor((I, J, K) / 2) to
    ceil((I, J, K) / 2) and takes the mean of its two ends.
    """
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

        bref_pts, bref_w = triangle_rule()
        blam = np.column_stack([1.0 - bref_pts.sum(axis=1), bref_pts])  # (nqb, 3)
        self.bnd_basis = blam
        # products b_i*b_j are formed once so weighted sums stay bitwise symmetric
        self.bnd_basis_pairs = blam[:, :, None] * blam[:, None, :]
        fvtx = mesh.vertices[mesh.boundary_faces]
        self.face_areas = face_areas(mesh)
        self.bnd_pts = np.einsum("qi,fid->fqd", blam, fvtx)
        self.bnd_w = np.outer(2.0 * self.face_areas, bref_w)
        self.bnd_normals = np.broadcast_to(
            mesh.boundary_normals[:, None, :], self.bnd_pts.shape
        )
        self.boundary_vertex_index = np.unique(mesh.boundary_faces.ravel())

        self._h1 = None
        self._mass = None
        self._prolong = None
        self._vcycle = None
        # polished ground states of this level, keyed by nonlinear.solve_ground_state
        self.ground_states = {}

    # -- operators ---------------------------------------------------------

    def _shape_operator(self, shape_matrices):
        """Operator from the (6, 4, 4) element matrices of the shapes, repeated in every cell.

        Entry (k, i, j) couples row v = cell + corner i with column
        v + corner j - corner i, an offset that is the same in every cell.  So
        the operator is a sum of 15 offset diagonals, and each entry adds one
        constant to the n^3 block of its diagonal where corner i of a cell
        lies.  The CSR is filled one diagonal at a time, in increasing offset
        order so columns come out sorted; every coupling a cell creates is
        stored once, zero or not.
        """
        from scipy import sparse

        n, nv = self.mesh.n, self.nv
        s = n + 1
        corners = _KUHN_CORNERS @ np.array([1, s, s * s])                  # (6, 4)
        offsets, diagonal = np.unique(corners[:, None, :] - corners[:, :, None], return_inverse=True)
        diagonal = diagonal.reshape(6, 4, 4)

        def block(k, i):
            x, y, z = _KUHN_CORNERS[k, i]
            return slice(z, z + n), slice(y, y + n), slice(x, x + n)

        coupled = np.zeros((offsets.size, s, s, s), dtype=bool)
        for (k, i, _), d in np.ndenumerate(diagonal):
            coupled[d][block(k, i)] = True
        index = np.int32 if coupled.size < 2**31 else np.int64
        indptr = np.zeros(nv + 1, dtype=index)
        np.cumsum(coupled.sum(axis=0).ravel(), out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=index)
        data = np.empty(indptr[-1])
        slot = indptr[:-1].copy()                     # next free entry of each row
        rows = np.arange(nv, dtype=index)
        for d, offset in enumerate(offsets.astype(index)):
            values = np.zeros((s, s, s))
            for k, i, j in np.argwhere(diagonal == d):
                values[block(k, i)] += shape_matrices[k, i, j]
            here = coupled[d].ravel()
            at = slot[here]
            indices[at] = rows[here] + offset
            data[at] = values.ravel()[here]
            slot += here
        return sparse.csr_matrix((data, indices, indptr), shape=(nv, nv))

    def mass_operator(self):
        if self._mass is None:
            self._mass = self._shape_operator(np.broadcast_to(self.tet_volume * _MASS_PATTERN, (6, 4, 4)))
        return self._mass

    def h1_operator(self):
        if self._h1 is None:
            stiffness = np.einsum("kid,kjd->kij", self.grad_shapes, self.grad_shapes)
            self._h1 = self._shape_operator(self.tet_volume * (stiffness + _MASS_PATTERN))
        return self._h1

    def prolongation(self):
        """P1 prolongation onto this level from level n // 2, or None on a coarsest level.

        Levels halve while n is even and n > 2; the V-cycle and the nested
        ground-state solves walk this one hierarchy.  Built once per level.
        """
        n = self.mesh.n
        if self._prolong is None and n % 2 == 0 and n > 2:
            self._prolong = _prolongation(n // 2)
        return self._prolong

    def vcycle(self):
        """One symmetric multigrid V-cycle: an SPD approximate inverse of the H1 operator.

        Level n // 2's H1 operator is the Galerkin coarse operator of level n
        (P^T A_n P = A_{n/2} for nested P1 spaces), so the hierarchy is the
        cached levels themselves.  While n is even and n > 2, the cycle runs
        two damped Jacobi sweeps (omega = 0.6), the V-cycle of level n // 2 on
        the restricted residual, and two more sweeps.  A coarsest level is
        solved exactly by a sparse LU, factored once and cached on that level;
        so for an odd finest n (5, 25, ...) the preconditioner is the exact
        inverse.  Returned as a LinearOperator, the ``M`` of scipy's Krylov
        solvers.
        """
        if self._vcycle is None:
            from scipy.sparse.linalg import LinearOperator

            matrix = self.h1_operator()
            prolong = self.prolongation()
            if prolong is None:
                solve = _splu(matrix.tocsc()).solve
            else:
                coarse = fem_space(build_cube_mesh(self.mesh.n // 2)).vcycle()
                restrict = prolong.T.tocsr()
                step = _JACOBI_OMEGA / matrix.diagonal()

                def solve(r):
                    x = step * r
                    x += step * (r - matrix @ x)
                    x += prolong @ coarse.matvec(restrict @ (r - matrix @ x))
                    x += step * (r - matrix @ x)
                    x += step * (r - matrix @ x)
                    return x

            self._vcycle = LinearOperator(matrix.shape, matvec=solve, dtype=float)
        return self._vcycle

    # -- evaluation at quadrature points ------------------------------------

    # ``tets`` selects a slice of the tets; it must cover whole cells (6 tets
    # each, starting at a multiple of 6) for ``gradients``

    def volume_values(self, values, tets=slice(None)):
        return values[self.mesh.tets[tets]] @ self.vol_basis.T      # (nt, nq)

    def boundary_values(self, values):
        return values[self.mesh.boundary_faces] @ self.bnd_basis.T  # (nf, nqb)

    def gradients(self, values, tets=slice(None)):
        nodal = values[self.mesh.tets[tets]].reshape(-1, 6, 4)          # (cells, 6, 4)
        return np.einsum("kid,cki->ckd", self.grad_shapes, nodal).reshape(-1, 3)

    def volume_integral(self, point_values):
        return float(np.sum(self.tet_w * point_values))

    def boundary_integral(self, point_values):
        return float(np.sum(self.bnd_w * point_values))

    # -- boundary assembly ---------------------------------------------------

    def boundary_load_from_values(self, point_values):
        contrib = np.einsum("fq,qi->fi", self.bnd_w * point_values, self.bnd_basis)
        load = np.zeros(self.nv)
        np.add.at(load, self.mesh.boundary_faces, contrib)
        return load

    def boundary_operator_from_values(self, point_values):
        from scipy import sparse

        entries = np.einsum(
            "fq,qij->fij", self.bnd_w * point_values, self.bnd_basis_pairs
        )
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


def assemble_h1_operator(mesh):
    """Stiffness + mass operator of the H1 inner product, exact for P1."""
    return fem_space(mesh).h1_operator()


def assemble_mass_operator(mesh):
    """Volume mass operator alone (exact P1 formula)."""
    return fem_space(mesh).mass_operator()


def _boundary_field_values(space, g):
    values = np.asarray(g(space.bnd_pts, space.bnd_normals), dtype=float)
    if values.shape != space.bnd_w.shape:
        values = np.broadcast_to(values, space.bnd_w.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary field produced non-finite values at quadrature points")
    return values


def assemble_boundary_load(mesh, g):
    """Load vector l_i = integral over the boundary of g * basis_i.

    ``g(points, normals)`` receives quadrature points of shape (nf, nqb, 3)
    together with matching outward unit normals, and returns values of the
    same leading shape.
    """
    space = fem_space(mesh)
    return space.boundary_load_from_values(_boundary_field_values(space, g))
