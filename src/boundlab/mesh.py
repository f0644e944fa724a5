"""Structured tetrahedral meshes of the unit cube (0,1)^3.

Each of the n^3 subcubes is split into the six path tetrahedra that share the
main diagonal (Kuhn split).  The split is translation invariant, so faces of
neighbouring subcubes match and the mesh is conforming at every level.  The
tets and boundary faces follow in closed form from the subcube grid; each
level is built once per process and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = [
    "Mesh",
    "IntegrityReport",
    "build_cube_mesh",
    "mesh_integrity",
    "boundary_vertex_set",
    "dump_mesh",
]

_VOLUME_TOL = 1e-12
_AREA_TOL = 1e-12


@dataclass(eq=False, frozen=True)
class Mesh:
    """Tetrahedral mesh of the unit cube.

    vertices          (nv, 3) coordinates
    tets              (nt, 4) vertex indices, positive signed volume
    boundary_faces    (nf, 3) vertex indices of boundary triangles
    boundary_normals  (nf, 3) outward unit normals
    boundary_parents  (nf,)   index of the unique tet owning each face
    n                 subdivision level (n cells per edge)
    """

    vertices: np.ndarray
    tets: np.ndarray
    boundary_faces: np.ndarray
    boundary_normals: np.ndarray
    boundary_parents: np.ndarray
    n: int

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    @property
    def num_boundary_faces(self):
        return self.boundary_faces.shape[0]


_KUHN_PATHS = tuple(permutations((0, 1, 2)))
# the even permutations of three axes are the cyclic shifts
_KUHN_SIGNS = tuple(1 if (p[1] - p[0]) % 3 == 1 else -1 for p in _KUHN_PATHS)

# vertices of the face opposite each local vertex, in increasing local order
_FACE_VERTICES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _path_corners(path, sign):
    """Unit-cube corners visited by one Kuhn path, orientation fixed by sign."""
    corners = np.zeros((4, 3), dtype=np.int64)
    for step, axis in enumerate(path, start=1):
        corners[step:, axis] += 1
    if sign < 0:
        corners[[2, 3]] = corners[[3, 2]]
    return corners


_KUHN_CORNERS = np.array(
    [_path_corners(p, s) for p, s in zip(_KUHN_PATHS, _KUHN_SIGNS)]
)  # (6, 4, 3)


def signed_volumes(vertices, tets):
    """Signed volume of every tet (positive for correct orientation)."""
    vtx = vertices[tets]
    edges = vtx[:, 1:, :] - vtx[:, :1, :]
    return np.linalg.det(edges) / 6.0


_MESHES = {}


def build_cube_mesh(n):
    """Mesh the unit cube with n subdivisions per edge (6*n^3 tets).

    Levels are built once and shared: the returned mesh and its arrays are
    read-only.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError("n must be an integer")
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    mesh = _MESHES.get(n)
    if mesh is None:
        mesh = _MESHES[n] = _kuhn_mesh(n)
    return mesh


def _kuhn_mesh(n):
    s = n + 1
    kk, jj, ii = np.indices((s, s, s)).reshape(3, -1)
    vertices = np.column_stack([ii, jj, kk]).astype(float) / n

    # subcubes in (k, j, i) order, each split into the six path tets
    kc, jc, ic = np.indices((n, n, n)).reshape(3, -1)
    cells = np.column_stack([ic, jc, kc])                                # (n^3, 3)
    grid = (cells[:, None, None, :] + _KUHN_CORNERS).reshape(-1, 4, 3)   # (nt, 4, 3)
    tets = grid @ np.array([1, s, s * s], dtype=np.int64)

    # a face is on the boundary iff its three vertices share a cube face plane
    planes = np.concatenate([grid == 0, grid == n], axis=2)              # (nt, 4, 6)
    on_boundary = planes[:, _FACE_VERTICES].all(axis=2).any(axis=2)     # (nt, 4)
    parents, omitted = np.nonzero(on_boundary)
    faces = np.sort(tets[parents[:, None], _FACE_VERTICES[omitted]], axis=1)

    a, b, c = (vertices[faces[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    tet_centroids = vertices[tets[parents]].mean(axis=1)
    inward = np.einsum("fd,fd->f", normals, (a + b + c) / 3.0 - tet_centroids) < 0
    normals[inward] = -normals[inward]

    for array in (vertices, tets, faces, normals, parents):
        array.flags.writeable = False
    return Mesh(vertices, tets, faces, normals, parents, n)


def face_areas(mesh):
    """Areas of all boundary triangles."""
    vtx = mesh.vertices[mesh.boundary_faces]
    cross = np.cross(vtx[:, 1] - vtx[:, 0], vtx[:, 2] - vtx[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


@dataclass(frozen=True)
class IntegrityReport:
    ok: bool
    detail: str = "pass"


def mesh_integrity(mesh):
    """Check every structural invariant; report the first violation."""
    vols = signed_volumes(mesh.vertices, mesh.tets)
    if np.any(vols <= 0):
        t = int(np.argmax(vols <= 0))
        return IntegrityReport(False, f"negative volume: tet {t} has signed volume {vols[t]:.3e}")
    if abs(vols.sum() - 1.0) > _VOLUME_TOL:
        return IntegrityReport(False, f"volume sum {float(vols.sum())!r} differs from 1")
    areas = face_areas(mesh)
    if abs(areas.sum() - 6.0) > _AREA_TOL:
        return IntegrityReport(False, f"boundary area sum {float(areas.sum())!r} differs from 6")

    # every tet face as a sorted row, in (tet, omitted vertex) order, then the
    # stored boundary faces; np.unique matches equal rows across both.  Rows
    # are reduced to integer keys in two steps, so no key exceeds (#rows) * nv;
    # np.unique(axis=0) sorts a structured dtype and is several times slower.
    nt, nv = mesh.num_tets, mesh.num_vertices
    stored = np.sort(mesh.boundary_faces, axis=1)
    rows = np.concatenate([np.sort(mesh.tets[:, _FACE_VERTICES], axis=2).reshape(-1, 3), stored])
    _, pair = np.unique(rows[:, 0] * nv + rows[:, 1], return_inverse=True)
    _, first, key = np.unique(pair * nv + rows[:, 2], return_index=True, return_inverse=True)
    owners = np.bincount(key[: 4 * nt], minlength=first.size)
    shared = np.flatnonzero(owners > 2)
    if shared.size:
        k = shared[np.argmin(first[shared])]
        return IntegrityReport(False, f"face {tuple(rows[first[k]].tolist())} shared by {owners[k]} tets")
    found = int(np.count_nonzero(owners == 1))
    if found != mesh.num_boundary_faces:
        return IntegrityReport(
            False,
            f"{mesh.num_boundary_faces} stored boundary faces, {found} found",
        )

    stored_key = key[4 * nt:]
    is_boundary = owners[stored_key] == 1
    parents = np.where(is_boundary, first[stored_key] // 4, 0)
    normals = mesh.boundary_normals
    centroids = mesh.vertices[mesh.boundary_faces].mean(axis=1)
    tet_centroids = mesh.vertices[mesh.tets[parents]].mean(axis=1)
    checks = (
        (~is_boundary, "stored face {} is not a boundary face"),
        (parents != mesh.boundary_parents, "face {} has wrong parent tet"),
        (np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-12, "face {} normal is not unit length"),
        (np.einsum("fd,fd->f", normals, centroids - tet_centroids) <= 0, "inward normal on face {}"),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        f = int(np.argmax(failed))
        detail = next(text for mask, text in checks if mask[f])
        return IntegrityReport(False, detail.format(tuple(stored[f].tolist())))
    return IntegrityReport(True)


def boundary_vertex_set(mesh):
    """Vertex indices on the boundary (union over boundary faces)."""
    return set(int(v) for v in mesh.boundary_faces.ravel())


def dump_mesh(mesh, path):
    """Write the plain-text dump: one line per vertex, tet and boundary face."""
    with open(path, "w") as out:
        for v in mesh.vertices:
            out.write("v %.17g %.17g %.17g\n" % tuple(v))
        for t in mesh.tets:
            out.write("t %d %d %d %d\n" % tuple(t))
        for f in range(mesh.num_boundary_faces):
            i, j, k = mesh.boundary_faces[f]
            nx, ny, nz = mesh.boundary_normals[f]
            out.write("b %d %d %d %.17g %.17g %.17g\n" % (i, j, k, nx, ny, nz))
