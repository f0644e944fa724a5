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
    "boundary_vertices",
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

# _FACE_PLANES[p, 4 k + o] is set when the face of shape k opposite local
# vertex o lies in plane p of its subcube: x_p = 0 for p < 3, x_(p-3) = 1 after
_FACE_PLANES = np.concatenate(
    [(_KUHN_CORNERS[:, _FACE_VERTICES] == side).all(axis=2) for side in (0, 1)], axis=2
).reshape(24, 6).T


def signed_volumes(vertices, tets):
    """Signed volume of every tet (positive for correct orientation): the
    scalar triple product e0 . (e1 x e2) / 6 of its edges from vertex 0."""
    vtx = vertices[tets]
    e0, e1, e2 = (vtx[:, k] - vtx[:, 0] for k in (1, 2, 3))
    return np.einsum("ij,ij->i", e0, np.cross(e1, e2)) / 6.0


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
    # vertex i + s j + s^2 k sits at (i, j, k) / n
    coords = np.arange(s) / n
    vertices = np.empty((s, s, s, 3))
    vertices[..., 0] = coords
    vertices[..., 1] = coords[:, None]
    vertices[..., 2] = coords[:, None, None]
    vertices = vertices.reshape(-1, 3)

    # subcubes in (k, j, i) order, each split into the six path tets: a tet is
    # its subcube's corner-0 vertex plus its shape's flat corner offsets
    r = np.arange(n)
    base = (s * s * r[:, None, None] + s * r[:, None] + r).ravel()      # (n^3,)
    tets = (base[:, None, None] + _KUHN_CORNERS @ np.array([1, s, s * s])).reshape(-1, 4)

    # boundary faces lie in the subcubes touching the cube's surface; a face
    # is on the boundary iff it lies in a subcube plane that is a cube face
    edge = np.zeros(n, dtype=bool)
    edge[[0, -1]] = True
    cells = np.flatnonzero(edge[:, None, None] | edge[:, None] | edge)
    k, j, i = np.unravel_index(cells, (n, n, n))
    cell_coords = np.column_stack([i, j, k])
    sides = np.concatenate([cell_coords == 0, cell_coords == n - 1], axis=1)   # (cells, 6)
    cell, face = np.nonzero(sides @ _FACE_PLANES)
    parents = 6 * cells[cell] + face // 4
    omitted = face % 4
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
    """Outcome of mesh_integrity, with the total tet volume and boundary area it summed."""

    ok: bool
    detail: str
    volume: float
    area: float


# tets per slab of the signed-volume pass, which bounds its temporaries
_VOLUME_SLAB = 1 << 15


def _sorted_face_rows(mesh, stored):
    """Stable lexicographic order of all face rows, and where each distinct row starts in it.

    Row 4 t + o is the face of tet t opposite local vertex o, rows 4 nt + f
    the stored boundary faces; every row lists its vertices in increasing
    order.  The three vertex columns are compared, never combined into one
    integer key, so nothing can overflow.
    """
    nt = mesh.num_tets
    index = np.int32 if mesh.num_vertices < 2**31 else np.int64
    cols = np.empty((3, 4 * nt + len(stored)), dtype=index)
    tet_cols = cols[:, : 4 * nt].reshape(3, nt, 4)
    for o, face in enumerate(_FACE_VERTICES):
        tet_cols[:, :, o] = np.sort(mesh.tets[:, face], axis=1).T
    cols[:, 4 * nt:] = stored.T
    order = np.lexsort(cols[::-1])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for col in cols:
        ranked = col[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(starts)


def mesh_integrity(mesh):
    """Check every structural invariant; report the first violation."""
    nt = mesh.num_tets
    vols = np.empty(nt)
    for start in range(0, nt, _VOLUME_SLAB):
        vols[start:start + _VOLUME_SLAB] = signed_volumes(mesh.vertices, mesh.tets[start:start + _VOLUME_SLAB])
    volume = float(vols.sum())
    area = float(face_areas(mesh).sum())

    def fail(detail):
        return IntegrityReport(False, detail, volume, area)

    if np.any(vols <= 0):
        t = int(np.argmax(vols <= 0))
        return fail(f"negative volume: tet {t} has signed volume {vols[t]:.3e}")
    if abs(volume - 1.0) > _VOLUME_TOL:
        return fail(f"volume sum {volume!r} differs from 1")
    if abs(area - 6.0) > _AREA_TOL:
        return fail(f"boundary area sum {area!r} differs from 6")

    # group equal rows among the tet faces and the stored faces: a group's
    # owners are its tet rows, its first row the earliest (the sort is stable)
    stored = np.sort(mesh.boundary_faces, axis=1)
    order, groups = _sorted_face_rows(mesh, stored)
    first = order[groups]
    at = np.flatnonzero(order >= 4 * nt)
    stored_key = np.empty(len(stored), dtype=np.intp)
    stored_key[order[at] - 4 * nt] = np.searchsorted(groups, at, side="right") - 1
    owners = np.diff(groups, append=order.size)
    np.subtract.at(owners, stored_key, 1)
    shared = np.flatnonzero(owners > 2)
    if shared.size:
        k = shared[np.argmin(first[shared])]
        face = np.sort(mesh.tets[first[k] // 4, _FACE_VERTICES[first[k] % 4]])
        return fail(f"face {tuple(face.tolist())} shared by {owners[k]} tets")
    found = int(np.count_nonzero(owners == 1))
    if found != mesh.num_boundary_faces:
        return fail(f"{mesh.num_boundary_faces} stored boundary faces, {found} found")

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
        return fail(detail.format(tuple(stored[f].tolist())))
    return IntegrityReport(True, "pass", volume, area)


def boundary_vertices(mesh):
    """Sorted indices of the boundary vertices (union over boundary faces)."""
    return np.unique(mesh.boundary_faces)


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
