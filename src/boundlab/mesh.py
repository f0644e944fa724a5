"""Structured tetrahedral meshes of the unit cube (0,1)^3.

Each of the n^3 subcubes is split into the six path tetrahedra that share the
main diagonal (Kuhn split).  The split is translation invariant, so faces of
neighbouring subcubes match and the mesh is conforming at every level.  The
tets and boundary faces follow in closed form from the subcube grid; each
level is built once per process and shared read-only.  A level stores no
tet array: its tets are rows computed on demand from their index.
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
_CUBE_AREA = 6.0    # |bnd|, the unit cube's boundary area


@dataclass(eq=False, frozen=True)
class Mesh:
    """Tetrahedral mesh of the unit cube.

    vertices          (nv, 3) coordinates
    tets              (nt, 4) vertex indices, positive signed volume: an
                      ndarray, or for a build_cube_mesh level a _KuhnTets
                      row source read in slices and index arrays
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


class _KuhnTets:
    """The (6 n^3, 4) tets of level n, computed on demand and never stored.

    Subcubes run in (k, j, i) order, six tets each: tet t is
    base(t // 6) + offsets[t % 6], where base(c) = c + (c // n) % n +
    (2n + 1)(c // n^2) is the id of cell c's corner-0 vertex and offsets are
    the six shapes' flat corner offsets.  Indexing takes a 1-D slice, an
    integer or an integer array of ids in [0, nt) and returns fresh int64
    rows; nothing converts the whole source to one array.
    """

    def __init__(self, n):
        s = n + 1
        self.n = n
        self.shape = (6 * n**3, 4)
        self.offsets = _KUHN_CORNERS @ np.array([1, s, s * s])          # (6, 4)
        # rows of the n cells of one line (j, k fixed), less the line's base s j + s^2 k
        self._line = (np.arange(n)[:, None, None] + self.offsets).reshape(-1, 4)

    def __len__(self):
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a level's tets are read in slices or index arrays, not as one array")

    def _bases(self, cells):
        n = self.n
        return cells + (cells // n) % n + (2 * n + 1) * (cells // (n * n))

    def __getitem__(self, index):
        n, nt = self.n, self.shape[0]
        if isinstance(index, slice):
            start, stop, step = index.indices(nt)
            if step == 1:
                stop = max(start, stop)
                width = 6 * n
                line = start // width
                if stop <= width * (line + 1):
                    # inside one line: a slice of its rows plus its base
                    first, base = width * line, (n + 1) * (line % n + (n + 1) * (line // n))
                    return self._line[start - first:stop - first] + base
                first, last = start // 6, -(-stop // 6)
                rows = self._bases(np.arange(first, last))[:, None, None] + self.offsets
                return rows.reshape(-1, 4)[start - 6 * first:stop - 6 * first]
            index = np.arange(start, stop, step)
        elif isinstance(index, tuple):
            raise IndexError("tets take one index, a slice or integers; index the rows for columns")
        t = np.asarray(index)
        if t.dtype.kind not in "iu":
            raise IndexError(f"tets take slices and integer indices, not {t.dtype}")
        if t.size and (t.min() < 0 or t.max() >= nt):
            raise IndexError(f"tet index outside [0, {nt})")
        cells, shapes = np.divmod(t, 6)
        return self._bases(cells)[..., None] + self.offsets[shapes]


_MESHES = {}


def build_cube_mesh(n):
    """Mesh the unit cube with n subdivisions per edge (6*n^3 tets).

    Levels are built once and shared: the returned mesh and its arrays are
    read-only, and its tets are a _KuhnTets row source.
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
    tets = _KuhnTets(n)

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
    parent_tets = tets[parents]
    faces = np.sort(np.take_along_axis(parent_tets, _FACE_VERTICES[omitted], axis=1), axis=1)
    # the parent's vertex off a boundary face lies inside the cube
    opposite = vertices[parent_tets[np.arange(len(parents)), omitted]]

    a, b, c = (vertices[faces[:, k]] for k in range(3))
    b -= a
    c -= a
    normals = np.cross(b, c)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    inward = np.einsum("fd,fd->f", normals, a - opposite) < 0
    normals[inward] = -normals[inward]

    for array in (vertices, faces, normals, parents):
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


# tets per slab of the signed-volume and face-key passes, which bounds their temporaries
_SLAB = 1 << 12

# packed face keys stay below this bound, so they fit in int64
_KEY_LIMIT = 2**63


def _key_span(nv):
    """Width of the ranges [a0, a0 + span) of least vertex id, one face-key pass each.

    A face (a, b, c) with a in such a range packs to ((a - a0) nv + b) nv + c,
    which stays below span nv^2 <= _KEY_LIMIT; one range covers every level
    with nv^3 <= 2^63 (n <= 127).
    """
    return _KEY_LIMIT // (nv * nv)


def _pack(a, b, c, a0, nv):
    """Key ((a - a0) nv + b) nv + c of faces a <= b <= c with ids in [0, nv):
    exact and order-preserving for a in [a0, a0 + _key_span(nv))."""
    return ((a.astype(np.int64, copy=False) - a0) * nv + b) * nv + c


def _face_keys(tets, a0, a1, nv):
    """Packed keys of the faces of tets, [t, o] for the face opposite local
    vertex o, and whether each face's least vertex lies in [a0, a1)."""
    x, y, z = np.moveaxis(tets[:, _FACE_VERTICES], 2, 0)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    mid, c = np.minimum(hi, z), np.maximum(hi, z)
    a, b = np.minimum(lo, mid), np.maximum(lo, mid)
    return _pack(a, b, c, a0, nv), (a >= a0) & (a < a1)


def _write_keys(keys, size, tets, a0, a1, nv):
    """Write the keys of tets' faces whose least vertex id lies in [a0, a1)
    to keys[size:]; returns the new size."""
    key, inside = _face_keys(tets, a0, a1, nv)
    block = key[inside]
    keys[size:size + block.size] = block
    return size + block.size


def _out_of_range(name, ids, bound, what, first=0):
    """Detail of the first id in the rows ``ids`` (numbered from ``first``)
    outside [0, bound), or None."""
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        row, col = divmod(int(np.argmax(((ids < 0) | (ids >= bound)).ravel())), ids.shape[1])
        return f"{name} {first + row} {what} {ids[row, col]} outside [0, {bound})"
    return None


def mesh_integrity(mesh):
    """Check every structural invariant; report the first violation.

    Vertex and parent ids are checked first: outside their ranges the volume
    and area cannot be summed, and the report carries nan for both.  The tets
    are read in slabs, each once for its ids, signed volumes and the face
    keys of the first range of least vertex ids.
    """
    nt, nv = mesh.num_tets, mesh.num_vertices
    span = _key_span(nv)
    vols = np.empty(nt)
    keys = np.empty(4 * nt, dtype=np.int64)
    size = 0
    for start in range(0, nt, _SLAB):
        tets = mesh.tets[start:start + _SLAB]
        bad_id = _out_of_range("tet", tets, nv, "references vertex", start)
        if bad_id is not None:
            return IntegrityReport(False, bad_id, float("nan"), float("nan"))
        vols[start:start + _SLAB] = signed_volumes(mesh.vertices, tets)
        size = _write_keys(keys, size, tets, 0, span, nv)
    bad_id = (_out_of_range("boundary face", mesh.boundary_faces, nv, "references vertex")
              or _out_of_range("boundary face", mesh.boundary_parents[:, None], nt, "has parent tet"))
    if bad_id is not None:
        return IntegrityReport(False, bad_id, float("nan"), float("nan"))
    volume = float(vols.sum())
    area = float(face_areas(mesh).sum())

    def fail(detail):
        return IntegrityReport(False, detail, volume, area)

    if np.any(vols <= 0):
        t = int(np.argmax(vols <= 0))
        return fail(f"negative volume: tet {t} has signed volume {vols[t]:.3e}")
    if abs(volume - 1.0) > _VOLUME_TOL:
        return fail(f"volume sum {volume!r} differs from 1")
    if abs(area - _CUBE_AREA) > _AREA_TOL:
        return fail(f"boundary area sum {area!r} differs from 6")

    stored = np.sort(mesh.boundary_faces, axis=1)
    shared, found, is_boundary = _match_faces(mesh, stored, keys, size)
    del keys, vols  # 40 bytes per tet, freed before the parent checks
    if shared is not None:
        row, owners = shared
        face = np.sort(mesh.tets[row // 4][_FACE_VERTICES[row % 4]])
        return fail(f"face {tuple(face.tolist())} shared by {owners} tets")
    if found != mesh.num_boundary_faces:
        return fail(f"{mesh.num_boundary_faces} stored boundary faces, {found} found")

    # a boundary face has one owner, so its parent is right iff that tet has it
    parent_tets = mesh.tets[mesh.boundary_parents]
    parent_faces = np.sort(parent_tets[:, _FACE_VERTICES], axis=2)
    has_face = (parent_faces == stored[:, None, :]).all(axis=2).any(axis=1)
    normals = mesh.boundary_normals
    centroids = mesh.vertices[mesh.boundary_faces].mean(axis=1)
    tet_centroids = mesh.vertices[parent_tets].mean(axis=1)
    checks = (
        (~is_boundary, "stored face {} is not a boundary face"),
        (~has_face, "face {} has wrong parent tet"),
        (np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-12, "face {} normal is not unit length"),
        (np.einsum("fd,fd->f", normals, centroids - tet_centroids) <= 0, "inward normal on face {}"),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        f = int(np.argmax(failed))
        detail = next(text for mask, text in checks if mask[f])
        return fail(detail.format(tuple(stored[f].tolist())))
    return IntegrityReport(True, "pass", volume, area)


def _match_faces(mesh, stored, keys, size):
    """Owners of every face, from the packed keys of the tet face rows.

    A face's owners are the tet rows 4 t + o holding its key.  Per range of
    least vertex id, the keys are written into the buffer ``keys`` (4 nt
    long) and sorted in place, so equal keys are neighbours; ``keys[:size]``
    arrives holding the first range's.  Returns (earliest tet row, owners) of
    a face with more than two owners or None, the number of one-owner faces,
    and which stored faces (rows in increasing order) are one-owner faces.
    """
    nt, nv = mesh.num_tets, mesh.num_vertices
    is_boundary = np.zeros(len(stored), dtype=bool)
    found = 0
    shared = None
    span = _key_span(nv)
    for a0 in range(0, nv, span):
        a1 = a0 + span
        if a0:
            size = 0
            for start in range(0, nt, _SLAB):
                size = _write_keys(keys, size, mesh.tets[start:start + _SLAB], a0, a1, nv)
        run = keys[:size]
        run.sort()
        triples = run[2:][run[2:] == run[:-2]]
        differs = run[1:] != run[:-1]
        single = np.ones(size, dtype=bool)      # a one-owner key differs from both neighbours
        single[1:] &= differs
        single[:-1] &= differs
        found += int(np.count_nonzero(single))
        here = np.flatnonzero((stored[:, 0] >= a0) & (stored[:, 0] < a1))
        if size and here.size:
            stored_keys = _pack(*stored[here].T, a0, nv)
            at = np.minimum(np.searchsorted(run, stored_keys), size - 1)
            is_boundary[here] = (run[at] == stored_keys) & single[at]
        if triples.size:
            row, k = _earliest_row(mesh.tets, triples, a0, a1, nv)
            if shared is None or row < shared[0]:
                shared = (row, int(np.searchsorted(run, k, "right") - np.searchsorted(run, k)))
    return shared, found, is_boundary


def _earliest_row(tets, triples, a0, a1, nv):
    """Earliest tet row 4 t + o whose face key, in range [a0, a1), is in
    triples, and that key."""
    for start in range(0, len(tets), _SLAB):
        key, inside = _face_keys(tets[start:start + _SLAB], a0, a1, nv)
        hit = (inside & np.isin(key, triples)).ravel()
        if hit.any():
            i = int(np.argmax(hit))
            return 4 * start + i, key.ravel()[i]


def boundary_vertices(mesh):
    """Sorted indices of the boundary vertices: those a boundary face marks."""
    marked = np.zeros(mesh.num_vertices, dtype=bool)
    marked[mesh.boundary_faces] = True
    return np.flatnonzero(marked)


def dump_mesh(mesh, path):
    """Write the plain-text dump: one line per vertex, tet and boundary face."""
    with open(path, "w") as out:
        for v in mesh.vertices:
            out.write("v %.17g %.17g %.17g\n" % tuple(v))
        for start in range(0, mesh.num_tets, _SLAB):
            for t in mesh.tets[start:start + _SLAB]:
                out.write("t %d %d %d %d\n" % tuple(t))
        for f in range(mesh.num_boundary_faces):
            i, j, k = mesh.boundary_faces[f]
            nx, ny, nz = mesh.boundary_normals[f]
            out.write("b %d %d %d %.17g %.17g %.17g\n" % (i, j, k, nx, ny, nz))
