import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boundlab import mesh as mesh_module
from boundlab.mesh import (
    _FACE_VERTICES,
    IntegrityReport,
    Mesh,
    boundary_vertices,
    build_cube_mesh,
    dump_mesh,
    face_areas,
    mesh_integrity,
    signed_volumes,
)

MESH_FIELDS = ("vertices", "tets", "boundary_faces", "boundary_normals", "boundary_parents")

# SHA-256 of the raw bytes of each Mesh array and of the dump_mesh text, as
# recorded from a per-subcube loop with a face dictionary (levels 1-6) and from
# the whole-mesh corner-grid build that preceded the offset form (levels 8, 12
# and 16); any change to values, order, dtype or the sign of a zero normal
# component changes a digest.
MESH_SHA256 = {
    1: {
        "vertices": "e9f28c6bc6e2644a82da4d74358847b9634525c2eafd7f827046303751bac2c5",
        "tets": "e006d48bf5d153890699efba67e18df2db085a8ee2f0b3403cf4c06ecbd071d4",
        "boundary_faces": "791e8f9ad5721048f2fa365219ed72dcdfeea431d949a0fad4f47a9382fae61f",
        "boundary_normals": "dd265787843ced11d5e7916038fd265ca5c068b2376b0c6b14b97f2090f77c85",
        "boundary_parents": "934c5a9fbff8d24cd01de0cb75ceaf232b5f55baa47ddcbac2a4f698fade02e2",
        "dump": "9abf153315d59f2f6eb82f9a9b57e9751e7235a1361493542f6ac2e65fca9633",
    },
    2: {
        "vertices": "e772a0452dfb69acffe576932d6f586394cd1f64462f4f50a0a732c284b72dae",
        "tets": "dbf1f12d316bd4ccaf3bc789377e1a010b9c49034adb0d7e98831b844aa9d1e5",
        "boundary_faces": "b27dae8c63d0092bec586d40a33cc4326eb59997023e1a33bc628d763a97290f",
        "boundary_normals": "adacf4156ded90639e9b9d5e6263faf4dc3f53a1ed3996bec10a1a03fb249cc2",
        "boundary_parents": "68b313182cddb53076ff50c1fce5302e31d044f7735e5b10d0855255e38ab72e",
        "dump": "dca5269ebd5288ff6179174fe841fb5680bfd297eec36985499809bbfc678ce2",
    },
    3: {
        "vertices": "35427d9cd5c20f95ddf27e036ec08f30ef080d4126436a3117e3a766c327d379",
        "tets": "30e28f2d38a1bc6ec52387b15092e2f99ac64903aa599b0faea5847d17b6c3f9",
        "boundary_faces": "d43b00d4c65ab1fe7fc9469dd0af8e1c1914b5bc973685748892a32f78b8d0a8",
        "boundary_normals": "49f40bdd15433b928afa2a14aa4056453f5360bc31a82ffd7b051ba22e0b381f",
        "boundary_parents": "fa2d5b8fe93d490e42d6127927284cb2f71e2de92d7591d01676021250e0b15d",
        "dump": "09bd6c22b054ed7992f694e581a5aa011870782e432897afb1a35ead7c03b9b6",
    },
    4: {
        "vertices": "f651eb19fda370efeb645c98f82569ed1410cd52ff198131431bc096764d94a8",
        "tets": "248d57c4ff8f19e26e204243405c8da80f3abca52a1f1713dda49535a34675ca",
        "boundary_faces": "5fa179a2b1859fa1c13179c4b15179b671dfb688e4e3cb8b897667b901aaed61",
        "boundary_normals": "7c24df71ca1a53685965e0cbc9d1494d30d5b494dca7f72c50da73a298315c2f",
        "boundary_parents": "1f793dac5faee9553e0c036a0291a931e90176ddbc8be62042693a7ee38079a9",
        "dump": "76bf8d9cf1df101ac1afa32652528b6dfb8ebe2596914e9c87cf417d91190542",
    },
    5: {
        "vertices": "d23f292803768f593b46fd8d23ddf8557ac3d56c889163bea9005087fd8706e8",
        "tets": "fb531ee6a1856508c57421741ac671b71054d75d6bb9b853b2b2086671b8a628",
        "boundary_faces": "bff723dcd1a80c36aec41660a109456f66966385ba0267bd1c6b8b034b900618",
        "boundary_normals": "9275fdf5e76c4f8d1b62912ff5d2223ad62258975ffcd821b754885e150d0ed4",
        "boundary_parents": "09f461b88e681bd3e990343333a922a89bc94ed5902207e9511029a582ff1511",
        "dump": "63b07a2c572bd12b8e6d1fed61f6dc5725bd0e8585b28aea8c2e9e8645ea0791",
    },
    6: {
        "vertices": "54de821f14c5fb187547ddc8555bbd27bffb81ab0c066bfc769e583d51227c21",
        "tets": "ecf422c14c0065a88ba119461cbd9dbadc9324371cacb9ac253d174abffca503",
        "boundary_faces": "bff8f8851cdc690fafb8188ce025192e3e058dc8df96870b23ce0150919fca9d",
        "boundary_normals": "c3b5dd78ed1a89895088a143f221454ecfba22a8ebeb03586da5fe4b3be1532a",
        "boundary_parents": "8eaded450156af4050d1d1aac2e8e2d8762049b7a9b720a2c6e05ee76aa1d282",
        "dump": "74b98f228a7e1f2157b55c99992769e664e5285842bf36ac93e37412e556c20e",
    },
    8: {
        "vertices": "f14c8e29e84f9f032ca3407f111d03b57c85987b0c013d56a5111853ff81beba",
        "tets": "36aac58c1364f57091c1aa1d825e6884f1630bbd1c6958b4c2e94dc6d521d45a",
        "boundary_faces": "4d2746a2f9fcca3e0762a4a533074d2c2c5314581e5fa0a545d7ed0dcafaf993",
        "boundary_normals": "661ddd1e41de594218a83702a31ca92817fc212e805f91341965d9c26cc357a1",
        "boundary_parents": "aff553436fb037bee16916e98c897cc3cd91c2aad4167513218ca0eab34305ec",
        "dump": "1181be668793408233872cbdd9390bce2ce2984f497ce2cee8d10e42f4775f38",
    },
    12: {
        "vertices": "2b5af6705fa2f3582c3836e6418d5b12fd7f06a375cccfd8f8ed24adc2f774d5",
        "tets": "7202a547fefc59cf2b1fa4caebbeef8da3d921a109232f1a45f7ac22006eecac",
        "boundary_faces": "771357ebc5c847f87a5a1f1bf411bfc0e46207159905131dbf22486cf4ccbe3f",
        "boundary_normals": "f6d265a0fba68cff684482ce9fd6ce1b2f9af1f1ebe3b517d2a6f40377ba7bb9",
        "boundary_parents": "080ad58340371d2bada02a2a5e4a2f4152e74b23af06559953014b6fc8d902c7",
        "dump": "3684f00cebbbc311b3ca74ebf6c29332e09261a9bf0462b3950d7ce162c4bcd2",
    },
    16: {
        "vertices": "1c98bdd1a840b5f4a2a4c974fb7ab9a7839dc1965598152fdccc353ebbb2908b",
        "tets": "517b53a5ecb179cb56439e40f58a62f6358ae26dddfba0b2fe9280d1a98e3db2",
        "boundary_faces": "487d01e4fd087b69fcbe11063d5e986948945e0d23f498f834378c27cf1604f5",
        "boundary_normals": "375c4aa07669f5b691f4ca05323b1fa8516a500c146054af99f452961c2f2251",
        "boundary_parents": "b3e0019e775979f90fabb590258e1efa64aaac07378ea90c85b73c9902a4c7ee",
        "dump": "7e6b7c7dec3cec730a94e36f2ea42cb067f4322861137c529f563013942896c0",
    },
}


def test_level_one_counts():
    mesh = build_cube_mesh(1)
    assert mesh.num_vertices == 8
    assert mesh.num_tets == 6
    assert mesh.num_boundary_faces == 12


def test_level_two_counts(mesh2):
    assert mesh2.num_vertices == 27
    assert mesh2.num_tets == 48
    assert mesh2.num_boundary_faces == 48


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partition_of_cube(n):
    mesh = build_cube_mesh(n)
    vols = signed_volumes(mesh.vertices, mesh.tets[:])
    assert np.all(vols > 0)
    assert abs(vols.sum() - 1.0) < 1e-12
    assert abs(face_areas(mesh).sum() - 6.0) < 1e-12


def test_refinement_totals_agree():
    coarse = build_cube_mesh(2)
    fine = build_cube_mesh(4)
    assert abs(
        signed_volumes(coarse.vertices, coarse.tets[:]).sum()
        - signed_volumes(fine.vertices, fine.tets[:]).sum()
    ) < 1e-12
    assert abs(face_areas(coarse).sum() - face_areas(fine).sum()) < 1e-12


def test_rejects_bad_levels():
    with pytest.raises(ValueError):
        build_cube_mesh(0)
    with pytest.raises(ValueError):
        build_cube_mesh(-3)
    with pytest.raises(TypeError):
        build_cube_mesh(2.0)


def test_integrity_passes_on_built_meshes(mesh2):
    report = mesh_integrity(mesh2)
    assert report.ok
    assert report.detail == "pass"


def test_integrity_detects_negative_volume(mesh2):
    tets = mesh2.tets[:]
    tets[0, [0, 1]] = tets[0, [1, 0]]
    broken = Mesh(
        vertices=mesh2.vertices,
        tets=tets,
        boundary_faces=mesh2.boundary_faces,
        boundary_normals=mesh2.boundary_normals,
        boundary_parents=mesh2.boundary_parents,
        n=mesh2.n,
    )
    report = mesh_integrity(broken)
    assert not report.ok
    assert "negative volume" in report.detail


def test_integrity_detects_flipped_normal(mesh2):
    normals = mesh2.boundary_normals.copy()
    normals[0] = -normals[0]
    broken = Mesh(
        vertices=mesh2.vertices,
        tets=mesh2.tets,
        boundary_faces=mesh2.boundary_faces,
        boundary_normals=normals,
        boundary_parents=mesh2.boundary_parents,
        n=mesh2.n,
    )
    report = mesh_integrity(broken)
    assert not report.ok
    assert "inward normal" in report.detail


def test_boundary_vertices_level_one():
    assert set(boundary_vertices(build_cube_mesh(1)).tolist()) == set(range(8))


def test_boundary_vertices_level_two(mesh2):
    verts = set(boundary_vertices(mesh2).tolist())
    assert len(verts) == 26
    interior = set(range(27)) - verts
    (center,) = interior
    assert np.allclose(mesh2.vertices[center], [0.5, 0.5, 0.5])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 24])
def test_boundary_vertices_match_unique_of_the_faces(n):
    mesh = build_cube_mesh(n)
    got, want = boundary_vertices(mesh), np.unique(mesh.boundary_faces)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_boundary_vertices_of_a_hand_built_mesh_match_unique_of_the_faces():
    # faces out of order, repeated, and missing vertex 0 and the last vertex
    faces = np.array([[4, 1, 2], [2, 1, 4], [3, 1, 2]])
    mesh = Mesh(np.zeros((6, 3)), np.array([[0, 1, 2, 3]]), faces, np.zeros((3, 3)), np.zeros(3, dtype=int), 1)
    got, want = boundary_vertices(mesh), np.unique(faces)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_boundary_set_matches_coordinate_rule(mesh4):
    verts = set(boundary_vertices(mesh4).tolist())
    coords = mesh4.vertices
    on_boundary = np.any((coords == 0.0) | (coords == 1.0), axis=1)
    assert verts == set(np.nonzero(on_boundary)[0])


def test_boundary_faces_lie_on_cube_face_planes(mesh4):
    for tri in mesh4.boundary_faces:
        pts = mesh4.vertices[tri]
        flat = [(pts[:, axis] == value).all() for axis in range(3) for value in (0.0, 1.0)]
        assert any(flat)


def test_normals_are_signed_axis_vectors(mesh2):
    norms = mesh2.boundary_normals
    assert np.all(np.sum(norms != 0.0, axis=1) == 1)
    assert np.all(np.isin(norms[norms != 0.0], (-1.0, 1.0)))


def test_dump_format(tmp_path, mesh2):
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh2, path)
    lines = path.read_text().splitlines()
    tags = [line.split()[0] for line in lines]
    assert tags.count("v") == 27
    assert tags.count("t") == 48
    assert tags.count("b") == 48
    v_line = lines[0].split()
    assert len(v_line) == 4
    b_line = [ln for ln in lines if ln.startswith("b ")][0].split()
    assert len(b_line) == 7


@pytest.mark.parametrize("n", sorted(MESH_SHA256))
def test_mesh_is_bitwise_pinned(n, tmp_path):
    mesh = build_cube_mesh(n)
    digests = {f: hashlib.sha256(getattr(mesh, f)[:].tobytes()).hexdigest() for f in MESH_FIELDS}
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    digests["dump"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == MESH_SHA256[n]


def _formula_tets(n):
    """The stored (6 n^3, 4) tet array levels held before their tets became
    a row source: each cell's corner-0 vertex plus the shapes' offsets."""
    s = n + 1
    r = np.arange(n)
    base = (s * s * r[:, None, None] + s * r[:, None] + r).ravel()
    return (base[:, None, None] + mesh_module._KUHN_CORNERS @ np.array([1, s, s * s])).reshape(-1, 4)


@pytest.mark.parametrize("n", range(1, 17))
def test_tet_rows_equal_the_stored_formula(n, rng):
    tets, expected = build_cube_mesh(n).tets, _formula_tets(n)
    nt = len(expected)
    assert tets.shape == expected.shape and len(tets) == nt
    # blocks of every size the readers use: cell-aligned or not, inside one
    # line of cells or across lines and planes
    for step in (1, 4, 6, 7, 10, 6 * n - 1, 6 * n + 5, 4096):
        for start in range(0, nt, step):
            rows = tets[start:start + step]
            assert rows.dtype == np.int64
            assert rows.tobytes() == expected[start:start + step].tobytes()
    assert tets[:].tobytes() == expected.tobytes()
    assert np.array_equal(tets[nt:], expected[nt:]) and tets[nt:].shape == (0, 4)
    assert np.array_equal(tets[1::5], expected[1::5])
    index = rng.integers(0, nt, 100)
    assert tets[index].tobytes() == expected[index].tobytes()
    assert np.array_equal(tets[index[:0]], expected[index[:0]])
    assert np.array_equal(tets[nt - 1], expected[-1])
    for outside in (nt, -1):
        with pytest.raises(IndexError):
            tets[np.array([outside])]
    # a (row, column) pair would otherwise read as two row indices
    with pytest.raises(IndexError):
        tets[0, 1]
    with pytest.raises(TypeError):
        np.asarray(tets)


def _twin(mesh):
    """The same level with its tets as one explicit array."""
    return dataclasses.replace(mesh, tets=mesh.tets[:])


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("slab", [5, 4096])
def test_integrity_reads_a_level_as_its_explicit_twin(n, slab):
    mesh = build_cube_mesh(n)
    with mock.patch.object(mesh_module, "_SLAB", slab):
        report = mesh_integrity(mesh)
        assert report == mesh_integrity(_twin(mesh))
    assert report.ok


@pytest.mark.parametrize("n", range(1, 5))
def test_dump_writes_the_rows_of_the_stored_array(n, tmp_path):
    mesh = build_cube_mesh(n)
    with mock.patch.object(mesh_module, "_SLAB", 7):
        dump_mesh(mesh, tmp_path / "rows.txt")
    # the dump of the explicit array, one row after another
    with open(tmp_path / "array.txt", "w") as out:
        for v in mesh.vertices:
            out.write("v %.17g %.17g %.17g\n" % tuple(v))
        for t in _formula_tets(n):
            out.write("t %d %d %d %d\n" % tuple(t))
        for (i, j, k), (nx, ny, nz) in zip(mesh.boundary_faces, mesh.boundary_normals):
            out.write("b %d %d %d %.17g %.17g %.17g\n" % (i, j, k, nx, ny, nz))
    assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "array.txt").read_bytes()


def _kept_bytes(mesh):
    """Bytes of the arrays a mesh stores; a level's tets are no array."""
    return sum(getattr(mesh, field).nbytes for field in MESH_FIELDS
               if isinstance(getattr(mesh, field), np.ndarray))


def test_build_peak_memory_is_bounded(monkeypatch, traced_peak):
    # a fresh level cache, so level 32 is built here and dropped afterwards
    monkeypatch.setattr(mesh_module, "_MESHES", {})
    mesh, peak = traced_peak(lambda: build_cube_mesh(32))
    assert peak <= 3 * _kept_bytes(mesh)


def test_build_keeps_no_tet_array(monkeypatch):
    # a stored (nt, 4) int64 tet array made level 32 keep 7.85 MB
    monkeypatch.setattr(mesh_module, "_MESHES", {})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mesh = build_cube_mesh(32)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert not isinstance(mesh.tets, np.ndarray)
    assert kept < 2 * 2**20


def test_integrity_peak_memory_is_bounded(monkeypatch, traced_peak):
    monkeypatch.setattr(mesh_module, "_MESHES", {})
    mesh = build_cube_mesh(32)
    report, peak = traced_peak(lambda: mesh_integrity(mesh))
    assert report.ok
    # the face match sorts one int64 key per tet face in place; a whole-mesh
    # lexicographic permutation of the face rows measured 3.2x.  The bound is
    # the one set while levels stored their tets: 1.6x the arrays kept then,
    # with 32 bytes per tet for the tet array
    assert peak <= 1.6 * (_kept_bytes(mesh) + 32 * mesh.num_tets)


def test_integrity_report_carries_the_sums():
    # more tets than one signed-volume slab
    mesh = build_cube_mesh(18)
    report = mesh_integrity(mesh)
    assert report.volume == float(signed_volumes(mesh.vertices, mesh.tets[:]).sum())
    assert report.area == float(face_areas(mesh).sum())


def test_levels_are_built_once_and_read_only():
    mesh = build_cube_mesh(3)
    assert build_cube_mesh(3) is mesh
    for field in MESH_FIELDS:
        if field != "tets":
            with pytest.raises(ValueError):
                getattr(mesh, field)[0] = 0
    # the tets are a row source: it takes no assignment, and the rows it
    # returns are fresh arrays, so writing to them leaves the level unchanged
    with pytest.raises(TypeError):
        mesh.tets[0] = 0
    rows = mesh.tets[:]
    rows[0] = 0
    assert mesh.tets[0].tolist() == [0, 1, 5, 21]
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.tets = mesh.tets[:]


def _shared_face(m):
    tets = m.tets[:]
    tets[1] = tets[0]
    return dataclasses.replace(m, tets=tets)


def _extra_stored_face(m):
    # a zero-area face keeps the boundary area at 6
    return dataclasses.replace(
        m,
        boundary_faces=np.vstack([m.boundary_faces, [[0, 0, 0]]]),
        boundary_normals=np.vstack([m.boundary_normals, [[1.0, 0.0, 0.0]]]),
        boundary_parents=np.append(m.boundary_parents, 0),
    )


def _interior_face(m):
    # shifting a face of the plane x = 0 by one vertex id moves it onto x = 1/2
    faces = m.boundary_faces.copy()
    on_x0 = (m.vertices[faces][:, :, 0] == 0.0).all(axis=1)
    faces[np.argmax(on_x0)] += 1
    return dataclasses.replace(m, boundary_faces=faces)


def _wrong_parent(m):
    parents = m.boundary_parents.copy()
    parents[3] = parents[0]
    return dataclasses.replace(m, boundary_parents=parents)


def _long_normal(m):
    normals = m.boundary_normals.copy()
    normals[5] *= 2.0
    return dataclasses.replace(m, boundary_normals=normals)


def _stretched(m):
    return dataclasses.replace(m, vertices=m.vertices * 1.01)


def _duplicated_face(m):
    return dataclasses.replace(m, boundary_faces=np.vstack([m.boundary_faces, m.boundary_faces[:1]]))


def _set_tet_vertex(t, k, v):
    def corrupt(m):
        tets = m.tets[:]
        tets[t, k] = v
        return dataclasses.replace(m, tets=tets)

    return corrupt


def _set_face_vertex(f, k, v):
    def corrupt(m):
        faces = m.boundary_faces.copy()
        faces[f, k] = v
        return dataclasses.replace(m, boundary_faces=faces)

    return corrupt


def _set_parent(f, t):
    def corrupt(m):
        parents = m.boundary_parents.copy()
        parents[f] = t
        return dataclasses.replace(m, boundary_parents=parents)

    return corrupt


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        pytest.param(_shared_face, "face (1, 4, 13) shared by 3 tets", id="shared-by-3"),
        pytest.param(_extra_stored_face, "49 stored boundary faces, 48 found", id="face-count"),
        pytest.param(
            _interior_face, "stored face (1, 4, 13) is not a boundary face", id="interior-face"
        ),
        pytest.param(_wrong_parent, "face (0, 3, 12) has wrong parent tet", id="wrong-parent"),
        pytest.param(_long_normal, "face (0, 9, 12) normal is not unit length", id="unit-normal"),
        pytest.param(_stretched, "volume sum 1.030301 differs from 1", id="volume-sum"),
        pytest.param(_duplicated_face, "boundary area sum 6.125 differs from 6", id="area-sum"),
        pytest.param(
            _set_tet_vertex(0, 0, 27), "tet 0 references vertex 27 outside [0, 27)", id="vertex-past-end"
        ),
        # a negative id would alias id + nv in numpy indexing
        pytest.param(
            _set_tet_vertex(5, 2, -27), "tet 5 references vertex -27 outside [0, 27)", id="vertex-negative"
        ),
        pytest.param(
            _set_face_vertex(7, 1, 27),
            "boundary face 7 references vertex 27 outside [0, 27)",
            id="face-vertex-past-end",
        ),
        pytest.param(
            _set_parent(2, 48), "boundary face 2 has parent tet 48 outside [0, 48)", id="parent-past-end"
        ),
        pytest.param(
            _set_parent(9, -1), "boundary face 9 has parent tet -1 outside [0, 48)", id="parent-negative"
        ),
    ],
)
def test_integrity_reports_first_violation(mesh2, corrupt, detail):
    report = mesh_integrity(corrupt(mesh2))
    assert not report.ok
    assert report.detail == detail


def _sorted_face_rows(mesh, stored):
    """Stable lexicographic order of all face rows, and where each distinct row starts in it.

    Row 4 t + o is the face of tet t opposite local vertex o, rows 4 nt + f
    the stored boundary faces; every row lists its vertices in increasing
    order.  The three vertex columns are compared, never combined into one
    integer key, so nothing can overflow.
    """
    nt = mesh.num_tets
    cols = np.empty((3, 4 * nt + len(stored)), dtype=np.int64)
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


def _lexsort_integrity(mesh):
    """Reference mesh_integrity for meshes with ids in range: equal face rows
    are grouped by a stable lexicographic sort of their vertex columns."""
    nt = mesh.num_tets
    vols = signed_volumes(mesh.vertices, mesh.tets)
    volume = float(vols.sum())
    area = float(face_areas(mesh).sum())

    def fail(detail):
        return IntegrityReport(False, detail, volume, area)

    if np.any(vols <= 0):
        t = int(np.argmax(vols <= 0))
        return fail(f"negative volume: tet {t} has signed volume {vols[t]:.3e}")
    if abs(volume - 1.0) > 1e-12:
        return fail(f"volume sum {volume!r} differs from 1")
    if abs(area - 6.0) > 1e-12:
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


@st.composite
def _corrupted_meshes(draw):
    """A built level with one to three of: duplicated, swapped or reoriented
    tets, duplicated, shifted, rediagonalized or extra zero-area stored faces,
    wrong parents, flipped or scaled normals.  Every id stays in range."""
    m = build_cube_mesh(draw(st.integers(1, 4)))
    tets, faces = m.tets[:], m.boundary_faces.copy()
    normals, parents = m.boundary_normals.copy(), m.boundary_parents.copy()
    tet = st.integers(0, m.num_tets - 1)
    face = st.integers(0, m.num_boundary_faces - 1)
    s = m.n + 1
    kinds = (
        "tet-copy", "tet-swap", "vertex-swap", "face-copy", "face-shift", "face-diagonal",
        "face-extra", "parent", "flip", "scale",
    )
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "tet-copy":
            tets[draw(tet)] = tets[draw(tet)]
        elif kind == "tet-swap":
            i, j = draw(tet), draw(tet)
            tets[[i, j]] = tets[[j, i]]
        elif kind == "vertex-swap":
            i, k, l = draw(tet), draw(st.integers(0, 3)), draw(st.integers(0, 3))
            tets[i, [k, l]] = tets[i, [l, k]]
        elif kind == "face-copy":
            i, j = draw(face), draw(face)
            faces[j], normals[j], parents[j] = faces[i], normals[i], parents[i]
        elif kind == "face-shift":
            i, shift = draw(face), draw(st.sampled_from((-s * s, -s, -1, 1, s, s * s)))
            if 0 <= faces[i].min() + shift and faces[i].max() + shift < m.num_vertices:
                faces[i] += shift
        elif kind == "face-diagonal":
            # the triangle across the square's other diagonal: same plane and
            # area, and no face of the mesh
            i = draw(face)
            p = m.vertices[faces[i]]
            r = min(range(3), key=lambda k: np.dot(p[k - 1] - p[k], p[k - 2] - p[k]))
            right, h1, h2 = faces[i][r], faces[i][r - 1], faces[i][r - 2]
            faces[i] = [right, h1 + h2 - right, h1]
        elif kind == "face-extra":
            faces = np.vstack([faces, np.full(3, draw(st.integers(0, m.num_vertices - 1)))])
            normals = np.vstack([normals, [1.0, 0.0, 0.0]])
            parents = np.append(parents, draw(tet))
        elif kind == "parent":
            parents[draw(face)] = draw(tet)
        elif kind == "flip":
            normals[draw(face)] *= -1.0
        else:
            normals[draw(face)] *= draw(st.sampled_from((0.5, 1.0 + 1e-9, 2.0)))
    return Mesh(m.vertices, tets, faces, normals, parents, m.n)


@settings(max_examples=200, deadline=None)
@given(mesh=_corrupted_meshes(), span=st.sampled_from((1, 2, 5, None)))
def test_integrity_matches_the_lexsort_reference(mesh, span):
    # a small key limit splits the face match into one pass per span of least vertex ids
    nv = mesh.num_vertices
    limit = mesh_module._KEY_LIMIT if span is None else span * nv * nv
    with mock.patch.object(mesh_module, "_KEY_LIMIT", limit):
        assert mesh_integrity(mesh) == _lexsort_integrity(mesh)


def test_face_keys_pack_exactly_and_in_order(rng):
    # ids near the int32 limit: two least ids per key range
    nv = 2**31 - 1
    span = mesh_module._key_span(nv)
    assert span == 2
    a0 = 2**30
    least = rng.integers(a0, a0 + span, 500)
    rest = np.sort(rng.integers(nv - 1000, nv, (500, 2)), axis=1)
    triples = np.vstack([np.column_stack([least, rest]), [[a0, a0, a0], [a0 + 1, nv - 1, nv - 1]]])
    keys = mesh_module._pack(*triples.T, a0, nv)
    assert keys.dtype == np.int64
    exact = [((a - a0) * nv + b) * nv + c for a, b, c in triples.tolist()]
    assert keys.tolist() == exact
    assert max(exact) == span * nv * nv - 1 < 2**63
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(triples.T[::-1]))


@pytest.mark.parametrize("n, passes", [(1, 1), (32, 1), (127, 1), (128, 2)])
def test_key_ranges_split_past_level_127(n, passes):
    nv = (n + 1) ** 3
    span = mesh_module._key_span(nv)
    assert len(range(0, nv, span)) == passes
    assert span * nv * nv <= 2**63
