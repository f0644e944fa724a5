import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

from boundlab import assembly
from boundlab import mesh as mesh_module
from boundlab.assembly import FemFunction, assemble_boundary_load, fem_space
from boundlab.mesh import Mesh, boundary_vertices, build_cube_mesh, face_areas, signed_volumes
from conftest import subtract_face_product, to_scipy, whole_boundary


def constant_field(value):
    return lambda pts, normals: np.full(pts.shape[:-1], value)


def test_quadratic_form_of_constant(mesh2, mesh4):
    for mesh in (mesh2, mesh4):
        operator = fem_space(mesh).h1_operator()
        one = np.ones(mesh.num_vertices)
        assert abs(float(one @ (operator @ one)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_form_of_coordinate(n):
    # grad x1 has unit norm, int x1^2 = 1/3, both exact for P1 on any level
    mesh = build_cube_mesh(n)
    u = FemFunction(mesh, mesh.vertices[:, 0])
    q = float(u.values @ (fem_space(mesh).h1_operator() @ u.values))
    assert abs(q - 4.0 / 3.0) < 1e-12


def test_mass_entries_total_volume(mesh4):
    # the stiffness part's row sums are 0 (grad 1 = 0), so the H1 row sums are
    # the mass part's: the basis integrals, 1/4 of each adjacent tet's volume
    space = fem_space(mesh4)
    row_sums = space.h1_operator() @ np.ones(mesh4.num_vertices)
    basis_integrals = np.zeros(mesh4.num_vertices)
    np.add.at(basis_integrals, mesh4.tets[:], space.tet_volume / 4.0)
    assert np.abs(row_sums - basis_integrals).max() <= 1e-15
    assert np.all(row_sums > 0)
    assert abs(row_sums.sum() - 1.0) < 1e-12


def test_operator_exactly_symmetric(mesh4):
    op = to_scipy(fem_space(mesh4).h1_operator())
    assert (op != op.T).nnz == 0


def test_operator_positive_definite(mesh4, rng):
    operator = fem_space(mesh4).h1_operator()
    for _ in range(10):
        v = rng.standard_normal(operator.shape[0])
        assert float(v @ (operator @ v)) > 0


def test_degenerate_tet_aborts(mesh2):
    tets = mesh2.tets[:]
    tets[0] = tets[0][[0, 0, 1, 2]]  # repeated vertex, zero volume
    broken = Mesh(
        vertices=mesh2.vertices,
        tets=tets,
        boundary_faces=mesh2.boundary_faces,
        boundary_normals=mesh2.boundary_normals,
        boundary_parents=mesh2.boundary_parents,
        n=mesh2.n,
    )
    with pytest.raises(ValueError, match="degenerate"):
        fem_space(broken)


def test_boundary_load_partition_of_unity(mesh4):
    load = assemble_boundary_load(mesh4, constant_field(1.0))
    assert abs(load.sum() - 6.0) < 1e-12


def test_boundary_load_coordinate_weight(mesh4):
    # faces x1=0 and x1=1 contribute 0 and 1, the four lateral faces 1/2 each
    load = assemble_boundary_load(mesh4, lambda p, nrm: p[..., 0])
    assert abs(load.sum() - 3.0) < 1e-12


def test_boundary_load_zero_field(mesh4):
    load = assemble_boundary_load(mesh4, constant_field(0.0))
    assert np.all(load == 0.0)


def test_boundary_load_rejects_non_finite(mesh4):
    with pytest.raises(ValueError, match="finite"):
        assemble_boundary_load(mesh4, constant_field(np.inf))


def boundary_operator(mesh, w):
    space = fem_space(mesh)
    points, _, normals = whole_boundary(space)
    return space.boundary_operator_from_values(w(points, normals))


def boundary_form(mesh, entries, x):
    """x . (boundary operator x), the operator given by its faces' element
    matrices: the sum over faces of x_f . (E_f x_f)."""
    at_faces = x[mesh.boundary_faces]
    return float(np.einsum("fi,fij,fj->", at_faces, entries, at_faces))


def test_boundary_jacobian_totals(mesh4):
    op = boundary_operator(mesh4, constant_field(1.0))
    assert abs(to_scipy(op, mesh4).sum() - 6.0) < 1e-12
    one = np.ones(mesh4.num_vertices)
    assert abs(boundary_form(mesh4, op, one) - 6.0) < 1e-12
    zero = to_scipy(boundary_operator(mesh4, constant_field(0.0)), mesh4)
    assert zero.nnz == 0 or np.all(zero.data == 0.0)


def test_boundary_jacobian_symmetric(mesh4, rng):
    w = lambda pts, normals: 1.0 + pts[..., 0] * pts[..., 1]
    op = to_scipy(boundary_operator(mesh4, w), mesh4)
    assert (op != op.T).nnz == 0
    # interior vertices carry no boundary entries
    interior = np.setdiff1d(
        np.arange(mesh4.num_vertices), boundary_vertices(mesh4)
    )
    dense_rows = np.abs(op[interior]).sum()
    assert dense_rows == 0.0


def test_load_pairing_matches_quadrature(mesh4, rng):
    # u^T load(g) is the same quadrature as int_bnd g*u
    space = fem_space(mesh4)
    u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
    g = lambda pts, normals: np.cos(pts[..., 0]) + pts[..., 1] ** 2
    load = assemble_boundary_load(mesh4, g)
    points, _, normals = whole_boundary(space)
    direct = space.boundary_integral(g(points, normals) * space.boundary_values(u.values))
    assert abs(float(u.values @ load) - direct) < 1e-12


def test_jacobian_consistent_with_load(mesh4):
    # quadratic form of the w-weighted operator at u=1 equals the load total
    w = lambda pts, normals: 1.0 + pts[..., 2]
    op = boundary_operator(mesh4, w)
    load = assemble_boundary_load(mesh4, w)
    one = np.ones(mesh4.num_vertices)
    assert abs(boundary_form(mesh4, op, one) - load.sum()) < 1e-12


def test_fem_function_validation(mesh2):
    with pytest.raises(ValueError):
        FemFunction(mesh2, np.ones(5))
    values = np.ones(mesh2.num_vertices)
    values[3] = np.nan
    with pytest.raises(ValueError):
        FemFunction(mesh2, values)


def test_assembly_deterministic(mesh4):
    a = to_scipy(fem_space(mesh4).h1_operator())
    fresh = build_cube_mesh(4)
    b = to_scipy(fem_space(fresh).h1_operator())
    assert (a != b).nnz == 0


def _per_tet_reference(mesh):
    """Per-tet geometry from the vertex coordinates: basis gradients from
    inv of each tet's edge matrix, volumes from det, and the H1 operator
    (stiffness + mass) assembled tet by tet from them."""
    tets = mesh.tets[:]
    vtx = mesh.vertices[tets]
    edges = vtx[:, 1:, :] - vtx[:, :1, :]
    vols = np.linalg.det(edges) / 6.0
    grads = np.empty((mesh.num_tets, 4, 3))
    grads[:, 1:, :] = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    pattern = (np.ones((4, 4)) + np.eye(4)) / 20.0
    h1 = vols[:, None, None] * (np.einsum("tid,tjd->tij", grads, grads) + pattern)
    rows = np.broadcast_to(tets[:, :, None], h1.shape).ravel()
    cols = np.broadcast_to(tets[:, None, :], h1.shape).ravel()
    shape = (mesh.num_vertices, mesh.num_vertices)
    return grads, vols, sparse.coo_matrix((h1.ravel(), (rows, cols)), shape=shape).tocsr()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_closed_form_geometry_matches_per_tet_reference(n, rng):
    mesh = build_cube_mesh(n)
    space = fem_space(mesh)
    grads, vols, reference = _per_tet_reference(mesh)
    # every tet's gradients, read through its nodal values
    values = rng.standard_normal(mesh.num_vertices)
    expected = np.einsum("tid,ti->td", grads, values[mesh.tets[:]])
    assert np.abs(space.gradients(values) - expected).max() <= 1e-12 * np.abs(expected).max()
    shapes = space.grad_shapes[np.arange(mesh.num_tets) % 6]
    assert np.abs(shapes - grads).max() <= 1e-12 * np.abs(grads).max()
    assert np.abs(signed_volumes(mesh.vertices, mesh.tets[:]) - space.tet_volume).max() <= 1e-12 * space.tet_volume
    assert np.abs(vols - space.tet_volume).max() <= 1e-12 * space.tet_volume
    matrix = to_scipy(space.h1_operator()).tocsr()
    assert np.array_equal(matrix.indptr, reference.indptr)
    assert np.array_equal(matrix.indices, reference.indices)
    assert np.all(np.abs(matrix.data - reference.data) <= 1e-13 * np.abs(reference.data))


def test_reordered_tets_abort(mesh2):
    # swapping two tet rows keeps every volume positive, but tet t is then
    # no longer a translate of shape t % 6
    tets = mesh2.tets[:]
    tets[[0, 1]] = tets[[1, 0]]
    assert np.all(signed_volumes(mesh2.vertices, tets) > 0)
    reordered = Mesh(
        vertices=mesh2.vertices,
        tets=tets,
        boundary_faces=mesh2.boundary_faces,
        boundary_normals=mesh2.boundary_normals,
        boundary_parents=mesh2.boundary_parents,
        n=mesh2.n,
    )
    with pytest.raises(ValueError, match="build_cube_mesh"):
        fem_space(reordered)


def test_workspace_holds_no_per_tet_array():
    mesh = build_cube_mesh(8)
    space = fem_space(mesh)
    for name, value in vars(space).items():
        if isinstance(value, np.ndarray) and value.ndim:
            assert value.shape[0] != mesh.num_tets, name


def test_h1_operator_peak_memory_is_bounded(monkeypatch, traced_peak):
    # fresh level and workspace caches, so level 32 and its operator are
    # built here and dropped afterwards
    levels = {}
    monkeypatch.setattr(mesh_module, "_MESHES", levels)
    monkeypatch.setattr(assembly, "_MESHES", levels)
    monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
    mesh = build_cube_mesh(32)
    matrix, peak = traced_peak(lambda: fem_space(mesh).h1_operator())
    stored = matrix.data.nbytes + matrix.offsets.nbytes
    assert peak <= 6 * stored
    # the operator alone, on a fresh workspace: its diagonals are filled in
    # place, so the build peak is about what it stores (its product's padded
    # copy of x adds 1/15 of it)
    space = assembly._FemSpace(mesh)
    matrix, peak = traced_peak(space.h1_operator)
    assert peak <= 1.5 * stored


def test_h1_operator_is_the_kuhn_stencil(mesh4):
    matrix = fem_space(mesh4).h1_operator()
    assert isinstance(matrix, assembly._Stencil)
    assert matrix.offsets.size == 15
    assert np.all(np.diff(matrix.offsets) > 0)
    assert matrix.data.shape == (15, mesh4.num_vertices)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_h1_products_match_csr_bitwise(n, rng):
    # the diagonals are added in increasing offset order, the column order of
    # a CSR row, and the slots no cell couples hold 0.0
    matrix = fem_space(build_cube_mesh(n)).h1_operator()
    csr = to_scipy(matrix).tocsr()
    for _ in range(3):
        x = rng.standard_normal(matrix.shape[0])
        assert np.array_equal(matrix @ x, csr @ x)
    assert np.array_equal(matrix.data[matrix.offsets == 0][0], csr.diagonal())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 24])
def test_stencil_products_are_scipy_dia_products_bitwise(n, rng, monkeypatch):
    # n = 24 spans two row blocks, and blocks of 100 rows put block ends
    # inside every band; signed zeros and a zero vector keep their bits too
    matrix = fem_space(build_cube_mesh(n)).h1_operator()
    dia = to_scipy(matrix)
    assert matrix.nnz == dia.nnz
    nv = matrix.shape[0]
    signed_zeros = np.where(rng.random(nv) < 0.5, -0.0, 0.0)
    vectors = [rng.standard_normal(nv), np.exp(30.0 * rng.standard_normal(nv)) * rng.standard_normal(nv),
               np.zeros(nv), signed_zeros, np.where(rng.random(nv) < 0.5, signed_zeros, 1.0)]
    for block in (assembly._STENCIL_ROWS, 100):
        monkeypatch.setattr(assembly, "_STENCIL_ROWS", block)
        for x in vectors:
            assert (matrix @ x).tobytes() == (dia @ x).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_face_operator_matches_the_coo_csr_assembly(n, rng):
    # the operator as it was assembled before Newton applied it face by face:
    # face entries summed by a COO -> CSR conversion of the whole-boundary
    # entries
    space = fem_space(build_cube_mesh(n))
    points, weights, normals = whole_boundary(space)
    field = 1.0 + points[..., 0] * np.cos(points[..., 1]) - points[..., 2] ** 2
    op = space.boundary_operator_from_values(field)
    matrix = to_scipy(op, space.mesh)
    assert (matrix != matrix.T).nnz == 0
    faces = space.mesh.boundary_faces
    entries = np.einsum("fq,qij->fij", weights * field, space.bnd_basis_pairs)
    assert op.tobytes() == entries.tobytes()
    rows = np.broadcast_to(faces[:, :, None], entries.shape).ravel()
    cols = np.broadcast_to(faces[:, None, :], entries.shape).ravel()
    old = sparse.coo_matrix((entries.ravel(), (rows, cols)), shape=matrix.shape).tocsr()
    assert np.array_equal(matrix.indptr, old.indptr) and np.array_equal(matrix.indices, old.indices)
    assert np.abs(matrix.data - old.data).max() <= 1e-15 * np.abs(old.data).max()
    for x in rng.standard_normal((3, space.nv)):
        want = old @ x
        got = subtract_face_product(np.zeros(space.nv), op, faces, x)
        assert np.linalg.norm(got + want) <= 1e-15 * np.linalg.norm(want)
        # the faces' products subtracted in face order, as Newton subtracts
        # them, bitwise those of the unblocked entries
        assert got.tobytes() == subtract_face_product(np.zeros(space.nv), entries, faces, x).tobytes()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_boundary_load_matches_scatter_bitwise(n, rng):
    mesh = build_cube_mesh(n)
    space = fem_space(mesh)
    _, weights, _ = whole_boundary(space)
    point_values = rng.standard_normal(weights.shape)
    contrib = np.einsum("fq,qi->fi", weights * point_values, space.bnd_basis)
    expected = np.zeros(mesh.num_vertices)
    np.add.at(expected, mesh.boundary_faces, contrib)
    assert np.array_equal(space.boundary_load_from_values(point_values), expected)


# -- the boundary's points, weights and normals, formed per block of faces ------


def _blocks(space):
    """Points, weights and normals per block of faces, concatenated; a
    block's weights are what ``_weighted_blocks`` multiplies its values by."""
    ones = np.ones((space.mesh.num_boundary_faces, len(space.bnd_w)))
    return [np.concatenate(parts) for parts in zip(*(
        (space.boundary_points(faces), weights, space.boundary_normals(faces))
        for faces, weights in space._weighted_blocks(ones)))]


# 2 * area is 1/n^2 exactly where n is a power of two, so the row is bitwise
# twice each face's area times the reference weights there.  Elsewhere the
# areas from cross products carry their own rounding (up to 3.6e-15 relative
# at n = 24, where one exact area takes 17 values), which bounds the gap.
@pytest.mark.parametrize("n, bitwise", [(1, True), (2, True), (4, True), (8, True), (16, True),
                                        (3, False), (5, False), (6, False), (24, False)])
def test_boundary_weight_row_is_twice_each_face_area_times_the_reference_weights(n, bitwise):
    space = fem_space(build_cube_mesh(n))
    areas = face_areas(space.mesh)
    per_face = (2.0 * areas)[:, None] * space.bnd_ref_w
    row = np.broadcast_to(space.bnd_w, per_face.shape)
    if bitwise:
        assert row.tobytes() == per_face.tobytes()
    area_error = np.abs(2 * n**2 * areas - 1.0)[:, None]
    assert np.all(np.abs(per_face - row) <= (area_error + np.finfo(float).eps) * row)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
@pytest.mark.parametrize("block", [2, 7, 100, 1024])
def test_blocked_points_weights_and_normals_match_the_whole_boundary(n, block, monkeypatch):
    monkeypatch.setattr(assembly, "_FACE_BLOCK", block)
    space = fem_space(build_cube_mesh(n))
    points, weights, normals = _blocks(space)
    whole_points, whole_weights, whole_normals = whole_boundary(space)
    # a matmul and an einsum sum the three vertex terms in their own orders:
    # within one ulp of the unit cube's largest coordinate
    assert np.abs(points - whole_points).max() <= np.spacing(1.0)
    np.testing.assert_allclose(weights, np.outer(2.0 * face_areas(space.mesh), space.bnd_ref_w), rtol=4.4e-16, atol=0)
    assert weights.tobytes() == whole_weights.tobytes()
    assert np.array_equal(normals, whole_normals)


@pytest.mark.parametrize("n", [3, 16, 24])
def test_blocked_boundary_integral_matches_the_whole_sum(n, rng):
    space = fem_space(build_cube_mesh(n))
    _, weights, _ = whole_boundary(space)
    values = rng.random((3,) + weights.shape)
    for field in values:
        whole = float(np.sum(weights * field))
        assert abs(space.boundary_integral(field) - whole) <= 1e-15 * whole
        assert space.boundary_integral(lambda faces: field[faces]) == space.boundary_integral(field)
    # a function of a block may stack several fields: one integral each, bitwise
    stacked = space.boundary_integral(lambda faces: values[:, faces])
    assert stacked.tobytes() == np.array([space.boundary_integral(f) for f in values]).tobytes()


def test_workspace_keeps_no_per_quadrature_point_array(monkeypatch):
    # fresh caches, so level 32 and its workspace are built here
    levels = {}
    monkeypatch.setattr(mesh_module, "_MESHES", levels)
    monkeypatch.setattr(assembly, "_MESHES", levels)
    monkeypatch.setattr(assembly, "_SPACE_CACHE", weakref.WeakKeyDictionary())
    mesh = build_cube_mesh(32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = fem_space(mesh)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    nf = len(mesh.boundary_faces)
    # the whole-boundary points alone took nf * 16 * 3 doubles (4.7 MB here),
    # the weights nf * 16 (1.6 MB) and the face areas nf (98 KB)
    assert kept < 8 * nf
    for name, value in vars(space).items():
        if isinstance(value, np.ndarray):
            assert value.size < nf, name
