import weakref

import numpy as np
import pytest
from scipy import sparse

from boundlab import assembly
from boundlab import mesh as mesh_module
from boundlab.assembly import (
    FemFunction,
    assemble_boundary_load,
    assemble_h1_operator,
    assemble_mass_operator,
    fem_space,
    interpolate,
)
from boundlab.mesh import Mesh, build_cube_mesh, signed_volumes


def constant_field(value):
    return lambda pts, normals: np.full(pts.shape[:-1], value)


def test_quadratic_form_of_constant(mesh2, mesh4):
    for mesh in (mesh2, mesh4):
        operator = assemble_h1_operator(mesh)
        one = np.ones(mesh.num_vertices)
        assert abs(float(one @ (operator @ one)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_form_of_coordinate(n):
    # grad x1 has unit norm, int x1^2 = 1/3, both exact for P1 on any level
    mesh = build_cube_mesh(n)
    u = interpolate(mesh, lambda p: p[..., 0])
    q = float(u.values @ (assemble_h1_operator(mesh) @ u.values))
    assert abs(q - 4.0 / 3.0) < 1e-12


def test_mass_entries_total_volume(mesh4):
    mass = assemble_mass_operator(mesh4)
    assert abs(mass.sum() - 1.0) < 1e-12
    # row sums are the basis integrals, all positive
    assert np.all(np.asarray(mass.sum(axis=1)).ravel() > 0)


def test_operator_exactly_symmetric(mesh4):
    for op in (assemble_h1_operator(mesh4), assemble_mass_operator(mesh4)):
        assert (op != op.T).nnz == 0


def test_operator_positive_definite(mesh4, rng):
    operator = assemble_h1_operator(mesh4)
    for _ in range(10):
        v = rng.standard_normal(operator.shape[0])
        assert float(v @ (operator @ v)) > 0


def test_degenerate_tet_aborts(mesh2):
    tets = mesh2.tets.copy()
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
        assemble_h1_operator(broken)


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
    return space.boundary_operator_from_values(w(space.bnd_pts, space.bnd_normals))


def test_boundary_jacobian_totals(mesh4):
    op = boundary_operator(mesh4, constant_field(1.0))
    assert abs(op.sum() - 6.0) < 1e-12
    one = np.ones(mesh4.num_vertices)
    assert abs(float(one @ (op @ one)) - 6.0) < 1e-12
    zero = boundary_operator(mesh4, constant_field(0.0))
    assert zero.nnz == 0 or np.all(zero.data == 0.0)


def test_boundary_jacobian_symmetric(mesh4, rng):
    w = lambda pts, normals: 1.0 + pts[..., 0] * pts[..., 1]
    op = boundary_operator(mesh4, w)
    assert (op != op.T).nnz == 0
    # interior vertices carry no boundary entries
    interior = np.setdiff1d(
        np.arange(mesh4.num_vertices), fem_space(mesh4).boundary_vertex_index
    )
    dense_rows = np.abs(op[interior]).sum()
    assert dense_rows == 0.0


def test_load_pairing_matches_quadrature(mesh4, rng):
    # u^T load(g) is the same quadrature as int_bnd g*u
    space = fem_space(mesh4)
    u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
    g = lambda pts, normals: np.cos(pts[..., 0]) + pts[..., 1] ** 2
    load = assemble_boundary_load(mesh4, g)
    direct = space.boundary_integral(
        g(space.bnd_pts, space.bnd_normals) * space.boundary_values(u.values)
    )
    assert abs(float(u.values @ load) - direct) < 1e-12


def test_jacobian_consistent_with_load(mesh4):
    # quadratic form of the w-weighted operator at u=1 equals the load total
    w = lambda pts, normals: 1.0 + pts[..., 2]
    op = boundary_operator(mesh4, w)
    load = assemble_boundary_load(mesh4, w)
    one = np.ones(mesh4.num_vertices)
    assert abs(float(one @ (op @ one)) - load.sum()) < 1e-12


def test_fem_function_validation(mesh2):
    with pytest.raises(ValueError):
        FemFunction(mesh2, np.ones(5))
    values = np.ones(mesh2.num_vertices)
    values[3] = np.nan
    with pytest.raises(ValueError):
        FemFunction(mesh2, values)


def test_assembly_deterministic(mesh4):
    a = assemble_h1_operator(mesh4)
    fresh = build_cube_mesh(4)
    b = assemble_h1_operator(fresh)
    assert (a != b).nnz == 0


def _per_tet_reference(mesh):
    """Per-tet geometry from the vertex coordinates: basis gradients from
    inv of each tet's edge matrix, volumes from det, and the H1 and mass
    operators assembled tet by tet from them."""
    vtx = mesh.vertices[mesh.tets]
    edges = vtx[:, 1:, :] - vtx[:, :1, :]
    vols = np.linalg.det(edges) / 6.0
    grads = np.empty((mesh.num_tets, 4, 3))
    grads[:, 1:, :] = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    pattern = (np.ones((4, 4)) + np.eye(4)) / 20.0
    mass = vols[:, None, None] * pattern
    h1 = vols[:, None, None] * np.einsum("tid,tjd->tij", grads, grads) + mass
    rows = np.broadcast_to(mesh.tets[:, :, None], mass.shape).ravel()
    cols = np.broadcast_to(mesh.tets[:, None, :], mass.shape).ravel()
    shape = (mesh.num_vertices, mesh.num_vertices)
    operators = [sparse.coo_matrix((m.ravel(), (rows, cols)), shape=shape).tocsr() for m in (h1, mass)]
    return grads, vols, operators


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_closed_form_geometry_matches_per_tet_reference(n, rng):
    mesh = build_cube_mesh(n)
    space = fem_space(mesh)
    grads, vols, (h1, mass) = _per_tet_reference(mesh)
    # every tet's gradients, read through its nodal values
    values = rng.standard_normal(mesh.num_vertices)
    expected = np.einsum("tid,ti->td", grads, values[mesh.tets])
    assert np.abs(space.gradients(values) - expected).max() <= 1e-12 * np.abs(expected).max()
    shapes = space.grad_shapes[np.arange(mesh.num_tets) % 6]
    assert np.abs(shapes - grads).max() <= 1e-12 * np.abs(grads).max()
    assert np.abs(signed_volumes(mesh.vertices, mesh.tets) - space.tet_volume).max() <= 1e-12 * space.tet_volume
    assert np.abs(vols - space.tet_volume).max() <= 1e-12 * space.tet_volume
    for matrix, reference in ((assemble_h1_operator(mesh), h1), (assemble_mass_operator(mesh), mass)):
        assert np.array_equal(matrix.indptr, reference.indptr)
        assert np.array_equal(matrix.indices, reference.indices)
        assert np.all(np.abs(matrix.data - reference.data) <= 1e-13 * np.abs(reference.data))


def test_reordered_tets_abort(mesh2):
    # swapping two tet rows keeps every volume positive, but tet t is then
    # no longer a translate of shape t % 6
    tets = mesh2.tets.copy()
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
        assemble_h1_operator(reordered)


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
    assert peak <= 6 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
