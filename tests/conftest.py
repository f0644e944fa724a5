import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from boundlab import build_cube_mesh, make_power_nonlinearity, solve_ground_state
from boundlab.assembly import _FaceOperator, _Stencil


def to_scipy(op):
    """A package operator as the scipy matrix holding the same entries, for
    tests with scipy as the oracle: the H1 stencil as a DIA matrix (its
    diagonals in the same order) and a boundary operator as a CSR matrix
    (its padding slots, 0.0 in a row's own column, add nothing)."""
    if isinstance(op, _Stencil):
        nv = op.shape[0]
        data = np.zeros_like(op.data)
        for d, k in enumerate(op.offsets.tolist()):
            data[d, max(0, k):nv + min(0, k)] = op.data[d, max(0, -k):nv - max(0, k)]
        return sparse.dia_matrix((data, op.offsets), shape=op.shape)
    assert isinstance(op, _FaceOperator), type(op)
    rows = np.broadcast_to(op.vertices, op.columns.shape)
    return sparse.csr_matrix((op.values.ravel(), (rows.ravel(), op.columns.ravel())), shape=op.shape)


def whole_boundary(space):
    """The boundary's quadrature points (nf, nqb, 3), weights (nf, nqb) and
    outward unit normals (nf, nqb, 3) of a workspace, each formed for every
    face at once, as the workspace stored them before it formed them per
    block of faces."""
    mesh = space.mesh
    points = np.einsum("qi,fid->fqd", space.bnd_basis, mesh.vertices[mesh.boundary_faces])
    weights = np.outer(2.0 * space.face_areas, space.bnd_ref_w)
    normals = np.broadcast_to(mesh.boundary_normals[:, None, :], points.shape)
    return points, weights, normals


@pytest.fixture(scope="session")
def mesh2():
    return build_cube_mesh(2)


@pytest.fixture(scope="session")
def mesh4():
    return build_cube_mesh(4)


@pytest.fixture(scope="session")
def mesh8():
    return build_cube_mesh(8)


@pytest.fixture(scope="session")
def ground_state_p2_n8(mesh8):
    nl = make_power_nonlinearity(2.0)
    return nl, solve_ground_state(mesh8, nl, 1e-8, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def traced_peak():
    """run(fn) -> (fn(), peak bytes fn allocated while running, by tracemalloc)."""

    def run(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return run
