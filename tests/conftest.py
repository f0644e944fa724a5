import tracemalloc

import numpy as np
import pytest

from boundlab import build_cube_mesh, make_power_nonlinearity, solve_ground_state


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
