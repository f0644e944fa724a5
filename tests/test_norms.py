import math
import warnings
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boundlab import norms
from boundlab.assembly import FemFunction, fem_space
from boundlab.exponents import derive_context
from boundlab.mesh import boundary_vertices, build_cube_mesh, face_areas
from boundlab.nonlinear import make_power_nonlinearity
from boundlab.norms import (
    energy_J,
    gn_ratio,
    norm_h1,
    norm_linf,
    norm_lp,
    norm_lp_boundary_field,
    norm_table,
    norm_w1m,
)
from boundlab.verify_chain import Corpus, gn_ratio_suite
from conftest import whole_boundary


@pytest.fixture(scope="module")
def ctx():
    return derive_context(3, 2)


def const(mesh, value):
    return FemFunction(mesh, np.full(mesh.num_vertices, float(value)))


def coordinate(mesh):
    return FemFunction(mesh, mesh.vertices[:, 0])


def test_h1_norm_values(mesh4):
    assert abs(norm_h1(const(mesh4, 1.0)) - 1.0) < 1e-12
    assert abs(norm_h1(coordinate(mesh4)) - math.sqrt(4.0 / 3.0)) < 1e-12
    assert norm_h1(const(mesh4, 0.0)) == 0.0


def test_lp_norm_constants(mesh4):
    one = const(mesh4, 1.0)
    assert abs(norm_lp(one, 6, "volume") - 1.0) < 1e-12
    assert abs(norm_lp(one, 4, "boundary") - 6.0**0.25) < 1e-12


def test_lp_norm_coordinate(mesh4):
    x1 = coordinate(mesh4)
    # int x1^6 = 1/7 over the cube; boundary faces give 0 + 1 + 4*(1/5)
    assert abs(norm_lp(x1, 6, "volume") - (1.0 / 7.0) ** (1.0 / 6.0)) < 1e-12
    assert abs(norm_lp(x1, 4, "boundary") - (9.0 / 5.0) ** 0.25) < 1e-12


def test_lp_norm_rejects_small_exponent(mesh4):
    with pytest.raises(ValueError):
        norm_lp(const(mesh4, 1.0), 0.5)
    with pytest.raises(ValueError):
        norm_lp(const(mesh4, 1.0), 2, "surface")


def test_linf_nodal_max(mesh4):
    x1 = coordinate(mesh4)
    assert norm_linf(x1) == 1.0
    assert norm_linf(x1, "boundary") == 1.0
    assert norm_linf(const(mesh4, -2.0)) == 2.0


def test_linf_interior_spike_shows_strict_gap(mesh4):
    # a P1 spike at the center: the boundary max stays far below the volume max
    values = np.zeros(mesh4.num_vertices)
    center = np.argmin(np.linalg.norm(mesh4.vertices - 0.5, axis=1))
    values[center] = 5.0
    boundary = np.any((mesh4.vertices == 0.0) | (mesh4.vertices == 1.0), axis=1)
    values[boundary] = np.clip(values[boundary], -1.0, 1.0)
    u = FemFunction(mesh4, values)
    assert norm_linf(u) == 5.0
    assert norm_linf(u, "boundary") <= 1.0


def test_w1m_values(mesh4):
    one = const(mesh4, 1.0)
    for m in (1.0, 2.5, 4.5):
        assert abs(norm_w1m(one, m) - 1.0) < 1e-12
    x1 = coordinate(mesh4)
    # fractional power under quadrature: inside the 1e-6 consistency budget
    assert abs(norm_w1m(x1, 4.5) - (13.0 / 11.0) ** (2.0 / 9.0)) < 1e-9
    assert norm_w1m(const(mesh4, 0.0), 3.0) == 0.0
    with pytest.raises(ValueError):
        norm_w1m(one, 0.9)


def test_energy_values(mesh4):
    nl = make_power_nonlinearity(2.0)
    # J(1) = 1/2 - |bnd| * F(1) = 1/2 - 6/3
    assert abs(energy_J(const(mesh4, 1.0), nl) - (-1.5)) < 1e-12
    assert energy_J(const(mesh4, 0.0), nl) == 0.0


def test_energy_identity_for_solutions(ground_state_p2_n8):
    nl, outcome = ground_state_p2_n8
    u = outcome.solution
    h1_sq = norm_h1(u) ** 2
    assert abs(energy_J(u, nl) - (0.5 - 1.0 / 3.0) * h1_sq) <= 1e-6 * h1_sq


def test_gn_ratio_constant_is_one(mesh4, ctx):
    assert abs(gn_ratio(const(mesh4, 1.0), ctx) - 1.0) < 1e-12


def test_gn_ratio_coordinate(mesh4, ctx):
    # closed form: (13/11)^(-2/15) * 7^(1/15) from the exact norms of x1
    expected = (13.0 / 11.0) ** (-2.0 / 15.0) * 7.0 ** (1.0 / 15.0)
    assert abs(gn_ratio(coordinate(mesh4), ctx) - expected) < 1e-8


def test_gn_ratio_scale_invariant(mesh4, ctx, rng):
    u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
    base = gn_ratio(u, ctx)
    for alpha in (0.013, 7.5, 311.0):
        scaled = FemFunction(mesh4, alpha * u.values)
        assert abs(gn_ratio(scaled, ctx) - base) < 1e-10 * base


def test_gn_ratio_rejects_zero(mesh4, ctx):
    with pytest.raises(ValueError):
        gn_ratio(const(mesh4, 0.0), ctx)


def test_all_norms_absolutely_homogeneous(mesh4, ctx, rng):
    u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
    alpha = -3.7
    scaled = FemFunction(mesh4, alpha * u.values)
    for norm in (
        norm_h1,
        lambda v: norm_lp(v, 4, "boundary"),
        lambda v: norm_lp(v, 6, "volume"),
        norm_linf,
        lambda v: norm_w1m(v, 4.5),
    ):
        assert abs(norm(scaled) - abs(alpha) * norm(u)) < 1e-12 * (1 + norm(scaled))


def test_triangle_inequality(mesh4, rng):
    u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
    v = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
    w = FemFunction(mesh4, u.values + v.values)
    for norm in (norm_h1, lambda f: norm_lp(f, 3, "volume"), lambda f: norm_lp(f, 4, "boundary")):
        assert norm(w) <= norm(u) + norm(v) + 1e-12


def test_boundary_max_never_exceeds_volume_max(mesh4, rng):
    for _ in range(20):
        u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
        assert norm_linf(u, "boundary") <= norm_linf(u)


def test_boundary_holder_pairing(mesh4, rng):
    # int |g u| <= ||g||_{4/3, bnd} * ||u||_{4, bnd} within quadrature tolerance
    from boundlab.assembly import fem_space

    space = fem_space(mesh4)
    for _ in range(10):
        g = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
        u = FemFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
        gq = space.boundary_values(g.values)
        uq = space.boundary_values(u.values)
        left = space.boundary_integral(np.abs(gq * uq))
        right = norm_lp(g, 4.0 / 3.0, "boundary") * norm_lp(u, 4.0, "boundary")
        assert left <= right + 1e-10 * (1 + right)


def test_boundary_field_norm(mesh4):
    assert abs(norm_lp_boundary_field(mesh4, lambda p, nrm: np.ones(p.shape[:-1]), 3) - 6.0 ** (1 / 3)) < 1e-12


def _table_oracle(mesh, values, volume, boundary, w1m, holder_p):
    """The table's entries by the per-function formulas: np.power at every
    quadrature point and np.sum of the weighted values."""
    space = fem_space(mesh)
    _, bnd_w, _ = whole_boundary(space)
    columns = [values[:, s] for s in range(values.shape[1])]
    vol = [np.abs(space.volume_values(c)) for c in columns]
    bnd = [np.abs(space.boundary_values(c)) for c in columns]
    grad = [np.linalg.norm(space.gradients(c), axis=1) for c in columns]
    oracle = {
        "linf": [np.max(np.abs(c)) for c in columns],
        "linf_boundary": [np.max(np.abs(c[boundary_vertices(mesh)])) for c in columns],
        "holder": [np.sum(bnd_w * np.power(b, holder_p) * b_next)
                   for b, b_next in zip(bnd, bnd[1:] + bnd[:1])],
    }
    for r in volume:
        oracle["volume", r] = [np.sum(space.tet_w * np.power(v, r)) ** (1 / r) for v in vol]
    for r in boundary:
        oracle["boundary", r] = [np.sum(bnd_w * np.power(b, r)) ** (1 / r) for b in bnd]
    for m in w1m:
        oracle["w1m", m] = [
            (np.sum(space.tet_w * np.power(v, m)) + np.sum(space.tet_volume * np.power(g, m))) ** (1 / m)
            for v, g in zip(vol, grad)
        ]
    return oracle


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    count=st.integers(1, 19),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 1000, norms._BLOCK_VALUES]),
)
def test_norm_table_matches_per_function_formulas(n, count, seed, block):
    # blocks of 1 cell, of a few cells (1000 values do not divide into 64 or
    # 16 point cells, nor into count columns evenly) and the module's size
    mesh = build_cube_mesh(n)
    rng = np.random.default_rng(seed)
    amplitudes = 10.0 ** rng.uniform(-3.0, 2.0, count)
    values = amplitudes * rng.standard_normal((mesh.num_vertices, count))
    zero = rng.integers(count)
    values[:, zero] = 0.0
    exponents = dict(volume=(6.0, 2.5), boundary=(6.0, 4.0, 8.0 / 3.0), w1m=(4.5,), holder_p=2.0)
    with mock.patch.object(norms, "_BLOCK_VALUES", block), warnings.catch_warnings():
        warnings.simplefilter("error")  # log(0) of the zero column stays silent
        table = norm_table(mesh, values, **exponents)
    oracle = _table_oracle(mesh, values, **exponents)
    assert set(table) == set(oracle)
    for key, expected in oracle.items():
        np.testing.assert_allclose(table[key], expected, rtol=1e-12, atol=0, err_msg=str(key))
        assert table[key][zero] == 0.0
    corpus = Corpus(mesh, values, ["random"] * count)
    with pytest.raises(ValueError):
        gn_ratio_suite([corpus], derive_context(3, 2))


@settings(max_examples=60, deadline=None)
@given(
    e=st.sampled_from([2, 4, 6]),
    region=st.sampled_from(["volume", "boundary"]),
    n=st.sampled_from([1, 2, 3]),
    count=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 1000, norms._BLOCK_VALUES]),
)
def test_even_powers_in_closed_form_match_quadrature(e, region, n, count, seed, block):
    # the closed form and the rule it replaces (64 points per tet, 16 per
    # face) integrate the same polynomial exactly, so they agree to rounding
    mesh = build_cube_mesh(n)
    space = fem_space(mesh)
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-3.0, 2.0, count) * rng.standard_normal((mesh.num_vertices, count))
    zero = rng.integers(count)
    values[:, zero] = 0.0
    with mock.patch.object(norms, "_BLOCK_VALUES", block):
        got = norm_table(mesh, values, **{region: (e,)})[region, float(e)]
    points, weights = (
        (space.volume_values, space.tet_w) if region == "volume"
        else (space.boundary_values, whole_boundary(space)[1])
    )
    expected = [np.sum(weights * points(values[:, s]) ** e) ** (1.0 / e) for s in range(count)]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
    assert got[zero] == 0.0


def _row_even_power(columns, cells, measure, e):
    """Integrals of u^e (e even) of the columns (S, nv) over the simplices
    ``cells`` of volume ``measure``, gathered row by row: on a d-simplex T,
    int_T u^e = |T| e! d! / (e + d)! h_e(u_0, ..., u_d), with h_e formed by
    the recurrence h_k += u_j h_{k-1} over the vertices j."""
    rows = cells[:]
    d = rows.shape[1] - 1
    nodal = columns[:, rows.T]  # (S, d + 1, cells)
    h = np.zeros((e,) + nodal[:, 0].shape)
    for j in range(d + 1):
        h[0] += nodal[:, j]
        for k in range(1, e):
            h[k] += nodal[:, j] * h[k - 1]
    measure = np.broadcast_to(measure, len(rows))
    return math.factorial(e) * math.factorial(d) / math.factorial(e + d) * (h[e - 1] @ measure)


def _row_gradient_power(space, columns, m):
    """Integral of |grad u|^m of the columns (S, nv): every tet's gradient
    from its Kuhn shape's ``grad_shapes`` and its gathered vertex values."""
    tets = space.mesh.tets[:]
    g = space.grad_shapes[np.arange(len(tets)) % 6].transpose(0, 2, 1) @ columns[:, tets].transpose(1, 2, 0)
    return space.tet_volume * (np.einsum("tds,tds->ts", g, g) ** (0.5 * m)).sum(axis=0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    count=st.integers(1, 19),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 1000, norms._BLOCK_VALUES]),
    trailing=st.booleans(),
)
def test_lattice_passes_match_the_row_oracles(n, count, seed, block, trailing):
    # the closed forms and the gradient read on the Kuhn lattice against the
    # rows gathered tet by tet and face by face, with a zero column, a column
    # of one sign, and copies after the distinct columns or among them
    mesh = build_cube_mesh(n)
    space = fem_space(mesh)
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-3.0, 2.0, count) * rng.standard_normal((mesh.num_vertices, count))
    size = int(rng.integers(0, count // 2 + 1))
    targets = list(range(count - size, count)) if trailing else rng.choice(count, size, replace=False).tolist()
    bases = [s for s in range(count) if s not in targets]
    zero = bases[rng.integers(len(bases))]
    values[:, zero] = 0.0
    one_sign = [s for s in bases if s != zero][:1]
    values[:, one_sign] = -values[:, one_sign] ** 2
    copies = {}
    for s in targets:
        base, scale = bases[rng.integers(len(bases))], 10.0 ** rng.uniform(-1.0, 1.0)
        values[:, s] = scale * values[:, base]
        copies[s] = (base, scale)
    with mock.patch.object(norms, "_BLOCK_VALUES", block), warnings.catch_warnings():
        warnings.simplefilter("error")  # log 0 of a zero column's paths stays silent
        table = norm_table(mesh, values, volume=(2.0, 4.0, 6.0), boundary=(4.0, 6.0), gradient=(4.5, 10.5),
                           copies=copies)
    columns = values.T
    oracle = {("volume", float(e)): _row_even_power(columns, mesh.tets, space.tet_volume, e) for e in (2, 4, 6)}
    oracle.update({("boundary", float(e)): _row_even_power(columns, mesh.boundary_faces, face_areas(mesh), e)
                   for e in (4, 6)})
    oracle.update({("gradient", m): _row_gradient_power(space, columns, m) for m in (4.5, 10.5)})
    for (region, r), integral in oracle.items():
        np.testing.assert_allclose(table[region, r], integral ** (1.0 / r), rtol=1e-13, atol=0, err_msg=region)
        assert table[region, r][zero] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boundary_faces_are_kuhn_triangles_of_the_face_lattices(n):
    # each boundary face is the corner (0, 0), one axis step and the corner
    # (1, 1) of a square of one of the six cube-face lattices, of area 1/(2 n^2)
    mesh = build_cube_mesh(n)
    ids = norms._lattice(np.arange(mesh.num_vertices)[:, None], n)
    triangles = set()
    for pair in norms._cube_faces(ids):
        for face in pair[..., 0]:
            for di, dj in ((1, 0), (0, 1)):
                corners = np.stack([face[:-1, :-1], face[di:di + n, dj:dj + n], face[1:, 1:]], axis=-1)
                triangles.update(map(tuple, np.sort(corners.reshape(-1, 3), axis=1).tolist()))
    assert len(triangles) == 12 * n**2
    assert triangles == set(map(tuple, mesh.boundary_faces.tolist()))
    np.testing.assert_allclose(face_areas(mesh), 1.0 / (2 * n**2), rtol=1e-14, atol=0)


def test_fractional_entries_stay_log_exp_quadrature(mesh2, rng):
    # one block (a _BLOCK_VALUES above the mesh's quadrature values), so the
    # reference is the quadrature pass written out for the whole mesh at once,
    # and the W^{1,m} norm's gradient part the lattice formula in one box
    space = fem_space(mesh2)
    values = rng.standard_normal((mesh2.num_vertices, 3))
    values[:, 1] = 0.0
    with mock.patch.object(norms, "_BLOCK_VALUES", 2**40):
        table = norm_table(mesh2, values, volume=(4.5, 6.0), boundary=(8.0 / 3.0, 4.0), w1m=(4.5,),
                           holder_p=2.0)
    columns = values.T
    with np.errstate(divide="ignore"):
        nodal = columns[:, mesh2.tets[:]]
        logs = np.log(np.abs(nodal.reshape(-1, 4) @ space.vol_basis.T)).reshape(3, -1)
        vol = np.exp(4.5 * logs) @ np.tile(space.tet_w, mesh2.num_tets)
        with mock.patch.object(norms, "_BLOCK_VALUES", 2**40):
            grad = _lattice_gradient(values, 2, 4.5)
        faces = columns[:, mesh2.boundary_faces]
        blogs = np.log(np.abs(faces.reshape(-1, 3) @ space.bnd_basis.T)).reshape(3, -1)
        bnd_w = whole_boundary(space)[1].ravel()
        bnd = np.exp(8.0 / 3.0 * blogs) @ bnd_w
        holder = np.exp(2.0 * blogs + np.roll(blogs, -1, axis=0)) @ bnd_w
    assert table["volume", 4.5].tobytes() == (vol ** (1.0 / 4.5)).tobytes()
    assert table["w1m", 4.5].tobytes() == ((vol + grad) ** (1.0 / 4.5)).tobytes()
    assert table["boundary", 8.0 / 3.0].tobytes() == (bnd ** (1.0 / (8.0 / 3.0))).tobytes()
    assert table["holder"].tobytes() == holder.tobytes()


def _lattice_boxes(lattices, d, arrays):
    """The boxes of a lattice pass over d-dimensional vertex lattices that
    holds ``arrays`` buffers, in order, as corner functions: the layout of
    ``norms._cell_blocks``, with its batching of small lattices."""
    if len(lattices) > 1 and arrays * sum(lattice.size for lattice in lattices) <= norms._BLOCK_VALUES:
        lattices = [np.concatenate(lattices)]
    lead, n, count = lattices[0].shape[:-d - 1], lattices[0].shape[-2] - 1, lattices[0].shape[-1]
    lines = max(1, norms._BLOCK_VALUES // (arrays * n * math.prod(lead) * count))
    for lattice in lattices:
        for box in norms._cell_boxes(n, d, lines):
            yield lambda axes, lattice=lattice, box=box: lattice[
                (..., *[slice(a + (i in axes), b + (i in axes)) for i, (a, b) in enumerate(box)], slice(None))]


def _box_sums(boxes, terms, count):
    """Per-column sums of the per-path ``terms(corner)`` arrays of every box,
    each added in turn into slots of the first box's shape, as the buffered
    passes' sums are."""
    slots = None
    for corner in boxes:
        for term in terms(corner):
            if slots is None:
                slots = np.zeros(term.size)
            slots[:term.size] += term.ravel()
    return slots.reshape(-1, count).sum(axis=0)


def _lattice_even_power(lattices, d, e):
    """The integral of u^e (e even) over the Kuhn simplices of d-dimensional
    vertex lattices, as the lattice formula with fresh arrays for every
    path: h_1 ... h_e of corners 0 and 1, then of each path's inner
    vertices, then the path's h_e, times e! / ((e + d)! n^d)."""
    n, count = lattices[0].shape[-2] - 1, lattices[0].shape[-1]

    def terms(corner):
        u0, u1 = corner(()), corner(tuple(range(d)))
        root, power = [u0 + u1], u1
        for k in range(1, e):
            power = u1 * power
            root.append(u0 * root[-1] + power)
        for path in permutations(range(d), d - 1):
            state = root
            for depth in range(1, d - 1):
                x = corner(path[:depth])
                inner = [state[0] + x]
                for k in range(1, e):
                    inner.append(x * inner[-1] + state[k])
                state = inner
            x = corner(path)
            h = state[0] + x
            for k in range(1, e):
                h = x * h + state[k]
            yield h

    sums = _box_sums(_lattice_boxes(lattices, d, (d - 1) * e + 2), terms, count)
    return math.factorial(e) / math.factorial(e + d) / n**d * sums


def _lattice_gradient(values, n, m):
    """The integral of |grad u|^m of each column of the nodal matrix as the
    lattice formula with fresh arrays: on each Kuhn path 0, e_a, e_a + e_b, 1,
    exp(m/2 log(sum of its squared edge differences)), times n^m / (6 n^3)."""
    count = values.shape[1]

    def terms(corner):
        u0, u1 = corner(()), corner((0, 1, 2))
        for a, b in permutations(range(3), 2):
            x, y = corner((a,)), corner((a, b))
            with np.errstate(divide="ignore"):
                yield np.exp(0.5 * m * np.log((u1 - y) ** 2 + (y - x) ** 2 + (x - u0) ** 2))

    lattice = norms._lattice(values, n)
    return n**m / (6.0 * n**3) * _box_sums(_lattice_boxes([lattice], 3, 4), terms, count)


def _allocating_table(mesh, values, volume, boundary, w1m, holder_p):
    """``norm_table`` without copies, written as the per-block loop that takes
    fresh arrays in every block: the point values, e log|u| and its exp, the
    tiled weights and the rolled logs of the quadrature, and the lattice
    formulas of the closed form and the gradient."""
    space = fem_space(mesh)
    columns = values.T
    count = columns.shape[0]

    def log_blocks(cells, basis):
        step = max(1, norms._BLOCK_VALUES // (count * basis.shape[0]))
        for start in range(0, len(cells), step):
            rows = slice(start, start + step)
            nodal = columns[:, cells[rows]]
            point_values = np.abs(nodal.reshape(-1, basis.shape[1]) @ basis.T)
            yield rows, nodal, np.log(point_values).reshape(count, -1)

    (r_even, r_frac), (b_frac, b_even), (m,) = volume, boundary, w1m
    vol, bnd, holder = np.zeros(count), np.zeros(count), np.zeros(count)
    vol_m = np.zeros(count)
    with np.errstate(divide="ignore"):
        for rows, nodal, logs in log_blocks(mesh.tets, space.vol_basis):
            weights = np.tile(space.tet_w, nodal.shape[1])
            vol += np.exp(r_frac * logs) @ weights
            vol_m += np.exp(m * logs) @ weights
        for rows, _, logs in log_blocks(mesh.boundary_faces, space.bnd_basis):
            weights = whole_boundary(space)[1][rows].ravel()
            bnd += np.exp(b_frac * logs) @ weights
            holder += np.exp(holder_p * logs + np.roll(logs, -1, axis=0)) @ weights
    lattice = norms._lattice(values, mesh.n)
    faces = [np.moveaxis(lattice[(slice(None),) * axis + (slice(None, None, mesh.n),)], axis, 0) for axis in range(3)]
    magnitudes = np.abs(columns)
    return {
        "linf": magnitudes.max(axis=1),
        "linf_boundary": magnitudes[:, boundary_vertices(mesh)].max(axis=1),
        ("volume", r_even): _lattice_even_power([lattice], 3, int(r_even)) ** (1.0 / r_even),
        ("volume", r_frac): vol ** (1.0 / r_frac),
        ("w1m", m): (vol_m + _lattice_gradient(values, mesh.n, m)) ** (1.0 / m),
        ("boundary", b_frac): bnd ** (1.0 / b_frac),
        ("boundary", b_even): _lattice_even_power(faces, 2, int(b_even)) ** (1.0 / b_even),
        "holder": holder,
    }


@pytest.mark.parametrize("block", [1, 1000, norms._BLOCK_VALUES])
def test_buffered_passes_equal_the_allocating_loop(block, rng):
    # the reused buffers change where each block's values live, not how they are
    # computed: every entry is bitwise that of the allocating loop
    mesh = build_cube_mesh(3)
    values = 10.0 ** rng.uniform(-3.0, 2.0, 5) * rng.standard_normal((mesh.num_vertices, 5))
    values[:, 2] = 0.0
    values[:, 3] = -values[:, 3] ** 2  # a column of one sign: its max norm is -min
    exponents = dict(volume=(6.0, 2.5), boundary=(8.0 / 3.0, 4.0), w1m=(4.5,), holder_p=2.0)
    with mock.patch.object(norms, "_BLOCK_VALUES", block):
        table = norm_table(mesh, values, **exponents)
        expected = _allocating_table(mesh, values, **exponents)
    assert set(table) == set(expected)
    for key, column in expected.items():
        assert table[key].tobytes() == column.tobytes(), key


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    count=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 1000, norms._BLOCK_VALUES]),
)
def test_copies_share_the_volume_norms_of_their_base(n, count, seed, block):
    # copies anywhere in the matrix, not only after the distinct columns; a
    # distinct column's volume sums may round differently with fewer rows in
    # the BLAS products, so those entries agree to rounding, the rest bitwise
    mesh = build_cube_mesh(n)
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-3.0, 2.0, count) * rng.standard_normal((mesh.num_vertices, count))
    targets = rng.choice(np.arange(1, count), size=rng.integers(1, count), replace=False)
    bases = [s for s in range(count) if s not in targets]
    copies = {}
    for s in targets:
        base, scale = bases[rng.integers(len(bases))], 10.0 ** rng.uniform(-1.0, 1.0)
        values[:, s] = scale * values[:, base]
        copies[int(s)] = (base, scale)
    exponents = dict(volume=(6.0, 2.5), boundary=(6.0, 4.0, 8.0 / 3.0), w1m=(4.5,), holder_p=2.0)
    with mock.patch.object(norms, "_BLOCK_VALUES", block):
        shared = norm_table(mesh, values, copies=copies, **exponents)
        plain = norm_table(mesh, values, **exponents)
        empty = norm_table(mesh, values, copies={}, **exponents)
    assert set(shared) == set(plain) == set(empty)
    for key, column in plain.items():
        assert empty[key].tobytes() == column.tobytes(), key
        if key[0] in ("volume", "w1m"):
            np.testing.assert_allclose(shared[key], column, rtol=1e-14, atol=0, err_msg=str(key))
        else:
            assert shared[key].tobytes() == column.tobytes(), key


@pytest.mark.parametrize("copies", [{1: (0, 0.0)}, {1: (0, -2.0)}, {1: (2, 1.0), 2: (0, 1.0)},
                                    {3: (0, 1.0)}, {1: (-1, 1.0)}])
def test_copy_map_must_name_positive_copies_of_distinct_columns(mesh2, copies):
    values = np.ones((mesh2.num_vertices, 3))
    with pytest.raises(ValueError, match="cannot be a copy"):
        norm_table(mesh2, values, volume=(2.5,), copies=copies)


def test_solution_norms_take_no_log_pass(ground_state_p2_n8, monkeypatch):
    # a solution row reads only L^{2*} = L^6 and L^{2_*} = L^4, both closed forms
    from boundlab.verify_chain import solution_norms

    def forbidden(*args):
        raise AssertionError("log/exp quadrature pass")

    monkeypatch.setattr(norms, "_log_blocks", forbidden)
    _, outcome = ground_state_p2_n8
    row = solution_norms(outcome, "test")
    assert row["volume", 6.0] > 0.0 and row["boundary", 4.0] > 0.0


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    count=st.integers(3, 9),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 1000, norms._BLOCK_VALUES]),
)
def test_gradient_norms_take_their_own_pass(n, count, seed, block):
    # the gradient integrals take their own pass over the lattice, whether or
    # not a quadrature power is asked for: they match the per-cell formula and
    # are bitwise the same with a quadrature pass beside them; a copy reads c
    # times its base
    mesh = build_cube_mesh(n)
    space = fem_space(mesh)
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-2.0, 1.0, count) * rng.standard_normal((mesh.num_vertices, count))
    values[:, 0] = 0.0
    values[:, -1] = 3.0 * values[:, 1]
    with mock.patch.object(norms, "_BLOCK_VALUES", block), warnings.catch_warnings():
        warnings.simplefilter("error")  # log(0) of the zero column stays silent
        own = norm_table(mesh, values, gradient=(4.5, 10.5))
        riding = norm_table(mesh, values, volume=(2.5,), gradient=(4.5, 10.5))
        shared = norm_table(mesh, values, gradient=(4.5, 10.5), copies={count - 1: (1, 3.0)})
    with mock.patch.object(norms, "_log_blocks", None):  # no quadrature pass
        norm_table(mesh, values, volume=(6.0, 4.0), gradient=(4.5,))
    for m in (4.5, 10.5):
        grads = [np.linalg.norm(space.gradients(values[:, s]), axis=1) for s in range(count)]
        expected = [np.sum(space.tet_volume * g**m) ** (1.0 / m) for g in grads]
        np.testing.assert_allclose(own["gradient", m], expected, rtol=1e-12, atol=0)
        assert riding["gradient", m].tobytes() == own["gradient", m].tobytes()
        np.testing.assert_allclose(shared["gradient", m], own["gradient", m], rtol=1e-14, atol=0)
        assert shared["gradient", m][-1] == 3.0 * shared["gradient", m][1]
        assert own["gradient", m][0] == 0.0


@pytest.mark.parametrize("q, e", [(None, 4.0), (Fraction(7), 6.0), (Fraction(9, 4), 2.0)],
                         ids=["m=9/2", "m=21/2", "m=27/8"])
def test_power_bounds_bracket_the_quadrature(q, e, rng):
    # I_e^(m/e) <= Q(|u|^m) <= L^(m-e) I_e for every column, Q the quadrature
    # behind the W^{1,m} norm, up to rounding; a constant column meets both
    ctx = derive_context(3, 2, q)
    m = float(ctx.m)
    assert norms._lyapunov_power(m) == e
    mesh = build_cube_mesh(3)
    x = mesh.vertices
    noise = 10.0 ** rng.uniform(-2.0, 1.0, 6) * rng.standard_normal((mesh.num_vertices, 6))
    smooth = np.column_stack([np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) - 0.3, x[:, 2] ** 2])
    values = np.column_stack([noise, np.abs(noise[:, 0]), 10.0 * smooth, np.full(mesh.num_vertices, -0.07)])
    table = norm_table(mesh, values, volume=(e, m))
    lower, upper = norms._power_bounds(table, m)
    quadrature = table["volume", m] ** m
    assert np.all(lower <= quadrature * (1.0 + 1e-13))
    assert np.all(quadrature <= upper * (1.0 + 1e-13))
    assert np.all(lower[:-1] < 0.999 * quadrature[:-1]) and np.all(quadrature[:-1] < 0.999 * upper[:-1])
    np.testing.assert_allclose([lower[-1], upper[-1]], 0.07**m, rtol=1e-13, atol=0)
