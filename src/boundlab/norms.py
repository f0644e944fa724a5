"""Norms and functionals evaluated on piecewise-linear functions.

The H1 norm and the max norms are exact for P1 functions (quadratic form,
nodal maxima).  An L^r norm with r an even integer <= 6 (the critical
exponents 2* = 6 and 2_* = 4 of the 3-D cube among them) is integrated in
closed form on each simplex, exactly as the degree-7 quadrature would, and
the gradient is constant on each tet; both read the nodal matrix as the
level's Kuhn vertex lattice, one strided view per cell corner, with no tet
or face rows gathered.  The fractional L^r powers and the |u|^m part of the
W^{1,m} norm use the quadrature.  Every such norm of a P1 function goes
through ``norm_table``, which evaluates many functions at once, and every
norm a report holds comes from it.  The one-column functions at the end of
the module are the tests' oracles for it.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .assembly import fem_space
from .mesh import boundary_vertices
from .quadrature import _POINTS_PER_AXIS

__all__ = [
    "norm_h1",
    "norm_lp",
    "norm_linf",
    "norm_w1m",
    "norm_lp_boundary_field",
    "norm_table",
    "energy_J",
    "gn_ratio",
    "gn_ratios",
]


# quadrature values per block: 2**16 doubles (512 KiB), so a block's log|u|,
# one power of it and the nodal gather stay inside a 2 MiB L2 cache; a
# lattice pass's buffers hold this many values in all
_BLOCK_VALUES = 2**16


def _block_step(count, values_per_cell):
    """Cells per block when each of ``count`` columns holds ``values_per_cell``
    values per cell."""
    return max(1, _BLOCK_VALUES // (count * values_per_cell))


def _log_blocks(columns, cells, basis, step):
    """Blocks of ``step`` cells: (log|u| at the quadrature points
    (S, cells * nq), scratch of the same shape).  ``columns`` is the (S, nv)
    matrix.  log|u| and the scratch are views of two buffers that every block
    reuses, so a block allocates only its nodal gather."""
    count, nq = columns.shape[0], basis.shape[0]
    size = count * min(step, len(cells)) * nq
    log_buffer, scratch_buffer = np.empty(size), np.empty(size)
    for start in range(0, len(cells), step):
        nodal = columns[:, cells[start:start + step]]
        used = nodal.shape[0] * nodal.shape[1] * nq
        logs = log_buffer[:used].reshape(count, -1)
        point_values = np.matmul(nodal.reshape(-1, basis.shape[1]), basis.T, out=logs.reshape(-1, nq))
        np.log(np.abs(point_values, out=point_values), out=point_values)
        yield logs, scratch_buffer[:used].reshape(count, -1)


def _closed_form(e):
    """Whether |u|^e = u^e is a polynomial the quadrature integrates exactly."""
    return e % 2 == 0 and e <= 2 * _POINTS_PER_AXIS - 1


# -- sums over the Kuhn lattice ----------------------------------------------------
#
# Vertex (i, j, k) of level n is row i + s j + s^2 k of the nodal matrix (s =
# n + 1), so the (nv, S) matrix reshaped to (s, s, s, S) is the vertex
# lattice, and one corner of every cell in a box of cells is one strided view
# of it.  A cell's six tets are the monotone lattice paths from its corner 0
# to its corner (1, 1, 1), one per order of the three axes.  Each boundary
# face is likewise a path from corner (0, 0) to corner (1, 1) of a square of
# one of the six cube-face lattices: a 2-D Kuhn triangle of area 1/(2 n^2).


def _lattice(values, n):
    """The nodal matrix ``values`` (nv, S) of level n as its vertex lattice
    (n+1, n+1, n+1, S), indexed [k, j, i]."""
    s = n + 1
    return values.reshape(s, s, s, -1)


def _cube_faces(lattice):
    """The six face lattices of a vertex lattice, each opposite pair as one
    (2, n+1, n+1, S) view."""
    n = lattice.shape[0] - 1
    return [np.moveaxis(lattice[(slice(None),) * axis + (slice(None, None, n),)], axis, 0) for axis in range(3)]


def _cell_boxes(n, d, lines):
    """Boxes of the n^d cells of a d-dimensional lattice, in order, as tuples of
    d (start, stop) cell ranges.  A box spans whole rows of the last axis:
    ``lines`` rows inside one slab of the first axis, or as many whole slabs
    as ``lines`` rows hold."""
    per_slab = n ** (d - 2)
    if lines >= per_slab:
        slabs = min(n, lines // per_slab)
        return [((k, min(n, k + slabs)),) + ((0, n),) * (d - 1) for k in range(0, n, slabs)]
    return [((k, k + 1), (j, min(n, j + lines)), (0, n)) for k in range(n) for j in range(0, n, lines)]


def _cell_blocks(lattices, d, arrays):
    """Buffers for one pass over the cells of d-dimensional vertex lattices
    (..., n+1, ..., n+1, S) of one shape, leading axes batched, and the pass's
    blocks: one per box of cells of each lattice, as (corner, buffer views).
    corner(axes) is the strided view of the box's cells' corner one step
    along each of ``axes``; the views are ``arrays`` buffers of the box's
    shape.  The buffers are allocated once, ``_BLOCK_VALUES`` values in all,
    or one row of cells each if that is more.  Lattices that fit in one
    buffer together are copied into one batch, so a small table takes few
    blocks."""
    if len(lattices) > 1 and arrays * sum(lattice.size for lattice in lattices) <= _BLOCK_VALUES:
        lattices = [np.concatenate(lattices)]
    lead, n, count = lattices[0].shape[:-d - 1], lattices[0].shape[-2] - 1, lattices[0].shape[-1]
    width = math.prod(lead) * count
    boxes = _cell_boxes(n, d, max(1, _BLOCK_VALUES // max(1, arrays * n * width)))
    buffers = np.empty((arrays, width * math.prod(b - a for a, b in boxes[0])))

    def blocks():
        for lattice in lattices:
            for box in boxes:
                shape = lead + tuple(b - a for a, b in box) + (count,)

                def corner(axes, lattice=lattice, steps=[(slice(a, b), slice(a + 1, b + 1)) for a, b in box]):
                    return lattice[(..., *[step[i in axes] for i, step in enumerate(steps)], slice(None))]

                yield corner, buffers[:, :math.prod(shape)].reshape((arrays,) + shape)

    return buffers, blocks()


def _even_powers(lattices, d, powers):
    """{e: per-column integrals of u^e} for the even e in ``powers``, over
    the Kuhn simplices of d-dimensional vertex lattices (``_cell_blocks``).

    A simplex is a path 0 = v_0, v_1, ..., v_d = 1 through its cell's
    corners, one step per axis, of volume 1/(d! n^d), and it integrates u^e
    to e! / ((e + d)! n^d) h_e, with h_e the complete homogeneous symmetric
    polynomial of its nodal values.  h builds up as h_k += v h_{k-1} (k = 1,
    ..., e) per vertex v, in any order: corners 0 and 1 enter once per cell,
    each vertex v_1 ... v_{d-2} once per path prefix ending at it
    (consecutive paths in lexicographic order share their prefix), and v_{d-1}
    once per path, updating a copy of its prefix's h in place.
    """
    powers = sorted(set(powers))
    top, count, n = int(powers[-1]), lattices[0].shape[-1], lattices[0].shape[-2] - 1
    # buffers: h_1 ... h_top of each prefix of a path but the longest, the
    # path's h (the root's scratch before), and one sum per power
    buffers, blocks = _cell_blocks(lattices, d, (d - 1) * top + 1 + len(powers))
    sums = buffers[(d - 1) * top + 1:]
    sums[...] = 0.0
    for corner, views in blocks:
        views = list(views)
        states = [views[depth * top:(depth + 1) * top] for depth in range(d - 1)]
        h, block_sums = views[(d - 1) * top], dict(zip(powers, views[(d - 1) * top + 1:]))
        u0, u1, root = corner(()), corner(tuple(range(d))), states[0]
        np.add(u0, u1, out=root[0])
        for k in range(1, top):
            np.multiply(u0, root[k - 1], out=root[k])
            np.multiply(u1, u1 if k == 1 else h, out=h)  # u1^(k+1)
            root[k] += h
        previous = ()
        for path in permutations(range(d), d - 1):
            for depth in range(1, d - 1):
                if path[:depth] != previous[:depth]:
                    x, state, inner = corner(path[:depth]), states[depth - 1], states[depth]
                    np.add(state[0], x, out=inner[0])
                    for k in range(1, top):
                        np.multiply(x, inner[k - 1], out=inner[k])
                        inner[k] += state[k]
            x, state = corner(path), states[-1]
            np.add(state[0], x, out=h)
            for k in range(1, top):
                np.multiply(x, h, out=h)
                h += state[k]
                if k + 1 in block_sums:
                    block_sums[k + 1] += h
            previous = path
    return {e: math.factorial(int(e)) / math.factorial(int(e) + d) / n**d * total.reshape(-1, count).sum(axis=0)
            for e, total in zip(powers, sums)}


def _gradient_powers(lattice, exponents):
    """{m: per-column integrals of |grad u|^m} for each m in ``exponents``,
    over the Kuhn tets of a vertex lattice (n+1, n+1, n+1, S).

    grad u is constant on a tet.  On the path 0, e_a, e_a + e_b, 1 it is n
    times the differences of u along the path's three edges, one per axis,
    so |grad u|^2 = n^2 (sum of the squared edge differences).  Each tet
    adds 1/(6 n^3) |grad u|^m; a cell's first edges are shared by its two
    paths that start along them.
    """
    exponents = sorted(set(exponents))
    count, n = lattice.shape[-1], lattice.shape[0] - 1
    # buffers: a first edge's square, a path's sum of squares, a scratch, one sum per exponent
    buffers, blocks = _cell_blocks([lattice], 3, 3 + len(exponents))
    buffers[3:] = 0.0
    with np.errstate(divide="ignore"):  # a constant path's log 0 is -inf, its power 0
        for corner, (first, total, scratch, *sums) in blocks:
            u0, u1 = corner(()), corner((0, 1, 2))
            for a in range(3):
                x = corner((a,))
                np.subtract(x, u0, out=first)
                np.multiply(first, first, out=first)
                for b in range(3):
                    if b == a:
                        continue
                    y = corner((a, b))
                    np.subtract(u1, y, out=total)
                    np.multiply(total, total, out=total)
                    np.subtract(y, x, out=scratch)
                    total += np.multiply(scratch, scratch, out=scratch)
                    total += first
                    np.log(total, out=total)
                    for m, block_sum in zip(exponents, sums):
                        block_sum += np.exp(np.multiply(total, 0.5 * m, out=scratch), out=scratch)
    return {m: n**m / (6.0 * n**3) * total.reshape(-1, count).sum(axis=0)
            for m, total in zip(exponents, buffers[3:])}


def _max_abs(rows):
    """max |x| along each row without forming |x|; the abs only clears the sign
    of a zero maximum."""
    return np.abs(np.maximum(rows.max(axis=1), -rows.min(axis=1)))


def norm_table(mesh, values, volume=(), boundary=(), w1m=(), gradient=(), holder_p=None, copies=None):
    """Norms of every column of the nodal matrix ``values`` (nv x S), in one pass.

    Returns a dict of length-S arrays keyed by "linf" and "linf_boundary"
    (nodal maxima), ("volume", r) and ("boundary", r) (L^r norms),
    ("w1m", m) (W^{1,m} norms), ("gradient", m) (the L^m norm of |grad u|)
    and, when ``holder_p`` is given, "holder": the boundary integral of
    |u_s|^p |u_{s+1}|, pairing each column with the next one cyclically.
    An L^r integral with r an even integer <= 6 is taken in closed form on
    the Kuhn lattice of the volume or of the six cube faces, sharing each
    cell's path prefixes (``_even_powers``), and the gradient integrals take
    their own lattice pass, from the differences along each tet's edges
    (``_gradient_powers``).  The other integrals use the quadrature, block
    by block of cells; each block takes log|u| once and every power |u|^e is
    exp(e log|u|), and that pass runs only when such an integral is asked
    for.  A zero column's norms are exactly zero either way.

    ``copies`` maps a column s to (b, c) when column s is c times column b,
    with c > 0 and b no copy itself.  The volume and W^{1,m} norms, all
    1-homogeneous, are then integrated for the other columns only, and
    column s reads c times column b's; the gradient norms likewise; every
    other entry is computed on every column.
    """
    volume = tuple(float(r) for r in volume)
    boundary = tuple(float(r) for r in boundary)
    w1m = tuple(float(m) for m in w1m)
    gradient = tuple(float(m) for m in gradient)
    if any(r < 1 for r in volume + boundary):
        raise ValueError(f"integrability index must be >= 1, got {min(volume + boundary)}")
    if any(m < 1 for m in w1m + gradient):
        raise ValueError(f"Sobolev index must be >= 1, got {min(w1m + gradient)}")
    space = fem_space(mesh)
    values = np.asarray(values, dtype=float).reshape(mesh.num_vertices, -1)
    columns = values.T
    count = columns.shape[0]
    copies = dict(copies or {})
    for s, (b, c) in copies.items():
        if not (0 <= s < count and 0 <= b < count and b not in copies and c > 0):
            raise ValueError(f"column {s} cannot be a copy of column {b} scaled by {c}")
    distinct = [s for s in range(count) if s not in copies]
    # the volume passes see the distinct columns only; when the copies come
    # last, as ``build_corpus`` places them, that is a view
    trailing = distinct == list(range(len(distinct)))
    vol_values = values[:, :len(distinct)] if trailing else values[:, distinct]
    vol_columns = vol_values.T

    def spread(norms):
        """The distinct columns' norms, extended to their copies."""
        if not copies:
            return norms
        full = np.empty(count)
        full[distinct] = norms
        for s, (b, c) in copies.items():
            full[s] = c * full[b]
        return full

    table = {
        "linf": _max_abs(columns),
        "linf_boundary": _max_abs(columns[:, boundary_vertices(mesh)]),
    }
    vol_even = [e for e in volume if _closed_form(e)]
    bnd_even = [e for e in boundary if _closed_form(e)]
    # integrals of |u|^e over the volume and the boundary: by quadrature here,
    # the even powers and the gradient integrals on the lattice after the loops
    vol = {e: np.zeros(len(distinct)) for e in volume + w1m if e not in vol_even}
    bnd = {e: np.zeros(count) for e in boundary if e not in bnd_even}
    holder = np.zeros(count)
    with np.errstate(divide="ignore"):
        if vol:
            # blocks sized for all columns, so each distinct column's sums are
            # those of a table without copies
            step = _block_step(count, len(space.tet_w))
            weights = np.tile(space.tet_w, min(step, mesh.num_tets))
            for logs, scratch in _log_blocks(vol_columns, mesh.tets, space.vol_basis, step):
                block_weights = weights[:logs.shape[1]]
                for e, total in vol.items():
                    total += np.exp(np.multiply(logs, e, out=scratch), out=scratch) @ block_weights
        if bnd or holder_p is not None:
            step = _block_step(count, len(space.bnd_w))
            weights = np.tile(space.bnd_w, min(step, mesh.num_boundary_faces))
            for logs, scratch in _log_blocks(columns, mesh.boundary_faces, space.bnd_basis, step):
                block_weights = weights[:logs.shape[1]]
                for e, total in bnd.items():
                    total += np.exp(np.multiply(logs, e, out=scratch), out=scratch) @ block_weights
                if holder_p is not None:
                    # holder_p log|u_s| + log|u_{s+1}|, the next column taken cyclically
                    np.multiply(logs, holder_p, out=scratch)
                    scratch[:-1] += logs[1:]
                    scratch[-1] += logs[0]
                    holder += np.exp(scratch, out=scratch) @ block_weights
    lattice = _lattice(vol_values, mesh.n)
    grad = _gradient_powers(lattice, w1m + gradient) if w1m or gradient else {}
    if vol_even:
        vol.update(_even_powers([lattice], 3, vol_even))
    if bnd_even:
        bnd.update(_even_powers(_cube_faces(_lattice(values, mesh.n)), 2, bnd_even))
    table.update({("volume", r): spread(vol[r] ** (1.0 / r)) for r in volume})
    table.update({("w1m", m): spread((vol[m] + grad[m]) ** (1.0 / m)) for m in w1m})
    table.update({("gradient", m): spread(grad[m] ** (1.0 / m)) for m in gradient})
    table.update({("boundary", r): bnd[r] ** (1.0 / r) for r in boundary})
    if holder_p is not None:
        table["holder"] = holder
    return table


def _lyapunov_power(m):
    """The even power e <= m, at most 6, whose closed-form integral brackets
    the quadrature of |u|^m (``_power_bounds``); m >= 2."""
    return float(2 * int(min(m, 2 * _POINTS_PER_AXIS - 1) // 2))


def _power_bounds(table, m):
    """Lower and upper bounds on the quadrature integral Q(|u|^m) of every
    column of a ``norm_table`` holding "linf" and ("volume", e), e the
    ``_lyapunov_power`` of m.

    Q has positive weights summing to |Omega| = 1, and u at a quadrature
    point is a convex combination of nodal values, so |u| <= L = ||u||_inf
    there.  With I_e = Q(|u|^e), exact in closed form for the even e <= m,
    Lyapunov's inequality gives I_e^(m/e) <= Q(|u|^m), and |u|^m <= L^(m-e)
    |u|^e gives Q(|u|^m) <= L^(m-e) I_e.
    """
    e = _lyapunov_power(m)
    norm = table["volume", e]  # I_e^(1/e)
    return norm**m, table["linf"] ** (m - e) * norm**e


def gn_ratios(table, ctx):
    """Interpolation ratio ||u||_inf / (||u||_{W^{1,m}}^sigma ||u||_{L^{2*}}^(1-sigma))
    of every column of a table holding "linf", ("w1m", m) and ("volume", 2*).

    Scaling invariant (all norms are 1-homogeneous and the exponents sum
    to one); bounded ratios over a corpus are the finite-sample surrogate
    for the interpolation constant.  This is the one formula of the ratio:
    the gn suite also puts its bounds on the W^{1,m} norm through it (see
    ``verify_chain._max_gn_ratio``).  A zero denominator raises ValueError.
    """
    sigma = float(ctx.sigma)
    w1m, volume = table["w1m", float(ctx.m)], table["volume", float(ctx.two_star)]
    denominator = w1m**sigma * volume ** (1.0 - sigma)
    if np.any(denominator == 0.0):
        raise ValueError("interpolation ratio undefined for the zero function")
    return table["linf"] / denominator


# -- one-column oracles ----------------------------------------------------------
#
# No CLI path calls these: a report's norms come from ``norm_table`` (one table
# per corpus, one row per solution).  The tests check the table against them,
# one function and one closed form at a time.


def norm_h1(u):
    """Square root of the H1 quadratic form (exact for P1); a test oracle."""
    space = fem_space(u.mesh)
    return math.sqrt(float(u.values @ (space.h1_operator() @ u.values)))


def _check_region(region):
    if region not in ("volume", "boundary"):
        raise ValueError(f"region must be 'volume' or 'boundary', got {region!r}")


def norm_lp(u, r, region="volume"):
    """L^r norm of u over the volume or the boundary; a test oracle."""
    _check_region(region)
    r = float(r)
    return float(norm_table(u.mesh, u.values, **{region: (r,)})[region, r][0])


def norm_linf(u, region="volume"):
    """Max of |nodal values|, over all vertices or boundary vertices only; a test oracle."""
    _check_region(region)
    if region == "volume":
        return float(np.max(np.abs(u.values)))
    return float(np.max(np.abs(u.values[boundary_vertices(u.mesh)])))


def norm_w1m(u, m):
    """(int |u|^m + int |grad u|^m)^(1/m), the gradient part exact; a test oracle."""
    m = float(m)
    return float(norm_table(u.mesh, u.values, w1m=(m,))["w1m", m][0])


def norm_lp_boundary_field(mesh, g, r):
    """L^r boundary norm of a callable field g(points, normals); a test oracle."""
    r = float(r)
    if r < 1:
        raise ValueError(f"integrability index must be >= 1, got {r}")
    space = fem_space(mesh)
    field = space.boundary_field(g)
    return space.boundary_integral(lambda faces: np.abs(field(faces)) ** r) ** (1.0 / r)


def energy_J(u, nl):
    """Energy 1/2 ||u||_H1^2 - int_bnd F(x, u) of the boundary-flux problem; a
    test oracle for the energy suite's J."""
    space = fem_space(u.mesh)
    half_h1 = 0.5 * float(u.values @ (space.h1_operator() @ u.values))
    return half_h1 - space.boundary_integral(space.at_boundary(u.values, nl.F, nl.reads_points))


def gn_ratio(u, ctx):
    """Interpolation ratio of one function (see gn_ratios); a test oracle."""
    table = norm_table(u.mesh, u.values, volume=(ctx.two_star,), w1m=(ctx.m,))
    return float(gn_ratios(table, ctx)[0])
