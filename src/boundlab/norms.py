"""Norms and functionals evaluated on piecewise-linear functions.

The H1 norm and the max norms are exact for P1 functions (quadratic form,
nodal maxima).  An L^r norm with r an even integer <= 6 (the critical
exponents 2* = 6 and 2_* = 4 of the 3-D cube among them) is integrated in
closed form on each simplex, exactly as the degree-7 quadrature would; the
fractional L^r powers and the W^{1,m} integrands use that quadrature.  Every
such norm of a P1 function goes through ``norm_table``, which evaluates many
functions at once, and every norm a report holds comes from it.  The
one-column functions at the end of the module are the tests' oracles for it.
"""

from __future__ import annotations

import math

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
# one power of it and the nodal gather stay inside a 2 MiB L2 cache
_BLOCK_VALUES = 2**16


def _block_step(count, values_per_cell):
    """Cells per block when each of ``count`` columns holds ``values_per_cell``
    values per cell."""
    return max(1, _BLOCK_VALUES // (count * values_per_cell))


def _log_blocks(columns, cells, basis, step):
    """Blocks of ``step`` cells: (cell slice, nodal values (S, cells, k), log|u| at
    the quadrature points (S, cells * nq), scratch of the same shape).  ``columns``
    is the (S, nv) matrix.  log|u| and the scratch are views of two buffers that
    every block reuses, so a block allocates only its nodal gather."""
    count, nq = columns.shape[0], basis.shape[0]
    size = count * min(step, len(cells)) * nq
    log_buffer, scratch_buffer = np.empty(size), np.empty(size)
    for start in range(0, len(cells), step):
        rows = slice(start, start + step)
        nodal = columns[:, cells[rows]]
        used = nodal.shape[0] * nodal.shape[1] * nq
        logs = log_buffer[:used].reshape(count, -1)
        point_values = np.matmul(nodal.reshape(-1, basis.shape[1]), basis.T, out=logs.reshape(-1, nq))
        np.log(np.abs(point_values, out=point_values), out=point_values)
        yield rows, nodal, logs, scratch_buffer[:used].reshape(count, -1)


def _closed_form(e):
    """Whether |u|^e = u^e is a polynomial the quadrature integrates exactly."""
    return e % 2 == 0 and e <= 2 * _POINTS_PER_AXIS - 1


def _even_power_integrals(columns, cells, measure, powers, step_count=None):
    """Integrals of u^e over the simplices ``cells`` (vertex index rows) for each
    even e in ``powers``, as {e: length-S array}; ``measure`` is the simplices'
    volume (a scalar or one per cell).  Blocks are sized for ``step_count``
    columns (default: the S of ``columns``).

    On a d-simplex T, int_T u^e = |T| e! d! / (e + d)! h_e(u_0, ..., u_d),
    with h_e the complete homogeneous symmetric polynomial of the nodal
    values, formed by the recurrence h_k += u_j h_{k-1} over the vertices j.
    """
    if not powers:
        return {}
    count = columns.shape[0]
    top = int(max(powers))
    d = cells.shape[1] - 1
    measure = np.broadcast_to(measure, len(cells))
    totals = {e: np.zeros(count) for e in powers}
    # h_1 ... h_top and one product buffer: top + 1 arrays of count x step values,
    # reused by every block
    step = _block_step(step_count or count, top + 1)
    size = count * min(step, len(cells))
    h_buffer, product_buffer = np.empty(top * size), np.empty(size)
    for start in range(0, len(cells), step):
        rows = slice(start, start + step)
        nodal = columns[:, cells[rows].T]  # (S, d + 1, cells)
        used = nodal[:, 0].size
        h = h_buffer[:top * used].reshape((top,) + nodal[:, 0].shape)  # h[k - 1] is h_k
        h.fill(0.0)
        product = product_buffer[:used].reshape(h[0].shape)
        for j in range(d + 1):
            h[0] += nodal[:, j]
            for k in range(1, top):
                h[k] += np.multiply(nodal[:, j], h[k - 1], out=product)
        for e, total in totals.items():
            total += h[int(e) - 1] @ measure[rows]
    return {e: math.factorial(int(e)) * math.factorial(d) / math.factorial(int(e) + d) * total
            for e, total in totals.items()}


def _gradient_integrals(space, rows, nodal, totals):
    """Add the integral of |grad u|^m over the cells ``rows`` to ``totals[m]``
    for each m; ``nodal`` holds the cells' vertex values (S, cells, 4).  The
    gradient is constant on each cell, so each cell adds |T| |grad u|^m."""
    if not totals:
        return
    # gradients (cells, 3, S): tet t is a translate of Kuhn shape t % 6
    shapes = space.grad_shapes[np.arange(*rows.indices(space.mesh.num_tets)) % 6]
    g = shapes.transpose(0, 2, 1) @ nodal.transpose(1, 2, 0)
    half_logs = 0.5 * np.log(np.einsum("tds,tds->ts", g, g))
    for m, total in totals.items():
        total += space.tet_volume * np.exp(m * half_logs).sum(axis=0)


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
    An L^r integral with r an even integer <= 6 is taken in closed form,
    simplex by simplex (``_even_power_integrals``).  The other integrals use
    the quadrature, block by block of cells; each block takes log|u| once and
    every power |u|^e is exp(e log|u|), and that pass runs only when such an
    integral is asked for.  The gradient is constant on each cell, so its
    integrals need no quadrature points: they ride along the quadrature pass
    when it runs and take their own pass over the cells otherwise.  A zero
    column's norms are exactly zero either way.

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
    columns = np.asarray(values, dtype=float).reshape(mesh.num_vertices, -1).T
    count = columns.shape[0]
    copies = dict(copies or {})
    for s, (b, c) in copies.items():
        if not (0 <= s < count and 0 <= b < count and b not in copies and c > 0):
            raise ValueError(f"column {s} cannot be a copy of column {b} scaled by {c}")
    distinct = [s for s in range(count) if s not in copies]
    # the volume passes see the distinct columns only, in blocks sized for all
    # of them, so each distinct column's sums are those of a table without copies;
    # when the copies come last, as ``build_corpus`` places them, that is a view
    trailing = distinct == list(range(len(distinct)))
    vol_columns = columns[:len(distinct)] if trailing else columns[distinct]

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
    # integrals of |u|^e over the volume and the boundary, of |grad u|^m: by
    # quadrature here, the even powers in closed form after the loops
    vol = {e: np.zeros(len(distinct)) for e in volume + w1m if e not in vol_even}
    grad = {m: np.zeros(len(distinct)) for m in w1m + gradient}
    bnd = {e: np.zeros(count) for e in boundary if e not in bnd_even}
    holder = np.zeros(count)
    with np.errstate(divide="ignore"):
        # the gradient integrals take the quadrature pass's blocks in either
        # pass, so they are bitwise the same whether a quadrature power is asked for
        step = _block_step(count, len(space.tet_w))
        if vol:
            weights = np.tile(space.tet_w, min(step, mesh.num_tets))
            for rows, nodal, logs, scratch in _log_blocks(vol_columns, mesh.tets, space.vol_basis, step):
                block_weights = weights[:logs.shape[1]]
                for e, total in vol.items():
                    total += np.exp(np.multiply(logs, e, out=scratch), out=scratch) @ block_weights
                _gradient_integrals(space, rows, nodal, grad)
        elif grad:
            for start in range(0, mesh.num_tets, step):
                rows = slice(start, start + step)
                _gradient_integrals(space, rows, vol_columns[:, mesh.tets[rows]], grad)
        if bnd or holder_p is not None:
            step = _block_step(count, len(space.bnd_basis))
            for rows, _, logs, scratch in _log_blocks(columns, mesh.boundary_faces, space.bnd_basis, step):
                weights = space.boundary_weights(rows).ravel()
                for e, total in bnd.items():
                    total += np.exp(np.multiply(logs, e, out=scratch), out=scratch) @ weights
                if holder_p is not None:
                    # holder_p log|u_s| + log|u_{s+1}|, the next column taken cyclically
                    np.multiply(logs, holder_p, out=scratch)
                    scratch[:-1] += logs[1:]
                    scratch[-1] += logs[0]
                    holder += np.exp(scratch, out=scratch) @ weights
    vol.update(_even_power_integrals(vol_columns, mesh.tets, space.tet_volume, vol_even, count))
    bnd.update(_even_power_integrals(columns, mesh.boundary_faces, space.face_areas, bnd_even))
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
