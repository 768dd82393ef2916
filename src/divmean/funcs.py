"""Delay-differential special functions for rough and dense densities.

Three functions are tabulated by marching their integral equations on a
dyadic grid, then served through block-clamped cubic interpolation:

  buchstab   u*f(u) = 1 + int_1^{u-1} f,   f = 1/u on [1, 2]
  ratio_fn   u*f(u) = 2 + 2*int_1^{u-1} f, f = 2/u on [1, 2]
  growth_fn  f(v) = v - int_0^{(v-1)/2} f(u) * ratio((v-u)/(u+1)) du/(u+1)

All three are smooth inside unit blocks but kink at integer arguments, so
every quadrature stencil and every interpolation stencil is clamped to one
block: nothing ever straddles a kink.  Grid abscissas 1 + k*2^-m are exact
binary floats, so block membership is never ambiguous.  get_bundle() builds
each table on its first read.  The growth grid is marched row by row as
reads reach it: a read marches the rows its interpolation stencils touch,
and the dense prefix of rows that those rows' integrals read; rows a read
does not reach stay NaN.  The march reads lambda through its own table.

Every Gauss quadrature of the package, here and in constants, builds its
panels with panel_rows: one rule splits an interval at its kinks, many rows
at once for the lambda march, one row everywhere else.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._util import EXP_NEG_2GAMMA, EXP_NEG_GAMMA
from .errors import RangeError

OMEGA_STEP_BITS = 10
OMEGA_BLOCKS = 13
XI_BLOCKS = 16
LAMBDA_STEP_BITS = 7
LAMBDA_VMAX = 50
# rows of the lambda march quadratured together: the fastest in a sweep of
# 16 to 96 rows (a full march took 0.34 s at 24 and 32 rows, 0.42 s at 64 and
# 0.45 s at 96 on a 2-vCPU Xeon); a row near v = 50 has about 1,100 Gauss
# nodes, so each temporary of a batch stays under 0.3 MB
LAMBDA_BATCH_ROWS = 32

# integral of a cubic over one step from 4 consecutive nodes: the panel
# [x_p, x_{p+1}] uses (p-1..p+2) inside a block, a one-sided stencil at
# block edges so no stencil crosses a kink
_W_INT = (-1.0 / 24, 13.0 / 24, 13.0 / 24, -1.0 / 24)
_W_FWD = (9.0 / 24, 19.0 / 24, -5.0 / 24, 1.0 / 24)
_W_BWD = (1.0 / 24, -5.0 / 24, 19.0 / 24, 9.0 / 24)


@cache
def _stencil_shift(block):
    """j - k at each block offset k mod block, where a stencil starts at node j.

    A stencil starts one node back, but at a block's first or last node it
    is clamped to the block's first or last four nodes, so it never
    crosses a kink.
    """
    r = np.arange(block)
    return np.clip(r - 1, 0, block - 3) - r


def _stencil(h, n_nodes, us):
    """t = (u-1)/h and the first node j of the stencil u reads, on 1 + k*h.

    j = k + _stencil_shift[k mod block] with k = trunc(t) clamped to the
    grid of n_nodes nodes; every grid spans whole unit blocks, so the block
    of k is the block of the stencil.
    """
    t = np.array(us, dtype=float)
    t -= 1.0
    t /= h
    block = round(1.0 / h)
    k = t.astype(np.int64)
    np.clip(k, 0, n_nodes - 2, out=k)
    j = _stencil_shift(block).take(k & (block - 1))
    j += k
    return t, j


def _cubic_interp(h, values, us, fill=None):
    """Block-clamped 4-point Lagrange interpolation on the grid 1 + k*h, unit blocks.

    u reads the nodes j..j+3 of _stencil; fill, when given, is called with
    the stencil starts j before any node is read.
    Sum over i of y_{j+i} * l_i(x), l_0 = -(x-1)(x-2)(x-3)/6 and so on, each
    weight built in one buffer in that order of operations; a negated
    factor is the same float as a negated divisor.
    """
    t, j = _stencil(h, len(values), us)
    if fill is not None:
        fill(j)
    x = np.subtract(t, j, out=t)
    x1, x2, x3 = x - 1.0, x - 2.0, x - 3.0
    v = np.asarray(values)
    out = np.multiply(x1, x2)
    out *= x3
    out /= -6.0
    out *= v.take(j)
    w = np.empty_like(out)
    factors = ((x, x2, x3, 2.0), (x, x1, x3, -2.0), (x, x1, x2, 6.0))
    for i, (a, b, c, d) in enumerate(factors, 1):
        np.multiply(a, b, out=w)
        w *= c
        w /= d
        w *= v[i:].take(j)
        out += w
    return out


@dataclass
class PiecewiseFn:
    """Closed forms on low blocks, marched grid 1 + k*grid_step above, optional tail.

    The grid takes over where the last exact piece ends (at 1 when there is
    none), so it never interpolates inside an exact piece.  A grid marched
    on demand has a fill: a read calls fill(j) with the first node j of each
    stencil it reads (nodes j..j+3), and fill marches those nodes and every
    node they depend on.  NaN reads NaN; points below the first piece read 0.
    """

    name: str
    exact_pieces: list  # (lo, hi, vectorized fn) on [lo, hi), ascending
    grid_step: float  # 2^-m: unit blocks of 2^m steps
    grid_values: np.ndarray
    tail_fn: object  # vectorized fn above grid_end, or None
    err_budget: float  # None where no budget is declared
    fill: object = None  # marches the nodes of given stencil starts, or None

    @property
    def grid(self):
        return 1.0 + np.arange(len(self.grid_values)) * self.grid_step

    @property
    def grid_end(self):
        return 1.0 + (len(self.grid_values) - 1) * self.grid_step

    def eval_many(self, us):
        us = np.asarray(us, dtype=float)
        scalar = us.ndim == 0
        us = np.atleast_1d(us)
        out = np.where(np.isnan(us), us, 0.0)
        m = us > self.grid_end
        if m.any():
            if self.tail_fn is None:
                raise RangeError(
                    f"{self.name} is tabulated only up to {self.grid_end}"
                )
            out[m] = self.tail_fn(us[m])
        for lo, hi, fn in self.exact_pieces:
            m = (us >= lo) & (us < hi)
            if m.any():
                out[m] = fn(us[m])
        start = self.exact_pieces[-1][1] if self.exact_pieces else 1.0
        m = (us >= start) & (us <= self.grid_end)
        if m.any():
            out[m] = _cubic_interp(self.grid_step, self.grid_values, us[m], self.fill)
        return out[0] if scalar else out

    def __call__(self, u):
        return float(self.eval_many(np.float64(u)))


def _march_delay(c0, n_blocks):
    """March u*f(u) = c0 + c0*int_1^{u-1} f with f = c0/u on [1, 2].

    Returns grid values of f and of the cumulative integral from 1.  f on a
    block reads the integral one block back, so each block takes one
    vectorised step for f, then its panels (each stencil clamped to the
    block), then its integral as a cumulative sum seeded with the carry.
    Scalar math.log on [1, 3] and stencil products added left to right give
    the bits of the node-by-node march that the tests keep as reference.
    """
    h = 2.0**-OMEGA_STEP_BITS
    block = 1 << OMEGA_STEP_BITS
    u = 1.0 + np.arange(n_blocks * block + 1) * h
    f, icum = np.zeros_like(u), np.zeros_like(u)
    first, second = u[: block + 1].tolist(), u[block + 1 : 2 * block + 1].tolist()
    f[: block + 1] = [c0 / x for x in first]
    icum[: block + 1] = [c0 * math.log(x) for x in first]
    f[block + 1 : 2 * block + 1] = [(c0 + c0 * c0 * math.log(x - 1.0)) / x for x in second]
    # first node and weights of the stencil of the panel at each block offset
    start = np.arange(block) + _stencil_shift(block)
    w = np.array([_W_FWD] + [_W_INT] * (block - 2) + [_W_BWD]).T
    for lo in range(block, n_blocks * block, block):
        if lo >= 2 * block:
            nxt = slice(lo + 1, lo + block + 1)
            f[nxt] = (c0 + c0 * icum[lo - block + 1 : lo + 1]) / u[nxt]
        fs = [f[lo + start + j] for j in range(4)]
        panels = h * (w[0] * fs[0] + w[1] * fs[1] + w[2] * fs[2] + w[3] * fs[3])
        icum[lo : lo + block + 1] = np.cumsum(np.concatenate(([icum[lo]], panels)))
    return f, icum


def _delay_tables(name, c0, n_blocks, tail_fn, cum_tail, err_budget):
    """f with u*f(u) = c0 + c0*int_1^{u-1} f, and int_1^u f, as PiecewiseFns.

    f is c0/u on [1, 2] and closed-form on [2, 3], marched above, tail_fn
    past the grid; the integral is zero below 1 and top + cum_tail(u, end)
    past the grid end, where it reaches top.
    """
    vals, icum = _march_delay(c0, n_blocks)
    h = 2.0**-OMEGA_STEP_BITS
    fn = PiecewiseFn(
        name=name,
        exact_pieces=[
            (1.0, 2.0, lambda x: c0 / x),
            (2.0, 3.0, lambda x: (c0 + c0 * c0 * np.log(x - 1.0)) / x),
        ],
        grid_step=h,
        grid_values=vals,
        tail_fn=tail_fn,
        err_budget=err_budget,
    )
    end, top = fn.grid_end, icum[-1]
    cum = PiecewiseFn(
        name=f"{name}_integral",
        exact_pieces=[],
        grid_step=h,
        grid_values=icum,
        tail_fn=lambda x: top + cum_tail(x, end),
        err_budget=None,
    )
    return fn, cum


def build_buchstab():
    return _delay_tables(
        "buchstab",
        1.0,
        OMEGA_BLOCKS,
        lambda x: np.full(np.shape(x), EXP_NEG_GAMMA),
        lambda x, end: (x - end) * EXP_NEG_GAMMA,
        1e-9,
    )


def build_ratio_fn():
    return _delay_tables(
        "ratio_fn",
        2.0,
        XI_BLOCKS,
        lambda x: (x + 2.0) * EXP_NEG_2GAMMA,
        lambda x, end: EXP_NEG_2GAMMA * (0.5 * (x**2 - end**2) + 2.0 * (x - end)),
        2e-9,
    )


_GL12 = np.polynomial.legendre.leggauss(12)
_EDGE_EPS = 1e-12  # panel edges closer than this are merged


def _gauss_panels(a, b, gl, max_width):
    """Gauss nodes and weights on the panels [a[i], b[i]].

    Each panel is cut into equal parts no wider than max_width; also
    returns the number of parts of each panel.
    """
    parts = np.maximum(1.0, np.ceil((b - a) / max_width))
    step = (b - a) / parts
    counts = parts.astype(np.int64)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    i = (np.arange(counts.sum()) - first).astype(float)
    a0, step = np.repeat(a, counts), np.repeat(step, counts)
    lo, hi = a0 + i * step, a0 + (i + 1.0) * step
    xg, wg = gl
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    nodes = (mid[:, None] + rad[:, None] * xg[None, :]).ravel()
    weights = (rad[:, None] * wg[None, :]).ravel()
    return nodes, weights, counts


def _quad_sum(weights, values):
    """Quadrature sum over the last axis, always in one fixed order.

    This is numpy's pairwise sum of the products along a contiguous last
    axis; ``values`` may be a vector or a stack of rows (the complex kernel
    matrix of the g evaluator), with ``weights`` broadcast along the rows.
    Do not replace it with ``@`` or ``np.dot``: those reduce through BLAS,
    whose summation order depends on the CPU kernel OpenBLAS picks, so the
    last digits of every tabulated value, and the golden files built from
    them, would change from one machine to the next.
    """
    return (values * weights).sum(axis=-1)


def panel_rows(lo, his, breaks, gl, max_width):
    """Gauss nodes and weights over [lo, hi] for each hi of his, split at breaks.

    breaks holds one row of breakpoints per hi, NaN-padded; a scalar hi and
    a flat list of breaks make one row.  A breakpoint is dropped when it
    lies within _EDGE_EPS of an end of its interval or of its sorted
    predecessor.  No caller has breakpoints that chain within eps, so this
    drops the same points as a comparison with the last kept edge (the tests
    check every caller against that scalar rule).  Each interval between
    kept edges is cut into equal panels no wider than max_width.  Returns
    the nodes, the weights, and the node offsets of the rows.
    """
    eps = _EDGE_EPS
    his = np.atleast_1d(np.asarray(his, dtype=float))
    rows = len(his)
    pts = np.atleast_2d(np.asarray(breaks, dtype=float))
    pts = np.where((pts > lo + eps) & (pts < his[:, None] - eps), pts, np.nan)
    pts.sort(axis=1)  # NaN padding sorts last and is never kept
    los = np.full((rows, 1), float(lo))
    keep = pts - np.concatenate([los, pts[:, :-1]], axis=1) > eps
    inner = keep.sum(axis=1)
    ends = np.ones((rows, 1), bool)
    edges = np.concatenate([los, pts, his[:, None]], axis=1)
    edges = edges[np.concatenate([ends, keep, ends], axis=1)]
    # consecutive edges pair up into panels, except across a row boundary
    row_end = np.cumsum(inner + 2) - 1
    same_row = np.ones(len(edges) - 1, bool)
    same_row[row_end[:-1]] = False
    nodes, weights, parts = _gauss_panels(
        edges[:-1][same_row], edges[1:][same_row], gl, max_width
    )
    sub_end = np.cumsum(parts)[np.cumsum(inner + 1) - 1]
    offsets = np.concatenate([[0], sub_end * len(gl[0])])
    return nodes, weights, offsets


def build_growth_fn(ratio, rows=None, lam=None):
    """March f(v) = v - int_0^{(v-1)/2} f(u) ratio((v-u)/(u+1)) du/(u+1).

    f(v) reads f only on [0, (v-1)/2], and the quadrature splits at the
    integers, so the interpolation stencil of every node stays inside the
    node's unit block: each v in (a, 2a+1] reads grid rows up to the integer
    a only.  The march therefore takes its rows in (1, 3], (3, 7], (7, 15],
    ... one chunk at a time, quadraturing up to LAMBDA_BATCH_ROWS rows in one
    pass; each row is summed alone, in the order _quad_sum uses, so its bits
    depend neither on the batch it falls in nor on which other rows are
    marched.

    By default every row of a fresh table is marched.  Otherwise the
    ascending grid rows `rows` are marched into lam, a grid that already
    holds every row they read, and the table returned is over lam.  Rows
    not yet marched hold NaN, so a read of one shows as NaN, not a number.
    """
    h = 2.0**-LAMBDA_STEP_BITS
    block = 1 << LAMBDA_STEP_BITS
    n = (LAMBDA_VMAX - 1) * block
    if lam is None:
        lam = np.full(n + 1, np.nan)
        lam[0] = 1.0
    rows = np.arange(1, n + 1) if rows is None else np.asarray(rows, dtype=np.int64)
    fn = PiecewiseFn(
        name="growth_fn",
        exact_pieces=[(0.0, 1.0, lambda x: x.copy())],
        grid_step=h,
        grid_values=lam,
        tail_fn=None,
        err_budget=1e-7,
    )

    a, start = 1, 0
    while start < len(rows):
        stop = int(np.searchsorted(rows, 2 * a * block, side="right"))  # v <= 2a + 1
        for i in range(start, stop, LAMBDA_BATCH_ROWS):
            ks = rows[i : min(i + LAMBDA_BATCH_ROWS, stop)]
            vs = 1.0 + ks * h
            # the row of v covers [0, (v-1)/2], split at the integers and at
            # the kinks (v-j)/(j+1) of the ratio argument
            ub = (vs - 1.0) / 2.0
            ints = np.arange(1.0, int(ub.max()) + 1.0)
            js = np.arange(2.0, int(vs.max()) + 1.0)
            kinks = (vs[:, None] - js) / (js + 1.0)
            brks = np.concatenate([np.broadcast_to(ints, (len(vs), len(ints))), kinks], axis=1)
            nodes, weights, offsets = panel_rows(0.0, ub, brks, _GL12, 0.5)
            arg = (np.repeat(vs, np.diff(offsets)) - nodes) / (nodes + 1.0)
            terms = fn.eval_many(nodes) * ratio.eval_many(arg) / (nodes + 1.0) * weights
            sums = [terms[i:j].sum() for i, j in zip(offsets[:-1], offsets[1:])]
            lam[ks] = vs - np.array(sums)
        a, start = 2 * a + 1, stop
    return fn


class FnBundle:
    """The tabulated functions of one process, each built when first read."""

    @cached_property
    def _buchstab_tables(self):
        return build_buchstab()

    @cached_property
    def _ratio_tables(self):
        return build_ratio_fn()

    @property
    def buchstab(self):
        return self._buchstab_tables[0]

    @property
    def buchstab_cum(self):
        return self._buchstab_tables[1]

    @property
    def ratio(self):
        return self._ratio_tables[0]

    @property
    def ratio_cum(self):
        return self._ratio_tables[1]

    @cached_property
    def growth(self):
        """lambda, its grid marched row by row as reads reach it.

        A read marches the rows its stencils touch, and the prefix of rows
        1..D, D the last stencil row of u = (v_top - 1)/2 and v_top the
        read's highest row: every row that any of those rows reads.  Rows
        already marched (no longer NaN) are skipped, so no row is marched
        twice and each row has the bits of a march of the whole grid.
        """
        fn = build_growth_fn(self.ratio, rows=())
        lam, h = fn.grid_values, fn.grid_step

        def fill(j):
            _, (d,) = _stencil(h, len(lam), [(int(j.max()) + 3) * h / 2.0])
            want = np.zeros(len(lam), bool)
            want[: d + 4] = True
            want[j[:, None] + np.arange(4)] = True
            rows = np.flatnonzero(want & np.isnan(lam))
            if rows.size:
                build_growth_fn(self.ratio, rows, lam)

        fn.fill = fill
        return fn

    def buchstab_defect_integral(self, u):
        """int_0^u (buchstab(s) - e^-gamma) ds; tends to e^-gamma - 1."""
        us = np.atleast_1d(np.asarray(u, dtype=float))
        out = self.buchstab_cum.eval_many(us) - us * EXP_NEG_GAMMA
        return float(out[0]) if np.ndim(u) == 0 else out


@cache
def get_bundle():
    """The process-wide bundle; its tables are built on first read."""
    return FnBundle()
