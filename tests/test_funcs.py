"""Marched delay functions: examples, certificates, and cross-route checks."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import divmean
from divmean import constants, funcs, report
from divmean.constants import ratio_prime
from divmean.errors import RangeError
from divmean.funcs import (
    _GL12,
    _W_BWD,
    _W_FWD,
    _W_INT,
    _EDGE_EPS,
    EXP_NEG_2GAMMA,
    EXP_NEG_GAMMA,
    LAMBDA_STEP_BITS,
    LAMBDA_VMAX,
    OMEGA_BLOCKS,
    OMEGA_STEP_BITS,
    XI_BLOCKS,
    FnBundle,
    _cubic_interp,
    _gauss_panels,
    _stencil,
    build_growth_fn,
    get_bundle,
    panel_rows,
)
from oracles import checks
from oracles.checks import ratio_via_convolution

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(divmean.__file__).resolve().parents[1]


def _node(fn, u):
    """The grid value of fn at the grid abscissa u."""
    (k,) = np.flatnonzero(fn.grid == u)
    return fn.grid_values[k]


def _buchstab_residual(bundle, u):
    """u*w(u) - 1 - int_1^{u-1} w; zero on the true solution."""
    u = float(u)
    return u * bundle.buchstab(u) - 1.0 - bundle.buchstab_cum(u - 1.0)


def _ratio_residual(bundle, u):
    u = float(u)
    return u * bundle.ratio(u) - 2.0 - 2.0 * bundle.ratio_cum(u - 1.0)


class TestBuchstab:
    def test_below_support_exactly_zero(self, bundle):
        assert bundle.buchstab(0.5) == 0.0
        assert bundle.buchstab(-3.0) == 0.0

    def test_first_block_exact(self, bundle):
        assert bundle.buchstab(1.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert bundle.buchstab(1.0) == 1.0

    def test_settles_to_limit(self, bundle):
        assert abs(bundle.buchstab(10.0) - EXP_NEG_GAMMA) < 1.0 / math.gamma(11.0)

    def test_limit_certificate_on_grid(self, bundle):
        u = bundle.buchstab.grid
        bound = np.exp(-gammaln(u + 1.0))
        assert np.all(np.abs(bundle.buchstab.grid_values - EXP_NEG_GAMMA) < bound)

    def test_tail_is_constant(self, bundle):
        assert bundle.buchstab(25.0) == EXP_NEG_GAMMA

    def test_junction_continuity(self, bundle):
        w = bundle.buchstab
        # piece-piece at u=2, piece-grid at u=3, grid-tail at the far end
        assert abs(1.0 / 2.0 - (1.0 + math.log(1.0)) / 2.0) == 0.0
        assert abs((1.0 + math.log(2.0)) / 3.0 - _node(w, 3.0)) <= w.err_budget
        assert abs(w.grid_values[-1] - EXP_NEG_GAMMA) <= w.err_budget

    def test_defect_integral_converged_by_30(self, bundle):
        want = EXP_NEG_GAMMA - 1.0
        assert bundle.buchstab_defect_integral(30.0) == pytest.approx(want, abs=1e-6)
        # monotone-ish approach: partial integral at 5 is already close
        assert abs(bundle.buchstab_defect_integral(5.0) - want) < 1e-3

    @pytest.mark.parametrize("u", [3.3, 4.7, 8.1])
    def test_delay_equation_residual(self, u, bundle):
        assert abs(_buchstab_residual(bundle, u)) <= 1e-8


class TestRatioFn:
    def test_below_support_exactly_zero(self, bundle):
        assert bundle.ratio(0.5) == 0.0

    def test_left_edge(self, bundle):
        assert bundle.ratio(1.0) == 2.0

    def test_example_value(self, bundle):
        assert bundle.ratio(2.5) == pytest.approx(1.4487442, abs=5e-8)

    def test_asymptote_certificate_at_10(self, bundle):
        assert abs(bundle.ratio(10.0) - 12.0 * EXP_NEG_2GAMMA) < 4.0e-5

    def test_certificate_on_grid(self, bundle):
        u = bundle.ratio.grid
        m = u >= 1.5
        bound = np.exp(u[m] * math.log(2.0) - gammaln(u[m] + 1.0)) / 7.0
        gap = np.abs(bundle.ratio.grid_values[m] - (u[m] + 2.0) * EXP_NEG_2GAMMA)
        assert np.all(gap < bound)

    def test_envelope_bounds_on_grid(self, bundle):
        u = bundle.ratio.grid
        v = bundle.ratio.grid_values
        assert np.all(v >= (u + 2.0) / 4.0)
        assert np.all(v <= u + 1.0)

    def test_tail(self, bundle):
        assert bundle.ratio(20.0) == pytest.approx(22.0 * EXP_NEG_2GAMMA, abs=1e-12)

    @pytest.mark.parametrize("u", [3.3, 4.7, 8.1])
    def test_delay_equation_residual(self, u, bundle):
        assert abs(_ratio_residual(bundle, u)) <= 1e-8

    def test_junction_continuity(self, bundle):
        xi = bundle.ratio
        assert abs(2.0 / 2.0 - (4.0 * math.log(1.0) + 2.0) / 2.0) == 0.0
        want3 = (4.0 * math.log(2.0) + 2.0) / 3.0
        assert abs(want3 - _node(xi, 3.0)) <= xi.err_budget
        end = xi.grid_end
        assert abs(xi.grid_values[-1] - (end + 2.0) * EXP_NEG_2GAMMA) <= 1e-9


class TestRatioPrime:
    def test_right_limits_at_kinks(self):
        assert ratio_prime(1.0) == pytest.approx(-2.0, abs=1e-12)
        assert ratio_prime(2.0) == pytest.approx(1.5, abs=1e-9)

    def test_below_support(self):
        assert ratio_prime(0.5) == 0.0

    def test_certificate_on_grid(self, bundle):
        u = bundle.ratio.grid
        m = u >= 2.5
        vals = ratio_prime(u[m])
        bound = np.exp(u[m] * math.log(2.0) - gammaln(u[m] + 1.0)) / 7.0
        assert np.all(np.abs(vals - EXP_NEG_2GAMMA) < bound)

    def test_far_tail_is_exact_constant(self):
        assert ratio_prime(30.0) == pytest.approx(EXP_NEG_2GAMMA, abs=1e-14)

    def test_matches_central_difference(self, bundle):
        for u in (3.7, 5.2, 9.9):
            h = 1e-5
            num = (bundle.ratio(u + h) - bundle.ratio(u - h)) / (2 * h)
            assert ratio_prime(u) == pytest.approx(num, abs=1e-6)


class TestConvolutionRoute:
    def test_below_support(self, bundle):
        assert ratio_via_convolution(0.5, bundle.buchstab) == 0.0

    def test_first_block(self, bundle):
        got = ratio_via_convolution(1.5, bundle.buchstab)
        assert got == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_agreement_at_5(self, bundle):
        assert abs(ratio_via_convolution(5.0, bundle.buchstab) - bundle.ratio(5.0)) <= 1e-6

    def test_agreement_on_interval(self, bundle):
        us = np.arange(0.0, 10.0001, 0.05)
        worst = max(
            abs(ratio_via_convolution(float(u), bundle.buchstab) - bundle.ratio(float(u)))
            for u in us
        )
        assert worst <= 1e-6


class TestGrowthFn:
    def test_zero_below_support(self, bundle):
        assert bundle.growth(-1.0) == 0.0

    def test_identity_on_unit_interval(self, bundle):
        assert bundle.growth(0.5) == 0.5
        assert bundle.growth(0.0) == 0.0
        assert bundle.growth(1.0) == 1.0

    def test_frozen_oracle_values(self, bundle):
        text = (GOLDEN / "lambda_small_oracle.txt").read_text()
        for v_str, want_str in re.findall(r"lambda\(([\d.]+)\) = ([\d.]+)", text):
            got = bundle.growth(float(v_str))
            assert got == pytest.approx(float(want_str), abs=1e-7), v_str

    def test_asymptote_at_30(self, bundle):
        delta, c0, c1 = 0.7136125, 1.118192, 2.0 / (3.0 * EXP_NEG_2GAMMA - 2.0)
        approx = c0 * 31.0**delta + c1 / 31.0
        assert abs(bundle.growth(30.0) - approx) <= 10.0 * 31.0**-1.962

    def test_asymptote_window(self, bundle):
        delta, c0, c1 = 0.7136125, 1.118192, 2.0 / (3.0 * EXP_NEG_2GAMMA - 2.0)
        v = np.arange(20.0, 50.0001, 0.25)
        approx = c0 * (v + 1.0) ** delta + c1 / (v + 1.0)
        gap = np.abs(bundle.growth.eval_many(v) - approx)
        assert np.all(gap <= 10.0 * (v + 1.0) ** -1.962)

    def test_no_tail_beyond_grid(self, bundle):
        with pytest.raises(RangeError):
            bundle.growth(51.0)

    def test_monotone_increasing_sample(self, bundle):
        v = np.arange(1.0, 50.001, 0.5)
        vals = bundle.growth.eval_many(v)
        assert np.all(np.diff(vals) > 0)


class TestInterpolation:
    @settings(max_examples=60)
    @given(st.floats(min_value=3.0, max_value=13.9))
    def test_buchstab_locally_lipschitz(self, u):
        b = get_bundle()
        eps = 1e-6
        assert abs(b.buchstab(u + eps) - b.buchstab(u)) <= 1e-5

    @settings(max_examples=60)
    @given(st.floats(min_value=0.0, max_value=49.9))
    def test_growth_scalar_matches_vector(self, v):
        b = get_bundle()
        assert b.growth(v) == pytest.approx(float(b.growth.eval_many(np.array([v]))[0]), abs=0)

    def test_interp_reproduces_grid_nodes(self, bundle):
        xi = bundle.ratio
        block = 1 << OMEGA_STEP_BITS
        idx = np.array([3 * block + 7, 5 * block, 11 * block - 1])
        us = xi.grid[idx]
        got = xi.eval_many(us)
        assert np.allclose(got, xi.grid_values[idx], rtol=0, atol=1e-13)


# (table, closed form below the last exact piece end, that end): omega and
# xi are c0/u on [1, 2) and (c0 + c0^2 log(u-1))/u on [2, 3), lambda is u on
# [0, 1), and the integrals have no exact piece, so their grid starts at 1
_HANDOVER = [
    ("buchstab", lambda u: 1.0 / u if u < 2.0 else (1.0 + np.log(u - 1.0)) / u, 3.0),
    ("ratio", lambda u: 2.0 / u if u < 2.0 else (2.0 + 4.0 * np.log(u - 1.0)) / u, 3.0),
    ("buchstab_cum", None, 1.0),
    ("ratio_cum", None, 1.0),
    ("growth", lambda u: u, 1.0),
]


@pytest.mark.parametrize("name,closed,switch", _HANDOVER, ids=[h[0] for h in _HANDOVER])
def test_exact_pieces_hand_over_to_grid(name, closed, switch, bundle):
    fn = getattr(bundle, name)
    assert fn.grid[-1] == fn.grid_end
    us = np.array([1.0, 2.0, np.nextafter(3.0, 0.0), 3.0, fn.grid_end])
    for u, got in zip(us.tolist(), fn.eval_many(us).tolist()):
        if u < switch:
            assert got == closed(np.float64(u)), (name, u)
        elif u in fn.grid:
            assert got == _node(fn, u), (name, u)  # the interpolant reads the node back
        else:  # between nodes: the grid interpolant, not a closed form
            assert got == _cubic_interp(fn.grid_step, fn.grid_values, [u])[0], (name, u)


def _reference_cubic_interp(h, values, us):
    """The textbook form _cubic_interp replaced: each Lagrange weight and gather
    a fresh array; the in-place interpolant must give the same bits."""
    t = (np.asarray(us, dtype=float) - 1.0) / h
    block = round(1.0 / h)
    n_last = len(values) - 1
    k = np.clip(np.floor(t).astype(np.int64), 0, n_last - 1)
    blk = k // block
    j0 = np.clip(k - 1, blk * block, np.minimum((blk + 1) * block, n_last) - 3)
    x = t - j0
    v = np.asarray(values)
    y0, y1, y2, y3 = v[j0], v[j0 + 1], v[j0 + 2], v[j0 + 3]
    l0 = -(x - 1) * (x - 2) * (x - 3) / 6.0
    l1 = x * (x - 2) * (x - 3) / 2.0
    l2 = -x * (x - 1) * (x - 3) / 2.0
    l3 = x * (x - 1) * (x - 2) / 6.0
    return y0 * l0 + y1 * l1 + y2 * l2 + y3 * l3


@pytest.fixture(scope="module")
def full_growth(bundle):
    """lambda from one march of the whole grid, independent of earlier reads."""
    return build_growth_fn(bundle.ratio)


@pytest.mark.parametrize("name", ["buchstab", "ratio", "growth"])
def test_cubic_interp_bit_identical_to_reference(name, bundle, full_growth, rng):
    # the bundle's lambda grid holds NaN in rows no read has reached
    fn = full_growth if name == "growth" else getattr(bundle, name)
    g = fn.grid
    # random points, every node, block edges from both sides, and past both ends
    us = np.concatenate(
        [
            rng.uniform(g[0], g[-1], 50_000),
            g,
            np.nextafter(g[1:], 0.0),
            np.nextafter(g[:-1], np.inf),
            [g[0] - 0.25, g[-1] + 0.25],
        ]
    )
    got = _cubic_interp(fn.grid_step, fn.grid_values, us)
    _assert_same_bits(got, _reference_cubic_interp(fn.grid_step, fn.grid_values, us))


@pytest.mark.parametrize("name", ["buchstab", "ratio", "growth"])
def test_stencil_start_matches_clip_formula(name, bundle):
    # every node (grid_end included), both sides of every node, and midpoints
    fn = getattr(bundle, name)
    h, g = fn.grid_step, fn.grid
    us = np.concatenate(
        [g, np.nextafter(g[1:], 0.0), np.nextafter(g[:-1], np.inf), 0.5 * (g[1:] + g[:-1])]
    )
    _, j = _stencil(h, len(g), us)
    # the index arithmetic _cubic_interp used before the per-block shift table
    block = round(1.0 / h)
    k = np.clip(np.floor((us - 1.0) / h).astype(np.int64), 0, len(g) - 2)
    blk = k // block
    want = np.clip(k - 1, blk * block, np.minimum((blk + 1) * block, len(g) - 1) - 3)
    np.testing.assert_array_equal(j, want)


def _merge_edges(points, lo, hi):
    """The scalar edge rule that panel_rows replaced, kept as its reference.

    A point is dropped when it lies within _EDGE_EPS of an end or of the
    last edge kept before it.
    """
    eps = _EDGE_EPS
    pts = sorted(p for p in points if lo + eps < p < hi - eps)
    edges = [lo]
    for p in pts:
        if p - edges[-1] > eps:
            edges.append(p)
    if hi - edges[-1] > eps:
        edges.append(hi)
    else:
        edges[-1] = hi
    return edges


def _stepwise_growth_grid(ratio):
    """Reference lambda march: one Python step per grid node.

    This is the march the batched build_growth_fn replaced, panel loop
    included; the batched march must reproduce its values bit for bit.
    """
    h = 2.0**-LAMBDA_STEP_BITS
    block = 1 << LAMBDA_STEP_BITS
    n = (LAMBDA_VMAX - 1) * block
    lam = np.zeros(n + 1)
    lam[0] = 1.0
    xg, wg = _GL12
    for k in range(1, n + 1):
        v = 1.0 + k * h
        ub = (v - 1.0) / 2.0
        brks = list(range(1, int(ub) + 1))
        j = 2
        while (v - j) / (j + 1.0) > 0:
            brks.append((v - j) / (j + 1.0))
            j += 1
        edges = _merge_edges(brks, 0.0, ub)
        panels = []
        for a, b in zip(edges[:-1], edges[1:]):
            parts = max(1, math.ceil((b - a) / 0.5))
            step = (b - a) / parts
            panels += [(a + i * step, a + (i + 1) * step) for i in range(parts)]
        pa = np.array([p[0] for p in panels])
        pb = np.array([p[1] for p in panels])
        mid, rad = 0.5 * (pa + pb), 0.5 * (pb - pa)
        nodes = (mid[:, None] + rad[:, None] * xg[None, :]).ravel()
        weights = (rad[:, None] * wg[None, :]).ravel()
        lam_at = nodes.copy()
        m = lam_at >= 1.0
        lam_at[m] = _reference_cubic_interp(h, lam, lam_at[m])
        integrand = lam_at * ratio.eval_many((v - nodes) / (nodes + 1.0)) / (nodes + 1.0)
        lam[k] = v - float((integrand * weights).sum())
    return lam


def _reference_march_delay(c0, n_blocks, step_bits):
    """Reference omega/xi march: one Python step per node, panels completed lazily.

    This is the march the block-by-block _march_delay replaced.  It needs
    the cumulative value one full block back, while a panel's stencil reaches
    at most 3 nodes ahead, so completing panels once their stencil is known
    always stays ahead of the reads.
    """
    h = 2.0**-step_bits
    block = 1 << step_bits
    n = n_blocks * block

    def panel(p):
        r = p % block
        if r == 0:
            w, i0 = _W_FWD, p
        elif r == block - 1:
            w, i0 = _W_BWD, p - 2
        else:
            w, i0 = _W_INT, p - 1
        return h * (w[0] * f[i0] + w[1] * f[i0 + 1] + w[2] * f[i0 + 2] + w[3] * f[i0 + 3])

    u = (1.0 + np.arange(n + 1) * h).tolist()
    f = [0.0] * (n + 1)
    icum = [0.0] * (n + 1)
    for k in range(block + 1):
        f[k] = c0 / u[k]
        icum[k] = c0 * math.log(u[k])
    for k in range(block + 1, 2 * block + 1):
        f[k] = (c0 + c0 * c0 * math.log(u[k] - 1.0)) / u[k]
    for p in range(block, 2 * block):
        icum[p + 1] = icum[p] + panel(p)
    next_p = 2 * block
    for k in range(2 * block + 1, n + 1):
        f[k] = (c0 + c0 * icum[k - block]) / u[k]
        while next_p < n:
            r = next_p % block
            need = next_p + 3 if r == 0 else (next_p + 1 if r == block - 1 else next_p + 2)
            if need > k:
                break
            icum[next_p + 1] = icum[next_p] + panel(next_p)
            next_p += 1
    return np.array(f), np.array(icum)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, f"{differ.size} nodes differ, first at {differ[:5]}"


class TestPanelRule:
    """Every single-interval site gets the bits of the scalar edge rule.

    panel_rows drops a breakpoint near its sorted predecessor, the scalar
    rule one near the last kept edge; the two differ only where breakpoints
    chain within eps, so these check that no site has such a chain.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append((args, panel_rows(*args)))
            return calls[-1][1]

        monkeypatch.setattr(constants, "panel_rows", spy)
        monkeypatch.setattr(funcs, "panel_rows", spy)
        monkeypatch.setattr(checks, "panel_rows", spy)  # the convolution route's own import
        return calls

    @staticmethod
    def _assert_scalar_rule(calls, n_calls):
        assert len(calls) == n_calls
        for (lo, his, breaks, gl, max_width), (nodes, weights, offsets) in calls:
            rows = np.atleast_2d(np.asarray(breaks, dtype=float))
            for i, hi in enumerate(np.atleast_1d(his)):
                pts = rows[i][~np.isnan(rows[i])].tolist()
                e = np.array(_merge_edges(pts, lo, float(hi)))
                want_nodes, want_weights, _ = _gauss_panels(e[:-1], e[1:], gl, max_width)
                part = slice(offsets[i], offsets[i + 1])
                _assert_same_bits(nodes[part], want_nodes)
                _assert_same_bits(weights[part], want_weights)

    # the default width, and the one count_zeros_rect uses on the wide rectangle
    @pytest.mark.parametrize("width", [0.25, constants._width_for_rect(-3 - 62j, 3 + 62j)])
    @pytest.mark.parametrize("V", [5.0, 6.0, 7.0, 8.0, None])
    def test_g_evaluator(self, V, width, calls):
        constants.GEvaluator(V=V, panel_width=width)
        self._assert_scalar_rule(calls, 1)

    def test_lambda0_via_integral(self, calls):
        constants.lambda0_via_I(0.7136125)
        self._assert_scalar_rule(calls, 1)

    @pytest.mark.parametrize("sigma", [-3.0, 0.0, 1.0])
    def test_h_bound_with_its_crossings(self, sigma, calls):
        constants.H_bound(sigma)
        self._assert_scalar_rule(calls, 1)
        breaks = np.asarray(calls[0][0][2])
        assert (breaks != np.round(breaks)).any()  # the crossings of ratio' and e^-2gamma

    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_transform_check(self, s, calls):
        constants.buchstab_transform_check(s)
        self._assert_scalar_rule(calls, 2)

    def test_q_panels(self, calls):
        constants._q_panels.__wrapped__()
        self._assert_scalar_rule(calls, 3)

    @pytest.mark.parametrize("u", [2.5, 5.0, 7.25, 12.0])
    def test_convolution_route(self, u, calls, bundle):
        ratio_via_convolution(u, bundle.buchstab)
        self._assert_scalar_rule(calls, 1)


class TestBatchedMarch:
    def test_bit_identical_to_stepwise_march(self, bundle, full_growth):
        _assert_same_bits(full_growth.grid_values, _stepwise_growth_grid(bundle.ratio))

    @pytest.mark.parametrize("rows", [1, 37])
    def test_grid_bits_do_not_depend_on_the_batch(self, rows, bundle, full_growth, monkeypatch):
        want = full_growth.grid_values
        monkeypatch.setattr(funcs, "LAMBDA_BATCH_ROWS", rows)
        _assert_same_bits(build_growth_fn(bundle.ratio).grid_values, want)

    @pytest.mark.parametrize(
        "c0,blocks,fn,cum",
        [
            (1.0, OMEGA_BLOCKS, "buchstab", "buchstab_cum"),
            (2.0, XI_BLOCKS, "ratio", "ratio_cum"),
        ],
        ids=["omega", "xi"],
    )
    def test_block_march_bit_identical_to_lazy_march(self, c0, blocks, fn, cum, bundle):
        vals, icum = _reference_march_delay(c0, blocks, OMEGA_STEP_BITS)
        _assert_same_bits(getattr(bundle, fn).grid_values, vals)
        _assert_same_bits(getattr(bundle, cum).grid_values, icum)


def _nodes(*ks):
    """Grid rows k0..k1 of each inclusive pair (k0, k1), ascending."""
    return np.concatenate([np.arange(k0, k1 + 1) for k0, k1 in ks])


class TestDemandMarch:
    """A read marches its stencil rows and the dense prefix those rows read."""

    @staticmethod
    def _spied_bundle(bundle, monkeypatch):
        """A fresh bundle sharing the session's xi, and the rows of each march."""
        marched, build = [], funcs.build_growth_fn

        def spy(ratio, rows=None, lam=None):
            marched.append(None if rows is None else np.array(rows))
            return build(ratio, rows, lam)

        monkeypatch.setattr(funcs, "build_growth_fn", spy)
        b = FnBundle()
        b.__dict__["_ratio_tables"] = bundle._ratio_tables
        assert np.isnan(b.growth.grid_values[1:]).all()  # the empty table
        assert len(marched) == 1 and marched.pop().size == 0
        return b, marched

    def test_reads_march_each_row_once(self, bundle, full_growth, monkeypatch):
        b, marched = self._spied_bundle(bundle, monkeypatch)
        # (read, rows it marches): 24.0 reads the next block's first rows
        # 2944-2947 and (24.0234375 - 1)/2 reads up to row 1347; 50.0 reads
        # 6269-6272, clamped to the last block, and (50 - 1)/2 up to row 3010
        reads = [
            (24.0, _nodes((1, 1347), (2944, 2947))),
            (1.0, None),
            (10.0, None),
            (50.0, _nodes((1348, 2943), (2948, 3010), (6269, 6272))),
            (23.25, None),
            ([37.5, 24.0, 2.0], _nodes((4671, 4674))),
            (50.0, None),
        ]
        for v, want in reads:
            b.growth.eval_many(v)
            if want is None:
                assert not marched, v
            else:
                (got,) = marched
                np.testing.assert_array_equal(got, want)
                marched.clear()
        lam = b.growth.grid_values
        done = _nodes((1, 3010), (4671, 4674), (6269, 6272))
        assert np.isnan(np.delete(lam, np.append(0, done))).all()
        _assert_same_bits(lam[done], full_growth.grid_values[done])

    @pytest.mark.parametrize(
        "reads",
        [
            [50.0, 40.0, 30.0, 2.0, 1.0, 20.0, 10.0, 50.0],
            [
                np.nextafter(24.0, 0.0),
                np.nextafter(24.0, 50.0),
                np.nextafter(3.0, 0.0),
                3.0,
                np.nextafter(49.0, 50.0),
                np.nextafter(50.0, 0.0),
            ],
            [1.0 + 4321 / 128, 1.0 + 129 / 128, [1.0 + 6000 / 128, 1.0 + 2222 / 128]],
            [np.linspace(25.0, 50.0, 11), 12.3, np.arange(1.0, 12.0, 0.7), 12.3],
        ],
        ids=["integers", "block-edges", "grid-nodes", "vectors"],
    )
    def test_every_read_keeps_the_bits_of_a_full_march(
        self, reads, bundle, full_growth, monkeypatch
    ):
        b, marched = self._spied_bundle(bundle, monkeypatch)
        for v in reads:
            _assert_same_bits(
                np.atleast_1d(b.growth.eval_many(v)), np.atleast_1d(full_growth.eval_many(v))
            )
        rows = np.concatenate(marched)
        assert np.unique(rows).size == rows.size  # no row marched twice
        lam = b.growth.grid_values
        assert np.isnan(np.delete(lam, np.append(0, rows))).all()
        _assert_same_bits(lam[rows], full_growth.grid_values[rows])

    def test_read_past_the_grid_marches_nothing(self, monkeypatch):
        b = FnBundle()
        monkeypatch.setattr(funcs, "get_bundle", lambda: b)  # report reads it from funcs
        with pytest.raises(RangeError):
            b.growth(51.0)
        with pytest.raises(RangeError):
            report.tabulate_fn("lambda", 0, 60, 1)
        assert b.growth.grid_values[0] == 1.0 and np.isnan(b.growth.grid_values[1:]).all()


@pytest.mark.parametrize("name", ["buchstab", "ratio", "growth", "buchstab_cum", "ratio_cum"])
def test_nan_reads_nan(name, bundle):
    """NaN is not a point below the domain: it reads NaN, scalar and vector."""
    fn = getattr(bundle, name)
    assert math.isnan(fn(math.nan))
    got = fn.eval_many([math.nan, -1.0, 2.5, math.nan])
    assert np.isnan(got[[0, 3]]).all()
    assert got[1] == 0.0 and got[2] == fn(2.5) and not math.isnan(got[2])


def _fresh_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLaziness:
    """Each table is built on first read; scipy loads only where it is called.

    These run in fresh interpreters: the session bundle fixture shares one
    process-wide bundle whose tables other tests have already built.
    """

    def test_cli_import_loads_no_scipy(self):
        out = _fresh_python(
            "import divmean.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_cli_import_loads_no_thread_pool(self):
        # the chain walk is serial; concurrent.futures cost ~6 ms per process
        out = _fresh_python(
            "import divmean.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
        )
        assert out.strip() == "[]"

    def test_constants_commands_load_no_scipy(self):
        out = _fresh_python(
            "import contextlib, io\n"
            "from divmean.cli import main\n"
            "for argv in (['constants', '--json'], ['constants', '--v', '6']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_commands_without_lambda_never_build_it(self):
        out = _fresh_python(
            "from divmean.constants import constants_document\n"
            "from divmean.funcs import get_bundle\n"
            "from divmean.report import compare_rough, emit_figure_data, tabulate_fn\n"
            "steps = [\n"
            "    lambda: tabulate_fn('omega', 0.0, 10.0, 0.25),\n"
            "    lambda: tabulate_fn('xi', 0.0, 10.0, 0.25),\n"
            "    lambda: emit_figure_data('fig1'),\n"
            "    lambda: compare_rough(10**5, 100),\n"
            "    lambda: constants_document(),\n"
            "    lambda: tabulate_fn('lambda', 0.0, 10.0, 0.25),\n"
            "]\n"
            "for step in steps:\n"
            "    step()\n"
            "    print('growth' in vars(get_bundle()))\n"
        )
        # the last step reads lambda, so the check can see a build
        assert out.split() == ["False"] * 5 + ["True"]
