"""Root-finding lab: truncated evaluator, dual routes, windings, certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1, gammaln

from divmean import constants as C
from divmean._util import EULER_GAMMA
from divmean.errors import ContourError, PoleError, RangeError, SolverError
from divmean.funcs import EXP_NEG_2GAMMA


def test_euler_gamma_literal_is_numpys():
    # _util spells gamma out, so report takes e^-gamma without running funcs
    assert EULER_GAMMA == float(np.euler_gamma)


class TestGEvaluator:
    def test_known_zeros_nearly_vanish(self):
        assert abs(C.GEvaluator(6.0).g(-1.0)) < 1e-4
        assert abs(C.GEvaluator(6.0).g(0.7136125)) < 1e-4

    def test_blows_down_near_pole(self):
        assert C.GEvaluator().g(0.99) < -20.0

    def test_poles_raise(self):
        with pytest.raises(PoleError):
            C.GEvaluator().g(0.0)
        with pytest.raises(PoleError):
            C.GEvaluator().g(1.0)
        with pytest.raises(PoleError):
            C.GEvaluator().g_prime(1.0)

    def test_truncation_domain(self):
        with pytest.raises(RangeError):
            C.GEvaluator(4.9).g(0.5)
        with pytest.raises(RangeError):
            C.GEvaluator(8.1).g(0.5)
        C.GEvaluator(8.0).g(0.5)  # boundary allowed

    def test_real_in_real_out(self):
        assert isinstance(C.GEvaluator().g(0.5), float)
        assert isinstance(C.GEvaluator().g(0.5 + 0.5j), complex)

    @pytest.mark.parametrize("V", [5.0, 6.0, 7.0, 8.0])
    def test_tail_bound_certified_small(self, V):
        assert C._evaluator(V=V).tail_bound(-3.0) < 0.0035

    def test_tail_bound_shrinks_with_V(self):
        b5 = C._evaluator(V=5.0).tail_bound(-3.0)
        b6 = C._evaluator(V=6.0).tail_bound(-3.0)
        b8 = C._evaluator(V=8.0).tail_bound(-3.0)
        assert b5 > b6 > b8

    @settings(max_examples=40)
    @given(
        re=st.floats(min_value=-3.0, max_value=3.0),
        im=st.floats(min_value=0.5, max_value=60.0),
    )
    def test_conjugate_symmetry(self, re, im):
        ev = C._evaluator(V=6.0)
        s = complex(re, im)
        g1 = complex(ev.g_many(np.array([s]))[0])
        g2 = complex(ev.g_many(np.array([np.conj(s)]))[0])
        assert abs(np.conj(g1) - g2) <= 1e-12 * (1.0 + abs(g1))


class TestEvaluatorCache:
    def test_document_and_four_truncations_build_at_most_seven(self, monkeypatch):
        # full table; V = 5, 6, 7, 8 at the default width; V = 5, 6 at the
        # width of the wide census rectangle
        built = []

        class Counting(C.GEvaluator):
            def __init__(self, *args, **kwargs):
                built.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(C, "GEvaluator", Counting)
        C._evaluator_at.cache_clear()
        try:
            C.constants_document()
            for V in (5.0, 6.0, 7.0, 8.0):
                C.find_delta_via_g(V)
            assert C._evaluator(V=6) is C._evaluator(V=6.0, panel_width=0.25)
        finally:
            C._evaluator_at.cache_clear()
        assert len(built) <= 7, built


class TestDeltaRoutes:
    def test_bracket_default(self):
        cert = C.find_delta_via_g()
        assert cert.method == "real-bisection"
        assert cert.winding == 1
        assert cert.location.imag == 0.0
        assert C.DELTA_BRACKET[0] < cert.location.real < C.DELTA_BRACKET[1]
        assert cert.residual < 1e-12

    def test_truncation_stability(self):
        d5 = C.find_delta_via_g(5.0).location.real
        d6 = C.find_delta_via_g(6.0).location.real
        assert C.DELTA_BRACKET[0] < d5 < C.DELTA_BRACKET[1]
        assert abs(d5 - d6) < 1e-5

    def test_divisor_route_agrees(self):
        cq = C.find_delta_via_Q()
        dg = C.find_delta_via_g(6.0).location.real
        assert C.DELTA_BRACKET[0] < cq.location.real < C.DELTA_BRACKET[1]
        assert abs(cq.location.real - dg) <= 1e-6
        assert cq.winding == 1
        assert cq.truncation_V is None
        # the transform route carries its own leading-coefficient estimate
        assert abs(cq.residue.real - 1.118192) < 1e-5

    def test_no_sign_change_is_solver_error(self):
        ev = C._evaluator(V=6.0)
        with pytest.raises(SolverError):
            C._bisect_real_root(ev.g, 0.15, 0.45)


class TestExpIntegral:
    def test_value_at_one(self):
        want = 0.21938393439552026
        assert abs(C.exp_integral_J(1.0) - want) <= 1e-13 * want

    def test_domain(self):
        with pytest.raises(RangeError):
            C.exp_integral_J(0.0)
        with pytest.raises(RangeError):
            C.exp_integral_J(-1.0)

    def test_log_singularity_cancels(self):
        u = 1e-8
        assert abs(C.exp_integral_J(u) + EULER_GAMMA + math.log(u)) < 1e-7

    def test_fast_decay(self):
        assert C.exp_integral_J(10.0) < math.exp(-10.0) / 10.0

    @pytest.mark.parametrize("u", [0.3, 1.0])
    def test_series_oracle(self, u):
        # alternating series for the integral, summed independently of scipy
        acc = -EULER_GAMMA - math.log(u)
        term_sum = 0.0
        for k in range(1, 25):
            term_sum += (-1.0) ** (k + 1) * u**k / (k * math.factorial(k))
        assert abs(C.exp_integral_J(u) - (acc + term_sum)) < 1e-12

    def test_nan_and_inf(self):
        assert math.isnan(C.exp_integral_J(math.nan))
        assert C.exp_integral_J(math.inf) == 0.0
        got = C.exp_integral_J(np.array([[1.0, math.nan], [math.inf, 2.0]]))
        assert got.shape == (2, 2)
        assert np.isnan(got[0, 1]) and got[1, 0] == 0.0


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestSpecialPorts:
    """The E1 and log Gamma ports give scipy's bits; scipy is the oracle only."""

    def test_e1_sweep_matches_scipy(self, rng):
        xs = np.concatenate(
            [
                np.geomspace(2e-9, 700.0, 40_000),
                rng.uniform(1e-3, 0.5, 10_000),  # the series branch
                rng.uniform(0.5, 1.0, 10_000),
                rng.uniform(1.0, 50.0, 10_000),  # the continued fraction
                [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324, 1e300],
            ]
        )
        _assert_same_bits(C.exp_integral_J(xs), exp1(xs))

    def test_e1_on_the_quadrature_nodes(self):
        # the nodes of Q_eval's panels and of buchstab_transform_check's
        nodes = [u for u, _, _ in C._q_panels()] + [C._u_panels(1e-3)[0]]
        for u in nodes:
            _assert_same_bits(C.exp_integral_J(u), exp1(u))

    def test_lgam_sweep_matches_scipy(self, rng):
        xs = np.concatenate(
            [
                np.geomspace(13.0, 1e6, 40_000),
                rng.uniform(13.0, 100.0, 10_000),
                np.arange(13.0, 1100.0),  # both sides of the x = 1000 switch
                [np.nextafter(1000.0, 0.0), 1e8, np.nextafter(1e8, 1e9), 1e12],
            ]
        )
        got = np.array([C._lgam(x) for x in xs.tolist()])
        _assert_same_bits(got, gammaln(xs))

    def test_lgam_on_the_tail_envelope_points(self, bundle):
        # _tail_envelope reads log Gamma at grid_end + 1, grid_end + 2, ...
        xs = bundle.ratio.grid_end + 1.0 + np.arange(60.0)
        _assert_same_bits(np.array([C._lgam(x) for x in xs.tolist()]), gammaln(xs))

    def test_lgam_domain(self):
        for x in (12.999, 1.0, math.nan):
            with pytest.raises(RangeError):
                C._lgam(x)

    def test_q_panels_built_once(self, monkeypatch):
        calls = []
        e1 = C._e1
        monkeypatch.setattr(C, "_e1", lambda x: calls.append(x) or e1(x))
        C._q_panels.cache_clear()
        first = C.Q_eval(0.5)
        e1_nodes = sum(len(u) for u, _, _ in C._q_panels()[1:])  # the mid and high panels
        assert len(calls) == e1_nodes
        assert C.Q_eval(0.5) == first
        assert C.Q_eval(0.25 + 1j) != first
        assert len(calls) == e1_nodes


class TestDivisorTransform:
    def test_small_u_taylor_oracle(self):
        # u^2 * (e^{2J} - 1) tends to b0 with slope b1
        for u in (1e-5, 1e-6):
            f = math.expm1(2.0 * float(exp1(u)))
            got = u * u * f
            assert abs(got - C.B0 - C.B1 * u) < 1.0 * u * u

    def test_poles_raise(self):
        with pytest.raises(PoleError):
            C.Q_eval(0.0)
        with pytest.raises(PoleError):
            C.Q_eval(1.0)

    @pytest.mark.parametrize("s", [0.7136125, 2.0, -0.5, 0.25 + 3j])
    def test_matches_scipy_built_reference(self, s):
        # the integrand rebuilt on every call, with scipy's exp1, as Q_eval
        # once did: the cached panels and the E1 port keep every bit
        from divmean.funcs import _gauss_panels

        def _panel_nodes(edges, gl, max_width):
            e = np.asarray(edges)
            return _gauss_panels(e[:-1], e[1:], gl, max_width)[:2]

        eps = 1e-3
        c0, c1, c2 = 1.5 * C.B0 - 1.0, (4.0 / 9.0) * C.B0, -(1.0 / 144.0) * C.B0
        head = (
            c0 * eps ** (s + 1) / (s + 1)
            + c1 * eps ** (s + 2) / (s + 2)
            + c2 * eps ** (s + 3) / (s + 3)
        )
        edges_low = [eps]
        while edges_low[-1] < 0.5:
            edges_low.append(edges_low[-1] * 2.0)
        u, w = _panel_nodes(edges_low, C._GL16, max_width=1.0)
        core = C.B0 * (np.expm1(C._phi(u)) - 2.0 * u) / u**2 - 1.0
        part_low = ((np.power(u, s) * core) * w).sum()
        u, w = _panel_nodes([edges_low[-1], 0.75, 1.0], C._GL16, max_width=1.0)
        core = np.expm1(2.0 * exp1(u)) - C.B0 / u**2 - C.B1 / u
        part_mid = ((np.power(u, s) * core) * w).sum()
        edges_hi = [1.0]
        while edges_hi[-1] < C._U_END:
            edges_hi.append(min(edges_hi[-1] * 1.5, C._U_END))
        u, w = _panel_nodes(edges_hi, C._GL16, max_width=np.inf)
        part_hi = ((np.power(u, s) * np.expm1(2.0 * exp1(u))) * w).sum()
        want = head + part_low + part_mid + C.B0 / (s - 1.0) + C.B1 / s + part_hi
        assert C.Q_eval(s) == (want.real if isinstance(s, float) else complex(want))

    def test_gamma_bridge_at_2(self):
        lhs = 3.0 * C.Q_eval(2.0)
        rhs = 2.0 * math.gamma(3.0) * C.GEvaluator(8.0).g(2.0)
        assert abs(lhs - rhs) <= 1e-6


class TestContour:
    def test_wide_rect_net_count(self):
        assert C.count_zeros_rect(-3 - 62j, 3 + 62j, V=6.0) == 2

    def test_tiny_square_isolates_pair_zero(self):
        assert C.count_zeros_rect(-1.963 + 11.574j, -1.961 + 11.576j, V=6.0) == 1

    def test_right_strip_empty_with_direct_oracle(self):
        lo, hi = 2.1 - 62j, 3.0 + 62j
        assert C.count_zeros_rect(lo, hi, V=6.0) == 0
        # oracle: fixed dense sampling, plain phase summation
        ev = C._evaluator(V=6.0, panel_width=C._width_for_rect(lo, hi))
        corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag), lo]
        total = 0.0
        for a, b in zip(corners[:-1], corners[1:]):
            zs = a + (b - a) * np.linspace(0.0, 1.0, 30001)
            gs = ev.g_many(zs)
            total += float(np.angle(gs[1:] / gs[:-1]).sum())
        assert round(total / (2.0 * math.pi)) == 0

    def test_census(self):
        assert C.zero_pole_census(6.0) == {
            "wide_rect": 2,
            "square_delta": 1,
            "square_minus_one": 1,
            "square_pair_upper": 1,
            "square_pair_lower": 1,
            "square_pole_zero": -1,
            "square_pole_one": -1,
        }

    def test_boundary_through_zero_rejected(self):
        d = C.find_delta_via_g(6.0).location.real
        with pytest.raises(ContourError):
            C.count_zeros_rect(complex(0.46, -0.25), complex(d, 0.25), V=6.0)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(RangeError):
            C.count_zeros_rect(1 + 1j, 1 + 2j)


class TestRouche:
    def test_truncation_under_margin(self):
        assert C._evaluator(V=5.0).tail_bound(-3.0) < 0.0035

    def test_boundary_floor(self):
        assert C.rect_boundary_min(-3 - 62j, 3 + 62j, V=5.0) > 0.0051


class TestRefinement:
    def test_delta_certificate(self):
        cert = C.refine_zero(0.7136125)
        assert cert.method == "real-bisection"
        assert C.DELTA_BRACKET[0] < cert.location.real < C.DELTA_BRACKET[1]
        assert cert.location.imag == 0.0
        assert cert.residual <= 1e-10
        assert cert.winding == 1
        assert cert.truncation_V == pytest.approx(17.0)
        assert abs(cert.residue.real - 1.118192) < 1e-6

    def test_minus_one_certificate(self):
        cert = C.refine_zero(-1.0)
        assert abs(cert.location.real + 1.0) < 1e-9
        assert abs(cert.residue.real - C.lambda1_closed_form()) < 1e-6

    def test_pair_certificate(self):
        cert = C.refine_zero(-1.962 + 11.575j)
        assert cert.method == "complex-refine"
        assert cert.residual <= 1e-10
        assert cert.winding == 1
        assert abs(cert.location.real + 1.962) < 1e-3
        assert abs(cert.location.imag - 11.575) < 1e-3
        # truncated decimals as printed: -0.0078..., +0.0031...
        assert -0.0079 < cert.residue.real < -0.0078
        assert 0.0031 < cert.residue.imag < 0.0032

    def test_conjugate_root(self):
        up = C.refine_zero(-1.962 + 11.575j)
        dn = C.refine_zero(-1.962 - 11.575j)
        assert abs(dn.location - np.conj(up.location)) < 1e-9
        assert abs(dn.residue - np.conj(up.residue)) < 1e-9

    def test_json_shape(self):
        cert = C.refine_zero(-1.0)
        js = cert.as_json()
        assert set(js) == {
            "location",
            "enclosure",
            "winding",
            "residual",
            "residue",
            "method",
            "truncation_V",
        }
        assert set(js["location"]) == {"re", "im"}
        assert set(js["residue"]) == {"re", "im"}
        assert set(js["enclosure"]) == {"lo", "hi"}
        lo, hi = cert.enclosure
        assert lo.real < cert.location.real < hi.real
        assert lo.imag < cert.location.imag < hi.imag

    def test_real_seed_without_root_fails(self):
        with pytest.raises(SolverError):
            C.refine_zero(2.5)

    def test_newton_divergence_fails(self):
        with pytest.raises(SolverError):
            C.refine_zero(40.0 + 40.0j)


class TestLeadingResidue:
    def test_routes_agree(self):
        cert = C.refine_zero(0.7136125)
        via_residue = cert.residue.real
        via_integral = C.lambda0_via_I(cert.location.real)
        assert abs(via_residue - via_integral) <= 1e-5
        assert abs(via_residue - 1.118192) < 1e-6
        assert abs(via_integral - 1.118192) < 1e-6

    def test_sign_structure(self):
        cert = C.refine_zero(0.7136125)
        d = cert.location.real
        lam0 = C.lambda0_via_I(d)
        assert d * (d - 1.0) < 0.0
        implied_i = 1.0 / (lam0 * d * (d - 1.0))
        assert implied_i < 0.0
        assert lam0 > 0.0


class TestHBound:
    def test_value_at_minus_three(self):
        assert C.H_bound(-3.0) < 62.0

    def test_monotone_decreasing(self):
        hs = [C.H_bound(s) for s in (-3.0, -1.0, 0.0, 1.0)]
        assert hs[0] > hs[1] > hs[2] > hs[3]


class TestSieveTransform:
    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_identity(self, s):
        r = C.buchstab_transform_check(s)
        assert abs(r["gap"]) <= 1e-6 * max(1.0, abs(r["rhs"]))

    def test_near_pole_ratio(self):
        r = C.buchstab_transform_check(1.01)
        assert abs(math.log(r["ratio"])) < 1e-3

    def test_domain(self):
        with pytest.raises(RangeError):
            C.buchstab_transform_check(1.0)
        with pytest.raises(RangeError):
            C.buchstab_transform_check(0.5)


class TestDocument:
    def test_deterministic_and_complete(self):
        d1 = C.constants_document()
        d2 = C.constants_document()
        assert C.document_to_json(d1) == C.document_to_json(d2)
        assert set(d1) >= {
            "delta",
            "lambda0",
            "lambda1",
            "complex_pair",
            "census",
            "rouche",
            "H",
        }
        assert d1["rouche"]["tail_bound_V5"] < 0.0035
        assert d1["rouche"]["boundary_min_V5"] > 0.0051
