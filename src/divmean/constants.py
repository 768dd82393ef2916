"""Mellin-side machinery: the generating function g, its roots, and residues.

g(s) = 1 + int_0^inf gap(v) (v+1)^{-s-1} dv + c/s + c/(s-1),  c = e^{-2*gamma},

where gap(v) = ratio_fn(v) - (v+2)*e^{-2*gamma} decays superexponentially.
Substituting w = log(v+1) turns the integral into int E(w) e^{-sw} dw over a
finite interval, precomputed once on Gauss panels, so evaluating g anywhere
in the half-plane is a dot product.  Roots of g become poles of the mean
transfer function 1/(s(s-1)g(s)); each residue is 1/(s0(s0-1)g'(s0)).

Truncating the v-integral at V in [5, 8] is the public contract; root and
residue refinement quietly uses the whole tabulated range so certificates
carry a truncation error near the table's noise floor, recorded per
certificate in truncation_V.

E1 and log Gamma are scalar ports of the algorithms behind scipy.special's
exp1 and gammaln, bit for bit, so no run path imports scipy.
"""

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._util import EULER_GAMMA, EXP_NEG_2GAMMA, EXP_NEG_GAMMA
from .errors import ContourError, PoleError, RangeError, SolverError
from .funcs import _quad_sum, get_bundle, panel_rows

DELTA_BRACKET = (0.713611, 0.713614)
_GL16 = np.polynomial.legendre.leggauss(16)
_POLE_EPS = 1e-9
_U_END = 40.0  # u-integrals stop here: e^{2J(u)} - 1 < 1e-18 beyond
_Q_EPS = 1e-3  # Q_eval integrates [0, _Q_EPS] from a Taylor head
_BISECT_HALF = 1e-4  # half side of the square around a bisection root of g
_REFINE_HALF = 1e-5  # ... and around a root polished on the full table
_WALK_MAX_PTS = 200_000  # points on one side of a contour walk

B0 = EXP_NEG_2GAMMA
B1 = 2.0 * EXP_NEG_2GAMMA


def _refuse_pole(s):
    if abs(s) < _POLE_EPS or abs(s - 1.0) < _POLE_EPS:
        raise PoleError(f"s = {s} is a pole of the continuation")


class GEvaluator:
    """g and g' from a fixed Gauss discretization of the gap integral up to V,
    or over the whole xi table when V is None."""

    def __init__(self, V=6.0, panel_width=0.25):
        self._xi = get_bundle().ratio
        if V is None:
            v_hi = self._xi.grid_end
        else:
            if not 5.0 <= V <= 8.0:
                raise RangeError(f"truncation V must lie in [5, 8], got {V}")
            v_hi = float(V)
        self.truncation_V = v_hi
        w_hi = math.log(v_hi + 1.0)
        breaks = [math.log(k + 1.0) for k in range(0, int(v_hi) + 1)]
        wn, wts, _ = panel_rows(0.0, w_hi, breaks, _GL16, panel_width)
        v = np.expm1(wn)
        gap = self._xi.eval_many(v) - (v + 2.0) * EXP_NEG_2GAMMA
        self._wn = wn
        self._coef = wts * gap

    def g_many(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        kern = np.exp(-np.outer(s, self._wn))
        integral = _quad_sum(self._coef, kern)
        return 1.0 + integral + EXP_NEG_2GAMMA / s + EXP_NEG_2GAMMA / (s - 1.0)

    def g_prime_many(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        kern = np.exp(-np.outer(s, self._wn))
        integral = _quad_sum(-self._wn * self._coef, kern)
        return integral - EXP_NEG_2GAMMA / s**2 - EXP_NEG_2GAMMA / (s - 1.0) ** 2

    def g(self, s):
        return _at_point(self.g_many, s)

    def g_prime(self, s):
        return _at_point(self.g_prime_many, s)

    def tail_bound(self, sigma_min):
        """Certified |g - g_V| on Re s >= sigma_min: upper sum of the
        discarded |gap| against the largest kernel weight per panel."""
        return _truncation_bound(self.truncation_V, sigma_min, self._xi)


def _at_point(many, s):
    """many at the one point s, real for a real s; the poles 0 and 1 are refused."""
    _refuse_pole(complex(s))
    out = complex(many(s)[0])
    return out.real if np.isrealobj(np.asarray(s)) else out


def _truncation_bound(v_from, sigma_min, xi):
    p = -sigma_min - 1.0  # |(v+1)^{-s-1}| <= (v+1)^p
    h = xi.grid_step
    u = xi.grid
    gap = np.abs(xi.grid_values - (u + 2.0) * EXP_NEG_2GAMMA) + xi.err_budget
    m = u >= v_from - 1e-12
    ga, ua = gap[m], u[m]
    if len(ga) >= 2:
        sup_gap = np.maximum(ga[:-1], ga[1:])
        # between-node wiggle: |gap''| on the discarded range only (the gap
        # jumps at v=1, far below any admissible truncation point)
        d2 = np.abs(np.diff(ga, 2)).max() / h**2 if len(ga) >= 3 else 0.0
        sup_gap = sup_gap + (h * h / 8.0) * 1.5 * d2
        wl = (ua[:-1] + 1.0) ** p
        wr = (ua[1:] + 1.0) ** p
        sup_w = np.maximum(wl, wr)
        total = float((sup_gap * sup_w).sum() * h)
    else:
        total = 0.0
    return _tail_envelope(xi.grid_end, p, total)


def _tail_envelope(end, p, total):
    """total plus the tail past the table: envelope 2^v / (7 Gamma(v+1)) times
    the larger end of the weight (v+1)^p on each unit step from end."""
    for k in range(60):
        a = end + k
        env = math.exp((a + 1.0) * math.log(2.0) - _lgam(a + 1.0)) / 7.0
        term = env * max((a + 1.0) ** p, (a + 2.0) ** p)
        total += term
        if term < 1e-18:
            break
    return total


def _evaluator(V=6.0, panel_width=0.25):
    """The process-wide GEvaluator of V (None: the whole table) and panel_width."""
    return _evaluator_at(None if V is None else float(V), float(panel_width))


@cache
def _evaluator_at(V, panel_width):
    return GEvaluator(V=V, panel_width=panel_width)


def g_eval(s, V=6.0):
    return _evaluator(V=V).g(s)


def g_prime_eval(s, V=6.0):
    return _evaluator(V=V).g_prime(s)


def _bisect_real_root(fn, a, b):
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise SolverError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    # the width test always ends the loop: two adjacent floats are closer
    # than 1e-15 * max(1, |a|)
    while b - a >= 1e-15 * max(1.0, abs(a)):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def find_delta_via_g(V=6.0):
    """Positive root of g by bisection on (0.1, 0.9), certified by winding."""
    ev = _evaluator(V=V)
    root = _bisect_real_root(ev.g, 0.1, 0.9)
    return _certificate(
        ev, root, abs(ev.g(root)), ev.g_prime(root), "real-bisection", V, _BISECT_HALF
    )


def _certificate(walk_ev, root, residual, gp, method, truncation_V, half):
    """Certify root by winding number 1 on the square root +- half*(1+1j); gp is g'(root)."""
    residue = 1.0 / (root * (root - 1.0) * gp)
    lo, hi = root - half * (1 + 1j), root + half * (1 + 1j)
    winding, _ = _rect_walk(walk_ev, lo, hi)
    if winding != 1:
        raise ContourError(f"winding {winding} around root {root}")
    return RootCertificate(
        complex(root), (lo, hi), winding, residual, complex(residue), method, truncation_V
    )


def _e1(x):
    """E1(x) for x > 0 by E1XB of Zhang & Jin, Computation of Special Functions
    (1996): the series up to x = 1, the continued fraction above.

    Its operations are those of scipy.special.exp1, so the bits are too, with
    gamma = EULER_GAMMA = 0.5772156649015329 (0.5772156649015328 moves the last
    bit of about half the values below 1).  math's scalar exp and log keep the
    bits off numpy's SIMD dispatch.
    """
    if x <= 1.0:
        e1 = r = 1.0
        for k in range(1, 26):
            r = -r * k * x / (k + 1.0) ** 2
            e1 += r
            if abs(r) <= abs(e1) * 1e-15:
                break
        return -EULER_GAMMA - math.log(x) + x * e1
    if math.isnan(x):
        return x
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


# Stirling-series coefficients of Cephes lgam (Moshier, Cephes Math Library)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _lgam(x):
    """log Gamma(x) for x >= 13: the Stirling branch of Cephes lgam, bit for bit
    the scipy.special.gammaln built on it."""
    if not x >= 13.0:
        raise RangeError(f"the Stirling branch of log Gamma needs x >= 13, got {x}")
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        a = a * p + c
    return q + a / x


def exp_integral_J(u):
    """Principal exponential integral int_u^inf e^-t dt / t, u > 0; nan stays nan."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0):
        raise RangeError("exponential integral needs u > 0")
    out = np.array([_e1(x) for x in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


_PHI_C = np.array(
    [2.0 * (-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 22)]
)


def _phi(u):
    """2*(J(u) + gamma + log u) as a stable series, |u| <= ~0.6."""
    u = np.asarray(u, dtype=float)
    acc = np.zeros_like(u)
    up = np.ones_like(u)
    for c in _PHI_C:
        up = up * u
        acc = acc + c * up
    return acc


def _u_panels(lo):
    """Gauss panels on [lo, _U_END], each 1.5 times as long as the one before."""
    edges = [lo]
    while edges[-1] < _U_END:
        edges.append(min(edges[-1] * 1.5, _U_END))
    return panel_rows(lo, _U_END, edges[1:-1], _GL16, np.inf)[:2]


@cache
def _q_panels():
    """Q_eval's three panel sets as (nodes, weights, integrand over u^s), read-only:
    every call shares them."""
    edges_low = [_Q_EPS]
    while edges_low[-1] < 0.5:
        edges_low.append(edges_low[-1] * 2.0)
    # below 1/2, F(u) - b0/u^2 - b1/u with the u^-2 blowup cancelled in series
    u, w, _ = panel_rows(_Q_EPS, edges_low[-1], edges_low[1:-1], _GL16, 1.0)
    low = (u, w, B0 * (np.expm1(_phi(u)) - 2.0 * u) / u**2 - 1.0)
    u, w, _ = panel_rows(edges_low[-1], 1.0, [0.75], _GL16, 1.0)
    mid = (u, w, np.expm1(2.0 * exp_integral_J(u)) - B0 / u**2 - B1 / u)
    u, w = _u_panels(1.0)
    panels = low, mid, (u, w, np.expm1(2.0 * exp_integral_J(u)))
    for panel in panels:
        for a in panel:
            a.flags.writeable = False
    return panels


def Q_eval(s):
    """Divisor-side Mellin transform, continued across its poles at 1 and 0.

    Q(s) = int_0^1 u^s (F - b0 u^-2 - b1 u^-1) du + b0/(s-1) + b1/s
         + int_1^umax u^s F du,   F(u) = e^{2J(u)} - 1.
    """
    _refuse_pole(complex(s))
    eps = _Q_EPS
    # [0, eps] exactly from the Taylor head of the regularized integrand
    c0, c1, c2 = 1.5 * B0 - 1.0, (4.0 / 9.0) * B0, -(1.0 / 144.0) * B0
    head = (
        c0 * eps ** (s + 1) / (s + 1)
        + c1 * eps ** (s + 2) / (s + 2)
        + c2 * eps ** (s + 3) / (s + 3)
    )
    low, mid, hi = (_quad_sum(w, np.power(u, s) * core) for u, w, core in _q_panels())
    out = head + low + mid + B0 / (s - 1.0) + B1 / s + hi
    return out.real if np.isrealobj(np.asarray(s)) else complex(out)


def find_delta_via_Q():
    """Same root, reached through the divisor-side transform instead of g."""
    root = _bisect_real_root(lambda x: Q_eval(x), 0.1, 0.9)
    # At a root of Q, d/ds[(s+1)Q] = (root+1)Q'(root); the gamma-function
    # bridge then gives the derivative of g, so the residue convention
    # matches the g route.  The winding check runs on the full-table g.
    h = 1e-6
    qp = (Q_eval(root + h) - Q_eval(root - h)) / (2.0 * h)
    gp = (root + 1.0) * qp / (2.0 * math.gamma(root + 1.0))
    return _certificate(
        _evaluator(V=None), root, abs(Q_eval(root)), gp, "real-bisection", None, _BISECT_HALF
    )


def _rect_walk(ev, lo, hi):
    """Argument-principle walk around a rectangle: (winding, min |g|)."""
    lo, hi = complex(lo), complex(hi)
    if not (hi.real > lo.real and hi.imag > lo.imag):
        raise RangeError("rectangle corners must satisfy lo < hi componentwise")
    corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag), lo]
    total = 0.0
    min_abs = math.inf
    for a, b in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, 65)
        gs = ev.g_many(a + (b - a) * ts)
        for _ in range(40):
            av = np.abs(gs)
            if av.min() == 0.0:
                raise ContourError("g vanishes on the contour")
            dphi = np.angle(gs[1:] / gs[:-1])
            bad = np.abs(dphi) >= (math.pi / 4.0)
            if not bad.any():
                break
            if len(ts) > _WALK_MAX_PTS:
                raise ContourError("contour refinement exploded")
            mids = 0.5 * (ts[:-1][bad] + ts[1:][bad])
            gm = ev.g_many(a + (b - a) * mids)
            order = np.argsort(np.concatenate([ts, mids]), kind="stable")
            ts = np.concatenate([ts, mids])[order]
            gs = np.concatenate([gs, gm])[order]
        else:
            raise ContourError("phase steps did not settle below pi/4")
        total += float(np.angle(gs[1:] / gs[:-1]).sum())
        min_abs = min(min_abs, float(np.abs(gs).min()))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.02:
        raise ContourError(f"winding {w} is not close to an integer")
    return int(round(w)), min_abs


def _width_for_rect(lo, hi):
    top = max(abs(complex(lo).imag), abs(complex(hi).imag), 1.0)
    return min(0.25, 8.0 / top)


def count_zeros_rect(lo, hi, V=6.0):
    """Zeros minus poles of the truncated g inside the rectangle.

    A boundary where |g| dips under the truncation bound cannot certify a
    count for the untruncated function, so that raises instead of lying.
    """
    ev = _evaluator(V=V, panel_width=_width_for_rect(lo, hi))
    winding, min_abs = _rect_walk(ev, lo, hi)
    safety = ev.tail_bound(complex(lo).real) + 1e-9
    if min_abs <= safety:
        raise ContourError(
            f"boundary minimum {min_abs:.3e} under safety margin {safety:.3e}"
        )
    return winding


def rect_boundary_min(lo, hi, V=6.0):
    ev = _evaluator(V=V, panel_width=_width_for_rect(lo, hi))
    _, min_abs = _rect_walk(ev, lo, hi)
    return min_abs


@dataclass(frozen=True)
class RootCertificate:
    location: complex
    enclosure: tuple  # rectangle corners (lo, hi), complex
    winding: int
    residual: float
    residue: complex
    method: str
    truncation_V: float  # None when the route has no grid truncation knob

    def as_json(self):
        lo, hi = self.enclosure
        return {
            "location": {"re": self.location.real, "im": self.location.imag},
            "enclosure": {
                "lo": {"re": lo.real, "im": lo.imag},
                "hi": {"re": hi.real, "im": hi.imag},
            },
            "winding": self.winding,
            "residual": self.residual,
            "residue": {"re": self.residue.real, "im": self.residue.imag},
            "method": self.method,
            "truncation_V": self.truncation_V,
        }


def refine_zero(seed):
    """Polish a root of g on the full table, then certify it by winding."""
    ev = _evaluator(V=None)
    seed = complex(seed)
    if seed.imag == 0.0:
        x = seed.real
        half = 0.01
        a, b = x - half, x + half
        while (ev.g(a) > 0) == (ev.g(b) > 0):
            half *= 2.0
            a, b = x - half, x + half
            if half > 0.64:
                raise SolverError(f"no bracket around real seed {x}")
        root = complex(_bisect_real_root(ev.g, a, b))
        method = "real-bisection"
    else:
        root = seed
        for _ in range(80):
            gp = complex(ev.g_prime_many(root)[0])
            gv = complex(ev.g_many(root)[0])
            step = gv / gp
            root = root - step
            if not np.isfinite(root.real) or abs(root) > 1e3:
                raise SolverError(f"Newton diverged from seed {seed}")
            if abs(step) <= 1e-14 * (1.0 + abs(root)):
                break
        else:
            raise SolverError(f"Newton did not settle from seed {seed}")
        method = "complex-refine"
    residual = abs(complex(ev.g_many(root)[0]))
    if residual > 1e-10:
        raise SolverError(f"refined residual {residual} above 1e-10")
    gp = complex(ev.g_prime_many(root)[0])
    return _certificate(ev, root, residual, gp, method, ev.truncation_V, _REFINE_HALF)


_ROOT_SEEDS = {"delta": 0.7136125, "minus_one": -1.0, "pair": -1.962 + 11.575j}


@cache
def root_certificate(name):
    """Certificate of the root of g named "delta", "minus_one" (behind lambda1) or
    "pair" (the upper root of the first complex pair), refined on its first read."""
    return refine_zero(_ROOT_SEEDS[name])


def lambda1_closed_form():
    return 2.0 / (3.0 * EXP_NEG_2GAMMA - 2.0)


def lambda0_via_I(delta=None):
    """Leading residue by direct v-space quadrature of g'(delta).

    I = -int_0^inf gap(v) log(v+1) (v+1)^{-1-delta} dv - c/d^2 - c/(d-1)^2,
    then lambda0 = 1/(delta(delta-1)I).  Independent panels from the
    root-certificate route: same root, different integral.
    """
    if delta is None:
        delta = root_certificate("delta").location.real
    xi = get_bundle().ratio
    v_hi = xi.grid_end
    gl = np.polynomial.legendre.leggauss(20)
    nodes, wts, _ = panel_rows(0.0, v_hi, np.arange(int(v_hi) + 1.0), gl, 0.5)
    gap = xi.eval_many(nodes) - (nodes + 2.0) * EXP_NEG_2GAMMA
    val = float(
        _quad_sum(wts, gap * np.log(nodes + 1.0) * (nodes + 1.0) ** (-1.0 - delta))
    )
    big_i = -val - EXP_NEG_2GAMMA / delta**2 - EXP_NEG_2GAMMA / (delta - 1.0) ** 2
    return 1.0 / (delta * (delta - 1.0) * big_i)


def ratio_prime(us):
    """ratio_fn' by u*f'(u) = 2*f(u-1) - f(u): zero below 1, the limit from above at kinks."""
    xi = get_bundle().ratio
    us = np.asarray(us, dtype=float)
    out = np.zeros(us.shape)
    m = us >= 1.0
    out[m] = (2.0 * xi.eval_many(us[m] - 1.0) - xi.eval_many(us[m])) / us[m]
    return out[()]


def H_bound(sigma):
    """2^{1-sigma} + int_1^inf |ratio'(v) - e^{-2g}| (v+1)^{-sigma} dv."""
    xi = get_bundle().ratio
    h = xi.grid_step
    u = xi.grid
    d = ratio_prime(u) - EXP_NEG_2GAMMA
    i = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    crossings = u[i] + h * d[i] / (d[i] - d[i + 1])
    breaks = np.concatenate([np.arange(1.0, int(xi.grid_end) + 1.0), crossings])
    nodes, wts, _ = panel_rows(1.0, xi.grid_end, breaks, _GL16, 0.25)
    vals = np.abs(ratio_prime(nodes) - EXP_NEG_2GAMMA)
    total = float(_quad_sum(wts, vals * (nodes + 1.0) ** (-sigma)))
    return 2.0 ** (1.0 - sigma) + _tail_envelope(xi.grid_end, -sigma, total)


def buchstab_transform_check(s):
    """Both sides of the sieve transform identity at real s > 1:

    s * int_0^inf u^{s-1} (e^{J(u)} - 1) du
      = Gamma(s) * (1 + int_1^inf w(v) (1+v)^{-s} dv).
    """
    if not s > 1.0:
        raise RangeError(f"transform check needs s > 1, got {s}")
    b = get_bundle()
    eps = 1e-3
    # e^{J} - 1 = e^{-gamma} u^{-1} e^{psi(u)} - 1 with psi analytic at 0
    c = [1.0, 1.0, 0.25, -1.0 / 36.0]  # Taylor of e^{psi}
    head = EXP_NEG_GAMMA * sum(
        ck * eps ** (s - 1 + k) / (s - 1 + k) for k, ck in enumerate(c)
    ) - eps**s / s
    nodes, wts = _u_panels(eps)
    body = float(_quad_sum(wts, nodes ** (s - 1.0) * np.expm1(exp_integral_J(nodes))))
    lhs = s * (head + body)
    w_end = b.buchstab.grid_end
    nv, wv, _ = panel_rows(1.0, w_end, np.arange(1.0, int(w_end) + 1.0), _GL16, 0.5)
    tail = EXP_NEG_GAMMA * (1.0 + w_end) ** (1.0 - s) / (s - 1.0)
    omega_hat = float(_quad_sum(wv, b.buchstab.eval_many(nv) * (1.0 + nv) ** -s)) + tail
    rhs = math.gamma(s) * (1.0 + omega_hat)
    return {"s": s, "lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "ratio": lhs / rhs}


def zero_pole_census(V=6.0):
    """Winding counts on disjoint boxes: each root shows +1, each pole -1."""
    return {
        "wide_rect": count_zeros_rect(-3 - 62j, 3 + 62j, V=V),
        "square_delta": count_zeros_rect(0.46 - 0.25j, 0.96 + 0.25j, V=V),
        "square_minus_one": count_zeros_rect(-1.5 - 0.5j, -0.5 + 0.5j, V=V),
        "square_pair_upper": count_zeros_rect(-2.462 + 11.07j, -1.462 + 12.07j, V=V),
        "square_pair_lower": count_zeros_rect(-2.462 - 12.07j, -1.462 - 11.07j, V=V),
        "square_pole_zero": count_zeros_rect(-0.2 - 0.2j, 0.2 + 0.2j, V=V),
        "square_pole_one": count_zeros_rect(0.86 - 0.14j, 1.14 + 0.14j, V=V),
    }


def constants_document():
    """One deterministic bundle of every computed constant and margin."""
    cert_delta = root_certificate("delta")
    cert_m1 = root_certificate("minus_one")
    delta = cert_delta.location.real
    doc = {
        "delta": {
            "value": delta,
            "bracket": list(DELTA_BRACKET),
            "via_g_V6": find_delta_via_g(6.0).location.real,
            "via_g_V5": find_delta_via_g(5.0).location.real,
            "via_Q": find_delta_via_Q().location.real,
        },
        "lambda0": {
            "via_residue": cert_delta.residue.real,
            "via_integral": lambda0_via_I(delta),
        },
        "lambda1": {
            "via_residue": cert_m1.residue.real,
            "closed_form": lambda1_closed_form(),
        },
        "complex_pair": root_certificate("pair").as_json(),
        "certificates": {
            "delta": cert_delta.as_json(),
            "minus_one": cert_m1.as_json(),
        },
        "census": zero_pole_census(6.0),
        "rouche": {
            "tail_bound_V5": _evaluator(V=5.0).tail_bound(-3.0),
            "tail_bound_V6": _evaluator(V=6.0).tail_bound(-3.0),
            "boundary_min_V5": rect_boundary_min(-3 - 62j, 3 + 62j, V=5.0),
        },
        "H": {"at_minus_3": H_bound(-3.0), "at_0": H_bound(0.0), "at_1": H_bound(1.0)},
        "transform_gap_s2": buchstab_transform_check(2.0)["gap"],
        "transform_gap_s3": buchstab_transform_check(3.0)["gap"],
    }
    return doc


def document_to_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True)
