"""Exact-versus-estimate comparison tables, series tails, and figure data.

The exact side of every row comes from the enumeration and sieve modules;
the estimate side comes from the tabulated special functions and the root
certificates.  Each row records the error scale its estimate is entitled
to and the slack multiplier applied when judging it, so tightening a bound
later is a data change, not a code change.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# the lazy modules, read at call time: a command runs only the bodies it calls into
from . import constants, funcs, sieve, theta
from ._util import EXP_NEG_2GAMMA, EXP_NEG_GAMMA, fmt15, fsum
from .errors import RangeError

DEFAULT_SLACK = 5.0
GRID_POINT_LIMIT = 10**6  # rows of one tabulated function or figure
# default (from, to, step) of each figure's grid
FIGURE_GRIDS = {"fig1": (1.0, 15.0, 0.25), "fig2": (0.0, 50.0, 0.5)}


def growth_constants():
    """(exponent, leading, correction) of the dense tau-sum asymptote."""
    cert = constants.root_certificate("delta")
    return cert.location.real, cert.residue.real, constants.lambda1_closed_form()


@dataclass(frozen=True)
class CompareRow:
    label: str
    params: tuple  # ((name, value), ...) in display order
    exact: float
    estimate: float
    envelope: float
    slack: float = DEFAULT_SLACK

    @property
    def rel_err(self):
        return abs(self.exact - self.estimate) / max(abs(self.exact), 1.0)

    @property
    def ok(self):
        return self.rel_err <= self.envelope * self.slack

    def as_dict(self):
        return {
            "label": self.label,
            "params": {k: _json_param(v) for k, v in self.params},
            "exact": self.exact,
            "estimate": self.estimate,
            "rel_err": self.rel_err,
            "envelope": self.envelope,
            "slack": self.slack,
            "ok": self.ok,
        }


def _json_param(v):
    if isinstance(v, (int, float, str)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    num, den = getattr(v, "numerator", None), getattr(v, "denominator", None)
    if num is not None:
        return int(num) if den == 1 else f"{num}/{den}"
    return str(v)


def sort_rows(rows):
    return sorted(rows, key=lambda r: (r.params, r.label))


_CSV_FLOATS = ("exact", "estimate", "rel_err", "envelope", "slack")


def rows_to_csv(rows):
    """One CSV line per row from its as_dict(): float fields as fmt15, ok as 1 or 0."""
    lines = ["label,params," + ",".join(_CSV_FLOATS) + ",ok"]
    for d in map(CompareRow.as_dict, rows):
        ps = ";".join(
            f"{k}={fmt15(v) if isinstance(v, float) else v}" for k, v in d["params"].items()
        )
        cols = [d["label"], ps, *(fmt15(d[c]) for c in _CSV_FLOATS), "1" if d["ok"] else "0"]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows):
    return "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in rows)


@lru_cache(maxsize=1)  # the three estimates of one compare_rough row set share it
def _rough_terms(x, y):
    """The bundle, log y, u = log x / log y and prod_{p<=y}(1-1/p)."""
    if x < 1:
        raise RangeError(f"x must be >= 1, got {x}")
    if y < 2:
        raise RangeError(f"y must be >= 2, got {y}")
    ly = math.log(y)
    # a fractional y needs primes up to ceil(y)
    pi_y = sieve.build_prime_list(max(2, math.ceil(y))).mertens(y)
    return funcs.get_bundle(), ly, math.log(x) / ly, pi_y


def estimate_phi(x, y):
    """Main terms of the rough-count estimate, indicator correction included."""
    b, ly, u, pi_y = _rough_terms(x, y)
    corr = y / x if x >= y else 0.0
    return 1.0 + x * pi_y + (x / ly) * (b.buchstab(u) - EXP_NEG_GAMMA - corr)


def estimate_S(x, y):
    """Main terms of the rough tau-sum estimate."""
    b, ly, u, pi_y = _rough_terms(x, y)
    corr = 2.0 * y / x if x >= y else 0.0
    main = x * math.log(x) * pi_y * pi_y
    return 1.0 + main + (x / ly) * (b.ratio(u) - u * EXP_NEG_2GAMMA - corr)


def estimate_harmonic(x, y):
    """Main terms of the rough harmonic-sum estimate."""
    b, _, u, pi_y = _rough_terms(x, y)
    return 1.0 + math.log(x) * pi_y + b.buchstab_defect_integral(u)


def compare_rough(x, y):
    """Rows for the rough count, tau sum, harmonic sum, and tau mean."""
    st = theta.rough_stats(x, y)
    b, ly, u, _ = _rough_terms(x, y)
    lx = math.log(x)
    params = (("x", x), ("y", y))
    env_sieve = 1.0 / ly
    env_mean = 1.0 / max(lx, 1e-9) + math.exp(-math.sqrt(ly))
    if u > 1.0:
        mean_est = b.ratio(u) / b.buchstab(u)
    else:
        mean_est = 1.0  # below the sieve threshold only n=1 survives
    rows = [
        CompareRow("rough_count", params, float(st.count), estimate_phi(x, y), env_sieve),
        CompareRow("rough_tau_sum", params, float(st.tau_sum), estimate_S(x, y), env_sieve),
        CompareRow("rough_harmonic", params, st.harmonic, estimate_harmonic(x, y), env_sieve),
        CompareRow("rough_tau_mean", params, st.tau_sum / st.count, mean_est, env_mean),
    ]
    return sort_rows(rows)


def compare_dense(x, t):
    """Rows for the dense tau sum against its growth and order estimates."""
    try:  # before the walk, once dense_stats would accept t and x
        lt = math.log(t) if t >= 2 and x >= 1 else None
    except OverflowError:
        raise RangeError("t beyond float range, where log t is taken") from None
    st = theta.dense_stats(x, t)
    b = funcs.get_bundle()
    v = math.log(x) / lt
    lam = b.growth(v)
    d = growth_constants()[0]
    params = (("x", x), ("t", t))
    env = 1.0 / lt
    rows = [
        CompareRow("dense_tau_main", params, float(st.tau_sum), x * lt * lam, env),
        CompareRow("dense_tau_order", params, float(st.tau_sum), x * v**d * lt, env),
    ]
    return sort_rows(rows)


def fit_nu_practical(xs):
    """Tau-sum ratios against x (log x)^exponent for the practical chain."""
    cuts = sorted(int(v) for v in xs)
    if not cuts or cuts[0] < 2:
        raise RangeError("cutoffs must be integers >= 2")
    d = growth_constants()[0]
    stats = theta.chain_stats_multi(theta.ThetaRule.practical(), cuts)
    return [(s.x, s.tau_sum / (s.x * math.log(s.x) ** d)) for s in stats]


def _series(rule, x, payload, terms, finish, tag=None):
    """Terms and tags (None without tag) of B(x)'s rows.  Walk 1 counts the rows in each
    prime sub-block (by theta floor); walk 2 stores each row's offset in its sub-block,
    payload(n, tau) and tag[0](n).  Per sub-block of the prime walk over terms, the rows
    read the sums at their floors in offset order, and finish(payloads, *sums) gives the terms."""
    span, top, counts = sieve._span(), 0, np.zeros(1, dtype=np.int64)
    for n, _, sg in theta.row_windows(rule, x):  # walk 1
        tf = theta._theta_floors(rule, x, n, sg)
        top = max(top, int(tf.max()))
        if top < sieve.PRIME_WALK_LIMIT:  # else prime_walk refuses; walk 1 only names the top
            c = np.bincount(tf // span, minlength=counts.size)
            counts = c + np.pad(counts, (0, c.size - counts.size))
    if top >> 63:
        raise RangeError(f"theta floor {top} beyond int64")
    blocks = sieve.prime_walk(top, *terms)
    ends = np.cumsum(counts)
    off, vals = np.empty(ends[-1], dtype=np.uint32), np.empty(ends[-1])
    tags, cursor = tag and np.empty(ends[-1], dtype=tag[1]), ends - counts
    for n, tu, sg in theta.row_windows(rule, x):  # walk 2
        tf = theta._theta_floors(rule, x, n, sg)
        bk = tf // span
        order = np.argsort(bk.astype(np.min_scalar_type(len(counts))), kind="stable")  # radix
        n, tu, tf, bk = n[order], tu[order], tf[order], bk[order]
        pos = (cursor - np.searchsorted(bk, np.arange(len(cursor))))[bk] + np.arange(len(bk))
        cursor += np.bincount(bk, minlength=len(cursor))
        off[pos], vals[pos] = tf - bk * span, payload(n, tu)
        if tag:
            tags[pos] = tag[0](n)
    for lo, ps, cums in blocks:
        a, b = ends[lo // span] - counts[lo // span], ends[lo // span]
        key = np.sort(off[a:b].astype(np.uint64) << 32 | np.arange(b - a, dtype=np.uint64))
        idx = np.empty(b - a, dtype=np.intp)  # looked up in offset order, kept in row order
        idx[key & 0xFFFFFFFF] = np.searchsorted(ps, (key >> 32).astype(np.int64) + lo, "right")
        vals[a:b] = finish(vals[a:b], *(cum[idx].astype(np.float64) for cum in cums))
    return vals, tags


def L_partial_multi(rule, cutoffs):
    """Partial sums of the tau-weighted squared-Mertens series, one per cutoff.

    One series over B at the largest cutoff serves every cutoff: each term
    depends on n alone and fsum is correctly rounded, so each value has the
    bits of its own walk.
    """
    if not cutoffs or min(cutoffs) < 1:
        raise RangeError("cutoffs must be positive integers")
    cuts = sorted(set(cutoffs))
    terms, tags = _series(
        rule, cuts[-1], lambda n, tau: tau.astype(np.float64) / n.astype(np.float64),
        (_log_mertens,), lambda v, logm: v * np.exp(logm) * np.exp(logm),
        (lambda n: np.searchsorted(cuts, n), np.min_scalar_type(len(cuts))),  # first cut >= n
    )
    return [fsum(terms, lambda i, c, k=cuts.index(N): c[tags[i : i + len(c)] <= k]) for N in cutoffs]


def _log_mertens(p):
    q = np.divide(-1.0, p)
    return np.log1p(q, out=q)  # in place: one temporary per prime sub-block, not two


def L_partial(rule, N):
    """Partial sum of the tau-weighted squared-Mertens series over the chain."""
    return L_partial_multi(rule, [N])[0]


def c_theta_breakdown(rule, N):
    """Partial chain-density constant plus term-sign diagnostics.

    Positivity of the summands (every rule has theta(n) > n) is an observation,
    not a guarantee at finite cutoff, so violations are reported rather than raised.
    """
    terms, _ = _series(
        rule, N, lambda n, _: n.astype(np.float64),
        (lambda p: np.log(p) / (p - 1.0), _log_mertens),
        lambda n, logp, logm: (logp - np.log(n)) * np.exp(logm) / n,
    )
    value = fsum(terms) / (1.0 - EXP_NEG_GAMMA)
    return {
        "value": value,
        "terms": int(terms.size),
        "negative_terms": int(np.count_nonzero(terms < -1e-12)),
        "min_term": float(terms.min()),
    }


def _grid(lo, hi, step):
    if step <= 0:
        raise RangeError(f"step must be positive, got {step}")
    if hi < lo:
        raise RangeError("grid upper end below lower end")
    width = (hi - lo) / step
    if not width < GRID_POINT_LIMIT - 1:  # inf and nan too, before any allocation
        raise RangeError(f"grid needs more than {GRID_POINT_LIMIT} points")
    n = int(round(width))
    if abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        n = int(math.floor(width + 1e-12))
    return lo + step * np.arange(n + 1)


def _csv(header, columns):
    rows = zip(*(c.tolist() for c in columns))
    lines = [header]
    lines.extend(",".join(fmt15(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def tabulate_fn(name, lo, hi, step):
    """CSV table of one special function with its grid error budget."""
    attrs = {"omega": "buchstab", "xi": "ratio", "lambda": "growth"}
    if name not in attrs:
        raise RangeError(f"unknown function {name!r}")
    xs = _grid(float(lo), float(hi), float(step))
    fn = getattr(funcs.get_bundle(), attrs[name])  # builds only the table asked for
    var = "v" if name == "lambda" else "u"
    vals = fn.eval_many(xs)
    budget = np.full_like(xs, fn.err_budget)
    return _csv(f"{var},value,err_budget", [xs, vals, budget])


def emit_figure_data(which, lo=None, hi=None, step=None):
    """Figure-ready CSV: scaled tau sums and their asymptotes."""
    if which not in FIGURE_GRIDS:
        raise RangeError(f"unknown figure {which!r}")
    grid = zip((lo, hi, step), FIGURE_GRIDS[which])
    xs = _grid(*(d if v is None else float(v) for v, d in grid))
    if which == "fig2" and xs[0] <= -1.0:  # (v+1)^delta and 1/(v+1) need v > -1
        raise RangeError(f"fig2 grid must start above -1, got {fmt15(xs[0])}")
    b = funcs.get_bundle()
    if which == "fig1":
        xi = b.ratio.eval_many(xs)
        om = b.buchstab.eval_many(xs)
        mean = np.zeros_like(xs)
        np.divide(xi, om, out=mean, where=om > 0)
        return _csv(
            "u,tau_scale,tau_scale_asymptote,tau_mean,tau_mean_asymptote",
            [xs, xi, (xs + 2.0) * EXP_NEG_2GAMMA, mean, (xs + 2.0) * EXP_NEG_GAMMA],
        )
    d, lam0, lam1 = growth_constants()
    approx = lam0 * (xs + 1.0) ** d + lam1 / (xs + 1.0)
    return _csv("v,growth,growth_approx", [xs, b.growth.eval_many(xs), approx])
