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
from . import _util, constants, funcs, sieve, theta
from ._util import EXP_NEG_2GAMMA, EXP_NEG_GAMMA, fmt15
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


def _series(rule, x, *terms):
    """(n, tau(n), *sums) per window of at most _util.CHUNK rows of B(x), sums[j][i] the sum of
    terms[j] over the primes <= floor(theta(n_i)), from the parent records of one counted walk.

    An epoch of prime sub-blocks up to stop takes the parents whose floors lie in it (sorted
    once) and, from each slice due in it, the next leaves n*p whose key c*(p + d) is at most
    the limit of rule.leaf_limit(stop, n, sigma(n)).  Keys rise with p, so a prime-count table
    ends each run, and a slice is due when the key of its next leaf is.  The epoch's rows are
    sorted by floor once, and each sub-block reads its run of them."""
    parr, blocks, _ = theta._records(rule, x)
    ns, sgs, tus, lo, hi = np.concatenate(blocks, axis=1)
    del blocks  # not held beside their join for the whole series
    pf, (c, d, _) = theta._theta_floors(rule, x, ns, sgs), rule.leaf_limit(0, ns, sgs)
    s = np.flatnonzero(hi > lo)  # the parents with a leaf slice
    last = parr[hi[s] - 1]  # the top floor of a slice is its last leaf's
    top = theta._theta_floors(rule, x, ns[s] * last, sgs[s] * (last + 1)).max(initial=pf.max())
    if top >> 63:
        raise RangeError(f"theta floor {top} beyond int64")
    walk, span = sieve.prime_walk(int(top), *terms), sieve._span()
    order = np.argsort(pf, kind="stable")
    pf, pi = pf[order], np.cumsum(np.bincount(parr))  # pi[v]: the primes <= v
    key = c[s] * (parr[lo[s]] + d)  # of each slice's next leaf, or finished past every limit
    by_key = np.argsort(key, kind="stable")  # slices start in this order
    s, nxt, key, finished = s[by_key], lo[s][by_key], key[by_key], np.iinfo(np.int64).max
    first, budget, a, stop, width = key.copy(), max(_util.CHUNK, ns.size // 4), 0, 0, 1
    for base, ps, cums in walk:
        end = base + span
        if end > stop:  # an epoch of width sub-blocks: its parents and leaf runs, in floor order
            stop = base + width * span
            _, _, limit = rule.leaf_limit(stop, ns, sgs)
            b = np.searchsorted(pf, stop)
            due = np.flatnonzero(key[: np.searchsorted(first, limit, "right")] <= limit)
            p, n0 = s[due], nxt[due]
            n1 = nxt[due] = np.minimum(pi[np.minimum(limit // c[p] - d, pi.size - 1)], hi[p])
            fin = n1 == hi[p]
            key[due] = np.where(fin, finished, c[p] * (parr[n1 - fin] + d))
            rows = [(ns[order[a:b]], tus[order[a:b]], pf[a:b])]
            for k, i in theta._windows(n0, n1 - n0):
                n, q, p1 = ns[p[k]] * parr[i], p[k], parr[i] + 1
                rows.append((n, 2 * tus[q], theta._theta_floors(rule, x, n, sgs[q] * p1)))
            n, tau, tf = map(np.concatenate, zip(*rows))
            del rows  # the windows, now joined
            k = (tf - base).astype(np.uint64) << 32 | np.arange(n.size, dtype=np.uint64)
            k.sort()
            n, tau, tf = n[k & 0xFFFFFFFF], tau[k & 0xFFFFFFFF], (k >> 32).astype(np.int64) + base
            # the next epoch's width aims at budget rows (a quarter of the parents, or a window)
            a, j, width = b, 0, max(1, min(2 * width, 4096, width * budget // max(n.size, 1)))
        i, j = j, np.searchsorted(tf, end)
        for w in range(i, j, _util.CHUNK):
            e = min(w + _util.CHUNK, j)
            idx = np.searchsorted(ps, tf[w:e], "right")
            yield (n[w:e], tau[w:e], *(cum[idx].astype(np.float64) for cum in cums))


def L_partial_multi(rule, cutoffs):
    """Partial sums of the tau-weighted squared-Mertens series, one per cutoff.

    One series over B at the largest cutoff serves every cutoff: each term
    depends on n alone and the exact sum is correctly rounded, so each value
    has the bits of its own walk.
    """
    if not cutoffs or min(cutoffs) < 1:
        raise RangeError("cutoffs must be positive integers")
    cuts = sorted(set(cutoffs))
    acc = sieve.ExactSum(len(cuts))
    for n, tau, logm in _series(rule, cuts[-1], _log_mertens):
        m = np.exp(logm)
        acc.add(tau.astype(np.float64) / n.astype(np.float64) * m * m, np.searchsorted(cuts, n))
    return [acc.value(cuts.index(N)) for N in cutoffs]  # tag k: the first cut >= n is cuts[k]


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
    acc, count, negative, low = sieve.ExactSum(), 0, 0, math.inf
    for n, _, logp, logm in _series(rule, N, lambda p: np.log(p) / (p - 1.0), _log_mertens):
        nf = n.astype(np.float64)
        terms = (logp - np.log(nf)) * np.exp(logm) / nf
        acc.add(terms)
        count += terms.size
        negative += int(np.count_nonzero(terms < -1e-12))
        low = min(low, float(terms.min()))
    value = acc.value() / (1.0 - EXP_NEG_GAMMA)
    return {"value": value, "terms": count, "negative_terms": negative, "min_term": low}


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
