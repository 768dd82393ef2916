"""End-to-end acceptance run against the tolerances promised in the README.

Each criterion prints one PASS/FAIL line (visible with -s, and in the
failure report otherwise) before asserting, so a red run still shows the
whole scoreboard.  The asymptotic-regime checks compare finite enumerations
against limits approached at 1/log speed; thresholds are kept as promised
and allowed to fail honestly where desk-scale cutoffs cannot reach them.
"""

import io
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.special as sps

from divmean.constants import (
    constants_document,
    count_zeros_rect,
    document_to_json,
    find_delta_via_Q,
    find_delta_via_g,
    lambda0_via_I,
    lambda1_closed_form,
    refine_zero,
)
from divmean.funcs import EXP_NEG_2GAMMA, EXP_NEG_GAMMA, get_bundle
from divmean.report import (
    c_theta_breakdown,
    compare_dense,
    compare_rough,
    emit_figure_data,
    fit_nu_practical,
    growth_constants,
    L_partial,
    tabulate_fn,
)
from divmean.sieve import build_spf_table
from divmean.theta import (
    ThetaRule,
    chain_stats_multi,
    generate_B,
    verify_funceq,
    write_b_stream,
)
from oracles.checks import is_practical_by_subset_sum, is_t_dense_by_divisors, ratio_via_convolution

GOLDEN = Path(__file__).parent / "golden"
ELAPSED = {}


def _verdict(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    return ok


def _clock(name, t0):
    ELAPSED[name] = time.monotonic() - t0
    return ELAPSED[name]


def test_criterion_1_growth_exponent_two_routes():
    t0 = time.monotonic()
    d_g = find_delta_via_g(6.0).location.real
    d_q = find_delta_via_Q().location.real
    full = refine_zero(0.7136125)
    lam0_res = full.residue.real
    lam0_int = lambda0_via_I(full.location.real)
    lam1_res = refine_zero(-1.0).residue.real
    lam1_exact = lambda1_closed_form()
    dt = _clock("c1", t0)

    checks = {
        "routes agree 1e-6": abs(d_g - d_q) <= 1e-6,
        "root in bracket (g)": 0.713611 < d_g < 0.713614,
        "root in bracket (transform)": 0.713611 < d_q < 0.713614,
        "leading coeff via residue": abs(lam0_res - 1.118192) < 5e-7,
        "leading coeff via integral": abs(lam0_int - 1.118192) < 5e-7,
        "correction coeff vs closed form": abs(lam1_res - lam1_exact) <= 1e-6,
        "runtime < 60s": dt < 60.0,
    }
    ok = all(checks.values())
    _verdict(
        "criterion 1",
        ok,
        f"exponent={d_g:.10f}/{d_q:.10f} lead={lam0_res:.8f}/{lam0_int:.8f} "
        f"corr={lam1_res:.10f} ({dt:.1f}s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_2_zero_census_and_margins():
    doc = constants_document()
    lo, hi = complex(-1.963, 11.574), complex(-1.961, 11.576)
    upper = refine_zero(-1.962 + 11.575j)
    lower = refine_zero(-1.962 - 11.575j)

    checks = {
        "wide rectangle holds two zeros": doc["census"]["wide_rect"] == 2,
        "small square holds one zero": count_zeros_rect(lo, hi) == 1,
        "pair residue real digits": -0.0079 < upper.residue.real < -0.0078,
        "pair residue imag digits (+)": 0.0031 < upper.residue.imag < 0.0032,
        "pair residue imag digits (-)": -0.0032 < lower.residue.imag < -0.0031,
        "V=5 tail bound": doc["rouche"]["tail_bound_V5"] < 0.0035,
        "V=5 boundary minimum": doc["rouche"]["boundary_min_V5"] > 0.0051,
    }
    ok = all(checks.values())
    _verdict(
        "criterion 2",
        ok,
        f"census={doc['census']['wide_rect']} residue={upper.residue:.6f} "
        f"tail={doc['rouche']['tail_bound_V5']:.6f} "
        f"bmin={doc['rouche']['boundary_min_V5']:.6f}",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_3_function_identities():
    bundle = get_bundle()
    xi, om, lam = bundle.ratio, bundle.buchstab, bundle.growth

    conv_us = np.arange(0.0, 10.0 + 1e-9, 1.0 / 16)
    conv_gap = max(
        abs(float(xi.eval_many(u)) - ratio_via_convolution(float(u), om))
        for u in conv_us
    )

    us = np.arange(1.0, xi.grid_end + 1e-12, xi.grid_step)
    vals = xi.eval_many(us)
    bounds_ok = bool(np.all(vals >= (us + 2.0) / 4.0) and np.all(vals <= us + 1.0))

    cert_us = us[us >= 1.5]
    cert_vals = vals[us >= 1.5]
    env = 2.0**cert_us / (7.0 * sps.gamma(cert_us + 1.0))
    cert_ok = bool(np.all(np.abs(cert_vals - (cert_us + 2.0) * EXP_NEG_2GAMMA) <= env))

    defect = bundle.buchstab_defect_integral(30.0)
    defect_ok = abs(defect - (EXP_NEG_GAMMA - 1.0)) <= 1e-6

    vs_low = np.linspace(0.0, 1.0, 17)
    linear_ok = bool(np.all(lam.eval_many(vs_low) == vs_low))

    d, l0, l1 = growth_constants()
    vs = np.arange(20.0, 50.0 + 1e-12, lam.grid_step)
    approx = l0 * (vs + 1.0) ** d + l1 / (vs + 1.0)
    tail_gap = np.abs(lam.eval_many(vs) - approx)
    tail_ok = bool(np.all(tail_gap <= 10.0 * (vs + 1.0) ** -1.962))

    checks = {
        "convolution identity 1e-6": conv_gap <= 1e-6,
        "two-sided bounds on grid": bounds_ok,
        "asymptote certificate on grid": cert_ok,
        "defect integral": defect_ok,
        "linear on [0,1]": linear_ok,
        "growth asymptote window": tail_ok,
    }
    ok = all(checks.values())
    _verdict(
        "criterion 3",
        ok,
        f"conv_gap={conv_gap:.2e} defect={defect:.9f} "
        f"max_tail_gap={float(tail_gap.max()):.2e}",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_4_exact_combinatorics():
    t0 = time.monotonic()
    spf = build_spf_table(10**5)
    rules = {"dense(2)": ThetaRule.dense(2), "practical": ThetaRule.practical()}

    funceq_ok = True
    for rule in rules.values():
        for x in (10**3, 10**4, 10**5):
            res = verify_funceq(x, rule)
            funceq_ok &= (
                res["exact"]
                and res["count_lhs"] == res["count_rhs"]
                and res["tau_lhs"] == res["tau_rhs"]
            )

    dense_ok = True
    for t in (2, Fraction(5, 2), 3, 10):
        members = set(generate_B(ThetaRule.dense(t), 10**5))
        dense_ok &= all(
            is_t_dense_by_divisors(n, t, spf) == (n in members)
            for n in range(1, 10**5 + 1)
        )

    practical_members = set(generate_B(ThetaRule.practical(), 10**4))
    practical_ok = all(
        is_practical_by_subset_sum(n, spf) == (n in practical_members)
        for n in range(1, 10**4 + 1)
    )
    dt = _clock("c4", t0)

    checks = {
        "counting identity exact (f=1, f=tau)": funceq_ok,
        "divisor-ratio equivalence to 1e5": dense_ok,
        "subset-sum equivalence to 1e4": practical_ok,
        "runtime < 5min": dt < 300.0,
    }
    ok = all(checks.values())
    _verdict("criterion 4", ok, f"all integer identities exact ({dt:.1f}s)")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_5a_ratio_of_means_converges():
    t0 = time.monotonic()
    rel = {}
    for x in (10**4, 10**7):
        rows = {r.label: r for r in compare_rough(x, x ** (1.0 / 3.0))}
        rel[x] = rows["rough_tau_mean"].rel_err
    dt = _clock("c5a", t0)

    checks = {
        "rel err < 0.25 at 1e7": rel[10**7] < 0.25,
        "decreasing from 1e4": rel[10**7] < rel[10**4],
    }
    ok = all(checks.values())
    _verdict(
        "criterion 5a", ok, f"rel(1e4)={rel[10**4]:.4f} rel(1e7)={rel[10**7]:.4f} ({dt:.1f}s)"
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_5b_dense_main_term_band():
    t0 = time.monotonic()
    rows = {r.label: r for r in compare_dense(10**7, 100)}
    main = rows["dense_tau_main"]
    ratio = main.exact / main.estimate
    dt = _clock("c5b", t0)

    ok = 0.7 <= ratio <= 1.3
    _verdict("criterion 5b", ok, f"tau_sum/main_term={ratio:.4f} ({dt:.1f}s)")
    assert ok, f"ratio {ratio} outside [0.7, 1.3]"


def test_criterion_5c_series_partial_sums():
    t0 = time.monotonic()
    results = {}
    for name, rule in (("dense(2)", ThetaRule.dense(2)), ("practical", ThetaRule.practical())):
        vals = [L_partial(rule, n) for n in (10**5, 10**6, 10**7)]
        results[name] = vals
    dt = _clock("c5c", t0)

    checks = {}
    for name, vals in results.items():
        checks[f"{name} bounded by 1"] = all(v <= 1.0 for v in vals)
        checks[f"{name} nondecreasing"] = vals == sorted(vals)
        checks[f"{name} > 0.85 at 1e7"] = vals[-1] > 0.85
    ok = all(checks.values())
    _verdict(
        "criterion 5c",
        ok,
        f"dense(2)@1e7={results['dense(2)'][-1]:.4f} "
        f"practical@1e7={results['practical'][-1]:.4f} ({dt:.1f}s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_5d_practical_growth_ratio():
    t0 = time.monotonic()
    fit = dict(fit_nu_practical([10**7, 10**8]))
    r7, r8 = fit[10**7], fit[10**8]
    dt = _clock("c5d", t0)

    checks = {
        "ratio in [0.45, 0.65] at 1e8": 0.45 <= r8 <= 0.65,
        "variation < 10% from 1e7": abs(r8 - r7) / r7 < 0.10,
    }
    ok = all(checks.values())
    _verdict("criterion 5d", ok, f"ratio(1e7)={r7:.5f} ratio(1e8)={r8:.5f} ({dt:.1f}s)")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_5e_density_constant_cross_check():
    t0 = time.monotonic()
    partial = c_theta_breakdown(ThetaRule.practical(), 10**7)["value"]
    count8 = chain_stats_multi(ThetaRule.practical(), [10**8])[0].count
    scaled = count8 * math.log(10**8) / 10**8
    gap = abs(partial - scaled)
    dt = _clock("c5e", t0)

    family = sum(ELAPSED.get(k, 0.0) for k in ("c5a", "c5b", "c5c", "c5d", "c5e"))
    checks = {
        "series vs count gap < 0.1": gap < 0.1,
        "asymptotic family < 30min": family < 1800.0,
    }
    ok = all(checks.values())
    _verdict(
        "criterion 5e",
        ok,
        f"partial={partial:.5f} count_scaled={scaled:.5f} gap={gap:.5f} "
        f"({dt:.1f}s, family {family:.0f}s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_6_determinism_and_golden_files():
    streams = {}
    for threads in (1, 4):
        buf = io.StringIO()
        write_b_stream(ThetaRule.practical(), 20000, buf, threads=threads)
        streams[threads] = buf.getvalue()
    thread_ok = streams[1] == streams[4]

    regenerated = {
        "constants.json": document_to_json(constants_document()) + "\n",
        "fn_xi.csv": tabulate_fn("xi", 0.0, 10.0, 0.25),
        "fig1.csv": emit_figure_data("fig1"),
        "fig2.csv": emit_figure_data("fig2"),
    }
    stale = [
        name
        for name, text in regenerated.items()
        if text != (GOLDEN / name).read_text()
    ]

    checks = {
        "byte-identical across thread counts": thread_ok,
        "golden files reproduce": not stale,
    }
    ok = all(checks.values())
    _verdict("criterion 6", ok, f"stale={stale or 'none'}")
    assert ok, {k: v for k, v in checks.items() if not v}
