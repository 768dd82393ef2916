"""Comparison rows, series tails, fitting, and figure CSV emission."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divmean import report as R
from divmean import sieve
from divmean.errors import RangeError
from divmean.funcs import EXP_NEG_2GAMMA, EXP_NEG_GAMMA, get_bundle
from divmean.theta import ThetaRule, b_rows


def _log_mertens(p):
    return np.log1p(-1.0 / p)


class TestEstimates:
    def test_fractional_y_covers_ceil(self):
        # regression: the prime list must reach ceil(y), not floor(y)
        assert R.estimate_phi(10**4, 21.544346900318832) > 0

    def test_degenerate_sieve_formula(self):
        # below the threshold the ratio-fn term is zero and no indicator
        # correction applies, so the estimate is the bare main terms
        x, y = 50, 97
        u = math.log(x) / math.log(y)
        pi_y = sieve.mertens(y)
        want = (
            1.0
            + x * math.log(x) * pi_y**2
            + (x / math.log(y)) * (0.0 - u * EXP_NEG_2GAMMA)
        )
        got = R.estimate_S(x, y)
        assert got == pytest.approx(want, rel=1e-12)
        assert abs(got - 1.0) < 0.2  # exact tau sum is 1 (only n=1)

    def test_compare_rough_holds_no_prime_list(self):
        # the Mertens product takes a sub-block's primes at a time (about 3 MiB
        # in all): a list of the 564,163 primes to 2^23 and one exact sum over
        # all of them peaked at 32 MiB.  The tables are built first
        import tracemalloc

        R.compare_rough(10**4, 10**2)
        R._rough_terms.cache_clear()
        tracemalloc.start()
        try:
            R.compare_rough(2**24, 2**23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_envelope_at_desk_scale(self):
        for row in R.compare_rough(10**6, 100):
            assert row.ok

    def test_error_shrinks_in_x_at_fixed_u(self):
        # u = 2 at both scales; the estimate tightens as x grows
        small = {r.label: r for r in R.compare_rough(10**4, 10**2)}
        big = {r.label: r for r in R.compare_rough(10**6, 10**3)}
        assert big["rough_tau_sum"].rel_err < small["rough_tau_sum"].rel_err
        assert big["rough_count"].rel_err < small["rough_count"].rel_err

    def test_domain(self):
        with pytest.raises(RangeError):
            R.estimate_phi(0, 10)
        with pytest.raises(RangeError):
            R.estimate_harmonic(100, 1)


class TestCompareRough:
    def test_mean_tracks_fn_ratio(self):
        rows = {r.label: r for r in R.compare_rough(10**7, 215)}
        assert rows["rough_tau_mean"].rel_err < 0.25

    def test_mean_error_decreases(self):
        lo = {r.label: r for r in R.compare_rough(10**4, 21)}
        hi = {r.label: r for r in R.compare_rough(10**7, 215)}
        assert hi["rough_tau_mean"].rel_err < lo["rough_tau_mean"].rel_err

    def test_sieve_barren_above_x(self):
        rows = {r.label: r for r in R.compare_rough(50, 97)}
        mean = rows["rough_tau_mean"]
        assert mean.exact == 1.0
        assert mean.estimate == 1.0
        assert mean.rel_err == 0.0

    def test_rows_sorted_and_labeled(self):
        rows = R.compare_rough(1000, 10)
        assert [r.label for r in rows] == [
            "rough_count",
            "rough_harmonic",
            "rough_tau_mean",
            "rough_tau_sum",
        ]
        assert all(r.params == (("x", 1000), ("y", 10)) for r in rows)


class TestCompareDense:
    def test_growth_main_term(self):
        rows = {r.label: r for r in R.compare_dense(10**6, 100)}
        main = rows["dense_tau_main"]
        assert abs(main.exact / main.estimate - 1.0) < 0.3
        assert main.ok

    def test_everything_is_dense_at_t_equal_x(self):
        x = 10**5
        rows = {r.label: r for r in R.compare_dense(x, x)}
        exact = rows["dense_tau_main"].exact
        assert exact == float(sum(x // d for d in range(1, x + 1)))  # every integer qualifies
        # the mean over all n <= x is log x + O(1)
        assert abs(exact / x / math.log(x) - 1.0) < 0.05

    def test_order_ratio_band_at_t2(self):
        ratios = []
        for x in (10**5, 10**6, 10**7):
            rows = {r.label: r for r in R.compare_dense(x, 2)}
            row = rows["dense_tau_order"]
            ratios.append(row.exact / row.estimate)
        assert max(ratios) / min(ratios) < 2.0
        assert all(0.1 < r < 10.0 for r in ratios)

    def test_domain(self):
        with pytest.raises(RangeError):
            R.compare_dense(10**4, 1.5)


class TestFitNu:
    def test_smoke_small(self):
        (pair,) = R.fit_nu_practical([100])
        assert pair[0] == 100
        assert 0.0 < pair[1] < 10.0

    def test_slow_variation(self):
        out = R.fit_nu_practical([10**5, 10**6])
        assert [x for x, _ in out] == [10**5, 10**6]
        r1, r2 = out[0][1], out[1][1]
        assert abs(r2 - r1) / r1 < 0.10

    def test_input_order_ignored(self):
        a = R.fit_nu_practical([10**4, 10**3])
        b = R.fit_nu_practical([10**3, 10**4])
        assert a == b

    def test_domain(self):
        with pytest.raises(RangeError):
            R.fit_nu_practical([])
        with pytest.raises(RangeError):
            R.fit_nu_practical([1])


class TestLPartial:
    def test_hand_oracle_small(self):
        # practical members up to 10: 1, 2, 4, 6, 8; exact rational arithmetic
        table = {1: (1, 2), 2: (2, 4), 4: (3, 8), 6: (4, 13), 8: (4, 16)}
        primes = [2, 3, 5, 7, 11, 13]
        want = 0.0
        for n, (tau_n, theta) in table.items():
            prod = Fraction(1)
            for p in primes:
                if p <= theta:
                    prod *= Fraction(p - 1, p)
            want += float(Fraction(tau_n, n) * prod * prod)
        got = R.L_partial(ThetaRule.practical(), 10)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rule", [ThetaRule.practical(), ThetaRule.dense(2)])
    def test_monotone_and_bounded(self, rule):
        vals = [R.L_partial(rule, n) for n in (10, 100, 10**3, 10**4, 10**5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_frozen_value(self):
        assert R.L_partial(ThetaRule.dense(2), 10**5) == pytest.approx(
            0.6362052924951118, rel=1e-9
        )

    @pytest.mark.parametrize("rule", [ThetaRule.practical(), ThetaRule.dense(2)])
    def test_multi_equals_each_cutoff_bitwise(self, rule, full_list_sums):
        cuts = [10, 100, 10**3, 10**4, 10**5, 10**6]
        want = []
        for n in cuts:
            # each cutoff on its own walk and a full prime list sized for it
            ns, taus, tf = b_rows(rule, n)
            m = np.exp(full_list_sums(tf, _log_mertens))
            want.append(math.fsum((taus / ns.astype(np.float64) * m * m).tolist()))
            assert R.L_partial(rule, n) == want[-1]
        assert R.L_partial_multi(rule, cuts) == want
        assert R.L_partial_multi(rule, cuts[::-1]) == want[::-1]

    @pytest.mark.parametrize("rule", [ThetaRule.practical(), ThetaRule.dense(2)])
    def test_ladder_to_1e7_equals_full_list_bitwise(self, rule, full_list_sums):
        ns, taus, tf = b_rows(rule, 10**7)
        m = np.exp(full_list_sums(tf, _log_mertens))
        terms = (taus / ns.astype(np.float64) * m * m).tolist()
        cuts = [10**5, 10**6, 10**7]
        want = [math.fsum(terms[: np.searchsorted(ns, n, "right")]) for n in cuts]
        assert R.L_partial_multi(rule, cuts) == want


class TestCTheta:
    @pytest.mark.parametrize("rule", [ThetaRule.practical(), ThetaRule.dense(2)])
    @pytest.mark.parametrize("n", [10**3, 10**7])
    def test_breakdown_equals_full_list_bitwise(self, rule, n, full_list_sums):
        ns, _, tf = b_rows(rule, n)
        nf = ns.astype(np.float64)
        logp = full_list_sums(tf, lambda p: np.log(p) / (p - 1.0))
        terms = (logp - np.log(nf)) * np.exp(full_list_sums(tf, _log_mertens)) / nf
        info = R.c_theta_breakdown(rule, n)
        assert info["value"] == math.fsum(terms.tolist()) / (1.0 - EXP_NEG_GAMMA)
        assert info["min_term"] == terms.min()
        assert info["terms"] == terms.size

    def test_builtin_rules_have_positive_terms(self):
        for rule in (ThetaRule.practical(), ThetaRule.dense(2)):
            info = R.c_theta_breakdown(rule, 10**5)
            assert info["negative_terms"] == 0
            assert info["min_term"] > 0.0

    def test_practical_value_near_limit(self):
        assert 1.2 < R.c_theta_breakdown(ThetaRule.practical(), 10**5)["value"] < 1.4


class TestSeriesEngine:
    """Windows of 7 rows and prime blocks of 1, 3, 500 and 16 (in sub-blocks of 4)
    odd numbers change no bit."""

    X = 2000
    RULES = {
        "practical": ThetaRule.practical(),
        "dense-2": ThetaRule.dense(2),
        "dense-5/2": ThetaRule.dense(Fraction(5, 2)),
    }
    CUTS = {
        "ascending": [1, 10, 100, 1000, X],
        "reversed": [X, 1000, 100, 10, 1],
        "repeated": [100, 10, X, 100, 1, X],
    }

    @pytest.fixture(
        params=[1, 3, 500, (16, 4)],
        ids=lambda b: f"block{b}" if isinstance(b, int) else "block%d-sub%d" % b,
    )
    def small(self, request, monkeypatch):
        # a lone block size leaves _SUB to clamp to it; (16, 4) cuts each block in four
        from divmean import _util, sieve

        block, sub = (request.param, sieve._SUB) if isinstance(request.param, int) else request.param
        monkeypatch.setattr(_util, "CHUNK", 7)
        monkeypatch.setattr(sieve, "_BLOCK", block)
        monkeypatch.setattr(sieve, "_SUB", sub)

    @pytest.mark.parametrize("cuts", CUTS.values(), ids=CUTS.keys())
    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    def test_L_equals_full_list_bitwise(self, rule, cuts, small, full_list_sums):
        ns, taus, tf = b_rows(rule, max(cuts))
        m = np.exp(full_list_sums(tf, _log_mertens))
        terms = taus / ns.astype(np.float64) * m * m
        want = [math.fsum(terms[ns <= n].tolist()) for n in cuts]
        assert R.L_partial_multi(rule, cuts) == want

    @pytest.mark.parametrize("n", [1, 100, X])
    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    def test_c_theta_equals_full_list_bitwise(self, rule, n, small, full_list_sums):
        ns, _, tf = b_rows(rule, n)
        nf = ns.astype(np.float64)
        logp = full_list_sums(tf, lambda p: np.log(p) / (p - 1.0))
        terms = (logp - np.log(nf)) * np.exp(full_list_sums(tf, _log_mertens)) / nf
        info = R.c_theta_breakdown(rule, n)
        assert info["value"] == math.fsum(terms.tolist()) / (1.0 - EXP_NEG_GAMMA)
        assert info["min_term"] == terms.min()
        assert info["terms"] == terms.size
        assert info["negative_terms"] == np.count_nonzero((terms < -1e-12) & (tf >= ns))

    def test_traced_peak_below_10_mib(self):
        # one walk keeps B(1e7)'s 30,922 parent records and one window of rows per
        # prime sub-block (about 7 MiB); storing its 829,157 rows at 13 bytes each
        # would peak near 14.6 MiB
        import tracemalloc

        rule = ThetaRule.practical()
        tracemalloc.start()
        try:
            R.L_partial_multi(rule, [10**5, 10**6, 10**7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    def test_refused_past_budget_without_the_records(self, monkeypatch):
        # the count of B(1e9) passes the budget within its first parents; keeping all
        # 779,659 parent records (40 bytes each) before counting would peak near 60 MiB
        import tracemalloc

        from divmean import theta
        from divmean.errors import ResourceError

        monkeypatch.setattr(theta, "MEMBER_LIMIT", 10**5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="^64782731 chain members exceed budget 100000$"):
                R.c_theta_breakdown(ThetaRule.practical(), 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestFigures:
    def test_fig1_start_and_convergence(self):
        csv = R.emit_figure_data("fig1")
        lines = csv.splitlines()
        assert lines[0] == "u,tau_scale,tau_scale_asymptote,tau_mean,tau_mean_asymptote"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 2.0
        assert float(first[3]) == 2.0
        at10 = next(l for l in lines if l.startswith("10,")).split(",")
        assert abs(float(at10[3]) - float(at10[4])) < 1e-6
        assert abs(float(at10[1]) - float(at10[2])) < 1e-6

    def test_fig2_remainder_scale(self):
        csv = R.emit_figure_data("fig2")
        lines = csv.splitlines()
        assert lines[0] == "v,growth,growth_approx"
        at0 = lines[1].split(",")
        assert float(at0[1]) == 0.0
        at40 = next(l for l in lines if l.startswith("40,")).split(",")
        assert abs(float(at40[1]) - float(at40[2])) < 10.0 * 41.0**-1.962

    def test_custom_grid_and_determinism(self):
        a = R.emit_figure_data("fig1", 2.0, 4.0, 0.5)
        b = R.emit_figure_data("fig1", 2.0, 4.0, 0.5)
        assert a == b
        assert len(a.splitlines()) == 1 + 5

    def test_unknown_figure(self):
        with pytest.raises(RangeError):
            R.emit_figure_data("fig3")

    def test_tabulate_xi_grid(self):
        csv = R.tabulate_fn("xi", 0, 10, 0.25)
        lines = csv.splitlines()
        assert lines[0] == "u,value,err_budget"
        assert len(lines) == 1 + 41
        at1 = next(l for l in lines if l.startswith("1,")).split(",")
        assert float(at1[1]) == 2.0
        assert float(at1[2]) == get_bundle().ratio.err_budget

    def test_tabulate_names_and_domain(self):
        omega_at = R.tabulate_fn("omega", 2.5, 2.5, 1.0)
        val = float(omega_at.splitlines()[1].split(",")[1])
        assert val == pytest.approx((1.0 + math.log(1.5)) / 2.5, abs=1e-9)
        with pytest.raises(RangeError):
            R.tabulate_fn("zeta", 1, 2, 1)
        with pytest.raises(RangeError):
            R.tabulate_fn("lambda", 0, 60, 1)  # growth grid ends at 50
        with pytest.raises(RangeError):
            R.tabulate_fn("xi", 0, 10, -1)


class TestRowPlumbing:
    @given(
        exact=st.floats(-1e6, 1e6, allow_nan=False),
        estimate=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_rel_err_invariant(self, exact, estimate):
        row = R.CompareRow("r", (("x", 1),), exact, estimate, envelope=0.1)
        assert row.rel_err == abs(exact - estimate) / max(abs(exact), 1.0)
        assert row.ok == (row.rel_err <= 0.1 * row.slack)

    def test_csv_shape(self):
        rows = R.compare_rough(1000, 10)
        csv = R.rows_to_csv(rows)
        lines = csv.splitlines()
        assert len(lines) == 1 + len(rows)
        assert all(l.count(",") == lines[0].count(",") for l in lines)
        assert csv.endswith("\n")

    def test_jsonl_round_trip(self):
        import json

        rows = R.compare_dense(1000, 3)
        for line, row in zip(R.rows_to_jsonl(rows).splitlines(), rows):
            d = json.loads(line)
            assert d["label"] == row.label
            assert d["params"] == {"x": 1000, "t": 3}
            assert d["ok"] == row.ok

    def test_sorting_by_params(self):
        rows = R.compare_rough(2000, 10) + R.compare_rough(1000, 10)
        ordered = R.sort_rows(rows)
        xs = [dict(r.params)["x"] for r in ordered]
        assert xs == sorted(xs)
