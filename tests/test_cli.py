"""Command-line behavior: artifacts on stdout, diagnostics on stderr, exit codes."""

import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from divmean import constants, report, sieve, theta
from divmean.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    def test_lists_every_subcommand(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        for name in ("constants", "fn", "enumerate", "stats", "verify", "figures"):
            assert name in out

    def test_defaults_documented(self, capsys):
        _, out, _ = run(["fn", "--help"], capsys)
        assert "default 0.25" in out
        _, out, _ = run(["enumerate", "--help"], capsys)
        assert "--threads" in out and "ignored" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(["fn", "xi", "--bogus"], capsys)
        assert code == 2


class TestFn:
    def test_xi_grid_shape(self, capsys):
        code, out, _ = run(
            ["fn", "xi", "--from", "0", "--to", "10", "--step", "0.25"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 41
        assert lines[0] == "u,value,err_budget"
        assert "1,2,2e-09" in lines

    def test_unknown_function(self, capsys):
        assert run(["fn", "zeta"], capsys)[0] == 2

    def test_beyond_grid_is_usage_error(self, capsys):
        code, _, err = run(
            ["fn", "lambda", "--from", "0", "--to", "60", "--step", "1"], capsys
        )
        assert code == 2
        assert "error:" in err


class TestEnumerate:
    def test_rough_members_match_golden(self, capsys):
        code, out, err = run(["enumerate", "rough", "--x", "100", "--y", "7"], capsys)
        assert code == 0
        want = re.search(r"members = \[(.*)\]", (GOLDEN / "rough_100_7_oracle.txt").read_text())
        expected = [int(s) for s in want.group(1).split(",")]
        assert [int(s) for s in out.split()] == expected
        assert "enumerated" in err  # progress stays off stdout

    def test_rough_streams_block_by_block(self, capsys, monkeypatch, rough_reference):
        # blocks of 3 odd numbers: the members are written as each block is
        # sieved, in order, and counted over every block
        monkeypatch.setattr(sieve, "_BLOCK", 3)
        code, out, err = run(["enumerate", "rough", "--x", "1000", "--y", "7.5"], capsys)
        assert code == 0
        members = rough_reference(1000, 7.5)[0].tolist()
        assert out == "".join(f"{n}\n" for n in members)
        assert err == f"enumerated {len(members)} rough members\n"

    def test_rough_requires_y(self, capsys):
        assert run(["enumerate", "rough", "--x", "100"], capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "practical", "--x", "0"],
            ["enumerate", "rough", "--x", "100"],
            ["enumerate", "rough", "--x", "0", "--y", "3"],
        ],
        ids=["practical-x0", "rough-no-y", "rough-x0"],
    )
    def test_rejected_request_keeps_out_file(self, argv, capsys, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"keep\n")
        code, out, _ = run([*argv, "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert path.read_bytes() == b"keep\n"

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        one = tmp_path / "one.txt"
        four = tmp_path / "four.txt"
        args = ["enumerate", "practical", "--x", "20000"]
        assert run(args + ["--threads", "1", "--out", str(one)], capsys)[0] == 0
        assert run(args + ["--threads", "4", "--out", str(four)], capsys)[0] == 0
        assert one.read_bytes() == four.read_bytes()


class TestMemberBudget:
    """More chain members than MEMBER_LIMIT are refused before they are built."""

    X = 20000
    CASES = [
        ["enumerate", "practical", "--x", str(X)],
        ["verify", "L", "--theta", "practical", "--n", str(X)],
        ["verify", "ctheta", "--theta", "practical", "--n", str(X), "--count-x", "1000"],
    ]
    IDS = ["enumerate", "verify-L", "verify-ctheta"]

    @staticmethod
    def _members():
        (st,) = theta.chain_stats_multi(theta.ThetaRule.practical(), [TestMemberBudget.X])
        return st.count

    @pytest.mark.parametrize("argv", CASES, ids=IDS)
    def test_over_budget_is_usage_error(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(theta, "MEMBER_LIMIT", self._members() - 1)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        path = tmp_path / "f"
        path.write_bytes(b"keep\n")
        assert run([*argv, "--out", str(path)], capsys)[0] == 2
        assert path.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("argv", CASES, ids=IDS)
    def test_count_at_budget_passes(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(theta, "MEMBER_LIMIT", self._members())
        code, out, _ = run(argv, capsys)
        assert code == 0
        if argv[0] == "enumerate":
            assert len(out.split()) == self._members()

    def test_failed_allocation_is_one_error_line(self, capsys, monkeypatch):
        # below the budget numpy can still fail to allocate, e.g. under ulimit -v
        def no_memory(rule, x):
            raise MemoryError("Unable to allocate 494. MiB for an array")

        monkeypatch.setattr(theta, "generate_B", no_memory)
        code, out, err = run(self.CASES[0], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: Unable to allocate 494. MiB for an array"]


class TestStats:
    def test_rough_golden_line(self, capsys):
        code, out, _ = run(["stats", "rough", "--x", "100", "--y", "7"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "x,count,tau_sum,harmonic",
            "100,22,43,1.62662672485839",
        ]

    def test_chain_stats_have_no_harmonic(self, capsys):
        _, out, _ = run(["stats", "practical", "--x", "1000"], capsys)
        assert out.splitlines()[1] == "1000,198,2870,"

    def test_dense_needs_t(self, capsys):
        assert run(["stats", "dense", "--x", "1000"], capsys)[0] == 2

    def test_dense_theta_past_int64(self, capsys):
        # theta(n) = n*1e21 is past int64 from n = 1; every cap is x//n
        code, out, _ = run(["stats", "dense", "--t", "1e21", "--x", "1000"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1000,1000,7069,"


BIG_T = ["--theta", "dense", "--t", "1000000000000000000000"]


class TestVerify:
    def test_funceq_theta_past_int64(self, capsys):
        # a floor past x//n is never an inner sum, and B(1000) is all of [1, 1000]
        code, out, err = run(["verify", "funceq", *BIG_T, "--x", "1000"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "count_lhs = 1000", "count_rhs = 1000", "tau_lhs = 7069", "tau_rhs = 7069", "PASS"
        ]

    def test_series_theta_past_int64_is_usage_error(self, capsys):
        # the series rows carry theta floors as int64
        code, out, err = run(["verify", "L", *BIG_T, "--n", "100"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: theta floor 100000000000000000000000 beyond int64\n"

    def test_series_floor_past_prime_walk_is_resource_error(self, capsys):
        # floors near 1e17 fit int64 but not the prime walk: refused before any
        # array sized by the floors (a TiB of row counts) is made
        code, out, err = run(["verify", "L", "--theta", "dense", "--t", "1e15", "--n", "100"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: prime sieve of 100000000000000001 entries exceeds budget 8589934592\n"

    def test_dense_t_past_float_range_refused_before_walk(self, capsys, monkeypatch):
        # log t is a float: a t past float range is refused before any walk,
        # while stats and funceq, exact integer paths, take the same t
        walks = []
        monkeypatch.setattr(theta, "_walk", lambda *a: walks.append(a))
        code, out, err = run(["verify", "dense", "--x", "100", "--t", "1e400"], capsys)
        assert (code, out, walks) == (2, "", [])
        assert err == "error: t beyond float range, where log t is taken\n"
        monkeypatch.undo()
        _, out, _ = run(["stats", "dense", "--x", "100", "--t", "1e400"], capsys)
        assert out.splitlines()[1] == "100,100,482,"
        code, out, _ = run(["verify", "funceq", "--theta", "dense", "--t", "1e400", "--x", "100"], capsys)
        assert (code, out.splitlines()[-1]) == (0, "PASS")

    def test_funceq_exact_pass(self, capsys):
        code, out, _ = run(
            ["verify", "funceq", "--theta", "dense", "--t", "2", "--x", "100000"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "PASS"
        vals = dict(l.split(" = ") for l in lines[:-1])
        assert vals["count_lhs"] == vals["count_rhs"]
        assert vals["tau_lhs"] == vals["tau_rhs"]

    @pytest.mark.parametrize(
        "rule",
        [["--theta", "dense", "--t", "2"], ["--theta", "practical"]],
        ids=["dense2", "practical"],
    )
    def test_funceq_builds_no_spf_table(self, rule, capsys, monkeypatch):
        # the inner sums come from the rough sieve, never from the spf table
        def refuse(*args, **kwargs):
            raise RuntimeError("build_spf_table called")

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "divmean" and hasattr(mod, "build_spf_table"):
                monkeypatch.setattr(mod, "build_spf_table", refuse)
        code, out, _ = run(["verify", "funceq", *rule, "--x", "100000"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_funceq_above_rough_limit_refused_before_walk(self, capsys, monkeypatch):
        calls = []
        walk = theta._walk
        monkeypatch.setattr(theta, "_walk", lambda *a: calls.append(a) or walk(*a))
        monkeypatch.setattr(theta, "ROUGH_LIMIT", 10**4)
        code, out, err = run(["verify", "funceq", "--x", "100000"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: x=100000 above rough sieve limit 10000\n"
        assert calls == []

    def test_rough_rows_pass(self, capsys):
        code, out, _ = run(["verify", "rough", "--x", "100000", "--y", "46"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("label,params,")
        assert lines[-1] == "PASS"
        assert all(l.endswith(",1") for l in lines[1:-1])

    def test_json_rows_parse(self, capsys):
        code, out, _ = run(
            ["verify", "dense", "--x", "10000", "--t", "2", "--json"], capsys
        )
        assert code == 0
        *rows, verdict = out.splitlines()
        assert verdict == "PASS"
        for line in rows:
            d = json.loads(line)
            assert d["ok"] is True
            assert d["params"] == {"x": 10000, "t": 2}

    def test_practical_fit(self, capsys):
        code, out, _ = run(["verify", "practical", "--xs", "10000,100000"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,ratio"
        assert lines[-1] == "PASS"
        assert float(lines[1].split(",")[1]) > 0

    def test_series_ladder(self, capsys):
        code, out, _ = run(["verify", "L", "--theta", "practical", "--n", "10000"], capsys)
        assert code == 0
        lines = out.splitlines()
        vals = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert vals == sorted(vals)
        assert lines[-1] == "PASS"

    def test_ctheta_cross_check(self, capsys):
        code, out, _ = run(
            ["verify", "ctheta", "--theta", "practical", "--n", "10000",
             "--count-x", "100000"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert "negative_terms = 0" in out

    @pytest.mark.parametrize("bx", ["0", "-5"])
    def test_ctheta_nonpositive_count_x_is_usage_error(self, bx, capsys):
        code, out, err = run(["verify", "ctheta", "--n", "1000", "--count-x", bx], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: cutoffs must be positive integers"]

    def test_series_ladder_walks_once(self, capsys, monkeypatch):
        # the cutoffs share one walk of B(N), whose parent records give every
        # row, and never b_rows; the Mertens sums strike with the primes up to
        # sqrt(theta), from a list of no more than those
        calls = {"b_rows": [], "_walk": [], "build_prime_list": [], "odd_blocks": []}

        def recorded(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append((mod.__name__, args, result))
                return result

            monkeypatch.setattr(mod, name, wrapper)

        practical = theta.ThetaRule.practical()
        tops = {n: int(theta.b_rows(practical, n)[2].max()) for n in (1, 100000)}
        recorded(theta, "b_rows")
        recorded(theta, "_walk")
        # report reads sieve.build_prime_list through the module; theta holds its own name
        for mod in (sieve, theta):
            recorded(mod, "build_prime_list")
        recorded(sieve, "odd_blocks")
        for n, cutoffs in ((100000, 3), (1, 1)):
            for key in calls:
                calls[key].clear()
            code, out, _ = run(["verify", "L", "--theta", "practical", "--n", str(n)], capsys)
            assert code == 0
            assert len(out.splitlines()) == cutoffs + 2
            assert calls["b_rows"] == []
            assert [x for _, (_, x), _ in calls["_walk"]] == [n]
            # theta's list serves the walk; the sieve side lists only striking primes
            assert [mod for mod, _, _ in calls["build_prime_list"]].count("divmean.theta") == 1
            for mod, (limit,), _ in calls["build_prime_list"]:
                assert mod == "divmean.theta" or limit <= math.isqrt(tops[n])
            # and every block strikes with the primes up to sqrt(theta)
            assert calls["odd_blocks"]
            for _, (top, bound), _ in calls["odd_blocks"]:
                assert min(bound, math.isqrt(top)) <= math.isqrt(tops[n])

    def test_series_n_1_prints_one_row(self, capsys):
        # every rung of the ladder is capped at --n
        code, out, err = run(["verify", "L", "--n", "1"], capsys)
        assert (code, err) == (0, "")
        assert out == "N,L_partial\n1,0.25\nPASS\n"

    def test_series_above_old_sieve_budget(self, capsys):
        # max theta is about 1.4e8, past the 2^27 entries a full prime list may hold
        code, out, err = run(["verify", "L", "--theta", "practical", "--n", "30000000"], capsys)
        assert code == 0, err
        assert out.splitlines()[0] == "N,L_partial"
        assert out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("kind", ["L", "ctheta", "practical", "funceq"])
    def test_json_without_json_rows_is_usage_error(self, kind, capsys):
        code, out, err = run(["verify", kind, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: verify {kind} has no --json output"]

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_series_nonpositive_n_is_usage_error(self, n, capsys):
        code, out, err = run(["verify", "L", "--n", n], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: cutoffs must be positive integers\n"

    def test_series_sieve_over_budget(self, capsys):
        # theta(100) = 1e10 lies past the prime walk budget; refused before sieving
        code, out, err = run(
            ["verify", "L", "--theta", "dense", "--t", "100000000", "--n", "100"], capsys
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: prime sieve of")


class TestFigures:
    def test_fig2_matches_independent_oracle(self, capsys):
        # the tabulation oracle froze growth values at small arguments
        want = re.search(
            r"lambda\(2\) = ([0-9.]+)",
            (GOLDEN / "lambda_small_oracle.txt").read_text(),
        ).group(1)
        code, out, _ = run(
            ["figures", "fig2", "--from", "0", "--to", "2", "--step", "1"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "v,growth,growth_approx"
        assert lines[3].split(",")[1] == want

    @pytest.mark.parametrize(
        "argv", [["figures", "fig2"], ["verify", "dense", "--x", "10000", "--t", "2"]]
    )
    def test_reads_only_delta(self, argv, capsys, monkeypatch):
        # each root is refined on its first read, and these commands read delta alone
        seeds, refine = [], constants.refine_zero
        monkeypatch.setattr(constants, "refine_zero", lambda s: seeds.append(s) or refine(s))
        constants.root_certificate.cache_clear()
        assert run(argv, capsys)[0] == 0
        assert seeds == [constants._ROOT_SEEDS["delta"]]

    @pytest.mark.parametrize("lo,code", [("-3", 2), ("-1", 2), ("-0.75", 0)])
    def test_fig2_grid_must_start_above_minus_one(self, lo, code, capsys):
        # (v+1)^delta and 1/(v+1) are undefined at and below v = -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run(
                ["figures", "fig2", "--from", lo, "--to", "0", "--step", "0.25"], capsys
            )
        assert got == code
        if code:
            assert out == "" and err == "error: fig2 grid must start above -1, got " + lo + "\n"
        else:
            assert "nan" not in out and "inf" not in out and err == ""

    def test_fig1_default_shape(self, capsys):
        code, out, _ = run(["figures", "fig1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 57
        assert lines[1].split(",")[1] == "2"


class TestConstantsCommand:
    def test_text_summary(self, capsys):
        code, out, _ = run(["constants"], capsys)
        assert code == 0
        vals = dict(l.rsplit(" = ", 1) for l in out.splitlines() if " = " in l)
        d = float(vals["delta via g (V=6)"])
        assert 0.713611 < d < 0.713614
        assert abs(float(vals["delta via transform"]) - d) < 1e-5
        assert abs(float(vals["lambda0 via residue"]) - 1.118192) < 1e-6
        assert abs(float(vals["lambda1 closed form"]) - (-1.8970117177)) < 1e-9

    def test_json_document(self, capsys):
        code, out, _ = run(["constants", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["census"]["wide_rect"] == 2
        assert doc["delta"]["bracket"][0] < doc["delta"]["value"] < doc["delta"]["bracket"][1]
        assert doc["rouche"]["tail_bound_V5"] < 0.0035

    def test_bad_truncation_is_usage_error(self, capsys):
        assert run(["constants", "--v", "4"], capsys)[0] == 2


class TestBadNumbers:
    """A malformed number is a usage error (exit 2), never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "dense", "--x", "1000", "--t", "nan"],
            ["verify", "dense", "--x", "1000", "--t", "abc"],
            ["verify", "rough", "--y", "inf"],
            ["stats", "rough", "--x", "100", "--y", "1e400"],
            ["verify", "practical", "--xs", "1,x"],
            ["fn", "xi", "--from", "nan"],
            ["figures", "fig2", "--step", "nan"],
            ["fn", "xi", "--to", "inf"],
            ["fn", "omega", "--step", "inf"],
            # 1e13 points: refused by count, before anything is allocated
            ["fn", "xi", "--step", "1e-12"],
        ],
        ids=[
            "t-nan",
            "t-abc",
            "y-inf",
            "y-1e400",
            "xs-1,x",
            "from-nan",
            "fig2-step-nan",
            "to-inf",
            "step-inf",
            "step-1e-12",
        ],
    )
    def test_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    def test_rational_t_still_accepted(self, capsys):
        code, out, _ = run(["stats", "dense", "--x", "1000", "--t", "5/2"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("1000,")


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "xi.csv"
        code, out, _ = run(["fn", "xi", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        code2, out2, _ = run(["fn", "xi"], capsys)
        assert path.read_text() == out2

    @pytest.mark.parametrize(
        "argv",
        [["stats", "practical", "--x", "100"], ["enumerate", "practical", "--x", "100"]],
        ids=["stats", "enumerate"],  # stats writes through _emit, enumerate opens the file itself
    )
    def test_unopenable_out_is_usage_error(self, argv, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run([*argv, "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{path}'"]


class TestGolden:
    """Rebuilding a checked-in artifact must reproduce it byte for byte."""

    CASES = [
        ("constants.json", ["constants", "--json"]),
        ("fn_xi.csv", ["fn", "xi", "--from", "0", "--to", "10", "--step", "0.25"]),
        ("fig1.csv", ["figures", "fig1"]),
        ("fig2.csv", ["figures", "fig2"]),
    ]

    @pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical(self, fname, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == (GOLDEN / fname).read_text()


@pytest.mark.skipif(
    platform.machine() not in {"x86_64", "AMD64"},
    reason="the Prescott OpenBLAS kernel exists only on x86-64",
)
class TestBlasKernelIndependence:
    """Golden artifacts must not depend on the BLAS kernel OpenBLAS picks.

    Prescott is the x86-64 baseline kernel, so it runs on any x86-64 CPU;
    the default kernel is whatever OpenBLAS chose for this CPU.
    """

    CASES = [
        ("constants.json", ["constants", "--json"]),
        ("fig2.csv", ["figures", "fig2"]),
    ]

    @staticmethod
    def _cli_bytes(argv, coretype=None):
        env = dict(os.environ)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run(
            [sys.executable, "-m", "divmean.cli", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    @pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
    def test_same_bytes_under_prescott(self, fname, argv):
        inherited = self._cli_bytes(argv)
        prescott = self._cli_bytes(argv, coretype="Prescott")
        assert inherited == prescott
        assert inherited == (GOLDEN / fname).read_bytes()


class TestEntryPoint:
    def test_subprocess_round_trip(self):
        script = shutil.which("divmean")
        cmd = [script] if script else [sys.executable, "-m", "divmean.cli"]
        proc = subprocess.run(
            cmd + ["stats", "rough", "--x", "100", "--y", "7"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "100,22,43,1.62662672485839"
