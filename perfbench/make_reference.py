"""Write perfbench/reference.json: the output of every command any seed can run.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are trusted.  Each command
runs once in a fresh process, as in the benchmark.  Before anything is
written, the exact integers are cross-checked against code that shares
nothing with divmean:

- chain counts, tau sums and member streams against a membership test by
  factorisation (numpy smallest-prime-factor sieve, every n <= x), not the
  chain walk;
- rough counts and tau sums against a plain sieve and a hyperbola count;
- the funceq left sides against sum_{d <= x} floor(x/d);
- the small-x oracles in tests/oracles/ against the same CLI commands.

Floats (constants, tables, figures, estimates) are stored as printed.
"""

import hashlib
import json
import math
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from jobs import REFERENCE, checkout_env, compare_text, run_cli, stream_digest
from workloads import WORKLOADS, all_commands

CHAIN_RULES = {"practical": None, "2": Fraction(2), "5/2": Fraction(5, 2), "100": Fraction(100)}


def spf_sieve(limit):
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    idx = np.flatnonzero(spf == 0)
    spf[idx] = idx
    return spf


def chain_tables(limit):
    """Per rule: (member mask, tau) for 0 <= n <= limit, by factorisation.

    n = p1^a1 ... pk^ak (ascending) is a member when each p_i <= theta of
    the product of the earlier prime powers: n*t for dense, sigma+1 for
    practical.
    """
    spf = spf_sieve(limit)
    members = {rule: np.zeros(limit + 1, dtype=bool) for rule in CHAIN_RULES}
    tau = np.zeros(limit + 1, dtype=np.int64)
    step = 1 << 20
    for lo in range(1, limit + 1, step):
        n = np.arange(lo, min(lo + step, limit + 1), dtype=np.int64)
        r = n.copy()
        prefix = np.ones_like(n)
        sig = np.ones_like(n)
        tu = np.ones_like(n)
        ok = {rule: np.ones(n.size, dtype=bool) for rule in CHAIN_RULES}
        while True:
            act = np.flatnonzero(r > 1)
            if act.size == 0:
                break
            p = spf[r[act]].astype(np.int64)
            for rule, t in CHAIN_RULES.items():
                if t is None:
                    cap_ok = p <= sig[act] + 1
                else:
                    cap_ok = p * t.denominator <= prefix[act] * t.numerator
                ok[rule][act] &= cap_ok
            a = np.zeros(act.size, dtype=np.int64)
            pk = np.ones(act.size, dtype=np.int64)
            ra = r[act]
            div = np.ones(act.size, dtype=bool)
            while div.any():
                ra = np.where(div, ra // p, ra)
                pk = np.where(div, pk * p, pk)
                a += div
                div = ra % p == 0
            r[act] = ra
            prefix[act] *= pk
            sig[act] *= (pk * p - 1) // (p - 1)
            tu[act] *= a + 1
        tau[n] = tu
        for rule in CHAIN_RULES:
            members[rule][n] = ok[rule]
    return members, tau


def rough_exact(x, y):
    """(count, tau sum) of n <= x with no prime factor <= y, n = 1 included."""
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for p in range(2, math.floor(y) + 1):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            mask[p::p] = False
    rough = np.flatnonzero(mask)
    # ordered pairs a*b <= x of rough numbers: a = b, or a < b counted twice
    small = rough[rough <= isqrt(x)]
    upper = np.searchsorted(rough, x // small, side="right")
    below = np.searchsorted(rough, small, side="right")
    return len(rough), int(small.size + 2 * (upper - below).sum())


def divisor_sum_lhs(x):
    s = isqrt(x)
    d = np.arange(1, s + 1, dtype=np.int64)
    return int(2 * (x // d).sum() - s * s)


def stream_of(mask, x):
    data = "".join(f"{n}\n" for n in np.flatnonzero(mask[: x + 1]).tolist()).encode()
    return {"lines": data.count(b"\n"), "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def cross_check(commands, chain, tau):
    """Yield (command, problem) for every exact field that disagrees."""
    for cmd, ref in commands.items():
        w = cmd.split()
        opt = {w[i][2:]: w[i + 1] for i in range(len(w) - 1) if w[i].startswith("--")}
        out = ref["stdout"]
        want = None
        if w[0] == "stats":
            _x, count, tau_sum, _harmonic = out.splitlines()[1].split(",")
            got = (int(count), int(tau_sum))
        if w[:2] == ["stats", "rough"]:
            want = rough_exact(int(opt["x"]), float(opt["y"]))
        elif w[0] == "stats":
            x = int(opt["x"])
            m = chain["practical" if w[1] == "practical" else opt["t"]][: x + 1]
            want = (int(m.sum()), int(tau[: x + 1][m].sum()))
        elif w[0] == "enumerate":
            want, got = stream_of(chain["practical"], int(opt["x"])), ref["stream"]
        elif w[:2] == ["verify", "rough"]:
            rows = {ln.split(",")[0]: ln.split(",") for ln in out.splitlines()[1:-1]}
            want = rough_exact(int(opt["x"]), float(opt["y"]))
            got = (int(rows["rough_count"][2]), int(rows["rough_tau_sum"][2]))
        elif w[:2] == ["verify", "dense"]:
            x = int(opt["x"])
            m = chain[opt["t"]][: x + 1]
            want = int(tau[: x + 1][m].sum())
            got = int(out.splitlines()[1].split(",")[2])
        elif w[:2] == ["verify", "funceq"]:
            x = int(opt["x"])
            want = (x, divisor_sum_lhs(x))
            vals = dict(ln.split(" = ") for ln in out.splitlines()[:-1])
            got = (int(vals["count_lhs"]), int(vals["tau_lhs"]))
            if vals["count_lhs"] != vals["count_rhs"] or vals["tau_lhs"] != vals["tau_rhs"]:
                yield cmd, "funceq sides differ"
        elif w[:2] == ["verify", "ctheta"]:
            bx = int(opt["count-x"])
            count = int(chain["practical"][: bx + 1].sum())
            want = f"count_scaled({bx}) = {count * math.log(bx) / bx:.15g}"
            got = out.splitlines()[1]
            if compare_text(got, want) is None:
                got = want
        if want is not None and got != want:
            yield cmd, f"divmean printed {got}, independent check gives {want}"


def oracle_checks(env, work):
    """The tests/oracles/ scripts against the CLI at the x they can reach."""
    oracle = Path.cwd() / "tests" / "oracles"

    def run(script):
        argv = [sys.executable, str(oracle / script)]
        return subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout

    rough = dict(ln.split(" = ") for ln in run("oracle_rough_filter.py").splitlines())
    job = run_cli("stats rough --x 100 --y 7", env, work, work / "unused")
    _, count, tau_sum, harm = job.stdout.decode().splitlines()[1].split(",")
    if (count, tau_sum, harm) != (rough["phi(100,7)"], rough["S(100,7)"], rough["harmonic(100,7)"]):
        yield "stats rough --x 100 --y 7", f"oracle gives {rough}"
    lam = run("oracle_lambda_small.py").splitlines()
    job = run_cli("fn lambda --from 2 --to 3 --step 0.5", env, work, work / "unused")
    rows = job.stdout.decode().splitlines()[1:]
    for ln, row in zip(lam, rows):
        want = float(ln.split(" = ")[1])
        got = float(row.split(",")[1])
        if abs(got - want) > 1e-7:
            yield f"fn lambda at {row.split(',')[0]}", f"{got} vs oracle {want}"


def main():
    root = Path.cwd()
    env = checkout_env(root)
    commands = {}
    with tempfile.TemporaryDirectory(dir=root / "perfbench") as tmp:
        work = Path(tmp)
        for wl in WORKLOADS:
            for cmd in all_commands(wl):
                out_file = work / "stream.txt"
                job = run_cli(cmd, env, work, out_file)
                ref = {"exit": job.code, "stdout": job.stdout.decode()}
                if "{out}" in cmd:
                    ref["stream"] = stream_digest(out_file)
                    out_file.unlink()
                commands[cmd] = ref
                print(f"{job.wall_s:7.2f} s  exit {job.code}  {cmd}", flush=True)
                if job.code != 0:
                    sys.exit(f"{cmd} exited {job.code}: {job.stderr}")
        problems = list(oracle_checks(env, work))
    xmax = max(int(c.split("--x ")[1].split()[0]) for c in commands if c.startswith(("stats dense", "stats practical")))
    chain, tau = chain_tables(xmax)
    problems += list(cross_check(commands, chain, tau))
    for cmd, why in problems:
        print(f"MISMATCH {cmd}: {why}", file=sys.stderr)
    if problems:
        return 1
    REFERENCE.write_text(json.dumps({"commands": commands}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(commands)} references to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
