"""The divmean benchmark: fixed job mixes of real CLI commands.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; it imports divmean from ./src.  One
client runs the workload's six commands one after another, each in a fresh
interpreter, and waits for each (a closed loop, like a researcher or a
script).  Every command pays the import and its own table builds, as users
do.  Every output is checked against perfbench/reference.json.

--trace 0 reports the end-to-end metrics: setup_s (median wall time of a
fresh interpreter importing divmean.cli), and for one pass over the job
list wall_s, cpu_s (user+sys of all jobs, from wait4) and rss_peak_mb
(largest job peak RSS).  The pass figures are those of the median pass,
taken slot by slot: each job's median over the run's passes (at least
MIN_PASSES).  It also prints fail_frac and golden_mismatch, which are 0
when all is well.

--trace 1 runs every job twice in a row, plain and through traced.py, and
reports per-layer self times and work counts, the import split, and the
tracing overhead against the plain runs.

The last line of stdout is one JSON object; the lines before it are a
readable report and the machine the numbers were taken on.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from jobs import REFERENCE, check, checkout_env, run_cli, spawn
from traced import SPANNED
from workloads import GOLDEN, SLOTS, WORKLOADS, jobs_for

SETUP_SAMPLES = 3  # and one more after each pass
MIN_PASSES = 2
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "rss_peak_mb": "MB"}

# The chain-walk entry points; none calls another, so their members add up.
CHAIN_FNS = ("dense_stats", "practical_stats", "chain_stats_multi", "generate_B", "b_rows")
TABLE_BUILDERS = ("build_growth_fn", "build_ratio_fn", "build_buchstab")
# Callers whose b_rows rows are series terms.
SERIES_FNS = ("report.L_partial", "report.c_theta_breakdown")
LAYERS = ("sieve", "theta", "util", "funcs", "constants", "report", "cli")
# Reported as totals (get_bundle.s, pmap_ordered.s), every other span as self time.
SELF_TIMED = [
    name
    for name in (f"{mod.lstrip('_')}.{fn}" for mod, fn in SPANNED)
    if name not in ("funcs.get_bundle", "util.pmap_ordered")
]


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"import.cli_s": "s", "import.scipy_special_s": "s"}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update(
        {
            "sieve.build_prime_list.calls": "count",
            "sieve.prime_limit_sum": "count",
            "sieve.table_mb": "MB",
            "theta.members": "count",
            "theta.b_rows.rows": "count",
            "theta.members_per_s": "1/s",
            "theta.stream_bytes": "bytes",
            "util.pmap_ordered.s": "s",
            "util.pmap_ordered.cpu_per_wall": "ratio",
            "funcs.get_bundle.s": "s",
            "funcs.grid_nodes": "count",
            "funcs.eval_many.points": "count",
            "constants.g_many.points": "count",
            "constants.Q_eval.calls": "count",
            "report.series_terms": "count",
            "cli.main.self_s": "s",
            "cli.stdout_bytes": "bytes",
            "golden_mismatch": "count",
            "trace.overhead": "ratio",
        }
    )
    units.update({f"job.{slot}.wall_s": "s" for slot in range(1, SLOTS + 1)})
    return units


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.env = checkout_env(root)
        self.work = root / "perfbench" / "_work"
        self.cmds = jobs_for(workload, seed)
        self.refs = json.loads(REFERENCE.read_text())["commands"]
        self.golden = {}
        for cmd in self.cmds:
            if cmd in GOLDEN:
                path = root / "tests" / "golden" / GOLDEN[cmd]
                self.golden[cmd] = path.read_bytes() if path.is_file() else None
        self.attempted = 0
        self.failures = []

    def out_file(self, slot):
        return self.work / f"stream{slot}.txt"

    def run_pass(self, traced=False):
        """Run the job list once: (plain jobs, traced jobs, span files).

        With traced, each job runs again through traced.py right after its
        plain run, so the two see the same host speed.
        """
        plain, traced_jobs, spans = [], [], []
        for slot, cmd in enumerate(self.cmds, 1):
            plain.append(self.run_job(slot, cmd))
            if traced:
                span_file = self.work / f"spans{slot}.json"
                traced_jobs.append(self.run_job(slot, cmd, span_file))
                spans.append(json.loads(span_file.read_text()) if span_file.is_file() else None)
        return plain, traced_jobs, spans

    def run_job(self, slot, cmd, span_file=None):
        # a job that fails to write must not be judged on an older file
        for stale in (self.out_file(slot), span_file):
            if stale is not None:
                stale.unlink(missing_ok=True)
        job = run_cli(cmd, self.env, self.work, self.out_file(slot), span_file)
        self.attempted += 1
        why = check(job, self.refs.get(cmd), self.out_file(slot))
        if why:
            self.failures.append(f"job {slot} `{cmd}`: {why}")
        return job

    def golden_mismatch(self, jobs):
        return sum(1 for j in jobs if j.cmd in self.golden and j.stdout != self.golden[j.cmd])

    def import_sample(self, importtime=False):
        flags = ["-X", "importtime"] if importtime else []
        code, wall, _ru, _out, err = spawn(
            [sys.executable, *flags, "-c", "import divmean.cli"], self.env, self.work
        )
        if code != 0:
            raise SystemExit(f"cannot import divmean.cli from {self.root / 'src'}:\n{err}")
        return wall, err


def _cum_import_s(stderr, module):
    m = re.search(rf"^import time:\s+\d+ \|\s+(\d+) \| \s*{re.escape(module)}$", stderr, re.M)
    return int(m.group(1)) / 1e6 if m else 0.0


def span_metrics(span_docs):
    """Aggregate the span files of one traced pass into per-layer numbers."""
    self_s, total_s, cpu_s = Counter(), Counter(), Counter()
    calls, counts, points = Counter(), Counter(), Counter()
    series_terms = 0
    main_self = 0.0
    for doc in filter(None, span_docs):
        spans = doc["spans"]
        child = [0.0] * len(spans)
        top = 0.0
        for _name, t0, t1, parent, _cpu, _c in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
        main_self += doc["main"][1] - doc["main"][0] - top
        for (name, t0, t1, parent, cpu, c), below in zip(spans, child):
            self_s[name] += t1 - t0 - below
            total_s[name] += t1 - t0
            cpu_s[name] += cpu
            calls[name] += 1
            counts.update({(name, key): v for key, v in c.items()})
            if name == "theta.b_rows" and parent >= 0 and spans[parent][0] in SERIES_FNS:
                series_terms += c["members"]
        for name, (n_calls, n_points) in doc["counters"].items():
            calls[name] += n_calls
            points[name] += n_points

    out = {f"{name}.self_s": self_s[name] for name in SELF_TIMED}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["layer.cli.self_s"] = main_self
    chain_members = sum(counts[f"theta.{f}", "members"] for f in CHAIN_FNS)
    chain_self = sum(self_s[f"theta.{f}"] for f in CHAIN_FNS)
    pmap_wall = total_s["util.pmap_ordered"]
    table_bytes = counts["sieve.build_prime_list", "bytes"] + counts["sieve.build_spf_table", "bytes"]
    out.update(
        {
            "sieve.build_prime_list.calls": calls["sieve.build_prime_list"],
            "sieve.prime_limit_sum": counts["sieve.build_prime_list", "limit"],
            "sieve.table_mb": table_bytes / 2**20,
            "theta.members": chain_members,
            "theta.b_rows.rows": counts["theta.b_rows", "members"],
            "theta.members_per_s": chain_members / chain_self if chain_self > 0 else 0.0,
            "theta.stream_bytes": counts["theta.write_b_stream", "stream_bytes"],
            "util.pmap_ordered.s": pmap_wall,
            "util.pmap_ordered.cpu_per_wall": cpu_s["util.pmap_ordered"] / pmap_wall if pmap_wall > 0 else 0.0,
            "funcs.get_bundle.s": total_s["funcs.get_bundle"],
            "funcs.grid_nodes": sum(counts[f"funcs.{f}", "grid_nodes"] for f in TABLE_BUILDERS),
            "funcs.eval_many.points": points["funcs.eval_many"],
            "constants.g_many.points": points["constants.g_many"],
            "constants.Q_eval.calls": calls["constants.Q_eval"],
            "report.series_terms": series_terms,
            "cli.main.self_s": main_self,
        }
    )
    return out


def machine():
    """What the numbers depend on: CPU, interpreter, numeric stack, load."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "simd_found": simd.get("found"),
        "loadavg": list(os.getloadavg()),
        "openblas_env": {k: v for k, v in os.environ.items() if k.startswith(("OPENBLAS", "OMP_"))},
    }


def typical_pass(passes):
    """The median pass, built slot by slot from each job's median.

    From three passes on, a job that met a burst of interference on a
    shared host drops out of its slot instead of inflating the whole pass.
    """
    slots = list(zip(*passes))
    walls = [statistics.median(j.wall_s for j in s) for s in slots]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(statistics.median(j.cpu_s for j in s) for s in slots),
        "rss_peak_mb": max(statistics.median(j.rss_mb for j in s) for s in slots),
        "jobs": walls,
        "stdout_bytes": statistics.median(sum(len(j.stdout) for j in p) for p in passes),
    }


def run(args, root):
    bench = Bench(root, args.workload, args.seed)
    t_start = time.perf_counter()
    bench.import_sample()  # warm-up: byte-compiles src, fills the file cache
    metrics = {}
    plain, traced, layers = [], [], []
    if args.trace:
        samples = [bench.import_sample(importtime=True)[1] for _ in range(IMPORT_SAMPLES)]
        metrics["import.cli_s"] = statistics.median(_cum_import_s(s, "divmean.cli") for s in samples)
        metrics["import.scipy_special_s"] = statistics.median(_cum_import_s(s, "scipy.special") for s in samples)
    else:
        setup = [bench.import_sample()[0] for _ in range(SETUP_SAMPLES)]
    while True:
        t_round = time.perf_counter()
        jobs, traced_jobs, spans = bench.run_pass(traced=args.trace)
        plain.append(jobs)
        if args.trace:
            traced.append(traced_jobs)
            layers.append(span_metrics(spans))
        else:
            setup.append(bench.import_sample()[0])
        now = time.perf_counter()
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if enough and now - t_start + (now - t_round) > args.seconds:
            break

    golden = max(bench.golden_mismatch(p) for p in plain + traced)
    typical = typical_pass(plain)
    if args.trace:
        for name in layers[0]:
            metrics[name] = statistics.median(p[name] for p in layers)
        for slot, wall in enumerate(typical["jobs"], 1):
            metrics[f"job.{slot}.wall_s"] = wall
        metrics["cli.stdout_bytes"] = typical["stdout_bytes"]
        metrics["golden_mismatch"] = golden
        metrics["trace.overhead"] = typical_pass(traced)["wall_s"] / typical["wall_s"] - 1.0
        units = per_layer_units()
    else:
        metrics["setup_s"] = statistics.median(setup)
        for key in ("wall_s", "cpu_s", "rss_peak_mb"):
            metrics[key] = typical[key]
        units = END_TO_END_UNITS

    failed = len(bench.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for slot, cmd in enumerate(bench.cmds, 1):
        walls = " ".join(f"{p[slot - 1].wall_s:6.2f}" for p in plain)
        print(f"  job {slot}  {walls}  s  divmean {cmd}")
    print(f"passes: {len(plain)} plain, {len(traced)} traced")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / bench.attempted:14.6g} ratio ({failed} of {bench.attempted} jobs)")
    print(f"  {'golden_mismatch':40s} {golden:14d} count (jobs whose stdout differs from tests/golden)")
    for line in bench.failures[:10]:
        print(f"FAILED {line}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "divmean" / "cli.py").is_file():
        print(f"error: {root} has no src/divmean; run from the root of a divmean checkout", file=sys.stderr)
        return 2
    work = root / "perfbench" / "_work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run(args, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
