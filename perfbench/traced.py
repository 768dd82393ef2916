"""Run one `divmean` command with span recorders around its public functions.

    python3 perfbench/traced.py SPANS_JSON -- <divmean arguments>

Each listed function is replaced by a wrapper in every `divmean` module
namespace that holds it, so calls between modules and within a module both
pass through the wrapper.  A span records its name, start, end, parent
span, CPU time and a few work counts read from the return value; nothing
is timed per item a generator yields.  Spans stay in memory and are
written to SPANS_JSON when the command returns.  The exit code is the
command's.
"""

import io
import json
import sys
import time

import numpy as np

# (module, function) pairs that get a span.
SPANNED = [
    ("sieve", "build_prime_list"),
    ("sieve", "build_spf_table"),
    ("theta", "dense_stats"),
    ("theta", "practical_stats"),
    ("theta", "chain_stats_multi"),
    ("theta", "generate_B"),
    ("theta", "b_rows"),
    ("theta", "rough_members"),
    ("theta", "rough_stats"),
    ("theta", "verify_funceq"),
    ("theta", "write_b_stream"),
    ("_util", "pmap_ordered"),
    ("funcs", "get_bundle"),
    ("funcs", "build_growth_fn"),
    ("funcs", "build_ratio_fn"),
    ("funcs", "build_buchstab"),
    ("constants", "constants_document"),
    ("constants", "refine_zero"),
    ("constants", "find_delta_via_g"),
    ("constants", "find_delta_via_Q"),
    ("constants", "zero_pole_census"),
    ("constants", "H_bound"),
    ("report", "compare_rough"),
    ("report", "compare_dense"),
    ("report", "L_partial"),
    ("report", "c_theta_breakdown"),
    ("report", "tabulate_fn"),
    ("report", "emit_figure_data"),
]

# Called too often for a span: only calls and argument points are counted.
# (module, function) or (module, class, method).
COUNTED = [
    ("constants", "Q_eval"),
    ("funcs", "PiecewiseFn", "eval_many"),
    ("constants", "GEvaluator", "g_many"),
]


def _grid_nodes(result):
    fns = result if isinstance(result, tuple) else (result,)
    return sum(len(f.grid_values) for f in fns if hasattr(f, "grid_values"))


# Work counts read from a return value: span name -> {count: fn(result)}.
COUNTS = {
    "sieve.build_prime_list": {"limit": lambda r: r.limit, "bytes": lambda r: r.primes.nbytes},
    "sieve.build_spf_table": {"limit": lambda r: r.limit, "bytes": lambda r: r.spf.nbytes},
    "theta.dense_stats": {"members": lambda r: r.count},
    "theta.practical_stats": {"members": lambda r: r.count},
    "theta.chain_stats_multi": {"members": lambda r: r[-1].count},
    "theta.generate_B": {"members": len},
    "theta.b_rows": {"members": lambda r: len(r[0])},
    "funcs.build_growth_fn": {"grid_nodes": _grid_nodes},
    "funcs.build_ratio_fn": {"grid_nodes": _grid_nodes},
    "funcs.build_buchstab": {"grid_nodes": _grid_nodes},
}


class Recorder:
    """Spans of one process, each [name, start, end, parent, cpu_s, counts].

    Spans are only opened on the calling thread of the command; the worker
    threads of the thread pool run unwrapped code.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def span(self, name, fn):
        counts = COUNTS.get(name, {})
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, {}]
            stack.append(len(spans))
            spans.append(rec)
            fh = None
            if name == "theta.write_b_stream":
                fh = args[2] if len(args) > 2 else kwargs.get("fh")
            pos0 = _tell(fh)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[4] = time.process_time() - cpu0
                rec[1] = t0
                stack.pop()
            rec[5] = {key: int(get(result)) for key, get in counts.items()}
            pos1 = _tell(fh)
            if pos0 is not None and pos1 is not None:
                rec[5]["stream_bytes"] = pos1 - pos0
            return result

        return wrapper

    def counter(self, name, fn, method):
        tally = self.counters.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            tally[0] += 1
            tally[1] += int(np.size(args[1] if method else args[0]))
            return fn(*args, **kwargs)

        return wrapper


def _tell(fh):
    if fh is None:
        return None
    try:
        return fh.tell()
    except (OSError, io.UnsupportedOperation):
        return None


def _rebind(orig, wrapped):
    """Point every divmean module attribute that holds orig at wrapped."""
    for modname, mod in list(sys.modules.items()):
        if modname == "divmean" or modname.startswith("divmean."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)


def install(rec):
    import divmean.cli  # noqa: F401  (loads every module that gets wrapped)

    for mod, fname in SPANNED:
        orig = getattr(sys.modules[f"divmean.{mod}"], fname)
        _rebind(orig, rec.span(f"{mod.lstrip('_')}.{fname}", orig))
    for mod, *path in COUNTED:
        owner = sys.modules[f"divmean.{mod}"]
        if len(path) == 1:
            orig = getattr(owner, path[0])
            _rebind(orig, rec.counter(f"{mod}.{path[0]}", orig, method=False))
        else:
            cls = getattr(owner, path[0])
            name = f"{mod}.{path[1]}"
            setattr(cls, path[1], rec.counter(name, getattr(cls, path[1]), method=True))


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    import divmean.cli

    t0 = time.perf_counter()
    try:
        code = divmean.cli.main(cli_args)
    finally:
        t1 = time.perf_counter()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"main": [t0, t1], "spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
