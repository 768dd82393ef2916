"""The benchmark's job mixes.

Each workload is six `divmean` CLI invocations, always in the same slot
order.  The seed only picks each job's size from a small menu around the
stated cutoff, so every seed exercises the same code paths and the work per
pass moves by a few percent at most.  Every menu entry has a stored
reference output in reference.json (see make_reference.py).
"""

import random

# Cutoffs step by 2%, so the pass cost barely depends on the seed.
SIZE_STEPS = (0.98, 1.0, 1.02)

# "{out}" marks the file a job streams its members into.
OUT = "{out}"

# slot -> (argv template, {placeholder: base value}); placeholders absent
# from the dict are fixed menus given by MENUS below.
WORKLOADS = {
    # The chain walk is nearly all the work; no function table is built.
    "chain": [
        ("stats practical --x {x}", {"x": 10**7}),
        ("stats dense --x {x} --t 2", {"x": 10**7}),
        ("stats dense --x {x} --t 5/2", {"x": 10**7}),
        ("stats dense --x {x} --t 100", {"x": 10**7}),
        ("enumerate practical --x {e} --out {out} --threads 1", {"e": 3 * 10**6}),
        ("enumerate practical --x {e} --out {out} --threads 2", {"e": 3 * 10**6}),
    ],
    # The function tables and the constants lab; no sieve or chain work.
    "tables": [
        ("constants --json", {}),
        ("constants --v {v}", {}),
        ("fn xi --from 0 --to 10 --step 0.25", {}),
        ("fn lambda --to {to}", {}),
        ("figures fig1", {}),
        ("figures fig2", {}),
    ],
    # Bulk sieves, materialised chain rows and the series reports.
    "series": [
        ("verify rough --x {rx} --y {ry}", {"rx": 10**7, "ry": 100}),
        ("stats rough --x {sx} --y {sy}", {"sx": 3 * 10**7, "sy": 300}),
        ("verify dense --x {dx} --t 2", {"dx": 10**7}),
        ("verify L --theta practical --n {ln}", {"ln": 10**7}),
        ("verify ctheta --n {cn} --count-x {cx}", {"cn": 10**6, "cx": 10**7}),
        ("verify funceq --t 2 --theta dense --x {fx}", {"fx": 5 * 10**6}),
    ],
}

# Every workload fills the same slots, so job.<slot>.wall_s names line up.
SLOTS = 6
assert all(len(jobs) == SLOTS for jobs in WORKLOADS.values())

# Menus that are not a base value scaled by SIZE_STEPS.
MENUS = {
    "v": ("5", "6", "7", "8"),
    "to": ("40", "45", "50"),
}

# Jobs whose arguments are exactly those of a file in tests/golden/.
GOLDEN = {
    "constants --json": "constants.json",
    "fn xi --from 0 --to 10 --step 0.25": "fn_xi.csv",
    "figures fig1": "fig1.csv",
    "figures fig2": "fig2.csv",
}


def menu(key, base):
    if key in MENUS:
        return MENUS[key]
    return tuple(str(round(base * f)) for f in SIZE_STEPS)


def all_commands(workload):
    """Every command line the workload can run, over all seeds."""
    out = []
    for template, bases in WORKLOADS[workload]:
        keys = _placeholders(template)
        combos = [{}]
        for k in keys:
            combos = [dict(c, **{k: v}) for c in combos for v in menu(k, bases.get(k))]
        out.extend(template.format(out=OUT, **c) for c in combos)
    return out


def jobs_for(workload, seed):
    """The workload's six command lines for one seed, in slot order."""
    rng = random.Random(f"{workload}:{seed}")
    picks = {}
    cmds = []
    for template, bases in WORKLOADS[workload]:
        for k in _placeholders(template):
            if k not in picks:
                picks[k] = rng.choice(menu(k, bases.get(k)))
        cmds.append(template.format(out=OUT, **picks))
    return cmds


def _placeholders(template):
    return [w[1:-1] for w in template.split() if w.startswith("{") and w != OUT]
