"""`perfbench/traced.py` must keep working on divmean.

`traced.py` looks each wrapped name up with no default, and reads work counts
from return values by attribute, so a rename in divmean would make every
`--trace 1` benchmark run fail.  The name lists are read from the file's
source, without importing it; a few cheap commands then run through it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_list(name):
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACED}")


def _pythonpath():
    src = Path(__file__).resolve().parents[1] / "src"
    return os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))


@pytest.mark.parametrize(
    "entry", _traced_list("SPANNED") + _traced_list("COUNTED"), ids=".".join
)
def test_traced_name_resolves(entry):
    mod, *path = entry
    obj = importlib.import_module(f"divmean.{mod}")
    for attr in path:
        assert hasattr(obj, attr), f"divmean.{mod} has no {'.'.join(path)}"
        obj = getattr(obj, attr)
    assert callable(obj)


def test_cli_import_registers_every_traced_module():
    # install() reads sys.modules["divmean.<mod>"] with no default right after
    # import divmean.cli, so each module must be there, its body run or not
    want = {f"divmean.{mod}" for mod, *_ in _traced_list("SPANNED") + _traced_list("COUNTED")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, divmean.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": _pythonpath()},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert want - set(proc.stdout.split()) == set()


# (divmean arguments, {span: the work counts it must record}) of cheap runs
# that pass through every COUNTS reader but those of build_spf_table and
# b_rows, which no command reaches: the series checks take their rows from
# the walk's parent records, so `verify L` records only the walk's prime list
_TRACE_RUNS = [
    (["stats", "practical", "--x", "1000"], {
        "theta.practical_stats": {"members"},
        "sieve.build_prime_list": {"limit", "bytes"},
    }),
    (["stats", "dense", "--x", "1000", "--t", "2"], {
        "theta.dense_stats": {"members"},
        "sieve.build_prime_list": {"limit", "bytes"},
    }),
    (["enumerate", "practical", "--x", "1000", "--out", "members.txt"], {
        "theta.generate_B": {"members"},
        "sieve.build_prime_list": {"limit", "bytes"},
    }),
    (["verify", "L", "--n", "1000"], {
        "sieve.build_prime_list": {"limit", "bytes"},
    }),
    (["fn", "omega", "--to", "5"], {
        "report.tabulate_fn": set(),
        "funcs.get_bundle": set(),
        "funcs.build_buchstab": {"grid_nodes"},
    }),
]


@pytest.mark.parametrize("args,want", _TRACE_RUNS, ids=[" ".join(a[:2]) for a, _ in _TRACE_RUNS])
def test_traced_run_records_spans(args, want, tmp_path):
    # a count reader that no longer fits its return value fails the run
    proc = subprocess.run(
        [sys.executable, str(TRACED), "spans.json", "--", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": _pythonpath()},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    got = {name: counts for name, *_, counts in spans}
    assert set(want) <= set(got), sorted(got)
    for name, keys in want.items():
        assert set(got[name]) == keys, name
        assert all(v > 0 for v in got[name].values()), (name, got[name])
