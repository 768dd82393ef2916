"""Every name a module of divmean imports is read somewhere in that module,
and every module-level private name is read somewhere in the package.

__init__.py is left out of the import check: its imports are the package's
re-exports.  A command runs only the module bodies it reads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "divmean"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unread_private_names(sources):
    """(module, line, name) of each module-level _name that no module reads.

    sources maps a module name to its source.  A read is a loaded name or an
    attribute access; dunder names are left out.
    """
    defined, read = [], set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(mod, node.lineno, n) for n in names if n.startswith("_")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(d for d in defined if d[2] not in read and not d[2].endswith("__"))


def test_guard_catches_an_unused_import():
    src = "import math\nfrom os import path, sep\nprint(path.join(sep))\n"
    assert _unused_imports(src) == [(1, "math")]


def test_guard_catches_an_unread_private_name():
    sources = {
        "a": "_A = 1\n_B, C = 2, 3\n__all__ = []\n\ndef _f():\n    return _B\n",
        "b": "from .a import _f\n\nclass _K:\n    pass\n\nprint(_f())\n",
    }
    assert _unread_private_names(sources) == [("a", 1, "_A"), ("b", 3, "_K")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


LAZY = ("sieve", "theta", "funcs", "constants", "report")

# (commands run in one fresh interpreter, modules whose bodies must have run,
# modules whose bodies must not have)
_COMMAND_MODULES = [
    ([], set(), set(LAZY)),
    ([["--help"]], set(), set(LAZY)),
    (
        [["stats", "practical", "--x", "1000"], ["enumerate", "practical", "--x", "1000"]],
        {"sieve", "theta"},
        {"funcs", "constants", "report"},
    ),
    ([["constants", "--v", "5"]], {"constants", "funcs"}, {"report", "sieve", "theta"}),
    ([["fn", "xi", "--to", "3"]], {"report", "funcs"}, {"sieve", "theta"}),
    ([["figures", "fig1"]], {"report", "funcs"}, {"sieve", "theta"}),
    ([["verify", "L", "--n", "1000"]], {"report", "sieve", "theta"}, {"funcs", "constants"}),
    (
        [["verify", "ctheta", "--n", "1000", "--count-x", "10000"]],
        {"report", "sieve", "theta"},
        {"funcs", "constants"},
    ),
]


@pytest.mark.parametrize(
    "argvs,ran,idle",
    _COMMAND_MODULES,
    ids=["import", "help", "chain", "constants", "fn", "figures", "verify-L", "verify-ctheta"],
)
def test_commands_run_only_the_modules_they_read(argvs, ran, idle):
    # a lazy module that has run is a plain module again
    code = (
        "import contextlib, importlib.util, io, json, sys\n"
        "from divmean.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        f"print(json.dumps([[m for m in {LAZY!r}\n"
        "    if type(sys.modules['divmean.' + m]) is not importlib.util._LazyModule],\n"
        "    'numpy.polynomial' in sys.modules, 'numpy' in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    done, polynomial, numpy = json.loads(proc.stdout)
    assert ran <= set(done) and not idle & set(done), done
    if "funcs" in idle:  # only the quadrature tables of funcs and constants load it
        assert not polynomial
    if idle == set(LAZY):  # no module body ran, so nothing loaded numpy
        assert not numpy


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_import_sets_openblas_threads_unless_the_caller_did(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, divmean\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want
