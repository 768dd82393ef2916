"""The names `perfbench/traced.py` wraps must exist in divmean.

`traced.py` looks each one up with no default, so a rename in divmean would
make every `--trace 1` benchmark run fail.  The lists are read from the
file's source, without importing it.
"""

import ast
import importlib
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
