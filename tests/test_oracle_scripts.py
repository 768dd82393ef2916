"""The frozen oracle outputs in tests/golden are what their scripts print.

Other tests read `lambda_small_oracle.txt` and `rough_100_7_oracle.txt`, not
the scripts; rerunning each script here keeps those frozen values from
drifting away from their oracle.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent


@pytest.mark.parametrize(
    "script,golden",
    [
        ("oracle_lambda_small.py", "lambda_small_oracle.txt"),
        ("oracle_rough_filter.py", "rough_100_7_oracle.txt"),
    ],
)
def test_script_reproduces_golden(script, golden):
    proc = subprocess.run(
        [sys.executable, str(TESTS / "oracles" / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (TESTS / "golden" / golden).read_text()
