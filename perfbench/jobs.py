"""Run `divmean` commands in fresh processes and check what they print.

Shared by run.py (the benchmark) and make_reference.py (which stores the
reference outputs the benchmark checks against).
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# What the `divmean` console script runs.
ENTRY = "import sys; from divmean.cli import main; sys.exit(main())"

# Float fields: relative tolerance, with an absolute floor for fields that
# are residuals near zero.
REL_TOL = 1e-12
ABS_FLOOR = 1e-15


def checkout_env(root):
    """Environment for a child that imports divmean from root/src only."""
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Job:
    cmd: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: str


def spawn(argv, env, workdir):
    """Run argv to completion; wall time, CPU and peak RSS come from wait4."""
    err_path = Path(workdir) / "stderr.txt"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return proc.returncode, wall, ru, out, stderr


def run_cli(cmd, env, workdir, out_file, traced_spans=None):
    """One divmean command line; "{out}" in cmd becomes out_file."""
    args = shlex.split(cmd.replace("{out}", str(out_file)))
    if traced_spans is None:
        argv = [sys.executable, "-c", ENTRY, *args]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(traced_spans), "--", *args]
    code, wall, ru, out, err = spawn(argv, env, workdir)
    return Job(cmd, code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, out, err)


def stream_digest(path):
    data = Path(path).read_bytes()
    return {
        "lines": data.count(b"\n"),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


# A number not glued to a name ("V6", "at_minus_3"); a trailing "i" marks
# the imaginary part of a complex value.
_NUM = re.compile(
    r"(?<![A-Za-z0-9_.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![A-Za-hj-z0-9_.])"
)


def _is_int(tok):
    return not any(c in tok for c in ".eE")


def compare_text(got, want):
    """None if got matches want, else a one-line reason.

    Text between numbers must be identical.  Integers must be equal.
    Other numbers must agree to REL_TOL relative, or ABS_FLOOR absolute.
    """
    g_nums, w_nums = _NUM.findall(got), _NUM.findall(want)
    if _NUM.sub("#", got) != _NUM.sub("#", want) or len(g_nums) != len(w_nums):
        return "output text differs from the reference"
    for i, (g, w) in enumerate(zip(g_nums, w_nums)):
        if _is_int(g) and _is_int(w):
            if int(g) != int(w):
                return f"integer {i}: {g} != {w}"
            continue
        gf, wf = float(g), float(w)
        if abs(gf - wf) > max(REL_TOL * abs(wf), ABS_FLOOR):
            return f"number {i}: {g} vs {w} (rel {abs(gf - wf) / max(abs(wf), 1e-300):.2e})"
    return None


def check(job, ref, out_file):
    """None if the job's exit code and outputs match ref, else a reason."""
    if ref is None:
        return "no reference output for this command"
    if job.code != ref["exit"]:
        tail = job.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {job.code}, expected {ref['exit']}: {tail[0]}"
    text = job.stdout.decode(errors="replace")
    if job.cmd.startswith("verify") and not text.endswith("PASS\n"):
        return "verification did not print PASS"
    why = compare_text(text, ref["stdout"])
    if why:
        return why
    if "stream" in ref:
        if not Path(out_file).is_file():
            return "no member stream was written"
        got = stream_digest(out_file)
        if got != ref["stream"]:
            return f"member stream {got} differs from {ref['stream']}"
    return None
