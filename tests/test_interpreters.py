"""The package gives the same output under every CPython that
`requires-python` admits. Problem 0 of each benchmark workload goes through
`parse_problem`, the six transformations and `print_term` (the benchmark's
driver) in a child process of each other such interpreter on PATH, and the
printed lines must equal this process's. pytest need not be installed for
those interpreters: the child runs a plain script. A version that is not
installed, or whose `pythonX.Y` runs another version, is skipped."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MINIMUM = int(re.search(r'requires-python = ">=3\.(\d+)"',
                        (ROOT / "pyproject.toml").read_text())[1])
# The releases up to 3.13, the newest the package is tested with.
VERSIONS = [f"3.{minor}" for minor in range(MINIMUM, 14)
            if (3, minor) != sys.version_info[:2]]

SCRIPT = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import driver, workloads
for w in {workloads!r}:
    print("\\n".join(driver.preprocess(workloads.problem(w, 0, 0)[1]).lines))
"""
WORKLOADS = ("ground_data", "poly_lemmas", "unfold_defs")


def run(args: list[str], version: str) -> subprocess.CompletedProcess:
    # A pyenv shim runs only a version that PYENV_VERSION selects; any
    # other launcher ignores the variable. -I keeps this process's
    # PYTHONPATH and user site out of the child, -B its bytecode out of
    # the tree.
    env = {**os.environ, "PYENV_VERSION": version}
    return subprocess.run([f"python{version}", "-I", "-B", *args], capture_output=True,
                          text=True, env=env, timeout=300, cwd=ROOT)


@pytest.mark.parametrize("version", VERSIONS)
def test_same_output_under_each_interpreter(version, bench_driver):
    if shutil.which(f"python{version}") is None:
        pytest.skip(f"python{version} is not on PATH")
    probe = run(["-c", "import sys; print(sys.version_info[:2])"], version)
    major, minor = version.split(".")
    if probe.returncode != 0 or probe.stdout.strip() != f"({major}, {minor})":
        pytest.skip(f"python{version} does not run CPython {version}")
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                           workloads=WORKLOADS)
    child = run(["-c", script], version)
    assert child.returncode == 0, child.stderr
    driver, workloads = bench_driver
    expected = [line for w in WORKLOADS
                for line in driver.preprocess(workloads.problem(w, 0, 0)[1]).lines]
    assert child.stdout.splitlines() == expected
