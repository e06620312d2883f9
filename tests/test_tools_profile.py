"""``tools/profile_e2e.py``: one serving-benchmark measurement under
cProfile, reduced to the top functions and a per-module rollup."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.serve


def test_profiles_a_small_overload_run():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "profile_e2e.py"), "--workload", "overload",
         "--seed", "11", "--scale", "0.02", "--top", "5"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("workload overload seed 11 scale 0.02:")
    assert lines[0].endswith("correct=True")
    top = lines.index("top 5 functions by self time:")
    assert len(lines[top + 2:top + 7]) == 5
    rollup = lines.index("self time by module:")
    modules = [line.split()[-1] for line in lines[rollup + 2:]]
    assert "repro.serve.service" in modules or "repro.qos.rra" in modules
