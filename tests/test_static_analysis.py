"""Tier-1 gate: the repo must stay numerically lint-clean.

Runs the numlint analyzer over ``src/`` under the checked-in baseline
(``tools/numlint-baseline.json``) and fails the suite on any new finding,
parse error, or stale baseline entry.  Also proves the analyzer still has
teeth by seeding a fixture that violates every rule in the pack, and
keeps the kernel test oracles (``repro.kernels.reference``) out of
production code.

Run just this gate with ``pytest -m static``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Baseline, all_rules, analyze_paths, analyze_source

pytestmark = pytest.mark.static

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "tools" / "numlint-baseline.json"

# one violation of each rule; path places it inside a solver dir so the
# NL008 while-loop contract and the DT001 entry-point reachability apply
SEEDED_FIXTURE = """\
import random
import time
import numpy as np

def eq(a):
    return a == 0.1

def div(a, b):
    return a / b

def log1p(x):
    return np.log(1.0 + x)

def rng():
    random.seed(0)
    return np.random.rand(3)

def acc(xs):
    total = 0.0
    for x in xs:
        total += x
    return total

def norm(x):
    return np.sqrt(np.sum(x ** 2))

def swallow(g):
    try:
        return g()
    except Exception:
        return None

def loop(x):
    while x > 1e-9:
        x = 0.5 * x
    return x

def deadline(x):                        # DT002
    start = time.perf_counter()
    while time.perf_counter() - start < 1.0:
        x = 0.5 * x
    return x

def fanout(executor, items):            # DT003
    for item in items:
        executor.submit(lambda: item)

def hash_order():                       # DT004
    out = []
    for x in {"a", "b", "c"}:
        out.append(x)
    return out

def budgeted(budget, x):                # RD001
    while x > 1e-9:
        x = 0.5 * x
    return x

def trace(tracer, g):                   # RD002
    tracer.span("solve")
    return g()

def ladder(rungs, x):                   # RD003
    for rung in rungs:
        try:
            return rung(x)
        except Exception:
            continue
    return None
"""


def test_src_is_clean_under_the_baseline():
    baseline = Baseline.load(BASELINE)
    result = analyze_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "tools"],
        baseline=baseline, root=REPO,
    )
    assert not result.parse_errors, result.parse_errors
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.rule_id} {f.message}" for f in result.findings
    )
    assert result.stale_baseline == [], [
        e.fingerprint for e in result.stale_baseline
    ]
    assert result.exit_code() == 0


def test_baseline_entries_all_carry_justifications():
    baseline = Baseline.load(BASELINE)
    assert baseline.entries, "baseline should grandfather the naive exhibits"
    for entry in baseline.entries.values():
        assert entry.justification and "TODO" not in entry.justification


def test_seeded_fixture_trips_every_rule():
    findings = analyze_source(SEEDED_FIXTURE, "src/repro/convex/seeded.py")
    tripped = {f.rule_id for f in findings}
    expected = {r.rule_id for r in all_rules()}
    assert tripped == expected, f"missing: {sorted(expected - tripped)}"


ORACLE_MODULE = "repro.kernels.reference"
#: executor and scenario APIs choose *executor* backends, not kernels
BACKEND_PARAM_OK = ("repro.parallel", "repro.scenarios")


def _oracle_violations(module: str, source: str) -> list:
    """Production code must not import the kernel oracles or grow a
    ``backend`` parameter (one implementation per kernel)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        if module != ORACLE_MODULE and any(
                n == ORACLE_MODULE or n.startswith(ORACLE_MODULE + ".")
                for n in names):
            out.append(f"{module}:{node.lineno}: imports {ORACLE_MODULE}")
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and not module.startswith(BACKEND_PARAM_OK)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(p.arg == "backend" for p in params):
                out.append(f"{module}:{node.lineno}: parameter named 'backend'")
    return out


def test_kernel_oracles_stay_out_of_production():
    violations = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO / "src").with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")
        violations += _oracle_violations(module, path.read_text(encoding="utf-8"))
    assert violations == [], "\n".join(violations)
    # the scan has teeth
    bad = ("from repro.kernels import reference\n"
           "def solve(x, backend=None):\n    return x\n")
    assert len(_oracle_violations("repro.convex.sdp", bad)) == 2
    assert _oracle_violations("repro.parallel.executor",
                              "def make(backend):\n    return backend\n") == []


def _run_cli(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_cli_gate_exits_zero_on_src():
    proc = _run_cli("src", "benchmarks", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_inline_suppression_carries_a_justification():
    """The triage contract: a pragma without a recorded reason is a
    finding hidden, not a finding reviewed."""
    from repro.analysis.core import Suppressions
    from repro.analysis.runner import iter_python_files

    for path in iter_python_files(
        [REPO / "src", REPO / "benchmarks", REPO / "tools"]
    ):
        supp = Suppressions.parse(path.read_text(encoding="utf-8"))
        for (line, rule), why in supp.justifications.items():
            assert why.strip(), (
                f"{path}:{line}: suppression of {rule} has no justification"
            )


def test_cli_gate_exits_nonzero_on_seeded_fixture(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text(SEEDED_FIXTURE)
    proc = _run_cli(str(bad), "--no-baseline")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for rule_id in (
        "NL001", "NL002", "NL003", "NL004", "NL005", "NL006", "NL007",
        "DT002", "DT003", "DT004", "RD001", "RD002", "RD003",
    ):
        assert rule_id in proc.stdout
