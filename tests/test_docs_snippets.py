"""Executable-documentation tests: every python block in docs/TUTORIAL.md
and README.md must actually run, and every ``repro.…`` name the prose
cites must exist — broken snippets and dead references are worse than
none."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


def _runnable(block: str) -> bool:
    # skip illustrative fragments (shell-style or ellipsis-bearing)
    return "..." not in block and "pip install" not in block


class TestTutorialSnippets:
    @pytest.fixture(scope="class")
    def blocks(self):
        text = (ROOT / "docs" / "TUTORIAL.md").read_text()
        return [b for b in _python_blocks(text) if _runnable(b)]

    def test_tutorial_has_snippets(self, blocks):
        assert len(blocks) >= 4

    def test_all_snippets_execute(self, blocks):
        # snippets share a namespace (the tutorial is a single narrative)
        namespace: dict = {}
        for i, block in enumerate(blocks):
            try:
                exec(compile(block, f"<tutorial block {i}>", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure is the signal
                pytest.fail(f"tutorial block {i} raised {type(exc).__name__}: {exc}\n{block}")

    def test_tutorial_claims_hold(self, blocks):
        """Re-run the thread and check the claims the prose makes."""
        namespace: dict = {}
        for i, block in enumerate(blocks):
            exec(compile(block, f"<tutorial block {i}>", "exec"), namespace)
        # §1 claim: exact >= relaxed when both feasible
        exact, relaxed = namespace["exact"], namespace["relaxed"]
        if exact.feasible and relaxed.feasible:
            assert exact.total_rate >= relaxed.total_rate - 1e-6
        # §2 claim: Shor bound matches the trust-region value
        tr, shor = namespace["tr"], namespace["shor"]
        assert abs(shor.lower_bound - tr.value) < 0.05
        # §3 claim: adaptive inertia reduces freezing
        assert namespace["cured"].stagnation_events <= namespace["frozen"].stagnation_events
        # §4: a verdict and an audited chain exist
        assert namespace["chain"].exact_value is not None
        # §5: the stack ran all three stages
        assert len(namespace["report"].stages) == 3


class TestReadmeSnippets:
    def test_quickstart_block_runs(self):
        text = (ROOT / "README.md").read_text()
        blocks = [b for b in _python_blocks(text) if _runnable(b)]
        assert blocks, "README must contain a runnable quickstart"
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "<readme>", "exec"), namespace)
        assert namespace["report"].stages


#: the hand-written docs; docs/API.md is generated from the code itself
_PROSE = [p for p in sorted((ROOT / "docs").glob("*.md")) if p.name != "API.md"] + [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def _resolve(name: str):
    """Import the longest module prefix of ``name``, then ``getattr``
    the rest; raises when any part is missing."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_cited_repro_names_resolve():
    cited = sorted({(path.name, m.group(1)) for path in _PROSE
                    for m in _DOTTED.finditer(path.read_text())})
    assert len(cited) > 50, "the name pattern stopped matching the docs"
    dead = []
    for doc, name in cited:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            dead.append(f"{doc}: {name}")
    assert not dead, f"docs cite names that do not exist: {dead}"
