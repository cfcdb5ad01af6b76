import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# import name -> distribution name, where they differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def declared_dependencies() -> set[str]:
    # a plain scan, because tomllib needs Python 3.11 and lpo supports 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


def third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "lpo").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    found -= set(sys.stdlib_module_names) | {"__future__", "lpo"}
    return {DISTRIBUTIONS.get(name, name) for name in found}


def test_imports_match_declared_dependencies():
    assert third_party_imports() == declared_dependencies()


def test_every_file_parses_as_the_oldest_python_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                                      text, re.MULTILINE).groups()))
    paths = [path for folder in ("src/lpo", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)


def test_only_the_gateway_builds_reply_caches_or_imports_urllib_request():
    """The choke point that the gateway's docstring claims, checked on the syntax tree."""
    found = set()
    for path in (ROOT / "src" / "lpo").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                names = {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
            else:
                continue
            if names & {"ResponseCache", "urllib.request"}:
                found.add(path.name)
    assert found == {"gateway.py"}


@pytest.mark.parametrize("module", ["scipy", "urllib.request", "http.client",
                                    "concurrent.futures"])
def test_import_leaves_unloaded(module):
    code = f"import sys, lpo; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"


def test_a_mock_run_loads_no_http_client(tmp_path):
    """Only a remote call imports the wire; a toy ``lpo optimize`` never does."""
    code = (f"import sys; from lpo import fixtures; from lpo.cli import main; "
            f"fixtures.copy_toy_workspace({str(tmp_path)!r}); "
            f"assert main(['optimize', '--config', {str(tmp_path / 'config.yaml')!r}, "
            f"'--seeds', {str(tmp_path / 'seeds.jsonl')!r}]) == 0; "
            f"print(sorted({{'urllib.request', 'http.client'}} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_one_file_holds_the_thread_pool():
    """``ThreadPoolExecutor`` is named in one module only, so the evaluator's
    ``_fan_out`` stays the package's one pool."""
    found = set()
    for path in (ROOT / "src" / "lpo").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.split(".")[-1] for alias in node.names}
            else:
                continue
            if "ThreadPoolExecutor" in names:
                found.add(path.name)
    assert found == {"evaluator.py"}


def callers(name: str) -> set[str]:
    """The package's functions, as ``module.function``, that call ``name``."""
    found = set()

    class Finder(ast.NodeVisitor):
        def __init__(self, module: str) -> None:
            self.scope = [module]

        def visit_FunctionDef(self, node) -> None:
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node) -> None:
            if name in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                found.add(".".join(self.scope))
            self.generic_visit(node)

    for path in (ROOT / "src" / "lpo").rglob("*.py"):
        Finder(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_only_evaluate_builds_scored_prompts():
    """Every score comes from the one serial loop in ``evaluator.evaluate``:
    no other function of the package constructs a ``ScoredPrompt``."""
    assert callers("ScoredPrompt") == {"evaluator.evaluate"}


def test_only_the_fan_out_rule_reads_the_calls_left():
    """A stage fans out by the one rule, ``evaluator._fan_width``, given a
    worst case from ``evaluator.call_plan``: no stage asks the budget for
    the calls left and weighs them by a formula of its own."""
    assert callers("calls_left") == {"evaluator._fan_width"}
