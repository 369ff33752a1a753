"""The package runs on the standard library and numpy alone."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import qrstats

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qrstats"}


def _imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(qrstats.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        assert _imported_modules(path) <= ALLOWED, path.name


def test_cli_imports_only_public_names():
    # the front end speaks to the library through its public names; a
    # private one it needs belongs behind a public function of its module
    path = Path(qrstats.__file__).parent / "cli.py"
    private = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert private == []


def test_only_the_sieve_lists_multiples():
    # np.repeat is the bucket scatter's idiom for listing multiples, and
    # sieve._strike is the one kernel that lists them
    callers = [
        path.name
        for path in sorted(Path(qrstats.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "repeat"
        and isinstance(node.value, ast.Name) and node.value.id == "np"
    ]
    assert set(callers) == {"sieve.py"}


def test_readme_constants_match_the_code():
    # every `module.NAME` (value) in the README names a constant of that
    # module with that value, a^b read as a power
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    mentions = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s*\((\d+)(?:\^(\d+))?\b", readme)
    assert mentions
    for module, name, base, exponent in mentions:
        value = int(base) ** int(exponent or 1)
        assert getattr(importlib.import_module(f"qrstats.{module}"), name, None) == value, f"{module}.{name}"


def test_rough_set_and_proof_trace_leave_mpmath_unloaded():
    code = (
        "import sys, qrstats\n"
        "qrstats.rough_set(0.1, 10**4)\n"
        "qrstats.proof_trace(1000, 0, 12, 0.15)\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qrstats.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
