"""The package runs on the standard library and numpy alone."""

import ast
import os
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
