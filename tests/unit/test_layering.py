"""Import layering: the serving layers never depend on the bench package.

``repro.bench`` holds the paper's experiment harness and the batch
runner; it sits *above* the execution core and the service.  A module
below it that imports it inverts the layering (the service once took
``QuerySpec`` from there).  The scan covers every import statement,
function-local ones included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent

LAYERS = ("service", "watch", "reverse", "exec", "distributed")


def _bench_imports(path: Path) -> list[str]:
    """The ``repro.bench`` imports in one module, as ``line: module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
            if node.module == "repro":
                modules += [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{node.lineno}: {module}"
            for module in modules
            if module == "repro.bench" or module.startswith("repro.bench.")
        ]
    return found


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_does_not_import_bench(layer):
    modules = sorted((PACKAGE / layer).rglob("*.py"))
    assert modules, f"no modules found under repro/{layer}"
    offenders = {
        str(path.relative_to(PACKAGE)): hits
        for path in modules
        if (hits := _bench_imports(path))
    }
    assert offenders == {}


def test_scan_sees_every_import_form(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import repro.bench.batch\n"
        "from repro.bench import batch\n"
        "from repro import bench\n"
        "from repro import exec\n"
        "def later():\n"
        "    from repro.bench.batch import BatchRunner\n"
        "from repro.benchmarks import nothing\n"
    )
    assert _bench_imports(module) == [
        "1: repro.bench.batch",
        "2: repro.bench",
        "3: repro.bench",
        "6: repro.bench.batch",
    ]
