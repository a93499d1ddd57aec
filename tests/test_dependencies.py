"""The package's only runtime dependency is numpy (`pyproject.toml`)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajbehav"


def test_every_absolute_import_is_standard_library_or_numpy():
    imported = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert "numpy" in imported
    outside = {name: module for name, module in imported.items()
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert outside == {}
