"""The package stays stdlib-only at runtime: every absolute import in src/
names a module of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "journeyshare"


def test_every_absolute_import_is_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), filename=str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{source.name}:{node.lineno}: {name}")
    assert outside == []
