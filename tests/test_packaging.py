import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "termbound"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for stmt in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
                names = [stmt.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # A fresh interpreter without ``site``, which may import typing itself;
    # this counts modules and times nothing.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import termbound.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
