"""Module boundaries: no module of the package imports a sibling's private
name, so each kernel keeps one implementation behind one public name."""

import ast
from pathlib import Path

import ivastream

PACKAGE = Path(ivastream.__file__).parent


def private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ivastream"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_module_imports_a_private_sibling_name():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)]
    assert not offenders, offenders
