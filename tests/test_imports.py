"""Module boundaries: no module of the package imports a sibling's private
name, so each kernel keeps one implementation behind one public name; every
``raise`` in the package names one of its two exception types;
``import ivastream`` loads no heavy module that only some paths need; and
every name the benchmark's tracer (``perfbench/tracing.py``) wraps exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ivastream

PACKAGE = Path(ivastream.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


FAILURE_TYPES = {"ContractViolationError", "DegenerateUpdateError"}


def foreign_raises(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not (isinstance(exc, ast.Name) and exc.id in FAILURE_TYPES):
            yield f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}"


def test_every_raise_names_one_of_two_failure_types():
    # the caller's input is wrong, or a per-bin matrix cannot be used
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in foreign_raises(path)]
    assert not offenders, offenders


def test_import_leaves_out_scipy_signal_and_optimize():
    # each takes most of a second to import, and only scene synthesis and
    # scoring need them, so the streaming path imports neither
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, ivastream; print(sorted({'scipy.signal', 'scipy.optimize'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_every_traced_benchmark_name_resolves():
    # the traced benchmark wraps these attributes by name; a renamed or
    # deleted kernel would fail it with an AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr in tracing.TRACED:
        owner = importlib.import_module(f"ivastream.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
