"""The package runs on exact arithmetic alone: numpy is never imported and
the name `float` appears nowhere in its code."""

import ast
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "go_metric_lab"

# builds and the two golden decompose reports, with numpy unimportable
NUMPY_BLOCKED = """
import pathlib, sys, tempfile
sys.modules["numpy"] = None
sys.path.insert(0, {tests!r})
from go_metric_lab import stiefel
import test_golden

for n, k in ((3, 2), (4, 2), (5, 3)):
    stiefel.build_stiefel(n, k)
with tempfile.TemporaryDirectory() as tmp:
    for name in ("decompose_stiefel_4_2.json", "decompose_space_file_3_2.json"):
        code, data = test_golden._report(name, pathlib.Path(tmp))
        assert code == 0, name
        assert data == (test_golden.GOLDEN / name).read_bytes(), name
assert sys.modules["numpy"] is None
print("ok")
"""


def test_builds_and_golden_decompositions_run_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED.format(tests=str(TESTS))],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_package_neither_imports_numpy_nor_names_float():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "numpy" for m in modules):
                offences.append(f"{path.name}:{node.lineno} imports numpy")
            if isinstance(node, ast.Name) and node.id == "float":
                offences.append(f"{path.name}:{node.lineno} uses float")
    assert offences == []
