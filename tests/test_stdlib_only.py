"""The library imports nothing outside the standard library.

sympy and hypothesis serve the tests only; every absolute import in
src/starpull names a standard-library module.  Importing the package
and its command line leaves the costly inspect and dataclasses modules
unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starpull"


def test_library_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, f"imports outside the standard library: {foreign}"


def test_import_leaves_inspect_and_dataclasses_unloaded():
    # both modules are costly to import: records built as dataclasses raised
    # the benchmark's peak RSS by about 7% and its setup time by about 15%
    code = ("import sys, starpull, starpull.cli; "
            "print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
