"""The benchmark's contract with the library.

``bench/`` reaches into tadkit by name: ``bench/traced_cli.py`` wraps the
functions listed in its ``TRACED`` table, and the other scripts import
public names. A rename or deletion in tadkit would otherwise surface only
when the benchmark runs (a traced run fails on a missing attribute), so
these tests read ``bench/`` and check every such name against the
library. They only read the benchmark's files; nothing there runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_traced_cli():
    spec = importlib.util.spec_from_file_location(
        "bench_traced_cli", BENCH / "traced_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tadkit_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each tadkit import in a script; name is None for
    a plain ``import tadkit.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "tadkit":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "tadkit"]
    return found


def test_every_traced_name_resolves():
    traced = _load_traced_cli().TRACED
    assert traced
    for short, names in traced.items():
        module = importlib.import_module(f"tadkit.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"bench/traced_cli.py traces tadkit.{short}.{name}, " \
                f"which does not exist"


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_bench_imports_from_tadkit_exist(script):
    imports = _tadkit_imports(BENCH / script)
    assert imports, f"bench/{script} imports nothing from tadkit"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), \
                f"bench/{script} imports {name} from {module_name}, " \
                f"which does not exist"

