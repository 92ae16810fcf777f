"""The benchmark's contract with the library.

``bench/`` reaches into tadkit by name: ``bench/traced_cli.py`` wraps the
functions listed in its ``TRACED`` table, the other scripts import public
names, and each workload writes a run config that the CLI must parse
and runs subcommands that the CLI must have. A rename or deletion in
tadkit would otherwise surface only when the benchmark runs (a traced run
fails on a missing attribute, a command on a config key or an unknown
subcommand), so these tests read ``bench/`` and check every such name,
config and command against the library. They only read the benchmark's
files; no benchmark command runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tadkit.cli import _COMMANDS
from tadkit.config import run_config_from_dict
from tadkit.postprocess import (Detection, Proposal, load_detections,
                                load_proposals, save_detections,
                                save_proposals)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
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
    traced = _load_bench_module("traced_cli").TRACED
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


def test_workload_run_configs_parse(tmp_path):
    workloads = _load_bench_module("workloads").WORKLOADS
    assert workloads
    for name, workload in workloads.items():
        raw = workload.run_config(tmp_path / "inputs", tmp_path / "out", 0)
        run_config_from_dict(raw)  # raises ConfigError naming the key


def test_workload_commands_are_cli_subcommands():
    commands = {name for name, _, _ in _COMMANDS}
    for name, workload in _load_bench_module("workloads").WORKLOADS.items():
        assert workload.commands
        for command in workload.commands:
            assert command in commands, \
                f"bench workload {name} runs tadkit {command}, which is " \
                f"no tadkit subcommand"



@pytest.mark.parametrize("save, load, row", [
    (save_proposals, load_proposals, Proposal(1.0, 2.5, 0.75)),
    (save_detections, load_detections, Detection(1.0, 2.5, "run", 0.75)),
], ids=["proposals", "detections"])
def test_loaded_rows_expose_what_check_outputs_reads(tmp_path, save, load,
                                                     row):
    """bench/run.py's check_outputs reads .start, .end and .score off the
    rows that load_proposals and load_detections return."""
    path = tmp_path / "rows.json"
    save({"v": [row]}, path)
    (loaded,) = load(path)["v"]
    for attr in ("start", "end", "score"):
        assert isinstance(getattr(loaded, attr, None), float), \
            f"bench/run.py's check_outputs reads .{attr} off a loaded row"
