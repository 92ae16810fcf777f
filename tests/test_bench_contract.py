"""The benchmark's contract with the library.

``bench/`` reaches into tadkit by name: ``bench/traced_cli.py`` wraps the
functions listed in its ``TRACED`` table, the other scripts import public
names, and each workload writes a run config that the CLI must parse
and runs subcommands that the CLI must have. A rename or deletion in
tadkit would otherwise surface only when the benchmark runs (a traced run
fails on a missing attribute, a command on a config key or an unknown
subcommand), so these tests read ``bench/`` and check every such name,
config and command against the library. The traced counts also depend on
how the CLI calls the traced functions (which argument is the path, what
the result's length means), so one test runs a small ``ensemble`` in
process under ``traced_cli``'s tracer. No benchmark command runs, and no
file under ``bench/`` is written.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tadkit
from tadkit import (NetworkOutputs, SynthConfig, save_annotations,
                    save_class_scores, save_outputs, synth_dataset)
from tadkit.cli import _COMMANDS, main
from tadkit.config import run_config_from_dict
from tadkit.postprocess import (Detection, Proposal, load_detections,
                                load_proposals, save_detections,
                                save_proposals)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(tadkit.__file__).resolve().parents[1]


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


def test_importing_the_cli_loads_every_traced_module():
    """bench/traced_cli.py wraps each traced function in the tadkit modules
    that ``import tadkit.cli`` has loaded, so that import must load every
    traced module; run as ``python -m tadkit.cli``, the CLI loads only
    what its command calls."""
    traced = _load_bench_module("traced_cli").TRACED
    code = ("import json, sys, tadkit.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {f"tadkit.{short}" for short in traced} <= loaded


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


def test_traced_counts_read_the_cli_call_layout(tmp_path):
    """bench/traced_cli.py's probes take soft_nms' input and kept counts
    from len(args[0]) and len(result), and the bytes of proposals.json and
    detections.json from the path at args[1] of the writers. Run a small
    ensemble under its tracer and check each count against the command's
    own work and files."""
    anns, _, scores = synth_dataset(SynthConfig(
        n_videos=3, t_raw_range=(20, 30), channels=2, val_fraction=1.0))
    save_annotations(anns, tmp_path / "annotations.json")
    save_class_scores(scores, tmp_path / "class_scores.json")
    member, out = tmp_path / "member", tmp_path / "out"
    member.mkdir()
    rng = np.random.default_rng(0)
    for ann in anns:
        save_outputs(NetworkOutputs(rng.random(8), rng.random(8),
                                    rng.random((8, 8)), rng.random((8, 8))),
                     member / f"{ann.video_id}.npz")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "grid": {"t_scale": 8, "d_max": 8},
        "ensemble": {"inputs": [str(member)]},
        "paths": {"output_dir": str(out),
                  "annotations": str(tmp_path / "annotations.json"),
                  "class_scores": str(tmp_path / "class_scores.json")}}))
    tracer = _load_bench_module("traced_cli").Tracer("contract")
    tracer.install()
    try:
        assert main(["ensemble", "--config", str(config),
                     "--threads", "1"]) == 0
    finally:
        tracer.restore()

    def counts(name):
        return [s["counts"] for s in tracer.spans if s["name"] == name]

    candidates = [c["candidates"] for c in counts("postprocess.fuse_scores")]
    nms = counts("postprocess.soft_nms")
    assert len(candidates) == len(anns)
    assert [c["in"] for c in nms] == candidates
    kept = load_proposals(out / "proposals.json")
    assert [c["kept"] for c in nms] == [len(kept[a.video_id]) for a in anns]
    for name, file in (("postprocess.save_proposals", "proposals.json"),
                       ("postprocess.save_detections", "detections.json")):
        assert counts(name) == [{"bytes": (out / file).stat().st_size}]


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
