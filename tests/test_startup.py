"""What each command loads, and what BLAS threading does to its outputs.

Each ``tadkit`` command runs as its own short process, so its start-up is
part of its cost. ``import tadkit`` is lazy, and under ``python -m
tadkit.cli`` each command imports only the modules it calls: the eval
commands and ``ensemble`` never load the network, ``train`` never loads
post-processing or the metrics, and no command loads the thread pool at
``--threads 1``.
These tests run every command that way on a tiny synthetic run, under
``-X importtime``, and read the modules it imported from its report.

A second test runs ``train`` and ``infer`` with one and with two BLAS
threads and requires the same bytes from both.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tadkit

SRC = Path(tadkit.__file__).resolve().parents[1]

_COMMANDS = ("synth", "train", "infer", "eval-proposals", "eval-detections",
             "ensemble")


def _python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported(stderr: str) -> set[str]:
    """The modules that a ``python -X importtime`` report lists."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")
            and not line.endswith("imported package")}


def _write_config(root: Path, **sections) -> Path:
    cfg = {
        "seed": 3,
        "paths": {"annotations": str(root / "annotations.json"),
                  "features_dir": str(root / "features"),
                  "class_scores": str(root / "class_scores.json"),
                  "output_dir": str(root / "out")},
        "synth": {"n_videos": 8, "t_raw_range": [20, 30], "channels": 4,
                  "n_classes": 2, "val_fraction": 0.25},
        "grid": {"t_scale": 16, "d_max": 16, "n_samples": 4},
        "model": {"c_h": 4, "epochs": 1, "batch_size": 4},
        "postprocess": {"max_out": 20},
        "eval": {"an_max": 20},
        **sections,
    }
    path = root / "run.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, set[str]]:
    """The modules loaded by each command of one tiny run, in run order;
    ensemble averages infer's outputs with themselves into its own
    directory."""
    root = tmp_path_factory.mktemp("startup")
    config = _write_config(root, ensemble={
        "inputs": [str(root / "out" / "outputs")] * 2})
    modules = {}
    for command in _COMMANDS:
        args = [command, "--config", str(config)]
        if command == "ensemble":
            args += ["--out", str(root / "ensemble")]
        proc = _python(["-X", "importtime", "-m", "tadkit.cli", *args])
        modules[command] = _imported(proc.stderr)
    return modules


@pytest.mark.parametrize("command", ["eval-proposals", "eval-detections"])
def test_eval_commands_load_no_network(loaded, command):
    assert not {"tadkit.model", "tadkit.preprocess",
                "tadkit.proposals"} & loaded[command]


def test_ensemble_loads_no_network(loaded):
    assert not {"tadkit.model", "tadkit.preprocess"} & loaded["ensemble"]


def test_train_loads_no_postprocessing(loaded):
    assert not {"tadkit.postprocess", "tadkit.metrics"} & loaded["train"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_one_thread_loads_no_thread_pool(loaded, command):
    assert "concurrent.futures" not in loaded[command]


def test_import_reports_are_read(loaded):
    assert {"tadkit.config", "tadkit.dataio", "numpy"} <= loaded["synth"]
    assert {"tadkit.model", "tadkit.preprocess"} <= loaded["train"]


def test_import_tadkit_loads_no_submodule_and_no_numpy():
    modules = _imported(_python(["-X", "importtime", "-c",
                                 "import tadkit"]).stderr)
    assert "tadkit" in modules and "numpy" not in modules
    assert [m for m in modules if m.startswith("tadkit.")] == []


def test_every_public_name_resolves_to_its_defining_module():
    for name in tadkit.__all__:
        home = importlib.import_module(f"tadkit.{tadkit._HOME[name]}")
        value = getattr(tadkit, name)
        assert value is getattr(home, name)
        assert value.__module__ == home.__name__, name
    assert set(tadkit.__all__) <= set(dir(tadkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(tadkit, "no_such_name")


def _artifacts(out: Path) -> dict[str, bytes]:
    paths = [out / name for name in ("model.cpnm", "train_log.json",
                                     "proposals.json", "detections.json")]
    paths += sorted((out / "outputs").glob("*.npz"))
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def test_blas_threads_do_not_change_outputs(tmp_path):
    """train + infer at one and at two BLAS threads write the same bytes.
    The shape is large enough that OpenBLAS runs the proposal reduction's
    matrix products on both threads."""
    config = _write_config(tmp_path, grid={"t_scale": 32, "d_max": 32,
                                           "n_samples": 8},
                           model={"c_h": 8, "epochs": 2, "batch_size": 8},
                           synth={"n_videos": 16, "t_raw_range": [40, 60],
                                  "channels": 8, "n_classes": 2,
                                  "val_fraction": 0.25})
    _python(["-m", "tadkit.cli", "synth", "--config", str(config)])
    pipeline = ("import sys\n"
                "from tadkit.cli import main\n"
                "sys.exit(main(['train', *sys.argv[1:]])"
                " or main(['infer', *sys.argv[1:]]))\n")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        _python(["-c", pipeline, "--config", str(config), "--out", str(out)],
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        runs.append(_artifacts(out))
    assert runs[0].keys() == runs[1].keys()
    assert [k for k in runs[0] if runs[0][k] != runs[1][k]] == []
