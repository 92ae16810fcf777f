"""Run one ``tadkit`` command with its public functions wrapped in spans.

    python bench/traced_cli.py SPANS_JSON RUN_ID -- <tadkit arguments>

Every function named in TRACED is replaced, in every loaded ``tadkit``
module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent, run id) and, for some functions, exact counts
taken from the arguments or the result. Patching each reference, not only
the defining module, is what catches calls made through names imported
elsewhere (``tadkit.cli.forward``, ``tadkit.model.sample_proposal_features``).
Spans stay in memory until the command returns, are written to SPANS_JSON,
and the original functions are put back. The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

TRACED = {
    "dataio": ["load_annotations", "load_features", "rescale_features"],
    "preprocess": ["remove_long_coverage", "resample_short"],
    "proposals": ["build_sampling_matrix", "sample_proposal_features",
                  "sample_adjoint", "draw_mask", "gt_iou_map"],
    "model": ["forward", "compute_gradients", "prepare_sample", "load_model",
              "save_outputs", "load_outputs"],
    "postprocess": ["fuse_scores", "soft_nms", "assemble_detections",
                    "rescale_outputs", "ensemble_maps", "save_proposals",
                    "load_proposals", "save_detections", "load_detections"],
    "metrics": ["ar_curve", "average_map", "ap_at_tiou"],
}


def _path_arg(index: int):
    def probe(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return probe


def _mask_probe(args, kwargs, result):
    return {"dropped": int((result == 0.0).sum()), "cells": int(result.size)}


def _nms_probe(args, kwargs, result):
    return {"in": len(args[0]), "kept": len(result)}


# Exact counts recorded per call. Sizes of files read are taken before the
# call and sizes of files written after it; both come from the path argument.
PROBES = {
    "proposals.sample_proposal_features":
        lambda a, k, r: {"bytes_out": int(r.nbytes)},
    "proposals.draw_mask": _mask_probe,
    "postprocess.fuse_scores": lambda a, k, r: {"candidates": len(r)},
    "postprocess.soft_nms": _nms_probe,
    "metrics.average_map":
        lambda a, k, r: {"detections": sum(len(v) for v in a[0].values())},
    "postprocess.save_proposals": _path_arg(1),
    "postprocess.save_detections": _path_arg(1),
    "model.save_outputs": _path_arg(1),
}
PRE_PROBES = {
    "postprocess.load_proposals": _path_arg(0),
    "postprocess.load_detections": _path_arg(0),
    "model.load_outputs": _path_arg(0),
    "model.load_model": _path_arg(0),
}


class Tracer:
    """Collects spans in memory; one tracer per traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func):
        probe = PROBES.get(name)
        pre_probe = PRE_PROBES.get(name)
        cache_info = getattr(func, "cache_info", None)

        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            if pre_probe is not None:
                span["counts"] = pre_probe(args, kwargs, None)
            misses = cache_info().misses if cache_info else 0
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span["counts"] = probe(args, kwargs, result)
            if cache_info is not None:
                span["counts"] = {"miss": cache_info().misses - misses}
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        import importlib
        import tadkit.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if n == "tadkit" or n.startswith("tadkit.")]
        for short, names in TRACED.items():
            home = importlib.import_module(f"tadkit.{short}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON RUN_ID -- <tadkit args>",
              file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        from tadkit.cli import main as cli_main
        code = cli_main(cli_args)
    finally:
        tracer.restore()
        spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
