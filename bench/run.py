"""tadkit benchmark: times the real ``tadkit`` CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It makes the workload's inputs
from the seed (set-up, repeated and timed), then runs the workload's
commands one after another as ``python -m tadkit.cli ... --threads 1``, a
closed loop with one client, for about ``--seconds`` of wall time.
Every round's artifacts are loaded back with tadkit's public loaders and
checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run alternates plain rounds with rounds in which
each command runs under ``bench/traced_cli.py``; per-layer numbers come
from the traced rounds and ``trace.overhead_s`` from the difference.
A line before it records the environment. Exits 1 when a check fails and
2 when the checkout has no tadkit sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Set-up is repeated until it has taken SETUP_MIN_S and at least
# SETUP_MIN_REPEATS times; its median is reported.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
IMPORT_PROBES = 1
COMMAND_TIMEOUT_S = 60.0
# A run ends well inside its 180 s limit even if a round runs long.
RUN_BUDGET_S = 140.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-vCPU virtual machine a second thread made the
# timed commands no faster and their times noisier.
BLAS_THREADS = 1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[q - 1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Counts operations attempted and failed; remembers why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(what)
        return ok


class Bench:
    def __init__(self, root: Path, workload, seed: int, smoke: bool):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.smoke = smoke
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.checks = Checks()
        self.reference: dict | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in BLAS_ENV:
            self.env[var] = str(BLAS_THREADS)
        self.started = time.perf_counter()

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Make the inputs repeatedly; returns the median time."""
        times: list[float] = []
        while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
            shutil.rmtree(self.inputs, ignore_errors=True)
            t0 = time.perf_counter()
            self.wl.setup(self.inputs, self.seed, self.smoke)
            times.append(time.perf_counter() - t0)
        return _median(times)

    # -- timed commands -------------------------------------------------

    def _spawn(self, argv: list[str], log: Path) -> tuple[int, float]:
        """Run one command to its end; returns its exit code and wall time.

        The wait blocks in waitpid, so the time ends when the command
        does (``subprocess.run`` with a timeout polls every 50 ms). A
        timer kills a command that outlives COMMAND_TIMEOUT_S."""
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            return code, time.perf_counter() - t0

    def import_probe(self) -> float:
        """Time ``import tadkit`` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import tadkit; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], cwd=self.root,
                             env=self.env, capture_output=True, text=True,
                             timeout=COMMAND_TIMEOUT_S)
        self.checks.record(out.returncode == 0, "import tadkit failed")
        return float(out.stdout.strip() or "nan")

    def round(self, index: int, traced: bool) -> dict | None:
        """Run the workload's commands once; returns their wall times and
        the spans of a traced round, or None when a command failed."""
        out = self.work / f"round-{index}"
        out.mkdir(parents=True)
        config = out / "run.json"
        config.write_text(json.dumps(
            self.wl.run_config(self.inputs, out, self.seed)))
        walls, spans = {}, []
        for cmd in self.wl.commands:
            args = [cmd, "--config", str(config), "--threads", "1"]
            if traced:
                span_file = out / f"spans-{cmd}.json"
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                        str(span_file), f"round-{index}/{cmd}", "--", *args]
            else:
                argv = [sys.executable, "-m", "tadkit.cli", *args]
            code, wall = self._spawn(argv, out / f"{cmd}.log")
            if not self.checks.record(code == 0, f"{cmd} exited {code}: "
                                      f"{_tail(out / f'{cmd}.log')}"):
                return None
            walls[cmd] = wall
            if traced:
                spans.append(json.loads(span_file.read_text()))
        try:
            digest = self.check_outputs(out)
        except (OSError, ValueError, KeyError) as exc:
            self.checks.record(False, f"round {index} artifacts: {exc}")
            return None
        shutil.rmtree(out)
        return {"walls": walls, "spans": spans, "auc": digest["auc"],
                "average_map": digest["average_map"]}

    # -- output checks --------------------------------------------------

    def check_outputs(self, out: Path) -> dict:
        import numpy as np
        from tadkit import (load_annotations, load_detections, load_model,
                            load_outputs, load_proposals)

        c = self.checks
        anns = load_annotations(self.inputs / "annotations.json")
        val = {a.video_id: a for a in anns.subset("validation")}
        props = load_proposals(out / "proposals.json")
        c.record(set(props) == set(val), "proposals.json videos differ from "
                 "the validation subset")
        c.record(all(len(p) <= 100 and all(
            -1e-9 <= x.start < x.end <= val[v].duration + 1e-9
            and np.isfinite(x.score) for x in p)
            for v, p in props.items()), "proposal out of range or not finite")
        dets = load_detections(out / "detections.json")
        c.record(set(dets) == set(val) and all(
            np.isfinite(d.score) for ds in dets.values() for d in ds),
            "detections.json videos differ or scores not finite")
        arrays = hashlib.sha256()
        finite = True
        for vid in sorted(val):
            o = load_outputs(out / "outputs" / f"{vid}.npz")
            for a in (o.p_start, o.p_end, o.p_cls, o.p_reg):
                finite &= bool(np.isfinite(a).all() and (a >= 0).all()
                               and (a <= 1).all())
                arrays.update(np.ascontiguousarray(a).tobytes())
        c.record(finite, "network outputs not finite or outside [0, 1]")
        model = out / "model.cpnm"
        if model.exists():
            _, params = load_model(model)
            c.record(all(np.isfinite(p).all() for p in params.values()),
                     "model parameters not finite")
        auc = json.loads((out / "proposal_report.json").read_text())["auc"]
        amap = json.loads(
            (out / "detection_report.json").read_text())["average_map"]
        c.record(0.0 <= auc <= 100.0 and 0.0 <= amap <= 1.0,
                 f"quality out of range: auc={auc} average_map={amap}")
        digest = {"auc": auc, "average_map": amap,
                  "outputs": arrays.hexdigest()}
        for name in ("proposals.json", "detections.json", "train_log.json",
                     "model.cpnm"):
            if (out / name).exists():
                digest[name] = _sha256(out / name)
        self.compare_digest(digest)
        return digest

    def compare_digest(self, digest: dict) -> None:
        """Every round of a workload at one seed must give the same bytes,
        within this run and across runs in this checkout."""
        if self.reference is None:
            sizes = json.dumps(self.wl.sizes(self.smoke), sort_keys=True)
            store = (self.root / ".bench_work" / "digests"
                     / f"{self.wl.name}-seed{self.seed}-"
                       f"{hashlib.sha256(sizes.encode()).hexdigest()[:12]}"
                       ".json")
            try:
                self.reference = json.loads(store.read_text())
            except (OSError, ValueError):
                self.reference = digest
                store.parent.mkdir(parents=True, exist_ok=True)
                tmp = store.with_suffix(".tmp")
                tmp.write_text(json.dumps(digest))
                os.replace(tmp, store)
        diff = sorted(k for k in digest | self.reference
                      if digest.get(k) != self.reference.get(k))
        self.checks.record(not diff, f"outputs differ from the first round: "
                           f"{diff}")

    # -- loops ----------------------------------------------------------

    def measure(self, seconds: float, traced: bool):
        """Plain rounds (and traced ones, alternating, when ``traced``)
        for about ``seconds``, and at least two of each kind; stops early
        on a failure. A loop starts only if, taking as long as the last
        one, it would end less than half its length past ``seconds``."""
        plain, tr, imports, index, last = [], [], [], 0, 0.0
        start = time.perf_counter()
        while (time.perf_counter() - start + last / 2 < seconds
               or len(plain) < 2 or (traced and len(tr) < 2)):
            loop_start = time.perf_counter()
            if not traced:
                for _ in range(IMPORT_PROBES):
                    imports.append(self.import_probe())
            for kind, bucket in (((False, plain), (True, tr)) if traced
                                 else ((False, plain),)):
                r = self.round(index, kind)
                index += 1
                if r is None:
                    return plain, tr, imports
                bucket.append(r)
            now = time.perf_counter()
            last = now - loop_start
            # Leave room for one more loop like this one within the budget.
            if now - self.started + 2 * last > RUN_BUDGET_S:
                break
        return plain, tr, imports


def _tail(log: Path) -> str:
    try:
        lines = log.read_text().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(bench: Bench, plain: list[dict], imports: list[float],
               setup_s: float) -> dict:
    wl = bench.wl
    n_val = wl.sizes(bench.smoke)["validation_videos"]
    walls = [r["walls"] for r in plain]
    ok = 1.0 - len(bench.checks.errors) / max(bench.checks.attempted, 1)
    return {
        "setup_s": setup_s,
        "import_s": _median(imports),
        "videos_per_s": _median([n_val / w[wl.proposal_command]
                                 for w in walls]),
        "eval_s": _median([w["eval-proposals"] + w["eval-detections"]
                           for w in walls]),
        "pipeline_s": _median([sum(w.values()) for w in walls]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_ops_frac": ok,
    }


def _add_spans(stats: dict, spans: list[dict]) -> None:
    """Add one command's spans to per-function totals: calls, self time
    (duration minus the children's), inclusive durations, summed counts."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        st = stats.setdefault(s["name"], {"calls": 0, "self_s": 0.0,
                                          "durations": [], "counts": {},
                                          "miss_s": 0.0})
        dur = s["end"] - s["start"]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        st["durations"].append(dur)
        counts = s.get("counts", {})
        for k, v in counts.items():
            st["counts"][k] = st["counts"].get(k, 0) + v
        if counts.get("miss"):
            st["miss_s"] += dur


# Metrics that are exact counts: they must repeat in every traced round.
COUNT_STATS = ("calls", "bytes", "bytes_out", "candidates", "kept_ratio",
               "drop_frac", "detections", "misses", "hit_ratio", "auc",
               "average_map")


def traced_round_metrics(r: dict) -> dict:
    """Every per-layer metric this benchmark knows, for one traced round."""
    total: dict = {}
    first_forward = []
    for spans in r["spans"]:
        _add_spans(total, spans)
        first_forward += [(s["end"] - s["start"]) * 1e3 for s in spans
                          if s["name"] == "model.forward"][:1]
    m: dict[str, float] = {}
    for name, st in total.items():
        m[f"{name}.calls"] = st["calls"]
        m[f"{name}.self_s"] = st["self_s"]
        for k, v in st["counts"].items():
            if k in ("bytes", "bytes_out", "candidates", "detections"):
                m[f"{name}.{k}"] = v
    def c(name: str) -> dict:
        return total.get(name, {}).get("counts", {})

    def dur(name: str) -> list[float]:
        return total.get(name, {}).get("durations", [])

    mask = c("proposals.draw_mask")
    m["proposals.draw_mask.drop_frac"] = (
        mask["dropped"] / mask["cells"] if mask.get("cells") else 0.0)
    nms = c("postprocess.soft_nms")
    m["postprocess.soft_nms.kept_ratio"] = (
        nms["kept"] / nms["in"] if nms.get("in") else 0.0)
    bsm = total.get("proposals.build_sampling_matrix")
    misses = c("proposals.build_sampling_matrix").get("miss", 0)
    m["proposals.build_sampling_matrix.misses"] = misses
    m["proposals.build_sampling_matrix.hit_ratio"] = (
        1.0 - misses / bsm["calls"] if bsm else 0.0)
    m["proposals.build_sampling_matrix.miss_s"] = bsm["miss_s"] if bsm else 0.0
    for name, key in (("model.forward", "video_ms"),
                      ("model.compute_gradients", "step_ms")):
        ms = [d * 1e3 for d in dur(name)]
        m[f"{name}.{key}_p50"] = _percentile(ms, 50) if ms else 0.0
        m[f"{name}.{key}_p90"] = _percentile(ms, 90) if ms else 0.0
    m["model.forward.first_ms"] = first_forward[0] if first_forward else 0.0
    m["quality.auc"] = r["auc"]
    m["quality.average_map"] = r["average_map"]
    for cmd in ("train", "infer", "ensemble", "eval-proposals",
                "eval-detections"):
        m[f"cli.{cmd}.wall_s"] = r["walls"].get(cmd, 0.0)
    return m


def per_layer(bench: Bench, plain: list[dict], traced: list[dict],
              names: list[str]) -> dict:
    rounds = [traced_round_metrics(r) for r in traced]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            continue
        values = [r.get(name, 0) for r in rounds]
        if name.rsplit(".", 1)[-1] in COUNT_STATS:
            bench.checks.record(len(set(values)) == 1,
                                f"count {name} differs between traced "
                                f"rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    out["trace.overhead_s"] = (
        _median([sum(r["walls"].values()) for r in traced])
        - _median([sum(r["walls"].values()) for r in plain]))
    return out


# ---------------------------------------------------------------------------
# Environment

def environment(bench: Bench) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": int(bench.env[BLAS_ENV[0]]), "nproc": _nproc(),
            "cpu": cpu, "workload": bench.wl.name, "seed": bench.seed,
            "smoke": bench.smoke, "sizes": bench.wl.sizes(bench.smoke)}


# ---------------------------------------------------------------------------
# Entry point

def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "tadkit" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("error: run from the root of a tadkit checkout "
              "(src/tadkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the smoke test")
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import tadkit
    from workloads import WORKLOADS

    if not Path(tadkit.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported tadkit from {tadkit.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2

    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.smoke)
    try:
        setup_s = bench.setup()
        plain, traced, imports = bench.measure(args.seconds, bool(args.trace))
        complete = len(plain) >= 2 and (not args.trace or len(traced) >= 2)
        bench.checks.record(complete, "too few complete rounds")
        if not complete:
            metrics = {}
        elif args.trace:
            metrics = per_layer(bench, plain, traced,
                                [m["name"] for m in spec["per_layer"]])
            spans_out = root / ".bench_work" / "spans" / \
                f"{args.workload}-seed{args.seed}.json"
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            spans_out.write_text(json.dumps(
                [s for r in traced for cmd in r["spans"] for s in cmd]))
        else:
            metrics = end_to_end(bench, plain, imports, setup_s)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = not bench.checks.errors
    for err in bench.checks.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"env": environment(bench)}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.checks.attempted,
        "failed": len(bench.checks.errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
