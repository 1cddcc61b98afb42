"""Benchmark of qbchain's quench, amplify and survey pipelines.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload quench|amplify|survey \
        --seed N --seconds S --trace 0|1

Each round runs the workload's commands in one fresh interpreter
(``child.py``), one round at a time: at least two rounds, and further ones
while the last round's duration says the next would end within
``--seconds`` of the start.  The first round's outputs are checked by
``checks.py``; every later round must write byte-identical data files.
Outputs are deleted before the next round starts.  No BLAS thread variable
is set, so OpenBLAS runs with its default thread count, as users get it.

``--trace 0`` reports the end-to-end metrics (medians over the rounds);
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (medians over the traced rounds) and the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 3       # set-up-only interpreters per untraced run, after one warm-up
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# workload -> [(label, config overrides)]; every other key is qbchain's default
WORKLOADS = {
    "quench": [
        ("quench", {"command": "quench"}),
    ],
    "amplify": [
        ("amplify", {"command": "amplify", "regime": "imaginary"}),
        ("amplify-theta0", {"command": "amplify", "regime": "imaginary",
                            "theta": "0", "delta": "0.5", "delta_min": "0.5",
                            "delta_steps": "1", "n_cells": "80"}),
    ],
    "survey": [
        ("phase-diagram", {"command": "phase-diagram"}),
        ("spectrum-obc", {"command": "spectrum", "boundary": "obc"}),
        ("spectrum-pbc", {"command": "spectrum"}),
        ("winding", {"command": "winding"}),
        ("check", {"command": "check"}),
    ],
}

CHECKS = {
    "quench": checks.check_quench,
    "amplify": checks.check_amplify_scan,
    "amplify-theta0": checks.check_chi_closed_form,
    "phase-diagram": checks.check_phase_diagram,
    "spectrum-obc": checks.check_spectrum_obc,
    "spectrum-pbc": checks.check_spectrum_pbc,
    "winding": checks.check_winding,
    "check": checks.check_check,
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPANS = ("cli.run", "model.bloch", "model.dynamical_qb_k",
          "model.realspace_dynamical", "model.quadrature_dynamical",
          "spectral.spectrum_sweep", "spectral.eigvals_small",
          "spectral.eigvals_large", "topology.winding_pair",
          "topology.classify_phase_imag", "quench.return_rate",
          "quench.pgp_field", "quench.dtop", "quench.critical_set",
          "amplification.susceptibility", "amplification.lu",
          "amplification.cond", "amplification.gain_metrics")
_CALLS = ("model.bloch", "model.dynamical_qb_k", "spectral.eigvals",
          "topology.winding_pair", "topology.classify_phase_imag",
          "quench.pgp_field", "amplification.susceptibility",
          "amplification.longdouble_fallback")
# per -X importtime: self time of each qbchain module, cumulative of the rest
_IMPORTS = {"qbchain": "self", "qbchain.exceptions": "self",
            "qbchain.model": "self", "qbchain.spectral": "self",
            "qbchain.topology": "self", "qbchain.quench": "self",
            "qbchain.amplification": "self", "qbchain.cli": "self",
            "numpy": "cumulative", "scipy.linalg": "cumulative"}


def _import_metric(module: str, kind: str) -> str:
    layer = module.removeprefix("qbchain.")
    return f"{layer}.import.{kind}_s"


PER_LAYER = {
    **{f"{s}.self_s": "s" for s in _SPANS},
    **{f"{c}.calls": "count" for c in _CALLS},
    "cli.bytes_written": "bytes",
    "cli.rows_written": "count",
    **{_import_metric(m, k): "s" for m, k in _IMPORTS.items()},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(configs: list, mode: str) -> dict:
    """Run child.py once; returns its report plus ``setup_s`` and ``stderr``."""
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), json.dumps({"configs": configs, "mode": mode})]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timed out after {exc.timeout} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report["setup_s"] = report["ready"] - start
    report["stderr"] = proc.stderr
    return report


def import_times(stderr: str) -> dict:
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (x.strip() for x in line[12:].split("|"))
        kind = _IMPORTS.get(name)
        if kind and self_us.isdigit():
            out[_import_metric(name, kind)] = int(
                self_us if kind == "self" else cum_us) * 1e-6
    return out


def data_hashes(outdirs: dict) -> dict:
    """sha256 of every data file listed in each command's manifest."""
    out = {}
    for label, outdir in outdirs.items():
        manifest = json.loads((outdir / "manifest.json").read_text())
        for f in manifest["files"]:
            h = hashlib.sha256()
            with open(outdir / f["name"], "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[f"{label}/{f['name']}"] = h.hexdigest()
    return out


def openblas_threads():
    """OpenBLAS's own thread count, or None where it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> str:
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, cores {os.cpu_count()}, "
            f"openblas threads {openblas_threads()}, {threads}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "qbchain" / "cli.py").is_file():
        print(f"qbchain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = OUT / workload
    shutil.rmtree(base, ignore_errors=True)
    outdirs = {label: base / label for label, _ in WORKLOADS[workload]}
    configs = [dict(cfg, out=str(outdirs[label])) for label, cfg in WORKLOADS[workload]]
    print(environment())

    start = time.monotonic()
    setup = []
    if not trace:
        for i in range(SETUP_PROBES + 1):
            rep = launch(configs, "setup")
            if "error" in rep:
                print(f"set-up failed: {rep['error']}", file=sys.stderr)
                return 2
            if i:  # the first interpreter also compiles the sources
                setup.append(rep["setup_s"])

    rounds = {"run": [], "trace": []}
    attempted = failed = 0
    correct = True
    reference = None
    launched = 0
    last_s = 0.0
    # at least two rounds; another only if it is expected to end within --seconds
    while launched < 2 or time.monotonic() - start + last_s <= seconds:
        began = time.monotonic()
        mode = "trace" if trace and launched % 2 else "run"
        rep = launch(configs, mode)
        launched += 1
        attempted += len(configs)
        statuses = rep.get("statuses", [-1] * len(configs))
        failed += sum(s != 0 for s in statuses)
        if "error" in rep or any(statuses):
            print(f"round failed: {rep.get('error', '')}{rep.get('stderr', '')[-2000:]}",
                  file=sys.stderr)
        else:
            rounds[mode].append(rep)
            setup.append(rep["setup_s"])
            print(f"{mode} round: wall_s {rep['wall_s']:.3f} setup_s "
                  f"{rep['setup_s']:.3f} peak_rss_mb {rep['peak_rss_mb']:.1f} "
                  f"cpu_s {rep['cpu_s']:.3f}")
            hashes = data_hashes(outdirs)
            if reference is None:
                reference = hashes
                for label, outdir in outdirs.items():
                    try:
                        msgs = CHECKS[label](outdir, seed)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        msgs = [f"unreadable output: {exc!r}"]
                    for msg in msgs:
                        print(f"CHECK FAILED {label}: {msg}", file=sys.stderr)
                        correct = False
            elif hashes != reference:
                print("CHECK FAILED: outputs differ from the first round's",
                      file=sys.stderr)
                correct = False
        shutil.rmtree(base, ignore_errors=True)
        last_s = time.monotonic() - began

    if not rounds["run"] or (trace and not rounds["trace"]):
        print("no round completed", file=sys.stderr)
        return 3
    median = statistics.median
    if trace:
        traced = rounds["trace"]
        metrics = {}
        for rep in traced:
            rep["layers"].update(import_times(rep["stderr"]))
        for name in PER_LAYER:
            if name.startswith("trace."):
                continue
            metrics[name] = median(rep["layers"].get(name, 0) for rep in traced)
        metrics["trace.wall_s"] = median(r["wall_s"] for r in traced)
        metrics["trace.untraced_wall_s"] = median(r["wall_s"] for r in rounds["run"])
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": median(r["wall_s"] for r in rounds["run"]),
            "setup_s": median(setup),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds["run"]),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
