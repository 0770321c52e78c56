#!/usr/bin/env python3
"""Benchmark of the dctm package: one workload per run.

    python3 perfbench/run.py --workload ablate_tiny --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ./src. With
``--trace 0`` the workload runs untraced and the last line of stdout is
the end-to-end result. With ``--trace 1`` it runs once untraced and once
traced, for half of ``--seconds`` each, and the last line holds the
per-layer metrics plus the tracing overhead (traced minus untraced) of
every end-to-end metric. The line before it is a report with the
numerics environment and the metrics under their per-workload names. The exit code is 0 only when every
output check passed; a run directory without ./src exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_sa", "ablate_tiny", "score")

def environment(seed: int, threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads_cap": threads,
            "python": platform.python_version(), "precision": "float32",
            "nproc": threads, "seed": seed}


def per_workload_names(kind: str, p, e2e: dict) -> dict:
    """The end-to-end figures under their per-workload names, with sample counts."""
    units = p.units()
    out = {"setup_s": {"value": e2e["setup_s"], "n": len(p.setups())},
           "peak_rss_mb": e2e["peak_rss_mb"], "loss_final": e2e["loss_final"]}
    if kind == "score":
        out["score_frames_per_s"] = e2e["frames_per_s"]
        out["call_ms_p50"] = {"value": e2e["step_ms_p50"], "n": len(units)}
        return out
    out["train_frames_per_s"] = e2e["frames_per_s"]
    out["step_ms_p50"] = {"value": e2e["step_ms_p50"], "n": len(units)}
    if len(units) >= 100:   # ten or more samples beyond the 90th percentile
        q = statistics.quantiles([u[0] for u in units], n=10)
        out["step_ms_p90"] = {"value": 1e3 * q[-1], "n": len(units)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # cap BLAS threads at the usable CPUs before numpy is first imported
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    # the package asks git for its revision; keep that search inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if not (SRC / "dctm" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dctm
    if Path(dctm.__file__).resolve().parent != SRC / "dctm":
        print(f"perfbench: imported dctm from {dctm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    passes, problems = [], []
    attempted = failed = 0
    # --trace 1 splits --seconds between its untraced and traced pass, so
    # that every run measures for --seconds in all
    modes = [False, True] if args.trace else [False]
    for traced in modes:
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
        try:
            p = workloads.Pass(wl, traced).run(args.seed, args.seconds / len(modes), work)
            a, f = wl.check(p.outcomes, problems)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        passes.append(p)
        attempted += a
        failed += f
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    ok = not problems and failed == 0

    metrics = {}
    if ok:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [p.end_to_end() for p in passes]
        if args.trace:
            values = passes[1].per_layer()
            values.update({f"trace.overhead_{name}": e2e[1][name] - e2e[0][name]
                           for name in e2e[0]})
        else:
            values = e2e[0]
        listed = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
        if set(values) != set(metrics):
            raise RuntimeError(f"BENCHMARK.json does not list {set(values) ^ set(metrics)}")
        print(json.dumps({"report": {
            "workload": args.workload,
            "environment": environment(args.seed, threads),
            "metrics": per_workload_names(wl.kind, passes[0], e2e[0]),
            "failed_frac": failed / attempted}}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
