"""Pipeline benchmark: raw probe reports to served answers.

    python3 perfbench/run.py --workload ingest-downtown --seed 1 --seconds 12 --trace 0

Run from the root of the repository.  Each run starts a small warm-up
process, then counted processes, one fresh process per counted run
(``perfbench/workloads.py``), until their timed phases add up to
``--seconds`` (at least two counted runs; fewer fit on a slow machine
than on a fast one, which bounds the length of a run).  It checks every run's
outputs and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
counted runs.  With ``--trace 1`` untraced and traced runs alternate; the
metrics are the per-layer ones from the traced runs, plus the share of
wall time no span covers and the tracing overhead (traced against
untraced wall time).  The line before it holds ``{"meta": ...}``: machine
fingerprint, calibration-kernel time, BLAS threads, input hash and the
per-run figures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}
MIN_RUNS = 2  # counted runs at least, with --trace 0 ...
PAIRS = 1  # ... and untraced/traced pairs at least, with --trace 1
MAX_RUNS = 8
DEADLINE_S = 170.0  # the whole run must end within 180 s
REL_TOL = 1e-6  # nmae / route_err against the recorded per-seed values


def machine() -> Dict[str, Any]:
    """Fingerprint of the machine and the numeric stack."""
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def calibration_s() -> float:
    """Median time of a fixed kernel: dense matmuls plus a Python loop."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        b = a
        for _ in range(20):
            b = np.tanh(b @ a)
        sum(i * i for i in range(300_000))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def child(workload: str, seed: int, traced: bool, warmup: bool, scored: bool,
          budget_s: float) -> Dict[str, Any]:
    """One fresh process running the workload once; its JSON result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * traced + ["--warmup"] * warmup + ["--score"] * scored
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True, timeout=budget_s)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is shared by parent and child: set-up is everything
    # from spawning the process to the start of its timed phase.
    out["setup_s"] = out["t0"] - spawned
    out["reports_per_s"] = out["reports"] / out["wall_s"]
    out["traced"] = traced
    return out


def load_json(path: Path) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)


def check(workload: str, seed: int, runs: List[Dict[str, Any]]) -> List[str]:
    """Cross-run and reference checks on top of each run's own checks."""
    errors = [e for r in runs for e in r["errors"]]
    counted = [r for r in runs if not r.get("warmup")]
    for key in ("input_hash", "estimate_hash", "nmae"):
        if len({r[key] for r in counted}) != 1:
            errors.append(f"{key} differs between runs of one seed")
    ref = load_json(HERE / "reference.json")[workload]
    first = counted[0]  # the scored run: the others have the same estimate
    recorded = ref["seeds"].get(str(seed))
    if recorded is not None:
        for key in ("nmae", "route_err"):
            if abs(first[key] - recorded[key]) > REL_TOL * abs(recorded[key]):
                errors.append(f"{key} {first[key]!r} != recorded {recorded[key]!r}")
        if "agree_frac" in recorded and first["agree_frac"] < recorded["agree_frac"]:
            errors.append(f"agree_frac {first['agree_frac']} < recorded "
                          f"{recorded['agree_frac']}")
    else:
        for key in ("nmae", "route_err"):
            lo, hi = ref["band"][key]
            if not lo <= first[key] <= hi:
                errors.append(f"{key} {first[key]} outside the recorded band [{lo}, {hi}]")
        if "agree_frac" in ref["band"] and first["agree_frac"] < ref["band"]["agree_frac"]:
            errors.append(f"agree_frac {first['agree_frac']} below the recorded floor")
    return errors


def median_of(runs: List[Dict[str, Any]], key: str) -> float:
    return float(statistics.median(r[key] for r in runs))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    start = time.perf_counter()

    def budget() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    warm = child(workload, seed, False, True, False, budget())
    warm["warmup"] = True
    runs: List[Dict[str, Any]] = []
    wanted = 2 * PAIRS if trace else MIN_RUNS
    while len(runs) < MAX_RUNS:
        enough = (len(runs) >= wanted and len(runs) % (1 + trace) == 0
                  and sum(r["wall_s"] for r in runs) >= seconds)
        # A slow machine gets fewer runs rather than a missed deadline: the
        # next run takes about as long as the slowest one so far.
        longest = max([r["setup_s"] + r["wall_s"] for r in runs] or [0.0])
        if enough or (runs and budget() < 1.5 * longest + 5.0):
            break
        traced = trace and len(runs) % 2 == 1
        runs.append(child(workload, seed, traced, False, not runs, budget()))
    if len(runs) < 2:
        raise RuntimeError(f"only {len(runs)} run fits in {DEADLINE_S} s")

    errors = check(workload, seed, [warm] + runs)
    spec = load_json(ROOT / "BENCHMARK.json")
    plain = [r for r in runs if not r["traced"]]
    shares: Dict[str, float] = {}
    if trace:
        traced_runs = [r for r in runs if r["traced"]]
        layers = {k: float(statistics.median(r["layers"][k] for r in traced_runs))
                  for k in traced_runs[0]["layers"]}
        layers["trace.overhead_frac"] = (
            median_of(traced_runs, "wall_s") / median_of(plain, "wall_s") - 1.0
        )
        values = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        # Share of the timed phase each layer's spans take (median over the
        # traced runs), so the weight of every layer in wall_s is on record.
        shares = {k: float(statistics.median(r["shares"].get(k, 0.0) for r in traced_runs))
                  for k in sorted({k for r in traced_runs for k in r["shares"]})}
    else:
        # route_err is scored on the first counted run only; the check above
        # holds every counted run to the same estimate.
        values = {m["name"]: (runs[0]["route_err"] if m["name"] == "route_err"
                              else median_of(plain, m["name"]), m["unit"])
                  for m in spec["end_to_end"]}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "errors": errors,
        "runs": [{k: r[k] for k in ("setup_s", "wall_s", "traced", "nmae", "route_err",
                                    "tuned") if k in r}
                 for r in runs],
        "shares": shares,
        "counts": runs[0]["counts"],
        "input_hash": runs[0]["input_hash"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_json(ROOT / "BENCHMARK.json")["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sum of counted timed phases to reach")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for key, value in CHILD_ENV.items():
        os.environ[key] = value  # before numpy is imported in this process
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine(), "calibration_s": calibration_s()}
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    meta.update({k: result.pop(k)
                 for k in ("errors", "runs", "counts", "input_hash", "shares")})
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
