"""gstgec benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload {train,gst,correct,align} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the workload runs
for half the seconds untraced and then for half again with spans around
every traced layer (tracer.py), and the JSON carries the per-layer
metrics and the tracing overhead.  The lines before it are the environment record and the
workload's named metrics.  Times are scaled to a reference machine speed
measured during the run (speed.py); the unscaled figures, the details
and the environment go to perfbench/out/<workload>-seed<N>-trace<T>.json.

Exit status 0 means every output check passed; a failed check prints the
result with ``"correct": false`` and exits 1; a checkout without
``src/gstgec`` exits 2 without a result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the encoder's matrices are small, and a second thread
# on a 2-core machine adds more variance than speed.
BLAS_THREADS = "1"

# End-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "main_per_s": "1/s",
    "main_p50_ms": "ms",
    "follow_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Overhead of tracing on each timed slot, in percent of untraced time.
OVERHEAD = {"trace.main_overhead_pct": "main_per_s",
            "trace.follow_overhead_pct": "follow_per_s"}
SETUP_BUDGET_S = 1.0


def import_library():
    """Import gstgec from this checkout's src/, or exit 2."""
    if not (SRC / "gstgec" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no {SRC / 'gstgec'}; run from the root "
                         "of a gstgec source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gstgec
    if Path(gstgec.__file__).resolve().parent != (SRC / "gstgec").resolve():
        sys.stderr.write(f"perfbench: imported {gstgec.__file__}, not the "
                         "checkout's src/gstgec\n")
        sys.exit(2)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "gstgec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # an exported source tree has no git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "cpu": _cpu_model(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_budget_s: float = SETUP_BUDGET_S) -> dict:
    """One benchmark run; returns the result document (see main)."""
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer, metric_units

    fn, weights = workloads.WORKLOADS[workload]
    # a traced run splits its seconds between the untraced and the traced
    # pass, so that it lasts as long as an untraced one
    pass_s = seconds / 2 if trace else seconds
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, SpeedProbe() as probe:
        plain = fn(workloads.Run(seed, pass_s, scale, Path(tmp),
                                 setup_budget_s, probe, weights))
        outcomes = [plain]
        values = dict(plain.metrics, peak_rss_mb=peak_rss_mb())
        metrics = {n: (values[n], u) for n, u in END_TO_END.items()}
        spans = None
        if trace:
            spans = Tracer()
            spans.install(callers=[workloads])
            try:
                traced = fn(workloads.Run(seed, pass_s, scale, Path(tmp),
                                          0.0, probe, weights))
            finally:
                spans.uninstall()
            outcomes.append(traced)
            units = metric_units()
            layers = spans.summary()
            metrics = {n: (layers[n], units[n]) for n in units}
            for name, slot in OVERHEAD.items():
                metrics[name] = (100 * (plain.metrics[slot]
                                        / traced.metrics[slot] - 1), "%")
    last = outcomes[-1]
    doc = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in plain.named.items()},
        "raw": plain.raw,
        "details": last.details,
        "problems": [p for o in outcomes for p in o.problems],
        "result": {
            "correct": not any(o.problems for o in outcomes),
            "attempted": int(last.attempted),
            "failed": int(last.failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n",
                                      encoding="utf-8")
    if spans is not None:
        spans.dump(OUT / f"{stem}.spans.npz")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "gst", "correct", "align"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_library()
    warnings.filterwarnings("ignore", message=r"input of \d+ tokens truncated")

    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(doc["environment"]))
    for name, m in doc["named"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for line in doc["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
