"""Run one workload of the phaselab benchmark and print its result as one JSON line.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: phaselab is imported from ./src.
This process builds the workload's inputs from the seed, then starts the
workload's process (worker.py) SETUP_SAMPLES times to time set-up alone, and
once more to time set-up, warm up and run the timed phase and the checks.
With ``--trace 1`` the workload process runs the timed phase a second time
with spans recorded, writes them to perfbench/out/, and the result holds the
per-layer metrics in place of the end-to-end ones.
"""

from __future__ import annotations

import os

# One BLAS and one phaselab thread, for this process and the workload's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PHASELAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 19
WORKER_TIMEOUT_S = 170


def _args():
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _worker(*args):
    """Start worker.py, wait for it, and return the JSON object it printed last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *map(str, args)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    args = _args()
    if not (SRC / "phaselab" / "__init__.py").is_file():
        print(f"no phaselab source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    from workloads import build

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        warmup, ops = Path(tmp, "warmup.pkl"), Path(tmp, "ops.pkl")
        for path, is_warmup in ((warmup, True), (ops, False)):
            with open(path, "wb") as fh:
                pickle.dump(build(args.workload, args.seed, is_warmup), fh)
        setups = [_worker("--warmup", warmup) for _ in range(SETUP_SAMPLES)]
        extra = ["--trace-file", OUT / f"trace-{args.workload}-seed{args.seed}.json"] if args.trace else []
        run = _worker("--warmup", warmup, "--ops", ops, "--seconds", args.seconds, *extra)
    setups.append(run)
    for e in run["errors"]:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        metrics = {
            "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
            "setup.warmup_s": (statistics.median(s["warmup_s"] for s in setups), "s"),
            "trace.experiments_per_s": (run["traced_experiments_per_s"], "1/s"),
            "trace.overhead_pct": (100.0 * (run["experiments_per_s"] / run["traced_experiments_per_s"] - 1.0), "%"),
            **{k: tuple(v) for k, v in run["layers"].items()},
        }
    else:
        metrics = {
            "setup_s": (statistics.median(s["import_s"] + s["warmup_s"] for s in setups), "s"),
            "experiments_per_s": (run["experiments_per_s"], "1/s"),
            "experiment_s.p50": (run["experiment_s.p50"], "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        }
    print(
        json.dumps(
            {
                "correct": not run["errors"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        sys.exit(1)
