"""One workload process: import phaselab, warm up, time the operation list, check outputs.

run.py starts this file and reads the one JSON line it prints last.  Without
``--ops`` it stops once it is ready to time the first operation, so run.py can
take several set-up samples in one run.

``--t0`` is run.py's ``time.monotonic()`` just before it started this
process; on Linux that clock is system-wide, so ``import_s`` covers
interpreter start as well as ``import phaselab``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
import traceback


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--warmup", required=True)
    ap.add_argument("--ops")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace-file")
    return ap.parse_args()


def timed_phase(pl, ops, seconds):
    """Whole rounds of the operation list, one operation after another, for at least `seconds`."""
    from workloads import RUN

    times, first, last, failed, rounds = [], None, None, 0, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        outputs = []
        for op in ops:
            t = time.perf_counter()
            try:
                outputs.append(RUN[op.kind](pl, op.x))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outputs.append(None)
                failed += 1
            times.append(time.perf_counter() - t)
        rounds += 1
        first = first if first is not None else outputs
        last = outputs
    elapsed = time.perf_counter() - start
    return {
        "rounds": rounds,
        "attempted": len(times),
        "failed": failed,
        "experiments_per_s": (len(times) - failed) / elapsed,
        "experiment_s.p50": statistics.median(times),
        "first": first,
        "last": last,
    }


def _flat(obj):
    """Every number and string in an output, in a fixed order, for comparing two rounds."""
    if isinstance(obj, dict):
        return [v for k in sorted(obj) for v in [k, *_flat(obj[k])]]
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _flat(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return _flat(vars(obj))
    if hasattr(obj, "tolist"):
        return _flat(obj.tolist())
    return [obj]


def check(pl, ops, phase):
    """Failure messages over every operation that did not fail."""
    from checks import CHECKS

    errors = []
    for op, out, again in zip(ops, phase["first"], phase["last"]):
        if out is None:
            continue
        if _flat(out) != _flat(again):
            errors.append(f"{op.label}: the first and the last round returned different outputs")
        try:
            errors += [f"{op.label}: {e}" for e in CHECKS[op.kind](pl, op.x, out)]
        except Exception as exc:
            errors.append(f"{op.label}: check raised {exc!r}")
    return errors


def main():
    args = _args()
    import phaselab as pl

    import_s = time.monotonic() - args.t0
    import workloads  # after the timing above; unpickling needs its Op class

    with open(args.warmup, "rb") as fh:
        warmup = pickle.load(fh)
    start = time.perf_counter()
    for op in warmup:
        workloads.RUN[op.kind](pl, op.x)
    result = {"import_s": import_s, "warmup_s": time.perf_counter() - start}
    if args.ops is None:
        print(json.dumps(result))
        return 0

    with open(args.ops, "rb") as fh:
        ops = pickle.load(fh)
    phase = timed_phase(pl, ops, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [phase]
    if args.trace_file:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed_phase(pl, ops, args.seconds)
        finally:
            tracer.uninstall()
        tracer.dump(args.trace_file)
        missing = tracer.missing(set().union(*(spans.expected_calls(op) for op in ops)))
        if missing:
            print(f"traced functions recorded no call: {missing}", file=sys.stderr)
            return 1
        result["layers"] = tracer.metrics(traced["rounds"])
        result["traced_experiments_per_s"] = traced["experiments_per_s"]
        phases.append(traced)
    errors = check(pl, ops, phase)
    if len(phases) > 1 and _flat(phases[1]["first"]) != _flat(phase["first"]):
        errors.append("traced and untraced rounds returned different outputs")
    for key in ("rounds", "experiments_per_s", "experiment_s.p50"):
        result[key] = phase[key]
    result["attempted"] = sum(p["attempted"] for p in phases)
    result["failed"] = sum(p["failed"] for p in phases)
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
