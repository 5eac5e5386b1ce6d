"""Steadiness of the benchmark: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py

Run from the root of a checkout.  Each set runs every workload in
BENCHMARK.json once per seed (set 1 seeds 1..10, set 2 seeds 101..110), one
run at a time, with the command and run length in BENCHMARK.json.  For every
end-to-end metric and workload it prints each set's median and quartiles, the
spread (quartile distance over median) against the metric's bound, and how
much worse the second median is than the first.  It exits with 1 and prints
NOT STEADY if a spread or a change exceeds its bound, a run is not correct,
or the share of failed operations differs between runs.  Raw results go to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def _run(command, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    sets = {1: [], 2: []}
    for s, results in sets.items():
        for i in range(RUNS):
            seed = (s - 1) * 100 + i + 1
            for w in workloads:
                r = _run(spec["command"], w, seed, spec["run_seconds"])
                results.append(dict(r, workload=w, seed=seed))
                print(f"set {s} seed {seed:3d} {w:13s} correct={r['correct']} failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(sets))

    ok = True
    print(f"{'workload':13s} {'metric':18s} {'set':>3s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s} {'worse':>7s}")
    for w in workloads:
        runs = {s: [r for r in results if r["workload"] == w] for s, results in sets.items()}
        shares = {s: {r["failed"] / r["attempted"] for r in rs} for s, rs in runs.items()}
        if len(shares[1] | shares[2]) != 1 or not all(r["correct"] for rs in runs.values() for r in rs):
            print(f"{w}: failed shares {shares} or a run was not correct")
            ok = False
        for m in spec["end_to_end"]:
            meds = {}
            for s, rs in runs.items():
                q1, med, q3 = _stats([r["metrics"][m["name"]]["value"] for r in rs])
                meds[s] = med
                spread = (q3 - q1) / med
                bad = spread > m["bound"]
                ok &= not bad
                worse = ""
                if s == 2:
                    change = (meds[2] - meds[1]) / meds[1] * (1 if m["better"] == "lower" else -1)
                    worse = f"{100 * change:+6.1f}%"
                    ok &= change <= m["bound"]
                    bad |= change > m["bound"]
                print(
                    f"{w:13s} {m['name']:18s} {s:3d} {q1:10.4g} {med:10.4g} {q3:10.4g} "
                    f"{100 * spread:6.1f}% {100 * m['bound']:5.0f}% {worse:>7s}{'  FAIL' if bad else ''}"
                )
    if not ok:
        print("NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
