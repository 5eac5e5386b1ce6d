"""Per-instance operator-norm times: phaselab's operator_norm against a dense solve.

    python3 perfbench/norms.py

Run from the root of a checkout.  For seeds 1, 2 and 3 it builds the spectral
workload's instances, forms their plain (Hermitian) and decoupled relaxation
matrices with refs.py, and times phaselab.operator_norm on each against
numpy's eigvalsh (Hermitian) or svd, with one BLAS thread.  It prints the
relative error of operator_norm against the dense value, which is negative
where operator_norm reports less than the true norm.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PHASELAB_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import phaselab as pl  # noqa: E402

import refs  # noqa: E402
from workloads import build  # noqa: E402

SEEDS = (1, 2, 3)


def _timed(fn, A):
    start = time.perf_counter()
    value = fn(A)
    return value, time.perf_counter() - start


def main() -> int:
    print(f"{'seed':>4s} {'instance':26s} {'matrix':9s} {'dim':>5s} {'gap':>7s} {'operator_norm':>13s} {'dense':>7s} {'rel. error':>11s}")
    for seed in SEEDS:
        for op in build("spectral", seed, warmup=False):
            V, Pi, R, Rp = (op.x[k] for k in ("V", "Pi", "R", "Rp"))
            for kind, A, dense in (
                ("plain", refs.relaxation_matrix(V, Pi, R), refs.herm_norm),
                ("decoupled", refs.decoupled_matrix(V, Pi, R, Rp), refs.op_norm),
            ):
                got, t_pl = _timed(pl.operator_norm, A)
                want, t_dense = _timed(dense, A)
                gap = op.x.get("gap" if kind == "plain" else "decoupled_gap")
                print(
                    f"{seed:4d} {op.label:26s} {kind:9s} {A.shape[0]:5d} {'' if gap is None else f'{gap:.4f}':>7s} "
                    f"{t_pl:12.3f}s {t_dense:6.3f}s {(got - want) / want:11.1e}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
