"""Benchmark the Monte Carlo kernels on the numba and numpy backends.

Runs the coverage and pivotality replication loops on both backends at the
same seeds and reports wall time and the speedup, verifying on the way that
the two backends produce identical results.

Usage: python benchmarks/backend_bench.py [--reps N]
"""

import argparse
import time

import numpy as np

from misspec import _kernels
from misspec.montecarlo import (
    DEFAULT_COVERAGE_X,
    DEFAULT_PIVOT_X,
    _coverage_pieces,
)
from misspec.special import StudentT, t_quantile


def _time(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_coverage(reps: int, backend: str):
    fixture, a_v, b, sv = _coverage_pieces(DEFAULT_COVERAGE_X, np.eye(5), [1.0, 0.0])
    tstar = t_quantile(StudentT(3.0), 0.975)
    args = (
        42, 0, reps, fixture.X, fixture.w_inv_root, _kernels.ETA_NORMAL, 0.0,
        _kernels.THETA_GAUSSIAN, np.zeros(2), np.full(2, 10.0),
        np.empty(0), np.empty(0), a_v, b, np.array([1.0, 0.0]), sv, tstar, 3.0,
    )
    return _time(lambda: _kernels.coverage_hits(*args, force_backend=backend))


def bench_pivot(reps: int, backend: str):
    fixture, a_v, b, sv = _coverage_pieces(DEFAULT_PIVOT_X, np.eye(4), [1.0])
    args = (7, 0, reps, fixture.w_inv_root, _kernels.ETA_STUDENT_T, 3.0, a_v, b, sv, 3.0)
    return _time(lambda: _kernels.pivot_tstats(*args, force_backend=backend))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20_000)
    args = parser.parse_args()

    if not _kernels.NUMBA_AVAILABLE:
        print("numba backend unavailable (not installed or disabled via MISSPEC_NUMBA=0);")
        print("only the numpy fallback can be timed.")

    rows = []
    for name, bench in (("coverage", bench_coverage), ("pivot t-stats", bench_pivot)):
        t_py, res_py = bench(args.reps, "numpy")
        if _kernels.NUMBA_AVAILABLE:
            bench(args.reps, "numba")  # trigger compilation outside the timing
            t_jit, res_jit = bench(args.reps, "numba")
            if isinstance(res_py, np.ndarray):
                identical = np.array_equal(res_py, res_jit)
            else:
                identical = res_py == res_jit
            rows.append((name, t_py, t_jit, t_py / t_jit, identical))
        else:
            rows.append((name, t_py, None, None, None))

    print(f"\nkernel benchmark, reps={args.reps}")
    print(f"{'kernel':<15} {'numpy [s]':>10} {'numba [s]':>10} {'speedup':>8} {'identical':>10}")
    for name, t_py, t_jit, speedup, identical in rows:
        if t_jit is None:
            print(f"{name:<15} {t_py:>10.4f} {'-':>10} {'-':>8} {'-':>10}")
        else:
            print(f"{name:<15} {t_py:>10.4f} {t_jit:>10.4f} {speedup:>7.1f}x {str(identical):>10}")


if __name__ == "__main__":
    main()
