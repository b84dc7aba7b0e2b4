"""Benchmark for misspec: one workload per run, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload inference --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for their inputs and why each was chosen):
``inference``, ``montecarlo``, ``sweeps`` and ``cli``.  A run starts
``PARTS`` fresh worker processes one after the other (one closed-loop client,
no extra threads); each imports ``misspec`` from ``src/``, sets up, and runs
whole cycles of ops for its share of ``--seconds``, running
``worker.reference_task`` every quarter second of op time to track the
machine's speed.  The gated metrics are ``setup_s`` (median over the parts),
``peak_rss_mb`` and ``work_per_s_at_ref`` (work per second of op time: ops,
replications, grid points or CLI invocations); the two times are scaled to
the speed at which the reference task takes ``REFERENCE_NOMINAL_S``.

Standard output: a ``record`` line (machine, versions, BLAS, kernel backend,
seed, commit), a ``detail`` line (trace 0: each workload's own metrics, such
as ``analyze_p50_us``, with units; trace 1: tracing overhead and span counts),
and last the result object with the metrics listed in ``BENCHMARK.json``:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.  The
full result is also written to ``.perfbench/``.

Exits 2 without a result when ``src/misspec`` is missing, and 1 when a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("inference", "montecarlo", "sweeps", "cli")
PARTS = 3
# A part may run past its share of --seconds by one cycle plus set-up.
PART_SLACK_S = 45.0
IMPORT_PROBES = 3
# Nominal time of worker.reference_task, about its time on the 2-vCPU Xeon
# host the benchmark was defined on: gated times are scaled to this speed.
REFERENCE_NOMINAL_S = 0.004


# --- child processes ----------------------------------------------------------


def run_child(cmd, env, timeout, **kwargs):
    """Run a child in its own session; on timeout kill the whole group and reap it."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:  # timeout, or SIGTERM turned into SystemExit by main
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def child_env(root: Path) -> dict:
    """The environment of every child: ``src`` on the path, one BLAS thread."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --- run record ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _mem_total_mb() -> float:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        code, out, _ = run_child(
            ["git", "rev-parse", "HEAD"], None, 10, cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.strip() if code == 0 else "unknown"


_BLAS_PROBE = r"""
import ctypes, json, numpy, scipy
info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
try:
    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{cfg.get('name')} {cfg.get('version')}"
except Exception as exc:
    info["blas"] = f"unknown ({type(exc).__name__})"
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
info["blas_threads"] = threads
try:
    import numba
    info["numba_importable"] = True
except ImportError:
    info["numba_importable"] = False
print(json.dumps(info))
"""


def run_record(root: Path, seed: int, part0: dict) -> dict:
    try:
        code, out, _ = run_child(
            [sys.executable, "-c", _BLAS_PROBE], child_env(root), 60,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        probe = json.loads(out) if code == 0 else {}
    except (OSError, subprocess.TimeoutExpired, ValueError):
        probe = {}
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(_mem_total_mb(), 1),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "misspec": part0.get("misspec_version"),
        "blas": probe.get("blas"),
        "blas_threads": probe.get("blas_threads"),
        "kernel_backend": part0.get("backend"),
        "numba_importable": probe.get("numba_importable"),
        "seed": seed,
        "commit": _git_commit(root),
        "parts": PARTS,
    }


# --- aggregation ----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def pool(parts, phase: str) -> dict[str, list]:
    """Per-kind op records [latency_s, work, n_c] pooled over parts."""
    kinds: dict[str, list] = {}
    for part in parts:
        for kind, rows in part["phases"].get(phase, {}).items():
            kinds.setdefault(kind, []).extend(rows)
    return kinds


def lat(kinds, kind) -> list[float]:
    return [row[0] for row in kinds[kind]]


def throughput(kinds, selected) -> float:
    """Work per second of op time, over the ops of ``selected`` kinds that carry work."""
    rows = [row for k in selected for row in kinds[k] if row[1] > 0]
    return sum(r[1] for r in rows) / sum(r[0] for r in rows)


def detail_metrics(workload: str, kinds, parts, peak_rss_mb, failed_ratio) -> dict:
    """The workload's own metrics (plus set-up, memory, failures), each (value, unit)."""
    out = {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "import_s": (statistics.median(p["import_s"] for p in parts), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ratio": (failed_ratio, "ratio"),
        "reference_ms": (statistics.mean(x for p in parts for x in p["reference"]["untraced"]) * 1e3, "ms"),
        "work_per_s": (throughput(kinds, list(kinds)), "1/s"),
    }
    if workload == "inference":
        analyze = lat(kinds, "analyze")
        p99 = quantile(analyze, 0.99)
        out["inference_ops_per_s"] = (throughput(kinds, list(kinds)), "ops/s")
        out["analyze_p50_us"] = (statistics.median(analyze) * 1e6, "us")
        out["analyze_p99_us"] = (p99 * 1e6, "us")
        out["analyze_samples"] = (len(analyze), "count")
        out["analyze_beyond_p99"] = (sum(1 for x in analyze if x > p99), "count")
        out["local_ci_p50_us"] = (statistics.median(lat(kinds, "local_ci")) * 1e6, "us")
        out["iv_ci_p50_us"] = (statistics.median(lat(kinds, "iv_ci")) * 1e6, "us")
    elif workload == "montecarlo":
        out["coverage_reps_per_s"] = (throughput(kinds, [k for k in kinds if k.startswith("cov.")]), "reps/s")
        out["pivot_reps_per_s"] = (throughput(kinds, [k for k in kinds if k.startswith("piv.")]), "reps/s")
    elif workload == "sweeps":
        out["grid_points_per_s"] = (throughput(kinds, [k for k in kinds if k != "tails_row"]), "points/s")
        out["conc2d_s_per_c"] = (statistics.median(r[0] / r[2] for r in kinds["conc2d_large"]), "s")
        per_c = [r[0] / r[2] for k in kinds if k.startswith(("conc1d", "contam1d")) for r in kinds[k]]
        out["sweep1d_ms_per_c"] = (statistics.median(per_c) * 1e3, "ms")
        out["tails_ms_per_row"] = (statistics.median(lat(kinds, "tails_row")) * 1e3, "ms")
    elif workload == "cli":
        sub = [x for k in kinds if k.startswith("cli.") for x in lat(kinds, k)]
        out["cli_p50_s"] = (statistics.median(sub), "s")
        out["cli_import_s"] = (statistics.median(lat(kinds, "import")), "s")
    return out


def pooled_failures(parts) -> tuple[int, list[str]]:
    """Ops in pooled coverage groups whose run-level coverage is out of bounds."""
    groups: dict[str, list] = {}
    for part in parts:
        for group, (hits, n, ops) in part["tallies"].items():
            acc = groups.setdefault(group, [0, 0, 0])
            acc[0] += hits
            acc[1] += n
            acc[2] += ops
    failed, messages = 0, []
    for group, (hits, n, ops) in sorted(groups.items()):
        if n and not stats.coverage_ok(hits, n, stats.POOLED_LEVEL):
            failed += ops
            messages.append(f"pooled {group}: coverage {hits / n:.5f} over {n}")
    return failed, messages


def import_breakdown(root: Path) -> dict[str, tuple[float, str]]:
    """``python -X importtime -c 'import misspec'``, median of IMPORT_PROBES runs."""
    keys = {
        "import.total_ms": "misspec",
        "import.numpy_ms": "numpy",
        "import.scipy_special_ms": "scipy.special",
        "import.scipy_linalg_ms": "scipy.linalg",
        "import.scipy_integrate_ms": "scipy.integrate",
    }
    samples: dict[str, list[float]] = {k: [] for k in [*keys, "import.misspec_self_ms"]}
    for _ in range(IMPORT_PROBES):
        code, _, err = run_child(
            [sys.executable, "-X", "importtime", "-c", "import misspec"], child_env(root), 60,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if code != 0:
            raise RuntimeError(f"import probe failed: {err[-300:]}")
        cumulative: dict[str, float] = {}
        own = 0.0
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$", line)
            if not m:
                continue
            name = m.group(3).strip()
            cumulative.setdefault(name, int(m.group(2)) / 1e3)
            if name == "misspec" or name.startswith("misspec."):
                own += int(m.group(1)) / 1e3
        for key, module in keys.items():
            samples[key].append(cumulative.get(module, 0.0))
        samples["import.misspec_self_ms"].append(own)
    return {k: (statistics.median(v), "ms") for k, v in samples.items()}


CLI_SUBCOMMANDS = (
    "analyze", "coverage", "pivot", "concentration", "contaminate", "tails",
    "scenario_iv", "scenario_logit",
)


def per_layer(workload, parts, root) -> tuple[dict, dict]:
    sums = tracing.merge_sums([p["trace_sums"] for p in parts])
    metrics = tracing.layer_metrics(sums)
    metrics["kernels.backend_is_numba"] = (1.0 if parts[0]["backend"] == "numba" else 0.0, "bool")
    untraced = pool(parts, "untraced")
    for sub in CLI_SUBCOMMANDS:
        rows = untraced.get(f"cli.{sub}", [])
        metrics[f"cli.{sub}.wall_s"] = (statistics.median(r[0] for r in rows) if rows else 0.0, "s")
    extra = sums["extra"]
    outputs = extra.get("cli.outputs", 0)
    metrics["serialize.output_bytes"] = (extra.get("cli.output_bytes", 0) / outputs if outputs else 0.0, "B")
    metrics.update(import_breakdown(root))
    # Traced minus untraced time per op, from the two halves of each part,
    # scaled like the gated metrics.
    untraced_ms = scaled_mean_latency(parts, "untraced") * 1e3
    traced_ms = scaled_mean_latency(parts, "traced") * 1e3
    metrics["trace.overhead_ms_per_op"] = (traced_ms - untraced_ms, "ms")
    metrics["trace.overhead_share"] = (traced_ms / untraced_ms - 1.0, "ratio")
    info = {
        "op_mean_untraced_ms": untraced_ms,
        "op_mean_traced_ms": traced_ms,
        "spans": sum(p["spans"] for p in parts),
        "span_files": [f".perfbench/spans-{workload}-p{p['part']}.jsonl" for p in parts],
    }
    return metrics, info


def speed(part, phase="untraced") -> float:
    """How much slower than nominal the machine ran a phase: reference time / nominal."""
    return statistics.mean(part["reference"][phase]) / REFERENCE_NOMINAL_S


def scaled_mean_latency(parts, phase) -> float:
    rows = [row[0] / speed(p, phase) for p in parts for rows in p["phases"][phase].values() for row in rows]
    return sum(rows) / len(rows)


def end_to_end(parts, peak_rss_mb) -> dict[str, tuple[float, str]]:
    """The gated metrics; times are scaled to the reference task's nominal speed.

    The shared 2-vCPU host the benchmark was defined on drifts in speed by
    20-30% over minutes, which no run length averages out, so each part's
    set-up and op times are divided by that part's ``speed``.  The reference
    task runs interleaved with the ops and never calls misspec, so a change
    to the package cannot move it.
    """
    work = scaled_time = 0.0
    for part in parts:
        factor = speed(part)
        for rows in part["phases"]["untraced"].values():
            for latency, units, _ in rows:
                if units > 0:
                    work += units
                    scaled_time += latency / factor
    return {
        "setup_s": (statistics.median(p["setup_s"] / speed(p) for p in parts), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s_at_ref": (work / scaled_time, "1/s"),
    }


# --- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = HERE.parent
    if not (root / "src" / "misspec" / "__init__.py").is_file():
        print(f"error: no misspec source under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    parts = []
    try:
        for part in range(PARTS):
            out = out_dir / f"part-{args.workload}-{args.seed}-p{part}.json"
            out.unlink(missing_ok=True)
            cmd = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
                "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace),
                "--root", str(root), "--out", str(out),
            ]
            timeout = args.seconds / PARTS + PART_SLACK_S
            code, _, _ = run_child(cmd, child_env(root), timeout, stdout=sys.stderr)
            if code != 0:
                print(f"error: worker part {part} exited with {code}", file=sys.stderr)
                return 1
            parts.append(json.loads(out.read_text(encoding="utf-8")))
            out.unlink()
    except subprocess.TimeoutExpired:
        print("error: a worker ran past its time limit", file=sys.stderr)
        return 1
    finally:
        for work in out_dir.glob(f"work-{args.workload}-{args.seed}-p*"):
            shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = max(p["peak_rss_mb"] for p in parts)
    attempted = sum(p["attempted"] for p in parts)
    pooled_failed, pooled_msgs = pooled_failures(parts)
    failed = sum(p["failed"] for p in parts) + pooled_failed
    raised = sum(p["raised"] for p in parts)
    failed_ratio = (failed + raised) / attempted
    errors = [e for p in parts for e in p["errors"]] + pooled_msgs

    record = run_record(root, args.seed, parts[0])
    if args.trace:
        metrics, info = per_layer(args.workload, parts, root)
        detail = {"trace": info}
    else:
        metrics = end_to_end(parts, peak_rss_mb)
        kinds = pool(parts, "untraced")
        detail = detail_metrics(args.workload, kinds, parts, peak_rss_mb, failed_ratio)
        detail = {"detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}
    counts = {"attempted": attempted, "failed": failed, "raised": raised, "errors": errors[:20]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {"record": record, **detail, "counts": counts, "result": result}
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1), encoding="utf-8"
    )
    print(json.dumps({"record": record}))
    print(json.dumps({**detail, "counts": counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
