"""One benchmark process: import misspec, set up a workload, run its timed ops.

``run.py`` starts this script once per part and reads the JSON it writes to
``--out``.  The first thing it does is import ``misspec``, so the import is
timed in a fresh interpreter.  ``run_part`` is the same work as a function,
for tests that patch the package in-process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path


def _run_op(op, tracer, op_id, records, counts, errors):
    span = tracer.begin_op(op_id, op.kind) if tracer is not None else None
    raised = None
    start = time.perf_counter()
    try:
        out = op.run()
    except op.tolerated as exc:
        raised = exc
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
        raised = exc
        counts["failed"] += 1
        errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(span, raised is not None)
    counts["attempted"] += 1
    records.setdefault(op.kind, []).append([elapsed, op.work, op.n_c])
    if raised is not None:
        if isinstance(raised, op.tolerated):
            counts["raised"] += 1
        return
    try:
        op.check(out)
    except Exception as exc:  # noqa: BLE001 - a failed or broken check is a failed op
        counts["failed"] += 1
        errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")


# Op time between two runs of the reference task.
REFERENCE_EVERY_S = 0.25


def reference_task() -> float:
    """Time a fixed task that never calls misspec; it tracks the machine's speed.

    Interpreter arithmetic, small numpy and LAPACK calls and one pass over a
    2 MB array: the kinds of work the workloads spend their time on.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i * 0.5) % 7.0
    a = np.eye(6) + 0.01
    b = np.ones(6)
    for _ in range(100):
        b = np.linalg.solve(a, b) + 1.0
    big = np.full(250_000, acc)
    float(np.dot(big, big))
    return time.perf_counter() - start


def _run_phase(workload, seconds, tracer, state, reference):
    """Closed loop, one client: whole cycles of ops for about ``seconds``.

    At least one cycle; after that the phase ends at the cycle boundary
    nearest to ``seconds``, judged by the mean cycle time so far.  Reference
    task times are appended to ``reference``.
    """
    records: dict[str, list] = {}
    start = time.perf_counter()
    cycles = 0
    since_reference = REFERENCE_EVERY_S
    while True:
        for op in workload.cycle():
            if since_reference >= REFERENCE_EVERY_S:
                reference.append(reference_task())
                since_reference = 0.0
            state["op_id"] += 1
            _run_op(op, tracer, state["op_id"], records, state["counts"], state["errors"])
            since_reference += records[op.kind][-1][0]
            if op.group is not None and op.tally:
                acc = state["tallies"].setdefault(op.group, [0, 0, 0])
                for hits, n in op.tally:
                    acc[0] += hits
                    acc[1] += n
                acc[2] += 1
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return records


def run_part(workload_name, seed, part, seconds, trace, root, out_dir, import_s=0.0):
    """Set up one workload and measure it; returns the part's result dict.

    With ``trace`` the measured time is split into an untraced half and a
    traced half on the same op stream, so the tracing overhead can be read
    off as the difference between the two.
    """
    import misspec
    from misspec import _kernels

    import tracing
    import workloads

    start = time.perf_counter()
    workdir = out_dir / f"work-{workload_name}-{seed}-p{part}"
    workload = workloads.make(workload_name, seed, part, workdir, root)
    workload.warmup()
    setup_s = import_s + (time.perf_counter() - start)

    state = {
        "op_id": 0,
        "counts": {"attempted": 0, "failed": 0, "raised": 0},
        "errors": [],
        "tallies": {},
    }
    result = {
        "part": part,
        "import_s": import_s,
        "setup_s": setup_s,
        "backend": _kernels.backend(),
        "misspec_version": misspec.__version__,
    }
    phases = {}
    reference = {"untraced": [], "traced": []}
    if not trace:
        phases["untraced"] = _run_phase(workload, seconds, None, state, reference["untraced"])
    else:
        phases["untraced"] = _run_phase(workload, seconds / 2.0, None, state, reference["untraced"])
        tracer = tracing.Tracer()
        tracer.install()
        if workload_name == "cli":
            workload.trace_dir = workdir
        phases["traced"] = _run_phase(workload, seconds / 2.0, tracer, state, reference["traced"])
        sums = tracing.summarize(tracer)
        children = []
        if workload_name == "cli":
            child_sums = []
            # cli-<pid>-<n>.json, one per traced invocation, in invocation order.
            paths = sorted(workdir.glob("cli-*.json"), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
            for path in paths:
                child = json.loads(path.read_text(encoding="utf-8"))
                children.append(child.pop("spans"))
                child_sums.append(child)
                path.unlink()
            sums = tracing.merge_sums([sums, *child_sums])
            sums["extra"]["cli.output_bytes"] = workload.output_bytes
            sums["extra"]["cli.outputs"] = workload.invocations
        result["trace_sums"] = sums
        result["spans"] = len(tracer.spans) + sum(len(c) for c in children)
        tracer.write(
            out_dir / f"spans-{workload_name}-p{part}.jsonl",
            {"workload": workload_name, "seed": seed, "part": part,
             "fields": ["name", "start", "end", "parent", "op", "attr", "raised"]},
            children,
        )
    result["phases"] = phases
    # The cli workload's own process only drives the CLI processes it measures.
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result.update(state["counts"])
    result["errors"] = state["errors"][:20]
    result["tallies"] = state["tallies"]
    result["reference"] = reference
    return result


def main(argv=None) -> int:
    start = time.perf_counter()
    importlib.import_module("misspec")
    import_s = time.perf_counter() - start

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    result = run_part(
        args.workload, args.seed, args.part, args.seconds, bool(args.trace),
        Path(args.root), out.parent, import_s,
    )
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
