"""Traced ``misspec`` CLI invocation for the cli workload's traced run.

Usage: python cli_child.py --sums FILE -- <misspec cli arguments>

Imports the package, installs the span tracer, runs ``misspec.cli.main`` as
one op and writes its spans and their sums to FILE.  Output and exit status are the
CLI's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import misspec.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--sums" or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 1
    sums_path, cli_args = Path(argv[1]), argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    span = tracer.begin_op(0, "cli")
    raised = True
    try:
        code = misspec.cli.main(cli_args)
        raised = False
    finally:
        tracer.end_op(span, raised)
        sums = tracing.summarize(tracer)
        sums["extra"].pop("ops", None)
        sums["spans"] = tracer.spans
        sums_path.write_text(json.dumps(sums), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
