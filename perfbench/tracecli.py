"""Run one algcert CLI command under the tracer.

Usage, from the root of a checkout:
    python3 perfbench/tracecli.py OUT OP_ID PROG ARGS...

Writes the tracer's totals to OUT (JSON) and its spans to OUT with the suffix
``.spans.jsonl``, then exits with the command's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

import tracing  # noqa: E402
from algcert import cli  # noqa: E402
from workloads import MAINS  # noqa: E402


def main() -> int:
    out, op, prog, args = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
    tracer = tracing.Tracer().install()
    tracer.op = op
    try:
        code = getattr(cli, MAINS[prog])(args)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)
        tracer.write(out + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
