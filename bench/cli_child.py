"""Run one normmin command line with the benchmark's tracer installed.

Usage: python3 bench/cli_child.py TRACE.json SUBCOMMAND [ARGS...]

Writes the child's normalized per-layer totals, counts and the time taken to
import ``normmin.cli`` to TRACE.json, then exits with the command's code.
"""

import time

IMPORT_START = time.perf_counter()

import normmin.cli  # noqa: E402

IMPORT_END = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    k_start = speed.kernel_time()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_index = 0
    try:
        code = normmin.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        k_end = speed.kernel_time()
        factor = speed.NOMINAL_KERNEL_S / (0.5 * (k_start + k_end))
        record = {
            "import_s": (IMPORT_END - IMPORT_START) * speed.NOMINAL_KERNEL_S / k_start,
            "totals": tracer.layer_totals([factor]),
            "counts": dict(tracer.counts),
        }
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
