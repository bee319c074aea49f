"""``subcurv`` CLI under the layer tracer, for traced cold-cli ops.

Usage: ``python3 perfbench/traced_cli.py OUT.json <subcurv arguments>``
with ``PYTHONPATH=src`` and ``PERFBENCH_SPAWN_NS`` set by the parent.
Writes the layer summary, the process start time and the spans to
OUT.json when the command returns, and exits with the command's code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    from subcurv import cli

    process_start_s = (time.monotonic_ns() - spawn_ns) / 1e9
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["process_start_s"] = process_start_s
        summary["spans"] = tracer.spans
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
