"""Fresh-interpreter entry points the benchmark starts as child processes.

    child.py setup WORKLOAD SEED SIZE
        Import ``andersonstats.cli``, generate the workload inputs and print
        one JSON line with the in-process import time; the parent times the
        whole start-up up to that line.
    child.py cli SPANS_FILE ARG...
        Install the tracer, run ``andersonstats.cli.main(ARG...)``, write
        the spans to SPANS_FILE and exit with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        start = time.perf_counter()
        import andersonstats.cli  # noqa: F401

        import_s = time.perf_counter() - start
        import workloads

        name, seed, size = rest
        workload = workloads.build(name, int(seed), size)
        if isinstance(workload, workloads.MonteCarlo):
            workloads.program_inputs(workload)
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    if mode == "cli":
        import andersonstats.cli
        from tracer import Tracer

        tracer = Tracer()
        with tracer.recording(0):
            code = andersonstats.cli.main(rest[1:])
        Path(rest[0]).write_text(json.dumps(tracer.spans), encoding="utf-8")
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
