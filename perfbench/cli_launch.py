"""Run one dephasekit CLI command with the benchmark's tracing wrappers installed.

    python3 perfbench/cli_launch.py SPANS_JSON <dephasekit cli arguments...>

Records the import of `dephasekit.cli` as a `cli.import` span, calls
`dephasekit.cli.main` under the wrappers, writes the spans to SPANS_JSON and
exits with the command's exit code.  `src/` must be on PYTHONPATH.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import dephasekit.cli

    imported = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", start, imported, -1, 0])
    with tracing.installed(tracer):
        code = dephasekit.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
    sys.exit(code)
