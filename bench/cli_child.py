"""Traced stand-in for ``python -m superhedge.cli``.

Usage: python bench/cli_child.py SPANS_JSON CLI_ARG...

Times the import of ``superhedge.cli`` (numpy and scipy included) as the
``cli.import`` span, wraps the library's layers, runs ``cli.main`` on the
remaining arguments with the same stdout and exit code as the real command,
and writes its spans to SPANS_JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import superhedge.cli  # noqa: E402

end = perf_counter()
import tracing  # noqa: E402  (the benchmark's own module, next to this script)

tracer = tracing.Tracer()
tracer.spans.append({"name": "cli.import", "start": start, "end": end, "parent": None, "task": None})
tracing.install(tracer)
try:
    code = superhedge.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    Path(sys.argv[1]).write_text(json.dumps(tracer.spans))
raise SystemExit(code)
