"""Traced ``repro serve``: install the layer wrappers, then run the real CLI.

Usage::

    python3 perfbench/serve_launcher.py OUT.json serve ENGINE --ledger WAL ...

Everything after ``OUT.json`` is handed unchanged to ``repro.cli.main``.  The
program's own metrics registry and tracer are switched on before the server
starts, so pool workers report back through them.  When the server stops
(SIGTERM), the per-request records, kernel spans and counters are written to
``OUT.json`` for the benchmark to read.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]

    from layers import ServeLayerRecorder

    from repro.cli import main as cli_main
    from repro.obs import enable_metrics, enable_tracing

    recorder = ServeLayerRecorder()
    recorder.install()
    registry = enable_metrics()
    tracer = enable_tracing()
    code = cli_main(cli_args)
    events = tracer.events()
    payload = {
        "requests": recorder.requests,
        "kernel_s": [e["wall_s"] for e in events if e["span"] == "bench.kernel"],
        "engine_load_s": [e["wall_s"] for e in events if e["span"] == "engine.load"],
        "kernel_queries": registry.counter_total("bench.kernel_queries"),
        "kernel_nodes": registry.counter_total("bench.kernel_nodes"),
    }
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
