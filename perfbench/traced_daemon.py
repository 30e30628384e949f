"""``repro serve`` with the layer tracer installed, for serve-sessions ``--trace 1``.

    python3 perfbench/traced_daemon.py SUMMARY.json CHROME.json <repro serve options>

Installs the same layer wrappers as the batch workloads plus a span around
``ServiceEngine.execute``, then runs the daemon in this process through
``repro.cli.main``.  Once it has drained, it writes its spans as Chrome
trace-event JSON to CHROME.json and its per-layer metrics to SUMMARY.json.
Layer shares are taken of the time from the first span to the last: the
benchmark's one client connection keeps one job in flight, so jobs run one
after another within that window.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    summary_path, chrome_path, *serve_arguments = argv
    from batch import install_tracer, layer_metrics

    from repro import cli
    from repro.service.engine import ServiceEngine
    from repro.telemetry import get_registry

    tracer = install_tracer()
    tracer.patch_method(ServiceEngine, "execute", "service.execute")
    code = cli.main(["serve", *serve_arguments])
    tracer.write_chrome_trace(chrome_path, {"process": "repro serve"})
    spans = tracer.spans
    window = (max(span.end for span in spans) - min(span.start for span in spans)
              if spans else 0.0)
    metrics = layer_metrics(tracer, get_registry().snapshot(), window) if spans else {}
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
