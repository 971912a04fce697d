"""Run ``repro-od`` in this process and report on it.

    python3 perfbench/cli_child.py REPORT.json TRACE CLI-ARGS...

Runs ``repro.cli.main(CLI-ARGS)`` exactly as the ``repro-od`` entry
point does and, on exit, writes REPORT.json holding the wall time
spent inside ``main`` (so the parent can split interpreter start-up
from the command), the program's metrics registry, and — when TRACE
is 1 — the span totals of :mod:`probes`, with ``main`` itself as the
``cli.main`` span.
"""

from __future__ import annotations

import json
import sys
import time


def run(report_path: str, traced: bool, argv: list) -> int:
    import repro.cli as cli
    from repro.obs import metrics

    tracer = uninstall = None
    main = cli.main
    if traced:
        import probes

        tracer = probes.Tracer()
        uninstall = probes.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    started = time.perf_counter()
    try:
        code = main(argv)
    finally:
        main_s = time.perf_counter() - started
        if uninstall is not None:
            uninstall()
        report = {
            "main_s": main_s,
            "registry": metrics.get_registry().snapshot(),
            "tracer": tracer.to_dict() if tracer is not None else None,
        }
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
