"""Run one pushsumlab CLI command in this fresh interpreter and time it.

    python3 launch.py REPORT TRACE [CLI ARGS...]

Times the import of `pushsumlab.cli` (ending at a CLOCK_MONOTONIC stamp
the parent compares with its own spawn stamp) and the call to
`pushsumlab.cli.main(args)` apart. With TRACE=1 it installs the tracer
before the call and writes its spans next to REPORT. Without CLI args it
only imports, which gives a set-up sample. The report is one JSON object.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kib() -> int:
    """Peak resident set of this process since its exec. ru_maxrss would
    also count the resident set of the benchmark process that forked it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import pushsumlab.cli as cli

    imported = time.monotonic()
    import numpy

    report = {
        "imported_monotonic": imported,
        "module_file": cli.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if argv:
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        report["exit_code"] = cli.main(argv)
        report["main_s"] = time.perf_counter() - start
        if tracer is not None:
            report["spans_file"] = report_path + ".spans.json"
            tracer.dump(report["spans_file"])
    report["max_rss_mb"] = peak_rss_kib() * 1024 / 1e6
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
