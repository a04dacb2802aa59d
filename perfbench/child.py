"""One CLI invocation in a fresh process, timed from the inside.

    python3 child.py RESULT.json plain|trace [CLI ARGS...]

Records, on the system-wide monotonic clock, when ``takagi_harvest.cli`` is
imported and ready and when ``cli.main`` starts and returns, plus the peak
resident memory of the process, and writes them to RESULT.json.  With no CLI
arguments it only imports the package, which times set-up alone.  In
``trace`` mode the per-layer wrappers of ``spans`` are installed before
``cli.main`` runs and their metrics are added to the result.
"""

import sys
import time

import takagi_harvest.cli as cli

READY = time.monotonic()

import json  # noqa: E402  (after READY: not part of the program's set-up)
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402


def main(argv) -> int:
    result_path, mode, *cli_args = argv
    trace = mode == "trace"
    out = {"ready": READY, "cli_file": os.path.realpath(cli.__file__)}
    tracer = None
    run_cli = cli.main
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        run_cli = tracer.wrap("cli.main", cli.main)
    if cli_args:
        rc, error = None, None
        with warnings.catch_warnings(record=trace) as caught:
            if trace:
                warnings.simplefilter("always")
            start = time.monotonic()
            try:
                rc = run_cli(cli_args)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # reported to the benchmark as a failed invocation
                error = traceback.format_exc()
            end = time.monotonic()
        out.update(start=start, end=end, rc=rc, error=error)
        if tracer is not None:
            out["trace"] = tracer.metrics()
            out["trace"]["harvesting.warnings"] = len(caught)
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
