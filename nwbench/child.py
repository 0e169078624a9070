"""One fresh-process CLI run: time `import nashwalk.cli` apart from `main(argv)`.

Usage: python3 nwbench/child.py REPORT.json [--spans SPANS.json] [--cpu C] -- CLI_ARGS...

The CLI's standard output goes wherever this process's stdout points.  The
report holds the wall and CPU times of the import and of `main`, and the exit
code; with --spans the run is traced and the spans are written to that file
after `main` returns; with --cpu the process pins itself to that CPU first.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run() -> int:
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    report_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    if "--cpu" in opts:
        os.sched_setaffinity(0, {int(opts[opts.index("--cpu") + 1])})
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0, c0 = time.perf_counter(), time.process_time()
    import nashwalk.cli
    setup_s, setup_cpu_s = time.perf_counter() - t0, time.process_time() - c0

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t1, c1 = time.perf_counter(), time.process_time()
    code = nashwalk.cli.main(argv)
    sys.stdout.flush()
    main_s, main_cpu_s = time.perf_counter() - t1, time.process_time() - c1

    if tracer is not None:
        tracer.dump(spans_path)
    import json

    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "main_s": main_s, "setup_cpu_s": setup_cpu_s,
                   "main_cpu_s": main_cpu_s, "code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
