"""Run one awfs-forge CLI command in this process and time it.

    python3 perfbench/cli_child.py TIME_FILE SPAWNED SPANS_FILE|- ARGS...

TIME_FILE receives the seconds that `awfs_forge.cli.main(ARGS)` took: the
command's own time, without the interpreter and package start-up that
`setup_s` measures.  SPAWNED is the parent's `time.monotonic()` just before
it started this process.  With a SPANS_FILE (not `-`) the benchmark's spans
are installed, and dumped there with the start-up time.  The exit code is the
command's own.
"""

import sys
import time

import awfs_forge.cli

imported = time.monotonic()

if __name__ == "__main__":
    times, spawned, spans, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    tracer = None
    if spans != "-":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = awfs_forge.cli.main(argv)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(spans, spawned, imported)
        with open(times, "w", encoding="utf-8") as handle:
            handle.write(repr(seconds))
    sys.exit(code)
