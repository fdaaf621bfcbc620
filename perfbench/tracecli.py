"""Run one dercat command under the outside tracer.

Usage: tracecli.py LAUNCH_TIME TRACE_OUT ARGS...

LAUNCH_TIME is the client's time.perf_counter() just before it started
this process (a system-wide monotonic clock on Linux), so the time to the
entry of cli.main is the command's start-up cost.  The tracer's totals,
with that start-up time, go to TRACE_OUT; the exit code is main's.
"""

import json
import sys
import time

from worker import import_dercat


def main(argv):
    launched, out = float(argv[0]), argv[1]
    import_dercat()
    from dercat import cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install("dercat")
    startup = time.perf_counter() - launched
    code = cli.main(argv[2:])
    summary = tracer.summary()
    summary["startup_s"] = startup
    with open(out, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
