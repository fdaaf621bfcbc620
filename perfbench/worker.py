"""Benchmark worker: set up one workload's inputs, then run its op list.

Usage: worker.py WORKLOAD SEED OPS WORKDIR TRACE

Prints READY once the inputs exist, then reads one line from stdin.  On
"run" it executes the op list one op at a time, timing each op and
checking each answer outside the timed region, and prints one JSON line
with the timings, outcomes, reference-loop times, peak RSS and (TRACE=1)
the tracer's totals.
Any other line ends the process: set-up-only launches time set-up alone.
For the cli workload set-up writes the input files and a manifest; the
client runs the commands.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_dercat():
    """Import dercat from this checkout's src and nowhere else."""
    sys.path.insert(0, SRC)
    import dercat
    if not os.path.abspath(dercat.__file__).startswith(SRC + os.sep):
        raise RuntimeError("dercat imported from %s, not %s"
                           % (dercat.__file__, SRC))


def verdict(op, answer, error):
    """"ok", "known" (a listed defect) or "failed", with the error."""
    if error is None:
        try:
            op.check(answer)
            return "ok", None
        except AssertionError as e:
            return "failed", e
    if op.known and isinstance(error, op.known[0]) and op.known[1] in str(error):
        return "known", error
    return "failed", error


REFERENCE_EVERY_S = 0.25


def reference_loop(n=50_000):
    """Seconds taken by a fixed pure-Python loop: the host's speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i
    return time.perf_counter() - t0


def run_ops(ops):
    """Run every op in order; the oracles call no dercat code, so under the
    tracer they add to no span.  Between ops, every REFERENCE_EVERY_S, the
    reference loop samples the host's speed outside the timed region."""
    durations, outcomes, known, unexpected, reference = [], [], [], [], []
    clock = time.perf_counter
    next_ref = clock()
    for op in ops:
        if clock() >= next_ref:
            reference.append(reference_loop())
            next_ref = clock() + REFERENCE_EVERY_S
        answer, error = None, None
        t0 = clock()
        try:
            answer = op.run()
        except Exception as e:      # every op is counted, failed or not
            error = e
        durations.append(clock() - t0)
        outcome, error = verdict(op, answer, error)
        outcomes.append(outcome)
        if outcome == "known":
            known.append(op.label)
        elif outcome == "failed":
            unexpected.append("%s: %s: %s" % (op.label, type(error).__name__,
                                              error))
    return {"durations": durations, "outcomes": outcomes, "known": known,
            "unexpected": unexpected, "reference": reference}


def main(argv):
    workload, seed, n, workdir, trace = argv
    seed, trace = int(seed), trace == "1"
    import_dercat()
    import workloads
    size = workloads.size_for(workload, int(n))
    if workload == "cli":
        manifest = workloads.cli_manifest(seed, size, workdir)
        with open(os.path.join(workdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
    else:
        ops = workloads.OP_LISTS[workload](seed, size)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "run" or workload == "cli":
        return 0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("dercat")
    out = run_ops(ops)
    if tracer is not None:
        out["trace"] = tracer.summary()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
