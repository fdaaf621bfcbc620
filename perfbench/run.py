"""Closed-loop benchmark of dercat: one client, one op at a time.

Usage:
    python3 perfbench/run.py --workload {suites,triangle,ext,cli}
        --seed N --seconds S --trace {0,1} [--ops N]

Each workload runs a fixed op list made from the seed; --seconds sets its
length through a fixed ops-per-second rate (at least 100 ops), never
through a timer, so every run with the same arguments does the same work.
--ops overrides the length for smoke tests.  Every answer is checked by
an oracle that does not reuse the code under test (see oracles.py).

--trace 0 prints the end-to-end metrics, measured without tracing:
ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb and setup_s (the median of
several worker launches, after one discarded launch that fills the
bytecode cache).  Times are scaled to a nominal host speed (see
NOMINAL_REFERENCE_S); the raw ones are printed too.  --trace 1 runs the op list once plainly and once under
the outside tracer, in fresh processes, and prints the per-layer metrics
with trace.overhead_ratio.  The last line of stdout is one JSON object;
any error exits non-zero without it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
import oracles  # noqa: E402
from tracer import layer_metrics, merge  # noqa: E402
from worker import REFERENCE_EVERY_S, reference_loop  # noqa: E402

WORKLOADS = ("suites", "triangle", "ext", "cli")
# Op counts per second of --seconds (fixed, so the work never depends on
# the host's speed); every workload runs at least MIN_OPS ops.
RATE = {"suites": 110, "triangle": 3, "ext": 25, "cli": 5}
MIN_OPS = 100
SETUP_LAUNCHES = 5
TIME_LIMIT_S = 170
CALIBRATION_LOOP = 200_000
# The host's speed drifts by up to 1.5x over seconds to minutes (other
# tenants of the machine), and the program slows with it.  A fixed
# reference loop is timed before every launch and between ops; times are
# reported at a nominal host speed, i.e. scaled by NOMINAL_REFERENCE_S over
# the run's median reference time.  Raw times are in the "# info" line.
NOMINAL_REFERENCE_S = 0.002


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC
    return env


def calibrate():
    """Median time in ms of a fixed pure-Python loop, read before and after
    a run, to tell host slowdowns from the program's."""
    return 1000 * statistics.median(reference_loop(CALIBRATION_LOOP)
                                    for _ in range(5))


# --- workers ---------------------------------------------------------------


class Worker:
    """One worker process: launch, wait for READY, then run or quit."""

    def __init__(self, workload, seed, n_ops, workdir, trace=False):
        self.reference = reference_loop()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), str(n_ops), workdir, "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.close()
            raise BenchError("worker for %s failed during set-up (exit %s)"
                             % (workload, self.proc.returncode))

    def finish(self, command):
        out, _ = self.proc.communicate(command + "\n")
        if self.proc.returncode != 0:
            raise BenchError("worker exited with %d" % self.proc.returncode)
        return out

    def run(self):
        lines = self.finish("run").strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_only(workload, seed, n_ops, workdir):
    """(set-up seconds, reference seconds timed just before the launch)"""
    w = Worker(workload, seed, n_ops, workdir)
    try:
        w.finish("quit")
    finally:
        w.close()
    return w.setup_s, w.reference


def worker_pass(workload, seed, n_ops, workdir, trace=False):
    w = Worker(workload, seed, n_ops, workdir, trace)
    try:
        return (w.setup_s, w.reference), w.run()
    finally:
        w.close()


# --- the cli workload: the client runs each command itself -----------------


def run_command(argv, err):
    """Run one child to completion; returns (seconds, exit code, stdout,
    peak RSS in KB) with the RSS read from the child's own rusage."""
    t0 = time.perf_counter()
    argv = [a.replace("{launch}", repr(t0)) for a in argv]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                            env=child_env(), cwd=os.path.dirname(err.name))
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return seconds, proc.returncode, out, usage.ru_maxrss


def cli_pass(workdir, trace):
    """Run the manifest's commands one at a time; returns a result dict
    shaped like a worker's, with rss_kb the largest child's."""
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    durations, outcomes, unexpected, rss, traces = [], [], [], 0, []
    err_path = os.path.join(workdir, "stderr.txt")
    trace_out = os.path.join(workdir, "trace.json")
    head = [sys.executable] + ([os.path.join(HERE, "tracecli.py"), "{launch}",
                                trace_out] if trace else ["-m", "dercat.cli"])
    reference, next_ref = [], time.perf_counter()
    for k, op in enumerate(manifest):
        if time.perf_counter() >= next_ref:
            reference.append(reference_loop())
            next_ref = time.perf_counter() + REFERENCE_EVERY_S
        with open(err_path, "w") as err:
            seconds, code, out, kb = run_command(head + op["argv"], err)
        durations.append(seconds)
        rss = max(rss, kb)
        try:
            if code != 0:
                with open(err_path) as fh:
                    raise oracles.OracleError("exit %d: %s" % (
                        code, fh.read().strip()[-300:]))
            oracles.check_cli(op, json.loads(out), workdir)
            outcomes.append("ok")
        except (oracles.OracleError, ValueError, KeyError, TypeError,
                OSError) as e:
            outcomes.append("failed")
            unexpected.append("command %d %s: %s: %s"
                              % (k, " ".join(op["argv"]), type(e).__name__, e))
        if "out" in op["files"]:
            out_file = os.path.join(workdir, op["files"]["out"])
            if os.path.exists(out_file):
                os.remove(out_file)
        if trace:
            with open(trace_out) as fh:
                traces.append(json.load(fh))
    result = {"durations": durations, "outcomes": outcomes, "known": [],
              "unexpected": unexpected, "rss_kb": rss, "reference": reference}
    if trace:
        result["trace"] = merge(traces)
        result["trace"]["startup_s"] = statistics.median(
            t["startup_s"] for t in traces)
    return result


# --- metrics -----------------------------------------------------------------


def placement(durations):
    """Where p50 and p90 sit in the sorted op times: the values ten ranks
    either side, and the largest ratio between neighbours in that window
    (a gap between op-size classes shows as a large ratio)."""
    s = sorted(durations)
    out = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        i = int(q * (len(s) - 1))
        win = s[max(0, i - 10):i + 11]
        steps = [b / a for a, b in zip(win, win[1:]) if a > 0]
        out[name] = {"rank": i, "beyond": len(s) - 1 - i,
                     "window_ms": [round(1000 * win[0], 3),
                                   round(1000 * win[-1], 3)],
                     "max_step": round(max(steps or [1.0]), 3)}
    return out


def host_factor(references):
    """Run's host slowness: median reference time over the nominal one."""
    return statistics.median(references) / NOMINAL_REFERENCE_S


def end_to_end(result, setups, host=1.0):
    """End-to-end metrics, with every time divided by the host factor."""
    d = [t / host for t in result["durations"]]
    return {
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "op_p50_ms": (1000 * statistics.median(d), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(d, n=10)[8], "ms"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(s for s, _ in setups) / host, "s"),
    }


def per_layer(untraced, traced):
    m = layer_metrics(traced["trace"])
    m["cli.startup_s"] = (traced["trace"].get("startup_s", 0.0), "s")
    m["trace.overhead_ratio"] = (
        sum(traced["durations"]) / host_factor(traced["reference"])
        / (sum(untraced["durations"]) / host_factor(untraced["reference"])),
        "ratio")
    return m


# --- main --------------------------------------------------------------------


def one_pass(workload, seed, n_ops, workdir, trace):
    """Set up and run the op list once in fresh processes."""
    if workload == "cli":
        setup = setup_only("cli", seed, n_ops, workdir)
        return setup, cli_pass(workdir, trace)
    return worker_pass(workload, seed, n_ops, workdir, trace)


def measure(workload, seed, n_ops, workdir):
    """Untraced run: the discarded launch, SETUP_LAUNCHES - 1 set-up-only
    launches, then a launch that sets up and runs the op list."""
    setup_only(workload, seed, n_ops, workdir)
    setups = [setup_only(workload, seed, n_ops, workdir)
              for _ in range(SETUP_LAUNCHES - 1)]
    setup, result = one_pass(workload, seed, n_ops, workdir, False)
    setups.append(setup)
    host = host_factor(result["reference"] + [ref for _, ref in setups])
    return result, end_to_end(result, setups, host), [result], {
        "host_factor": host,
        "raw": {k: v for k, (v, _) in end_to_end(result, setups).items()}}


def trace_run(workload, seed, n_ops, workdir):
    """Traced run: the discarded launch, then the op list once plainly and
    once under the tracer, each in fresh processes."""
    setup_only(workload, seed, n_ops, workdir)
    _, plain = one_pass(workload, seed, n_ops, workdir, False)
    _, traced = one_pass(workload, seed, n_ops, workdir, True)
    return traced, per_layer(plain, traced), [plain, traced], {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="op count override, for smoke tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dercat", "__init__.py")):
        sys.stderr.write("error: no dercat sources under %s\n" % SRC)
        return 2

    def timeout(signum, frame):
        raise BenchError("run exceeded %d s" % TIME_LIMIT_S)
    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(TIME_LIMIT_S)

    n_ops = args.ops or max(MIN_OPS, round(args.seconds * RATE[args.workload]))
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload,
                                                                os.getpid()))
    os.makedirs(workdir)
    try:
        calib_before = calibrate()
        if args.trace:
            result, metrics, passes, extra = trace_run(
                args.workload, args.seed, n_ops, workdir)
        else:
            result, metrics, passes, extra = measure(
                args.workload, args.seed, n_ops, workdir)
        calib_after = calibrate()
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    info = {"workload": args.workload, "seed": args.seed, "ops": n_ops,
            "calibration_ms": {"before": round(calib_before, 3),
                               "after": round(calib_after, 3)},
            "known_failures": result["known"],
            "unexpected_failures": [u for p in passes for u in p["unexpected"]],
            "placement": placement(passes[0]["durations"]),
            "reference_ms": [round(1000 * statistics.median(p["reference"]), 4)
                             for p in passes]}
    info.update(extra)
    print("# info " + json.dumps(info))
    print(json.dumps({
        "correct": not info["unexpected_failures"],
        "attempted": len(result["durations"]),
        "failed": max(len(p["outcomes"]) - p["outcomes"].count("ok")
                      for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
