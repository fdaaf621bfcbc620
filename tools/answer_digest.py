"""The sha256 of every answer of the benchmark's op lists, for telling a
change that keeps every answer bit-identical from one that does not.

Usage:
    python3 tools/answer_digest.py [--seed N ...] [--each]
    python3 tools/answer_digest.py --check tools/answer_digest.txt

For each seed (default 7 and 31) it builds the `suites`, `triangle` and
`ext` op lists of perfbench/workloads.py at the length a 10-second
benchmark run uses, runs every op and prints one line per workload:
"<workload> <seed> <ops> <sha256>", the digest of the per-op digests in
op order.  An op's digest is the sha256 of its answer written as JSON:
dercat values through serialize.encode, scalars as text, an op that
raises as its exception's type and message.  A suite case answers
little more than pass or fail, so its digest also reads the state of the
random stream it drew from after the case: a change in what a case draws,
or in how far a search runs, shows there.  A triangle answers only its
δ and cone classes, which many squares share, so its digest also reads
the square it was built from, as serialize.encode writes it.  The `cli`
line digests the input files and the manifest that cli_manifest writes;
the `cli-out` line runs each manifest command in process through
dercat.cli.main, in the directory of its files, and digests its exit
code, its --json report and the bytes of its --out file.
--each also prints the digest of every op, to find the first one that
differs.  --check compares the lines with a file of earlier ones and
exits 1 on a difference.

Stdlib only; it reads perfbench/ and changes nothing there.  The lines
do not depend on PYTHONHASHSEED (they are the same at 0, the benchmark's,
and at 12345).  About 6 s for the two default seeds on one core.
"""

import argparse
import contextlib
import hashlib
import io
import inspect
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 31)
# ops of a 10-second run, as perfbench/run.py sizes them
OPS = {"suites": 1100, "triangle": 100, "ext": 250, "cli": 100}


def canon(value, encode):
    """value as plain JSON data: lists, strings, numbers and None."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (Fraction, float)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [canon(v, encode) for v in value]
    if hasattr(value, "delta_class"):       # a StandardTriangle
        return {"delta": canon(value.delta_class, encode),
                "cone": canon(value.cone_class, encode)}
    return encode(value)


def op_digest(op, encode):
    closure = list(inspect.getclosurevars(op.run).nonlocals.values())
    squares = []
    try:
        answer = op.run()
    except Exception as e:      # an op that raises is an answer too
        answer = {"raised": type(e).__name__, "message": str(e)}
    else:
        if hasattr(answer, "delta_class"):
            squares = [encode(v.complex) for v in closure
                       if hasattr(v, "complex")]
        answer = canon(answer, encode)
    streams = [v.getstate() for v in closure if isinstance(v, random.Random)]
    answer = {"answer": answer, "streams": canon(streams, encode)}
    if squares:
        answer["squares"] = squares
    text = json.dumps(answer, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(workloads, seed):
    """The input files and manifest of the cli workload, in name order."""
    size = workloads.size_for("cli", OPS["cli"])
    with tempfile.TemporaryDirectory() as workdir:
        manifest = workloads.cli_manifest(seed, size, workdir)
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return len(manifest), digest.hexdigest()


def cli_out_digest(workloads, seed):
    """Exit code, --json report and --out bytes of each manifest command,
    in manifest order."""
    from dercat import cli
    size = workloads.size_for("cli", OPS["cli"])
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        manifest = workloads.cli_manifest(seed, size, workdir)
        try:
            os.chdir(workdir)
            for op in manifest:
                report = io.StringIO()
                with contextlib.redirect_stdout(report), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(op["argv"])
                out = b""
                if "out" in op["files"]:
                    with open(op["files"]["out"], "rb") as fh:
                        out = fh.read()
                    os.remove(op["files"]["out"])
                digest.update(b"%d\0%s\0%s\0" % (
                    code, report.getvalue().encode(), out))
        finally:
            os.chdir(cwd)
    return len(manifest), digest.hexdigest()


def digest_lines(seeds, each):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    from dercat import serialize as se
    for seed in seeds:
        for name in ("suites", "triangle", "ext"):
            ops = workloads.OP_LISTS[name](
                seed, workloads.size_for(name, OPS[name]))
            total = hashlib.sha256()
            for op in ops:
                d = op_digest(op, se.encode)
                total.update(d.encode())
                if each:
                    yield "  %s %s" % (d, op.label)
            yield "%s %d %d %s" % (name, seed, len(ops), total.hexdigest())
        n, d = cli_digest(workloads, seed)
        yield "cli %d %d %s" % (seed, n, d)
        n, d = cli_out_digest(workloads, seed)
        yield "cli-out %d %d %s" % (seed, n, d)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--each", action="store_true",
                        help="also print the digest of every op")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the lines of FILE")
    args = parser.parse_args(argv)
    expected = None
    if args.check:
        with open(args.check) as fh:
            expected = {line.split()[0] + " " + line.split()[1]: line.strip()
                        for line in fh if line.strip()}
    seeds = args.seed or SEEDS
    bad = 0
    for line in digest_lines(seeds, args.each):
        print(line, flush=True)
        if expected is not None and not line.startswith(" "):
            key = " ".join(line.split()[:2])
            if expected.get(key) != line:
                print("  differs from %s: %s" % (args.check, expected.get(key)))
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
