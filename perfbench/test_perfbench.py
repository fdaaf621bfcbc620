"""Self-tests of the benchmark: the oracles reject tampered answers, known
defects are told apart from other failures, and a small run of every
workload finishes in seconds with the metric names BENCHMARK.json lists.

Run with: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench_work", "test-%d" % os.getpid())
    os.makedirs(path)
    yield path
    shutil.rmtree(path)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def rejects(check, *args):
    with pytest.raises(oracles.OracleError):
        check(*args)


# --- oracles ------------------------------------------------------------------


def test_euler_form_matches_hand_computed_ext_of_simples():
    # Δ1 = {0 <- 1}: Ext^0(S0, S1) = 0 and Ext^1(S0, S1) = 1
    d1 = oracles.Shape([0, 1], {(0, 0): 1, (1, 1): 1, (1, 0): 1})
    assert oracles.euler_form(d1, {0: 1, 1: 0}, {0: 0, 1: 1}) == -1
    assert oracles.euler_form(d1, {0: 1, 1: 0}, {0: 1, 1: 0}) == 1


def test_ext_oracle_catches_one_dimension_off():
    ops = workloads.ext(seed=0, n=2)
    for op in ops:
        table = op.run()
        op.check(table)
        for k in range(len(table)):
            bad = list(table)
            bad[k] += 1
            rejects(op.check, bad)


def test_triangle_oracle_catches_flipped_match():
    ops = workloads.triangle(seed=0, n=2)
    nonsplit = ops[-1]
    tri = nonsplit.run()
    nonsplit.check(tri)
    assert [int(c) for c in tri.delta_class] == [1]

    class Tampered:
        delta_class, cone_class = tri.delta_class, tri.cone_class
        matches_cone = not tri.matches_cone
    rejects(nonsplit.check, Tampered)
    Tampered.matches_cone = True
    Tampered.delta_class = Tampered.cone_class = [0]
    rejects(nonsplit.check, Tampered)       # δ must be [1] here


def test_split_detection_needs_block_form():
    eye = [[1, 0], [0, 1]]
    split = oracles.is_visibly_split({0: [[1], [0]]}, {0: [[0, 1]]},
                                     [((0, 0), eye)], {0: 1}, {0: 1})
    mixed = oracles.is_visibly_split({0: [[1], [0]]}, {0: [[0, 1]]},
                                     [((0, 0), [[1, 1], [0, 1]])], {0: 1}, {0: 1})
    assert split and not mixed


def test_cli_oracle_catches_a_wrong_report_field(workdir):
    manifest = workloads.cli_manifest(seed=0, n=9, workdir=workdir)
    tamper = {"check-presheaf": ("total_dim", 1), "ext": ("dim", 1),
              "hom-compare": ("incoherent_dim", 1),
              "resolve": ("lo", -1), "lift": ("hi", 1), "kan": ("hi", 1)}
    seen = set()
    for op in manifest:
        with open(os.path.join(workdir, "stderr.txt"), "w") as err:
            _, code, out, _ = run.run_command(
                [sys.executable, "-m", "dercat.cli"] + op["argv"], err)
        assert code == 0
        report = json.loads(out)
        oracles.check_cli(op, report, workdir)
        seen.add(op["cmd"])
        if op["cmd"] == "triangle":
            rejects(oracles.check_cli, op, dict(report, matches=False), workdir)
        elif op["cmd"] == "suspend":
            rejects(oracles.check_cli, op, dict(report, ok=False), workdir)
        else:
            field, delta = tamper[op["cmd"]]
            rejects(oracles.check_cli, op,
                    dict(report, **{field: report[field] + delta}), workdir)
        if op["cmd"] in ("resolve", "suspend", "lift", "kan"):
            # a written file that disagrees with its input is caught too
            path = os.path.join(workdir, op["files"]["out"])
            with open(path) as fh:
                body = json.load(fh)
            body["terms"] = body["terms"][1:] if len(body["terms"]) > 1 else []
            if body["terms"] != []:
                with open(path, "w") as fh:
                    json.dump(body, fh)
                rejects(oracles.check_cli, op, report, workdir)
    assert seen == set(workloads.CLI_CYCLE)


def test_known_defect_is_counted_apart_from_other_failures():
    known = (ValueError, "search requires a finite field")

    def raiser(msg):
        def run_():
            raise ValueError(msg)
        return run_
    ops = [workloads.Op("a", raiser("search requires a finite field"),
                        None, known),
           workloads.Op("b", raiser("something else"), None, known),
           workloads.Op("c", lambda: 1, lambda a: oracles.check(a == 2, "no"))]
    out = worker.run_ops(ops)
    assert out["outcomes"] == ["known", "failed", "failed"]
    assert out["known"] == ["a"] and len(out["unexpected"]) == 2


# --- whole runs -------------------------------------------------------------


def bench(*args, cwd=ROOT):
    t0 = time.time()
    p = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                       capture_output=True, text=True, cwd=cwd, timeout=170)
    return p, time.time() - t0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_finishes_in_seconds(workload):
    p, elapsed = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--ops", "12")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["attempted"] >= 12
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert elapsed < 60


@pytest.mark.parametrize("workload", ["suites", "cli"])
def test_traced_run_reports_every_layer_metric(workload):
    p, _ = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--ops", "12")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p, _ = bench("--workload", "suites", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
