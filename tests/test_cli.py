"""Command-line front end, exercised in process: exit codes, JSON
reports, output files, and the seeded verification suites."""

import importlib
import json
import os
import subprocess
import sys
import time

import pytest

from dercat.linalg import Field, Matrix
from dercat import diagram
from dercat import presheaf as ps
from dercat import complexes as cx
from dercat import coherence as co
from dercat import generators as gen
from dercat import serialize as se
from dercat import cli

F2 = Field("prime", 2)
F5 = Field("prime", 5)


def simple(field, cat, at):
    dims = {x: 1 if x == at else 0 for x in cat.objects}
    action = {a: Matrix.zeros(field, dims[cat.src[a]], dims[cat.tgt[a]])
              for a in cat.nonidentity_arrows()}
    return ps.Presheaf(field, cat, dims, action)


def nonsplit_square_complex():
    d1 = diagram.delta(1)
    s0, s1 = simple(F2, d1, 0), simple(F2, d1, 1)
    p0 = ps.free_at(F2, d1, 1, 0)
    infl = ps.PresheafMap(s1, p0, {0: Matrix.zeros(F2, 1, 0),
                                   1: Matrix.identity(F2, 1)})
    defl = ps.PresheafMap(p0, s0, {0: Matrix.identity(F2, 1),
                                   1: Matrix.zeros(F2, 0, 1)})
    return gen.conflation_square(ps.Conflation(infl, defl), d1).complex


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_check_diagram(tmp_path, capsys):
    p = tmp_path / "d2.json"
    se.save(p, diagram.delta(2))
    code, out = run(capsys, "check-diagram", str(p))
    assert code == 0 and "ok" in out
    code, out = run(capsys, "--json", "check-diagram", str(p))
    rep = json.loads(out)
    assert rep["ok"] and rep["objects"] == 3


def test_missing_and_wrong_kind_files(tmp_path, capsys):
    code, _ = run(capsys, "check-diagram", str(tmp_path / "absent.json"))
    assert code == 2
    p = tmp_path / "d.json"
    se.save(p, diagram.delta(1))
    code, _ = run(capsys, "check-presheaf", str(p))
    assert code == 2


def test_field_mismatch_is_input_error(tmp_path, capsys):
    p = tmp_path / "x5.json"
    se.save(p, cx.stalk(ps.free_at(F5, diagram.delta(1), 1, 0)))
    code, _ = run(capsys, "resolve", str(p))
    assert code == 2
    code, _ = run(capsys, "--field", "fp:5", "resolve", str(p))
    assert code == 0


def test_resolve_writes_reloadable_output(tmp_path, capsys):
    p = tmp_path / "s0.json"
    out = tmp_path / "res.json"
    se.save(p, cx.stalk(simple(F2, diagram.delta(1), 0)))
    code, _ = run(capsys, "resolve", str(p), "--out", str(out))
    assert code == 0
    res = se.load(out, field=F2)
    for n in res.degrees():
        assert res.term(n).free_parts is not None


def test_ext_of_simples(tmp_path, capsys):
    d1 = diagram.delta(1)
    a, b = tmp_path / "s0.json", tmp_path / "s1.json"
    se.save(a, cx.stalk(simple(F2, d1, 0)))
    se.save(b, cx.stalk(simple(F2, d1, 1)))
    code, out = run(capsys, "--json", "ext", "--source", str(a),
                    "--target", str(b), "--n", "1")
    assert code == 0 and json.loads(out)["dim"] == 1
    code, out = run(capsys, "--json", "ext", "--source", str(b),
                    "--target", str(a), "--n", "1")
    assert code == 0 and json.loads(out)["dim"] == 0


def test_kan_and_hocolim(tmp_path, capsys):
    r = gen.rng_for(1)
    d1 = diagram.delta(1)
    x = gen.rand_complex(r, F2, d1, lo=0, hi=1, max_parts=1)
    u = diagram.functor_by_objects(d1, diagram.delta(2), {0: 0, 1: 2})
    xp, up = tmp_path / "x.json", tmp_path / "u.json"
    se.save(xp, x)
    se.save(up, u)
    code, _ = run(capsys, "kan", str(xp), "--dir", "left",
                  "--functor", str(up), "--out", str(tmp_path / "l.json"))
    assert code == 0
    assert isinstance(se.load(tmp_path / "l.json", field=F2), cx.Complex)
    code, _ = run(capsys, "hocolim", str(xp))
    assert code == 0


def base_change_inputs(tmp_path):
    d1 = diagram.delta(1)
    u = diagram.functor_by_objects(d1, diagram.square(),
                                   {0: (0, 0), 1: (1, 1)})
    x = gen.rand_complex(gen.rng_for(5), F2, d1, lo=0, hi=1, max_parts=1)
    xp, up = tmp_path / "x.json", tmp_path / "u.json"
    se.save(xp, x)
    se.save(up, u)
    return str(xp), str(up)


def test_base_change_reads_tuple_object(tmp_path, capsys):
    xp, up = base_change_inputs(tmp_path)
    assert se.dec_label([1, 1]) == (1, 1)
    code, out = run(capsys, "--json", "base-change", xp, "--functor", up,
                    "--at", "[1, 1]")
    assert code == 0
    assert json.loads(out)["lines"] == [
        "base change (right) at (1, 1): invertible"]


def test_base_change_rejects_object_outside_target(tmp_path, capsys):
    xp, up = base_change_inputs(tmp_path)
    code = cli.main(["base-change", xp, "--functor", up, "--at", "[2, 2]"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_square_check_and_triangle(tmp_path, capsys):
    p = tmp_path / "sq.json"
    se.save(p, nonsplit_square_complex())
    code, out = run(capsys, "--json", "square-check", str(p))
    rep = json.loads(out)
    assert code == 0 and rep["cocartesian"] and rep["cartesian"]
    code, out = run(capsys, "--json", "triangle", str(p))
    rep = json.loads(out)
    assert code == 0 and rep["matches"]
    assert rep["delta_class"] == ["1"]


def test_suspend_and_recollement(tmp_path, capsys):
    r = gen.rng_for(2)
    d1 = diagram.delta(1)
    xp = tmp_path / "x.json"
    se.save(xp, gen.rand_complex(r, F2, d1, max_parts=1))
    code, _ = run(capsys, "suspend", str(xp))
    assert code == 0
    prod = diagram.product(d1, diagram.delta(1))
    yp = tmp_path / "y.json"
    se.save(yp, gen.rand_stalkish_complex(r, F2, prod, max_parts=1))
    code, _ = run(capsys, "recollement", str(yp))
    assert code == 0


@pytest.mark.parametrize("command", ["dia", "square-check", "triangle",
                                     "recollement", "hom-compare", "extend"])
def test_wrong_shape_is_input_error(tmp_path, capsys, command):
    # Δ2 is no product at all; Δ2 × Δ2 is one, but neither over the square
    # nor over Δ1; Δ1 × Δ1 is one, but not over the point
    d1, d2 = diagram.delta(1), diagram.delta(2)
    shapes = [d2] if command in ("dia", "hom-compare") else \
        [d2, diagram.product(d1, d1)] if command == "extend" else \
        [d2, diagram.product(d2, d2)]
    for k, shape in enumerate(shapes):
        p = str(tmp_path / ("x%d.json" % k))
        se.save(p, cx.stalk(simple(F2, shape, shape.objects[0])))
        argv = ["--source", p, "--target", p] if command == "hom-compare" \
            else [p, "--kernel", p] if command == "extend" else [p]
        code = cli.main([command] + argv)
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: shape must factor as ")


def test_dia_then_lift_roundtrip(tmp_path, capsys):
    r = gen.rng_for(3)
    x = gen.rand_honest(r, F2, diagram.delta(1), diagram.delta(1),
                        max_parts=1)
    xp, dp = tmp_path / "x.json", tmp_path / "d.json"
    se.save(xp, x)
    code, _ = run(capsys, "dia", str(xp), "--out", str(dp))
    assert code == 0
    code, out = run(capsys, "--json", "lift", str(dp),
                    "--out", str(tmp_path / "lift.json"))
    assert code == 0
    assert isinstance(se.load(tmp_path / "lift.json", field=F2), cx.Complex)


def test_hom_compare_command(tmp_path, capsys):
    r = gen.rng_for(4)
    prod = diagram.product(diagram.delta(1), diagram.delta(1))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    se.save(a, gen.rand_stalkish_complex(r, F2, prod, max_parts=1))
    se.save(b, gen.rand_stalkish_complex(r, F2, prod, max_parts=1))
    code, out = run(capsys, "--json", "hom-compare", "--source", str(a),
                    "--target", str(b))
    assert code == 0
    rep = json.loads(out)
    assert rep["coherent_dim"] == rep["incoherent_dim"]


def test_verify_small(capsys):
    code, out = run(capsys, "--json", "verify", "--suite", "adjunction",
                    "--seed", "5", "--cases", "3")
    rep = json.loads(out)
    assert code == 0 and rep["passed"] == 3 and not rep["failures"]


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_rejects_nonpositive_cases(capsys, cases):
    code = cli.main(["verify", "--suite", "der7", "--cases", cases])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "--cases: %s is not a positive count" % cases in out.err


def test_extension_exactness_runs_over_q(capsys):
    code, out = run(capsys, "--field", "q", "--json", "verify", "--suite",
                    "extension-exactness", "--seed", "0", "--cases", "4")
    rep = json.loads(out)
    assert code == 0 and rep["passed"] == 4 and not rep["failures"]


@pytest.mark.parametrize("field", [F5, Field("rationals")], ids=("F5", "Q"))
def test_extended_squares_pass_every_bicartesian_route(monkeypatch, field):
    """extension-exactness decides its square by the total cofiber alone;
    on the squares it draws, both Kan routes agree with that verdict."""
    from dercat import derivator as dv
    decide, squares = dv.is_bicartesian, []
    monkeypatch.setattr(dv, "is_bicartesian",
                        lambda s: squares.append(s) or decide(s))
    r = gen.rng_for(31)
    for _ in range(10):
        assert cli._suite_extension_exactness(r, field)[0]
    assert len(squares) == 10
    for s in squares:
        assert decide(s) and dv.is_cocartesian(s)[0] and dv.is_cartesian(s)[0]


def test_extension_exactness_fails_on_the_total_cofiber_verdict(monkeypatch):
    from dercat import derivator as dv

    def kan_route(s):
        raise AssertionError("the suite took a Kan route")
    monkeypatch.setattr(dv, "is_bicartesian", lambda s: False)
    monkeypatch.setattr(dv, "is_cocartesian", kan_route)
    monkeypatch.setattr(dv, "is_cartesian", kan_route)
    ok, detail, witness = cli._suite_extension_exactness(gen.rng_for(7), F5)
    assert (ok, detail) == (False, "extended square is not bicartesian")
    assert isinstance(witness, cx.Complex)
    assert witness.shape.product_of == (diagram.square(),
                                        diagram.terminal_cat())


def _memos():
    """Every lru_cache of the package, by name."""
    out = {}
    for name in ("linalg", "diagram", "presheaf", "complexes", "derivator",
                 "coherence", "serialize", "generators", "cli"):
        mod = importlib.import_module("dercat." + name)
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)]:
            for attr, v in vars(owner).items():
                v = getattr(v, "__func__", v)
                if hasattr(v, "cache_info"):
                    out["%s.%s" % (name, attr)] = v
    return out


def test_memos_stay_bounded_over_der7(capsys):
    code, _ = run(capsys, "--field", "q", "verify", "--suite", "der7",
                  "--seed", "0", "--cases", "300")
    assert code == 0
    memos = _memos()
    # every memo has a fixed bound, and the resolutions, lifts and
    # opposites are memos too
    unbounded = {name for name, m in memos.items()
                 if m.cache_info().maxsize is None}
    assert unbounded == set()
    for name in ("linalg.zeros", "presheaf.zero_presheaf",
                 "presheaf.zero_map", "presheaf.free_at", "presheaf.free_sum",
                 "diagram.product", "diagram.times_base",
                 "diagram.square", "diagram.opposite",
                 "complexes.proj_resolution", "presheaf.hom_basis"):
        assert memos[name].cache_info().hits > 0, name
    assert "coherence._lift_data" in memos
    for name, m in memos.items():
        info = m.cache_info()
        assert info.currsize <= info.maxsize, name


def test_verify_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    witness = cx.stalk(simple(F2, diagram.delta(1), 0))

    def bad_suite(r, field):
        return False, "synthetic failure", witness

    monkeypatch.setitem(cli.SUITES, "der7", bad_suite)
    code, out = run(capsys, "verify", "--suite", "der7", "--cases", "2")
    assert code == 1
    path = tmp_path / "counterexample-der7-0.json"
    assert path.exists()
    assert se.load(path, field=F2) == witness


def scripted_suite(outcomes):
    """A suite whose k-th case returns outcomes[k], or raises it when it is
    an exception."""
    cases = iter(outcomes)

    def suite(r, field):
        out = next(cases)
        if isinstance(out, Exception):
            raise out
        return out
    return suite


def test_verify_reports_an_error_and_goes_on(tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    ok, fail = (True, None, None), (False, "synthetic failure", None)
    boom = RuntimeError("broken\nat case one")
    error_line = "case 1: ERROR (RuntimeError: broken at case one)"
    monkeypatch.setitem(cli.SUITES, "der7", scripted_suite([ok, boom, ok]))
    code, out = run(capsys, "--json", "verify", "--suite", "der7",
                    "--seed", "4", "--cases", "3")
    rep = json.loads(out)
    assert code == cli.EXIT_INTERNAL
    assert rep["passed"] == 2 and rep["failures"] == []
    assert rep["errors"] == [{"case": 1, "seed": 4,
                              "error": "RuntimeError: broken at case one"}]
    assert rep["lines"][1:] == [error_line]
    # a failure beside an error still exits 3; a failure alone exits 1 and
    # its report has no errors entry
    monkeypatch.setitem(cli.SUITES, "der7", scripted_suite([fail, boom, ok]))
    code, out = run(capsys, "verify", "--suite", "der7", "--cases", "3")
    assert code == cli.EXIT_INTERNAL
    assert out.splitlines()[1:] == ["case 0: FAIL (synthetic failure)",
                                    error_line]
    monkeypatch.setitem(cli.SUITES, "der7", scripted_suite([fail, ok, ok]))
    code, out = run(capsys, "--json", "verify", "--suite", "der7",
                    "--cases", "3")
    assert code == cli.EXIT_FAIL and "errors" not in json.loads(out)


@pytest.mark.parametrize("exc", [
    AssertionError("invariant broken\nat degree 2"),
    RecursionError("maximum recursion depth")])
def test_internal_error_exits_3_on_one_line(tmp_path, capsys, monkeypatch,
                                            exc):
    def broken(args, field):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "check-diagram", broken)
    p = tmp_path / "c.json"
    se.save(p, diagram.delta(1))
    assert cli.main(["check-diagram", str(p)]) == cli.EXIT_INTERNAL == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err == "internal error: %s: %s\n" % (
        type(exc).__name__, " ".join(str(exc).split()))


def test_bad_arguments_exit_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["--field", "fp:9", "verify", "--suite", "der7",
                     "--cases", "1"]) == 2


def small_incoherent(tmp_path):
    r = gen.rng_for(3)
    d = co.dia(gen.rand_honest(r, F2, diagram.delta(1), diagram.delta(1),
                               max_parts=1))
    dp = tmp_path / "d.json"
    se.save(dp, d)
    return d, dp


def test_lift_map_writes_morphism_file(tmp_path, capsys):
    d, dp = small_incoherent(tmp_path)
    mp, outp = tmp_path / "m.json", tmp_path / "out.json"
    se.save(mp, {i: cx.identity_chain_map(d.value(i))
                 for i in d.shape.objects})
    code, _ = run(capsys, "lift-map", "--source", str(dp), "--target",
                  str(dp), "--map", str(mp), "--out", str(outp))
    assert code == 0
    phi = se.load_morphism(outp, d, d)
    assert set(phi) == set(d.shape.objects)


@pytest.mark.parametrize("bad", [[], {"kind": "morphism",
                                      "components": [[0]]}])
def test_lift_map_rejects_malformed_morphism_file(tmp_path, capsys, bad):
    _, dp = small_incoherent(tmp_path)
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(bad))
    code = cli.main(["lift-map", "--source", str(dp), "--target", str(dp),
                     "--map", str(mp)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def _repeat_inputs(tmp_path):
    """Files for kan, lift, resolve and lift-map, each read back by its
    command with exit 0: a Δ1 → Δ2 functor, incoherent diagrams over Δ2
    (it has witness rows) and over Δ1 with a morphism file, and a
    two-term complex over Δ1."""
    d1, d2 = diagram.delta(1), diagram.delta(2)
    p0, p1 = ps.free_at(F2, d1, 1, 0), ps.free_at(F2, d1, 1, 1)
    x = cx.Complex(F2, d1, {0: p1, 1: p0},
                   {0: ps.free_map_to(p1, p0, [Matrix.identity(F2, 1)])})
    se.save(tmp_path / "x.json", x)
    se.save(tmp_path / "u.json", diagram.functor_by_objects(d1, d2,
                                                            {0: 1, 1: 2}))
    d, dp = small_incoherent(tmp_path)
    se.save(tmp_path / "m.json", {i: cx.identity_chain_map(d.value(i))
                                  for i in d.shape.objects})
    se.save(tmp_path / "d2.json", co.dia(gen.rand_honest(
        gen.rng_for(35), F2, d2, d1, max_parts=1)))
    return {"kan": ["kan", "x.json", "--dir", "left", "--functor",
                    "u.json"],
            "lift": ["lift", "d2.json"],
            "resolve": ["resolve", "x.json"],
            "lift-map": ["lift-map", "--source", "d.json", "--target",
                         "d.json", "--map", "m.json"]}


def _last_value_body(doc):
    return doc["values"][-1][1]


REPEATED_ROWS = [
    # (command, file, edit, what the error names); each edit puts a row
    # for a key that the file lists again later, so a decoder keeping the
    # last row would read the file as it was
    ("kan", "u.json", lambda doc: doc["objects"].insert(0, [0, 0]),
     "object image at 0 listed twice"),
    ("kan", "u.json", lambda doc: doc["arrows"].insert(0, ["id@0", "2>1"]),
     "arrow image at 'id@0' listed twice"),
    ("resolve", "x.json",
     lambda doc: doc["terms"][0][1]["dims"].insert(0, [0, 2]),
     "dimension at 0 listed twice"),
    ("resolve", "x.json",
     lambda doc: doc["terms"].insert(0, [1, doc["terms"][0][1]]),
     "term at 1 listed twice"),
    ("resolve", "x.json", lambda doc: doc["diffs"].insert(0, [0, [
        [0, {"rows": 1, "cols": 0, "entries": [[]]}],
        [1, {"rows": 1, "cols": 1, "entries": [["0"]]}]]]),
     "differential at 0 listed twice"),
    ("resolve", "x.json",
     lambda doc: doc["diffs"][0][1].insert(0, [1, {
         "rows": 1, "cols": 1, "entries": [["0"]]}]),
     "component at 1 listed twice"),
    ("lift-map", "m.json",
     lambda doc: doc["components"].insert(0, doc["components"][-1]),
     "morphism component at 1 listed twice"),
    ("lift-map", "m.json",
     lambda doc: doc["components"][-1][1].insert(
         0, doc["components"][-1][1][0]),
     "chain map component at 0 listed twice"),
    ("lift-map", "d.json",
     lambda doc: _last_value_body(doc)["terms"].insert(
         0, _last_value_body(doc)["terms"][0]),
     "term at 0 listed twice"),
    ("lift", "d2.json",
     lambda doc: doc["witnesses"].append(doc["witnesses"][0]),
     "witness at"),
]


@pytest.mark.parametrize("command, name, edit, says", REPEATED_ROWS,
                         ids=["functor-object", "functor-arrow",
                              "presheaf-dims", "complex-term", "complex-diff",
                              "map-component", "morphism-component",
                              "chain-map-component", "incoherent-value-term",
                              "witness"])
def test_a_repeated_row_is_input_error(tmp_path, capsys, monkeypatch,
                                       command, name, edit, says):
    # a file that gives one key twice is refused whichever row comes
    # first; keeping the last would drop the other unchecked
    monkeypatch.chdir(tmp_path)
    argv = _repeat_inputs(tmp_path)[command]
    assert cli.main(argv) == 0
    capsys.readouterr()
    path = tmp_path / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert says in out.err


@pytest.mark.parametrize("modulus, code", [
    (2 ** 61 - 1, 0),
    ((2 ** 31 - 1) * (2 ** 61 - 1), 2),
])
def test_large_modulus_answers_quickly(tmp_path, modulus, code):
    p = tmp_path / "d.json"
    se.save(p, diagram.delta(1))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    # the check itself must take well under a second; the rest of the
    # budget is interpreter start-up
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "from dercat.linalg import Field; Field('prime', %d)" % modulus],
        env=env, capture_output=True, timeout=5)
    assert time.perf_counter() - t0 < 1
    assert (proc.returncode == 0) == (code == 0)
    proc = subprocess.run(
        [sys.executable, "-m", "dercat.cli", "--field", "fp:%d" % modulus,
         "check-diagram", str(p)], env=env, capture_output=True, timeout=30)
    assert proc.returncode == code
    if code:
        assert proc.stderr.decode().startswith("error:")


def test_zero_denominator_is_input_error(tmp_path):
    qq = Field("rationals")
    p = tmp_path / "p.json"
    se.save(p, ps.free_at(qq, diagram.delta(1), 1, 0))
    doc = json.loads(p.read_text())
    doc["action"][0][1]["entries"][0][0] = "1/0"
    p.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "dercat.cli", "--field", "q",
         "check-presheaf", str(p)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=30)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert err.startswith("error: bad presheaf: bad matrix:") and \
        err.count("\n") == 1


def test_false_free_claim_is_input_error(tmp_path):
    # S_0 over Δ1 is not free; claimed free, its resolution and its hom
    # spaces would be read off the claim and Ext^1(S_0, S_1) = 1 lost
    d1 = diagram.delta(1)
    a, b, bad = (tmp_path / n for n in ("s0.json", "s1.json", "bad.json"))
    se.save(a, cx.stalk(simple(F2, d1, 0)))
    se.save(b, cx.stalk(simple(F2, d1, 1)))
    doc = json.loads(a.read_text())
    doc["terms"][0][1]["free"] = [[1, 0]]
    bad.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for source, code, out in ((a, 0, "dim Ext^1 = 1\n"), (bad, 2, "")):
        proc = subprocess.run(
            [sys.executable, "-m", "dercat.cli", "ext", "--source",
             str(source), "--target", str(b), "--n", "1"],
            env=env, capture_output=True, timeout=30)
        err = proc.stderr.decode()
        assert proc.returncode == code and proc.stdout.decode() == out
        assert "Traceback" not in err
        assert err == "" if code == 0 else \
            err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("edit, free, message", [
    (lambda action, m: action.append(["zz", m]), False,
     "action at 'zz' names no non-identity arrow"),
    (lambda action, m: action.append(["id@0", m]), False,
     "action at 'id@0' names no non-identity arrow"),
    (lambda action, m: action.append(["zz", m]), True,
     "action at 'zz' names no non-identity arrow"),
    (lambda action, m: action.append(action[0]), False,
     "action at '1>0' listed twice"),
    (lambda action, m: action.append(["1>0", m]), False,
     "action at '1>0' listed twice"),
], ids=["stray", "identity", "stray with free parts", "repeat",
        "repeat with another matrix"])
def test_action_entries_must_name_each_non_identity_arrow_once(
        tmp_path, capsys, edit, free, message):
    # free_at(F5, Δ2, 1, 0) with its action list edited: an entry that
    # names no non-identity arrow, or one already listed, is bad input
    p = tmp_path / "f.json"
    se.save(p, ps.free_at(F5, diagram.delta(2), 1, 0))
    doc = json.loads(p.read_text())
    edit(doc["action"], {"rows": 1, "cols": 1, "entries": [["3"]]})
    if not free:
        del doc["free"]
    p.write_text(json.dumps(doc))
    code = cli.main(["--field", "fp:5", "check-presheaf", str(p)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: presheaf does not validate: %s\n" % message


def test_complex_with_nonzero_d_squared_is_input_error(tmp_path):
    # k → k → k over the point with both differentials 1: d∘d = 1 ≠ 0
    e = diagram.terminal_cat()
    k = ps.free_at(F2, e, 1, e.objects[0])
    one = ps.identity_map(k)
    p = tmp_path / "dd.json"
    se.save(p, cx.Complex(F2, e, {0: k, 1: k, 2: k}, {0: one, 1: one}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["resolve", str(p)],
                 ["ext", "--source", str(p), "--target", str(p)]):
        proc = subprocess.run([sys.executable, "-m", "dercat.cli"] + argv,
                              env=env, capture_output=True, timeout=30)
        err = proc.stderr.decode()
        assert proc.returncode == 2 and proc.stdout.decode() == ""
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1


def _cli(argv):
    """Run python -m dercat.cli in a fresh process; returns (code, out, err)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-m", "dercat.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=60)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_unwritable_out_is_input_error(tmp_path):
    p = tmp_path / "c.json"
    se.save(p, cx.stalk(simple(F2, diagram.delta(1), 0)))
    out = tmp_path / "no-such-dir" / "x.json"
    code, stdout, err = _cli(["resolve", str(p), "--out", str(out)])
    assert code == 2 and stdout == ""
    assert "Traceback" not in err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_incoherent_values_off_the_index_are_input_error(tmp_path):
    # an index without objects and one value at an object it does not have
    _, dp = small_incoherent(tmp_path)
    doc = json.loads(dp.read_text())
    doc["index"] = se.encode(diagram.FinCat([], {}, {}, {}))
    doc["values"] = doc["values"][:1]
    doc["maps"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, stdout, err = _cli(["lift", str(bad)])
    assert code == 2 and stdout == ""
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("edit", ["drop value", "repeat value", "drop map",
                                  "stray map"])
def test_incoherent_keys_must_match_the_index(tmp_path, capsys, edit):
    _, dp = small_incoherent(tmp_path)
    doc = json.loads(dp.read_text())
    if edit == "drop value":
        doc["values"] = doc["values"][1:]
    elif edit == "repeat value":
        doc["values"] = doc["values"] + doc["values"][:1]
    elif edit == "drop map":
        doc["maps"] = []
    else:
        doc["maps"] = doc["maps"] + [["nowhere", doc["maps"][0][1]]]
    dp.write_text(json.dumps(doc))
    assert cli.main(["lift", str(dp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


BASE_LAYERS = {"cli", "serialize", "presheaf", "diagram", "linalg"}
COMPLEX_LAYERS = BASE_LAYERS | {"complexes"}
DERIVATOR_LAYERS = COMPLEX_LAYERS | {"derivator"}
COHERENCE_LAYERS = DERIVATOR_LAYERS | {"coherence"}


@pytest.fixture(scope="module")
def layer_inputs(tmp_path_factory):
    """Small saved inputs for one run of each command below."""
    d = tmp_path_factory.mktemp("layers")
    r = gen.rng_for(5)
    d1 = diagram.delta(1)
    u = gen.rand_functor(r, 4)
    values = {
        "p": gen.rand_presheaf(r, F2, d1),
        "s0": cx.stalk(simple(F2, d1, 0)),
        "s1": cx.stalk(simple(F2, d1, 1)),
        "sq": nonsplit_square_complex(),
        "u": u,
        "x": gen.rand_complex(r, F2, u.source, lo=0, hi=1, max_parts=1),
        "d": gen.rand_incoherent(r, F2, d1, d1, 1)}
    for name, value in values.items():
        se.save(d / (name + ".json"), value)
    return d


LAYER_RUNS = [
    (["check-presheaf", "p.json"], BASE_LAYERS),
    (["resolve", "s0.json", "--out", "out.json"], COMPLEX_LAYERS),
    (["ext", "--source", "s0.json", "--target", "s1.json", "--n", "1"],
     COMPLEX_LAYERS),
    (["triangle", "sq.json"], DERIVATOR_LAYERS),
    (["kan", "x.json", "--dir", "left", "--functor", "u.json",
      "--out", "out.json"], DERIVATOR_LAYERS),
    (["lift", "d.json", "--out", "out.json"], COHERENCE_LAYERS),
    # generators loads coherence only to draw an incoherent diagram
    (["verify", "--suite", "der7", "--cases", "1"],
     DERIVATOR_LAYERS | {"generators"}),
]


@pytest.mark.parametrize("argv, layers", LAYER_RUNS,
                         ids=[argv[0] for argv, _ in LAYER_RUNS])
def test_each_command_imports_only_its_layers(layer_inputs, argv, layers):
    # a fresh interpreter, so that only the command's own imports load
    probe = ("import sys\n"
             "from dercat import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(' '.join(sorted(m[7:] for m in sys.modules\n"
             "                      if m.startswith('dercat.'))))\n"
             "sys.exit(code)\n")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    proc = subprocess.run([sys.executable, "-c", probe] + argv,
                          cwd=layer_inputs,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(proc.stdout.decode().splitlines()[-1].split())
    assert loaded == layers


@pytest.mark.parametrize("row, replace, says", [
    (["zz", "yy", "2>0"], True, "names no composite"),
    (["2>1", "id@0", "2>0"], True, "names no composite"),
    (["1>0", "id@1", "2>0"], True, "names no composite"),
    (["1>0", "2>1", "2>1"], False, "listed twice")],
    ids=["unknown", "not-composable", "identity", "repeated"])
def test_a_junk_compose_row_is_input_error(tmp_path, capsys, row, replace,
                                           says):
    obj = se.encode(diagram.delta(2))
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check-diagram", str(path)]) == 0
    # the row goes first, replacing or keeping the row for its pair
    obj["compose"] = [row] + [old for old in obj["compose"]
                              if not (replace and old[:2] == row[:2])]
    path.write_text(json.dumps(obj))
    assert cli.main(["check-diagram", str(path)]) == 2
    assert says in capsys.readouterr().err
