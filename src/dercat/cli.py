"""Batch front end: load values from JSON files, run the library
operations on them, and run seeded verification suites.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on input
errors, 3 on an internal error (any other exception, reported on one
line).  Every command honors --json for machine-readable reports; all
reports are deterministic functions of (inputs, seed, flags), except the
elapsed seconds on verify's summary line.

Each command imports only the layers it runs, inside its own function:
check-diagram and check-presheaf stop at presheaf, resolve and ext add
complexes, kan, holim, hocolim, base-change, square-check, triangle,
recollement and suspend add derivator, dia, lift, lift-map, hom-compare
and extend add coherence, and only verify imports generators.  Without a
bytecode cache (PYTHONDONTWRITEBYTECODE=1) every launch compiles the
modules it imports, so start-up cost depends on the command.
"""

import argparse
import json
import sys
import time

from . import diagram
from . import presheaf as ps
from . import serialize as se

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(path, field, want=None):
    value = se.load(path, field=field)
    if want is not None and not isinstance(value, want):
        raise se.FormatError("%s: expected a %s file" % (path, want.__name__))
    return value


def _load_product(path, field, name, first=None, second=None):
    """Load a complex whose shape factors as a product, with the given
    factors where they are given; any other shape is bad input."""
    from . import complexes as cx
    x = _load(path, field, cx.Complex)
    factors = x.shape.product_of
    if factors is None or (first is not None and factors[0] != first) or \
            (second is not None and factors[1] != second):
        raise se.FormatError("shape must factor as %s" % name)
    return x


def _dims_by_degree(x):
    return {p: x.term(p).total_dim() for p in x.degrees()}


def _save_out(args, value, lines):
    """Write value to --out when it is given, and say so in the report."""
    if args.out:
        se.save(args.out, value)
        lines.append("written to %s" % args.out)


def _one_line(e):
    """'<Type>: <message>' of an exception, its whitespace collapsed."""
    return "%s: %s" % (type(e).__name__, " ".join(str(e).split()))


def _emit(report, as_json):
    if as_json:
        sys.stdout.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    else:
        for line in report.get("lines", ()):
            sys.stdout.write(line + "\n")


# --- single-value commands ---------------------------------------------------


def cmd_check_diagram(args, field):
    cat = _load(args.file, None, diagram.FinCat)
    lines = ["ok: %d objects, %d non-identity arrows, acyclic, "
             "max chain length %d"
             % (len(cat.objects), len(cat.nonidentity_arrows()),
                diagram.max_chain_length(cat))]
    return EXIT_OK, {"ok": True, "objects": len(cat.objects),
                     "arrows": len(cat.nonidentity_arrows()),
                     "max_chain_length": diagram.max_chain_length(cat),
                     "lines": lines}


def cmd_check_presheaf(args, field):
    f = _load(args.file, field, ps.Presheaf)
    dims = {str(x): f.dims[x] for x in f.shape.objects}
    lines = ["ok: total dimension %d over %d objects%s"
             % (f.total_dim(), len(f.shape.objects),
                ", recorded free" if f.free_parts is not None else "")]
    return EXIT_OK, {"ok": True, "dims": dims, "total_dim": f.total_dim(),
                     "free": f.free_parts is not None, "lines": lines}


def cmd_resolve(args, field):
    from . import complexes as cx
    x = _load(args.file, field, cx.Complex)
    p, rho = cx.proj_resolution(x)
    ok = cx.is_quasi_iso(rho)
    bound = x.lo - diagram.max_chain_length(x.shape)
    lines = ["resolution degrees [%d, %d] (bound %d), dims %r, %s"
             % (p.lo, p.hi, bound, _dims_by_degree(p),
                "quasi-iso verified" if ok else "NOT a quasi-iso")]
    _save_out(args, p, lines)
    code = EXIT_OK if ok and p.lo >= bound else EXIT_FAIL
    return code, {"ok": code == EXIT_OK, "lo": p.lo, "hi": p.hi,
                  "dims": {str(k): v for k, v in _dims_by_degree(p).items()},
                  "lines": lines}


def cmd_ext(args, field):
    from . import complexes as cx
    x = _load(args.source, field, cx.Complex)
    y = _load(args.target, field, cx.Complex)
    dim, _ = cx.ext(x, y, args.n)
    return EXIT_OK, {"dim": dim, "n": args.n,
                     "lines": ["dim Ext^%d = %d" % (args.n, dim)]}


def cmd_kan(args, field):
    from . import complexes as cx, derivator as dv
    x = _load(args.file, field, cx.Complex)
    u = _load(args.functor, None, diagram.DiagFunctor)
    out, _ = (dv.lan if args.dir == "left" else dv.ran)(u, x)
    lines = ["%s Kan extension: degrees [%d, %d], dims %r"
             % (args.dir, out.lo, out.hi, _dims_by_degree(out))]
    _save_out(args, out, lines)
    return EXIT_OK, {"dir": args.dir, "lo": out.lo, "hi": out.hi,
                     "dims": {str(k): v for k, v in _dims_by_degree(out).items()},
                     "lines": lines}


def _holim_common(args, field, which):
    from . import complexes as cx, derivator as dv
    x = _load(args.file, field, cx.Complex)
    out = (dv.hocolim if which == "hocolim" else dv.holim)(x.shape, x)
    lines = ["%s: degrees [%d, %d], dims %r"
             % (which, out.lo, out.hi, _dims_by_degree(out))]
    _save_out(args, out, lines)
    return EXIT_OK, {"lo": out.lo, "hi": out.hi,
                     "dims": {str(k): v for k, v in _dims_by_degree(out).items()},
                     "lines": lines}


def cmd_holim(args, field):
    return _holim_common(args, field, "holim")


def cmd_hocolim(args, field):
    return _holim_common(args, field, "hocolim")


def cmd_base_change(args, field):
    from . import complexes as cx, derivator as dv
    x = _load(args.file, field, cx.Complex)
    u = _load(args.functor, None, diagram.DiagFunctor)
    try:
        y = se.dec_label(json.loads(args.at))
    except json.JSONDecodeError:
        y = args.at
    if y not in u.target.objects:
        raise se.FormatError("object %r not in the functor's target" % (y,))
    _, ok = (dv.base_change_left if args.dir == "left"
             else dv.base_change)(u, y, x)
    lines = ["base change (%s) at %r: %s"
             % (args.dir, y, "invertible" if ok else "NOT invertible")]
    return (EXIT_OK if ok else EXIT_FAIL), {"ok": ok, "lines": lines}


def cmd_square_check(args, field):
    from . import derivator as dv
    x = _load_product(args.file, field, "□ × J", first=diagram.square())
    s = dv.square_over(x)
    co_ok, _ = dv.is_cocartesian(s)
    ca_ok, _ = dv.is_cartesian(s)
    lines = ["cocartesian: %s, cartesian: %s" % (co_ok, ca_ok)]
    code = EXIT_OK if co_ok == ca_ok else EXIT_FAIL
    return code, {"cocartesian": co_ok, "cartesian": ca_ok, "lines": lines}


def cmd_triangle(args, field):
    from . import derivator as dv
    x = _load_product(args.file, field, "□ × J", first=diagram.square())
    f = x.field
    tri = dv.standard_triangle(dv.square_over(x))
    delta = [f.show(c) for c in tri.delta_class]
    cone = [f.show(c) for c in tri.cone_class]
    lines = ["delta class %r, cone class %r: %s"
             % (delta, cone, "match" if tri.matches_cone else "MISMATCH")]
    code = EXIT_OK if tri.matches_cone else EXIT_FAIL
    return code, {"delta_class": delta, "cone_class": cone,
                  "matches": tri.matches_cone, "lines": lines}


def cmd_recollement(args, field):
    from . import derivator as dv
    x = _load_product(args.file, field, "I × Δ1", second=diagram.delta(1))
    rec, _, _ = dv.product_recollement(x.shape.product_of[0])
    rec.glue_triangles(x)
    lines = ["both recollement triangles verified "
             "(cone identification and degreewise exactness)"]
    return EXIT_OK, {"ok": True, "lines": lines}


def cmd_suspend(args, field):
    from . import complexes as cx, derivator as dv
    x = _load(args.file, field, cx.Complex)
    out, witness = dv.suspension_via_recollement(x)
    ok = cx.is_quasi_iso(witness)
    lines = ["suspension degrees [%d, %d]; witness onto shift(x, 1): %s"
             % (out.lo, out.hi, "quasi-iso" if ok else "NOT a quasi-iso")]
    _save_out(args, out, lines)
    return (EXIT_OK if ok else EXIT_FAIL), {"ok": ok, "lines": lines}


def cmd_dia(args, field):
    from . import coherence as co
    x = _load_product(args.file, field, "I × J")
    d = co.dia(x)
    lines = ["underlying diagram over %d objects, %d maps, witnesses recorded"
             % (len(d.shape.objects), len(d.maps))]
    _save_out(args, d, lines)
    return EXIT_OK, {"objects": len(d.shape.objects), "maps": len(d.maps),
                     "lines": lines}


def cmd_lift(args, field):
    from . import coherence as co
    d = _load(args.file, field, co.IncoherentDiagram)
    lift, cert = co.lift_object(d)
    ok = cert.verify()
    lines = ["lift degrees [%d, %d], certificate %s"
             % (lift.lo, lift.hi, "verified" if ok else "FAILED")]
    _save_out(args, lift, lines)
    return (EXIT_OK if ok else EXIT_FAIL), {"ok": ok, "lo": lift.lo,
                                            "hi": lift.hi, "lines": lines}


def cmd_lift_map(args, field):
    from . import derivator as dv, coherence as co
    f = _load(args.source, field, co.IncoherentDiagram)
    g = _load(args.target, field, co.IncoherentDiagram)
    phi = se.load_morphism(args.map, f, g)
    m, wit = co.lift_morphism(f, g, phi)
    lines = ["morphism lifted; %d per-object homotopy witnesses verified"
             % len(wit)]
    _save_out(args, {o: dv.point_restriction(m, o)
                     for o in f.shape.objects}, lines)
    return EXIT_OK, {"ok": True, "lines": lines}


def cmd_hom_compare(args, field):
    from . import coherence as co
    x = _load_product(args.source, field, "I × J")
    z = _load_product(args.target, field, "I × J")
    rep = co.hom_compare(x, z)
    lines = ["coherent dim %d, incoherent dim %d, canonical map %s"
             % (rep.coherent_dim, rep.incoherent_dim,
                "bijective" if rep.bijective else "NOT bijective")]
    code = EXIT_OK if rep.passes else EXIT_FAIL
    return code, {"coherent_dim": rep.coherent_dim,
                  "incoherent_dim": rep.incoherent_dim,
                  "bijective": rep.bijective, "lines": lines}


def cmd_extend(args, field):
    from . import complexes as cx, coherence as co
    x = _load(args.file, field, cx.Complex)
    kernel = _load(args.kernel, field, cx.Complex)
    try:
        out, cert = co.extend_functor(kernel, x)
    except co.NotOverPointError:
        raise se.FormatError("shape must factor as I × e") from None
    ok = cert.verify()
    lines = ["extension degrees [%d, %d], certificate %s"
             % (out.lo, out.hi, "verified" if ok else "FAILED")]
    _save_out(args, out, lines)
    return (EXIT_OK if ok else EXIT_FAIL), {"ok": ok, "lo": out.lo,
                                            "hi": out.hi, "lines": lines}


# --- verification suites -----------------------------------------------------


def _suite_exact_axioms(r, field):
    from . import generators as gen
    shape = gen.rand_poset(r, 5)
    conf = gen.rand_conflation(r, field, shape)
    if not ps.is_conflation(conf.inflation, conf.deflation):
        return False, "generated pair is not a conflation", conf.middle
    other = gen.rand_presheaf(r, field, shape)
    f = gen.rand_hom_element(r, field, conf.sub, other)
    _, i2, _ = ps.pushout(conf.inflation, f)
    if not i2.is_componentwise_injective():
        return False, "pushout of an inflation is not an inflation", conf.middle
    _, q2 = ps.cokernel(i2)
    if not ps.is_conflation(i2, q2):
        return False, "pushout inflation has no conflation", conf.middle
    g = gen.rand_hom_element(r, field, other, conf.quotient)
    _, p2, _ = ps.pullback(conf.deflation, g)
    if not p2.is_componentwise_surjective():
        return False, "pullback of a deflation is not a deflation", conf.middle
    _, k2 = ps.kernel(p2)
    if not ps.is_conflation(k2, p2):
        return False, "pullback deflation has no conflation", conf.middle
    return True, None, None


def _suite_resolution(r, field):
    from . import complexes as cx, generators as gen
    shape = gen.rand_poset(r, 5)
    f = gen.rand_presheaf(r, field, shape, 3)
    res = ps.resolve(f)
    n = diagram.max_chain_length(shape)
    if len(res.terms) > n + 1:
        return False, "resolution longer than the chain-length bound", f
    if res.kernels and not res.kernels[-1].is_zero():
        return False, "final kernel does not vanish", f
    x = cx.stalk(f)
    _, rho = cx.proj_resolution(x)
    if not cx.is_quasi_iso(rho):
        return False, "resolution map is not a quasi-iso", f
    return True, None, None


def _suite_adjunction(r, field):
    from . import complexes as cx, derivator as dv, generators as gen
    u = gen.rand_functor(r, 4)
    x = gen.rand_complex(r, field, u.source, lo=-1, hi=1, max_parts=1)
    y = gen.rand_complex(r, field, u.target, lo=-1, hi=1, max_parts=1)
    uy = cx.restrict_complex(u, y)
    l, _ = dv.lan(u, x)
    if cx.hom_dim(l, y) != cx.hom_dim(x, uy):
        return False, "left adjunction dimensions differ", x
    rr, _ = dv.ran(u, x)
    if cx.hom_dim(y, rr) != cx.hom_dim(uy, x):
        return False, "right adjunction dimensions differ", x
    return True, None, None


def _suite_der1(r, field):
    from . import complexes as cx, generators as gen
    cat, il, ir = diagram.disjoint_union(gen.rand_poset(r, 3),
                                         gen.rand_poset(r, 3))
    x = gen.rand_complex(r, field, cat, lo=-1, hi=1, max_parts=1)
    y = gen.rand_complex(r, field, cat, lo=-1, hi=1, max_parts=1)
    total = cx.hom_dim(x, y)
    split = cx.hom_dim(cx.restrict_complex(il, x), cx.restrict_complex(il, y)) \
        + cx.hom_dim(cx.restrict_complex(ir, x), cx.restrict_complex(ir, y))
    if total != split:
        return False, "hom does not decompose over the disjoint union", x
    return True, None, None


def _suite_der2(r, field):
    from . import complexes as cx, generators as gen
    shape = gen.rand_poset(r, 4)
    x = gen.rand_complex(r, field, shape, lo=-1, hi=1, max_parts=1)
    p, rho = cx.proj_resolution(x)
    for f in (rho, cx.zero_chain_map(p, x)):
        pointwise = all(
            cx.is_quasi_iso(cx.restrict_chain_map(
                diagram.point_inclusion(shape, o), f))
            for o in shape.objects)
        if cx.is_quasi_iso(f) != pointwise:
            return False, "pointwise and global verdicts disagree", x
    return True, None, None


def _suite_der4(r, field):
    from . import derivator as dv, generators as gen
    u = gen.rand_functor(r, 4)
    x = gen.rand_complex(r, field, u.source, lo=-1, hi=1, max_parts=1)
    y = r.choice(u.target.objects)
    _, ok_l = dv.base_change_left(u, y, x)
    if not ok_l:
        return False, "left base change not invertible at %r" % (y,), x
    _, ok_r = dv.base_change(u, y, x)
    if not ok_r:
        return False, "right base change not invertible at %r" % (y,), x
    return True, None, None


def _suite_der7(r, field):
    from . import derivator as dv, generators as gen
    base = gen.rand_poset(r, 2)
    prod = diagram.product(diagram.square(), base)
    x = gen.rand_complex(r, field, prod, lo=-1, hi=1, max_parts=1)
    s = dv.square_over(x)
    cocartesian = dv.is_cocartesian(s)[0]
    if cocartesian != dv.is_cartesian(s)[0]:
        return False, "cartesian and cocartesian verdicts disagree", x
    if cocartesian != dv.is_bicartesian(s):
        return False, "total-cofiber and cocartesian verdicts disagree", x
    return True, None, None


def _suite_shift_lemma(r, field):
    from . import complexes as cx, derivator as dv, generators as gen
    shape = gen.rand_poset(r, 4)
    x = gen.rand_complex(r, field, shape, lo=-1, hi=1, max_parts=1)
    _, witness = dv.suspension_via_recollement(x)
    if not cx.is_quasi_iso(witness):
        return False, "suspension does not match the shift", x
    return True, None, None


def _suite_lift_roundtrip(r, field):
    from . import complexes as cx, coherence as co, generators as gen
    icat = gen.rand_poset(r, 3)
    base = gen.rand_poset(r, 2)
    d = gen.rand_incoherent(r, field, icat, base, max_parts=1)
    _, cert = co.lift_object(d)
    if not cert.verify():
        return False, "lift certificate fails", d
    x = gen.rand_honest(r, field, icat, base, max_parts=1)
    _, cert2 = co.lift_object(co.dia(x))
    if not cert2.verify():
        return False, "round-trip certificate fails", co.dia(x)
    w = co.lift_comparison(x)
    if w is None or not cx.is_quasi_iso(w):
        return False, "round trip not quasi-isomorphic", co.dia(x)
    return True, None, None


def _suite_hom_bijection(r, field):
    from . import coherence as co, generators as gen
    icat = gen.rand_poset(r, 3)
    base = gen.rand_poset(r, 2)
    x = gen.rand_honest(r, field, icat, base, max_parts=1)
    z = gen.rand_honest(r, field, icat, base, max_parts=1)
    rep = co.hom_compare(x, z)
    if not rep.passes:
        return False, "hom comparison fails (%d vs %d)" \
            % (rep.coherent_dim, rep.incoherent_dim), x
    return True, None, None


def _suite_extension_exactness(r, field):
    from . import (complexes as cx, derivator as dv,
                   coherence as co, generators as gen)
    e = diagram.terminal_cat()
    conf = gen.rand_conflation(r, field, e, max_parts=1)
    sq = gen.conflation_square(conf, e)
    kernel = gen.rand_kernel(r, field, diagram.delta(1), max_parts=1)
    out, cert = co.extend_functor(kernel, sq.complex)
    if not cert.verify():
        return False, "extension certificate fails", sq.complex
    s2 = dv.square_over(out)
    if not dv.is_bicartesian(s2):
        return False, "extended square is not bicartesian", sq.complex
    d1 = diagram.delta(1)
    x = cx.over_point(gen.rand_stalkish_complex(r, field, d1, max_parts=1))
    rep = co.verify_extension_compat(diagram.point_inclusion(d1, 0), kernel, x)
    if not rep.passes:
        return False, "restriction does not commute with extension", x
    return True, None, None


SUITES = {
    "exact-axioms": _suite_exact_axioms,
    "resolution": _suite_resolution,
    "adjunction": _suite_adjunction,
    "der1": _suite_der1,
    "der2": _suite_der2,
    "der4": _suite_der4,
    "der7": _suite_der7,
    "shift-lemma": _suite_shift_lemma,
    "lift-roundtrip": _suite_lift_roundtrip,
    "hom-bijection": _suite_hom_bijection,
    "extension-exactness": _suite_extension_exactness,
}


def cmd_verify(args, field):
    """Run the suite's cases in turn.  A case that raises becomes an error
    entry, kept apart from the failures, and the run goes on; any error
    makes the exit code EXIT_INTERNAL, else any failure EXIT_FAIL."""
    from . import generators as gen
    fn = SUITES[args.suite]
    r = gen.rng_for(args.seed)
    failures, errors, case_lines = [], [], []
    t0 = time.perf_counter()
    for k in range(args.cases):
        try:
            ok, detail, witness = fn(r, field)
        except Exception as e:
            errors.append({"case": k, "seed": args.seed,
                           "error": _one_line(e)})
            case_lines.append("case %d: ERROR (%s)" % (k, errors[-1]["error"]))
            continue
        if ok:
            continue
        entry = {"case": k, "detail": detail}
        line = "case %d: FAIL (%s)" % (k, detail)
        if witness is not None:
            path = "counterexample-%s-%d.json" % (args.suite, k)
            try:
                se.save(path, witness)
                entry["counterexample"] = path
                line += "; counterexample written to %s" % path
            except se.FormatError:
                pass
        failures.append(entry)
        case_lines.append(line)
    elapsed = time.perf_counter() - t0
    passed = args.cases - len(failures) - len(errors)
    lines = ["suite %s: %d/%d passed (%.2fs, seed %d)"
             % (args.suite, passed, args.cases, elapsed, args.seed)]
    lines += case_lines
    report = {"suite": args.suite, "seed": args.seed, "cases": args.cases,
              "passed": passed, "failures": failures, "lines": lines}
    if errors:
        report["errors"] = errors
        return EXIT_INTERNAL, report
    return (EXIT_FAIL if failures else EXIT_OK), report


# --- argument parsing --------------------------------------------------------


COMMANDS = {
    "check-diagram": cmd_check_diagram,
    "check-presheaf": cmd_check_presheaf,
    "resolve": cmd_resolve,
    "ext": cmd_ext,
    "kan": cmd_kan,
    "holim": cmd_holim,
    "hocolim": cmd_hocolim,
    "base-change": cmd_base_change,
    "square-check": cmd_square_check,
    "triangle": cmd_triangle,
    "recollement": cmd_recollement,
    "suspend": cmd_suspend,
    "dia": cmd_dia,
    "lift": cmd_lift,
    "lift-map": cmd_lift_map,
    "hom-compare": cmd_hom_compare,
    "extend": cmd_extend,
    "verify": cmd_verify,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dercat",
        description="exact derived-category computations over finite "
                    "directed categories")
    parser.add_argument("--field", default="fp:2",
                        help="field tag: fp:<p> or q (default fp:2)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **files):
        p = sub.add_parser(name)
        for flag, kwargs in files.items():
            p.add_argument(flag, **kwargs)
        return p

    add("check-diagram", file={})
    add("check-presheaf", file={})
    add("resolve", file={}, **{"--out": {"default": None}})
    p = sub.add_parser("ext")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int, default=0)
    p = sub.add_parser("kan")
    p.add_argument("file")
    p.add_argument("--dir", choices=("left", "right"), required=True)
    p.add_argument("--functor", required=True)
    p.add_argument("--out", default=None)
    add("holim", file={}, **{"--out": {"default": None}})
    add("hocolim", file={}, **{"--out": {"default": None}})
    p = sub.add_parser("base-change")
    p.add_argument("file")
    p.add_argument("--functor", required=True)
    p.add_argument("--at", required=True,
                   help="object of the functor's target (JSON label)")
    p.add_argument("--dir", choices=("left", "right"), default="right")
    add("square-check", file={})
    add("triangle", file={})
    add("recollement", file={})
    add("suspend", file={}, **{"--out": {"default": None}})
    add("dia", file={}, **{"--out": {"default": None}})
    add("lift", file={}, **{"--out": {"default": None}})
    p = sub.add_parser("lift-map")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", default=None)
    p = sub.add_parser("hom-compare")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p = sub.add_parser("extend")
    p.add_argument("file")
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default=None)
    p = sub.add_parser("verify")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=50)
    return parser


def _positive_int(s):
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError("%d is not a positive count" % n)
    return n


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        field = se.parse_field(args.field)
    except se.FormatError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return EXIT_INPUT
    try:
        code, report = COMMANDS[args.command](args, field)
    except se.FormatError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return EXIT_INPUT
    except ValueError as e:
        sys.stderr.write("check failed: %s\n" % (e,))
        return EXIT_FAIL
    except Exception as e:
        sys.stderr.write("internal error: %s\n" % _one_line(e))
        return EXIT_INTERNAL
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
