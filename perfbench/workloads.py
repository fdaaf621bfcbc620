"""Seeded inputs and fixed op lists for the four workloads.

Runs inside a worker process that has dercat on its path.  suites(),
triangle() and ext() make every input from the seed alone, and the op
list they return is the same, in the same order, on every run with that
seed and size; cli_manifest() does the same for the commands.
"""

import math

from dercat import cli
from dercat import complexes as cx
from dercat import derivator as dv
from dercat import diagram
from dercat import generators as gen
from dercat import presheaf as ps
from dercat import serialize as se
from dercat.linalg import Field, Matrix

import oracles

F2, F5, QQ = Field("prime", 2), Field("prime", 5), Field("rationals")

SUITE_FIELDS = (("F2", F2), ("F5", F5), ("Q", QQ))
# A known defect: find_quasi_iso refuses Q, so about half of the Q cases of
# extension-exactness raise.  They stay in the op list and are counted.
KNOWN_FAILURES = {("extension-exactness", "Q"): "search requires a finite field"}

# Objects of J for consecutive triangle ops.  Op time grows with |J| and
# the classes overlap little, so the shares 30/40/10/20 put p50 in the
# middle of the 2-object class and p90 inside the 4-object class, at least
# ten ranks from a class edge at 100 ops.
TRIANGLE_SIZES = (1, 2, 4, 1, 2, 3, 1, 2, 4, 2)
TRIANGLE_FORM_SEED = "triangle-forms"
EXT_CUBE = 4
EXT_DIMS = (8, 35)
EXT_TARGETS = 5
EXT_FORM_SEED = "ext-forms"
# Reads and writes alternate.  triangle costs 100-300 ms more than the
# other commands, whose times overlap; it gets two slots of nine so that
# p90 falls inside its class, not at the edge of a 1/8 share.
CLI_CYCLE = ("check-presheaf", "resolve", "triangle", "ext", "suspend",
             "lift", "triangle", "hom-compare", "kan")
CLI_INPUT_SETS = 4


def size_for(workload, n):
    """The size parameter giving about n ops: rounds of all suites, squares,
    presheaves (EXT_TARGETS ops each) or commands."""
    if workload == "suites":
        return max(1, math.ceil(n / (len(cli.SUITES) * len(SUITE_FIELDS))))
    if workload == "ext":
        return max(EXT_TARGETS, math.ceil(n / EXT_TARGETS))
    return max(1, n)


class Op:
    __slots__ = ("label", "run", "check", "known")

    def __init__(self, label, run, check, known=None):
        self.label = label
        self.run = run          # () -> answer
        self.check = check      # answer -> None, raises OracleError
        self.known = known      # (exception type, message) of a known defect


# --- suites ---------------------------------------------------------------


def _suite_op(name, tag, field, r, seed, k):
    def run():
        return cli.SUITES[name](r, field)

    def check(answer):
        ok, detail, _ = answer
        oracles.check(ok is True, "%s/%s case %d: %s" % (name, tag, k, detail))
    known = KNOWN_FAILURES.get((name, tag))
    label = "%s/%s seed %d case %d" % (name, tag, seed, k)
    return Op(label, run, check, known and (ValueError, known))


def suites(seed, rounds):
    """Each (suite, field) pair draws from its own rng_for(seed) stream, as
    `dercat verify --suite S --seed seed` does; one op is one case."""
    streams = [(name, tag, field, gen.rng_for(seed))
               for name in cli.SUITES for tag, field in SUITE_FIELDS]
    return [_suite_op(name, tag, field, r, seed, k)
            for k in range(rounds) for name, tag, field, r in streams]


# --- triangle ---------------------------------------------------------------


def visibly_split(conf):
    shape = conf.middle.shape

    def grid(m):
        return [list(row) for row in m.entries]
    return oracles.is_visibly_split(
        {x: grid(conf.inflation.comps[x]) for x in shape.objects},
        {x: grid(conf.deflation.comps[x]) for x in shape.objects},
        [((shape.src[a], shape.tgt[a]), grid(conf.middle.act(a)))
         for a in shape.nonidentity_arrows()],
        conf.sub.dims, conf.quotient.dims)


def simple(field, cat, at):
    dims = {x: int(x == at) for x in cat.objects}
    action = {a: Matrix.zeros(field, dims[cat.src[a]], dims[cat.tgt[a]])
              for a in cat.nonidentity_arrows()}
    return ps.Presheaf(field, cat, dims, action)


def nonsplit_delta1():
    """0 → S_1 → P_0 → S_0 → 0 over Δ1: Ext^1(S_0, S_1) is spanned by it,
    so its δ class is [1]."""
    d1 = diagram.delta(1)
    s0, s1 = simple(F2, d1, 0), simple(F2, d1, 1)
    p0 = ps.free_at(F2, d1, 1, 0)
    infl = ps.PresheafMap(s1, p0, {0: Matrix.zeros(F2, 1, 0),
                                   1: Matrix.identity(F2, 1)})
    defl = ps.PresheafMap(p0, s0, {0: Matrix.identity(F2, 1),
                                   1: Matrix.zeros(F2, 0, 1)})
    return ps.Conflation(infl, defl)


def _triangle_op(label, sq, delta_zero=False, expect=None):
    def check(tri):
        oracles.check_triangle(tri.delta_class, tri.cone_class,
                               tri.matches_cone, delta_zero, expect)
    return Op(label, lambda: dv.standard_triangle(sq), check)


def random_poset(r, objects):
    """rand_poset redrawn until it has `objects` objects."""
    base = gen.rand_poset(r, 4)
    while len(base.objects) != objects:
        base = gen.rand_poset(r, 4)
    return base


def triangle(seed, n):
    """n squares with |J| cycling through TRIANGLE_SIZES, then the non-split
    extension.  A triangle's cost follows the arrows of J most (300 ms at
    5 arrows, 900 ms at 10), and with J drawn per seed the mean moved by
    20% between seeds; so the posets J come from a fixed stream, the same
    for every seed, and the seed draws the conflations over them."""
    form, r = gen.rng_for(TRIANGLE_FORM_SEED), gen.rng_for(seed)
    ops = []
    for k in range(n):
        base = random_poset(form, TRIANGLE_SIZES[k % len(TRIANGLE_SIZES)])
        conf = gen.rand_conflation(r, F2, base, max_parts=1)
        ops.append(_triangle_op(
            "square %d (|J|=%d) seed %d" % (k, len(base.objects), seed),
            gen.conflation_square(conf, base), delta_zero=visibly_split(conf)))
    conf = nonsplit_delta1()
    ops.append(_triangle_op("non-split extension over Δ1",
                            gen.conflation_square(conf, diagram.delta(1)),
                            expect=["1"]))
    return ops


# --- ext ----------------------------------------------------------------------


def plain_shape(cat):
    return oracles.Shape(cat.objects, {(a, b): len(cat.hom(a, b))
                                       for a in cat.objects for b in cat.objects})


def _sum_of_frees(r, field, shape, parts):
    acc = ps.free_at(field, shape, 1, r.choice(shape.objects))
    for _ in range(parts - 1):
        acc = ps.direct_sum(acc, ps.free_at(field, shape, 1,
                                            r.choice(shape.objects)))
    return acc


def ext_presheaf(form, r, shape):
    """Kernel or cokernel of a random map between sums of three frees; the
    form stream picks the frees and which of the two, r the map's entries."""
    src = _sum_of_frees(form, QQ, shape, 3)
    tgt = _sum_of_frees(form, QQ, shape, 3)
    values = [gen.rand_matrix(r, QQ, tgt.dims[i], v) for v, i in src.free_parts]
    phi = ps.free_map_to(src, tgt, values)
    return (ps.kernel(phi) if form.random() < 0.5 else ps.cokernel(phi))[0]


def _ext_op(label, x, y, shape, dim_x, dim_y):
    def run():
        return [cx.ext(x, y, m)[0] for m in range(EXT_CUBE + 1)]
    return Op(label, run,
              lambda table: oracles.check_ext_table(shape, dim_x, dim_y, table))


def ext(seed, n):
    """n presheaves on cube(4) over Q; X_i is paired with X_i, ..., X_{i+4}
    (indices mod n), so each presheaf is a source EXT_TARGETS times in a
    row, then a target in four other sources' rows.  Many distinct sources,
    each with a few targets, keep one heavy resolution from setting p90;
    the first op of a row also resolves its source (1/EXT_TARGETS of the
    ops, a class that holds p90 with room on either side).

    The cost of an Ext table follows the form of X (which frees, kernel or
    cokernel) far more than its entries, and with random forms the mean
    cost of 50 presheaves moved by 20% between seeds.  So the forms come
    from a fixed stream, the same for every seed, and the seed draws the
    entries of the maps, which are generic: ranks, and so dimensions, are
    those of the form except on rare draws."""
    form, r = gen.rng_for(EXT_FORM_SEED), gen.rng_for(seed)
    cube = diagram.cube(EXT_CUBE)
    lo, hi = EXT_DIMS
    xs = []
    while len(xs) < n:
        x = ext_presheaf(form, r, cube)
        if lo <= x.total_dim() <= hi:
            xs.append(x)
    shape = plain_shape(cube)
    dims = [dict(x.dims) for x in xs]
    stalks = [cx.stalk(x) for x in xs]
    pairs = [(i, (i + d) % n) for i in range(n) for d in range(EXT_TARGETS)]
    return [_ext_op("pair (%d, %d) seed %d" % (i, j, seed), stalks[i], stalks[j],
                    shape, dims[i], dims[j]) for i, j in pairs]


# --- cli --------------------------------------------------------------------------


def _cli_input(kind, idx, r, workdir):
    """Input files for one command; returns a manifest entry."""
    stem = "%s-%d" % (kind, idx)

    def save(name, value):
        fname = "%s-%s.json" % (stem, name)
        se.save("%s/%s" % (workdir, fname), value)
        return fname

    out = stem + "-out.json"
    cube3, cube2 = diagram.cube(3), diagram.cube(2)
    files, expect = {}, {}
    if kind == "check-presheaf":
        files["in"] = save("in", gen.rand_presheaf(r, F2, cube3, 3))
        argv = [files["in"]]
    elif kind == "ext":
        files["source"] = save("source", cx.stalk(gen.rand_free(r, F2, cube3, 2)))
        files["target"] = save("target", cx.stalk(gen.rand_presheaf(r, F2, cube3, 3),
                                                  r.randint(0, 1)))
        expect["n"] = r.randint(0, 1)
        argv = ["--source", files["source"], "--target", files["target"],
                "--n", str(expect["n"])]
    elif kind == "triangle":
        # all over Δ1, so the triangles form one class of op times (the
        # non-split extension alone would sit above the rest)
        base = diagram.delta(1)
        if idx == 0:
            conf = nonsplit_delta1()
            expect["delta"] = ["1"]
        else:
            conf = gen.rand_conflation(r, F2, base, max_parts=1)
        expect["delta_zero"] = visibly_split(conf)
        files["in"] = save("in", gen.conflation_square(conf, base).complex)
        argv = [files["in"]]
    elif kind == "hom-compare":
        d1 = diagram.delta(1)
        files["source"] = save("source", gen.rand_honest(r, F2, d1, d1, 1))
        files["target"] = save("target", gen.rand_honest(r, F2, d1, d1, 1))
        argv = ["--source", files["source"], "--target", files["target"]]
    elif kind in ("resolve", "suspend"):
        shape = cube2 if kind == "resolve" else gen.rand_poset(r, 4)
        files["in"] = save("in", gen.rand_complex(r, F2, shape, lo=-1, hi=1))
        argv = [files["in"], "--out", out]
    elif kind == "lift":
        d1 = diagram.delta(1)
        files["in"] = save("in", gen.rand_incoherent(r, F2, d1, d1, 1))
        argv = [files["in"], "--out", out]
    elif kind == "kan":
        u = gen.rand_functor(r, 4)
        files["functor"] = save("functor", u)
        files["in"] = save("in", gen.rand_complex(r, F2, u.source, lo=-1, hi=1,
                                                  max_parts=1))
        argv = [files["in"], "--dir", "left", "--functor", files["functor"],
                "--out", out]
    if "--out" in argv:
        files["out"] = out
    return {"cmd": kind, "argv": ["--json", kind] + argv, "files": files,
            "expect": expect}


def cli_manifest(seed, n, workdir):
    """Input files for CLI_INPUT_SETS runs of each command, written with
    serialize.save, and the list of n commands cycling through them."""
    r = gen.rng_for(seed)
    sets = {kind: [_cli_input(kind, idx, r, workdir)
                   for idx in range(CLI_INPUT_SETS)]
            for kind in dict.fromkeys(CLI_CYCLE)}
    used = {kind: 0 for kind in sets}
    ops = []
    for k in range(n):
        kind = CLI_CYCLE[k % len(CLI_CYCLE)]
        ops.append(sets[kind][used[kind] % CLI_INPUT_SETS])
        used[kind] += 1
    return ops


OP_LISTS = {"suites": suites, "triangle": triangle, "ext": ext}
