"""Answer checks that do not reuse the code under test.

Everything here works on plain data: integer dimension vectors, hom-set
sizes, the JSON of input and output files, and the JSON reports of the
command-line tool.  Nothing imports dercat, so a defect in the library
cannot make its own answers look right.

The Euler-form checks rest on one fact: the free presheaf at a has
dimension |hom(b, a)| at b, and these vectors form a basis of the
Grothendieck group.  With Z[b][a] = |hom(b, a)| (unitriangular on a
directed shape), a presheaf of dimension vector d has class c = Z^{-1} d
in the basis of frees, so

    sum_n (-1)^n dim Ext^n(X, Y) = <Z^{-1} dim X, dim Y>      (Yoneda)
    dim-Euler(Lan_u X)            = Z_tgt . u_*(Z_src^{-1} chi(X))
"""

import json
from fractions import Fraction


class OracleError(AssertionError):
    """An answer disagrees with its oracle."""


def check(cond, msg):
    if not cond:
        raise OracleError(msg)


# --- exact linear algebra on small integer matrices -------------------------


def inverse(mat):
    """Exact inverse of a square matrix by Gauss-Jordan over Fractions."""
    n = len(mat)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def matvec(mat, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


# --- shapes as plain data ----------------------------------------------------


class Shape:
    """Objects (as hashable keys) and hom-set sizes of a finite category."""

    def __init__(self, objects, homs):
        self.objects = list(objects)
        self.homs = dict(homs)          # (x, y) -> |hom(x, y)|
        self._zeta_inv = None

    def nhom(self, x, y):
        return self.homs.get((x, y), 0)

    def zeta(self):
        """Z[b][a] = |hom(b, a)|, rows and columns in object order."""
        return [[self.nhom(b, a) for a in self.objects] for b in self.objects]

    def zeta_inverse(self):
        if self._zeta_inv is None:
            self._zeta_inv = inverse(self.zeta())
        return self._zeta_inv

    def max_chain_length(self):
        memo = {}

        def longest(x):
            if x not in memo:
                memo[x] = max([1 + longest(y) for y in self.objects
                               if y != x and self.nhom(x, y)] or [0])
            return memo[x]
        return max([longest(x) for x in self.objects] or [0])


def key(label):
    """A hashable form of a JSON object label (lists become tuples)."""
    if isinstance(label, list):
        return tuple(key(v) for v in label)
    return label


def shape_from_json(obj):
    """Shape of a diagram body as written by the library's file format."""
    if "product" in obj:
        a, b = (shape_from_json(o) for o in obj["product"])
        objects = [(x, y) for x in a.objects for y in b.objects]
        homs = {((x, y), (x2, y2)): a.nhom(x, x2) * b.nhom(y, y2)
                for (x, y) in objects for (x2, y2) in objects}
        return Shape(objects, homs)
    homs = {}
    for arrow in obj["arrows"]:
        k = (key(arrow["src"]), key(arrow["tgt"]))
        homs[k] = homs.get(k, 0) + 1
    return Shape([key(x) for x in obj["objects"]], homs)


def presheaf_dims(body):
    return {key(x): int(d) for x, d in body["dims"]}


def complex_euler(body, objects):
    """Per-object Euler characteristic sum_p (-1)^p dim X^p_x."""
    out = {x: 0 for x in objects}
    for p, term in body["terms"]:
        sign = -1 if int(p) % 2 else 1
        for x, d in presheaf_dims(term).items():
            out[x] += sign * d
    return out


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- Euler forms ---------------------------------------------------------------


def euler_form(shape, dim_x, dim_y):
    """sum_n (-1)^n dim Ext^n(X, Y) for presheaves X, Y (stalks in degree 0)."""
    c = matvec(shape.zeta_inverse(), [dim_x[a] for a in shape.objects])
    total = sum(ca * dim_y[a] for ca, a in zip(c, shape.objects))
    check(total.denominator == 1, "Euler form is not an integer")
    return int(total)


def check_ext_table(shape, dim_x, dim_y, table):
    """table[n] = dim Ext^n(X, Y) for n = 0..len-1, which must cover the
    global dimension of the shape."""
    check(len(table) > shape.max_chain_length(),
          "Ext table stops below the global dimension")
    check(all(isinstance(d, int) and d >= 0 for d in table),
          "Ext dimensions must be natural numbers")
    alt = sum((-1) ** n * d for n, d in enumerate(table))
    want = euler_form(shape, dim_x, dim_y)
    check(alt == want, "alternating Ext sum %d != Euler form %d" % (alt, want))


def kan_left_euler(src, tgt, obj_map, chi_x):
    """Per-object Euler characteristic of the derived left Kan extension."""
    c = matvec(src.zeta_inverse(), [chi_x[a] for a in src.objects])
    pushed = {b: 0 for b in tgt.objects}
    for ca, a in zip(c, src.objects):
        pushed[obj_map[a]] += ca
    out = matvec(tgt.zeta(), [pushed[b] for b in tgt.objects])
    check(all(v.denominator == 1 for v in out), "Kan Euler vector not integral")
    return {b: int(v) for b, v in zip(tgt.objects, out)}


# --- standard triangles ------------------------------------------------------------


def is_visibly_split(infl, defl, middle_action, sub_dims, quot_dims):
    """A sufficient condition for a conflation to split, read off raw entries.

    infl/defl give per-object entry grids; middle_action gives the entry
    grid of each arrow's action on the middle term, with its source and
    target objects.  The sequence splits when every inflation is [I; 0],
    every deflation is [0 I] and every action is block diagonal, since
    then [0; I] is a natural section.
    """
    for x in sub_dims:
        a, b = sub_dims[x], quot_dims[x]
        want_i = [[int(r == c) for c in range(a)] for r in range(a)] + \
            [[0] * a for _ in range(b)]
        want_d = [[0] * a + [int(r == c) for c in range(b)] for r in range(b)]
        if infl[x] != want_i or defl[x] != want_d:
            return False
    for (sx, tx), grid in middle_action:
        a_s, a_t = sub_dims[sx], sub_dims[tx]
        for r, row in enumerate(grid):
            for c, v in enumerate(row):
                if v and ((r < a_s) != (c < a_t)):
                    return False
    return True


def check_triangle(delta_class, cone_class, matches, delta_zero=False,
                   expect=None):
    """δ computed by the standard route must equal the cone-route class."""
    check(list(delta_class) == list(cone_class),
          "delta class %r != cone class %r" % (delta_class, cone_class))
    check(matches is True, "triangle reports no match although classes agree")
    if delta_zero:
        check(all(str(c) == "0" for c in delta_class),
              "split conflation gave a nonzero delta %r" % (delta_class,))
    if expect is not None:
        check([str(c) for c in delta_class] == expect,
              "delta %r != expected %r" % (delta_class, expect))


# --- command-line reports and written files --------------------------------------


def _out_complex(path):
    obj = load_json(path)
    check(obj.get("kind") == "complex", "%s is not a complex file" % path)
    return obj


def _check_degrees(report, out):
    degs = [int(p) for p, _ in out["terms"]]
    if degs:
        check((report["lo"], report["hi"]) == (min(degs), max(degs)),
              "report degrees differ from the written file")


def check_cli(op, report, workdir):
    """Check one command's JSON report (and written file) against its inputs.

    op is a manifest entry: {"cmd", "argv", "files", "expect"}; paths in it
    are relative to workdir.
    """
    cmd, files, expect = op["cmd"], op["files"], op.get("expect", {})

    def path(name):
        return "%s/%s" % (workdir, files[name])

    if cmd == "check-presheaf":
        f = load_json(path("in"))
        dims = presheaf_dims(f)
        check(report.get("ok") is True, "check-presheaf not ok")
        check(report["total_dim"] == sum(dims.values()), "total_dim wrong")
        check(report["dims"] == {str(x): d for x, d in dims.items()},
              "dims differ from the file")
        check(report["free"] == ("free" in f), "free flag wrong")
    elif cmd == "ext":
        src, tgt = load_json(path("source")), load_json(path("target"))
        (p0, sbody), = src["terms"]
        n, want = expect["n"], 0
        for q0, tbody in tgt["terms"]:
            if n == int(q0) - int(p0):
                ydims = presheaf_dims(tbody)
                want = sum(v * ydims[key(i)] for v, i in sbody["free"])
        check(report["n"] == n, "ext reports the wrong degree")
        check(report["dim"] == want, "dim Ext^%d = %r, Yoneda gives %d"
              % (n, report["dim"], want))
    elif cmd == "triangle":
        check_triangle(report["delta_class"], report["cone_class"],
                       report["matches"], expect.get("delta_zero", False),
                       expect.get("delta"))
    elif cmd == "hom-compare":
        check(report["coherent_dim"] == report["incoherent_dim"],
              "coherent dim %r != incoherent dim %r"
              % (report["coherent_dim"], report["incoherent_dim"]))
        check(report["bijective"] is True, "canonical map not bijective")
    elif cmd in ("resolve", "suspend"):
        x = load_json(path("in"))
        out = _out_complex(path("out"))
        shape = shape_from_json(x["shape"])
        chi_x = complex_euler(x, shape.objects)
        chi_o = complex_euler(out, shape.objects)
        sign = 1 if cmd == "resolve" else -1
        check(all(chi_o[o] == sign * chi_x[o] for o in shape.objects),
              "%s output has the wrong Euler characteristic" % cmd)
        if cmd == "resolve":
            check(all("free" in t for _, t in out["terms"]),
                  "resolution term without recorded free parts")
            _check_degrees(report, out)
            if out["terms"] and x["terms"]:
                check(min(int(p) for p, _ in out["terms"]) >=
                      min(int(p) for p, _ in x["terms"])
                      - shape.max_chain_length(),
                      "resolution longer than the chain-length bound")
        else:
            check(report.get("ok") is True, "suspension witness not a quasi-iso")
    elif cmd == "lift":
        d = load_json(path("in"))
        out = _out_complex(path("out"))
        base = shape_from_json(d["base"])
        chi_o = complex_euler(out, shape_from_json(out["shape"]).objects)
        for i, body in d["values"]:
            chi_i = complex_euler(body, base.objects)
            check(all(chi_o[(key(i), b)] == chi_i[b] for b in base.objects),
                  "lift fiber at %r has the wrong Euler characteristic" % (i,))
        check(report.get("ok") is True, "lift certificate not verified")
        _check_degrees(report, out)
    elif cmd == "kan":
        x, u = load_json(path("in")), load_json(path("functor"))
        out = _out_complex(path("out"))
        src, tgt = shape_from_json(u["source"]), shape_from_json(u["target"])
        obj_map = {key(a): key(b) for a, b in u["objects"]}
        want = kan_left_euler(src, tgt, obj_map, complex_euler(x, src.objects))
        got = complex_euler(out, tgt.objects)
        check(got == want, "Lan Euler characteristic %r != %r" % (got, want))
        _check_degrees(report, out)
    else:
        raise OracleError("no oracle for command %r" % cmd)
