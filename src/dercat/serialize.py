"""JSON round trips for diagrams, functors, presheaves, complexes and
incoherent diagrams.

One value per file, with a top-level "kind" in {diagram, functor,
presheaf, complex, incoherent, morphism}; a morphism is a family
{object: chain map} between two incoherent diagrams, saved from a dict and
read back with load_morphism.  Matrices are row-major arrays of scalar
strings, the field is declared once per file ("fp:<p>" or "q") and every
embedded value is checked against it.  Object and arrow labels are plain
JSON values; tuple labels (as produced by product shapes) render as
arrays and are turned back into tuples on load.

Product shapes are stored as their two factors and rebuilt through
diagram.product on load, so the generated arrow labels and the recorded
pairing tables come back bit-identical.

Importing this module loads diagram, presheaf and linalg only: the
functions that read or write complexes, chain maps and incoherent
diagrams import complexes and coherence themselves, and saving a complex
imports no coherence.
"""

import json

from . import linalg
from .linalg import Matrix
from . import diagram
from . import presheaf as ps

KINDS = ("diagram", "functor", "presheaf", "complex", "incoherent")


class FormatError(ValueError):
    """Raised on malformed input files and on paths that cannot be read or
    written; the CLI maps this to exit 2."""


# --- field and scalars -------------------------------------------------------


def parse_field(tag):
    if tag == "q":
        return linalg.Field("rationals")
    if tag.startswith("fp:"):
        try:
            p = int(tag[3:])
        except ValueError:
            raise FormatError("bad field tag %r" % (tag,))
        try:
            return linalg.Field("prime", p)
        except ValueError as e:
            raise FormatError(str(e))
    raise FormatError("unknown field tag %r (use q or fp:<p>)" % (tag,))


def field_tag(field):
    return "q" if field.kind == "rationals" else "fp:%d" % field.p


def _file_field(obj, field):
    """The field a file declares, checked against the requested one."""
    file_field = parse_field(obj["field"])
    if field is not None and field != file_field:
        raise FormatError("file field %s does not match the requested %s"
                          % (obj["field"], field_tag(field)))
    return file_field


# --- labels ------------------------------------------------------------------


def _enc_label(x):
    if isinstance(x, tuple):
        return [_enc_label(v) for v in x]
    return x


def dec_label(v):
    """An object or arrow label read from JSON: lists become tuples."""
    if isinstance(v, list):
        return tuple(dec_label(w) for w in v)
    return v


# --- matrices ----------------------------------------------------------------


def enc_matrix(field, m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[field.show(e) for e in row] for row in m.entries]}


def dec_matrix(field, obj):
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = [[field.parse(s) for s in row] for row in obj["entries"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError("bad matrix: %s" % (e,))
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise FormatError("matrix entries do not match the declared shape")
    return Matrix(field, rows, cols, entries)


# --- diagrams ----------------------------------------------------------------


def enc_diagram(cat, kind=True):
    body = {}
    if kind:
        body["kind"] = "diagram"
    if cat.product_of is not None:
        body["product"] = [enc_diagram(cat.product_of[0], kind=False),
                           enc_diagram(cat.product_of[1], kind=False)]
        return body
    body["objects"] = [_enc_label(x) for x in cat.objects]
    body["arrows"] = [{"name": _enc_label(a),
                       "src": _enc_label(cat.src[a]),
                       "tgt": _enc_label(cat.tgt[a])}
                      for a in cat.arrows]
    body["identities"] = [_enc_label(cat.identity[x]) for x in cat.objects]
    body["compose"] = [[_enc_label(g), _enc_label(f), _enc_label(gf)]
                       for (g, f), gf in sorted(cat.comp.items(),
                                                key=lambda kv: repr(kv[0]))]
    return body


def dec_diagram(obj):
    if "product" in obj:
        return diagram.product(dec_diagram(obj["product"][0]),
                               dec_diagram(obj["product"][1]))
    try:
        objects = [dec_label(x) for x in obj["objects"]]
        arrows = [( dec_label(a["name"]), dec_label(a["src"]),
                    dec_label(a["tgt"])) for a in obj["arrows"]]
        identities = [dec_label(a) for a in obj["identities"]]
        comp_rows = [tuple(dec_label(v) for v in row)
                     for row in obj.get("compose", [])]
    except (KeyError, TypeError) as e:
        raise FormatError("bad diagram: %s" % (e,))
    if len(identities) != len(objects):
        raise FormatError("one identity arrow per object is required")
    hom = {}
    for name, s, t in arrows:
        hom.setdefault((s, t), []).append(name)
    identity = dict(zip(objects, identities))
    comp = {(g, f): gf for g, f, gf in comp_rows}
    try:
        return diagram.FinCat(objects, hom, identity, comp, validate=True)
    except (ValueError, KeyError) as e:
        raise FormatError("diagram does not validate: %s" % (e,))


# --- functors ----------------------------------------------------------------


def enc_functor(u):
    return {"kind": "functor",
            "source": enc_diagram(u.source, kind=False),
            "target": enc_diagram(u.target, kind=False),
            "objects": [[_enc_label(x), _enc_label(u.obj_map[x])]
                        for x in u.source.objects],
            "arrows": [[_enc_label(a), _enc_label(u.arrow_map[a])]
                       for a in u.source.arrows]}


def dec_functor(obj):
    src = dec_diagram(obj["source"])
    tgt = dec_diagram(obj["target"])
    try:
        omap = {dec_label(x): dec_label(ux) for x, ux in obj["objects"]}
        amap = {dec_label(a): dec_label(ua) for a, ua in obj["arrows"]}
        return diagram.DiagFunctor(src, tgt, omap, amap, validate=True)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError("functor does not validate: %s" % (e,))


# --- presheaves --------------------------------------------------------------


def _enc_presheaf_body(f):
    body = {"dims": [[_enc_label(x), f.dims[x]] for x in f.shape.objects],
            "action": [[_enc_label(a), enc_matrix(f.field, f.act(a))]
                       for a in f.shape.nonidentity_arrows()]}
    if f.free_parts is not None:
        body["free"] = [[v, _enc_label(i)] for (v, i) in f.free_parts]
    return body


def _dec_presheaf_body(field, shape, obj):
    try:
        dims = {dec_label(x): int(d) for x, d in obj["dims"]}
        action, repeated = {}, []
        for a, m in obj["action"]:
            a, m = dec_label(a), dec_matrix(field, m)
            if a in action:
                repeated.append(a)
            action[a] = m
        parts = None
        if "free" in obj:
            parts = tuple((int(v), dec_label(i)) for v, i in obj["free"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError("bad presheaf: %s" % (e,))
    try:
        if repeated:
            raise ValueError("action at %r listed twice" % (repeated[0],))
        f = ps.Presheaf(field, shape, dims, action, free_parts=parts,
                        validate=True)
    except (ValueError, KeyError) as e:
        raise FormatError("presheaf does not validate: %s" % (e,))
    if parts is not None:
        _check_free_parts(f)
    return f


def _check_free_parts(f):
    """Hom spaces and resolutions out of f trust its free parts, so they
    must present f exactly; the dimensions are compared first, which also
    bounds the multiplicities before any matrix is built."""
    field, shape = f.field, f.shape
    for v, i in f.free_parts:
        if v < 0 or i not in shape.objects:
            raise FormatError("bad free part %r" % ([v, i],))
    if any(sum(v * len(shape.hom(x, i)) for v, i in f.free_parts) != f.dims[x]
           for x in shape.objects) or f != ps.direct_sum_many(
               field, shape, [ps.free_at(field, shape, v, i)
                              for v, i in f.free_parts]):
        raise FormatError("the free parts %r do not present the presheaf"
                          % ([list(p) for p in f.free_parts],))


def enc_presheaf(f):
    body = {"kind": "presheaf", "field": field_tag(f.field),
            "shape": enc_diagram(f.shape, kind=False)}
    body.update(_enc_presheaf_body(f))
    return body


def dec_presheaf(obj, field=None):
    file_field = _file_field(obj, field)
    shape = dec_diagram(obj["shape"])
    return _dec_presheaf_body(file_field, shape, obj)


# --- presheaf maps, complexes, chain maps ------------------------------------


def _enc_map_body(phi):
    field = phi.source.field
    return [[_enc_label(x), enc_matrix(field, phi.comps[x])]
            for x in phi.source.shape.objects]


def _dec_map_body(src, tgt, rows):
    field = src.field
    comps = {dec_label(x): dec_matrix(field, m) for x, m in rows}
    try:
        return ps.PresheafMap(src, tgt, comps, validate=True)
    except (ValueError, KeyError) as e:
        raise FormatError("presheaf map does not validate: %s" % (e,))


def _enc_complex_body(x):
    return {"terms": [[p, _enc_presheaf_body(x.term(p))]
                      for p in x.degrees()],
            "diffs": [[p, _enc_map_body(x.diff(p))]
                      for p in range(x.lo, x.hi)
                      if not x.diff(p).is_zero()]}


def _dec_complex_body(field, shape, obj):
    from . import complexes as cx
    try:
        terms = {int(p): _dec_presheaf_body(field, shape, body)
                 for p, body in obj["terms"]}
        diff_rows = {int(p): rows for p, rows in obj.get("diffs", [])}
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError("bad complex: %s" % (e,))
    diffs = {}
    for p, rows in diff_rows.items():
        s = terms.get(p, ps.zero_presheaf(field, shape))
        t = terms.get(p + 1, ps.zero_presheaf(field, shape))
        diffs[p] = _dec_map_body(s, t, rows)
    try:
        return cx.Complex(field, shape, terms, diffs, validate=True)
    except (ValueError, KeyError) as e:
        raise FormatError("complex does not validate: %s" % (e,))


def enc_complex(x):
    body = {"kind": "complex", "field": field_tag(x.field),
            "shape": enc_diagram(x.shape, kind=False)}
    body.update(_enc_complex_body(x))
    return body


def dec_complex(obj, field=None):
    file_field = _file_field(obj, field)
    shape = dec_diagram(obj["shape"])
    return _dec_complex_body(file_field, shape, obj)


def _enc_chain_map_body(f):
    return [[p, _enc_map_body(f.comp(p))] for p in f.comps
            if not f.comp(p).is_zero()]


def _dec_chain_map_body(src, tgt, rows):
    from . import complexes as cx
    comps = {}
    for p, body in rows:
        p = int(p)
        comps[p] = _dec_map_body(src.term(p), tgt.term(p), body)
    try:
        return cx.ChainMap(src, tgt, comps, validate=True)
    except (ValueError, KeyError) as e:
        raise FormatError("chain map does not validate: %s" % (e,))


# --- morphisms of incoherent diagrams ---------------------------------------


def enc_morphism(comps):
    """A family {i: φ_i} of per-object chain maps (i in index order)."""
    field = next(iter(comps.values())).source.field
    return {"kind": "morphism", "field": field_tag(field),
            "components": [[_enc_label(i), _enc_chain_map_body(m)]
                           for i, m in comps.items()]}


def dec_morphism(obj, f, g):
    """The family {i: φ_i : f_i → g_i} between the incoherent diagrams f
    and g; objects the value omits get zero maps."""
    from . import complexes as cx
    _file_field(obj, f.field)
    comps = {}
    for i, rows in obj["components"]:
        i = dec_label(i)
        comps[i] = _dec_chain_map_body(f.value(i), g.value(i), rows)
    for i in f.shape.objects:
        if i not in comps:
            comps[i] = cx.zero_chain_map(f.value(i), g.value(i))
    return comps


# --- incoherent diagrams -----------------------------------------------------


def enc_incoherent(d):
    witnesses = {}
    for (a, b), h in (d.witnesses or {}).items():
        witnesses[(a, b)] = h
    return {"kind": "incoherent", "field": field_tag(d.field),
            "index": enc_diagram(d.shape, kind=False),
            "base": enc_diagram(d.base, kind=False),
            "values": [[_enc_label(i), _enc_complex_body(d.value(i))]
                       for i in d.shape.objects],
            "maps": [[_enc_label(a), _enc_chain_map_body(d.maps[a])]
                     for a in d.shape.nonidentity_arrows()],
            "witnesses": [[_enc_label(a), _enc_label(b),
                           [[p, _enc_map_body(h.comp(p))]
                            for p in h.comps if not h.comp(p).is_zero()]]
                          for (a, b), h in sorted(witnesses.items(),
                                                  key=lambda kv: repr(kv[0]))]}


def _check_keys(what, keys, expected, name):
    if len(keys) != len(expected) or set(keys) != set(expected):
        raise FormatError("bad incoherent diagram: %s must be given once "
                          "at each %s" % (what, name))


def dec_incoherent(obj, field=None):
    from . import complexes as cx, coherence as co
    file_field = _file_field(obj, field)
    icat = dec_diagram(obj["index"])
    base = dec_diagram(obj["base"])
    try:
        value_rows = [(dec_label(i), body) for i, body in obj["values"]]
        map_rows = [(dec_label(a), rows) for a, rows in obj["maps"]]
        _check_keys("values", [i for i, _ in value_rows], icat.objects,
                    "index object")
        _check_keys("maps", [a for a, _ in map_rows],
                    icat.nonidentity_arrows(), "non-identity index arrow")
        values = {i: _dec_complex_body(file_field, base, body)
                  for i, body in value_rows}
        maps = {}
        for a, rows in map_rows:
            src = values[icat.tgt[a]]
            tgt = values[icat.src[a]]
            maps[a] = _dec_chain_map_body(src, tgt, rows)
    except (KeyError, TypeError) as e:
        raise FormatError("bad incoherent diagram: %s" % (e,))
    witnesses = {}
    for row in obj.get("witnesses", []):
        a, b, hrows = dec_label(row[0]), dec_label(row[1]), row[2]
        src = values[icat.tgt[b]]
        tgt = values[icat.src[a]]
        comps = {int(p): _dec_map_body(src.term(int(p)),
                                       tgt.term(int(p) - 1), body)
                 for p, body in hrows}
        witnesses[(a, b)] = cx.Homotopy(src, tgt, comps)
    d = co.IncoherentDiagram(icat, base, values, maps,
                             witnesses=witnesses or None)
    try:
        d.validate()
    except ValueError as e:
        raise FormatError("incoherent diagram does not validate: %s" % (e,))
    return d


# --- top level ---------------------------------------------------------------


_ENCODERS = {
    diagram.FinCat: lambda v: enc_diagram(v),
    diagram.DiagFunctor: enc_functor,
    ps.Presheaf: enc_presheaf,
    dict: enc_morphism,
}

_DECODERS = {
    "diagram": lambda obj, field: dec_diagram(obj),
    "functor": lambda obj, field: dec_functor(obj),
    "presheaf": dec_presheaf,
    "complex": dec_complex,
    "incoherent": dec_incoherent,
}


def _upper_encoder(t):
    """The encoder of a complex or an incoherent diagram.  A value of
    either type means its module is loaded, so these imports load nothing
    new, and a complex is matched before coherence is imported."""
    from . import complexes as cx
    if t is cx.Complex:
        return enc_complex
    from . import coherence as co
    if t is co.IncoherentDiagram:
        return enc_incoherent
    return None


def encode(value):
    enc = _ENCODERS.get(type(value)) or _upper_encoder(type(value))
    if enc is None:
        raise FormatError("cannot serialize %r" % (type(value).__name__,))
    return enc(value)


def _decode_as(kind, dec, *args):
    """dec(*args), with malformed input reported as a FormatError."""
    try:
        return dec(*args)
    except FormatError:
        raise
    except (KeyError, IndexError, TypeError, AttributeError) as e:
        raise FormatError("malformed %s value: %s: %s"
                          % (kind, type(e).__name__, e))
    except ValueError as e:
        raise FormatError("invalid %s value: %s" % (kind, e))


def decode(obj, field=None):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in KINDS:
        raise FormatError("missing or unknown kind %r" % (kind,))
    return _decode_as(kind, _DECODERS[kind], obj, field)


def save(path, value):
    try:
        with open(path, "w") as fh:
            json.dump(encode(value), fh, indent=1)
            fh.write("\n")
    except OSError as e:
        raise FormatError("cannot write %s: %s" % (path, e))


def _read(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise FormatError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise FormatError("%s:%d:%d: %s" % (path, e.lineno, e.colno, e.msg))


def load(path, field=None):
    return decode(_read(path), field)


def load_morphism(path, f, g):
    """A morphism file read as per-object chain maps f_i → g_i between the
    incoherent diagrams f and g (see dec_morphism)."""
    obj = _read(path)
    if not isinstance(obj, dict) or obj.get("kind") != "morphism":
        raise FormatError("%s: expected kind morphism" % (path,))
    return _decode_as("morphism", dec_morphism, obj, f, g)

