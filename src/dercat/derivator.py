"""The derivator structure on I ↦ D^b(presheaves over I): restriction,
derived Kan extensions, homotopy (co)limits, base change, bicartesian
detection, recollement, suspension via recollement and standard triangles.

Derived left Kan extensions are computed by the projective transport
formula: replace the input by its projective resolution and move every
free summand V ⊗ i to V ⊗ u(i), rewriting maps through the adjunction
hom(V ⊗ i, P) ≅ hom(V, P_i).  Right Kan extensions are the duals of left
ones over the opposite shape — one engine, exactness by construction.
"""

from . import linalg
from .linalg import Matrix, block_rows, negated
from . import diagram
from . import presheaf as ps
from . import complexes as cx


# --- transport of recorded free presheaves -----------------------------------


def transport_presheaf(u, p):
    """u_! of a recorded free presheaf: V ⊗ i ↦ V ⊗ u(i)."""
    if p.free_parts is None:
        raise ValueError("presheaf is not recorded free")
    return ps.free_sum(p.field, u.target, tuple(
        (v, u.obj_map[i]) for (v, i) in p.free_parts))


def transport_free_map(u, phi, src_t, tgt_t):
    """u_! : src_t → tgt_t of a map φ between recorded free presheaves.

    Each adjunct value decomposes into blocks indexed by arrows g of the
    source shape; the transported value places block g at position u(g),
    summing when u identifies arrows.
    """
    p, q = phi.source, phi.target
    field = p.field
    vals = ps.free_values_of(phi)
    new_vals = []
    for k, (v, i) in enumerate(p.free_parts):
        val = vals[k]
        blocks = ps._part_offsets(q, i)
        ui = u.obj_map[i]
        tgt_blocks = ps._part_offsets(tgt_t, ui)
        pos = {key: (o, w) for key, o, w in tgt_blocks}
        if not (tgt_t.dims[ui] and v):
            new_vals.append(Matrix.zeros(field, tgt_t.dims[ui], v))
            continue
        rows = [[field.zero] * v for _ in range(tgt_t.dims[ui])]
        for (l, g), o, w in blocks:
            ug = u.arrow_map[g]
            to, _ = pos[(l, ug)]
            for r in range(w):
                for c in range(v):
                    rows[to + r][c] = field.add(rows[to + r][c],
                                                val.entries[o + r][c])
        new_vals.append(Matrix(field, tgt_t.dims[ui], v, rows))
    return ps.free_map_to(src_t, tgt_t, new_vals)


def transport_complex(u, x):
    """u_! of a complex of recorded free presheaves."""
    terms = {p: transport_presheaf(u, x.term(p)) for p in x.degrees()}
    diffs = {p: transport_free_map(u, x.diff(p), terms[p], terms[p + 1])
             for p in range(x.lo, x.hi)}
    return cx.Complex(x.field, u.target, terms, diffs)


def transport_chain_map(u, f, tgt_t, src_t=None):
    if src_t is None:
        src_t = transport_complex(u, f.source)
    return cx.ChainMap(src_t, tgt_t,
                       {p: transport_free_map(u, f.comp(p), src_t.term(p),
                                              tgt_t.term(p))
                        for p in f.source.degrees()})


def adjunct_chain_map(u, phi, target, src_t=None):
    """The adjunct u_!P → target of a chain map φ : P → u*target with P a
    complex of recorded free presheaves."""
    p = phi.source
    if src_t is None:
        src_t = transport_complex(u, p)
    comps = {}
    for deg in p.degrees():
        vals = ps.free_values_of(phi.comp(deg))
        comps[deg] = ps.free_map_to(src_t.term(deg), target.term(deg), vals)
    return cx.ChainMap(src_t, target, comps)


def unit_chain_map(u, p, transported):
    """The unit P → u*(transported = u_!P) on recorded free presheaves."""
    restr = cx.restrict_complex(u, transported)
    comps = {}
    for deg in p.degrees():
        term = p.term(deg)
        tterm = transported.term(deg)
        vals = []
        for k, (v, i) in enumerate(term.free_parts):
            ui = u.obj_map[i]
            blocks = ps._part_offsets(tterm, ui)
            rows = [[p.field.zero] * v for _ in range(tterm.dims[ui])]
            for (l, g), o, _ in blocks:
                if l == k and u.target.is_identity(g):
                    for r in range(v):
                        rows[o + r][r] = p.field.one
            vals.append(Matrix(p.field, tterm.dims[ui], v, rows))
        comps[deg] = ps.free_map_to(term, restr.term(deg), vals)
    return cx.ChainMap(p, restr, comps)


# --- Kan extensions ----------------------------------------------------------


class KanCertificate:
    """Audit record of a derived left Kan extension u_! along `functor`.

    Carries the output and the unit, or the resolution P of the input
    that the output transports, from which the unit P → u*(output) is
    built when first read.  verify() builds the counit at the output and
    the homotopy witnesses for the triangle identities (they are lazily
    computed because they cost an extra resolution of u* of the output).
    A right extension is computed as the dual of a left one, and its
    certificate is that left extension's: the triangle identities of
    u* ⊣ u_* read in the opposite categories.
    """

    def __init__(self, functor, output, unit=None, resolution=None):
        self.functor = functor
        self.output = output
        self.resolution = resolution
        self._unit = unit

    @property
    def unit(self):
        if self._unit is None:
            self._unit = unit_chain_map(self.functor, self.resolution,
                                        transported=self.output)
        return self._unit

    def verify(self):
        """Whether both triangle identities hold up to homotopy: False when
        the unit does not lift through the resolution of u* of the output
        or either identity has no witness."""
        u = self.functor
        l = self.output
        ul = cx.restrict_complex(u, l)
        r2, rho2 = cx.proj_resolution(ul)
        counit = adjunct_chain_map(u, rho2, l)
        lifted = cx.lift_through_qis(self.unit, rho2)
        if lifted is None:
            return False
        eta_t, _ = lifted
        composite = counit.compose(transport_chain_map(u, eta_t,
                                                       counit.source))
        if cx.homotopy_solve(composite, cx.identity_chain_map(l)) is None:
            return False
        eta_r2 = unit_chain_map(u, r2, transported=counit.source)
        composite2 = cx.restrict_chain_map(
            u, counit, eta_r2.target, ul).compose(eta_r2)
        return cx.homotopy_solve(composite2, rho2) is not None


def lan(u, x):
    """Derived left Kan extension u_! x; returns (complex, certificate)."""
    if x.shape != u.source:
        raise ValueError("complex does not live over the functor's source")
    p, _ = cx.proj_resolution(x)
    out = transport_complex(u, p)
    return out, KanCertificate(u, out, resolution=p)


def ran(u, x):
    """Derived right Kan extension u_* x, computed by duality; the
    certificate is that of the left extension along u^op."""
    if x.shape != u.source:
        raise ValueError("complex does not live over the functor's source")
    u_op = diagram.opposite_functor(u)
    xd = cx.dualize_complex(x, u_op.source)
    ld, cert = lan(u_op, xd)
    return cx.dualize_complex(ld, u.target), cert


def hocolim(i, x):
    return lan(diagram.terminal_functor(i), x)[0]


def holim(i, x):
    return ran(diagram.terminal_functor(i), x)[0]


def lan_counit(u, x):
    """The counit u_! u^* x → x as a chain map (with its source)."""
    a = cx.restrict_complex(u, x)
    p, rho = cx.proj_resolution(a)
    src = transport_complex(u, p)
    eps = adjunct_chain_map(u, rho, x, src_t=src)
    return eps


def ran_unit(u, x):
    """The unit x → u_* u^* x as a chain map, dual of lan_counit."""
    u_op = diagram.opposite_functor(u)
    xd = cx.dualize_complex(x, u_op.target)
    eps_d = lan_counit(u_op, xd)
    return cx.dualize_chain_map(eps_d, u.target)


# --- fibers and structure maps ----------------------------------------------


def fiber_functor(prod, i_obj):
    """The functor J → I × J picking the row at i_obj (prod must carry
    product structure)."""
    icat, jcat = prod.product_of
    omap = {m: (i_obj, m) for m in jcat.objects}
    amap = {b: prod.pair_arrow[(icat.identity[i_obj], b)] for b in jcat.arrows}
    return diagram.DiagFunctor(jcat, prod, omap, amap, validate=False)


def fiber_complex(x, i_obj):
    """i* x over the second factor, for x over a product shape.  Each fibre
    is restricted once per complex and object and kept in x.fibers, so
    every reader of it shares one complex."""
    fiber = x.fibers.get(i_obj)
    if fiber is None:
        fiber = x.fibers[i_obj] = cx.restrict_complex(
            fiber_functor(x.shape, i_obj), x)
    return fiber


def point_restriction(chain_map, i_obj):
    """Restrict a chain map over a product shape to the fiber at i_obj,
    between the shared fibres of its ends."""
    u = fiber_functor(chain_map.source.shape, i_obj)
    return cx.restrict_chain_map(u, chain_map,
                                 fiber_complex(chain_map.source, i_obj),
                                 fiber_complex(chain_map.target, i_obj))


def structure_map(x, arrow_a):
    """For x over a product I × J and an arrow a : i1 → i2 of the first
    factor, the induced chain map from the fibre at i2 to the fibre at i1
    (the contravariant structure map), between the shared fibres."""
    prod = x.shape
    icat, jcat = prod.product_of
    return cx.termwise_map(
        fiber_complex(x, icat.tgt[arrow_a]),
        fiber_complex(x, icat.src[arrow_a]),
        lambda p, m: x.term(p).act(
            prod.pair_arrow[(arrow_a, jcat.identity[m])]))


# --- base change (Der 4) ------------------------------------------------------


def base_change_left(u, y, x):
    """The comparison hocolim over the comma category of (x restricted)
    against the fiber of u_! x at y; returns (chain map, is_quasi_iso)."""
    l, cert = lan(u, x)
    p = cert.unit.source
    c_cat, forget, alpha = diagram.comma_under(u, y)
    jp = cx.restrict_complex(forget, p)
    eta_j = cx.restrict_chain_map(forget, cert.unit, jp, cx.restrict_complex(
        forget, cert.unit.target))
    # α-restriction: (u∘forget)* L → const_y* L
    ujl = eta_j.target
    fiber = cx.restrict_complex(diagram.constant_functor(c_cat, u.target, y), l)
    alpha_l = cx.termwise_map(
        ujl, fiber, lambda deg, c: l.term(deg).act(alpha.components[c]))
    psi = alpha_l.compose(eta_j)
    r, rho_r = cx.proj_resolution(jp)
    psi_r = psi.compose(rho_r)
    p_c = diagram.terminal_functor(c_cat)
    fiber_e = cx.restrict_complex(diagram.point_inclusion(u.target, y), l)
    # reinterpret ψ over C as a map into p_C* of the fiber over e
    const_target = cx.restrict_complex(p_c, fiber_e)
    psi_e = cx.termwise_map(r, const_target,
                            lambda deg, c: psi_r.comp(deg).comps[c])
    cbar = adjunct_chain_map(p_c, psi_e, fiber_e)
    return cbar, cx.is_quasi_iso(cbar)


def base_change(u, y, x):
    """Der 4 comparison for the right Kan extension: the canonical map
    (u_* x)_y → holim over the comma category, with its verdict."""
    u_op = diagram.opposite_functor(u)
    xd = cx.dualize_complex(x, u_op.source)
    cbar, ok = base_change_left(u_op, y, xd)
    e = diagram.terminal_cat()
    c = cx.dualize_chain_map(cbar, e)
    return c, ok


# --- bicartesian squares (Der 7) ----------------------------------------------


class SquareObject:
    """A complex over □ × J, checked to be one, with its base J."""

    def __init__(self, complex_):
        prod = complex_.shape
        if prod.product_of is None or prod.product_of[0] != diagram.square():
            raise ValueError("shape does not factor through the square")
        self.complex = complex_
        self.base = prod.product_of[1]


def square_over(complex_):
    return SquareObject(complex_)


def _cap_counit(x):
    _, incl = diagram.lefthalfcap()
    base = x.shape.product_of[1]
    u = diagram.times_base(incl, base)
    return lan_counit(u, x)


def is_cocartesian(s):
    """Counit (i_⌐ × id)_!(i_⌐ × id)* F → F and its verdict.

    A yes/no verdict comes from is_bicartesian; this Kan route is kept for
    der7's cross-check and square-check's report."""
    x = s.complex if isinstance(s, SquareObject) else s
    eps = _cap_counit(x)
    return cx.is_quasi_iso(eps), eps


def is_cartesian(s):
    """Unit F → (i_⌙ × id)_*(i_⌙ × id)* F and its verdict (by duality).

    A yes/no verdict comes from is_bicartesian; this Kan route is kept for
    der7's cross-check and square-check's report."""
    x = s.complex if isinstance(s, SquareObject) else s
    _, incl = diagram.righthalfcup()
    base = x.shape.product_of[1]
    u = diagram.times_base(incl, base)
    eta = ran_unit(u, x)
    return cx.is_quasi_iso(eta), eta


def _total_cofiber_is_acyclic(x, icat, corners):
    """Whether the total cofiber of the square of x over I × J with
    corners c00, c01, c10, c11 of I is acyclic, read off x's own matrices.

    The arrows between corners are read in icat.  With the structure maps
    f : X₀₀ → X₀₁, g : X₁₀ → X₁₁, h : X₀₀ → X₁₀ and k : X₀₁ → X₁₁, the
    total cofiber at an object o of J is cone(diag(h, k) : cone(f) →
    cone(g)): Tot^p = X₀₀^{p+2} ⊕ X₀₁^{p+1} ⊕ X₁₀^{p+1} ⊕ X₁₁^p, where
    X_c^q is the term x^q at (c, o), with block rows [d₀₀ | 0 | 0 | 0],
    [−f | −d₀₁ | 0 | 0], [h | 0 | −d₁₀ | 0] and [0 | k | g | d₁₁].  Every
    block is the component at (c, o) of a differential of x or the action
    of an arrow (t, id_o) of I × J, so no fibre is restricted and no
    structure map or cone is built.  Only ranks are read, and negating a
    block row keeps the rank, so the rows are written as
    [f | d₀₁ | 0 | 0], with −d₁₀ the one sign applied, entry by entry,
    and the zero blocks are padding: no zero, negated or block matrix is
    built."""
    prod = x.shape
    _, jcat = prod.product_of
    field = x.field
    z = field.zero
    c00, c01, c10, c11 = corners
    # the map X_a → X_b is the action of the arrow b → a
    f, g, h, k = (icat.hom(b, a)[0] for a, b in (
        (c00, c01), (c10, c11), (c00, c10), (c01, c11)))
    pairs = {(a, o): prod.pair_arrow[(a, jcat.identity[o])]
             for a in (f, g, h, k) for o in jcat.objects}
    terms, diffs = x.terms, x.diffs
    lo, hi = x.lo - 2, x.hi

    def exact_at(o):
        # the dimensions of x^q at the four corners over o
        none = (0, 0, 0, 0)
        dims = {q: tuple(t.dims[(c, o)] for c in corners)
                for q, t in terms.items()}

        def diff(q, c):
            d = diffs.get(q)
            return block_rows(field,
                              d if d is None else d.comps[(corners[c], o)],
                              dims.get(q + 1, none)[c], dims.get(q, none)[c])

        def act(q, arrow, a, b):
            t = terms.get(q)
            dq = dims.get(q, none)
            return block_rows(field, t if t is None else
                              t.act(pairs[(arrow, o)]), dq[b], dq[a])

        def size(p):
            # the dimensions of the four summands of Tot^p
            top, mid, low = (dims.get(q, none) for q in (p + 2, p + 1, p))
            return top[0], mid[1], mid[2], low[3]

        def rows(p):
            a0, a1, a2, a3 = size(p)
            out = [r + (z,) * (a1 + a2 + a3) for r in diff(p + 2, 0)]
            out += [r + s + (z,) * (a2 + a3) for r, s in zip(
                act(p + 2, f, 0, 1), diff(p + 1, 1))]
            out += [r + (z,) * a1 + negated(field, s) + (z,) * a3
                    for r, s in zip(act(p + 2, h, 0, 2), diff(p + 1, 2))]
            out += [(z,) * a0 + r + s + t for r, s, t in zip(
                act(p + 1, k, 1, 3), act(p + 1, g, 2, 3), diff(p, 3))]
            return out

        return cx._is_exact(field, lo, hi, lambda p: sum(size(p)), rows)

    return all(exact_at(o) for o in jcat.objects)


def is_bicartesian(s):
    """Whether the square is bicartesian, read off its total cofiber.

    The derivator is stable, so a square is cartesian iff it is cocartesian
    iff its total cofiber is acyclic, and by Der 2 and Der 4 this is decided
    fibre by fibre over J (Groth, "Derivators, pointed derivators and
    stable derivators", AGT 2013).  kf = gh holds strictly, so diag(h, k)
    is a chain map cone(f) → cone(g), and the total cofiber is its cone:
    Tot^p = X₀₀^{p+2} ⊕ X₀₁^{p+1} ⊕ X₁₀^{p+1} ⊕ X₁₁^p with block rows
    [d₀₀ | 0 | 0 | 0], [−f | −d₀₁ | 0 | 0], [h | 0 | −d₁₀ | 0] and
    [0 | k | g | d₁₁].  Those blocks are the matrices of the complex over
    □ × J itself, so no fibre is restricted and no Kan extension, structure
    map or cone is built: each rank is taken of rows written from those
    blocks (see _total_cofiber_is_acyclic)."""
    x = s.complex if isinstance(s, SquareObject) else s
    return _total_cofiber_is_acyclic(x, diagram.square(),
                                     ((0, 0), (0, 1), (1, 0), (1, 1)))


# --- extension by zero and recollement -----------------------------------------


def extension_by_zero(emb, x):
    """j_! (for open emb) or i_* (for closed emb) of a complex: fibers are
    copied on the image and zero outside.  Free summands transport to free
    summands; when the bookkeeping matches exactly, free_parts carry over
    so downstream resolutions short-circuit."""
    terms = {}
    for p in x.degrees():
        terms[p] = _extend_presheaf(emb, x.term(p))
    diffs = {}
    for p in range(x.lo, x.hi):
        diffs[p] = _extend_map(emb, x.diff(p), terms[p], terms[p + 1])
    return cx.Complex(x.field, emb.target, terms, diffs)


def _extend_presheaf(emb, g):
    icat = emb.target
    inv = {emb.obj_map[x]: x for x in emb.source.objects}
    arrow_inv = {emb.arrow_map[a]: a for a in emb.source.arrows}
    dims = {y: (g.dims[inv[y]] if y in inv else 0) for y in icat.objects}
    action = {}
    for a in icat.indecomposable_arrows():
        x, y = icat.src[a], icat.tgt[a]
        if x in inv and y in inv and a in arrow_inv:
            action[a] = g.act(arrow_inv[a])
        else:
            action[a] = Matrix.zeros(g.field, dims[x], dims[y])
    out = ps.Presheaf(g.field, icat, dims, action)
    if g.free_parts is not None:
        candidate = ps.free_sum(g.field, icat, tuple(
            (v, emb.obj_map[i]) for (v, i) in g.free_parts))
        if candidate == out:
            out = candidate
    return out


def _extend_map(emb, phi, src_e, tgt_e):
    icat = emb.target
    inv = {emb.obj_map[x]: x for x in emb.source.objects}
    comps = {}
    for y in icat.objects:
        if y in inv:
            comps[y] = phi.comps[inv[y]]
        else:
            comps[y] = Matrix.zeros(phi.source.field, tgt_e.dims[y],
                                    src_e.dims[y])
    return ps.PresheafMap(src_e, tgt_e, comps)


class Recollement:
    """The six functors of a recollement along an open/closed decomposition.

    j : U → I open, i : Z → I closed, images partitioning the objects.
    j_! and i_* are extension by zero (exact), j* and i* are restrictions,
    ε : i_! i^* X → X is the counit of the derived left Kan extension, and
    j^? is given by the recollement-triangle cone formula.
    """

    def __init__(self, j, i):
        if j.target != i.target:
            raise ValueError("immersions do not share a target")
        if not diagram.is_open_immersion(j):
            raise ValueError("first functor is not an open immersion")
        if not diagram.is_closed_immersion(i):
            raise ValueError("second functor is not a closed immersion")
        im_j = set(j.obj_map.values())
        im_i = set(i.obj_map.values())
        if im_j & im_i or im_j | im_i != set(j.target.objects):
            raise ValueError("images do not partition the objects")
        self.j = j
        self.i = i

    def j_shriek(self, x):
        return extension_by_zero(self.j, x)

    def i_lower(self, x):
        return extension_by_zero(self.i, x)

    def j_upper(self, x):
        return cx.restrict_complex(self.j, x)

    def i_upper(self, x):
        return cx.restrict_complex(self.i, x)

    def counit_closed(self, x):
        """ε : i_! i^* X → X."""
        return lan_counit(self.i, x)

    def j_question(self, x):
        """j^? X := j* Cone(ε : i_! i^* X → X); returns (complex, cone data)."""
        eps = self.counit_closed(x)
        c = cx.cone(eps)
        return self.j_upper(c), (eps, c, cx.cone_inclusion(eps, c),
                                 cx.cone_projection(eps, c))

    def glue_triangles(self, x):
        """Verify the two recollement triangles at x, fully materialized:
        T1 : i_!i^*X → X → j_!j^?X → Σ· and the degreewise short exact pair
        T2 : j_!j^*X → X → i_*i^*X.  The Hom-vanishing pinning down the
        connecting map of T1 is verified (a zero-dimensional Ext).  Returns
        T1's witnesses: cone, incl, delta and identification (j_!j^?X ≃ cone).
        """
        # T2: degreewise exact extension-by-zero sequence
        jx = self.j_upper(x)
        ix = self.i_upper(x)
        jjx = self.j_shriek(jx)
        iix = self.i_lower(ix)
        inv_j = {self.j.obj_map[o]: o for o in self.j.source.objects}
        inv_i = {self.i.obj_map[o]: o for o in self.i.source.objects}
        kappa = cx.termwise_map(jjx, x, lambda p, y: (
            Matrix.identity(x.field, x.term(p).dims[y]) if y in inv_j
            else Matrix.zeros(x.field, x.term(p).dims[y], 0)))
        pi = cx.termwise_map(x, iix, lambda p, y: (
            Matrix.identity(x.field, x.term(p).dims[y]) if y in inv_i
            else Matrix.zeros(x.field, 0, x.term(p).dims[y])))
        for p in x.degrees():
            if not ps.is_conflation(kappa.comp(p), pi.comp(p)):
                raise AssertionError("extension-by-zero sequence not exact")
        # T1: cone of the closed counit, identified with j_!j^? through the
        # open counit (a quasi-isomorphism because i* of the cone is acyclic)
        jq, (eps, c, incl, proj) = self.j_question(x)
        jjq = self.j_shriek(jq)
        eps_j = cx.termwise_map(jjq, c, lambda p, y: (
            Matrix.identity(x.field, c.term(p).dims[y]) if y in inv_j
            else Matrix.zeros(x.field, c.term(p).dims[y], 0)))
        if not cx.is_quasi_iso(eps_j):
            raise AssertionError("open counit at the cone is not invertible")
        if not cx.is_acyclic(self.i_upper(c)):
            raise AssertionError("closed restriction of the cone not acyclic")
        witnesses = {"cone": c, "incl": incl, "delta": proj,
                     "identification": eps_j}
        dim, _ = cx.ext(eps.source, jjq, -1)
        if dim != 0:
            raise AssertionError("connecting map is not pinned down")
        return witnesses


def product_recollement(icat):
    """The recollement of I × Δ1 along I × {1} (open) and I × {0} (closed).

    Returns (Recollement, closed embedding, open embedding)."""
    d1 = diagram.delta(1)
    prod = diagram.product(icat, d1)

    def emb(end):
        omap = {x: (x, end) for x in icat.objects}
        amap = {a: prod.pair_arrow[(a, d1.identity[end])] for a in icat.arrows}
        return diagram.DiagFunctor(icat, prod, omap, amap, validate=False)

    closed = emb(0)
    open_ = emb(1)
    return Recollement(open_, closed), closed, open_


def suspension_via_recollement(x):
    """Σx computed as j^? i_* x in the recollement of I × Δ1, together with
    a quasi-isomorphism witness onto shift(x, 1)."""
    rec, _, _ = product_recollement(x.shape)
    y = rec.i_lower(x)
    eps = rec.counit_closed(y)
    r = rec.j_upper(cx.cone(eps))
    # the resolution the counit used, of i^* i_* x (equal to x but never
    # recorded free, so x itself could resolve differently)
    p, rho = cx.proj_resolution(rec.i_upper(y))
    sp = cx.shift(p, 1)
    ident = cx.termwise_map(r, sp, lambda deg, o: Matrix.identity(
        x.field, sp.term(deg).dims[o])).validate()
    witness = cx.shift_map(rho, 1).compose(ident)
    return r, witness


def loop_via_recollement(x):
    """Ωx (the dual construction) with a witness shift(x, −1) → Ωx."""
    op = diagram.opposite(x.shape)
    xd = cx.dualize_complex(x, op)
    rd, wd = suspension_via_recollement(xd)
    # wd : rd → shift(xd, 1); dualizing gives shift(x, −1) → D(rd)
    out = cx.dualize_complex(rd)
    witness = cx.dualize_chain_map(wd)
    return out, witness


# --- standard triangles ---------------------------------------------------------


class StandardTriangle:
    """The triangle X → Y → Z → ΣX extracted from a bicartesian square
    with acyclic lower-left corner, with its δ-class and the cone-route
    cross-check.  Every bicartesian verdict behind it is the total-cofiber
    criterion of stable derivators (`_total_cofiber_is_acyclic`)."""

    def __init__(self, delta_class, cone_class):
        self.delta_class = delta_class
        self.cone_class = cone_class

    @property
    def matches_cone(self):
        return self.delta_class == self.cone_class


def standard_triangle(s):
    """Extract the standard distinguished triangle of a bicartesian square
    whose (1,0) corner is acyclic; cross-check δ against the cone route.

    The square and the three sub-squares of
    P = (i_squarearrow)_! (i_square)_* F are checked bicartesian by their
    total cofibers: in a stable derivator cartesian, cocartesian and an
    acyclic total cofiber are one condition (Groth, AGT 2013), so no Kan
    unit is built.  Each total cofiber, Tot^p = X₀₀^{p+2} ⊕ X₀₁^{p+1} ⊕
    X₁₀^{p+1} ⊕ X₁₁^p with block rows [d₀₀ | 0 | 0 | 0],
    [−f | −d₀₁ | 0 | 0], [h | 0 | −d₁₀ | 0] and [0 | k | g | d₁₁], is read
    off the matrices of F or of P over the corners, so no sub-square of P
    is restricted and no fibre, structure map or cone is built for it."""
    x_sq = s.complex if isinstance(s, SquareObject) else s
    sq = SquareObject(x_sq) if not isinstance(s, SquareObject) else s
    base = sq.base
    if not is_bicartesian(sq):
        raise ValueError("square is not bicartesian")
    w0 = fiber_complex(x_sq, (1, 0))
    if not cx.is_acyclic(w0):
        raise ValueError("the (1,0) corner is not acyclic")
    xf = fiber_complex(x_sq, (0, 0))
    zf = fiber_complex(x_sq, (1, 1))
    sqcat = diagram.square()
    f = structure_map(x_sq, sqcat.hom((0, 1), (0, 0))[0])
    g = structure_map(x_sq, sqcat.hom((1, 1), (0, 1))[0])

    # P := (i_squarearrow)_! (i_square)_* F over twosquare × J
    _, incl_sa = diagram.squarearrow()
    v_emb = diagram.times_base(diagram.square_into_squarearrow(), base)
    w_emb = diagram.times_base(incl_sa, base)
    f_sa = extension_by_zero(v_emb, x_sq)
    rsa, rho_sa = cx.proj_resolution(f_sa)
    p_big = transport_complex(w_emb, rsa)

    # polycartesian audit: the three sub-squares of P are bicartesian
    ts = diagram.twosquare()
    for cols in ((0, 1), (1, 2), (0, 2)):
        corners = tuple((a, cols[b]) for a in (0, 1) for b in (0, 1))
        if not _total_cofiber_is_acyclic(p_big, ts, corners):
            raise AssertionError("sub-square at columns %r not bicartesian" % (cols,))

    # zig-zag identifying P_12 with ΣX
    xprime = fiber_complex(p_big, (0, 0))
    za = fiber_complex(p_big, (0, 2))     # acyclic top-right
    zb = fiber_complex(p_big, (1, 0))     # acyclic bottom-left
    if not (cx.is_acyclic(za) and cx.is_acyclic(zb)):
        raise AssertionError("outer-corner fibers are not acyclic")
    u_top = structure_map(p_big, ts.hom((0, 2), (0, 0))[0])
    v_left = structure_map(p_big, ts.hom((1, 0), (0, 0))[0])
    g_a = structure_map(p_big, ts.hom((1, 2), (0, 2))[0])
    g_b = structure_map(p_big, ts.hom((1, 2), (1, 0))[0])
    zab = cx.direct_sum_complex(za, zb)
    lam = cx.termwise_map(xprime, zab, lambda p, o: linalg.vstack(
        x_sq.field, [u_top.comp(p).comps[o], v_left.comp(p).comps[o]]))
    m = cx.cone(lam)
    p12 = fiber_complex(p_big, (1, 2))
    kappa = cx.termwise_map(m, p12, lambda p, o: linalg.hstack(x_sq.field, [
        Matrix.zeros(x_sq.field, p12.term(p).dims[o],
                     xprime.term(p + 1).dims[o]),
        g_a.comp(p).comps[o],
        -g_b.comp(p).comps[o]]))
    if not cx.is_quasi_iso(kappa):
        raise AssertionError("total-cofiber comparison is not invertible")

    # δ via the standard route: Z ≃ P_11 → P_12 ≃ M ≃ ΣX' ≃ ΣX
    _, rho_z = cx.proj_resolution(zf)
    q_z = point_restriction(rho_sa, (1, 1))
    lifted = cx.lift_through_qis(rho_z, q_z)
    if lifted is None:
        raise AssertionError("fiber comparison fails to lift")
    lam1, _ = lifted
    f2 = structure_map(p_big, ts.hom((1, 2), (1, 1))[0])
    mu = f2.compose(lam1)
    lifted2 = cx.lift_through_qis(mu, kappa)
    if lifted2 is None:
        raise AssertionError("lift through the total cofiber fails")
    lam2, _ = lifted2
    c_x = point_restriction(rho_sa, (0, 0))
    delta_rep = cx.shift_map(c_x, 1).compose(
        cx.cone_projection(lam, m)).compose(lam2)
    delta_class = cx.ext_coordinates(zf, xf, 1, delta_rep)
    if delta_class is None:
        raise AssertionError("δ representative is not a cocycle")

    # cone route: identify Z with cone(f) and read off the projection class
    h = cx.homotopy_solve(g.compose(f))
    if h is None:
        raise AssertionError("gf admits no nullhomotopy")
    cf = cx.cone(f)
    phi = cx.termwise_map(cf, zf, lambda p, o: linalg.hstack(
        x_sq.field, [h.comp(p + 1).comps[o], g.comp(p).comps[o]]))
    if not cx.is_quasi_iso(phi):
        raise AssertionError("cone comparison is not invertible")
    lifted3 = cx.lift_through_qis(rho_z, phi)
    if lifted3 is None:
        raise AssertionError("lift through the cone comparison fails")
    lam3, _ = lifted3
    cone_rep = cx.cone_projection(f, cf).compose(lam3)
    cone_class = cx.ext_coordinates(zf, xf, 1, cone_rep)
    return StandardTriangle(delta_class, cone_class)
