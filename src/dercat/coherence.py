"""Incoherent diagrams, the diagram functor, coherence lifting and derived
extension of tensor functors.

An incoherent diagram assigns a complex over the base to every object of
the index category and a chain map to every arrow, functorial only up to
recorded homotopies.  Lifting proceeds by the free-object tower: resolve
every value, form the layers P̃^l = ⊕_{chains of length l} i₀!(R_end)
with the alternating face maps ũ^l, and descend by iterated cones, solving
a homotopy system at every stage.  The Toda conditions (vanishing of
negative-degree Homs between the values) guarantee every system is
solvable; failures after a passing check are invariant violations.
"""

from . import linalg
from .linalg import Matrix
from . import diagram
from . import presheaf as ps
from . import complexes as cx
from . import derivator as dv

# _lift_data shares its results, which are never changed; it keeps at most
# this many and recomputes one it dropped
LIFT_CACHE_SIZE = 256


class IncoherentDiagram:
    """A homotopy-functorial presheaf of complexes on the index category.

    values[i] is a complex over the base; maps[a] : values[y] → values[x]
    for every non-identity arrow a : x → y; witnesses[(b, a)] is a homotopy
    between maps[a]∘maps[b] and maps[b∘a] for composable non-identity
    pairs whose composite is again non-identity.  Missing witnesses are
    computed on validation.
    """

    def __init__(self, shape, base, values, maps, witnesses=None):
        self.shape = shape
        self.base = base
        self.values = dict(values)
        self.maps = dict(maps)
        self.witnesses = dict(witnesses) if witnesses else {}
        fields = {v.field for v in self.values.values()}
        if len(fields) != 1:
            raise ValueError("values live over different fields")
        self.field = fields.pop()
        # what equality ignores, for memo keys
        self.recorded = (shape.recorded, base.recorded,
                         tuple(self.values[i].recorded for i in shape.objects))

    def value(self, i):
        return self.values[i]

    def map(self, a):
        return self.maps[a]

    def composable_pairs(self):
        out = []
        for a in self.shape.nonidentity_arrows():
            for b in self.shape.nonidentity_arrows():
                if self.shape.tgt[a] == self.shape.src[b]:
                    out.append((a, b))
        return out

    def validate(self):
        for i in self.shape.objects:
            if self.values[i].shape != self.base:
                raise ValueError("value at %r is not over the base" % (i,))
        for a in self.shape.nonidentity_arrows():
            f = self.maps[a]
            if f.source != self.values[self.shape.tgt[a]] or \
                    f.target != self.values[self.shape.src[a]]:
                raise ValueError("map at %r has wrong endpoints" % (a,))
            f.validate()
        for (a, b) in self.composable_pairs():
            comp = self.shape.compose(b, a)
            lhs = self.map(a).compose(self.map(b))
            rhs = self.map(comp)
            key = (a, b)
            if key not in self.witnesses:
                h = cx.homotopy_solve(lhs, rhs)
                if h is None:
                    raise ValueError("no composition witness for %r∘%r" % (b, a))
                self.witnesses[key] = h
            elif not self.witnesses[key].witnesses(lhs, rhs):
                raise ValueError("composition witness for %r∘%r fails" % (b, a))
        return self

    def _key(self):
        return (self.shape, self.base,
                tuple(self.values[i] for i in self.shape.objects),
                tuple(self.maps[a] for a in self.shape.nonidentity_arrows()))

    def __eq__(self, other):
        return isinstance(other, IncoherentDiagram) and \
            self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def dia(x):
    """The underlying incoherent diagram of a complex over I × J:
    fibers and structure maps, strictly functorial (zero witnesses)."""
    prod = x.shape
    if prod.product_of is None:
        raise ValueError("shape does not factor as a product")
    icat, base = prod.product_of
    fibers = dv.Fibers(x)
    values = {i: fibers.fiber(i) for i in icat.objects}
    maps = {a: fibers.structure_map(a) for a in icat.nonidentity_arrows()}
    d = IncoherentDiagram(icat, base, values, maps)
    return _strict_witnesses(d)


def _strict_witnesses(d):
    """Attach zero homotopies to a diagram whose maps compose on the nose."""
    for (a, b) in d.composable_pairs():
        src = d.map(b).source
        tgt = d.map(d.shape.compose(b, a)).target
        d.witnesses[(a, b)] = cx.Homotopy(src, tgt, {})
    return d


class TodaReport:
    """Pairwise table of dim Hom(Σ^n f_i, g_j) for n > 0."""

    def __init__(self, table, witnesses):
        self.table = table
        self.witnesses = witnesses

    @property
    def passes(self):
        return not self.witnesses

    def __repr__(self):
        verdict = "pass" if self.passes else \
            "fail at %r" % (self.witnesses[:3],)
        return "<TodaReport %s, %d entries>" % (verdict, len(self.table))


def toda_check(f, g):
    """Check Hom(Σ^n f_i, g_j) = 0 for all pairs and all n in the complete
    range 0 < n ≤ (width of f_i) + gldim(base)."""
    if f.base != g.base or f.field != g.field:
        raise ValueError("diagrams live over different bases")
    gl = diagram.max_chain_length(f.base)
    table = {}
    witnesses = []
    for i in f.shape.objects:
        fi = f.values[i]
        for j in g.shape.objects:
            gj = g.values[j]
            if fi.is_zero() or gj.is_zero():
                continue
            bound = max(0, fi.hi - gj.lo + gl)
            for n in range(1, bound + 1):
                dim, _ = cx.ext(fi, gj, -n)
                table[(i, j, n)] = dim
                if dim != 0:
                    witnesses.append((i, j, n))
    return TodaReport(table, witnesses)


# --- the lifting tower -------------------------------------------------------


def _enumerate_chains(icat, length):
    """Composable tuples of non-identity arrows of the given length, as
    (start, arrows, end), in deterministic order."""
    if length == 0:
        return [(i, (), i) for i in icat.objects]
    shorter = _enumerate_chains(icat, length - 1)
    out = []
    for (start, arrows, end) in shorter:
        for a in icat.nonidentity_arrows():
            if icat.src[a] == end:
                out.append((start, arrows + (a,), icat.tgt[a]))
    return out


class _Layer:
    """One layer P̃^l = ⊕_chains i₀!(R_end) with its part bookkeeping."""

    def __init__(self, prod, chains, resolutions):
        self.chains = chains
        pieces = []
        for (start, _, end) in chains:
            ff = dv.fiber_functor(prod, start)
            pieces.append(dv.transport_complex(ff, resolutions[end]))
        acc = pieces[0]
        for p in pieces[1:]:
            acc = cx.direct_sum_complex(acc, p)
        self.complex = acc
        self.pieces = pieces

    def chain_part_offset(self, deg, chain_idx):
        """Index of the first free part of the given chain's block in the
        layer's term at deg."""
        off = 0
        for k in range(chain_idx):
            off += len(self.pieces[k].term(deg).free_parts)
        return off


def _face_map(icat, base, prod, layer_l, layer_prev, resolutions, arrow_lifts,
              length):
    """The alternating face map ũ^l : P̃^l → P̃^{l−1}."""
    field = layer_l.complex.field
    chain_index_prev = {c: k for k, c in enumerate(layer_prev.chains)}
    sign_minus = field.of_int(-1)
    comps = {}
    for deg in layer_l.complex.degrees():
        src_term = layer_l.complex.term(deg)
        tgt_term = layer_prev.complex.term(deg)
        vals = []
        for (start, arrows, end) in layer_l.chains:
            rparts = resolutions[end].term(deg).free_parts
            a1 = arrows[0]
            i1 = icat.tgt[a1]
            tail = (i1, arrows[1:], end)
            head = (start, arrows[:-1], icat.src[arrows[-1]])
            tail_off = layer_prev.chain_part_offset(deg, chain_index_prev[tail])
            head_off = layer_prev.chain_part_offset(deg, chain_index_prev[head])
            inner = []
            for k in range(1, length):
                comp_arrow = icat.compose(arrows[k], arrows[k - 1])
                merged = (start, arrows[:k - 1] + (comp_arrow,) + arrows[k + 1:],
                          end)
                inner.append((k, layer_prev.chain_part_offset(
                    deg, chain_index_prev[merged])))
            last_sign = field.one if length % 2 == 0 else sign_minus
            rhead = resolutions[icat.src[arrows[-1]]].term(deg)
            lift_vals = ps.free_values_of(arrow_lifts[arrows[-1]].comp(deg))
            for lp, (v, mm) in enumerate(rparts):
                at = (start, mm)
                pos = {key: (o, w)
                       for key, o, w in ps._part_offsets(tgt_term, at)}
                rows = [[field.zero] * v for _ in range(tgt_term.dims[at])]
                id_arrow = prod.identity[at]

                def add(off, mat, scalar):
                    for r in range(mat.rows):
                        for c in range(mat.cols):
                            e = mat.entries[r][c]
                            if e != field.zero:
                                rows[off + r][c] = field.add(
                                    rows[off + r][c], field.mul(scalar, e))

                # face 0: drop the first arrow, reindex along it
                g0 = prod.pair_arrow[(a1, base.identity[mm])]
                o0, _ = pos[(tail_off + lp, g0)]
                add(o0, Matrix.identity(field, v), field.one)
                # inner faces: compose consecutive arrows
                for k, moff in inner:
                    ok, _ = pos[(moff + lp, id_arrow)]
                    sgn = field.one if k % 2 == 0 else sign_minus
                    add(ok, Matrix.identity(field, v), sgn)
                # last face: apply the lifted arrow map
                val = lift_vals[lp]
                for (hlp, b), roff, w in ps._part_offsets(rhead, mm):
                    sub = val.submatrix(range(roff, roff + w), range(v))
                    gk = prod.pair_arrow[(icat.identity[start], b)]
                    ok, _ = pos[(head_off + hlp, gk)]
                    add(ok, sub, last_sign)
                vals.append(Matrix(field, tgt_term.dims[at], v, rows))
        comps[deg] = ps.free_map_to(src_term, tgt_term, vals)
    return cx.ChainMap(layer_l.complex, layer_prev.complex, comps, validate=True)


class LiftCertificate:
    """Witnesses that a lifted complex restricts to the input diagram."""

    def __init__(self, lift, diagram_, fiber_maps, arrow_homotopies):
        self.lift = lift
        self.diagram = diagram_
        self.fiber_maps = fiber_maps
        self.arrow_homotopies = arrow_homotopies

    def verify(self):
        """True when every fiber map is a quasi-isomorphism and every arrow
        homotopy witnesses its square; False otherwise."""
        d = self.diagram
        for q in self.fiber_maps.values():
            if not cx.is_quasi_iso(q):
                return False
        fibers = dv.Fibers(self.lift)
        for a, h in self.arrow_homotopies.items():
            x, y = d.shape.src[a], d.shape.tgt[a]
            s = fibers.structure_map(a)
            lhs = self.fiber_maps[x].compose(s)
            rhs = d.map(a).compose(self.fiber_maps[y])
            if not h.witnesses(lhs, rhs):
                return False
        return True


class _LiftData:
    """Internal record kept per lift so that morphisms can descend through
    the same tower."""

    def __init__(self, prod, res_maps, layers, stage_maps, lift, cert):
        self.prod = prod
        self.res_maps = res_maps
        self.layers = layers
        self.stage_maps = stage_maps
        self.lift = lift
        self.cert = cert


def lift_object(f):
    """Lift an incoherent diagram to an honest complex over I × base.

    Returns (complex, LiftCertificate).  Refuses when the Toda self-check
    fails; a failing homotopy system after a passing check is an invariant
    violation and raises."""
    data = _lift_data(f)
    return data.lift, data.cert


@diagram.memo(LIFT_CACHE_SIZE)
def _lift_data(f):
    f.validate()
    icat, base, field = f.shape, f.base, f.field
    prod = diagram.product(icat, base)
    if not icat.nonidentity_arrows():
        return _lift_discrete(f, prod)
    report = toda_check(f, f)
    if not report.passes:
        raise ValueError("Toda condition fails at %r" % (report.witnesses[:3],))

    resolutions, res_maps, arrow_lifts = {}, {}, {}
    for i in icat.objects:
        resolutions[i], res_maps[i] = cx.proj_resolution(f.values[i])
    for a in icat.nonidentity_arrows():
        x, y = icat.src[a], icat.tgt[a]
        lifted = cx.lift_through_qis(f.map(a).compose(res_maps[y]), res_maps[x])
        if lifted is None:
            raise AssertionError("arrow lift failed at %r" % (a,))
        arrow_lifts[a] = lifted[0]

    # a non-identity arrow gives chains of every length up to max_len ≥ 1
    max_len = diagram.max_chain_length(icat)
    layers = [_Layer(prod, _enumerate_chains(icat, l), resolutions)
              for l in range(max_len + 1)]
    faces = {l: _face_map(icat, base, prod, layers[l], layers[l - 1],
                          resolutions, arrow_lifts, l)
             for l in range(1, max_len + 1)}

    phi = faces[max_len]
    stage_maps = [phi]
    for l in range(max_len - 1, 0, -1):
        x = cx.cone(phi)
        composite = faces[l].compose(phi)
        h = cx.homotopy_solve(composite)
        if h is None:
            raise AssertionError("tower descent obstruction at stage %d" % l)
        phi = cx.termwise_map(x, layers[l - 1].complex, lambda p, o: (
            linalg.hstack(field, [h.comp(p + 1).comp(o),
                                  faces[l].comp(p).comp(o)]))).validate()
        stage_maps.append(phi)
    lift = cx.cone(phi)

    cert = _certify(f, prod, lift, layers[0], resolutions, res_maps)
    return _LiftData(prod, res_maps, layers, stage_maps, lift, cert)


def _lift_discrete(f, prod):
    """No non-identity arrows: embed the values directly."""
    icat, field = f.shape, f.field
    lo = min((f.values[i].lo for i in icat.objects))
    hi = max((f.values[i].hi for i in icat.objects))
    terms, diffs = {}, {}
    for p in range(lo, hi + 1):
        dims = {(i, m): f.values[i].term(p).dims[m] for (i, m) in prod.objects}
        action = {}
        for a in prod.indecomposable_arrows():
            _, bb = prod.pair_of[a]
            i = prod.src[a][0]
            action[a] = f.values[i].term(p).act(bb)
        terms[p] = ps.Presheaf(field, prod, dims, action)
    for p in range(lo, hi):
        diffs[p] = ps.PresheafMap(terms[p], terms[p + 1], {
            (i, m): f.values[i].diff(p).comps[m] for (i, m) in prod.objects})
    lift = cx.Complex(field, prod, terms, diffs)
    fiber_maps = {}
    for i in icat.objects:
        fiber_maps[i] = cx.termwise_map(
            dv.fiber_complex(lift, i), f.values[i],
            lambda p, m: Matrix.identity(field, f.values[i].term(p).dims[m]))
    cert = LiftCertificate(lift, f, fiber_maps, {})
    return _LiftData(prod, {}, [], [], lift, cert)


def _certify(f, prod, lift, layer0, resolutions, res_maps):
    """Build the per-object comparisons and per-arrow homotopies."""
    icat, base, field = f.shape, f.base, f.field
    fiber_maps, arrow_h = {}, {}
    obj_chain_idx = {c[0]: k for k, c in enumerate(layer0.chains)}
    fibers = dv.Fibers(lift)
    for i in icat.objects:
        fib = fibers.fiber(i)
        r = resolutions[i]
        comps = {}
        for p in r.degrees():
            base_term = layer0.complex.term(p)
            upper = {m: lift.term(p).dims[(i, m)] - base_term.dims[(i, m)]
                     for m in base.objects}
            coff = layer0.chain_part_offset(p, obj_chain_idx[i])
            nparts = len(resolutions[i].term(p).free_parts)
            mats = {}
            for m in base.objects:
                if not (r.term(p).dims[m] and fib.term(p).dims[m]):
                    mats[m] = Matrix.zeros(field, fib.term(p).dims[m],
                                           r.term(p).dims[m])
                    continue
                rows = [[field.zero] * r.term(p).dims[m]
                        for _ in range(fib.term(p).dims[m])]
                rpos = {key: (o, w) for key, o, w in
                        ps._part_offsets(r.term(p), m)}
                for (gpart, g), off, w in ps._part_offsets(base_term, (i, m)):
                    if not (coff <= gpart < coff + nparts):
                        continue
                    _, bb = prod.pair_of[g]
                    lo_, _ = rpos[(gpart - coff, bb)]
                    for t in range(w):
                        rows[upper[m] + off + t][lo_ + t] = field.one
                mats[m] = Matrix(field, fib.term(p).dims[m],
                                 r.term(p).dims[m], rows)
            comps[p] = ps.PresheafMap(r.term(p), fib.term(p), mats)
        iota = cx.ChainMap(r, fib, comps, validate=True)
        if not cx.is_quasi_iso(iota):
            raise AssertionError("layer inclusion at %r not invertible" % (i,))
        extended = cx.extend_along_qis(res_maps[i], iota)
        if extended is None:
            raise AssertionError("fiber comparison at %r unsolvable" % (i,))
        fiber_maps[i] = extended[0]
    for a in icat.nonidentity_arrows():
        x, y = icat.src[a], icat.tgt[a]
        s = fibers.structure_map(a)
        lhs = fiber_maps[x].compose(s)
        rhs = f.map(a).compose(fiber_maps[y])
        h = cx.homotopy_solve(lhs, rhs)
        if h is None:
            raise AssertionError("arrow comparison at %r unsolvable" % (a,))
        arrow_h[a] = h
    return LiftCertificate(lift, f, fiber_maps, arrow_h)


def _tower_map(data, y, phis):
    """The chain map lift → y out of the lifting tower recorded in data.

    On the layer-0 summand of object i it is the adjunct ε₀ of
    phis[i] : R_i → y_i; on lift = cone(last stage map φ) it is [h, ε₀]
    with ε₀∘φ = dh + hd.  None when ε₀∘φ has no nullhomotopy."""
    field = y.field
    layer0 = data.layers[0]
    adjuncts = [dv.adjunct_chain_map(dv.fiber_functor(data.prod, start),
                                     phis[start], y, src_t=piece)
                for (start, _, _), piece in zip(layer0.chains, layer0.pieces)]
    eps = cx.termwise_map(layer0.complex, y, lambda p, o: linalg.hstack(
        field, [a.comp(p).comp(o) for a in adjuncts]))
    h = cx.homotopy_solve(eps.compose(data.stage_maps[-1]))
    if h is None:
        return None
    return cx.termwise_map(data.lift, y, lambda p, o: linalg.hstack(
        field, [h.comp(p + 1).comp(o), eps.comp(p).comp(o)]))


def lift_comparison(x):
    """The comparison map lift(dia x) → x for a complex x over I × J, built
    from the tower out of the resolutions R_i → x_i; None when the tower
    admits no such map."""
    data = _lift_data(dia(x))
    if not data.layers:
        # no non-identity arrows: _lift_discrete rebuilds x itself
        return cx.identity_chain_map(x)
    return _tower_map(data, x, data.res_maps)


def lift_morphism(f, g, phi):
    """Lift a family φ_i : f_i → g_i commuting with the diagram maps up to
    homotopy to a chain map between the lifted complexes.

    Returns (chain map, per-object homotopy witnesses comparing its
    underlying diagram with φ)."""
    ftoda = toda_check(f, g)
    if not ftoda.passes:
        raise ValueError("Toda condition fails at %r" % (ftoda.witnesses[:3],))
    df = _lift_data(f)
    dg = _lift_data(g)
    icat, field = f.shape, f.field
    prod = df.prod
    if not icat.nonidentity_arrows():
        comps = {}
        for p in set(df.lift.degrees()) | set(dg.lift.degrees()):
            comps[p] = ps.PresheafMap(df.lift.term(p), dg.lift.term(p), {
                (i, m): phi[i].comp(p).comps[m] for (i, m) in prod.objects})
        m = cx.ChainMap(df.lift, dg.lift, comps, validate=True)
        return m, _morphism_witnesses(f, g, phi, df, dg, m)
    # lift the components to the resolutions
    comp_lifts = {}
    for i in icat.objects:
        lifted = cx.lift_through_qis(phi[i].compose(df.res_maps[i]),
                                     dg.res_maps[i])
        if lifted is None:
            raise AssertionError("component lift failed at %r" % (i,))
        comp_lifts[i] = lifted[0]
    # block-diagonal layer maps
    layer_maps = []
    for lf, lg in zip(df.layers, dg.layers):
        pieces = []
        for (start, _, end), pf, pg in zip(lf.chains, lf.pieces,
                                           lg.pieces):
            ff = dv.fiber_functor(prod, start)
            pieces.append(dv.transport_chain_map(ff, comp_lifts[end], pg,
                                                 src_t=pf))
        layer_maps.append(_block_diagonal(lf.complex, lg.complex, pieces))
    max_len = len(df.layers) - 1
    psi = layer_maps[max_len]
    for stage, l in enumerate(range(max_len, 0, -1)):
        phi_f = df.stage_maps[stage]
        phi_g = dg.stage_maps[stage]
        h = cx.homotopy_solve(layer_maps[l - 1].compose(phi_f),
                              phi_g.compose(psi))
        if h is None:
            raise AssertionError("morphism descent obstruction at %d" % l)
        def comp(p, o):
            a11 = psi.comp(p + 1).comp(o)
            a22 = layer_maps[l - 1].comp(p).comp(o)
            return linalg.block(field, [
                [a11, Matrix.zeros(field, a11.rows, a22.cols)],
                [h.comp(p + 1).comp(o), a22]])
        psi = cx.termwise_map(cx.cone(phi_f), cx.cone(phi_g),
                              comp).validate()
    return psi, _morphism_witnesses(f, g, phi, df, dg, psi)


def _block_diagonal(src, tgt, pieces):
    return cx.termwise_map(src, tgt, lambda p, o: linalg.direct_sum_many(
        src.field, [pc.comp(p).comp(o) for pc in pieces]))


def _morphism_witnesses(f, g, phi, df, dg, m):
    out = {}
    for i in f.shape.objects:
        lhs = dg.cert.fiber_maps[i].compose(
            dv.point_restriction(m, i))
        rhs = phi[i].compose(df.cert.fiber_maps[i])
        h = cx.homotopy_solve(lhs, rhs)
        if h is None:
            raise AssertionError("morphism witness at %r unsolvable" % (i,))
        out[i] = h
    return out


# --- Hom comparison ----------------------------------------------------------


class HomCompareReport:
    def __init__(self, coherent_dim, incoherent_dim, bijective):
        self.coherent_dim = coherent_dim
        self.incoherent_dim = incoherent_dim
        self.bijective = bijective

    @property
    def passes(self):
        return self.bijective and self.coherent_dim == self.incoherent_dim


def hom_compare(x, z):
    """Compare Hom in the coherent and incoherent categories.

    Computes dim Hom_{D(I×J)}(x, z) and the dimension of diagram-level
    morphism families dia(x) → dia(z) (arrow compatibility modulo
    homotopy), and checks the canonical map is a bijection."""
    dx, dz = dia(x), dia(z)
    report = toda_check(dx, dz)
    if not report.passes:
        raise ValueError("Toda condition fails at %r" % (report.witnesses[:3],))
    icat = x.shape.product_of[0]
    field = x.field
    coh_dim, coh_reps = cx.ext(x, z, 0)
    # incoherent side: families of Ext^0 classes with arrow compatibility
    obj_basis, obj_offsets = {}, {}
    total = 0
    for i in icat.objects:
        dim, reps = cx.ext(dx.values[i], dz.values[i], 0)
        obj_basis[i] = reps
        obj_offsets[i] = total
        total += dim
    rows = []
    for a in icat.nonidentity_arrows():
        i, j = icat.src[a], icat.tgt[a]
        xa = dx.map(a)
        za = dz.map(a)
        lifted = cx.lift_through_qis(
            xa.compose(cx.proj_resolution(dx.values[j])[1]),
            cx.proj_resolution(dx.values[i])[1])
        if lifted is None:
            raise AssertionError("arrow lift failed at %r" % (a,))
        xa_res = lifted[0]
        cols = {}
        for k, r in enumerate(obj_basis[i]):
            coords = cx.ext_coordinates(dx.values[j], dz.values[i], 0,
                                        r.compose(xa_res))
            cols[obj_offsets[i] + k] = coords
        for k, r in enumerate(obj_basis[j]):
            coords = cx.ext_coordinates(dx.values[j], dz.values[i], 0,
                                        za.compose(r))
            cols[obj_offsets[j] + k] = [field.neg(c) for c in coords]
        height = len(cx.ext(dx.values[j], dz.values[i], 0)[1])
        block_rows = [[field.zero] * total for _ in range(height)]
        for col, coords in cols.items():
            for r_, c_ in enumerate(coords):
                block_rows[r_][col] = field.add(block_rows[r_][col], c_)
        rows.extend(block_rows)
    constraint = Matrix(field, len(rows), total, rows) if rows and total \
        else Matrix.zeros(field, len(rows), total)
    sol_basis = linalg.kernel_basis(constraint)
    inc_dim = sol_basis.cols
    # canonical map: restrict each coherent basis class to its family,
    # through the lift of R(x_i) → x_i along the fiber of P(x) → x
    vecs = [[field.zero] * total for _ in coh_reps]
    rho_x = cx.proj_resolution(x)[1]
    for i in icat.objects if coh_reps else ():
        lifted = cx.lift_through_qis(cx.proj_resolution(dx.values[i])[1],
                                     dv.point_restriction(rho_x, i))
        if lifted is None:
            raise AssertionError("fiber lift failed at %r" % (i,))
        for vec, rep in zip(vecs, coh_reps):
            coords = cx.ext_coordinates(
                dx.values[i], dz.values[i], 0,
                dv.point_restriction(rep, i).compose(lifted[0]))
            vec[obj_offsets[i]:obj_offsets[i] + len(coords)] = coords
    image_cols = [Matrix(field, total, 1, [[v] for v in vec]) for vec in vecs]
    if image_cols:
        image = linalg.hstack(field, image_cols)
        inside = all(
            linalg.solve(sol_basis, image.submatrix(
                range(total), [k])) is not None
            for k in range(image.cols))
        bij = inside and linalg.rank(image) == coh_dim == inc_dim
    else:
        bij = (coh_dim == inc_dim == 0)
    return HomCompareReport(coh_dim, inc_dim, bij)


# --- derived extension of tensor functors ------------------------------------


def tensor_with_kernel(a, kernel):
    """A ⊗ K for a complex A of vector spaces (over the one-point shape)
    and a kernel complex K, with the usual sign rule."""
    e_obj = a.shape.objects[0]
    field = kernel.field
    shape = kernel.shape
    if a.is_zero():
        return cx.zero_complex(field, shape)
    lo = a.lo + kernel.lo
    hi = a.hi + kernel.hi
    terms, diffs = {}, {}
    layout = {}
    for n in range(lo, hi + 1):
        parts = []
        for p in a.degrees():
            d = a.term(p).dims[e_obj]
            for r in range(d):
                parts.append((p, r))
        layout[n] = [(p, r) for (p, r) in parts
                     if kernel.lo <= n - p <= kernel.hi]
        terms[n] = ps.direct_sum_many(field, shape, [
            kernel.term(n - p) for (p, _) in layout[n]])
    for n in range(lo, hi):
        src_parts = layout[n]
        tgt_parts = layout[n + 1]
        mats = {}
        for o in shape.objects:
            srcdim = terms[n].dims[o]
            tgtdim = terms[n + 1].dims[o]
            if not (srcdim and tgtdim):
                mats[o] = Matrix.zeros(field, tgtdim, srcdim)
                continue
            rows = [[field.zero] * srcdim for _ in range(tgtdim)]
            soff = 0
            toffs = {}
            off = 0
            for (p, r) in tgt_parts:
                toffs[(p, r)] = off
                off += kernel.term(n + 1 - p).dims[o]
            for (p, r) in src_parts:
                w = kernel.term(n - p).dims[o]
                # Koszul: d(x ⊗ k) = dx ⊗ k + (−1)^p x ⊗ dk
                da = a.diff(p).comps.get(e_obj)
                if da is not None:
                    for r2 in range(da.rows):
                        c = da.entries[r2][r]
                        if c != field.zero and (p + 1, r2) in toffs:
                            t0 = toffs[(p + 1, r2)]
                            for t in range(w):
                                rows[t0 + t][soff + t] = field.add(
                                    rows[t0 + t][soff + t], c)
                if (p, r) in toffs:
                    sgn = field.one if p % 2 == 0 else field.of_int(-1)
                    dk = kernel.diff(n - p).comp(o)
                    t0 = toffs[(p, r)]
                    for r2 in range(dk.rows):
                        for c2 in range(dk.cols):
                            v = dk.entries[r2][c2]
                            if v != field.zero:
                                rows[t0 + r2][soff + c2] = field.add(
                                    rows[t0 + r2][soff + c2],
                                    field.mul(sgn, v))
                soff += w
            mats[o] = Matrix(field, tgtdim, srcdim, rows)
        diffs[n] = ps.PresheafMap(terms[n], terms[n + 1], mats)
    return cx.Complex(field, shape, terms, diffs)


def tensor_map_with_kernel(fmap, kernel, src=None, tgt=None):
    """f ⊗ id_K for a chain map of vector-space complexes; src and tgt,
    when given, are its ends tensored with the kernel."""
    e_obj = fmap.source.shape.objects[0]
    field = kernel.field
    if src is None:
        src = tensor_with_kernel(fmap.source, kernel)
    if tgt is None:
        tgt = tensor_with_kernel(fmap.target, kernel)
    comps = {}
    for n in set(src.degrees()) | set(tgt.degrees()):
        mats = {}
        src_parts = [(p, r) for p in fmap.source.degrees()
                     for r in range(fmap.source.term(p).dims[e_obj])
                     if kernel.lo <= n - p <= kernel.hi]
        tgt_parts = [(p, r) for p in fmap.target.degrees()
                     for r in range(fmap.target.term(p).dims[e_obj])
                     if kernel.lo <= n - p <= kernel.hi]
        for o in kernel.shape.objects:
            if not (src.term(n).dims[o] and tgt.term(n).dims[o]):
                mats[o] = Matrix.zeros(field, tgt.term(n).dims[o],
                                       src.term(n).dims[o])
                continue
            rows = [[field.zero] * src.term(n).dims[o]
                    for _ in range(tgt.term(n).dims[o])]
            toffs, off = {}, 0
            for (p, r) in tgt_parts:
                toffs[(p, r)] = off
                off += kernel.term(n - p).dims[o]
            soff = 0
            for (p, r) in src_parts:
                w = kernel.term(n - p).dims[o]
                fm = fmap.comp(p).comps.get(e_obj)
                if fm is not None:
                    for r2 in range(fm.rows):
                        c = fm.entries[r2][r]
                        if c != field.zero:
                            t0 = toffs[(p, r2)]
                            for t in range(w):
                                rows[t0 + t][soff + t] = field.add(
                                    rows[t0 + t][soff + t], c)
                soff += w
            mats[o] = Matrix(field, tgt.term(n).dims[o],
                             src.term(n).dims[o], rows)
        comps[n] = ps.PresheafMap(src.term(n), tgt.term(n), mats)
    return cx.ChainMap(src, tgt, comps)


def kernel_toda_check(kernel):
    """Self-condition for a tensor kernel: Hom(Σ^n K, K) = 0 for n > 0."""
    gl = diagram.max_chain_length(kernel.shape)
    bound = max(0, kernel.hi - kernel.lo + gl)
    table = {}
    witnesses = []
    for n in range(1, bound + 1):
        dim, _ = cx.ext(kernel, kernel, -n)
        table[n] = dim
        if dim != 0:
            witnesses.append(n)
    return TodaReport(table, witnesses)


def _tensored(kernel, x):
    """The strict incoherent diagram i ↦ x_i ⊗ kernel over I, for a
    complex x over I × e."""
    icat = x.shape.product_of[0]
    d = dia(x)
    values = {i: tensor_with_kernel(d.values[i], kernel)
              for i in icat.objects}
    # the map of a : i → j goes from the value at j to the value at i
    maps = {a: tensor_map_with_kernel(d.maps[a], kernel,
                                      values[icat.tgt[a]], values[icat.src[a]])
            for a in icat.nonidentity_arrows()}
    return _strict_witnesses(
        IncoherentDiagram(icat, kernel.shape, values, maps))


class NotOverPointError(ValueError):
    """A complex handed to extend_functor is not over I × e."""


def extend_functor(kernel, x):
    """Apply the exact functor V ↦ V ⊗ kernel fiberwise to a complex over
    I × e and lift the result to a complex over I × J′.

    Returns (complex, LiftCertificate); the certificate's fiber maps
    compare each fiber of the complex with x_i ⊗ kernel.  Requires the
    shape of x to be a product over the one-point shape (NotOverPointError
    otherwise) and the kernel to pass its Toda self-check."""
    factors = x.shape.product_of
    if factors is None or len(factors[1].objects) != 1 or \
            factors[1].nonidentity_arrows():
        raise NotOverPointError("extension requires the one-point base")
    report = kernel_toda_check(kernel)
    if not report.passes:
        raise ValueError("kernel fails the Toda self-check at n = %r"
                         % (report.witnesses,))
    return lift_object(_tensored(kernel, x))


class ExtensionCompatReport:
    def __init__(self, passes):
        self.passes = passes


def verify_extension_compat(u, kernel, x):
    """Check restrict(u, extend(x)) ≃ extend(restrict(u, x)) for a shape
    functor u : I′ → I, over any field, by constructing the comparison.

    Let q_j be the fiber maps of extend(x)'s certificate.  When I′ has no
    non-identity arrows, the witness restrict(u, extend(x)) →
    extend(restrict(u, x)) is q_{u(i)} on the fiber at i.  Otherwise it is
    the tower map extend(restrict(u, x)) → restrict(u, extend(x)) out of
    the lifts of the resolutions R_i → x_{u(i)} ⊗ kernel through q_{u(i)}.
    passes is true when the witness exists and is a quasi-isomorphism."""
    big, cert = extend_functor(kernel, x)
    lhs = cx.restrict_complex(diagram.times_base(u, kernel.shape), big)
    e = x.shape.product_of[1]
    data = _lift_data(_tensored(
        kernel, cx.restrict_complex(diagram.times_base(u, e), x)))
    q = {i: cert.fiber_maps[u.obj_map[i]] for i in u.source.objects}
    if not u.source.nonidentity_arrows():
        w = cx.termwise_map(lhs, data.lift,
                            lambda p, o: q[o[0]].comp(p).comp(o[1]))
    else:
        w = _tower_map(data, lhs, {
            i: cx.lift_through_qis(data.res_maps[i], q[i])[0]
            for i in u.source.objects})
    return ExtensionCompatReport(w is not None and cx.is_quasi_iso(w))
