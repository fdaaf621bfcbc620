"""Presheaves of finite-dimensional vector spaces over a finite directed
category, natural transformations, conflations, and the finite-global-
dimension resolution by free objects.

Conventions (fixed once, everything downstream depends on them):
  * contravariance: an arrow a : x → y of the shape acts by
    F(a) : F_y → F_x, so a presheaf over {0 ← 1} is a representation of
    the quiver 0 → 1;
  * direct sums indexed by hom-sets follow the arrow order of the shape;
  * a "free" presheaf is a direct sum of pieces V ⊗ i with
    (V ⊗ i)_j = ⊕_{hom(j,i)} V; the pieces are recorded in free_parts so
    Kan extensions can transport them without re-deriving the structure;
  * a presheaf is presented by its generating arrows: it stores the
    action of the indecomposable arrows only, and every constructor
    builds just those.  A composite c = g∘f of shape.factorizations()
    acts by F(f)·F(g), built when act(c) is first read and kept.
    Equality and hashing read the generators alone; a memo key also
    reads what equality ignores, the presheaf's `recorded` free parts and
    its shape's product structure (see diagram.memo).
"""

from types import MappingProxyType

from . import linalg
from .linalg import Matrix
from . import diagram

# zero_presheaf, zero_map, free_at and hom_basis share their results,
# which are immutable; each keeps at most this many and recomputes one it
# dropped
PRESHEAF_CACHE_SIZE = 256


class Presheaf:
    """A functor shape° → vect, given by fiber dimensions and the action
    matrices of the indecomposable arrows, its generators.  act builds a
    composite's matrix when it is first read and keeps it; dims and action
    are read-only, and only the generators enter equality and hashing.
    recorded is what equality ignores, for memo keys."""

    __slots__ = ("field", "shape", "dims", "free_parts", "recorded", "_gens",
                 "_acts", "_hash")

    def __init__(self, field, shape, dims, action, free_parts=None, validate=False):
        """action gives at least the generators' matrices, and only those
        are kept.  With validate, action must list every non-identity
        arrow, which is checked, with functoriality, before it is cut."""
        self.field = field
        self.shape = shape
        self.dims = MappingProxyType({x: int(dims[x]) for x in shape.objects})
        if validate:
            _check_listed(self, action)
        self._acts = {a: action[a] for a in shape.indecomposable_arrows()}
        self._gens = tuple(self._acts.values())
        self.free_parts = free_parts
        self.recorded = (free_parts, shape.recorded)
        self._hash = None

    @property
    def action(self):
        """The action matrices of every non-identity arrow, as a read-only
        mapping; reading it builds every composite's."""
        return MappingProxyType({a: self.act(a)
                                 for a in self.shape.nonidentity_arrows()})

    def act(self, a):
        """Action matrix of the arrow a : x → y, a map F_y → F_x.  A
        composite c = g∘f of factorizations() acts by F(f)·F(g)."""
        m = self._acts.get(a)
        if m is None:
            shape = self.shape
            if shape.is_identity(a):
                return Matrix.identity(self.field, self.dims[shape.src[a]])
            g, f = shape.factor_of(a)
            m = self._acts[a] = self.act(f) * self.act(g)
        return m

    def validate(self):
        """Check the generators' shapes and fields, then functoriality
        through act over every composable pair, which covers every
        relation between paths."""
        _check_shapes(self, self._acts, self.shape.indecomposable_arrows())
        _check_functorial(self, self.act)
        return self

    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return all(v == 0 for v in self.dims.values())

    def _data(self):
        return (self.field, self.shape,
                tuple(self.dims[x] for x in self.shape.objects), self._gens)

    def __eq__(self, other):
        return self is other or (isinstance(other, Presheaf) and
                                 self._data() == other._data())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._data())
        return self._hash

    def __repr__(self):
        return "Presheaf(dims=%r)" % ({x: d for x, d in self.dims.items()},)


def _check_shapes(f, action, arrows):
    for a in arrows:
        m = action.get(a)
        x, y = f.shape.src[a], f.shape.tgt[a]
        if m is None or m.rows != f.dims[x] or m.cols != f.dims[y]:
            raise ValueError("action at %r missing or has wrong shape" % (a,))
        if m.field != f.field:
            raise ValueError("field mismatch at %r" % (a,))


def _check_functorial(f, act):
    cat = f.shape
    for a in cat.arrows:
        for z in cat.objects:
            for g in cat.hom(cat.tgt[a], z):
                if act(cat.compose(g, a)) != act(a) * act(g):
                    raise ValueError("functoriality fails at (%r,%r)" % (g, a))


def _check_listed(f, action):
    """The checks of a presheaf given by the matrices of every non-identity
    arrow: each present with the right shape, no other entry, and
    functoriality on the listed matrices."""
    cat = f.shape
    _check_shapes(f, action, cat.nonidentity_arrows())
    for a in action:
        if a not in cat.src or cat.is_identity(a):
            raise ValueError("action at %r names no non-identity arrow" % (a,))

    def act(a):
        if cat.is_identity(a):
            return Matrix.identity(f.field, f.dims[cat.src[a]])
        return action[a]
    _check_functorial(f, act)


class PresheafMap:
    """A natural transformation between presheaves on the same shape;
    comps is read-only."""

    __slots__ = ("source", "target", "comps", "_hash")

    def __init__(self, source, target, comps, validate=False):
        if source.shape != target.shape or source.field != target.field:
            raise ValueError("source and target live in different categories")
        self.source = source
        self.target = target
        self.comps = MappingProxyType({x: comps[x] for x in source.shape.objects})
        self._hash = None
        if validate:
            self.validate()

    def comp(self, x):
        return self.comps[x]

    def validate(self):
        cat = self.source.shape
        for x in cat.objects:
            m = self.comps[x]
            if m.rows != self.target.dims[x] or m.cols != self.source.dims[x]:
                raise ValueError("component at %r has wrong shape" % (x,))
        for a in cat.nonidentity_arrows():
            x, y = cat.src[a], cat.tgt[a]
            if self.comps[x] * self.source.act(a) != self.target.act(a) * self.comps[y]:
                raise ValueError("naturality fails at %r" % (a,))
        return self

    def compose(self, other):
        """self ∘ other."""
        if other.target != self.source:
            raise ValueError("maps not composable")
        return PresheafMap(other.source, self.target,
                           {x: self.comps[x] * other.comps[x]
                            for x in self.comps})

    def __add__(self, other):
        return PresheafMap(self.source, self.target,
                           {x: self.comps[x] + other.comps[x] for x in self.comps})

    def __sub__(self, other):
        return PresheafMap(self.source, self.target,
                           {x: self.comps[x] - other.comps[x] for x in self.comps})

    def scale(self, c):
        return PresheafMap(self.source, self.target,
                           {x: self.comps[x].scale(c) for x in self.comps})

    def is_zero(self):
        return all(m.is_zero() for m in self.comps.values())

    def is_componentwise_injective(self):
        return all(linalg.rank(m) == m.cols for m in self.comps.values())

    def is_componentwise_surjective(self):
        return all(linalg.rank(m) == m.rows for m in self.comps.values())

    def _data(self):
        return (self.source, self.target,
                tuple(self.comps[x] for x in self.source.shape.objects))

    def __eq__(self, other):
        return self is other or (isinstance(other, PresheafMap) and
                                 self._data() == other._data())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._data())
        return self._hash

    def __repr__(self):
        return "PresheafMap(%r -> %r)" % (self.source, self.target)


class Conflation:
    """A componentwise short exact pair X ↣ Y ↠ Z."""

    def __init__(self, inflation, deflation, validate=True):
        self.inflation = inflation
        self.deflation = deflation
        if validate and not is_conflation(inflation, deflation):
            raise ValueError("not a conflation")

    @property
    def sub(self):
        return self.inflation.source

    @property
    def middle(self):
        return self.inflation.target

    @property
    def quotient(self):
        return self.deflation.target


def is_conflation(i, p):
    """Componentwise kernel-cokernel pair check by rank arithmetic."""
    if i.target != p.source:
        return False
    if not i.is_componentwise_injective() or not p.is_componentwise_surjective():
        return False
    if not p.compose(i).is_zero():
        return False
    for x in i.source.shape.objects:
        if i.source.dims[x] + p.target.dims[x] != i.target.dims[x]:
            return False
    return True


# --- constructors ----------------------------------------------------------


@diagram.memo(PRESHEAF_CACHE_SIZE)
def zero_presheaf(field, shape):
    """The zero presheaf, one shared object per field and shape."""
    z = {x: 0 for x in shape.objects}
    act = {a: Matrix.zeros(field, 0, 0) for a in shape.indecomposable_arrows()}
    return Presheaf(field, shape, z, act, free_parts=())


@diagram.memo(PRESHEAF_CACHE_SIZE)
def zero_map(f, g):
    """The zero map f → g, one shared map per pair of ends."""
    return PresheafMap(f, g, {x: Matrix.zeros(f.field, g.dims[x], f.dims[x])
                              for x in f.shape.objects})


def identity_map(f):
    return PresheafMap(f, f, {x: Matrix.identity(f.field, f.dims[x])
                              for x in f.shape.objects})


@diagram.memo(PRESHEAF_CACHE_SIZE)
def free_at(field, shape, v, i):
    """The free presheaf V ⊗ i with (V ⊗ i)_j = ⊕_{hom(j,i)} V, one shared
    object per arguments."""
    if i not in shape.objects:
        raise ValueError("unknown object %r" % (i,))
    dims = {j: v * len(shape.hom(j, i)) for j in shape.objects}
    action = {}
    for a in shape.indecomposable_arrows():
        x, y = shape.src[a], shape.tgt[a]
        hy = shape.hom(y, i)
        hx = shape.hom(x, i)
        rows, cols = v * len(hx), v * len(hy)
        if not (rows and cols):
            action[a] = Matrix.zeros(field, rows, cols)
            continue
        pos = {f: k for k, f in enumerate(hx)}
        m = [[field.zero] * cols for _ in range(rows)]
        for k, f in enumerate(hy):
            fk = pos[shape.compose(f, a)]
            for t in range(v):
                m[fk * v + t][k * v + t] = field.one
        action[a] = Matrix(field, rows, cols, m)
    return Presheaf(field, shape, dims, action, free_parts=((v, i),))


def direct_sum(f, g):
    """Direct sum presheaf; free_parts concatenate when both are free."""
    if f.shape != g.shape or f.field != g.field:
        raise ValueError("summands live in different categories")
    return direct_sum_many(f.field, f.shape, (f, g))


def direct_sum_many(field, shape, summands):
    """The direct sum of summands over shape, built in one pass; free_parts
    concatenate when every summand is free."""
    if not summands:
        return zero_presheaf(field, shape)
    dims = {x: sum(s.dims[x] for s in summands) for x in shape.objects}
    action = {a: linalg.direct_sum_many(field, ms) for a, ms in zip(
        shape.indecomposable_arrows(), zip(*(s._gens for s in summands)))}
    parts = None
    if all(s.free_parts is not None for s in summands):
        parts = tuple(part for s in summands for part in s.free_parts)
    return Presheaf(field, shape, dims, action, free_parts=parts)


def sum_maps(summands):
    """direct_sum_many(summands) with the inclusion of each summand into
    it and the projection onto each summand; returns (total, inclusions,
    projections)."""
    field, shape = summands[0].field, summands[0].shape
    total = direct_sum_many(field, shape, summands)
    offs = {x: 0 for x in shape.objects}
    incls, projs = [], []
    for s in summands:
        comps = {x: linalg.hstack(field, [
            Matrix.zeros(field, s.dims[x], offs[x]),
            Matrix.identity(field, s.dims[x]),
            Matrix.zeros(field, s.dims[x], total.dims[x] - offs[x] - s.dims[x])])
            for x in shape.objects}
        incls.append(PresheafMap(s, total, {x: m.transpose()
                                            for x, m in comps.items()}))
        projs.append(PresheafMap(total, s, comps))
        for x in shape.objects:
            offs[x] += s.dims[x]
    return total, incls, projs


def free_map_to(p, f, values):
    """The map P → F out of a free presheaf determined by its values.

    P must carry free_parts ((v_1, i_1), ...); values is a list of matrices
    val_k : k^{v_k} → F_{i_k}.  The component at j sends the hom-indexed
    block of part k at the arrow g ∈ hom(j, i_k) via F(g) · val_k.  This is
    the adjunction hom(V ⊗ i, F) ≅ hom(V, F_i) made explicit.
    """
    if p.free_parts is None:
        raise ValueError("source is not a recorded free presheaf")
    if f.is_zero():
        return zero_map(p, f)
    field, shape = p.field, p.shape
    comps = {}
    for j in shape.objects:
        cols = []
        for (_, i), val in zip(p.free_parts, values):
            for g in shape.hom(j, i):
                cols.append(f.act(g) * val)
        if cols:
            comps[j] = linalg.hstack(field, cols)
        else:
            comps[j] = Matrix.zeros(field, f.dims[j], 0)
    return PresheafMap(p, f, comps)


def _part_offsets(p, at_object):
    """Offsets of the (part, arrow) blocks inside the fiber of a recorded
    free presheaf at the given object."""
    shape = p.shape
    out = []
    off = 0
    for k, (v, i) in enumerate(p.free_parts):
        for g in shape.hom(at_object, i):
            out.append(((k, g), off, v))
            off += v
    return out


def free_values_of(phi):
    """The adjunct values val_k : k^{v_k} → Q_{i_k} of a map out of a
    recorded free presheaf (columns of φ at the identity block of part k),
    the inverse of free_map_to."""
    p = phi.source
    if p.free_parts is None:
        raise ValueError("source is not a recorded free presheaf")
    vals = []
    for k, (v, i) in enumerate(p.free_parts):
        blocks = _part_offsets(p, i)
        off = None
        for (kk, g), o, _ in blocks:
            if kk == k and p.shape.is_identity(g):
                off = o
                break
        m = phi.comps[i]
        vals.append(m.submatrix(range(m.rows), range(off, off + v)))
    return vals


def free_cover(f):
    """A minimal free cover of F by its generators: (PF, values), with
    PF = ⊕_i (T_i ⊗ i) recorded free and values[k] : T_{i_k} → F_{i_k}
    the inclusion of the tops of part k.

    At each object i the radical is Σ im F(a) over the non-identity
    arrows a out of i; generators T_i span a complement of it in F_i.
    Because the shape is directed, F is generated by these tops, so the
    map out of PF with these values is a deflation.  Minimality keeps
    resolution terms from growing along chains of the shape.

    The indecomposable arrows span the radical, as im F(g∘f) ⊆ im F(f).
    The tops are the unit vectors e_k outside the span of the radical and
    e_0, …, e_{k-1}: the pivot columns of [radical | I].
    """
    field, shape = f.field, f.shape
    z, o = field.zero, field.one
    parts, values = [], []
    for i in shape.objects:
        d = f.dims[i]
        if d == 0:
            continue
        cols = [f.act(a) for a in shape.indecomposable_arrows()
                if shape.src[a] == i]
        n = sum(m.cols for m in cols)
        cols.append(Matrix.identity(field, d))
        tops = [c - n for c in linalg.pivot_columns(linalg.hstack(field, cols))
                if c >= n]
        if tops:
            parts.append(free_at(field, shape, len(tops), i))
            values.append(Matrix(field, d, len(tops),
                                 [[o if r == t else z for t in tops]
                                  for r in range(d)]))
    return direct_sum_many(field, shape, parts), values


def free_hull(f):
    """A minimal free cover PF ↠ F, the counit out of free_cover(F)."""
    pf, values = free_cover(f)
    return pf, free_map_to(pf, f, values)


# --- kernels, cokernels, images -------------------------------------------
#
# Each computes the induced action on the indecomposable arrows only, which
# is all a presheaf stores: the induced action is unique, so the product a
# composite gets on first read is the action it would get on its own.


def _subpresheaf(field, shape, bases, action):
    """The presheaf spanned objectwise by the columns of bases, with the
    induced action given on the indecomposable arrows."""
    return Presheaf(field, shape, {x: bases[x].cols for x in shape.objects},
                    action)


def kernel_of(field, shape, act, comps):
    """The objectwise kernel of a map with components comps out of a
    presheaf whose indecomposable arrow a acts by act(a), with induced
    action; returns (K, bases), the columns of bases[x] spanning K_x.
    Neither the other arrows nor the map's target are read.

    Each basis K_x is the identity on its free rows, so the action of
    a : x → y is G(a)·K_y read at those rows.  It is induced iff G(a)·K_y
    lies in the kernel at x."""
    bases, free = {}, {}
    for x in shape.objects:
        bases[x], free[x] = linalg.kernel_basis_and_free(comps[x])
    induced = {}
    for a in shape.indecomposable_arrows():
        x, y = shape.src[a], shape.tgt[a]
        moved = act(a) * bases[y]
        if not (comps[x] * moved).is_zero():
            raise AssertionError("kernel not preserved by the action")
        induced[a] = moved.submatrix(free[x], range(moved.cols))
    return _subpresheaf(field, shape, bases, induced), bases


def kernel(f):
    """Objectwise kernel with induced action; returns (K, inclusion)."""
    g, shape = f.source, f.source.shape
    k, bases = kernel_of(g.field, shape, g.act, f.comps)
    return k, PresheafMap(k, g, bases)


def cokernel(f):
    """Objectwise cokernel with induced action; returns (C, projection).

    Each projection P_x is the transpose of a kernel basis, the identity
    on its free columns, so the action of a : x → y is P_x·G(a) read at
    the free columns of P_y.  It is induced iff G(a) maps the image at y
    into the image at x."""
    field, g = f.target.field, f.target
    shape = g.shape
    projs, free = {}, {}
    for x in shape.objects:
        im = linalg.image_basis(f.comps[x])
        basis, free[x] = linalg.kernel_basis_and_free(im.transpose())
        projs[x] = basis.transpose()
    action = {}
    for a in shape.indecomposable_arrows():
        x, y = shape.src[a], shape.tgt[a]
        moved = projs[x] * g.act(a)
        if not (moved * f.comps[y]).is_zero():
            raise AssertionError("image not preserved by the action")
        action[a] = moved.submatrix(range(moved.rows), free[y])
    c = Presheaf(field, shape, {x: projs[x].rows for x in shape.objects},
                 action)
    return c, PresheafMap(g, c, projs)


def image(f):
    """Objectwise image with induced action; returns (I, inclusion into
    the target, corestriction from the source)."""
    g, shape = f.target, f.target.shape
    bases = {x: linalg.image_basis(f.comps[x]) for x in shape.objects}
    action = {}
    for a in shape.indecomposable_arrows():
        x, y = shape.src[a], shape.tgt[a]
        m = linalg.solve(bases[x], g.act(a) * bases[y])
        if m is None:
            raise AssertionError("image not preserved by the action")
        action[a] = m
    im = _subpresheaf(g.field, shape, bases, action)
    cores = {x: linalg.solve(bases[x], f.comps[x]) for x in bases}
    return im, PresheafMap(im, g, bases), PresheafMap(f.source, im, cores)


def pushout(i, f):
    """Pushout of an inflation i : X ↣ Y along f : X → Z.

    Returns (W, inflation i' : Z ↣ W, map f' : Y → W), computed objectwise
    as the cokernel of (i, −f) : X → Y ⊕ Z.
    """
    if not i.is_componentwise_injective():
        raise ValueError("first argument is not an inflation")
    if i.source != f.source:
        raise ValueError("maps do not share a source")
    y, z = i.target, f.target
    total, (incl_y, incl_z), _ = sum_maps([y, z])
    g = PresheafMap(i.source, total,
                    {x: linalg.vstack(i.source.field, [i.comps[x], -f.comps[x]])
                     for x in i.source.shape.objects})
    w, q = cokernel(g)
    return w, q.compose(incl_z), q.compose(incl_y)


def pullback(p, f):
    """Pullback of a deflation p : Y ↠ Z along f : W → Z.

    Returns (V, deflation p' : V ↠ W, map f' : V → Y), dual to pushout.
    """
    if not p.is_componentwise_surjective():
        raise ValueError("first argument is not a deflation")
    if p.target != f.target:
        raise ValueError("maps do not share a target")
    y, w = p.source, f.source
    total, _, (proj_y, proj_w) = sum_maps([y, w])
    g = PresheafMap(total, p.target,
                    {x: linalg.hstack(p.target.field, [p.comps[x], -f.comps[x]])
                     for x in total.shape.objects})
    v, incl = kernel(g)
    return v, proj_w.compose(incl), proj_y.compose(incl)


# --- resolution -------------------------------------------------------------


class Resolution:
    """The chain 0 → PK^nF → … → PKF → PF ↠ F of §-style free resolutions.

    Fields:
        terms: [PF, PKF, ..., PK^mF] (free presheaves with free_parts);
        kernels: [K^0 F = F, KF, ..., K^m F, K^{m+1} F (zero)].
    """

    def __init__(self, terms, kernels):
        self.terms = terms
        self.kernels = kernels


def resolve(f):
    """Iterate the free hull: terminates within max_chain_length steps."""
    bound = diagram.max_chain_length(f.shape)
    kernels = [f]
    terms = []
    cur = f
    steps = 0
    while True:
        pf, counit = free_hull(cur)
        terms.append(pf)
        k, _ = kernel(counit)
        kernels.append(k)
        if k.is_zero():
            break
        cur = k
        steps += 1
        if steps > bound + 1:
            raise AssertionError("resolution exceeded the chain-length bound")
    return Resolution(terms, kernels)


# --- hom spaces --------------------------------------------------------------
#
# The unknowns of Hom(F, G) are the entries of the components φ_x, objects
# in order, each φ_x row-major.  The basis of Hom(F, G) is the kernel basis
# of the naturality system in these unknowns: one vector per free column of
# its reduced echelon form, with 1 there and 0 at the other free columns,
# so the coordinates of a natural map are its entries at the free columns.


def _unknown_offsets(f, g):
    """The offset of each φ_x among the unknowns, and their number."""
    offsets, nvars = {}, 0
    for x in f.shape.objects:
        offsets[x] = nvars
        nvars += g.dims[x] * f.dims[x]
    return offsets, nvars


class HomBasis:
    """The basis of Hom(F, G) by its free columns.  Subclasses build the
    basis maps, on first read, and the map with given coordinates, not
    all zero.  _columns holds the basis vectors flattened, as the span
    check reads them."""

    __slots__ = ("source", "target", "free", "_basis", "_columns")

    def __init__(self, f, g, free):
        self.source = f
        self.target = g
        self.free = free
        self._basis = None
        self._columns = None

    def __len__(self):
        return len(self.free)

    def __iter__(self):
        return iter(self.basis)

    @property
    def basis(self):
        """The basis vectors as maps F → G."""
        if self._basis is None:
            self._basis = self._build_basis()
        return self._basis

    def coordinates(self, phi):
        """The coordinates of phi : F → G, its entries at the free
        columns, or None if phi is not in the span of the basis (not
        natural); the span check reconstructs the flattened map."""
        field = self.source.field
        flat = _flatten(self.source, phi)
        if not self.free:
            return [] if all(v == field.zero for v in flat) else None
        coords = [flat[c] for c in self.free]
        if self._columns is None:
            self._columns = tuple(_flatten(self.source, b)
                                  for b in self.basis)
        if not linalg.is_combination(field, self._columns, coords, flat):
            return None
        return coords


class KernelBasis(HomBasis):
    """The kernel basis of the naturality system, its vectors given as
    flattened columns."""

    __slots__ = ()

    def __init__(self, f, g, free, columns):
        super().__init__(f, g, free)
        self._columns = columns

    def _build_basis(self):
        f, g = self.source, self.target
        field = f.field
        offsets, _ = _unknown_offsets(f, g)
        out = []
        for col in self._columns:
            comps = {}
            for x in f.shape.objects:
                r, c, off = g.dims[x], f.dims[x], offsets[x]
                if not (r and c):
                    comps[x] = Matrix.zeros(field, r, c)
                    continue
                comps[x] = Matrix(field, r, c, [
                    col[off + k * c:off + (k + 1) * c] for k in range(r)])
            out.append(PresheafMap(f, g, comps))
        return tuple(out)

    def element(self, coords):
        field = self.source.field
        coeffs, maps = zip(*[(c, b) for c, b in zip(coords, self.basis)
                             if c != field.zero])
        return PresheafMap(self.source, self.target, {
            x: linalg.combination(field, coeffs, [b.comps[x] for b in maps])
            for x in self.source.shape.objects})


def _flatten(f, phi):
    """The unknowns' values at phi."""
    return [v for x in f.shape.objects for row in phi.comps[x].entries
            for v in row]


def _kept_rows(g, i):
    """The rows G(h)[r, :] over the cells (x, r, h ∈ hom(x, i)) in unknown
    order, keeping each row that is independent of the rows after them.
    Returns the kept cells (x, r, h), the square matrix of their rows and
    its inverse."""
    field, shape = g.field, g.shape
    cells, rows = [], []
    for x in shape.objects:
        acts = [(h, g.act(h).entries) for h in shape.hom(x, i)]
        for r in range(g.dims[x] if acts else 0):
            for h, m in acts:
                cells.append((x, r, h))
                rows.append(m[r])
    # with the rows as columns in reverse, the pivot columns are the rows
    # outside the span of the rows after them
    last = len(rows) - 1
    kept = sorted(last - c for c in linalg.pivot_columns(
        Matrix(field, g.dims[i], len(rows), list(zip(*rows[::-1])))))
    square = Matrix(field, len(kept), len(kept), [rows[c] for c in kept])
    return ([cells[c] for c in kept], square,
            linalg.solve(square, Matrix.identity(field, len(kept))))


class YonedaChart(HomBasis):
    """The basis of Hom(P, G) out of a recorded free P = ⊕_k V_k ⊗ i_k,
    read by Yoneda block by block.

    The unknowns fall into disjoint blocks (k, t), one for each t <
    dim V_k: block (k, t) holds the entries (x, r, h) of φ_x in row r and
    in the column of (k, h, t), for h ∈ hom(x, i_k).  Since
    Hom(V ⊗ i, G) ≅ Hom(V, G_i), the solutions read (G(h)·w)[r] there,
    for the value w ∈ G_{i_k} of the generator t, and no solution couples
    two blocks; so the kernel basis splits by block.  A column is free iff
    some solution has its last nonzero entry there, that is iff its row
    G(h)[r, :] is independent of the rows of the block after it.  These
    rows depend on i = i_k alone and form the invertible matrix rows[i]:
    the basis vector at the j-th free column of block (k, t) has value
    inverse[i]·e_j there, and a map with value w at (k, t) has coordinates
    rows[i]·w in it.  index[k][t][j] is the position of that vector in the
    basis, which follows the free columns."""

    __slots__ = ("rows", "inverse", "index")

    def __init__(self, p, g):
        self.rows, self.inverse, kept = {}, {}, {}
        for _, i in p.free_parts:
            if i not in kept and g.dims[i]:
                kept[i], self.rows[i], self.inverse[i] = _kept_rows(g, i)
        offsets, _ = _unknown_offsets(p, g)
        blocks = {}
        free = []   # (free column, k, t, j)
        for k, (v, i) in enumerate(p.free_parts):
            for j, (x, r, h) in enumerate(kept.get(i, ())):
                if x not in blocks:
                    blocks[x] = {key: off for key, off, _ in
                                 _part_offsets(p, x)}
                col = offsets[x] + r * p.dims[x] + blocks[x][(k, h)]
                free.extend((col + t, k, t, j) for t in range(v))
        free.sort()
        self.index = [[[None] * g.dims[i] for _ in range(v)]
                      for v, i in p.free_parts]
        for n, (_, k, t, j) in enumerate(free):
            self.index[k][t][j] = n
        super().__init__(p, g, tuple(c for c, _, _, _ in free))

    def _build_basis(self):
        z, o = self.source.field.zero, self.source.field.one
        size = len(self)
        return tuple(self.element([o if k == n else z for k in range(size)])
                     for n in range(size))

    def element(self, coords):
        p, g = self.source, self.target
        field = p.field
        values = []
        for k, (v, i) in enumerate(p.free_parts):
            d = g.dims[i]
            if not d:
                values.append(Matrix.zeros(field, 0, v))
                continue
            values.append(self.inverse[i] * Matrix(field, d, v, [
                [coords[self.index[k][t][j]] for t in range(v)]
                for j in range(d)]))
        return free_map_to(p, g, values)

    def post_blocks(self, into, psi):
        """The matrix of ψ ∘ − : Hom(P, G) → Hom(P, G′) from this chart to
        into, the chart of Hom(P, G′), as blocks (rows, columns, m, c):
        the matrix is the sum of each c · m at its rows and columns.  The
        basis vector with value w at block (k, t) goes to the map with
        value ψ_i·w there, so block (k, t) is
        into.rows[i] · ψ_i · inverse[i]."""
        one = self.source.field.one
        blocks = {}
        for k, (v, i) in enumerate(self.source.free_parts):
            if i not in self.inverse or i not in into.rows:
                continue
            if i not in blocks:
                blocks[i] = into.rows[i] * psi.comps[i] * self.inverse[i]
            for t in range(v):
                yield into.index[k][t], self.index[k][t], blocks[i], one

    def pre_blocks(self, into, d, q):
        """The matrix of − ∘ d : Hom(P, G) → Hom(Q, G) from this chart to
        into, the chart of Hom(Q, G), as post_blocks gives it, for
        d : Q → P and Q recorded free.  The basis vector with value w at
        block (k, t) of P goes to the map with value
        Σ_h G(h)·w·d[(k, h, t), (k′, id, t′)] at block (k′, t′) of Q, h
        running over hom(i_k′, i_k), whose coordinates are
        into.rows[i_k′] · G(h) · inverse[i_k] summed with these
        coefficients."""
        p, g = self.source, self.target
        vals = free_values_of(d)
        for k2, (v2, i2) in enumerate(q.free_parts):
            if i2 not in into.rows:
                continue
            for (k, h), off, v in _part_offsets(p, i2):
                i = p.free_parts[k][1]
                if i not in self.inverse:
                    continue
                block = into.rows[i2] * g.act(h) * self.inverse[i]
                for t in range(v):
                    for t2 in range(v2):
                        c = vals[k2].entries[off + t][t2]
                        if c:
                            yield (into.index[k2][t2], self.index[k][t],
                                   block, c)


def _naturality_basis(f, g):
    """The kernel basis of the naturality system."""
    field, shape = f.field, f.shape
    offsets, nvars = _unknown_offsets(f, g)
    z = field.zero
    rows = []
    # Naturality at the indecomposable arrows suffices: every other arrow
    # is a composite of them, f and g are functors, and squares that
    # commute paste to a square that commutes.  Both systems have the same
    # solutions, so the same reduced echelon form and the same basis.
    for a in shape.indecomposable_arrows():
        x, y = shape.src[a], shape.tgt[a]
        fx, fy = f.dims[x], f.dims[y]
        ox, oy = offsets[x], offsets[y]
        fa_cols = f.act(a).transpose().entries
        # row (i, j) of φ_x · F(a) − G(a) · φ_y = 0  (maps F_y → G_x)
        for i, ga_row in enumerate(g.act(a).entries):
            for j in range(fy):
                row = [z] * nvars
                for c, v in enumerate(fa_cols[j]):
                    if v:
                        row[ox + i * fx + c] = v
                for r, v in enumerate(ga_row):
                    if v:
                        row[oy + r * fy + j] = field.neg(v)
                rows.append(row)
    system = Matrix(field, len(rows), nvars, rows) if rows and nvars else \
        Matrix.zeros(field, len(rows), nvars)
    basis, free = linalg.kernel_basis_and_free(system)
    return KernelBasis(f, g, free, tuple(zip(*basis.entries)))


@diagram.memo(PRESHEAF_CACHE_SIZE)
def hom_basis(f, g):
    """The HomBasis of Hom(f, g).  Out of a recorded free presheaf it is a
    YonedaChart, otherwise the kernel basis of the naturality system; both
    give the same basis."""
    if f.shape != g.shape or f.field != g.field:
        raise ValueError("presheaves live in different categories")
    return _naturality_basis(f, g) if f.free_parts is None else \
        YonedaChart(f, g)


def hom_space(f, g):
    """Deterministic basis of the space of natural transformations f → g:
    the kernel basis of the naturality system, read block by block by
    Yoneda out of a recorded free f and built on first request."""
    return list(hom_basis(f, g))


def hom_coordinates(f, g, phi):
    """Coordinates of phi : f → g in the hom_space(f, g) basis, or None if
    phi is not in its span (i.e. not natural).

    Reads the coordinates off at the kernel-basis free positions; the span
    membership check reconstructs the flattened map.
    """
    return hom_basis(f, g).coordinates(phi)


# --- restriction and duality -------------------------------------------------


def restrict(u, g):
    """(u*G)_x = G_{u(x)} for u a functor into G's shape."""
    if g.shape != u.target:
        raise ValueError("presheaf does not live over the functor's target")
    dims = {x: g.dims[u.obj_map[x]] for x in u.source.objects}
    action = {a: g.act(u.arrow_map[a]) for a in u.source.indecomposable_arrows()}
    return Presheaf(g.field, u.source, dims, action)


def restrict_map(u, phi, source, target):
    """u*φ : source → target, which the caller passes already restricted
    (they equal restrict(u, φ.source) and restrict(u, φ.target))."""
    return PresheafMap(source, target,
                       {x: phi.comps[u.obj_map[x]] for x in u.source.objects})


def dualize(f, opposite_shape=None):
    """The linear dual, a presheaf over the opposite shape (transpose all
    action matrices).  Applying it twice gives back f on the nose."""
    op = opposite_shape if opposite_shape is not None else diagram.opposite(f.shape)
    action = {a: f.act(a).transpose() for a in op.indecomposable_arrows()}
    return Presheaf(f.field, op, dict(f.dims), action)


def dualize_map(phi, source, target):
    """Dual of a map, reversing its direction: a map source → target, which
    the caller passes already dualized (they equal dualize(phi.target) and
    dualize(phi.source))."""
    return PresheafMap(source, target,
                       {x: phi.comps[x].transpose() for x in phi.comps})
