"""Bounded complexes of presheaves: cones, shifts, homology, projective
resolutions, Hom complexes, Ext groups and homotopy solving.

This is the concrete model of the bounded derived category: morphisms are
chain maps out of a fixed projective resolution of the source, modulo
homotopy.  Sign conventions: (ΣX)^p = X^{p+1} with d_{ΣX} = −d_X, and the
cone differential is [[−d_X, 0], [f, d_Y]].
"""

from collections.abc import Sequence
from types import MappingProxyType

from . import linalg
from .linalg import Matrix, block_rows, negated
from . import diagram
from . import presheaf as ps

# proj_resolution and hom_complex share their results, which are immutable;
# each keeps at most this many and recomputes one it dropped
COMPLEX_CACHE_SIZE = 256


class Complex:
    """A bounded complex of presheaves over a common shape.

    terms maps degrees to presheaves, diffs maps p to d^p : X^p → X^{p+1}.
    Degrees outside [lo, hi] read as zero; leading/trailing zero terms are
    trimmed at construction so equal complexes compare equal.  terms and
    diffs are read-only.  recorded is what equality ignores, the shape's
    and each term's, for memo keys.  fibers keeps the fibres
    derivator.fiber_complex restricts, by object of the first factor, as a
    presheaf keeps its composites: built on first read, then shared.
    """

    __slots__ = ("field", "shape", "lo", "hi", "terms", "diffs", "recorded",
                 "fibers", "_zero", "_hash")

    def __init__(self, field, shape, terms, diffs, validate=False):
        degrees = sorted(p for p, t in terms.items() if not t.is_zero())
        if degrees:
            self.lo, self.hi = degrees[0], degrees[-1]
        else:
            self.lo, self.hi = 0, -1
        self.field = field
        self.shape = shape
        self._zero = ps.zero_presheaf(field, shape)
        kept = {p: terms[p] for p in terms if self.lo <= p <= self.hi}
        for p in range(self.lo, self.hi + 1):
            if p not in kept:
                kept[p] = self._zero
        self.terms = MappingProxyType(kept)
        self.recorded = (shape.recorded, tuple(kept[p].recorded
                                               for p in self.degrees()))
        self.diffs = MappingProxyType({p: diffs[p] for p in diffs
                                       if self.lo <= p < self.hi})
        self.fibers = {}
        self._hash = None
        if validate:
            self.validate()

    def term(self, p):
        return self.terms.get(p, self._zero)

    def diff(self, p):
        d = self.diffs.get(p)
        return d if d is not None else ps.zero_map(self.term(p), self.term(p + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self):
        return self.lo > self.hi

    def validate(self):
        for p in self.degrees():
            t = self.term(p)
            if t.shape != self.shape or t.field != self.field:
                raise ValueError("term at %d lives in the wrong category" % p)
            t.validate()
        for p in self.degrees():
            d = self.diff(p)
            if d.source != self.term(p) or d.target != self.term(p + 1):
                raise ValueError("differential at %d has wrong endpoints" % p)
            d.validate()
            if not self.diff(p + 1).compose(d).is_zero():
                raise ValueError("d² ≠ 0 at degree %d" % p)
        return self

    def _data(self):
        return (self.field, self.shape, self.lo, self.hi,
                tuple(self.term(p) for p in self.degrees()),
                tuple(self.diff(p) for p in range(self.lo, self.hi)))

    def __eq__(self, other):
        return self is other or (isinstance(other, Complex) and
                                 self._data() == other._data())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._data())
        return self._hash

    def __repr__(self):
        return "Complex(degrees [%d,%d])" % (self.lo, self.hi)


class ChainMap:
    """A degreewise natural map commuting with the differentials."""

    __slots__ = ("source", "target", "comps", "_hash")

    def __init__(self, source, target, comps, validate=False):
        if source.shape != target.shape or source.field != target.field:
            raise ValueError("endpoints live in different categories")
        self.source = source
        self.target = target
        self.comps = {p: m for p, m in comps.items() if not _trivial(m)}
        self._hash = None
        if validate:
            self.validate()

    def comp(self, p):
        m = self.comps.get(p)
        if m is not None:
            return m
        return ps.zero_map(self.source.term(p), self.target.term(p))

    def validate(self):
        for p, m in self.comps.items():
            if m.source != self.source.term(p) or m.target != self.target.term(p):
                raise ValueError("component at %d has wrong endpoints" % p)
            m.validate()
        for p in range(min(self.source.lo, self.target.lo) - 1,
                       max(self.source.hi, self.target.hi) + 1):
            lhs = self.comp(p + 1).compose(self.source.diff(p))
            rhs = self.target.diff(p).compose(self.comp(p))
            if lhs != rhs:
                raise ValueError("does not commute with d at degree %d" % p)
        return self

    def compose(self, other):
        if other.target != self.source:
            raise ValueError("chain maps not composable")
        lo = max(self.source.lo, other.source.lo)
        hi = min(self.source.hi, other.source.hi)
        return ChainMap(other.source, self.target,
                        {p: self.comp(p).compose(other.comp(p))
                         for p in range(lo, hi + 1)})

    def __add__(self, other):
        degs = set(self.comps) | set(other.comps)
        return ChainMap(self.source, self.target,
                        {p: self.comp(p) + other.comp(p) for p in degs})

    def __sub__(self, other):
        degs = set(self.comps) | set(other.comps)
        return ChainMap(self.source, self.target,
                        {p: self.comp(p) - other.comp(p) for p in degs})

    def is_zero(self):
        return all(m.is_zero() for m in self.comps.values())

    def _data(self):
        return (self.source, self.target, tuple(sorted(
            (p, m) for p, m in self.comps.items() if not m.is_zero())))

    def __eq__(self, other):
        return self is other or (isinstance(other, ChainMap) and
                                 self._data() == other._data())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._data())
        return self._hash


class Homotopy:
    """Degreewise maps h^p : X^p → Y^{p−1} witnessing f − g = dh + hd."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source, target, comps):
        self.source = source
        self.target = target
        self.comps = {p: m for p, m in comps.items() if not _trivial(m)}

    def comp(self, p):
        m = self.comps.get(p)
        if m is not None:
            return m
        return ps.zero_map(self.source.term(p), self.target.term(p - 1))

    def boundary(self):
        """The nullhomotopic chain map dh + hd it bounds."""
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        comps = {}
        for p in range(lo, hi + 1):
            comps[p] = self.target.diff(p - 1).compose(self.comp(p)) + \
                self.comp(p + 1).compose(self.source.diff(p))
        return ChainMap(self.source, self.target, comps)

    def witnesses(self, f, g):
        return (self.boundary() == f - g)


def _trivial(m):
    return m.source.total_dim() == 0 and m.target.total_dim() == 0


# --- constructors -----------------------------------------------------------


def zero_complex(field, shape):
    return Complex(field, shape, {}, {})


def stalk(f, degree=0):
    """The presheaf f viewed as a one-term complex."""
    return Complex(f.field, f.shape, {degree: f}, {})


def identity_chain_map(x):
    return ChainMap(x, x, {p: ps.identity_map(x.term(p)) for p in x.degrees()})


def zero_chain_map(x, y):
    return ChainMap(x, y, {})


def termwise_map(x, y, comp):
    """The chain map x → y whose component at degree p and object o is
    comp(p, o)."""
    return ChainMap(x, y, {
        p: ps.PresheafMap(x.term(p), y.term(p),
                          {o: comp(p, o) for o in x.shape.objects})
        for p in x.degrees()})


def shift(x, n=1):
    """(Σ^n X)^p = X^{p+n}, differential scaled by (−1)^n."""
    sgn = x.field.of_int(-1 if n % 2 else 1)
    terms = {p - n: x.term(p) for p in x.degrees()}
    diffs = {p - n: x.diff(p).scale(sgn) for p in range(x.lo, x.hi)}
    return Complex(x.field, x.shape, terms, diffs)


def shift_map(f, n=1):
    return ChainMap(shift(f.source, n), shift(f.target, n),
                    {p - n: m for p, m in f.comps.items()})


def direct_sum_complex(x, y):
    """X ⊕ Y with the block-diagonal differential; returns the complex only."""
    lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
    terms, diffs = {}, {}
    for p in range(lo, hi + 1):
        terms[p] = ps.direct_sum(x.term(p), y.term(p))
    for p in range(lo, hi):
        diffs[p] = ps.PresheafMap(terms[p], terms[p + 1], {
            o: linalg.direct_sum(x.diff(p).comp(o), y.diff(p).comp(o))
            for o in x.shape.objects})
    return Complex(x.field, x.shape, terms, diffs)


def cone(f):
    """Mapping cone: C^p = X^{p+1} ⊕ Y^p, d = [[−d_X, 0], [f, d_Y]].

    Returns the complex C only; `cone_inclusion` and `cone_projection`
    build the triangle maps.
    """
    x, y = f.source, f.target
    field, shape = x.field, x.shape
    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    terms, diffs = {}, {}
    for p in range(lo, hi + 1):
        terms[p] = ps.direct_sum(x.term(p + 1), y.term(p))
    for p in range(lo, hi):
        comps = {}
        for o in shape.objects:
            dx = x.diff(p + 1).comp(o)
            dy = y.diff(p).comp(o)
            fo = f.comp(p + 1).comp(o)
            zero = Matrix.zeros(field, dx.rows, dy.cols)
            comps[o] = linalg.block(field, [[-dx, zero], [fo, dy]])
        diffs[p] = ps.PresheafMap(terms[p], terms[p + 1], comps)
    return Complex(field, shape, terms, diffs)


def cone_inclusion(f, c):
    """The inclusion Y → C of the target of f into c = cone(f)."""
    x, y = f.source, f.target
    field = x.field
    return termwise_map(y, c, lambda p, o: linalg.vstack(field, [
        Matrix.zeros(field, x.term(p + 1).dims[o], y.term(p).dims[o]),
        Matrix.identity(field, y.term(p).dims[o])]))


def cone_projection(f, c):
    """The projection C → ΣX of c = cone(f); with cone_inclusion it forms a
    split exact pair of presheaves in every degree."""
    x, y = f.source, f.target
    field = x.field
    return termwise_map(c, shift(x, 1), lambda p, o: linalg.hstack(field, [
        Matrix.identity(field, x.term(p + 1).dims[o]),
        Matrix.zeros(field, x.term(p + 1).dims[o], y.term(p).dims[o])]))


# --- homology ---------------------------------------------------------------


def homology_dims(x, p):
    """Fiber dimensions of H^p(x) by rank arithmetic (no induced action)."""
    out = {}
    for o in x.shape.objects:
        d_here = x.diff(p).comp(o)
        d_prev = x.diff(p - 1).comp(o)
        out[o] = x.term(p).dims[o] - linalg.rank(d_here) - linalg.rank(d_prev)
    return out


def homology(x, p):
    """H^p(x) as a presheaf with its induced action."""
    k, incl = ps.kernel(x.diff(p))
    prev = x.diff(p - 1)
    cores = {}
    for o in x.shape.objects:
        m = linalg.solve(incl.comps[o], prev.comps[o])
        if m is None:
            raise AssertionError("image does not land in the kernel")
        cores[o] = m
    h, _ = ps.cokernel(ps.PresheafMap(x.term(p - 1), k, cores))
    return h


def _is_exact(field, lo, hi, dim, rows):
    """Whether the complex of vector spaces with dimension dim(p) and
    differential p → p+1 with rows rows(p) in degrees lo..hi (zero
    outside) is exact.  Ranks each differential between nonzero spaces
    once, in place by linalg.rank_of_rows, and stops at the first nonzero
    homology."""
    prev, here_dim = 0, dim(lo)
    for p in range(lo, hi + 1):
        next_dim = dim(p + 1) if p < hi else 0
        here = linalg.rank_of_rows(field, rows(p), here_dim) \
            if here_dim and next_dim else 0
        if here_dim != here + prev:
            return False
        prev, here_dim = here, next_dim
    return True


def is_acyclic(x):
    diffs = [x.diff(p) for p in range(x.lo, x.hi)]
    return all(_is_exact(x.field, x.lo, x.hi, lambda p: x.term(p).dims[o],
                         lambda p: list(diffs[p - x.lo].comps[o].entries))
               for o in x.shape.objects)


def is_quasi_iso(f):
    """Whether f is a quasi-isomorphism, i.e. cone(f) is acyclic, decided
    object by object from the rows of the cone's differential, [d_X | 0]
    over [f | d_Y], written from the blocks of f and its ends: no cone,
    zero block or block matrix is built.  The sign of −d_X does not change
    ranks."""
    x, y = f.source, f.target
    field = x.field
    lo, hi = min(x.lo - 1, y.lo), max(x.hi - 1, y.hi)
    # C^p = X^{p+1} ⊕ Y^p, its dimensions at each object
    xd = {p: x.term(p + 1).dims for p in range(lo, hi + 2)}
    yd = {p: y.term(p).dims for p in range(lo, hi + 2)}

    def rows(p, o):
        dx, fo, dy = (m if m is None else m.comps[o] for m in (
            x.diffs.get(p + 1), f.comps.get(p + 1), y.diffs.get(p)))
        xs, ys, xt, yt = xd[p][o], yd[p][o], xd[p + 1][o], yd[p + 1][o]
        pad = (field.zero,) * ys
        out = [r + pad for r in block_rows(field, dx, xt, xs)]
        out += [r + s for r, s in zip(block_rows(field, fo, yt, xs),
                                      block_rows(field, dy, yt, ys))]
        return out

    return all(_is_exact(field, lo, hi, lambda p: xd[p][o] + yd[p][o],
                         lambda p: rows(p, o))
               for o in x.shape.objects)


# --- projective resolution of complexes -------------------------------------


@diagram.memo(COMPLEX_CACHE_SIZE)
def proj_resolution(x):
    """A complex of recorded free presheaves with a quasi-isomorphism onto x.

    Built from the top degree down: at each degree m take the free cover
    P^m → V of the pullback V = {(ξ, η) ∈ X^m ⊕ P^{m+1} : dξ = πη, dη = 0}.
    Nothing lies above x^hi, so the first V is x^hi itself.  Below the
    bottom of x, V is the kernel of the cover above it (iterated
    syzygies), so the first cover at or below x.lo with the dimensions of
    its V is bijective and ends the resolution, within max_chain_length
    extra degrees.  That rule trusts each cover to be onto; the final
    quasi-isomorphism check catches one that is not.  At most
    COMPLEX_CACHE_SIZE results are kept, so Ext computations against a
    recent source share one resolution.
    """
    field, shape = x.field, x.shape
    if x.is_zero() or all(x.term(p).free_parts is not None for p in x.degrees()):
        return x, identity_chain_map(x)
    bound = diagram.max_chain_length(shape)
    # nothing lies above x^hi: V is x^hi with the identity inclusion, so
    # π^hi is its cover's counit and d^hi maps into the zero presheaf
    m, v = x.hi, x.term(x.hi)
    pm, values = ps.free_cover(v)
    p_terms = {m: pm}
    pis = {m: ps.free_map_to(pm, v, values)}
    p_diffs = {m: ps.zero_map(pm, ps.zero_presheaf(field, shape))}
    # at or below x.lo, X^{m-1} is zero, so the next V is the kernel of
    # the cover P^m → V: zero iff the cover is bijective
    while m > x.lo or pm.dims != v.dims:
        m -= 1
        if m < x.lo - bound - 1:
            raise AssertionError("resolution exceeded its width bound")
        xp, pnext = x.term(m), p_terms[m + 1]
        pi_next, d_next = pis[m + 1], p_diffs[m + 1]
        dx = x.diff(m)
        comps = {o: linalg.block(field, [
            [dx.comps[o], -pi_next.comps[o]],
            [Matrix.zeros(field, d_next.target.dims[o], xp.dims[o]),
             d_next.comps[o]]])
            for o in shape.objects}
        # V sits in X^m ⊕ P^{m+1}, whose action kernel_of reads on the
        # indecomposable arrows only; past the bottom of x, X^m is zero
        if xp.is_zero():
            act = pnext.act
        elif pnext.is_zero():
            act = xp.act
        else:
            def act(a):
                return linalg.direct_sum(xp.act(a), pnext.act(a))
        v, incl = ps.kernel_of(field, shape, act, comps)
        # π and d are the maps out of P^m whose value at a generator is its
        # value in V read through V's inclusion: ι_j·V(g) = (X^m ⊕
        # P^{m+1})(g)·ι_i, so they are ι·counit without building it
        pm, values = ps.free_cover(v)
        ws = [(xp.dims[i], incl[i] * val)
              for (_, i), val in zip(pm.free_parts, values)]
        pis[m] = ps.free_map_to(pm, xp, [
            w.submatrix(range(n), range(w.cols)) for n, w in ws])
        p_diffs[m] = ps.free_map_to(pm, pnext, [
            w.submatrix(range(n, w.rows), range(w.cols)) for n, w in ws])
        p_terms[m] = pm
    pcx = Complex(field, shape, p_terms, p_diffs)
    rho = ChainMap(pcx, x, pis)
    if not is_quasi_iso(rho):
        raise AssertionError("resolution comparison map is not a quasi-isomorphism")
    return pcx, rho


# --- the Hom complex ---------------------------------------------------------


class _Slots(dict):
    """Degree n ↦ the slots [(p, ps.HomBasis of Hom(X^p, Y^{p+n}))] with a
    nonempty basis, built on first access, with each slot's offset and the
    degree's dimension.  free tells whether every term of X is recorded
    free, so that every slot is a YonedaChart."""

    __slots__ = ("x", "y", "free", "offsets", "dims")

    def __init__(self, x, y):
        super().__init__()
        self.x = x
        self.y = y
        self.free = all(x.term(p).free_parts is not None for p in x.degrees())
        self.offsets = {}
        self.dims = {}

    def __missing__(self, n):
        slots = []
        offsets = {}
        off = 0
        for p in self.x.degrees():
            target = self.y.term(p + n)
            if target.is_zero():
                continue
            space = ps.hom_basis(self.x.term(p), target)
            if len(space):
                slots.append((p, space))
                offsets[p] = off
                off += len(space)
        self.offsets[n] = offsets
        self.dims[n] = off
        self[n] = slots
        return slots

    def dim(self, n):
        self[n]
        return self.dims[n]


class _Deltas(dict):
    """Degree n ↦ the matrix of δ : Hom^n → Hom^{n+1} in slot coordinates,
    built on first access; rank(n) is its rank, taken once."""

    __slots__ = ("slots", "ranks")

    def __init__(self, slots):
        super().__init__()
        self.slots = slots
        self.ranks = {}

    def __missing__(self, n):
        self[n] = m = self._matrix(n)
        return m

    def rank(self, n):
        if n not in self.ranks:
            self.ranks[n] = linalg.rank(self[n])
        return self.ranks[n]

    def _matrix(self, n):
        slots = self.slots
        field = slots.x.field
        rows = slots.dim(n + 1)
        cols = slots.dim(n)
        if not (rows and cols):
            return Matrix.zeros(field, rows, cols)
        out = [[field.zero] * cols for _ in range(rows)]
        sgn = field.of_int(-1 if n % 2 else 1)
        into = dict(slots[n + 1])
        offsets = slots.offsets
        for p, space in slots[n]:
            # a differential outside diffs is zero, and so are its composites
            dy = slots.y.diffs.get(p + n)
            dx = slots.x.diffs.get(p - 1)
            # d_Y ∘ b lands in slot p; b ∘ d_X in slot p − 1 of degree n+1
            if slots.free:
                if dy is not None and p in into:
                    _add_blocks(out, offsets[n + 1][p], offsets[n][p],
                                space.post_blocks(into[p], dy), field.one)
                if dx is not None and p - 1 in into:
                    _add_blocks(out, offsets[n + 1][p - 1], offsets[n][p],
                                space.pre_blocks(into[p - 1], dx,
                                                 slots.x.term(p - 1)),
                                field.neg(sgn))
                continue
            for k, b in enumerate(space):
                col = offsets[n][p] + k
                if dy is not None:
                    self._add_into(out, n + 1, p, dy.compose(b), col,
                                   field.one)
                if dx is not None:
                    self._add_into(out, n + 1, p - 1, b.compose(dx), col,
                                   field.neg(sgn))
        return Matrix(field, rows, cols, out)

    def _add_into(self, out, n, p, phi, col, scalar):
        if phi.is_zero():
            return
        slots = self.slots
        slot = dict(slots[n])
        if p not in slot:
            raise AssertionError("image misses the recorded basis")
        coords = ps.hom_coordinates(slots.x.term(p), slots.y.term(p + n), phi)
        if coords is None:
            raise AssertionError("image not in the hom-space span")
        f = slots.x.field
        for k, c in enumerate(coords):
            out[slots.offsets[n][p] + k][col] = f.add(
                out[slots.offsets[n][p] + k][col], f.mul(scalar, c))


def _add_blocks(out, row0, col0, blocks, scalar):
    """Add scalar · c · m to out for each block (rows, columns, m, c), at
    those rows and columns offset by row0 and col0."""
    for rows, cols, m, c in blocks:
        field = m.field
        c = field.mul(scalar, c)
        for a, entries in zip(rows, m.entries):
            target = out[row0 + a]
            for b, v in zip(cols, entries):
                if v:
                    target[col0 + b] = field.add(target[col0 + b],
                                                 field.mul(c, v))


class HomComplex:
    """Total Hom complex of two complexes, with coordinates.

    Hom^n = ⊕_p Hom(X^p, Y^{p+n}) (natural maps only), with differential
    δ(φ)_p = d_Y φ_p − (−1)^n φ_{p+1} d_X.  Coordinates are taken in the
    deterministic hom_space bases slot by slot.  When every term of X is
    recorded free, the slots are Yoneda charts and δ is read off the values
    of the basis maps at the generators, without building, composing or
    coordinatizing a basis map, and a map's coordinates are read off its
    values there too; otherwise each basis map is composed with the
    differentials and the composites are coordinatized again.  Both give
    the same matrices.  Slots, boundary matrices and their ranks (which
    ext reads) are built per degree on first use, by tables that hold X
    and Y but not the Hom complex, so a Hom complex is freed as soon as it
    is dropped.  Maps out of its Hom^0, as lift_through_qis and
    extend_along_qis need, are read off the same charts (see
    _transfer_matrix).
    """

    def __init__(self, x, y):
        self.x = x
        self.y = y
        self.field = x.field
        self.slots = _Slots(x, y)
        self.offsets = self.slots.offsets
        self.dims = self.slots.dims
        self.delta = _Deltas(self.slots)

    def _slot_dim(self, n):
        return self.slots.dim(n)

    def coords_of(self, n, comps):
        """Coordinates of a degree-n element given as {p: PresheafMap}."""
        field = self.field
        vec = [field.zero] * self._slot_dim(n)
        for p, phi in comps.items():
            if phi.is_zero():
                continue
            slot = dict(self.slots[n])
            if p not in slot:
                return None
            coords = ps.hom_coordinates(self.x.term(p), self.y.term(p + n), phi)
            if coords is None:
                return None
            for k, c in enumerate(coords):
                vec[self.offsets[n][p] + k] = c
        if not vec:
            return Matrix.zeros(field, 0, 1)
        return Matrix(field, len(vec), 1, [[v] for v in vec])

    def element_of(self, n, vec):
        """The {p: PresheafMap} family with the given coordinates."""
        field = self.field
        out = {}
        for p, space in self.slots[n]:
            off = self.offsets[n][p]
            coords = [row[0] for row in vec.entries[off:off + len(space)]]
            if any(c != field.zero for c in coords):
                out[p] = space.element(coords)
        return out


@diagram.memo(COMPLEX_CACHE_SIZE)
def hom_complex(x, y):
    return HomComplex(x, y)


# --- Ext --------------------------------------------------------------------


def ext(x, y, n):
    """(dimension, representatives) of Hom_D(x, Σ^n y).

    The dimension is cols(δⁿ) − rank δⁿ − rank δⁿ⁻¹ in the Hom complex
    out of the projective resolution P = proj_resolution(x).  The
    representatives are chain maps P → shift(y, n), pivot-ordered and
    reproducible; they come as a sequence of length dimension that builds
    them when it is first read.
    """
    if x.shape != y.shape or x.field != y.field:
        raise ValueError("complexes live in different categories")
    p, _ = proj_resolution(x)
    hc = hom_complex(p, y)
    dim = hc.delta[n].cols - hc.delta.rank(n) - hc.delta.rank(n - 1)
    return dim, _Representatives(dim, lambda: representatives(hc, p, y, n))


class _Representatives(Sequence):
    """A sequence of known length whose entries are built, all at once, by
    build() when it is first read."""

    __slots__ = ("dim", "build", "_reps")

    def __init__(self, dim, build):
        self.dim = dim
        self.build = build
        self._reps = None

    def __len__(self):
        return self.dim

    def __getitem__(self, k):
        if self._reps is None:
            reps = self.build()
            if len(reps) != self.dim:
                raise AssertionError("cohomology representative count mismatch")
            self._reps = reps
        return self._reps[k]

    def __eq__(self, other):
        """Equal to a list or to another such sequence with the same
        entries; an empty one compares without building."""
        if not isinstance(other, (list, _Representatives)):
            return NotImplemented
        return len(self) == len(other) and \
            (not self.dim or list(self) == list(other))

    def __repr__(self):
        return repr(list(self)) if self.dim else "[]"


def representatives(hc, p, y, n):
    """Cocycles of hc = Hom(p, y) in degree n whose classes form a basis of
    its cohomology, as chart maps p → shift(y, n): the cycle columns that
    extend the span of the boundaries, in pivot order."""
    field = hc.field
    cycles = linalg.kernel_basis(hc.delta[n])
    boundaries = linalg.image_basis(hc.delta[n - 1])
    combined = linalg.hstack(field, [boundaries, cycles])
    reps = []
    for piv in linalg.pivot_columns(combined):
        if piv < boundaries.cols:
            continue
        k = piv - boundaries.cols
        vec = Matrix(field, cycles.rows, 1,
                     [[cycles.entries[r][k]] for r in range(cycles.rows)])
        reps.append(ChainMap(p, shift(y, n), hc.element_of(n, vec)))
    return reps


def hom_dim(x, y):
    """dim Hom in the derived category (Ext in degree 0)."""
    return ext(x, y, 0)[0]


def ext_coordinates(x, y, n, f):
    """Coordinates of the class of f : P(x) → shift(y, n) in the basis
    produced by ext(x, y, n); None if f is not a cocycle of that complex."""
    p, _ = proj_resolution(x)
    if f.source != p:
        raise ValueError("map is not defined on the cached resolution")
    hc = hom_complex(p, y)
    field = x.field
    vec = hc.coords_of(n, dict(f.comps))
    if vec is None:
        return None
    dim, reps = ext(x, y, n)
    rep_cols = []
    for r in reps:
        rep_cols.append(hc.coords_of(n, dict(r.comps)))
    dprev = hc.delta[n - 1]
    system = linalg.hstack(field, rep_cols + [dprev]) if (rep_cols or dprev.cols) \
        else Matrix.zeros(field, hc._slot_dim(n), 0)
    sol = linalg.solve(system, vec)
    if sol is None:
        return None
    return [sol.entries[k][0] for k in range(dim)]


# --- homotopies and lifting --------------------------------------------------


def homotopy_solve(f, g=None):
    """A homotopy with f − g = dh + hd, or None if none exists.

    When the source is a complex of projectives, None certifies that f and
    g differ in the derived category.
    """
    if g is None:
        g = zero_chain_map(f.source, f.target)
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps do not share endpoints")
    diffmap = f - g
    hc = hom_complex(f.source, f.target)
    rhs = hc.coords_of(0, dict(diffmap.comps))
    if rhs is None:
        return None
    dm1 = hc.delta[-1]
    sol = linalg.solve(dm1, rhs)
    if sol is None:
        return None
    comps = hc.element_of(-1, sol)
    return Homotopy(f.source, f.target, comps)


def _transfer_matrix(hm, hh, compose, blocks):
    """The matrix of T : Hom^0 of hm → Hom^0 of hh, as rows.  When the
    sources of both are termwise recorded free, T is read off their charts
    as _Deltas reads δ: blocks(p, chart, into) gives the blocks of T from
    slot p of hm to slot p of hh, so no basis map is built.  Otherwise
    each basis map m of slot p is sent to compose(p, m) and coordinatized
    in hh."""
    field = hm.field
    rows, cols = hh._slot_dim(0), hm._slot_dim(0)
    out = [[field.zero] * cols for _ in range(rows)]
    if hm.slots.free and hh.slots.free:
        into = dict(hh.slots[0])
        for p, space in hm.slots[0]:
            if p in into:
                _add_blocks(out, hh.offsets[0][p], hm.offsets[0][p],
                            blocks(p, space, into[p]), field.one)
        return out
    col = 0
    for p, space in hm.slots[0]:
        for elem in space:
            v = hh.coords_of(0, {p: compose(p, elem)})
            if v is None:
                raise AssertionError("composite misses the Hom basis")
            for row, (c,) in zip(out, v.entries):
                row[col] = c
            col += 1
    return out


def _solve_transfer(hm, hh, target, compose, blocks):
    """Solve δ(m) = 0 and T(m) − δ(h) = target for m ∈ Hom^0 of hm and
    h ∈ Hom^{-1} of hh, where T : Hom^0 of hm → Hom^0 of hh sends m to
    compose(p, m_p) slot by slot; blocks reads the same map off the charts
    (see _transfer_matrix).  The system [[δ⁰, 0], [T, −δ⁻¹]] is written
    row by row from the matrices of the two Hom complexes, with its block
    shapes checked against their dimensions.  Returns the components
    ({deg: map} of m, of h) or None."""
    field = hm.field
    nm = hm._slot_dim(0)
    nh = hh._slot_dim(-1)
    tmat = _transfer_matrix(hm, hh, compose, blocks)
    rhs_t = hh.coords_of(0, dict(target.comps))
    if rhs_t is None:
        return None
    d0 = hm.delta[0]
    z = field.zero
    pad = (z,) * nh
    rows = [r + pad for r in block_rows(field, d0, d0.rows, nm)]
    rows += [tuple(t) + negated(field, r) for t, r in zip(
        tmat, block_rows(field, hh.delta[-1], len(tmat), nh))]
    height, width = len(rows), nm + nh
    system = Matrix(field, height, width, rows) if height and width else \
        Matrix.zeros(field, height, width)
    rhs = Matrix(field, height, 1, [(z,)] * d0.rows + list(rhs_t.entries)) \
        if height else Matrix.zeros(field, 0, 1)
    sol = linalg.solve(system, rhs)
    if sol is None:
        return None
    return (hm.element_of(0, sol.submatrix(range(nm), range(1))),
            hh.element_of(-1, sol.submatrix(range(nm, nm + nh), range(1))))


def lift_through_qis(g, s):
    """Given g : P → B and a quasi-isomorphism s : A → B with P a complex
    of projectives, find g' : P → A and a homotopy h with s∘g' ≃ g.
    The transfer m ↦ s∘m is read off the charts by post-composition when
    P is termwise recorded free.

    Returns (g', h) or None (None cannot happen under the stated
    hypotheses; callers treat it as an invariant violation).
    """
    p, a, b = g.source, s.source, s.target
    solved = _solve_transfer(
        hom_complex(p, a), hom_complex(p, b), g,
        lambda deg, elem: s.comp(deg).compose(elem),
        lambda deg, chart, into: chart.post_blocks(into, s.comp(deg)))
    if solved is None:
        return None
    gp = ChainMap(p, a, solved[0])
    h = Homotopy(p, b, solved[1])
    # sanity: s∘g' − g = boundary(h)
    if (s.compose(gp) - g) != h.boundary():
        raise AssertionError("lift certificate fails to verify")
    return gp, h


def extend_along_qis(alpha, iota):
    """Given α : A → C and a quasi-isomorphism ι : A → B with A and B
    termwise projective, find q : B → C and a homotopy h with q∘ι ≃ α.

    Dual counterpart of lift_through_qis (post- instead of pre-composition);
    ι is a homotopy equivalence under the stated hypotheses, so a solution
    exists.  The transfer m ↦ m∘ι is read off the charts by
    pre-composition when A and B are termwise recorded free.  Returns
    (q, h) or None.
    """
    a_cx, b_cx, c_cx = iota.source, iota.target, alpha.target
    solved = _solve_transfer(
        hom_complex(b_cx, c_cx), hom_complex(a_cx, c_cx), alpha,
        lambda deg, elem: elem.compose(iota.comp(deg)),
        lambda deg, chart, into: chart.pre_blocks(into, iota.comp(deg),
                                                  a_cx.term(deg)))
    if solved is None:
        return None
    q = ChainMap(b_cx, c_cx, solved[0])
    h = Homotopy(a_cx, c_cx, solved[1])
    if (q.compose(iota) - alpha) != h.boundary():
        raise AssertionError("factorization certificate fails to verify")
    return q, h


# --- restriction and duality --------------------------------------------------


def restrict_complex(u, x):
    """Termwise restriction along a shape functor (exact)."""
    terms = {p: ps.restrict(u, x.term(p)) for p in x.degrees()}
    diffs = {p: ps.restrict_map(u, x.diff(p), terms[p], terms[p + 1])
             for p in range(x.lo, x.hi)}
    return Complex(x.field, u.source, terms, diffs)


def over_point(x):
    """View a complex over I as a complex over I × e (free parts carry
    over, so resolutions short-circuit when they already did)."""
    icat = x.shape
    e = diagram.terminal_cat()
    prod = diagram.product(icat, e)
    pt = e.objects[0]

    def lift_ps(f):
        dims = {(m, pt): f.dims[m] for m in icat.objects}
        action = {}
        for a in prod.indecomposable_arrows():
            aa, _ = prod.pair_of[a]
            action[a] = f.act(aa)
        parts = None
        if f.free_parts is not None:
            parts = tuple((v, (i, pt)) for (v, i) in f.free_parts)
        return ps.Presheaf(f.field, prod, dims, action, free_parts=parts)

    terms = {p: lift_ps(x.term(p)) for p in x.degrees()}
    diffs = {p: ps.PresheafMap(terms[p], terms[p + 1],
                               {(m, pt): x.diff(p).comps[m]
                                for m in icat.objects})
             for p in range(x.lo, x.hi)}
    return Complex(x.field, prod, terms, diffs)


def restrict_chain_map(u, f, src, tgt):
    """u*f between src = u*(f.source) and tgt = u*(f.target), the
    restricted ends, which the caller has built."""
    return ChainMap(src, tgt, {p: ps.restrict_map(u, m, src.term(p), tgt.term(p))
                               for p, m in f.comps.items()})


def dualize_complex(x, opposite_shape=None):
    """(DX)^p = (X^{−p})^∨ with d_{DX}^p = (d_X^{−p−1})^T; an involution
    on the nose (DDX == X bit for bit)."""
    op = opposite_shape if opposite_shape is not None else diagram.opposite(x.shape)
    terms = {-p: ps.dualize(x.term(p), op) for p in x.degrees()}
    diffs = {-p - 1: ps.dualize_map(x.diff(p), terms[-p - 1], terms[-p])
             for p in range(x.lo, x.hi)}
    return Complex(x.field, op, terms, diffs)


def dualize_chain_map(f, opposite_shape=None):
    """Dual of a chain map, reversing its direction."""
    op = opposite_shape if opposite_shape is not None else \
        diagram.opposite(f.source.shape)
    src = dualize_complex(f.target, op)
    tgt = dualize_complex(f.source, op)
    return ChainMap(src, tgt, {
        -p: ps.dualize_map(m, src.term(-p), tgt.term(-p))
        for p, m in f.comps.items()})
