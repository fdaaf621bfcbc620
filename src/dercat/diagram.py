"""Finite directed categories, functors and natural transformations.

A FinCat lists its nonempty hom sets as ordered tuples of arrow
identifiers.  All downstream constructions (direct sums indexed by
hom-sets, Kan extension formulas) index over these tuples, so the order
fixed at construction is part of the data and must never change between
runs.  The standard shapes, their products, opposites, full subcategories
and disjoint unions are posets: a hom set has at most one arrow, so the
composite of x → y → z is the one arrow x → z and no composition table is
stored.  Shapes read from `diagram` files, comma categories and the
one-point shape keep an explicit table of composites; in a category with
at most one arrow per hom set the hom sets decide it, so equality ignores
it there.

Directedness means: no endomorphisms except identities and no oriented
cycles through distinct objects.

A category is never changed once the function that builds it returns,
so the standard shapes, products and opposites are built once and shared
(each memo keeps at most SHAPE_CACHE_SIZE), and so are the point
inclusions and the functors u × id_J.  Every memo above linalg is
a `memo`, keyed by the arguments and by what their equality ignores,
their `recorded` structure, so an answer depends on its arguments alone
and not on which equal value was asked for first.
"""

from functools import lru_cache, wraps

SHAPE_CACHE_SIZE = 256


def memo(maxsize):
    """Share a function's results between calls whose arguments are equal
    and record the same structure: the key is the arguments and each
    one's `recorded`, None for a plain argument.  At most maxsize results
    are kept; the least recently used is dropped and recomputed when
    asked for again."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(lambda args, _: fn(*args))

        @wraps(fn)
        def call(*args):
            # a list comprehension, as a generator costs more per call
            return cached(args, tuple([getattr(a, "recorded", None)
                                       for a in args]))
        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call
    return wrap


class FinCat:
    """A finite directed category.

    Args:
        objects: ordered list of object names (hashable).
        hom: dict (x, y) -> ordered tuple of arrow ids; missing pairs are
            empty.  Only the nonempty hom sets are kept, in hom_table.
        identity: dict object -> arrow id of its identity.
        comp: dict (g, f) -> arrow id of g∘f on composable pairs
            (f: x→y, g: y→z), or None for a poset: at most one arrow per
            hom set, so the composite of x → y → z is the one arrow x → z
            and no table is stored.  A poset's `comp` is built from its
            hom sets when it is read.
    """

    def __init__(self, objects, hom, identity, comp=None, validate=True):
        self.objects = tuple(objects)
        self.hom_table = {}
        self.src = {}
        self.tgt = {}
        arrows = []
        for x in self.objects:
            for y in self.objects:
                hs = tuple(hom.get((x, y), ()))
                if not hs:
                    continue
                self.hom_table[(x, y)] = hs
                for a in hs:
                    if a in self.src:
                        raise ValueError("arrow id %r used twice" % (a,))
                    self.src[a] = x
                    self.tgt[a] = y
                arrows.extend(hs)
        self.arrows = tuple(arrows)
        self.identity = dict(identity)
        self._comp = None if comp is None else dict(comp)
        self.thin = all(len(hs) == 1 for hs in self.hom_table.values())
        self._out = None
        self._key = None
        self._hash = None
        self._nonidentity = None
        self._indecomposable = None
        self._factorizations = None
        self._factor_of = None
        self._max_chain = None
        # optional structure set by constructors; recorded is what
        # equality ignores of it, for memo keys
        self.product_of = None
        self.recorded = None
        self.pair_of = None       # arrow id -> (a, b) when product
        self.pair_arrow = None    # (a, b) -> arrow id when product
        if validate:
            self._validate()

    # -- basic access ------------------------------------------------------

    def hom(self, x, y):
        return self.hom_table.get((x, y), ())

    def is_poset(self):
        """Whether the category was built without a composition table."""
        return self._comp is None

    @property
    def comp(self):
        """The composition table (g, f) -> g∘f; a poset's covers every
        composable pair and is built anew on each read."""
        if self._comp is not None:
            return self._comp
        hom, out = self.hom_table, self.targets()
        return {(g, f): hom[(x, z)][0]
                for (x, y), (f,) in hom.items() for z in out[y]
                for g in hom[(y, z)]}

    def targets(self):
        """Object -> the objects it has arrows to (itself included), in
        object order."""
        if self._out is None:
            out = {x: [] for x in self.objects}
            for (x, y) in self.hom_table:
                out[x].append(y)
            self._out = out
        return self._out

    def is_identity(self, a):
        return self.identity[self.src[a]] == a

    def nonidentity_arrows(self):
        if self._nonidentity is None:
            self._nonidentity = tuple(a for a in self.arrows
                                      if not self.is_identity(a))
        return self._nonidentity

    def indecomposable_arrows(self):
        """The non-identity arrows that are not a composite of two
        non-identity arrows, in arrow order.  The category is directed, so
        every non-identity arrow is a composite of these.  A product's are
        its factors' indecomposables paired with identities."""
        if self._indecomposable is None:
            if self.product_of is not None:
                i, j = self.product_of
                gens = {self.pair_arrow[(a, j.identity[y])]
                        for a in i.indecomposable_arrows() for y in j.objects}
                gens.update(self.pair_arrow[(i.identity[x], b)]
                            for x in i.objects
                            for b in j.indecomposable_arrows())
            else:
                composites = set()
                hom, out, comp = self.hom_table, self.targets(), self._comp
                for (x, y), fs in hom.items():
                    if x == y:
                        continue
                    for z in out[y]:
                        if z == y:
                            continue
                        if comp is None:
                            composites.add(hom[(x, z)][0])
                        else:
                            composites.update(comp[(g, f)] for f in fs
                                              for g in hom[(y, z)])
                gens = set(self.nonidentity_arrows()) - composites
            self._indecomposable = tuple(a for a in self.nonidentity_arrows()
                                         if a in gens)
        return self._indecomposable

    def factorizations(self):
        """Triples (c, g, f) with c = g∘f, one for each non-identity arrow
        c that is not indecomposable, where f is indecomposable and g is
        indecomposable or the c of an earlier triple.  So a contravariant
        action given on the indecomposable arrows extends to every arrow
        by F(c) = F(f)·F(g), taken in this order."""
        if self._factorizations is None:
            gens = self.indecomposable_arrows()
            src, tgt, hom, comp = self.src, self.tgt, self.hom_table, self._comp
            into = {x: [] for x in self.objects}
            for f in gens:
                into[tgt[f]].append(f)
            known = set(gens)
            queue = list(gens)
            out = []
            for g in queue:
                z = tgt[g]
                for f in into[src[g]]:
                    c = hom[(src[f], z)][0] if comp is None else comp[(g, f)]
                    if c not in known:
                        known.add(c)
                        queue.append(c)
                        out.append((c, g, f))
            self._factorizations = tuple(out)
            self._factor_of = {c: (g, f) for c, g, f in out}
        return self._factorizations

    def factor_of(self, c):
        """The pair (g, f) of c's triple (c, g, f) in factorizations();
        KeyError unless c is a non-identity arrow that is not
        indecomposable."""
        if self._factor_of is None:
            self.factorizations()
        return self._factor_of[c]

    def compose(self, g, f):
        """The composite g∘f for f: x→y, g: y→z."""
        if self.tgt[f] != self.src[g]:
            raise ValueError("arrows %r, %r not composable" % (g, f))
        if self._comp is None:
            return self.hom_table[(self.src[f], self.tgt[g])][0]
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        return self._comp[(g, f)]

    def generator_pairs(self):
        """The triples (g, a, g∘a) with a : x → y indecomposable and g a
        non-identity arrow out of y.  A non-identity arrow f is f'∘a with a
        indecomposable and f' an identity or shorter, so an equation of
        functors, actions or maps that holds on these pairs holds, by
        induction on the length of f, for every composable pair (g, f)."""
        hom, out, tgt = self.hom_table, self.targets(), self.tgt
        for a in self.indecomposable_arrows():
            y = tgt[a]
            for z in out[y]:
                if z != y:
                    for g in hom[(y, z)]:
                        yield g, a, self.compose(g, a)

    def _validate(self):
        """Identities, directedness and composition.  A poset composes
        through its hom sets, so it needs only that every composite exists.
        In a table every row names a composable pair (g, f) and a composite
        in hom(src f, tgt g), a row with an identity gives back the other
        arrow, and every composable pair of non-identity arrows has a row.
        With one arrow per hom set the two sides of h∘(g∘f) = (h∘g)∘f lie
        in the same one-arrow hom set, so composition is associative; a
        table with parallel arrows is checked on every composable triple of
        non-identity arrows (identities compose without the table)."""
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or self.src.get(i) != x or self.tgt.get(i) != x:
                raise ValueError("missing or misplaced identity at %r" % (x,))
        # directedness: hom(x,x) = {id}, no cycles through distinct objects
        for x in self.objects:
            if self.hom(x, x) != (self.identity[x],):
                raise ValueError("nontrivial endomorphisms at %r" % (x,))
        for (x, y) in self.hom_table:
            if x != y and (y, x) in self.hom_table:
                raise ValueError("oriented cycle between %r and %r" % (x, y))
        out = self.targets()
        if self._comp is None:
            # a poset: composites exist and are unique, so composition is
            # associative and identities are neutral
            for (x, y), fs in self.hom_table.items():
                if len(fs) > 1:
                    raise ValueError("parallel arrows %r in a poset" % (fs,))
                for z in out[y]:
                    if (x, z) not in self.hom_table:
                        raise ValueError("no composite %r -> %r -> %r"
                                         % (x, y, z))
            return
        src, tgt, hom, comp = self.src, self.tgt, self.hom_table, self._comp
        for (g, f), gf in comp.items():
            if f not in src or g not in src or tgt[f] != src[g] or \
                    gf not in hom.get((src[f], tgt[g]), ()):
                raise ValueError("compose row %r∘%r = %r names no composite"
                                 % (g, f, gf))
            if (self.is_identity(f) and gf != g) or \
                    (self.is_identity(g) and gf != f):
                raise ValueError("identity row %r∘%r = %r is not neutral"
                                 % (g, f, gf))
        pairs = [(g, f) for (x, y), fs in hom.items() if x != y
                 for z in out[y] if z != y for f in fs for g in hom[(y, z)]]
        for g, f in pairs:
            if (g, f) not in comp:
                raise ValueError("no composite %r∘%r" % (g, f))
        if self.thin:
            return
        for g, f in pairs:
            gf = comp[(g, f)]
            for w in out[tgt[g]]:
                if w != tgt[g]:
                    for h in hom[(tgt[g], w)]:
                        if self.compose(h, gf) != \
                                self.compose(self.compose(h, g), f):
                            raise ValueError("associativity fails at (%r,%r,%r)"
                                             % (h, g, f))

    # -- value identity ----------------------------------------------------

    def _canonical_key(self):
        # with at most one arrow per hom set the hom sets fix composition
        if self._key is None:
            self._key = (self.objects,
                         tuple(sorted(self.hom_table.items())),
                         tuple(sorted(self.identity.items())),
                         () if self.thin else tuple(sorted(self._comp.items())))
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, FinCat) and
                                 self._canonical_key() == other._canonical_key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._canonical_key())
        return self._hash

    def __repr__(self):
        return "FinCat(%d objects, %d arrows)" % (len(self.objects), len(self.arrows))


class DiagFunctor:
    """A functor between finite directed categories, given by total maps."""

    def __init__(self, source, target, obj_map, arrow_map, validate=True):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.arrow_map = dict(arrow_map)
        if validate:
            self._validate()

    def _validate(self):
        for x in self.source.objects:
            if self.obj_map.get(x) not in self.target.objects:
                raise ValueError("object %r not mapped into target" % (x,))
        for a in self.source.arrows:
            fa = self.arrow_map.get(a)
            if fa is None:
                raise ValueError("arrow %r not mapped" % (a,))
            if self.target.src[fa] != self.obj_map[self.source.src[a]] or \
                    self.target.tgt[fa] != self.obj_map[self.source.tgt[a]]:
                raise ValueError("arrow %r maps with wrong endpoints" % (a,))
        for x in self.source.objects:
            if self.arrow_map[self.source.identity[x]] != \
                    self.target.identity[self.obj_map[x]]:
                raise ValueError("identity at %r not preserved" % (x,))
        # composition on the generator pairs; the rest follows by induction
        for g, f, gf in self.source.generator_pairs():
            if self.arrow_map[gf] != \
                    self.target.compose(self.arrow_map[g], self.arrow_map[f]):
                raise ValueError("composition not preserved at (%r,%r)" % (g, f))

    def __repr__(self):
        return "DiagFunctor(%r -> %r)" % (self.source, self.target)


class NatTrans:
    """A natural transformation between parallel functors."""

    def __init__(self, source, target, components, validate=True):
        if source.source != target.source or source.target != target.target:
            raise ValueError("functors not parallel")
        self.source = source
        self.target = target
        self.components = dict(components)
        if validate:
            self._validate()

    def _validate(self):
        cat = self.source.source
        tcat = self.source.target
        for x in cat.objects:
            c = self.components.get(x)
            if c is None or tcat.src[c] != self.source.obj_map[x] or \
                    tcat.tgt[c] != self.target.obj_map[x]:
                raise ValueError("component at %r missing or misplaced" % (x,))
        # the squares of a composite paste from its generators'
        for a in cat.indecomposable_arrows():
            x, y = cat.src[a], cat.tgt[a]
            left = tcat.compose(self.components[y], self.source.arrow_map[a])
            right = tcat.compose(self.target.arrow_map[a], self.components[x])
            if left != right:
                raise ValueError("naturality fails at arrow %r" % (a,))


def poset_category(objects, leq):
    """Category with at most one arrow x→y, present iff leq(y, x) fails...

    Arrow direction: a unique arrow x→y exists iff leq(y, x) holds with
    y != x, i.e. arrows point from larger to smaller elements (so that
    presheaves on the result are representations of the Hasse quiver read
    upward).
    """
    objects = list(objects)
    hom = {}
    identity = {}
    for x in objects:
        identity[x] = "id@%s" % (x,)
        hom[(x, x)] = (identity[x],)
    for x in objects:
        for y in objects:
            if x != y and leq(y, x):
                if leq(x, y):
                    raise ValueError("relation not antisymmetric")
                hom[(x, y)] = ("%s>%s" % (x, y),)
    return FinCat(objects, hom, identity)


# --- standard shapes ------------------------------------------------------


@memo(SHAPE_CACHE_SIZE)
def terminal_cat():
    return FinCat(("*",), {("*", "*"): ("id@*",)}, {"*": "id@*"}, {})


@memo(SHAPE_CACHE_SIZE)
def delta(n):
    """The linear poset with objects 0..n and unique arrows j→i for i ≤ j."""
    return poset_category(list(range(n + 1)), lambda a, b: a <= b)


@memo(SHAPE_CACHE_SIZE)
def cube(n):
    """The n-cube: poset of bit tuples, arrows from larger to smaller."""
    verts = []
    for k in range(2 ** n):
        verts.append(tuple((k >> i) & 1 for i in range(n)))
    verts.sort()
    return poset_category(verts, lambda a, b: all(x <= y for x, y in zip(a, b)))


@memo(SHAPE_CACHE_SIZE)
def product(i, j):
    """Product category; objects are pairs, arrows are pairs.  A product
    of posets is a poset.

    The result is shared between calls whose factors are equal and carry
    the same product structure."""
    objects = [(x, y) for x in i.objects for y in j.objects]
    hom = {}
    pair_of = {}
    pair_arrow = {}
    i_out, j_out = i.targets(), j.targets()
    for (x, y) in objects:
        for x2 in i_out[x]:
            for y2 in j_out[y]:
                arrows = []
                for a in i.hom(x, x2):
                    for b in j.hom(y, y2):
                        nm = "(%s,%s)" % (a, b)
                        arrows.append(nm)
                        pair_of[nm] = (a, b)
                        pair_arrow[(a, b)] = nm
                hom[((x, y), (x2, y2))] = tuple(arrows)
    identity = {(x, y): pair_arrow[(i.identity[x], j.identity[y])]
                for (x, y) in objects}
    comp = None
    if not (i.thin and j.thin):
        # arrows out of each object, so that only composable pairs are visited
        i_from = {x: [c for z in i_out[x] for c in i.hom(x, z)]
                  for x in i.objects}
        j_from = {y: [d for z in j_out[y] for d in j.hom(y, z)]
                  for y in j.objects}
        comp = {}
        for f, (a, b) in pair_of.items():
            for c in i_from[i.tgt[a]]:
                ca = i.compose(c, a)
                for d in j_from[j.tgt[b]]:
                    comp[(pair_arrow[(c, d)], f)] = \
                        pair_arrow[(ca, j.compose(d, b))]
    cat = FinCat(objects, hom, identity, comp, validate=False)
    cat.product_of = (i, j)
    cat.recorded = ((i, i.recorded), (j, j.recorded))
    cat.pair_of = pair_of
    cat.pair_arrow = pair_arrow
    return cat


@memo(SHAPE_CACHE_SIZE)
def opposite(i):
    """Opposite category; arrows keep their identifiers.

    The result is shared between calls on equal categories with the same
    product structure."""
    hom = {(y, x): hs for (x, y), hs in i.hom_table.items()}
    comp = None if i.is_poset() else \
        {(f, g): h for (g, f), h in i.comp.items()}
    return FinCat(i.objects, hom, i.identity, comp, validate=False)


def disjoint_union(i, j):
    """Disjoint union; returns (category, left inclusion, right inclusion)."""
    objs = [("L", x) for x in i.objects] + [("R", y) for y in j.objects]
    poset = i.is_poset() and j.is_poset()
    hom, identity, comp, amap = {}, {}, {}, {}
    for tag, part in (("L", i), ("R", j)):
        name = amap[tag] = {a: "%s:%s" % (tag, a) for a in part.arrows}
        for (x, y), hs in part.hom_table.items():
            hom[((tag, x), (tag, y))] = tuple(name[a] for a in hs)
        for x in part.objects:
            identity[(tag, x)] = name[part.identity[x]]
        if not poset:
            comp.update(((name[g], name[f]), name[h])
                        for (g, f), h in part.comp.items())
    cat = FinCat(objs, hom, identity, None if poset else comp, validate=False)
    incl_l = DiagFunctor(i, cat, {x: ("L", x) for x in i.objects}, amap["L"])
    incl_r = DiagFunctor(j, cat, {y: ("R", y) for y in j.objects}, amap["R"])
    return cat, incl_l, incl_r


def full_subcategory(i, objects):
    """Full subcategory on the given objects; returns (cat, inclusion)."""
    objects = tuple(objects)
    for x in objects:
        if x not in i.objects:
            raise ValueError("object %r not in category" % (x,))
    hom = {(x, y): i.hom(x, y) for x in objects for y in objects}
    identity = {x: i.identity[x] for x in objects}
    comp = None
    if not i.is_poset():
        kept = {a for v in hom.values() for a in v}
        comp = {(g, f): h for (g, f), h in i.comp.items()
                if g in kept and f in kept and h in kept}
    cat = FinCat(objects, hom, identity, comp, validate=False)
    incl = DiagFunctor(cat, i, {x: x for x in objects}, {a: a for a in cat.arrows})
    return cat, incl


@memo(SHAPE_CACHE_SIZE)
def square():
    """The commuting square Δ1 × Δ1; vect pictures have (0,0) as the source."""
    return product(delta(1), delta(1))


@memo(SHAPE_CACHE_SIZE)
def lefthalfcap():
    """⌐: the square minus its (1,1) corner; returns (cat, inclusion into □)."""
    return full_subcategory(square(), [(0, 0), (0, 1), (1, 0)])


@memo(SHAPE_CACHE_SIZE)
def righthalfcup():
    """⌙: the square minus its (0,0) corner; returns (cat, inclusion into □)."""
    return full_subcategory(square(), [(0, 1), (1, 0), (1, 1)])


@memo(SHAPE_CACHE_SIZE)
def twosquare():
    """Δ1 × Δ2: two squares side by side (rows indexed by Δ1, columns by Δ2)."""
    return product(delta(1), delta(2))


@memo(SHAPE_CACHE_SIZE)
def squarearrow():
    """twosquare minus the (1,2) corner; returns (cat, inclusion)."""
    ts = twosquare()
    return full_subcategory(ts, [o for o in ts.objects if o != (1, 2)])


@memo(SHAPE_CACHE_SIZE)
def square_into_squarearrow():
    """The inclusion □ → squarearrow onto columns {0,1} (a closed immersion)."""
    sq = square()
    sa, _ = squarearrow()
    return functor_by_objects(sq, sa, {o: o for o in sq.objects})


# --- functor combinators --------------------------------------------------


def identity_functor(i):
    return DiagFunctor(i, i, {x: x for x in i.objects},
                       {a: a for a in i.arrows}, validate=False)


def compose_functors(v, u):
    """v∘u for u: I→J, v: J→K."""
    if u.target != v.source:
        raise ValueError("functors not composable")
    return DiagFunctor(u.source, v.target,
                       {x: v.obj_map[u.obj_map[x]] for x in u.source.objects},
                       {a: v.arrow_map[u.arrow_map[a]] for a in u.source.arrows},
                       validate=False)


def constant_functor(i, j, y):
    """The functor I → J constant at the object y."""
    return DiagFunctor(i, j, {x: y for x in i.objects},
                       {a: j.identity[y] for a in i.arrows}, validate=False)


def terminal_functor(i):
    """p_I : I → e."""
    return constant_functor(i, terminal_cat(), "*")


@memo(SHAPE_CACHE_SIZE)
def point_inclusion(i, x):
    """i_x : e → I, one shared functor per (I, x), so that the memos keyed
    by functors, which compare by identity, see it as one."""
    e = terminal_cat()
    return DiagFunctor(e, i, {"*": x}, {"id@*": i.identity[x]}, validate=False)


def functor_by_objects(i, j, obj_map):
    """Functor determined by an object map when all induced hom maps are
    forced (each relevant target hom-set has exactly one candidate)."""
    amap = {}
    for a in i.arrows:
        x, y = i.src[a], i.tgt[a]
        cand = j.hom(obj_map[x], obj_map[y])
        if i.is_identity(a):
            amap[a] = j.identity[obj_map[x]]
        elif len(cand) == 1:
            amap[a] = cand[0]
        else:
            raise ValueError("arrow image not forced for %r" % (a,))
    return DiagFunctor(i, j, obj_map, amap)


def product_functor(u, v):
    """u × v between the corresponding product categories."""
    s = product(u.source, v.source)
    t = product(u.target, v.target)
    omap = {(x, y): (u.obj_map[x], v.obj_map[y]) for (x, y) in s.objects}
    amap = {}
    for arr, (a, b) in s.pair_of.items():
        amap[arr] = t.pair_arrow[(u.arrow_map[a], v.arrow_map[b])]
    return DiagFunctor(s, t, omap, amap, validate=False)


@memo(SHAPE_CACHE_SIZE)
def times_base(u, j):
    """u × id_J, used to apply shape-level functors to complexes over I×J;
    shared like the products, per functor u (by identity) and shape J."""
    return product_functor(u, identity_functor(j))


def opposite_functor(u):
    """The same functor viewed between the opposite categories."""
    return DiagFunctor(opposite(u.source), opposite(u.target),
                       u.obj_map, u.arrow_map, validate=False)


# --- comma categories -----------------------------------------------------


def comma_under(u, y):
    """The comma category y\\I: objects (x, g : y → u(x)); returns the
    category, the forgetful functor and the 2-cell α : const_y ⇒ u∘j."""
    i_cat, j_cat = u.source, u.target
    if y not in j_cat.objects:
        raise ValueError("unknown object %r" % (y,))
    objects = [(x, g) for x in i_cat.objects for g in j_cat.hom(y, u.obj_map[x])]
    idx = {o: k for k, o in enumerate(objects)}
    hom = {}
    arrow_h = {}

    def aid(h, o1, o2):
        return "%s@%d>%d" % (h, idx[o1], idx[o2])

    for o1 in objects:
        for o2 in objects:
            (x1, f1), (x2, f2) = o1, o2
            arrows = []
            for h in i_cat.hom(x1, x2):
                if j_cat.compose(u.arrow_map[h], f1) == f2:
                    nm = aid(h, o1, o2)
                    arrows.append(nm)
                    arrow_h[nm] = h
            hom[(o1, o2)] = tuple(arrows)
    identity = {}
    for o in objects:
        identity[o] = aid(i_cat.identity[o[0]], o, o)
    comp = {}
    srcs = {}
    tgts = {}
    for (o1, o2), arrs in hom.items():
        for a in arrs:
            srcs[a] = o1
            tgts[a] = o2
    for f, hf in arrow_h.items():
        for g, hg in arrow_h.items():
            if tgts[f] == srcs[g]:
                comp[(g, f)] = aid(i_cat.compose(hg, hf), srcs[f], tgts[g])
    cat = FinCat(objects, hom, identity, comp, validate=False)
    forget = DiagFunctor(cat, i_cat, {o: o[0] for o in objects},
                         {a: arrow_h[a] for a in cat.arrows}, validate=False)
    uj = compose_functors(u, forget)
    const = constant_functor(cat, j_cat, y)
    alpha = NatTrans(const, uj, {o: o[1] for o in objects})
    return cat, forget, alpha


# --- predicates -----------------------------------------------------------


def is_fully_faithful(u):
    seen = set()
    for x in u.source.objects:
        ux = u.obj_map[x]
        if ux in seen:
            return False
        seen.add(ux)
    for x in u.source.objects:
        for y in u.source.objects:
            images = [u.arrow_map[a] for a in u.source.hom(x, y)]
            if len(set(images)) != len(images):
                return False
            if set(images) != set(u.target.hom(u.obj_map[x], u.obj_map[y])):
                return False
    return True


def is_open_immersion(u):
    """True iff u is injective, fully faithful, and every arrow into the
    image comes from the image."""
    if not is_fully_faithful(u):
        return False
    image = set(u.obj_map.values())
    for x in image:
        for y in u.target.objects:
            if u.target.hom(y, x) and y not in image:
                return False
    return True


def is_closed_immersion(u):
    """Closed = open after passing to opposites: arrows out of the image
    stay in the image."""
    if not is_fully_faithful(u):
        return False
    image = set(u.obj_map.values())
    for x in image:
        for y in u.target.objects:
            if u.target.hom(x, y) and y not in image:
                return False
    return True


def max_chain_length(i):
    """Length of the longest composable chain of non-identity arrows,
    computed once per category; a product's is the sum of its factors'."""
    if i._max_chain is not None:
        return i._max_chain
    if i.product_of is not None and i.objects:
        a, b = i.product_of
        i._max_chain = max_chain_length(a) + max_chain_length(b)
        return i._max_chain
    out = i.targets()
    longest = {}

    def chain_from(x):
        if x not in longest:
            best = 0
            for y in out[x]:
                if y != x:
                    best = max(best, 1 + chain_from(y))
            longest[x] = best
        return longest[x]

    i._max_chain = max((chain_from(x) for x in i.objects), default=0)
    return i._max_chain
