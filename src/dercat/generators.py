"""Seeded random instances: posets, presheaves, complexes, functors,
conflations, squares and incoherent diagrams.

Everything is driven by a `random.Random(seed)` so suites are reproducible.
Presheaves are produced as frees, kernels or cokernels of free maps —
functorial by construction.  Complexes are built degree by degree, each
differential drawn uniformly from the solution space of d² = 0.  Diagram
corpora for the coherence suites have fiberwise homology concentrated in
a single degree, which makes the Toda conditions hold automatically.
"""

import random

from . import linalg
from .linalg import Matrix
from . import diagram
from . import presheaf as ps
from . import complexes as cx
from . import derivator as dv
from . import coherence as co


def rng_for(seed):
    return random.Random(seed)


def rand_scalar(r, field):
    if field.kind == "prime":
        return field.of_int(r.randrange(field.p))
    return field.of_int(r.randint(-2, 2))


def rand_matrix(r, field, rows, cols):
    if not (rows and cols):
        return Matrix.zeros(field, rows, cols)
    return Matrix(field, rows, cols,
                  [[rand_scalar(r, field) for _ in range(cols)]
                   for _ in range(rows)])


def rand_poset(r, max_objects=5):
    """A random poset category: arrows point from larger to smaller."""
    n = r.randint(1, max_objects)
    objects = list(range(n))
    below = {j: set() for j in objects}
    for i in range(n):
        for j in range(i + 1, n):
            if r.random() < 0.5:
                below[j].add(i)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for j in objects:
            for i in list(below[j]):
                extra = below[i] - below[j]
                if extra:
                    below[j] |= extra
                    changed = True

    return diagram.poset_category(
        objects, lambda a, b: a == b or a in below[b])


def rand_free(r, field, shape, max_parts=2):
    parts = [ps.free_at(field, shape, 1, r.choice(shape.objects))
             for _ in range(r.randint(1, max_parts))]
    return ps.direct_sum_many(field, shape, parts)


def rand_presheaf(r, field, shape, max_parts=2):
    """A random presheaf: free, or the kernel/cokernel of a map of frees."""
    which = r.randrange(3)
    if which == 0:
        return rand_free(r, field, shape, max_parts)
    src = rand_free(r, field, shape, max_parts)
    tgt = rand_free(r, field, shape, max_parts)
    values = [rand_matrix(r, field, tgt.dims[i], v)
              for (v, i) in src.free_parts]
    phi = ps.free_map_to(src, tgt, values)
    if which == 1:
        return ps.kernel(phi)[0]
    return ps.cokernel(phi)[0]


def rand_hom_element(r, field, f, g):
    basis = ps.hom_space(f, g)
    if not basis:
        return ps.zero_map(f, g)
    acc = None
    for b in basis:
        c = rand_scalar(r, field)
        if c == field.zero:
            continue
        t = b.scale(c)
        acc = t if acc is None else acc + t
    return acc if acc is not None else ps.zero_map(f, g)


def rand_complex(r, field, shape, lo=-2, hi=2, max_parts=2):
    """A random bounded complex, differentials drawn from ker(post-composition
    with the previous differential)."""
    degs = [p for p in range(lo, hi + 1) if r.random() < 0.7]
    terms = {p: rand_presheaf(r, field, shape, max_parts) for p in degs}
    diffs = {}
    prev = None
    for p in range(lo, hi):
        s = terms.get(p)
        t = terms.get(p + 1)
        if s is None or t is None or s.is_zero() or t.is_zero():
            prev = None
            continue
        basis = ps.hom_space(s, t)
        if not basis:
            prev = None
            continue
        if prev is None:
            d = rand_hom_element(r, field, s, t)
        else:
            # coordinates c with (sum c_k b_k) ∘ prev = 0
            cols = []
            for b in basis:
                comp = b.compose(prev)
                cols.append(linalg.vstack(field, [
                    linalg.flatten_matrix(comp.comps[o])
                    for o in shape.objects]))
            system = linalg.hstack(field, cols)
            sol = linalg.kernel_basis(system)
            if sol.cols == 0:
                d = ps.zero_map(s, t)
            else:
                coeff = [rand_scalar(r, field) for _ in range(sol.cols)]
                d = ps.zero_map(s, t)
                for k, b in enumerate(basis):
                    c = field.zero
                    for j, w in enumerate(coeff):
                        c = field.add(c, field.mul(w, sol.entries[k][j]))
                    if c != field.zero:
                        d = d + b.scale(c)
        diffs[p] = d
        prev = d if not d.is_zero() else None
    return cx.Complex(field, shape, terms, diffs)


def rand_monotone(r, src, tgt):
    """A random functor between poset-style categories (at most one arrow
    between any two objects in the target)."""
    order = list(src.objects)
    omap = {}
    for x in order:
        choices = []
        for y in tgt.objects:
            ok = True
            for x2 in omap:
                f_x2x = src.hom(x2, x) or src.hom(x, x2)
                if not f_x2x:
                    continue
                if src.hom(x2, x):
                    need = tgt.hom(omap[x2], y)
                else:
                    need = tgt.hom(y, omap[x2])
                if not need:
                    ok = False
                    break
            if ok:
                choices.append(y)
        if not choices:
            return None
        omap[x] = r.choice(choices)
    amap = {}
    for a in src.arrows:
        x, y = src.src[a], src.tgt[a]
        h = tgt.hom(omap[x], omap[y])
        amap[a] = h[0]
    return diagram.DiagFunctor(src, tgt, omap, amap, validate=True)


def rand_functor(r, max_objects=4):
    """A random (source poset, target poset, functor) triple."""
    while True:
        src = rand_poset(r, max_objects)
        tgt = rand_poset(r, max_objects)
        u = rand_monotone(r, src, tgt)
        if u is not None:
            return u


def rand_conflation(r, field, shape, max_parts=2):
    """A random degreewise-split-free conflation: either A ↣ A⊕B ↠ B or the
    kernel sequence K ↣ P ↠ im(φ) of a map of frees."""
    if r.random() < 0.5:
        a = rand_presheaf(r, field, shape, max_parts)
        b = rand_presheaf(r, field, shape, max_parts)
        _, incls, projs = ps.sum_maps([a, b])
        return ps.Conflation(incls[0], projs[1])
    src = rand_free(r, field, shape, max_parts)
    tgt = rand_free(r, field, shape, max_parts)
    values = [rand_matrix(r, field, tgt.dims[i], v)
              for (v, i) in src.free_parts]
    phi = ps.free_map_to(src, tgt, values)
    _, incl = ps.kernel(phi)
    _, _, onto = ps.image(phi)
    return ps.Conflation(incl, onto)


def conflation_square(conf, base):
    """The degree-0 square X ↣ Y, 0, ↠ Z over □ × base attached to a
    conflation of presheaves over base."""
    field = conf.sub.field
    sq = diagram.square()
    prod = diagram.product(sq, base)
    x, y, z = conf.sub, conf.middle, conf.quotient
    fibs = {(0, 0): x, (0, 1): y, (1, 0): ps.zero_presheaf(field, base),
            (1, 1): z}
    # structure map for the arrow (i1,m1) → (i2,m2): fiber_{i2} → fiber_{i1}
    # (poset arrows run larger → smaller, values are contravariant)
    struct = {((0, 1), (0, 0)): conf.inflation,
              ((1, 1), (0, 1)): conf.deflation}
    struct[((1, 1), (0, 0))] = conf.deflation.compose(conf.inflation)
    dims = {(i, m): fibs[i].dims[m] for (i, m) in prod.objects}
    action = {}
    for a in prod.indecomposable_arrows():
        _, bb = prod.pair_of[a]
        (i1, m1), (i2, m2) = prod.src[a], prod.tgt[a]
        if i1 == i2:
            action[a] = fibs[i1].act(bb)
        else:
            if (i1, i2) in struct:
                action[a] = fibs[i1].act(bb) * struct[(i1, i2)].comps[m2]
            else:
                action[a] = Matrix.zeros(field, fibs[i1].dims[m1],
                                         fibs[i2].dims[m2])
    term = ps.Presheaf(field, prod, dims, action).validate()
    return dv.square_over(cx.stalk(term))


def rand_stalkish_complex(r, field, shape, max_parts=2):
    """A complex with homology concentrated in degree 0: a stalk or the
    projective resolution of one."""
    f = rand_presheaf(r, field, shape, max_parts)
    if f.is_zero():
        f = rand_free(r, field, shape, 1)
    x = cx.stalk(f)
    if r.random() < 0.5:
        return x
    return cx.proj_resolution(x)[0]


def rand_honest(r, field, icat, base, max_parts=2):
    """An honest complex over icat × base whose fibers have homology in
    degree 0 (so its underlying diagram passes the Toda check)."""
    prod = diagram.product(icat, base)
    return rand_stalkish_complex(r, field, prod, max_parts)


def perturb_diagram(r, d):
    """Replace each map of an incoherent diagram by a homotopic one (adding
    the boundary of a random homotopy); the lift problem is unchanged."""
    field = d.field
    for a in list(d.maps):
        f = d.maps[a]
        hcomps = {}
        for p in f.source.degrees():
            s = f.source.term(p)
            t = f.target.term(p - 1)
            h = rand_hom_element(r, field, s, t)
            if not h.is_zero():
                hcomps[p] = h
        if hcomps:
            h = cx.Homotopy(f.source, f.target, hcomps)
            d.maps[a] = f + h.boundary()
    d.witnesses = {}
    return d


def rand_incoherent(r, field, icat, base, max_parts=2):
    """A Toda-passing incoherent diagram: the underlying diagram of an
    honest object, with every map perturbed within its homotopy class."""
    x = rand_honest(r, field, icat, base, max_parts)
    return perturb_diagram(r, co.dia(x))


def rand_kernel(r, field, shape, max_parts=2):
    """A tensor kernel passing the Toda self-check (homology in one degree,
    possibly shifted)."""
    k = rand_stalkish_complex(r, field, shape, max_parts)
    return cx.shift(k, r.randint(-1, 1))
