"""Presheaves of vector spaces: free objects, hom spaces, exactness and
resolutions, with hand-derived dimension oracles."""

import sys

import pytest

from dercat import linalg
from dercat.linalg import Field, Matrix
from dercat import diagram
from dercat import presheaf as ps
from dercat import complexes as cx
from dercat import derivator as dv
from dercat import generators as gen
from dercat import serialize as se

F2 = Field("prime", 2)
F3 = Field("prime", 3)
F5 = Field("prime", 5)


def simple(field, cat, at):
    dims = {x: 1 if x == at else 0 for x in cat.objects}
    action = {a: Matrix.zeros(field, dims[cat.src[a]], dims[cat.tgt[a]])
              for a in cat.nonidentity_arrows()}
    return ps.Presheaf(field, cat, dims, action, validate=True)


def test_free_dims_count_arrows():
    # (V ⊗ i)_j has one copy of V per arrow j → i
    d2 = diagram.delta(2)
    f = ps.free_at(F2, d2, 1, 0)
    assert f.dims == {0: 1, 1: 1, 2: 1}
    g = ps.free_at(F2, d2, 2, 2)
    assert g.dims == {0: 0, 1: 0, 2: 2}


def test_hom_from_free_is_fiber():
    # Hom(free_at(v, i), G) has dimension v * dim G(i)
    d1 = diagram.delta(1)
    f = ps.free_at(F2, d1, 2, 0)
    g = ps.free_at(F2, d1, 1, 0)
    assert len(ps.hom_space(f, g)) == 2 * g.dims[0]
    s1 = simple(F2, d1, 1)
    assert len(ps.hom_space(f, s1)) == 0
    # no nonzero maps out of the simple at 1 into the one at 0
    assert len(ps.hom_space(s1, simple(F2, d1, 0))) == 0


def test_hom_coordinates_round_trip():
    r = gen.rng_for(2)
    for _ in range(10):
        shape = gen.rand_poset(r, 4)
        f = gen.rand_presheaf(r, F3, shape)
        g = gen.rand_presheaf(r, F3, shape)
        basis = ps.hom_space(f, g)
        phi = gen.rand_hom_element(r, F3, f, g)
        coords = ps.hom_coordinates(f, g, phi)
        assert coords is not None
        acc = ps.zero_map(f, g)
        for c, b in zip(coords, basis):
            acc = acc + b.scale(c)
        assert acc == phi


@pytest.mark.parametrize("field", [F2, F3, Field("rationals")], ids=repr)
def test_hom_coordinates_of_unnatural_map(field):
    p0 = ps.free_at(field, diagram.delta(1), 1, 0)
    bad = ps.PresheafMap(p0, p0, {0: Matrix.identity(field, 1),
                                  1: Matrix.zeros(field, 1, 1)})
    assert ps.hom_coordinates(p0, p0, bad) is None
    assert ps.hom_coordinates(p0, p0, ps.identity_map(p0)) == [1]


def test_hom_coordinates_detects_off_span():
    d1 = diagram.delta(1)
    s0, s1 = simple(F2, d1, 0), simple(F2, d1, 1)
    # the only natural map s0 -> s0 is scalar; a map with mismatched
    # components cannot arise, so test via an unnatural candidate between
    # different presheaves: hom(s0, s1) = 0, any nonzero matrix is off span
    phi = ps.PresheafMap(s0, ps.direct_sum(s0, s1),
                         {0: Matrix(F2, 1, 1, [[1]]),
                          1: Matrix.zeros(F2, 1, 0)})
    coords = ps.hom_coordinates(s0, ps.direct_sum(s0, s1), phi)
    assert coords is not None  # this one is natural
    bad = ps.hom_coordinates(s0, s1,
                             ps.zero_map(s0, s1))
    assert bad == []


def test_kernel_cokernel_image_exactness():
    r = gen.rng_for(3)
    for _ in range(10):
        shape = gen.rand_poset(r, 4)
        src = gen.rand_free(r, F2, shape)
        tgt = gen.rand_free(r, F2, shape)
        values = [gen.rand_matrix(r, F2, tgt.dims[i], v)
                  for (v, i) in src.free_parts]
        phi = ps.free_map_to(src, tgt, values)
        k, incl = ps.kernel(phi)
        assert phi.compose(incl).is_zero()
        coker, q = ps.cokernel(phi)
        assert q.compose(phi).is_zero()
        im, im_incl, core = ps.image(phi)
        assert im_incl.compose(core) == phi
        for x in shape.objects:
            assert k.dims[x] + im.dims[x] == src.dims[x]
            assert im.dims[x] + coker.dims[x] == tgt.dims[x]


def test_conflation_detection():
    d1 = diagram.delta(1)
    s0, s1 = simple(F2, d1, 0), simple(F2, d1, 1)
    p0 = ps.free_at(F2, d1, 1, 0)
    # S_1 ↣ P_0 ↠ S_0 is exact but not split
    infl = ps.PresheafMap(s1, p0, {0: Matrix.zeros(F2, 1, 0),
                                   1: Matrix(F2, 1, 1, [[1]])})
    defl = ps.PresheafMap(p0, s0, {0: Matrix(F2, 1, 1, [[1]]),
                                   1: Matrix.zeros(F2, 0, 1)})
    assert ps.is_conflation(infl, defl)
    assert not ps.is_conflation(infl, ps.zero_map(p0, s0))


def test_pushout_preserves_inflations():
    r = gen.rng_for(5)
    for _ in range(10):
        shape = gen.rand_poset(r, 4)
        conf = gen.rand_conflation(r, F2, shape)
        other = gen.rand_presheaf(r, F2, shape)
        f = gen.rand_hom_element(r, F2, conf.sub, other)
        w, i2, f2 = ps.pushout(conf.inflation, f)
        assert i2.is_componentwise_injective()
        assert i2.compose(f) == f2.compose(conf.inflation)
        v, p2, g2 = ps.pullback(conf.deflation,
                                gen.rand_hom_element(r, F2, other,
                                                     conf.quotient))
        assert p2.is_componentwise_surjective()


def test_resolution_length_bound():
    r = gen.rng_for(7)
    for _ in range(15):
        shape = gen.rand_poset(r, 5)
        f = gen.rand_presheaf(r, F2, shape)
        res = ps.resolve(f)
        assert len(res.terms) <= diagram.max_chain_length(shape) + 1
        if res.kernels:
            assert res.kernels[-1].is_zero()
        for t in res.terms:
            assert t.free_parts is not None


def test_free_hull_covers():
    d1 = diagram.delta(1)
    s0 = simple(F2, d1, 0)
    hull, eps = ps.free_hull(s0)
    assert eps.is_componentwise_surjective()
    assert hull.free_parts is not None


def test_restrict_and_dualize():
    d2 = diagram.delta(2)
    f = ps.free_at(F3, d2, 1, 0)
    sub, incl = diagram.full_subcategory(d2, [0, 1])
    rf = ps.restrict(incl, f)
    assert rf.dims == {0: 1, 1: 1}
    df = ps.dualize(f)
    assert ps.dualize(df) == f


def test_shared_presheaves_are_read_only():
    shape = diagram.poset_category([0, 1, 2], lambda a, b: a <= b)
    z = ps.zero_presheaf(F2, diagram.delta(2))
    assert z is ps.zero_presheaf(F2, shape)
    assert z is not ps.zero_presheaf(F3, shape)
    with pytest.raises(TypeError):
        z.dims[0] = 1
    with pytest.raises(TypeError):
        z.action[shape.nonidentity_arrows()[0]] = Matrix.identity(F2, 1)
    f = ps.free_at(F2, shape, 1, 2)
    assert f is ps.free_at(F2, diagram.delta(2), 1, 2)
    with pytest.raises(TypeError):
        ps.identity_map(f).comps[0] = Matrix.zeros(F2, 1, 1)


def test_direct_sum_many_matches_pairwise_fold():
    r = gen.rng_for(21)
    for field in (F2, F3):
        shape = gen.rand_poset(r, 4)
        parts = [gen.rand_presheaf(r, field, shape) for _ in range(3)]
        parts.insert(1, ps.free_at(field, shape, 2, shape.objects[0]))
        for summands in (parts[1:2], parts[1:], parts):
            acc = ps.zero_presheaf(field, shape)
            for s in summands:
                acc = ps.direct_sum(acc, s)
            total = ps.direct_sum_many(field, shape, summands)
            assert total == acc and total.free_parts == acc.free_parts
    frees = [ps.free_at(F2, shape, 1, x) for x in shape.objects]
    assert ps.direct_sum_many(F2, shape, frees).free_parts == tuple(
        (1, x) for x in shape.objects)


def _all_arrows_hom_basis(f, g):
    """The hom space f → g as the kernel of naturality at every non-identity
    arrow, written out entry by entry: one flattened column per basis
    vector, unknowns ordered by object, each φ_x row-major; returns the
    columns and the free columns of the system."""
    field, shape = f.field, f.shape
    offsets, off = {}, 0
    for x in shape.objects:
        offsets[x] = off
        off += g.dims[x] * f.dims[x]
    rows = []
    for a in shape.nonidentity_arrows():
        x, y = shape.src[a], shape.tgt[a]
        fa, ga = f.act(a).entries, g.act(a).entries
        # entry (i, j) of φ_x · F(a) − G(a) · φ_y
        for i in range(g.dims[x]):
            for j in range(f.dims[y]):
                row = [field.zero] * off
                for k in range(f.dims[x]):
                    row[offsets[x] + i * f.dims[x] + k] = fa[k][j]
                for l in range(g.dims[y]):
                    c = offsets[y] + l * f.dims[y] + j
                    row[c] = field.sub(row[c], ga[i][l])
                rows.append(row)
    basis, free = linalg.kernel_basis_and_free(
        Matrix(field, len(rows), off, rows))
    return ([list(col) for col in zip(*basis.entries)] if off else []), free


def _flat(phi):
    return [v for x in phi.source.shape.objects
            for row in phi.comps[x].entries for v in row]


def _parallel_quiver():
    """f, g : a → b parallel, h : b → c, k = h∘f and g.h = h∘g : a → c."""
    hom = {("a", "b"): ("f", "g"), ("a", "c"): ("k", "g.h"),
           ("b", "c"): ("h",)}
    identity = {x: "id@" + x for x in "abc"}
    comp = {("h", "f"): "k", ("h", "g"): "g.h"}
    for x, i in identity.items():
        hom[(x, x)] = (i,)
    for (x, y), arrows in hom.items():
        for a in arrows:
            comp[(identity[y], a)] = comp[(a, identity[x])] = a
    return diagram.FinCat(["a", "b", "c"], hom, identity, comp)


@pytest.mark.parametrize("field", [F2, F3, Field("rationals")], ids=repr)
def test_hom_space_on_generating_arrows_matches_all_arrows(field):
    r = gen.rng_for(8)
    shapes = [diagram.cube(3),
              diagram.product(diagram.delta(2), diagram.delta(2)),
              _parallel_quiver()]
    for shape in shapes:
        assert len(shape.indecomposable_arrows()) < \
            len(shape.nonidentity_arrows())
        for _ in range(4):
            f = gen.rand_presheaf(r, field, shape, max_parts=3)
            g = gen.rand_presheaf(r, field, shape, max_parts=3)
            fg = ps.direct_sum(f, g)
            for src, tgt in ((f, g), (g, f), (fg, fg)):
                basis = ps.hom_space(src, tgt)
                assert [_flat(phi) for phi in basis] == \
                    _all_arrows_hom_basis(src, tgt)[0]


@pytest.mark.parametrize("field", [F2, F5, Field("rationals")], ids=repr)
def test_ext_equals_ext_between_duals_over_the_opposite_shape(field):
    """Ext^n_I(X, Y) = Ext^n_{I^op}(DY, DX), D = dualize_complex: D is an
    exact anti-equivalence, so this route resolves DY over I^op instead of
    X and runs the resolution and Hom code on other inputs."""
    r = gen.rng_for(12)
    nonzero = 0
    for shape in [gen.rand_poset(r, 5) for _ in range(5)] + \
            [_parallel_quiver()]:
        op = diagram.opposite(shape)
        stalks = [cx.stalk(gen.rand_presheaf(r, field, shape))
                  for _ in range(2)]
        complexes = [gen.rand_complex(r, field, shape, lo=-1, hi=1,
                                      max_parts=1) for _ in range(2)]
        for x, y in (stalks, complexes, (stalks[0], complexes[1])):
            dy, dx = cx.dualize_complex(y, op), cx.dualize_complex(x, op)
            for n in range(-2, diagram.max_chain_length(shape) + 3):
                dim = cx.ext(x, y, n)[0]
                assert cx.ext(dy, dx, n)[0] == dim
                nonzero += dim > 0
    assert nonzero


def _free_sources(field, shape):
    """Recorded free presheaves: multiplicities v >= 2, sums that repeat an
    object, and the zero presheaf."""
    objs = shape.objects
    return [ps.free_at(field, shape, 2, objs[0]),
            ps.free_at(field, shape, 3, objs[-1]),
            ps.direct_sum_many(field, shape, [
                ps.free_at(field, shape, 1, objs[1]),
                ps.free_at(field, shape, 2, objs[0]),
                ps.free_at(field, shape, 1, objs[1])]),
            ps.direct_sum_many(field, shape, [
                ps.free_at(field, shape, 2, x) for x in objs[::2]]),
            ps.zero_presheaf(field, shape)]


def _stripped(f):
    """f with its free parts forgotten, so that Hom spaces out of it are
    the kernel of the naturality system."""
    return ps.Presheaf(f.field, f.shape, f.dims, f.action)


def _stripped_complex(x):
    return cx.Complex(x.field, x.shape, {
        p: _stripped(t) for p, t in x.terms.items()}, dict(x.diffs))


def _reference_shapes():
    return (diagram.cube(3),
            diagram.product(diagram.delta(2), diagram.delta(2)),
            _parallel_quiver())


@pytest.mark.parametrize("field", [F2, F3, Field("rationals")],
                         ids=("F2", "F3", "Q"))
def test_free_hom_space_matches_naturality_system(field):
    # out of a recorded free source the basis is read off by Yoneda, block
    # by block; it must be the kernel basis of the naturality system, free
    # columns too, both written out here and built on the same source with
    # its free parts forgotten, for hand-picked sources and for the terms
    # of resolutions of random complexes
    r = gen.rng_for(12)
    unnatural = resolved = 0
    for shape in _reference_shapes():
        for src in _free_sources(field, shape):
            assert src.free_parts is not None
            for _ in range(3):
                tgt = gen.rand_presheaf(r, field, shape, max_parts=3)
                basis = ps.hom_space(src, tgt)
                cols, free = _all_arrows_hom_basis(src, tgt)
                assert [_flat(phi) for phi in basis] == cols
                assert ps.hom_basis(src, tgt).free == free
                assert isinstance(ps.hom_basis(src, tgt), ps.YonedaChart)
                assert not isinstance(ps.hom_basis(_stripped(src), tgt),
                                      ps.YonedaChart)
                assert ps.hom_space(_stripped(src), tgt) == basis
                assert ps.hom_basis(_stripped(src), tgt).free == free
                assert len(basis) == sum(v * tgt.dims[i]
                                         for v, i in src.free_parts)
                phi = ps.PresheafMap(src, tgt, {
                    x: gen.rand_matrix(r, field, tgt.dims[x], src.dims[x])
                    for x in shape.objects})
                try:
                    phi.validate()
                except ValueError:
                    unnatural += 1
                    assert ps.hom_coordinates(src, tgt, phi) is None
                else:
                    assert ps.hom_coordinates(src, tgt, phi) is not None
        for _ in range(3):
            p, _ = cx.proj_resolution(gen.rand_complex(r, field, shape,
                                                       max_parts=3))
            tgt = gen.rand_complex(r, field, shape, max_parts=3)
            for src in p.terms.values():
                assert src.free_parts is not None
                for g in tgt.terms.values():
                    basis = ps.hom_space(src, g)
                    assert ps.hom_space(_stripped(src), g) == basis
                    assert ps.hom_basis(src, g).free == \
                        ps.hom_basis(_stripped(src), g).free
                    resolved += len(basis)
    assert unnatural >= 10 and resolved >= 100


@pytest.mark.parametrize("field", [F2, F3, Field("rationals")],
                         ids=("F2", "F3", "Q"))
def test_free_hom_complex_matches_naturality_path(field):
    # out of a termwise recorded-free complex δ is read off the Yoneda
    # charts without building a basis map; it must be the matrix that
    # composing and coordinatizing basis maps builds on the same complex
    # with its free parts forgotten, and the Ext classes must read the same
    r = gen.rng_for(15)
    nonzero = classes = 0
    for shape in _reference_shapes():
        for _ in range(3):
            x = gen.rand_complex(r, field, shape, max_parts=3)
            y = gen.rand_complex(r, field, shape, max_parts=3)
            p, _ = cx.proj_resolution(x)
            if p.is_zero():
                continue
            hc = cx.HomComplex(p, y)
            ref = cx.HomComplex(_stripped_complex(p), y)
            assert hc.slots.free and not ref.slots.free
            for n in range(-4, 4):
                assert hc.delta[n] == ref.delta[n]
                assert [(d, s.free) for d, s in hc.slots[n]] == \
                    [(d, s.free) for d, s in ref.slots[n]]
                nonzero += not hc.delta[n].is_zero()
            for n in range(-1, 2):
                classes += _check_ext_coordinates(r, x, y, n, hc, ref)
    assert nonzero >= 10 and classes >= 20


def _check_ext_coordinates(r, x, y, n, hc, ref):
    """ext_coordinates of a random cocycle, a combination of the Ext
    representatives plus a boundary, read the same through hc and through
    ref, and give back the combination; returns the number of classes."""
    field = x.field
    dim, reps = cx.ext(x, y, n)
    coeffs = [field.of_int(r.randrange(1, 5)) for _ in range(dim)]
    vec = Matrix.zeros(field, hc.dims[n], 1)
    for c, rep in zip(coeffs, reps):
        vec = vec + hc.coords_of(n, dict(rep.comps)).scale(c)
    h = Matrix(field, hc.delta[n - 1].cols, 1,
               [[field.of_int(r.randrange(3))]
                for _ in range(hc.delta[n - 1].cols)])
    vec = vec + hc.delta[n - 1] * h
    f = cx.ChainMap(hc.x, cx.shift(y, n), hc.element_of(n, vec))
    assert cx.ext_coordinates(x, y, n, f) == coeffs
    assert ref.coords_of(n, dict(f.comps)) == vec
    assert cx.representatives(ref, hc.x, y, n) == list(reps)
    return dim


def _presented(p):
    """The direct sum of the free_at of p's recorded parts."""
    return ps.direct_sum_many(p.field, p.shape, [
        ps.free_at(p.field, p.shape, v, i) for v, i in p.free_parts])


@pytest.mark.parametrize("field", [F2, Field("rationals")], ids=("F2", "Q"))
def test_recorded_free_parts_present_the_presheaf(field):
    # hom spaces and resolutions trust free_parts: every constructor that
    # records them builds exactly the direct sum of the parts' free_at
    r = gen.rng_for(13)
    seen = []
    for _ in range(4):
        shape = gen.rand_poset(r, 4)
        frees = [ps.free_at(field, shape, v, x)
                 for x in shape.objects for v in (1, 2)]
        sums = [ps.direct_sum_many(field, shape, [r.choice(frees)
                                                  for _ in range(3)]),
                ps.direct_sum_many(field, shape, frees[:1] * 2),
                ps.direct_sum_many(field, shape, [])]
        x = gen.rand_complex(r, field, shape, max_parts=2)
        resolved = cx.proj_resolution(x)[0]
        stalk = cx.stalk(gen.rand_free(r, field, shape, 3))
        u = gen.rand_functor(r)
        on_u = [gen.rand_free(r, field, u.source, 3) for _ in range(2)]
        rec = dv.product_recollement(shape)[0]
        lifted = [z for y in (resolved, stalk)
                  for z in (cx.over_point(y), rec.j_shriek(y),
                            rec.i_lower(y))]
        candidates = (frees + sums + [resolved.term(p)
                                      for p in resolved.degrees()]
                      + [dv.transport_presheaf(u, p) for p in on_u]
                      + [z.term(p) for z in lifted for p in z.degrees()])
        for p in candidates:
            if p.free_parts is not None:
                assert p == _presented(p)
                seen.append(p)
    assert len(seen) >= 60


# --- kernels, cokernels, images and free hulls against solve-based
# references, which solve for the induced action at every arrow


def _solved_action(g, bases, what):
    shape = g.shape
    action = {}
    for a in shape.nonidentity_arrows():
        x, y = shape.src[a], shape.tgt[a]
        m = linalg.solve(bases[x], g.act(a) * bases[y])
        if m is None:
            raise AssertionError("%s not preserved by the action" % what)
        action[a] = m
    return action


def _reference_kernel(f):
    bases = {x: linalg.kernel_basis(f.comps[x]) for x in f.source.shape.objects}
    return _solved_action(f.source, bases, "kernel"), bases


def _reference_image(f):
    bases = {x: linalg.image_basis(f.comps[x]) for x in f.source.shape.objects}
    return _solved_action(f.target, bases, "image"), bases


def _reference_cokernel(f):
    shape, g = f.target.shape, f.target
    projs = {x: linalg.kernel_basis(
        linalg.image_basis(f.comps[x]).transpose()).transpose()
        for x in shape.objects}
    action = {}
    for a in shape.nonidentity_arrows():
        x, y = shape.src[a], shape.tgt[a]
        m = linalg.solve(projs[y].transpose(),
                         (projs[x] * g.act(a)).transpose())
        if m is None:
            raise AssertionError("image not preserved by the action")
        action[a] = m.transpose()
    return action, projs


def _same(m, n):
    """Equal matrices whose entries also have the same types."""
    return m == n and [type(v) for row in m.entries for v in row] == \
        [type(v) for row in n.entries for v in row]


ACTION_FIELDS = [F2, F3, Field("rationals")]
ACTION_SHAPES = [diagram.cube(3),
                   diagram.product(diagram.delta(2), diagram.delta(2)),
                   _parallel_quiver()]


def _maps(r, field, shape):
    """Natural maps: out of frees by their values, and random elements of
    the Hom spaces between random presheaves."""
    out = []
    for _ in range(3):
        src = gen.rand_free(r, field, shape, 3)
        tgt = gen.rand_free(r, field, shape, 3)
        out.append(ps.free_map_to(src, tgt, [
            gen.rand_matrix(r, field, tgt.dims[i], v)
            for v, i in src.free_parts]))
        f = gen.rand_presheaf(r, field, shape, max_parts=3)
        g = gen.rand_presheaf(r, field, shape, max_parts=3)
        out.append(gen.rand_hom_element(r, field, f, g))
    return out


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=repr)
def test_induced_actions_match_solving_at_every_arrow(field):
    r = gen.rng_for(21)
    for shape in ACTION_SHAPES:
        for phi in _maps(r, field, shape):
            for ours, (action, comps) in (
                    (ps.kernel(phi), _reference_kernel(phi)),
                    (ps.cokernel(phi), _reference_cokernel(phi)),
                    (ps.image(phi)[:2], _reference_image(phi))):
                sub, m = ours
                for a in shape.nonidentity_arrows():
                    assert _same(sub.action[a], action[a]), a
                for x in shape.objects:
                    assert _same(m.comps[x], comps[x])
                sub.validate()
                m.validate()


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=repr)
def test_unnatural_maps_raise_where_solving_fails(field):
    r = gen.rng_for(22)
    raised = {"kernel": 0, "cokernel": 0, "image": 0}
    for shape in ACTION_SHAPES:
        for _ in range(8):
            f = gen.rand_presheaf(r, field, shape, max_parts=3)
            g = gen.rand_presheaf(r, field, shape, max_parts=3)
            phi = ps.PresheafMap(f, g, {
                x: gen.rand_matrix(r, field, g.dims[x], f.dims[x])
                for x in shape.objects})
            for name, ours, ref in (
                    ("kernel", ps.kernel, _reference_kernel),
                    ("cokernel", ps.cokernel, _reference_cokernel),
                    ("image", ps.image, _reference_image)):
                try:
                    ref(phi)
                except AssertionError:
                    with pytest.raises(AssertionError,
                                       match="not preserved by the action"):
                        ours(phi)
                    raised[name] += 1
                else:
                    ours(phi)
    assert min(raised.values()) >= 3


def test_kernel_of_an_unnatural_map_raises():
    # P_0 over Δ1 is k at both objects, its arrow 1 → 0 acting by
    # 1 : G_0 → G_1.  φ = 0 at 0 and 1 at 1 has kernel k at 0 and 0 at 1,
    # which the arrow does not preserve; ψ = 1 at 0 and 0 at 1 has image
    # k at 0 and 0 at 1, which it does not preserve either
    d1 = diagram.delta(1)
    p0 = ps.free_at(F2, d1, 1, 0)
    one, zero = Matrix.identity(F2, 1), Matrix.zeros(F2, 1, 1)
    phi = ps.PresheafMap(p0, p0, {0: zero, 1: one})
    psi = ps.PresheafMap(p0, p0, {0: one, 1: zero})
    with pytest.raises(AssertionError, match="kernel not preserved"):
        ps.kernel(phi)
    with pytest.raises(AssertionError, match="image not preserved"):
        ps.cokernel(psi)
    with pytest.raises(AssertionError, match="image not preserved"):
        ps.image(psi)


def _greedy_free_hull(f):
    """free_hull as one solve per unit vector: e_k is a top iff it is not
    in the span of the radical (over every arrow) and the tops so far."""
    field, shape = f.field, f.shape
    parts, values = [], []
    for i in shape.objects:
        d = f.dims[i]
        if d == 0:
            continue
        rad = [f.act(a) for a in shape.nonidentity_arrows()
               if shape.src[a] == i]
        cur = (linalg.image_basis(linalg.hstack(field, rad)) if rad
               else Matrix.zeros(field, d, 0))
        tops = []
        for k in range(d):
            e = Matrix(field, d, 1, [[field.one if row == k else field.zero]
                                     for row in range(d)])
            if linalg.solve(cur, e) is None:
                tops.append(e)
                cur = linalg.hstack(field, [cur, e])
        if tops:
            parts.append(ps.free_at(field, shape, len(tops), i))
            values.append(linalg.hstack(field, tops))
    pf = ps.direct_sum_many(field, shape, parts)
    return pf, ps.free_map_to(pf, f, values)


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=repr)
def test_free_hull_matches_greedy_solving(field):
    r = gen.rng_for(23)
    for shape in ACTION_SHAPES:
        for _ in range(6):
            f = gen.rand_presheaf(r, field, shape, max_parts=3)
            k = ps.kernel(ps.free_hull(f)[1])[0]
            for g in (f, k):
                pf, counit = ps.free_hull(g)
                ref_pf, ref_counit = _greedy_free_hull(g)
                assert pf == ref_pf and pf.free_parts == ref_pf.free_parts
                for x in shape.objects:
                    assert _same(counit.comps[x], ref_counit.comps[x])


def test_resolving_over_q_solves_nothing_in_kernels_and_hulls(monkeypatch):
    # kernel and cokernel read their actions off the reduced bases, and
    # free_hull takes one echelon form per object: none of them solves
    checked = ("kernel_of", "cokernel", "free_hull")
    inside, calls = [], {name: 0 for name in checked}
    solve = linalg.solve

    def counting_solve(a, b):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in checked and \
                    frame.f_globals.get("__name__") == ps.__name__:
                inside.append(frame.f_code.co_name)
            frame = frame.f_back
        return solve(a, b)

    def counted(name):
        fn = getattr(ps, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "solve", counting_solve)
    for name in checked:
        monkeypatch.setattr(ps, name, counted(name))
    qq, shape = Field("rationals"), diagram.cube(4)
    r = gen.rng_for(24)
    for _ in range(3):
        src = gen.rand_free(r, qq, shape, 3)
        tgt = gen.rand_free(r, qq, shape, 3)
        phi = ps.free_map_to(src, tgt, [gen.rand_matrix(r, qq, tgt.dims[i], v)
                                        for v, i in src.free_parts])
        for x in (ps.kernel(phi)[0], ps.cokernel(phi)[0]):
            cx.proj_resolution(cx.stalk(x))
            ps.resolve(x)
    assert inside == []
    assert min(calls.values()) >= 3


def test_resolution_steps_take_no_direct_sum(monkeypatch):
    # each step of proj_resolution reads the actions of X^m ⊕ P^{m+1} on
    # the generating arrows only; the one direct sum it builds is the free
    # cover free_cover (or free_hull) returns
    from_resolution, from_hull = [], []
    direct_sum_many = ps.direct_sum_many

    def recording(*args):
        frame = sys._getframe(1)
        while frame is not None:
            name = frame.f_code.co_name
            if name in ("free_cover", "free_hull"):
                from_hull.append(name)
                break
            if name == "proj_resolution":
                from_resolution.append(frame.f_back.f_code.co_name)
                break
            frame = frame.f_back
        return direct_sum_many(*args)

    monkeypatch.setattr(ps, "direct_sum_many", recording)
    qq, shape = Field("rationals"), diagram.cube(4)
    r = gen.rng_for(58)
    for _ in range(2):
        src = gen.rand_free(r, qq, shape, 3)
        tgt = gen.rand_free(r, qq, shape, 3)
        phi = ps.free_map_to(src, tgt, [gen.rand_matrix(r, qq, tgt.dims[i], v)
                                        for v, i in src.free_parts])
        for x in (ps.kernel(phi)[0], ps.cokernel(phi)[0]):
            cx.proj_resolution(cx.stalk(x))
    assert from_resolution == []
    assert from_hull


# --- generator storage ------------------------------------------------------


def _routes(r, field, shape):
    """Builders of presheaves, one for each constructor that builds
    generators only and one that reads a file; each call builds afresh,
    except free_at's memo.  The last four build equal presheaves."""
    objs = shape.objects
    sub, incl = diagram.full_subcategory(shape, objs[1:])

    def total(parts=((2, objs[0]), (1, objs[-1]))):
        return ps.direct_sum_many(field, shape, [
            ps.free_at(field, shape, v, i) for v, i in parts])

    src, tgt = total(), total(((1, objs[0]), (2, objs[1])))
    phi = ps.free_map_to(src, tgt, [gen.rand_matrix(r, field, tgt.dims[i], v)
                                    for v, i in src.free_parts])

    def on_sub():
        return ps.direct_sum_many(field, sub, [
            ps.free_at(field, sub, 1, x) for x in sub.objects])

    return [lambda: ps.free_at(field, shape, 2, objs[0]),
            lambda: ps.kernel(phi)[0], lambda: ps.cokernel(phi)[0],
            lambda: ps.restrict(incl, total()), lambda: ps.dualize(total()),
            lambda: dv.transport_presheaf(incl, on_sub()),
            total, lambda: se.decode(se.encode(total())),
            lambda: dv.transport_presheaf(diagram.identity_functor(shape),
                                          total()),
            lambda: ps.dualize(ps.dualize(total()))]


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=repr)
def test_presheaves_store_their_generators_only(field):
    # a presheaf keeps the matrices of the indecomposable arrows, builds a
    # composite's once, on first read, as the product along its
    # factorization, and equals every presheaf with the same generators
    r = gen.rng_for(31)
    ps.free_at.cache_clear()
    for shape in ACTION_SHAPES:
        built = [build() for build in _routes(r, field, shape)]
        for f in built:
            cat = f.shape
            gens = cat.indecomposable_arrows()
            assert set(f._acts) == set(gens)
            assert list(f.action) == list(cat.nonidentity_arrows())
            assert len(f.action) == len(cat.nonidentity_arrows())
            for c, g, a in cat.factorizations():
                assert f.action[c] is f.act(c) is f.act(c)
                assert f.act(c) == f.act(a) * f.act(g)
            for a in cat.arrows:
                for z in cat.objects:
                    for g in cat.hom(cat.tgt[a], z):
                        assert f.act(cat.compose(g, a)) == \
                            f.act(a) * f.act(g)
            with pytest.raises(TypeError):
                f.action[gens[0]] = f.act(gens[0])
            with pytest.raises(KeyError):
                f.action[cat.identity[cat.objects[0]]]
            f.validate()
        total = built[-4]
        listed = ps.Presheaf(field, shape, total.dims, total.action)
        for g in built[-3:] + [listed]:
            assert g == total and hash(g) == hash(total)


def test_listed_action_must_name_each_non_identity_arrow_once():
    # the matrices of a stored presheaf's generators are its data: an entry
    # naming no non-identity arrow is refused when checked, and is not
    # kept, so neither equality nor hashing sees it
    d2 = diagram.delta(2)
    f = ps.free_at(F3, d2, 1, 0)
    three = Matrix(F3, 1, 1, [[2]])
    for junk in ("zz", "id@0"):
        action = dict(f.action, **{junk: three})
        with pytest.raises(ValueError, match="names no non-identity arrow"):
            ps.Presheaf(F3, d2, f.dims, action, validate=True)
        g = ps.Presheaf(F3, d2, f.dims, action)
        assert g == f and hash(g) == hash(f)


def _step_reference(x):
    """proj_resolution as one step was first written: V's action on X^m ⊕
    P^{m+1} as a direct sum at the generators, the counit of V's free
    hull, and π, d as the inclusion of V after the counit."""
    field, shape = x.field, x.shape
    bound = diagram.max_chain_length(shape)
    p_terms, p_diffs, pis = {}, {}, {}
    m = x.hi
    while True:
        assert m >= x.lo - bound - 2
        xp = x.term(m)
        if m + 1 in p_terms:
            pnext, pi_next, d_next = p_terms[m + 1], pis[m + 1], p_diffs[m + 1]
        else:
            pnext = ps.zero_presheaf(field, shape)
            pi_next = ps.zero_map(pnext, x.term(m + 1))
            d_next = ps.zero_map(pnext, pnext)
        comps = {}
        for o in shape.objects:
            top = linalg.hstack(field, [x.diff(m).comps[o], -pi_next.comps[o]])
            bot = linalg.hstack(field, [
                Matrix.zeros(field, d_next.target.dims[o], xp.dims[o]),
                d_next.comps[o]])
            comps[o] = linalg.vstack(field, [top, bot])
        v, incl = ps.kernel_of(field, shape, lambda a: linalg.direct_sum(
            xp.act(a), pnext.act(a)), comps)
        if v.is_zero() and m < x.lo:
            break
        pm, counit = ps.free_hull(v)
        n_x = {o: xp.dims[o] for o in shape.objects}
        pis[m] = ps.PresheafMap(pm, xp, {
            o: incl[o].submatrix(range(n_x[o]), range(v.dims[o]))
            * counit.comps[o] for o in shape.objects})
        p_diffs[m] = ps.PresheafMap(pm, pnext, {
            o: incl[o].submatrix(range(n_x[o], n_x[o] + pnext.dims[o]),
                                 range(v.dims[o])) * counit.comps[o]
            for o in shape.objects})
        p_terms[m] = pm
        m -= 1
    return p_terms, p_diffs, pis


@pytest.mark.parametrize("field", ACTION_FIELDS, ids=repr)
def test_resolution_step_matches_the_counit_reference(field):
    r = gen.rng_for(32)
    steps = 0
    for shape in ACTION_SHAPES:
        inputs = [cx.stalk(build()) for build in _routes(r, field, shape)[1:3]]
        inputs += [cx.stalk(gen.rand_presheaf(r, field, shape, max_parts=3))
                   for _ in range(2)]
        inputs += [gen.rand_complex(r, field, shape, lo=-1, hi=1,
                                    max_parts=2) for _ in range(2)]
        for x in inputs:
            if x.is_zero():
                continue
            p, rho = cx.proj_resolution(_stripped_complex(x))
            terms, diffs, pis = _step_reference(_stripped_complex(x))
            assert sorted(terms) == list(p.degrees())
            for m, t in terms.items():
                assert p.term(m).free_parts == t.free_parts
                for a in shape.nonidentity_arrows():
                    assert _same(p.term(m).act(a), t.act(a))
                for o in shape.objects:
                    assert _same(rho.comp(m).comps[o], pis[m].comps[o])
                    if m + 1 in terms:
                        assert _same(p.diff(m).comps[o], diffs[m].comps[o])
                steps += 1
    assert steps >= 20
