"""Kan extensions, base change, bicartesian squares, recollement and the
standard triangle, with the non-split conflation over Δ1 as the key
oracle."""

import pytest

from dercat import linalg
from dercat.linalg import Field, Matrix
from dercat import diagram
from dercat import presheaf as ps
from dercat import complexes as cx
from dercat import derivator as dv
from dercat import generators as gen

F2 = Field("prime", 2)
F3 = Field("prime", 3)
F5 = Field("prime", 5)
QQ = Field("rationals")


def simple(field, cat, at):
    dims = {x: 1 if x == at else 0 for x in cat.objects}
    action = {a: Matrix.zeros(field, dims[cat.src[a]], dims[cat.tgt[a]])
              for a in cat.nonidentity_arrows()}
    return ps.Presheaf(field, cat, dims, action, validate=True)


def nonsplit_conflation(field=F2):
    """S_1 ↣ P_0 ↠ S_0 over Δ1: the projective cover of the simple at 0."""
    d1 = diagram.delta(1)
    s0, s1 = simple(field, d1, 0), simple(field, d1, 1)
    p0 = ps.free_at(field, d1, 1, 0)
    infl = ps.PresheafMap(s1, p0, {0: Matrix.zeros(field, 1, 0),
                                   1: Matrix.identity(field, 1)})
    defl = ps.PresheafMap(p0, s0, {0: Matrix.identity(field, 1),
                                   1: Matrix.zeros(field, 0, 1)})
    return ps.Conflation(infl, defl)


def test_hocolim_of_free_is_fiber():
    # u_! along p_I sends free_at(v, i) to v-dimensional space: the colimit
    # of a representable diagram is its value at the representing object
    d2 = diagram.delta(2)
    x = cx.stalk(ps.free_at(F2, d2, 3, 1))
    c = dv.hocolim(d2, x)
    assert sum(c.term(n).total_dim() for n in c.degrees() if True) >= 3
    h = {n: sum(cx.homology_dims(c, n).values()) for n in c.degrees()}
    assert h.get(0, 0) == 3 and all(v == 0 for k, v in h.items() if k != 0)


def test_adjunction_dimensions():
    r = gen.rng_for(1)
    for _ in range(10):
        u = gen.rand_functor(r, 4)
        x = gen.rand_complex(r, F2, u.source, lo=-1, hi=1, max_parts=1)
        y = gen.rand_complex(r, F2, u.target, lo=-1, hi=1, max_parts=1)
        uy = cx.restrict_complex(u, y)
        l, cert = dv.lan(u, x)
        assert cx.hom_dim(l, y) == cx.hom_dim(x, uy)
        rr, _ = dv.ran(u, x)
        assert cx.hom_dim(y, rr) == cx.hom_dim(uy, x)


def test_kan_certificate_verifies():
    r = gen.rng_for(2)
    u = gen.rand_functor(r, 3)
    x = gen.rand_complex(r, F2, u.source, lo=0, hi=1, max_parts=1)
    _, cert = dv.lan(u, x)
    assert cert.verify()


@pytest.mark.parametrize("kan", [dv.lan, dv.ran], ids=["lan", "ran"])
def test_kan_certificate_with_zero_unit_verifies_false(kan):
    r = gen.rng_for(5)
    u = gen.rand_functor(r, 4)
    x = gen.rand_complex(r, F2, u.source, lo=-1, hi=1, max_parts=1)
    _, cert = kan(u, x)
    bad = dv.KanCertificate(cert.functor, cert.output,
                            cx.zero_chain_map(cert.unit.source,
                                              cert.unit.target))
    assert bad.verify() is False
    assert cert.verify() is True


def test_base_change_both_directions():
    r = gen.rng_for(3)
    for _ in range(10):
        u = gen.rand_functor(r, 4)
        x = gen.rand_complex(r, F2, u.source, lo=-1, hi=1, max_parts=1)
        y = r.choice(u.target.objects)
        _, ok_l = dv.base_change_left(u, y, x)
        _, ok_r = dv.base_change(u, y, x)
        assert ok_l and ok_r


def test_conflation_square_is_bicartesian():
    r = gen.rng_for(4)
    for _ in range(8):
        base = gen.rand_poset(r, 3)
        conf = gen.rand_conflation(r, F2, base, max_parts=1)
        sq = gen.conflation_square(conf, base)
        assert dv.is_cocartesian(sq)[0]
        assert dv.is_cartesian(sq)[0]


def test_der7_agreement_on_random_squares():
    r = gen.rng_for(5)
    for _ in range(15):
        base = gen.rand_poset(r, 2)
        prod = diagram.product(diagram.square(), base)
        x = gen.rand_complex(r, F2, prod, lo=-1, hi=1, max_parts=1)
        s = dv.square_over(x)
        assert dv.is_cocartesian(s)[0] == dv.is_cartesian(s)[0]


@pytest.mark.parametrize("field, seed", [(F2, 10), (F3, 11), (QQ, 12)],
                         ids=["F2", "F3", "Q"])
def test_total_cofiber_verdict_agrees_with_both_kan_routes(field, seed):
    # wide complexes (five degrees, two parts): on the narrow squares of
    # acceptance criteria 5 and 7, a map that drops the h block of
    # diag(h, k) still agrees with both Kan routes
    r = gen.rng_for(seed)
    verdicts = []
    for _ in range(25):
        base = gen.rand_poset(r, 2)
        prod = diagram.product(diagram.square(), base)
        x = gen.rand_complex(r, field, prod, lo=-2, hi=2, max_parts=2)
        s = dv.square_over(x)
        verdict = dv.is_bicartesian(s)
        assert verdict == dv.is_cocartesian(s)[0]
        assert verdict == dv.is_cartesian(s)[0]
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_conflation_squares_have_acyclic_total_cofiber():
    r = gen.rng_for(13)
    for field in (F2, F3, QQ):
        for _ in range(3):
            base = gen.rand_poset(r, 3)
            conf = gen.rand_conflation(r, field, base, max_parts=1)
            assert dv.is_bicartesian(gen.conflation_square(conf, base))
    assert dv.is_bicartesian(
        gen.conflation_square(nonsplit_conflation(), diagram.delta(1)))


SQUARE_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _cone_route(x, icat, corners):
    """The verdict read off the restricted corner fibres: whether
    diag(h, k) : cone(f) → cone(g) is a quasi-isomorphism."""
    c00, c01, c10, c11 = corners
    f, g, h, k = (dv.structure_map(x, icat.hom(b, a)[0]) for a, b in (
        (c00, c01), (c10, c11), (c00, c10), (c01, c11)))
    phi = cx.termwise_map(cx.cone(f), cx.cone(g), lambda p, o: (
        linalg.direct_sum(h.comp(p + 1).comps[o], k.comp(p).comps[o])))
    return cx.is_quasi_iso(phi)


def _big_square(x):
    """P = (i_squarearrow)_! (i_square)_* x over twosquare × J, built as
    standard_triangle builds it."""
    base = x.shape.product_of[1]
    _, incl_sa = diagram.squarearrow()
    v_emb = diagram.times_base(diagram.square_into_squarearrow(), base)
    rsa, _ = cx.proj_resolution(dv.extension_by_zero(v_emb, x))
    return dv.transport_complex(diagram.times_base(incl_sa, base), rsa)


@pytest.mark.parametrize("field, seed", [(F2, 15), (F3, 16), (QQ, 17)],
                         ids=["F2", "F3", "Q"])
def test_total_cofiber_matches_cone_route(field, seed):
    # the signs of the total cofiber matter over F_3 and Q: a sign flipped
    # on one of f, h, k, g, d₀₁, d₁₀ changes verdicts there
    r = gen.rng_for(seed)
    sq, ts = diagram.square(), diagram.twosquare()
    verdicts = []
    for _ in range(100):
        base = gen.rand_poset(r, 3)
        x = gen.rand_complex(r, field, diagram.product(sq, base), lo=-2,
                             hi=2, max_parts=2)
        verdict = dv.is_bicartesian(x)
        assert verdict == _cone_route(x, sq, SQUARE_CORNERS)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
    # the three sub-squares of P, for triangle inputs and for squares that
    # are not bicartesian
    for k in range(4):
        base = gen.rand_poset(r, 3)
        if k < 2:
            conf = gen.rand_conflation(r, field, base, max_parts=1)
            x = gen.conflation_square(conf, base).complex
        else:
            x = gen.rand_complex(r, field, diagram.product(sq, base), lo=-1,
                                 hi=1, max_parts=1)
        p_big = _big_square(x)
        for cols in ((0, 1), (1, 2), (0, 2)):
            corners = tuple((a, cols[b]) for a in (0, 1) for b in (0, 1))
            assert dv._total_cofiber_is_acyclic(p_big, ts, corners) == \
                _cone_route(p_big, ts, corners)


def test_bicartesian_restricts_no_fibre(monkeypatch):
    r = gen.rng_for(14)
    base = gen.rand_poset(r, 2)
    prod = diagram.product(diagram.square(), base)
    s = dv.square_over(gen.rand_complex(r, F3, prod, lo=-1, hi=1,
                                        max_parts=1))
    verdict = dv.is_cocartesian(s)[0]
    corners = []
    restrict = dv.fiber_complex

    def counted(x, i_obj):
        corners.append(i_obj)
        return restrict(x, i_obj)
    monkeypatch.setattr(dv, "fiber_complex", counted)
    assert dv.is_bicartesian(s) == verdict
    assert dv.is_bicartesian(s.complex) == verdict
    assert corners == []


def test_standard_triangle_restricts_no_sub_square(monkeypatch):
    restricted = []
    restrict = cx.restrict_complex

    def recording(u, x):
        restricted.append((u.source.product_of, u.target.product_of))
        return restrict(u, x)
    monkeypatch.setattr(cx, "restrict_complex", recording)
    r = gen.rng_for(18)
    for _ in range(3):
        base = gen.rand_poset(r, 3)
        conf = gen.rand_conflation(r, F2, base, max_parts=1)
        assert dv.standard_triangle(gen.conflation_square(conf, base)) \
            .matches_cone
    sq, ts = diagram.square(), diagram.twosquare()
    assert restricted
    assert [(s, t) for s, t in restricted if s and t and s[0] == sq
            and t[0] == ts] == []


def test_bicartesian_rejects_complexes_off_the_square():
    r = gen.rng_for(19)
    flat = gen.rand_complex(r, F2, diagram.delta(1), lo=-1, hi=1,
                            max_parts=1)
    with pytest.raises(TypeError):
        dv.is_bicartesian(flat)
    strip = diagram.product(diagram.delta(2), diagram.delta(1))
    for x in (gen.rand_complex(r, F2, strip, lo=-1, hi=1, max_parts=1),
              cx.zero_complex(F2, strip)):
        with pytest.raises(KeyError):
            dv.is_bicartesian(x)
        with pytest.raises(ValueError):
            dv.square_over(x)


def test_suspension_needs_no_resolution_memo(monkeypatch):
    # bypassing the memo, a recorded-free x resolves to itself, while the
    # counit resolves i^* i_* x, which is equal to x but not recorded free;
    # cases 3 and 11 of this stream have such an x
    from dercat import cli
    monkeypatch.setattr(cx, "proj_resolution", cx.proj_resolution.__wrapped__)
    r = gen.rng_for(7)
    for case in range(12):
        ok, detail, _ = cli.SUITES["shift-lemma"](r, Field("prime", 5))
        assert ok, (case, detail)


def test_suspension_matches_shift():
    r = gen.rng_for(6)
    for field in (F2, F3):
        for _ in range(5):
            shape = gen.rand_poset(r, 4)
            x = gen.rand_complex(r, field, shape, max_parts=1)
            sx, witness = dv.suspension_via_recollement(x)
            assert cx.is_quasi_iso(witness)
    # loop is inverse on homology
    shape = gen.rand_poset(r, 3)
    x = gen.rand_complex(r, F2, shape, max_parts=1)
    lx, w = dv.loop_via_recollement(x)
    assert cx.is_quasi_iso(w)


def test_recollement_triangles():
    r = gen.rng_for(7)
    for _ in range(5):
        icat = gen.rand_poset(r, 3)
        rec, closed, open_ = dv.product_recollement(icat)
        prod = diagram.product(icat, diagram.delta(1))
        x = gen.rand_stalkish_complex(r, F2, prod, max_parts=1)
        witnesses = rec.glue_triangles(x)
        assert witnesses["identification"] is not None


def test_extension_by_zero_fibers():
    d1 = diagram.delta(1)
    rec, closed, open_ = dv.product_recollement(d1)
    x = cx.stalk(ps.free_at(F2, d1, 1, 0))
    jx = rec.j_shriek(x)
    for (i, end) in jx.shape.objects:
        expect = x.term(0).dims[i] if end == 1 else 0
        assert jx.term(0).dims[(i, end)] == expect


def test_standard_triangle_nonsplit_delta():
    conf = nonsplit_conflation()
    sq = gen.conflation_square(conf, diagram.delta(1))
    tri = dv.standard_triangle(sq)
    # Ext^1(S_0, S_1) is one-dimensional and δ spans it
    assert tri.delta_class is not None
    assert list(tri.delta_class) == [F2.one]
    assert tri.matches_cone


def test_standard_triangle_random_conflations():
    r = gen.rng_for(8)
    for _ in range(8):
        base = gen.rand_poset(r, 3)
        conf = gen.rand_conflation(r, F2, base, max_parts=1)
        sq = gen.conflation_square(conf, base)
        tri = dv.standard_triangle(sq)
        assert tri.matches_cone


def test_each_fibre_is_restricted_once_and_shared(monkeypatch):
    # one restriction per (complex, object), however often fiber_complex,
    # structure_map and point_restriction read it, and point_restriction
    # maps between those same fibres
    restricted = []
    restrict = cx.restrict_complex

    def counted(u, x):
        restricted.append((id(x), next(iter(u.obj_map.values()))[0]))
        return restrict(u, x)
    monkeypatch.setattr(cx, "restrict_complex", counted)
    r = gen.rng_for(37)
    icat, base = diagram.delta(2), gen.rand_poset(r, 3)
    prod = diagram.product(icat, base)
    for field in (F2, F3, QQ):
        x = gen.rand_complex(r, field, prod, lo=-1, hi=1, max_parts=2)
        p, rho = cx.proj_resolution(x)
        assert p is not x
        del restricted[:]
        maps = {}
        for i in icat.objects:
            fiber = dv.fiber_complex(x, i)
            assert dv.fiber_complex(x, i) is fiber
            m = maps[i] = dv.point_restriction(rho, i)
            assert m.target is fiber and m.source is dv.fiber_complex(p, i)
            assert dv.point_restriction(rho, i).source is m.source
        for a in icat.nonidentity_arrows():
            s = dv.structure_map(x, a)
            assert s.source is dv.fiber_complex(x, icat.tgt[a])
            assert s.target is dv.fiber_complex(x, icat.src[a])
            assert dv.structure_map(x, a) == s
        assert sorted(restricted) == sorted(
            (id(y), i) for y in (x, p) for i in icat.objects)
        for i, m in maps.items():
            u = dv.fiber_functor(prod, i)
            src, tgt = restrict(u, p), restrict(u, x)
            assert m.target == tgt and m.source == src
            assert m == cx.restrict_chain_map(u, rho, src, tgt)


def test_structure_chain_map_composition():
    r = gen.rng_for(9)
    prod = diagram.product(diagram.delta(2), diagram.delta(1))
    x = gen.rand_stalkish_complex(r, F2, prod, max_parts=1)
    d2 = diagram.delta(2)
    a10 = d2.hom(1, 0)[0]
    a21 = d2.hom(2, 1)[0]
    a20 = d2.hom(2, 0)[0]
    lhs = dv.structure_map(x, a21).compose(dv.structure_map(x, a10))
    assert lhs == dv.structure_map(x, a20)


def _block_grid_total_cofiber(x, icat, corners):
    """The reference verdict, assembled as linalg.block grids: each Tot
    differential at each object of J is built as one matrix of zero,
    negated and given blocks, with block rows [d₀₀ | 0 | 0 | 0],
    [−f | −d₀₁ | 0 | 0], [h | 0 | −d₁₀ | 0] and [0 | k | g | d₁₁], and
    ranked by linalg.rank."""
    prod = x.shape
    jcat = prod.product_of[1]
    field = x.field
    c00, c01, c10, c11 = corners
    f, g, h, k = (icat.hom(b, a)[0] for a, b in (
        (c00, c01), (c10, c11), (c00, c10), (c01, c11)))
    lo, hi = x.lo - 2, x.hi
    for o in jcat.objects:
        def dim(q, c):
            return x.term(q).dims[(c, o)]

        def diff(q, c):
            return x.diff(q).comps[(c, o)]

        def act(q, arrow):
            return x.term(q).act(prod.pair_arrow[(arrow, jcat.identity[o])])

        def sizes(p):
            return (dim(p + 2, c00), dim(p + 1, c01), dim(p + 1, c10),
                    dim(p, c11))
        prev = 0
        for p in range(lo, hi + 1):
            here = 0
            if p < hi:
                grid = [[Matrix.zeros(field, r, c) for c in sizes(p)]
                        for r in sizes(p + 1)]
                grid[0][0] = diff(p + 2, c00)
                grid[1][0], grid[1][1] = -act(p + 2, f), -diff(p + 1, c01)
                grid[2][0], grid[2][2] = act(p + 2, h), -diff(p + 1, c10)
                grid[3][1:] = act(p + 1, k), act(p + 1, g), diff(p, c11)
                here = linalg.rank(linalg.block(field, grid))
            if sum(sizes(p)) != here + prev:
                return False
            prev = here
    return True


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_total_cofiber_agrees_with_the_block_grid_route(field):
    r = gen.rng_for(36)
    sq, ts = diagram.square(), diagram.twosquare()
    verdicts = []
    for k in range(60):
        base = gen.rand_poset(r, 3)
        if k % 6 == 0:
            conf = gen.rand_conflation(r, field, base, max_parts=1)
            x = gen.conflation_square(conf, base).complex
        else:
            x = gen.rand_complex(r, field, diagram.product(sq, base),
                                 lo=-2, hi=2, max_parts=2)
        verdict = dv._total_cofiber_is_acyclic(x, sq, SQUARE_CORNERS)
        assert verdict == _block_grid_total_cofiber(x, sq, SQUARE_CORNERS)
        verdicts.append(verdict)
        if k % 12 == 0:
            p_big = _big_square(x)
            for cols in ((0, 1), (1, 2), (0, 2)):
                corners = tuple((a, cols[b]) for a in (0, 1) for b in (0, 1))
                assert dv._total_cofiber_is_acyclic(p_big, ts, corners) == \
                    _block_grid_total_cofiber(p_big, ts, corners)
    assert 0 < sum(verdicts) < len(verdicts)


def test_total_cofiber_builds_no_block_or_zero_matrix(monkeypatch):
    r = gen.rng_for(37)
    sq = diagram.square()
    squares = []
    for field in (F2, F5, QQ):
        for _ in range(4):
            base = gen.rand_poset(r, 3)
            squares.append(gen.rand_complex(
                r, field, diagram.product(sq, base), lo=-1, hi=1,
                max_parts=2))
        conf = gen.rand_conflation(r, field, base, max_parts=1)
        squares.append(gen.conflation_square(conf, base).complex)
    want = [_block_grid_total_cofiber(x, sq, SQUARE_CORNERS)
            for x in squares]
    calls = []

    def counting(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call
    monkeypatch.setattr(linalg, "block", counting("block", linalg.block))
    monkeypatch.setattr(Matrix, "zeros",
                        staticmethod(counting("zeros", Matrix.zeros)))
    assert [dv.is_bicartesian(x) for x in squares] == want
    assert calls == []
