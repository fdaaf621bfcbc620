"""Finite directed categories and functors: construction oracles and the
validation rules."""

import ast
import hashlib
import os

import pytest

from dercat import diagram
from dercat import generators as gen
from dercat import serialize as se


def test_delta_counts():
    d2 = diagram.delta(2)
    assert len(d2.objects) == 3
    # non-identity arrows of Δ2: one per ordered pair x > y
    assert len(d2.nonidentity_arrows()) == 3
    assert diagram.max_chain_length(d2) == 2


def test_arrows_point_from_larger_to_smaller():
    d1 = diagram.delta(1)
    assert len(d1.hom(1, 0)) == 1
    assert len(d1.hom(0, 1)) == 0


def test_poset_category_matches_delta():
    p = diagram.poset_category([0, 1, 2], lambda a, b: a <= b)
    assert p == diagram.delta(2)


def test_validation_rejects_cycles():
    hom = {(0, 0): ("i0",), (1, 1): ("i1",), (0, 1): ("a",), (1, 0): ("b",)}
    with pytest.raises(ValueError):
        diagram.FinCat([0, 1], hom, {0: "i0", 1: "i1"},
                       {("a", "b"): "i1", ("b", "a"): "i0"})


def test_validation_rejects_endomorphisms():
    hom = {(0, 0): ("i0", "e")}
    with pytest.raises(ValueError):
        diagram.FinCat([0], hom, {0: "i0"}, {("e", "e"): "e"})


def test_product_structure():
    sq = diagram.square()
    assert len(sq.objects) == 4
    # arrows: 4 identities + 2 + 2 edges + 1 diagonal
    assert len(sq.nonidentity_arrows()) == 5
    assert sq.product_of[0] == diagram.delta(1)
    a = sq.hom((1, 1), (0, 0))[0]
    f1, f2 = sq.pair_of[a]
    assert sq.pair_arrow[(f1, f2)] == a


def test_opposite_involution():
    d = diagram.delta(2)
    assert diagram.opposite(diagram.opposite(d)) == d
    op = diagram.opposite(d)
    assert len(op.hom(0, 2)) == 1 and len(op.hom(2, 0)) == 0


def test_opposite_is_shared():
    d = diagram.product(diagram.delta(1), diagram.delta(2))
    assert diagram.opposite(d) is diagram.opposite(d)
    # an equal category built apart shares it too
    d2 = diagram.poset_category([0, 1, 2], lambda a, b: a <= b)
    assert d2 is not diagram.delta(2)
    assert diagram.opposite(d2) is diagram.opposite(diagram.delta(2))


def test_disjoint_union_and_subcategory():
    cat, il, ir = diagram.disjoint_union(diagram.delta(1), diagram.delta(1))
    assert len(cat.objects) == 4
    assert len(cat.nonidentity_arrows()) == 2
    sub, incl = diagram.full_subcategory(cat, [("L", 0), ("L", 1)])
    assert len(sub.nonidentity_arrows()) == 1
    assert incl.obj_map[("L", 0)] == ("L", 0)


def _poset_parts(cat):
    return dict(cat.hom_table), dict(cat.identity)


def test_poset_validation_rejects_parallel_arrows():
    hom, identity = _poset_parts(diagram.delta(1))
    hom[(1, 0)] = ("1>0", "other")
    with pytest.raises(ValueError, match="parallel"):
        diagram.FinCat([0, 1], hom, identity)


def test_poset_validation_rejects_a_two_cycle():
    hom, identity = _poset_parts(diagram.delta(1))
    hom[(0, 1)] = ("0>1",)
    with pytest.raises(ValueError, match="cycle"):
        diagram.FinCat([0, 1], hom, identity)


def test_poset_validation_rejects_a_missing_composite():
    hom, identity = _poset_parts(diagram.delta(2))
    del hom[(2, 0)]
    with pytest.raises(ValueError, match="composite"):
        diagram.FinCat([0, 1, 2], hom, identity)


def _golden_shapes():
    """The standard shapes, 20 seeded random posets, and opposites,
    products and disjoint unions of them."""
    r = gen.rng_for(32)
    base = ([diagram.terminal_cat()] + [diagram.delta(n) for n in range(4)]
            + [diagram.cube(k) for k in range(1, 5)]
            + [diagram.square(), diagram.lefthalfcap()[0],
               diagram.righthalfcup()[0], diagram.twosquare(),
               diagram.squarearrow()[0]]
            + [gen.rand_poset(r) for _ in range(20)])
    nxt = base[1:] + base[:1]
    products = [diagram.product(i, j) for i, j in zip(base, nxt)]
    products += [diagram.product(i, diagram.terminal_cat()) for i in base]
    unions = [diagram.disjoint_union(i, j)[0] for i, j in zip(base, nxt)]
    return (base + [diagram.opposite(c) for c in base + products]
            + products + unions)


def test_shapes_keep_their_bits():
    # a digest of each shape's arrows, composition table, generators,
    # factorizations, chain length and file encoding; it does not depend
    # on PYTHONHASHSEED
    digest = hashlib.sha256()
    for c in _golden_shapes():
        digest.update(repr((c.objects, c.arrows, sorted(c.comp.items()),
                            c.indecomposable_arrows(), c.factorizations(),
                            diagram.max_chain_length(c),
                            se.encode(c))).encode())
    assert digest.hexdigest() == (
        "7d68089a3dd7813535e0090d60aaa1334780d5c7a70bb10fb1f1e7e0ea77a0b9")


def test_a_poset_equals_its_tabled_copy_and_its_file_round_trip():
    for c in _golden_shapes():
        tabled = diagram.FinCat(c.objects, c.hom_table, c.identity, c.comp)
        assert tabled == c and hash(tabled) == hash(c)
        assert not tabled.is_poset()
        assert se.dec_diagram(se.enc_diagram(c)) == c


def test_a_poset_composes_through_its_hom_sets():
    c = diagram.cube(3)
    assert c.is_poset()
    table = c.comp
    assert table is not c.comp     # built when read, never stored
    for (g, f), gf in table.items():
        assert c.compose(g, f) == gf
    assert not diagram.terminal_cat().is_poset()
    assert diagram.terminal_cat().comp == {}


def test_functor_validation():
    d1 = diagram.delta(1)
    d2 = diagram.delta(2)
    u = diagram.functor_by_objects(d1, d2, {0: 0, 1: 2})
    assert u.obj_map[1] == 2
    with pytest.raises(ValueError):
        # 0 ≤ 1 in the source forces an arrow 1 → 0, absent for 2 → ... 0↦2, 1↦0 flips
        bad = {0: 2, 1: 0}
        v = diagram.functor_by_objects(d1, d2, bad)
        a = d1.hom(1, 0)[0]
        if v.target.src[v.arrow_map[a]] != bad[1]:
            raise ValueError("endpoint mismatch")


def test_terminal_and_point_functors():
    d1 = diagram.delta(1)
    p = diagram.terminal_functor(d1)
    assert set(p.obj_map.values()) == {"*"}
    i0 = diagram.point_inclusion(d1, 0)
    assert i0.obj_map["*"] == 0
    comp = diagram.compose_functors(p, i0)
    assert comp.obj_map["*"] == "*"


def test_immersion_predicates():
    d1 = diagram.delta(1)
    prod = diagram.product(d1, diagram.delta(1))

    def emb(end):
        omap = {x: (x, end) for x in d1.objects}
        amap = {a: prod.pair_arrow[(a, diagram.delta(1).identity[end])]
                for a in d1.arrows}
        return diagram.DiagFunctor(d1, prod, omap, amap)

    # objects (x, 0) admit arrows in from (x, 1): sieve => closed; dual open
    assert diagram.is_closed_immersion(emb(0))
    assert diagram.is_open_immersion(emb(1))
    assert not diagram.is_open_immersion(emb(0))


def test_comma_under_identity():
    d2 = diagram.delta(2)
    u = diagram.identity_functor(d2)
    c, forget, alpha = diagram.comma_under(u, 1)
    # objects: pairs (x, arrow x -> 1); arrows into 1 exist from 1 and 2
    assert len(c.objects) == 2


def test_max_chain_length_square():
    assert diagram.max_chain_length(diagram.square()) == 2
    assert diagram.max_chain_length(diagram.terminal_cat()) == 0


def test_nonidentity_arrows_built_once():
    cat = diagram.poset_category([0, 1, 2], lambda a, b: a <= b)
    arrows = cat.nonidentity_arrows()
    assert arrows is cat.nonidentity_arrows()
    assert len(arrows) == 3 and not any(cat.is_identity(a) for a in arrows)


def test_product_memo_keeps_factor_structure():
    # a plain category equal to the square: FinCat equality ignores the
    # product structure that serialize writes as a nested "product"
    sq = diagram.square()
    plain = diagram.FinCat(sq.objects, sq.hom_table, sq.identity, sq.comp)
    assert plain == sq and plain.product_of is None
    d1 = diagram.delta(1)
    built = diagram.product(sq, d1)
    assert diagram.product(diagram.square(), diagram.delta(1)) is built
    shared = se.enc_diagram(diagram.product(plain, d1))
    diagram.product.cache_clear()
    fresh = se.enc_diagram(diagram.product(plain, d1))
    assert shared == fresh
    assert "objects" in fresh["product"][0]
    assert "product" in se.enc_diagram(built)["product"][0]


def _composites(cat, arrows):
    """Every composite of one or more of arrows."""
    out = set(arrows)
    while True:
        more = {cat.compose(g, f) for f in out for g in out
                if cat.tgt[f] == cat.src[g]} - out
        if not more:
            return out
        out |= more


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_indecomposable_arrows_of_cubes(k):
    cat = diagram.cube(k)
    gens = cat.indecomposable_arrows()
    assert len(gens) == k * 2 ** (k - 1)
    assert gens is cat.indecomposable_arrows()
    assert _composites(cat, gens) == set(cat.nonidentity_arrows())


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_indecomposable_arrows_of_deltas(n):
    cat = diagram.delta(n)
    gens = cat.indecomposable_arrows()
    assert len(gens) == n
    assert all(cat.src[a] == cat.tgt[a] + 1 for a in gens)


def test_indecomposable_arrows_of_a_quiver_with_relation():
    cat = _parallel_quiver()
    assert len(cat.nonidentity_arrows()) == 5     # f, g, h, k = hf, hg
    # k is a generator of the quiver, but the relation makes it h∘f
    assert cat.indecomposable_arrows() == ("f", "g", "h")
    assert _composites(cat, cat.indecomposable_arrows()) == \
        set(cat.nonidentity_arrows())


@pytest.mark.parametrize("cat", [diagram.cube(3), diagram.delta(4),
                                 diagram.product(diagram.delta(2),
                                                 diagram.delta(2)),
                                 _parallel_quiver(), diagram.terminal_cat()],
                         ids=("cube3", "delta4", "delta2xdelta2", "quiver",
                              "point"))
def test_factorizations_reach_every_composite_in_order(cat):
    gens = set(cat.indecomposable_arrows())
    table = cat.factorizations()
    assert table is cat.factorizations()
    earlier = set(gens)
    for c, g, f in table:
        assert f in gens and g in earlier and c not in earlier
        assert cat.compose(g, f) == c
        earlier.add(c)
    assert earlier == set(cat.nonidentity_arrows())
    assert len(table) == len(earlier) - len(gens)


def _lru_cache_uses():
    """Where the library names lru_cache, other than in a plain import:
    module.qualified name of the enclosing definition, a decorator being
    inside the function it decorates."""
    lib = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dercat")
    uses = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + "." + node.name
        elif isinstance(node, ast.Name) and node.id == "lru_cache" or \
                isinstance(node, ast.Attribute) and node.attr == "lru_cache" \
                or isinstance(node, ast.alias) and node.asname \
                and node.name == "lru_cache":
            uses.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(lib)):
        if name.endswith(".py"):
            with open(os.path.join(lib, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), name[:-3])
    return uses


def test_every_memo_goes_through_one_seam():
    # lru_cache keys by equality, which ignores free parts and product
    # structures, and diagram.memo adds them to the key; Matrix.zeros and
    # Matrix.identity sit below diagram and take only fields and ints
    seams = ("diagram.memo", "linalg.Matrix.zeros", "linalg.Matrix.identity")
    uses = _lru_cache_uses()

    def inside(use, seam):
        return use == seam or use.startswith(seam + ".")
    assert all(any(inside(u, s) for s in seams) for u in uses), uses
    assert all(any(inside(u, s) for u in uses) for s in seams), uses
