"""Bounded complexes: cones, homotopies, resolutions, Ext, and the
lifting solvers, against hand-derived oracles over Δ1."""

import gc
import hashlib
import inspect
import itertools
import sys
import weakref
from fractions import Fraction

import pytest

from dercat import cli
from dercat import linalg
from dercat.linalg import Field, Matrix
from dercat import diagram
from dercat import presheaf as ps
from dercat import complexes as cx
from dercat import generators as gen
from dercat import coherence as co
from dercat import serialize as se

F2 = Field("prime", 2)
F3 = Field("prime", 3)
F5 = Field("prime", 5)
QQ = Field("rationals")


def simple(field, cat, at):
    dims = {x: 1 if x == at else 0 for x in cat.objects}
    action = {a: Matrix.zeros(field, dims[cat.src[a]], dims[cat.tgt[a]])
              for a in cat.nonidentity_arrows()}
    return ps.Presheaf(field, cat, dims, action, validate=True)


def test_stalk_and_shift():
    d1 = diagram.delta(1)
    x = cx.stalk(simple(F2, d1, 0))
    assert tuple(x.degrees()) == (0,)
    sx = cx.shift(x, 2)
    assert tuple(sx.degrees()) == (-2,)
    assert cx.shift(sx, -2) == x


def test_homology_of_acyclic_two_term():
    d1 = diagram.delta(1)
    p0 = ps.free_at(F2, d1, 1, 0)
    x = cx.Complex(F2, d1, {0: p0, 1: p0},
                   {0: ps.identity_map(p0)})
    assert cx.is_acyclic(x)


def test_cone_of_identity_is_acyclic():
    r = gen.rng_for(1)
    for _ in range(5):
        shape = gen.rand_poset(r, 4)
        x = gen.rand_complex(r, F2, shape, max_parts=1)
        f = cx.identity_chain_map(x)
        c = cx.cone(f)
        assert cx.is_acyclic(c)
        # cone triangle: incl is Y → C, proj is C → ΣX, split exact
        incl, proj = cx.cone_inclusion(f, c), cx.cone_projection(f, c)
        assert proj.compose(incl).is_zero()
        for p in c.degrees():
            assert ps.is_conflation(incl.comp(p), proj.comp(p))


def test_cone_of_quasi_iso_is_acyclic():
    r = gen.rng_for(2)
    for _ in range(5):
        shape = gen.rand_poset(r, 3)
        x = gen.rand_complex(r, F3, shape, max_parts=1)
        p, rho = cx.proj_resolution(x)
        assert cx.is_acyclic(cx.cone(rho))


def test_per_object_quasi_iso_matches_cone_homology():
    # reference: the homology of the whole cone, by rank arithmetic
    r = gen.rng_for(22)
    verdicts = []
    for field in (F2, F3, QQ):
        for _ in range(6):
            shape = gen.rand_poset(r, 3)
            x = gen.rand_complex(r, field, shape, lo=-1, hi=1, max_parts=1)
            p, rho = cx.proj_resolution(x)
            for f in (rho, cx.zero_chain_map(p, x), cx.identity_chain_map(x)):
                c = cx.cone(f)
                ref = all(v == 0 for q in c.degrees()
                          for v in cx.homology_dims(c, q).values())
                assert cx.is_quasi_iso(f) == ref == cx.is_acyclic(c)
                verdicts.append(ref)
    assert 0 < sum(verdicts) < len(verdicts)


def test_complex_terms_are_read_only():
    x = cx.stalk(simple(F2, diagram.delta(1), 0))
    with pytest.raises(TypeError):
        x.terms[1] = x.term(0)
    with pytest.raises(TypeError):
        x.diffs[0] = ps.zero_map(x.term(0), x.term(1))


def test_zero_maps_outside_a_support_are_built_once_per_value():
    # a zero differential, chain-map component or homotopy component read
    # twice, or read off an equal complex, is the same map; the free parts
    # of its ends tell maps apart
    d1 = diagram.delta(1)
    p0 = ps.free_at(F2, d1, 1, 0)
    x, y = cx.stalk(p0), cx.stalk(p0, degree=1)
    f, h = cx.zero_chain_map(x, y), cx.Homotopy(x, y, {})
    for p in (-2, -1, 0, 1, 2):
        assert x.diff(p) is x.diff(p) is cx.stalk(p0).diff(p)
        assert f.comp(p) is f.comp(p)
        assert h.comp(p) is h.comp(p)
        assert x.diff(p).is_zero() and h.comp(p).target == y.term(p - 1)
    assert x.diff(0).source.free_parts == p0.free_parts
    plain = ps.Presheaf(F2, d1, p0.dims, p0.action)
    assert plain == p0 and plain.free_parts is None
    assert cx.stalk(plain).diff(0) is not x.diff(0)
    assert cx.stalk(plain).diff(0).source.free_parts is None


def test_ext_table_of_simples_over_delta1():
    d1 = diagram.delta(1)
    s = {i: cx.stalk(simple(F2, d1, i)) for i in (0, 1)}
    table = {(i, j, n): cx.ext(s[i], s[j], n)[0]
             for i in (0, 1) for j in (0, 1) for n in (0, 1, 2)}
    expected = {(i, j, n): 0 for i in (0, 1) for j in (0, 1)
                for n in (0, 1, 2)}
    expected[(0, 0, 0)] = expected[(1, 1, 0)] = 1
    expected[(0, 1, 1)] = 1
    assert table == expected


def test_ext_vanishes_negative_for_stalks():
    d1 = diagram.delta(1)
    s0 = cx.stalk(simple(F2, d1, 0))
    s1 = cx.stalk(simple(F2, d1, 1))
    for n in (-1, -2, -3):
        assert cx.ext(s0, s1, n)[0] == 0


# The 6-vertex real projective plane: ten triangles on vertices 1..6.
RP2_TRIANGLES = ("123", "134", "145", "156", "162", "235", "346", "452",
                 "563", "624")


@pytest.mark.parametrize("field, dims", [(F2, [0, 0, 0, 1, 1, 0]),
                                         (F3, [0] * 6), (QQ, [0] * 6)],
                         ids=repr)
def test_ext_across_the_face_poset_of_rp2_depends_on_the_characteristic(
        field, dims):
    # Over the face poset of a simplicial complex with a bottom and a top
    # added, Ext^n(S_bot, S_top) is the reduced cohomology H̃^{n-2} of the
    # complex; H̃^*(RP², k) is k in degrees 1 and 2 when char k = 2, else 0.
    faces = {frozenset()}
    for t in RP2_TRIANGLES:
        faces |= {frozenset(map(int, s)) for k in (1, 2, 3)
                  for s in itertools.combinations(t, k)}
    faces = sorted(faces, key=lambda s: (len(s), sorted(s)))
    faces.append(frozenset(range(1, 7)))
    shape = diagram.poset_category(range(len(faces)),
                                   lambda a, b: faces[a] <= faces[b])
    assert len(shape.objects) == 33
    bot = cx.stalk(simple(field, shape, 0))
    top = cx.stalk(simple(field, shape, 32))
    assert [cx.ext(bot, top, n)[0] for n in range(6)] == dims


def test_proj_resolution_is_free_and_quasi_iso():
    r = gen.rng_for(3)
    for field in (F2, F3, QQ):
        for _ in range(5):
            shape = gen.rand_poset(r, 4)
            x = gen.rand_complex(r, field, shape, max_parts=1)
            p, rho = cx.proj_resolution(x)
            assert cx.is_quasi_iso(rho)
            for n in p.degrees():
                assert p.term(n).free_parts is not None
            assert p.lo >= x.lo - diagram.max_chain_length(shape)


def test_resolution_memo_stays_at_its_bound_and_recomputes_equal():
    d1 = diagram.delta(1)
    x = cx.stalk(simple(F5, d1, 0))    # not recorded free: resolved for real
    first = cx.proj_resolution(x)
    # more distinct recorded-free complexes than the bound, each its own
    # resolution, push x out
    free = ps.free_at(F5, d1, 1, 0)
    for n in range(cx.COMPLEX_CACHE_SIZE + 1):
        cx.proj_resolution(cx.stalk(free, 1000 + n))
    info = cx.proj_resolution.cache_info()
    assert info.currsize == info.maxsize == cx.COMPLEX_CACHE_SIZE
    again = cx.proj_resolution(x)
    assert cx.proj_resolution.cache_info().misses == info.misses + 1
    assert again == first and again[0] is not first[0]


def _clear_memos():
    for mod in (diagram, ps, cx, co):
        for v in vars(mod).values():
            if hasattr(v, "cache_clear"):
                v.cache_clear()


def test_answers_do_not_depend_on_what_was_resolved_before():
    # P and Q are equal, but only P records its free parts, in an order
    # other than its own cover's: resolving Q first must not hand P the
    # resolution of Q, or Ext representatives built on it
    d2 = diagram.delta(2)
    p = ps.direct_sum(ps.free_at(F5, d2, 1, 2), ps.free_at(F5, d2, 1, 0))
    q = ps.Presheaf(F5, d2, p.dims, p.action)
    assert q == p and q.free_parts is None
    y = cx.stalk(ps.direct_sum(ps.free_at(F5, d2, 1, 1),
                               ps.free_at(F5, d2, 1, 0)))

    def answer(f):
        res, _ = cx.proj_resolution(cx.stalk(f))
        dim, reps = cx.ext(cx.stalk(f), y, 0)
        return res.term(0).free_parts, dim, list(reps)

    _clear_memos()
    answer(q)
    parts, dim, reps = answer(p)
    assert parts == ((1, 2), (1, 0)) and dim == len(reps) > 0
    assert all(r.source.term(0).free_parts == parts for r in reps)
    _clear_memos()
    assert answer(p) == (parts, dim, reps)


def _unrecorded_free(r, field, shape):
    """A free presheaf rebuilt from its generators without free_parts, so
    that proj_resolution resolves it for real."""
    f = ps.direct_sum_many(field, shape, [
        ps.free_at(field, shape, r.randint(1, 2), r.choice(shape.objects))
        for _ in range(3)])
    return ps.Presheaf(field, shape, f.dims, {
        a: f.act(a) for a in shape.indecomposable_arrows()})


def _count_kernels(monkeypatch):
    calls = []
    kernel_of = ps.kernel_of

    def counting(*args):
        calls.append(args)
        return kernel_of(*args)
    monkeypatch.setattr(ps, "kernel_of", counting)
    return calls


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_a_free_stalk_resolves_to_its_own_cover_without_a_kernel(
        monkeypatch, field):
    # the first term is the free cover of the top term, and a bijective
    # cover at the bottom ends the resolution: a free stalk takes no kernel,
    # and every other stalk one kernel per term below its first
    r = gen.rng_for(63)
    poset = gen.rand_poset(r, 4)
    assert len(poset.objects) == 4
    resolve = cx.proj_resolution.__wrapped__    # no memo hit skips the work
    longest = 0
    for shape in (diagram.cube(3), poset):
        f = _unrecorded_free(r, field, shape)
        kernels = _count_kernels(monkeypatch)
        p, rho = resolve(cx.stalk(f))
        assert kernels == []
        cover = ps.free_cover(f)[0]
        assert tuple(p.degrees()) == (0,)
        assert p.term(0) == cover and p.term(0).free_parts == cover.free_parts
        assert rho.comp(0) == ps.free_hull(f)[1]
        for at in shape.objects:
            kernels = _count_kernels(monkeypatch)
            p, _ = resolve(cx.stalk(simple(field, shape, at)))
            assert len(kernels) == len(p.degrees()) - 1
            longest = max(longest, len(p.degrees()))
    assert longest >= 3


def test_a_cover_that_is_not_onto_fails_the_final_check(monkeypatch):
    # the stop rule reads only dimensions; a cover with one column of one
    # value zeroed keeps them, at any step, and the final check refuses it
    free_cover = ps.free_cover
    field, shape = F5, diagram.cube(3)
    resolve = cx.proj_resolution.__wrapped__
    bottom = cx.stalk(simple(field, shape, shape.objects[0]))
    steps = len(resolve(bottom)[0].degrees())
    assert steps >= 3
    free = cx.stalk(_unrecorded_free(gen.rng_for(64), field, shape))
    for x, lossy_call in [(free, 0)] + [(bottom, k) for k in range(steps)]:
        calls = []

        def lossy(f):
            pf, values = free_cover(f)
            if len(calls) == lossy_call:
                val = values[0]
                values = [Matrix(field, val.rows, val.cols, [
                    (field.zero,) + row[1:] for row in val.entries])
                ] + values[1:]
            calls.append(f)
            return pf, values
        monkeypatch.setattr(ps, "free_cover", lossy)
        with pytest.raises(AssertionError, match="not a quasi-isomorphism"):
            resolve(x)


def test_the_width_bound_admits_the_same_resolutions(monkeypatch):
    # the simple at the bottom of the square is resolved in three terms,
    # two below it; the guard allows one term more than max_chain_length
    # below the bottom of x, and raises past that
    resolve = cx.proj_resolution.__wrapped__
    x = cx.stalk(simple(F2, diagram.cube(2), (0, 0)))
    assert resolve(x)[0].lo == -2
    monkeypatch.setattr(diagram, "max_chain_length", lambda shape: 1)
    assert resolve(x)[0].lo == -2
    monkeypatch.setattr(diagram, "max_chain_length", lambda shape: 0)
    with pytest.raises(AssertionError, match="width bound"):
        resolve(x)


def _resolution_corpus():
    r = gen.rng_for(27)
    shapes = (diagram.cube(3),
              diagram.product(diagram.delta(2), diagram.delta(2)),
              gen.rand_poset(r, 4))
    for shape in shapes:
        for field in (F2, F5, QQ):
            yield cx.stalk(_unrecorded_free(r, field, shape))
            for _ in range(4):
                yield cx.stalk(gen.rand_presheaf(r, field, shape, max_parts=3))
            yield cx.stalk(simple(field, shape, r.choice(shape.objects)))
            for _ in range(2):
                yield gen.rand_complex(r, field, shape)


def test_resolutions_keep_their_bits():
    # a digest of every term with its free parts, every differential and
    # every component of ρ; it does not depend on PYTHONHASHSEED
    digest = hashlib.sha256()
    for x in _resolution_corpus():
        p, rho = cx.proj_resolution.__wrapped__(x)
        digest.update(repr((
            [(n, p.term(n)._data(), p.term(n).free_parts)
             for n in p.degrees()],
            [(n, p.diff(n)._data()) for n in range(p.lo, p.hi)],
            [(n, rho.comp(n)._data()) for n in p.degrees()])).encode())
    assert digest.hexdigest() == (
        "7ab008f63830d0a92067ea5bf459be00231cd3ab0f04b5960cd17d8e9913e770")


def test_a_dropped_hom_complex_is_freed_without_the_collector():
    d1 = diagram.delta(1)
    x = cx.stalk(ps.free_at(F2, d1, 1, 0))
    y = cx.stalk(simple(F2, d1, 0))
    gc.disable()
    try:
        hc = cx.HomComplex(x, y)
        assert hc.delta[0].cols == hc._slot_dim(0) == 1
        ref = weakref.ref(hc)
        del hc
        assert ref() is None
    finally:
        gc.enable()


def test_homotopy_solve_oracle():
    d1 = diagram.delta(1)
    p0 = ps.free_at(F2, d1, 1, 0)
    x = cx.Complex(F2, d1, {0: p0, 1: p0}, {0: ps.identity_map(p0)})
    # identity of an acyclic complex is nullhomotopic
    h = cx.homotopy_solve(cx.identity_chain_map(x))
    assert h is not None
    assert h.boundary() == cx.identity_chain_map(x)
    # identity of a stalk is not nullhomotopic
    s = cx.stalk(p0)
    assert cx.homotopy_solve(cx.identity_chain_map(s)) is None


def test_lift_through_qis_certificate():
    r = gen.rng_for(5)
    for _ in range(8):
        shape = gen.rand_poset(r, 3)
        x = gen.rand_complex(r, F2, shape, max_parts=1)
        p, rho = cx.proj_resolution(x)
        # lift the resolution map through itself: result homotopic to id
        lifted = cx.lift_through_qis(rho, rho)
        assert lifted is not None
        g, h = lifted
        assert cx.homotopy_solve(rho.compose(g), rho) is not None


def test_extend_along_qis_certificate():
    r = gen.rng_for(6)
    for _ in range(8):
        shape = gen.rand_poset(r, 3)
        x = gen.rand_complex(r, F2, shape, max_parts=1)
        p, rho = cx.proj_resolution(x)
        q, h = cx.extend_along_qis(rho, rho)
        assert cx.homotopy_solve(q.compose(rho), rho) is not None


def test_dualize_involution():
    r = gen.rng_for(7)
    shape = gen.rand_poset(r, 4)
    x = gen.rand_complex(r, F3, shape, max_parts=1)
    assert cx.dualize_complex(cx.dualize_complex(x)) == x


def test_over_point_preserves_homology():
    r = gen.rng_for(8)
    shape = gen.rand_poset(r, 4)
    x = gen.rand_complex(r, F2, shape, max_parts=1)
    y = cx.over_point(x)
    assert y.shape.product_of[0] == shape
    for n in x.degrees():
        hx = cx.homology_dims(x, n)
        hy = cx.homology_dims(y, n)
        assert {o: hx[o] for o in shape.objects} == \
            {o[0]: hy[o] for o in y.shape.objects}


def test_homology_matches_rank_arithmetic():
    r = gen.rng_for(9)
    for field in (F2, F3, QQ):
        shape = gen.rand_poset(r, 4)
        x = gen.rand_complex(r, field, shape, max_parts=1)
        for n in range(x.lo - 1, x.hi + 2):
            h = cx.homology(x, n).validate()
            assert h.dims == cx.homology_dims(x, n)


def _stripped(x):
    """x with the free parts of its terms forgotten."""
    return cx.Complex(x.field, x.shape, {
        p: ps.Presheaf(t.field, t.shape, t.dims, t.action)
        for p, t in x.terms.items()}, dict(x.diffs))


def test_ext_builds_representatives_only_when_read(tmp_path, monkeypatch,
                                                   capsys):
    # dimensions come from ranks; the representatives are built, all at
    # once, when first read, and they are those of the naturality path
    built = []
    element_of = cx.HomComplex.element_of

    def counting(self, n, vec):
        built.append(n)
        return element_of(self, n, vec)

    monkeypatch.setattr(cx.HomComplex, "element_of", counting)
    r = gen.rng_for(59)
    shape = diagram.cube(3)
    xs = [cx.stalk(gen.rand_presheaf(r, QQ, shape, max_parts=3))
          for _ in range(3)]
    cases = [(x, y, n) for x in xs for y in xs for n in range(4)]
    dims = [cx.ext(x, y, n)[0] for x, y, n in cases]
    assert all(cx.hom_dim(x, y) == cx.ext(x, y, 0)[0] for x in xs for y in xs)
    kernel = cx.stalk(ps.free_at(F2, diagram.delta(1), 1, 0))
    assert co.kernel_toda_check(kernel).passes
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    se.save(a, xs[0])
    se.save(b, xs[1])
    assert cli.main(["--field", "q", "ext", "--source", str(a),
                     "--target", str(b), "--n", "1"]) == 0
    capsys.readouterr()
    assert [len(cx.ext(x, y, n)[1]) for x, y, n in cases] == dims
    assert all(cx.ext(x, y, n) == (0, [])
               for (x, y, n), dim in zip(cases, dims) if not dim)
    assert built == [] and sum(dims) >= 10 and 0 in dims
    for (x, y, n), dim in zip(cases, dims):
        reps = cx.ext(x, y, n)[1]
        before = len(built)
        first = list(reps)
        # one element per representative, built by the first read only
        assert len(first) == dim == len(built) - before
        assert list(reps) == first and len(built) - before == dim
        p, _ = cx.proj_resolution(x)
        assert first == cx.representatives(
            cx.HomComplex(_stripped(p), y), p, y, n)


def test_ext_reads_and_compares_as_a_list():
    # the README example prints (0, []); a nonzero group compares by its
    # representatives, with a list or with another read of the same group
    d1 = diagram.delta(1)
    p0 = ps.free_at(F2, d1, 1, 0)
    s1 = cx.stalk(ps.free_at(F2, d1, 1, 1))
    zero = cx.ext(cx.stalk(p0), s1, 1)
    assert zero == (0, []) and repr(zero) == "(0, [])"
    s0 = cx.stalk(simple(F2, d1, 0))
    dim, reps = cx.ext(s0, s0, 0)
    assert dim == 1 and reps == list(reps) and list(reps) == reps
    assert cx.ext(s0, s0, 0) == (1, list(reps)) == cx.ext(s0, s0, 0)
    assert reps != [] and repr(reps) == repr(list(reps))


def test_hom_complex_coordinates_invert():
    d1 = diagram.delta(1)
    s0 = cx.stalk(simple(F2, d1, 0))
    p, _ = cx.proj_resolution(s0)
    hc = cx.hom_complex(p, s0)
    n = 0
    dim = hc._slot_dim(n)
    assert dim >= 1
    for k in range(dim):
        vec = Matrix(F2, dim, 1, [[1 if i == k else 0] for i in range(dim)])
        comps = hc.element_of(n, vec)
        back = hc.coords_of(n, comps)
        assert back == vec


def _scalar(r, field):
    if field.kind == "prime":
        return field.of_int(r.randrange(field.p))
    return Fraction(r.randint(-4, 4), r.randint(1, 3))


def _scale_and_sum(hc, n, vec):
    """The reference element_of: sum_k c_k b_k, one scaled map per
    nonzero coordinate."""
    out = {}
    for p, basis in hc.slots[n]:
        acc = None
        for k, b in enumerate(basis):
            c = vec.entries[hc.offsets[n][p] + k][0]
            if c != hc.field.zero:
                acc = b.scale(c) if acc is None else acc + b.scale(c)
        if acc is not None:
            out[p] = acc
    return out


def _types(m):
    return [[type(v) for v in row] for row in m.entries]


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_element_of_matches_scale_and_sum(field):
    r = gen.rng_for(41)
    shape = diagram.cube(2)
    slots = 0
    for _ in range(4):
        x = gen.rand_complex(r, field, shape, lo=-1, hi=1, max_parts=3)
        y = gen.rand_complex(r, field, shape, lo=-1, hi=1, max_parts=3)
        hc = cx.hom_complex(cx.proj_resolution(x)[0], y)
        for n in range(-2, 3):
            dim = hc._slot_dim(n)
            for _ in range(3):
                vec = Matrix(field, dim, 1,
                             [[_scalar(r, field)] for _ in range(dim)])
                got, want = hc.element_of(n, vec), _scale_and_sum(hc, n, vec)
                assert list(got) == list(want)
                for p, phi in want.items():
                    assert got[p] == phi
                    assert all(_types(got[p].comps[o]) == _types(phi.comps[o])
                               for o in shape.objects)
                slots += sum(len(b) > 1 for p, b in hc.slots[n] if p in want)
    assert slots >= 10


def _record_empty_matrices(monkeypatch):
    """The list, filled from now on, of the callers that build a matrix
    with a zero dimension themselves instead of taking Matrix.zeros."""
    zeros_code = inspect.unwrap(Matrix.zeros).__code__
    init = Matrix.__init__
    empty = []

    def counting_init(self, field, rows, cols, entries):
        if not (rows and cols):
            caller = sys._getframe(1).f_code
            if caller is not zeros_code:
                empty.append("%s:%d" % (caller.co_name, caller.co_firstlineno))
        init(self, field, rows, cols, entries)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    return empty


def test_ext_over_q_on_cube4_builds_no_empty_matrix_outside_zeros(monkeypatch):
    # every matrix with a zero dimension is the shared Matrix.zeros object,
    # so resolving and taking Ext builds none of its own
    shape, r = diagram.cube(4), gen.rng_for(57)
    xs = []
    for _ in range(2):
        src = gen.rand_free(r, QQ, shape, 3)
        tgt = gen.rand_free(r, QQ, shape, 3)
        phi = ps.free_map_to(src, tgt, [gen.rand_matrix(r, QQ, tgt.dims[i], v)
                                        for v, i in src.free_parts])
        xs.append(cx.stalk(ps.kernel(phi)[0]))
        xs.append(cx.stalk(ps.cokernel(phi)[0]))
    empty = _record_empty_matrices(monkeypatch)
    dims = [[cx.ext(x, y, n)[0] for n in range(5)] for x in xs for y in xs[:2]]
    assert any(any(row[1:]) for row in dims)
    assert empty == []


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_suites_build_no_empty_matrix_outside_zeros(monkeypatch, field):
    # one case of every verify suite, inputs drawn as `dercat verify` draws
    # them, builds no empty matrix of its own either
    empty = _record_empty_matrices(monkeypatch)
    for name, suite in cli.SUITES.items():
        ok, detail, _ = suite(gen.rng_for(7), field)
        assert ok, (name, detail)
    assert empty == []
