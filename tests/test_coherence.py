"""Incoherent diagrams, the Toda obstruction check, lifting of objects
and morphisms, hom comparison, and kernel extension."""

import pytest

from dercat.linalg import Field, Matrix
from dercat import diagram
from dercat import presheaf as ps
from dercat import complexes as cx
from dercat import coherence as co
from dercat import generators as gen

F2 = Field("prime", 2)
F3 = Field("prime", 3)
F5 = Field("prime", 5)
QQ = Field("rationals")


def split_two_term(field, shape):
    """S ⊕ ΣS with zero differential: Hom(Σ·, ·) contains the identity of
    the shifted summand, so every Toda check must refuse it."""
    x = next(iter(shape.objects))
    f = ps.free_at(field, shape, 1, x)
    return cx.Complex(field, shape, {0: f, 1: f},
                      {0: ps.zero_map(f, f)})


def test_dia_of_honest_is_strict():
    r = gen.rng_for(1)
    x = gen.rand_honest(r, F2, diagram.delta(2), diagram.delta(1),
                        max_parts=1)
    d = co.dia(x)
    d.validate()
    assert co.toda_check(d, d).passes
    for h in d.witnesses.values():
        assert not h.comps


def test_lift_of_dia_roundtrip():
    r = gen.rng_for(2)
    for icat, base in ((diagram.delta(1), diagram.delta(1)),
                       (diagram.delta(2), diagram.delta(1))):
        x = gen.rand_honest(r, F2, icat, base, max_parts=1)
        lift, cert = co.lift_object(co.dia(x))
        assert cert.verify()
        for i in icat.objects:
            assert cx.is_quasi_iso(cert.fiber_maps[i])


def test_lift_comparison_is_quasi_iso():
    r = gen.rng_for(11)
    pair = diagram.disjoint_union(diagram.terminal_cat(),
                                  diagram.terminal_cat())[0]
    for field in (F2, F5, QQ):
        for icat in (pair, diagram.delta(2)):
            x = gen.rand_honest(r, field, icat, diagram.delta(1),
                                max_parts=1)
            w = co.lift_comparison(x)
            assert w.target == x and w.source == co.lift_object(co.dia(x))[0]
            assert cx.is_quasi_iso(w)
            if icat is pair:
                assert w == cx.identity_chain_map(x)


def test_failed_lift_certificate_verifies_false():
    r = gen.rng_for(2)
    x = gen.rand_honest(r, F2, diagram.delta(1), diagram.delta(1),
                        max_parts=1)
    _, cert = co.lift_object(co.dia(x))
    i, q = next((i, q) for i, q in cert.fiber_maps.items()
                if not cx.is_acyclic(q.target))
    fiber_maps = dict(cert.fiber_maps)
    fiber_maps[i] = cx.zero_chain_map(q.source, q.target)
    bad = co.LiftCertificate(cert.lift, cert.diagram, fiber_maps,
                             cert.arrow_homotopies)
    assert bad.verify() is False
    assert cert.verify() is True


def test_lift_of_perturbed_diagram():
    r = gen.rng_for(3)
    for field in (F2, F3):
        for _ in range(3):
            d = gen.rand_incoherent(r, field, diagram.delta(2),
                                    diagram.delta(1), max_parts=1)
            lift, cert = co.lift_object(d)
            assert cert.verify()


def test_lift_refuses_toda_failure():
    base = diagram.delta(1)
    icat = diagram.delta(1)
    val = split_two_term(F2, base)
    values = {0: val, 1: val}
    maps = {icat.hom(1, 0)[0]: cx.identity_chain_map(val)}
    d = co._strict_witnesses(
        co.IncoherentDiagram(icat, base, values, maps))
    assert not co.toda_check(d, d).passes
    with pytest.raises(ValueError):
        co.lift_object(d)


def test_lift_morphism_identity_and_zero():
    r = gen.rng_for(4)
    discrete = diagram.poset_category([0, 1], lambda a, b: a == b)
    for field, icat in ((F2, diagram.delta(2)), (F2, discrete),
                        (F5, discrete), (QQ, discrete)):
        x = gen.rand_honest(r, field, icat, diagram.delta(1), max_parts=1)
        d = co.dia(x)
        ident = {i: cx.identity_chain_map(d.values[i])
                 for i in d.shape.objects}
        m, wits = co.lift_morphism(d, d, ident)
        assert set(wits) == set(d.shape.objects)
        assert cx.is_quasi_iso(m)
        zero = {i: cx.zero_chain_map(d.values[i], d.values[i])
                for i in d.shape.objects}
        mz, _ = co.lift_morphism(d, d, zero)
        assert cx.homotopy_solve(mz) is not None


def test_lift_morphism_between_different_lifts():
    r = gen.rng_for(5)
    icat, base = diagram.delta(1), diagram.delta(1)
    x = gen.rand_honest(r, F2, icat, base, max_parts=1)
    f = co.dia(x)
    g = gen.perturb_diagram(r, co.dia(x))
    phi = {i: cx.identity_chain_map(f.values[i]) for i in icat.objects}
    m, wits = co.lift_morphism(f, g, phi)
    assert cx.is_quasi_iso(m)


def test_hom_compare_on_random_pairs():
    r = gen.rng_for(6)
    for _ in range(4):
        icat = gen.rand_poset(r, 3)
        base = diagram.delta(1)
        prod = diagram.product(icat, base)
        x = gen.rand_stalkish_complex(r, F2, prod, max_parts=1)
        z = gen.rand_stalkish_complex(r, F2, prod, max_parts=1)
        rep = co.hom_compare(x, z)
        assert rep.passes
        assert rep.coherent_dim == rep.incoherent_dim


def test_tensor_with_kernel_of_unit():
    base = diagram.delta(1)
    kernel = gen.rand_kernel(gen.rng_for(8), F2, base, max_parts=1)
    e = diagram.terminal_cat()
    pt = e.objects[0]
    unit = cx.stalk(ps.free_at(F2, e, 1, pt))
    t = co.tensor_with_kernel(unit, kernel)
    for n in set(t.degrees()) | set(kernel.degrees()):
        assert cx.homology_dims(t, n) == cx.homology_dims(kernel, n)


def test_kernel_toda_check_refuses_split_kernel():
    base = diagram.delta(1)
    good = cx.stalk(ps.free_at(F2, base, 1, 0))
    assert co.kernel_toda_check(good).passes
    bad = split_two_term(F2, base)
    assert not co.kernel_toda_check(bad).passes
    e = diagram.terminal_cat()
    x = cx.over_point(cx.stalk(ps.free_at(F2, diagram.delta(1), 1, 0)))
    with pytest.raises(ValueError):
        co.extend_functor(bad, x)


def test_extend_functor_and_compat():
    r = gen.rng_for(9)
    icat = diagram.delta(1)
    kernel = gen.rand_kernel(r, F2, diagram.delta(1), max_parts=1)
    x = cx.over_point(
        gen.rand_stalkish_complex(r, F2, icat, max_parts=1))
    ext, cert = co.extend_functor(kernel, x)
    assert cert.verify()
    for u in (diagram.identity_functor(icat),
              diagram.point_inclusion(icat, 0),
              diagram.point_inclusion(icat, 1)):
        rep = co.verify_extension_compat(u, kernel, x)
        assert rep.passes


def test_extend_functor_compat_with_collapse():
    r = gen.rng_for(10)
    e = diagram.terminal_cat()
    for field in (F2, QQ):
        kernel = gen.rand_kernel(r, field, diagram.delta(1), max_parts=1)
        x = cx.over_point(gen.rand_stalkish_complex(r, field, e, max_parts=1))
        u = diagram.terminal_functor(diagram.delta(1))
        rep = co.verify_extension_compat(u, kernel, x)
        assert rep.passes


def _resolution_of_s0(field):
    """P_1 → P_0, the projective resolution of the simple S_0 over Δ1: two
    terms and a nonzero differential."""
    d1 = diagram.delta(1)
    dims = {0: 1, 1: 0}
    s0 = ps.Presheaf(field, d1, dims, {
        a: Matrix.zeros(field, dims[d1.src[a]], dims[d1.tgt[a]])
        for a in d1.nonidentity_arrows()})
    r = cx.proj_resolution(cx.stalk(s0))[0]
    assert r.lo < r.hi and not r.diff(r.lo).is_zero()
    return r


def _over_point(field, dims, diffs):
    """The complex over the one-point shape with k^dims[p] in degree p and
    the matrices diffs[p] (lists of rows) as differentials."""
    e = diagram.terminal_cat()
    pt = e.objects[0]
    terms = {p: ps.free_at(field, e, n, pt) for p, n in dims.items()}
    return cx.Complex(field, e, terms, {
        p: ps.PresheafMap(terms[p], terms[p + 1], {
            pt: Matrix(field, len(rows), len(rows[0]), rows)})
        for p, rows in diffs.items()})


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_tensor_with_kernel_koszul_signs(field):
    # d(x ⊗ k) = dx ⊗ k + (−1)^p x ⊗ dk: A has terms in degrees 0 and 1 and
    # a nonzero differential, so the sign −1 meets the kernel's differential
    kernel = _resolution_of_s0(field)
    z, one = field.zero, field.one
    a = _over_point(field, {0: 2, 1: 2}, {0: [[one, z], [z, z]]})
    t = co.tensor_with_kernel(a, kernel).validate()
    pt = a.shape.objects[0]
    for n in range(t.lo - 1, t.hi + 2):
        assert cx.homology_dims(t, n) == {
            o: sum(cx.homology_dims(a, p)[pt]
                   * cx.homology_dims(kernel, n - p)[o] for p in a.degrees())
            for o in kernel.shape.objects}
    # a nonzero chain map A → k[−1], the second coordinate of A¹
    b = _over_point(field, {1: 1}, {})
    f = cx.ChainMap(a, b, {1: ps.PresheafMap(a.term(1), b.term(1), {
        pt: Matrix(field, 1, 2, [[z, one]])})}, validate=True)
    assert not f.is_zero()
    co.tensor_map_with_kernel(f, kernel).validate()


def _perturbed(d, a):
    """d with the map at a changed by the boundary dh + hd of the first
    hom-space homotopy whose boundary is nonzero."""
    f = d.maps[a]
    for p in f.source.degrees():
        for b in ps.hom_space(f.source.term(p), f.target.term(p - 1)):
            dh = cx.Homotopy(f.source, f.target, {p: b}).boundary()
            if not dh.is_zero():
                maps = dict(d.maps)
                maps[a] = f + dh
                return co.IncoherentDiagram(d.shape, d.base, d.values, maps)
    raise AssertionError("no homotopy with a nonzero boundary")


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_lift_of_diagram_perturbed_by_a_boundary(field):
    # the constant diagram over Δ2 on the resolution of S_0 plus the
    # contractible P_0 → P_0, one map moved within its homotopy class: the
    # tower must solve a nonzero homotopy system
    icat = diagram.delta(2)
    p0 = cx.stalk(ps.free_at(field, diagram.delta(1), 1, 0))
    r = cx.direct_sum_complex(_resolution_of_s0(field),
                              cx.cone(cx.identity_chain_map(p0)))
    d = co._strict_witnesses(co.IncoherentDiagram(
        icat, r.shape, {i: r for i in icat.objects},
        {a: cx.identity_chain_map(r) for a in icat.nonidentity_arrows()}))
    a = icat.indecomposable_arrows()[0]
    pert = _perturbed(d, a).validate()
    assert pert.maps[a] != d.maps[a]
    assert any(h.comps and not h.boundary().is_zero()
               for pair, h in pert.witnesses.items() if a in pair)
    lift, cert = co.lift_object(pert)
    assert cert.verify()
    strict, _ = co.lift_object(d)
    for n in range(min(lift.lo, strict.lo), max(lift.hi, strict.hi) + 1):
        assert cx.homology_dims(lift, n) == cx.homology_dims(strict, n)

