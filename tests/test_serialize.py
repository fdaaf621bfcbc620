"""JSON round trips for every value kind, field handling, and the error
paths for malformed input."""

import json

import pytest

from dercat.linalg import Field
from dercat import diagram
from dercat import presheaf as ps
from dercat import complexes as cx
from dercat import coherence as co
from dercat import generators as gen
from dercat import serialize as se

F2 = Field("prime", 2)
F5 = Field("prime", 5)
QQ = Field("rationals")


def test_parse_field_tags():
    assert se.parse_field("q").kind == "rationals"
    f = se.parse_field("fp:7")
    assert f.kind == "prime" and f.p == 7
    assert se.field_tag(F2) == "fp:2"
    assert se.field_tag(QQ) == "q"
    with pytest.raises(se.FormatError):
        se.parse_field("fp:6")
    with pytest.raises(se.FormatError):
        se.parse_field("real")


def test_diagram_roundtrip():
    r = gen.rng_for(1)
    for _ in range(5):
        cat = gen.rand_poset(r, 5)
        assert se.decode(se.encode(cat)) == cat
    prod = diagram.product(diagram.delta(1), diagram.delta(2))
    back = se.decode(se.encode(prod))
    assert back == prod
    assert back.pair_arrow == prod.pair_arrow


def test_functor_roundtrip():
    r = gen.rng_for(2)
    for _ in range(5):
        u = gen.rand_functor(r, 4)
        v = se.decode(se.encode(u))
        assert v.source == u.source and v.obj_map == u.obj_map


def test_presheaf_and_complex_roundtrip():
    r = gen.rng_for(3)
    for field in (F2, F5, QQ):
        shape = gen.rand_poset(r, 4)
        f = gen.rand_presheaf(r, field, shape)
        g = se.decode(se.encode(f))
        assert g == f
        x = gen.rand_complex(r, field, shape, max_parts=1)
        y = se.decode(se.encode(x))
        assert y == x


def test_free_parts_survive_roundtrip():
    f = ps.free_at(F2, diagram.delta(2), 2, 1)
    g = se.decode(se.encode(f))
    assert g.free_parts == f.free_parts


@pytest.mark.parametrize("free, zero_action", [
    ([[1, 0], [1, 1]], True),            # the dimensions, not the action
    ([[1, 0]], False),                   # a part short
    ([[1, 0], [2, 1], [-1, 1]], False),  # the dimensions, a part negative
    ([[1, 0], [1, 7]], False),           # no such object
    ([[1]], False),                      # not a pair
])
def test_false_free_parts_are_rejected(free, zero_action):
    d1 = diagram.delta(1)
    doc = se.encode(ps.direct_sum_many(F2, d1, [ps.free_at(F2, d1, 1, 0),
                                                 ps.free_at(F2, d1, 1, 1)]))
    assert se.decode(doc).free_parts == ((1, 0), (1, 1))
    if zero_action:
        for _, m in doc["action"]:
            m["entries"] = [["0"] * m["cols"] for _ in range(m["rows"])]
    doc["free"] = free
    with pytest.raises(se.FormatError):
        se.decode(doc)


def test_incoherent_roundtrip_and_lift_determinism():
    r = gen.rng_for(4)
    d = gen.rand_incoherent(r, F2, diagram.delta(2), diagram.delta(1),
                            max_parts=1)
    d2 = se.decode(se.encode(d))
    d2.validate()
    assert d2 == d
    l1, _ = co.lift_object(d)
    l2, _ = co.lift_object(d2)
    assert l1 == l2


def test_save_load(tmp_path):
    x = cx.stalk(ps.free_at(F5, diagram.delta(1), 1, 0))
    p = tmp_path / "x.json"
    se.save(p, x)
    assert se.load(p) == x
    with open(p) as fh:
        obj = json.load(fh)
    assert obj["kind"] == "complex"
    assert obj["field"] == "fp:5"


def test_load_reports_position_on_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  \"kind\": \"complex\",\n}")
    with pytest.raises(se.FormatError) as e:
        se.load(p)
    assert "bad.json" in str(e.value)


def test_malformed_values_raise_format_error():
    with pytest.raises(se.FormatError):
        se.decode({"kind": "martian"})
    with pytest.raises(se.FormatError):
        se.decode({"kind": "complex"})
    # matrix with ragged rows
    good = se.encode(cx.stalk(ps.free_at(F2, diagram.delta(1), 1, 0)))
    bad = json.loads(json.dumps(good))
    body = bad["terms"][0][1]
    body["action"][0][1]["entries"] = [["0", "0"]]
    with pytest.raises(se.FormatError):
        se.decode(bad)


def test_field_mismatch_detection():
    x = cx.stalk(ps.free_at(F5, diagram.delta(1), 1, 0))
    obj = se.encode(x)
    with pytest.raises(se.FormatError):
        se.decode(obj, field=F2)


