"""Exact linear algebra: hand-checked oracles plus cross-checks of the
elimination over F_p and over Q against textbook Gauss-Jordan."""

from fractions import Fraction
from operator import mul

import pytest

from dercat import linalg
from dercat.linalg import Field, Matrix

F2 = Field("prime", 2)
F3 = Field("prime", 3)
F5 = Field("prime", 5)
QQ = Field("rationals")


def test_field_arithmetic():
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(3) == 2            # 3 * 2 = 6 = 1 mod 5
    assert F5.neg(1) == 4
    assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)
    assert F5.of_int(-1) == 4
    for field in (F2, F3, F5, QQ):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        Field("prime", 6)
    # a Carmichael number, then the least strong pseudoprimes to the first
    # 11 and the first 12 primes as bases
    for n in (561, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            Field("prime", n)
    with pytest.raises(ValueError):
        Field("dual")


def test_primality_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if linalg._is_prime(n)] == \
        [n for n in range(3000) if trial(n)]


def test_scalar_round_trip():
    assert F5.parse(F5.show(3)) == 3
    q = Fraction(-7, 3)
    assert QQ.parse(QQ.show(q)) == q


def mat(field, rows):
    conv = field.of_int if field.kind == "prime" else Fraction
    return Matrix(field, len(rows), len(rows[0]) if rows else 0,
                  [[conv(e) for e in r] for r in rows])


def test_rank_oracle():
    # rank 2: rows (1,2,3), (4,5,6), (7,8,9) satisfy r1 - 2 r2 + r3 = 0
    m = mat(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert linalg.rank(m) == 2
    assert linalg.rank(mat(F2, [[1, 1], [1, 1]])) == 1
    assert linalg.rank(Matrix.identity(F5, 4)) == 4
    assert linalg.rank(Matrix.zeros(F5, 3, 2)) == 0


def test_kernel_oracle():
    # x + y = 0 over F_2 has kernel spanned by (1, 1)
    k = linalg.kernel_basis(mat(F2, [[1, 1]]))
    assert (k.rows, k.cols) == (2, 1)
    assert [k.entries[0][0], k.entries[1][0]] == [1, 1]
    # full-rank square matrix: trivial kernel
    assert linalg.kernel_basis(mat(F5, [[1, 2], [3, 4]])).cols == 0


def test_kernel_columns_restrict_to_identity_on_free_positions():
    m = mat(F5, [[1, 2, 3, 4], [0, 1, 1, 1]])
    basis, free = linalg.kernel_basis_and_free(m)
    assert basis.cols == len(free)
    for k, c in enumerate(free):
        for k2, c2 in enumerate(free):
            assert basis.entries[c2][k] == (1 if k == k2 else 0)
    # every basis column really is in the kernel
    prod = m * basis
    assert all(e == 0 for row in prod.entries for e in row)


def test_solve_oracle():
    a = mat(QQ, [[2, 0], [0, 3]])
    b = mat(QQ, [[1], [1]])
    x = linalg.solve(a, b)
    assert [list(r) for r in x.entries] == [[Fraction(1, 2)], [Fraction(1, 3)]]
    # inconsistent system
    assert linalg.solve(mat(QQ, [[1], [1]]), mat(QQ, [[1], [2]])) is None


def test_image_basis_spans_columns():
    m = mat(F5, [[1, 2, 3], [2, 4, 6]])
    im = linalg.image_basis(m)
    assert im.cols == linalg.rank(m) == 1


def test_block_and_stacks():
    a = Matrix.identity(F2, 2)
    b = Matrix.zeros(F2, 2, 1)
    h = linalg.hstack(F2, [a, b])
    assert (h.rows, h.cols) == (2, 3)
    v = linalg.vstack(F2, [a, Matrix.zeros(F2, 1, 2)])
    assert (v.rows, v.cols) == (3, 2)
    d = linalg.direct_sum(a, Matrix.identity(F2, 3))
    assert (d.rows, d.cols) == (5, 5) and linalg.rank(d) == 5


def test_direct_sum_many_matches_pairwise_blocks():
    mats = [mat(F5, [[1, 2]]), Matrix.zeros(F5, 0, 0), Matrix.zeros(F5, 2, 0),
            Matrix.identity(F5, 2), Matrix.zeros(F5, 0, 3)]
    acc = Matrix.zeros(F5, 0, 0)
    for m in mats:
        acc = linalg.block(F5, [[acc, Matrix.zeros(F5, acc.rows, m.cols)],
                                [Matrix.zeros(F5, m.rows, acc.cols), m]])
    assert linalg.direct_sum_many(F5, mats) == acc
    assert (acc.rows, acc.cols) == (5, 7)
    with pytest.raises(ValueError):
        linalg.direct_sum_many(F5, [mat(F2, [[1]])])


def test_zeros_are_shared_and_immutable():
    z = Matrix.zeros(QQ, 2, 3)
    assert z is Matrix.zeros(Field("rationals"), 2, 3)
    assert z is not Matrix.zeros(QQ, 3, 2)
    with pytest.raises(TypeError):
        z.entries[0][0] = Fraction(1)


def test_identities_are_shared():
    i = Matrix.identity(F5, 3)
    assert i is Matrix.identity(Field("prime", 5), 3)
    assert [list(r) for r in i.entries] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert Matrix.identity(QQ, 0) is Matrix.zeros(QQ, 0, 0)


# --- empty shapes -----------------------------------------------------------

EMPTY_SHAPES = ((0, 0), (0, 3), (3, 0))


def _filled(field, rows, cols, seed):
    import random
    r = random.Random(seed)
    return Matrix(field, rows, cols, [[field.of_int(r.randint(0, 4))
                                       for _ in range(cols)]
                                      for _ in range(rows)])


def _assert_matches(m, field, rows, cols, ref):
    """m is rows x cols with the reference grid's entries and entry types;
    an empty result is the shared zero matrix itself."""
    assert (m.rows, m.cols) == (rows, cols)
    assert [list(r) for r in m.entries] == ref
    assert [[type(v) for v in r] for r in m.entries] == \
        [[type(v) for v in r] for r in ref]
    if not (rows and cols):
        assert m is Matrix.zeros(field, rows, cols)


def _ref_product(a, b):
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = f.zero
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
@pytest.mark.parametrize("n, k, m", [(0, 0, 0), (0, 3, 2), (2, 3, 0),
                                     (3, 0, 2), (0, 0, 3), (3, 0, 0),
                                     (2, 3, 2)])
def test_products_with_an_empty_dimension_match_reference(field, n, k, m):
    a, b = _filled(field, n, k, 1), _filled(field, k, m, 2)
    _assert_matches(a * b, field, n, m, _ref_product(a, b))


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
@pytest.mark.parametrize("rows, cols", EMPTY_SHAPES + ((2, 3),))
def test_entrywise_operations_on_empty_shapes_match_reference(field, rows,
                                                              cols):
    f = field
    a, b = _filled(f, rows, cols, 3), _filled(f, rows, cols, 4)
    ea, eb = a.entries, b.entries
    c = f.of_int(2)
    _assert_matches(a.transpose(), f, cols, rows,
                    [[ea[i][j] for i in range(rows)] for j in range(cols)])
    _assert_matches(a.scale(c), f, rows, cols,
                    [[f.mul(c, v) for v in r] for r in ea])
    _assert_matches(-a, f, rows, cols, [[f.neg(v) for v in r] for r in ea])
    _assert_matches(a + b, f, rows, cols,
                    [[f.add(x, y) for x, y in zip(ra, rb)]
                     for ra, rb in zip(ea, eb)])
    _assert_matches(a - b, f, rows, cols,
                    [[f.sub(x, y) for x, y in zip(ra, rb)]
                     for ra, rb in zip(ea, eb)])
    for rr, cr in ((range(rows), range(0)), (range(0), range(cols)),
                   (range(rows), range(cols))):
        _assert_matches(a.submatrix(rr, cr), f, len(rr), len(cr),
                        [[ea[i][j] for j in cr] for i in rr])
    _assert_matches(linalg.hstack(f, [a, b]), f, rows, 2 * cols,
                    [list(ra) + list(rb) for ra, rb in zip(ea, eb)])
    _assert_matches(linalg.vstack(f, [a, b]), f, 2 * rows, cols,
                    [list(r) for r in ea + eb])
    z = f.zero
    _assert_matches(linalg.direct_sum_many(f, [a, b]), f, 2 * rows, 2 * cols,
                    [list(r) + [z] * cols for r in ea] +
                    [[z] * cols + list(r) for r in eb])
    _assert_matches(linalg.flatten_matrix(a), f, rows * cols, 1,
                    [[v] for r in ea for v in r])
    coeffs = [f.of_int(3), f.of_int(1)]
    _assert_matches(linalg.combination(f, coeffs, [a, b]), f, rows, cols,
                    [[f.add(f.mul(coeffs[0], x), f.mul(coeffs[1], y))
                      for x, y in zip(ra, rb)] for ra, rb in zip(ea, eb)])


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
@pytest.mark.parametrize("rows, cols", EMPTY_SHAPES)
def test_elimination_answers_empty_inputs_directly(field, rows, cols):
    m = _filled(field, rows, cols, 5)
    r, pivots = linalg.rref(m)
    _assert_matches(r, field, rows, cols, [[] for _ in range(rows)])
    assert pivots == () and linalg.pivot_columns(m) == ()
    _assert_matches(linalg.image_basis(m), field, rows, 0,
                    [[] for _ in range(rows)])
    basis, free = linalg.kernel_basis_and_free(m)
    assert free == tuple(range(cols))
    _assert_matches(basis, field, cols, cols,
                    [[field.one if i == j else field.zero
                      for j in range(cols)] for i in range(cols)])


def test_flatten_round_trip():
    m = mat(F5, [[1, 2, 3], [4, 0, 1]])
    v = linalg.flatten_matrix(m)
    assert (v.rows, v.cols) == (6, 1)
    assert [[v.entries[3 * i + j][0] for j in range(3)] for i in range(2)] \
        == [list(r) for r in m.entries]


def _reference_rref(m):
    """Textbook Gauss-Jordan over Fractions: leftmost pivot, first nonzero
    row below, pivot scaled to 1 before clearing its column."""
    rows = [list(r) for r in m.entries]
    pivots, r = [], 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r and factor != 0:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _reference_rref_mod_p(m):
    """Textbook Gauss-Jordan over F_p on plain ints, as _reference_rref:
    the pivot is scaled to 1 by an inverse found by search."""
    p = m.field.p
    rows = [list(r) for r in m.entries]
    pivots, r = [], 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = next(y for y in range(1, p) if rows[r][c] * y % p == 1)
        rows[r] = [v * lead % p for v in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r and factor:
                rows[i] = [(a - factor * b) % p
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _assert_elimination_matches(m, b, reference):
    """rref, rank, pivot_columns, kernel_basis_and_free and solve of m
    agree with reference, a textbook Gauss-Jordan returning (rows,
    pivots); b is a right-hand side with two columns, the first a column
    of m."""
    f, rows, cols = m.field, m.rows, m.cols
    ref, ref_piv = reference(m)
    R, pivots = linalg.rref(m)
    assert pivots == tuple(ref_piv) == linalg.pivot_columns(m)
    assert [list(row) for row in R.entries] == ref
    assert linalg.rank(m) == len(ref_piv)
    free = [c for c in range(cols) if c not in ref_piv]
    kernel = [[f.one if c == fc else f.zero for c in range(cols)]
              for fc in free]
    for v, fc in zip(kernel, free):
        for pr, pc in enumerate(ref_piv):
            v[pc] = f.neg(ref[pr][fc])
    basis, got_free = linalg.kernel_basis_and_free(m)
    assert got_free == tuple(free)
    assert [list(col) for col in zip(*basis.entries)] == kernel
    # every basis column really is in the kernel
    assert (m * basis).is_zero()
    aug_ref, aug_piv = reference(linalg.hstack(f, [m, b]))
    x = linalg.solve(m, b)
    if any(p >= cols for p in aug_piv):
        assert x is None
    else:
        want = [[f.zero] * 2 for _ in range(cols)]
        for pr, pc in enumerate(aug_piv):
            want[pc] = aug_ref[pr][cols:]
        assert [list(row) for row in x.entries] == want
    x = linalg.solve(m, b.submatrix(range(rows), [0]))
    assert x is not None and m * x == b.submatrix(range(rows), [0])


def _random_prime(r, field, rows, cols):
    """A rows x cols matrix over F_p of random rank, some rows zero."""
    p = field.p
    k = r.randint(0, min(rows, cols))
    left = [[r.randrange(p) for _ in range(k)] for _ in range(rows)]
    right = [[r.randrange(p) for _ in range(cols)] for _ in range(k)]
    ent = [[sum(map(mul, lr, col)) % p for col in zip(*right)]
           if right else [0] * cols for lr in left]
    for i in r.sample(range(rows), rows // 5):
        ent[i] = [0] * cols
    return Matrix(field, rows, cols, ent)


PRIME_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (4, 9), (9, 4), (12, 12),
                (25, 8), (8, 25), (30, 45)]


@pytest.mark.parametrize("field", [F2, F3, F5], ids=repr)
@pytest.mark.parametrize("rows, cols", PRIME_SHAPES)
def test_prime_elimination_matches_mod_p_gauss_jordan(field, rows, cols):
    import random
    r = random.Random(field.p * 100000 + rows * 1000 + cols)
    for _ in range(4):
        m = _random_prime(r, field, rows, cols)
        b = Matrix(field, rows, 2, [[row[cols - 1], r.randrange(field.p)]
                                    for row in m.entries])
        _assert_elimination_matches(m, b, _reference_rref_mod_p)
        assert all(type(v) is int for row in linalg.rref(m)[0].entries
                   for v in row)


def _random_rational(r, rows, cols):
    """A rows x cols matrix over Q of random rank (at most 10, which keeps
    the reference's Fractions small), with mixed denominators, negative
    entries and some zero rows."""
    def q():
        return Fraction(r.randint(-9, 9), r.randint(1, 12))
    k = r.randint(0, min(rows, cols, 10))
    left = [[q() for _ in range(k)] for _ in range(rows)]
    right = [[q() for _ in range(cols)] for _ in range(k)]
    ent = [[sum((a * b for a, b in zip(lr, col)), Fraction(0))
            for col in zip(*right)] if right else [Fraction(0)] * cols
           for lr in left]
    for i in r.sample(range(rows), rows // 5):
        ent[i] = [Fraction(0)] * cols
    return Matrix(QQ, rows, cols, ent)


RATIONAL_SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (4, 9), (9, 4), (12, 12),
                   (25, 8), (8, 25), (30, 45), (60, 120)]


@pytest.mark.parametrize("rows, cols", RATIONAL_SHAPES)
def test_rational_elimination_matches_fraction_gauss_jordan(rows, cols):
    import random
    r = random.Random(rows * 1000 + cols)
    for _ in range(3):
        m = _random_rational(r, rows, cols)
        # one consistent right-hand side (a column of m) and one generic
        b = Matrix(QQ, rows, 2, [[row[cols - 1], Fraction(i + 1, 3)]
                                 for i, row in enumerate(m.entries)])
        _assert_elimination_matches(m, b, _reference_rref)
        assert all(type(v) is Fraction for row in linalg.rref(m)[0].entries
                   for v in row)


def _textbook_product(a, b):
    """a * b over Q with one Fraction multiply and add per term."""
    cols = list(zip(*b.entries)) if b.rows else [()] * b.cols
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in a.entries]


@pytest.mark.parametrize("n, k, m", [(1, 1, 1), (3, 4, 2), (5, 1, 6),
                                     (7, 9, 8), (3, 0, 4), (0, 3, 2),
                                     (2, 3, 0), (0, 0, 0)])
def test_rational_product_matches_fraction_product(n, k, m):
    import random
    r = random.Random(100 * n + 10 * k + m)
    for integral in (True, False):
        def q():
            if r.random() < 0.4:
                return Fraction(0)
            return Fraction(r.randint(-9, 9),
                            1 if integral else r.randint(1, 12))
        a = Matrix(QQ, n, k, [[q() for _ in range(k)] for _ in range(n)])
        b = Matrix(QQ, k, m, [[q() for _ in range(m)] for _ in range(k)])
        p = a * b
        assert (p.rows, p.cols) == (n, m)
        assert [list(row) for row in p.entries] == _textbook_product(a, b)
        assert all(type(v) is Fraction for row in p.entries for v in row)


def test_pivot_columns_match_rref():
    import random
    r = random.Random(4)
    for field in (F2, F5, QQ):
        for rows, cols in ((1, 1), (3, 5), (6, 4), (8, 8), (0, 3), (3, 0)):
            m = Matrix(field, rows, cols, [
                [field.of_int(r.choice((0, 0, 1, 2, 3))) for _ in range(cols)]
                for _ in range(rows)])
            assert linalg.pivot_columns(m) == linalg.rref(m)[1]
