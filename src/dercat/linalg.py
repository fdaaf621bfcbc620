"""Exact dense linear algebra over prime fields and the rationals.

Everything downstream (presheaf kernels, Hom spaces, Ext groups, homotopy
systems) reduces to rank / nullspace / solve over an exact field, so these
routines are deliberately boring: dense rows, Gauss-Jordan elimination
with leftmost pivot and smallest-row tie-breaking, and every basis read
off the reduced row echelon form, which depends on the row space alone,
so that every basis is reproducible bit for bit.

Elimination has one path per kind of field, chosen in rref and
pivot_columns:
  * Q: each row is scaled to primitive integers and eliminated
    fraction-free, the content of every new row divided out; pivot rows
    go back to Fractions, divided by their pivots, only at the end;
  * F_p: entries are ints in [0, p), reduced mod p inline, with one
    inverse per pivot.

Products over Q likewise scale each row and column to integers over its
common denominator and build one Fraction per entry.

Emptiness costs nothing: every operation whose result has a zero
dimension returns the shared Matrix.zeros(field, rows, cols) before doing
any work, and elimination answers an empty input directly (the kernel of
a 0 x n matrix is identity(n), every column free).  Identities are shared
like zero matrices, one per (field, n).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter, mul


# Zero and identity matrices are immutable, so Matrix.zeros and
# Matrix.identity hand out one per arguments; each memo keeps at most this
# many.
ZEROS_CACHE_SIZE = 2048

# Miller-Rabin with these bases is deterministic below MAX_MODULUS
# (Sorenson-Webster 2015: the first 13 primes suffice for n < 3.3 * 10^24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n):
    if n >= MAX_MODULUS:
        raise ValueError("modulus %d is too large (the bound is %d)"
                         % (n, MAX_MODULUS))
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """An exact field: F_p for a prime p, or the rationals Q.

    zero and one are immutable scalars, built once per field.
    """

    __slots__ = ("kind", "p", "zero", "one", "_hash")

    def __init__(self, kind, p=None):
        if kind == "prime":
            if not _is_prime(p):
                raise ValueError("modulus %r is not prime" % (p,))
            self.p = p
        elif kind == "rationals":
            self.p = None
        else:
            raise ValueError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.zero = Fraction(0) if kind == "rationals" else 0
        self.one = Fraction(1) if kind == "rationals" else 1
        self._hash = hash((kind, self.p))

    def __eq__(self, other):
        return self is other or (isinstance(other, Field) and
                                 (self.kind, self.p) == (other.kind, other.p))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Q" if self.kind == "rationals" else "F_%d" % self.p

    def of_int(self, n):
        """Canonical representative of the integer n in this field."""
        if self.kind == "rationals":
            return Fraction(n)
        return n % self.p

    def add(self, a, b):
        return a + b if self.kind == "rationals" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "rationals" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "rationals" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "rationals" else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        if self.kind == "rationals":
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def parse(self, s):
        """Parse a scalar from its serialized string form."""
        if self.kind == "rationals":
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError("zero denominator in %r" % (s,)) from None
        return int(s) % self.p

    def show(self, a):
        if self.kind == "rationals":
            return "%d/%d" % (a.numerator, a.denominator) if a.denominator != 1 else str(a.numerator)
        return str(a)


class Matrix:
    """Immutable dense matrix with exact entries.

    entries is a tuple of row tuples; scalars are ints in [0, p) for F_p
    and Fractions for Q.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field, rows, cols, entries):
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or (entries and set(map(len, entries)) != {cols}):
            raise ValueError("entry grid does not match %dx%d" % (rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = None

    @staticmethod
    @lru_cache(maxsize=ZEROS_CACHE_SIZE)
    def zeros(field, rows, cols):
        """The rows x cols zero matrix, one shared object per arguments."""
        z = field.zero
        return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    @lru_cache(maxsize=ZEROS_CACHE_SIZE)
    def identity(field, n):
        """The n x n identity matrix, one shared object per arguments."""
        if not n:
            return Matrix.zeros(field, 0, 0)
        z, o = field.zero, field.one
        return Matrix(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix) and self.field == other.field
            and self.rows == other.rows and self.cols == other.cols
            and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self):
        return "Matrix(%r, %d, %d, %r)" % (self.field, self.rows, self.cols,
                                           [list(r) for r in self.entries])

    def is_zero(self):
        z = self.field.zero
        return all(v == z for row in self.entries for v in row)

    def transpose(self):
        if not (self.rows and self.cols):
            return Matrix.zeros(self.field, self.cols, self.rows)
        return Matrix(self.field, self.cols, self.rows, _columns(self))

    def __add__(self, other):
        _check_same_shape(self, other)
        f = self.field
        if not (self.rows and self.cols):
            return Matrix.zeros(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols,
                      [[f.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        _check_same_shape(self, other)
        f = self.field
        if not (self.rows and self.cols):
            return Matrix.zeros(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols,
                      [[f.sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        f = self.field
        if not (self.rows and self.cols):
            return Matrix.zeros(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols,
                      [[f.neg(a) for a in row] for row in self.entries])

    def scale(self, c):
        f = self.field
        if not (self.rows and self.cols):
            return Matrix.zeros(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols,
                      [[f.mul(c, a) for a in row] for row in self.entries])

    def __mul__(self, other):
        """Matrix product self * other."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        if not (self.rows and other.cols):
            return Matrix.zeros(f, self.rows, other.cols)
        if f.kind == "rationals":
            return _mul_rational(self, other)
        p = f.p
        ot = _columns(other)
        rows = [[sum(a * b for a, b in zip(r, c)) % p for c in ot]
                for r in self.entries]
        return Matrix(f, self.rows, other.cols, rows)

    def submatrix(self, row_range, col_range):
        if not (row_range and col_range):
            return Matrix.zeros(self.field, len(row_range), len(col_range))
        return Matrix(self.field, len(row_range), len(col_range),
                      [[self.entries[i][j] for j in col_range] for i in row_range])


def _columns(m):
    """The columns of m as tuples."""
    return list(zip(*m.entries)) if m.rows else [()] * m.cols


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def _scaled(vec):
    """A vector over Q as (integers, d) with vec = integers / d."""
    d = lcm(*map(_denominator, vec))
    if d == 1:
        return list(map(_numerator, vec)), 1
    return [v.numerator * (d // v.denominator) for v in vec], d


def _mul_rational(a, b):
    """a * b over Q: each row of a and each column of b is scaled to
    integers over its common denominator, so an entry is one integer dot
    product and one Fraction."""
    z = a.field.zero
    cols = [_scaled(c) for c in _columns(b)]
    rows = []
    for r in a.entries:
        ri, rd = _scaled(r)
        row = []
        for ci, cd in cols:
            n = sum(map(mul, ri, ci))
            row.append(Fraction(n, rd * cd) if n else z)
        rows.append(row)
    return Matrix(a.field, a.rows, b.cols, rows)


def combination(field, coeffs, mats):
    """The linear combination sum_k coeffs[k] * mats[k] of a nonempty list
    of matrices of one shape, one pass per entry; over Q the coefficients
    and each entry's column of values are scaled to integers, as in
    products, so an entry is one integer dot product and one Fraction."""
    rows, cols = mats[0].rows, mats[0].cols
    if not (rows and cols):
        return Matrix.zeros(field, rows, cols)
    if len(mats) == 1 and coeffs[0] == field.one:
        return mats[0]      # entries are canonical scalars, so 1 * m is m
    grids = zip(*(m.entries for m in mats))
    if field.kind == "rationals":
        z = field.zero
        ci, cd = _scaled(coeffs)
        out = []
        for rs in grids:
            row = []
            for vec in zip(*rs):
                vi, vd = _scaled(vec)
                n = sum(map(mul, ci, vi))
                row.append(Fraction(n, cd * vd) if n else z)
            out.append(row)
    else:
        p = field.p
        out = [[sum(map(mul, coeffs, vec)) % p for vec in zip(*rs)]
               for rs in grids]
    return Matrix(field, rows, cols, out)


def _check_same_shape(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")


def _rref_prime(rows, cols, field, upward=True):
    """In-place elimination of rows of ints in [0, p); returns pivot
    columns.  Each pivot row is scaled to a leading 1 and clears its column
    in every row below it and, with upward, above it too, leaving the
    reduced row echelon form."""
    p = field.p
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pivot = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            inv = field.inv(prow[c])
            prow = rows[r] = [inv * v % p for v in prow]
        for i in range(0 if upward else r + 1, nrows):
            a = rows[i][c]
            if a and i != r:
                rows[i] = [(x - a * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


# --- Q on primitive integer rows ---------------------------------------------

def _integer_rows(entries):
    """Rows over Q, each scaled to primitive integers."""
    rows = []
    for row in entries:
        ints, _ = _scaled(row)
        g = gcd(*ints)
        rows.append([v // g for v in ints] if g > 1 else ints)
    return rows


def _rref_int(rows, cols, upward=True):
    """In-place fraction-free elimination of integer rows; returns pivot
    columns.  Each pivot row clears its column in every row below it and,
    with upward, above it too, leaving the reduced row echelon form up to
    one nonzero factor per row.  Every new row is divided by its content,
    which keeps the entries from growing with each step."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pivot = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(0 if upward else r + 1, nrows):
            a = rows[i][c]
            if a and i != r:
                g = gcd(p, a)
                s, t = p // g, a // g
                row = [s * x - t * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _unscale(field, rows, pivots, cols):
    """The reduced rows of _rref_int as Fractions: each pivot row divided
    by its pivot, the rows below it zero."""
    z = field.zero
    out = [[Fraction(v, row[c]) if v else z for v in row]
           for row, c in zip(rows, pivots)]
    out.extend([z] * cols for _ in range(len(rows) - len(pivots)))
    return out


def rref(m):
    """Reduced row echelon form of m; returns (matrix, pivot column tuple)."""
    f = m.field
    if not (m.rows and m.cols):
        return Matrix.zeros(f, m.rows, m.cols), ()
    if f.kind == "rationals":
        rows = _integer_rows(m.entries)
        pivots = _rref_int(rows, m.cols)
        return (Matrix(f, m.rows, m.cols, _unscale(f, rows, pivots, m.cols)),
                tuple(pivots))
    rows = [list(r) for r in m.entries]
    pivots = _rref_prime(rows, m.cols, f)
    return Matrix(f, m.rows, m.cols, rows), tuple(pivots)


def pivot_columns(m):
    """The pivot columns of rref(m): the columns outside the span of the
    columns before them.  The elimination runs downward only."""
    f = m.field
    if not (m.rows and m.cols):
        return ()
    if f.kind == "rationals":
        return tuple(_rref_int(_integer_rows(m.entries), m.cols, upward=False))
    return tuple(_rref_prime(list(m.entries), m.cols, f, upward=False))


def rank(m):
    return len(pivot_columns(m))


def rank_of_rows(field, rows, cols):
    """The rank of the matrix with the given rows, each a sequence of cols
    scalars, without building it: over F_p the list is eliminated in place
    as pivot_columns eliminates, over Q its rows are first scaled to
    primitive integers.  No row is changed (elimination replaces rows in
    the list), so rows may be tuples shared with matrices."""
    if not (rows and cols):
        return 0
    if field.kind == "rationals":
        return len(_rref_int(_integer_rows(rows), cols, upward=False))
    return len(_rref_prime(rows, cols, field, upward=False))


def kernel_basis(m):
    """Matrix whose columns are a basis of the right null space of m.

    Deterministic: one column per free column, in increasing column order,
    with the free coordinate set to 1 and pivot coordinates back-filled
    from the reduced echelon form.
    """
    return kernel_basis_and_free(m)[0]


def kernel_basis_and_free(m):
    """kernel_basis together with the free column indices.

    Because basis column k has a 1 at free column k and 0 at every other
    free column, the coordinates of a kernel vector in this basis can be
    read off at the free positions.
    """
    f = m.field
    if not m.rows:
        return Matrix.identity(f, m.cols), tuple(range(m.cols))
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    if not free:
        return Matrix.zeros(f, m.cols, 0), ()
    z, o = f.zero, f.one
    cols = []
    for fc in free:
        v = [z] * m.cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            # pivot row r reads: x_pc + sum_{free j} R[r][j] x_j = 0
            v[pc] = f.neg(R.entries[r][fc])
        cols.append(v)
    basis = Matrix(f, m.cols, len(cols),
                   [[cols[k][i] for k in range(len(cols))] for i in range(m.cols)])
    return basis, tuple(free)


def image_basis(m):
    """Matrix whose columns are the pivot columns of m (a basis of the image)."""
    pivots = pivot_columns(m)
    if not pivots:
        return Matrix.zeros(m.field, m.rows, 0)
    return Matrix(m.field, m.rows, len(pivots),
                  [[m.entries[i][j] for j in pivots] for i in range(m.rows)])


def solve(a, b):
    """Some x with a*x = b, or None.  b may have several columns.

    The particular solution sets all free variables to zero (pivot-ordered),
    so re-running is bit-identical.
    """
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.rows != b.rows:
        raise ValueError("shape mismatch: a has %d rows, b has %d" % (a.rows, b.rows))
    f = a.field
    n, k = a.cols, b.cols
    R, pivots = rref(hstack(f, (a, b)))
    if any(p >= n for p in pivots):
        return None
    if not (n and k):
        return Matrix.zeros(f, n, k)
    z = f.zero
    x = [[z] * k for _ in range(n)]
    for r, pc in enumerate(pivots):
        for j in range(k):
            x[pc][j] = R.entries[r][n + j]
    return Matrix(f, n, k, x)


def block_rows(field, m, height, width):
    """The rows of one block of a matrix assembled row by row: those of m,
    checked to be height x width, or height zero rows where m is None."""
    if m is None:
        return [(field.zero,) * width] * height
    if m.rows != height or m.cols != width:
        raise ValueError("block is %dx%d where %dx%d is assembled"
                         % (m.rows, m.cols, height, width))
    return m.entries


def negated(field, row):
    """The row -row, entry by entry."""
    if field.kind == "rationals":
        return tuple(-v for v in row)
    p = field.p
    return tuple(-v % p for v in row)


def block(field, grid):
    """Assemble a matrix from a nonempty grid of nonempty block rows."""
    height = 0
    for brow in grid:
        h = brow[0].rows
        if any(m.rows != h for m in brow):
            raise ValueError("inconsistent block heights")
        height += h
    width = sum(m.cols for m in grid[0])
    if not (height and width):
        if any(sum(m.cols for m in brow) != width for brow in grid):
            raise ValueError("inconsistent block widths")
        return Matrix.zeros(field, height, width)
    rows = []
    for brow in grid:
        for i in range(brow[0].rows):
            row = []
            for m in brow:
                row.extend(m.entries[i])
            rows.append(row)
    return Matrix(field, height, width, rows)


def direct_sum(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch")
    return direct_sum_many(a.field, (a, b))


def direct_sum_many(field, mats):
    """The block-diagonal matrix of mats, built in one pass."""
    if any(m.field != field for m in mats):
        raise ValueError("field mismatch")
    mats = [m for m in mats if m.rows or m.cols]
    height, width = sum(m.rows for m in mats), sum(m.cols for m in mats)
    if not (height and width):
        return Matrix.zeros(field, height, width)
    if len(mats) == 1:
        return mats[0]
    z = field.zero
    rows = []
    left = 0
    for m in mats:
        pad_l, pad_r = [z] * left, [z] * (width - left - m.cols)
        rows.extend(pad_l + list(r) + pad_r for r in m.entries)
        left += m.cols
    return Matrix(field, height, width, rows)


def hstack(field, mats):
    return block(field, [list(mats)]) if mats else Matrix.zeros(field, 0, 0)


def vstack(field, mats):
    return block(field, [[m] for m in mats]) if mats else Matrix.zeros(field, 0, 0)


def flatten_matrix(m):
    """Row-major flattening of m into a single column vector."""
    if not (m.rows and m.cols):
        return Matrix.zeros(m.field, 0, 1)
    ent = [[v] for row in m.entries for v in row]
    return Matrix(m.field, m.rows * m.cols, 1, ent)


def is_combination(field, columns, coords, vec):
    """Whether sum_k coords[k] * columns[k] equals vec (a list of
    scalars), for columns given as tuples of scalars."""
    recon = [0] * len(vec)
    for c, col in zip(coords, columns):
        if c:
            for idx, v in enumerate(col):
                if v:
                    recon[idx] += c * v
    if field.kind == "prime":
        recon = [v % field.p for v in recon]
    return recon == vec
