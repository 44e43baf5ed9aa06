"""Exact rational vectors, matrices and rank-3 tensors.

The package's values are nested tuples of fractions.Fraction, built once and
never mutated, so they are hashable and safe to share.

Every chain of matrix or tensor products runs on the scaled form: Python int
numerators over one common denominator per tensor (``Scaled``).  A Fraction
operation normalises through a gcd on every step; an int product or sum does
not, so the chain stays exact and converts back to Fractions only once, at
its end.  The products skip zero entries, because structure constants are
mostly zero.  The data objects of checks (StructureTensor, Form, Endo)
convert themselves once and cache the result, so scaled() here is for raw
tuples that belong to no such object.  The operations on that form are
scaled_leg (a matrix on one leg of a rank-3 tensor), scaled_permute,
scaled_combine and unscaled (back to Fractions); scaled_equal compares two
routes' results on cross-multiplied numerators, so neither is unscaled just
to be compared.

int_mat_mul and int_rank take int rows directly, such as a data object's
cached Scaled rows: int_mat_mul is the product scaled_leg runs on, for a
caller that contracts only some rows (the Nijenhuis torsion in checks).
Rank and inversion run a fraction-free (Bareiss-style) forward elimination
on integer-scaled rows, which keeps intermediate entries as minors of the
input instead of letting numerators and denominators blow up; int_rank
eliminates in place, so it takes a copy.

The dense Fraction helpers left are entrywise: zero, identity and transpose
for the parser and other builders, the vec_* and t3_* sums for sum products,
dual actions and the cross-check residuals.  t3_add, t3_sub and t3_neg build
no new Fraction for a zero entry: where the second operand's entry is zero
they return the first's, and t3_neg returns a zero as it is, so every entry
is still a Fraction of the same value.  mat_mul, mat_rank and
tensor_contract have no caller in the package; they stay only because the
benchmark tracer wraps them.
"""

from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple


class SingularMatrix(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class InternalMismatch(AssertionError):
    """Two routes that must agree by construction did not: a bug in symplie."""


def frac(x, y=None):
    if y is None:
        return Fraction(x)
    return Fraction(x, y)


# ---------------------------------------------------------------------------
# vectors

def vec_add(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths %d and %d" % (len(u), len(v)))
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths %d and %d" % (len(u), len(v)))
    return tuple(a - b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# matrices (tuple of row tuples)

def mat_zero(n, m=None):
    """The n x m zero matrix: one shared row of one shared Fraction(0),
    which immutable tuples allow."""
    if m is None:
        m = n
    return ((Fraction(0),) * m,) * n


def mat_identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions %d and %d" % (len(a[0]), len(b)))
    m = len(b[0])
    zero = Fraction(0)
    out = []
    for row in a:
        # structure constants are mostly zero, so skip empty terms instead
        # of grinding through dense Fraction products
        acc = [zero] * m
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_transpose(a):
    return tuple(zip(*a))


def _integer_rows(m):
    """Scale each row by the lcm of its denominators (rank/solve invariant)."""
    out = []
    for row in m:
        d = lcm(*(e.denominator for e in row))
        out.append([e.numerator * (d // e.denominator) for e in row])
    return out


def _bareiss_forward(rows, npivot):
    """Fraction-free (Bareiss) forward elimination, in place on integer rows:
    pivots come from the first npivot columns, and every column right of a
    pivot is updated.  Returns the number of pivots found, the rank of those
    columns."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(npivot):
        p = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                q, rem = divmod(rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j], prev)
                if rem:
                    raise InternalMismatch("Bareiss division not exact")
                rows[i][j] = q
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
        if r == nr:
            break
    return r


def int_rank(rows):
    """Rank over the rationals of a matrix given as lists of ints, by
    fraction-free (Bareiss) elimination in place on those lists."""
    if not rows:
        return 0
    return _bareiss_forward(rows, len(rows[0]))


def int_mat_mul(a, b):
    """a b for matrices given as lists of int rows, skipping zero entries:
    fresh lists, one per row of a, so a may have no rows."""
    out = []
    for arow in a:
        acc = [0] * len(b[0])
        for x, brow in zip(arow, b):
            if x:
                for c, y in enumerate(brow):
                    if y:
                        acc[c] += x * y
        out.append(acc)
    return out


def mat_rank(m):
    """Rank over the rationals of a matrix of Fractions."""
    return int_rank(_integer_rows(m))


def mat_inverse(m):
    """Exact inverse: Bareiss forward pass, then exact back substitution."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("matrix is not square")
    # scale row i of (m | I) by d_i; then m X = I becomes (scaled m) X = diag(d_i)
    aug = _integer_rows([tuple(row) + e for row, e in zip(m, mat_identity(n))])
    if _bareiss_forward(aug, n) < n:
        raise SingularMatrix("rank < %d" % n)
    cols = []
    for c in range(n):
        x = [Fraction(0)] * n
        for i in reversed(range(n)):
            s = Fraction(aug[i][n + c])
            for j in range(i + 1, n):
                s -= aug[i][j] * x[j]
            x[i] = s / aug[i][i]
        cols.append(x)
    return tuple(tuple(cols[c][i] for c in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# rank-3 tensors (tuple of matrices)

def t3_dims(t):
    return len(t), len(t[0]), len(t[0][0])


def t3_add(a, b):
    if t3_dims(a) != t3_dims(b):
        raise DimensionMismatch("tensor shapes differ")
    return tuple(tuple(tuple(x + y if y else x for x, y in zip(ra, rb))
                       for ra, rb in zip(pa, pb))
                 for pa, pb in zip(a, b))


def t3_sub(a, b):
    if t3_dims(a) != t3_dims(b):
        raise DimensionMismatch("tensor shapes differ")
    return tuple(tuple(tuple(x - y if y else x for x, y in zip(ra, rb))
                       for ra, rb in zip(pa, pb))
                 for pa, pb in zip(a, b))


def t3_neg(a):
    return tuple(tuple(tuple(-x if x else x for x in row) for row in plane) for plane in a)


def t3_is_zero(a):
    return all(x == 0 for plane in a for row in plane for x in row)


def tensor_contract(t, v, slot):
    """Contract vector v into slot 0, 1 or 2 of a rank-3 tensor.

    Returns the matrix indexed by the two remaining slots in order, e.g.
    slot 0 gives out[j][k] = sum_i v[i] t[i][j][k].  For structure constants
    c[i][j][k] the slot-0 contraction with a basis vector e_i lists the
    products e_i . e_j by rows.
    """
    d1, d2, d3 = t3_dims(t)
    zero = Fraction(0)
    if slot == 0:
        if len(v) != d1:
            raise DimensionMismatch("vector length %d, slot dimension %d" % (len(v), d1))
        acc = [[zero] * d3 for _ in range(d2)]
        for vi, plane in zip(v, t):
            if vi:
                for j, row in enumerate(plane):
                    arow = acc[j]
                    for k, x in enumerate(row):
                        if x:
                            arow[k] += vi * x
        return tuple(tuple(row) for row in acc)
    if slot == 1:
        if len(v) != d2:
            raise DimensionMismatch("vector length %d, slot dimension %d" % (len(v), d2))
        out = []
        for plane in t:
            arow = [zero] * d3
            for vj, row in zip(v, plane):
                if vj:
                    for k, x in enumerate(row):
                        if x:
                            arow[k] += vj * x
            out.append(tuple(arow))
        return tuple(out)
    if slot == 2:
        if len(v) != d3:
            raise DimensionMismatch("vector length %d, slot dimension %d" % (len(v), d3))
        out = []
        for plane in t:
            arow = [zero] * d2
            for j, row in enumerate(plane):
                s = zero
                for vk, x in zip(v, row):
                    if vk and x:
                        s += vk * x
                arow[j] = s
            out.append(tuple(arow))
        return tuple(out)
    raise DimensionMismatch("slot must be 0, 1 or 2, got %r" % (slot,))


# ---------------------------------------------------------------------------
# scaled form: int numerators over one common denominator

class Scaled(NamedTuple):
    """A matrix or rank-3 tensor whose entries are num[...] / den: nested
    lists of ints over one positive int denominator.  Operations build new
    lists and never mutate their inputs, so results may share rows, and the
    cached forms of the checks data types are shared by all their readers."""
    num: list
    den: int

    def plane(self, i):
        return Scaled(self.num[i], self.den)


def scaled(t):
    """Scaled form of a matrix or rank-3 tensor of Fractions."""
    rank3 = isinstance(t[0][0], (tuple, list))
    rows = [row for plane in t for row in plane] if rank3 else t
    den = lcm(*(x.denominator for row in rows for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    if rank3:
        num = [num[k:k + len(t[0])] for k in range(0, len(num), len(t[0]))]
    return Scaled(num, den)


def unscaled(t):
    """The rank-3 tensor of Fractions that t stands for: one Fraction per
    nonzero entry, one shared zero everywhere else."""
    zero = Fraction(0)
    den = t.den
    return tuple(tuple(tuple(Fraction(x, den) if x else zero for x in row)
                       for row in plane) for plane in t.num)


def scaled_leg(m, t, leg):
    """Apply the matrix m to leg 0, 1 or 2 of the rank-3 tensor t:

        leg 0: out[a][b][c] = sum_p m[a][p] t[p][b][c]
        leg 1: out[a][b][c] = sum_q m[b][q] t[a][q][c]
        leg 2: out[a][b][c] = sum_s m[c][s] t[a][b][s]
    """
    M, T = m.num, t.num
    dims = (len(T), len(T[0]), len(T[0][0]))
    if leg not in (0, 1, 2) or len(M[0]) != dims[leg]:
        raise DimensionMismatch("matrix cols %d, leg %r of a %s tensor"
                                % (len(M[0]), leg, "x".join(map(str, dims))))
    if leg == 0:  # m times t flattened to d1 rows of d2 * d3 entries
        flat = int_mat_mul(M, [[x for row in plane for x in row] for plane in T])
        d3 = dims[2]
        out = [[f[k:k + d3] for k in range(0, len(f), d3)] for f in flat]
    elif leg == 1:
        out = [int_mat_mul(M, plane) for plane in T]
    else:
        mT = [list(col) for col in zip(*M)]
        out = [int_mat_mul(plane, mT) for plane in T]
    return Scaled(out, m.den * t.den)


def scaled_permute(t, axes):
    """Reorder the legs of a rank-3 tensor as numpy.transpose does: leg k
    of the result is leg axes[k] of t, so (1, 0, 2) swaps the first two."""
    if sorted(axes) != [0, 1, 2]:
        raise DimensionMismatch("axes must order the legs 0, 1, 2, got %r" % (axes,))
    T, legs = t.num, [0, 1, 2]
    # bubble the legs into place by adjacent swaps, each one a zip
    for k in (0, 1, 0):
        if axes.index(legs[k]) > axes.index(legs[k + 1]):
            legs[k], legs[k + 1] = legs[k + 1], legs[k]
            if k == 0:
                T = [list(rows) for rows in zip(*T)]
            else:
                T = [[list(col) for col in zip(*plane)] for plane in T]
    return Scaled(T, t.den)


def scaled_combine(terms):
    """sum k * t over (k, t) pairs: int coefficients and rank-3 tensors of
    one shape, over the lcm of their denominators."""
    den = lcm(*(t.den for _, t in terms))
    out = None
    for k, t in terms:
        f = k * (den // t.den)
        if out is None:
            out = [[[f * x for x in row] for row in plane] for plane in t.num]
            continue
        for oplane, tplane in zip(out, t.num):
            for orow, trow in zip(oplane, tplane):
                for c, x in enumerate(trow):
                    if x:
                        orow[c] += f * x
    return Scaled(out, den)


def scaled_equal(a, b):
    """Whether the rank-3 Scaled tensors a and b stand for the same tensor:
    one shape, and x * b.den == y * a.den for each pair of entries, so their
    denominators may differ."""
    da, db = a.den, b.den
    if len(a.num) != len(b.num):
        return False
    for pa, pb in zip(a.num, b.num):
        if len(pa) != len(pb):
            return False
        for ra, rb in zip(pa, pb):
            if len(ra) != len(rb) or [x * db for x in ra] != [y * da for y in rb]:
                return False
    return True


def rational_sqrt(q):
    """Exact square root of a Fraction, or None if q is not a square in Q."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)
