"""Exact rational vectors, matrices and rank-3 tensors.

The package's values are nested tuples of fractions.Fraction, built once and
never mutated, so they are hashable and safe to share.

Every chain of matrix or tensor products runs on int numerators over one
common denominator per object.  A Fraction operation normalises through a
gcd on every step; an int product or sum does not, so the chain stays exact
and converts back to Fractions only once, at its end.  A matrix is a Scaled:
lists of int rows.  A rank-3 tensor is a Packed: each row of each plane is
one int R = sum_c x_c 2**(W c), the signed numerators x_c in slots of W
bits (Kronecker substitution), and the tensor carries W, its row length
and a bound on its entries (the width rule, above _width).  Packing is
linear, so adding or scaling whole rows is one big-int operation however
long the row is:

  - scaled_combine does one multiply-add per row and term;
  - scaled_leg on legs 0 and 1 adds m[a][p] times whole rows, one big-int
    operation per nonzero entry of the matrix and row of the tensor;
  - scaled_leg on leg 2 and scaled_permute (but for the swap of legs 0 and
    1, which keeps every row) need single entries, so they decode rows:
    leg 2 sums a row's entries times the packed columns of the matrix, and
    a permutation repacks;
  - scaled_leg_each and scaled_leg_planes apply each plane of a tensor (or
    its transpose) as a matrix in one contraction, stacking the results,
    so a family indexed by a basis vector is one call rather than n;
  - scaled_equal, unscaled (back to Fractions) and the violation
    collectors test a row against 0 before they decode it.

A Packed decodes its rows at most once and keeps them (decoded, matrix,
and nonzeros, the decoded rows listed as checks stores a tensor).  The
data objects of checks hold their int forms (a StructureTensor packs its
nonzero list once; a Form or Endo stores Scaled rows, see checks), so
scaled() here is otherwise for raw tuples that belong to no such object.
scaled_equal compares two routes' results on cross-multiplied numerators,
so neither is unscaled just to be compared.

int_mat_mul and int_rank take int rows directly, such as a matrix's
Scaled rows.  int_mat_mul serves only the matrix chains of checks
(_mat_chain) and the mat_mul shim: the Nijenhuis torsion, closedness and
the parallel form in checks read single entries off the nonzero lists
instead and build no dense plane.  Rank and inversion run a fraction-free
(Bareiss 1968) forward elimination on integer rows, which keeps
intermediate entries as minors of the input instead of letting numerators
and denominators blow up; int_rank eliminates in place, so it takes a copy,
and scaled_inverse back-substitutes in ints too.  scaled_blocks is the one
builder of block matrices (the canonical r, the skew pairing, the doubles'
metrics and the hypersymplectic operators), as Scaled rows.

The dense Fraction helpers are mat_zero and fractions (an int row over a
denominator, for unscaled and the collectors), both with the one shared
ZERO for a zero entry.  The tensors of checks are stored, negated,
permuted and summed as nonzero lists, packed_sparse packs one,
Packed.decoded is the one place packed rows become entries, and
Packed.nonzeros lists them back, once per tensor, for every reader that
takes a list.  Every other operation has one implementation, on the int
kernel; mat_mul, mat_rank, mat_inverse and tensor_contract are shims on it
that only the benchmark tracer calls.

A value built once and kept on an object goes through one of two
mechanisms, both here.  _kept is an attribute built by its function on the
first read and kept in the object's __dict__ under its name (Scaled.terms,
Packed.decoded and .nonzeros, the .scaled forms and the dataclass views of
checks); a producer that holds the value presets it there (packed,
.listed, Violation.of).  It takes no lock: two threads reading it first
may both build it, equal immutable values of which one is kept (in Python
3.10 and 3.11 functools.cached_property locked).  _once keeps a value per
key and partner objects in the owner's memo: the verifiers' reports,
constructions' doubles and inverses, and the forms kept per key
(Scaled.columns, Packed.matrix, the views of checks, bialgebra's permuted
tensors).  Both live as long as the owner, and _once keeps the partners
alive too.
"""

from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import gcd, isqrt, lcm
from operator import add, attrgetter, is_, itemgetter, mul, sub
from struct import unpack
from typing import NamedTuple


class SingularMatrix(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class InternalMismatch(AssertionError):
    """Two routes that must agree by construction did not: a bug in symplie."""


# ---------------------------------------------------------------------------
# values kept on an object (module docstring)

class _kept:
    """An attribute built by func(obj) on its first read and kept in obj's
    __dict__ under its name.  Read on the class it raises AttributeError,
    so a dataclass field declared with it has no default."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name] = self.func(obj)
        return value


_PARTNERED = object()  # heads every slot with others, so no bare key equals one


def _once(owner, key, others, build, *args):
    """build(*args), evaluated once per owner, key and others, a tuple of
    objects, and kept in owner's memo (__dict__["_once"]); a hit calls
    nothing and builds no closure.  Without others the slot is key itself,
    hit by one lookup.  With others it is (_PARTNERED, key, their ids), kept
    with others themselves: it is reused only while each of them is the
    object given now, so an id reused after garbage collection never hits.
    build returns an immutable value, never None; an exception is raised
    again on each call, never kept."""
    memo = owner.__dict__.get("_once") or owner.__dict__.setdefault("_once", {})
    if not others:
        value = memo.get(key)
        if value is None:
            value = memo[key] = build(*args)
        return value
    slot = (_PARTNERED, key, *map(id, others))
    kept = memo.get(slot)
    if kept is not None and all(map(is_, kept[0], others)):
        return kept[1]
    value = build(*args)
    memo[slot] = others, value
    return value


# ---------------------------------------------------------------------------
# matrices (tuple of row tuples)

ZERO = Fraction(0)  # the one zero entry of every matrix and row built here


def fractions(xs, den):
    """The Fractions x / den of the ints xs, as a tuple: one Fraction per
    nonzero x, the shared ZERO for each zero."""
    return tuple([Fraction(x, den) if x else ZERO for x in xs])


def mat_zero(n, m=None):
    """The n x m zero matrix: one shared row of ZERO, which immutable tuples
    allow."""
    if m is None:
        m = n
    return ((ZERO,) * m,) * n


def mat_mul(a, b):
    """a b for matrices of Fractions: int_mat_mul on their scaled() rows,
    read back with unscaled.  No function in the package calls it; it stays
    as a shim on the kernel because the benchmark tracer wraps it by name."""
    if len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions %d and %d" % (len(a[0]), len(b)))
    A, B = scaled(a), scaled(b)
    return unscaled(Scaled(int_mat_mul(A.num, B.num), A.den * B.den))


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
    """a b for matrices given as sequences of int rows, skipping zero
    entries: fresh lists, one per row of a, so a may have no rows."""
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
    """Rank over the rationals of a matrix of Fractions: int_rank on its
    scaled() rows, which are fresh lists.  No function in the package calls
    it; it stays as a shim on the kernel because the benchmark tracer wraps
    it by name."""
    return int_rank(scaled(m).num) if m else 0


def mat_inverse(m):
    """Exact inverse of a matrix of Fractions: scaled_inverse of its scaled()
    rows, read back with unscaled.  No function in the package calls it; it
    stays as a shim on the kernel because the benchmark tracer wraps it by
    name."""
    if any(len(row) != len(m) for row in m):
        raise DimensionMismatch("matrix is not square")
    return unscaled(scaled_inverse(scaled(m))) if m else ()


def scaled_inverse(M):
    """The inverse of the square Scaled matrix M (at least 1 x 1), as a
    Scaled matrix, all in ints: Bareiss's forward pass on (M.num | I) leaves
    an upper triangle whose last pivot D is +-det(M.num), and since
    D M.num^-1 = +-adj(M.num) is an int matrix, back substitution for it
    divides exactly.  The inverse of M.num / M.den is M.den D M.num^-1 / D,
    kept over the least denominator (the gcd of D and the numerators taken
    out).  SingularMatrix when M is singular."""
    n = len(M.num)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M.num)]
    if _bareiss_forward(aug, n) < n:
        raise SingularMatrix("rank < %d" % n)
    D, X = aug[-1][n - 1], [[0] * n for _ in range(n)]  # X = D M.num^-1
    for i in reversed(range(n)):
        row = aug[i]
        for c in range(n):
            X[i][c], rem = divmod(D * row[n + c] - sum([row[j] * X[j][c]
                                                        for j in range(i + 1, n)]), row[i])
            if rem:
                raise InternalMismatch("back substitution not exact")
    g = gcd(D, M.den * gcd(*chain.from_iterable(X))) * (1 if D > 0 else -1)
    return Scaled([[M.den * x // g for x in row] for row in X], D // g)


def scaled_blocks(n, blocks):
    """The Scaled block matrix whose block rows are blocks, each a sequence
    of (q, M): the rational q times the n x n Scaled matrix M, or times the
    identity for M None (q = 0 for a zero block); its int rows are over the
    lcm of the blocks' denominators.  The one builder of the block matrices:
    the canonical r, the skew pairing, the doubles' metrics and the
    hypersymplectic operators."""
    one = Scaled([[int(i == j) for j in range(n)] for i in range(n)], 1)
    blocks = [[(Fraction(q), one if M is None else M) for q, M in band] for band in blocks]
    den = lcm(*[q.denominator * M.den for band in blocks for q, M in band])
    rows = []
    for band in blocks:
        parts = [[[q.numerator * (den // (q.denominator * M.den)) * x for x in row]
                  for row in M.num] for q, M in band]
        rows += [list(chain.from_iterable(r)) for r in zip(*parts)]
    return Scaled(rows, den)


# ---------------------------------------------------------------------------
# rank-3 tensors (tuple of matrices)

def t3_dims(t):
    return len(t), len(t[0]), len(t[0][0])


def tensor_contract(t, v, slot):
    """Contract vector v into slot 0, 1 or 2 of a rank-3 tensor.

    Returns the matrix indexed by the two remaining slots in order, e.g.
    slot 0 gives out[j][k] = sum_i v[i] t[i][j][k].  For structure constants
    c[i][j][k] the slot-0 contraction with a basis vector e_i lists the
    products e_i . e_j by rows.

    One scaled_leg of t by the one-row matrix of v: the result has one index
    on leg slot, so its rows with that leg put first are the matrix.  No
    function in the package calls it; it stays as a shim on the kernel
    because the benchmark tracer wraps it by name.
    """
    dims = t3_dims(t)
    if slot not in (0, 1, 2):
        raise DimensionMismatch("slot must be 0, 1 or 2, got %r" % (slot,))
    if len(v) != dims[slot]:
        raise DimensionMismatch("vector length %d, slot dimension %d" % (len(v), dims[slot]))
    out = scaled_leg(scaled((v,)), scaled(t), slot)
    return unscaled(out.matrix((slot,) + tuple(k for k in (0, 1, 2) if k != slot)))


# ---------------------------------------------------------------------------
# scaled form: int numerators over one common denominator

class _Matrix(NamedTuple):
    num: list
    den: int


class Scaled(_Matrix):
    """A matrix whose entries are num[i][j] / den: lists of int rows over one
    positive int denominator.  Operations build new lists and never mutate
    their inputs, so the cached forms of the checks data types are shared by
    all their readers.  What scaled_leg reads off the rows (terms, gain and
    the packed columns) is worked out on first use and kept."""

    def transposed(self):
        return Scaled([list(col) for col in zip(*self.num)], self.den)

    @_kept
    def terms(self):
        """Per row, None for a zero row, else (xs, pick): pick(v) lists the
        entries of v that the entries xs of the row multiply, so
        sum(map(mul, xs, pick(v))) is the product of the row and v, and
        pick None means v itself.  A row of more than 8 entries keeps only
        its nonzero entries: picking them costs more than it saves on
        shorter rows."""
        out = []
        for row in self.num:
            if not any(row):
                out.append(None)
                continue
            if len(row) <= 8:
                out.append((row, None))
                continue
            qs = [q for q, x in enumerate(row) if x]
            if len(qs) > 1:
                out.append(([row[q] for q in qs], itemgetter(*qs)))
            else:
                out.append(([row[qs[0]]], itemgetter(slice(qs[0], qs[0] + 1))))
        return out

    @_kept
    def gain(self):
        """The largest sum of |entries| over a row: how much applying the
        matrix can multiply a bound on the entries it acts on."""
        return max(sum(map(abs, row)) for row in self.num)

    def columns(self, width):
        """The columns of the matrix as packed rows of slots of width bits,
        kept per width."""
        return _once(self, width, (), _columns, self.num, width)


class _PackedFields(NamedTuple):
    num: list
    den: int
    cols: int
    width: int
    bound: int


class Packed(_PackedFields):
    """A rank-3 tensor whose entries are x / den for int numerators x, with
    each row of each plane packed into one int: num[a][b] is the sum over c
    of x[a][b][c] * 2**(width * c), cols slots of width bits.  bound is at
    least every |x| and below 2**(width - 1) (the width rule, see _width),
    so a row is 0 exactly when all its entries are.  Operations build new
    lists and never mutate their inputs, so results may share rows.  The
    entries are decoded on first use and kept (decoded, matrix), so a
    tensor that several operations read is decoded once."""

    @_kept
    def decoded(self):
        """The numerators: a tuple of planes, each a tuple of rows, each a
        tuple of ints; only the nonzero rows are decoded, and the zero rows
        share one tuple of zeros."""
        zero = (0,) * self.cols
        rows = iter(_decode([R for plane in self.num for R in plane if R], self.width, self.cols))
        return tuple(tuple([next(rows) if R else zero for R in plane]) for plane in self.num)

    @_kept
    def nonzeros(self):
        """The nonzero list (den, nz) of the decoded rows, in the stored form
        of the tensors of checks: nz[a][b] lists (c, x) for each nonzero
        numerator x of row (a, b); a zero row is listed empty, its decoded row
        unread."""
        return self.den, [[[(c, x) for c, x in enumerate(row) if x] if R else []
                           for R, row in zip(plane, rows)]
                          for plane, rows in zip(self.num, self.decoded)]

    def matrix(self, axes=(0, 1, 2)):
        """The Scaled matrix whose rows are the rows (a, b) of this tensor
        with its legs permuted by axes, in order: the entries of that
        tensor, never packed.  Kept per axes."""
        return _once(self, axes, (), _matrix, self, axes)

    def split(self, n):
        """The n tensors of equally many planes stacked in this one, such as
        the per-plane results of scaled_leg_each."""
        k = len(self.num) // n
        return [self._replace(num=self.num[i:i + k]) for i in range(0, len(self.num), k)]


def _columns(num, width):
    """Scaled.columns: the columns of the int rows num, packed."""
    return _pack(list(zip(*num)), width)


def _matrix(t, axes):
    """Packed.matrix: the rows of t with its legs permuted by axes."""
    return Scaled([row for plane in _permuted(t.decoded, axes) for row in plane], t.den)


# The width rule.  Packing is linear over Z: for any ints x_c the packed int
# is P(x) = sum_c x_c 2**(W c), so P(x) + P(y) = P(x + y) and k P(x) = P(k x)
# hold exactly, whatever the entries.  A sum of multiples of packed rows is
# therefore always the packed row of the exact sum of multiples of the entry
# rows, and no intermediate big int needs a bound.  The bound is needed only
# where a row is read: to decode it, or to test it against 0 (a row, or the
# cross-multiplied difference scaled_equal tests).  A row whose entries all
# satisfy |x_c| < 2**(W - 1) has a unique such expansion (the balanced
# base-2**W digits), so it decodes to its entries and is 0 only if they all
# are.  Every Packed keeps that rule for its bound, which is at least every
# |x_c|: a leg contraction by a matrix m multiplies the bound by the largest
# sum of |m[a][p]| over a row of m (its gain), a combination sum k_t t has
# bound sum |k_t| bound_t, and a cross-multiplied difference a db - b da has
# bound a.bound db + b.bound da.  An operation works out the bound of its
# result first, picks the least W that holds it (never narrower than its
# inputs), and widens an input whose slots are narrower (_widen, a decode
# and repack, which only combinations of different widths and the rare
# contraction that outgrows its input pay) before it adds rows, so every
# row it builds is read at a width that holds it.  _decode raises
# InternalMismatch when a top slot is out of range.  _pack takes only
# entries that are in range by construction: packed() picks the width from
# the entries, _widen and scaled_permute repack entries of a tensor at its
# own width or a wider one, and a leg 2 packs the columns of m at a width
# that holds t.bound * m.gain, which is at least every |m[c][s]| when t is
# not zero (a zero t is not contracted at all).

_STEP = 64  # slot widths are multiples of _STEP bits


def _width(bound):
    """The least multiple W of _STEP with bound < 2**(W - 1)."""
    return -(-(bound.bit_length() + 1) // _STEP) * _STEP


@cache
def _offset(width, cols):
    """2**(width - 1) in each of cols slots of width bits."""
    return (1 << (width - 1)) * (((1 << width * cols) - 1) // ((1 << width) - 1))


def _decode(rows, width, cols):
    """The entries of each packed row of rows, a tuple per row.  Adding
    the offset makes every slot its entry plus 2**(width - 1); flipping the
    top bit of each slot then leaves the entry in two's complement, so the
    bytes of all the rows are read as signed slots in one pass."""
    offset, size = _offset(width, cols), width * cols >> 3
    try:
        data = b"".join([((R + offset) ^ offset).to_bytes(size, "little") for R in rows])
    except OverflowError:
        # an entry of a top slot is out of range; an explicit raise, so the
        # check holds under python -O
        raise InternalMismatch("a packed row overflows %d slots of %d bits" % (cols, width))
    if width == 64:
        flat = unpack("<%dq" % (len(rows) * cols), data)
    else:
        k = width >> 3
        flat = [int.from_bytes(data[i:i + k], "little", signed=True)
                for i in range(0, len(data), k)]
    return [flat[i:i + cols] for i in range(0, len(flat), cols)]


def _pack(rows, width):
    """The packed rows of the sequences of ints rows, each entry of
    absolute value below 2**(width - 1); a zero row packs to 0 without
    work."""
    out = []
    for xs in rows:
        v = 0
        if any(xs):
            for x in reversed(xs):
                v = (v << width) + x
        out.append(v)
    return out


def packed(num, den):
    """The Packed tensor of nested lists of int numerators num over den, at
    the least width its largest entry allows."""
    rows = list(chain.from_iterable(num))
    flat = list(chain.from_iterable(filter(any, rows)))
    bound = max(max(flat), -min(flat)) if flat else 0
    width, k = _width(bound), len(num[0])
    rows = _pack(rows, width)
    t = Packed([rows[i:i + k] for i in range(0, len(rows), k)], den, len(num[0][0]), width,
               bound)
    # the entries are at hand, so they are kept as decoded, not read back
    t.__dict__["decoded"] = tuple(tuple(map(tuple, plane)) for plane in num)
    return t


def packed_sparse(den, rows, cols):
    """The Packed tensor of cols columns whose row (a, b) has the numerators
    x over den at c for the pairs (c, x) of rows[a][b]; decoded when read."""
    bound = max([abs(x) for plane in rows for row in plane for _, x in row], default=0)
    width = _width(bound)
    return Packed([[sum([x << width * c for c, x in row]) for row in plane] for plane in rows],
                  den, cols, width, bound)


def _widen(t, width):
    """t, whose slots must be narrower than width bits, with slots of width
    bits: the same rows, decoded and repacked (the nonzero ones)."""
    rows = iter(_pack([row for plane, rows in zip(t.num, t.decoded)
                       for R, row in zip(plane, rows) if R], width))
    return t._replace(num=[[next(rows) if R else 0 for R in plane] for plane in t.num],
                      width=width)


_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def scaled(t):
    """Scaled form of a matrix of Fractions (its rows may be empty), Packed
    form of a rank-3 tensor of Fractions."""
    rank3 = bool(t[0]) and isinstance(t[0][0], (tuple, list))
    rows = [row for plane in t for row in plane] if rank3 else t
    den = lcm(*set(map(_DENOMINATOR, chain.from_iterable(rows))))
    if den == 1:
        num = [list(map(_NUMERATOR, row)) for row in rows]
    else:
        num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    if not rank3:
        return Scaled(num, den)
    return packed([num[k:k + len(t[0])] for k in range(0, len(num), len(t[0]))], den)


def unscaled(t):
    """The Fractions that t stands for, a matrix for a Scaled and a rank-3
    tensor for a Packed: one Fraction per nonzero entry, one shared zero
    everywhere else.  A Packed is read through its decoded rows, which it
    keeps."""
    den = t.den
    if isinstance(t, Scaled):
        return tuple([fractions(xs, den) for xs in t.num])
    zrow = (ZERO,) * t.cols
    return tuple(tuple([fractions(xs, den) if R else zrow for R, xs in zip(plane, rows)])
                 for plane, rows in zip(t.num, t.decoded))


def scaled_leg(m, t, leg):
    """Apply the Scaled matrix m to leg 0, 1 or 2 of the Packed tensor t:

        leg 0: out[a][b][c] = sum_p m[a][p] t[p][b][c]
        leg 1: out[a][b][c] = sum_q m[b][q] t[a][q][c]
        leg 2: out[a][b][c] = sum_s m[c][s] t[a][b][s]

    Legs 0 and 1 add multiples of whole packed rows, one big-int operation
    per nonzero entry of m and row of t; leg 2 reads the decoded rows of t
    and sums, for each nonzero row, its entries times the packed columns of
    m."""
    M, T = m.num, t.num
    if len(M[0]) != (len(T), len(T[0]), t.cols, None)[leg if leg in (0, 1, 2) else 3]:
        raise DimensionMismatch("matrix cols %d, leg %r of a %dx%dx%d tensor"
                                % (len(M[0]), leg, len(T), len(T[0]), t.cols))
    if not t.bound:
        # t is zero, and so is the result: m's entries are tied to the slot
        # width only through the bound t.bound * m.gain, so m is not packed
        shape = [len(T), len(T[0]), t.cols]
        shape[leg] = len(M)
        return Packed([[0] * shape[1] for _ in range(shape[0])], m.den * t.den, shape[2],
                      t.width, 0)
    bound = t.bound * m.gain
    width = t.width if bound.bit_length() < t.width else _width(bound)
    if leg == 2:
        cols = m.columns(width)
        out = [[sum(map(mul, row, cols)) if R else 0 for R, row in zip(plane, rows)]
               for plane, rows in zip(T, t.decoded)]
        return Packed(out, m.den * t.den, len(M), width, bound)
    if width > t.width:
        T = _widen(t, width).num
    if leg == 0:  # row a of m times the rows (p, b) over p, for each b
        out = _times(m.terms, list(zip(*T)))
    else:  # row b of m times plane a, for each a
        out = list(zip(*_times(m.terms, T)))
    return Packed(out, m.den * t.den, t.cols, width, bound)


def _times(terms, vs):
    """[[row . v for v in vs] for each row], for the terms of a Scaled
    matrix's rows and sequences vs of packed rows: one big-int
    multiply-add per entry a row keeps."""
    zero = [0] * len(vs)
    out = []
    for term in terms:
        if term is None:
            out.append(zero)
        elif term[1] is None:
            xs = term[0]
            out.append([sum(map(mul, xs, v)) for v in vs])
        else:
            xs, pick = term
            out.append([sum(map(mul, xs, pick(v))) for v in vs])
    return out


def scaled_permute(t, axes):
    """Reorder the legs of a Packed tensor as numpy.transpose does: leg k
    of the result is leg axes[k] of t, so (1, 0, 2) swaps the first two.
    That one keeps every packed row; the others move the packed leg, so
    they decode the rows and repack them."""
    if sorted(axes) != [0, 1, 2]:
        raise DimensionMismatch("axes must order the legs 0, 1, 2, got %r" % (axes,))
    axes = tuple(axes)
    if axes == (0, 1, 2):
        return t
    if axes == (1, 0, 2):
        return t._replace(num=[list(rows) for rows in zip(*t.num)])
    shape = (len(t.num), len(t.num[0]), t.cols)
    rows, k = _pack(t.matrix(axes).num, t.width), shape[axes[1]]
    return t._replace(num=[rows[i:i + k] for i in range(0, len(rows), k)], cols=shape[axes[2]])


def _permuted(T, axes):
    """The nested sequences T of a rank-3 tensor with its legs permuted by
    axes."""
    legs = [0, 1, 2]
    # bubble the legs into place by adjacent swaps, each one a zip
    for k in (0, 1, 0):
        if axes.index(legs[k]) > axes.index(legs[k + 1]):
            legs[k], legs[k + 1] = legs[k + 1], legs[k]
            if k == 0:
                T = list(zip(*T))
            else:
                T = [list(zip(*plane)) for plane in T]
    return T


def scaled_leg_each(mt, x, leg, transpose=False):
    """Leg 0 or 1 of the Packed x by each plane m_i of the Packed mt (by its
    transpose, with transpose), stacked: plane i * k + a of the result is
    plane a of scaled_leg(m_i, x, leg), where k is the number of planes
    that has.  One contraction by the matrix of all the planes' rows."""
    out = scaled_leg(mt.matrix((0, 2, 1) if transpose else (0, 1, 2)), x, leg)
    if leg == 0:
        return out
    k = mt.cols if transpose else len(mt.num[0])  # rows of each m_i
    return out._replace(num=[plane[i:i + k] for i in range(0, len(out.num[0]), k)
                             for plane in out.num])


def scaled_leg_planes(mt, x, axes=(0, 1, 2)):
    """Leg 2 of y = scaled_permute(x, axes) by the transpose of each plane of
    the Packed mt, stacked as scaled_leg_each stacks: plane i * k + a is

        out_i[a][b][c] = sum_s mt[i][s][c] y[a][b][s]

    over b and c.  y is never packed: the result is one leg-1 contraction
    of mt by the matrix of y's rows (a, b), whose plane i, cut into rows of
    y's planes, is out_i."""
    big = scaled_leg(x.matrix(axes), mt, 1)
    d1 = (len(x.num), len(x.num[0]), x.cols)[axes[1]]
    return big._replace(num=[plane[k:k + d1] for plane in big.num
                             for k in range(0, len(plane), d1)])


def scaled_combine(terms):
    """sum k * t over (k, t) pairs: int coefficients and Packed tensors of
    one shape, over the lcm of their denominators; one big-int
    multiply-add per row and term."""
    tensors = [t for _, t in terms]
    den = lcm(*[t.den for t in tensors])
    fs = [k * (den // t.den) for k, t in terms]
    bound = sum([abs(f) * t.bound for f, t in zip(fs, tensors)])
    width = max([t.width for t in tensors])
    if bound.bit_length() >= width:
        width = _width(bound)
    acc = None
    for f, t in zip(fs, tensors):  # all the rows at once, in row-major order
        rows = chain.from_iterable(t.num if t.width == width else _widen(t, width).num)
        if acc is None:
            acc = list(rows) if f == 1 else list(map(mul, rows, repeat(f)))
        elif f == 1 or f == -1:
            acc = list(map(add if f == 1 else sub, acc, rows))
        else:
            acc = list(map(add, acc, map(mul, rows, repeat(f))))
    k = len(tensors[0].num[0])
    return Packed([acc[i:i + k] for i in range(0, len(acc), k)], den, tensors[0].cols,
                  width, bound)


def scaled_equal(a, b):
    """Whether the Packed tensors a and b stand for the same tensor: one
    shape, and x * b.den == y * a.den for each pair of entries, so their
    denominators may differ.  Rows are compared packed when both tensors
    have one width that holds the cross-multiplied difference, else
    decoded."""
    if len(a.num) != len(b.num) or a.cols != b.cols or any(
            len(pa) != len(pb) for pa, pb in zip(a.num, b.num)):
        return False
    da, db = a.den, b.den
    if a.width == b.width >= _width(a.bound * db + b.bound * da):
        return all(x * db == y * da for pa, pb in zip(a.num, b.num) for x, y in zip(pa, pb))
    return all([u * db for u in x] == [v * da for v in y]
               for pa, pb in zip(a.decoded, b.decoded) for x, y in zip(pa, pb))


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
