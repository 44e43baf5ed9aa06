from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie.linalg import (
    DimensionMismatch,
    InternalMismatch,
    SingularMatrix,
    frac,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    rational_sqrt,
    scaled,
    Scaled,
    scaled_combine,
    scaled_equal,
    scaled_leg,
    scaled_permute,
    t3_add,
    t3_neg,
    t3_sub,
    tensor_contract,
    unscaled,
    vec_add,
)

from oracles import (
    combine_plain,
    gauss_inverse,
    gauss_rank,
    leg_plain,
    mat_mul_plain,
    mat_vec_plain,
    permute_plain,
    product_vec,
    rand_mat,
    rand_share_tensor,
    rand_tensor,
    rand_vec,
    rng,
)

rationals = hs.fractions(min_value=-5, max_value=5, max_denominator=6)


def square_matrices(nmax=4):
    return hs.integers(1, nmax).flatmap(
        lambda n: hs.lists(hs.lists(rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(
            lambda rows: tuple(tuple(r) for r in rows)))


class TestFrac:
    def test_int(self):
        assert frac(3) == Fraction(3)

    def test_pair(self):
        assert frac(1, 3) == Fraction(1, 3)

    def test_string(self):
        assert frac("-2/5") == Fraction(-2, 5)


class TestRank:
    @settings(max_examples=80)
    @given(square_matrices())
    def test_matches_gaussian_elimination(self, m):
        assert mat_rank(m) == gauss_rank(m)

    def test_zero(self):
        assert mat_rank(((Fraction(0),),)) == 0

    def test_rectangular(self):
        m = ((frac(1), frac(2), frac(3)), (frac(2), frac(4), frac(6)))
        assert mat_rank(m) == 1 == gauss_rank(m)


class TestInverse:
    @settings(max_examples=80)
    @given(square_matrices())
    def test_matches_gaussian_elimination(self, m):
        ref = gauss_inverse(m)
        if ref is None:
            with pytest.raises(SingularMatrix):
                mat_inverse(m)
        else:
            got = mat_inverse(m)
            assert got == ref
            n = len(m)
            assert mat_mul(m, got) == mat_identity(n)

    def test_known(self):
        m = ((frac(2), frac(1)), (frac(1), frac(1)))
        assert mat_inverse(m) == ((frac(1), frac(-1)), (frac(-1), frac(2)))


class TestMatMul:
    @settings(max_examples=60)
    @given(square_matrices(3), square_matrices(3))
    def test_matches_plain_loops(self, a, b):
        if len(a) != len(b):
            return
        assert mat_mul(a, b) == mat_mul_plain(a, b)

    def test_transpose_reverses(self):
        r = rng(7)
        a, b = rand_mat(r, 3), rand_mat(r, 3)
        assert mat_transpose(mat_mul(a, b)) == mat_mul(mat_transpose(b),
                                                       mat_transpose(a))


class TestTensorContract:
    def test_slot0_is_left_product(self):
        r = rng(11)
        t = rand_tensor(r, 3)
        v = rand_vec(r, 3)
        got = tensor_contract(t, v, 0)
        for j in range(3):
            for k in range(3):
                direct = sum(v[i] * t[i][j][k] for i in range(3))
                assert got[j][k] == direct

    def test_slot2_matches_product_vec(self):
        # contracting the last slot with a basis covector reads off components
        r = rng(13)
        t = rand_tensor(r, 3)
        u, v = rand_vec(r, 3), rand_vec(r, 3)
        w = product_vec(t, u, v)
        m1 = tensor_contract(t, u, 0)
        assert mat_vec_plain(mat_transpose(m1), v) == w

    def test_linearity(self):
        r = rng(17)
        t = rand_tensor(r, 3)
        u, v = rand_vec(r, 3), rand_vec(r, 3)
        lhs = tensor_contract(t, vec_add(tuple(2 * a for a in u), v), 1)
        rhs_a = tensor_contract(t, u, 1)
        rhs_b = tensor_contract(t, v, 1)
        exp = tuple(tuple(2 * rhs_a[a][b] + rhs_b[a][b] for b in range(3))
                    for a in range(3))
        assert lhs == exp


class TestRationalSqrt:
    @settings(max_examples=60)
    @given(rationals)
    def test_square_roundtrip(self, q):
        s = rational_sqrt(q * q)
        assert s is not None and s * s == q * q

    def test_nonsquare(self):
        assert rational_sqrt(Fraction(3, 4)) is None
        assert rational_sqrt(Fraction(-1)) is None

    def test_known(self):
        assert rational_sqrt(Fraction(16, 25)) == Fraction(4, 5)


# --- the scaled int-numerator kernel against entry-by-entry Fraction loops ---

# mixed denominators, given negative as often as positive
entries = hs.builds(Fraction, hs.integers(-9, 9), hs.integers(1, 12) | hs.integers(-12, -1))
dims = hs.integers(1, 5)


def tensors(shape):
    """Dense, all-zero or single-nonzero tensors of one shape."""
    d0, d1, d2 = shape
    size = d0 * d1 * d2
    zero = Fraction(0)
    flat = hs.one_of(
        hs.lists(entries, min_size=size, max_size=size),
        hs.just([zero] * size),
        hs.tuples(hs.integers(0, size - 1), entries.filter(bool)).map(
            lambda kq: [kq[1] if k == kq[0] else zero for k in range(size)]))
    return flat.map(lambda xs: tuple(
        tuple(tuple(xs[(a * d1 + b) * d2 + c] for c in range(d2)) for b in range(d1))
        for a in range(d0)))


def matrices(rows, cols):
    return tensors((1, rows, cols)).map(lambda t: t[0])


def all_fractions(t):
    return all(type(x) is Fraction for plane in t for row in plane for x in row)


class TestScaled:
    @given(hs.tuples(dims, dims, dims).flatmap(tensors))
    def test_roundtrip(self, t):
        s = scaled(t)
        assert s.den > 0
        back = unscaled(s)
        assert back == t
        assert all_fractions(back)

    @given(hs.tuples(dims, dims).flatmap(lambda rc: matrices(*rc)))
    def test_matrix_entries(self, m):
        s = scaled(m)
        assert all(type(x) is int for row in s.num for x in row)
        assert [[Fraction(x, s.den) for x in row] for row in s.num] == [list(r) for r in m]

    @given(hs.data())
    def test_leg_matches_plain(self, data):
        shape = data.draw(hs.tuples(dims, dims, dims))
        leg = data.draw(hs.integers(0, 2))
        t = data.draw(tensors(shape))
        m = data.draw(matrices(data.draw(dims), shape[leg]))
        got = unscaled(scaled_leg(scaled(m), scaled(t), leg))
        assert got == leg_plain(m, t, leg)
        assert all_fractions(got)

    @given(hs.tuples(dims, dims, dims).flatmap(tensors),
           hs.permutations((0, 1, 2)))
    def test_permute_matches_plain(self, t, axes):
        got = unscaled(scaled_permute(scaled(t), tuple(axes)))
        assert got == permute_plain(t, axes)
        assert all_fractions(got)

    @given(hs.data())
    def test_combine_matches_plain(self, data):
        shape = data.draw(hs.tuples(dims, dims, dims))
        terms = data.draw(hs.lists(hs.tuples(hs.integers(-3, 3), tensors(shape)),
                                   min_size=1, max_size=4))
        got = unscaled(scaled_combine([(k, scaled(t)) for k, t in terms]))
        assert got == combine_plain(terms)
        assert all_fractions(got)

    def test_cancellation_gives_fraction_zero(self):
        t = rand_tensor(rng(5), 3)
        got = unscaled(scaled_combine([(1, scaled(t)), (-1, scaled(t))]))
        assert all_fractions(got)
        assert got == tuple(tuple((Fraction(0),) * 3 for _ in range(3)) for _ in range(3))

    def test_shape_errors(self):
        t = scaled(rand_tensor(rng(3), 3))
        with pytest.raises(DimensionMismatch):
            scaled_leg(scaled(rand_mat(rng(4), 3, 2)), t, 1)
        with pytest.raises(DimensionMismatch):
            scaled_leg(scaled(rand_mat(rng(4), 3)), t, 3)
        with pytest.raises(DimensionMismatch):
            scaled_permute(t, (0, 1, 1))


def _times(t, k):
    """The Scaled t with numerators and denominator multiplied by k."""
    return Scaled([[[k * x for x in row] for row in plane] for plane in t.num], k * t.den)


def _bumped(t, a, b, c):
    """A fresh copy of the Scaled t with 1 added to the numerator at (a, b, c)."""
    num = [[list(row) for row in plane] for plane in t.num]
    num[a][b][c] += 1
    return Scaled(num, t.den)


class TestScaledEqual:
    """scaled_equal compares on cross-multiplied numerators, so two routes
    that reach one tensor over different denominators agree."""

    @given(hs.tuples(dims, dims, dims).flatmap(tensors), hs.integers(1, 6))
    def test_same_values_over_other_denominators(self, t, k):
        s = scaled(t)
        assert scaled_equal(s, _times(s, k)) and scaled_equal(_times(s, k), s)

    @given(hs.data())
    def test_one_entry_bump_differs(self, data):
        s = scaled(data.draw(hs.tuples(dims, dims, dims).flatmap(tensors)))
        a, b, c = (data.draw(hs.integers(0, d - 1))
                   for d in (len(s.num), len(s.num[0]), len(s.num[0][0])))
        k = data.draw(hs.integers(1, 6))
        assert not scaled_equal(_times(s, k), _bumped(s, a, b, c))

    def test_shapes_differ(self):
        s = scaled(rand_tensor(rng(2), 3))
        assert not scaled_equal(s, Scaled(s.num[:2], s.den))
        assert not scaled_equal(s, Scaled([plane[:2] for plane in s.num], s.den))
        assert not scaled_equal(s, Scaled([[row[:2] for row in plane] for plane in s.num],
                                          s.den))


# --- the dense entrywise helpers against plain Fraction arithmetic ---

# all-zero, about 5% nonzero (the 4-dim doubles are about 95% zeros) and
# fully dense
shares = hs.sampled_from((0, 0.05, 1))


def entrywise(f, *ts):
    return tuple(tuple(tuple(f(*xs) for xs in zip(*rows)) for rows in zip(*planes))
                 for planes in zip(*ts))


@hs.composite
def tensor_pairs(draw):
    """(a, b) of one n x n x n shape, n = 1..4; b is drawn on its own, or is
    -a or a, so that a + b or a - b cancels to zero at every entry."""
    r = draw(hs.randoms(use_true_random=False))
    n = draw(hs.integers(1, 4))
    a = rand_share_tensor(r, n, draw(shares))
    b = draw(hs.sampled_from(("own", "neg", "same")))
    if b == "own":
        return a, rand_share_tensor(r, n, draw(shares))
    return a, entrywise(lambda x: -x, a) if b == "neg" else a


class TestEntrywise:
    """t3_add, t3_sub and t3_neg reuse an entry where the other operand's is
    zero instead of building a new Fraction; every entry keeps the value and
    the type of plain Fraction arithmetic."""

    @given(tensor_pairs())
    def test_matches_plain_fraction_arithmetic(self, ab):
        a, b = ab
        for got, want in ((t3_add(a, b), entrywise(lambda x, y: x + y, a, b)),
                          (t3_sub(a, b), entrywise(lambda x, y: x - y, a, b)),
                          (t3_neg(a), entrywise(lambda x: -x, a))):
            assert got == want
            assert all_fractions(got)

    def test_zero_entries_reused(self):
        z = rand_share_tensor(rng(0), 3, 0)
        t = rand_share_tensor(rng(1), 3, 1)
        for got, kept in ((t3_neg(z), z), (t3_add(t, z), t), (t3_sub(t, z), t)):
            assert all(x is y for planes in zip(got, kept) for rows in zip(*planes)
                       for x, y in zip(*rows))


def test_bareiss_raises_without_assert(monkeypatch):
    # an inexact Bareiss division is a bug, reported even under python -O
    import symplie.linalg as linalg
    monkeypatch.setattr(linalg, "divmod", lambda a, b: (0, 1), raising=False)
    with pytest.raises(InternalMismatch):
        mat_rank(((frac(1), frac(2)), (frac(3), frac(4))))
    with pytest.raises(InternalMismatch):
        mat_inverse(((frac(1), frac(2)), (frac(3), frac(4))))
