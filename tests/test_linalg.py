import math
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from symplie.linalg import (
    ZERO,
    DimensionMismatch,
    InternalMismatch,
    SingularMatrix,
    int_mat_mul,
    int_rank,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_zero,
    Packed,
    packed,
    rational_sqrt,
    Scaled,
    scaled,
    scaled_combine,
    scaled_equal,
    scaled_inverse,
    scaled_leg,
    scaled_permute,
    tensor_contract,
    unscaled,
)
from symplie.checks import RepTensor, StructureTensor, rep_neg, rep_zero
from symplie.constructions import dual_left_action

from oracles import (
    combine_plain,
    contract_plain,
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
    scalar_plain,
)

rationals = hs.fractions(min_value=-5, max_value=5, max_denominator=6)


def square_matrices(nmax=4):
    return hs.integers(1, nmax).flatmap(
        lambda n: hs.lists(hs.lists(rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(
            lambda rows: tuple(tuple(r) for r in rows)))


# matrices whose rows have pairwise coprime denominators, 3, 5 and 7: one
# invertible, and two singular ones (a row 6/5 times, or 6/7 times, row 0)
COPRIME_ROWS = [
    ((Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3)),
     (Fraction(1, 5), Fraction(0), Fraction(2, 5)),
     (Fraction(-3, 7), Fraction(1, 7), Fraction(5, 7))),
    ((Fraction(1, 3), Fraction(2, 3)),
     (Fraction(2, 5), Fraction(4, 5))),
    ((Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)),
     (Fraction(3, 5), Fraction(1, 5), Fraction(-4, 5)),
     (Fraction(2, 7), Fraction(-4, 7), Fraction(2, 7))),
]


class TestRank:
    @settings(max_examples=80)
    @given(square_matrices())
    def test_matches_gaussian_elimination(self, m):
        assert mat_rank(m) == gauss_rank(m)

    def test_zero(self):
        assert mat_rank(((Fraction(0),),)) == 0

    def test_rectangular(self):
        m = ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(2), Fraction(4), Fraction(6)))
        assert mat_rank(m) == 1 == gauss_rank(m)

    def test_empty(self):
        assert mat_rank(()) == mat_rank(((),)) == mat_rank(((), ())) == 0

    def test_int_rank_of_no_rows(self):
        assert int_rank([]) == 0

    @pytest.mark.parametrize("m", COPRIME_ROWS)
    def test_coprime_denominators(self, m):
        assert mat_rank(m) == gauss_rank(m)


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
            assert mat_mul(m, got) == scalar_plain(n, 1)

    def test_known(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        assert mat_inverse(m) == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))

    def test_empty(self):
        assert mat_inverse(()) == ()

    @pytest.mark.parametrize("m", COPRIME_ROWS)
    def test_coprime_denominators(self, m):
        ref = gauss_inverse(m)
        if ref is None:
            with pytest.raises(SingularMatrix):
                mat_inverse(m)
        else:
            assert mat_inverse(m) == ref


class TestScaledInverse:
    """The int core of mat_inverse, on Scaled rows, against Gauss-Jordan
    elimination over Fraction: the same inverse, over its least positive
    denominator, and SingularMatrix for a singular matrix."""

    @staticmethod
    def _check(m):
        ref = gauss_inverse(m)
        if ref is None:
            with pytest.raises(SingularMatrix):
                scaled_inverse(scaled(m))
            return
        got = scaled_inverse(scaled(m))
        assert unscaled(got) == ref
        assert got.den > 0 and math.gcd(got.den, *chain.from_iterable(got.num)) == 1

    @settings(max_examples=80)
    @given(square_matrices(6))
    @example(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    @example(((Fraction(-3, 4),),))
    def test_matches_gaussian_elimination(self, m):
        self._check(m)

    @pytest.mark.parametrize("m", COPRIME_ROWS)
    def test_coprime_denominators(self, m):
        self._check(m)


class TestZero:
    """The zero matrix shares one row and the zero representation one
    plane; every entry is still an exact Fraction(0)."""

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 1), (1, 4), (4, 3)])
    def test_mat_zero_equals_per_row_construction(self, n, m):
        got = mat_zero(n, m)
        assert got == tuple((Fraction(0),) * m for _ in range(n))
        assert all(type(x) is Fraction and x == 0 for row in got for x in row)
        assert mat_zero(m) == tuple((Fraction(0),) * m for _ in range(m))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_rep_zero_equals_per_plane_construction(self, n, m):
        got = rep_zero(n, m)
        assert got == RepTensor(n, m, tuple(tuple((Fraction(0),) * m for _ in range(m))
                                            for _ in range(n)))
        assert all(type(x) is Fraction and x == 0
                   for plane in got.t for row in plane for x in row)
        assert rep_zero(n) == RepTensor(n, n, (mat_zero(n),) * n)


class TestMatMul:
    @settings(max_examples=60)
    @given(square_matrices(3), square_matrices(3))
    def test_matches_plain_loops(self, a, b):
        if len(a) != len(b):
            return
        assert mat_mul(a, b) == mat_mul_plain(a, b)

    @settings(max_examples=60)
    @given(hs.integers(0, 3), hs.integers(1, 3), hs.integers(1, 3), hs.data())
    def test_int_rows_match_plain_loops(self, n, k, m, data):
        # the int-row product on numerators, rectangular, with a possibly empty
        a = data.draw(hs.lists(hs.lists(rationals, min_size=k, max_size=k),
                               min_size=n, max_size=n).map(lambda rs: tuple(map(tuple, rs))))
        b = data.draw(hs.lists(hs.lists(rationals, min_size=m, max_size=m),
                               min_size=k, max_size=k).map(lambda rs: tuple(map(tuple, rs))))
        A, B = scaled(a) if a else Scaled([], 1), scaled(b)
        got = int_mat_mul(A.num, B.num)
        assert [tuple(Fraction(x, A.den * B.den) for x in row) for row in got] == \
            list(mat_mul_plain(a, b)) if a else got == []

    def test_rectangular_int_entries(self):
        a = ((1, 0, -2), (3, -1, 0))
        b = ((2, 0, 1, -1), (0, 0, 4, 5), (-3, 1, 0, 2))
        got = mat_mul(a, b)
        assert got == mat_mul_plain(a, b)
        assert all(type(x) is Fraction for row in got for x in row)

    def test_no_columns(self):
        assert mat_mul(((Fraction(1), Fraction(2)),), ((), ())) == ((),)

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
        lhs = tensor_contract(t, tuple(2 * a + b for a, b in zip(u, v)), 1)
        rhs_a = tensor_contract(t, u, 1)
        rhs_b = tensor_contract(t, v, 1)
        exp = tuple(tuple(2 * rhs_a[a][b] + rhs_b[a][b] for b in range(3))
                    for a in range(3))
        assert lhs == exp

    @pytest.mark.parametrize("shape", [(3, 3, 3), (2, 3, 4), (4, 1, 2)])
    @pytest.mark.parametrize("kind", ["fractional", "negative", "zero"])
    def test_every_slot_matches_plain_loops(self, shape, kind):
        r = rng(19)
        draw = {"fractional": lambda: Fraction(r.randint(-9, 9), r.randint(1, 7)),
                "negative": lambda: Fraction(-r.randint(1, 9), r.randint(1, 4)),
                "zero": lambda: Fraction(0)}[kind]
        t = tuple(tuple(tuple(draw() for _ in range(shape[2])) for _ in range(shape[1]))
                  for _ in range(shape[0]))
        for slot in range(3):
            v = tuple(Fraction(r.randint(-5, 5), r.randint(1, 6)) for _ in range(shape[slot]))
            assert tensor_contract(t, v, slot) == contract_plain(t, v, slot)

    @pytest.mark.parametrize("slot,message", [
        (0, "vector length 5, slot dimension 2"),
        (1, "vector length 5, slot dimension 3"),
        (2, "vector length 5, slot dimension 4"),
        (3, "slot must be 0, 1 or 2, got 3"),
    ])
    def test_dimension_messages(self, slot, message):
        t = tuple(tuple(tuple(Fraction(a + b + c) for c in range(4)) for b in range(3))
                  for a in range(2))
        with pytest.raises(DimensionMismatch) as err:
            tensor_contract(t, (Fraction(1),) * 5, slot)
        assert str(err.value) == message


class TestRationalSqrt:
    @settings(max_examples=60)
    @given(rationals)
    def test_square_roundtrip(self, q):
        s = rational_sqrt(q * q)
        assert s is not None and s * s == q * q

    def test_nonsquare(self):
        assert rational_sqrt(Fraction(3, 4)) is None
        assert rational_sqrt(Fraction(-1)) is None
        # a square numerator over a nonsquare denominator
        assert rational_sqrt(Fraction(4, 3)) is None

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

    # --- the width rule at its edge: a slot of W bits holds |x| < 2**(W - 1)

    def _against_plain(self, t, ms, terms):
        """Every operation on t against the plain loops: each leg by each of
        the matrices ms, each permutation, and the combination terms."""
        s = scaled(t)
        assert unscaled(s) == t
        for m in ms:
            for leg in range(3):
                if len(m[0]) == _dims3(t)[leg]:
                    assert unscaled(scaled_leg(scaled(m), s, leg)) == leg_plain(m, t, leg)
        for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert unscaled(scaled_permute(s, axes)) == permute_plain(t, axes)
        assert unscaled(scaled_combine([(k, scaled(u)) for k, u in terms])) == \
            combine_plain(terms)

    def test_sum_needs_exactly_w_minus_1_bits(self):
        # 2**62 + (2**62 - 1) = 2**63 - 1 is the largest entry a 64-bit slot
        # holds; 2**62 + 2**62 = 2**63 is the smallest that needs a wider one
        for x, y in ((2 ** 62, 2 ** 62 - 1), (2 ** 62, 2 ** 62), (-2 ** 62, 1 - 2 ** 62),
                     (-2 ** 62, -2 ** 62)):
            a = ((tuple(Fraction(v) for v in (x, 0, -x)),),)
            b = ((tuple(Fraction(v) for v in (y, 0, -y)),),)
            got = scaled_combine([(1, scaled(a)), (1, scaled(b))])
            assert got.width == (64 if abs(x + y) < 2 ** 63 else 128)
            assert unscaled(got) == combine_plain([(1, a), (1, b)])

    @pytest.mark.parametrize("top", (2 ** 63 - 1, 2 ** 63, 2 ** 64 + 1))
    def test_every_entry_at_the_bound(self, top):
        # numerator +-top in every slot, over one denominator; 2**63 - 1 fills
        # a 64-bit slot, 2**63 needs a 128-bit one
        r = rng(top % 97)
        t = tuple(tuple(tuple(Fraction(r.choice((top, -top)), 3)
                              for _ in range(4)) for _ in range(3)) for _ in range(2))
        s = scaled(t)
        assert (s.bound, s.width) == (top, 64 if top < 2 ** 63 else 128)
        ms = [((Fraction(1), Fraction(-1), Fraction(0), Fraction(2)),),
              ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(0), Fraction(-1))),
              ((Fraction(-1), Fraction(1)),)]
        self._against_plain(t, ms, [(1, t), (-1, t), (3, t)])

    def test_combine_coefficients_grow_the_width(self):
        # 2**62 fits a 64-bit slot; 3 * 2**62 and 7 * 2**62 - 2**62 do not,
        # so the combination widens its terms before it adds their rows
        big = Fraction(2 ** 62)
        t = ((tuple(big * k for k in (1, -1, 0, 1)),), (tuple(big * k for k in (0, 1, -1, -1)),))
        u = ((tuple(big * k for k in (1, 0, 0, -1)),), (tuple(big * k for k in (-1, 1, 1, 0)),))
        assert scaled(t).width == 64
        for terms in ([(3, t)], [(7, t), (-1, u)], [(1, t), (1, u), (1, t)], [(2, t), (-2, t)]):
            got = scaled_combine([(k, scaled(x)) for k, x in terms])
            assert unscaled(got) == combine_plain(terms)
            assert got.bound < 2 ** (got.width - 1)

    @pytest.mark.parametrize("leg", (0, 1, 2))
    def test_zero_tensor_by_a_matrix_past_the_width(self, leg):
        # a zero tensor has width 64 and bound 0; a matrix entry of 2**70
        # fits no 64-bit slot, and the product is still the zero tensor
        t = tuple(tuple((Fraction(0),) * 5 for _ in range(5)) for _ in range(5))
        m = tuple(tuple(Fraction(2 ** 70 if (i, j) == (4, 1) else i - j) for j in range(5))
                  for i in range(5))
        got = unscaled(scaled_leg(scaled(m), scaled(t), leg))
        assert got == leg_plain(m, t, leg)
        assert all_fractions(got)

    @pytest.mark.parametrize("share", (0, 0.01, 1))
    @pytest.mark.parametrize("shape", [(n, n, n) for n in range(1, 5)] + [(2, 3, 16)])
    def test_negative_entries(self, shape, share):
        # every nonzero entry negative, at 0%, 1% and 100% density, at dims
        # 1-4 and on 16-wide rows
        r = rng(7 * shape[2] + int(100 * share))
        t = tuple(tuple(tuple(-r.choice((1, 2, 5, Fraction(1, 3), 2 ** 70))
                              if r.random() < share else Fraction(0)
                              for _ in range(shape[2])) for _ in range(shape[1]))
                  for _ in range(shape[0]))
        if share == 0.01:  # at least one nonzero entry
            t = tuple(tuple(tuple(Fraction(-3) if (a, b, c) == (0, 0, shape[2] - 1) else x
                                  for c, x in enumerate(row)) for b, row in enumerate(plane))
                      for a, plane in enumerate(t))
        ms = [tuple(tuple(Fraction(r.choice((-2, -1, 0, 1, 3))) for _ in range(n))
                    for _ in range(2)) for n in sorted(set(shape))]
        self._against_plain(t, ms, [(1, t), (-2, t)])

    def test_shape_errors(self):
        t = scaled(rand_tensor(rng(3), 3))
        with pytest.raises(DimensionMismatch):
            scaled_leg(scaled(rand_mat(rng(4), 3, 2)), t, 1)
        with pytest.raises(DimensionMismatch):
            scaled_leg(scaled(rand_mat(rng(4), 3)), t, 3)
        with pytest.raises(DimensionMismatch):
            scaled_permute(t, (0, 1, 1))


def _dims3(t):
    return len(t), len(t[0]), len(t[0][0])


def _times(t, k):
    """The Packed t with numerators and denominator multiplied by k."""
    return packed([[[k * x for x in row] for row in plane] for plane in t.decoded], k * t.den)


def _bumped(t, a, b, c):
    """A fresh copy of the Packed t with 1 added to the numerator at (a, b, c)."""
    num = [[list(row) for row in plane] for plane in t.decoded]
    num[a][b][c] += 1
    return packed(num, t.den)


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
                   for d in (len(s.num), len(s.num[0]), s.cols))
        k = data.draw(hs.integers(1, 6))
        assert not scaled_equal(_times(s, k), _bumped(s, a, b, c))

    def test_other_widths_compared_decoded(self):
        # k = 2**70 puts _times(s, k) in slots of 128 bits and s in slots of
        # 64, so their rows are compared decoded
        s = scaled(rand_tensor(rng(3), 3))
        wide = _times(s, 1 << 70)
        assert wide.width > s.width
        assert scaled_equal(s, wide) and scaled_equal(wide, s)
        assert not scaled_equal(_bumped(s, 0, 1, 2), wide)

    def test_shapes_differ(self):
        s = scaled(rand_tensor(rng(2), 3))
        num = s.decoded
        assert not scaled_equal(s, packed(num[:2], s.den))
        assert not scaled_equal(s, packed([plane[:2] for plane in num], s.den))
        assert not scaled_equal(s, packed([[row[:2] for row in plane] for plane in num],
                                          s.den))


# --- dense tensor pairs and entrywise Fraction arithmetic, for the sums
# of nonzero lists (test_checks) and the layouts (test_layouts) ---

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
    """The negations of the dual actions and of rep_neg, made on nonzero
    lists: every entry of the dense view keeps the value and the type of
    plain Fraction arithmetic, and a zero entry is the one shared ZERO,
    never a new Fraction."""

    @given(tensor_pairs())
    def test_matches_plain_fraction_arithmetic(self, ab):
        a, _ = ab
        n, want = len(a), entrywise(lambda x: -x, a)
        for got in (dual_left_action(StructureTensor(n, a)).t, rep_neg(RepTensor(n, n, a)).t):
            assert got == want
            assert all_fractions(got)

    def test_zero_entries_reused(self):
        z = rand_share_tensor(rng(0), 3, 0)
        for got in (dual_left_action(StructureTensor(3, z)).t, rep_neg(RepTensor(3, 3, z)).t):
            assert got == z
            assert all(x is ZERO for plane in got for row in plane for x in row)


def test_decode_overflow_raises():
    # an entry beyond its slot is a bug in the width rule, reported even
    # under python -O (test_bialgebra's -O subprocess runs this case too)
    with pytest.raises(InternalMismatch) as err:
        Packed([[1 << 70]], 1, 1, 64, 1).decoded
    assert str(err.value) == "a packed row overflows 1 slots of 64 bits"


def test_bareiss_raises_without_assert(monkeypatch):
    # an inexact Bareiss division is a bug, reported even under python -O
    import symplie.linalg as linalg
    monkeypatch.setattr(linalg, "divmod", lambda a, b: (0, 1), raising=False)
    with pytest.raises(InternalMismatch):
        mat_rank(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    with pytest.raises(InternalMismatch):
        mat_inverse(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    # a 1 x 1 matrix has no elimination step: back substitution divides
    with pytest.raises(InternalMismatch, match="^back substitution not exact$"):
        mat_inverse(((Fraction(2),),))
