"""The layouts built in one place each: the stacked families of bialgebra
read by one collector (_pair_violations), and the 2 x 2 block matrices of
the doubles and of the hypersymplectic families (linalg.mat_blocks and
mat_scalar), each against a plain-loop oracle."""

from fractions import Fraction
from operator import le, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie import bialgebra
from symplie.bialgebra import canonical_r, slsba_double
from symplie.catalog import catalog_get
from symplie.checks import Endo, Violation, op_add
from symplie.constructions import build_N, canonical_skew_pairing
from symplie.linalg import mat_zero, packed, scaled_combine

from oracles import (
    block_plain,
    gauss_inverse,
    pair_violations_plain,
    rand_invertible,
    rand_q,
    rng,
    scalar_plain,
)

Q = Fraction

# entries past one 64-bit slot too, so the collector decodes wider rows
_entries = hs.one_of(hs.integers(-3, 3), hs.integers(-(1 << 100), 1 << 100))


@hs.composite
def stacked_items(draw):
    """(n, items): 2-3 items (where, num, den, keep), each num a stacked
    tensor of n * n planes with a few nonzero rows, all of one shape."""
    n, rows, cols = draw(hs.integers(1, 3)), draw(hs.integers(1, 3)), draw(hs.integers(1, 3))
    items = []
    for k in range(draw(hs.integers(2, 3))):
        num = [[[0] * cols for _ in range(rows)] for _ in range(n * n)]
        for _ in range(draw(hs.integers(0, 4))):
            p, a = draw(hs.integers(0, n * n - 1)), draw(hs.integers(0, rows - 1))
            num[p][a] = draw(hs.lists(_entries, min_size=cols, max_size=cols))
        items.append(("item-%d" % k, num, draw(hs.integers(1, 12)),
                      draw(hs.sampled_from((None, lt, le)))))
    return n, items


class TestPairViolations:
    @settings(max_examples=60)
    @given(stacked_items())
    def test_matches_nested_loops(self, case):
        n, items = case
        got = bialgebra._pair_violations(
            n, *((where, packed(num, den), keep) for where, num, den, keep in items))
        want = pair_violations_plain(n, items)
        assert got == [Violation(*v) for v in want]
        assert all(type(v.residual) is Fraction for v in got)

    def test_zero_stack_is_not_decoded(self):
        # a stack read all zero, or nonzero only where keep skips it, is
        # collected off its packed rows alone
        num = [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [5, -1]], [[0, 0], [0, 0]]]
        zero = scaled_combine(((1, packed([[[0, 0]] * 2] * 4, 1)),))
        skipped = scaled_combine(((1, packed(num, 2)),))  # plane (1, 0): le skips it
        assert bialgebra._pair_violations(2, ("z", zero, None), ("s", skipped, le)) == []
        assert "decoded" not in zero.__dict__ and "decoded" not in skipped.__dict__
        assert bialgebra._pair_violations(2, ("s", skipped, None)) == [
            Violation("s", (1, 0, 1, 0), Q(5, 2)), Violation("s", (1, 0, 1, 1), Q(-1, 2))]


class TestBlockMatrices:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_canonical_r_and_skew_pairing(self, n):
        zero, one = scalar_plain(n, 0), scalar_plain(n, 1)
        assert canonical_r(n) == block_plain(zero, one, zero, zero)
        assert canonical_skew_pairing(n).m == block_plain(zero, scalar_plain(n, -1), one, zero)

    def test_slsba_double_reflection(self, monkeypatch):
        seen = []
        real = bialgebra.check_parakahler
        monkeypatch.setattr(bialgebra, "check_parakahler", lambda pk: seen.append(pk) or real(pk))
        slsba_double((op_add(*catalog_get("plsa-2d-IV").payload), (mat_zero(2),) * 2))
        zero = scalar_plain(2, 0)
        assert seen[0].E.m == block_plain(scalar_plain(2, 1), zero, zero, scalar_plain(2, -1))

    @pytest.mark.parametrize("seed", range(6))
    def test_build_N(self, seed):
        r = rng(seed)
        n = 1 + seed % 3
        f = rand_invertible(r, n)
        finv = gauss_inverse(f)
        l1, l2, l3, l4 = (rand_q(r) for _ in range(4))
        got = build_N(l1, l2, l3, l4, Endo(n, f), finv)
        want = block_plain(scalar_plain(n, l2),
                           tuple(tuple(l1 * x for x in row) for row in finv),
                           tuple(tuple(l3 * x for x in row) for row in f), scalar_plain(n, l4))
        assert got == Endo(2 * n, want)
        assert all(type(x) is Fraction for row in got.m for x in row)
