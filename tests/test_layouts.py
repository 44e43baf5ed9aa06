"""The layouts built in one place each: the stacked families of bialgebra
read by one collector (_pair_violations), the 2 x 2 block matrices of the
doubles and of the hypersymplectic families (linalg.scaled_blocks), and
the nonzero lists that StructureTensor and RepTensor are stored as, each
against a plain-loop oracle."""

import dataclasses
from fractions import Fraction
from operator import le, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie import bialgebra, constructions
from symplie.bialgebra import canonical_r, slsba_double
from symplie.catalog import catalog_get
from symplie.checks import (
    Endo,
    RepTensor,
    StructureTensor,
    Violation,
    nijenhuis_torsion,
    op_add,
    op_sub,
    rep_from_op_left,
    rep_neg,
    rep_zero,
    st,
    sub_adjacent,
)
from symplie.constructions import (
    build_N,
    canonical_skew_pairing,
    coadjoint,
    dual_left_action,
    dual_right_action,
)
from symplie.linalg import ZERO, mat_zero, packed, scaled_combine, scaled_inverse, unscaled
from symplie.matched import MatchedPairData, glue_product

from oracles import (
    block_plain,
    gauss_inverse,
    glue_plain,
    nijenhuis_plain,
    pair_violations_plain,
    rand_invertible,
    rand_q,
    rng,
    scalar_plain,
)
from test_linalg import all_fractions, entries, tensors

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
        fe = Endo(n, f)
        got = build_N(l1, l2, l3, l4, fe, scaled_inverse(fe.scaled))
        want = block_plain(scalar_plain(n, l2),
                           tuple(tuple(l1 * x for x in row) for row in finv),
                           tuple(tuple(l3 * x for x in row) for row in f), scalar_plain(n, l4))
        assert got == Endo(2 * n, want)
        assert all(type(x) is Fraction for row in got.m for x in row)


# --- the nonzero lists: each producer that builds a StructureTensor or
# RepTensor from a list, against a plain loop of its definition on dense
# tensors, dims 1-6 ---

dims6 = hs.integers(1, 6)


def _plain(shape, entry):
    """The dense tensor of the given shape whose entry (a, b, c) is
    entry(a, b, c), as nested tuples."""
    d0, d1, d2 = shape
    return tuple(tuple(tuple(entry(a, b, c) for c in range(d2)) for b in range(d1))
                 for a in range(d0))


def _view_ok(got, want):
    """got's dense view is want, of Fractions, with the one shared ZERO at
    every zero entry; and got equals, and hashes as, the tensor built from
    want's dense entries."""
    view = got.c if isinstance(got, StructureTensor) else got.t
    assert view == want and all_fractions(view)
    assert all(x is ZERO for plane in view for row in plane for x in row if not x)
    dense = type(got)(*[getattr(got, f.name) for f in dataclasses.fields(got)][:-1], want)
    assert got == dense and hash(got) == hash(dense)


def _cube(n):
    return tensors((n, n, n))


class TestListProducers:
    def test_fields_unchanged(self):
        # bench's canonical forms and digests read these fields by name
        assert [f.name for f in dataclasses.fields(StructureTensor)] == ["n", "c"]
        assert [f.name for f in dataclasses.fields(RepTensor)] == ["n", "m", "t"]

    @settings(max_examples=30)
    @given(dims6.flatmap(_cube))
    def test_dual_actions(self, c):
        n, op = len(c), StructureTensor(len(c), c)
        _view_ok(dual_left_action(op), _plain((n, n, n), lambda i, j, k: -c[i][j][k]))
        _view_ok(coadjoint(op), _plain((n, n, n), lambda i, j, k: -c[i][j][k]))
        _view_ok(dual_right_action(op), _plain((n, n, n), lambda i, a, b: -c[a][i][b]))
        _view_ok(rep_from_op_left(op), _plain((n, n, n), lambda i, k, j: c[i][j][k]))

    @settings(max_examples=30)
    @given(hs.tuples(dims6, dims6).flatmap(lambda nm: tensors((nm[0], nm[1], nm[1]))))
    def test_rep_neg_and_zero(self, t):
        n, m = len(t), len(t[0])
        _view_ok(rep_neg(RepTensor(n, m, t)), _plain((n, m, m), lambda i, a, b: -t[i][a][b]))
        _view_ok(rep_zero(n, m), _plain((n, m, m), lambda i, a, b: Fraction(0)))

    @settings(max_examples=30)
    @given(dims6.flatmap(lambda n: hs.tuples(_cube(n), _cube(n))))
    def test_sums(self, ab):
        a, b = ab
        n = len(a)
        A, B = StructureTensor(n, a), StructureTensor(n, b)
        _view_ok(op_add(A, B), _plain((n, n, n), lambda i, j, k: a[i][j][k] + b[i][j][k]))
        _view_ok(op_sub(A, B), _plain((n, n, n), lambda i, j, k: a[i][j][k] - b[i][j][k]))
        _view_ok(sub_adjacent(A), _plain((n, n, n), lambda i, j, k: a[i][j][k] - a[j][i][k]))

    @settings(max_examples=30)
    @given(hs.data())
    def test_glue_product(self, data):
        n, m = data.draw(hs.integers(1, 3)), data.draw(hs.integers(1, 3))
        c1, c2 = data.draw(_cube(n)), data.draw(_cube(m))
        l1, r1 = data.draw(tensors((n, m, m))), data.draw(tensors((n, m, m)))
        l2, r2 = data.draw(tensors((m, n, n))), data.draw(tensors((m, n, n)))
        got = glue_product(MatchedPairData(
            StructureTensor(n, c1), StructureTensor(m, c2), RepTensor(n, m, l1),
            RepTensor(n, m, r1), RepTensor(m, n, l2), RepTensor(m, n, r2)))
        _view_ok(got, glue_plain(c1, c2, l1, r1, l2, r2))

    @settings(max_examples=30)
    @given(dims6, hs.dictionaries(hs.tuples(hs.integers(0, 5), hs.integers(0, 5),
                                            hs.integers(0, 5)), entries, max_size=8))
    def test_st(self, n, given_entries):
        given_entries = {idx: q for idx, q in given_entries.items() if max(idx) < n}
        _view_ok(st(n, given_entries),
                 _plain((n, n, n), lambda i, j, k: given_entries.get((i, j, k), Fraction(0))))

    @settings(max_examples=30)
    @given(dims6, hs.data())
    def test_packed_to_tensor(self, n, data):
        # a Packed result read into a list, and a coproduct into its dual
        # product: entries past one 64-bit slot too
        num = data.draw(hs.lists(hs.lists(hs.lists(_entries, min_size=n, max_size=n),
                                          min_size=n, max_size=n), min_size=n, max_size=n))
        den = data.draw(hs.integers(1, 12))
        t = packed(num, den)
        _view_ok(constructions._unpacked(n, t),
                 _plain((n, n, n), lambda i, j, k: Fraction(num[i][j][k], den)))
        _view_ok(bialgebra._dual_product(n, t),
                 _plain((n, n, n), lambda p, q, k: Fraction(num[k][p][q], den)))

    @settings(max_examples=30)
    @given(dims6.flatmap(lambda n: hs.tuples(_cube(n), tensors((1, n, n)))))
    def test_nijenhuis_torsion(self, cm):
        c, (m,) = cm
        n = len(c)
        _view_ok(nijenhuis_torsion(StructureTensor(n, c), Endo(n, m)), nijenhuis_plain(c, m))

    @settings(max_examples=30)
    @given(dims6.flatmap(_cube))
    def test_scaled_packs_the_list(self, c):
        # .scaled is packed from the list of a dense-built and of a
        # list-built tensor alike
        n = len(c)
        for op in (StructureTensor(n, c), StructureTensor.listed(n, StructureTensor(n, c).nonzeros)):
            assert unscaled(op.scaled) == c
