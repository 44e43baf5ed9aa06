import collections
import copy
import dataclasses
import importlib.util
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie.checks import (
    CheckReport,
    Violation,
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    check_bimodule,
    check_closed,
    check_commutative,
    check_complex_product,
    check_flat,
    check_jacobi,
    check_left_symmetric,
    check_metric_compatible,
    check_nondegenerate,
    check_parallel_form,
    check_plsa,
    check_representation,
    check_skew,
    check_special_symplectic,
    check_torsion_free,
    eigenspace_violations,
    mat_violations,
    merge_reports,
    nijenhuis_torsion,
    prefixed,
    report,
    require,
    st,
    sub_adjacent,
    three_forms,
    torsion_violations,
    violations,
)
from symplie.linalg import Scaled, packed
from symplie.catalog import catalog_get

from oracles import (
    brute_closed,
    brute_jacobi,
    brute_left_symmetric,
    gauss_inverse,
    gauss_rank,
    left_mult_plain,
    mat_mul_plain,
    mat_vec_plain,
    product_vec,
    rand_mat,
    rand_tensor,
    rng,
    t3_is_zero,
    transport_product,
    rand_invertible,
    _basis,
    _fresh,
    _ident_plus,
)
from oracles import closed_violations, nijenhuis_plain, parallel_violations
from oracles import jacobi_violations, left_symmetric_violations, plsa_compat_violations
from oracles import bimodule_violations, coproducts_from_products, residual_plain
from oracles import flat_violations, rand_over, rand_share_tensor, representation_violations
from oracles import (
    commutative_violations,
    complex_product_violations,
    metric_compatible_violations,
    skew_violations,
    torsion_free_violations,
    torsion_plain_violations,
)
from symplie import bialgebra, checks, constructions, linalg
from symplie.bialgebra import (
    ParaKahlerData,
    check_parakahler,
    drinfeld_double,
    plsca_check,
    slsba_double,
    zero_coproducts,
)
from symplie.checks import check_hypersymplectic, op_add, op_sub
from symplie.constructions import (
    FamilyParams,
    SpecialSymplecticData,
    canonical_skew_pairing,
    cotangent_double,
    hypersymplectic_from_cotangent,
    hypersymplectic_from_tangent,
)
from symplie.linalg import DimensionMismatch
from test_linalg import all_fractions, dims, entries, entrywise, matrices, tensor_pairs, tensors

Q = Fraction
AREA = Form(2, ((Q(0), Q(1)), (Q(-1), Q(0))))
NONAB = st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)})  # [e1,e2] = e1


def test_st_builder():
    t = st(2, {(0, 1, 0): Q(3)})
    assert t.c[0][1][0] == 3
    assert t.c[1][0][0] == 0
    assert t3_is_zero(st(2).c)


class TestSkewNondegenerate:
    def test_area_passes(self):
        assert check_skew(AREA).verdict
        assert check_nondegenerate(AREA).verdict

    def test_one_sided_fails_skew(self):
        w = Form(2, ((Q(0), Q(1)), (Q(0), Q(0))))
        rep = check_skew(w)
        assert not rep.verdict
        assert rep.violations[0].indices == (0, 1)

    def test_zero_fails_nondegenerate(self):
        w = Form(2, ((Q(0),) * 2,) * 2)
        assert not check_nondegenerate(w).verdict


class TestJacobi:
    def test_matches_oracle_on_random_tensors(self):
        r = rng(101)
        for _ in range(30):
            c = rand_tensor(r, 3)
            assert check_jacobi(StructureTensor(3, c)).verdict == brute_jacobi(c)

    def test_known_bracket(self):
        assert check_jacobi(NONAB).verdict

    def test_heisenberg(self):
        h = st(3, {(0, 1, 2): Q(1), (1, 0, 2): Q(-1)})
        assert check_jacobi(h).verdict

    def test_exact_antisymmetry_residuals(self):
        # [e_0, e_1] + [e_1, e_0] = (1/2 - 1/3) e_0, a nonzero [e_1, e_1]
        # counts twice, and an int entry cancels its opposite Fraction
        c = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][0], c[1][0][0], c[1][1][1] = Q(1, 2), Q(-1, 3), Q(3, 4)
        c[1][2][2], c[2][1][2] = 5, Q(-5)
        c = tuple(tuple(map(tuple, plane)) for plane in c)
        got = check_jacobi(StructureTensor(3, c))
        assert got == _oracle_report("jacobi", jacobi_violations(c))
        assert [(v.where, v.indices, v.residual) for v in got.violations] == [
            ("antisymmetry", (0, 1), (Q(1, 6), Q(0), Q(0))),
            ("antisymmetry", (1, 1), (Q(0), Q(3, 2), Q(0)))]
        assert _residual_entries_are_fractions(got)


class TestLeftSymmetric:
    def test_matches_oracle_on_random_tensors(self):
        r = rng(102)
        for _ in range(30):
            c = rand_tensor(r, 2)
            assert (check_left_symmetric(StructureTensor(2, c)).verdict
                    == brute_left_symmetric(c))

    def test_transported_catalog_product_passes(self):
        prec, succ = catalog_get("plsa-2d-III").payload
        dot = st(2, {(i, j, k): prec.c[i][j][k] + succ.c[i][j][k]
                     for i in range(2) for j in range(2) for k in range(2)})
        r = rng(103)
        for _ in range(5):
            p = rand_invertible(r, 2)
            c = transport_product(dot.c, p)
            assert brute_left_symmetric(c)
            assert check_left_symmetric(StructureTensor(2, c)).verdict

    def test_exact_residual(self):
        c = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
        rep = check_left_symmetric(c)
        assert not rep.verdict
        lookup = {v.indices: v.residual for v in rep.violations}
        assert lookup[(0, 1, 0)] == (Q(-1), Q(0))


def test_commutative():
    assert check_commutative(st(2, {(0, 1, 0): Q(2), (1, 0, 0): Q(2)})).verdict
    assert not check_commutative(NONAB).verdict


def test_sub_adjacent_is_commutator():
    r = rng(104)
    c = rand_tensor(r, 3)
    br = sub_adjacent(StructureTensor(3, c))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert br.c[i][j][k] == c[i][j][k] - c[j][i][k]


def _negated_where(t, mask):
    """t with the entries at the True places of the flat mask negated."""
    flat = iter(mask)
    return tuple(tuple(tuple(-x if next(flat) else x for x in row) for row in plane)
                 for plane in t)


@hs.composite
def summand_pairs(draw):
    """(a, b), two n x n x n tensors, n in 1-5: b independent of a, or a
    with some entries negated (so those cancel in a + b), or all of a
    negated (so a + b is zero)."""
    n = draw(dims)
    a = draw(tensors((n, n, n)))
    how = draw(hs.sampled_from(("independent", "partly-cancelling", "cancelling")))
    if how == "independent":
        return a, draw(tensors((n, n, n)))
    if how == "cancelling":
        return a, _negated_where(a, [True] * n ** 3)
    return a, _negated_where(a, draw(hs.lists(hs.booleans(), min_size=n ** 3,
                                               max_size=n ** 3)))


def _values(nonzeros):
    """A (den, nz) list with each int numerator read as its Fraction."""
    den, nz = nonzeros
    return [[[(k, Q(x, den)) for k, x in row] for row in plane] for plane in nz]


def _dense(nonzeros):
    """The tensor of Fractions a (den, nz) list stands for, by a plain loop;
    a listed entry must be nonzero, and each row's k must increase."""
    den, nz = nonzeros
    n = len(nz)
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(nz):
        for j, row in enumerate(plane):
            assert [k for k, _ in row] == sorted({k for k, _ in row})
            for k, x in row:
                assert x != 0
                out[i][j][k] = Q(x, den)
    return tuple(tuple(map(tuple, plane)) for plane in out)


def _swapped(t):
    """t[j][i][k] at [i][j][k]."""
    return tuple(zip(*t))


class TestNonzerosSum:
    """check_plsa's sum product is the exact sum of the two cached nonzero
    lists: over the lcm of their denominators, entries that cancel dropped,
    and entry by entry the plain Fraction sum of the two tensors."""

    @settings(max_examples=60)
    @given(summand_pairs())
    def test_matches_dense_sum(self, ab):
        a, b = (StructureTensor(len(t), t) for t in ab)
        want = entrywise(add, *ab)
        den = math.lcm(a.nonzeros[0], b.nonzeros[0])
        for x, y in ((a, b), (b, a)):
            got = checks._nonzeros_sum(x.nonzeros, y.nonzeros)
            assert got[0] == den and _dense(got) == want

    def test_mixed_denominators_reduce_and_cancel(self):
        a = st(2, {(0, 0, 0): Q(1, 6), (0, 0, 1): Q(1, 2), (1, 1, 1): Q(3, 4)})
        b = st(2, {(0, 0, 0): Q(1, 3), (0, 0, 1): Q(-1, 2), (1, 0, 1): Q(-5)})
        assert a.nonzeros[0] == 12 and b.nonzeros[0] == 6
        got = checks._nonzeros_sum(a.nonzeros, b.nonzeros)
        # over lcm(12, 6): 1/6 + 1/3 = 6/12, left unreduced; 1/2 - 1/2 is dropped
        assert got == (12, [[[(0, 6)], []], [[(1, -60)], [(1, 9)]]])
        assert _dense(got) == entrywise(add, a.c, b.c)

    def test_all_zero_and_dimension_one(self):
        assert checks._nonzeros_sum(st(3).nonzeros, st(3).nonzeros) == (1, [[[]] * 3] * 3)
        one, minus = st(1, {(0, 0, 0): Q(2, 3)}), st(1, {(0, 0, 0): Q(-2, 3)})
        assert checks._nonzeros_sum(one.nonzeros, st(1).nonzeros) == (3, [[[(0, 2)]]])
        assert checks._nonzeros_sum(st(1).nonzeros, one.nonzeros) == (3, [[[(0, 2)]]])
        assert checks._nonzeros_sum(one.nonzeros, one.nonzeros) == (3, [[[(0, 4)]]])
        assert checks._nonzeros_sum(one.nonzeros, minus.nonzeros) == (3, [[[]]])

    @pytest.mark.parametrize("name", ("plsa-2d-IV", "perturbed"))
    def test_check_plsa_builds_no_dense_sum(self, monkeypatch, name, list_builds,
                                            refuse_dense_views):
        pair = catalog_get("plsa-2d-IV").payload if name == "plsa-2d-IV" else (
            st(2, {(0, 1, 0): Q(1, 2), (1, 1, 1): Q(-1, 3)}),
            st(2, {(0, 1, 0): Q(-1, 2), (1, 0, 1): Q(2)}))
        want = check_plsa(*map(_fresh, pair))
        prec, succ = map(_fresh, pair)
        before = copy.deepcopy((prec.nonzeros, succ.nonzeros))

        def refused(*_):
            raise AssertionError("check_plsa added the dense tensors")
        monkeypatch.setattr(checks, "op_add", refused)
        refuse_dense_views()
        list_builds.clear()
        assert check_plsa(prec, succ) == want
        # the one tensor built is the sum product, from the summed lists, and
        # its dense view is never built
        assert [t.nonzeros for t in list_builds] == [
            checks._nonzeros_sum(prec.nonzeros, succ.nonzeros)]
        # the cached lists the sum was read from are not changed by it
        assert (prec.nonzeros, succ.nonzeros) == before


class TestListedSums:
    """op_add, op_sub and sub_adjacent sum their operands' nonzero lists:
    entry by entry the plain Fraction sum or difference, every entry a
    Fraction, and the kept .nonzeros the values of the result's own list."""

    @settings(max_examples=60)
    @given(hs.one_of(summand_pairs(), tensor_pairs()))
    def test_match_plain_fraction_arithmetic(self, ab):
        a, b = ab
        A, B = StructureTensor(len(a), a), StructureTensor(len(b), b)
        for got, want in ((op_add(A, B), entrywise(add, a, b)),
                          (op_sub(A, B), entrywise(sub, a, b)),
                          (sub_adjacent(A), entrywise(sub, a, _swapped(a)))):
            assert got.c == want and all_fractions(got.c)
            kept = got.__dict__["nonzeros"]
            assert _dense(kept) == want
            assert _values(kept) == _values(checks._nonzeros(got.c))


class TestPlsa:
    def test_catalog_pairs_pass(self):
        for name in ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV"):
            prec, succ = catalog_get(name).payload
            assert check_plsa(prec, succ).verdict, name

    def test_perturbed_pair_fails(self):
        prec, succ = catalog_get("plsa-2d-III").payload
        bad = st(2, {(0, 0, 0): Q(1), (0, 1, 0): Q(-1), (1, 0, 0): Q(-1)})
        assert not check_plsa(bad, succ).verdict


class TestConnection:
    def test_catalog_connection_flat_torsion_free(self):
        e = catalog_get("ssla-2d-3").payload
        assert check_torsion_free(e.bracket, e.conn).verdict
        assert check_flat(e.bracket, e.conn).verdict

    def test_perturbed_connection_fails(self):
        e = catalog_get("ssla-2d-3").payload
        bad = st(2, {(1, 0, 0): Q(-2), (1, 1, 1): Q(1)})
        assert not check_torsion_free(e.bracket, bad).verdict

    def test_parallel_form_on_catalog(self):
        for name in ("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4"):
            e = catalog_get(name).payload
            assert check_parallel_form(e.conn, e.omega).verdict, name


class TestClosed:
    def test_matches_oracle(self):
        r = rng(105)
        for _ in range(25):
            c = rand_tensor(r, 3)
            w = rand_mat(r, 3)
            got = check_closed(StructureTensor(3, c), Form(3, w)).verdict
            assert got == brute_closed(c, w)

    def test_area_closed_for_2d(self):
        assert check_closed(NONAB, AREA).verdict


def test_special_symplectic_fail_paths():
    e = catalog_get("ssla-2d-3").payload
    assert check_special_symplectic(e.bracket, e.conn, e.omega).verdict
    zero_w = Form(2, ((Q(0),) * 2,) * 2)
    rep = check_special_symplectic(e.bracket, e.conn, zero_w)
    assert not rep.verdict
    assert any("nondegenerate" in v.where for v in rep.violations)


class TestNijenhuis:
    def test_against_direct_formula(self):
        r = rng(106)
        for _ in range(15):
            c = rand_tensor(r, 3)
            nm = rand_mat(r, 3)
            br = StructureTensor(3, c)
            got = nijenhuis_torsion(br, Endo(3, nm))
            for i in range(3):
                for j in range(3):
                    x, y = _basis(3, i), _basis(3, j)
                    nx, ny = mat_vec_plain(nm, x), mat_vec_plain(nm, y)
                    t1 = product_vec(c, nx, ny)
                    t2 = mat_vec_plain(nm, product_vec(c, nx, y))
                    t3_ = mat_vec_plain(nm, product_vec(c, x, ny))
                    t4 = mat_vec_plain(nm, mat_vec_plain(nm, product_vec(c, x, y)))
                    exp = tuple(a - b - d + e for a, b, d, e
                                in zip(t1, t2, t3_, t4))
                    assert tuple(got.c[i][j]) == exp

    def test_two_dimensional_structures_are_torsion_free(self):
        J = Endo(2, ((Q(0), Q(-1)), (Q(1), Q(0))))
        E = Endo(2, ((Q(1), Q(0)), (Q(0), Q(-1))))
        for nm in (J, E):
            assert t3_is_zero(nijenhuis_torsion(NONAB, nm).c)


class TestComplexProduct:
    def test_standard_pair_on_abelian(self):
        ab = st(2)
        J = Endo(2, ((Q(0), Q(-1)), (Q(1), Q(0))))
        E = Endo(2, ((Q(1), Q(0)), (Q(0), Q(-1))))
        assert check_complex_product(ab, J, E).verdict

    def test_commuting_pair_fails(self):
        ab = st(2)
        J = Endo(2, ((Q(0), Q(-1)), (Q(1), Q(0))))
        assert not check_complex_product(ab, J, Endo(2, ((Q(1), Q(0)), (Q(0), Q(1))))).verdict

    def test_degenerate_metric_rejected(self):
        # compatibility includes nondegeneracy, and in two dimensions no
        # nondegenerate metric can anti-commute with a product structure
        J = Endo(2, ((Q(0), Q(-1)), (Q(1), Q(0))))
        E = Endo(2, ((Q(1), Q(0)), (Q(0), Q(-1))))
        g = Form(2, ((Q(0),) * 2,) * 2)
        rep = check_metric_compatible(g, J, E)
        assert not rep.verdict
        assert all("rank" in v.where or "nondegenerate" in v.where
                   for v in rep.violations)


class TestRepresentation:
    def test_adjoint_is_representation(self):
        ad = RepTensor(2, 2, tuple(left_mult_plain(NONAB.c, i) for i in range(2)))
        assert check_representation(NONAB, ad).verdict

    def test_bogus_rep_fails(self):
        rho = RepTensor(2, 2, (((Q(1), Q(0)), (Q(0), Q(0))),
                               ((Q(0), Q(1)), (Q(1), Q(0)))))
        assert not check_representation(NONAB, rho).verdict


class TestBimodule:
    def test_regular_bimodule(self):
        prec, succ = catalog_get("plsa-2d-IV").payload
        dot = st(2, {(i, j, k): prec.c[i][j][k] + succ.c[i][j][k]
                     for i in range(2) for j in range(2) for k in range(2)})
        L = RepTensor(2, 2, tuple(left_mult_plain(dot.c, i) for i in range(2)))
        # R.t[i] sends x to x o e_i: entry (k, j) = c[j][i][k]
        R = RepTensor(2, 2, tuple(
            tuple(tuple(dot.c[j][i][k] for j in range(2)) for k in range(2))
            for i in range(2)))
        assert check_bimodule(dot, L, R).verdict

    def test_broken_bimodule_fails(self):
        idem = st(1, {(0, 0, 0): Q(1)})
        l = RepTensor(1, 1, (((Q(1),),),))
        r = RepTensor(1, 1, (((Q(2),),),))
        assert not check_bimodule(idem, l, r).verdict


def test_merge_reports_prefixing():
    inner = report("inner", [])
    failing = report("flat", [Violation("curvature", (0, 1), (Q(1),))])
    merged = merge_reports("outer", [inner, failing], notes=("top",))
    assert not merged.verdict
    assert merged.violations[0].where == "flat: curvature"
    assert "top" in merged.notes


# --- the verifiers on the scaled kernel against their basis-tuple oracles:
# random brackets are not antisymmetric and random forms not skew ---

dims6 = hs.integers(1, 6)


def _oracle_report(check, violations):
    return CheckReport(check, not violations, tuple(Violation(*v) for v in violations))


class TestKernelVerifiersMatchOracles:
    @settings(max_examples=30)
    @given(hs.data())
    def test_closed(self, data):
        n = data.draw(dims6)
        c, w = data.draw(tensors((n, n, n))), data.draw(matrices(n, n))
        got = check_closed(StructureTensor(n, c), Form(n, w))
        assert got == _oracle_report("closed", closed_violations(c, w))
        assert all(type(v.residual) is Fraction for v in got.violations)

    @settings(max_examples=30)
    @given(hs.data())
    def test_parallel_form(self, data):
        n = data.draw(dims6)
        c, w = data.draw(tensors((n, n, n))), data.draw(matrices(n, n))
        got = check_parallel_form(StructureTensor(n, c), Form(n, w))
        assert got == _oracle_report("parallel-form", parallel_violations(c, w))
        assert all(type(v.residual) is Fraction for v in got.violations)

    @settings(max_examples=30)
    @given(hs.data())
    def test_nijenhuis(self, data):
        n = data.draw(dims6)
        c, m = data.draw(tensors((n, n, n))), data.draw(matrices(n, n))
        got = nijenhuis_torsion(StructureTensor(n, c), Endo(n, m))
        assert got == StructureTensor(n, nijenhuis_plain(c, m))
        assert all_fractions(got.c)

    @settings(max_examples=30)
    @given(hs.data())
    def test_torsion_violations(self, data):
        # a random bracket is not antisymmetric, so T(e_j, e_i) is not
        # -T(e_i, e_j) and the rows i < j cannot be read off the others
        n = data.draw(dims6)
        c, m = data.draw(tensors((n, n, n))), data.draw(matrices(n, n))
        _assert_torsion_matches_oracle(c, m)


def _assert_torsion_matches_oracle(c, m):
    n = len(c)
    got = torsion_violations("t", StructureTensor(n, c), Endo(n, m))
    assert got == [Violation(*v) for v in torsion_plain_violations("t", c, m)]
    assert all(type(x) is Fraction for v in got for x in v.residual)
    return got


def _dense_input(n):
    """A bracket tensor and a matrix with no zero entry, neither skew."""
    c = tuple(tuple(tuple(Q(1 + i + 2 * j + 3 * k, 1 + (i + j + k) % 3) for k in range(n))
                    for j in range(n)) for i in range(n))
    m = tuple(tuple(Q(2 * a - b + 7, 1 + a) for b in range(n)) for a in range(n))
    return c, m


class TestTorsionViolationsEdgeCases:
    def test_dimension_one_has_no_pairs(self):
        assert _assert_torsion_matches_oracle((((Q(2),),),), ((Q(3),),)) == []

    def test_zero_endomorphism(self):
        c, _ = _dense_input(4)
        assert _assert_torsion_matches_oracle(c, tuple((Q(0),) * 4 for _ in range(4))) == []

    def test_fully_dense_input_fails_on_every_pair(self):
        c, m = _dense_input(4)
        got = _assert_torsion_matches_oracle(c, m)
        assert [v.indices for v in got] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert all(all(v.residual) for v in got)


# --- the sparse structure-constant verifiers against their full-product
# oracles, and their verdicts under a change of basis ---

def _residual_entries_are_fractions(rep):
    """Every residual is a Fraction or a tuple of Fractions."""
    return all(type(x) is Fraction
               for v in rep.violations
               for x in (v.residual if isinstance(v.residual, tuple) else (v.residual,)))


def _plsa_oracle_report(prec_c, succ_c, lsym=left_symmetric_violations,
                        compat_violations=plsa_compat_violations):
    """check_plsa's report from the oracles: the dense loops, or others of
    the same signatures (the sparse loops at larger dims)."""
    n = len(prec_c)
    total_c = tuple(tuple(tuple(p + q for p, q in zip(prec_c[i][j], succ_c[i][j]))
                          for j in range(n)) for i in range(n))
    comm = _oracle_report("commutative", commutative_violations(prec_c))
    lsymm = _oracle_report("left-symmetric", lsym(succ_c))
    compat = [Violation(*v) for v in compat_violations(prec_c, succ_c)]
    sum_ok = not lsym(total_c)
    word = {True: "pass", False: "fail"}
    if sum_ok == lsymm.verdict:
        notes = ["sum-product left-symmetry agrees with succ left-symmetry (%s)"
                 % word[sum_ok]]
    else:
        # given commutativity and compatibility the two verdicts agree
        assert not (comm.verdict and not compat)
        notes = ["ALERT: sum-product left-symmetry (%s) disagrees with succ "
                 "left-symmetry (%s)" % (word[sum_ok], word[lsymm.verdict])]
    return merge_reports("plsa", [comm, lsymm], compat, notes)


def _transported(op, p):
    return StructureTensor(op.n, transport_product(op.c, p))


def _bumped(op, skew=False):
    """op with 1 added to its e_0 o e_1 -> e_0 constant and, with skew, 1
    taken from its e_1 o e_0 -> e_0 constant, so that a skew bracket stays
    skew."""
    n = op.n
    bump = {(0, 1, 0): 1, (1, 0, 0): -1 if skew else 0}
    return StructureTensor(n, tuple(tuple(tuple(
        x + bump.get((i, j, k), 0) for k, x in enumerate(row))
        for j, row in enumerate(plane)) for i, plane in enumerate(op.c)))


class TestSparseVerifiersMatchOracles:
    @settings(max_examples=30)
    @given(hs.data())
    def test_left_symmetric(self, data):
        n = data.draw(dims)
        c = data.draw(tensors((n, n, n)))
        got = check_left_symmetric(StructureTensor(n, c))
        assert got == _oracle_report("left-symmetric", left_symmetric_violations(c))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_jacobi(self, data):
        n = data.draw(dims)
        c = data.draw(tensors((n, n, n)))
        got = check_jacobi(StructureTensor(n, c))
        assert got == _oracle_report("jacobi", jacobi_violations(c))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_plsa(self, data):
        n = data.draw(dims)
        prec_c, succ_c = data.draw(tensors((n, n, n))), data.draw(tensors((n, n, n)))
        got = check_plsa(StructureTensor(n, prec_c), StructureTensor(n, succ_c))
        assert got == _plsa_oracle_report(prec_c, succ_c)
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.sampled_from(range(1, 5)), hs.integers(0, 10 ** 6), hs.booleans())
    def test_verdicts_survive_basis_change(self, index, seed, bump):
        """Passing inputs (a 2-dim product pair, the 4-dim cotangent double's
        bracket, connection and omega_p) and the same with one constant
        bumped keep their verdicts when carried to a random basis: products
        as P^-1(Px o Py), forms as P^T w P, endomorphisms as P^-1 N P.  The
        Nijenhuis torsion of the block reflection (zero on the double) and
        of a random endomorphism stays zero or nonzero.  check_closed,
        check_flat and check_torsion_free read a skew bracket on i < j
        only, so they get a bracket bumped skew."""
        prec, succ = catalog_get("plsa-2d-%s" % ("I", "II", "III", "IV")[index - 1]).payload
        double = cotangent_double(catalog_get("ssla-2d-%d" % index).payload)
        br, conn, w = double.bracket, double.conn, double.omega_p
        p2, p4 = rand_invertible(rng(seed), 2), rand_invertible(rng(seed), 4)
        if bump:
            assert not check_jacobi(_bumped(br)).verdict
            assert not check_jacobi(_transported(_bumped(br), p4)).verdict
            prec, br, conn = _bumped(prec), _bumped(br, skew=True), _bumped(conn)
        assert (check_plsa(prec, succ).verdict
                == check_plsa(_transported(prec, p2), _transported(succ, p2)).verdict)
        brt, connt = _transported(br, p4), _transported(conn, p4)
        wt = Form(4, mat_mul_plain(tuple(zip(*p4)), mat_mul_plain(w.m, p4)))
        assert check_jacobi(br).verdict == check_jacobi(brt).verdict
        assert check_left_symmetric(conn).verdict == check_left_symmetric(connt).verdict
        assert check_closed(br, w).verdict == check_closed(brt, wt).verdict
        assert check_parallel_form(conn, w).verdict == check_parallel_form(connt, wt).verdict
        assert check_flat(br, conn).verdict == check_flat(brt, connt).verdict
        assert check_torsion_free(br, conn).verdict == check_torsion_free(brt, connt).verdict
        reflection = tuple(tuple(Q((a == b) * (1 if a < 2 else -1)) for b in range(4))
                           for a in range(4))
        for m in (reflection, rand_mat(rng(seed + 1), 4)):
            mt = mat_mul_plain(gauss_inverse(p4), mat_mul_plain(m, p4))
            assert (t3_is_zero(nijenhuis_torsion(br, Endo(4, m)).c)
                    == t3_is_zero(nijenhuis_torsion(brt, Endo(4, mt)).c))


sides = hs.integers(1, 4)


class TestBimoduleMatchesOracle:
    @settings(max_examples=30)
    @given(hs.data())
    def test_bimodule(self, data):
        """Whole reports against the dense oracle, with the module dimension
        m independent of the algebra dimension n."""
        n, m = data.draw(sides), data.draw(sides)
        c = data.draw(tensors((n, n, n)))
        l, r = data.draw(tensors((n, m, m))), data.draw(tensors((n, m, m)))
        got = check_bimodule(StructureTensor(n, c), RepTensor(n, m, l), RepTensor(n, m, r))
        assert got == _oracle_report("bimodule", bimodule_violations(c, l, r))
        assert all(type(v.residual) is Fraction for v in got.violations)

    def test_misshapen_actions_raise(self):
        one = ((Q(1),),)
        two = ((Q(1), Q(0)), (Q(0), Q(1)))
        good = RepTensor(2, 2, (two, two))
        for bad in (RepTensor(2, 2, (one, one)),        # 1 x 1 matrices
                    RepTensor(2, 2, (two,)),            # one matrix for two basis vectors
                    RepTensor(2, 2, (two, ((Q(1), Q(0)),)))):  # a 1 x 2 matrix
            for l, r in ((bad, good), (good, bad)):
                with pytest.raises(DimensionMismatch):
                    check_bimodule(NONAB, l, r)


# --- checks._scatter, the declared-term evaluator of the cross-check
# routes, against a plain Fraction loop ---

@hs.composite
def sparse_terms(draw):
    """(n, terms): up to four (outer, rows, sign) terms of (index, value)
    lists with Fraction and int values, some of them empty."""
    n, m = draw(hs.integers(1, 4)), draw(hs.integers(1, 4))
    value = entries.filter(bool) | hs.integers(-9, 9).filter(bool)

    def sparse(size):
        return hs.lists(hs.tuples(hs.integers(0, size - 1), value), max_size=4)

    terms = draw(hs.lists(hs.tuples(sparse(m), hs.lists(sparse(n), min_size=m, max_size=m),
                                    hs.sampled_from((1, -1))), max_size=4))
    return n, terms


class _Operand(collections.namedtuple("_Operand", "nonzeros shape")):
    """A rank-3 operand of checks._scatter known by its (den, nz) list and
    its shape, with a __dict__ for the views _scatter keeps on it."""


def _listed(pairs_per_row, width):
    """An _Operand of shape (len(pairs_per_row), 1, width): row p holds the
    sum of the values of pairs_per_row[p] at their indices, over the lcm of
    its own denominators (_nonzeros)."""
    t = [[[Q(0)] * width] for _ in pairs_per_row]
    for p, pairs in enumerate(pairs_per_row):
        for k, q in pairs:
            t[p][0][k] += Q(q)
    return _Operand(checks._nonzeros(t), (len(t), 1, width))


def _identity(n, terms):
    """One identity on the single tuple (0, 0, 0) whose terms are the drawn
    (outer, rows, sign) terms: sign * sum_s X[0][0][s] Y[s][0][t], with X
    listing outer and Y the rows, each tensor over a denominator of its own,
    as two tensors' _nonzeros lists are."""
    m = max((len(rows) for _, rows, _ in terms), default=1)
    return [("r", "", [(sign, _listed([outer], m), "ijs", _listed(rows, n), "skt")
                       for outer, rows, sign in terms])]


def _sparse_residual(n, terms):
    """The residual _scatter gives the identity of terms at (0, 0, 0): a
    tuple of n Fractions, or () when it is zero."""
    got = checks._sparse_violations("ijk", dict(i=1, j=1, k=1, t=n), _identity(n, terms))
    assert [v.indices for v in got] in ([], [(0, 0, 0)])
    return got[0].residual if got else ()


def _scatter_den(n, terms):
    """The common denominator _scatter brings the terms' products over."""
    return checks._scatter("ijk", dict(i=1, j=1, k=1, t=n), _identity(n, terms))[1][0]


ONE = [[(0, Q(1))]]  # rows for one outer index, e_0 with coefficient 1


class TestSparseResidual:
    @settings(max_examples=50)
    @given(sparse_terms())
    def test_matches_plain_loop(self, drawn):
        n, terms = drawn
        got, want = _sparse_residual(n, terms), residual_plain(n, terms)
        if any(want):
            assert got == want and all(type(x) is Fraction for x in got)
        else:
            assert got == ()

    def test_buckets_cancel_across_denominators(self):
        # 1/2 + 1/3 - 5/6 on e_0: three products, three denominators, one sum
        # over their lcm
        assert _scatter_den(2, [([(0, Q(1, 2))], ONE, 1), ([(0, Q(1, 3))], ONE, 1)]) == 6
        terms = [([(0, Q(1, 2))], ONE, 1), ([(0, Q(1, 3))], ONE, 1),
                 ([(0, Q(5, 6))], ONE, -1)]
        assert residual_plain(2, terms) == (0, 0)
        assert _sparse_residual(2, terms) == ()
        # the same sum of numerators over 6, 3 + 2 - 5 on e_0, is skipped
        assert violations("c", [(0,)], lambda i: (3 + 2 - 5, 0), 6) == []

    def test_int_entries_and_negative_numerators(self):
        nz = checks._nonzeros((((0, 2, Q(-3, 4)), (0, 0, 0)),))
        assert nz == (4, [[[(1, 8), (2, -3)], []]])
        terms = [([(0, 2)], [[(1, -3)]], -1), ([(0, Q(-1, 2))], [[(1, Q(1, 3)), (2, 1)]], 1)]
        got = _sparse_residual(3, terms)
        assert got == (Q(0), Q(35, 6), Q(-1, 2))
        assert all(type(x) is Fraction for x in got)

    def test_empty_term_lists(self):
        assert _sparse_residual(3, []) == ()
        assert _sparse_residual(2, [([], [[]], 1)]) == ()
        assert _sparse_residual(2, [([(0, 1)], [[]], -1)]) == ()
        assert checks._nonzeros(()) == (1, [])
        assert checks._scatter("ijk", dict.fromkeys("ijkt", 2), [("r", "", ())]) == ([], [1])

    def test_nonzero_residual_is_all_fractions(self):
        terms = [([(0, Q(1, 2))], [[(1, Q(-1, 3))]], 1)]
        got = _sparse_residual(3, terms)
        assert got == (Q(0), Q(-1, 6), Q(0))
        assert [type(x) for x in got] == [Fraction] * 3
        # the zero entries share one Fraction(0)
        assert got[0] is got[2] is _sparse_residual(2, [([(0, 1)], [[(1, 1)]], 1)])[0]

    def test_terms_over_different_denominators(self):
        # e_0 prec-like over 2, succ-like over 3, an action over 5: the
        # products are over 6, 10 and 15, the sum over 30
        terms = [([(0, Q(1, 2))], [[(0, Q(1, 3)), (1, Q(2, 3))]], 1),
                 ([(0, Q(3, 2))], [[(0, Q(1, 5))]], -1),
                 ([(0, Q(-1, 3))], [[(1, Q(4, 5))]], 1)]
        assert _scatter_den(2, terms) == 30
        got = _sparse_residual(2, terms)
        assert got == residual_plain(2, terms) == (Q(1, 6) - Q(3, 10), Q(1, 3) - Q(4, 15))

    def test_bimodule_zero_first_row_then_nonzero_row(self):
        # bimodule-2 at (0,0) is r(e_1)^2 on a zero product and a zero l:
        # its first row is zero, its second (1, 1)
        zero = RepTensor(1, 2, (((Q(0), Q(0)), (Q(0), Q(0))),))
        r = RepTensor(1, 2, (((Q(0), Q(0)), (Q(1), Q(1))),))
        got = check_bimodule(st(1), zero, r)
        assert got.violations == (Violation("bimodule-2 at (0,0)", (1, 0), Q(1)),
                                  Violation("bimodule-2 at (0,0)", (1, 1), Q(1)))
        assert got == _oracle_report("bimodule", bimodule_violations(st(1).c, zero.t, r.t))


class TestOneDenominatorPerTensor:
    """Fixed dense inputs whose tensors have different denominators, so that
    the terms of one identity carry different denominator products and each
    per-term factor of the sparse sums is other than 1."""

    def test_plsa(self):
        r = rng(111)
        prec_c, succ_c = rand_over(r, (3, 3, 3), 2), rand_over(r, (3, 3, 3), 3)
        got = check_plsa(StructureTensor(3, prec_c), StructureTensor(3, succ_c))
        assert not got.verdict and got == _plsa_oracle_report(prec_c, succ_c)

    def test_bimodule(self):
        r = rng(112)
        c = rand_over(r, (2, 2, 2), 2)
        l, rr = rand_over(r, (2, 3, 3), 3), rand_over(r, (2, 3, 3), 5)
        got = check_bimodule(StructureTensor(2, c), RepTensor(2, 3, l), RepTensor(2, 3, rr))
        want = bimodule_violations(c, l, rr)
        assert {w.split()[0] for w, _, _ in want} == {"bimodule-1", "bimodule-2"}
        assert got == _oracle_report("bimodule", want)

    def test_flat(self):
        r = rng(113)
        br, conn = rand_over(r, (3, 3, 3), 2), rand_over(r, (3, 3, 3), 3)
        got = check_flat(StructureTensor(3, br), StructureTensor(3, conn))
        assert not got.verdict and got == _oracle_report("flat", flat_violations(br, conn))

    def test_representation(self):
        r = rng(114)
        br, rho = rand_over(r, (3, 3, 3), 2), rand_over(r, (3, 2, 2), 5)
        got = check_representation(StructureTensor(3, br), RepTensor(3, 2, rho))
        want = representation_violations(br, rho)
        assert want and got == _oracle_report("representation", want)


class TestSparseRoutesAtDimSix:
    """One fixed input per route of the declared-term evaluator, of dimension
    6 (5 for the action identities), about half of its entries zero: many
    tuples violate and many rows are empty.  The whole report equals the
    oracle's, in the oracle's order."""

    def test_left_symmetric(self):
        c = rand_share_tensor(rng(201), 6, 0.5)
        want = left_symmetric_violations(c)
        assert len(want) > 40
        assert check_left_symmetric(StructureTensor(6, c)) == _oracle_report(
            "left-symmetric", want)

    def test_jacobi(self):
        c = rand_share_tensor(rng(202), 6, 0.5)
        want = jacobi_violations(c)
        assert sum(w == "jacobi" for w, _, _ in want) > 10
        assert check_jacobi(StructureTensor(6, c)) == _oracle_report("jacobi", want)

    def test_plsa(self):
        r = rng(203)
        prec_c, succ_c = rand_share_tensor(r, 6, 0.5), rand_share_tensor(r, 6, 0.5)
        got = check_plsa(StructureTensor(6, prec_c), StructureTensor(6, succ_c))
        assert len(got.violations) > 100
        assert got == _plsa_oracle_report(prec_c, succ_c)

    def test_flat(self):
        r = rng(204)
        br, conn = rand_share_tensor(r, 6, 0.5), rand_share_tensor(r, 6, 0.5)
        want = flat_violations(br, conn)
        assert len(want) > 40
        assert check_flat(StructureTensor(6, br), StructureTensor(6, conn)) == _oracle_report(
            "flat", want)

    def test_representation(self):
        r = rng(205)
        br, rho = rand_share_tensor(r, 5, 0.5), rand_share_tensor(r, 5, 0.5)
        want = representation_violations(br, rho)
        assert len(want) > 20
        assert check_representation(StructureTensor(5, br), RepTensor(5, 5, rho)) == (
            _oracle_report("representation", want))

    def test_bimodule(self):
        r = rng(206)
        c, l, rr = (rand_share_tensor(r, 5, 0.5) for _ in range(3))
        want = bimodule_violations(c, l, rr)
        assert len({w for w, _, _ in want}) > 20
        assert check_bimodule(StructureTensor(5, c), RepTensor(5, 5, l),
                              RepTensor(5, 5, rr)) == _oracle_report("bimodule", want)


# --- the entry-by-entry verifiers against their plain-loop oracles ---

def _endos(n):
    """Random matrices, and the identity and its negative."""
    one = tuple(tuple(Q(int(a == b)) for b in range(n)) for a in range(n))
    return hs.one_of(matrices(n, n), hs.just(one), hs.just(tuple(
        tuple(-x for x in row) for row in one)))


class TestEntrywiseVerifiersMatchOracles:
    @settings(max_examples=30)
    @given(hs.data())
    def test_skew(self, data):
        n = data.draw(dims6)
        w = data.draw(matrices(n, n))
        got = check_skew(Form(n, w))
        assert got == _oracle_report("skew", skew_violations(w))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_commutative(self, data):
        n = data.draw(dims)
        c = data.draw(tensors((n, n, n)))
        got = check_commutative(StructureTensor(n, c))
        assert got == _oracle_report("commutative", commutative_violations(c))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_torsion_free(self, data):
        n = data.draw(dims)
        br, conn = data.draw(tensors((n, n, n))), data.draw(tensors((n, n, n)))
        got = check_torsion_free(StructureTensor(n, br), StructureTensor(n, conn))
        assert got == _oracle_report("torsion-free", torsion_free_violations(br, conn))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_metric_compatible(self, data):
        n = data.draw(dims)
        g, J, E = (data.draw(_endos(n)) for _ in range(3))
        got = check_metric_compatible(Form(n, g), Endo(n, J), Endo(n, E))
        assert got == _oracle_report("metric-compatible",
                                     metric_compatible_violations(g, J, E))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_complex_product(self, data):
        n = data.draw(dims)
        c = data.draw(tensors((n, n, n)))
        J, E = data.draw(_endos(n)), data.draw(_endos(n))
        got = check_complex_product(StructureTensor(n, c), Endo(n, J), Endo(n, E))
        assert got == _oracle_report("complex-product", complex_product_violations(c, J, E))
        assert _residual_entries_are_fractions(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_three_forms(self, data):
        n = data.draw(dims)
        g, J, E = (data.draw(matrices(n, n)) for _ in range(3))
        got = three_forms(Form(n, g), Endo(n, J), Endo(n, E))
        mm = mat_mul_plain
        Jt, Et = tuple(zip(*J)), tuple(zip(*E))
        assert got == (Form(n, mm(Jt, g)), Form(n, mm(Et, g)),
                       Form(n, mm(tuple(zip(*mm(J, E))), g)))
        assert all_fractions([w.m for w in got])


class TestViolationCollector:
    def test_rank_two(self):
        m = Scaled([[0, 2], [-1, 0]], 1)
        assert mat_violations("m", m) == [Violation("m", (0, 1), Q(2)),
                                          Violation("m", (1, 0), Q(-1))]

    def test_nested_lists_and_tuples_in_row_major_order(self):
        t = packed([[[0, 1], [2, 0]], [[0, 0], [0, -3]]], 1)
        assert mat_violations("t", t) == [Violation("t", (0, 0, 1), Q(1)),
                                          Violation("t", (0, 1, 0), Q(2)),
                                          Violation("t", (1, 1, 1), Q(-3))]
        # the same tensor as its nonzero list (den, nz)
        listed = mat_violations("t", (2, [[[(1, 2)], [(0, 4)]], [[], [(1, -6)]]]))
        assert listed == mat_violations("t", t) and listed[2].numerators == (-6, 2)

    def test_all_zero(self):
        assert mat_violations("z", packed([[[0] * 2] * 2] * 3, 1)) == []

    def test_rank_four_list_of_tensors(self):
        # the shape of plsca_check's co-compatibility, one Packed tensor per
        # e_i, each collected at its own indices
        t = [[[[0, 1], [0, 0]], [[0, 0], [-2, 0]]],
             [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
             [[[0, 0], [0, 0]], [[0, 0], [0, 3]]]]
        got = [(i, v) for i, x in enumerate(t) for v in mat_violations("r", packed(x, 1))]
        assert got == [(0, Violation("r", (0, 0, 1), Q(1))),
                       (0, Violation("r", (1, 1, 0), Q(-2))),
                       (2, Violation("r", (1, 1, 1), Q(3)))]

    def test_scaled_with_all_zero_rows(self):
        s = packed([[[0, 0], [0, 3]], [[0, 0], [0, 0]], [[-4, 0], [0, 0]]], 6)
        got = mat_violations("s", s)
        assert got == [Violation("s", (0, 1, 1), Q(1, 2)),
                       Violation("s", (2, 0, 0), Q(-2, 3))]
        assert all(type(v.residual) is Fraction for v in got)
        assert mat_violations("s", Scaled([[0, 0], [0, 0]], 5)) == []

    def test_tuples_keep_the_given_order(self):
        got = violations("v", [(2, 0), (0, 1), (1, 1)], lambda i, j: i + j + 1, 1)
        assert [v.indices for v in got] == [(2, 0), (0, 1), (1, 1)]

    def test_zero_scalar_and_zero_tuple_skipped(self):
        # an int row may also be a list, as torsion_violations' rows are
        res = [0, (0, 0), (0,), [0, 0], 1, [0, 2]]
        got = violations("z", [(i,) for i in range(6)], lambda i: res[i], 2)
        assert got == [Violation("z", (4,), Q(1, 2)), Violation("z", (5,), (Q(0), Q(1)))]

    def test_partly_nonzero_tuple_kept_unchanged(self):
        r = (0, -3, 0)
        got = violations("p", [(0, 1)], lambda i, j: r, 1)
        assert got == [Violation("p", (0, 1), (Q(0), Q(-3), Q(0)))]
        assert got[0].numerators[0] is r

    def test_int_numerator_over_den(self):
        got = violations("d", [(0,), (1,), (2,)], lambda i: (0, 3, -4)[i], den=6)
        assert got == [Violation("d", (1,), Q(1, 2)), Violation("d", (2,), Q(-2, 3))]
        assert all(type(v.residual) is Fraction for v in got)

    def test_empty_tuple_set(self):
        assert violations("e", [], lambda *idx: 1, 1) == []

    def test_den_is_required(self):
        with pytest.raises(TypeError):
            violations("e", [(0,)], lambda i: 1)


class TestViolationViews:
    """A violation kept as numerators (Violation.of) builds its residual on
    first read, and is the violation built from that residual in every way
    the package and the benchmark look at it."""

    CASES = ((3, 6, Q(1, 2)), ([0, 3, -4], 6, (Q(0), Q(1, 2), Q(-2, 3))),
             ((5, 0), 1, (Q(5), Q(0))))

    @pytest.mark.parametrize("x, den, residual", CASES)
    def test_same_as_built_from_fractions(self, x, den, residual):
        workloads = _bench_workloads()
        built = Violation("w", (0, 1), residual)
        for read_first in (False, True):
            v = Violation.of("w", (0, 1), x, den)
            if read_first:
                v.residual
            else:
                assert "residual" not in vars(v)
            back = pickle.loads(pickle.dumps(v))
            for got in (v, back, copy.copy(v)):
                assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
                assert dataclasses.fields(got) == dataclasses.fields(built)
                assert workloads.canon(got) == workloads.canon(built)
            assert type(v.residual) is type(residual)
            if isinstance(residual, tuple):
                assert all(type(q) is Fraction for q in v.residual)
            with pytest.raises(dataclasses.FrozenInstanceError):
                v.residual = residual

    def test_prefixed_keeps_numerators(self):
        v = Violation.of("w", (1,), [0, -2], 4)
        got, = prefixed("sub", [v])
        assert "residual" not in vars(got) and "residual" not in vars(v)
        assert got == Violation("sub: w", (1,), (Q(0), Q(-1, 2)))
        read, = prefixed("sub", [Violation("", (), Q(1, 3))])
        assert read == Violation("sub", (), Q(1, 3)) and "numerators" not in vars(read)

    def test_collectors_keep_numerators(self):
        # kernel, sparse and entrywise collectors: no residual is read
        # until asked for
        reps = (check_jacobi(st(2, {(0, 1, 0): Q(1, 3), (1, 1, 1): Q(1)})),
                check_commutative(st(2, {(0, 1, 1): Q(2)})),
                check_left_symmetric(st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})))
        viol = [v for rep in reps for v in rep.violations]
        assert viol and not any("residual" in vars(v) for v in viol)
        assert all(type(q) is Fraction for v in viol for q in v.residual)

    @pytest.mark.parametrize("cls", (StructureTensor, RepTensor, Form, Endo, Violation))
    def test_views_are_required_fields(self, cls):
        # each view field has no default: __init__ must be given its value
        view = dataclasses.fields(cls)[-1]
        assert view.default is dataclasses.MISSING
        with pytest.raises(TypeError):
            cls(*range(len(dataclasses.fields(cls)) - 1))


class TestRequire:
    NOT_LSA = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})

    def test_raises_first_violation(self):
        rep = check_left_symmetric(self.NOT_LSA)
        with pytest.raises(KeyError, match=r"not left-symmetric at \(0, 1, 0\)"):
            require(rep, KeyError, "not %s at %s")

    def test_passing_report_is_returned(self):
        rep = check_left_symmetric(st(2))
        assert require(rep, KeyError, "not %s at %s") is rep

    def test_raises_under_optimize(self):
        # an explicit raise, so it does not vanish under python -O as an
        # assert would
        code = "\n".join([
            "import sys",
            "from fractions import Fraction as Q",
            "from symplie.bialgebra import slsba_check",
            "from symplie.checks import st",
            "from symplie.constructions import NotAnLSA",
            "if sys.flags.optimize != 1:",
            "    sys.exit(3)",
            "bad = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})",
            "try:",
            "    slsba_check(bad, ((), ()))",
            "except NotAnLSA as e:",
            "    print(e)",
            "    sys.exit(0)",
            "sys.exit(4)",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "base product is not left-symmetric at (0, 1, 0)\n"


def _fresh_hypersymplectic():
    s = catalog_get("ssla-2d-3").payload
    d, J, E, g = hypersymplectic_from_tangent(s, FamilyParams("F1", Q(2), Q(-1, 2)))
    return tuple(map(_fresh, (d.bracket, J, E, g)))


def _fresh_parakahler():
    lsa_d, _, _ = slsba_double((op_add(*catalog_get("plsa-2d-IV").payload),
                                tuple(((Q(0),) * 2,) * 2 for _ in range(2))))
    E = Endo(4, tuple(tuple(Q(0) if a != b else Q(1) if a < 2 else Q(-1) for b in range(4))
                      for a in range(4)))
    # sub_adjacent keeps its bracket on lsa_d (linalg._once), and slsba_double
    # has read that one already
    return ParaKahlerData(_fresh(sub_adjacent(lsa_d)), canonical_skew_pairing(2), E,
                          _fresh(lsa_d))


def _cached_forms(x):
    return (x.scaled,) if isinstance(x, StructureTensor) else (x.scaled, x.scaled_t)


class TestScaledFormsConvertedOnce:
    """Each data object is converted to the Scaled form once, on first use,
    however many kernel routes read it (a StructureTensor packs the rows of
    its nonzero list, linalg.packed_sparse; a Form or Endo built from its
    matrix takes linalg.scaled of it); a Form or Endo stored as its rows, and
    a bracket read only through its int planes, is never converted, and raw
    tuples of no data object (and no identity matrix) are converted only
    where a route needs them."""

    @pytest.fixture
    def converted(self, monkeypatch):
        seen = []
        real, real_sparse = linalg.scaled, linalg.packed_sparse

        def counted(t):
            seen.append(t)
            return real(t)

        def counted_sparse(den, rows, cols):
            seen.append(rows)
            return real_sparse(den, rows, cols)
        for mod in (linalg, checks, bialgebra):
            monkeypatch.setattr(mod, "scaled", counted)
        monkeypatch.setattr(checks, "packed_sparse", counted_sparse)
        return seen

    @staticmethod
    def _is_identity(t):
        # a matrix of Fraction entries, not a list of nonzero rows
        return not isinstance(t[0][0], (tuple, list)) and all(
            x == (1 if i == j else 0) for i, row in enumerate(t) for j, x in enumerate(row))

    def test_hypersymplectic(self, converted):
        br, J, E, g = _fresh_hypersymplectic()
        converted.clear()
        assert check_hypersymplectic(br, J, E, g).verdict
        # the three matrices, each once; the three forms are stored as the
        # rows of the contraction they are read off, and the bracket is read
        # through its int planes, never packed
        assert sorted(map(id, converted)) == sorted(map(id, (J.m, E.m, g.m)))
        assert "scaled" not in br.__dict__
        assert not any(map(self._is_identity, converted))

    def test_parakahler(self, converted):
        pk = _fresh_parakahler()
        converted.clear()
        assert check_parakahler(pk).verdict
        # the skew pairing is stored as its rows, and the bracket is read
        # through its int planes
        assert sorted(map(id, converted)) == sorted(map(id, (pk.E.m, pk.conn.nonzeros[1])))
        assert "scaled" not in pk.bracket.__dict__


class TestRanksFromCachedRows:
    """Rank, eigenspace dimensions and E = +-id are read off fresh copies of
    the cached int rows, which int_rank eliminates in place; the cached rows
    themselves never change."""

    def test_cached_rows_untouched(self):
        br, J, E, g = _fresh_hypersymplectic()
        before = copy.deepcopy([x.scaled.num for x in (g, J, E)])
        assert check_nondegenerate(g).verdict
        assert eigenspace_violations(E) == []
        assert check_complex_product(br, J, E).verdict
        assert [x.scaled.num for x in (g, J, E)] == before

    def test_rank_deficient_form(self):
        # row 2 = 1/2 row 0 - 3 row 1
        m = ((Q(1, 2), Q(2), Q(-1, 3)), (Q(0), Q(1, 5), Q(1)), (Q(1, 4), Q(2, 5), Q(-19, 6)))
        w = Form(3, m)
        before = copy.deepcopy(w.scaled.num)
        assert gauss_rank(m) == 2
        assert check_nondegenerate(w).violations == (Violation("rank", (), Q(1)),)
        assert w.scaled.num == before

    @pytest.mark.parametrize("diag", [(1, 1, -1), (1, -1, -1), (1, 1, 1), (-1, -1, -1)])
    def test_eigenspaces_and_scalar_e(self, diag):
        # E = P diag P^-1 squares to id, with eigenspaces of unequal dims
        P = ((Q(1), Q(2), Q(0)), (Q(0), Q(1, 3), Q(1)), (Q(1, 2), Q(0), Q(1)))
        D = tuple(tuple(Q(d if a == b else 0) for b in range(3)) for a, d in enumerate(diag))
        em = mat_mul_plain(mat_mul_plain(P, D), gauss_inverse(P))
        J = ((Q(0), Q(-1), Q(2)), (Q(1), Q(0), Q(0)), (Q(0), Q(1, 2), Q(0)))
        br, E = st(3, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)}), Endo(3, em)
        before = copy.deepcopy([E.scaled.num, E.scaled_t])
        dplus = 3 - gauss_rank(_ident_plus(em, -1))
        dminus = 3 - gauss_rank(_ident_plus(em, 1))
        assert (dplus, dminus) == (diag.count(1), diag.count(-1))
        assert eigenspace_violations(E) == [Violation("eigenspace-dims", (), Q(dplus - dminus))]
        got = check_complex_product(br, Endo(3, J), E)
        assert got == _oracle_report("complex-product",
                                     complex_product_violations(br.c, J, em))
        assert ("E-is-scalar" in [v.where for v in got.violations]) == (len(set(diag)) == 1)
        assert [E.scaled.num, E.scaled_t] == before


_R = ((Q(1), Q(2)), (Q(-1, 3), Q(5)))
_OP = {(0, 1, 0): Q(1, 2), (1, 0, 1): Q(-1), (1, 1, 1): Q(3)}
# (class, name, a fresh owner on which nothing has read it) for each
# attribute linalg._kept keeps that is no dataclass field
KEPT = [(linalg.Scaled, "terms", lambda: Scaled([[1, 0], [2, -3]], 1)),
        (linalg.Scaled, "gain", lambda: Scaled([[1, 0], [2, -3]], 1)),
        (linalg.Packed, "decoded", lambda: st(2, _OP).scaled),
        (StructureTensor, "scaled", lambda: st(2, _OP)),
        (StructureTensor, "planes", lambda: st(2, _OP)),
        (checks._ScaledMatrix, "scaled", lambda: Form(2, AREA.m)),
        (checks._ScaledMatrix, "scaled_t", lambda: Endo(2, AREA.m)),
        (bialgebra.CoproductPair, "scaled", lambda: zero_coproducts(2)),
        (bialgebra.CoproductPair, "dual", lambda: zero_coproducts(2)),
        *[(bialgebra.ROperators, name,
           lambda: bialgebra.R_operators(catalog_get("plsa-2d-IV").payload, _R))
          for name in ("first", "second", "third")]]


class TestScaledFormsInvisible:
    """The cached forms are not fields and never change under the routes that
    share them (Scaled operations never mutate their inputs)."""

    @pytest.mark.parametrize("cls, name, make", KEPT,
                             ids=["%s.%s" % (c.__name__, n) for c, n, _ in KEPT])
    def test_kept_once_under_its_name(self, monkeypatch, cls, name, make):
        kept = vars(cls)[name]
        with pytest.raises(AttributeError):
            getattr(cls, name)
        assert kept.__doc__ is kept.func.__doc__
        owner, runs = make(), []
        assert name not in vars(owner)
        monkeypatch.setattr(kept, "func", lambda obj, f=kept.func: runs.append(obj) or f(obj))
        value = getattr(owner, name)
        assert getattr(owner, name) is value and vars(owner)[name] is value
        assert len(runs) == 1 and runs[0] is owner

    def test_not_part_of_the_value(self):
        pk = _fresh_parakahler()
        for x in (*_fresh_hypersymplectic(), pk.omega, pk.E):
            names = [f.name for f in dataclasses.fields(x)]
            twin = _fresh(x)
            _cached_forms(x)
            assert [f.name for f in dataclasses.fields(x)] == names
            assert names == ["n", "c" if isinstance(x, StructureTensor) else "m"]
            assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
            # the canonical form the benchmark digests: fields by name, in order
            assert [[f.name, getattr(x, f.name)] for f in dataclasses.fields(x)] == \
                [[f.name, getattr(twin, f.name)] for f in dataclasses.fields(twin)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                x.scaled = None

    def test_never_mutated(self):
        br, J, E, g = _fresh_hypersymplectic()
        pk = _fresh_parakahler()
        plsa = catalog_get("plsa-2d-IV").payload
        objs = (br, J, E, g, pk.bracket, pk.omega, pk.E, pk.conn, *plsa)
        before = [copy.deepcopy(_cached_forms(x)) for x in objs]
        assert check_hypersymplectic(br, J, E, g).verdict
        assert check_parakahler(pk).verdict
        assert drinfeld_double(plsa, zero_coproducts(2))[3].verdict
        assert [_cached_forms(x) for x in objs] == before

    def test_memos_not_part_of_the_value(self):
        # a filled memo (linalg._once) and the cached Scaled and dual forms of
        # a coproduct pair are no fields: value, hash, repr and the canonical
        # form the benchmark digests are those of a fresh twin
        workloads = _bench_workloads()
        prec, succ = map(_fresh, catalog_get("plsa-2d-IV").payload)
        s = catalog_get("ssla-2d-3").payload
        br, conn, w = map(_fresh, (s.bracket, s.conn, s.omega))
        br4, J, E, g = _fresh_hypersymplectic()
        cp = bialgebra.coboundary_coproducts((prec, succ), ((Q(1), Q(2)), (Q(-1, 3), Q(5))))
        objs = (prec, succ, br, conn, w, br4, J, E, g, cp)
        twins = [_fresh(x) for x in objs]
        assert check_plsa(prec, succ).verdict
        assert check_special_symplectic(br, conn, w).verdict
        assert check_hypersymplectic(br4, J, E, g).verdict
        bialgebra.plsca_check(cp)
        assert all("_once" in vars(x) for x in (prec, br, J, E))
        assert {"scaled", "dual"} <= set(vars(cp))
        for x, twin in zip(objs, twins):
            assert [f.name for f in dataclasses.fields(x)] == \
                [f.name for f in dataclasses.fields(twin)]
            assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
            assert workloads.canon(x) == workloads.canon(twin)


def _bench_workloads():
    """bench/workloads.py, loaded from its file (it is not a package)."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOnce:
    """A frozen input is verified once per object (linalg._once): a repeated
    call with the same objects returns the kept report without running the
    core again, while an equal but distinct object is evaluated afresh, and
    so is an owner whose kept partner is not the object given (a copy of the
    owner carries its entries, with copies of their partners, under the
    partners' old ids).  An exception is never kept."""

    @pytest.fixture
    def cores(self, monkeypatch):
        runs = collections.Counter()
        for mod, name in ((checks, "_plsa"), (checks, "_special_symplectic"),
                          (checks, "_left_symmetric"), (bialgebra, "_coproduct_operators"),
                          (checks, "_nondegenerate")):
            def counted(*args, _real=getattr(mod, name), _name=name):
                runs[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mod, name, counted)
        return runs

    def test_check_plsa(self, cores):
        prec, succ = map(_fresh, catalog_get("plsa-2d-II").payload)
        first = check_plsa(prec, succ)
        assert first.verdict
        assert check_plsa(prec, succ) is first
        assert cores["_plsa"] == 1
        assert check_plsa(_fresh(prec), succ) == first
        assert check_plsa(prec, _fresh(succ)) == first
        assert cores["_plsa"] == 3

    def test_partner_decides(self, cores):
        # one owner, two partners: each pair keeps its own report
        prec, succ = map(_fresh, catalog_get("plsa-2d-III").payload)
        bad = st(2, {(0, 0, 0): Q(1), (0, 1, 0): Q(-1), (1, 0, 0): Q(-1)})
        good, failing = check_plsa(prec, succ), check_plsa(prec, bad)
        assert good.verdict and not failing.verdict
        assert check_plsa(prec, succ) is good and check_plsa(prec, bad) is failing
        assert cores["_plsa"] == 2

    def test_kept_partner_must_be_the_object_given(self, cores):
        prec, succ = map(_fresh, catalog_get("plsa-2d-II").payload)
        first = check_plsa(prec, succ)
        twin = copy.deepcopy(prec)
        assert check_plsa(twin, succ) == first
        assert cores["_plsa"] == 2

    def test_check_special_symplectic(self, cores):
        s = catalog_get("ssla-2d-3").payload
        br, conn, w = map(_fresh, (s.bracket, s.conn, s.omega))
        first = check_special_symplectic(br, conn, w)
        assert first.verdict
        assert check_special_symplectic(br, conn, w) is first
        assert cores["_special_symplectic"] == 1
        for args in ((_fresh(br), conn, w), (br, _fresh(conn), w), (br, conn, _fresh(w))):
            assert check_special_symplectic(*args) == first
        assert cores["_special_symplectic"] == 4

    def test_check_nondegenerate(self, cores):
        # a cotangent family job on a package whose checks are kept ranks
        # omega no more: phi_from_omega finds the kept report
        s = catalog_get("ssla-2d-3").payload
        s = SpecialSymplecticData(*map(_fresh, (s.bracket, s.conn, s.omega)))
        p = FamilyParams("F1", Q(2), Q(-1, 2))
        hypersymplectic_from_cotangent(s, p)
        assert cores["_nondegenerate"] == 1
        hypersymplectic_from_cotangent(s, p)
        assert cores["_nondegenerate"] == 1
        first = check_nondegenerate(s.omega)
        assert first.verdict and check_nondegenerate(s.omega) is first
        assert check_nondegenerate(_fresh(s.omega)) == first
        assert cores["_nondegenerate"] == 2

    def test_check_left_symmetric(self, cores):
        lsa = op_add(*catalog_get("plsa-2d-IV").payload)
        first = check_left_symmetric(lsa)
        assert first.verdict
        assert check_left_symmetric(lsa) is first
        assert cores["_left_symmetric"] == 1
        assert check_left_symmetric(_fresh(lsa)) == first
        assert cores["_left_symmetric"] == 2

    def test_plsca_check(self, cores):
        cp = coproducts_from_products(*map(_fresh, catalog_get("plsa-2d-III").payload))
        first = plsca_check(cp)
        assert first.verdict
        assert plsca_check(cp) is first
        assert cores["_coproduct_operators"] == 1
        assert plsca_check(_fresh(cp)) == first
        assert cores["_coproduct_operators"] == 2

    def test_failing_lsa_and_coproduct_reports_kept(self, cores):
        lsa = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
        failing = check_left_symmetric(lsa)
        assert not failing.verdict and check_left_symmetric(lsa) is failing
        assert cores["_left_symmetric"] == 1
        cp = coproducts_from_products(st(2, {(0, 1, 0): Q(1)}), st(2))
        bad = plsca_check(cp)
        assert not bad.verdict and plsca_check(cp) is bad
        assert cores["_coproduct_operators"] == 1

    def test_failing_report_kept_exception_not(self, cores):
        prec, succ, other = st(2, {(0, 1, 0): Q(1)}), st(2), st(3)
        failing = check_plsa(prec, succ)
        assert not failing.verdict and check_plsa(prec, succ) is failing
        for _ in range(2):
            with pytest.raises(DimensionMismatch):
                check_plsa(prec, other)
        assert cores["_plsa"] == 3

    def test_keyed_forms(self):
        # Scaled.columns per width, Packed.matrix per axes, the views of
        # checks per leg order and the permuted pair tensors per name and
        # axes: one object per key, built anew for another key
        m, op = Scaled([[1, 0], [2, -3]], 1), st(2, _OP)
        pair = bialgebra._ScaledPair(tuple(map(_fresh, catalog_get("plsa-2d-IV").payload)))
        for get, key, others in (
                (m.columns, 64, (128,)),
                (op.scaled.matrix, (0, 2, 1), ((0, 1, 2), (1, 0, 2))),
                (lambda perm: checks._view(op, perm), (1, 0, 2), ((0, 1, 2), (2, 0, 1))),
                (lambda k: pair.perm(*k), ("P", (0, 2, 1)), (("P", (1, 0, 2)),
                                                             ("S", (0, 2, 1))))):
            first = get(key)
            assert get(key) is first
            for other in others:
                again = get(other)
                assert again is not first and get(other) is again

    def test_slot_without_partners_never_meets_a_partnered_one(self):
        # a partnered slot holds the key and the partners' ids; a key
        # without partners that spells them has a slot of its own
        owner, partner = _fresh(NONAB), _fresh(NONAB)
        spelled = ("k", id(partner))
        assert linalg._once(owner, "k", (partner,), lambda: "partnered") == "partnered"
        assert linalg._once(owner, spelled, (), lambda: "alone") == "alone"
        assert linalg._once(owner, "k", (partner,), lambda: "again") == "partnered"
        assert linalg._once(owner, spelled, (), lambda: "again") == "alone"
        other = _fresh(NONAB)
        assert linalg._once(other, spelled, (), lambda: "alone") == "alone"
        assert linalg._once(other, "k", (partner,), lambda: "partnered") == "partnered"

    def test_violation_lists_are_fresh(self):
        br, J, E, g = _fresh_hypersymplectic()
        bent = Endo(J.n, tuple(tuple(x + 1 if i == j == 0 else x for j, x in enumerate(row))
                               for i, row in enumerate(J.m)))
        first = checks.square_violations("J^2+id", bent, -1)
        assert first
        first.clear()
        again = checks.square_violations("J^2+id", bent, -1)
        assert again and again is not first
        assert again == checks.square_violations("J^2+id", _fresh(bent), -1)
