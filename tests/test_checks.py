import os
import subprocess
import sys
from fractions import Fraction

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
    mat_violations,
    merge_reports,
    nijenhuis_torsion,
    pairs_then,
    report,
    require,
    st,
    sub_adjacent,
    three_forms,
    violations,
)
from symplie.linalg import frac, t3_is_zero
from symplie.catalog import catalog_get

from oracles import (
    brute_closed,
    brute_jacobi,
    brute_left_symmetric,
    gauss_inverse,
    left_mult_plain,
    mat_mul_plain,
    mat_vec_plain,
    product_vec,
    rand_mat,
    rand_tensor,
    rng,
    transport_product,
    rand_invertible,
    _basis,
)
from oracles import closed_violations, nijenhuis_plain, parallel_violations
from oracles import jacobi_violations, left_symmetric_violations, plsa_compat_violations
from oracles import bimodule_violations
from oracles import (
    commutative_violations,
    complex_product_violations,
    metric_compatible_violations,
    skew_violations,
    torsion_free_violations,
)
from symplie.constructions import cotangent_double
from symplie.linalg import DimensionMismatch
from test_linalg import all_fractions, dims, matrices, tensors

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


# --- the sparse structure-constant verifiers against their full-product
# oracles, and their verdicts under a change of basis ---

def _residual_entries_are_fractions(rep):
    """Every residual is a Fraction or a tuple of Fractions."""
    return all(type(x) is Fraction
               for v in rep.violations
               for x in (v.residual if isinstance(v.residual, tuple) else (v.residual,)))


def _plsa_oracle_report(prec_c, succ_c):
    n = len(prec_c)
    total_c = tuple(tuple(tuple(p + q for p, q in zip(prec_c[i][j], succ_c[i][j]))
                          for j in range(n)) for i in range(n))
    comm = _oracle_report("commutative", commutative_violations(prec_c))
    lsymm = _oracle_report("left-symmetric", left_symmetric_violations(succ_c))
    compat = [Violation(*v) for v in plsa_compat_violations(prec_c, succ_c)]
    sum_ok = not left_symmetric_violations(total_c)
    word = {True: "pass", False: "fail"}
    if sum_ok == lsymm.verdict:
        notes = ["sum-product left-symmetry agrees with succ left-symmetry (%s)"
                 % word[sum_ok]]
    else:
        notes = ["ALERT: sum-product left-symmetry (%s) disagrees with succ "
                 "left-symmetry (%s)" % (word[sum_ok], word[lsymm.verdict])]
        if comm.verdict and not compat:
            notes.append("ALERT: disagreement despite commutativity and compatibility "
                         "holding; this indicates a verifier bug")
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
    def test_rank_two_with_prefix(self):
        m = ((Q(0), Q(2)), (Q(-1), Q(0)))
        assert mat_violations("m", m, (5,)) == [Violation("m", (5, 0, 1), Q(2)),
                                                Violation("m", (5, 1, 0), Q(-1))]

    def test_nested_lists_and_tuples_in_row_major_order(self):
        t = [((Q(0), Q(1)), (Q(2), Q(0))), [[Q(0), Q(0)], (Q(0), Q(-3))]]
        assert mat_violations("t", t) == [Violation("t", (0, 0, 1), Q(1)),
                                          Violation("t", (0, 1, 0), Q(2)),
                                          Violation("t", (1, 1, 1), Q(-3))]

    def test_all_zero(self):
        assert mat_violations("z", [[[Q(0)] * 2] * 2] * 3) == []

    def test_tuples_keep_the_given_order(self):
        got = violations("v", [(2, 0), (0, 1), (1, 1)], lambda i, j: Q(i + j + 1))
        assert [v.indices for v in got] == [(2, 0), (0, 1), (1, 1)]

    def test_zero_scalar_and_zero_tuple_skipped(self):
        res = [Q(0), (Q(0), Q(0)), 0, Q(1, 2)]
        got = violations("z", [(i,) for i in range(4)], lambda i: res[i])
        assert got == [Violation("z", (3,), Q(1, 2))]

    def test_partly_nonzero_tuple_kept_unchanged(self):
        r = (Q(0), Q(-3), Q(0))
        got = violations("p", [(0, 1)], lambda i, j: r)
        assert got == [Violation("p", (0, 1), r)] and got[0].residual is r

    def test_int_numerator_over_den(self):
        got = violations("d", [(0,), (1,), (2,)], lambda i: (0, 3, -4)[i], den=6)
        assert got == [Violation("d", (1,), Q(1, 2)), Violation("d", (2,), Q(-2, 3))]
        assert all(type(v.residual) is Fraction for v in got)

    def test_empty_tuple_set(self):
        assert violations("e", [], lambda *idx: Q(1)) == []
        assert violations("e", pairs_then(1, 3), lambda *idx: Q(1)) == []

    def test_pairs_then_order(self):
        assert list(pairs_then(3, 2)) == [(0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1),
                                          (1, 2, 0), (1, 2, 1)]


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
