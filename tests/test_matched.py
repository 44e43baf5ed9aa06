from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie.checks import (
    RepTensor,
    check_left_symmetric,
    check_plsa,
    check_special_symplectic,
    op_add,
    st,
    sub_adjacent,
)
from symplie.constructions import InvalidInput, dual_left_action
from symplie.linalg import DimensionMismatch
from symplie.matched import (
    MatchedPairData,
    NotMatched,
    bowtie_lsa,
    build_double_plsa,
    canonical_skew_pairing,
    check_matched_pair,
    double_extension,
    dual_actions,
    glue_product,
)
from symplie.catalog import catalog_get

from oracles import brute_left_symmetric
from oracles import bimodule_violations, mixed_compat_violations, rand_over, rng
from oracles import rand_share_tensor
from symplie import checks
from symplie.checks import CheckReport, StructureTensor, Violation
from test_linalg import tensors

Q = Fraction
PLSA_NAMES = ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV")
ZERO_PAIR = (st(2), st(2))


def plsa(name):
    return catalog_get(name).payload


def zero_rep(n, m):
    zero = tuple(tuple(tuple(Q(0) for _ in range(m)) for _ in range(m))
                 for _ in range(n))
    return RepTensor(n, m, zero)


def direct_sum_pair(c1, c2):
    mp = MatchedPairData(c1, c2, zero_rep(c1.n, c2.n), zero_rep(c1.n, c2.n),
                         zero_rep(c2.n, c1.n), zero_rep(c2.n, c1.n))
    return mp


class TestCheckMatchedPair:
    def test_zero_actions_always_match(self):
        nonab = st(2, {(0, 1, 0): Q(1)})
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            dot = op_add(prec, succ)
            rep = check_matched_pair(direct_sum_pair(dot, nonab))
            assert rep.verdict, (name, rep.violations[:2])

    def test_dual_actions_of_catalog_with_zero_match(self):
        for name in PLSA_NAMES:
            mp = dual_actions(plsa(name), ZERO_PAIR)
            rep = check_matched_pair(mp)
            assert rep.verdict, (name, rep.violations[:2])

    def test_incompatible_duals_fail_with_mixed_violations(self):
        mp = dual_actions(plsa("plsa-2d-II"), plsa("plsa-2d-III"))
        rep = check_matched_pair(mp)
        assert not rep.verdict
        wheres = {v.where for v in rep.violations}
        assert any(w.startswith("mixed-compat-") for w in wheres)

    def test_dimension_mismatch(self):
        mp = MatchedPairData(st(2), st(3), zero_rep(2, 2), zero_rep(2, 2),
                             zero_rep(3, 2), zero_rep(3, 2))
        with pytest.raises(DimensionMismatch):
            check_matched_pair(mp)

    def test_views_kept_on_the_tensors(self, monkeypatch):
        # the reordered lists of mp's tensors are kept on them: a second
        # check of the same objects permutes nothing again
        calls = []
        permuted = checks._permuted
        monkeypatch.setattr(checks, "_permuted", lambda *a: calls.append(a) or permuted(*a))
        mp = dual_actions(plsa("plsa-2d-II"), plsa("plsa-2d-III"))
        first = check_matched_pair(mp)
        assert calls
        calls.clear()
        assert check_matched_pair(mp) == first
        assert calls == []


class TestBowtie:
    def test_zero_actions_give_direct_sum(self):
        prec, succ = plsa("plsa-2d-IV")
        dot = op_add(prec, succ)
        other = st(2, {(0, 0, 0): Q(1)})
        glued = bowtie_lsa(direct_sum_pair(dot, other))
        assert glued.n == 4
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert glued.c[i][j][k] == dot.c[i][j][k]
                    assert glued.c[2 + i][2 + j][2 + k] == other.c[i][j][k]
                    assert glued.c[i][j][2 + k] == 0
                    assert glued.c[2 + i][j][k] == 0
                    assert glued.c[i][2 + j][k] == 0
        assert brute_left_symmetric(glued.c)

    def test_glued_dual_actions_are_left_symmetric(self):
        for name in PLSA_NAMES:
            mp = dual_actions(plsa(name), ZERO_PAIR)
            glued = bowtie_lsa(mp)
            assert brute_left_symmetric(glued.c), name
            assert check_left_symmetric(glued).verdict

    def test_not_matched_raises_with_report(self):
        mp = dual_actions(plsa("plsa-2d-II"), plsa("plsa-2d-III"))
        with pytest.raises(NotMatched) as exc:
            bowtie_lsa(mp)
        assert exc.value.report is not None
        assert not exc.value.report.verdict

    def test_glue_block_placement(self):
        # one-dimensional pieces so every block entry can be spelled out
        a1 = st(1, {(0, 0, 0): Q(2)})
        a2 = st(1, {(0, 0, 0): Q(-1)})
        l1 = RepTensor(1, 1, (((Q(3),),),))
        r1 = RepTensor(1, 1, (((Q(5),),),))
        l2 = RepTensor(1, 1, (((Q(7),),),))
        r2 = RepTensor(1, 1, (((Q(11),),),))
        glued = glue_product(MatchedPairData(a1, a2, l1, r1, l2, r2))
        assert glued.c[0][0][0] == 2       # product in the first algebra
        assert glued.c[1][1][1] == -1      # product in the second
        assert glued.c[0][1][0] == 11      # r2 sends the second back to the first
        assert glued.c[0][1][1] == 3       # l1 acts on the second
        assert glued.c[1][0][0] == 7       # l2 acts on the first
        assert glued.c[1][0][1] == 5       # r1 sends the first to the second


class TestDualActions:
    def test_actions_are_dual_left_actions(self):
        pA = plsa("plsa-2d-III")
        pB = plsa("plsa-2d-I")
        mp = dual_actions(pA, pB)
        dotA = op_add(*pA)
        dotB = op_add(*pB)
        assert mp.A1 == dotA
        assert mp.A2 == dotB
        assert mp.l1 == dual_left_action(dotA)
        assert mp.r1 == dual_left_action(pA[0])
        assert mp.l2 == dual_left_action(dotB)
        assert mp.r2 == dual_left_action(pB[0])


class TestCanonicalSkewPairing:
    def test_entries(self):
        w = canonical_skew_pairing(3)
        assert w.n == 6
        for i in range(3):
            assert w.m[i][3 + i] == -1
            assert w.m[3 + i][i] == 1
        total = sum(1 for row in w.m for q in row if q)
        assert total == 6


class TestDoubleExtension:
    def test_catalog_with_zero_dual(self):
        for name in PLSA_NAMES:
            ded, rep = double_extension(plsa(name), ZERO_PAIR)
            assert rep.verdict, (name, rep.violations[:3])
            assert rep.check == "double-extension"
            assert ded.omega_p == canonical_skew_pairing(2)
            assert brute_left_symmetric(ded.glued.c)
            ss = check_special_symplectic(sub_adjacent(ded.glued), ded.glued,
                                          ded.omega_p)
            assert ss.verdict, name

    def test_zero_with_catalog_dual(self):
        for name in PLSA_NAMES:
            ded, rep = double_extension(ZERO_PAIR, plsa(name))
            assert rep.verdict, (name, rep.violations[:3])

    def test_rejects_non_plsa_side(self):
        bad_prec = st(2, {(0, 1, 0): Q(1)})  # not commutative
        with pytest.raises(InvalidInput):
            double_extension((bad_prec, st(2)), ZERO_PAIR)

    def test_unmatched_duals_raise(self):
        with pytest.raises(NotMatched):
            double_extension(plsa("plsa-2d-II"), plsa("plsa-2d-III"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            double_extension((st(2), st(2)), (st(3), st(3)))


class TestDoublePlsa:
    def test_pair_sums_to_glued_product_everywhere(self):
        # identity between the two routes, whether or not the pair matches
        for n1 in PLSA_NAMES:
            for n2 in PLSA_NAMES:
                pA, pB = plsa(n1), plsa(n2)
                prec_d, succ_d = build_double_plsa(pA, pB)
                glued = glue_product(dual_actions(pA, pB))
                assert op_add(prec_d, succ_d) == glued, (n1, n2)

    def test_double_pair_valid_iff_matched(self):
        for n1 in PLSA_NAMES:
            for n2 in PLSA_NAMES:
                pA, pB = plsa(n1), plsa(n2)
                mrep = check_matched_pair(dual_actions(pA, pB))
                prep = check_plsa(*build_double_plsa(pA, pB))
                assert mrep.verdict == prep.verdict, (n1, n2)

    def test_blocks_restrict_to_summands(self):
        pA = plsa("plsa-2d-II")
        prec_d, succ_d = build_double_plsa(pA, ZERO_PAIR)
        precA, succA = pA
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert prec_d.c[i][j][k] == precA.c[i][j][k]
                    assert succ_d.c[i][j][k] == succA.c[i][j][k]
                    assert prec_d.c[2 + i][2 + j][2 + k] == 0
                    assert succ_d.c[2 + i][2 + j][2 + k] == 0

    def test_mixed_prec_is_symmetric(self):
        for n1 in PLSA_NAMES:
            for n2 in PLSA_NAMES:
                prec_d, _ = build_double_plsa(plsa(n1), plsa(n2))
                for i in range(2):
                    for a in range(2):
                        assert prec_d.c[i][2 + a] == prec_d.c[2 + a][i], (n1, n2)

    def test_mixed_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_double_plsa((st(2), st(2)), (st(3), st(3)))


def _oracle_report(mp, mixed=mixed_compat_violations, bimodule=bimodule_violations):
    """check_matched_pair's report from the oracles (the dense loops, or
    others of the same signatures): the four mixed identities, then both
    bimodule reports under their sub-check names."""
    c1, c2, l1, r1, l2, r2 = mp.A1.c, mp.A2.c, mp.l1.t, mp.r1.t, mp.l2.t, mp.r2.t
    viol = (mixed(c1, l1, r1, l2, r2, "mixed-compat-1", "mixed-compat-2")
            + mixed(c2, l2, r2, l1, r1, "mixed-compat-3", "mixed-compat-4"))
    for name, c, l, r in (("bimodule(A1)", c1, l1, r1), ("bimodule(A2)", c2, l2, r2)):
        viol += [("%s: %s" % (name, w), idx, res) for w, idx, res in bimodule(c, l, r)]
    return CheckReport("matched-pair", not viol, tuple(Violation(*v) for v in viol))


def _residual_entries_are_fractions(rep):
    return all(type(x) is Fraction for v in rep.violations
               for x in (v.residual if isinstance(v.residual, tuple) else (v.residual,)))


def _prec_bumped(pair):
    """The pair with 1 added to the e_0 prec e_1 -> e_0 constant of prec."""
    prec, succ = pair
    return st(prec.n, {(i, j, k): x + (1 if (i, j, k) == (0, 1, 0) else 0)
                       for i, plane in enumerate(prec.c) for j, row in enumerate(plane)
                       for k, x in enumerate(row)}), succ


class TestMatchedPairMatchesOracles:
    @settings(max_examples=30)
    @given(hs.data())
    def test_whole_report(self, data):
        """Random products and actions on sides of unequal dimension."""
        n, m = data.draw(hs.integers(1, 4)), data.draw(hs.integers(1, 4))
        c1, c2 = data.draw(tensors((n, n, n))), data.draw(tensors((m, m, m)))
        l1, r1 = data.draw(tensors((n, m, m))), data.draw(tensors((n, m, m)))
        l2, r2 = data.draw(tensors((m, n, n))), data.draw(tensors((m, n, n)))
        mp = MatchedPairData(StructureTensor(n, c1), StructureTensor(m, c2),
                             RepTensor(n, m, l1), RepTensor(n, m, r1),
                             RepTensor(m, n, l2), RepTensor(m, n, r2))
        got = check_matched_pair(mp)
        assert got == _oracle_report(mp)
        assert _residual_entries_are_fractions(got)

    def test_denominator_per_tensor(self):
        """Products over 2 and 3 and actions over 5, 7, 11 and 13, so every
        term of the four mixed identities carries its own denominator
        product."""
        r = rng(117)
        n, m = 2, 3
        mp = MatchedPairData(StructureTensor(n, rand_over(r, (n, n, n), 2)),
                             StructureTensor(m, rand_over(r, (m, m, m), 3)),
                             RepTensor(n, m, rand_over(r, (n, m, m), 5)),
                             RepTensor(n, m, rand_over(r, (n, m, m), 7)),
                             RepTensor(m, n, rand_over(r, (m, n, n), 11)),
                             RepTensor(m, n, rand_over(r, (m, n, n), 13)))
        got = check_matched_pair(mp)
        assert {v.where for v in got.violations} >= {
            "mixed-compat-%d" % k for k in (1, 2, 3, 4)}
        assert got == _oracle_report(mp)

    def test_whole_report_at_dim_five(self):
        """Sides of dimension 5 and 4, about half of every entry zero: many
        violations of all four mixed identities, merged by (c, i, j), and
        of both bimodule reports, each pair under its own label."""
        r = rng(207)
        n, m = 5, 4
        def cut(t, a, b):  # the first a planes of t, each cut to b x b
            return tuple(tuple(row[:b] for row in plane[:b]) for plane in t[:a])
        c1, c2 = rand_share_tensor(r, n, 0.5), rand_share_tensor(r, m, 0.5)
        l1, r1 = (cut(rand_share_tensor(r, n, 0.5), n, m) for _ in range(2))
        l2, r2 = (cut(rand_share_tensor(r, n, 0.5), m, n) for _ in range(2))
        mp = MatchedPairData(StructureTensor(n, c1), StructureTensor(m, c2),
                             RepTensor(n, m, l1), RepTensor(n, m, r1),
                             RepTensor(m, n, l2), RepTensor(m, n, r2))
        got = check_matched_pair(mp)
        wheres = [v.where for v in got.violations]
        assert all(wheres.count("mixed-compat-%d" % k) > 10 for k in (1, 2, 3, 4))
        assert got == _oracle_report(mp)

    def test_mixed_compat_merge_order(self):
        """Identities 1 and 2 both fail at (i, j, c) = (0, 1, 0), and
        identity 2 also fails at (0, 0, 0): the report lists them by (c, i, j),
        identity 1 before identity 2 at one tuple."""
        zero = RepTensor(2, 1, (((Q(0),),), ((Q(0),),)))
        mp = MatchedPairData(st(2, {(0, 0, 1): -1, (0, 1, 0): -1}), st(1), zero, zero,
                             RepTensor(1, 2, (((Q(0), Q(0)), (Q(0), Q(0))),)),
                             RepTensor(1, 2, (((Q(1), Q(0)), (Q(0), Q(0))),)))
        rep = check_matched_pair(mp)
        assert rep.violations == (
            Violation("mixed-compat-2", (0, 0, 0), (Q(0), Q(-1))),
            Violation("mixed-compat-1", (0, 1, 0), (Q(-1), Q(0))),
            Violation("mixed-compat-2", (0, 1, 0), (Q(-1), Q(0))),
            Violation("bimodule(A2): bimodule-2 at (0,0)", (0, 0), Q(1)))
        assert rep == _oracle_report(mp)

    def test_catalog_dual_actions_pass_and_a_bump_fails(self):
        for name in PLSA_NAMES:
            mp = dual_actions(plsa(name), ZERO_PAIR)
            rep = check_matched_pair(mp)
            assert rep.verdict and rep == _oracle_report(mp), name
            bumped = dual_actions(_prec_bumped(plsa(name)), ZERO_PAIR)
            rep = check_matched_pair(bumped)
            assert not rep.verdict and rep == _oracle_report(bumped), name
            assert _residual_entries_are_fractions(rep)

    def test_misshapen_action_raises(self):
        one = ((Q(1),),)
        small = RepTensor(2, 2, (one, one))  # 1 x 1 matrices for a 2-dim module
        for slot in range(4):
            acts = [zero_rep(2, 2) for _ in range(4)]
            acts[slot] = small
            with pytest.raises(DimensionMismatch):
                check_matched_pair(MatchedPairData(st(2), st(2), *acts))
